#include "harness/scenario_file.hpp"

#include <algorithm>
#include <istream>
#include <set>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace stayaway::harness {

namespace {

std::string trim(const std::string& s) {
  auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw PreconditionError("scenario line " + std::to_string(line) + ": " +
                          message);
}

double parse_double(std::size_t line, const std::string& value) {
  try {
    std::size_t pos = 0;
    double v = std::stod(value, &pos);
    if (pos != value.size()) fail(line, "trailing characters in number");
    return v;
  } catch (const std::logic_error&) {
    fail(line, "expected a number, got '" + value + "'");
  }
}

/// Plain decimal counts only: signs, fractions, NaN and exponent forms
/// are errors, not silent truncations.
std::size_t parse_count(std::size_t line, const std::string& value) {
  std::uint64_t v = 0;
  if (!parse_u64(value, v)) {
    fail(line, "expected a non-negative integer, got '" + value + "'");
  }
  return static_cast<std::size_t>(v);
}

bool parse_bool(std::size_t line, const std::string& value) {
  if (value == "true" || value == "yes" || value == "1") return true;
  if (value == "false" || value == "no" || value == "0") return false;
  fail(line, "expected true/false, got '" + value + "'");
}

std::uint64_t parse_seed(std::size_t line, const std::string& value) {
  // Plain decimal covers the full 64-bit range; the double fallback
  // keeps forms like `seed = 1e6` working but truncates above 2^53 —
  // recorded scenarios always use the exact decimal form.
  std::uint64_t seed = 0;
  if (parse_u64(value, seed)) return seed;
  return static_cast<std::uint64_t>(parse_double(line, value));
}

/// Truncates `line` at the first '#' that is not inside a double-quoted
/// region. Inside quotes a backslash escapes the next character, so
/// `path = "a\"# b"` keeps its '#'.
std::string strip_comment(const std::string& line) {
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes && c == '\\' && i + 1 < line.size()) {
      ++i;  // escaped character, never a delimiter
      continue;
    }
    if (c == '"') in_quotes = !in_quotes;
    if (c == '#' && !in_quotes) return line.substr(0, i);
  }
  return line;
}

/// Decodes a double-quoted value (`"a # b"`, escapes \\ \" \n \t \r).
/// Values not starting with a quote pass through untouched.
std::string unquote_value(std::size_t line_no, const std::string& value) {
  if (value.empty() || value.front() != '"') return value;
  std::string out;
  std::size_t i = 1;
  for (; i < value.size(); ++i) {
    char c = value[i];
    if (c == '"') {
      if (i + 1 != value.size()) {
        fail(line_no, "trailing characters after closing quote");
      }
      return out;
    }
    if (c == '\\') {
      if (i + 1 == value.size()) fail(line_no, "dangling escape in string");
      char esc = value[++i];
      switch (esc) {
        case '\\': out += '\\'; break;
        case '"': out += '"'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        default:
          fail(line_no, std::string("unknown escape '\\") + esc + "'");
      }
      continue;
    }
    out += c;
  }
  fail(line_no, "unterminated quoted string");
}

bool needs_quoting(const std::string& s) {
  if (s.empty()) return true;
  if (s.front() == '"' || s.front() == ' ' || s.back() == ' ') return true;
  return s.find_first_of("#\\\"\n\t\r") != std::string::npos;
}

std::string quote_value(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

std::string maybe_quote(const std::string& s) {
  return needs_quoting(s) ? quote_value(s) : s;
}

}  // namespace

SensitiveKind sensitive_kind_from_string(const std::string& name) {
  for (auto kind : {SensitiveKind::VlcStream, SensitiveKind::WebserviceCpu,
                    SensitiveKind::WebserviceMem, SensitiveKind::WebserviceMix,
                    SensitiveKind::VlcTranscode, SensitiveKind::FlashCrowd}) {
    if (name == to_string(kind)) return kind;
  }
  throw PreconditionError("unknown sensitive app: " + name);
}

BatchKind batch_kind_from_string(const std::string& name) {
  for (auto kind : {BatchKind::None, BatchKind::CpuBomb, BatchKind::MemBomb,
                    BatchKind::Soplex, BatchKind::TwitterAnalysis,
                    BatchKind::VlcTranscode, BatchKind::Batch1,
                    BatchKind::Batch2}) {
    if (name == to_string(kind)) return kind;
  }
  throw PreconditionError("unknown batch app: " + name);
}

PolicyKind policy_kind_from_string(const std::string& name) {
  for (auto kind : {PolicyKind::NoPrevention, PolicyKind::StayAway,
                    PolicyKind::Reactive, PolicyKind::StaticThreshold}) {
    if (name == to_string(kind)) return kind;
  }
  throw PreconditionError("unknown policy: " + name);
}

namespace {

/// Accumulated parse state for one scenario body (the base document or
/// one [host] section overlaying it). Copyable: a host section starts
/// from a copy of the base state with a fresh duplicate-key set.
struct ParserState {
  Scenario scenario;
  std::set<std::string> seen;
  std::set<std::string> vm_names;
  std::vector<sim::FaultSpec> fault_specs;
  std::optional<std::uint64_t> fault_seed;

  void consume(std::size_t line_no, const std::string& key,
               const std::string& value);
  /// Applies the deferred workload/fault post-processing (both depend on
  /// the final seed/duration) and returns the finished scenario.
  Scenario finish() const;
};

void ParserState::consume(std::size_t line_no, const std::string& key,
                          const std::string& value) {
    // `fault` and `vm` are list-building keys and may repeat; everything
    // else appears at most once.
    bool repeatable = key == "fault" || key == "vm";
    if (!repeatable && !seen.insert(key).second) {
      fail(line_no, "duplicate key '" + key + "'");
    }

    auto& spec = scenario.spec;
    try {
      if (key == "sensitive") {
        spec.sensitive = sensitive_kind_from_string(value);
      } else if (key == "batch") {
        spec.batch = batch_kind_from_string(value);
      } else if (key == "policy") {
        spec.policy = policy_kind_from_string(value);
      } else if (key == "duration_s") {
        spec.duration_s = parse_double(line_no, value);
      } else if (key == "period_s") {
        spec.period_s = parse_double(line_no, value);
      } else if (key == "tick_s") {
        spec.tick_s = parse_double(line_no, value);
      } else if (key == "batch_start_s") {
        spec.batch_start_s = parse_double(line_no, value);
      } else if (key == "sensitive_start_s") {
        spec.sensitive_start_s = parse_double(line_no, value);
      } else if (key == "seed") {
        spec.seed = parse_seed(line_no, value);
      } else if (key == "workload") {
        if (value != "constant" && value != "diurnal") {
          fail(line_no, "workload must be 'constant' or 'diurnal'");
        }
        scenario.workload = value;
      } else if (key == "workload_cycles") {
        scenario.workload_cycles = parse_double(line_no, value);
      } else if (key == "dedup_epsilon") {
        spec.stayaway.dedup_epsilon = parse_double(line_no, value);
      } else if (key == "prediction_samples") {
        spec.stayaway.prediction_samples = parse_count(line_no, value);
      } else if (key == "beta_initial") {
        spec.stayaway.governor.beta_initial = parse_double(line_no, value);
      } else if (key == "beta_increment") {
        spec.stayaway.governor.beta_increment = parse_double(line_no, value);
      } else if (key == "beta_max") {
        spec.stayaway.governor.beta_max = parse_double(line_no, value);
      } else if (key == "resume_grace_s") {
        spec.stayaway.governor.resume_grace_s = parse_double(line_no, value);
      } else if (key == "starvation_patience_s") {
        spec.stayaway.governor.starvation_patience_s =
            parse_double(line_no, value);
      } else if (key == "random_resume_probability") {
        spec.stayaway.governor.random_resume_probability =
            parse_double(line_no, value);
      } else if (key == "actions_enabled") {
        spec.stayaway.actions_enabled = parse_bool(line_no, value);
      } else if (key == "allow_sensitive_demotion") {
        spec.stayaway.allow_sensitive_demotion = parse_bool(line_no, value);
      } else if (key == "aggregate_batch") {
        spec.stayaway.sampler.aggregate_batch = parse_bool(line_no, value);
      } else if (key == "noise_fraction") {
        spec.stayaway.sampler.noise_fraction = parse_double(line_no, value);
      } else if (key == "metrics") {
        // Comma-separated sampler metric set, e.g. `metrics = cpu,mem,io`.
        std::vector<monitor::MetricKind> metrics;
        std::string rest = value;
        while (!rest.empty()) {
          auto comma = rest.find(',');
          std::string item = trim(rest.substr(0, comma));
          rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
          if (item.empty()) fail(line_no, "empty metric name in list");
          metrics.push_back(monitor::metric_kind_from_string(item));
        }
        if (metrics.empty()) fail(line_no, "metric list must not be empty");
        spec.stayaway.sampler.metrics = std::move(metrics);
      } else if (key == "ingest_source") {
        // Streaming ingestion (DESIGN.md §15): sync is the default
        // one-sample-per-period path, ring drains a trace-replay stream.
        if (value == "sync") {
          spec.stayaway.ingest.source = core::IngestSource::Synchronous;
        } else if (value == "ring") {
          spec.stayaway.ingest.source = core::IngestSource::Ring;
        } else {
          fail(line_no, "ingest_source must be 'sync' or 'ring'");
        }
      } else if (key == "ingest_rate_hz") {
        spec.stayaway.ingest.rate_hz = parse_double(line_no, value);
      } else if (key == "ingest_ring_capacity") {
        spec.stayaway.ingest.ring_capacity = parse_count(line_no, value);
      } else if (key == "ingest_lookahead_s") {
        spec.stayaway.ingest.lookahead_s = parse_double(line_no, value);
      } else if (key == "ingest_burst_rate_hz") {
        spec.stayaway.ingest.burst_rate_hz = parse_double(line_no, value);
      } else if (key == "ingest_burst_start_s") {
        spec.stayaway.ingest.burst_start_s = parse_double(line_no, value);
      } else if (key == "ingest_burst_end_s") {
        spec.stayaway.ingest.burst_end_s = parse_double(line_no, value);
      } else if (key == "vm") {
        // `vm = name:kind[:start_s]` — an extra named batch VM.
        auto c1 = value.find(':');
        if (c1 == std::string::npos) {
          fail(line_no, "expected 'name:kind[:start_s]', got '" + value + "'");
        }
        auto c2 = value.find(':', c1 + 1);
        ExtraVmSpec extra;
        extra.name = trim(value.substr(0, c1));
        std::string kind =
            trim(value.substr(c1 + 1, c2 == std::string::npos
                                          ? std::string::npos
                                          : c2 - c1 - 1));
        if (extra.name.empty()) fail(line_no, "empty VM name");
        if (kind.empty()) fail(line_no, "empty VM kind");
        if (!vm_names.insert(extra.name).second) {
          fail(line_no, "duplicate VM name '" + extra.name + "'");
        }
        extra.kind = batch_kind_from_string(kind);
        if (extra.kind == BatchKind::None) {
          fail(line_no, "extra VM kind must not be 'none'");
        }
        if (c2 != std::string::npos) {
          extra.start_s = parse_double(line_no, trim(value.substr(c2 + 1)));
          if (extra.start_s < 0.0) fail(line_no, "start_s must be >= 0");
        }
        spec.extra_batch.push_back(std::move(extra));
      } else if (key == "fault") {
        fault_specs.push_back(sim::parse_fault_spec(value, line_no));
      } else if (key == "fault_seed") {
        fault_seed = parse_seed(line_no, value);
      } else if (key == "compare") {
        scenario.compare = parse_bool(line_no, value);
      } else if (key == "template_in") {
        scenario.template_in = value;
      } else if (key == "template_out") {
        scenario.template_out = value;
      } else if (key == "series_csv") {
        scenario.series_csv = value;
      } else {
        fail(line_no, "unknown key '" + key + "'");
      }
    } catch (const PreconditionError& e) {
      // Re-tag enum-lookup errors with the line number.
      std::string what = e.what();
      if (what.rfind("scenario line", 0) == 0) throw;
      fail(line_no, what);
    }
}

Scenario ParserState::finish() const {
  Scenario out = scenario;
  if (out.workload == "diurnal") {
    out.spec.workload = compressed_diurnal(out.spec.duration_s,
                                           out.workload_cycles, out.spec.seed);
  }
  if (!fault_specs.empty()) {
    // Fault schedules are always explicitly seeded (the lint rule enforces
    // the same for code): fault_seed when given, else the experiment seed.
    sim::FaultPlan plan;
    plan.seed = fault_seed.value_or(out.spec.seed);
    plan.faults = fault_specs;
    out.spec.faults = std::move(plan);
  }
  return out;
}

/// Splits a colon-separated compound value, trimming each part.
std::vector<std::string> split_colons(const std::string& value) {
  std::vector<std::string> parts;
  std::size_t pos = 0;
  while (true) {
    auto c = value.find(':', pos);
    parts.push_back(trim(
        value.substr(pos, c == std::string::npos ? std::string::npos
                                                 : c - pos)));
    if (c == std::string::npos) break;
    pos = c + 1;
  }
  return parts;
}

/// One `[cluster]` section key (DESIGN.md §18): coordinator knobs plus
/// the repeatable mobile/admit VM lists.
void consume_cluster_key(std::size_t line_no, const std::string& key,
                         const std::string& value, ClusterSpec& cluster,
                         std::set<std::string>& seen,
                         std::set<std::string>& vm_names) {
  bool repeatable = key == "mobile" || key == "admit";
  if (!repeatable && !seen.insert(key).second) {
    fail(line_no, "duplicate key '" + key + "'");
  }
  if (key == "migrate") {
    cluster.config.migrate = parse_bool(line_no, value);
  } else if (key == "admit_margin") {
    cluster.config.admit_margin = parse_double(line_no, value);
  } else if (key == "admit_patience") {
    cluster.config.admit_patience = parse_count(line_no, value);
  } else if (key == "migration_cooldown") {
    cluster.config.migration_cooldown = parse_count(line_no, value);
  } else if (key == "admit_footprint") {
    cluster.config.admit_footprint = parse_double(line_no, value);
  } else if (key == "mobile") {
    // `mobile = name:kind:home[:start_s]` — a migratable batch VM.
    std::vector<std::string> parts = split_colons(value);
    if (parts.size() < 3 || parts.size() > 4) {
      fail(line_no, "expected 'name:kind:home[:start_s]', got '" + value + "'");
    }
    MobileVmSpec m;
    m.name = parts[0];
    if (m.name.empty()) fail(line_no, "empty VM name");
    if (!vm_names.insert(m.name).second) {
      fail(line_no, "duplicate cluster VM name '" + m.name + "'");
    }
    try {
      m.kind = batch_kind_from_string(parts[1]);
    } catch (const PreconditionError& e) {
      fail(line_no, e.what());
    }
    if (m.kind == BatchKind::None) {
      fail(line_no, "mobile VM kind must not be 'none'");
    }
    m.home = parts[2];
    if (m.home.empty()) fail(line_no, "empty home host name");
    if (parts.size() == 4) {
      m.start_s = parse_double(line_no, parts[3]);
      if (m.start_s < 0.0) fail(line_no, "start_s must be >= 0");
    }
    cluster.mobile.push_back(std::move(m));
  } else if (key == "admit") {
    // `admit = name:kind:arrival_s` — an incoming batch VM.
    std::vector<std::string> parts = split_colons(value);
    if (parts.size() != 3) {
      fail(line_no, "expected 'name:kind:arrival_s', got '" + value + "'");
    }
    AdmissionSpec a;
    a.name = parts[0];
    if (a.name.empty()) fail(line_no, "empty VM name");
    if (!vm_names.insert(a.name).second) {
      fail(line_no, "duplicate cluster VM name '" + a.name + "'");
    }
    try {
      a.kind = batch_kind_from_string(parts[1]);
    } catch (const PreconditionError& e) {
      fail(line_no, e.what());
    }
    if (a.kind == BatchKind::None) {
      fail(line_no, "admission VM kind must not be 'none'");
    }
    a.arrival_s = parse_double(line_no, parts[2]);
    if (a.arrival_s < 0.0) fail(line_no, "arrival_s must be >= 0");
    cluster.admissions.push_back(std::move(a));
  } else {
    fail(line_no, "unknown [cluster] key '" + key + "'");
  }
}

/// Parses a `[host "name"]` section header (the line arrives
/// comment-stripped and trimmed, starting with '[').
std::string parse_host_header(std::size_t line_no, const std::string& line) {
  if (line.back() != ']') fail(line_no, "unterminated section header");
  std::string inner = trim(line.substr(1, line.size() - 2));
  if (inner.rfind("host", 0) != 0) {
    fail(line_no, "unknown section '" + inner +
                      "' (expected [host \"name\"] or [cluster])");
  }
  std::string rest = trim(inner.substr(4));
  if (rest.size() < 2 || rest.front() != '"' || rest.back() != '"') {
    fail(line_no, "host name must be quoted: [host \"name\"]");
  }
  std::string name = rest.substr(1, rest.size() - 2);
  if (name.empty()) fail(line_no, "host name must not be empty");
  return name;
}

}  // namespace

FleetScenario parse_fleet_scenario(std::istream& in) {
  FleetScenario fleet;
  ParserState base;
  // Host states overlay a snapshot of the base state taken at their
  // section header; `current` indexes into hosts, npos = still in base.
  std::vector<std::pair<std::string, ParserState>> hosts;
  std::set<std::string> host_names;
  constexpr std::size_t kBase = static_cast<std::size_t>(-1);
  constexpr std::size_t kCluster = static_cast<std::size_t>(-2);
  std::size_t current = kBase;
  bool seen_workers = false;
  std::set<std::string> cluster_seen;
  std::set<std::string> cluster_vm_names;

  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string line = trim(strip_comment(raw));
    // getline leaving eofbit set means the stream ran dry before the
    // delimiter: the final line lost its newline. A scenario truncated
    // mid-line (half a `key = value`) must not parse as a shorter but
    // valid scenario; an unterminated blank or comment line is harmless.
    if (in.eof() && !line.empty()) {
      fail(line_no, "truncated scenario: final line '" + line +
                        "' is missing its newline");
    }
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() == ']' &&
          trim(line.substr(1, line.size() - 2)) == "cluster") {
        if (fleet.cluster.has_value()) {
          fail(line_no, "duplicate [cluster] section");
        }
        fleet.cluster.emplace();
        fleet.fleet_syntax = true;
        current = kCluster;
        continue;
      }
      std::string name = parse_host_header(line_no, line);
      if (!host_names.insert(name).second) {
        fail(line_no, "duplicate host section '" + name + "'");
      }
      fleet.fleet_syntax = true;
      ParserState host = base;
      // Scalar base keys may be overridden once per section; inherited
      // VMs keep their names reserved so overlays cannot collide.
      host.seen.clear();
      hosts.emplace_back(std::move(name), std::move(host));
      current = hosts.size() - 1;
      continue;
    }

    auto eq = line.find('=');
    if (eq == std::string::npos) fail(line_no, "expected 'key = value'");
    std::string key = trim(line.substr(0, eq));
    std::string value = trim(line.substr(eq + 1));
    if (key.empty()) fail(line_no, "empty key");
    if (value.empty()) fail(line_no, "empty value for '" + key + "'");
    value = unquote_value(line_no, value);

    if (key == "workers") {
      if (current != kBase) {
        fail(line_no,
             "'workers' is a fleet-level key; set it before any [host] "
             "section");
      }
      if (seen_workers) fail(line_no, "duplicate key 'workers'");
      seen_workers = true;
      fleet.fleet_syntax = true;
      fleet.workers = parse_count(line_no, value);
      if (fleet.workers < 1) fail(line_no, "workers must be >= 1");
      continue;
    }

    if (current == kCluster) {
      consume_cluster_key(line_no, key, value, *fleet.cluster, cluster_seen,
                          cluster_vm_names);
      continue;
    }
    ParserState& state = current == kBase ? base : hosts[current].second;
    state.consume(line_no, key, value);
  }

  if (fleet.cluster.has_value()) {
    if (hosts.empty()) {
      throw PreconditionError(
          "a [cluster] section requires explicit [host] sections");
    }
    for (const MobileVmSpec& m : fleet.cluster->mobile) {
      if (host_names.find(m.home) == host_names.end()) {
        throw PreconditionError("mobile VM '" + m.name +
                                "' names an unknown home host: " + m.home);
      }
    }
  }
  fleet.base = base.finish();
  fleet.hosts.reserve(hosts.size());
  for (const auto& [name, state] : hosts) {
    fleet.hosts.emplace_back(name, state.finish());
  }
  return fleet;
}

Scenario parse_scenario(std::istream& in) {
  FleetScenario fleet = parse_fleet_scenario(in);
  if (fleet.fleet_syntax) {
    throw PreconditionError(
        "multi-host scenario ([host] sections / workers key): use "
        "parse_fleet_scenario");
  }
  return fleet.base;
}

namespace {

/// One scenario body in canonical key order: every scalar the parser
/// accepts is written explicitly (no reliance on defaults drifting),
/// list keys follow in spec order, optional paths only when set.
void serialize_body(const Scenario& scenario, std::string& out) {
  const ExperimentSpec& spec = scenario.spec;
  auto kv = [&out](const char* key, const std::string& value) {
    out += key;
    out += " = ";
    out += value;
    out += '\n';
  };
  auto kvd = [&kv](const char* key, double value) {
    kv(key, format_double_exact(value));
  };
  auto kvb = [&kv](const char* key, bool value) {
    kv(key, value ? "true" : "false");
  };
  kv("sensitive", to_string(spec.sensitive));
  kv("batch", to_string(spec.batch));
  kv("policy", to_string(spec.policy));
  kvd("duration_s", spec.duration_s);
  kvd("period_s", spec.period_s);
  kvd("tick_s", spec.tick_s);
  kvd("batch_start_s", spec.batch_start_s);
  kvd("sensitive_start_s", spec.sensitive_start_s);
  kv("seed", std::to_string(spec.seed));
  kv("workload", scenario.workload);
  kvd("workload_cycles", scenario.workload_cycles);
  kvd("dedup_epsilon", spec.stayaway.dedup_epsilon);
  kv("prediction_samples", std::to_string(spec.stayaway.prediction_samples));
  kvd("beta_initial", spec.stayaway.governor.beta_initial);
  kvd("beta_increment", spec.stayaway.governor.beta_increment);
  kvd("beta_max", spec.stayaway.governor.beta_max);
  kvd("resume_grace_s", spec.stayaway.governor.resume_grace_s);
  kvd("starvation_patience_s", spec.stayaway.governor.starvation_patience_s);
  kvd("random_resume_probability",
      spec.stayaway.governor.random_resume_probability);
  kvb("actions_enabled", spec.stayaway.actions_enabled);
  kvb("allow_sensitive_demotion", spec.stayaway.allow_sensitive_demotion);
  kvb("aggregate_batch", spec.stayaway.sampler.aggregate_batch);
  kvd("noise_fraction", spec.stayaway.sampler.noise_fraction);
  std::vector<std::string> metric_names;
  metric_names.reserve(spec.stayaway.sampler.metrics.size());
  for (monitor::MetricKind m : spec.stayaway.sampler.metrics) {
    metric_names.emplace_back(monitor::to_string(m));
  }
  kv("metrics", join(metric_names, ","));
  if (spec.stayaway.ingest != core::IngestConfig{}) {
    // The ingest block is emitted only when it differs from the default:
    // historical scenarios (and the scenario text embedded in committed
    // run-logs) keep their exact canonical bytes.
    kv("ingest_source", spec.stayaway.ingest.source == core::IngestSource::Ring
                            ? "ring"
                            : "sync");
    kvd("ingest_rate_hz", spec.stayaway.ingest.rate_hz);
    kv("ingest_ring_capacity",
       std::to_string(spec.stayaway.ingest.ring_capacity));
    kvd("ingest_lookahead_s", spec.stayaway.ingest.lookahead_s);
    kvd("ingest_burst_rate_hz", spec.stayaway.ingest.burst_rate_hz);
    kvd("ingest_burst_start_s", spec.stayaway.ingest.burst_start_s);
    kvd("ingest_burst_end_s", spec.stayaway.ingest.burst_end_s);
  }
  for (const ExtraVmSpec& vm : spec.extra_batch) {
    kv("vm", maybe_quote(vm.name + ":" + std::string(to_string(vm.kind)) +
                         ":" + format_double_exact(vm.start_s)));
  }
  if (spec.faults.has_value() && !spec.faults->faults.empty()) {
    kv("fault_seed", std::to_string(spec.faults->seed));
    for (const sim::FaultSpec& f : spec.faults->faults) {
      kv("fault", sim::to_spec_string(f));
    }
  }
  if (scenario.compare) kvb("compare", true);
  if (scenario.template_in.has_value()) {
    kv("template_in", maybe_quote(*scenario.template_in));
  }
  if (scenario.template_out.has_value()) {
    kv("template_out", maybe_quote(*scenario.template_out));
  }
  if (scenario.series_csv.has_value()) {
    kv("series_csv", maybe_quote(*scenario.series_csv));
  }
}

}  // namespace

std::string serialize_scenario(const Scenario& scenario) {
  std::string out;
  serialize_body(scenario, out);
  return out;
}

std::string serialize_fleet_scenario(const FleetScenario& fleet) {
  if (!fleet.fleet_syntax) return serialize_scenario(fleet.base);
  std::string out = "workers = " + std::to_string(fleet.workers) + "\n";
  if (fleet.cluster.has_value()) {
    // Every knob explicit, VM lists in spec order; ClusterSpec::restore
    // is runtime-only state and never serialized.
    const ClusterSpec& c = *fleet.cluster;
    out += "[cluster]\n";
    out += std::string("migrate = ") +
           (c.config.migrate ? "true" : "false") + "\n";
    out += "admit_margin = " + format_double_exact(c.config.admit_margin) +
           "\n";
    out += "admit_patience = " + std::to_string(c.config.admit_patience) +
           "\n";
    out += "migration_cooldown = " +
           std::to_string(c.config.migration_cooldown) + "\n";
    out += "admit_footprint = " +
           format_double_exact(c.config.admit_footprint) + "\n";
    for (const MobileVmSpec& m : c.mobile) {
      out += "mobile = " +
             maybe_quote(m.name + ":" + std::string(to_string(m.kind)) + ":" +
                         m.home + ":" + format_double_exact(m.start_s)) +
             "\n";
    }
    for (const AdmissionSpec& a : c.admissions) {
      out += "admit = " +
             maybe_quote(a.name + ":" + std::string(to_string(a.kind)) + ":" +
                         format_double_exact(a.arrival_s)) +
             "\n";
    }
  }
  if (fleet.hosts.empty()) {
    // Degenerate fleet syntax (workers key only): the base body is the
    // single host.
    serialize_body(fleet.base, out);
    return out;
  }
  // Hosts are emitted fully expanded with no shared base body, so the
  // overlay order of the original document cannot change what a section
  // means when the canonical form is reparsed.
  for (const auto& [name, scenario] : fleet.hosts) {
    SA_REQUIRE(name.find('"') == std::string::npos &&
                   name.find('\n') == std::string::npos,
               "host names with quotes or newlines cannot be serialized");
    out += "[host \"" + name + "\"]\n";
    serialize_body(scenario, out);
  }
  return out;
}

}  // namespace stayaway::harness
