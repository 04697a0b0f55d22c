#include "harness/scenario_file.hpp"

#include <cmath>
#include <istream>
#include <set>

#include "util/check.hpp"
#include "util/keyvalue.hpp"
#include "util/strings.hpp"

namespace stayaway::harness {

namespace {

using util::SourceLine;

/// How one key's value is read and written back in canonical form.
template <class T>
struct Kind {
  T (*parse)(const SourceLine& at, const std::string& value);
  std::string (*format)(const T& value);
};

/// A finite real: nan or an infinite duration/rate would never end a run.
/// (Fault specs parse their own reals and keep accepting `end=inf`.)
constexpr Kind<double> kReal{
    [](const SourceLine& at, const std::string& v) {
      double x = at.real(v);
      if (!std::isfinite(x)) {
        at.fail("expected a finite number, got '" + v + "'");
      }
      return x;
    },
    [](const double& v) { return format_double_exact(v); }};

constexpr Kind<std::size_t> kCount{
    [](const SourceLine& at, const std::string& v) { return at.count(v); },
    [](const std::size_t& v) { return std::to_string(v); }};

constexpr Kind<std::uint64_t> kSeed{
    [](const SourceLine& at, const std::string& v) { return at.seed(v); },
    [](const std::uint64_t& v) { return std::to_string(v); }};

constexpr Kind<bool> kFlag{
    [](const SourceLine& at, const std::string& v) { return at.flag(v); },
    [](const bool& v) { return std::string(v ? "true" : "false"); }};

constexpr Kind<std::string> kPath{
    [](const SourceLine&, const std::string& v) { return v; },
    [](const std::string& v) { return util::maybe_quote(v); }};

/// An enum written as its to_string name.
template <class T, T (*kFromString)(const std::string&)>
constexpr Kind<T> kEnum{
    [](const SourceLine& at, const std::string& v) {
      return at.lookup(kFromString, v);
    },
    [](const T& v) { return std::string(to_string(v)); }};

constexpr Kind<std::string> kWorkload{
    [](const SourceLine& at, const std::string& v) {
      if (v != "constant" && v != "diurnal") {
        at.fail("expected 'constant' or 'diurnal', got '" + v + "'");
      }
      return v;
    },
    [](const std::string& v) { return v; }};

/// Streaming ingestion (DESIGN.md §15): sync is the default
/// one-sample-per-period path, ring drains a trace-replay stream.
constexpr Kind<monitor::IngestSource> kIngestSource{
    [](const SourceLine& at, const std::string& v) {
      if (v == "sync") return monitor::IngestSource::Synchronous;
      if (v == "ring") return monitor::IngestSource::Ring;
      at.fail("expected 'sync' or 'ring', got '" + v + "'");
    },
    [](const monitor::IngestSource& v) {
      return std::string(v == monitor::IngestSource::Ring ? "ring" : "sync");
    }};

/// A comma-separated sampler metric set, e.g. `cpu,mem,io`.
constexpr Kind<std::vector<monitor::MetricKind>> kMetrics{
    [](const SourceLine& at, const std::string& v) {
      std::vector<monitor::MetricKind> metrics;
      std::string rest = v;
      while (!rest.empty()) {
        auto comma = rest.find(',');
        std::string item = util::trim(rest.substr(0, comma));
        rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
        if (item.empty()) at.fail("empty metric name in list");
        metrics.push_back(at.lookup(monitor::metric_kind_from_string, item));
      }
      if (metrics.empty()) at.fail("metric list must not be empty");
      return metrics;
    },
    [](const std::vector<monitor::MetricKind>& v) {
      std::vector<std::string> names;
      names.reserve(v.size());
      for (monitor::MetricKind m : v) names.emplace_back(monitor::to_string(m));
      return join(names, ",");
    }};

double non_negative(const SourceLine& at, const std::string& text,
                    const char* what) {
  double v = at.real(text);
  if (v < 0.0) at.fail(std::string(what) + " must be >= 0");
  return v;
}

/// Parses a `name:kind[:...]` VM value of `min_parts` to `max_parts`
/// colon-separated parts (`usage` spells the form) into vm.name and
/// vm.kind, and returns the parts after those two, trimmed.
template <class Vm>
std::vector<std::string> parse_vm(const SourceLine& at,
                                  const std::string& value,
                                  std::size_t min_parts, std::size_t max_parts,
                                  const char* usage, Vm& vm) {
  std::vector<std::string> parts;
  for (std::size_t pos = 0;;) {
    auto c = value.find(':', pos);
    parts.push_back(util::trim(value.substr(
        pos, c == std::string::npos ? std::string::npos : c - pos)));
    if (c == std::string::npos) break;
    pos = c + 1;
  }
  if (parts.size() < min_parts || parts.size() > max_parts) {
    at.fail(std::string("expected '") + usage + "', got '" + value + "'");
  }
  vm.name = parts[0];
  if (vm.name.empty()) at.fail("empty VM name");
  vm.kind = at.lookup(batch_kind_from_string, parts[1]);
  if (vm.kind == BatchKind::None) at.fail("VM kind must not be 'none'");
  return {parts.begin() + 2, parts.end()};
}

/// `name:kind:<tail>`, quoted when the name needs it.
template <class Vm>
std::string format_vm(const Vm& vm, const std::string& tail) {
  return util::maybe_quote(vm.name + ":" + to_string(vm.kind) + ":" + tail);
}

/// An extra named batch VM: `name:kind[:start_s]`.
constexpr Kind<ExtraVmSpec> kExtraVm{
    [](const SourceLine& at, const std::string& v) {
      ExtraVmSpec vm;
      auto rest = parse_vm(at, v, 2, 3, "name:kind[:start_s]", vm);
      if (!rest.empty()) vm.start_s = non_negative(at, rest[0], "start_s");
      return vm;
    },
    [](const ExtraVmSpec& vm) {
      return format_vm(vm, format_double_exact(vm.start_s));
    }};

/// A migratable batch VM: `name:kind:home[:start_s]`.
constexpr Kind<MobileVmSpec> kMobileVm{
    [](const SourceLine& at, const std::string& v) {
      MobileVmSpec vm;
      auto rest = parse_vm(at, v, 3, 4, "name:kind:home[:start_s]", vm);
      vm.home = rest[0];
      if (vm.home.empty()) at.fail("empty home host name");
      if (rest.size() == 2) vm.start_s = non_negative(at, rest[1], "start_s");
      return vm;
    },
    [](const MobileVmSpec& vm) {
      return format_vm(vm, vm.home + ":" + format_double_exact(vm.start_s));
    }};

/// An incoming batch VM: `name:kind:arrival_s`.
constexpr Kind<AdmissionSpec> kAdmission{
    [](const SourceLine& at, const std::string& v) {
      AdmissionSpec vm;
      auto rest = parse_vm(at, v, 3, 3, "name:kind:arrival_s", vm);
      vm.arrival_s = non_negative(at, rest[0], "arrival_s");
      return vm;
    },
    [](const AdmissionSpec& vm) {
      return format_vm(vm, format_double_exact(vm.arrival_s));
    }};

constexpr Kind<sim::FaultSpec> kFault{
    [](const SourceLine& at, const std::string& v) {
      return sim::parse_fault_spec(v, at);
    },
    [](const sim::FaultSpec& f) { return sim::to_spec_string(f); }};

/// Walks a field list for the entry naming one line's key and parses
/// the value into it. Scalar keys appear at most once per section;
/// repeated keys append, and the VMs they name must be unique.
class FieldParser {
 public:
  FieldParser(const util::KeyValueLine& line, std::set<std::string>& seen,
              std::set<std::string>& vm_names)
      : line_(line), seen_(seen), vm_names_(vm_names) {}

  bool matched() const { return matched_; }
  /// Conditionally written keys are always accepted.
  bool when(bool /*written*/) const { return true; }

  template <class V, class T>
  void field(const char* key, V& value, const Kind<T>& kind) {
    if (!claim(key)) return;
    line_.require_unique(seen_);
    value = kind.parse(line_.at, line_.value);
  }

  template <class T>
  void repeated(const char* key, std::vector<T>& items, const Kind<T>& kind) {
    if (!claim(key)) return;
    T item = kind.parse(line_.at, line_.value);
    if constexpr (requires { item.name; }) {
      if (!vm_names_.insert(item.name).second) {
        line_.at.fail("duplicate VM name '" + item.name + "'");
      }
    }
    items.push_back(std::move(item));
  }

 private:
  bool claim(const char* key) {
    if (matched_ || line_.key != key) return false;
    matched_ = true;
    return true;
  }

  const util::KeyValueLine& line_;
  std::set<std::string>& seen_;
  std::set<std::string>& vm_names_;
  bool matched_ = false;
};

/// Writes a field list as canonical `key = value` lines in list order.
struct FieldWriter {
  std::string& out;

  bool when(bool written) const { return written; }

  template <class T>
  void field(const char* key, const T& value, const Kind<T>& kind) {
    line(key, kind.format(value));
  }

  /// Optional values are written only when set.
  template <class T>
  void field(const char* key, const std::optional<T>& value,
             const Kind<T>& kind) {
    if (value.has_value()) line(key, kind.format(*value));
  }

  template <class T>
  void repeated(const char* key, const std::vector<T>& items,
                const Kind<T>& kind) {
    for (const T& item : items) line(key, kind.format(item));
  }

  void line(const char* key, const std::string& value) {
    out += std::string(key) + " = " + value + "\n";
  }
};

/// The scenario body's keys, in canonical order. `faults` and
/// `fault_seed` stand for the document's `fault` lines and `fault_seed`
/// key: the parser folds them into spec.faults only once the final seed
/// is known (ParserState::finish).
void describe_body(auto& io, auto& scenario, auto& faults,
                   auto& fault_seed) {
  auto& spec = scenario.spec;
  auto& config = spec.stayaway;
  auto& governor = config.governor;
  auto& ingest = config.ingest;
  io.field("sensitive", spec.sensitive,
           kEnum<SensitiveKind, sensitive_kind_from_string>);
  io.field("batch", spec.batch, kEnum<BatchKind, batch_kind_from_string>);
  io.field("policy", spec.policy, kEnum<PolicyKind, policy_kind_from_string>);
  io.field("duration_s", spec.duration_s, kReal);
  io.field("period_s", spec.period_s, kReal);
  io.field("tick_s", spec.tick_s, kReal);
  io.field("batch_start_s", spec.batch_start_s, kReal);
  io.field("sensitive_start_s", spec.sensitive_start_s, kReal);
  io.field("seed", spec.seed, kSeed);
  io.field("workload", scenario.workload, kWorkload);
  io.field("workload_cycles", scenario.workload_cycles, kReal);
  io.field("dedup_epsilon", config.dedup_epsilon, kReal);
  io.field("prediction_samples", config.prediction_samples, kCount);
  io.field("beta_initial", governor.beta_initial, kReal);
  io.field("beta_increment", governor.beta_increment, kReal);
  io.field("beta_max", governor.beta_max, kReal);
  io.field("resume_grace_s", governor.resume_grace_s, kReal);
  io.field("starvation_patience_s", governor.starvation_patience_s, kReal);
  io.field("random_resume_probability", governor.random_resume_probability,
           kReal);
  io.field("actions_enabled", config.actions_enabled, kFlag);
  io.field("allow_sensitive_demotion", config.allow_sensitive_demotion,
           kFlag);
  io.field("aggregate_batch", config.sampler.aggregate_batch, kFlag);
  io.field("noise_fraction", config.sampler.noise_fraction, kReal);
  io.field("metrics", config.sampler.metrics, kMetrics);
  // The ingest block is written only when it differs from the default:
  // historical scenarios (and the scenario text embedded in committed
  // run-logs) keep their exact canonical bytes.
  if (io.when(ingest != monitor::IngestConfig{})) {
    io.field("ingest_source", ingest.source, kIngestSource);
    io.field("ingest_rate_hz", ingest.rate_hz, kReal);
    io.field("ingest_ring_capacity", ingest.ring_capacity, kCount);
    io.field("ingest_lookahead_s", ingest.lookahead_s, kReal);
    io.field("ingest_burst_rate_hz", ingest.burst_rate_hz, kReal);
    io.field("ingest_burst_start_s", ingest.burst_start_s, kReal);
    io.field("ingest_burst_end_s", ingest.burst_end_s, kReal);
  }
  io.repeated("vm", spec.extra_batch, kExtraVm);
  io.field("fault_seed", fault_seed, kSeed);
  io.repeated("fault", faults, kFault);
  if (io.when(scenario.compare)) io.field("compare", scenario.compare, kFlag);
  io.field("template_in", scenario.template_in, kPath);
  io.field("template_out", scenario.template_out, kPath);
  io.field("series_csv", scenario.series_csv, kPath);
}

/// The `[cluster]` section's keys (DESIGN.md §18), in canonical order:
/// every coordinator knob, then the mobile and incoming VM lists.
/// ClusterSpec::restore is runtime-only state and never serialized.
void describe_cluster(auto& io, auto& cluster) {
  io.field("migrate", cluster.config.migrate, kFlag);
  io.field("admit_margin", cluster.config.admit_margin, kReal);
  io.field("admit_patience", cluster.config.admit_patience, kCount);
  io.field("migration_cooldown", cluster.config.migration_cooldown, kCount);
  io.field("admit_footprint", cluster.config.admit_footprint, kReal);
  io.repeated("mobile", cluster.mobile, kMobileVm);
  io.repeated("admit", cluster.admissions, kAdmission);
}

/// One scenario body in canonical key order: every scalar the parser
/// accepts is written explicitly (no reliance on defaults drifting),
/// list keys follow in spec order, optional keys only when set.
void serialize_body(const Scenario& scenario, std::string& out) {
  static const std::vector<sim::FaultSpec> kNoFaults;
  const auto& plan = scenario.spec.faults;
  const std::vector<sim::FaultSpec>& faults =
      plan.has_value() ? plan->faults : kNoFaults;
  std::optional<std::uint64_t> fault_seed;
  if (!faults.empty()) fault_seed = plan->seed;
  FieldWriter writer{out};
  describe_body(writer, scenario, faults, fault_seed);
}

/// Parse state for one scenario body (the base document or one [host]
/// section overlaying it). Copyable: a host section starts from a copy of
/// the base state with a fresh duplicate-key set; inherited VMs keep
/// their names reserved so overlays cannot collide.
struct ParserState {
  Scenario scenario;
  std::vector<sim::FaultSpec> faults;
  std::optional<std::uint64_t> fault_seed;
  std::set<std::string> seen;
  std::set<std::string> vm_names;

  /// Applies the deferred workload/fault post-processing (both depend on
  /// the final seed/duration) and returns the finished scenario.
  Scenario finish() const {
    Scenario out = scenario;
    if (out.workload == "diurnal") {
      out.spec.workload = compressed_diurnal(
          out.spec.duration_s, out.workload_cycles, out.spec.seed);
    }
    if (!faults.empty()) {
      // Fault schedules are always explicitly seeded (the lint rule
      // enforces the same for code): fault_seed when given, else the
      // experiment seed.
      out.spec.faults = sim::FaultPlan{fault_seed.value_or(out.spec.seed),
                                       faults};
    }
    return out;
  }
};

/// Parses a `[host "name"]` section header (the trimmed header line).
std::string parse_host_header(const SourceLine& at, const std::string& text) {
  if (text.back() != ']') at.fail("unterminated section header");
  std::string inner = util::trim(text.substr(1, text.size() - 2));
  if (inner.rfind("host", 0) != 0) {
    at.fail("unknown section '" + inner +
            "' (expected [host \"name\"] or [cluster])");
  }
  std::string rest = util::trim(inner.substr(4));
  if (rest.size() < 2 || rest.front() != '"' || rest.back() != '"') {
    at.fail("host name must be quoted: [host \"name\"]");
  }
  std::string name = rest.substr(1, rest.size() - 2);
  if (name.empty()) at.fail("host name must not be empty");
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
  std::set<std::string> cluster_seen;
  std::set<std::string> cluster_vm_names;

  util::read_key_values(in, "scenario", [&](const util::KeyValueLine& line) {
    const SourceLine& at = line.at;
    if (!line.section.empty()) {
      const std::string& text = line.section;
      if (text.back() == ']' &&
          util::trim(text.substr(1, text.size() - 2)) == "cluster") {
        if (fleet.cluster.has_value()) at.fail("duplicate [cluster] section");
        fleet.cluster.emplace();
        fleet.fleet_syntax = true;
        current = kCluster;
        return;
      }
      std::string name = parse_host_header(at, text);
      if (!host_names.insert(name).second) {
        at.fail("duplicate host section '" + name + "'");
      }
      fleet.fleet_syntax = true;
      ParserState host = base;
      host.seen.clear();
      hosts.emplace_back(std::move(name), std::move(host));
      current = hosts.size() - 1;
      return;
    }

    if (line.key == "workers") {
      if (current != kBase) {
        at.fail("'workers' is a fleet-level key; set it before any [host] "
                "section");
      }
      line.require_unique(base.seen);
      fleet.fleet_syntax = true;
      fleet.workers = at.count(line.value);
      if (fleet.workers < 1) at.fail("workers must be >= 1");
      return;
    }

    if (current == kCluster) {
      FieldParser parser(line, cluster_seen, cluster_vm_names);
      describe_cluster(parser, *fleet.cluster);
      if (!parser.matched()) {
        at.fail("unknown [cluster] key '" + line.key + "'");
      }
      return;
    }
    ParserState& state = current == kBase ? base : hosts[current].second;
    FieldParser parser(line, state.seen, state.vm_names);
    describe_body(parser, state.scenario, state.faults, state.fault_seed);
    if (!parser.matched()) at.fail("unknown key '" + line.key + "'");
  });

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

std::string serialize_scenario(const Scenario& scenario) {
  std::string out;
  serialize_body(scenario, out);
  return out;
}

std::string serialize_fleet_scenario(const FleetScenario& fleet) {
  if (!fleet.fleet_syntax) return serialize_scenario(fleet.base);
  std::string out = "workers = " + std::to_string(fleet.workers) + "\n";
  if (fleet.cluster.has_value()) {
    out += "[cluster]\n";
    FieldWriter writer{out};
    describe_cluster(writer, *fleet.cluster);
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
