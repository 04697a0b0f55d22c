#include "sim/faults.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <sstream>
#include <utility>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace stayaway::sim {

namespace {

constexpr FaultKind kAllKinds[] = {
    FaultKind::SensorDropout,  FaultKind::StuckAt,
    FaultKind::Spike,          FaultKind::NonFinite,
    FaultKind::StaleSample,    FaultKind::QosBlind,
    FaultKind::PauseFail,      FaultKind::ResumeFail,
    FaultKind::IngestDelay,    FaultKind::IngestDuplicate,
    FaultKind::HostCrash,      FaultKind::StageStall,
    FaultKind::StageThrow,     FaultKind::CheckpointCorrupt,
};

bool is_sensor_fault(FaultKind kind) {
  switch (kind) {
    case FaultKind::SensorDropout:
    case FaultKind::StuckAt:
    case FaultKind::Spike:
    case FaultKind::NonFinite:
    case FaultKind::StaleSample:
      return true;
    case FaultKind::QosBlind:
    case FaultKind::PauseFail:
    case FaultKind::ResumeFail:
    case FaultKind::IngestDelay:
    case FaultKind::IngestDuplicate:
    case FaultKind::HostCrash:
    case FaultKind::StageStall:
    case FaultKind::StageThrow:
    case FaultKind::CheckpointCorrupt:
      return false;
  }
  return false;
}

std::string trim(const std::string& s) {
  auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw PreconditionError("fault plan line " + std::to_string(line) + ": " +
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

void validate_spec(const FaultSpec& spec, std::size_t line_no) {
  if (!(spec.probability >= 0.0 && spec.probability <= 1.0)) {
    fail(line_no, "p must be in [0,1]");
  }
  if (!(spec.end_s > spec.start_s)) {
    fail(line_no, "fault window must satisfy end > start");
  }
  if (!std::isfinite(spec.magnitude) || spec.magnitude <= 0.0) {
    fail(line_no, "mag must be finite and positive");
  }
  if (spec.dimension < -1) fail(line_no, "dim must be >= 0, or -1 for all");
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::SensorDropout:
      return "sensor-dropout";
    case FaultKind::StuckAt:
      return "stuck-at";
    case FaultKind::Spike:
      return "spike";
    case FaultKind::NonFinite:
      return "non-finite";
    case FaultKind::StaleSample:
      return "stale-sample";
    case FaultKind::QosBlind:
      return "qos-blind";
    case FaultKind::PauseFail:
      return "pause-fail";
    case FaultKind::ResumeFail:
      return "resume-fail";
    case FaultKind::IngestDelay:
      return "ingest-delay";
    case FaultKind::IngestDuplicate:
      return "ingest-dup";
    case FaultKind::HostCrash:
      return "host-crash";
    case FaultKind::StageStall:
      return "stage-stall";
    case FaultKind::StageThrow:
      return "stage-throw";
    case FaultKind::CheckpointCorrupt:
      return "checkpoint-corrupt";
  }
  return "unknown";
}

bool is_crash_fault(FaultKind kind) {
  switch (kind) {
    case FaultKind::HostCrash:
    case FaultKind::StageStall:
    case FaultKind::StageThrow:
    case FaultKind::CheckpointCorrupt:
      return true;
    default:
      return false;
  }
}

bool FaultPlan::has_crash_faults() const {
  for (const FaultSpec& f : faults) {
    if (is_crash_fault(f.kind)) return true;
  }
  return false;
}

FaultKind fault_kind_from_string(const std::string& name) {
  for (FaultKind kind : kAllKinds) {
    if (name == to_string(kind)) return kind;
  }
  throw PreconditionError("unknown fault kind: " + name);
}

FaultSpec parse_fault_spec(const std::string& text, std::size_t line_no) {
  std::istringstream in(trim(text));
  std::string kind_name;
  in >> kind_name;
  if (kind_name.empty()) fail(line_no, "empty fault specification");

  FaultSpec spec;
  try {
    spec.kind = fault_kind_from_string(kind_name);
  } catch (const PreconditionError& e) {
    fail(line_no, e.what());
  }

  std::string token;
  while (in >> token) {
    auto eq = token.find('=');
    if (eq == std::string::npos) {
      fail(line_no, "expected key=value, got '" + token + "'");
    }
    std::string key = token.substr(0, eq);
    std::string value = token.substr(eq + 1);
    if (value.empty()) fail(line_no, "empty value for '" + key + "'");
    if (key == "start") {
      spec.start_s = parse_double(line_no, value);
    } else if (key == "end") {
      spec.end_s = parse_double(line_no, value);
    } else if (key == "p") {
      spec.probability = parse_double(line_no, value);
    } else if (key == "mag") {
      spec.magnitude = parse_double(line_no, value);
    } else if (key == "dim") {
      spec.dimension = static_cast<int>(parse_double(line_no, value));
    } else {
      fail(line_no, "unknown fault key '" + key + "'");
    }
  }
  validate_spec(spec, line_no);
  return spec;
}

std::string to_spec_string(const FaultSpec& spec) {
  std::string out = to_string(spec.kind);
  out += " start=" + format_double_exact(spec.start_s);
  if (std::isfinite(spec.end_s)) {
    out += " end=" + format_double_exact(spec.end_s);
  }
  out += " p=" + format_double_exact(spec.probability);
  out += " mag=" + format_double_exact(spec.magnitude);
  out += " dim=" + std::to_string(spec.dimension);
  return out;
}

FaultPlan parse_fault_plan(std::istream& in) {
  FaultPlan plan;
  bool seed_seen = false;
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string line = raw;
    auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (in.eof() && !line.empty()) {
      // getline hit end-of-input before a delimiter: the final line was
      // cut mid-record (a partial write or truncated download). Silently
      // accepting it would half-apply a plan, so fail loudly instead; an
      // unterminated blank or comment line is harmless.
      fail(line_no, "truncated final line (missing trailing newline)");
    }
    if (line.empty()) continue;

    auto eq = line.find('=');
    if (eq == std::string::npos) fail(line_no, "expected 'key = value'");
    std::string key = trim(line.substr(0, eq));
    std::string value = trim(line.substr(eq + 1));
    if (key.empty()) fail(line_no, "empty key");
    if (value.empty()) fail(line_no, "empty value for '" + key + "'");

    if (key == "seed") {
      if (seed_seen) fail(line_no, "duplicate key 'seed'");
      seed_seen = true;
      // Plain decimal parses the full 64-bit range; going through a
      // double truncates every seed above 2^53. The double fallback
      // keeps historical forms like `seed = 1e6` working.
      if (!parse_u64(value, plan.seed)) {
        plan.seed = static_cast<std::uint64_t>(parse_double(line_no, value));
      }
    } else if (key == "fault") {
      plan.faults.push_back(parse_fault_spec(value, line_no));
    } else {
      fail(line_no, "unknown key '" + key + "'");
    }
  }
  return plan;
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), rng_(plan_.seed) {
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    // Re-validate programmatically built plans with the parser's rules.
    validate_spec(plan_.faults[i], i + 1);
  }
}

SensorFaultReport FaultInjector::corrupt_sample(double now,
                                                std::vector<double>& values) {
  SensorFaultReport report;
  // Pre-fault copy: stuck-at and stale faults replay what the sensor
  // actually read last period, not what the previous faults produced.
  std::vector<double> raw = values;
  for (const FaultSpec& f : plan_.faults) {
    if (!is_sensor_fault(f.kind) || !f.active(now)) continue;
    if (f.kind == FaultKind::StaleSample) {
      if (prev_raw_.size() == values.size() && rng_.chance(f.probability)) {
        values = prev_raw_;
        report.stale = true;
      }
      continue;
    }
    std::size_t first = 0;
    std::size_t last = values.size();
    if (f.dimension >= 0) {
      first = static_cast<std::size_t>(f.dimension);
      if (first >= values.size()) continue;  // dimension beyond this layout
      last = first + 1;
    }
    for (std::size_t d = first; d < last; ++d) {
      if (!rng_.chance(f.probability)) continue;
      switch (f.kind) {
        case FaultKind::SensorDropout:
          values[d] = std::numeric_limits<double>::quiet_NaN();
          ++report.dropped;
          break;
        case FaultKind::StuckAt:
          if (prev_raw_.size() == values.size()) {
            values[d] = prev_raw_[d];
            ++report.corrupted;
          }
          break;
        case FaultKind::Spike:
          values[d] *= f.magnitude;
          ++report.corrupted;
          break;
        case FaultKind::NonFinite:
          values[d] = std::numeric_limits<double>::infinity();
          ++report.corrupted;
          break;
        default:
          break;
      }
    }
  }
  if (report.any()) ++faulted_samples_;
  prev_raw_ = std::move(raw);
  return report;
}

bool FaultInjector::qos_blind(double now) {
  bool blind = false;
  for (const FaultSpec& f : plan_.faults) {
    if (f.kind != FaultKind::QosBlind || !f.active(now)) continue;
    // Draw even when already blind so the consumed stream depends only on
    // the plan and the call sequence, never on prior outcomes.
    if (rng_.chance(f.probability)) blind = true;
  }
  return blind;
}

bool FaultInjector::command_delivered(double now, FaultKind kind) {
  bool delivered = true;
  for (const FaultSpec& f : plan_.faults) {
    if (f.kind != kind || !f.active(now)) continue;
    if (rng_.chance(f.probability)) delivered = false;
  }
  if (!delivered) ++dropped_commands_;
  return delivered;
}

bool FaultInjector::pause_delivered(double now) {
  return command_delivered(now, FaultKind::PauseFail);
}

bool FaultInjector::resume_delivered(double now) {
  return command_delivered(now, FaultKind::ResumeFail);
}

bool FaultInjector::crash_query(double now, FaultKind kind) const {
  for (const FaultSpec& f : plan_.faults) {
    if (f.kind != kind || !f.active(now)) continue;
    if (f.start_s > crash_horizon_) return true;
  }
  return false;
}

bool FaultInjector::crash_signal(double now) const {
  return crash_query(now, FaultKind::HostCrash);
}

bool FaultInjector::stage_throw(double now) const {
  return crash_query(now, FaultKind::StageThrow);
}

bool FaultInjector::stage_stall(double now, std::size_t attempt) const {
  for (const FaultSpec& f : plan_.faults) {
    if (f.kind != FaultKind::StageStall || !f.active(now)) continue;
    if (f.start_s <= crash_horizon_) continue;
    if (static_cast<double>(attempt) < f.magnitude) return true;
  }
  return false;
}

bool FaultInjector::checkpoint_corrupt(double now) const {
  for (const FaultSpec& f : plan_.faults) {
    if (f.kind == FaultKind::CheckpointCorrupt && f.active(now)) return true;
  }
  return false;
}

void FaultInjector::set_crash_horizon(double horizon) {
  crash_horizon_ = std::max(crash_horizon_, horizon);
}

void FaultInjector::persist(util::StateIO& io) {
  io.rng("fault_rng", rng_);
  io.reals("prev_raw", prev_raw_);
  io.u64("faulted_samples", faulted_samples_);
  io.u64("dropped_commands", dropped_commands_);
  io.real("crash_horizon", crash_horizon_);
}

}  // namespace stayaway::sim
