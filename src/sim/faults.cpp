#include "sim/faults.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <utility>

#include "util/check.hpp"
#include "util/enum_names.hpp"
#include "util/strings.hpp"

namespace stayaway::sim {

namespace {

constexpr util::EnumName<FaultKind> kFaultNames[] = {
    {FaultKind::SensorDropout, "sensor-dropout"},
    {FaultKind::StuckAt, "stuck-at"},
    {FaultKind::Spike, "spike"},
    {FaultKind::NonFinite, "non-finite"},
    {FaultKind::StaleSample, "stale-sample"},
    {FaultKind::QosBlind, "qos-blind"},
    {FaultKind::PauseFail, "pause-fail"},
    {FaultKind::ResumeFail, "resume-fail"},
    {FaultKind::IngestDelay, "ingest-delay"},
    {FaultKind::IngestDuplicate, "ingest-dup"},
    {FaultKind::HostCrash, "host-crash"},
    {FaultKind::StageStall, "stage-stall"},
    {FaultKind::StageThrow, "stage-throw"},
    {FaultKind::CheckpointCorrupt, "checkpoint-corrupt"},
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

void validate_spec(const FaultSpec& spec, const util::SourceLine& at) {
  if (!(spec.probability >= 0.0 && spec.probability <= 1.0)) {
    at.fail("p must be in [0,1]");
  }
  if (!(spec.end_s > spec.start_s)) {
    at.fail("fault window must satisfy end > start");
  }
  if (!std::isfinite(spec.magnitude) || spec.magnitude <= 0.0) {
    at.fail("mag must be finite and positive");
  }
  if (spec.dimension < -1) at.fail("dim must be >= 0, or -1 for all");
}

}  // namespace

const char* to_string(FaultKind kind) {
  return util::enum_name(kFaultNames, kind);
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
  return util::enum_value(kFaultNames, name, "fault kind");
}

FaultSpec parse_fault_spec(const std::string& text,
                           const util::SourceLine& at) {
  std::istringstream in(text);
  std::string kind_name;
  in >> kind_name;
  if (kind_name.empty()) at.fail("empty fault specification");

  FaultSpec spec;
  spec.kind = at.lookup(fault_kind_from_string, kind_name);
  std::string token;
  while (in >> token) {
    auto eq = token.find('=');
    if (eq == std::string::npos) {
      at.fail("expected key=value, got '" + token + "'");
    }
    std::string key = token.substr(0, eq);
    std::string value = token.substr(eq + 1);
    if (value.empty()) at.fail("empty value for '" + key + "'");
    if (key == "start") {
      spec.start_s = at.real(value);
    } else if (key == "end") {
      spec.end_s = at.real(value);
    } else if (key == "p") {
      spec.probability = at.real(value);
    } else if (key == "mag") {
      spec.magnitude = at.real(value);
    } else if (key == "dim") {
      spec.dimension = at.integer(value);
    } else {
      at.fail("unknown fault key '" + key + "'");
    }
  }
  validate_spec(spec, at);
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
  std::set<std::string> seen;
  util::read_key_values(in, "fault plan", [&](const util::KeyValueLine& line) {
    if (!line.section.empty()) line.at.fail("expected 'key = value'");
    if (line.key == "seed") {
      line.require_unique(seen);
      plan.seed = line.at.seed(line.value);
    } else if (line.key == "fault") {
      plan.faults.push_back(parse_fault_spec(line.value, line.at));
    } else {
      line.at.fail("unknown key '" + line.key + "'");
    }
  });
  return plan;
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), rng_(plan_.seed) {
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    // Re-validate programmatically built plans with the parser's rules.
    validate_spec(plan_.faults[i], {"fault plan", i + 1});
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
