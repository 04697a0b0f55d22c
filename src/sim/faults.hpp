// Deterministic fault injection for the monitoring and actuation channels.
//
// The paper's controller assumes perfect telemetry and infallible
// pause/resume; production co-location managers get neither (Alioth,
// C-Koordinator in PAPERS.md). This subsystem injects the failure modes
// the degraded-mode control loop (DESIGN.md §12) must survive:
//
//   sensor faults    dropout (reading missing -> NaN), stuck-at (reading
//                    frozen at the previous sample), spike (reading
//                    multiplied), non-finite corruption (NaN/Inf), and
//                    whole-sample staleness (previous sample replayed)
//   QoS blindness    the sensitive app's violation-reporting channel
//                    goes silent for a window
//   failed actuation pause/resume commands silently dropped; retries draw
//                    fresh delivery trials, so delays emerge from the
//                    runtime's bounded-retry loop
//
// Everything is driven by an explicitly seeded Rng owned by the
// FaultInjector: identical plans + seeds reproduce identical fault
// streams (pinned by tests/test_faults.cpp and the stayaway_lint
// deterministic-random rule, which covers src/sim/). With no plan
// installed the runtime's behaviour is byte-identical to the fault-free
// build (golden test in tests/test_runtime.cpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "util/keyvalue.hpp"
#include "util/rng.hpp"
#include "util/statecodec.hpp"

namespace stayaway::sim {

enum class FaultKind {
  SensorDropout,  // reading missing: surfaces as NaN at the sampler
  StuckAt,        // reading frozen at the previous sample's raw value
  Spike,          // reading multiplied by `magnitude`
  NonFinite,      // reading replaced by +Inf (corrupted counter)
  StaleSample,    // the whole previous sample replayed verbatim
  QosBlind,        // the QoS probe reports nothing
  PauseFail,       // a pause command is silently dropped
  ResumeFail,      // a resume command is silently dropped
  IngestDelay,     // streaming: a sample is withheld and arrives late /
                   // out of order (applied by the ring source)
  IngestDuplicate, // streaming: a sample is delivered twice (the
                   // quarantine drops the duplicate)
  // Crash-class faults (DESIGN.md §17). These are consumed by the fleet
  // supervisor, never by the sample or actuation channels, and they draw
  // NOTHING from the plan RNG: a crashing controller must not shift the
  // fault stream of the run it later replays.
  HostCrash,          // the member's pipeline dies at the period boundary
  StageStall,         // on_period overruns its deterministic deadline
  StageThrow,         // a stage raises before mutating any state
  CheckpointCorrupt,  // checkpoints saved in the window corrupt at rest
};

const char* to_string(FaultKind kind);
/// Inverse of to_string; throws PreconditionError on unknown names.
FaultKind fault_kind_from_string(const std::string& name);

/// True for the supervisor-consumed crash-class kinds (HostCrash,
/// StageStall, StageThrow, CheckpointCorrupt).
bool is_crash_fault(FaultKind kind);

/// One fault schedule entry: a kind active over [start_s, end_s), firing
/// per draw with `probability`. Sensor faults target one flat measurement
/// dimension (`dimension` >= 0) or every dimension (-1).
struct FaultSpec {
  FaultKind kind = FaultKind::SensorDropout;
  double start_s = 0.0;
  double end_s = std::numeric_limits<double>::infinity();
  double probability = 1.0;
  double magnitude = 8.0;  // Spike multiplier
  int dimension = -1;      // flat measurement dimension; -1 = all

  bool active(double now) const { return now >= start_s && now < end_s; }
};

/// A seeded, declarative fault schedule. The seed is part of the plan so
/// a plan file fully determines the injected fault stream.
struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<FaultSpec> faults;

  bool empty() const { return faults.empty(); }
  /// True when any spec is crash-class — what makes the fleet controller
  /// run its members under supervision (DESIGN.md §17).
  bool has_crash_faults() const;
};

/// Parses one fault line, `<kind> key=value ...` with keys start, end,
/// p, mag, dim. Errors throw PreconditionError naming `at`, its line.
FaultSpec parse_fault_spec(const std::string& text, const util::SourceLine& at);

/// Canonical single-line form of a spec, parseable by parse_fault_spec:
/// `<kind> start=<s> [end=<s>] p=<p> mag=<m> dim=<d>` (end omitted for
/// an unbounded window). parse_fault_spec(to_spec_string(s)) == s for
/// every valid spec — the recorder serializes fault plans through this.
std::string to_spec_string(const FaultSpec& spec);

/// Parses the fault-plan text format consumed by `stayaway_sim --faults`:
///
///   # 20% sensor dropout while the batch job runs, then QoS blindness
///   seed  = 7
///   fault = sensor-dropout start=20 end=60 p=0.2
///   fault = qos-blind      start=30 end=45
///   fault = pause-fail     start=20 end=50 p=0.5
///
/// Plan files share the scenario reader (util/keyvalue.hpp). Unknown keys,
/// unknown fault kinds and malformed values throw PreconditionError
/// naming the offending line.
FaultPlan parse_fault_plan(std::istream& in);

/// What corrupt_sample did to one measurement.
struct SensorFaultReport {
  std::size_t dropped = 0;    // dims replaced by NaN (missing reading)
  std::size_t corrupted = 0;  // dims stuck, spiked or made non-finite
  bool stale = false;         // the whole previous sample was replayed

  bool any() const { return dropped + corrupted > 0 || stale; }
};

/// Applies a FaultPlan deterministically. All stochastic draws flow
/// through the plan-seeded Rng in plan order, so two injectors built from
/// the same plan produce identical streams under identical call
/// sequences.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }

  /// Applies the plan's sensor faults to a raw measurement in place.
  SensorFaultReport corrupt_sample(double now, std::vector<double>& values);

  /// True when the QoS probe is blind at `now`.
  bool qos_blind(double now);

  /// Actuation channel: false = the command was silently dropped. One
  /// draw per command, so per-VM delivery can partially fail.
  bool pause_delivered(double now);
  bool resume_delivered(double now);

  /// Samples that left corrupt_sample with at least one fault applied.
  std::size_t faulted_samples() const { return faulted_samples_; }
  /// Pause/resume commands dropped so far.
  // sa-lint: test-observer(tests check actuation faults drop commands)
  std::size_t dropped_commands() const { return dropped_commands_; }

  /// Crash-class queries (fleet supervisor only; DESIGN.md §17). Unlike
  /// every channel above these never draw from the plan RNG — the
  /// probability field is ignored and a spec fires deterministically
  /// while its window is active — so a crash changes nothing about the
  /// sensor/QoS/actuation fault streams it interleaves with. Each query
  /// also honours the crash horizon: after handling a failure the
  /// supervisor advances the horizon to the failure time, masking every
  /// spec whose window opened at or before it, so a handled fault cannot
  /// re-fire during the replayed gap or immediately after it.
  bool crash_signal(double now) const;
  bool stage_throw(double now) const;
  /// True when on_period attempt `attempt` (0-based) at `now` should
  /// stall. A spec stalls the first `magnitude` attempts of each period
  /// in its window: with magnitude below the supervisor's watchdog
  /// budget the stage recovers in place; at or above it the watchdog
  /// escalates to a full crash recovery.
  bool stage_stall(double now, std::size_t attempt) const;
  /// True when a checkpoint saved at `now` corrupts at rest. Not horizon
  /// masked — corruption is a storage property, not a handled failure.
  bool checkpoint_corrupt(double now) const;
  /// Monotone: keeps the larger of the current and given horizon.
  void set_crash_horizon(double horizon);

  /// Snapshot of the injector's mutable state — the RNG stream, the
  /// stuck-at/stale replay sample, counters and the crash horizon
  /// (DESIGN.md §17).
  void persist(util::StateIO& io);

 private:
  bool command_delivered(double now, FaultKind kind);
  bool crash_query(double now, FaultKind kind) const;

  FaultPlan plan_;
  Rng rng_;
  std::vector<double> prev_raw_;  // previous pre-fault sample
  std::size_t faulted_samples_ = 0;
  std::size_t dropped_commands_ = 0;
  double crash_horizon_ = -std::numeric_limits<double>::infinity();
};

}  // namespace stayaway::sim
