// Checkpoint/restore and supervised crash-recovery tests (DESIGN.md
// §17): the record codec's exactness on non-finite values, the envelope's
// typed rejection of version/integrity/truncation damage, full-pipeline
// round trips through edge states (empty representative set, mid-retry
// actuation ledger, Failsafe degradation), the encoded-record memo
// against a from-scratch encoder, and the load-bearing golden
// guarantee — a run that crashes, restores and replays its tail is
// byte-identical to the uninterrupted run.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baseline/stages/reactive_actuator.hpp"
#include "baseline/stages/static_actuator.hpp"
#include "core/checkpoint.hpp"
#include "core/period.hpp"
#include "harness/fleet.hpp"
#include "harness/rig.hpp"
#include "harness/scenario_file.hpp"
#include "replay/recorder.hpp"
#include "replay/replay.hpp"
#include "sim/faults.hpp"
#include "util/statecodec.hpp"

namespace stayaway::harness {
namespace {

ExperimentSpec short_spec() {
  ExperimentSpec spec;
  spec.sensitive = SensitiveKind::VlcStream;
  spec.batch = BatchKind::CpuBomb;
  spec.policy = PolicyKind::StayAway;
  spec.duration_s = 40.0;
  spec.batch_start_s = 5.0;
  return spec;
}

sim::FaultSpec fault_of(sim::FaultKind kind, double start, double end,
                        double p = 1.0, double magnitude = 8.0) {
  sim::FaultSpec s;
  s.kind = kind;
  s.start_s = start;
  s.end_s = end;
  s.probability = p;
  s.magnitude = magnitude;
  return s;
}

/// The non-crash plan reused as background noise so the golden tests
/// exercise recovery while the degradation machinery is busy too.
sim::FaultPlan stress_plan() {
  sim::FaultPlan plan;
  plan.seed = 11;
  plan.faults.push_back(
      fault_of(sim::FaultKind::SensorDropout, 5.0, 25.0, 0.3));
  plan.faults.push_back(fault_of(sim::FaultKind::QosBlind, 10.0, 18.0));
  plan.faults.push_back(fault_of(sim::FaultKind::PauseFail, 0.0, 30.0, 0.5));
  return plan;
}

/// Byte-level record comparison: encode_record is exact on NaN where
/// operator== would lie.
void expect_records_byte_identical(
    const std::vector<core::PeriodRecord>& got,
    const std::vector<core::PeriodRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(core::encode_record(got[i]), core::encode_record(want[i]))
        << "period " << i;
  }
}

/// Runs `spec` as a supervised fleet of one and returns the host result.
FleetHostResult run_supervised(const ExperimentSpec& spec,
                               std::size_t checkpoint_every = 0) {
  FleetSpec fleet;
  fleet.hosts.push_back({"solo", spec});
  fleet.supervise = true;
  fleet.checkpoint_every = checkpoint_every;
  fleet.export_checkpoints = true;
  FleetResult r = run_fleet(fleet);
  return r.hosts.at(0);
}

// --- Record codec -----------------------------------------------------

TEST(CheckpointRecordCodec, NonFiniteCoordsRoundTripExactly) {
  core::PeriodRecord rec;
  rec.time = 17.0;
  rec.state.x = std::numeric_limits<double>::quiet_NaN();
  rec.state.y = std::numeric_limits<double>::infinity();
  rec.stress = -std::numeric_limits<double>::infinity();
  rec.beta = std::numeric_limits<double>::quiet_NaN();
  rec.representative = 3;
  rec.actuation_retries = 2;
  rec.actuation_pending = true;

  std::string text = core::encode_record(rec);
  core::PeriodRecord back = core::decode_record(text);
  EXPECT_EQ(core::encode_record(back), text);
  EXPECT_TRUE(std::isnan(back.state.x));
  EXPECT_TRUE(std::isinf(back.state.y));
}

/// `line` with the value of its `key=` token replaced by `value`.
std::string tamper_field(const std::string& line, const std::string& key,
                         const std::string& value) {
  const std::size_t at = line.find(" " + key + "=");
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return line;
  const std::size_t start = at + key.size() + 2;
  const std::size_t end = std::min(line.find(' ', start), line.size());
  return line.substr(0, start) + value + line.substr(end);
}

TEST(CheckpointRecordCodec, RejectsOutOfRangeEnums) {
  core::PeriodRecord rec;
  std::string text = core::encode_record(rec);
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"mode", "9"}, {"act", "7"}, {"deg", "5"}}) {
    EXPECT_THROW(core::decode_record(tamper_field(text, key, value)),
                 util::StateCodecError)
        << key << "=" << value << " accepted";
  }
}

/// Every double field of a record set to ±v: decode(encode(r)) must
/// re-encode to the same line and restore each exact bit pattern (any
/// NaN, whose sign and payload the text form does not carry, as NaN).
void expect_double_round_trips_exactly(double v) {
  core::PeriodRecord rec;
  rec.time = v;
  rec.state = {v, -v};
  rec.stress = v;
  rec.beta = -v;
  const std::string line = core::encode_record(rec);
  const core::PeriodRecord back = core::decode_record(line);
  EXPECT_EQ(core::encode_record(back), line);
  for (auto [got, want] : {std::pair{back.time, rec.time},
                           std::pair{back.state.x, rec.state.x},
                           std::pair{back.state.y, rec.state.y},
                           std::pair{back.stress, rec.stress},
                           std::pair{back.beta, rec.beta}}) {
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(got)) << line;
    } else {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want))
          << line;
    }
  }
}

TEST(PeriodRecordCodec, EdgeDoublesRoundTripByteExact) {
  // 4.9406564584124654e-324 is denorm_min as format_double_exact spells
  // it; std::stod throws out_of_range on it.
  for (double v : {4.9406564584124654e-324, 2.2250738585072009e-308,
                   std::numeric_limits<double>::min(), 0.0, -0.0,
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::max(), 0.1 + 0.2}) {
    expect_double_round_trips_exactly(v);
  }
}

// --- Envelope rejection -----------------------------------------------

/// A real end-of-run blob to damage: short fault-free run.
std::string sample_blob() {
  ExperimentSpec spec = short_spec();
  spec.duration_s = 12.0;
  return run_supervised(spec).final_checkpoint;
}

TEST(CheckpointEnvelope, VersionMismatchIsItsOwnError) {
  std::string blob = sample_blob();
  ASSERT_NE(blob.find("stayaway-checkpoint v4\n"), std::string::npos);
  std::string wrong = blob;
  wrong.replace(wrong.find("v4\n"), 3, "v3\n");

  ExperimentSpec spec = short_spec();
  spec.duration_s = 12.0;
  FleetSpec fleet;
  fleet.hosts.push_back({"solo", spec});
  fleet.restore["solo"] = wrong;
  EXPECT_THROW(run_fleet(fleet), core::CheckpointVersionError);
}

TEST(CheckpointEnvelope, ChecksumMismatchIsItsOwnError) {
  std::string blob = sample_blob();
  core::corrupt_checkpoint_blob(blob);

  ExperimentSpec spec = short_spec();
  spec.duration_s = 12.0;
  FleetSpec fleet;
  fleet.hosts.push_back({"solo", spec});
  fleet.restore["solo"] = blob;
  EXPECT_THROW(run_fleet(fleet), core::CheckpointChecksumError);
}

TEST(CheckpointEnvelope, TruncationAndTrailingGarbageRejected) {
  std::string blob = sample_blob();
  ExperimentSpec spec = short_spec();
  spec.duration_s = 12.0;

  for (const std::string& damaged :
       {blob.substr(0, blob.size() - 10), blob.substr(0, blob.size() / 2),
        blob + "extra = 1\n",
        "stayaway-checkpoint v" + std::to_string(core::kCheckpointVersion) +
            "\n"}) {
    FleetSpec fleet;
    fleet.hosts.push_back({"solo", spec});
    fleet.restore["solo"] = damaged;
    EXPECT_THROW(run_fleet(fleet), util::StateCodecError);
  }
}

// --- Full-pipeline round trips ----------------------------------------

/// Restoring a full-run checkpoint and re-exporting must reproduce the
/// blob byte for byte: the fast-forward replay lands on the same state
/// the original run ended in.
void expect_restore_reencodes_identically(const ExperimentSpec& spec) {
  FleetHostResult original = run_supervised(spec);
  ASSERT_FALSE(original.final_checkpoint.empty());

  FleetSpec again;
  again.hosts.push_back({"solo", spec});
  again.export_checkpoints = true;
  again.restore["solo"] = original.final_checkpoint;
  FleetResult r = run_fleet(again);
  EXPECT_EQ(r.hosts.at(0).final_checkpoint, original.final_checkpoint);
  // Restored runs report the live tail only — here there is none — while
  // the record history spans the full run.
  EXPECT_TRUE(r.hosts.at(0).result.time.empty());
  expect_records_byte_identical(r.hosts.at(0).result.stayaway_records,
                                original.result.stayaway_records);
}

TEST(CheckpointRoundTrip, FullRunReencodesByteIdentically) {
  expect_restore_reencodes_identically(short_spec());
}

TEST(CheckpointRoundTrip, EmptyRepresentativeSet) {
  // Representatives appear from the very first period, so the genuinely
  // empty state is a freshly wired pipeline: no records, no
  // representatives, no journal. Its snapshot must round-trip too.
  ExperimentSpec spec = short_spec();
  HostRig rig = build_host_rig(spec);
  core::HostPipeline pipeline(*rig.host, *rig.probe,
                              derive_stayaway_config(spec));
  ASSERT_TRUE(pipeline.checkpointable());
  std::string blob = core::encode_checkpoint(pipeline);
  EXPECT_NE(blob.find("records = 0"), std::string::npos);

  HostRig again = build_host_rig(spec);
  core::HostPipeline restored(*again.host, *again.probe,
                              derive_stayaway_config(spec));
  EXPECT_EQ(core::restore_checkpoint(restored, blob), 0u);
  EXPECT_EQ(core::encode_checkpoint(restored), blob);
}

TEST(CheckpointRoundTrip, MidRetryActuationLedger) {
  // Pause failures all the way to the end of the run leave the actuator
  // holding a live retry ledger at the final boundary.
  ExperimentSpec spec = short_spec();
  sim::FaultPlan plan;
  plan.seed = 3;
  plan.faults.push_back(fault_of(sim::FaultKind::PauseFail, 0.0, 40.0));
  spec.faults = plan;
  FleetHostResult r = run_supervised(spec);
  EXPECT_GT(r.result.actuation_retries, 0u);
  EXPECT_NE(r.final_checkpoint.find("actuation_retries_total = "),
            std::string::npos);
  expect_restore_reencodes_identically(spec);
}

TEST(CheckpointRoundTrip, FailsafeDegradationState) {
  // A QoS blackout running through the end of the run drives the
  // degradation machine into Failsafe; the snapshot must carry it.
  ExperimentSpec spec = short_spec();
  sim::FaultPlan plan;
  plan.seed = 5;
  plan.faults.push_back(fault_of(sim::FaultKind::QosBlind, 10.0, 40.0));
  spec.faults = plan;
  FleetHostResult r = run_supervised(spec);
  EXPECT_GT(r.result.failsafe_periods, 0u);
  EXPECT_NE(r.final_checkpoint.find("degradation = 2"), std::string::npos);
  expect_restore_reencodes_identically(spec);
}

TEST(CheckpointRoundTrip, NonFinitesInHistory) {
  ExperimentSpec spec = short_spec();
  sim::FaultPlan plan;
  plan.seed = 9;
  plan.faults.push_back(
      fault_of(sim::FaultKind::NonFinite, 8.0, 20.0, 0.4));
  spec.faults = plan;
  expect_restore_reencodes_identically(spec);
}

// --- Encoded-record memo -----------------------------------------------

/// The checkpoint encoder without the encoded-record memo or its running
/// hash: every record, their count, then persist, then the FNV envelope
/// over the whole body. encode_checkpoint must match it byte for byte
/// whenever and however often it is called.
std::string reference_encode_checkpoint(core::HostPipeline& pipeline) {
  std::string body;
  util::StateIO w = util::StateIO::writer(body);
  for (const core::PeriodRecord& rec : pipeline.records()) {
    std::string line = core::encode_record(rec);
    w.line("record", line);
  }
  std::size_t count = pipeline.records().size();
  w.u64("records", count);
  pipeline.persist(w);
  return "stayaway-checkpoint v" + std::to_string(core::kCheckpointVersion) +
         "\n" + body + "checksum = " + std::to_string(core::fnv1a64(body)) +
         "\n";
}

/// A short run with non-finite readings in its history and the
/// degradation machinery busy, driven period by period.
struct ManualHost {
  explicit ManualHost(const ExperimentSpec& s)
      : spec(s),
        rig(build_host_rig(spec)),
        pipeline(*rig.host, *rig.probe, derive_stayaway_config(spec)),
        ticks(static_cast<std::size_t>(
            std::llround(spec.period_s / spec.tick_s))) {
    pipeline.install_faults(*spec.faults);
  }
  void run_to(std::size_t periods) {
    while (pipeline.records().size() < periods) {
      rig.host->run(ticks);
      pipeline.on_period();
    }
  }
  ExperimentSpec spec;
  HostRig rig;
  core::HostPipeline pipeline;
  std::size_t ticks;
};

ExperimentSpec memo_spec() {
  ExperimentSpec spec = short_spec();
  spec.faults = stress_plan();
  spec.faults->faults.push_back(
      fault_of(sim::FaultKind::NonFinite, 8.0, 20.0, 0.4));
  return spec;
}

TEST(CheckpointRecordMemo, InterleavedEncodesMatchReference) {
  ManualHost h(memo_spec());
  for (std::size_t periods : {0u, 1u, 7u, 7u, 30u, 30u}) {
    h.run_to(periods);
    ASSERT_EQ(h.pipeline.records().size(), periods);
    EXPECT_EQ(core::encode_checkpoint(h.pipeline),
              reference_encode_checkpoint(h.pipeline))
        << "at " << periods << " periods";
  }
}

TEST(CheckpointRecordMemo, RestoredPrefixReexportsLikeReference) {
  ManualHost original(memo_spec());
  original.run_to(12);
  const std::string blob = core::encode_checkpoint(original.pipeline);

  ManualHost restored(memo_spec());
  ASSERT_EQ(core::warm_start(restored.pipeline, *restored.rig.host,
                             restored.ticks, blob),
            12u);
  // The first encode re-encodes the decoded prefix from scratch.
  EXPECT_EQ(core::encode_checkpoint(restored.pipeline), blob);
  for (std::size_t periods : {13u, 20u, 33u}) {
    original.run_to(periods);
    restored.run_to(periods);
    const std::string again = core::encode_checkpoint(restored.pipeline);
    EXPECT_EQ(again, reference_encode_checkpoint(restored.pipeline))
        << "at " << periods << " periods";
    EXPECT_EQ(again, core::encode_checkpoint(original.pipeline))
        << "at " << periods << " periods";
  }
}

TEST(CheckpointRecordMemo, NonCanonicalBlobReexportsCanonically) {
  // Respell one record field ("x=0" as "x=0e0") and re-seal the
  // envelope: the blob decodes to the same state, and the restored
  // pipeline must export the canonical text, not the blob's spelling.
  ManualHost original(memo_spec());
  original.run_to(5);
  const std::string blob = core::encode_checkpoint(original.pipeline);
  const std::string header = blob.substr(0, blob.find('\n') + 1);
  std::string body = blob.substr(header.size(),
                                 blob.rfind("checksum = ") - header.size());
  const std::string canonical = " x=0 ";
  const std::size_t at = body.find(canonical);
  ASSERT_NE(at, std::string::npos);
  body.replace(at, canonical.size(), " x=0e0 ");
  const std::string respelled = header + body + "checksum = " +
                                std::to_string(core::fnv1a64(body)) + "\n";

  ManualHost restored(memo_spec());
  ASSERT_EQ(core::restore_checkpoint(restored.pipeline, respelled), 5u);
  EXPECT_EQ(core::encode_checkpoint(restored.pipeline), blob);
}

TEST(CheckpointRecordMemo, ExportedRecordCountMatchesResult) {
  // run_fleet encodes the exported blob before it moves the records
  // into the result, so both see the whole history.
  FleetHostResult r = run_supervised(memo_spec(), 5);
  ASSERT_EQ(r.result.stayaway_records.size(), 40u);
  EXPECT_NE(r.final_checkpoint.find("\nrecords = 40\n"), std::string::npos);
}

// --- Golden crash/restore byte-identity --------------------------------

/// The load-bearing guarantee: injecting a crash-class fault, recovering
/// and replaying must leave a record stream byte-identical to the same
/// run without the crash faults. Crash-class specs draw nothing from the
/// plan RNG precisely so the two plans produce identical streams.
void expect_crash_run_matches_clean(
    const ExperimentSpec& clean,
    const std::vector<sim::FaultSpec>& crash_faults,
    std::size_t checkpoint_every,
    const std::function<void(const RecoveryReport&)>& check) {
  ASSERT_TRUE(clean.faults.has_value());
  FleetHostResult baseline = run_supervised(clean);
  EXPECT_FALSE(baseline.recovery.any_failures());

  ExperimentSpec faulted = clean;
  for (const sim::FaultSpec& f : crash_faults) {
    faulted.faults->faults.push_back(f);
  }
  FleetHostResult crashed =
      run_supervised(faulted, checkpoint_every);

  expect_records_byte_identical(crashed.result.stayaway_records,
                                baseline.result.stayaway_records);
  EXPECT_EQ(crashed.result.qos, baseline.result.qos);
  EXPECT_EQ(crashed.result.batch_running, baseline.result.batch_running);
  EXPECT_EQ(crashed.result.batch_cpu_work, baseline.result.batch_cpu_work);
  EXPECT_EQ(crashed.recovery.divergences, 0u);
  check(crashed.recovery);
}

void expect_crash_run_matches_clean(
    const std::vector<sim::FaultSpec>& crash_faults,
    std::size_t checkpoint_every,
    const std::function<void(const RecoveryReport&)>& check) {
  ExperimentSpec clean = short_spec();
  clean.faults = stress_plan();
  expect_crash_run_matches_clean(clean, crash_faults, checkpoint_every,
                                 check);
}

TEST(SupervisorGolden, HostCrashColdRestartIsByteIdentical) {
  expect_crash_run_matches_clean(
      {fault_of(sim::FaultKind::HostCrash, 20.0, 21.0)},
      /*checkpoint_every=*/0,
      [](const RecoveryReport& r) {
        EXPECT_GE(r.crashes, 1u);
        EXPECT_GE(r.cold_starts, 1u);
        EXPECT_GE(r.recoveries, 1u);
      });
}

TEST(SupervisorGolden, HostCrashWarmRestartIsByteIdentical) {
  // Checkpoints land after periods 4, 9, 14, 19, ...; a crash at the
  // period-22 boundary restores from the period-19 checkpoint and must
  // gap-replay the two periods in between.
  expect_crash_run_matches_clean(
      {fault_of(sim::FaultKind::HostCrash, 22.0, 23.0)},
      /*checkpoint_every=*/5,
      [](const RecoveryReport& r) {
        EXPECT_GE(r.crashes, 1u);
        EXPECT_EQ(r.cold_starts, 0u);
        EXPECT_GT(r.checkpoints_saved, 0u);
        EXPECT_GT(r.gap_periods_replayed, 0u);
      });
}

TEST(SupervisorGolden, StageThrowIsTrappedAndByteIdentical) {
  expect_crash_run_matches_clean(
      {fault_of(sim::FaultKind::StageThrow, 15.0, 16.0)},
      /*checkpoint_every=*/5,
      [](const RecoveryReport& r) {
        EXPECT_GE(r.stage_throws, 1u);
        EXPECT_GE(r.recoveries, 1u);
      });
}

TEST(SupervisorGolden, StallWithinBudgetRecoversInPlace) {
  // Two stalled attempts against a budget of three: the watchdog retries
  // in place, no recovery happens, and the stream is untouched.
  expect_crash_run_matches_clean(
      {fault_of(sim::FaultKind::StageStall, 17.5, 18.5, 1.0,
                /*magnitude=*/2.0)},
      /*checkpoint_every=*/0,
      [](const RecoveryReport& r) {
        EXPECT_GE(r.stalls, 1u);
        EXPECT_EQ(r.watchdog_trips, 0u);
        EXPECT_EQ(r.recoveries, 0u);
      });
}

TEST(SupervisorGolden, StallBeyondBudgetTripsWatchdog) {
  expect_crash_run_matches_clean(
      {fault_of(sim::FaultKind::StageStall, 17.5, 18.5, 1.0,
                /*magnitude=*/8.0)},
      /*checkpoint_every=*/5,
      [](const RecoveryReport& r) {
        EXPECT_GE(r.watchdog_trips, 1u);
        EXPECT_GE(r.recoveries, 1u);
      });
}

TEST(SupervisorGolden, CorruptCheckpointFallsBackAndStaysIdentical) {
  // Checkpoints saved inside the corruption window rot at rest; the
  // crash recovery drops them and still reproduces the clean stream.
  expect_crash_run_matches_clean(
      {fault_of(sim::FaultKind::CheckpointCorrupt, 0.0, 40.0),
       fault_of(sim::FaultKind::HostCrash, 20.0, 21.0)},
      /*checkpoint_every=*/3,
      [](const RecoveryReport& r) {
        EXPECT_GE(r.crashes, 1u);
        EXPECT_GE(r.corrupt_checkpoints_dropped, 1u);
        EXPECT_GE(r.cold_starts, 1u);
      });
}

TEST(SupervisorGolden, CrashFaultsAutoEnableSupervision) {
  // No FleetSpec::supervise: the presence of crash-class faults in the
  // plan is enough, so a recorded scenario replays its own recovery.
  ExperimentSpec clean = short_spec();
  ExperimentResult baseline = run_experiment(clean);

  ExperimentSpec faulted = clean;
  sim::FaultPlan plan;
  plan.seed = 2;
  plan.faults.push_back(fault_of(sim::FaultKind::HostCrash, 12.0, 13.0));
  faulted.faults = plan;
  ASSERT_TRUE(faulted.faults->has_crash_faults());

  FleetSpec fleet;
  fleet.hosts.push_back({"solo", faulted});
  FleetResult r = run_fleet(fleet);
  EXPECT_GE(r.hosts.at(0).recovery.crashes, 1u);
  expect_records_byte_identical(r.hosts.at(0).result.stayaway_records,
                                baseline.stayaway_records);
}

TEST(SupervisorGolden, FleetSurvivesSingleHostCrash) {
  // 1-of-8 hosts crashes twice; every host still delivers its full
  // period count, only the crashing host recovers, and its stream matches
  // its solo run, at every checkpoint cadence and worker count. The
  // pinned counts are the periods-to-reconverge table: cadence 0 is a
  // cold restart replaying from period zero, and a tighter cadence never
  // replays more.
  struct Cadence {
    std::size_t checkpoint_every;
    std::size_t crashes;
    std::size_t gap_periods_replayed;
    std::size_t cold_starts;
  };
  const std::vector<Cadence> table = {
      {0, 2, 33, 2}, {10, 2, 3, 0}, {5, 2, 3, 0}, {2, 2, 1, 0}};

  ExperimentSpec base = short_spec();
  base.duration_s = 30.0;
  sim::FaultPlan plan;
  plan.seed = 1;
  plan.faults.push_back(fault_of(sim::FaultKind::HostCrash, 10.0, 11.0));
  plan.faults.push_back(fault_of(sim::FaultKind::HostCrash, 22.0, 23.0));
  const ExperimentResult solo =
      run_experiment(replicate_fleet(base, 8, 77, 1).hosts[3].experiment);

  std::size_t previous_gap = std::numeric_limits<std::size_t>::max();
  for (const Cadence& c : table) {
    std::vector<FleetResult> by_workers;
    for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("checkpoint_every=" + std::to_string(c.checkpoint_every) +
                   " workers=" + std::to_string(workers));
      FleetSpec fleet = replicate_fleet(base, 8, 77, workers);
      fleet.supervise = true;
      fleet.checkpoint_every = c.checkpoint_every;
      fleet.hosts[3].experiment.faults = plan;

      FleetResult r = run_fleet(fleet);
      ASSERT_EQ(r.hosts.size(), 8u);
      for (std::size_t i = 0; i < r.hosts.size(); ++i) {
        const FleetHostResult& host = r.hosts[i];
        EXPECT_EQ(host.result.stayaway_records.size(), 30u) << host.name;
        EXPECT_EQ(host.recovery.divergences, 0u) << host.name;
        EXPECT_EQ(host.recovery.any_failures(), i == 3) << host.name;
      }
      const RecoveryReport& rec = r.hosts[3].recovery;
      EXPECT_EQ(rec.crashes, c.crashes);
      EXPECT_EQ(rec.gap_periods_replayed, c.gap_periods_replayed);
      EXPECT_EQ(rec.cold_starts, c.cold_starts);
      expect_records_byte_identical(r.hosts[3].result.stayaway_records,
                                    solo.stayaway_records);
      by_workers.push_back(std::move(r));
    }
    SCOPED_TRACE("checkpoint_every=" + std::to_string(c.checkpoint_every));
    const FleetResult& one = by_workers[0];
    const FleetResult& four = by_workers[1];
    for (std::size_t i = 0; i < one.hosts.size(); ++i) {
      expect_records_byte_identical(four.hosts[i].result.stayaway_records,
                                    one.hosts[i].result.stayaway_records);
      const RecoveryReport& a = one.hosts[i].recovery;
      const RecoveryReport& b = four.hosts[i].recovery;
      EXPECT_EQ(b.crashes, a.crashes) << one.hosts[i].name;
      EXPECT_EQ(b.recoveries, a.recoveries) << one.hosts[i].name;
      EXPECT_EQ(b.cold_starts, a.cold_starts) << one.hosts[i].name;
      EXPECT_EQ(b.checkpoints_saved, a.checkpoints_saved) << one.hosts[i].name;
      EXPECT_EQ(b.gap_periods_replayed, a.gap_periods_replayed)
          << one.hosts[i].name;
    }
    EXPECT_LE(one.hosts[3].recovery.gap_periods_replayed, previous_gap);
    previous_gap = one.hosts[3].recovery.gap_periods_replayed;
  }
}

TEST(SupervisorGolden, WarmStartedHostCrashMatchesUninterrupted) {
  // A host warm-started from a 20 s checkpoint and crashed at 30 s
  // recovers in the original run's period numbers: from the newest
  // supervisor checkpoint, or from its restore blob when it has none —
  // never a cold start from period 0.
  ExperimentSpec spec = short_spec();
  spec.faults = sim::FaultPlan{};
  spec.faults->faults.push_back(
      fault_of(sim::FaultKind::HostCrash, 30.0, 31.0));
  const FleetHostResult want = run_supervised(spec);
  ASSERT_EQ(want.result.stayaway_records.size(), 40u);
  ExperimentSpec half = spec;
  half.duration_s = 20.0;
  const std::string blob = run_supervised(half).final_checkpoint;

  for (std::size_t every : {std::size_t{0}, std::size_t{5}, std::size_t{7}}) {
    SCOPED_TRACE("checkpoint_every=" + std::to_string(every));
    FleetSpec fleet;
    fleet.hosts.push_back({"solo", spec});
    fleet.supervise = true;
    fleet.checkpoint_every = every;
    fleet.restore["solo"] = blob;
    const FleetHostResult got = run_fleet(fleet).hosts.at(0);
    const auto& records = got.result.stayaway_records;
    ASSERT_EQ(records.size(), 40u);
    for (std::size_t p = 0; p < records.size(); ++p) {
      // Record 19 is the 20 s run's natural end (its app stamps the
      // period Idle).
      if (p == 19) continue;
      EXPECT_EQ(core::encode_record(records[p]),
                core::encode_record(want.result.stayaway_records[p]))
          << "period " << p;
    }
    EXPECT_EQ(got.result.batch_cpu_work, want.result.batch_cpu_work);
    EXPECT_EQ(got.recovery.crashes, 1u);
    EXPECT_LT(got.recovery.gap_periods_replayed, 40u);
    EXPECT_EQ(got.recovery.cold_starts, 0u);
    EXPECT_EQ(got.recovery.divergences, 0u);
  }
}

// --- Warm restarts of every wiring --------------------------------------

/// Every stage snapshots, so a crash in any wiring restores the newest
/// checkpoint — never a cold replay.
void expect_warm_restart(const RecoveryReport& r) {
  EXPECT_GE(r.crashes, 1u);
  EXPECT_EQ(r.cold_starts, 0u);
  EXPECT_GT(r.checkpoints_saved, 0u);
  EXPECT_GT(r.gap_periods_replayed, 0u);
  EXPECT_EQ(r.divergences, 0u);
}

/// Checkpoints land after periods 4, 9, 14, 19, ...; a crash at the
/// period-22 boundary restores the period-19 checkpoint.
void expect_crash_at_22_restarts_warm(ExperimentSpec clean) {
  if (!clean.faults.has_value()) clean.faults = sim::FaultPlan{};
  expect_crash_run_matches_clean(
      clean, {fault_of(sim::FaultKind::HostCrash, 22.0, 23.0)},
      /*checkpoint_every=*/5, expect_warm_restart);
}

ExperimentSpec ring_fed_spec() {
  ExperimentSpec spec = short_spec();
  spec.stayaway.ingest.source = monitor::IngestSource::Ring;
  spec.stayaway.ingest.rate_hz = 16.0;
  spec.stayaway.ingest.ring_capacity = 64;
  return spec;
}

TEST(SupervisorGolden, RingIngestWarmRestartIsByteIdentical) {
  // Ingest delays and duplicates on top of the degradation noise. The
  // lookahead leaves a popped-but-not-due sample pending (and more
  // queued behind it) at every period boundary, so each checkpoint
  // carries a stream in flight.
  ExperimentSpec spec = ring_fed_spec();
  spec.faults = stress_plan();
  spec.faults->faults.push_back(
      fault_of(sim::FaultKind::IngestDelay, 0.0, 40.0, 0.6));
  spec.faults->faults.push_back(
      fault_of(sim::FaultKind::IngestDuplicate, 0.0, 40.0, 0.3));
  FleetHostResult run = run_supervised(spec);
  EXPECT_NE(run.final_checkpoint.find("ring_pending_sequence = 1 "),
            std::string::npos);
  EXPECT_EQ(run.final_checkpoint.find("ring_queued_sequence = 0"),
            std::string::npos);
  expect_crash_at_22_restarts_warm(spec);
}

/// Landmark-model fit size after each period of `spec`, driven the way
/// the fleet drives a host.
std::vector<std::size_t> landmark_fit_sizes(const ExperimentSpec& spec) {
  HostRig rig = build_host_rig(spec);
  core::HostPipeline pipeline(*rig.host, *rig.probe,
                              derive_stayaway_config(spec));
  const auto ticks =
      static_cast<std::size_t>(std::llround(spec.period_s / spec.tick_s));
  const auto periods =
      static_cast<std::size_t>(std::llround(spec.duration_s / spec.period_s));
  std::vector<std::size_t> sizes;
  for (std::size_t p = 0; p < periods; ++p) {
    rig.host->run(ticks);
    pipeline.on_period();
    sizes.push_back(
        pipeline.stay_away_mapper()->embedder().landmark_fit_size());
  }
  return sizes;
}

TEST(SupervisorGolden, LandmarkIncrementalWarmRestartIsByteIdentical) {
  ExperimentSpec spec = ring_fed_spec();
  spec.stayaway.embed_method = core::EmbedMethod::LandmarkIncremental;
  spec.stayaway.landmark_count = 6;
  spec.stayaway.dedup_epsilon = 0.02;
  // The landmark model is fitted and refit before the restored period-19
  // checkpoint and refit again after it, so the restore rebuilds a live
  // model mid-regime.
  const std::vector<std::size_t> fits = landmark_fit_sizes(spec);
  ASSERT_EQ(fits.size(), 40u);
  const auto first_fit = static_cast<std::size_t>(
      std::find_if(fits.begin(), fits.end(),
                   [](std::size_t n) { return n > 0; }) -
      fits.begin());
  ASSERT_LT(first_fit, 19u);
  EXPECT_GT(fits[19], fits[first_fit]);
  EXPECT_GT(fits[22], fits[19]);
  expect_crash_at_22_restarts_warm(spec);
}

/// One baseline host driven the way the fleet drives a host. The
/// harness installs no fault plan into baseline pipelines
/// (ExperimentSpec::faults), so a fleet cannot crash one; the baseline
/// restart goldens exercise the supervisor's restore seam directly.
struct BaselineHost {
  HostRig rig;
  std::unique_ptr<core::HostPipeline> pipeline;

  BaselineHost(PolicyKind policy, const ExperimentSpec& spec)
      : rig(build_host_rig(spec)) {
    std::unique_ptr<core::Actuator> actuator;
    if (policy == PolicyKind::Reactive) {
      actuator = std::make_unique<baseline::ReactiveActuator>();
    } else {
      actuator = std::make_unique<baseline::StaticThresholdActuator>();
    }
    pipeline = std::make_unique<core::HostPipeline>(
        *rig.host, *rig.probe, derive_stayaway_config(spec),
        std::move(actuator));
  }

  std::vector<std::string> records() const {
    std::vector<std::string> out;
    for (const core::PeriodRecord& rec : pipeline->records()) {
      out.push_back(core::encode_record(rec));
    }
    return out;
  }

  double batch_work() const {
    double work = 0.0;
    for (sim::VmId id : rig.batch_ids) {
      work += rig.host->vm(id).cpu_work_done();
    }
    return work;
  }
};

/// Checkpoints a baseline run after period 19, warm-starts a rebuilt rig
/// and pipeline from it and runs on to period 40: the record stream and
/// the batch core-seconds must equal the uninterrupted run's exactly.
void expect_baseline_restart_at_19_is_byte_identical(PolicyKind policy) {
  const ExperimentSpec spec = short_spec();
  const auto ticks =
      static_cast<std::size_t>(std::llround(spec.period_s / spec.tick_s));
  const auto periods =
      static_cast<std::size_t>(std::llround(spec.duration_s / spec.period_s));
  ASSERT_EQ(periods, 40u);
  BaselineHost clean(policy, spec);
  std::string blob;
  for (std::size_t p = 0; p < periods; ++p) {
    clean.rig.host->run(ticks);
    clean.pipeline->on_period();
    if (p == 19) blob = core::encode_checkpoint(*clean.pipeline);
  }

  BaselineHost resumed(policy, spec);
  const std::size_t restored =
      core::warm_start(*resumed.pipeline, *resumed.rig.host, ticks, blob);
  ASSERT_EQ(restored, 20u);
  EXPECT_TRUE(resumed.pipeline->records().back().batch_paused_after);
  for (std::size_t p = restored; p < periods; ++p) {
    resumed.rig.host->run(ticks);
    resumed.pipeline->on_period();
  }
  EXPECT_EQ(resumed.records(), clean.records());
  EXPECT_EQ(resumed.batch_work(), clean.batch_work());
}

// Both baselines hold the batch paused at the restored period-19
// checkpoint; the reactive one must also carry its pause time across the
// restore to resume on schedule.
TEST(SupervisorGolden, ReactiveWarmRestartIsByteIdentical) {
  expect_baseline_restart_at_19_is_byte_identical(PolicyKind::Reactive);
}

TEST(SupervisorGolden, StaticThresholdWarmRestartIsByteIdentical) {
  expect_baseline_restart_at_19_is_byte_identical(
      PolicyKind::StaticThreshold);
}

// --- Migration × recovery (DESIGN.md §18) ------------------------------

/// Coordinated three-host scenario whose mobile cpubomb migrates off
/// web-a mid-run; the crash variant kills web-a shortly after the first
/// migration, so recovery must gap-replay periods whose coordinator
/// directives (gates, attaches) the supervisor re-applies through
/// ClusterCoordinator::replay_host_period.
constexpr const char* kClusterRecoveryScenario = R"(sensitive  = webservice-cpu
batch      = none
policy     = stay-away
duration_s = 80
workload   = constant
[host "web-a"]
seed = 3
%%FAULTS%%[host "web-b"]
seed = 5
[host "web-c"]
seed = 7
[cluster]
mobile = crunch:cpubomb:web-a:20
)";

FleetScenario cluster_recovery_doc(bool with_crash) {
  std::string text = kClusterRecoveryScenario;
  std::string faults;
  if (with_crash) {
    faults =
        "fault_seed = 1\n"
        "fault = host-crash start=40 end=41\n";
  }
  text.replace(text.find("%%FAULTS%%"), std::string("%%FAULTS%%").size(),
               faults);
  std::istringstream in(text);
  return parse_fleet_scenario(in);
}

TEST(ClusterRecovery, CrashedMigrationRunMatchesCleanRun) {
  replay::RecordedRun clean =
      replay::record_run(replay::canonical_fleet(cluster_recovery_doc(false),
                                                 0));
  ASSERT_TRUE(clean.result.cluster.has_value());
  EXPECT_GE(clean.result.cluster->migrations, 1u);

  FleetSpec crashed_spec =
      replay::to_fleet_spec(replay::canonical_fleet(cluster_recovery_doc(true),
                                                    0));
  crashed_spec.checkpoint_every = 10;
  FleetResult crashed = run_fleet(crashed_spec);
  ASSERT_TRUE(crashed.cluster.has_value());
  EXPECT_GE(crashed.hosts.at(0).recovery.crashes, 1u);
  EXPECT_EQ(crashed.hosts.at(0).recovery.divergences, 0u);

  // The crash-class fault draws nothing from the RNG and the recovered
  // member replays its coordinator directives, so both the cluster event
  // log and every host stream must be byte-identical to the clean run.
  EXPECT_EQ(crashed.cluster->events, clean.result.cluster->events);
  ASSERT_EQ(crashed.hosts.size(), clean.result.hosts.size());
  for (std::size_t h = 0; h < crashed.hosts.size(); ++h) {
    expect_records_byte_identical(
        crashed.hosts[h].result.stayaway_records,
        clean.result.hosts[h].result.stayaway_records);
  }
}

TEST(ClusterRecovery, CrashedMigrationRunReplaysByteIdentical) {
  // Record the crashing coordinated run itself, then re-execute its
  // embedded scenario: migrations, admission bookkeeping and recovery
  // must all come back byte-for-byte.
  replay::RecordedRun run =
      replay::record_run(replay::canonical_fleet(cluster_recovery_doc(true),
                                                 0));
  ASSERT_TRUE(run.result.cluster.has_value());
  EXPECT_GE(run.result.cluster->migrations, 1u);
  EXPECT_GE(run.result.hosts.at(0).recovery.crashes, 1u);
  EXPECT_FALSE(run.log.cluster_events.empty());

  replay::ReplayReport report = replay::replay_run_log(run.log);
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_GT(report.periods_checked, 0u);
}


// --- One record codec across artifacts ---------------------------------

/// The `record = ` payloads of a checkpoint blob, in order.
std::vector<std::string> checkpoint_record_lines(const std::string& blob) {
  std::vector<std::string> lines;
  std::istringstream in(blob);
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with("record = ")) lines.push_back(line.substr(9));
  }
  return lines;
}

/// Runs `fleet` supervised, with checkpoint export and a recorder
/// attached: each host's final checkpoint must carry exactly the lines
/// the recorder captured for it, and some line must carry `block`.
void expect_checkpoints_carry_recorder_lines(FleetSpec fleet,
                                             const std::string& block) {
  std::vector<std::string> names;
  for (const FleetHostSpec& host : fleet.hosts) names.push_back(host.name);
  replay::RunRecorder recorder(names);
  fleet.recorder = &recorder;
  fleet.supervise = true;
  fleet.checkpoint_every = 10;
  fleet.export_checkpoints = true;
  const FleetResult r = run_fleet(fleet);
  const std::vector<replay::HostStream> streams = recorder.streams();
  ASSERT_EQ(streams.size(), r.hosts.size());
  bool saw_block = false;
  for (std::size_t h = 0; h < r.hosts.size(); ++h) {
    ASSERT_EQ(streams[h].name, r.hosts[h].name);
    const std::vector<std::string> lines =
        checkpoint_record_lines(r.hosts[h].final_checkpoint);
    ASSERT_FALSE(lines.empty()) << r.hosts[h].name;
    ASSERT_EQ(lines.size(), streams[h].records.size()) << r.hosts[h].name;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      EXPECT_EQ(lines[i], streams[h].records[i])
          << r.hosts[h].name << " period " << i;
      saw_block = saw_block || lines[i].find(block) != std::string::npos;
    }
  }
  EXPECT_TRUE(saw_block) << "no record carries '" << block << "'";
}

TEST(RecordCodecAcrossArtifacts, RingFedCheckpointCarriesRecorderLines) {
  FleetSpec fleet;
  fleet.hosts.push_back({"ring", ring_fed_spec()});
  expect_checkpoints_carry_recorder_lines(fleet, " ing=");
}

/// Two webservice hosts under a `[cluster]` coordinator that migrates
/// a mobile cpubomb, so records carry the cluster block.
FleetSpec coordinated_fleet() {
  std::istringstream in(R"(sensitive  = webservice-cpu
batch      = none
policy     = stay-away
duration_s = 80
workload   = constant
[host "web-a"]
seed = 3
[host "web-b"]
seed = 5
[cluster]
mobile = crunch:cpubomb:web-a:20
)");
  return replay::to_fleet_spec(
      replay::canonical_fleet(parse_fleet_scenario(in), 0));
}

TEST(RecordCodecAcrossArtifacts, CoordinatedCheckpointsCarryRecorderLines) {
  expect_checkpoints_carry_recorder_lines(coordinated_fleet(), " migout=");
}

/// The memo text for `records`: one `record = <encode_record line>`
/// line per record, in order.
std::string expected_record_memo(
    const std::vector<core::PeriodRecord>& records) {
  std::string text;
  for (const core::PeriodRecord& rec : records) {
    text += "record = ";
    text += core::encode_record(rec);
    text += '\n';
  }
  return text;
}

TEST(CheckpointRecordMemo, RingFedMemoIsTheEncodeRecordLines) {
  ExperimentSpec spec = ring_fed_spec();
  spec.faults = stress_plan();
  spec.faults->faults.push_back(
      fault_of(sim::FaultKind::IngestDelay, 0.0, 40.0, 0.6));
  ManualHost h(spec);
  for (std::size_t periods : {1u, 9u, 9u, 25u, 40u}) {
    h.run_to(periods);
    const core::HostPipeline::RecordSection memo =
        h.pipeline.encoded_records();
    EXPECT_EQ(memo.text, expected_record_memo(h.pipeline.records()))
        << "at " << periods << " periods";
    EXPECT_EQ(memo.fnv, core::fnv1a64(memo.text));
  }
  EXPECT_NE(h.pipeline.encoded_records().text.find(" ing="),
            std::string::npos);
}

TEST(CheckpointRecordMemo, ClusterMemoIsTheEncodeRecordLines) {
  FleetSpec fleet = coordinated_fleet();
  fleet.supervise = true;
  fleet.checkpoint_every = 10;
  fleet.export_checkpoints = true;
  const FleetResult r = run_fleet(fleet);
  ASSERT_EQ(r.hosts.size(), 2u);
  bool saw_block = false;
  for (const FleetHostResult& host : r.hosts) {
    SCOPED_TRACE(host.name);
    const std::string expected =
        expected_record_memo(host.result.stayaway_records);
    saw_block = saw_block || expected.find(" migout=") != std::string::npos;
    // The exported blob carries the member's memo right after its header.
    const std::string& blob = host.final_checkpoint;
    const std::size_t body = blob.find('\n') + 1;
    EXPECT_EQ(blob.substr(body, expected.size()), expected);
    EXPECT_EQ(blob.compare(body + expected.size(), 10, "records = "), 0);
    // A pipeline seeded with the same records builds the same memo.
    ExperimentSpec spec = short_spec();
    HostRig rig = build_host_rig(spec);
    core::HostPipeline seeded(*rig.host, *rig.probe,
                              derive_stayaway_config(spec));
    seeded.seed_records(host.result.stayaway_records);
    EXPECT_EQ(seeded.encoded_records().text, expected);
  }
  EXPECT_TRUE(saw_block) << "no record carries the cluster block";
}


// --- Load-side rejection and cross-build pins ---------------------------

/// The blobs the rejection table edits and the byte pins hash: the final
/// export of one short supervised run per wiring.
enum class Fixture { Sync, Retry, Ring, Landmark, Reactive, Member, Coordinator };

ExperimentSpec sync_fixture_spec() {
  ExperimentSpec spec = short_spec();
  spec.faults = stress_plan();
  return spec;
}

/// Every pause dropped: the run ends holding an open retry ledger.
ExperimentSpec retry_fixture_spec() {
  ExperimentSpec spec = short_spec();
  spec.duration_s = 35.0;
  sim::FaultPlan plan;
  plan.seed = 3;
  plan.faults.push_back(fault_of(sim::FaultKind::PauseFail, 0.0, 40.0));
  spec.faults = plan;
  return spec;
}

ExperimentSpec landmark_fixture_spec() {
  ExperimentSpec spec = ring_fed_spec();
  spec.stayaway.embed_method = core::EmbedMethod::LandmarkIncremental;
  spec.stayaway.landmark_count = 6;
  spec.stayaway.dedup_epsilon = 0.02;
  return spec;
}

ExperimentSpec reactive_fixture_spec() {
  ExperimentSpec spec = short_spec();
  spec.policy = PolicyKind::Reactive;
  return spec;
}

/// Two coordinated hosts with a mobile VM and an admission, so the
/// member blobs carry a MigrationActuator and the coordinator blob both
/// VM lists.
FleetSpec coordinated_fixture_fleet() {
  std::istringstream in(R"(sensitive  = webservice-cpu
batch      = none
policy     = stay-away
duration_s = 80
workload   = constant
[host "web-a"]
seed = 3
[host "web-b"]
seed = 5
[cluster]
mobile = crunch:cpubomb:web-a:20
admit  = late:soplex:50
)");
  return replay::to_fleet_spec(
      replay::canonical_fleet(parse_fleet_scenario(in), 0));
}

struct FixtureBlobs {
  std::string sync, retry, ring, landmark, reactive;
  std::string member_a, member_b, coordinator;

  const std::string& of(Fixture f) const {
    switch (f) {
      case Fixture::Sync: return sync;
      case Fixture::Retry: return retry;
      case Fixture::Ring: return ring;
      case Fixture::Landmark: return landmark;
      case Fixture::Reactive: return reactive;
      case Fixture::Member: return member_a;
      case Fixture::Coordinator: return coordinator;
    }
    return sync;
  }
};

const FixtureBlobs& fixture_blobs() {
  static const FixtureBlobs blobs = [] {
    FixtureBlobs b;
    b.sync = run_supervised(sync_fixture_spec()).final_checkpoint;
    b.retry = run_supervised(retry_fixture_spec()).final_checkpoint;
    b.ring = run_supervised(ring_fed_spec()).final_checkpoint;
    b.landmark = run_supervised(landmark_fixture_spec()).final_checkpoint;
    b.reactive = run_supervised(reactive_fixture_spec()).final_checkpoint;
    FleetSpec fleet = coordinated_fixture_fleet();
    fleet.supervise = true;
    fleet.export_checkpoints = true;
    FleetResult r = run_fleet(fleet);
    b.member_a = r.hosts.at(0).final_checkpoint;
    b.member_b = r.hosts.at(1).final_checkpoint;
    b.coordinator = r.cluster.value().final_coordinator;
    return b;
  }();
  return blobs;
}

/// Restores `blob` into a fresh run of the fixture's wiring. A Member
/// blob stands in for web-a, a Coordinator blob for the coordinator;
/// every other blob of that run is the genuine one.
void restore_fixture(Fixture f, const std::string& blob) {
  auto solo = [&](const ExperimentSpec& spec) {
    FleetSpec fleet;
    fleet.hosts.push_back({"solo", spec});
    fleet.restore["solo"] = blob;
    run_fleet(fleet);
  };
  switch (f) {
    case Fixture::Sync: return solo(sync_fixture_spec());
    case Fixture::Retry: return solo(retry_fixture_spec());
    case Fixture::Ring: return solo(ring_fed_spec());
    case Fixture::Landmark: return solo(landmark_fixture_spec());
    case Fixture::Reactive: return solo(reactive_fixture_spec());
    case Fixture::Member:
    case Fixture::Coordinator: {
      const FixtureBlobs& blobs = fixture_blobs();
      FleetSpec fleet = coordinated_fixture_fleet();
      fleet.restore["web-a"] = f == Fixture::Member ? blob : blobs.member_a;
      fleet.restore["web-b"] = blobs.member_b;
      fleet.cluster->restore =
          f == Fixture::Coordinator ? blob : blobs.coordinator;
      run_fleet(fleet);
      return;
    }
  }
}

/// Replaces the value of one body line: the `occurrence`-th (0-based)
/// line whose key is `key`.
struct LineEdit {
  std::string key;
  std::size_t occurrence = 0;
  std::function<std::string(const std::string&)> value;
};

/// `blob` with every edit applied and the checksum trailer recomputed,
/// so only the edited fields can make the restore fail.
std::string edit_blob(const std::string& blob,
                      const std::vector<LineEdit>& edits) {
  const std::size_t body_start = blob.find('\n') + 1;
  const std::size_t trailer = blob.rfind("checksum = ");
  std::vector<std::string> lines;
  std::istringstream in(blob.substr(body_start, trailer - body_start));
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  for (const LineEdit& e : edits) {
    const std::string prefix = e.key + " = ";
    std::size_t seen = 0;
    bool edited = false;
    for (std::string& line : lines) {
      if (!line.starts_with(prefix) || seen++ != e.occurrence) continue;
      line = prefix + e.value(line.substr(prefix.size()));
      edited = true;
      break;
    }
    EXPECT_TRUE(edited) << "no line '" << e.key << "' #" << e.occurrence;
  }
  std::string body;
  for (const std::string& line : lines) body += line + '\n';
  return blob.substr(0, body_start) + body +
         "checksum = " + std::to_string(core::fnv1a64(body)) + "\n";
}

std::vector<std::string> tokens_of(const std::string& value) {
  std::vector<std::string> out;
  std::istringstream in(value);
  for (std::string t; in >> t;) out.push_back(t);
  return out;
}

std::string joined(const std::vector<std::string>& tokens) {
  std::string out;
  for (const std::string& t : tokens) out += (out.empty() ? "" : " ") + t;
  return out;
}

/// Value transforms for LineEdit.
auto set_to(std::string v) {
  return [v](const std::string&) { return v; };
}
auto plus_one() {
  return [](const std::string& v) { return std::to_string(std::stoull(v) + 1); };
}
/// A `<n> v...` vector value without its last entry.
auto drop_last() {
  return [](const std::string& v) {
    std::vector<std::string> t = tokens_of(v);
    EXPECT_GE(t.size(), 2u) << "'" << v << "' has no entry to drop";
    if (t.size() < 2) return v;
    t.pop_back();
    t[0] = std::to_string(t.size() - 1);
    return joined(t);
  };
}
/// A vector value with its count token replaced (entries kept).
auto with_count(std::string count) {
  return [count](const std::string& v) {
    std::vector<std::string> t = tokens_of(v);
    t.at(0) = count;
    return joined(t);
  };
}
/// A vector value with entry `i` replaced.
auto with_entry(std::size_t i, std::string entry) {
  return [i, entry](const std::string& v) {
    std::vector<std::string> t = tokens_of(v);
    EXPECT_LT(i + 1, t.size()) << "'" << v << "' has no entry " << i;
    if (i + 1 >= t.size()) return v;
    t[i + 1] = entry;
    return joined(t);
  };
}
/// A `<n> v...` vector value of `n` copies of `entry`.
std::string repeated(std::size_t n, const std::string& entry) {
  std::string out = std::to_string(n);
  for (std::size_t i = 0; i < n; ++i) out += " " + entry;
  return out;
}

/// The count token of the first `key` line of `blob`.
std::size_t leading_count(const std::string& blob, const std::string& key) {
  const std::size_t at = blob.find("\n" + key + " = ");
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return 0;
  return static_cast<std::size_t>(
      std::stoull(blob.substr(at + key.size() + 4)));
}

/// Replacement `<prefix>_sequence/_time/_values` lines describing `n`
/// samples of `dimension` readings.
std::vector<LineEdit> sample_lines(const std::string& prefix, std::size_t n,
                                   std::size_t dimension) {
  return {{prefix + "_sequence", 0, set_to(repeated(n, "1"))},
          {prefix + "_time", 0, set_to(repeated(n, "0"))},
          {prefix + "_values", 0, set_to(repeated(n * dimension, "0"))}};
}

// --- State size -------------------------------------------------------

/// `blob` without its history: the `record = ` lines and the delivered-
/// actuation journal (`journal_*`, one entry per actuation, which
/// warm_start replays). What is left is the header, the record count,
/// the stage state and the trailer.
std::string state_section(const std::string& blob) {
  std::istringstream in(blob);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (!line.starts_with("record = ") && !line.starts_with("journal_")) {
      out += line + '\n';
    }
  }
  return out;
}

TEST(CheckpointStateSize, StateSectionDoesNotGrowWithTheRun) {
  // Apart from its history, a checkpoint holds bounded stage state: Rng
  // snapshots are `<seed> <draws>` and the quarantine keeps a watermark
  // plus the out-of-order sequences above it. So the state section at
  // period 400 is within 10% of its size at period 100.
  ExperimentSpec spec = short_spec();
  spec.faults = stress_plan();
  spec.duration_s = 400.0;
  ManualHost h(spec);
  h.run_to(100);
  const std::string at_100 = state_section(core::encode_checkpoint(h.pipeline));
  h.run_to(400);
  const std::string at_400 = state_section(core::encode_checkpoint(h.pipeline));
  EXPECT_NE(at_400.find("\nrecords = 400\n"), std::string::npos);
  EXPECT_NE(at_400.find("\nseen_below = 400\nseen_above = 0\n"),
            std::string::npos);
  const double small = static_cast<double>(at_100.size());
  const double large = static_cast<double>(at_400.size());
  EXPECT_LE(large, 1.1 * small) << small << " -> " << large;
}

TEST(CheckpointStateSize, RingFedSeenSequencesStayBounded) {
  // A ring-fed quarantine admits 16 samples a period, delayed and
  // duplicated throughout: its seen-sequence state holds the samples
  // still out of order, never the 6,400 admitted ones.
  ExperimentSpec spec = ring_fed_spec();
  sim::FaultPlan plan;
  plan.seed = 5;
  plan.faults.push_back(
      fault_of(sim::FaultKind::IngestDelay, 0.0, 1000.0, 0.6));
  plan.faults.push_back(
      fault_of(sim::FaultKind::IngestDuplicate, 0.0, 1000.0, 0.3));
  spec.faults = plan;
  spec.duration_s = 400.0;
  ManualHost h(spec);
  for (std::size_t periods : {100u, 400u}) {
    h.run_to(periods);
    const std::string blob = core::encode_checkpoint(h.pipeline);
    EXPECT_GT(leading_count(blob, "total_late"), 0u) << periods;
    EXPECT_GE(leading_count(blob, "seen_below"), 15 * periods) << periods;
    EXPECT_LE(leading_count(blob, "seen_above"),
              spec.stayaway.ingest.ring_capacity)
        << periods;
  }
}

struct Rejection {
  std::string name;
  Fixture fixture;
  std::vector<LineEdit> edits;
};

TEST(CheckpointRejection, FixtureBlobsCarryTheEditedFields) {
  const FixtureBlobs& b = fixture_blobs();
  EXPECT_NE(b.sync.find("\nhas_faults = true\n"), std::string::npos);
  EXPECT_NE(b.sync.find("\nhas_prev_mode = true\n"), std::string::npos);
  EXPECT_NE(b.ring.find("\nhas_last_resume_reason = true\n"),
            std::string::npos);
  EXPECT_EQ(b.sync.find("\njournal_kind = 0\n"), std::string::npos);
  EXPECT_NE(b.retry.find("\nhas_pending = true\n"), std::string::npos);
  EXPECT_NE(b.landmark.find("\nlandmark_fit_size = "), std::string::npos);
  EXPECT_NE(b.reactive.find("\nhas_mapper = false\n"), std::string::npos);
  EXPECT_NE(b.member_a.find("\nmigration_has_inner = true\n"),
            std::string::npos);
  EXPECT_NE(b.coordinator.find("\nmobile_name = crunch\n"), std::string::npos);
  EXPECT_NE(b.coordinator.find("\nadmission_name = late\n"),
            std::string::npos);
  // Re-sealed without an edit, every fixture restores: the rejections
  // below come from the edited field alone.
  for (Fixture f : {Fixture::Sync, Fixture::Retry, Fixture::Ring,
                    Fixture::Landmark, Fixture::Reactive, Fixture::Member,
                    Fixture::Coordinator}) {
    EXPECT_NO_THROW(restore_fixture(f, edit_blob(b.of(f), {})))
        << static_cast<int>(f);
  }
}

TEST(CheckpointRejection, EveryLoadCheckThrowsStateCodecError) {
  const FixtureBlobs& b = fixture_blobs();
  const std::size_t ring_dim = leading_count(b.ring, "last_good");
  ASSERT_GT(ring_dim, 0u);
  const std::size_t record_at = b.sync.find("\nrecord = ");
  ASSERT_NE(record_at, std::string::npos);
  const std::string first_record = b.sync.substr(
      record_at + 10, b.sync.find('\n', record_at + 1) - record_at - 10);
  std::vector<Rejection> table = {
      // Enums out of range.
      {"degradation", Fixture::Sync, {{"degradation", 0, set_to("3")}}},
      {"pending_op", Fixture::Retry, {{"pending_op", 0, set_to("3")}}},
      {"prev_mode", Fixture::Sync, {{"prev_mode", 0, set_to("99")}}},
      {"last_resume_reason", Fixture::Ring,
       {{"last_resume_reason", 0, set_to("2")}}},
      {"admission_state", Fixture::Coordinator,
       {{"admission_state", 0, set_to("3")}}},
      {"journal op kind", Fixture::Sync,
       {{"journal_kind", 0, with_entry(0, "4")}}},
      // Wiring mismatches.
      {"has_mapper", Fixture::Sync, {{"has_mapper", 0, set_to("false")}}},
      {"has_mapper (baseline)", Fixture::Reactive,
       {{"has_mapper", 0, set_to("true")}}},
      {"has_forecaster", Fixture::Sync,
       {{"has_forecaster", 0, set_to("false")}}},
      {"has_actuator", Fixture::Sync, {{"has_actuator", 0, set_to("false")}}},
      {"has_faults", Fixture::Sync, {{"has_faults", 0, set_to("false")}}},
      {"migration_has_inner", Fixture::Member,
       {{"migration_has_inner", 0, set_to("false")}}},
      {"cluster_hosts", Fixture::Coordinator,
       {{"cluster_hosts", 0, plus_one()}}},
      {"cluster_mobile", Fixture::Coordinator,
       {{"cluster_mobile", 0, plus_one()}}},
      {"cluster_admissions", Fixture::Coordinator,
       {{"cluster_admissions", 0, plus_one()}}},
      // Count and shape checks.
      {"positions/representatives", Fixture::Sync,
       {{"positions_x", 1, drop_last()}, {"positions_y", 1, drop_last()}}},
      {"positions x/y", Fixture::Sync, {{"positions_y", 1, drop_last()}}},
      {"space/representatives", Fixture::Sync,
       {{"forced", 0, drop_last()},
        {"visits", 0, drop_last()},
        {"violating", 0, drop_last()},
        {"positions_x", 0, drop_last()},
        {"positions_y", 0, drop_last()}}},
      {"space per-state lengths", Fixture::Sync,
       {{"visits", 0, drop_last()}}},
      {"representative weights", Fixture::Sync, {{"weights", 0, drop_last()}}},
      {"representative dimensions", Fixture::Sync,
       {{"rep", 1, drop_last()}}},
      {"quarantine dimension", Fixture::Sync, {{"last_good", 0, drop_last()}}},
      {"journal lengths", Fixture::Sync, {{"journal_vm", 0, drop_last()}}},
      {"landmark_fit_size", Fixture::Landmark,
       {{"landmark_fit_size", 0, set_to("100000")}}},
      {"modes", Fixture::Sync, {{"modes", 0, plus_one()}}},
      {"ring over capacity", Fixture::Ring,
       sample_lines("ring_queued", 65, ring_dim)},
      {"more than one pending", Fixture::Ring,
       sample_lines("ring_pending", 2, ring_dim)},
      {"ring sample width", Fixture::Ring,
       {{"ring_pending_values", 0, drop_last()}}},
      {"mobile placement", Fixture::Coordinator,
       {{"mobile_host", 0, set_to("2")}}},
      // Name checks.
      {"mobile name", Fixture::Coordinator,
       {{"mobile_name", 0, set_to("nobody")}}},
      {"admission name", Fixture::Coordinator,
       {{"admission_name", 0, set_to("nobody")}}},
      // Malformed values.
      {"bool", Fixture::Sync, {{"batch_paused", 0, set_to("maybe")}}},
      {"rng", Fixture::Sync, {{"governor_rng", 0, set_to("garbage")}}},
      {"rng without draws", Fixture::Sync,
       {{"governor_rng", 0, set_to("7")}}},
      {"rng with a third token", Fixture::Sync,
       {{"governor_rng", 0, set_to("7 1 2")}}},
      {"rng draws over the cap", Fixture::Sync,
       {{"governor_rng", 0,
         set_to("7 " + std::to_string(util::kMaxRngDraws + 1))}}},
      {"records count above the record lines", Fixture::Sync,
       {{"records", 0, plus_one()}}},
      {"records count below the record lines", Fixture::Sync,
       {{"records", 0,
         [](const std::string& v) {
           return std::to_string(std::stoull(v) - 1);
         }}}},
      {"record line after the count", Fixture::Sync,
       {{"records", 0,
         [&](const std::string& v) {
           return v + "\nrecord = " + first_record;
         }}}},
      {"seen sequence below the watermark", Fixture::Sync,
       {{"seen_above", 0, set_to("1 0")}}},
      {"seen sequences out of order", Fixture::Ring,
       {{"seen_above", 0,
         set_to("2 18446744073709551615 18446744073709551614")}}},
      {"u64", Fixture::Sync, {{"pauses", 0, set_to("-1")}}},
      {"double", Fixture::Sync, {{"beta", 0, set_to("0x")}}},
      {"vector longer than count", Fixture::Sync,
       {{"visits", 0, with_count("0")}}},
      {"trailing body line", Fixture::Sync,
       {{"healthy_streak", 0,
         [](const std::string& v) { return v + "\nextra = 1"; }}}},
  };
  for (const Rejection& r : table) {
    SCOPED_TRACE(r.name);
    const std::string edited = edit_blob(b.of(r.fixture), r.edits);
    EXPECT_THROW(restore_fixture(r.fixture, edited), util::StateCodecError);
  }
}

TEST(CheckpointRejection, BlobCountsNeverSizeAllocations) {
  // A count of 2^62 must fail as a codec error, never reach reserve():
  // no element of any field fits in the bytes left.
  const FixtureBlobs& b = fixture_blobs();
  const std::string huge = "4611686018427387904";
  std::vector<Rejection> table = {
      {"reals", Fixture::Sync, {{"positions_x", 1, with_count(huge)}}},
      {"u64s", Fixture::Sync, {{"visits", 0, with_count(huge)}}},
      {"representatives", Fixture::Sync,
       {{"representatives", 0, set_to(huge)}}},
      {"records", Fixture::Sync, {{"records", 0, set_to(huge)}}},
      {"cluster_events", Fixture::Coordinator,
       {{"cluster_events", 0, set_to(huge)}}},
  };
  for (const Rejection& r : table) {
    SCOPED_TRACE(r.name);
    const std::string edited = edit_blob(b.of(r.fixture), r.edits);
    EXPECT_THROW(restore_fixture(r.fixture, edited), util::StateCodecError);
  }
}

TEST(CheckpointRejection, HistogramBinMismatchIsACodecError) {
  // A trajectory histogram restores only into its configured bin count;
  // any other count must fail as a codec error, not as the histogram's
  // own precondition.
  const std::string edited =
      edit_blob(fixture_blobs().sync, {{"steps", 0, drop_last()}});
  EXPECT_THROW(restore_fixture(Fixture::Sync, edited), util::StateCodecError);
}

/// The same coordinator state as a v1 blob: v2 only bumped the header
/// and opened the body with the `periods` line.
std::string as_coordinator_v1(const std::string& blob) {
  const std::size_t body = blob.find('\n', blob.find('\n') + 1) + 1;
  std::string v1;
  const std::size_t v1_body =
      core::begin_envelope(v1, "stayaway-coordinator", 1);
  v1 += blob.substr(body, blob.rfind("checksum = ") - body);
  core::seal_envelope(v1, v1_body);
  return v1;
}

TEST(CheckpointBytePins, FinalExportsMatchPinnedDigests) {
  // fnv1a64 of each final blob: restore -> re-export proves only
  // self-consistency, these pins prove the bytes did not move. A format
  // change re-pins them once each new blob is shown to be the old one
  // under the mechanical rewrite.
  const FixtureBlobs& b = fixture_blobs();
  EXPECT_EQ(core::fnv1a64(b.sync), 0x8f8346e67f659517ULL);
  EXPECT_EQ(core::fnv1a64(b.ring), 0xa95e9bf1f4631fc4ULL);
  EXPECT_EQ(core::fnv1a64(b.landmark), 0x06c1fa08bb663515ULL);
  EXPECT_EQ(core::fnv1a64(b.reactive), 0xb2f7803847f17bb9ULL);
  EXPECT_EQ(core::fnv1a64(b.member_a), 0xa99a2527131a1940ULL);
  // The coordinator's pin holds its state bytes as v1 wrote them; v2
  // adds only the header bump and the period count of the 80 s run.
  EXPECT_TRUE(b.coordinator.starts_with(
      "stayaway-coordinator v2\nperiods = 80\ncluster_migrate = "));
  EXPECT_EQ(core::fnv1a64(as_coordinator_v1(b.coordinator)),
            0x59045f9342960342ULL);
}

}  // namespace
}  // namespace stayaway::harness
