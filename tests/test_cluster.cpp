// Cluster coordinator tests (DESIGN.md §18): interference-score algebra,
// the idle-coordinator byte-identity contract (a ClusterSpec with
// nothing to move must not perturb the per-host loops, fault-free or
// faulted), migration and admission behaviour on a three-host fleet,
// the flash-crowd acceptance bound (migration beats pausing),
// record→replay byte-identity for runs with migrations and rejections,
// the cluster fields of the run-log line format, and coordinator
// checkpoint/restore.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/cluster/score.hpp"
#include "harness/fleet.hpp"
#include "harness/scenario_file.hpp"
#include "replay/replay.hpp"
#include "replay/run_log.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace stayaway::harness {
namespace {

namespace cluster = core::cluster;

// --- Interference score ------------------------------------------------

cluster::HostSnapshot snap_of(double margin, double step, bool violating) {
  cluster::HostSnapshot s;
  s.has_geometry = true;
  s.safety_margin = margin;
  s.step_length = step;
  s.violating_now = violating;
  return s;
}

TEST(InterferenceScore, SafeHostScoresNegative) {
  // Deep in safe territory with a calm trajectory: well below zero, so
  // it both accepts migrations and clears the admission budget.
  double s = cluster::interference_score(snap_of(1.5, 0.1, false), 0.5);
  EXPECT_LT(s, 0.0);
  EXPECT_DOUBLE_EQ(s, 0.5 * 0.1 - 1.5);
}

TEST(InterferenceScore, ViolationAddsFlatPenalty) {
  cluster::HostSnapshot calm = snap_of(0.4, 0.2, false);
  cluster::HostSnapshot hot = snap_of(0.4, 0.2, true);
  EXPECT_DOUBLE_EQ(cluster::interference_score(hot, 0.5),
                   cluster::interference_score(calm, 0.5) +
                       cluster::kViolationPenalty);
}

TEST(InterferenceScore, MonotoneInFootprintAndMargin) {
  cluster::HostSnapshot s = snap_of(1.0, 0.3, false);
  EXPECT_LT(cluster::interference_score(s, 0.25),
            cluster::interference_score(s, 1.0));
  EXPECT_LT(cluster::interference_score(snap_of(1.8, 0.3, false), 0.5),
            cluster::interference_score(snap_of(0.2, 0.3, false), 0.5));
}

TEST(InterferenceScore, ColdHostScoresNeutralMargin) {
  // Hosts without violation geometry report the neutral margin: safe
  // enough to receive VMs, never preferred over a host with a proven
  // deeper margin. This is what snapshot_host reports pre-warm-up.
  cluster::HostSnapshot cold;
  cold.safety_margin = cluster::kNeutralMargin;
  EXPECT_DOUBLE_EQ(cluster::interference_score(cold, 0.5),
                   -cluster::kNeutralMargin);
}

// --- Fleet scenarios ---------------------------------------------------

constexpr const char* kClusterBase = R"(sensitive  = webservice-cpu
batch      = none
policy     = stay-away
duration_s = 120
workload   = constant
[host "web-a"]
seed = 3
[host "web-b"]
seed = 5
[host "web-c"]
seed = 7
)";

FleetScenario parse_doc(const std::string& text) {
  std::istringstream in(text);
  return parse_fleet_scenario(in);
}

FleetSpec spec_of(const std::string& text) {
  return replay::to_fleet_spec(parse_doc(text));
}

/// `skip` (npos = none) exempts one record index: a checkpoint taken at a
/// run's natural end stamps that final period Idle (the sensitive app is
/// finished), so a full-history comparison against a longer cold run must
/// ignore exactly the boundary record. Everything before and after —
/// including the live tail computed from the restored state — is held to
/// byte identity.
void expect_host_records_identical(const FleetResult& got,
                                   const FleetResult& want,
                                   std::size_t skip = std::string::npos) {
  ASSERT_EQ(got.hosts.size(), want.hosts.size());
  for (std::size_t h = 0; h < got.hosts.size(); ++h) {
    const auto& a = got.hosts[h].result.stayaway_records;
    const auto& b = want.hosts[h].result.stayaway_records;
    ASSERT_EQ(a.size(), b.size()) << got.hosts[h].name;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (i == skip) continue;
      EXPECT_EQ(core::encode_record(a[i]), core::encode_record(b[i]))
          << got.hosts[h].name << " period " << i;
    }
  }
}

TEST(ClusterCoordinator, IdleCoordinatorIsByteIdentical) {
  // A ClusterSpec with no mobile VMs and no admissions wraps every
  // actuator and steps the coordinator at every boundary, yet must not
  // change a single record: the coordinated fleet degenerates to the
  // plain one when there is nothing to move.
  FleetSpec plain = spec_of(kClusterBase);
  FleetSpec idle = spec_of(kClusterBase);
  ClusterSpec cs;
  cs.config.migrate = true;
  idle.cluster = cs;

  FleetResult want = run_fleet(plain);
  FleetResult got = run_fleet(idle);
  ASSERT_TRUE(got.cluster.has_value());
  EXPECT_EQ(got.cluster->migrations, 0u);
  EXPECT_TRUE(got.cluster->events.empty());
  expect_host_records_identical(got, want);
}

TEST(ClusterCoordinator, IdleCoordinatorIsByteIdenticalUnderFaults) {
  // Same contract with the degradation machinery busy: faults draw from
  // per-host RNG streams, so an idle coordinator consuming draws (it
  // must not) would shift every subsequent decision.
  auto faulted = [](bool with_cluster) {
    FleetSpec spec = spec_of(kClusterBase);
    sim::FaultPlan plan;
    plan.seed = 11;
    sim::FaultSpec dropout;
    dropout.kind = sim::FaultKind::SensorDropout;
    dropout.start_s = 5.0;
    dropout.end_s = 60.0;
    dropout.probability = 0.3;
    plan.faults.push_back(dropout);
    sim::FaultSpec pause_fail;
    pause_fail.kind = sim::FaultKind::PauseFail;
    pause_fail.start_s = 0.0;
    pause_fail.end_s = 80.0;
    pause_fail.probability = 0.5;
    plan.faults.push_back(pause_fail);
    for (auto& host : spec.hosts) host.experiment.faults = plan;
    if (with_cluster) spec.cluster = ClusterSpec{};
    return run_fleet(spec);
  };
  FleetResult want = faulted(false);
  FleetResult got = faulted(true);
  expect_host_records_identical(got, want);
}

std::string with_cluster_section(const std::string& extra) {
  return std::string(kClusterBase) + "[cluster]\n" + extra;
}

TEST(ClusterCoordinator, MigrationMovesMobileVmOffViolatingHost) {
  FleetSpec spec =
      spec_of(with_cluster_section("mobile = crunch:cpubomb:web-a:20\n"));
  FleetResult r = run_fleet(spec);
  ASSERT_TRUE(r.cluster.has_value());
  EXPECT_GE(r.cluster->migrations, 1u);
  ASSERT_FALSE(r.cluster->events.empty());
  // The first move leaves the bomb's home host.
  EXPECT_NE(r.cluster->events.front().find("migrate vm=crunch from=web-a"),
            std::string::npos)
      << r.cluster->events.front();
  // Each migration is stamped on the source host's record stream.
  std::size_t stamped = 0;
  for (const auto& host : r.hosts) {
    for (const auto& rec : host.result.stayaway_records) {
      stamped += rec.migrations_out;
    }
  }
  EXPECT_EQ(stamped, r.cluster->migrations);
}

TEST(ClusterCoordinator, MigrateOffPausesInPlace) {
  FleetSpec spec = spec_of(with_cluster_section(
      "migrate = false\nmobile = crunch:cpubomb:web-a:20\n"));
  FleetResult r = run_fleet(spec);
  ASSERT_TRUE(r.cluster.has_value());
  EXPECT_EQ(r.cluster->migrations, 0u);
  // The per-host governor still defends QoS the classic way.
  EXPECT_GE(r.hosts.at(0).result.pauses, 1u);
}

TEST(ClusterCoordinator, AdmissionAdmitsWhenBudgetClears) {
  FleetSpec spec = spec_of(with_cluster_section("admit = late:soplex:30\n"));
  FleetResult r = run_fleet(spec);
  ASSERT_TRUE(r.cluster.has_value());
  EXPECT_EQ(r.cluster->admitted, 1u);
  EXPECT_EQ(r.cluster->rejected, 0u);
  EXPECT_EQ(r.cluster->queued, 0u);
  ASSERT_FALSE(r.cluster->events.empty());
  EXPECT_NE(r.cluster->events.front().find("admit vm=late"),
            std::string::npos);
}

TEST(ClusterCoordinator, AdmissionRejectsWhenBudgetNeverClears) {
  // admit_margin above kNeutralMargin is a budget no host can clear (the
  // score floor is -kNeutralMargin), so the VM queues out its patience
  // and is rejected for good.
  FleetSpec spec = spec_of(with_cluster_section(
      "admit_margin = 3\nadmit_patience = 4\nadmit = doomed:cpubomb:30\n"));
  FleetResult r = run_fleet(spec);
  ASSERT_TRUE(r.cluster.has_value());
  EXPECT_EQ(r.cluster->admitted, 0u);
  EXPECT_EQ(r.cluster->rejected, 1u);
  EXPECT_EQ(r.cluster->queued, 0u);
  bool saw_reject = false;
  for (const auto& e : r.cluster->events) {
    saw_reject = saw_reject || e.find("reject vm=doomed") != std::string::npos;
  }
  EXPECT_TRUE(saw_reject);
}

/// Three flash-crowd hosts: "front" at full load surges 60..120 s, the
/// two spares idle at a quarter of its crowd (a constant trace is the
/// load fraction under flash_crowd.hpp's absolute scaling). A 4-core
/// cpubomb is the mobile batch VM, homed on front from 15 s.
FleetSpec flash_crowd_fleet(bool migrate) {
  constexpr double kDuration = 240.0;
  auto host = [](const char* name, double load, std::uint64_t seed) {
    ExperimentSpec spec;
    spec.sensitive = SensitiveKind::FlashCrowd;
    spec.batch = BatchKind::None;
    spec.policy = PolicyKind::StayAway;
    spec.duration_s = kDuration;
    spec.seed = seed;
    if (load < 1.0) spec.workload = trace::Trace({load}, kDuration);
    return FleetHostSpec{name, std::move(spec)};
  };
  FleetSpec fleet;
  fleet.hosts.push_back(host("front", 1.0, 11));
  fleet.hosts.push_back(host("spare-a", 0.25, 12));
  fleet.hosts.push_back(host("spare-b", 0.25, 13));
  ClusterSpec cs;
  cs.config.migrate = migrate;
  cs.mobile.push_back({"crunch", BatchKind::CpuBomb, "front", 15.0});
  fleet.cluster = std::move(cs);
  return fleet;
}

struct FleetTotals {
  std::size_t violations = 0;
  double batch_core_s = 0.0;
  std::size_t migrations = 0;
  std::vector<std::string> events;
};

FleetTotals run_totals(const FleetSpec& spec) {
  FleetResult r = run_fleet(spec);
  FleetTotals t;
  for (const FleetHostResult& host : r.hosts) {
    t.violations += host.result.violation_periods;
    t.batch_core_s += host.result.batch_cpu_work;
  }
  if (r.cluster.has_value()) {
    t.migrations = r.cluster->migrations;
    t.events = r.cluster->events;
  }
  return t;
}

TEST(ClusterCoordinator, FlashCrowdMigrationBeatsPausing) {
  // When the surge hits front, pausing leaves the bomb idle on front for
  // the length of the crowd; migration moves it to a calm spare, where it
  // keeps crunching. Migration must strictly win on BOTH fleet-wide
  // violation periods and batch core-seconds (EXPERIMENTS.md, cluster
  // row: 6 vs 1 violations, 556.7 vs 786.4 core-s).
  FleetTotals pausing = run_totals(flash_crowd_fleet(false));
  FleetTotals migration = run_totals(flash_crowd_fleet(true));

  EXPECT_GE(migration.migrations, 1u);
  EXPECT_LT(migration.violations, pausing.violations);
  EXPECT_GT(migration.batch_core_s, pausing.batch_core_s);

  EXPECT_EQ(pausing.violations, 6u);
  EXPECT_EQ(format_double(pausing.batch_core_s, 1), "556.7");
  EXPECT_EQ(pausing.migrations, 0u);
  EXPECT_EQ(migration.violations, 1u);
  EXPECT_EQ(format_double(migration.batch_core_s, 1), "786.4");
  EXPECT_EQ(migration.migrations, 1u);
  EXPECT_EQ(migration.events,
            std::vector<std::string>{
                "period=62 migrate vm=crunch from=front to=spare-a"});
}

// --- Record/replay -----------------------------------------------------

TEST(ClusterReplay, MigrationAndRejectionReplayByteIdentical) {
  // The PR's replay acceptance: a run with at least one migration AND at
  // least one admission rejection records and replays byte-identically,
  // cluster event log included.
  FleetScenario doc = parse_doc(with_cluster_section(
      "admit_margin = 3\nadmit_patience = 4\n"
      "mobile = crunch:cpubomb:web-a:20\nadmit = doomed:cpubomb:30\n"));
  replay::RecordedRun run = replay::record_run(replay::canonical_fleet(doc, 0));
  ASSERT_TRUE(run.result.cluster.has_value());
  EXPECT_GE(run.result.cluster->migrations, 1u);
  EXPECT_EQ(run.result.cluster->rejected, 1u);
  EXPECT_EQ(run.log.cluster_events, run.result.cluster->events);
  EXPECT_FALSE(run.log.cluster_events.empty());

  // Textual round trip first: the cluster-events section and the
  // migout/migin line fields survive serialize → parse.
  std::string text = replay::serialize_run_log(run.log);
  std::istringstream in(text);
  replay::RunLog back = replay::parse_run_log(in);
  EXPECT_EQ(replay::serialize_run_log(back), text);
  EXPECT_EQ(back.cluster_events, run.log.cluster_events);

  replay::ReplayReport report = replay::replay_run_log(back);
  EXPECT_TRUE(report.ok) << report.error
                         << (report.mismatches.empty()
                                 ? ""
                                 : " first mismatch host " +
                                       report.mismatches[0].host);
  EXPECT_GT(report.periods_checked, 0u);
}

TEST(ClusterReplay, TamperedClusterEventIsCaught) {
  FleetScenario doc =
      parse_doc(with_cluster_section("mobile = crunch:cpubomb:web-a:20\n"));
  replay::RecordedRun run = replay::record_run(replay::canonical_fleet(doc, 0));
  ASSERT_FALSE(run.log.cluster_events.empty());
  run.log.cluster_events[0] += " tampered";
  replay::ReplayReport report = replay::replay_run_log(run.log);
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.mismatches.empty());
  EXPECT_EQ(report.mismatches[0].host, "<cluster>");
}

TEST(ClusterRunLog, PeriodRecordClusterFieldsRoundTrip) {
  core::PeriodRecord rec;
  rec.time = 3.0;
  rec.migrations_out = 1;
  rec.migrations_in = 2;
  std::string line = core::encode_record(rec);
  EXPECT_NE(line.find("migout=1"), std::string::npos);
  EXPECT_NE(line.find("migin=2"), std::string::npos);
  core::PeriodRecord back = core::decode_record(line);
  EXPECT_EQ(back, rec);
  EXPECT_EQ(core::encode_record(back), line);

  // Cluster-free records keep the pre-cluster line format: the trailing
  // block is all-or-nothing, so old logs parse and new logs of plain
  // runs are byte-identical to what the seed wrote.
  rec.migrations_out = 0;
  rec.migrations_in = 0;
  EXPECT_EQ(core::encode_record(rec).find("migout"),
            std::string::npos);

  // Both tail blocks on one record: the ingest block, then the cluster
  // block.
  rec.samples_ingested = 5;
  rec.migrations_in = 1;
  line = core::encode_record(rec);
  EXPECT_LT(line.find(" ing=5"), line.find(" migout=0 migin=1"));
  EXPECT_EQ(core::decode_record(line), rec);
  EXPECT_EQ(core::encode_record(core::decode_record(line)), line);
}

TEST(ClusterRunLog, ClusterEventsMustBeLastSection) {
  replay::RunLog log;
  log.detector = "d";
  log.scenario_text = "sensitive = vlc-stream\n";
  log.hosts.push_back({"web-a", {}});
  log.cluster_events.push_back("period=2 migrate vm=x from=a to=b");
  std::string text = replay::serialize_run_log(log);

  // Moving the cluster-events section before a host stream must be
  // rejected — section order is part of the byte-identity contract.
  std::size_t host_pos = text.find("records \"web-a\"");
  std::size_t cluster_pos = text.find("cluster-events 1");
  std::size_t end_pos = text.rfind("end\n");
  ASSERT_NE(host_pos, std::string::npos);
  ASSERT_NE(cluster_pos, std::string::npos);
  ASSERT_LT(host_pos, cluster_pos);
  ASSERT_LT(cluster_pos, end_pos);
  std::string tampered = text.substr(0, host_pos) +
                         text.substr(cluster_pos, end_pos - cluster_pos) +
                         text.substr(host_pos, cluster_pos - host_pos) +
                         "end\n";
  std::istringstream in(tampered);
  EXPECT_THROW(replay::parse_run_log(in), PreconditionError);
}

// --- Checkpoint/restore ------------------------------------------------

/// Host and coordinator checkpoints of a coordinated run of `seconds`.
FleetResult checkpointed_run(const std::string& extra, double seconds) {
  FleetSpec half = spec_of(with_cluster_section(extra));
  for (auto& host : half.hosts) host.experiment.duration_s = seconds;
  half.export_checkpoints = true;
  return run_fleet(half);
}

TEST(ClusterCheckpoint, CoordinatorStateSurvivesRestore) {
  // Cold 120 s coordinated run vs checkpoint-at-`split` + warm restore
  // into the same 120 s scenario: the event stream and every host record
  // must come out identical — the coordinator's placements, cooldowns and
  // admission queue all live in the checkpoint, and the resumed run steps
  // boundary split-1 before its first period. The splits other than 60
  // fall one period before or on a decision, where a missed step shows.
  const std::string extra =
      "mobile = crunch:cpubomb:web-a:20\nadmit = late:soplex:90\n";
  FleetSpec cold = spec_of(with_cluster_section(extra));
  FleetResult want = run_fleet(cold);
  ASSERT_TRUE(want.cluster.has_value());
  EXPECT_GE(want.cluster->migrations, 1u);

  const std::size_t splits[] = {60, 20, 21, 43, 44, 67, 68, 90, 91, 92};
  for (std::size_t split : splits) {
    SCOPED_TRACE("split at " + std::to_string(split) + " s");
    FleetResult first =
        checkpointed_run(extra, static_cast<double>(split));
    ASSERT_TRUE(first.cluster.has_value());
    ASSERT_FALSE(first.cluster->final_coordinator.empty());

    // Second half, warm-started from the blobs.
    FleetSpec resumed = spec_of(with_cluster_section(extra));
    for (const auto& host : first.hosts) {
      ASSERT_FALSE(host.final_checkpoint.empty()) << host.name;
      resumed.restore[host.name] = host.final_checkpoint;
    }
    resumed.cluster->restore = first.cluster->final_coordinator;
    FleetResult got = run_fleet(resumed);
    ASSERT_TRUE(got.cluster.has_value());

    EXPECT_EQ(got.cluster->events, want.cluster->events);
    EXPECT_EQ(got.cluster->migrations, want.cluster->migrations);
    EXPECT_EQ(got.cluster->admitted, want.cluster->admitted);
    EXPECT_EQ(got.cluster->rejected, want.cluster->rejected);
    // Record split-1 is the first run's natural end (its app stamps the
    // period Idle); every other period, prefix and live tail alike, must
    // match.
    expect_host_records_identical(got, want, /*skip=*/split - 1);
  }
}

TEST(ClusterCheckpoint, DamagedCoordinatorBlobIsRejected) {
  const std::string extra = "mobile = crunch:cpubomb:web-a:20\n";
  FleetResult first = checkpointed_run(extra, 40.0);
  ASSERT_TRUE(first.cluster.has_value());

  // The host blobs are genuine, so only the damaged coordinator blob
  // can fail the restore.
  FleetSpec resumed = spec_of(with_cluster_section(extra));
  for (const auto& host : first.hosts) {
    resumed.restore[host.name] = host.final_checkpoint;
  }
  std::string blob = first.cluster->final_coordinator;
  ASSERT_FALSE(blob.empty());
  blob[blob.size() / 2] ^= 0x20;
  resumed.cluster->restore = blob;
  EXPECT_THROW(run_fleet(resumed), util::StateCodecError);
}

/// The PreconditionError message of `run_fleet(spec)`, or "" if none.
std::string precondition_error(const FleetSpec& spec) {
  try {
    run_fleet(spec);
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return "";
}

// A coordinated warm start is paired by one rule: every host and the
// coordinator start at the same period, 0 for a side with no blob.
// Anything else would diverge from the uninterrupted run without a word.
TEST(ClusterCheckpoint, HostRestoresWithoutCoordinatorAreRejected) {
  const std::string extra = "mobile = crunch:cpubomb:web-a:20\n";
  FleetResult first = checkpointed_run(extra, 40.0);
  FleetSpec resumed = spec_of(with_cluster_section(extra));
  for (const auto& host : first.hosts) {
    resumed.restore[host.name] = host.final_checkpoint;
  }
  EXPECT_NE(precondition_error(resumed).find(
                "host web-a starts at period 40 but the coordinator at "
                "period 0"),
            std::string::npos)
      << precondition_error(resumed);
}

TEST(ClusterCheckpoint, CoordinatorRestoreWithoutHostsIsRejected) {
  const std::string extra = "mobile = crunch:cpubomb:web-a:20\n";
  FleetResult first = checkpointed_run(extra, 40.0);
  ASSERT_TRUE(first.cluster.has_value());
  FleetSpec resumed = spec_of(with_cluster_section(extra));
  resumed.cluster->restore = first.cluster->final_coordinator;
  EXPECT_NE(precondition_error(resumed).find(
                "host web-a starts at period 0 but the coordinator at "
                "period 40"),
            std::string::npos)
      << precondition_error(resumed);
}

// The same rule for partial and mismatched pairings, and the coordinator
// blob's version.
TEST(ClusterCheckpoint, UnpairedWarmStartsAreRejected) {
  const std::string extra = "mobile = crunch:cpubomb:web-a:20\n";
  const FleetResult at40 = checkpointed_run(extra, 40.0);
  const FleetResult at30 = checkpointed_run(extra, 30.0);
  ASSERT_TRUE(at40.cluster.has_value() && at30.cluster.has_value());
  const std::string& coordinator40 = at40.cluster->final_coordinator;
  ASSERT_TRUE(coordinator40.starts_with("stayaway-coordinator v2\n"
                                        "periods = 40\n"));
  // A blob under the v1 header, which names no period, is refused by its
  // version before any of its body is read.
  std::string v1 = coordinator40;
  v1.replace(0, v1.find('\n'), "stayaway-coordinator v1");
  struct Case {
    std::string name;
    std::vector<std::string> hosts;  // restore blob per host, "" = cold
    std::string coordinator;         // "" = none
    std::string error;  // expected PreconditionError text ("" = a
                        // CheckpointVersionError)
  };
  std::vector<std::string> hosts40;
  for (const auto& host : at40.hosts) hosts40.push_back(host.final_checkpoint);
  const std::vector<Case> cases = {
      {"one host cold", {hosts40[0], "", hosts40[2]}, coordinator40,
       "host web-b starts at period 0 but the coordinator at period 40"},
      {"coordinator of another period", hosts40,
       at30.cluster->final_coordinator,
       "host web-a starts at period 40 but the coordinator at period 30"},
      {"v1 coordinator", hosts40, v1, ""},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    FleetSpec resumed = spec_of(with_cluster_section(extra));
    for (std::size_t h = 0; h < c.hosts.size(); ++h) {
      if (!c.hosts[h].empty()) {
        resumed.restore[resumed.hosts[h].name] = c.hosts[h];
      }
    }
    resumed.cluster->restore = c.coordinator;
    if (c.error.empty()) {
      EXPECT_THROW(run_fleet(resumed), core::CheckpointVersionError);
    } else {
      EXPECT_NE(precondition_error(resumed).find(c.error), std::string::npos)
          << precondition_error(resumed);
    }
  }
}

}  // namespace
}  // namespace stayaway::harness
