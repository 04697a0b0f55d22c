// Record/replay and fuzzer tests (DESIGN.md §14): PeriodRecord line
// round-trips (including non-finite values), run-log framing, the
// record→replay byte-identical acceptance contract on a faulted fleet,
// tamper detection, recorder passivity, fuzzer determinism and the
// committed regression logs under tests/regressions/.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "harness/fleet.hpp"
#include "harness/scenario_file.hpp"
#include "replay/fuzz.hpp"
#include "replay/recorder.hpp"
#include "replay/replay.hpp"
#include "replay/run_log.hpp"
#include "util/check.hpp"
#include "util/statecodec.hpp"

namespace stayaway::replay {
namespace {

core::PeriodRecord sample_record() {
  core::PeriodRecord rec;
  rec.time = 17.0;
  rec.mode = monitor::ExecutionMode::CoLocated;
  rec.state = {0.1234567890123456, -3.75};
  rec.representative = 4;
  rec.new_representative = true;
  rec.violation_observed = false;
  rec.violation_predicted = true;
  rec.model_ready = true;
  rec.action = core::ThrottleAction::Pause;
  rec.batch_paused_after = true;
  rec.stress = 0.0625;
  rec.beta = 0.015;
  rec.degradation = core::DegradationState::Degraded;
  rec.quarantined_dims = 2;
  rec.max_staleness = 5;
  rec.qos_visible = false;
  rec.actuation_retries = 1;
  rec.actuation_pending = true;
  return rec;
}

constexpr const char* kFleetScenario = R"(sensitive = vlc-stream
batch = cpubomb
policy = stay-away
duration_s = 40
batch_start_s = 5
workers = 2
[host "web-a"]
batch = twitter-analysis
fault_seed = 9
fault = sensor-dropout start=10 end=30 p=0.4 dim=-1
[host "web-b"]
seed = 7
fault_seed = 11
fault = resume-fail start=20 p=0.6
)";

harness::FleetScenario parse_doc(const std::string& text) {
  std::istringstream in(text);
  return harness::parse_fleet_scenario(in);
}

TEST(RunLogRecord, LineRoundTripsFieldForField) {
  core::PeriodRecord rec = sample_record();
  std::string line = core::encode_record(rec);
  core::PeriodRecord back = core::decode_record(line);
  EXPECT_EQ(back, rec);
  // Byte equality of lines is the replay comparison primitive; it must
  // be stable under a second trip.
  EXPECT_EQ(core::encode_record(back), line);
}

TEST(RunLogRecord, NonFiniteValuesRoundTripExactly) {
  core::PeriodRecord rec = sample_record();
  rec.state.x = std::numeric_limits<double>::quiet_NaN();
  rec.state.y = std::numeric_limits<double>::infinity();
  rec.stress = -std::numeric_limits<double>::infinity();
  std::string line = core::encode_record(rec);
  core::PeriodRecord back = core::decode_record(line);
  EXPECT_TRUE(std::isnan(back.state.x));
  EXPECT_EQ(back.state.y, std::numeric_limits<double>::infinity());
  EXPECT_EQ(back.stress, -std::numeric_limits<double>::infinity());
  // NaN breaks operator==, so the byte-level identity is the contract.
  EXPECT_EQ(core::encode_record(back), line);
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

TEST(RunLogRecord, RejectsMalformedLines) {
  std::string good = core::encode_record(sample_record());
  EXPECT_THROW(core::decode_record("t=1 bogus=2"), util::StateCodecError);
  EXPECT_THROW(core::decode_record(good + " extra=1"), util::StateCodecError);
  EXPECT_THROW(core::decode_record("t=1"), util::StateCodecError);
  EXPECT_THROW(core::decode_record(""), util::StateCodecError);
  // Out-of-range enums must not alias a valid state.
  std::string bad_mode = good;
  std::size_t pos = bad_mode.find("mode=");
  bad_mode[pos + 5] = '9';
  EXPECT_THROW(core::decode_record(bad_mode), util::StateCodecError);

  // Both optional tail blocks present, so their framing is exercised too.
  core::PeriodRecord tailed = sample_record();
  tailed.samples_ingested = 4;
  tailed.migrations_in = 1;
  const std::string full = core::encode_record(tailed);
  ASSERT_EQ(core::encode_record(core::decode_record(full)), full);
  const std::size_t x = full.find(" x=");
  const std::size_t y = full.find(" y=");
  const std::size_t rep = full.find(" rep=");
  const std::string swapped_xy = full.substr(0, x) +
                                 full.substr(y, rep - y) +
                                 full.substr(x, y - x) + full.substr(rep);
  for (const std::string& bad : {
           "t=abc" + full.substr(full.find(' ')),   // malformed number
           tamper_field(full, "x", "abc"),          // malformed number
           tamper_field(full, "stress", "1.0.0"),   // malformed number
           tamper_field(full, "beta", ""),          // empty number
           tamper_field(full, "rep", "-1"),         // signed count
           tamper_field(full, "vobs", "2"),         // non-0/1 flag
           "bogus=1 " + full,                       // unknown key
           tamper_field(full, "ovf", "0 bogus=1"),  // unknown key in a block
           swapped_xy,                              // reordered field
           full.substr(0, full.find(" stress=")),   // truncated line
           full.substr(0, full.find(" migin=")),    // truncated block
           full + " migout=1 migin=1",              // repeated block
           tamper_field(full, "act", "3"),          // out-of-range act
           tamper_field(full, "deg", "3"),          // out-of-range deg
       }) {
    EXPECT_THROW(core::decode_record(bad), util::StateCodecError) << bad;
  }
}

TEST(RunLogDocument, RoundTripsThroughParse) {
  RunLog log;
  log.detector = "beta-out-of-band";
  log.scenario_text = "sensitive = vlc-stream\nbatch = cpubomb\n";
  log.hosts.push_back(
      {"web-a", {core::encode_record(sample_record())}});
  log.hosts.push_back({"web-b", {}});

  std::string text = serialize_run_log(log);
  std::istringstream in(text);
  RunLog back = parse_run_log(in);
  EXPECT_EQ(back.detector, log.detector);
  EXPECT_EQ(back.scenario_text, log.scenario_text);
  ASSERT_EQ(back.hosts.size(), 2u);
  EXPECT_EQ(back.hosts[0].name, "web-a");
  EXPECT_EQ(back.hosts[0].records, log.hosts[0].records);
  EXPECT_EQ(back.hosts[1].name, "web-b");
  EXPECT_TRUE(back.hosts[1].records.empty());
  EXPECT_EQ(serialize_run_log(back), text);
}

TEST(RunLogDocument, RejectsBadFraming) {
  auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return parse_run_log(in);
  };
  EXPECT_THROW(parse("not-a-runlog v1\nscenario 0\nend\n"),
               PreconditionError);
  EXPECT_THROW(parse("stayaway-runlog v2\nscenario 0\nend\n"),
               PreconditionError);
  // Duplicate host streams would make the replay diff ambiguous.
  EXPECT_THROW(parse("stayaway-runlog v1\nscenario 0\n"
                     "records \"a\" 0\nrecords \"a\" 0\nend\n"),
               PreconditionError);
  // Truncated record block.
  EXPECT_THROW(parse("stayaway-runlog v1\nscenario 0\n"
                     "records \"a\" 2\nend\n"),
               PreconditionError);
}

// The acceptance contract: a recorded fleet run (two hosts, fault plans)
// replays byte-identically from nothing but the log.
TEST(Replay, FaultedFleetRunReplaysByteIdentical) {
  harness::FleetScenario canonical = canonical_fleet(parse_doc(kFleetScenario), 0);
  RecordedRun run = record_run(canonical);
  ASSERT_EQ(run.log.hosts.size(), 2u);
  EXPECT_GT(run.log.hosts[0].records.size(), 0u);
  EXPECT_NE(run.log.scenario_text.find("fault ="), std::string::npos);

  ReplayReport report = replay_run_log(run.log);
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_TRUE(report.mismatches.empty());
  EXPECT_EQ(report.periods_checked,
            run.log.hosts[0].records.size() + run.log.hosts[1].records.size());
}

TEST(Replay, HostsOverrideReplicatesAndReplays) {
  harness::FleetScenario doc = parse_doc(
      "sensitive = vlc-stream\nbatch = cpubomb\npolicy = stay-away\n"
      "duration_s = 30\nbatch_start_s = 5\n");
  harness::FleetScenario canonical = canonical_fleet(doc, 3);
  RecordedRun run = record_run(canonical);
  ASSERT_EQ(run.log.hosts.size(), 3u);
  ReplayReport report = replay_run_log(run.log);
  EXPECT_TRUE(report.ok) << report.error;
  // Decorrelated per-host seeds: sibling streams must differ.
  EXPECT_NE(run.log.hosts[0].records, run.log.hosts[1].records);
}

TEST(Replay, DetectsTamperedRecords) {
  harness::FleetScenario canonical = canonical_fleet(parse_doc(kFleetScenario), 0);
  RecordedRun run = record_run(canonical);
  RunLog tampered = run.log;
  std::string& line = tampered.hosts[1].records[7];
  std::size_t pos = line.find("stress=");
  ASSERT_NE(pos, std::string::npos);
  line[pos + 7] = line[pos + 7] == '9' ? '8' : '9';

  ReplayReport report = replay_run_log(tampered);
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.mismatches.empty());
  EXPECT_EQ(report.mismatches[0].host, "web-b");
  EXPECT_EQ(report.mismatches[0].period, 7u);
  EXPECT_NE(report.mismatches[0].recorded, report.mismatches[0].replayed);
}

TEST(Replay, DetectsTruncatedStream) {
  harness::FleetScenario canonical = canonical_fleet(parse_doc(kFleetScenario), 0);
  RecordedRun run = record_run(canonical);
  RunLog truncated = run.log;
  truncated.hosts[0].records.pop_back();
  ReplayReport report = replay_run_log(truncated);
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.mismatches.empty());
  // The replay produced a period the log does not have.
  EXPECT_TRUE(report.mismatches[0].recorded.empty());
}

// Attaching the recorder must not perturb the run: the recorded lines
// are exactly the serialization of the unrecorded run's records.
TEST(Replay, RecorderIsPassive) {
  harness::FleetScenario canonical = canonical_fleet(parse_doc(kFleetScenario), 0);
  RecordedRun recorded = record_run(canonical);
  harness::FleetResult bare = run_fleet(to_fleet_spec(canonical));

  ASSERT_EQ(bare.hosts.size(), recorded.result.hosts.size());
  for (std::size_t h = 0; h < bare.hosts.size(); ++h) {
    EXPECT_EQ(bare.hosts[h].result.stayaway_records,
              recorded.result.hosts[h].result.stayaway_records);
    std::vector<std::string> lines;
    for (const core::PeriodRecord& rec :
         bare.hosts[h].result.stayaway_records) {
      lines.push_back(core::encode_record(rec));
    }
    EXPECT_EQ(recorded.log.hosts[h].records, lines);
  }
}

TEST(Recorder, RejectsUnknownHost) {
  RunRecorder recorder({"a", "b"});
  EXPECT_THROW(recorder.record_period("c", sample_record()),
               PreconditionError);
}

TEST(Fuzz, SameSeedSameFindings) {
  FuzzConfig config;
  config.seed = 10;
  config.runs = 20;
  config.max_periods = 30000;
  FuzzReport first = fuzz_scenarios(config);
  FuzzReport second = fuzz_scenarios(config);
  EXPECT_EQ(first.runs_executed, second.runs_executed);
  EXPECT_EQ(first.periods_executed, second.periods_executed);
  ASSERT_EQ(first.findings.size(), second.findings.size());
  for (std::size_t i = 0; i < first.findings.size(); ++i) {
    EXPECT_EQ(first.findings[i].detector, second.findings[i].detector);
    EXPECT_EQ(first.findings[i].run_index, second.findings[i].run_index);
    EXPECT_EQ(serialize_run_log(first.findings[i].log),
              serialize_run_log(second.findings[i].log));
  }
}

// Pinned: the `ci.sh --fuzz` seed set must keep reproducing findings,
// and every shrunk log must itself replay byte-identically.
TEST(Fuzz, PinnedSeedsReproduceFindings) {
  std::size_t total = 0;
  for (std::uint64_t seed : {8ULL, 10ULL}) {
    FuzzConfig config;
    config.seed = seed;
    config.runs = 20;
    config.max_periods = 30000;
    FuzzReport report = fuzz_scenarios(config);
    for (const FuzzFinding& finding : report.findings) {
      EXPECT_FALSE(finding.detector.empty());
      EXPECT_EQ(finding.log.detector, finding.detector);
      ReplayReport replay = replay_run_log(finding.log);
      EXPECT_TRUE(replay.ok)
          << finding.detector << ": " << replay.error;
      ++total;
    }
  }
  EXPECT_GE(total, 2u);
}

// Every committed regression log must stay byte-replayable; a mismatch
// means the controller changed behaviour on a known-unstable scenario.
TEST(Regressions, CommittedLogsReplayByteIdentical) {
  std::filesystem::path dir(SA_REGRESSION_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir));
  std::size_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".runlog") continue;
    RunLog log = load_run_log(entry.path().string());
    EXPECT_FALSE(log.detector.empty()) << entry.path();
    ReplayReport report = replay_run_log(log);
    EXPECT_TRUE(report.ok) << entry.path() << ": " << report.error;
    EXPECT_TRUE(report.mismatches.empty()) << entry.path();
    ++checked;
  }
  EXPECT_GE(checked, 2u);
}

}  // namespace
}  // namespace stayaway::replay
