// Tests for the scenario-file parser behind the stayaway_sim CLI tool.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "harness/scenario_file.hpp"
#include "monitor/measurement.hpp"
#include "sim/faults.hpp"
#include "util/check.hpp"

namespace stayaway::harness {
namespace {

Scenario parse(const std::string& text) {
  std::istringstream in(text);
  FleetScenario fleet = parse_fleet_scenario(in);
  EXPECT_FALSE(fleet.fleet_syntax);
  return fleet.base;
}

FleetScenario parse_fleet(const std::string& text) {
  std::istringstream in(text);
  return parse_fleet_scenario(in);
}

TEST(ScenarioFile, DefaultsWhenEmpty) {
  Scenario s = parse("");
  EXPECT_EQ(s.spec.sensitive, SensitiveKind::VlcStream);
  EXPECT_EQ(s.spec.policy, PolicyKind::StayAway);
  EXPECT_FALSE(s.compare);
  EXPECT_FALSE(s.spec.workload.has_value());
  EXPECT_FALSE(s.template_in.has_value());
}

TEST(ScenarioFile, ParsesFullScenario) {
  Scenario s = parse(R"(
    # a comment
    sensitive = webservice-mem
    batch     = membomb
    policy    = reactive
    duration_s = 120
    period_s   = 0.5
    batch_start_s = 10
    seed       = 7
    workload   = diurnal
    workload_cycles = 2
    compare    = true
    template_out = out.csv
    series_csv   = series.csv
  )");
  EXPECT_EQ(s.spec.sensitive, SensitiveKind::WebserviceMem);
  EXPECT_EQ(s.spec.batch, BatchKind::MemBomb);
  EXPECT_EQ(s.spec.policy, PolicyKind::Reactive);
  EXPECT_DOUBLE_EQ(s.spec.duration_s, 120.0);
  EXPECT_DOUBLE_EQ(s.spec.period_s, 0.5);
  EXPECT_EQ(s.spec.seed, 7u);
  EXPECT_TRUE(s.spec.workload.has_value());
  EXPECT_NEAR(s.spec.workload->duration(), 120.0, 1.0);
  EXPECT_TRUE(s.compare);
  EXPECT_EQ(*s.template_out, "out.csv");
  EXPECT_EQ(*s.series_csv, "series.csv");
}

TEST(ScenarioFile, StayAwayTuningKeys) {
  Scenario s = parse(R"(
    dedup_epsilon = 0.08
    prediction_samples = 9
    beta_initial = 0.02
    actions_enabled = false
    allow_sensitive_demotion = true
    aggregate_batch = false
    noise_fraction = 0.05
  )");
  EXPECT_DOUBLE_EQ(s.spec.stayaway.dedup_epsilon, 0.08);
  EXPECT_EQ(s.spec.stayaway.prediction_samples, 9u);
  EXPECT_DOUBLE_EQ(s.spec.stayaway.governor.beta_initial, 0.02);
  EXPECT_FALSE(s.spec.stayaway.actions_enabled);
  EXPECT_TRUE(s.spec.stayaway.allow_sensitive_demotion);
  EXPECT_FALSE(s.spec.stayaway.sampler.aggregate_batch);
  EXPECT_DOUBLE_EQ(s.spec.stayaway.sampler.noise_fraction, 0.05);
}

TEST(ScenarioFile, InlineCommentsAndWhitespace) {
  Scenario s = parse("  batch =  cpubomb   # the worst case\n");
  EXPECT_EQ(s.spec.batch, BatchKind::CpuBomb);
}

TEST(ScenarioFile, ErrorsNameTheLine) {
  try {
    parse("sensitive = vlc-stream\nbatch = frobnicator\n");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos);
    EXPECT_NE(what.find("frobnicator"), std::string::npos);
  }
}

TEST(ScenarioFile, RejectsMalformedInput) {
  EXPECT_THROW(parse("just words\n"), PreconditionError);
  EXPECT_THROW(parse("= value\n"), PreconditionError);
  EXPECT_THROW(parse("duration_s =\n"), PreconditionError);
  EXPECT_THROW(parse("duration_s = fast\n"), PreconditionError);
  EXPECT_THROW(parse("duration_s = 10x\n"), PreconditionError);
  EXPECT_THROW(parse("compare = maybe\n"), PreconditionError);
  EXPECT_THROW(parse("workload = sinusoid\n"), PreconditionError);
  EXPECT_THROW(parse("unknown_key = 1\n"), PreconditionError);
  // Count keys take a plain decimal integer: no sign, NaN, fraction or
  // out-of-range exponent form.
  for (const std::string bad : {"-1", "nan", "2.7", "1e30"}) {
    for (const std::string key : {"prediction_samples", "ingest_ring_capacity"}) {
      EXPECT_THROW(parse(key + " = " + bad + "\n"), PreconditionError)
          << key << " = " << bad;
    }
  }
  // Seeds also accept a number like 1e6, but only a finite integral one
  // in [0, 2^64): never a wrapped, truncated or saturated cast.
  for (const std::string bad : {"-1", "nan", "2.5", "1e30"}) {
    for (const std::string key : {"seed", "fault_seed"}) {
      EXPECT_THROW(parse(key + " = " + bad + "\n"), PreconditionError)
          << key << " = " << bad;
    }
  }
  EXPECT_EQ(parse("seed = 1e6\n").spec.seed, 1000000u);
  // Reals must be finite: an infinite duration or rate never ends a run.
  // A fault window stays open-ended by default, so `end=inf` still parses.
  for (const std::string bad : {"duration_s = inf\n", "ingest_rate_hz = inf\n",
                                "resume_grace_s = nan\n"}) {
    EXPECT_THROW(parse(bad), PreconditionError) << bad;
  }
  EXPECT_NO_THROW(parse("fault = qos-blind start=10 end=inf\n"));
}

TEST(ScenarioFile, RejectsDuplicateKeys) {
  EXPECT_THROW(parse("seed = 1\nseed = 2\n"), PreconditionError);
}

TEST(ScenarioFile, EnumLookupsRoundTripAllValues) {
  for (auto kind : {SensitiveKind::VlcStream, SensitiveKind::WebserviceCpu,
                    SensitiveKind::WebserviceMem, SensitiveKind::WebserviceMix,
                    SensitiveKind::VlcTranscode}) {
    EXPECT_EQ(sensitive_kind_from_string(to_string(kind)), kind);
  }
  for (auto kind : {BatchKind::None, BatchKind::CpuBomb, BatchKind::MemBomb,
                    BatchKind::Soplex, BatchKind::TwitterAnalysis,
                    BatchKind::VlcTranscode, BatchKind::Batch1,
                    BatchKind::Batch2}) {
    EXPECT_EQ(batch_kind_from_string(to_string(kind)), kind);
  }
  for (auto kind : {PolicyKind::NoPrevention, PolicyKind::StayAway,
                    PolicyKind::Reactive, PolicyKind::StaticThreshold}) {
    EXPECT_EQ(policy_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(sensitive_kind_from_string("nope"), PreconditionError);
  EXPECT_THROW(batch_kind_from_string("nope"), PreconditionError);
  EXPECT_THROW(policy_kind_from_string("nope"), PreconditionError);
}

TEST(ScenarioFile, ParsesMetricsVmAndFaultKeys) {
  Scenario s = parse(R"(
    metrics = cpu, mem ,io
    vm = extra1:cpubomb:30
    vm = extra2:membomb
    fault_seed = 9
    fault = sensor-dropout start=20 end=60 p=0.2
    fault = qos-blind start=30 end=45
  )");
  ASSERT_EQ(s.spec.stayaway.sampler.metrics.size(), 3u);
  EXPECT_EQ(s.spec.stayaway.sampler.metrics[0], monitor::MetricKind::Cpu);
  EXPECT_EQ(s.spec.stayaway.sampler.metrics[2], monitor::MetricKind::DiskIo);
  ASSERT_EQ(s.spec.extra_batch.size(), 2u);
  EXPECT_EQ(s.spec.extra_batch[0].name, "extra1");
  EXPECT_EQ(s.spec.extra_batch[0].kind, BatchKind::CpuBomb);
  EXPECT_DOUBLE_EQ(s.spec.extra_batch[0].start_s, 30.0);
  EXPECT_EQ(s.spec.extra_batch[1].name, "extra2");
  ASSERT_TRUE(s.spec.faults.has_value());
  EXPECT_EQ(s.spec.faults->seed, 9u);
  ASSERT_EQ(s.spec.faults->faults.size(), 2u);
  EXPECT_EQ(s.spec.faults->faults[0].kind, sim::FaultKind::SensorDropout);
}

TEST(ScenarioFile, FaultSeedDefaultsToExperimentSeed) {
  Scenario s = parse("seed = 17\nfault = qos-blind start=1 end=2\n");
  ASSERT_TRUE(s.spec.faults.has_value());
  EXPECT_EQ(s.spec.faults->seed, 17u);
}

TEST(ScenarioFile, DuplicateVmNameNamesTheLine) {
  try {
    parse("vm = extra:cpubomb\nvm = extra:membomb\n");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("duplicate VM name 'extra'"), std::string::npos)
        << what;
  }
}

TEST(ScenarioFile, UnknownFaultKindNamesTheLine) {
  try {
    parse("seed = 1\nfault = cosmic-ray start=0 end=1\n");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown fault kind"), std::string::npos) << what;
  }
  // A bad fault line carries the scenario's line prefix exactly once.
  try {
    parse("seed = 1\nfault = qos-blind p=1.5\n");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    EXPECT_EQ(std::string(e.what()),
              "scenario line 2: p must be in [0,1]");
  }
}

TEST(ScenarioFile, UnknownMetricKindNamesTheLine) {
  try {
    parse("metrics = cpu,flux\n");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown metric kind: flux"), std::string::npos)
        << what;
  }
}

TEST(ScenarioFile, RejectsMalformedVmAndMetricValues) {
  EXPECT_THROW(parse("vm = lonely-name\n"), PreconditionError);
  EXPECT_THROW(parse("vm = :cpubomb\n"), PreconditionError);
  EXPECT_THROW(parse("vm = extra:\n"), PreconditionError);
  EXPECT_THROW(parse("vm = extra:none\n"), PreconditionError);
  EXPECT_THROW(parse("vm = extra:cpubomb:-5\n"), PreconditionError);
  EXPECT_THROW(parse("vm = extra:frobnicator\n"), PreconditionError);
  EXPECT_THROW(parse("metrics = cpu,,mem\n"), PreconditionError);
  // Repeating a non-list key is still rejected even though fault/vm repeat.
  EXPECT_THROW(parse("fault_seed = 1\nfault_seed = 2\n"), PreconditionError);
}

TEST(ScenarioFile, FaultedScenarioActuallyRuns) {
  Scenario s = parse(R"(
    sensitive = vlc-stream
    batch = cpubomb
    duration_s = 30
    batch_start_s = 5
    vm = extra1:membomb:10
    fault = sensor-dropout start=8 end=20 p=0.5
    fault = qos-blind start=10 end=16
  )");
  ExperimentResult r = run_experiment(s.spec);
  EXPECT_EQ(r.qos.size(), 30u);
  EXPECT_GT(r.readings_quarantined, 0u);
  EXPECT_GT(r.degraded_periods + r.failsafe_periods, 0u);
}

TEST(ScenarioFile, ParsedScenarioActuallyRuns) {
  Scenario s = parse(R"(
    sensitive = vlc-stream
    batch = cpubomb
    duration_s = 30
    batch_start_s = 5
  )");
  ExperimentResult r = run_experiment(s.spec);
  EXPECT_EQ(r.qos.size(), 30u);
}

TEST(FleetScenarioFile, PlainDocumentsParseUnchanged) {
  FleetScenario f = parse_fleet("sensitive = vlc-stream\nseed = 7\n");
  EXPECT_FALSE(f.fleet_syntax);
  EXPECT_TRUE(f.hosts.empty());
  EXPECT_EQ(f.workers, 1u);
  EXPECT_EQ(f.base.spec.seed, 7u);
}

TEST(FleetScenarioFile, HostSectionsOverlayTheBase) {
  FleetScenario f = parse_fleet(R"(
    sensitive = vlc-stream
    batch = twitter-analysis
    duration_s = 30
    workers = 4
    [host "web-a"]
    seed = 5
    [host "web-b"]   # inherits everything, overrides the batch
    batch = cpubomb
  )");
  EXPECT_TRUE(f.fleet_syntax);
  EXPECT_EQ(f.workers, 4u);
  ASSERT_EQ(f.hosts.size(), 2u);
  EXPECT_EQ(f.hosts[0].first, "web-a");
  EXPECT_EQ(f.hosts[0].second.spec.seed, 5u);
  EXPECT_EQ(f.hosts[0].second.spec.batch, BatchKind::TwitterAnalysis);
  EXPECT_EQ(f.hosts[1].first, "web-b");
  EXPECT_EQ(f.hosts[1].second.spec.batch, BatchKind::CpuBomb);
  EXPECT_EQ(f.hosts[1].second.spec.sensitive, SensitiveKind::VlcStream);
  EXPECT_DOUBLE_EQ(f.hosts[1].second.spec.duration_s, 30.0);
}

TEST(FleetScenarioFile, DiurnalAndFaultsFinishPerHost) {
  // The diurnal trace and fault-plan seed must derive from each host's
  // final (possibly overridden) seed, not the base's.
  FleetScenario f = parse_fleet(R"(
    workload = diurnal
    fault = qos-blind start=5 end=10
    seed = 3
    [host "a"]
    seed = 4
  )");
  ASSERT_EQ(f.hosts.size(), 1u);
  ASSERT_TRUE(f.base.spec.faults.has_value());
  ASSERT_TRUE(f.hosts[0].second.spec.faults.has_value());
  EXPECT_EQ(f.base.spec.faults->seed, 3u);
  EXPECT_EQ(f.hosts[0].second.spec.faults->seed, 4u);
  EXPECT_TRUE(f.hosts[0].second.spec.workload.has_value());
}

TEST(FleetScenarioFile, RejectsMalformedFleetSyntax) {
  EXPECT_THROW(parse_fleet("[host \"a\"\n"), PreconditionError);
  EXPECT_THROW(parse_fleet("[node \"a\"]\n"), PreconditionError);
  EXPECT_THROW(parse_fleet("[host a]\n"), PreconditionError);
  EXPECT_THROW(parse_fleet("[host \"\"]\n"), PreconditionError);
  EXPECT_THROW(parse_fleet("[host \"a\"]\n[host \"a\"]\n"),
               PreconditionError);
  EXPECT_THROW(parse_fleet("[host \"a\"]\nworkers = 2\n"),
               PreconditionError);
  EXPECT_THROW(parse_fleet("workers = 0\n"), PreconditionError);
  EXPECT_THROW(parse_fleet("workers = 2\nworkers = 2\n"), PreconditionError);
  for (const std::string bad : {"-1", "nan", "2.7", "1e30"}) {
    EXPECT_THROW(parse_fleet("workers = " + bad + "\n"), PreconditionError)
        << "workers = " << bad;
    for (const std::string key : {"admit_patience", "migration_cooldown"}) {
      EXPECT_THROW(parse_fleet("[host \"a\"]\n[cluster]\n" + key + " = " +
                               bad + "\n"),
                   PreconditionError)
          << key << " = " << bad;
    }
  }
  // Per-section duplicate keys are still duplicates.
  EXPECT_THROW(parse_fleet("[host \"a\"]\nseed = 1\nseed = 2\n"),
               PreconditionError);
}

TEST(ScenarioFile, QuotedValuesAndEscapes) {
  Scenario s = parse(
      "series_csv = \"runs/a b.csv\"\n"
      "template_out = \"tab\\tnl\\nq\\\"bs\\\\.csv\"\n");
  EXPECT_EQ(*s.series_csv, "runs/a b.csv");
  EXPECT_EQ(*s.template_out, "tab\tnl\nq\"bs\\.csv");
}

TEST(ScenarioFile, HashInsideQuotesIsNotAComment) {
  Scenario s = parse("series_csv = \"run#3.csv\"  # real comment\n");
  EXPECT_EQ(*s.series_csv, "run#3.csv");
}

TEST(ScenarioFile, QuotingErrorsNameTheLine) {
  for (const char* bad :
       {"seed = 1\nseries_csv = \"open\n",
        "seed = 1\nseries_csv = \"a\" trailing\n",
        "seed = 1\nseries_csv = \"bad\\x\"\n",
        "seed = 1\nseries_csv = \"dangling\\\n"}) {
    try {
      parse(bad);
      FAIL() << "should have thrown: " << bad;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioFile, SeedsParseAsFullUint64) {
  // Doubles cannot hold this value exactly; a parse through strtod
  // would silently round it.
  Scenario s = parse("seed = 18446744073709551615\n"
                     "fault_seed = 9007199254740993\n"
                     "fault = qos-blind start=1 end=2\n");
  EXPECT_EQ(s.spec.seed, 18446744073709551615ULL);
  EXPECT_EQ(s.spec.faults->seed, 9007199254740993ULL);
}

TEST(ScenarioFile, GovernorKeysParse) {
  Scenario s = parse(R"(
    beta_increment = 0.01
    beta_max = 0.5
    resume_grace_s = 7
    starvation_patience_s = 33
    random_resume_probability = 0.25
  )");
  EXPECT_DOUBLE_EQ(s.spec.stayaway.governor.beta_increment, 0.01);
  EXPECT_DOUBLE_EQ(s.spec.stayaway.governor.beta_max, 0.5);
  EXPECT_DOUBLE_EQ(s.spec.stayaway.governor.resume_grace_s, 7.0);
  EXPECT_DOUBLE_EQ(s.spec.stayaway.governor.starvation_patience_s, 33.0);
  EXPECT_DOUBLE_EQ(s.spec.stayaway.governor.random_resume_probability, 0.25);
}

TEST(ScenarioFile, SerializeParseSerializeIsAFixedPoint) {
  FleetScenario doc = parse_fleet(R"(
    sensitive = webservice-mix
    batch = soplex
    policy = stay-away
    duration_s = 45
    seed = 18446744073709551615
    workload = diurnal
    workload_cycles = 2.5
    beta_increment = 0.0125
    metrics = cpu,mem
    vm = extra one:membomb:12.5
    fault_seed = 7
    fault = sensor-dropout start=3 end=9 p=0.25 dim=1
    fault = resume-fail start=12 p=0.5
  )");
  std::string once = serialize_fleet_scenario(doc);
  FleetScenario back = parse_fleet(once);
  std::string twice = serialize_fleet_scenario(back);
  EXPECT_EQ(once, twice);
  EXPECT_EQ(back.base.spec.seed, doc.base.spec.seed);
  ASSERT_TRUE(back.base.spec.faults.has_value());
  EXPECT_EQ(back.base.spec.faults->faults.size(), 2u);
  ASSERT_EQ(back.base.spec.extra_batch.size(), 1u);
  EXPECT_EQ(back.base.spec.extra_batch[0].name, "extra one");
}

TEST(FleetScenarioFile, FleetSerializeParseSerializeIsAFixedPoint) {
  FleetScenario doc = parse_fleet(R"(
    sensitive = vlc-stream
    batch = twitter-analysis
    duration_s = 30
    workers = 3
    [host "web a"]
    seed = 5
    fault = qos-blind start=4 end=8
    [host "web-b"]
    batch = cpubomb
  )");
  std::string once = serialize_fleet_scenario(doc);
  FleetScenario back = parse_fleet(once);
  std::string twice = serialize_fleet_scenario(back);
  EXPECT_EQ(once, twice);
  EXPECT_EQ(back.workers, 3u);
  ASSERT_EQ(back.hosts.size(), 2u);
  // Overlay ordering survives: host sections come back in declaration
  // order with their overridden values materialized.
  EXPECT_EQ(back.hosts[0].first, "web a");
  EXPECT_EQ(back.hosts[0].second.spec.seed, 5u);
  EXPECT_TRUE(back.hosts[0].second.spec.faults.has_value());
  EXPECT_EQ(back.hosts[1].first, "web-b");
  EXPECT_EQ(back.hosts[1].second.spec.batch, BatchKind::CpuBomb);
  EXPECT_EQ(back.hosts[1].second.spec.sensitive, SensitiveKind::VlcStream);
}

// A fleet document that sets every body key (including the conditional
// ingest block, compare, fault_seed and the quoted paths) and every
// [cluster] key to a non-default value.
constexpr const char* kEveryKeyDocument = R"doc(workers = 3
sensitive = webservice-mix
batch = soplex
policy = reactive
duration_s = 45
period_s = 0.5
tick_s = 0.05
batch_start_s = 7.5
sensitive_start_s = 1.25
seed = 18446744073709551615
workload = diurnal
workload_cycles = 2.5
dedup_epsilon = 0.0625
prediction_samples = 7
beta_initial = 0.03
beta_increment = 0.0125
beta_max = 0.5
resume_grace_s = 6
starvation_patience_s = 33
random_resume_probability = 0.125
actions_enabled = false
allow_sensitive_demotion = true
aggregate_batch = false
noise_fraction = 0.04
metrics = mem, cpu
ingest_source = ring
ingest_rate_hz = 8
ingest_ring_capacity = 256
ingest_lookahead_s = 0.5
ingest_burst_rate_hz = 32
ingest_burst_start_s = 10
ingest_burst_end_s = 20
vm = "extra #1:membomb:12.5"
vm = extra2:cpubomb
fault_seed = 9007199254740993
fault = sensor-dropout start=3 end=9 p=0.25 dim=1
fault = resume-fail start=12 p=0.5
compare = yes
template_in = "in dir/t#1.csv"
template_out = "out\tq\"s.csv"
series_csv = " padded.csv"
[cluster]
migrate = false
admit_margin = 0.375
admit_patience = 4
migration_cooldown = 9
admit_footprint = 0.625
mobile = crunch:cpubomb:web-a:20.5
admit = late:twitter-analysis:90.25
[host "web-a"]
seed = 5
[host "web-b"]
batch = cpubomb
vm = extra3:soplex:4
fault = qos-blind start=30 end=45
)doc";

// serialize_fleet_scenario(kEveryKeyDocument), byte for byte: the
// canonical text every run-log embeds. A change here breaks the replay
// of every committed log.
constexpr const char* kEveryKeyGolden = R"gold(workers = 3
[cluster]
migrate = false
admit_margin = 0.375
admit_patience = 4
migration_cooldown = 9
admit_footprint = 0.625
mobile = crunch:cpubomb:web-a:20.5
admit = late:twitter-analysis:90.25
[host "web-a"]
sensitive = webservice-mix
batch = soplex
policy = reactive
duration_s = 45
period_s = 0.5
tick_s = 0.05
batch_start_s = 7.5
sensitive_start_s = 1.25
seed = 5
workload = diurnal
workload_cycles = 2.5
dedup_epsilon = 0.0625
prediction_samples = 7
beta_initial = 0.03
beta_increment = 0.0125
beta_max = 0.5
resume_grace_s = 6
starvation_patience_s = 33
random_resume_probability = 0.125
actions_enabled = false
allow_sensitive_demotion = true
aggregate_batch = false
noise_fraction = 0.04
metrics = mem,cpu
ingest_source = ring
ingest_rate_hz = 8
ingest_ring_capacity = 256
ingest_lookahead_s = 0.5
ingest_burst_rate_hz = 32
ingest_burst_start_s = 10
ingest_burst_end_s = 20
vm = "extra #1:membomb:12.5"
vm = extra2:cpubomb:15
fault_seed = 9007199254740993
fault = sensor-dropout start=3 end=9 p=0.25 mag=8 dim=1
fault = resume-fail start=12 p=0.5 mag=8 dim=-1
compare = true
template_in = "in dir/t#1.csv"
template_out = "out\tq\"s.csv"
series_csv = " padded.csv"
[host "web-b"]
sensitive = webservice-mix
batch = cpubomb
policy = reactive
duration_s = 45
period_s = 0.5
tick_s = 0.05
batch_start_s = 7.5
sensitive_start_s = 1.25
seed = 18446744073709551615
workload = diurnal
workload_cycles = 2.5
dedup_epsilon = 0.0625
prediction_samples = 7
beta_initial = 0.03
beta_increment = 0.0125
beta_max = 0.5
resume_grace_s = 6
starvation_patience_s = 33
random_resume_probability = 0.125
actions_enabled = false
allow_sensitive_demotion = true
aggregate_batch = false
noise_fraction = 0.04
metrics = mem,cpu
ingest_source = ring
ingest_rate_hz = 8
ingest_ring_capacity = 256
ingest_lookahead_s = 0.5
ingest_burst_rate_hz = 32
ingest_burst_start_s = 10
ingest_burst_end_s = 20
vm = "extra #1:membomb:12.5"
vm = extra2:cpubomb:15
vm = extra3:soplex:4
fault_seed = 9007199254740993
fault = sensor-dropout start=3 end=9 p=0.25 mag=8 dim=1
fault = resume-fail start=12 p=0.5 mag=8 dim=-1
fault = qos-blind start=30 end=45 p=1 mag=8 dim=-1
compare = true
template_in = "in dir/t#1.csv"
template_out = "out\tq\"s.csv"
series_csv = " padded.csv"
)gold";

TEST(FleetScenarioFile, CanonicalTextMatchesGolden) {
  EXPECT_EQ(serialize_fleet_scenario(parse_fleet(kEveryKeyDocument)),
            kEveryKeyGolden);
  EXPECT_EQ(serialize_fleet_scenario(parse_fleet(kEveryKeyGolden)),
            kEveryKeyGolden);
}

TEST(FleetScenarioFile, EveryNonRepeatableKeyRejectsADuplicate) {
  // Repeat each scalar line of the golden text in place; only the
  // list-building keys may appear more than once in a section.
  std::vector<std::string> lines;
  std::istringstream in(kEveryKeyGolden);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::size_t checked = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string key = lines[i].substr(0, lines[i].find(" = "));
    if (lines[i].front() == '[' || key == "vm" || key == "fault" ||
        key == "mobile" || key == "admit") {
      continue;
    }
    std::string doc;
    for (std::size_t j = 0; j < lines.size(); ++j) {
      doc += lines[j] + "\n";
      if (j == i) doc += lines[j] + "\n";
    }
    EXPECT_THROW(parse_fleet(doc), PreconditionError) << lines[i];
    ++checked;
  }
  // workers, five [cluster] knobs, and 36 scalar keys in each host.
  EXPECT_EQ(checked, 1u + 5u + 2u * 36u);
}

TEST(FleetScenarioFile, SerializedDocumentRunsIdentically) {
  FleetScenario doc = parse_fleet(R"(
    sensitive = vlc-stream
    batch = cpubomb
    duration_s = 25
    batch_start_s = 5
    workload = diurnal
    fault = sensor-dropout start=5 end=15 p=0.5
  )");
  std::istringstream round(serialize_fleet_scenario(doc));
  FleetScenario back = parse_fleet_scenario(round);
  ExperimentResult a = run_experiment(doc.base.spec);
  ExperimentResult b = run_experiment(back.base.spec);
  EXPECT_EQ(a.stayaway_records, b.stayaway_records);
  EXPECT_EQ(a.qos, b.qos);
}

}  // namespace
}  // namespace stayaway::harness
