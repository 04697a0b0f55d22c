// Streaming ingestion (DESIGN.md §15): the RingSampleSource determinism
// contract, its pinned stream and checkpoint round trip, quarantine
// admission of late/out-of-order/duplicate samples, the ingest-aware
// run-log and scenario formats, the LandmarkIncremental embed regime, and
// the fuzzer's ingest-overflow detector.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/config.hpp"
#include "core/embedder.hpp"
#include "core/period.hpp"
#include "harness/experiment.hpp"
#include "harness/scenario_file.hpp"
#include "monitor/health.hpp"
#include "monitor/representative.hpp"
#include "monitor/sample_source.hpp"
#include "replay/fuzz.hpp"
#include "replay/replay.hpp"
#include "replay/run_log.hpp"
#include "sim/faults.hpp"
#include "trace/diurnal.hpp"
#include "util/rng.hpp"
#include "util/statecodec.hpp"

namespace stayaway {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// --- Quarantine admission gate. -----------------------------------------

TEST(SampleQuarantineAdmit, ClassifiesLateAndDuplicate) {
  monitor::SampleQuarantine q(std::vector<double>{10.0, 10.0});
  using Admit = monitor::SampleQuarantine::Admit;
  EXPECT_EQ(q.admit(1.0, 0), Admit::Ok);
  EXPECT_EQ(q.admit(2.0, 1), Admit::Ok);
  // Older timestamp than the newest seen: admitted but counted late.
  EXPECT_EQ(q.admit(1.5, 2), Admit::Late);
  // A replayed sequence is a duplicate regardless of its timestamp.
  EXPECT_EQ(q.admit(1.5, 2), Admit::Duplicate);
  EXPECT_EQ(q.admit(3.0, 3), Admit::Ok);
  EXPECT_EQ(q.total_late(), 1u);
  EXPECT_EQ(q.total_duplicates(), 1u);
}

TEST(SampleQuarantineAdmit, MonotoneFeedIsAllOk) {
  monitor::SampleQuarantine q(std::vector<double>{10.0});
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(q.admit(static_cast<double>(i), i),
              monitor::SampleQuarantine::Admit::Ok);
  }
  EXPECT_EQ(q.total_late(), 0u);
  EXPECT_EQ(q.total_duplicates(), 0u);
}

/// The admission verdicts of the historical implementation, which kept
/// every delivered sequence in one set.
struct AdmitModel {
  using Admit = monitor::SampleQuarantine::Admit;
  Admit admit(double time, std::uint64_t sequence) {
    if (!seen.insert(sequence).second) return Admit::Duplicate;
    if (any && time < newest) return Admit::Late;
    newest = time;
    any = true;
    return Admit::Ok;
  }
  std::set<std::uint64_t> seen;
  double newest = 0.0;
  bool any = false;
};

TEST(SampleQuarantineAdmit, WatermarkMatchesTheSetModel) {
  // Shuffled windows, duplicated deliveries and gaps that never fill:
  // the watermark + sparse-set gate must give the set model's verdict
  // on every sample, also across a snapshot/restore every 97 samples.
  Rng rng(2024);
  for (int stream = 0; stream < 40; ++stream) {
    SCOPED_TRACE(stream);
    std::vector<std::uint64_t> sequences;
    for (std::uint64_t s = 0; s < 600; ++s) {
      if (rng.chance(0.05)) continue;  // a gap
      sequences.push_back(s);
      if (rng.chance(0.1)) sequences.push_back(s);  // redelivery
    }
    // Shuffle within windows whose width varies per stream.
    const std::size_t window = 1 + rng.index(12);
    for (std::size_t at = 0; at < sequences.size(); at += window) {
      const std::size_t end = std::min(at + window, sequences.size());
      for (std::size_t i = end - 1; i > at; --i) {
        std::swap(sequences[i], sequences[at + rng.index(i - at + 1)]);
      }
    }
    // Far-late redeliveries of already seen sequences.
    for (int k = 0; k < 20; ++k) {
      const std::size_t at = rng.index(sequences.size());
      sequences.insert(sequences.begin() + static_cast<long>(at),
                       sequences[rng.index(at + 1)]);
    }
    auto q = std::make_unique<monitor::SampleQuarantine>(
        std::vector<double>{10.0});
    AdmitModel model;
    for (std::size_t i = 0; i < sequences.size(); ++i) {
      const double time = static_cast<double>(sequences[i]) + rng.uniform();
      ASSERT_EQ(q->admit(time, sequences[i]), model.admit(time, sequences[i]))
          << "sample " << i << " sequence " << sequences[i];
      if (i % 97 == 96) {
        std::string body;
        util::StateIO writer = util::StateIO::writer(body);
        q->persist(writer);
        q = std::make_unique<monitor::SampleQuarantine>(
            std::vector<double>{10.0});
        util::StateIO reader = util::StateIO::reader(body);
        q->persist(reader);
        reader.finish();
      }
    }
  }
}

TEST(SampleQuarantineAdmit, InOrderFeedSnapshotStaysConstant) {
  // An in-order feed only advances the watermark: the snapshot's size
  // does not grow with the number of samples admitted.
  auto snapshot_after = [](std::uint64_t n) {
    monitor::SampleQuarantine q(std::vector<double>{10.0});
    for (std::uint64_t i = 0; i < n; ++i) q.admit(static_cast<double>(i), i);
    std::string body;
    util::StateIO writer = util::StateIO::writer(body);
    q.persist(writer);
    return body;
  };
  const std::string small = snapshot_after(10);
  const std::string large = snapshot_after(100000);
  EXPECT_NE(large.find("\nseen_below = 100000\nseen_above = 0\n"),
            std::string::npos);
  EXPECT_LE(large.size(), small.size() + 8);
}

// --- RingSampleSource. --------------------------------------------------

monitor::MetricLayout tiny_layout() {
  monitor::MetricLayout layout;
  layout.entities = {"vlc", "batch"};
  layout.metrics = {monitor::MetricKind::Cpu, monitor::MetricKind::Memory};
  return layout;
}

/// A ring over tiny_layout() with 1% measurement noise; `seed` seeds the
/// value noise and demand mix.
std::unique_ptr<monitor::RingSampleSource> make_ring(
    const monitor::IngestConfig& options, std::uint64_t seed = 17) {
  trace::DiurnalSpec spec;
  spec.seed = 7;
  return std::make_unique<monitor::RingSampleSource>(
      tiny_layout(), std::vector<double>{4.0, 2048.0, 4.0, 2048.0},
      trace::generate_diurnal(spec), options, 0.01, seed);
}

std::vector<monitor::TimedSample> drain_all(monitor::SampleSource& source,
                                            const std::vector<double>& times,
                                            std::size_t* overflow = nullptr) {
  std::vector<monitor::TimedSample> out;
  std::vector<monitor::TimedSample> batch;
  for (double t : times) {
    monitor::DrainReport report = source.drain(t, batch);
    EXPECT_EQ(report.delivered, batch.size());
    out.insert(out.end(), batch.begin(), batch.end());
    if (overflow != nullptr) *overflow += report.overflow;
  }
  return out;
}

TEST(RingSampleSource, StreamIsDeterministic) {
  monitor::IngestConfig options;
  options.rate_hz = 16.0;
  options.ring_capacity = 64;
  const std::vector<double> times = {1.0, 2.0, 2.5, 4.0, 10.0};

  auto a = make_ring(options, 123);
  auto b = make_ring(options, 123);
  std::vector<monitor::TimedSample> sa = drain_all(*a, times);
  std::vector<monitor::TimedSample> sb = drain_all(*b, times);

  ASSERT_EQ(sa.size(), sb.size());
  ASSERT_GT(sa.size(), 100u);  // ~16 Hz over 10 s
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].sequence, sb[i].sequence);
    EXPECT_EQ(sa[i].measurement.time, sb[i].measurement.time);
    EXPECT_EQ(sa[i].measurement.values, sb[i].measurement.values);
  }
}

TEST(RingSampleSource, DeliversOnlySamplesDueByNow) {
  monitor::IngestConfig options;
  options.rate_hz = 8.0;
  options.ring_capacity = 64;
  auto source = make_ring(options);
  std::vector<monitor::TimedSample> out;
  source->drain(1.0, out);
  for (const auto& s : out) EXPECT_LE(s.measurement.time, 1.0);
  std::size_t first = out.size();
  EXPECT_NEAR(static_cast<double>(first), 8.0, 2.0);
  // A drain replaces the buffer's contents: the second one holds only
  // the samples that fell due after the first.
  source->drain(3.0, out);
  for (const auto& s : out) {
    EXPECT_GT(s.measurement.time, 1.0);
    EXPECT_LE(s.measurement.time, 3.0);
  }
  EXPECT_GT(out.size(), 0u);
  EXPECT_EQ(source->samples_taken(), first + out.size());
  EXPECT_TRUE(source->streaming());
  // Values are physical: finite, non-negative, within a generous
  // multiple of the configured full scale.
  for (const auto& s : out) {
    ASSERT_EQ(s.measurement.values.size(), 4u);
    for (double v : s.measurement.values) {
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_GE(v, 0.0);
    }
  }
}

TEST(RingSampleSource, OverflowIsCountedAndDeterministic) {
  monitor::IngestConfig options;
  options.rate_hz = 64.0;
  options.ring_capacity = 4;
  const std::vector<double> times = {2.0, 4.0};

  std::size_t overflow_a = 0, overflow_b = 0;
  auto a = make_ring(options);
  auto b = make_ring(options);
  std::vector<monitor::TimedSample> sa = drain_all(*a, times, &overflow_a);
  std::vector<monitor::TimedSample> sb = drain_all(*b, times, &overflow_b);

  // 64 Hz into a 4-slot ring drained twice: most samples must drop, and
  // identically so on both sources.
  EXPECT_GT(overflow_a, 50u);
  EXPECT_EQ(overflow_a, overflow_b);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].sequence, sb[i].sequence);
  }
  EXPECT_EQ(a->overflow_total(), overflow_a);

  // Capacity rounds up to a power of two: a 5-slot ring holds 8 and
  // drops exactly what an 8-slot ring drops.
  options.ring_capacity = 5;
  auto five = make_ring(options);
  options.ring_capacity = 8;
  auto eight = make_ring(options);
  std::size_t overflow_five = 0, overflow_eight = 0;
  std::vector<monitor::TimedSample> s5 =
      drain_all(*five, times, &overflow_five);
  std::vector<monitor::TimedSample> s8 =
      drain_all(*eight, times, &overflow_eight);
  EXPECT_GT(overflow_eight, 0u);
  EXPECT_LT(overflow_eight, overflow_a);
  EXPECT_EQ(overflow_five, overflow_eight);
  ASSERT_EQ(s5.size(), s8.size());
  for (std::size_t i = 0; i < s5.size(); ++i) {
    EXPECT_EQ(s5[i].sequence, s8[i].sequence);
  }
  // Dropped emissions never enter the stream: what arrives is in
  // emission order with the drops as gaps.
  for (std::size_t i = 1; i < s5.size(); ++i) {
    EXPECT_GT(s5[i].sequence, s5[i - 1].sequence);
  }
  EXPECT_EQ(five->overflow_total(), overflow_five);
}

TEST(RingSampleSource, BurstWindowRaisesTheRate) {
  monitor::IngestConfig base;
  base.rate_hz = 4.0;
  base.ring_capacity = 1024;
  monitor::IngestConfig burst = base;
  burst.burst_rate_hz = 64.0;
  burst.burst_start_s = 2.0;
  burst.burst_end_s = 4.0;

  auto plain = make_ring(base);
  auto bursty = make_ring(burst);
  std::vector<monitor::TimedSample> sp = drain_all(*plain, {8.0});
  std::vector<monitor::TimedSample> sb = drain_all(*bursty, {8.0});
  // ~2 s at 64 Hz replaces ~2 s at 4 Hz: about 120 extra samples.
  EXPECT_GT(sb.size(), sp.size() + 80);
}

// A rate whose interval vanishes next to the clock would spin drain()
// forever (next_time += 1/rate stops advancing): non-finite rates are
// rejected up front, and a finite one too high to resolve throws.
TEST(RingSampleSource, RejectsRatesThatCannotAdvanceTheClock) {
  for (double bad : {std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    monitor::IngestConfig options;
    options.rate_hz = bad;
    EXPECT_THROW(make_ring(options), PreconditionError) << bad;
    options.rate_hz = 4.0;
    options.burst_rate_hz = bad;
    options.burst_start_s = 1.0;
    options.burst_end_s = 2.0;
    EXPECT_THROW(make_ring(options), PreconditionError) << bad;
  }
  monitor::IngestConfig options;
  options.rate_hz = 1e300;
  auto ring = make_ring(options);
  std::vector<monitor::TimedSample> out;
  EXPECT_THROW(ring->drain(1.0, out), PreconditionError);
}

TEST(RingSampleSource, IngestFaultsProduceLateAndDuplicateSamples) {
  monitor::IngestConfig options;
  options.rate_hz = 32.0;
  options.ring_capacity = 2048;
  auto source = make_ring(options, 9);

  sim::FaultPlan plan;
  plan.seed = 5;
  plan.faults.push_back({sim::FaultKind::IngestDelay, 0.0, kInf, 0.8, 1.0, -1});
  plan.faults.push_back(
      {sim::FaultKind::IngestDuplicate, 0.0, kInf, 0.4, 1.0, -1});
  sim::FaultInjector injector(plan);
  source->set_fault_injector(&injector);

  std::vector<monitor::TimedSample> out =
      drain_all(*source, {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0});
  ASSERT_GT(out.size(), 100u);

  monitor::SampleQuarantine q(std::vector<double>(4, 1e9));
  std::size_t late = 0, dup = 0;
  for (const auto& s : out) {
    switch (q.admit(s.measurement.time, s.sequence)) {
      case monitor::SampleQuarantine::Admit::Late:
        ++late;
        break;
      case monitor::SampleQuarantine::Admit::Duplicate:
        ++dup;
        break;
      case monitor::SampleQuarantine::Admit::Ok:
        break;
    }
  }
  EXPECT_GT(late, 0u);
  EXPECT_GT(dup, 0u);
}

TEST(RingSampleSource, SaveLoadResumesTheStreamExactly) {
  monitor::IngestConfig options;
  options.rate_hz = 24.0;
  options.ring_capacity = 16;
  options.lookahead_s = 0.5;
  sim::FaultPlan plan;
  plan.seed = 6;
  plan.faults.push_back({sim::FaultKind::IngestDelay, 0.0, kInf, 0.6, 1.0, -1});
  plan.faults.push_back(
      {sim::FaultKind::IngestDuplicate, 0.0, kInf, 0.3, 1.0, -1});
  sim::FaultInjector injector_a(plan);
  sim::FaultInjector injector_b(plan);

  auto original = make_ring(options, 4);
  original->set_fault_injector(&injector_a);
  drain_all(*original, {1.0, 2.0, 3.0});
  std::string saved;
  util::StateIO writer = util::StateIO::writer(saved);
  original->persist(writer);
  // The lookahead leaves samples queued past the drain clock.
  EXPECT_NE(saved.find("ring_pending_sequence = 1 "),
            std::string::npos);

  auto restored = make_ring(options, 4);
  restored->set_fault_injector(&injector_b);
  util::StateIO reader = util::StateIO::reader(saved);
  restored->persist(reader);
  reader.finish();
  std::string resaved;
  util::StateIO rewriter = util::StateIO::writer(resaved);
  restored->persist(rewriter);
  EXPECT_EQ(resaved, saved);

  const std::vector<double> tail = {4.0, 4.2, 6.0, 9.0};
  std::size_t overflow_a = 0, overflow_b = 0;
  std::vector<monitor::TimedSample> sa =
      drain_all(*original, tail, &overflow_a);
  std::vector<monitor::TimedSample> sb =
      drain_all(*restored, tail, &overflow_b);
  EXPECT_GT(overflow_a, 0u);
  EXPECT_EQ(overflow_a, overflow_b);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].sequence, sb[i].sequence);
    EXPECT_EQ(sa[i].measurement.time, sb[i].measurement.time);
    EXPECT_EQ(sa[i].measurement.values, sb[i].measurement.values);
  }
  EXPECT_EQ(original->samples_taken(), restored->samples_taken());
}

// --- The ring-fed pipeline end to end. ----------------------------------

harness::ExperimentSpec ring_spec() {
  harness::ExperimentSpec spec;
  spec.duration_s = 40.0;
  spec.stayaway.embed_method = core::EmbedMethod::LandmarkIncremental;
  spec.stayaway.ingest.source = monitor::IngestSource::Ring;
  spec.stayaway.ingest.rate_hz = 16.0;
  spec.stayaway.ingest.ring_capacity = 64;
  return spec;
}

TEST(RingPipeline, RecordsCarryIngestTelemetry) {
  harness::ExperimentResult res = harness::run_experiment(ring_spec());
  ASSERT_FALSE(res.stayaway_records.empty());
  std::size_t ingested = 0;
  for (const auto& rec : res.stayaway_records) ingested += rec.samples_ingested;
  // ~16 samples per 1 s period over 40 periods.
  EXPECT_GT(ingested, 400u);
  EXPECT_GT(res.representative_count, 0u);
}

TEST(RingPipeline, SynchronousRecordsCarryNoIngestTelemetry) {
  harness::ExperimentSpec spec;
  spec.duration_s = 30.0;
  harness::ExperimentResult res = harness::run_experiment(spec);
  ASSERT_FALSE(res.stayaway_records.empty());
  for (const auto& rec : res.stayaway_records) {
    EXPECT_FALSE(rec.ingest_any());
  }
}

TEST(RingPipeline, IngestFaultsSurfaceInThePeriodRecords) {
  harness::ExperimentSpec spec = ring_spec();
  sim::FaultPlan plan;
  plan.seed = 11;
  plan.faults.push_back({sim::FaultKind::IngestDelay, 0.0, kInf, 0.8, 1.0, -1});
  plan.faults.push_back(
      {sim::FaultKind::IngestDuplicate, 0.0, kInf, 0.4, 1.0, -1});
  spec.faults = plan;
  harness::ExperimentResult res = harness::run_experiment(spec);
  std::size_t late = 0, dup = 0;
  for (const auto& rec : res.stayaway_records) {
    late += rec.late_samples;
    dup += rec.duplicate_samples;
  }
  EXPECT_GT(late, 0u);
  EXPECT_GT(dup, 0u);
}

TEST(RingPipeline, RunIsDeterministicAcrossRepeats) {
  harness::ExperimentResult a = harness::run_experiment(ring_spec());
  harness::ExperimentResult b = harness::run_experiment(ring_spec());
  ASSERT_EQ(a.stayaway_records.size(), b.stayaway_records.size());
  EXPECT_TRUE(a.stayaway_records == b.stayaway_records);
  EXPECT_EQ(a.qos, b.qos);
}

/// fnv1a64 over the encoded Stay-Away record stream.
std::uint64_t records_digest(const harness::ExperimentResult& res) {
  std::string text;
  for (const core::PeriodRecord& rec : res.stayaway_records) {
    text += core::encode_record(rec);
  }
  return core::fnv1a64(text);
}

// Goldens captured from the threaded producer/consumer ring source that
// inline generation replaced (digests re-derived on the pre-change build
// when encode_record became the run-log line): the stream, every
// overflow drop and every injected ingest anomaly must come out bit for
// bit the same.
TEST(RingPipeline, StreamMatchesPinnedGolden) {
  harness::ExperimentResult res = harness::run_experiment(ring_spec());
  EXPECT_EQ(records_digest(res), 0x73d697452f83cdf4ULL);
}

TEST(RingPipeline, StreamMatchesPinnedGoldenUnderFaultsAndBurst) {
  harness::ExperimentSpec spec = ring_spec();
  spec.stayaway.ingest.burst_rate_hz = 256.0;
  spec.stayaway.ingest.burst_start_s = 10.0;
  spec.stayaway.ingest.burst_end_s = 15.0;
  sim::FaultPlan plan;
  plan.seed = 11;
  plan.faults.push_back({sim::FaultKind::IngestDelay, 0.0, kInf, 0.8, 1.0, -1});
  plan.faults.push_back(
      {sim::FaultKind::IngestDuplicate, 0.0, kInf, 0.4, 1.0, -1});
  spec.faults = plan;
  harness::ExperimentResult res = harness::run_experiment(spec);
  std::size_t late = 0, dup = 0, dropped = 0;
  for (const auto& rec : res.stayaway_records) {
    late += rec.late_samples;
    dup += rec.duplicate_samples;
    dropped += rec.overflow_drops;
  }
  EXPECT_GT(late, 0u);
  EXPECT_GT(dup, 0u);
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(records_digest(res), 0x0d8cfa0a3587cdecULL);
}

// --- Run-log format: the optional trailing ingest block. ----------------

TEST(RunLogIngest, RecordRoundTripsWithIngestFields) {
  core::PeriodRecord rec;
  rec.time = 12.0;
  rec.beta = 0.05;
  rec.stress = 0.01;
  rec.samples_ingested = 17;
  rec.late_samples = 2;
  rec.duplicate_samples = 1;
  rec.overflow_drops = 3;
  std::string line = core::encode_record(rec);
  EXPECT_NE(line.find(" ing="), std::string::npos);
  core::PeriodRecord back = core::decode_record(line);
  EXPECT_TRUE(back == rec);
}

TEST(RunLogIngest, SynchronousRecordLineIsByteIdenticalToHistoricalForm) {
  core::PeriodRecord rec;
  rec.time = 12.0;
  rec.beta = 0.05;
  std::string line = core::encode_record(rec);
  // No ingest block: a pre-streaming parser would still read this line.
  EXPECT_EQ(line.find(" ing="), std::string::npos);
  EXPECT_EQ(line.find(" ovf="), std::string::npos);
  core::PeriodRecord back = core::decode_record(line);
  EXPECT_TRUE(back == rec);
}

TEST(RunLogIngest, RingRunRecordsAndReplaysByteIdentically) {
  harness::Scenario scenario;
  scenario.spec.duration_s = 30.0;
  scenario.spec.stayaway.embed_method = core::EmbedMethod::LandmarkIncremental;
  scenario.spec.stayaway.ingest.source = monitor::IngestSource::Ring;
  scenario.spec.stayaway.ingest.rate_hz = 16.0;
  scenario.spec.stayaway.ingest.ring_capacity = 64;
  sim::FaultPlan plan;
  plan.seed = 3;
  plan.faults.push_back({sim::FaultKind::IngestDelay, 5.0, 25.0, 0.8, 1.0, -1});
  scenario.spec.faults = plan;

  harness::FleetScenario doc;
  doc.base = scenario;
  harness::FleetScenario canonical = replay::canonical_fleet(doc, 1);
  replay::RecordedRun run = replay::record_run(canonical);

  // The recorded lines carry the ingest block.
  ASSERT_EQ(run.log.hosts.size(), 1u);
  bool saw_ingest = false;
  for (const std::string& line : run.log.hosts[0].records) {
    if (line.find(" ing=") != std::string::npos) saw_ingest = true;
  }
  EXPECT_TRUE(saw_ingest);

  // Serialized log round-trips and replays byte-identically.
  std::string text = replay::serialize_run_log(run.log);
  std::istringstream in(text);
  replay::RunLog parsed = replay::parse_run_log(in);
  EXPECT_EQ(replay::serialize_run_log(parsed), text);
  replay::ReplayReport report = replay::replay_run_log(parsed);
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_GT(report.periods_checked, 0u);
}

// --- Scenario files: the canonical ingest keys. -------------------------

TEST(ScenarioIngest, ParsesAndSerializesAsAFixedPoint) {
  std::istringstream in(
      "sensitive = vlc-stream\n"
      "batch = twitter-analysis\n"
      "policy = stay-away\n"
      "duration_s = 40\n"
      "ingest_source = ring\n"
      "ingest_rate_hz = 16\n"
      "ingest_ring_capacity = 64\n"
      "ingest_lookahead_s = 0.5\n"
      "ingest_burst_rate_hz = 128\n"
      "ingest_burst_start_s = 10\n"
      "ingest_burst_end_s = 20\n");
  harness::Scenario scenario = harness::parse_fleet_scenario(in).base;
  const monitor::IngestConfig& ing = scenario.spec.stayaway.ingest;
  EXPECT_EQ(ing.source, monitor::IngestSource::Ring);
  EXPECT_EQ(ing.rate_hz, 16.0);
  EXPECT_EQ(ing.ring_capacity, 64u);
  EXPECT_EQ(ing.lookahead_s, 0.5);
  EXPECT_EQ(ing.burst_rate_hz, 128.0);
  EXPECT_EQ(ing.burst_start_s, 10.0);
  EXPECT_EQ(ing.burst_end_s, 20.0);

  std::string once = harness::serialize_scenario(scenario);
  std::istringstream again(once);
  std::string twice =
      harness::serialize_scenario(harness::parse_fleet_scenario(again).base);
  EXPECT_EQ(once, twice);
}

TEST(ScenarioIngest, DefaultIngestSerializesNoIngestKeys) {
  harness::Scenario scenario;
  std::string text = harness::serialize_scenario(scenario);
  // The historical canonical bytes are pinned by golden run-logs: a
  // default config must not grow new keys.
  EXPECT_EQ(text.find("ingest_"), std::string::npos);
}

// --- LandmarkIncremental embedding. -------------------------------------

std::vector<double> latent_vector(Rng& rng) {
  double a = rng.uniform();
  double b = rng.uniform();
  std::vector<double> v;
  for (std::size_t d = 0; d < 6; ++d) {
    v.push_back(0.4 * a + 0.6 * b + rng.normal(0.0, 0.02));
  }
  return v;
}

TEST(LandmarkIncremental, MatchesSmacofWarmBelowLandmarkCount) {
  Rng rng(31);
  monitor::RepresentativeSet reps_a(0.0), reps_b(0.0);
  core::MapEmbedder warm(core::EmbedMethod::SmacofWarm, 24);
  core::MapEmbedder incr(core::EmbedMethod::LandmarkIncremental, 24);
  for (std::size_t i = 0; i < 20; ++i) {
    std::vector<double> v = latent_vector(rng);
    reps_a.assign(v);
    reps_b.assign(v);
    const mds::Embedding& pa = warm.update(reps_a);
    const mds::Embedding& pb = incr.update(reps_b);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t j = 0; j < pa.size(); ++j) {
      EXPECT_EQ(pa[j].x, pb[j].x);
      EXPECT_EQ(pa[j].y, pb[j].y);
    }
  }
  EXPECT_EQ(incr.landmark_fit_size(), 0u);
}

TEST(LandmarkIncremental, PlacesNewPointsWithoutMovingOldOnes) {
  Rng rng(32);
  monitor::RepresentativeSet reps(0.0);
  core::MapEmbedder embedder(core::EmbedMethod::LandmarkIncremental, 24);
  for (std::size_t i = 0; i < 30; ++i) {
    reps.assign(latent_vector(rng));
    embedder.update(reps);
  }
  // Past landmark_count the model has been fitted once.
  std::size_t fit = embedder.landmark_fit_size();
  EXPECT_GT(fit, 24u);
  mds::Embedding before = embedder.positions();

  // Growth below the refit threshold only appends placements.
  for (std::size_t i = 30; i < 40; ++i) {
    reps.assign(latent_vector(rng));
    embedder.update(reps);
  }
  const mds::Embedding& after = embedder.positions();
  ASSERT_EQ(after.size(), 40u);
  for (std::size_t j = 0; j < before.size(); ++j) {
    EXPECT_EQ(after[j].x, before[j].x);
    EXPECT_EQ(after[j].y, before[j].y);
  }
  EXPECT_EQ(embedder.landmark_fit_size(), fit);
}

TEST(LandmarkIncremental, RefitsGeometricallyAndKeepsTheFrameAligned) {
  Rng rng(33);
  monitor::RepresentativeSet reps(0.0);
  core::MapEmbedder embedder(core::EmbedMethod::LandmarkIncremental, 24);
  std::size_t n = 0;
  std::size_t first_fit = 0;
  mds::Embedding at_first_fit;
  while (n < 200) {
    reps.assign(latent_vector(rng));
    embedder.update(reps);
    ++n;
    if (first_fit == 0 && embedder.landmark_fit_size() > 0) {
      first_fit = embedder.landmark_fit_size();
      at_first_fit = embedder.positions();
    }
  }
  ASSERT_GT(first_fit, 0u);
  // Geometric policy: at n = 200 the model (refit whenever the set has
  // doubled) was refit at least once past the first fit, and each refit
  // counted as a rebuild.
  EXPECT_GE(embedder.landmark_fit_size(),
            static_cast<std::size_t>(2 * first_fit));
  EXPECT_GE(embedder.rebuilds(), 1u);
  ASSERT_GE(at_first_fit.size(), 2u);
  const mds::Embedding& now = embedder.positions();
  ASSERT_EQ(now.size(), 200u);
  for (const auto& p : now) {
    EXPECT_TRUE(std::isfinite(p.x));
    EXPECT_TRUE(std::isfinite(p.y));
  }
  EXPECT_TRUE(std::isfinite(embedder.stress()));
  EXPECT_GE(embedder.stress(), 0.0);
}

// --- Fuzzer: the ingest-overflow detector. ------------------------------

std::vector<core::PeriodRecord> benign_records(std::size_t n,
                                               const core::GovernorConfig& g) {
  std::vector<core::PeriodRecord> records(n);
  for (std::size_t i = 0; i < n; ++i) {
    records[i].time = static_cast<double>(i);
    records[i].beta = g.beta_initial;
  }
  return records;
}

TEST(IngestOverflowDetector, FiresOnSustainedOverflow) {
  core::GovernorConfig governor;
  std::vector<core::PeriodRecord> records = benign_records(30, governor);
  for (std::size_t i = 0; i < 16; ++i) records[i].overflow_drops = 4;
  std::optional<std::string> fired =
      replay::detect_instability(records, governor);
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(*fired, "ingest-overflow");
}

TEST(IngestOverflowDetector, StaysQuietBelowTheThreshold) {
  core::GovernorConfig governor;
  std::vector<core::PeriodRecord> records = benign_records(30, governor);
  for (std::size_t i = 0; i < 15; ++i) records[i].overflow_drops = 4;
  EXPECT_FALSE(replay::detect_instability(records, governor).has_value());
}

TEST(IngestOverflowDetector, HistoricalDetectorsKeepPriority) {
  core::GovernorConfig governor;
  std::vector<core::PeriodRecord> records = benign_records(30, governor);
  for (auto& rec : records) rec.overflow_drops = 100;
  records[5].beta = governor.beta_max + 1.0;
  std::optional<std::string> fired =
      replay::detect_instability(records, governor);
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(*fired, "beta-out-of-band");
}

TEST(FuzzIngest, IngestModeIsDeterministic) {
  replay::FuzzConfig config;
  config.seed = 4;
  config.runs = 1;
  config.max_periods = 150;
  config.ingest = true;
  replay::FuzzReport a = replay::fuzz_scenarios(config);
  replay::FuzzReport b = replay::fuzz_scenarios(config);
  EXPECT_EQ(a.runs_executed, b.runs_executed);
  EXPECT_EQ(a.periods_executed, b.periods_executed);
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].detector, b.findings[i].detector);
    EXPECT_EQ(replay::serialize_run_log(a.findings[i].log),
              replay::serialize_run_log(b.findings[i].log));
  }
}

}  // namespace
}  // namespace stayaway
