// Unit tests for the observability layer: JSON value text, the
// lock-cheap metrics registry, event sinks and span timers.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "event_log.hpp"
#include "obs/events.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "util/check.hpp"

namespace stayaway::obs {
namespace {

// ---------------------------------------------------------------- JSON --

TEST(Json, ScalarRoundTrips) {
  EXPECT_EQ(JsonValue(nullptr).dump(), "null");
  EXPECT_EQ(JsonValue(true).dump(), "true");
  EXPECT_EQ(JsonValue(false).dump(), "false");
  EXPECT_EQ(JsonValue(3).dump(), "3");
  EXPECT_EQ(JsonValue(-17).dump(), "-17");
  EXPECT_EQ(JsonValue(-17.5).dump(), "-17.5");
  EXPECT_EQ(JsonValue("hi").dump(), "\"hi\"");
  EXPECT_EQ(JsonValue::array().dump(), "[]");
  EXPECT_EQ(JsonValue::object().dump(), "{}");
}

TEST(Json, DoublesSurviveDumpParse) {
  // Non-integral numbers print at %.17g, which any strtod-based reader
  // turns back into the same double.
  for (double v : {0.1, 1.0 / 3.0, 1e-12, 123456.789, -2.5e8}) {
    const std::string text = JsonValue(v).dump();
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
  }
  EXPECT_EQ(JsonValue(0.1).dump(), "0.10000000000000001");
}

TEST(Json, StringEscapes) {
  JsonValue v(std::string("a\"b\\c\n\t\x01"));
  EXPECT_EQ(v.dump(), R"("a\"b\\c\n\t\u0001")");
}

TEST(Json, ObjectsKeepInsertionOrder) {
  JsonValue obj = JsonValue::object();
  obj.set("zeta", 1);
  obj.set("alpha", 2);
  EXPECT_EQ(obj.dump(), "{\"zeta\":1,\"alpha\":2}");
}

TEST(Json, NestedStructure) {
  JsonValue inner = JsonValue::object();
  inner.set("b", true);
  JsonValue a = JsonValue::array();
  a.push_back(1);
  a.push_back(2);
  a.push_back(std::move(inner));
  JsonValue c = JsonValue::object();
  c.set("d", nullptr);
  JsonValue v = JsonValue::object();
  v.set("a", std::move(a));
  v.set("c", std::move(c));
  EXPECT_EQ(v.dump(), R"({"a":[1,2,{"b":true}],"c":{"d":null}})");
}

TEST(Json, KindMismatchThrows) {
  JsonValue number(3.0);
  EXPECT_THROW(number.push_back(1), PreconditionError);
  EXPECT_THROW(number.set("k", 1), PreconditionError);
  JsonValue array = JsonValue::array();
  EXPECT_THROW(array.set("k", 1), PreconditionError);
  JsonValue object = JsonValue::object();
  EXPECT_THROW(object.push_back(1), PreconditionError);
}

// ------------------------------------------------------------- metrics --

TEST(Metrics, CounterSemantics) {
  MetricsRegistry reg;
  Counter c = reg.counter("loop.periods");
  EXPECT_TRUE(c.enabled());
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Re-registering the same name aliases the same cell.
  Counter again = reg.counter("loop.periods");
  again.inc();
  EXPECT_EQ(c.value(), 43u);
  // A default-constructed handle is a silent no-op.
  Counter disabled;
  EXPECT_FALSE(disabled.enabled());
  disabled.inc();
  EXPECT_EQ(disabled.value(), 0u);
}

TEST(Metrics, GaugeSemantics) {
  MetricsRegistry reg;
  Gauge g = reg.gauge("governor.beta");
  g.set(0.25);
  EXPECT_DOUBLE_EQ(g.value(), 0.25);
  g.set(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), -1.5);
  Gauge disabled;
  disabled.set(9.0);
  EXPECT_DOUBLE_EQ(disabled.value(), 0.0);
}

TEST(Metrics, HistogramBucketsAndMean) {
  MetricsRegistry reg;
  Histogram h = reg.histogram("lat", {1.0, 10.0, 100.0});
  h.observe(0.5);    // bucket 0 (<= 1)
  h.observe(1.0);    // bucket 0 (bounds are inclusive upper edges)
  h.observe(5.0);    // bucket 1
  h.observe(1000.0); // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1006.5);
  EXPECT_DOUBLE_EQ(h.mean(), 1006.5 / 4.0);

  MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const HistogramSnapshot& hs = snap.histograms[0];
  EXPECT_EQ(hs.buckets, (std::vector<std::uint64_t>{2, 1, 0, 1}));
  // Same name + same bounds aliases; different bounds is a caller bug.
  Histogram again = reg.histogram("lat", {1.0, 10.0, 100.0});
  again.observe(2.0);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_THROW(reg.histogram("lat", {2.0}), PreconditionError);
}

TEST(Metrics, ExponentialBounds) {
  std::vector<double> b = exponential_bounds(1.0, 1000.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b.front(), 1.0);
  EXPECT_DOUBLE_EQ(b.back(), 1000.0);
  EXPECT_NEAR(b[1] / b[0], b[2] / b[1], 1e-9);
}

TEST(Metrics, HandlesStaySableAcrossGrowth) {
  // Cells live in deques: handles registered early must survive hundreds
  // of later registrations (pointer stability).
  MetricsRegistry reg;
  Counter first = reg.counter("c0");
  first.inc();
  for (int i = 1; i < 300; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    reg.counter(name).inc(static_cast<std::uint64_t>(i));
  }
  first.inc();
  EXPECT_EQ(first.value(), 2u);
  EXPECT_EQ(reg.snapshot().counters.size(), 300u);
}

TEST(Metrics, WriteJsonIsParseable) {
  MetricsRegistry reg;
  reg.counter("a.total").inc(7);
  reg.gauge("b.value").set(1.5);
  reg.histogram("c.us", {1.0, 2.0}).observe(1.5);
  std::ostringstream out;
  reg.write_json(out);
  EXPECT_EQ(out.str(),
            R"({"counters":{"a.total":7},"gauges":{"b.value":1.5},)"
            R"("histograms":{"c.us":{"bounds":[1,2],"buckets":[0,1,0],)"
            R"("count":1,"sum":1.5}}})"
            "\n");
}

// -------------------------------------------------------------- events --

TEST(Events, JsonlRoundTrip) {
  std::ostringstream out;
  JsonlSink sink(out);
  Event a(1.0, "period");
  a.with("mode", "co-located").with("rep", 3).with("violation", false);
  Event b(2.0, "pause");
  b.with("reason", "observed-violation").with("targets", 2);
  sink.emit(a);
  sink.emit(b);
  EXPECT_EQ(sink.emitted(), 2u);
  EXPECT_EQ(out.str(),
            "{\"t\":1,\"type\":\"period\",\"mode\":\"co-located\",\"rep\":3,"
            "\"violation\":false}\n"
            "{\"t\":2,\"type\":\"pause\",\"reason\":\"observed-violation\","
            "\"targets\":2}\n");
}

// ------------------------------------------------------------ observer --

TEST(Observer, SpanFeedsHistogramAndEvent) {
  testutil::EventLog log;
  Observer obs(&log);
  {
    Span s = obs.span("embed", 12.0);
  }  // closes on destruction
  Span manual = obs.span("embed", 13.0);
  manual.close();
  manual.close();  // idempotent

  MetricsSnapshot snap = obs.metrics().snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "span.embed.us");
  EXPECT_EQ(snap.histograms[0].count, 2u);

  // Span events carry a wall-clock "us", so they are read as events
  // rather than pinned as text.
  ASSERT_EQ(log.events.size(), 2u);
  const Event& first = log.events[0];
  EXPECT_EQ(first.type, "span");
  EXPECT_DOUBLE_EQ(first.time, 12.0);
  EXPECT_DOUBLE_EQ(log.events[1].time, 13.0);
  ASSERT_NE(testutil::field(first, "name"), nullptr);
  EXPECT_EQ(*testutil::field(first, "name"), JsonValue("embed"));
  ASSERT_NE(testutil::field(first, "us"), nullptr);
  EXPECT_EQ(testutil::field(first, "us")->kind(), JsonValue::Kind::Number);
}

TEST(Observer, SpanEventsCanBeSilenced) {
  // Detaching the sink silences span events; the histogram is still fed.
  testutil::EventLog log;
  Observer obs(&log);
  obs.set_sink(nullptr);
  obs.span("act", 1.0).close();
  EXPECT_TRUE(log.events.empty());
  MetricsSnapshot snap = obs.metrics().snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
}

TEST(Observer, DisabledSpanIsNoop) {
  Span s;  // default-constructed: detached from any observer
  s.close();
  Observer no_sink;  // metrics-only observer works without a sink
  no_sink.span("sample", 0.0).close();
  no_sink.emit(Event(0.0, "period"));
  no_sink.flush();
  EXPECT_EQ(no_sink.metrics().snapshot().histograms.size(), 1u);
}

}  // namespace
}  // namespace stayaway::obs
