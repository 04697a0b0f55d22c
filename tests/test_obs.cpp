// Unit tests for the observability layer: JSON value round-trips, the
// lock-cheap metrics registry, event sinks and span timers.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

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
  EXPECT_EQ(JsonValue("hi").dump(), "\"hi\"");
  for (const char* doc : {"null", "true", "3", "-17.5", "\"hi\"", "[]", "{}"}) {
    EXPECT_EQ(JsonValue::parse(doc).dump(), doc);
  }
}

TEST(Json, DoublesSurviveDumpParse) {
  for (double v : {0.1, 1.0 / 3.0, 1e-12, 123456.789, -2.5e8}) {
    JsonValue parsed = JsonValue::parse(JsonValue(v).dump());
    EXPECT_DOUBLE_EQ(parsed.as_double(), v);
  }
}

TEST(Json, StringEscapes) {
  JsonValue v(std::string("a\"b\\c\n\t\x01"));
  JsonValue back = JsonValue::parse(v.dump());
  EXPECT_EQ(back.as_string(), v.as_string());
}

TEST(Json, ObjectsKeepInsertionOrder) {
  JsonValue obj = JsonValue::object();
  obj.set("zeta", 1);
  obj.set("alpha", 2);
  EXPECT_EQ(obj.dump(), "{\"zeta\":1,\"alpha\":2}");
  EXPECT_EQ(JsonValue::parse(obj.dump()), obj);
}

TEST(Json, NestedStructure) {
  const char* doc = R"({"a":[1,2,{"b":true}],"c":{"d":null}})";
  JsonValue v = JsonValue::parse(doc);
  EXPECT_EQ(v.dump(), R"({"a":[1,2,{"b":true}],"c":{"d":null}})");
  EXPECT_EQ(v.find("a")->as_array().size(), 3u);
}

TEST(Json, MalformedInputThrows) {
  for (const char* doc : {"", "{", "[1,", "nul", "\"open", "{\"a\" 1}",
                          "1 2", "{\"a\":}", "[1,]"}) {
    EXPECT_THROW(JsonValue::parse(doc), PreconditionError) << doc;
  }
}

TEST(Json, KindMismatchThrows) {
  EXPECT_THROW(JsonValue(3.0).as_string(), PreconditionError);
  EXPECT_THROW(JsonValue("x").as_double(), PreconditionError);
  EXPECT_THROW(JsonValue(true).as_array(), PreconditionError);
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
  JsonValue root = JsonValue::parse(out.str());
  EXPECT_DOUBLE_EQ(root.find("counters")->find("a.total")->as_double(), 7.0);
  EXPECT_DOUBLE_EQ(root.find("gauges")->find("b.value")->as_double(), 1.5);
  const JsonValue* hist = root.find("histograms")->find("c.us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("buckets")->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(hist->find("count")->as_double(), 1.0);
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

  std::istringstream in(out.str());
  std::vector<Event> parsed = parse_jsonl(in);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0], a);
  EXPECT_EQ(parsed[1], b);
}

TEST(Events, JsonlSkipsBlankAndRejectsMalformed) {
  std::istringstream blanks("\n\n");
  EXPECT_TRUE(parse_jsonl(blanks).empty());
  std::istringstream bad("{\"type\":\"x\"}\n");  // missing "t"
  EXPECT_THROW(parse_jsonl(bad), PreconditionError);
}

// ------------------------------------------------------------ observer --

TEST(Observer, SpanFeedsHistogramAndEvent) {
  std::ostringstream out;
  JsonlSink sink(out);
  Observer obs(&sink);
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

  std::istringstream in(out.str());
  std::vector<Event> events = parse_jsonl(in);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, "span");
  EXPECT_EQ(events[0].find("name")->as_string(), "embed");
  EXPECT_DOUBLE_EQ(events[0].time, 12.0);
  EXPECT_GE(events[0].find("us")->as_double(), 0.0);
}

TEST(Observer, SpanEventsCanBeSilenced) {
  std::ostringstream out;
  JsonlSink sink(out);
  Observer obs(&sink);
  obs.set_span_events(false);
  obs.span("act", 1.0).close();
  EXPECT_TRUE(out.str().empty());  // no event...
  MetricsSnapshot snap = obs.metrics().snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);  // ...but the histogram is fed
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
