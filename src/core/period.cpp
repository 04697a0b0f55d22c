#include "core/period.hpp"

#include <algorithm>
#include <cstdint>

#include "util/statecodec.hpp"
#include "util/strings.hpp"

namespace stayaway::core {

namespace {

[[noreturn]] void fail(const std::string& detail) {
  throw util::StateCodecError("period record: " + detail);
}

/// Walks the space-separated `key=value` tokens of one record line in
/// order. Every accessor names the key it expects, so a reordered,
/// renamed or missing field fails at the first token that disagrees.
class FieldTokens {
 public:
  explicit FieldTokens(std::string_view line) : rest_(line) { skip_spaces(); }

  bool done() const { return rest_.empty(); }

  /// Is the next token a `key=` field? Consumes nothing.
  bool at(std::string_view key) const {
    return rest_.size() > key.size() && rest_.starts_with(key) &&
           rest_[key.size()] == '=';
  }

  std::string_view next(std::string_view key) {
    if (done()) fail("truncated before field '" + std::string(key) + "'");
    std::string_view token = rest_.substr(0, rest_.find(' '));
    if (!at(key)) {
      fail("expected field '" + std::string(key) + "', got '" +
           std::string(token) + "'");
    }
    rest_.remove_prefix(token.size());
    skip_spaces();
    return token.substr(key.size() + 1);
  }

  double real(std::string_view key) {
    return util::parse_exact_double(next(key), key);
  }

  std::uint64_t count(std::string_view key) {
    std::string_view value = next(key);
    std::uint64_t v = 0;
    if (!parse_u64(value, v)) {
      fail("field '" + std::string(key) +
           "': expected an unsigned integer, got '" + std::string(value) +
           "'");
    }
    return v;
  }

  /// Range-checked enum field: values above `max` must not alias a state.
  std::uint64_t bounded(std::string_view key, std::uint64_t max) {
    std::uint64_t v = count(key);
    if (v > max) fail("field '" + std::string(key) + "' out of range");
    return v;
  }

  bool flag(std::string_view key) {
    std::string_view value = next(key);
    if (value == "1") return true;
    if (value == "0") return false;
    fail("field '" + std::string(key) + "': expected 0/1, got '" +
         std::string(value) + "'");
  }

 private:
  void skip_spaces() {
    rest_.remove_prefix(std::min(rest_.find_first_not_of(' '), rest_.size()));
  }

  std::string_view rest_;
};

}  // namespace

void append_record(std::string& out, const PeriodRecord& rec) {
  const std::size_t start = out.size();
  auto open = [&out, start](const char* key) {
    if (out.size() != start) out += ' ';
    out += key;
    out += '=';
  };
  auto num = [&](const char* key, double v) {
    open(key);
    append_double_exact(out, v);
  };
  auto count = [&](const char* key, std::size_t v) {
    open(key);
    append_u64(out, v);
  };
  auto flag = [&](const char* key, bool v) {
    open(key);
    out += v ? '1' : '0';
  };
  num("t", rec.time);
  count("mode", static_cast<std::size_t>(rec.mode));
  num("x", rec.state.x);
  num("y", rec.state.y);
  count("rep", rec.representative);
  flag("newrep", rec.new_representative);
  flag("vobs", rec.violation_observed);
  flag("vpred", rec.violation_predicted);
  flag("model", rec.model_ready);
  count("act", static_cast<std::size_t>(rec.action));
  flag("paused", rec.batch_paused_after);
  num("stress", rec.stress);
  num("beta", rec.beta);
  count("deg", static_cast<std::size_t>(rec.degradation));
  count("qdims", rec.quarantined_dims);
  count("stale", rec.max_staleness);
  flag("qosvis", rec.qos_visible);
  count("retries", rec.actuation_retries);
  flag("pending", rec.actuation_pending);
  if (rec.ingest_any()) {
    count("ing", rec.samples_ingested);
    count("late", rec.late_samples);
    count("dup", rec.duplicate_samples);
    count("ovf", rec.overflow_drops);
  }
  if (rec.cluster_any()) {
    count("migout", rec.migrations_out);
    count("migin", rec.migrations_in);
  }
}

std::string encode_record(const PeriodRecord& rec) {
  std::string out;
  append_record(out, rec);
  return out;
}

PeriodRecord decode_record(std::string_view line) {
  FieldTokens f(line);
  PeriodRecord rec;
  rec.time = f.real("t");
  rec.mode = static_cast<monitor::ExecutionMode>(
      f.bounded("mode", monitor::kExecutionModeCount - 1));
  rec.state.x = f.real("x");
  rec.state.y = f.real("y");
  rec.representative = static_cast<std::size_t>(f.count("rep"));
  rec.new_representative = f.flag("newrep");
  rec.violation_observed = f.flag("vobs");
  rec.violation_predicted = f.flag("vpred");
  rec.model_ready = f.flag("model");
  rec.action = static_cast<ThrottleAction>(
      f.bounded("act", static_cast<std::uint64_t>(ThrottleAction::Resume)));
  rec.batch_paused_after = f.flag("paused");
  rec.stress = f.real("stress");
  rec.beta = f.real("beta");
  rec.degradation = static_cast<DegradationState>(f.bounded(
      "deg", static_cast<std::uint64_t>(DegradationState::Failsafe)));
  rec.quarantined_dims = static_cast<std::size_t>(f.count("qdims"));
  rec.max_staleness = static_cast<std::size_t>(f.count("stale"));
  rec.qos_visible = f.flag("qosvis");
  rec.actuation_retries = static_cast<std::size_t>(f.count("retries"));
  rec.actuation_pending = f.flag("pending");
  // Optional trailing blocks, each all-or-nothing: the ingest block
  // (absent on synchronous-source records) then the cluster block
  // (absent on coordinator-free records). A record may carry either,
  // both, or neither; the next token's own key says which comes next.
  if (f.at("ing")) {
    rec.samples_ingested = static_cast<std::size_t>(f.count("ing"));
    rec.late_samples = static_cast<std::size_t>(f.count("late"));
    rec.duplicate_samples = static_cast<std::size_t>(f.count("dup"));
    rec.overflow_drops = static_cast<std::size_t>(f.count("ovf"));
  }
  if (!f.done()) {
    rec.migrations_out = static_cast<std::size_t>(f.count("migout"));
    rec.migrations_in = static_cast<std::size_t>(f.count("migin"));
  }
  if (!f.done()) fail("trailing data '" + std::string(line) + "'");
  return rec;
}

}  // namespace stayaway::core
