#include "core/checkpoint.hpp"

#include <sstream>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace stayaway::core {

namespace {

constexpr std::string_view kHeaderPrefix = "stayaway-checkpoint v";
constexpr std::string_view kChecksumKey = "checksum = ";

}  // namespace

void write_period_record(util::StateWriter& w, const PeriodRecord& rec) {
  w.real("time", rec.time);
  w.u64("mode", static_cast<std::uint64_t>(rec.mode));
  w.real("x", rec.state.x);
  w.real("y", rec.state.y);
  w.u64("representative", rec.representative);
  w.boolean("new_representative", rec.new_representative);
  w.boolean("violation_observed", rec.violation_observed);
  w.boolean("violation_predicted", rec.violation_predicted);
  w.boolean("model_ready", rec.model_ready);
  w.u64("action", static_cast<std::uint64_t>(rec.action));
  w.boolean("batch_paused_after", rec.batch_paused_after);
  w.real("stress", rec.stress);
  w.real("beta", rec.beta);
  w.u64("degradation", static_cast<std::uint64_t>(rec.degradation));
  w.u64("quarantined_dims", rec.quarantined_dims);
  w.u64("max_staleness", rec.max_staleness);
  w.boolean("qos_visible", rec.qos_visible);
  w.u64("actuation_retries", rec.actuation_retries);
  w.boolean("actuation_pending", rec.actuation_pending);
  w.u64("samples_ingested", rec.samples_ingested);
  w.u64("late_samples", rec.late_samples);
  w.u64("duplicate_samples", rec.duplicate_samples);
  w.u64("overflow_drops", rec.overflow_drops);
  w.u64("migrations_out", rec.migrations_out);
  w.u64("migrations_in", rec.migrations_in);
}

PeriodRecord read_period_record(util::StateReader& r) {
  PeriodRecord rec;
  rec.time = r.real("time");
  std::uint64_t mode = r.u64("mode");
  if (mode >= monitor::kExecutionModeCount) {
    throw util::StateCodecError("record mode out of range");
  }
  rec.mode = static_cast<monitor::ExecutionMode>(mode);
  rec.state.x = r.real("x");
  rec.state.y = r.real("y");
  rec.representative = static_cast<std::size_t>(r.u64("representative"));
  rec.new_representative = r.boolean("new_representative");
  rec.violation_observed = r.boolean("violation_observed");
  rec.violation_predicted = r.boolean("violation_predicted");
  rec.model_ready = r.boolean("model_ready");
  std::uint64_t action = r.u64("action");
  if (action > static_cast<std::uint64_t>(ThrottleAction::Resume)) {
    throw util::StateCodecError("record action out of range");
  }
  rec.action = static_cast<ThrottleAction>(action);
  rec.batch_paused_after = r.boolean("batch_paused_after");
  rec.stress = r.real("stress");
  rec.beta = r.real("beta");
  std::uint64_t degradation = r.u64("degradation");
  if (degradation > static_cast<std::uint64_t>(DegradationState::Failsafe)) {
    throw util::StateCodecError("record degradation out of range");
  }
  rec.degradation = static_cast<DegradationState>(degradation);
  rec.quarantined_dims = static_cast<std::size_t>(r.u64("quarantined_dims"));
  rec.max_staleness = static_cast<std::size_t>(r.u64("max_staleness"));
  rec.qos_visible = r.boolean("qos_visible");
  rec.actuation_retries = static_cast<std::size_t>(r.u64("actuation_retries"));
  rec.actuation_pending = r.boolean("actuation_pending");
  rec.samples_ingested = static_cast<std::size_t>(r.u64("samples_ingested"));
  rec.late_samples = static_cast<std::size_t>(r.u64("late_samples"));
  rec.duplicate_samples =
      static_cast<std::size_t>(r.u64("duplicate_samples"));
  rec.overflow_drops = static_cast<std::size_t>(r.u64("overflow_drops"));
  rec.migrations_out = static_cast<std::size_t>(r.u64("migrations_out"));
  rec.migrations_in = static_cast<std::size_t>(r.u64("migrations_in"));
  return rec;
}

std::string encode_record(const PeriodRecord& rec) {
  std::string out;
  util::StateWriter w(out);
  write_period_record(w, rec);
  return out;
}

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (char c : text) {
    hash ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string encode_checkpoint(HostPipeline& pipeline) {
  const std::string& records = pipeline.encoded_records();
  // The stage state goes through its own buffer first so the blob can be
  // sized exactly: stored checkpoints then carry no spare capacity.
  std::string state;
  util::StateWriter state_writer(state);
  pipeline.save_state(state_writer);

  std::string out;
  out.reserve(records.size() + state.size() + 96);  // + header, count, trailer
  out += kHeaderPrefix;
  out += std::to_string(kCheckpointVersion);
  out += '\n';
  const std::size_t body_start = out.size();
  util::StateWriter w(out);
  w.u64("records", pipeline.records().size());
  out += records;
  out += state;
  const std::uint64_t checksum =
      fnv1a64(std::string_view(out).substr(body_start));
  out += kChecksumKey;
  out += std::to_string(checksum);
  out += '\n';
  return out;
}

std::size_t restore_checkpoint(HostPipeline& pipeline,
                               const std::string& blob) {
  // Envelope framing first. A blob that does not end in a newline lost
  // its tail — report truncation before anything subtler.
  std::size_t header_end = blob.find('\n');
  if (header_end == std::string::npos) {
    throw util::StateCodecError("truncated checkpoint: no header line");
  }
  std::string_view header = std::string_view(blob).substr(0, header_end);
  if (header.substr(0, kHeaderPrefix.size()) != kHeaderPrefix) {
    throw util::StateCodecError("not a stayaway checkpoint");
  }
  std::uint64_t version = 0;
  if (!stayaway::parse_u64(std::string(header.substr(kHeaderPrefix.size())),
                       version)) {
    throw util::StateCodecError("malformed checkpoint version");
  }
  if (version != kCheckpointVersion) {
    throw CheckpointVersionError(
        "unsupported checkpoint version v" + std::to_string(version) +
        " (this build reads v" + std::to_string(kCheckpointVersion) + ")");
  }
  if (blob.back() != '\n') {
    throw util::StateCodecError(
        "truncated checkpoint: missing trailing newline");
  }
  std::size_t trailer_start = blob.rfind('\n', blob.size() - 2);
  if (trailer_start == std::string::npos || trailer_start < header_end) {
    throw util::StateCodecError("truncated checkpoint: no body");
  }
  ++trailer_start;  // first char of the trailer line
  std::string_view trailer = std::string_view(blob).substr(
      trailer_start, blob.size() - trailer_start - 1);
  if (trailer.substr(0, kChecksumKey.size()) != kChecksumKey) {
    throw util::StateCodecError("truncated checkpoint: no checksum trailer");
  }
  std::uint64_t expected = 0;
  if (!stayaway::parse_u64(std::string(trailer.substr(kChecksumKey.size())),
                       expected)) {
    throw util::StateCodecError("malformed checkpoint checksum");
  }
  std::string_view body = std::string_view(blob).substr(
      header_end + 1, trailer_start - header_end - 1);
  if (fnv1a64(body) != expected) {
    throw CheckpointChecksumError("checkpoint checksum mismatch");
  }

  // Body decode into the fresh pipeline.
  std::istringstream in{std::string(body)};
  util::StateReader r(in);
  std::size_t count = static_cast<std::size_t>(r.u64("records"));
  std::vector<PeriodRecord> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    records.push_back(read_period_record(r));
  }
  pipeline.load_state(r);
  if (in.peek() != std::istringstream::traits_type::eof()) {
    throw util::StateCodecError("trailing data after checkpoint body");
  }
  pipeline.seed_records(std::move(records));
  return count;
}

std::size_t warm_start(HostPipeline& pipeline, sim::SimHost& host,
                       std::size_t ticks_per_period, const std::string& blob) {
  SA_REQUIRE(ticks_per_period >= 1,
             "each period must advance at least one tick");
  std::size_t restored = restore_checkpoint(pipeline, blob);
  SimHostActuationPort& port = pipeline.actuation_port();
  for (std::size_t k = 0; k < restored; ++k) {
    host.run(ticks_per_period);
    port.replay_delivered(host.now());
  }
  return restored;
}

void corrupt_checkpoint_blob(std::string& blob) {
  std::size_t header_end = blob.find('\n');
  if (header_end == std::string::npos || header_end + 1 >= blob.size()) {
    return;
  }
  std::size_t pos = header_end + 1 + (blob.size() - header_end - 1) / 2;
  while (pos < blob.size() && blob[pos] == '\n') ++pos;
  if (pos >= blob.size()) return;
  blob[pos] = blob[pos] == 'x' ? 'y' : 'x';
}

}  // namespace stayaway::core
