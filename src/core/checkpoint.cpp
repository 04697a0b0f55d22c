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
    records.push_back(decode_record(r.line("record")));
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
