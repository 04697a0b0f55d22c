#include "core/checkpoint.hpp"

#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace stayaway::core {

namespace {

constexpr std::string_view kCheckpointMagic = "stayaway-checkpoint";
constexpr std::string_view kChecksumKey = "checksum = ";

}  // namespace

std::size_t begin_envelope(std::string& out, std::string_view magic,
                           std::uint64_t version) {
  out += magic;
  out += " v";
  out += std::to_string(version);
  out += '\n';
  return out.size();
}

void seal_envelope(std::string& out, std::size_t body_start,
                   std::size_t hashed, std::uint64_t hash) {
  SA_CHECK(body_start + hashed <= out.size(), "hashed prefix past the body");
  const std::uint64_t checksum =
      fnv1a64(std::string_view(out).substr(body_start + hashed), hash);
  out += kChecksumKey;
  out += std::to_string(checksum);
  out += '\n';
}

std::string_view open_envelope(std::string_view blob, std::string_view magic,
                               std::uint64_t version) {
  const std::string kind(magic);
  // A blob that does not end in a newline lost its tail — report
  // truncation before anything subtler.
  const std::size_t header_end = blob.find('\n');
  if (header_end == std::string_view::npos) {
    throw util::StateCodecError("truncated " + kind + ": no header line");
  }
  const std::string_view header = blob.substr(0, header_end);
  if (!header.starts_with(magic) ||
      !header.substr(magic.size()).starts_with(" v")) {
    throw util::StateCodecError("not a " + kind + " blob");
  }
  std::uint64_t found = 0;
  if (!parse_u64(header.substr(magic.size() + 2), found)) {
    throw util::StateCodecError("malformed " + kind + " version");
  }
  if (found != version) {
    throw CheckpointVersionError(
        "unsupported " + kind + " version v" + std::to_string(found) +
        " (this build reads v" + std::to_string(version) + ")");
  }
  if (blob.back() != '\n') {
    throw util::StateCodecError("truncated " + kind +
                                ": missing trailing newline");
  }
  std::size_t trailer_start = blob.rfind('\n', blob.size() - 2);
  if (trailer_start == std::string_view::npos || trailer_start < header_end) {
    throw util::StateCodecError("truncated " + kind + ": no body");
  }
  ++trailer_start;  // first char of the trailer line
  const std::string_view trailer =
      blob.substr(trailer_start, blob.size() - trailer_start - 1);
  if (!trailer.starts_with(kChecksumKey)) {
    throw util::StateCodecError("truncated " + kind +
                                ": no checksum trailer");
  }
  std::uint64_t expected = 0;
  if (!parse_u64(trailer.substr(kChecksumKey.size()), expected)) {
    throw util::StateCodecError("malformed " + kind + " checksum");
  }
  const std::string_view body =
      blob.substr(header_end + 1, trailer_start - header_end - 1);
  if (fnv1a64(body) != expected) {
    throw CheckpointChecksumError(kind + " checksum mismatch");
  }
  return body;
}

std::string encode_checkpoint(HostPipeline& pipeline) {
  const HostPipeline::RecordSection records = pipeline.encoded_records();
  // The rest of the body goes through its own buffer first so the blob
  // can be sized exactly: stored checkpoints then carry no spare
  // capacity.
  std::string state;
  util::StateIO state_io = util::StateIO::writer(state);
  std::size_t count = pipeline.records().size();
  state_io.u64("records", count);
  pipeline.persist(state_io);

  std::string out;
  out.reserve(records.text.size() + state.size() + 64);  // + header, trailer
  const std::size_t body =
      begin_envelope(out, kCheckpointMagic, kCheckpointVersion);
  out += records.text;
  out += state;
  // The record section's hash is already running in the memo: only the
  // state after it is hashed here.
  seal_envelope(out, body, records.text.size(), records.fnv);
  return out;
}

std::size_t restore_checkpoint(HostPipeline& pipeline,
                               const std::string& blob) {
  util::StateIO io = util::StateIO::reader(
      open_envelope(blob, kCheckpointMagic, kCheckpointVersion));
  std::vector<PeriodRecord> records;
  std::string line;
  while (io.next_is("record")) {
    io.line("record", line);
    records.push_back(decode_record(line));
  }
  io.expect("records", records.size(),
            "checkpoint record count disagrees with its record lines");
  pipeline.persist(io);
  io.finish();
  const std::size_t count = records.size();
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
