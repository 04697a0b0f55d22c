// Versioned checkpoint envelope for one host's control loop (DESIGN.md
// §17). A checkpoint is the pipeline's complete period-boundary state —
// the record history plus every stage, the actuation journal, the fault
// injector and the degradation machine — framed so a restore is either
// exact or a loud, typed failure:
//
//   stayaway-checkpoint v4         version header
//   record = <encode_record line>  } body: fixed-order `key = value`
//   ...                            }   lines via util::StateIO — one
//   records = <n>                  }   record line per period
//   <stage state>                  }   (core/period.hpp), their count,
//                                  }   then HostPipeline::persist
//   checksum = <fnv1a64(body)>     integrity trailer
//
// Doubles round-trip through format_double_exact, so restore-then-run
// reproduces the uninterrupted run byte for byte (the golden test in
// tests/test_checkpoint.cpp). The record section leads the body so
// neither its text nor its checksum is recomputed per checkpoint: both
// come from HostPipeline::encoded_records(), an append-only memo that
// carries the running fnv1a64 of its text, and seal_envelope continues
// that hash over the state after it. A checkpoint thus encodes and
// hashes only the periods run since the previous one plus the bounded
// stage state (each Rng is `<seed> <draws>`), and the bytes equal a
// from-scratch encode. The envelope (header, checksum trailer) is shared
// with the coordinator's blob. It lives in src/core/ — stages describe
// their state through util/statecodec.hpp and must never include this
// header (stage-checkpoint-isolation lint rule).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/period.hpp"
#include "core/pipeline.hpp"
#include "util/statecodec.hpp"
#include "util/strings.hpp"

namespace stayaway::core {

// v4 writes the record lines (each the run-log's line) before their
// count and each Rng as `<seed> <draws>`. Blobs of any other version are
// rejected.
inline constexpr std::uint64_t kCheckpointVersion = 4;

/// The blob carries a recognized header with an unsupported version —
/// distinct from corruption so callers can message it precisely.
class CheckpointVersionError : public util::StateCodecError {
 public:
  using util::StateCodecError::StateCodecError;
};

/// The body hash disagrees with the trailer: the checkpoint rotted at
/// rest (or a CheckpointCorrupt fault fired). The supervisor falls back
/// to an older checkpoint, then to a cold start.
class CheckpointChecksumError : public util::StateCodecError {
 public:
  using util::StateCodecError::StateCodecError;
};

/// Encodes the full checkpoint of `pipeline` at the current period
/// boundary. Non-const because the record section and its hash come
/// from the pipeline's append-only encoded_records() memo: only the
/// periods run since the previous checkpoint are encoded and hashed,
/// the bytes are the same.
std::string encode_checkpoint(HostPipeline& pipeline);

/// Decodes `blob` into a freshly built pipeline (same wiring, same fault
/// plan, no periods run) and returns the number of completed periods.
/// Throws CheckpointVersionError on a version mismatch,
/// CheckpointChecksumError on an integrity failure and
/// util::StateCodecError on truncation or malformed fields.
std::size_t restore_checkpoint(HostPipeline& pipeline,
                               const std::string& blob);

/// Restores `blob` into a freshly built pipeline and fast-forwards the
/// freshly built host through the restored periods: ticks re-run, the
/// journalled actuations re-applied at their original boundaries, no
/// observer or hook activity. Returns the restored period count; the
/// caller drives the remaining live periods. Same exactness contract as
/// the supervisor's warm restart.
std::size_t warm_start(HostPipeline& pipeline, sim::SimHost& host,
                       std::size_t ticks_per_period, const std::string& blob);

/// FNV-1a 64-bit — the envelope's integrity hash (util/strings.hpp).
using stayaway::fnv1a64;

/// The envelope every checkpoint kind shares — this host blob and the
/// coordinator blob (core/cluster/coordinator.hpp) alike:
///
///   <magic> v<version>           header
///   <body>                       `key = value` lines
///   checksum = <fnv1a64(body)>   integrity trailer
///
/// begin_envelope appends the header line to `out` and returns where the
/// body starts; seal_envelope appends the trailer over everything after
/// that offset. A caller that already holds `hash`, the fnv1a64 of the
/// body's first `hashed` bytes, passes it so only the rest is hashed.
std::size_t begin_envelope(std::string& out, std::string_view magic,
                           std::uint64_t version);
void seal_envelope(std::string& out, std::size_t body_start,
                   std::size_t hashed = 0,
                   std::uint64_t hash = kFnv1a64Basis);

/// The body of `blob` once its framing and checksum check out. Throws
/// CheckpointVersionError when the header names `magic` at another
/// version, CheckpointChecksumError on an integrity failure and
/// util::StateCodecError on any other framing damage.
std::string_view open_envelope(std::string_view blob, std::string_view magic,
                               std::uint64_t version);

/// Deterministically flips one body byte in a stored blob so the next
/// restore fails its checksum — how the CheckpointCorrupt fault models
/// at-rest rot. No-op on blobs too short to carry a body.
void corrupt_checkpoint_blob(std::string& blob);

}  // namespace stayaway::core
