// Scenario catalogue for the paper's evaluation (§7.1).
//
// Sensitive apps: VLC streaming server; Webservice with CPU-, memory- and
// mixed-intensive workloads. Batch apps: Soplex (SPEC CPU2006), Twitter
// influence ranking (CloudSuite), CPUBomb (isolation benchmark), VLC
// transcoding, MemoryBomb (custom), plus the Table 1 combinations
// Batch-1 = Twitter-Analysis + Soplex and Batch-2 = Twitter-Analysis +
// MemoryBomb.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/webservice.hpp"
#include "sim/app_model.hpp"
#include "sim/resource.hpp"
#include "trace/trace.hpp"

namespace stayaway::harness {

enum class SensitiveKind {
  VlcStream,
  WebserviceCpu,
  WebserviceMem,
  WebserviceMix,
  VlcTranscode,  // Fig. 6's rate-thresholded transcode run
  FlashCrowd,    // surging front end (cluster bench, DESIGN.md §18)
};

enum class BatchKind {
  None,  // isolated run
  CpuBomb,
  MemBomb,
  Soplex,
  TwitterAnalysis,
  VlcTranscode,
  Batch1,  // Table 1: Twitter-Analysis + Soplex
  Batch2,  // Table 1: Twitter-Analysis + MemoryBomb
};

const char* to_string(SensitiveKind kind);
const char* to_string(BatchKind kind);
/// Inverses of to_string; throw PreconditionError on unknown names.
SensitiveKind sensitive_kind_from_string(const std::string& name);
BatchKind batch_kind_from_string(const std::string& name);

/// The paper's testbed translated into simulator terms: 4 cores, 4 GB of
/// memory (tight enough that a 2-3 GB batch working set forces swap).
sim::HostSpec paper_host();

/// A sensitive app plus its QoS probe (which points into the app object
/// and stays valid for the app's lifetime).
struct SensitiveSetup {
  std::unique_ptr<sim::AppModel> app;
  const sim::QosProbe* probe = nullptr;
};

/// Builds a sensitive app. `workload` modulates offered load over time
/// (nullopt = constant peak); duration <= 0 runs unbounded.
SensitiveSetup make_sensitive(SensitiveKind kind,
                              std::optional<trace::Trace> workload,
                              double duration_s, std::uint64_t seed);

/// Builds the batch app set for a kind (one or two apps; empty for None).
std::vector<std::unique_ptr<sim::AppModel>> make_batch(BatchKind kind);

/// A workload trace with pronounced diurnal valleys, compressed so that a
/// few-minute experiment sweeps through several day/night cycles — the
/// low-intensity periods Stay-Away exploits (§1, Fig. 13).
trace::Trace compressed_diurnal(double experiment_s, double cycles,
                                std::uint64_t seed);

}  // namespace stayaway::harness
