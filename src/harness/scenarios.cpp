#include "harness/scenarios.hpp"

#include "apps/cpubomb.hpp"
#include "apps/flash_crowd.hpp"
#include "apps/membomb.hpp"
#include "apps/soplex.hpp"
#include "apps/twitter_analysis.hpp"
#include "apps/vlc_stream.hpp"
#include "apps/vlc_transcode.hpp"
#include "trace/diurnal.hpp"
#include "util/check.hpp"
#include "util/enum_names.hpp"

namespace stayaway::harness {

constexpr util::EnumName<SensitiveKind> kSensitiveNames[] = {
    {SensitiveKind::VlcStream, "vlc-stream"},
    {SensitiveKind::WebserviceCpu, "webservice-cpu"},
    {SensitiveKind::WebserviceMem, "webservice-mem"},
    {SensitiveKind::WebserviceMix, "webservice-mix"},
    {SensitiveKind::VlcTranscode, "vlc-transcode"},
    {SensitiveKind::FlashCrowd, "flash-crowd"},
};

constexpr util::EnumName<BatchKind> kBatchNames[] = {
    {BatchKind::None, "none"},
    {BatchKind::CpuBomb, "cpubomb"},
    {BatchKind::MemBomb, "membomb"},
    {BatchKind::Soplex, "soplex"},
    {BatchKind::TwitterAnalysis, "twitter-analysis"},
    {BatchKind::VlcTranscode, "vlc-transcode"},
    {BatchKind::Batch1, "batch-1"},
    {BatchKind::Batch2, "batch-2"},
};

const char* to_string(SensitiveKind kind) {
  return util::enum_name(kSensitiveNames, kind);
}

SensitiveKind sensitive_kind_from_string(const std::string& name) {
  return util::enum_value(kSensitiveNames, name, "sensitive app");
}

const char* to_string(BatchKind kind) {
  return util::enum_name(kBatchNames, kind);
}

BatchKind batch_kind_from_string(const std::string& name) {
  return util::enum_value(kBatchNames, name, "batch app");
}

sim::HostSpec paper_host() {
  sim::HostSpec spec;
  spec.cpu_cores = 4.0;
  spec.memory_mb = 4096.0;
  spec.membw_mbps = 16000.0;
  spec.disk_mbps = 200.0;
  spec.net_mbps = 1000.0;
  spec.swap_penalty = 8.0;
  return spec;
}

SensitiveSetup make_sensitive(SensitiveKind kind,
                              std::optional<trace::Trace> workload,
                              double duration_s, std::uint64_t seed) {
  SensitiveSetup out;
  switch (kind) {
    case SensitiveKind::VlcStream: {
      apps::VlcStreamSpec spec;
      spec.duration_s = duration_s;
      auto app = std::make_unique<apps::VlcStream>(spec, std::move(workload));
      out.probe = app.get();
      out.app = std::move(app);
      return out;
    }
    case SensitiveKind::WebserviceCpu:
    case SensitiveKind::WebserviceMem:
    case SensitiveKind::WebserviceMix: {
      apps::WebserviceSpec spec;
      spec.mix = (kind == SensitiveKind::WebserviceCpu)
                     ? apps::WorkloadMix::CpuIntensive
                     : (kind == SensitiveKind::WebserviceMem)
                           ? apps::WorkloadMix::MemIntensive
                           : apps::WorkloadMix::Mixed;
      spec.duration_s = duration_s;
      spec.seed = seed;
      auto app = std::make_unique<apps::Webservice>(spec, std::move(workload));
      out.probe = app.get();
      out.app = std::move(app);
      return out;
    }
    case SensitiveKind::VlcTranscode: {
      apps::VlcTranscodeSpec spec;
      if (duration_s > 0.0) spec.total_frames = spec.nominal_fps * duration_s;
      auto app = std::make_unique<apps::VlcTranscode>(spec);
      out.probe = app.get();
      out.app = std::move(app);
      return out;
    }
    case SensitiveKind::FlashCrowd: {
      apps::FlashCrowdSpec spec;
      spec.duration_s = duration_s;
      auto app = std::make_unique<apps::FlashCrowd>(spec, std::move(workload));
      out.probe = app.get();
      out.app = std::move(app);
      return out;
    }
  }
  SA_CHECK(false, "unhandled sensitive kind");
}

std::vector<std::unique_ptr<sim::AppModel>> make_batch(BatchKind kind) {
  std::vector<std::unique_ptr<sim::AppModel>> out;
  switch (kind) {
    case BatchKind::None:
      return out;
    case BatchKind::CpuBomb:
      out.push_back(std::make_unique<apps::CpuBomb>());
      return out;
    case BatchKind::MemBomb:
      out.push_back(std::make_unique<apps::MemBomb>());
      return out;
    case BatchKind::Soplex: {
      apps::SoplexSpec spec;
      spec.total_work_s = 1e9;  // effectively unbounded for the experiment
      out.push_back(std::make_unique<apps::Soplex>(spec));
      return out;
    }
    case BatchKind::TwitterAnalysis:
      out.push_back(std::make_unique<apps::TwitterAnalysis>());
      return out;
    case BatchKind::VlcTranscode:
      out.push_back(std::make_unique<apps::VlcTranscode>());
      return out;
    case BatchKind::Batch1: {
      out.push_back(std::make_unique<apps::TwitterAnalysis>());
      apps::SoplexSpec spec;
      spec.total_work_s = 1e9;
      out.push_back(std::make_unique<apps::Soplex>(spec));
      return out;
    }
    case BatchKind::Batch2:
      out.push_back(std::make_unique<apps::TwitterAnalysis>());
      out.push_back(std::make_unique<apps::MemBomb>());
      return out;
  }
  SA_CHECK(false, "unhandled batch kind");
}

trace::Trace compressed_diurnal(double experiment_s, double cycles,
                                std::uint64_t seed) {
  SA_REQUIRE(experiment_s > 0.0 && cycles > 0.0,
             "experiment length and cycle count must be positive");
  trace::DiurnalSpec spec;
  spec.days = cycles;
  spec.sample_interval_s = 900.0;  // 96 samples per simulated day
  spec.seed = seed;
  trace::Trace day_scale = trace::generate_diurnal(spec);
  // Compress: reuse the samples with an interval that fits the experiment.
  double interval = experiment_s / static_cast<double>(day_scale.size() - 1);
  return trace::Trace(day_scale.samples(), interval);
}

}  // namespace stayaway::harness
