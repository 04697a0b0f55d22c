// VLC streaming server model (the paper's first latency-sensitive app).
//
// The paper instruments VLC 2.0.5 streaming a movie in real time; "the
// minimum transcoding rate required to provide real time viewing without
// any loss of frames at the server side is defined as the QoS threshold"
// (§7.1). The model transcodes frames at a nominal rate with CPU demand
// scaled by the client workload intensity (a Trace); the achieved rate is
// the nominal rate times the end-to-end progress factor, smoothed over a
// short window the way a frame-rate counter would be.
#pragma once

#include <optional>

#include "apps/qos_latch.hpp"
#include "sim/app_model.hpp"
#include "trace/trace.hpp"

namespace stayaway::apps {

struct VlcStreamSpec {
  double nominal_fps = 30.0;    // achievable transcode rate, unthrottled
  double threshold_fps = 24.0;  // minimum for real-time delivery
  double cpu_at_peak = 2.6;     // cores demanded at workload peak
  double cpu_at_valley = 1.6;   // cores demanded at workload valley —
                                // real-time transcoding never idles (§7.1)
  double memory_mb = 450.0;     // decode/encode buffers
  double membw_mbps = 2500.0;   // frame buffer traffic at peak
  double net_at_peak_mbps = 220.0;
  double disk_mbps = 25.0;      // media file reads
  double smoothing = 0.35;      // EWMA factor for the rate counter
  double duration_s = -1.0;     // <= 0: streams until externally bounded
};

class VlcStream final : public sim::AppModel, public sim::QosProbe {
 public:
  /// workload: client intensity over time, normalized internally to [0,1];
  /// omit for a constant full-intensity stream.
  VlcStream(VlcStreamSpec spec, std::optional<trace::Trace> workload);
  explicit VlcStream(VlcStreamSpec spec = {})
      : VlcStream(spec, std::nullopt) {}

  std::string_view name() const override { return "vlc-stream"; }
  bool finished() const override;
  sim::ResourceDemand demand(sim::SimTime now) override;
  void advance(sim::SimTime now, double dt, const sim::Allocation& alloc) override;

  // QosProbe: value is the smoothed transcode rate in fps; violation is
  // latched per episode (a drained client buffer stays degraded until the
  // rate clearly recovers).
  double qos_value() const override { return smoothed_fps_; }
  double qos_threshold() const override { return spec_.threshold_fps; }
  bool violated() const override { return latch_.violated(); }

  /// Workload intensity in [0,1] at the given time.
  double intensity(sim::SimTime now) const;
  // sa-lint: test-observer(tests check the delivered frame rate)
  double frames_delivered() const { return frames_delivered_; }

 private:
  VlcStreamSpec spec_;
  std::optional<trace::Trace> workload_;
  double smoothed_fps_;
  QosLatch latch_;
  double frames_delivered_ = 0.0;
  double elapsed_s_ = 0.0;
};

}  // namespace stayaway::apps
