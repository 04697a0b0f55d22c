// Twitter influence ranking (CloudSuite graph analytics) workload model.
//
// §7.2: "Twitter-Analysis experiences a mix of both CPU and memory
// intensive phases, and is throttled only during its memory intensive
// phase." Modelled as alternating score (CPU-bound over a resident
// partition) and scan (streaming the edge list, memory-capacity and
// bandwidth heavy) phases. Its phase changes are what let Stay-Away
// recover ~50% utilization (Fig. 11) versus ~5% for CPUBomb.
#pragma once

#include "apps/phase.hpp"
#include "sim/app_model.hpp"

namespace stayaway::apps {

struct TwitterAnalysisSpec {
  double score_s = 14.0;            // CPU phase nominal duration
  double score_cpu = 2.0;
  double score_mb = 700.0;
  double scan_s = 8.0;              // memory phase nominal duration
  double scan_cpu = 0.6;
  double scan_mb = 3000.0;          // edge list partition resident during scan
  double scan_membw_mbps = 8000.0;
  double total_work_s = -1.0;       // <= 0: loops until externally bounded
};

class TwitterAnalysis final : public sim::AppModel {
 public:
  explicit TwitterAnalysis(TwitterAnalysisSpec spec = {});

  std::string_view name() const override { return "twitter-analysis"; }
  bool finished() const override;
  sim::ResourceDemand demand(sim::SimTime now) override;
  void advance(sim::SimTime now, double dt, const sim::Allocation& alloc) override;

  // sa-lint: test-observer(tests check the scan/aggregate phase order)
  bool in_memory_phase() const;
  // sa-lint: test-observer(tests check the progress the host granted)
  double work_done() const { return work_done_; }

 private:
  TwitterAnalysisSpec spec_;
  PhaseMachine cycle_;
  double work_done_ = 0.0;
};

}  // namespace stayaway::apps
