// Soplex (SPEC CPU2006 450.soplex) workload model.
//
// The LP simplex solver is CPU-bound with a working set that grows slowly
// as the factorized basis fills in, punctuated by periodic refactorization
// passes that stream the basis through memory. Figure 5 of the paper shows
// its signature in the mapped space: "a linear trajectory with a
// consistent orientation and slightly varying step length" — which is
// exactly what a constant-CPU, slowly-growing-memory vector produces.
#pragma once

#include "sim/app_model.hpp"

namespace stayaway::apps {

struct SoplexSpec {
  double cpu_cores = 1.0;
  double initial_mb = 250.0;
  double final_mb = 900.0;            // basis fully filled in
  double refactor_interval_s = 15.0;  // time between refactorizations
  double refactor_duration_s = 2.0;
  double refactor_membw_mbps = 6000.0;
  double solve_membw_mbps = 800.0;
  double total_work_s = 300.0;        // core-seconds to optimality
};

class Soplex final : public sim::AppModel {
 public:
  explicit Soplex(SoplexSpec spec = {});

  std::string_view name() const override { return "soplex"; }
  bool finished() const override { return work_done_ >= spec_.total_work_s; }
  sim::ResourceDemand demand(sim::SimTime now) override;
  void advance(sim::SimTime now, double dt, const sim::Allocation& alloc) override;

  // sa-lint: test-observer(tests check the progress the host granted)
  double work_done() const { return work_done_; }
  double working_set_mb() const;
  bool refactorizing() const;

 private:
  SoplexSpec spec_;
  double work_done_ = 0.0;
};

}  // namespace stayaway::apps
