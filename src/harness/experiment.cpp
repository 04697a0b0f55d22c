#include "harness/experiment.hpp"

#include <algorithm>
#include <utility>

#include "harness/fleet.hpp"
#include "util/check.hpp"

namespace stayaway::harness {

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::NoPrevention:
      return "no-prevention";
    case PolicyKind::StayAway:
      return "stay-away";
    case PolicyKind::Reactive:
      return "reactive";
    case PolicyKind::StaticThreshold:
      return "static-threshold";
  }
  return "unknown";
}

ExperimentResult run_experiment(const ExperimentSpec& spec) {
  FleetSpec fleet;
  fleet.hosts.push_back({"solo", spec});
  return std::move(run_fleet(fleet).hosts.front().result);
}

ExperimentResult run_isolated(ExperimentSpec spec) {
  spec.batch = BatchKind::None;
  spec.policy = PolicyKind::NoPrevention;
  return run_experiment(spec);
}

std::vector<double> gained_utilization(const ExperimentResult& colocated,
                                       const ExperimentResult& isolated) {
  SA_REQUIRE(colocated.utilization.size() == isolated.utilization.size(),
             "series must come from equally long runs");
  std::vector<double> out(colocated.utilization.size(), 0.0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = std::max(0.0, colocated.utilization[i] - isolated.utilization[i]);
  }
  return out;
}

}  // namespace stayaway::harness
