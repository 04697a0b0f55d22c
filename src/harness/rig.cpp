#include "harness/rig.hpp"

#include <cmath>
#include <set>
#include <string>
#include <utility>

#include "apps/webservice.hpp"
#include "util/check.hpp"

namespace stayaway::harness {

HostRig build_host_rig(const ExperimentSpec& spec,
                       const std::vector<TwinSpec>& twins) {
  SA_REQUIRE(spec.duration_s > 0.0 && std::isfinite(spec.duration_s),
             "experiment duration must be positive and finite");
  SA_REQUIRE(spec.period_s >= spec.tick_s, "period must cover >= one tick");

  HostRig rig;
  rig.host = std::make_unique<sim::SimHost>(spec.host, spec.tick_s);
  sim::SimHost& host = *rig.host;

  SensitiveSetup sensitive = make_sensitive(
      spec.sensitive, spec.workload, spec.duration_s - spec.sensitive_start_s,
      spec.seed);
  rig.probe = sensitive.probe;
  rig.webservice = dynamic_cast<const apps::Webservice*>(sensitive.app.get());
  std::string sensitive_name(sensitive.app->name());
  rig.sensitive_id =
      host.add_vm(std::move(sensitive_name), sim::VmKind::Sensitive,
                  std::move(sensitive.app), spec.sensitive_start_s);

  for (auto& app : make_batch(spec.batch)) {
    std::string batch_name(app->name());
    rig.batch_ids.push_back(host.add_vm(std::move(batch_name),
                                        sim::VmKind::Batch, std::move(app),
                                        spec.batch_start_s));
  }
  std::set<std::string> extra_names;
  for (const auto& extra : spec.extra_batch) {
    SA_REQUIRE(!extra.name.empty(), "extra batch VM names must be non-empty");
    SA_REQUIRE(extra_names.insert(extra.name).second,
               "duplicate extra batch VM name: " + extra.name);
    auto apps = make_batch(extra.kind);
    SA_REQUIRE(!apps.empty(), "extra batch VM kind must not be 'none'");
    std::size_t index = 0;
    for (auto& app : apps) {
      // Multi-app kinds (Batch1/Batch2) get a per-app name suffix so
      // every VM name on the host stays distinct.
      std::string name = apps.size() == 1
                             ? extra.name
                             : extra.name + "-" + std::to_string(index);
      rig.batch_ids.push_back(host.add_vm(std::move(name), sim::VmKind::Batch,
                                          std::move(app), extra.start_s));
      ++index;
    }
  }
  for (const TwinSpec& twin : twins) {
    SA_REQUIRE(!twin.name.empty(), "cluster twin names must be non-empty");
    auto apps = make_batch(twin.kind);
    SA_REQUIRE(apps.size() == 1,
               "cluster twins need a single-app batch kind: " + twin.name);
    std::string name = twin.name;
    sim::VmId id = host.add_vm(std::move(name), sim::VmKind::Batch,
                               std::move(apps.front()), twin.start_s);
    if (!twin.attached) host.vm(id).detach();
    rig.twin_ids.push_back(id);
    rig.batch_ids.push_back(id);
  }
  return rig;
}

core::StayAwayConfig derive_stayaway_config(const ExperimentSpec& spec) {
  core::StayAwayConfig sa_config = spec.stayaway;
  sa_config.period_s = spec.period_s;
  sa_config.seed = spec.seed;
  sa_config.sampler.seed = spec.seed ^ 0xabcdULL;
  return sa_config;
}

}  // namespace stayaway::harness
