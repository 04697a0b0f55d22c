#include "monitor/sampler.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace stayaway::monitor {

HostSampler::HostSampler(const sim::SimHost& host, SamplerConfig options)
    : host_(&host),
      options_(std::move(options)),
      layout_vm_count_(host.vm_count()),
      rng_(options_.seed) {
  SA_REQUIRE(!options_.metrics.empty(), "sampler needs at least one metric");
  SA_REQUIRE(host.vm_count() > 0, "sampler needs at least one VM");
  SA_REQUIRE(options_.noise_fraction >= 0.0, "noise must be non-negative");

  layout_.metrics = options_.metrics;
  std::vector<sim::VmId> batch_ids;
  for (sim::VmId id = 0; id < host.vm_count(); ++id) {
    const auto& vm = host.vm(id);
    if (options_.aggregate_batch && vm.kind() == sim::VmKind::Batch) {
      batch_ids.push_back(id);
      continue;
    }
    layout_.entities.push_back(vm.name());
    entity_vms_.push_back({id});
  }
  if (!batch_ids.empty()) {
    layout_.entities.push_back(batch_ids.size() == 1
                                   ? host.vm(batch_ids.front()).name()
                                   : std::string("batch-aggregate"));
    entity_vms_.push_back(std::move(batch_ids));
  }
}

void HostSampler::sample(Measurement& m) {
  SA_CHECK(host_->vm_count() == layout_vm_count_,
           "host VM set changed after the sampler fixed its layout; "
           "construct the sampler (or runtime) after adding every VM");
  ++samples_taken_;
  m.time = host_->now();
  m.values.assign(layout_.dimension(), 0.0);
  for (std::size_t e = 0; e < entity_vms_.size(); ++e) {
    for (sim::VmId id : entity_vms_[e]) {
      const auto& alloc = host_->vm(id).last_allocation();
      for (std::size_t k = 0; k < layout_.metrics.size(); ++k) {
        m.values[layout_.index_of(e, k)] +=
            allocation_metric(alloc, layout_.metrics[k]);
      }
    }
  }
  if (options_.noise_fraction > 0.0) {
    for (double& v : m.values) {
      v = std::max(0.0, v * (1.0 + rng_.normal(0.0, options_.noise_fraction)));
    }
  }
  if (injector_ != nullptr) injector_->corrupt_sample(m.time, m.values);
}

void HostSampler::persist(util::StateIO& io) {
  io.rng("sampler_rng", rng_);
  io.u64("samples_taken", samples_taken_);
}

}  // namespace stayaway::monitor
