// Proportional-share contention resolution.
//
// Rates (CPU, memory bandwidth, disk, network) are shared proportionally
// to demand when oversubscribed — the fair-share behaviour of CFS, the
// memory bus and block/network schedulers. Memory capacity is different:
// demand beyond physical memory forces swapping, and a VM with swapped
// pages pays a multiplicative progress penalty (the cliff §7.2 relies on).
#pragma once

#include <vector>

#include "sim/resource.hpp"

namespace stayaway::sim {

/// Resolves one tick of contention into `out`, replacing its contents
/// (its storage is reused, so a caller that keeps the buffer allocates
/// nothing once it has grown). demands[i] describes VM i; out is aligned
/// by index. Zero-demand entries receive zero and progress 1.
void resolve_contention(const HostSpec& host,
                        const std::vector<ResourceDemand>& demands,
                        std::vector<Allocation>& out);

}  // namespace stayaway::sim
