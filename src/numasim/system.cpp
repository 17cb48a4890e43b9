#include "numasim/system.hpp"

namespace numaprof::numasim {

System::System(Topology topology)
    : topology_(std::move(topology)),
      interconnect_(topology_.domain_count, topology_.remote_hop_latency,
                    topology_.link_service) {
  const auto cores = topology_.core_count();
  l1_.reserve(cores);
  l2_.reserve(cores);
  for (std::uint32_t c = 0; c < cores; ++c) {
    l1_.emplace_back(topology_.l1);
    l2_.emplace_back(topology_.l2);
  }
  l3_.reserve(topology_.domain_count);
  controllers_.reserve(topology_.domain_count);
  for (std::uint32_t d = 0; d < topology_.domain_count; ++d) {
    l3_.emplace_back(topology_.l3);
    controllers_.emplace_back(topology_.dram_latency_of(d),
                              topology_.controller_service_of(d));
  }
}

MemoryResult System::access(CoreId core, DomainId home,
                            std::uint64_t byte_addr, bool /*is_write*/,
                            Cycles now) {
  const LineAddr line = line_of(byte_addr);
  const DomainId requester = topology_.domain_of_core(core);
  const bool remote = requester != home;

  MemoryResult result;
  if (l1_[core].access(line)) {
    result.latency = topology_.l1.hit_latency;
    result.source = DataSource::kL1;
    return result;
  }
  if (l2_[core].access(line)) {
    result.latency = topology_.l2.hit_latency;
    result.source = DataSource::kL2;
    return result;
  }

  // Past the private caches: traverse to the home domain's L3. Memory-only
  // domains (CXL-type expanders) have no home-side cache, so every access
  // that reaches them pays the full DRAM path — the far tier can never
  // come back faster than socket-attached memory.
  Cycles latency = topology_.l2.hit_latency;  // L2 miss detection cost
  latency += interconnect_.round_trip(requester, home, now + latency,
                                      topology_.distance(requester, home));
  if (!topology_.is_memory_only(home) && l3_[home].access(line)) {
    latency += topology_.l3.hit_latency;
    result.latency = latency;
    result.source = remote ? DataSource::kRemoteL3 : DataSource::kLocalL3;
    return result;
  }

  // L3 miss: DRAM behind the home controller.
  result.l3_miss = true;
  latency += topology_.l3.hit_latency;  // L3 miss detection cost
  latency += controllers_[home].request(now + latency);
  result.latency = latency;
  result.source = remote ? DataSource::kRemoteDram : DataSource::kLocalDram;
  return result;
}

void System::invalidate_line(LineAddr line) noexcept {
  for (auto& cache : l1_) cache.invalidate(line);
  for (auto& cache : l2_) cache.invalidate(line);
  for (auto& cache : l3_) cache.invalidate(line);
}

void System::clear_caches() noexcept {
  for (auto& cache : l1_) cache.clear();
  for (auto& cache : l2_) cache.clear();
  for (auto& cache : l3_) cache.clear();
}

std::vector<std::uint64_t> System::controller_requests() const {
  std::vector<std::uint64_t> counts;
  counts.reserve(controllers_.size());
  for (const auto& controller : controllers_) {
    counts.push_back(controller.requests());
  }
  return counts;
}

void System::reset_stats() noexcept {
  for (auto& controller : controllers_) controller.reset_stats();
  interconnect_.reset_stats();
}

}  // namespace numaprof::numasim
