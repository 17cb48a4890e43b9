// The assembled NUMA machine: caches + controllers + interconnect.
//
// System resolves one memory access end-to-end and reports the latency and
// data source, which is exactly the information hardware address sampling
// exposes to the paper's tool. The caller (simrt::Machine) supplies the
// *home domain* of the address, which the OS layer (page tables) decides.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "numasim/cache.hpp"
#include "numasim/interconnect.hpp"
#include "numasim/memctrl.hpp"
#include "numasim/topology.hpp"
#include "numasim/types.hpp"

namespace numaprof::numasim {

/// Result of one resolved memory access.
struct MemoryResult {
  Cycles latency = 0;       // total cycles to data delivery
  DataSource source = DataSource::kL1;
  bool l3_miss = false;     // true when the home L3 missed (MRK's event)
};

class System {
 public:
  explicit System(Topology topology);

  const Topology& topology() const noexcept { return topology_; }

  /// Resolves a data access from `core` to a byte address whose page is
  /// homed in `home`. `now` is the requesting thread's virtual time.
  /// The lookup order models a memory-side hierarchy: requester L1 -> L2,
  /// then the home domain's L3 (crossing the interconnect if remote), then
  /// the home domain's DRAM behind its memory controller.
  MemoryResult access(CoreId core, DomainId home, std::uint64_t byte_addr,
                      bool is_write, Cycles now);

  /// Invalidates a line everywhere (page-migration support).
  void invalidate_line(LineAddr line) noexcept;

  /// Drops all cached state; statistics are preserved.
  void clear_caches() noexcept;

  /// Per-domain DRAM request counts (the Figure 1 balance measurement).
  std::vector<std::uint64_t> controller_requests() const;

  const Interconnect& interconnect() const noexcept { return interconnect_; }
  Interconnect& interconnect() noexcept { return interconnect_; }

  const SetAssocCache& l1(CoreId core) const { return l1_.at(core); }
  const SetAssocCache& l2(CoreId core) const { return l2_.at(core); }
  const SetAssocCache& l3(DomainId domain) const { return l3_.at(domain); }

  void reset_stats() noexcept;

 private:
  Topology topology_;
  std::vector<SetAssocCache> l1_;               // per core
  std::vector<SetAssocCache> l2_;               // per core
  std::vector<SetAssocCache> l3_;               // per domain
  std::vector<MemoryController> controllers_;   // per domain
  Interconnect interconnect_;
};

}  // namespace numaprof::numasim
