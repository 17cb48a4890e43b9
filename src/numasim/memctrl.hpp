// Memory controller with bandwidth-limited queueing.
//
// Each NUMA domain owns one controller. An access occupies the controller
// for `service` cycles; concurrent demand in the same time window queues,
// so a flood of requests to one domain inflates latency — the contention
// pathology §2 describes (observed up to ~5x in the literature the paper
// cites [7]). Per-controller request counts feed the "memory request
// balance" metric (§4.1) and the Figure 1 distribution comparison.
#pragma once

#include <cstdint>

#include "numasim/queue_model.hpp"
#include "numasim/types.hpp"

namespace numaprof::numasim {

class MemoryController {
 public:
  MemoryController(Cycles pipe_latency, Cycles service) noexcept
      : pipe_latency_(pipe_latency), queue_(service) {}

  /// Issues one request at virtual time `now`. Returns the total cycles
  /// until data delivery: queueing delay + occupancy + pipe latency.
  Cycles request(Cycles now) noexcept {
    return queue_.enqueue(now) + queue_.service() + pipe_latency_;
  }

  std::uint64_t requests() const noexcept { return queue_.requests(); }

  void reset_stats() noexcept { queue_.reset_stats(); }

 private:
  Cycles pipe_latency_;
  QueueModel queue_;
};

}  // namespace numaprof::numasim
