// Epoch-windowed queueing model for bandwidth-limited resources.
//
// Memory controllers and interconnect links serve one transfer per
// `service` cycles. Queueing delay is computed from the demand observed in
// the request's own epoch (a fixed window of virtual time): the k-th
// request arriving in an epoch waits until the epoch's backlog (k*service)
// has drained. This formulation is insensitive to the order in which the
// discrete-event scheduler happens to *process* requests from concurrently
// executing threads (their virtual timestamps can be mildly out of order
// across scheduling quanta), yet it is self-limiting in the closed loop:
// queueing delay stalls the requesting thread, which lowers the demand in
// subsequent epochs until utilization settles near the service bandwidth —
// reproducing the several-fold contention-induced latency inflation of §2
// without unbounded backlog growth from artificial arrival-order skew.
#pragma once

#include <array>
#include <cstdint>

#include "numasim/types.hpp"

namespace numaprof::numasim {

class QueueModel {
 public:
  explicit QueueModel(Cycles service, Cycles epoch_length = 4096) noexcept
      : service_(service == 0 ? 1 : service),
        epoch_length_(epoch_length == 0 ? 1 : epoch_length) {}

  /// Registers one request at virtual time `now`; returns its queueing
  /// delay (excluding the service time itself).
  Cycles enqueue(Cycles now) noexcept {
    const std::uint64_t epoch = now / epoch_length_;
    Slot& slot = slots_[epoch & (slots_.size() - 1)];
    if (slot.epoch != epoch) {
      slot.epoch = epoch;
      slot.count = 0;
    }
    const std::uint64_t backlog =
        static_cast<std::uint64_t>(slot.count) * service_;
    ++slot.count;
    ++requests_;
    const Cycles elapsed = now - epoch * epoch_length_;
    const Cycles delay = backlog > elapsed ? backlog - elapsed : 0;
    max_delay_ = delay > max_delay_ ? delay : max_delay_;
    return delay;
  }

  Cycles service() const noexcept { return service_; }
  std::uint64_t requests() const noexcept { return requests_; }
  /// Largest queueing delay any request has seen since the last reset.
  Cycles max_delay() const noexcept { return max_delay_; }

  void reset_stats() noexcept {
    requests_ = 0;
    max_delay_ = 0;
  }

 private:
  struct Slot {
    std::uint64_t epoch = ~0ULL;
    std::uint32_t count = 0;
  };

  Cycles service_;
  Cycles epoch_length_;
  std::array<Slot, 128> slots_;  // power-of-two ring; must cover more
                                 // virtual time than the scheduler's
                                 // maximum thread-clock skew (one quantum)
  std::uint64_t requests_ = 0;
  Cycles max_delay_ = 0;
};

}  // namespace numaprof::numasim
