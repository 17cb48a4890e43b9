// Self-observability for the online measurement path.
//
// The profiler's own health (sample rates, drops, fallback transitions,
// first-touch trap counts) used to be visible only post-mortem in the
// merged profile. This subsystem makes it observable LIVE, the way
// NUMAscope streams hardware metrics: every component of the measurement
// path (PMU samplers, the sampling watchdog, the first-touch trapper, the
// heap tracker, the simulated runtime) publishes counters and events into
// a lock-free per-thread TelemetryRing, and a snapshot aggregator
// periodically folds the rings into a TelemetrySnapshot that sinks render
// as a live status line or a JSONL trace (core/telemetry_stream.hpp).
//
// Concurrency contract:
//   - counters are cumulative relaxed atomics: any number of writers, any
//     number of readers, at any time;
//   - the event ring is a bounded single-producer/single-consumer queue
//     (one producer per ring — the thread the ring belongs to; one
//     consumer — whoever calls TelemetryHub::snapshot()). A full ring
//     drops the NEWEST event and counts the drop, so publishing never
//     blocks the measurement path;
//   - the hot tables (pages / variables / call paths) follow the same
//     single-producer contract; every slot field is a relaxed atomic, so
//     a concurrent snapshot may observe one slot mid-replacement (a
//     monitoring-grade inconsistency, never a data race);
//   - ring creation is lock-free on the hot path (an atomic pointer per
//     slot); only first contact with a new thread id takes a mutex.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace numaprof::support {

/// Cumulative per-thread counters. Everything is monotonic over a run;
/// rates are derived by differencing successive snapshots.
enum class TelemetryCounter : std::uint8_t {
  kSamples,            // samples emitted by the active mechanism
  kMemorySamples,      // subset of kSamples that were memory accesses
  kDroppedSamples,     // samples suppressed in flight (fault injection)
  kCorruptedSamples,   // samples mangled in flight
  kFirstTouchTraps,    // simulated SIGSEGV first-touch traps (§6)
  kHeapRegistrations,  // heap-tracker variable registrations
  kHeapFrees,          // heap-tracker deregistrations
  kMatchSamples,       // running M_l (local sampled accesses)
  kMismatchSamples,    // running M_r (remote sampled accesses)
  kInstructions,       // instructions retired (simrt runtime)
  kEventsDropped,      // telemetry events lost to a full ring
  kLatencyCycles,      // summed sampled access latency (all memory samples)
  kRemoteLatencyCycles,  // summed sampled latency of remote (M_r) accesses
};
inline constexpr std::size_t kTelemetryCounterCount = 13;

/// Stable kebab-case key, used verbatim in the JSONL schema (docs/api.md).
std::string_view to_string(TelemetryCounter c) noexcept;

enum class TelemetryEventKind : std::uint8_t {
  kMechanismUnavailable,  // an availability probe failed
  kMechanismFallback,     // a substitute mechanism was selected
  kPeriodRetune,          // the watchdog retuned the sampling period
  kThreadStart,           // the runtime spawned a simulated thread
  kThreadFinish,          // a simulated thread ran to completion
  kIngestDegraded,        // the ingestion service degraded (src/ingest/)
};
inline constexpr std::size_t kTelemetryEventKindCount = 6;

/// Stable kebab-case name, used verbatim in the JSONL schema.
std::string_view to_string(TelemetryEventKind k) noexcept;

/// One discrete occurrence on the measurement path. POD on purpose: events
/// travel through a lock-free ring, so the detail string is a bounded
/// inline buffer, not a heap allocation.
struct TelemetryEvent {
  TelemetryEventKind kind = TelemetryEventKind::kThreadStart;
  std::uint32_t tid = 0;
  std::uint64_t time = 0;   // virtual cycles when published
  std::uint64_t value = 0;  // kind-specific (new period, mechanism id, ...)
  char detail[56] = {};     // NUL-terminated, truncated human context

  std::string_view detail_view() const noexcept { return detail; }
  void set_detail(std::string_view text) noexcept {
    const std::size_t n = text.size() < sizeof(detail) - 1
                              ? text.size()
                              : sizeof(detail) - 1;
    std::memcpy(detail, text.data(), n);
    detail[n] = '\0';
  }
};

/// Which bounded per-ring hot table a publish lands in.
enum class HotTableKind : std::uint8_t {
  kPages,      // keyed by page id, per home domain
  kVariables,  // keyed by variable id, per home domain
  kPaths,      // keyed by CCT access-leaf node id (per thread, domain 0)
};
inline constexpr std::size_t kHotTableKindCount = 3;

/// Slots per hot table per ring: the Space-Saving capacity. When a table
/// is full, a new key evicts the current minimum-count slot and inherits
/// min+1 — the classic bounded top-K guarantee (the true top keys are
/// retained once their counts exceed the noise floor).
inline constexpr std::size_t kHotSlotsPerTable = 16;
/// Rows kept per domain when a snapshot folds the hot tables.
inline constexpr std::size_t kHotTopK = 8;
/// Label bytes kept per hot slot (truncated, NUL-terminated).
inline constexpr std::size_t kHotLabelBytes = 48;

/// One folded hot-table row inside a snapshot (plain values, no atomics).
struct HotCounter {
  std::uint64_t key = 0;       // page id / variable id / CCT node id
  std::uint32_t domain = 0;    // home domain (pages, variables); 0 for paths
  std::uint64_t count = 0;     // sampled touches attributed to the key
  std::uint64_t mismatch = 0;  // remote (M_r) subset of count
  std::string label;           // variable name / rendered call path

  friend bool operator==(const HotCounter& a, const HotCounter& b) {
    return a.key == b.key && a.domain == b.domain && a.count == b.count &&
           a.mismatch == b.mismatch && a.label == b.label;
  }
};

class TelemetryRing;

/// One live hot-table slot as the snapshot fold ranks it. The label stays
/// in the ring (TelemetryRing::hot_label) until the row survives the
/// top-K cut.
struct HotEntry {
  std::uint64_t key = 0;
  std::uint64_t count = 0;
  std::uint64_t mismatch = 0;
  std::uint32_t domain = 0;
  std::uint32_t slot = 0;  // index within the ring's table
  const TelemetryRing* ring = nullptr;
  bool labeled = false;  // the slot's label is non-empty
};

/// One thread's telemetry: a counter block plus a bounded event queue.
class TelemetryRing {
 public:
  /// `event_capacity` is rounded up to a power of two (minimum 8).
  TelemetryRing(std::uint32_t tid, std::uint32_t domain_count,
                std::size_t event_capacity);

  std::uint32_t tid() const noexcept { return tid_; }
  std::uint32_t domain_count() const noexcept {
    return static_cast<std::uint32_t>(domain_match_.size());
  }
  std::size_t event_capacity() const noexcept { return slots_.size(); }

  // --- producer side (the owning thread) ----------------------------
  void add(TelemetryCounter c, std::uint64_t delta = 1) noexcept {
    counters_[static_cast<std::size_t>(c)].fetch_add(
        delta, std::memory_order_relaxed);
  }
  /// Running per-domain M_l/M_r: one sampled access homed on `domain`.
  void add_domain_sample(std::uint32_t domain, bool mismatch) noexcept {
    if (domain >= domain_match_.size()) return;
    auto& column = mismatch ? domain_mismatch_ : domain_match_;
    column[domain].fetch_add(1, std::memory_order_relaxed);
  }
  /// Enqueues an event; on a full ring the event is dropped (newest-loses)
  /// and kEventsDropped is incremented. Returns false on drop.
  bool publish(const TelemetryEvent& event) noexcept;
  /// One sampled touch of `key` (page / variable / path leaf) homed on
  /// `domain`. Bounded Space-Saving accounting; `label` is copied only
  /// when the key first claims a slot.
  void add_hot(HotTableKind table, std::uint64_t key, std::uint32_t domain,
               bool mismatch, std::string_view label = {}) noexcept;

  // --- consumer side (the snapshot aggregator) ----------------------
  std::uint64_t counter(TelemetryCounter c) const noexcept {
    return counters_[static_cast<std::size_t>(c)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t domain_match(std::uint32_t domain) const noexcept {
    return domain < domain_match_.size()
               ? domain_match_[domain].load(std::memory_order_relaxed)
               : 0;
  }
  std::uint64_t domain_mismatch(std::uint32_t domain) const noexcept {
    return domain < domain_mismatch_.size()
               ? domain_mismatch_[domain].load(std::memory_order_relaxed)
               : 0;
  }
  /// Drains every queued event into `out` (appending, oldest first).
  /// Single consumer only.
  void drain(std::vector<TelemetryEvent>& out);
  /// Appends every live hot-table slot to `out` (unordered; callers sort).
  void collect_hot(HotTableKind table, std::vector<HotCounter>& out) const;
  /// The same slots without their labels, for ranking before copying.
  void collect_hot(HotTableKind table, std::vector<HotEntry>& out) const;
  /// The label of slot `slot` of `table`.
  std::string hot_label(HotTableKind table, std::uint32_t slot) const;

 private:
  /// One bounded hot-table slot. Every field is a relaxed atomic so the
  /// single producer and the snapshot consumer never race; `used` is the
  /// liveness guard (released last on claim, cleared first on eviction).
  struct HotSlot {
    std::atomic<std::uint64_t> key{0};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> mismatch{0};
    std::atomic<std::uint32_t> domain{0};
    std::atomic<std::uint32_t> used{0};
    std::array<std::atomic<std::uint64_t>, kHotLabelBytes / 8> label{};
  };
  using HotTable = std::array<HotSlot, kHotSlotsPerTable>;

  static void store_label(HotSlot& slot, std::string_view label) noexcept;

  std::uint32_t tid_;
  std::array<std::atomic<std::uint64_t>, kTelemetryCounterCount> counters_{};
  std::vector<std::atomic<std::uint64_t>> domain_match_;
  std::vector<std::atomic<std::uint64_t>> domain_mismatch_;
  std::array<HotTable, kHotTableKindCount> hot_{};
  std::vector<TelemetryEvent> slots_;
  std::size_t mask_;
  alignas(64) std::atomic<std::uint64_t> head_{0};  // next write position
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // next read position
};

/// One thread's folded state inside a snapshot (plain values, no atomics).
struct ThreadTelemetry {
  std::uint32_t tid = 0;
  std::array<std::uint64_t, kTelemetryCounterCount> counters{};
  std::vector<std::uint64_t> domain_match;
  std::vector<std::uint64_t> domain_mismatch;
  /// This thread's hottest sampled call paths (count desc, key asc,
  /// at most kHotTopK).
  std::vector<HotCounter> hot_paths;

  std::uint64_t counter(TelemetryCounter c) const noexcept {
    return counters[static_cast<std::size_t>(c)];
  }
};

/// The fold of every ring at one instant: cumulative totals, per-thread
/// rows (ascending tid), and the events drained since the previous
/// snapshot, sorted by (time, tid) for deterministic rendering.
struct TelemetrySnapshot {
  std::uint64_t sequence = 0;  // 1-based snapshot number
  std::uint64_t time = 0;      // virtual cycles, supplied by the caller
  std::array<std::uint64_t, kTelemetryCounterCount> totals{};
  std::vector<std::uint64_t> domain_match;
  std::vector<std::uint64_t> domain_mismatch;
  std::vector<ThreadTelemetry> threads;
  std::vector<TelemetryEvent> events;
  /// Hottest pages / variables folded across every ring, grouped by
  /// (key, home domain) and trimmed to kHotTopK rows per domain, sorted
  /// (domain asc, count desc, mismatch desc, key asc).
  std::vector<HotCounter> hot_pages;
  std::vector<HotCounter> hot_vars;

  std::uint64_t total(TelemetryCounter c) const noexcept {
    return totals[static_cast<std::size_t>(c)];
  }
  /// Fraction of would-be samples lost in flight.
  double drop_fraction() const noexcept {
    const std::uint64_t kept = total(TelemetryCounter::kSamples);
    const std::uint64_t lost = total(TelemetryCounter::kDroppedSamples);
    return kept + lost == 0
               ? 0.0
               : static_cast<double>(lost) / static_cast<double>(kept + lost);
  }
};

struct TelemetryConfig {
  /// Width of the per-domain M_l/M_r columns in rings created later.
  std::uint32_t domain_count = 1;
  /// Event-queue capacity per ring (rounded up to a power of two).
  std::size_t event_capacity = 256;
};

/// Owns one TelemetryRing per publishing thread and folds them into
/// snapshots. Publishing through ring() is lock-free after a thread's
/// first contact; snapshot() is single-consumer.
class TelemetryHub {
 public:
  /// Thread ids at or above this publish into the shared overflow ring.
  static constexpr std::uint32_t kMaxThreads = 512;

  explicit TelemetryHub(TelemetryConfig config = {});
  ~TelemetryHub();
  TelemetryHub(const TelemetryHub&) = delete;
  TelemetryHub& operator=(const TelemetryHub&) = delete;

  /// Adjusts the domain width used for rings created AFTER this call
  /// (existing rings keep their width). The profiler calls this before
  /// any samples flow.
  void set_domain_count(std::uint32_t domains) noexcept {
    config_.domain_count = domains == 0 ? 1 : domains;
  }
  std::uint32_t domain_count() const noexcept { return config_.domain_count; }

  /// The calling thread's ring, created on first contact.
  TelemetryRing& ring(std::uint32_t tid);
  /// Number of rings created so far.
  std::size_t ring_count() const noexcept;

  /// Folds every ring: cumulative counters plus the events queued since
  /// the last snapshot. Deterministic: threads ascend by tid, events sort
  /// by (time, tid, kind). Call from one thread at a time.
  TelemetrySnapshot snapshot(std::uint64_t time = 0);

 private:
  void fold_hot(HotTableKind table, const std::vector<HotEntry>& raw,
                std::vector<HotCounter>& out);

  TelemetryConfig config_;
  std::array<std::atomic<TelemetryRing*>, kMaxThreads> rings_{};
  std::mutex growth_;
  std::uint64_t sequence_ = 0;
  // Scratch that snapshot() reuses from call to call.
  std::size_t threads_seen_ = 0;
  std::vector<HotEntry> raw_pages_;
  std::vector<HotEntry> raw_vars_;
  std::vector<HotEntry> raw_paths_;
  std::vector<HotEntry> groups_;
  std::vector<std::uint32_t> group_index_;
};

}  // namespace numaprof::support
