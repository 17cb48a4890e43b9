#include "support/telemetry.hpp"

#include <algorithm>

namespace numaprof::support {

std::string_view to_string(TelemetryCounter c) noexcept {
  switch (c) {
    case TelemetryCounter::kSamples: return "samples";
    case TelemetryCounter::kMemorySamples: return "memory-samples";
    case TelemetryCounter::kDroppedSamples: return "dropped-samples";
    case TelemetryCounter::kCorruptedSamples: return "corrupted-samples";
    case TelemetryCounter::kFirstTouchTraps: return "first-touch-traps";
    case TelemetryCounter::kHeapRegistrations: return "heap-registrations";
    case TelemetryCounter::kHeapFrees: return "heap-frees";
    case TelemetryCounter::kMatchSamples: return "match-samples";
    case TelemetryCounter::kMismatchSamples: return "mismatch-samples";
    case TelemetryCounter::kInstructions: return "instructions";
    case TelemetryCounter::kEventsDropped: return "events-dropped";
    case TelemetryCounter::kLatencyCycles: return "latency-cycles";
    case TelemetryCounter::kRemoteLatencyCycles:
      return "remote-latency-cycles";
  }
  return "unknown";
}

std::string_view to_string(TelemetryEventKind k) noexcept {
  switch (k) {
    case TelemetryEventKind::kMechanismUnavailable:
      return "mechanism-unavailable";
    case TelemetryEventKind::kMechanismFallback: return "mechanism-fallback";
    case TelemetryEventKind::kPeriodRetune: return "period-retune";
    case TelemetryEventKind::kThreadStart: return "thread-start";
    case TelemetryEventKind::kThreadFinish: return "thread-finish";
    case TelemetryEventKind::kIngestDegraded: return "ingest-degraded";
  }
  return "unknown";
}

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

/// The published order of folded page / variable rows: (domain asc,
/// count desc, mismatch desc, key asc). Folded rows are distinct (key,
/// domain) groups, so this is a total order.
bool hotter(const HotEntry& a, const HotEntry& b) {
  if (a.domain != b.domain) return a.domain < b.domain;
  if (a.count != b.count) return a.count > b.count;
  if (a.mismatch != b.mismatch) return a.mismatch > b.mismatch;
  return a.key < b.key;
}

/// The published order of one thread's call paths: (count desc, key asc;
/// domain breaks the tie a path published under two domains would leave).
bool hotter_path(const HotEntry& a, const HotEntry& b) {
  if (a.count != b.count) return a.count > b.count;
  if (a.key != b.key) return a.key < b.key;
  return a.domain < b.domain;
}

HotCounter with_label(HotTableKind table, const HotEntry& entry) {
  return HotCounter{.key = entry.key,
                    .domain = entry.domain,
                    .count = entry.count,
                    .mismatch = entry.mismatch,
                    .label = entry.ring->hot_label(table, entry.slot)};
}

}  // namespace

TelemetryRing::TelemetryRing(std::uint32_t tid, std::uint32_t domain_count,
                             std::size_t event_capacity)
    : tid_(tid),
      domain_match_(domain_count == 0 ? 1 : domain_count),
      domain_mismatch_(domain_count == 0 ? 1 : domain_count),
      slots_(round_up_pow2(event_capacity)),
      mask_(slots_.size() - 1) {
  for (auto& c : domain_match_) c.store(0, std::memory_order_relaxed);
  for (auto& c : domain_mismatch_) c.store(0, std::memory_order_relaxed);
}

bool TelemetryRing::publish(const TelemetryEvent& event) noexcept {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  if (head - tail >= slots_.size()) {
    // Newest-loses: dropping here keeps already-queued history intact and
    // never blocks the measurement path.
    add(TelemetryCounter::kEventsDropped);
    return false;
  }
  slots_[head & mask_] = event;
  head_.store(head + 1, std::memory_order_release);
  return true;
}

void TelemetryRing::store_label(HotSlot& slot,
                                std::string_view label) noexcept {
  char bytes[kHotLabelBytes] = {};
  // copy(), unlike memcpy, is defined for an empty view's null data().
  label.copy(bytes, kHotLabelBytes - 1);
  for (std::size_t w = 0; w < slot.label.size(); ++w) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + w * 8, 8);
    slot.label[w].store(word, std::memory_order_relaxed);
  }
}

void TelemetryRing::add_hot(HotTableKind table, std::uint64_t key,
                            std::uint32_t domain, bool mismatch,
                            std::string_view label) noexcept {
  HotTable& slots = hot_[static_cast<std::size_t>(table)];
  // Existing (key, domain) entry: bump in place.
  for (HotSlot& s : slots) {
    if (s.used.load(std::memory_order_relaxed) != 0 &&
        s.key.load(std::memory_order_relaxed) == key &&
        s.domain.load(std::memory_order_relaxed) == domain) {
      s.count.fetch_add(1, std::memory_order_relaxed);
      if (mismatch) s.mismatch.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  // Free slot: claim it (label and identity first, `used` released last so
  // the consumer never reads a half-written slot as live).
  for (HotSlot& s : slots) {
    if (s.used.load(std::memory_order_relaxed) != 0) continue;
    s.key.store(key, std::memory_order_relaxed);
    s.domain.store(domain, std::memory_order_relaxed);
    s.count.store(1, std::memory_order_relaxed);
    s.mismatch.store(mismatch ? 1 : 0, std::memory_order_relaxed);
    store_label(s, label);
    s.used.store(1, std::memory_order_release);
    return;
  }
  // Full: Space-Saving replacement of the minimum-count slot. The new key
  // inherits min+1 so a genuinely hot key overtakes the noise floor.
  HotSlot* victim = &slots[0];
  std::uint64_t min_count = victim->count.load(std::memory_order_relaxed);
  for (HotSlot& s : slots) {
    const std::uint64_t c = s.count.load(std::memory_order_relaxed);
    if (c < min_count) {
      min_count = c;
      victim = &s;
    }
  }
  victim->used.store(0, std::memory_order_release);
  victim->key.store(key, std::memory_order_relaxed);
  victim->domain.store(domain, std::memory_order_relaxed);
  victim->count.store(min_count + 1, std::memory_order_relaxed);
  victim->mismatch.store(mismatch ? 1 : 0, std::memory_order_relaxed);
  store_label(*victim, label);
  victim->used.store(1, std::memory_order_release);
}

void TelemetryRing::collect_hot(HotTableKind table,
                                std::vector<HotEntry>& out) const {
  const HotTable& slots = hot_[static_cast<std::size_t>(table)];
  for (std::uint32_t i = 0; i < slots.size(); ++i) {
    const HotSlot& s = slots[i];
    if (s.used.load(std::memory_order_acquire) == 0) continue;
    const std::uint64_t first_word = s.label[0].load(std::memory_order_relaxed);
    char first_byte = 0;
    std::memcpy(&first_byte, &first_word, 1);
    out.push_back(HotEntry{.key = s.key.load(std::memory_order_relaxed),
                           .count = s.count.load(std::memory_order_relaxed),
                           .mismatch =
                               s.mismatch.load(std::memory_order_relaxed),
                           .domain = s.domain.load(std::memory_order_relaxed),
                           .slot = i,
                           .ring = this,
                           .labeled = first_byte != '\0'});
  }
}

void TelemetryRing::collect_hot(HotTableKind table,
                                std::vector<HotCounter>& out) const {
  std::vector<HotEntry> entries;
  collect_hot(table, entries);
  for (const HotEntry& entry : entries) out.push_back(with_label(table, entry));
}

std::string TelemetryRing::hot_label(HotTableKind table,
                                     std::uint32_t slot) const {
  const HotSlot& s = hot_[static_cast<std::size_t>(table)][slot];
  char bytes[kHotLabelBytes];
  for (std::size_t w = 0; w < s.label.size(); ++w) {
    const std::uint64_t word = s.label[w].load(std::memory_order_relaxed);
    std::memcpy(bytes + w * 8, &word, 8);
  }
  bytes[kHotLabelBytes - 1] = '\0';
  return bytes;
}

void TelemetryRing::drain(std::vector<TelemetryEvent>& out) {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  for (; tail != head; ++tail) {
    out.push_back(slots_[tail & mask_]);
  }
  tail_.store(tail, std::memory_order_release);
}

TelemetryHub::TelemetryHub(TelemetryConfig config) : config_(config) {
  if (config_.domain_count == 0) config_.domain_count = 1;
}

TelemetryHub::~TelemetryHub() {
  for (auto& slot : rings_) {
    delete slot.load(std::memory_order_acquire);
  }
}

TelemetryRing& TelemetryHub::ring(std::uint32_t tid) {
  // Out-of-range publishers share the last slot rather than being lost:
  // an overflow ring mislabels the thread but keeps the totals honest.
  const std::uint32_t slot_index = tid < kMaxThreads ? tid : kMaxThreads - 1;
  std::atomic<TelemetryRing*>& slot = rings_[slot_index];
  if (TelemetryRing* existing = slot.load(std::memory_order_acquire)) {
    return *existing;
  }
  std::lock_guard<std::mutex> lock(growth_);
  if (TelemetryRing* existing = slot.load(std::memory_order_acquire)) {
    return *existing;
  }
  auto* created = new TelemetryRing(slot_index, config_.domain_count,
                                    config_.event_capacity);
  slot.store(created, std::memory_order_release);
  return *created;
}

std::size_t TelemetryHub::ring_count() const noexcept {
  std::size_t count = 0;
  for (const auto& slot : rings_) {
    if (slot.load(std::memory_order_acquire) != nullptr) ++count;
  }
  return count;
}

void TelemetryHub::fold_hot(HotTableKind table,
                            const std::vector<HotEntry>& raw,
                            std::vector<HotCounter>& out) {
  // Group rows by (key, domain) through an open-addressed index into
  // groups_, summing counts; a group's label comes from its first row
  // with a non-empty label.
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  std::size_t buckets = 16;
  while (buckets < 2 * raw.size()) buckets <<= 1;
  group_index_.assign(buckets, kNone);
  groups_.clear();
  for (const HotEntry& row : raw) {
    std::size_t b = static_cast<std::size_t>(
        ((row.key ^ (std::uint64_t{row.domain} << 48)) *
         0x9E3779B97F4A7C15ULL) >>
        32);
    for (;; ++b) {
      std::uint32_t& index = group_index_[b & (buckets - 1)];
      if (index == kNone) {
        index = static_cast<std::uint32_t>(groups_.size());
        groups_.push_back(row);
        break;
      }
      HotEntry& group = groups_[index];
      if (group.key == row.key && group.domain == row.domain) {
        group.count += row.count;
        group.mismatch += row.mismatch;
        if (!group.labeled && row.labeled) {
          group.ring = row.ring;
          group.slot = row.slot;
          group.labeled = true;
        }
        break;
      }
    }
  }
  // Per domain, ascending: select the kHotTopK hottest groups and copy
  // out only their labels.
  auto rest = groups_.begin();
  while (rest != groups_.end()) {
    const std::uint32_t domain =
        std::min_element(rest, groups_.end(),
                         [](const HotEntry& a, const HotEntry& b) {
                           return a.domain < b.domain;
                         })
            ->domain;
    const auto domain_end =
        std::partition(rest, groups_.end(), [domain](const HotEntry& e) {
          return e.domain == domain;
        });
    const auto keep =
        rest + std::min<std::ptrdiff_t>(kHotTopK, domain_end - rest);
    std::partial_sort(rest, keep, domain_end, hotter);
    for (auto it = rest; it != keep; ++it) out.push_back(with_label(table, *it));
    rest = domain_end;
  }
}

TelemetrySnapshot TelemetryHub::snapshot(std::uint64_t time) {
  TelemetrySnapshot snap;
  snap.sequence = ++sequence_;
  snap.time = time;
  snap.domain_match.assign(config_.domain_count, 0);
  snap.domain_mismatch.assign(config_.domain_count, 0);
  snap.threads.reserve(threads_seen_);
  raw_pages_.clear();
  raw_vars_.clear();

  for (std::uint32_t tid = 0; tid < kMaxThreads; ++tid) {
    TelemetryRing* ring = rings_[tid].load(std::memory_order_acquire);
    if (ring == nullptr) continue;

    ThreadTelemetry& row = snap.threads.emplace_back();
    row.tid = ring->tid();
    for (std::size_t c = 0; c < kTelemetryCounterCount; ++c) {
      row.counters[c] = ring->counter(static_cast<TelemetryCounter>(c));
      snap.totals[c] += row.counters[c];
    }
    const std::uint32_t domains = ring->domain_count();
    row.domain_match.resize(domains);
    row.domain_mismatch.resize(domains);
    for (std::uint32_t d = 0; d < domains; ++d) {
      row.domain_match[d] = ring->domain_match(d);
      row.domain_mismatch[d] = ring->domain_mismatch(d);
      if (d < snap.domain_match.size()) {
        snap.domain_match[d] += row.domain_match[d];
        snap.domain_mismatch[d] += row.domain_mismatch[d];
      }
    }
    ring->collect_hot(HotTableKind::kPages, raw_pages_);
    ring->collect_hot(HotTableKind::kVariables, raw_vars_);
    raw_paths_.clear();
    ring->collect_hot(HotTableKind::kPaths, raw_paths_);
    const auto keep = raw_paths_.begin() +
                      static_cast<std::ptrdiff_t>(
                          std::min(kHotTopK, raw_paths_.size()));
    std::partial_sort(raw_paths_.begin(), keep, raw_paths_.end(),
                      hotter_path);
    row.hot_paths.reserve(static_cast<std::size_t>(keep - raw_paths_.begin()));
    for (auto it = raw_paths_.begin(); it != keep; ++it) {
      row.hot_paths.push_back(with_label(HotTableKind::kPaths, *it));
    }
    ring->drain(snap.events);
  }
  threads_seen_ = snap.threads.size();
  fold_hot(HotTableKind::kPages, raw_pages_, snap.hot_pages);
  fold_hot(HotTableKind::kVariables, raw_vars_, snap.hot_vars);

  // Per-ring drains are FIFO; the cross-ring order is made deterministic
  // by (time, tid, kind) — stable so same-key events keep queue order.
  std::stable_sort(snap.events.begin(), snap.events.end(),
                   [](const TelemetryEvent& a, const TelemetryEvent& b) {
                     if (a.time != b.time) return a.time < b.time;
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return static_cast<int>(a.kind) <
                            static_cast<int>(b.kind);
                   });
  return snap;
}

}  // namespace numaprof::support
