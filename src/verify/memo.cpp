#include "verify/memo.hpp"

#include <algorithm>
#include <span>

#include "obs/metrics.hpp"

namespace raptrack::verify {

namespace {

size_t probe_base(u64 key, size_t slots) {
  // Shard selection consumed the low bits; probe placement uses the rest.
  return static_cast<size_t>(key >> 16) % slots;
}

// Cache-wide metric handles, registered once (map find under the registry
// mutex otherwise — this sits on the replay hot path).
struct MemoObsMetrics {
  obs::Counter hits = obs::registry().counter("verify.memo.hits");
  obs::Counter misses = obs::registry().counter("verify.memo.misses");
  obs::Counter inserts = obs::registry().counter("verify.memo.inserts");
  obs::Counter evictions = obs::registry().counter("verify.memo.evictions");
  obs::Gauge bytes_hwm = obs::registry().gauge("verify.memo.bytes_hwm");
  obs::Counter frontier_hits =
      obs::registry().counter("verify.memo.frontier.hits");
  obs::Counter frontier_misses =
      obs::registry().counter("verify.memo.frontier.misses");
  obs::Counter frontier_inserts =
      obs::registry().counter("verify.memo.frontier.inserts");

  static MemoObsMetrics& get() {
    static MemoObsMetrics metrics;
    return metrics;
  }
};

}  // namespace

u64 MemoValuation::hash() const {
  u64 h = 0x243f6a8885a308d3ull;
  const auto mix = [&h](u64 v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  for (const u32 reg : regs) mix(reg);
  mix(known);
  mix(flags);
  return h;
}

u64 FrontierEntry::key_hash() const {
  u64 h = val.hash();
  const auto mix = [&h](u64 v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(pc);
  mix(policy_hash);
  mix(strict ? 0x5bf03635u : 0x2545f491u);
  mix(stack_hash);
  mix(evidence_fp);
  mix((static_cast<u64>(packet_rem) << 32) | loop_rem);
  mix((static_cast<u64>(bit_rem) << 32) | target_rem);
  return h;
}

bool FrontierEntry::same_guards(const FrontierEntry& other) const {
  return pc == other.pc && val == other.val &&
         policy_hash == other.policy_hash && strict == other.strict &&
         stack_hash == other.stack_hash && evidence_fp == other.evidence_fp &&
         packet_rem == other.packet_rem && loop_rem == other.loop_rem &&
         bit_rem == other.bit_rem && target_rem == other.target_rem;
}

size_t MemoSegment::bytes() const {
  size_t total = sizeof(MemoSegment) + popped.capacity() * sizeof(Address) +
                 packets.capacity() * sizeof(trace::BranchPacket) +
                 loop_values.capacity() * sizeof(u32) +
                 direction_bits.capacity() * sizeof(u8) +
                 indirect_targets.capacity() * sizeof(Address) +
                 pushed.capacity() * sizeof(Address) +
                 events.capacity() * sizeof(trace::OracleEvent) +
                 guards.capacity() * sizeof(SegmentGuard);
  for (const SegmentGuard& g : guards) {
    total += g.suffix.capacity() * sizeof(Address);
  }
  return total;
}

bool MemoSegment::same_entry(const MemoSegment& other) const {
  return entry_pc == other.entry_pc && entry_val == other.entry_val &&
         policy_hash == other.policy_hash && popped == other.popped &&
         packets == other.packets && loop_values == other.loop_values &&
         direction_bits == other.direction_bits &&
         indirect_targets == other.indirect_targets &&
         peeked_next == other.peeked_next &&
         (!peeked_next || peeked == other.peeked) &&
         eos_observed == other.eos_observed && halted == other.halted &&
         guards == other.guards;
}

MemoCache::MemoCache(MemoOptions options) : options_(options) {
  size_t shard_count = options_.shards == 0 ? 1 : options_.shards;
  // Round up to a power of two so shard_for can mask.
  while ((shard_count & (shard_count - 1)) != 0) ++shard_count;
  options_.shards = shard_count;
  options_.slots_per_shard = std::max<size_t>(kProbe, options_.slots_per_shard);
  shard_mask_ = shard_count - 1;
  shard_budget_ = std::max<size_t>(1, options_.budget_bytes / shard_count);
  shards_ = std::vector<Shard>(shard_count);
}

std::span<MemoCache::Slot> MemoCache::window(Shard& shard, u64 key) {
  if (shard.slots.empty()) return {};
  return {&shard.slots[probe_base(key, shard.slots.size() - kProbe + 1)],
          kProbe};
}

template <class Same>
MemoCache::Slot& MemoCache::claim(Shard& shard, u64 key, Same same,
                                  bool* matched) {
  if (shard.slots.empty()) shard.slots.resize(options_.slots_per_shard);
  Slot* empty = nullptr;
  Slot* lru = nullptr;
  for (Slot& slot : window(shard, key)) {
    if (slot.empty()) {
      if (empty == nullptr) empty = &slot;
    } else if (slot.key == key && same(slot)) {
      *matched = true;
      return slot;
    } else if (lru == nullptr || slot.tick < lru->tick) {
      lru = &slot;
    }
  }
  *matched = false;
  return empty != nullptr ? *empty : *lru;
}

void MemoCache::admit(Shard& shard, const Slot& slot) {
  const size_t size =
      slot.segment != nullptr ? slot.segment->bytes() : kFrontierEntryBytes;
  shard.bytes += size;
  bytes_.fetch_add(size, std::memory_order_relaxed);
  (slot.segment != nullptr ? entries_ : frontier_entries_)
      .fetch_add(1, std::memory_order_relaxed);
}

void MemoCache::drop(Shard& shard, Slot& slot) {
  const size_t size =
      slot.segment != nullptr ? slot.segment->bytes() : kFrontierEntryBytes;
  shard.bytes -= size;
  bytes_.fetch_sub(size, std::memory_order_relaxed);
  (slot.segment != nullptr ? entries_ : frontier_entries_)
      .fetch_sub(1, std::memory_order_relaxed);
  slot.segment.reset();
  slot.frontier.reset();
}

u64 MemoCache::sweep_to_budget(Shard& shard, const Slot* keep) {
  u64 evicted = 0;
  for (size_t scanned = 0;
       shard.bytes > shard_budget_ && scanned < shard.slots.size(); ++scanned) {
    Slot& victim = shard.slots[shard.sweep_hand++ % shard.slots.size()];
    if (&victim == keep || victim.empty()) continue;
    drop(shard, victim);
    ++evicted;
  }
  return evicted;
}

void MemoCache::note_insert(bool frontier, u64 evicted) {
  (frontier ? frontier_inserts_ : inserts_).fetch_add(1, std::memory_order_relaxed);
  if (evicted != 0) evictions_.fetch_add(evicted, std::memory_order_relaxed);
  if constexpr (obs::kEnabled) {
    auto& metrics = MemoObsMetrics::get();
    (frontier ? metrics.frontier_inserts : metrics.inserts).inc();
    if (evicted != 0) metrics.evictions.inc(evicted);
    metrics.bytes_hwm.set_max(bytes_.load(std::memory_order_relaxed));
  }
}

size_t MemoCache::lookup(u64 key, Handle* out, size_t max) const {
  if constexpr (!kMemoEnabled) return 0;
  Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mu);
  size_t found = 0;
  for (Slot& slot : window(shard, key)) {
    if (found == max) break;
    if (slot.segment != nullptr && slot.key == key) {
      slot.tick = ++shard.tick;  // touch for window-local LRU
      out[found++] = slot.segment;
    }
  }
  return found;
}

void MemoCache::insert(u64 key, Handle segment) {
  if constexpr (!kMemoEnabled) return;
  if (segment == nullptr) return;
  if (segment->bytes() > shard_budget_) {
    rejects_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Shard& shard = shard_for(key);
  u64 evicted = 0;
  {
    std::lock_guard lock(shard.mu);
    bool matched = false;
    Slot& dest = claim(shard, key, [&](const Slot& s) {
      return s.segment != nullptr && s.segment->same_entry(*segment);
    }, &matched);
    if (!dest.empty()) {
      // A matching segment is refreshed in place; anything else is evicted.
      if (!matched) ++evicted;
      drop(shard, dest);
    }
    dest.key = key;
    dest.segment = std::move(segment);
    dest.tick = ++shard.tick;
    admit(shard, dest);
    evicted += sweep_to_budget(shard, &dest);
  }
  note_insert(/*frontier=*/false, evicted);
}

void MemoCache::note_hit() const {
  hits_.fetch_add(1, std::memory_order_relaxed);
  if constexpr (obs::kEnabled) MemoObsMetrics::get().hits.inc();
}

void MemoCache::note_miss() const {
  misses_.fetch_add(1, std::memory_order_relaxed);
  if constexpr (obs::kEnabled) MemoObsMetrics::get().misses.inc();
}

bool MemoCache::frontier_lookup(const FrontierEntry& guards,
                                FrontierEntry* out) const {
  if constexpr (!kMemoEnabled) return false;
  const u64 key = guards.key_hash();
  Shard& shard = shard_for(key);
  bool found = false;
  {
    std::lock_guard lock(shard.mu);
    for (Slot& slot : window(shard, key)) {
      if (slot.frontier != nullptr && slot.key == key &&
          slot.frontier->same_guards(guards)) {
        slot.tick = ++shard.tick;
        if (out != nullptr) *out = *slot.frontier;
        found = true;
        break;
      }
    }
  }
  if (found) {
    frontier_hits_.fetch_add(1, std::memory_order_relaxed);
    if constexpr (obs::kEnabled) MemoObsMetrics::get().frontier_hits.inc();
  } else {
    frontier_misses_.fetch_add(1, std::memory_order_relaxed);
    if constexpr (obs::kEnabled) MemoObsMetrics::get().frontier_misses.inc();
  }
  return found;
}

void MemoCache::frontier_insert(const FrontierEntry& entry) {
  if constexpr (!kMemoEnabled) return;
  if (kFrontierEntryBytes > shard_budget_) {
    // A budget smaller than one entry cannot hold any frontier entry.
    rejects_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const u64 key = entry.key_hash();
  Shard& shard = shard_for(key);
  u64 evicted = 0;
  {
    std::lock_guard lock(shard.mu);
    bool matched = false;
    Slot& dest = claim(shard, key, [&](const Slot& s) {
      return s.frontier != nullptr && s.frontier->same_guards(entry);
    }, &matched);
    if (matched) {
      // Pool knowledge: dead-branch bits OR together; a known-good decision
      // fills in once and stays (concurrent recorders agree — the decision
      // is a function of the guarded state).
      FrontierEntry& known = *dest.frontier;
      known.failed_mask |= entry.failed_mask;
      if (!known.has_decision && entry.has_decision) {
        known.has_decision = true;
        known.decision = entry.decision;
        known.steps_to_complete = entry.steps_to_complete;
      }
      dest.tick = ++shard.tick;
    } else {
      if (!dest.empty()) {
        ++evicted;
        drop(shard, dest);
      }
      dest.key = key;
      dest.frontier = std::make_unique<FrontierEntry>(entry);
      dest.tick = ++shard.tick;
      admit(shard, dest);
      evicted += sweep_to_budget(shard, &dest);
    }
  }
  note_insert(/*frontier=*/true, evicted);
}

void MemoCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    for (Slot& slot : shard.slots) slot = Slot{};
    shard.bytes = 0;
    shard.tick = 0;
    shard.sweep_hand = 0;
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  inserts_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  rejects_.store(0, std::memory_order_relaxed);
  bytes_.store(0, std::memory_order_relaxed);
  entries_.store(0, std::memory_order_relaxed);
  frontier_hits_.store(0, std::memory_order_relaxed);
  frontier_misses_.store(0, std::memory_order_relaxed);
  frontier_inserts_.store(0, std::memory_order_relaxed);
  frontier_entries_.store(0, std::memory_order_relaxed);
}

MemoStats MemoCache::stats() const {
  MemoStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.inserts = inserts_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.rejects = rejects_.load(std::memory_order_relaxed);
  stats.bytes = bytes_.load(std::memory_order_relaxed);
  stats.entries = entries_.load(std::memory_order_relaxed);
  stats.frontier_hits = frontier_hits_.load(std::memory_order_relaxed);
  stats.frontier_misses = frontier_misses_.load(std::memory_order_relaxed);
  stats.frontier_inserts = frontier_inserts_.load(std::memory_order_relaxed);
  stats.frontier_entries = frontier_entries_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace raptrack::verify
