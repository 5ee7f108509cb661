#include "verify/memo.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace raptrack::verify {

namespace {

/// Linear-probe window per lookup/insert: long enough to tolerate key-hash
/// clusters, short enough that a shard operation stays a handful of cache
/// lines under the lock.
constexpr size_t kProbe = 8;

size_t probe_base(u64 key, size_t slots) {
  // Shard selection consumed the low bits; probe placement uses the rest.
  return static_cast<size_t>(key >> 16) % slots;
}

// Test kill switch (see MemoCache::force_disable): plain bool, flipped only
// from single-threaded test setup — same discipline as Sha256::force_scalar.
bool g_memo_disabled = false;

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
  /// A live chain-fingerprint entry was displaced by a different key (its
  /// set was full). Fleet-sized runs watch this to size kChainFpSets.
  obs::Counter fingerprint_evicted =
      obs::registry().counter("verify.memo.fingerprint.evicted");

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
  shard_mask_ = shard_count - 1;
  shard_budget_ = std::max<size_t>(1, options_.budget_bytes / shard_count);
  shards_ = std::vector<Shard>(shard_count);
  const size_t slots = std::max<size_t>(kProbe, options_.slots_per_shard);
  const size_t fslots = std::max<size_t>(kProbe, options_.frontier_slots_per_shard);
  for (Shard& shard : shards_) {
    shard.slots.resize(slots);
    shard.fslots.resize(fslots);
  }
}

size_t MemoCache::lookup(u64 key, Handle* out, size_t max) const {
#if RAP_MEMO_ENABLED
  if (g_memo_disabled || max == 0) return 0;
  Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mu);
  const size_t base = probe_base(key, shard.slots.size());
  size_t found = 0;
  for (size_t i = 0; i < kProbe && found < max; ++i) {
    Slot& slot = shard.slots[(base + i) % shard.slots.size()];
    if (slot.segment != nullptr && slot.key == key) {
      slot.tick = ++shard.tick;  // touch for window-local LRU
      out[found++] = slot.segment;
    }
  }
  return found;
#else
  (void)key;
  (void)out;
  (void)max;
  return 0;
#endif
}

void MemoCache::insert(u64 key, Handle segment) {
#if RAP_MEMO_ENABLED
  if (g_memo_disabled || segment == nullptr) return;
  const size_t size = segment->bytes();
  if (size > shard_budget_) {
    rejects_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Shard& shard = shard_for(key);
  u64 evicted = 0;
  {
    std::lock_guard lock(shard.mu);
    const size_t base = probe_base(key, shard.slots.size());
    Slot* match = nullptr;
    Slot* empty = nullptr;
    Slot* lru = nullptr;
    for (size_t i = 0; i < kProbe; ++i) {
      Slot& slot = shard.slots[(base + i) % shard.slots.size()];
      if (slot.segment == nullptr) {
        if (empty == nullptr) empty = &slot;
      } else if (slot.key == key && slot.segment->same_entry(*segment)) {
        match = &slot;
        break;
      } else if (lru == nullptr || slot.tick < lru->tick) {
        lru = &slot;
      }
    }
    Slot* dest = match != nullptr ? match : (empty != nullptr ? empty : lru);
    if (dest->segment != nullptr) {
      shard.bytes -= dest->segment->bytes();
      bytes_.fetch_sub(dest->segment->bytes(), std::memory_order_relaxed);
      entries_.fetch_sub(1, std::memory_order_relaxed);
      if (match == nullptr) ++evicted;
    }
    dest->key = key;
    dest->segment = std::move(segment);
    dest->tick = ++shard.tick;
    shard.bytes += size;
    bytes_.fetch_add(size, std::memory_order_relaxed);
    entries_.fetch_add(1, std::memory_order_relaxed);
    evicted += sweep_to_budget(shard, dest, nullptr);
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  if (evicted != 0) evictions_.fetch_add(evicted, std::memory_order_relaxed);
  if constexpr (obs::kEnabled) {
    auto& metrics = MemoObsMetrics::get();
    metrics.inserts.inc();
    if (evicted != 0) metrics.evictions.inc(evicted);
    metrics.bytes_hwm.set_max(bytes_.load(std::memory_order_relaxed));
  }
#else
  (void)key;
  (void)segment;
#endif
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
#if RAP_MEMO_ENABLED
  if (g_memo_disabled) return false;
  const u64 key = guards.key_hash();
  Shard& shard = shard_for(key);
  bool found = false;
  {
    std::lock_guard lock(shard.mu);
    const size_t base = probe_base(key, shard.fslots.size());
    for (size_t i = 0; i < kProbe; ++i) {
      FrontierSlot& slot = shard.fslots[(base + i) % shard.fslots.size()];
      if (slot.used && slot.key == key && slot.entry.same_guards(guards)) {
        slot.tick = ++shard.ftick;
        if (out != nullptr) *out = slot.entry;
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
#else
  (void)guards;
  (void)out;
  return false;
#endif
}

void MemoCache::frontier_insert(const FrontierEntry& entry) {
#if RAP_MEMO_ENABLED
  if (g_memo_disabled) return;
  if (kFrontierEntryBytes > shard_budget_) {
    // A budget smaller than one slot cannot hold any frontier entry.
    rejects_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const u64 key = entry.key_hash();
  Shard& shard = shard_for(key);
  u64 evicted = 0;
  {
    std::lock_guard lock(shard.mu);
    const size_t base = probe_base(key, shard.fslots.size());
    FrontierSlot* match = nullptr;
    FrontierSlot* empty = nullptr;
    FrontierSlot* lru = nullptr;
    for (size_t i = 0; i < kProbe; ++i) {
      FrontierSlot& slot = shard.fslots[(base + i) % shard.fslots.size()];
      if (!slot.used) {
        if (empty == nullptr) empty = &slot;
      } else if (slot.key == key && slot.entry.same_guards(entry)) {
        match = &slot;
        break;
      } else if (lru == nullptr || slot.tick < lru->tick) {
        lru = &slot;
      }
    }
    if (match != nullptr) {
      // Pool knowledge: dead-branch bits OR together; a known-good decision
      // fills in once and stays (concurrent recorders agree — the decision
      // is a function of the guarded state).
      match->entry.failed_mask |= entry.failed_mask;
      if (!match->entry.has_decision && entry.has_decision) {
        match->entry.has_decision = true;
        match->entry.decision = entry.decision;
        match->entry.steps_to_complete = entry.steps_to_complete;
      }
      match->tick = ++shard.ftick;
    } else {
      FrontierSlot* dest = empty != nullptr ? empty : lru;
      if (dest->used) {
        ++evicted;
      } else {
        ++shard.fcount;
        shard.bytes += kFrontierEntryBytes;
        bytes_.fetch_add(kFrontierEntryBytes, std::memory_order_relaxed);
        frontier_entries_.fetch_add(1, std::memory_order_relaxed);
      }
      dest->key = key;
      dest->entry = entry;
      dest->tick = ++shard.ftick;
      dest->used = true;
      evicted += sweep_to_budget(shard, nullptr, dest);
    }
  }
  frontier_inserts_.fetch_add(1, std::memory_order_relaxed);
  if (evicted != 0) evictions_.fetch_add(evicted, std::memory_order_relaxed);
  if constexpr (obs::kEnabled) {
    auto& metrics = MemoObsMetrics::get();
    metrics.frontier_inserts.inc();
    if (evicted != 0) metrics.evictions.inc(evicted);
    metrics.bytes_hwm.set_max(bytes_.load(std::memory_order_relaxed));
  }
#else
  (void)entry;
#endif
}

u64 MemoCache::sweep_to_budget(Shard& shard, const Slot* keep_slot,
                               const FrontierSlot* keep_fslot) {
  // Two-tier clock sweep with scanned-count termination: the inserting tier
  // evicts its own entries first, then the other tier pays if the shard is
  // still over budget. Each tier's scan visits every slot at most once, so
  // the sweep cannot spin on empty slots (the old single-tier loop could,
  // when frontier bytes alone kept the shard over budget with no segment
  // victims left). Post-condition: shard.bytes <= shard_budget_, because the
  // protected fresh entry alone fits the budget (both insert paths reject
  // oversize entries before getting here).
  u64 evicted = 0;
  const bool frontier_first = keep_fslot != nullptr;
  for (int tier = 0; tier < 2 && shard.bytes > shard_budget_; ++tier) {
    const bool frontier = (tier == 0) == frontier_first;
    if (frontier) {
      for (size_t scanned = 0;
           shard.bytes > shard_budget_ && scanned < shard.fslots.size();
           ++scanned) {
        FrontierSlot& victim =
            shard.fslots[shard.fsweep_hand++ % shard.fslots.size()];
        if (&victim == keep_fslot || !victim.used) continue;
        victim.used = false;
        --shard.fcount;
        shard.bytes -= kFrontierEntryBytes;
        bytes_.fetch_sub(kFrontierEntryBytes, std::memory_order_relaxed);
        frontier_entries_.fetch_sub(1, std::memory_order_relaxed);
        ++evicted;
      }
    } else {
      for (size_t scanned = 0;
           shard.bytes > shard_budget_ && scanned < shard.slots.size();
           ++scanned) {
        Slot& victim = shard.slots[shard.sweep_hand++ % shard.slots.size()];
        if (&victim == keep_slot || victim.segment == nullptr) continue;
        shard.bytes -= victim.segment->bytes();
        bytes_.fetch_sub(victim.segment->bytes(), std::memory_order_relaxed);
        entries_.fetch_sub(1, std::memory_order_relaxed);
        victim.segment.reset();
        ++evicted;
      }
    }
  }
  return evicted;
}

bool MemoCache::chain_fp_lookup(u64 key, u64* fp) const {
#if RAP_MEMO_ENABLED
  if (g_memo_disabled) return false;
  std::lock_guard lock(chain_fp_mu_);
  ChainFpSlot* const set = &chain_fp_slots_[(key % kChainFpSets) * kChainFpWays];
  for (size_t way = 0; way < kChainFpWays; ++way) {
    ChainFpSlot& slot = set[way];
    if (slot.valid && slot.key == key) {
      slot.tick = ++chain_fp_tick_;
      if (fp != nullptr) *fp = slot.fp;
      return true;
    }
  }
  return false;
#else
  (void)key;
  (void)fp;
  return false;
#endif
}

void MemoCache::chain_fp_store(u64 key, u64 fp) {
#if RAP_MEMO_ENABLED
  if (g_memo_disabled) return;
  std::lock_guard lock(chain_fp_mu_);
  ChainFpSlot* const set = &chain_fp_slots_[(key % kChainFpSets) * kChainFpWays];
  // Same key refreshes in place; otherwise fill an empty way; otherwise
  // displace the least-recently-touched way (and count the casualty — a
  // fleet whose working set of live chains overflows the sets shows up
  // here, not as silent hit-rate loss).
  ChainFpSlot* victim = &set[0];
  for (size_t way = 0; way < kChainFpWays; ++way) {
    ChainFpSlot& slot = set[way];
    if (slot.valid && slot.key == key) {
      slot.fp = fp;
      slot.tick = ++chain_fp_tick_;
      return;
    }
    if (!slot.valid) {
      victim = &slot;
      break;
    }
    if (slot.tick < victim->tick) victim = &slot;
  }
  if (victim->valid && victim->key != key) {
    if constexpr (obs::kEnabled) {
      MemoObsMetrics::get().fingerprint_evicted.inc();
    }
  }
  *victim = {key, fp, ++chain_fp_tick_, true};
#else
  (void)key;
  (void)fp;
#endif
}

void MemoCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    for (Slot& slot : shard.slots) {
      slot.key = 0;
      slot.tick = 0;
      slot.segment.reset();
    }
    for (FrontierSlot& slot : shard.fslots) {
      slot.key = 0;
      slot.tick = 0;
      slot.used = false;
      slot.entry = FrontierEntry{};
    }
    shard.bytes = 0;
    shard.fcount = 0;
    shard.tick = 0;
    shard.ftick = 0;
    shard.sweep_hand = 0;
    shard.fsweep_hand = 0;
  }
  {
    std::lock_guard lock(chain_fp_mu_);
    chain_fp_slots_.fill({});
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

void MemoCache::force_disable(bool disable) { g_memo_disabled = disable; }

}  // namespace raptrack::verify
