// Verified sub-path memo cache: skip re-simulating control-flow segments the
// deployment has already replayed and validated.
//
// MCU attestation traffic is dominated by repetition — every loop iteration,
// every hot call path, and (for a fleet) every device running the same
// firmware produces near-identical CF_Log windows. The replay engine
// therefore memoizes *segments*: checkpoint-free, finding-free stretches of
// its own execution, keyed by everything the stretch's behavior depends on
// and valued by everything the stretch changes. On a later replay whose
// state and evidence window match a stored segment exactly, the engine
// splices the recorded effects (events, cursor advances, valuation, shadow
// stack, step counters) and jumps straight to the exit state.
//
// Soundness rests on the engine's own determinism argument (the one that
// justifies its backtracking failure memo): between checkpoints, every
// decision is a pure function of (pc, valuation, shadow-stack top, the
// evidence actually consumed or peeked, the immutable ReplayIndex, and the
// call-target policy). A segment's key captures precisely that footprint —
// consumed evidence is compared byte-for-byte, the one-packet lookahead the
// decision logic may have peeked is pinned, and anything outside the
// footprint (ambiguous RAP decisions, backtracking, findings, forced
// decisions) aborts recording instead of being approximated. Memoization
// may therefore change only wall-clock time and the memo_hits/memo_misses
// telemetry — never a verdict, event, finding, or counter. tests/test_memo
// enforces that bit-for-bit against the unmemoized engine.
//
// The cache lives on the Deployment (one per expected image) and is shared
// by the serial Verifier and every VerifierFarm worker. Each shard is one
// open-addressed slot table under its own mutex, allocated on the shard's
// first insert; a slot holds either a segment (shared_ptr<const MemoSegment>,
// so a hit copies a pointer under the lock and validates outside it) or a
// frontier entry (heap-allocated on insert). Both kinds share the shard's
// LRU tick, its clock hand and its byte budget: insertion evicts the
// least-recently-used slot of the probe window, whatever it holds, and
// clock-sweeps the shard when the byte budget overflows.
//
// Compile-time gate: `RAP_MEMO_ENABLED` (CMake option RAP_MEMO, default ON)
// mirrors RAP_OBS. When OFF, kMemoEnabled is false, lookup/insert return at
// once (no table is ever allocated), and verify_report_chain never attaches
// the cache — the engine runs exactly the pre-memo code path.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "trace/branch_packet.hpp"
#include "trace/trace_fabric.hpp"

#ifndef RAP_MEMO_ENABLED
#define RAP_MEMO_ENABLED 1
#endif

namespace raptrack::verify {

#if RAP_MEMO_ENABLED
inline constexpr bool kMemoEnabled = true;
#else
inline constexpr bool kMemoEnabled = false;
#endif

/// Packed snapshot of the replay engine's constant-propagating valuation:
/// sixteen optional registers (known mask + values) and the four optional
/// NZCV flags (low nibble = values, high nibble = known). Exact equality of
/// two snapshots means the engines would make identical flag/register
/// decisions.
struct MemoValuation {
  std::array<u32, 16> regs{};
  u16 known = 0;  ///< bit i set when regs[i] holds a known value
  u8 flags = 0;   ///< bits 0-3 NZCV values, bits 4-7 NZCV known

  u64 hash() const;

  friend bool operator==(const MemoValuation&, const MemoValuation&) = default;
};

/// One frontier-guarded decision absorbed into a recorded segment: at this
/// point inside the segment (cursor/step deltas are relative to the segment
/// entry), the engine took `decision` because a resident frontier entry
/// covered the exact total state. The segment may only splice when an
/// equivalent entry still covers the live state — splice-time re-validation
/// rebuilds the frontier guards from the live chain (stack prefix below the
/// anchor comes from the live stack, the recorded suffix above it from the
/// guard) and requires a resident decision entry with the same decision and
/// at least the dead-branch knowledge recorded here.
struct SegmentGuard {
  Address pc = 0;     ///< the ambiguous site the decision was taken at
  MemoValuation val;  ///< packed valuation at the site
  u32 d_packets = 0;  ///< evidence-cursor deltas vs. the segment entry
  u32 d_loops = 0;
  u32 d_bits = 0;
  u32 d_targets = 0;
  /// Shadow-stack shape at the site: `pops` entries of the anchor stack had
  /// been consumed (a prefix of MemoSegment::popped), and `suffix` (bottom
  /// first) sat above that point. The guard-time stack is therefore
  /// live_stack[0 .. L-pops) ++ suffix for a live stack of depth L.
  u32 pops = 0;
  std::vector<Address> suffix;
  bool decision = false;  ///< the frontier-recorded decision taken
  u8 failed_mask = 0;     ///< dead-branch bits the entry carried at the time
  u64 steps_delta = 0;    ///< steps from segment entry to the site
  friend bool operator==(const SegmentGuard&, const SegmentGuard&) = default;
};

/// One memoized segment: the exact-match entry guards (key side) and the
/// recorded effects to splice on a hit (value side). Immutable once
/// inserted; shared across threads by const pointer.
struct MemoSegment {
  // -- key side: the segment applies only when ALL of these match ----------
  Address entry_pc = 0;
  MemoValuation entry_val;
  u64 policy_hash = 0;  ///< call-target policy fingerprint (affects findings)
  /// Shadow-stack entries the segment consumes, top-of-stack first.
  std::vector<Address> popped;
  /// Evidence consumed during the segment, compared byte-for-byte against
  /// the live streams at the current cursors.
  std::vector<trace::BranchPacket> packets;
  std::vector<u32> loop_values;      ///< RAP or TRACES loop stream (per mode)
  std::vector<u8> direction_bits;    ///< TRACES direction bits (0/1)
  std::vector<Address> indirect_targets;
  /// The engine peeked one packet past the consumed window (conditional
  /// decisions look ahead without consuming); the live stream must hold the
  /// same packet there.
  bool peeked_next = false;
  trace::BranchPacket peeked{};
  /// The engine observed end-of-log just past the window (a peek that found
  /// the stream exhausted); the live stream must end there too.
  bool eos_observed = false;
  /// Segment ends at a clean halt: every evidence stream must be *exactly*
  /// exhausted by the window, and applying it completes the replay.
  bool halted = false;
  /// Frontier-guarded decisions the recording absorbed instead of aborting
  /// at a RAP-ambiguous site. Empty for ordinary segments. Non-empty guards
  /// are re-validated against the live frontier on every splice attempt; a
  /// detached engine (frontier off) never splices a guarded segment.
  std::vector<SegmentGuard> guards;

  // -- value side: effects spliced into the engine on a hit ----------------
  Address exit_pc = 0;
  MemoValuation exit_val;
  /// Shadow-stack entries live above the popped point at exit, bottom first.
  std::vector<Address> pushed;
  std::vector<trace::OracleEvent> events;
  u64 steps = 0;
  u64 index_hits = 0;
  u64 index_fallbacks = 0;

  /// Approximate heap footprint, for the shard byte budget.
  size_t bytes() const;
  /// Same entry guards as `other` (used to refresh instead of duplicate when
  /// two workers record the same segment concurrently).
  bool same_entry(const MemoSegment& other) const;
};

/// One frontier-memo entry: a resolved RAP-ambiguity decision, promoted from
/// a single replay's backtracking search to the shared Deployment cache.
///
/// The guards fingerprint the engine's *total* state at the ambiguous site —
/// pc, packed valuation, policy, strictness, the full shadow stack (hashed),
/// and the entire remaining evidence suffix of all four streams (hashed, plus
/// exact remaining counts). Because the engine is deterministic given state +
/// evidence, a guard match means the search from this state will unfold
/// exactly as it did before: a recorded known-good decision completes the
/// replay without saving a checkpoint, and a recorded failed direction is a
/// dead branch that need not be re-explored. 64-bit fingerprints admit an
/// astronomically unlikely collision; the replayer covers even that by
/// re-running any *failing* replay with the frontier detached (see
/// replayer.cpp), so a collision can cost time, never a verdict.
struct FrontierEntry {
  // -- guards: the entry applies only when ALL of these match --------------
  Address pc = 0;
  MemoValuation val;
  u64 policy_hash = 0;
  bool strict = false;
  u64 stack_hash = 0;     ///< hash over the full shadow stack, bottom-up
  u64 evidence_fp = 0;    ///< hash over the remaining suffix of all streams
  u32 packet_rem = 0;     ///< packets remaining at the site
  u32 loop_rem = 0;       ///< loop values remaining
  u32 bit_rem = 0;        ///< direction bits remaining
  u32 target_rem = 0;     ///< indirect targets remaining

  // -- value: what the search learned from this state ----------------------
  /// bit 0: decision `false` is known to fail; bit 1: decision `true` fails.
  u8 failed_mask = 0;
  /// A decision from this state that led to a complete, consistent parse.
  bool has_decision = false;
  bool decision = false;
  /// Steps the accepted path took from this site to the clean halt — used to
  /// honor the caller's step budget before skipping the checkpoint.
  u64 steps_to_complete = 0;

  u64 key_hash() const;
  bool same_guards(const FrontierEntry& other) const;
};

struct MemoOptions {
  /// Shard count (lock granularity). Power of two.
  size_t shards = 16;
  /// Open-addressed slots per shard, shared by segments and frontier
  /// entries. A shard allocates its table on its first insert.
  size_t slots_per_shard = 2048;
  /// Byte budget across the whole cache (split evenly over shards).
  /// Entries larger than one shard's budget are rejected outright.
  size_t budget_bytes = size_t{48} << 20;
  /// Segment length: packets consumed before the recorder closes a segment
  /// and anchors the next one. Matches the per-report chunk size at the
  /// default 128-byte watermark (16 packets), so whole repeated reports
  /// memoize as chains of window hits.
  u32 window_packets = 16;
  /// Futility-backoff ceiling, in replay steps. Consecutive anchors that
  /// neither hit the cache nor store a segment double a delay before the
  /// next anchor attempt, up to this cap — checkpoint-dense RAP ambiguity
  /// search aborts recording every few steps, and without backoff each
  /// re-anchor pays a full pack+hash+lookup for a near-certain miss. Any
  /// hit or stored segment resets the delay. 0 disables backoff (anchor on
  /// every opportunity); the differential tests use that to force dense
  /// cache traffic on RAP chains.
  u32 anchor_backoff_cap = 512;
};

/// Point-in-time cache statistics (relaxed-atomic reads; exact only when
/// quiescent).
struct MemoStats {
  u64 hits = 0;        ///< segments applied by some engine
  u64 misses = 0;      ///< lookups that applied nothing
  u64 inserts = 0;     ///< segments stored
  u64 evictions = 0;   ///< entries of either kind displaced (LRU or sweep)
  u64 rejects = 0;     ///< inserts refused (entry larger than a shard budget)
  u64 bytes = 0;       ///< current resident bytes (segments + frontier)
  u64 entries = 0;     ///< current resident segment count

  u64 frontier_hits = 0;      ///< frontier lookups whose guards matched
  u64 frontier_misses = 0;    ///< frontier lookups that found nothing
  u64 frontier_inserts = 0;   ///< frontier entries stored or merged
  u64 frontier_entries = 0;   ///< current resident frontier entries

  double hit_rate() const {
    const u64 total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
  double frontier_hit_rate() const {
    const u64 total = frontier_hits + frontier_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(frontier_hits) / static_cast<double>(total);
  }
};

class MemoCache {
 public:
  using Handle = std::shared_ptr<const MemoSegment>;

  /// Most candidates one lookup returns (same key hash, different guards —
  /// e.g. divergent chains sharing an entry state).
  static constexpr size_t kLookupWidth = 4;
  /// Linear-probe window per lookup/insert: long enough to tolerate key-hash
  /// clusters, short enough that a shard operation stays a handful of cache
  /// lines under the lock.
  static constexpr size_t kProbe = 8;

  explicit MemoCache(MemoOptions options = {});

  /// Copy up to `max` candidate handles whose key hash matches into `out`.
  /// Returns the count. The caller re-validates the full entry guards;
  /// a returned candidate is a *candidate*, not a hit.
  size_t lookup(u64 key, Handle* out, size_t max) const;

  /// Store a segment under its key hash. Duplicate-guard entries refresh in
  /// place; otherwise an empty or least-recently-used slot in the probe
  /// window takes it, and the shard clock-sweeps down to its byte budget.
  void insert(u64 key, Handle segment);

  /// Applied-hit / no-applicable-entry accounting, reported by the engines
  /// (a lookup alone cannot tell whether a candidate survives its guards).
  void note_hit() const;
  void note_miss() const;

  // -- frontier entries -----------------------------------------------------

  /// Find the frontier entry whose guards exactly match `guards` and copy it
  /// into `out`. Returns true on a guard match (counted as a frontier hit).
  bool frontier_lookup(const FrontierEntry& guards, FrontierEntry* out) const;

  /// Store a resolved-ambiguity entry. A guard-matching resident entry
  /// *merges* instead of duplicating: failed bits OR together and a recorded
  /// decision fills in if absent, so concurrent workers pool what each
  /// replay's search learned. Shares the slot table, the eviction clock and
  /// the byte budget with the segments.
  void frontier_insert(const FrontierEntry& entry);

  /// Drop every entry and reset statistics (bench/test isolation). An
  /// allocated table stays allocated, so a timed run after clear() does
  /// not pay for it again.
  void clear();

  MemoStats stats() const;
  const MemoOptions& options() const { return options_; }

  /// Budget charge for one resident frontier entry.
  static constexpr size_t kFrontierEntryBytes = sizeof(FrontierEntry);

 private:
  /// Empty, a segment, or a frontier entry — never both.
  struct Slot {
    u64 key = 0;
    u64 tick = 0;  ///< last touch (shard-local logical clock)
    Handle segment;
    std::unique_ptr<FrontierEntry> frontier;

    bool empty() const { return segment == nullptr && frontier == nullptr; }
  };
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::vector<Slot> slots;  ///< empty until the shard's first insert
    size_t bytes = 0;         ///< resident bytes, against the shard budget
    u64 tick = 0;
    size_t sweep_hand = 0;
  };

  Shard& shard_for(u64 key) const { return shards_[key & shard_mask_]; }
  /// `key`'s probe window: kProbe consecutive slots, starting early enough
  /// in the table that no window wraps. Empty before the shard's first
  /// insert. Caller holds the shard mutex.
  static std::span<Slot> window(Shard& shard, u64 key);
  /// The slot of `key`'s probe window that `same` accepts, else the first
  /// empty one, else the least recently used one (of either kind). Sets
  /// `*matched` when `same` accepted it. Caller holds the shard mutex.
  template <class Same>
  Slot& claim(Shard& shard, u64 key, Same same, bool* matched);
  /// Charge a freshly filled slot to the byte budget and the entry counts.
  void admit(Shard& shard, const Slot& slot);
  /// Empty a resident slot, releasing its charge. Caller holds the mutex.
  void drop(Shard& shard, Slot& slot);
  /// Clock-sweep `shard` down to the byte budget, sparing `keep` (the fresh
  /// entry, which alone fits the budget: oversize entries are rejected
  /// first). One scan visits each slot at most once. Returns entries
  /// evicted. Caller holds the shard mutex.
  u64 sweep_to_budget(Shard& shard, const Slot* keep);
  /// Shared tail of both inserts: insert/eviction counters and metrics.
  void note_insert(bool frontier, u64 evicted);

  MemoOptions options_;
  size_t shard_mask_ = 0;
  size_t shard_budget_ = 0;
  mutable std::vector<Shard> shards_;

  mutable std::atomic<u64> hits_{0};
  mutable std::atomic<u64> misses_{0};
  std::atomic<u64> inserts_{0};
  std::atomic<u64> evictions_{0};
  std::atomic<u64> rejects_{0};
  std::atomic<u64> bytes_{0};
  std::atomic<u64> entries_{0};
  mutable std::atomic<u64> frontier_hits_{0};
  mutable std::atomic<u64> frontier_misses_{0};
  std::atomic<u64> frontier_inserts_{0};
  std::atomic<u64> frontier_entries_{0};
};

}  // namespace raptrack::verify
