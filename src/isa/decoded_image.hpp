// Predecoded instruction cache for the simulator's fast path. A loaded
// program region is lowered once into a dense array of Instruction records
// indexed by (pc - base) / 4, built at H_MEM time — after the NS-MPU locks
// APP memory, when the code is provably immutable. Words that do not decode
// are marked Undefined so the fast loop can report the same UndefinedInstr
// fault as the decode-per-step oracle without throwing through the hot loop.
// Any store into the region (pre-lock phases, SEU injectors writing near
// code) must call invalidate(), which drops the affected slots back to
// Undecoded; the executor then falls back to the decode-per-step path for
// those addresses, keeping fault-injection semantics bit-identical.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "isa/cycle_model.hpp"
#include "isa/instruction.hpp"

namespace raptrack::isa {

/// Lifecycle state of one 4-byte instruction slot.
enum class SlotKind : u8 {
  Undecoded,  ///< invalidated by a write — use the decode-per-step path
  Valid,      ///< `instr` is the decode of the word that was at this address
  Undefined,  ///< word does not decode: executing here is an UndefinedInstr
};

/// 32-byte-aligned so two slots share each cache line and a slot never
/// straddles one — the fast loop's slot load is the hottest read in the
/// simulator. Costs are stored as u16 (real models top out at ~20 cycles);
/// predecode falls a slot back to Undecoded if a configured model ever
/// exceeds that, trading speed for exactness on that slot only.
struct alignas(32) DecodedSlot {
  Instruction instr{};
  u32 raw = 0;  ///< the raw word (fault messages for Undefined slots)
  /// CycleModel::cost() evaluated at predecode time for both branch
  /// outcomes (they only differ for BCC), so the fast loop charges cycles
  /// with a select instead of re-walking the opcode switch per instruction.
  u16 cost_taken = 0;
  u16 cost_not_taken = 0;
  SlotKind kind = SlotKind::Undecoded;
};
static_assert(sizeof(DecodedSlot) == 32);

/// Superblock metadata for one slot: the length (in instructions) of the
/// maximal straight-line run of fusible slots headed here, and the total
/// taken-path cycle cost of that run. `cycles` is a suffix sum over the
/// run, so the cost of executing only the first n instructions of a run
/// headed at slot i is `fuse[i].cycles - fuse[i+n].cycles` (the slot one
/// past a maximal run is never fusible, so its entry is zero and the
/// formula holds for n == len too). Kept in a parallel array — not inside
/// DecodedSlot — so the hot per-slot path stays within its 32-byte line and
/// run lengths are not capped by a packed field width.
struct FuseRun {
  u32 len = 0;
  u32 cycles = 0;
};

/// True when `instr` may be absorbed into a fused superblock: pure
/// register/immediate ALU and move/compare work that cannot branch, touch
/// memory or the bus, trap (SVC), halt, or fault. Executing such an
/// instruction always advances pc by 4 and charges its taken-path cost, so
/// a run of them can retire under a single bounds/MPU check with batched
/// cycle accounting. Everything else (branches, loads/stores, PUSH/POP,
/// SVC/HLT/BKPT) terminates a run and stays on the per-slot path.
bool fusible_in_superblock(const Instruction& instr);

class DecodedImage {
 public:
  /// Predecode `bytes` as they sit at `base` (word-aligned; a trailing
  /// partial word is excluded from the cached range). `model` must be the
  /// executing core's cycle model — per-slot costs are baked from it, and
  /// so are the fused-run cycle sums.
  DecodedImage(Address base, std::span<const u8> bytes,
               const CycleModel& model = {});

  Address base() const { return base_; }
  Address end() const { return end_; }
  bool contains(Address pc) const { return pc >= base_ && pc < end_; }

  /// Slot for an aligned, contained pc.
  const DecodedSlot& slot(Address pc) const {
    return slots_[(pc - base_) >> 2];
  }

  /// Dense slot array for the executor's pointer-chasing loop. Never
  /// reallocated after construction; invalidate() only flips `kind` fields
  /// in place, so held pointers stay valid (and observe invalidations).
  const DecodedSlot* slots_begin() const { return slots_.data(); }

  /// Parallel superblock array (same indexing as slots_begin()). Like the
  /// slot array it is never reallocated; invalidate() rewrites entries in
  /// place, so a held pointer observes truncations.
  const FuseRun* fuse_begin() const { return fuse_.data(); }

  /// Fused run headed at an aligned, contained pc.
  const FuseRun& fuse_run(Address pc) const { return fuse_[(pc - base_) >> 2]; }

  /// A write of `size` bytes at `addr` landed somewhere in memory: drop any
  /// overlapping slots to Undecoded. Cheap no-op outside the range. Fused
  /// runs covering an invalidated slot are truncated to end just before it
  /// (their suffix cycle sums are recomputed), so the fast loop re-checks
  /// the written slot per-slot and falls back losslessly.
  void invalidate(Address addr, u32 size);

  size_t slot_count() const { return slots_.size(); }
  u64 invalidations() const { return invalidations_; }

 private:
  Address base_ = 0;
  Address end_ = 0;
  std::vector<DecodedSlot> slots_;
  std::vector<FuseRun> fuse_;
  u64 invalidations_ = 0;
};

}  // namespace raptrack::isa
