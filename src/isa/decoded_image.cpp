#include "isa/decoded_image.hpp"

#include "common/hex.hpp"

namespace raptrack::isa {

bool fusible_in_superblock(const Instruction& instr) {
  switch (format_of(instr.op)) {
    case Format::Mov16:
    case Format::AluReg:
    case Format::AluImm:
      // Register/immediate ALU, moves and compares: no memory, no control
      // flow, no faults. (rd == PC is harmless — execute() unconditionally
      // overwrites pc with the fall-through address afterwards, on both the
      // oracle and the fast path.)
      return true;
    case Format::Sys:
      return instr.op == Op::NOP;  // HLT/BKPT halt, SVC traps
    default:
      return false;  // branches, loads/stores, PUSH/POP
  }
}

DecodedImage::DecodedImage(Address base, std::span<const u8> bytes,
                           const CycleModel& model) {
  if (base % 4 != 0) {
    throw Error("DecodedImage: base " + hex32(base) + " is not word-aligned");
  }
  base_ = base;
  const size_t words = bytes.size() / 4;
  end_ = base_ + static_cast<Address>(words * 4);
  slots_.resize(words);
  fuse_.resize(words);
  for (size_t i = 0; i < words; ++i) {
    u32 word = 0;
    for (u32 b = 0; b < 4; ++b) {
      word |= static_cast<u32>(bytes[i * 4 + b]) << (8 * b);
    }
    DecodedSlot& slot = slots_[i];
    slot.raw = word;
    if (const auto decoded = decode(word)) {
      const Cycles taken = model.cost(*decoded, true);
      const Cycles not_taken = model.cost(*decoded, false);
      if (taken > 0xffff || not_taken > 0xffff) {
        // Cost does not fit the packed slot (absurd custom model): leave the
        // slot Undecoded so the decode-per-step path charges the exact value.
        continue;
      }
      slot.instr = *decoded;
      slot.cost_taken = static_cast<u16>(taken);
      slot.cost_not_taken = static_cast<u16>(not_taken);
      slot.kind = SlotKind::Valid;
    } else {
      slot.kind = SlotKind::Undefined;
    }
  }
  // Build runs backward so each slot extends its successor's run. Every
  // slot inside a run carries the length and suffix cycle sum to the run's
  // end, which keeps the partial-cost formula (see FuseRun) exact even when
  // execution enters a run mid-way (branch targets need no special casing:
  // a jump into the middle of a run just sees a shorter run).
  for (size_t i = words; i-- > 0;) {
    const DecodedSlot& slot = slots_[i];
    if (slot.kind != SlotKind::Valid || !fusible_in_superblock(slot.instr)) {
      continue;  // stays {0, 0}: terminates any run arriving from below
    }
    const FuseRun next = (i + 1 < words) ? fuse_[i + 1] : FuseRun{};
    fuse_[i].len = next.len + 1;
    fuse_[i].cycles = next.cycles + slot.cost_taken;
  }
}

void DecodedImage::invalidate(Address addr, u32 size) {
  if (addr >= end_ || addr + size <= base_) return;
  const Address lo = addr > base_ ? addr : base_;
  const Address hi = addr + size < end_ ? addr + size : end_;
  const size_t first = (lo - base_) >> 2;
  const size_t last = (hi - base_ + 3) >> 2;  // exclusive, rounded up
  for (size_t i = first; i < last && i < slots_.size(); ++i) {
    if (slots_[i].kind != SlotKind::Undecoded) {
      slots_[i].kind = SlotKind::Undecoded;
      ++invalidations_;
    }
    fuse_[i] = {};
  }
  // Truncate every fused run that crossed into the invalidated range: walk
  // backward from `first`, shortening each run to end there and rebuilding
  // its suffix cycle sum from the (already rewritten) successor. Runs are
  // uncapped, so `len > first - j` identifies exactly the runs that reach
  // the range, and the walk stops at the first run that ends before it —
  // all earlier runs end at the same or an earlier non-fusible slot.
  for (size_t j = first; j-- > 0;) {
    if (fuse_[j].len <= first - j) break;
    fuse_[j].len = static_cast<u32>(first - j);
    fuse_[j].cycles = slots_[j].cost_taken + fuse_[j + 1].cycles;
  }
}

}  // namespace raptrack::isa
