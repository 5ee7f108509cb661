// Unit tests: MTB recording/wrap/watermark/activation-latency, DWT range
// gating, and the paper's §IV-B semantics (transitions into MTBAR are not
// recorded; transitions out of it are).
#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "common/rng.hpp"
#include "cpu/executor.hpp"
#include "mem/bus.hpp"
#include "trace/dwt.hpp"
#include "trace/mtb.hpp"
#include "sim/machine.hpp"
#include "trace/trace_fabric.hpp"

namespace raptrack::trace {
namespace {

using isa::BranchKind;

class MtbTest : public ::testing::Test {
 protected:
  MtbTest()
      : map_(mem::MemoryMap::make_default()),
        mtb_(map_, mem::MapLayout::kMtbSramBase, 64) {}

  mem::MemoryMap map_;
  Mtb mtb_;
};

TEST_F(MtbTest, DisabledMtbRecordsNothing) {
  mtb_.set_tstart_enable(true);
  mtb_.on_branch(0x100, 0x200, BranchKind::Direct);
  EXPECT_EQ(mtb_.packets_recorded(), 0u);
}

TEST_F(MtbTest, AlwaysOnModeRecordsEveryBranch) {
  mtb_.set_enabled(true);
  mtb_.set_tstart_enable(true);
  mtb_.on_branch(0x100, 0x200, BranchKind::Direct);
  mtb_.on_branch(0x204, 0x300, BranchKind::DirectCall);
  const PacketLog log = mtb_.read_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].source, 0x100u);
  EXPECT_EQ(log[0].destination, 0x200u);
  EXPECT_TRUE(log[0].atomic_restart);   // A-bit on the first packet
  EXPECT_FALSE(log[1].atomic_restart);
}

TEST_F(MtbTest, PacketsLandInSecureSram) {
  mtb_.set_enabled(true);
  mtb_.set_tstart_enable(true);
  mtb_.on_branch(0x100, 0x200, BranchKind::Direct);
  EXPECT_EQ(map_.raw_read32(mem::MapLayout::kMtbSramBase) & ~1u, 0x100u);
  EXPECT_EQ(map_.raw_read32(mem::MapLayout::kMtbSramBase + 4), 0x200u);
}

TEST_F(MtbTest, WrapsAndKeepsMostRecent) {
  mtb_.set_enabled(true);
  mtb_.set_tstart_enable(true);
  for (u32 i = 0; i < 10; ++i) {  // 10 packets > 8-packet buffer
    mtb_.on_branch(0x100 + 8 * i, 0x200 + 8 * i, BranchKind::Direct);
  }
  EXPECT_TRUE(mtb_.wrapped());
  EXPECT_EQ(mtb_.total_bytes_written(), 80u);
  const PacketLog log = mtb_.read_log();
  ASSERT_EQ(log.size(), 8u);
  // The oldest surviving packet is #2 (0 and 1 were overwritten).
  EXPECT_EQ(log.front().source, 0x110u);
  EXPECT_EQ(log.back().source, 0x148u);
}

TEST_F(MtbTest, WatermarkFiresHandlerAndSupportsReset) {
  mtb_.set_enabled(true);
  mtb_.set_tstart_enable(true);
  mtb_.set_watermark(16);  // every 2 packets
  int fires = 0;
  mtb_.set_watermark_handler([&] {
    ++fires;
    mtb_.reset_position();
  });
  for (u32 i = 0; i < 7; ++i) mtb_.on_branch(8 * i, 0x1000, BranchKind::Direct);
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(mtb_.position(), 8u);  // one packet since the last reset
  EXPECT_EQ(mtb_.total_bytes_written(), 56u);
}

TEST_F(MtbTest, WatermarkWithoutResetStillWrapsSafely) {
  // A watermark handler that does not reset the head pointer must not push
  // writes past the buffer: the MTB falls back to its normal wrap.
  mtb_.set_enabled(true);
  mtb_.set_tstart_enable(true);
  mtb_.set_watermark(64);  // == buffer size
  int fires = 0;
  mtb_.set_watermark_handler([&] { ++fires; });  // no reset_position()
  for (u32 i = 0; i < 9; ++i) mtb_.on_branch(8 * i, 0x1000, BranchKind::Direct);
  EXPECT_EQ(fires, 1);
  EXPECT_TRUE(mtb_.wrapped());
  EXPECT_EQ(mtb_.position(), 8u);  // one packet past the wrap
  EXPECT_EQ(mtb_.read_log().size(), 8u);
}

TEST_F(MtbTest, WatermarkValidation) {
  EXPECT_THROW(mtb_.set_watermark(12), Error);   // not packet-aligned
  EXPECT_THROW(mtb_.set_watermark(128), Error);  // beyond buffer
  EXPECT_THROW(Mtb(map_, mem::MapLayout::kMtbSramBase, 12), Error);
}

TEST_F(MtbTest, TstartTstopGateRecording) {
  mtb_.set_enabled(true);
  mtb_.set_activation_latency(0);
  mtb_.on_branch(0x100, 0x200, BranchKind::Direct);  // not started
  mtb_.tstart();
  mtb_.on_branch(0x104, 0x204, BranchKind::Direct);  // recorded
  mtb_.tstop();
  mtb_.on_branch(0x108, 0x208, BranchKind::Direct);  // stopped
  EXPECT_EQ(mtb_.packets_recorded(), 1u);
  EXPECT_EQ(mtb_.read_log()[0].source, 0x104u);
}

TEST_F(MtbTest, ActivationLatencyDelaysRecording) {
  mtb_.set_enabled(true);
  mtb_.set_activation_latency(2);
  mtb_.tstart();
  mtb_.on_branch(0x100, 0x200, BranchKind::Direct);  // lost: latency pending
  mtb_.on_instruction_retired();
  mtb_.on_branch(0x104, 0x204, BranchKind::Direct);  // still pending
  mtb_.on_instruction_retired();
  mtb_.on_branch(0x108, 0x208, BranchKind::Direct);  // now live
  ASSERT_EQ(mtb_.packets_recorded(), 1u);
  EXPECT_EQ(mtb_.read_log()[0].source, 0x108u);
}

TEST(Dwt, ComparatorValidation) {
  mem::MemoryMap map = mem::MemoryMap::make_default();
  Mtb mtb(map, mem::MapLayout::kMtbSramBase, 64);
  Dwt dwt(mtb);
  EXPECT_THROW(dwt.configure(4, {}), Error);
  EXPECT_THROW(dwt.configure_rap_track(0x200, 0x100, 0x300, 0x400), Error);
}

TEST(Dwt, RangeGatingDrivesMtb) {
  mem::MemoryMap map = mem::MemoryMap::make_default();
  Mtb mtb(map, mem::MapLayout::kMtbSramBase, 64);
  mtb.set_enabled(true);
  mtb.set_activation_latency(0);
  Dwt dwt(mtb);
  dwt.configure_rap_track(/*mtbar*/ 0x1000, 0x1fff, /*mtbdr*/ 0x0, 0x0fff);

  dwt.observe(0x0100);  // MTBDR -> stop
  EXPECT_FALSE(mtb.tracing());
  dwt.observe(0x1000);  // MTBAR -> start
  EXPECT_TRUE(mtb.tracing());
  dwt.observe(0x0ffc);  // back to MTBDR -> stop
  EXPECT_FALSE(mtb.tracing());
}

TEST(Dwt, WatchpointComparatorFires) {
  mem::MemoryMap map = mem::MemoryMap::make_default();
  Mtb mtb(map, mem::MapLayout::kMtbSramBase, 64);
  Dwt dwt(mtb);
  dwt.configure(0, {ComparatorAction::Watchpoint, 0x1234});
  Address hit = 0;
  dwt.set_watchpoint_handler([&](Address pc) { hit = pc; });
  dwt.observe(0x1230);
  EXPECT_EQ(hit, 0u);
  dwt.observe(0x1234);
  EXPECT_EQ(hit, 0x1234u);
}

// Property: inert_window(lo, hi) == true must mean observe() is a no-op at
// every pc in [lo, hi) — the executor's superblock path retires such a
// window without calling observe() at all. Random comparator banks (ranges,
// watchpoints, unaligned addresses, limits below their base), programmed
// through either configure() or the register interface, each paired with
// random windows and a random started/stopped MTB.
TEST(Dwt, InertWindowMeansObserveChangesNothing) {
  constexpr Address kLo = 0x2000;
  constexpr u32 kSpanWords = 256;
  u64 inert = 0;
  u64 live = 0;
  mem::MemoryMap map = mem::MemoryMap::make_default();
  for (u64 seed = 1; seed <= 400; ++seed) {
    Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ull);
    Mtb mtb(map, mem::MapLayout::kMtbSramBase, 64);
    mtb.set_enabled(true);
    mtb.set_activation_latency(0);
    Dwt dwt(mtb);
    u64 watch_hits = 0;
    dwt.set_watchpoint_handler([&](Address) { ++watch_hits; });

    for (unsigned i = 0; i < Dwt::kNumComparators; ++i) {
      const auto action = static_cast<ComparatorAction>(rng.next_below(6));
      // Near the window span (so ranges and watchpoints straddle window
      // edges), word-aligned or not.
      Address address = kLo - 64 + 4 * static_cast<Address>(
                                           rng.next_below(kSpanWords + 32));
      if (rng.chance(1, 4)) address += 1 + static_cast<Address>(rng.next_below(3));
      if (rng.chance(1, 2)) {
        dwt.configure(i, {action, address});
      } else {
        dwt.write_register(i * Dwt::kCompStride + Dwt::kRegComp, address);
        dwt.write_register(i * Dwt::kCompStride + Dwt::kRegFunction,
                           static_cast<u32>(action));
      }
    }

    for (int w = 0; w < 32; ++w) {
      if (rng.chance(1, 2)) {
        mtb.tstart();
      } else {
        mtb.tstop();
      }
      const Address lo =
          kLo + 4 * static_cast<Address>(rng.next_below(kSpanWords));
      const Address hi = lo + 4 * (1 + static_cast<Address>(rng.next_below(32)));
      if (!dwt.inert_window(lo, hi)) {
        ++live;
        continue;
      }
      ++inert;
      const bool tracing = mtb.tracing();
      const u64 starts = mtb.tstart_events();
      const u64 stops = mtb.tstop_events();
      for (Address pc = lo; pc < hi; pc += 4) dwt.observe(pc);
      ASSERT_EQ(watch_hits, 0u) << "seed " << seed << " window " << lo;
      ASSERT_EQ(mtb.tracing(), tracing) << "seed " << seed << " window " << lo;
      ASSERT_EQ(mtb.tstart_events(), starts) << "seed " << seed;
      ASSERT_EQ(mtb.tstop_events(), stops) << "seed " << seed;
    }
  }
  // Both answers must be common, or the property is vacuous.
  EXPECT_GT(inert, 1'000u);
  EXPECT_GT(live, 1'000u);
}

// End-to-end §IV-B semantics on a real executor: branches from MTBDR into
// MTBAR are not recorded; branches inside and out of MTBAR are.
TEST(TraceFabric, MtbarEntryUnrecordedExitRecorded) {
  mem::MemoryMap map = mem::MemoryMap::make_default();
  mem::Bus bus(map);
  cpu::Executor cpu(bus);
  Mtb mtb(map, mem::MapLayout::kMtbSramBase, 1024);
  Dwt dwt(mtb);
  TraceFabric fabric(dwt, mtb);
  cpu.add_sink(&fabric);

  const Program p = assemble(R"(
    b slot            ; MTBDR -> MTBAR: must NOT be recorded
back:
    hlt
slot:
    nop               ; covers MTB activation latency (1 instruction)
    b back            ; MTBAR -> MTBDR: must be recorded
  )",
                             mem::MapLayout::kNsFlashBase);
  map.load(p.base(), p.bytes());
  const Address slot = *p.symbol("slot");
  mtb.set_enabled(true);
  dwt.configure_rap_track(slot, slot + 8, p.base(), slot - 4);

  cpu.reset(p.base(), mem::MapLayout::kNsRamBase + 0x1000);
  EXPECT_EQ(cpu.run(100), cpu::HaltReason::Halted);

  const PacketLog log = mtb.read_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].source, slot + 4);
  EXPECT_EQ(log[0].destination, *p.symbol("back"));
}

TEST(Mtb, CorruptStoredWordRejectsOffsetsOutsideTheBuffer) {
  // Buffer placed mid-region so the SRAM words on both sides are mapped and
  // an out-of-range upset would land on them rather than fault.
  mem::MemoryMap map = mem::MemoryMap::make_default();
  constexpr Address kBase = mem::MapLayout::kMtbSramBase + 64;
  constexpr u32 kBytes = 64;
  Mtb mtb(map, kBase, kBytes);
  map.raw_write32(kBase - 4, 0x1111'1111u);
  map.raw_write32(kBase + kBytes, 0x2222'2222u);

  // 0xFFFFFFFC + 4 wraps to 0 in u32 arithmetic.
  EXPECT_THROW(mtb.corrupt_stored_word(0xFFFF'FFFCu, 0xFFFF'FFFFu), Error);
  EXPECT_THROW(mtb.corrupt_stored_word(kBytes - 2, 0xFFFF'FFFFu), Error);
  EXPECT_THROW(mtb.corrupt_stored_word(kBytes, 0xFFFF'FFFFu), Error);
  EXPECT_EQ(map.raw_read32(kBase - 4), 0x1111'1111u);
  EXPECT_EQ(map.raw_read32(kBase + kBytes), 0x2222'2222u);

  // The last word of the buffer is still in range.
  mtb.corrupt_stored_word(kBytes - 4, 0x0000'00FFu);
  EXPECT_EQ(map.raw_read32(kBase + kBytes - 4), 0x0000'00FFu);
  EXPECT_EQ(map.raw_read32(kBase + kBytes), 0x2222'2222u);
}

// -- register-level interface (MTB-M33 TRM layout) ---------------------------

TEST_F(MtbTest, RegisterInterfaceMirrorsState) {
  // MASTER: EN + TSTARTEN.
  mtb_.write_register(trace::Mtb::kRegMaster, 0x8000'0020u);
  EXPECT_TRUE(mtb_.enabled());
  EXPECT_TRUE(mtb_.tracing());  // TSTARTEN forces tracing on
  EXPECT_EQ(mtb_.read_register(trace::Mtb::kRegMaster), 0x8000'0020u);

  // FLOW: watermark.
  mtb_.write_register(trace::Mtb::kRegFlow, 16);
  EXPECT_EQ(mtb_.read_register(trace::Mtb::kRegFlow), 16u);

  // POSITION advances with packets and is resettable by register write.
  mtb_.on_branch(0x100, 0x200, isa::BranchKind::Direct);
  EXPECT_EQ(mtb_.read_register(trace::Mtb::kRegPosition), 8u);
  mtb_.write_register(trace::Mtb::kRegPosition, 0);
  EXPECT_EQ(mtb_.position(), 0u);

  // BASE is read-only and reports the buffer address.
  EXPECT_EQ(mtb_.read_register(trace::Mtb::kRegBase),
            mem::MapLayout::kMtbSramBase);
  EXPECT_THROW(mtb_.write_register(trace::Mtb::kRegBase, 0), Error);
  EXPECT_THROW(mtb_.read_register(0x40), Error);
}

TEST(Dwt, RegisterInterfaceProgramsComparators) {
  mem::MemoryMap map = mem::MemoryMap::make_default();
  Mtb mtb(map, mem::MapLayout::kMtbSramBase, 64);
  mtb.set_enabled(true);
  mtb.set_activation_latency(0);
  Dwt dwt(mtb);

  // Program the RAP-Track range configuration purely via registers.
  const auto prog = [&](unsigned index, u32 comp, ComparatorAction action) {
    dwt.write_register(index * Dwt::kCompStride + Dwt::kRegComp, comp);
    dwt.write_register(index * Dwt::kCompStride + Dwt::kRegFunction,
                       static_cast<u32>(action));
  };
  prog(0, 0x1000, ComparatorAction::MtbTstartBase);
  prog(1, 0x1fff, ComparatorAction::MtbTstartLimit);
  prog(2, 0x0000, ComparatorAction::MtbTstopBase);
  prog(3, 0x0fff, ComparatorAction::MtbTstopLimit);

  EXPECT_EQ(dwt.read_register(Dwt::kRegComp), 0x1000u);
  EXPECT_EQ(dwt.read_register(Dwt::kRegFunction),
            static_cast<u32>(ComparatorAction::MtbTstartBase));

  dwt.observe(0x1000);
  EXPECT_TRUE(mtb.tracing());
  dwt.observe(0x0800);
  EXPECT_FALSE(mtb.tracing());

  EXPECT_THROW(dwt.write_register(4 * Dwt::kCompStride, 0), Error);
  EXPECT_THROW(dwt.write_register(Dwt::kRegFunction, 99), Error);
}

TEST(TraceRegisters, SecureMmioWindowIsNsProtected) {
  // The trace units live behind Secure MMIO: the Non-Secure world cannot
  // read or reconfigure them (§IV-F), while the Secure World programs the
  // MTB through the bus exactly as on real hardware.
  sim::Machine machine;
  machine.map_trace_registers();

  EXPECT_THROW(machine.bus().read(0xf020'0004, 4, mem::WorldSide::NonSecure, 0),
               mem::FaultException);
  EXPECT_THROW(machine.bus().write(0xe000'1000, 0, 4,
                                   mem::WorldSide::NonSecure, 0),
               mem::FaultException);

  machine.bus().write(0xf020'0004, 0x8000'0020u, 4, mem::WorldSide::Secure, 0);
  EXPECT_TRUE(machine.mtb().enabled());
  EXPECT_TRUE(machine.mtb().tracing());
  EXPECT_EQ(machine.bus().read(0xf020'000c, 4, mem::WorldSide::Secure, 0),
            mem::MapLayout::kMtbSramBase);
}

TEST(BranchPacket, WordRoundTripPreservesABit) {
  BranchPacket packet{0x00201234, 0x00205678, true};
  const BranchPacket decoded =
      BranchPacket::from_words(packet.source_word(), packet.destination_word());
  EXPECT_EQ(decoded, packet);
  EXPECT_EQ(packet.source_word() & 1u, 1u);
}

}  // namespace
}  // namespace raptrack::trace
