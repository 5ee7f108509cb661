// Focused tests for the Verifier's parse search: the silent-rejoin
// attribution ambiguity, the benign-first two-pass semantics, the
// direction-selection analysis in the rewriter that keeps recursion
// parseable, the checker mode (scripted replay), and the straight-line
// block walk over the ReplayIndex's per-slot tables.
#include <gtest/gtest.h>

#include <memory>

#include "apps/runner.hpp"
#include "asm/assembler.hpp"
#include "cfa/provers.hpp"
#include "common/hex.hpp"
#include "fuzz_programs.hpp"
#include "gen_corpus.hpp"
#include "obs/metrics.hpp"
#include "rewrite/rap_rewriter.hpp"
#include "sim/machine.hpp"
#include "verify/deployment.hpp"
#include "verify/replayer.hpp"
#include "verify/verifier.hpp"

namespace raptrack::verify {
namespace {

struct Built {
  Program program;
  Address entry;
  Address code_end;
};

Built build(std::string_view src) {
  Built b{assemble(src, 0x0020'0000), 0, 0};
  b.entry = *b.program.symbol("_start");
  b.code_end = *b.program.symbol("__code_end");
  return b;
}

struct RapRun {
  rewrite::RewriteResult rewritten;
  ReplayInputs inputs;
  std::vector<trace::OracleEvent> oracle;
};

RapRun run_rap(const Built& b, u32 r2_seed = 0) {
  RapRun out;
  out.rewritten = rewrite::rewrite_for_rap_track(b.program, b.entry,
                                                 b.program.base(), b.code_end);
  sim::Machine machine(sim::MachineConfig{.mtb_buffer_bytes = 1 << 20});
  machine.load_program(out.rewritten.program);
  machine.dwt().configure_rap_track(
      out.rewritten.manifest.mtbar_base, out.rewritten.manifest.mtbar_limit,
      out.rewritten.manifest.mtbdr_base, out.rewritten.manifest.mtbdr_limit);
  machine.mtb().set_enabled(true);
  std::vector<u32>& loops = out.inputs.loop_values;
  machine.monitor().register_service(
      tz::Service::kRapLogLoopCondition, [&](cpu::CpuState& state) -> Cycles {
        const auto* veneer =
            out.rewritten.manifest.veneer_at_svc(state.pc() - 4);
        loops.push_back(state.reg(veneer->loop.iterator));
        return 1;
      });
  machine.reset_cpu(b.entry);
  machine.cpu().state().set_reg(isa::Reg::R2, static_cast<Word>(r2_seed));
  EXPECT_EQ(machine.run(1'000'000), cpu::HaltReason::Halted);
  out.inputs.packets = machine.mtb().read_log();
  out.oracle = machine.oracle().events();
  return out;
}

// The canonical silent-rejoin program: a leaf helper with an if/else whose
// arms both end in BX LR, called twice back to back. The CF_Log cannot
// attribute the single taken-packet to a specific call.
constexpr const char* kSilentRejoin = R"(
_start:
    li r4, =0x20201000
    movi r0, #5          ; first call: branch NOT taken (0 stored)
    bl classify
    str r0, [r4, #0]
    movi r0, #20         ; second call: branch taken (1 stored)
    bl classify
    str r0, [r4, #4]
    hlt
classify:                ; r0 -> 1 if r0 > 9 else 0
    cmp r0, #9
    bgt big
    movi r0, #0
    bx lr
big:
    movi r0, #1
    bx lr
__code_end:
)";

TEST(ReplaySearch, SilentRejoinProducesAConsistentBenignParse) {
  const Built b = build(kSilentRejoin);
  const RapRun run = run_rap(b);
  // Exactly one packet from the bgt slot (the second call took it).
  ASSERT_EQ(run.inputs.packets.size(), 1u);

  PathReplayer replayer(run.rewritten.program, b.entry, ReplayMode::Rap);
  replayer.set_rap_manifest(&run.rewritten.manifest);
  const ReplayResult result = replayer.replay(run.inputs);
  EXPECT_TRUE(result.complete) << result.failure;
  EXPECT_TRUE(result.findings.empty());
  // The parse may attribute the packet to either call (the log genuinely
  // does not distinguish), but it must contain the same edge set…
  EXPECT_EQ(result.events.size(), run.oracle.size());
  // …and the true path must also be an accepted parse.
  const ReplayResult checked = replayer.check_path(run.oracle, run.inputs);
  EXPECT_TRUE(checked.complete) << checked.failure;
  EXPECT_EQ(checked.events, run.oracle);
}

TEST(ReplaySearch, CheckerModeRejectsAWrongScript) {
  const Built b = build(kSilentRejoin);
  const RapRun run = run_rap(b);

  // Corrupt the script: claim the program halted after the first call.
  auto wrong = run.oracle;
  wrong.resize(wrong.size() / 2);
  PathReplayer replayer(run.rewritten.program, b.entry, ReplayMode::Rap);
  replayer.set_rap_manifest(&run.rewritten.manifest);
  const ReplayResult checked = replayer.check_path(wrong, run.inputs);
  EXPECT_FALSE(checked.complete);
}

// Recursion parseability: the rewriter's silent-rejoin analysis must flip
// the base-case conditional of a recursive function to not-taken logging
// (the taken path immediately crosses the logged POP return).
TEST(ReplaySearch, RecursionBaseCaseUsesDecidableDirection) {
  const Built b = build(R"(
_start:
    movi r0, #9
    bl tri
    hlt
tri:                      ; triangular(r0), recursive
    push {r4, lr}
    cmp r0, #1
    ble tri_base
    mov r4, r0
    sub r0, r4, #1
    bl tri
    add r0, r0, r4
    pop {r4, pc}
tri_base:
    pop {r4, pc}
__code_end:
  )");
  const auto rewritten = rewrite::rewrite_for_rap_track(
      b.program, b.entry, b.program.base(), b.code_end);
  const Address ble_site = *b.program.symbol("tri") + 8;
  const auto* slot = rewritten.manifest.slot_for_site(ble_site);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->kind, rewrite::SlotKind::CondNotTaken);

  // The reconstruction is exact (no ambiguity left to search through).
  const RapRun run = run_rap(b);
  PathReplayer replayer(run.rewritten.program, b.entry, ReplayMode::Rap);
  replayer.set_rap_manifest(&run.rewritten.manifest);
  const ReplayResult result = replayer.replay(run.inputs);
  EXPECT_TRUE(result.complete) << result.failure;
  EXPECT_EQ(result.events, run.oracle);
}

// Two-pass semantics: a benign run whose greedy parse would raise a
// spurious ROP finding must still verify clean (the strict pass finds the
// benign parse); a genuinely malicious log must still be convicted.
TEST(ReplaySearch, BenignFirstSearchAvoidsSpuriousFindings) {
  // Recursive shape where a wrong greedy attribution leads to a shadow-stack
  // mismatch downstream.
  const Built b = build(R"(
_start:
    movi r0, #6
    bl fib
    hlt
fib:
    push {r4, r5, lr}
    cmp r0, #2
    blt base
    mov r4, r0
    sub r0, r4, #1
    bl fib
    mov r5, r0
    sub r0, r4, #2
    bl fib
    add r0, r5, r0
    pop {r4, r5, pc}
base:
    pop {r4, r5, pc}
__code_end:
  )");
  const RapRun run = run_rap(b);
  PathReplayer replayer(run.rewritten.program, b.entry, ReplayMode::Rap);
  replayer.set_rap_manifest(&run.rewritten.manifest);
  const ReplayResult result = replayer.replay(run.inputs);
  EXPECT_TRUE(result.complete) << result.failure;
  EXPECT_TRUE(result.findings.empty());
  EXPECT_EQ(result.events, run.oracle);
}

TEST(ReplaySearch, MaliciousEvidenceStillConvicted) {
  const Built b = build(R"(
_start:
    bl fn
    hlt
gadget:
    hlt
fn:
    push {r4, lr}
    pop {r4, pc}
__code_end:
  )");
  RapRun run = run_rap(b);
  ASSERT_EQ(run.inputs.packets.size(), 1u);
  run.inputs.packets[0].destination = *b.program.symbol("gadget");

  PathReplayer replayer(run.rewritten.program, b.entry, ReplayMode::Rap);
  replayer.set_rap_manifest(&run.rewritten.manifest);
  const ReplayResult result = replayer.replay(run.inputs);
  // No benign parse exists (the packet's destination is the gadget), so the
  // lenient pass reports the ROP.
  EXPECT_TRUE(result.complete) << result.failure;
  ASSERT_FALSE(result.findings.empty());
  EXPECT_NE(result.findings[0].description.find("ROP"), std::string::npos);
}

TEST(ReplaySearch, DeepRecursionParsesQuickly) {
  // fib(14): ~1200 calls. Without direction selection + memoized search
  // this blew past 100k backtracks; now it must parse near-instantly.
  const Built b = build(R"(
_start:
    movi r0, #14
    bl fib
    hlt
fib:
    push {r4, r5, lr}
    cmp r0, #2
    blt base
    mov r4, r0
    sub r0, r4, #1
    bl fib
    mov r5, r0
    sub r0, r4, #2
    bl fib
    add r0, r5, r0
    pop {r4, r5, pc}
base:
    pop {r4, r5, pc}
__code_end:
  )");
  const RapRun run = run_rap(b);
  PathReplayer replayer(run.rewritten.program, b.entry, ReplayMode::Rap);
  replayer.set_rap_manifest(&run.rewritten.manifest);
  const ReplayResult result = replayer.replay(run.inputs);
  EXPECT_TRUE(result.complete) << result.failure;
  EXPECT_EQ(result.events, run.oracle);
  // The walk should be essentially linear in the path length.
  EXPECT_LT(result.steps, run.oracle.size() * 40 + 1000);
}

TEST(ReplaySearch, AmbiguousLoopReentryStillParses) {
  // An outer construct that re-enters an if/else region through unlogged
  // edges from both directions: neither direction is decidable, so the
  // backtracking search must cover it.
  const Built b = build(R"(
_start:
    li r4, =0x20201000
    movi r5, #0
    movi r6, #0
again:
    and r0, r6, r7       ; r7 unknown to the verifier -> undecidable flags
    bl classify
    add r5, r5, r0
    addi r6, r6, #1
    cmp r6, #6
    blt again
    str r5, [r4]
    hlt
classify:
    cmp r0, #0
    bne nonzero
    movi r0, #3
    bx lr
nonzero:
    movi r0, #4
    bx lr
__code_end:
  )");
  const RapRun run = run_rap(b);
  PathReplayer replayer(run.rewritten.program, b.entry, ReplayMode::Rap);
  replayer.set_rap_manifest(&run.rewritten.manifest);
  const ReplayResult result = replayer.replay(run.inputs);
  EXPECT_TRUE(result.complete) << result.failure;
  EXPECT_TRUE(result.findings.empty());
  EXPECT_EQ(result.events.size(), run.oracle.size());
  const ReplayResult checked = replayer.check_path(run.oracle, run.inputs);
  EXPECT_TRUE(checked.complete) << checked.failure;
}

// Greedy-first skip rule: a failed greedy pass that crossed no site where
// the search would save a checkpoint is already the search's result, so a
// truncated prefix of an unambiguous chain costs one greedy pass and no
// search. It meets no finding either, so the lenient pass (which would
// retrace it) does not run.
TEST(ReplaySearch, TruncatedUnambiguousPrefixRunsNoSearch) {
  if (!obs::kEnabled) GTEST_SKIP() << "RAP_OBS=OFF build";
  // Four calls whose conditional is never taken: its slot packet never
  // appears, so every decision there is certain, and the only packets are
  // the four monitored returns.
  const Built b = build(R"(
_start:
    li r4, =0x20201000
    bl fn
    bl fn
    bl fn
    bl fn
    hlt
fn:
    push {r4, lr}
    ldr r0, [r4, #0]     ; unknown to the verifier
    cmp r0, #9
    bgt big
    pop {r4, pc}
big:
    movi r0, #1
    pop {r4, pc}
__code_end:
  )");
  RapRun run = run_rap(b);
  ASSERT_EQ(run.inputs.packets.size(), 4u);
  run.inputs.packets.resize(2);  // the third return finds the log exhausted

  PathReplayer replayer(run.rewritten.program, b.entry, ReplayMode::Rap);
  replayer.set_rap_manifest(&run.rewritten.manifest);
  const obs::Snapshot before = obs::registry().scrape();
  const ReplayResult result = replayer.replay(run.inputs);
  const obs::Snapshot after = obs::registry().scrape();
  EXPECT_FALSE(result.complete);
  EXPECT_NE(result.failure.find("CF_Log exhausted"), std::string::npos)
      << result.failure;
  EXPECT_EQ(result.backtracks, 0u);
  EXPECT_EQ(after.value("verify.replay.greedy_passes") -
                before.value("verify.replay.greedy_passes"),
            1u);
  EXPECT_EQ(after.value("verify.replay.search_passes") -
                before.value("verify.replay.search_passes"),
            0u);
}

// Losslessness over the generative checkpoint-dense corpus (gen_corpus.hpp):
// one representative per (nesting depth x alarm-loop shape). Every synthesized
// program must parse completely with no findings, reconstruct the oracle's
// edge multiset, and accept the true path in checker mode — the same
// contract the hand-written shapes above pin, now over the grid the memo
// differential fuzzes.
TEST(ReplaySearch, GeneratedCorpusSamplesStayLossless) {
  for (const int depth : {1, 2, 3}) {
    for (const int shape : {0, 1, 2}) {
      const gen::GenParams p{.depth = depth,
                             .alarm_every = 4,
                             .loop_shape = shape,
                             .seed = static_cast<u64>(depth + shape)};
      const std::string name = gen::corpus_name(p);
      const Built b = build(gen::corpus_source(p));
      const RapRun run = run_rap(b);
      PathReplayer replayer(run.rewritten.program, b.entry, ReplayMode::Rap);
      replayer.set_rap_manifest(&run.rewritten.manifest);
      const ReplayResult result = replayer.replay(run.inputs);
      EXPECT_TRUE(result.complete) << name << ": " << result.failure;
      EXPECT_TRUE(result.findings.empty()) << name;
      EXPECT_EQ(result.events.size(), run.oracle.size()) << name;
      const ReplayResult checked = replayer.check_path(run.oracle, run.inputs);
      EXPECT_TRUE(checked.complete) << name << ": " << checked.failure;
      EXPECT_EQ(checked.events, run.oracle) << name;
    }
  }
}

// -- per-slot tables and the block walk ---------------------------------------

/// Recompute every per-slot table of `index` the slow way, from the
/// authoritative per-word decoder and the manifest's linear lookups.
void expect_slot_tables_match(const ReplayIndex& index, const Program& program,
                              const rewrite::Manifest* rap,
                              const std::string& name) {
  const auto straight = [&](Address pc) {
    if (!program.contains(pc) || pc + 4 > program.end()) return false;
    const auto in = program.instruction_at(pc);
    return in && isa::branch_kind(*in) == isa::BranchKind::None &&
           in->op != isa::Op::SVC;
  };
  size_t runs = 0;
  for (Address pc = program.base(); pc + 4 <= program.end(); pc += 4) {
    SCOPED_TRACE(name + " @ " + hex32(pc));
    const auto in = program.instruction_at(pc);
    ASSERT_EQ(index.instruction_at(pc) != nullptr, in.has_value());
    if (in) {
      EXPECT_EQ(index.branch_kind(pc), isa::branch_kind(*in));
    }
    u32 run = 0;
    while (straight(pc + 4 * run)) ++run;
    EXPECT_EQ(index.straight_run(pc), run);
    if (run > 1) ++runs;
    if (rap != nullptr) {
      EXPECT_EQ(index.slot_for_site(pc), rap->slot_for_site(pc));
    }
  }
  EXPECT_GT(runs, 0u) << name << ": no straight-line run to check";
}

TEST(ReplayIndexTables, MatchNaiveRecomputation) {
  for (const auto& app : apps::app_registry()) {
    const apps::PreparedApp p = apps::prepare_app(app);
    expect_slot_tables_match(
        ReplayIndex(p.built.program, ReplayMode::Naive, nullptr, nullptr),
        p.built.program, nullptr, app.name + "/naive");
    expect_slot_tables_match(
        ReplayIndex(p.rap.program, ReplayMode::Rap, &p.rap.manifest, nullptr),
        p.rap.program, &p.rap.manifest, app.name + "/rap");
    expect_slot_tables_match(ReplayIndex(p.traces.program, ReplayMode::Traces,
                                         nullptr, &p.traces.manifest),
                             p.traces.program, nullptr, app.name + "/traces");
  }
  for (u64 seed = 1; seed <= 64; ++seed) {
    const Program program = testing::fuzz_program(seed);
    expect_slot_tables_match(
        ReplayIndex(program, ReplayMode::Naive, nullptr, nullptr), program,
        nullptr, "fuzz " + std::to_string(seed));
  }
}

/// One registry-app chain in `mode`, verified once to obtain its decoded
/// evidence and clean step count.
struct ModeChain {
  std::shared_ptr<const Deployment> deployment;
  ReplayInputs inputs;
  u64 steps = 0;
};

ModeChain verified_chain(const apps::PreparedApp& p, ReplayMode mode) {
  constexpr u32 kWatermark = 256;
  const sim::MachineConfig machine{.mtb_buffer_bytes = 512};
  const cfa::SessionOptions session{.watermark_bytes = kWatermark};
  const cfa::Challenge chal{};
  ModeChain out;
  apps::MethodRun run;
  switch (mode) {
    case ReplayMode::Naive:
      run = apps::run_naive(p, 3, machine, session, chal);
      out.deployment = Deployment::naive(p.built.program, p.built.entry);
      break;
    case ReplayMode::Traces:
      run = apps::run_traces(p, 3, machine, session, chal);
      out.deployment = Deployment::traces(p.traces.program, p.traces.manifest,
                                          p.built.entry);
      break;
    case ReplayMode::Rap:
      run = apps::run_rap(p, 3, machine, session, chal);
      out.deployment =
          Deployment::rap(p.rap.program, p.rap.manifest, p.built.entry);
      break;
  }
  Verifier verifier(apps::demo_key());
  verifier.expect(out.deployment);
  verifier.set_expected_watermark(kWatermark);
  verifier.adopt_challenge(chal);
  VerificationResult result = verifier.verify(chal, run.attestation.reports);
  EXPECT_TRUE(result.accepted()) << result.detail;
  out.inputs = std::move(result.inputs);
  out.steps = result.replay.steps;
  return out;
}

// The block walk charges steps one instruction at a time: a replay whose
// budget is one step short of the clean chain's count stops on exactly that
// budget, in every mode, with the memo on (warm) and off.
TEST(ReplayBlockWalk, StepBudgetIsInstructionGranular) {
  const apps::PreparedApp p = apps::prepare_app(apps::app_by_name("gps"));
  for (const ReplayMode mode :
       {ReplayMode::Rap, ReplayMode::Naive, ReplayMode::Traces}) {
    const ModeChain chain = verified_chain(p, mode);
    ASSERT_GT(chain.steps, 16u);
    for (const bool memo : {false, true}) {
      for (u64 budget = chain.steps - 16; budget <= chain.steps + 1;
           ++budget) {
        SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)) +
                     (memo ? " memo" : " plain") + ", budget " +
                     std::to_string(budget) + " of " +
                     std::to_string(chain.steps));
        PathReplayer replayer(*chain.deployment);
        if (memo && kMemoEnabled) {
          replayer.set_memo(&chain.deployment->memo());
        }
        const ReplayResult result = replayer.replay(chain.inputs, budget);
        if (budget >= chain.steps) {
          EXPECT_TRUE(result.complete) << result.failure;
          EXPECT_EQ(result.steps, chain.steps);
        } else {
          EXPECT_FALSE(result.complete);
          EXPECT_EQ(result.failure, "replay step budget exceeded");
          EXPECT_EQ(result.steps, budget);
        }
      }
    }
  }
}

u64 engines_created(const obs::Snapshot& after, const obs::Snapshot& before) {
  return after.value("verify.replay.greedy_passes") -
         before.value("verify.replay.greedy_passes") +
         after.value("verify.replay.search_passes") -
         before.value("verify.replay.search_passes");
}

// A damaged chain (its final report lost) whose strict pass fails without a
// finding is final with the frontier on too: no lenient pass runs, so a cold
// replay creates at most the strict greedy and search engines, and the
// verification stays byte-identical to the memo-off one. On this chain the
// greedy parse of the prefix fails at an ambiguous site, so the strict
// search does run.
TEST(ReplayPasses, FindingFreeStrictFailureIsFinalWithFrontier) {
  if (!obs::kEnabled) GTEST_SKIP() << "RAP_OBS=OFF build";
  constexpr u32 kWatermark = 128;
  const apps::PreparedApp p = apps::prepare_app(apps::app_by_name("syringe"));
  const cfa::Challenge chal{};
  const apps::MethodRun run =
      apps::run_rap(p, 1, sim::MachineConfig{.mtb_buffer_bytes = 256},
                    cfa::SessionOptions{.watermark_bytes = kWatermark}, chal);
  std::vector<cfa::SignedReport> chain = run.attestation.reports;
  ASSERT_GE(chain.size(), 2u);
  chain.pop_back();

  const auto verify_with = [&](bool memo) {
    Verifier verifier(apps::demo_key());
    verifier.expect(
        Deployment::rap(p.rap.program, p.rap.manifest, p.built.entry));
    verifier.set_expected_watermark(kWatermark);
    verifier.set_memo(memo);
    verifier.set_frontier(memo);
    verifier.adopt_challenge(chal);
    return verifier.verify(chal, chain);
  };
  const VerificationResult plain = verify_with(false);
  ASSERT_EQ(plain.verdict, Verdict::Inconclusive) << plain.detail;
  ASSERT_FALSE(plain.replay.complete);
  ASSERT_TRUE(plain.replay.findings.empty());
  const obs::Snapshot before = obs::registry().scrape();
  const VerificationResult memo = verify_with(true);
  const obs::Snapshot after = obs::registry().scrape();
  EXPECT_EQ(after.value("verify.replay.search_passes") -
                before.value("verify.replay.search_passes"),
            1u);
  EXPECT_LE(engines_created(after, before), 2u);
  EXPECT_EQ(hex_digest(verification_digest(memo)),
            hex_digest(verification_digest(plain)));
}

// A strict pass that meets a finding is not final: the lenient pass runs and
// reports the finding, also when the evidence then runs out.
TEST(ReplayPasses, StrictFailureWithFindingStillRunsLenientPass) {
  if (!obs::kEnabled) GTEST_SKIP() << "RAP_OBS=OFF build";
  const Built b = build(R"(
_start:
    bl fn
    bl fn
    hlt
gadget:
    bl fn
    hlt
fn:
    push {r4, lr}
    pop {r4, pc}
__code_end:
  )");
  RapRun run = run_rap(b);
  ASSERT_EQ(run.inputs.packets.size(), 2u);
  run.inputs.packets[0].destination = *b.program.symbol("gadget");
  run.inputs.packets.resize(1);  // the gadget's own return finds no packet

  const auto deployment =
      Deployment::rap(run.rewritten.program, run.rewritten.manifest, b.entry);
  PathReplayer replayer(*deployment);
  if (kMemoEnabled) replayer.set_memo(&deployment->memo());
  const obs::Snapshot before = obs::registry().scrape();
  const ReplayResult result = replayer.replay(run.inputs);
  const obs::Snapshot after = obs::registry().scrape();
  EXPECT_FALSE(result.complete);
  EXPECT_NE(result.failure.find("CF_Log exhausted"), std::string::npos)
      << result.failure;
  ASSERT_FALSE(result.findings.empty());
  EXPECT_NE(result.findings[0].description.find("ROP"), std::string::npos);
  // Strict greedy, then lenient greedy: both final, no search.
  EXPECT_EQ(after.value("verify.replay.greedy_passes") -
                before.value("verify.replay.greedy_passes"),
            2u);
  EXPECT_EQ(engines_created(after, before), 2u);
}

}  // namespace
}  // namespace raptrack::verify
