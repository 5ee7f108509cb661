#include "verify/replayer.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <optional>
#include <set>

#include "common/bits.hpp"
#include "common/hex.hpp"
#include "obs/metrics.hpp"
#include "verify/deployment.hpp"
#include "verify/memo.hpp"

namespace raptrack::verify {

using isa::BranchKind;
using isa::Cond;
using isa::Instruction;
using isa::Op;
using isa::Reg;
using trace::BranchPacket;

namespace {

// Shadow flag bits in MemoValuation::flags: the value of each of NZCV in
// bits 0-3, whether it is known in bits 4-7.
constexpr u8 kFlagN = 1, kFlagZ = 2, kFlagC = 4, kFlagV = 8;

/// Evaluate a condition when the flags it needs are known.
std::optional<bool> evaluate_shadow(Cond cond, u8 flags) {
  const unsigned known = flags >> 4u;
  const bool n = (flags & kFlagN) != 0;
  const bool z = (flags & kFlagZ) != 0;
  const bool c = (flags & kFlagC) != 0;
  const bool v = (flags & kFlagV) != 0;
  const auto need = [known](unsigned mask, bool value) -> std::optional<bool> {
    if ((known & mask) != mask) return std::nullopt;
    return value;
  };
  switch (cond) {
    case Cond::EQ: return need(kFlagZ, z);
    case Cond::NE: return need(kFlagZ, !z);
    case Cond::CS: return need(kFlagC, c);
    case Cond::CC: return need(kFlagC, !c);
    case Cond::MI: return need(kFlagN, n);
    case Cond::PL: return need(kFlagN, !n);
    case Cond::VS: return need(kFlagV, v);
    case Cond::VC: return need(kFlagV, !v);
    case Cond::HI: return need(kFlagC | kFlagZ, c && !z);
    case Cond::LS: return need(kFlagC | kFlagZ, !c || z);
    case Cond::GE: return need(kFlagN | kFlagV, n == v);
    case Cond::LT: return need(kFlagN | kFlagV, n != v);
    case Cond::GT: return need(kFlagZ | kFlagN | kFlagV, !z && n == v);
    case Cond::LE: return need(kFlagZ | kFlagN | kFlagV, z || n != v);
    case Cond::AL: return true;
  }
  return std::nullopt;
}

/// Constant-propagating register valuation along the reconstructed path.
/// It has the memo cache's MemoValuation layout, unknown registers and flag
/// values held at 0, so a memo snapshot of it is a plain copy.
struct Valuation : MemoValuation {
  std::optional<u32> read(Reg r, Address pc) const {
    if (r == Reg::PC) return pc + 4;
    const unsigned i = isa::index(r);
    if (((known >> i) & 1u) == 0) return std::nullopt;
    return regs[i];
  }

  void write(Reg r, std::optional<u32> value) {
    if (r == Reg::PC) return;  // control flow handled by the replayer
    const unsigned i = isa::index(r);
    const auto mask = static_cast<u16>(1u << i);
    if (value) {
      regs[i] = *value;
      known |= mask;
    } else {
      regs[i] = 0;
      known &= static_cast<u16>(~mask);
    }
  }

  /// Make the flags in `mask` known, with the values of `values`.
  void set_flags(u8 mask, u8 values) {
    flags = static_cast<u8>((flags & ~(mask | (mask << 4))) |
                            (values & mask) | (mask << 4));
  }

  void forget_flags(u8 mask) {
    flags = static_cast<u8>(flags & ~(mask | (mask << 4)));
  }

  void set_nz(std::optional<u32> result) {
    if (result) {
      set_flags(kFlagN | kFlagZ, static_cast<u8>((*result >> 31 ? kFlagN : 0) |
                                                 (*result == 0 ? kFlagZ : 0)));
    } else {
      forget_flags(kFlagN | kFlagZ);
    }
  }

  void set_add_flags(std::optional<u32> a, std::optional<u32> b) {
    if (a && b) {
      const u64 wide = static_cast<u64>(*a) + *b;
      const u32 result = static_cast<u32>(wide);
      set_nz(result);
      const bool c = (wide >> 32) != 0;
      const bool v = (~(*a ^ *b) & (*a ^ result) & 0x8000'0000u) != 0;
      set_flags(kFlagC | kFlagV,
                static_cast<u8>((c ? kFlagC : 0) | (v ? kFlagV : 0)));
    } else {
      forget_flags(kFlagN | kFlagZ | kFlagC | kFlagV);
    }
  }

  void set_sub_flags(std::optional<u32> a, std::optional<u32> b) {
    if (a && b) {
      const u32 result = *a - *b;
      set_nz(result);
      const bool c = *a >= *b;
      const bool v = ((*a ^ *b) & (*a ^ result) & 0x8000'0000u) != 0;
      set_flags(kFlagC | kFlagV,
                static_cast<u8>((c ? kFlagC : 0) | (v ? kFlagV : 0)));
    } else {
      forget_flags(kFlagN | kFlagZ | kFlagC | kFlagV);
    }
  }

  /// Model the data effects of a non-control-flow instruction.
  void apply(const Instruction& in, Address pc) {
    const auto rn = [&] { return read(in.rn, pc); };
    const auto rm = [&] { return read(in.rm, pc); };
    const auto imm = [&] { return std::optional<u32>(static_cast<u32>(in.imm)); };
    const auto binop = [&](std::optional<u32> a, std::optional<u32> b,
                           auto&& fn) -> std::optional<u32> {
      if (a && b) return fn(*a, *b);
      return std::nullopt;
    };

    switch (in.op) {
      case Op::MOVI:
        write(in.rd, static_cast<u32>(in.imm));
        break;
      case Op::MOVT: {
        const auto old = read(in.rd, pc);
        write(in.rd, old ? std::optional<u32>((*old & 0xffffu) |
                                              (static_cast<u32>(in.imm) << 16))
                         : std::nullopt);
        break;
      }
      case Op::MOV: {
        const auto value = rm();
        write(in.rd, value);
        if (in.set_flags) set_nz(value);
        break;
      }
      case Op::MVN: {
        const auto value = rm();
        const auto result = value ? std::optional<u32>(~*value) : std::nullopt;
        write(in.rd, result);
        if (in.set_flags) set_nz(result);
        break;
      }
      case Op::ADD: case Op::ADDI: {
        const auto b = in.op == Op::ADD ? rm() : imm();
        const auto result = binop(rn(), b, [](u32 x, u32 y) { return x + y; });
        write(in.rd, result);
        if (in.set_flags) set_add_flags(rn(), b);
        break;
      }
      case Op::SUB: case Op::SUBI: {
        const auto a = rn();
        const auto b = in.op == Op::SUB ? rm() : imm();
        if (in.set_flags) set_sub_flags(a, b);
        write(in.rd, binop(a, b, [](u32 x, u32 y) { return x - y; }));
        break;
      }
      case Op::RSB: case Op::RSBI: {
        const auto a = rn();
        const auto b = in.op == Op::RSB ? rm() : imm();
        if (in.set_flags) set_sub_flags(b, a);
        write(in.rd, binop(b, a, [](u32 x, u32 y) { return x - y; }));
        break;
      }
      case Op::MUL: {
        const auto result = binop(rn(), rm(), [](u32 x, u32 y) { return x * y; });
        write(in.rd, result);
        if (in.set_flags) set_nz(result);
        break;
      }
      case Op::UDIV:
        write(in.rd, binop(rn(), rm(), [](u32 x, u32 y) { return y ? x / y : 0; }));
        break;
      case Op::SDIV:
        write(in.rd, binop(rn(), rm(), [](u32 x, u32 y) {
                const i32 n = static_cast<i32>(x), d = static_cast<i32>(y);
                if (d == 0) return 0u;
                if (n == INT32_MIN && d == -1) return static_cast<u32>(INT32_MIN);
                return static_cast<u32>(n / d);
              }));
        break;
      case Op::AND: case Op::ANDI:
      case Op::ORR: case Op::ORRI:
      case Op::EOR: case Op::EORI: {
        const auto b = isa::format_of(in.op) == isa::Format::AluReg ? rm() : imm();
        const auto result = binop(rn(), b, [&](u32 x, u32 y) {
          switch (in.op) {
            case Op::AND: case Op::ANDI: return x & y;
            case Op::ORR: case Op::ORRI: return x | y;
            default: return x ^ y;
          }
        });
        write(in.rd, result);
        if (in.set_flags) {
          set_nz(result);
          forget_flags(kFlagC | kFlagV);  // conservatively unknown
        }
        break;
      }
      case Op::LSL: case Op::LSLI:
      case Op::LSR: case Op::LSRI:
      case Op::ASR: case Op::ASRI: {
        const auto b = isa::format_of(in.op) == isa::Format::AluReg ? rm() : imm();
        const auto result = binop(rn(), b, [&](u32 x, u32 y) {
          const u32 amount = y & 0xff;
          if (in.op == Op::LSL || in.op == Op::LSLI) {
            return amount >= 32 ? 0u : (x << amount);
          }
          if (in.op == Op::LSR || in.op == Op::LSRI) {
            return amount >= 32 ? 0u : (amount == 0 ? x : x >> amount);
          }
          const i32 sx = static_cast<i32>(x);
          return static_cast<u32>(amount >= 32 ? (sx >> 31) : (sx >> amount));
        });
        write(in.rd, result);
        if (in.set_flags) {
          set_nz(result);
          forget_flags(kFlagC | kFlagV);
        }
        break;
      }
      case Op::CMP: case Op::CMPI:
        set_sub_flags(rn(), in.op == Op::CMP ? rm() : imm());
        break;
      case Op::CMN:
        set_add_flags(rn(), rm());
        break;
      case Op::TST: case Op::TSTI: {
        const auto b = in.op == Op::TST ? rm() : imm();
        set_nz(binop(rn(), b, [](u32 x, u32 y) { return x & y; }));
        forget_flags(kFlagC | kFlagV);
        break;
      }
      case Op::LDR: case Op::LDRB: case Op::LDRH: case Op::LDRR:
        write(in.rd, std::nullopt);  // memory contents are not modeled
        break;
      case Op::STR: case Op::STRB: case Op::STRH: case Op::STRR:
      case Op::PUSH:
        break;  // stores do not affect register state
      case Op::POP:
        for (u8 i = 0; i < 13; ++i) {
          if (bit(in.reg_list, i)) write(isa::reg_from_index(i), std::nullopt);
        }
        break;
      default:
        break;  // NOP/HLT/BKPT/SVC/branches handled by the replayer
    }
  }
};

u64 memo_key(Address pc, const MemoValuation& val, u64 policy_hash) {
  u64 h = pc * 0x9e3779b97f4a7c15ull;
  h ^= val.hash() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h ^= policy_hash + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// Amortization telemetry for the whole-chain evidence fingerprint: one
/// `computed` per engine that hashed the streams itself, one `reused` per
/// engine that found the shared slot already filled. tests/test_memo proves
/// repeated verifications of one chain compute exactly once.
struct FingerprintObs {
  obs::Counter computed =
      obs::registry().counter("verify.memo.fingerprint.computed");

  static FingerprintObs& get() {
    static FingerprintObs metrics;
    return metrics;
  }
};

/// Greedy-first telemetry for RAP replay: one `greedy_passes` per greedy
/// engine run, one `search_passes` per checkpointed-search engine run (the
/// greedy parse failed, or a frontier-influenced search reran detached).
struct ReplayPassObs {
  obs::Counter greedy =
      obs::registry().counter("verify.replay.greedy_passes");
  obs::Counter search =
      obs::registry().counter("verify.replay.search_passes");

  static ReplayPassObs& get() {
    static ReplayPassObs metrics;
    return metrics;
  }
};

}  // namespace

PathReplayer::PathReplayer(const Program& program, Address entry,
                           ReplayMode mode)
    : program_(&program), entry_(entry), mode_(mode) {}

PathReplayer::PathReplayer(const Deployment& deployment)
    : program_(&deployment.program()),
      entry_(deployment.entry()),
      mode_(deployment.mode()),
      rap_(deployment.rap_manifest()),
      traces_(deployment.traces_manifest()),
      index_(&deployment.index()) {}

// ---------------------------------------------------------------------------
// Replay engine with backtracking.
//
// RAP-Track's taken-edge logging has a one-sided ambiguity: at a trampolined
// conditional site, "next packet not from this site's slot" proves the
// branch went the unlogged way, but "next packet from this slot" may belong
// to a *later* dynamic instance reached entirely through unlogged edges
// (e.g. a leaf call/return cycle). The greedy reading — attribute the packet
// to the current instance — is right on genuine executions, so each RAP pass
// first runs the engine in greedy mode: no checkpoints, no state hashing.
// Only when that parse fails does the checkpointed search run, which takes
// the same greedy reading first and backtracks on any downstream
// reconstruction failure — the log as a whole admits exactly one consistent
// parse for honest evidence. Naive mode needs no checkpoints (every cycle
// contains a logged taken branch), nor does TRACES (one direction bit per
// dynamic instance).
// ---------------------------------------------------------------------------

namespace {

class ReplayEngine {
 public:
  ReplayEngine(const ReplayIndex& index, Address entry, ReplayMode mode,
               const ReplayPolicy& policy, const ReplayInputs& inputs,
               u64 max_steps,
               const std::vector<trace::OracleEvent>* script = nullptr,
               bool strict = false, MemoCache* memo = nullptr,
               bool use_frontier = true,
               std::optional<u64>* chain_fp = nullptr, bool greedy = false)
      : index_(index),
        mode_(mode),
        policy_(policy),
        inputs_(inputs),
        max_steps_(max_steps),
        script_(script),
        strict_(strict),
        greedy_(greedy),
        memo_(script == nullptr ? memo : nullptr),
        use_frontier_(use_frontier),
        chain_fp_(chain_fp) {
    pc_ = entry;
    if (memo_ != nullptr) {
      // Call-target-policy fingerprint for the memo key: the policy decides
      // whether an indirect call raises a finding, so segments recorded
      // under one policy must never apply under another.
      u64 h = 0x243f6a8885a308d3ull;
      const auto mix = [&h](u64 v) {
        h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      };
      mix(policy_.valid_call_targets.size());
      for (const Address target : policy_.valid_call_targets) mix(target);
      policy_hash_ = h;
    }
  }

  ReplayResult run();

  /// Did this run consult shared frontier state in a way that steered the
  /// search — a decision hit taken, or shared dead-branch knowledge the
  /// local failure memo lacked? A *failing* influenced run must be re-run
  /// with the frontier detached (see PathReplayer::replay): a true hit
  /// guarantees completion, so an influenced failure implies either shared
  /// failure bits pruning the search tree (changing which dead end is
  /// reported first) or an astronomically unlikely fingerprint collision.
  /// Either way the retry reproduces the unmemoized result byte-for-byte.
  bool frontier_influenced() const {
    return frontier_hit_taken_ || used_shared_failure_;
  }

  /// Is this failed greedy pass exactly what the checkpointed search would
  /// return? Until its first backtrack the search makes the greedy pass's
  /// decisions step for step, so it returns the same failure when it can
  /// never backtrack: the budget ran out (run() does not backtrack on
  /// exhaustion), or no site on the path would have saved a checkpoint.
  /// Frontier influence voids both arguments (see frontier_influenced).
  bool greedy_failure_final() const {
    return !frontier_influenced() &&
           (budget_exhausted_ || !skipped_checkpoint_);
  }

  /// Did any explored path raise an attack finding? Strictness changes
  /// nothing else about a run the frontier did not steer (frontier entries
  /// are the only other state keyed on it), so a finding-free run is what
  /// the other pass would do.
  bool saw_finding() const { return saw_finding_; }

 private:
  /// Mutable cursor/valuation state captured at a checkpoint.
  struct Snapshot {
    Address pc;
    Valuation val;
    std::vector<Address> shadow_stack;
    size_t packet_cursor, bit_cursor, target_cursor, loop_cursor;
    size_t events_size, findings_size;
    /// Step/index counters are *path-local*: restored on backtrack so the
    /// final result counts only the accepted parse, independent of how much
    /// dead-end exploration the search (or a frontier skip of it) performed.
    u64 steps, index_hits, index_fallbacks;
    size_t journal_size;   ///< frontier journal high-water mark to truncate to
    bool forced_decision;  ///< the alternative to take after restoring
  };

  // -- state ---------------------------------------------------------------
  /// Precomputed per-deployment lookups (instructions, branch targets, MTBAR
  /// slots, veneers) — shared and read-only, see deployment.hpp.
  const ReplayIndex& index_;
  ReplayMode mode_;
  const ReplayPolicy& policy_;
  const ReplayInputs& inputs_;
  u64 max_steps_;
  /// Checker mode: the path to follow instead of searching for a parse.
  const std::vector<trace::OracleEvent>* script_;
  /// Strict pass: attack findings count as parse failures, so backtracking
  /// searches for a finding-free (benign) parse first. The lenient second
  /// pass reports findings only when no benign parse exists.
  bool strict_;
  /// Greedy pass: ambiguous RAP sites take the greedy reading and save no
  /// checkpoint, so the first failure ends the run (see
  /// PathReplayer::replay).
  bool greedy_;
  /// The greedy pass crossed a site where the search saves a checkpoint.
  bool skipped_checkpoint_ = false;
  /// The run ended on the step budget, not on a reconstruction failure.
  bool budget_exhausted_ = false;
  /// Some explored path raised an attack finding.
  bool saw_finding_ = false;

  Address pc_ = 0;
  Valuation val_;
  std::vector<Address> shadow_stack_;
  size_t packet_cursor_ = 0;
  size_t bit_cursor_ = 0;
  size_t target_cursor_ = 0;
  size_t loop_cursor_ = 0;
  ReplayResult result_;
  std::vector<Snapshot> checkpoints_;
  /// Failure memo: hashes of full engine states whose exploration failed.
  /// Sound because downstream behavior is a deterministic function of
  /// (pc, cursors, shadow stack, valuation); prevents chronological
  /// backtracking from re-exploring the same subtree exponentially
  /// (deep recursion makes this essential — see the fibcall workload).
  /// Bounded by kMaxFailedStates (lowest-hash eviction — effectively random
  /// for uniform hashes) so an adversarial chain cannot grow it without
  /// limit; the cap is an engine constant, NOT a memo option, so memoized
  /// and unmemoized runs prune identically.
  std::set<u64> failed_states_;
  u64 backtracks_ = 0;
  /// Counter values captured at the top of the current step, before the
  /// step's own increments. Checkpoints must store these — not the live
  /// counters — so a backtrack that re-executes the ambiguous site counts
  /// its step (and decode) exactly once. Otherwise `steps` would depend on
  /// how much searching happened, and the frontier memo (which skips
  /// searches) would perturb the verification digest.
  u64 pre_step_steps_ = 0;
  u64 pre_step_index_hits_ = 0;
  u64 pre_step_index_fallbacks_ = 0;
  std::optional<bool> forced_decision_;  // applied to the next Bcc
  std::string pending_failure_;

  // -- verified sub-path memo (see memo.hpp) --------------------------------
  /// In-progress segment recording: the anchor state plus the footprint
  /// observed since (shadow-stack pops below the anchor, evidence peeks).
  /// Everything else a segment needs is a cursor delta against the anchor.
  struct MemoRecording {
    bool active = false;
    Address entry_pc = 0;
    MemoValuation entry_val;
    size_t entry_packets = 0;
    size_t entry_loops = 0;
    size_t entry_bits = 0;
    size_t entry_targets = 0;
    size_t entry_events = 0;
    size_t entry_stack = 0;
    u64 entry_steps = 0;
    u64 entry_index_hits = 0;
    u64 entry_index_fallbacks = 0;
    /// Lowest shadow-stack depth seen since the anchor; entries popped from
    /// below the anchor depth are part of the segment's key.
    size_t min_stack = 0;
    std::vector<Address> popped;  ///< top-of-anchor-stack first
    /// Last one-packet lookahead (conditional decisions peek the next packet
    /// without consuming it). Only a peek past the consumed window survives
    /// into the segment's guards; earlier peeks are covered by the window.
    bool have_peek = false;
    size_t peek_rel = 0;
    BranchPacket peek_pkt{};
    bool have_eos = false;  ///< a peek found the packet stream exhausted
    size_t eos_rel = 0;
    /// Frontier-guarded decisions absorbed since the anchor: instead of
    /// aborting the recording at a decision-hit, the segment carries one
    /// guard per absorbed site and re-validates them all at splice time.
    std::vector<SegmentGuard> guards;
  };

  /// Shared cache, or null when memoization is off (checker mode always).
  MemoCache* memo_ = nullptr;
  MemoRecording rec_;
  /// A halted segment was spliced: the replay is complete.
  bool memo_halted_ = false;
  u64 policy_hash_ = 0;
  /// Futility backoff for re-anchoring (see memo_tick): current step delay
  /// and the step count at which the next anchor attempt is allowed.
  u32 memo_backoff_ = 0;
  u64 memo_resume_step_ = 0;

  // -- frontier memo (resolved RAP-ambiguity decisions, see memo.hpp) -------
  /// One ambiguous-site decision on the path being explored. Committed to
  /// the shared cache only when the replay completes (the journal truncates
  /// on backtrack, so committed entries all lie on the accepted parse).
  struct JournalEntry {
    FrontierEntry guards;
    bool decision = false;
    u64 steps_at = 0;
    /// Decision came from a frontier hit: already resident in the shared
    /// cache (the lookup refreshed its recency), so commit_journal skips the
    /// redundant locked re-insert.
    bool from_hit = false;
  };

  bool use_frontier_ = false;
  /// A frontier decision hit was taken: exploration after it is not
  /// exhaustive under a (vanishingly unlikely) fingerprint collision, so
  /// failure promotion stops for the rest of this engine.
  bool frontier_hit_taken_ = false;
  /// Shared dead-branch bits added knowledge the local failure memo lacked.
  bool used_shared_failure_ = false;
  std::vector<JournalEntry> journal_;
  /// Whole-chain evidence fingerprint, computed lazily on the first
  /// frontier consult (never on deterministic replays). Combined with the
  /// exact cursor positions it pins the remaining evidence suffix of every
  /// stream — strictly stronger than a per-suffix hash (two chains sharing
  /// a tail no longer alias) at a fraction of the cost: one pass, no
  /// per-stream suffix arrays. PathReplayer::replay passes one shared slot
  /// to all its engines, so the strict pass, lenient pass and detached
  /// retries of one replay hash the streams at most once. Null: recompute
  /// on every use (only the memo-less checker engine, which never asks).
  std::optional<u64>* chain_fp_ = nullptr;
  /// Frontier futility gate (the §14 backoff idea applied to the frontier
  /// tier): consults that keep returning nothing actionable — misses, or
  /// decision hits that never carried dead-branch knowledge — stop after
  /// kFrontierProbeWindow in a row, bounding the per-replay frontier cost
  /// on chains whose greedy parse never needs the search. Any backtrack or
  /// any hit with failure bits proves the workload searches and re-arms
  /// consulting for the rest of the engine.
  u32 frontier_futile_streak_ = 0;
  bool frontier_proven_ = false;

  static constexpr u64 kMaxBacktracks = 2'000'000;
  static constexpr size_t kMaxFailedStates = size_t{1} << 20;
  static constexpr u32 kFrontierProbeWindow = 8;

  bool frontier_active() const { return memo_ != nullptr && use_frontier_; }

  /// Should this ambiguous site consult (and journal into) the frontier?
  bool frontier_consult_ok() const {
    return frontier_active() &&
           (frontier_proven_ || backtracks_ > 0 ||
            frontier_futile_streak_ < kFrontierProbeWindow);
  }

  u64 chain_fp() const {
    if (chain_fp_ != nullptr && chain_fp_->has_value()) return **chain_fp_;
    u64 h = 0x517cc1b727220a95ull;
    const auto mix = [&h](u64 v) {
      h = (h ^ v) * 0x9e3779b97f4a7c15ull + 0x243f6a8885a308d3ull;
    };
    for (const auto& pkt : inputs_.packets) {
      mix((static_cast<u64>(pkt.source_word()) << 32) | pkt.destination);
    }
    for (const u32 v : loop_stream()) mix(v);
    for (const bool b : inputs_.traces_log.direction_bits) mix(b ? 2 : 1);
    for (const u32 t : inputs_.traces_log.indirect_targets) mix(t);
    if (chain_fp_ != nullptr) *chain_fp_ = h;
    if constexpr (obs::kEnabled) FingerprintObs::get().computed.inc();
    return h;
  }

  /// Frontier guards for the *current* engine state: total-state fingerprint
  /// (pc, valuation, policy, strictness, full shadow stack, and the whole
  /// chain's evidence fingerprint pinned at the exact cursor positions —
  /// equivalently, the full remaining suffix of every stream — plus exact
  /// remaining counts).
  FrontierEntry frontier_guards() const {
    FrontierEntry e;
    e.pc = pc_;
    e.val = val_;
    e.policy_hash = policy_hash_;
    e.strict = strict_;
    u64 sh = 0x9216d5d98979fb1bull;
    const auto mix = [](u64& h, u64 v) {
      h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    };
    mix(sh, shadow_stack_.size());
    for (const Address a : shadow_stack_) mix(sh, a);
    e.stack_hash = sh;
    u64 fp = 0x452821e638d01377ull;
    mix(fp, chain_fp());
    mix(fp, packet_cursor_);
    mix(fp, loop_cursor_);
    mix(fp, bit_cursor_);
    mix(fp, target_cursor_);
    e.evidence_fp = fp;
    e.packet_rem = static_cast<u32>(inputs_.packets.size() - packet_cursor_);
    e.loop_rem = static_cast<u32>(loop_stream().size() - loop_cursor_);
    e.bit_rem = static_cast<u32>(inputs_.traces_log.direction_bits.size() -
                                 bit_cursor_);
    e.target_rem = static_cast<u32>(inputs_.traces_log.indirect_targets.size() -
                                    target_cursor_);
    return e;
  }

  /// Journal a decision taken at the current (ambiguous) site, for promotion
  /// to the shared frontier if this path turns out to be the accepted parse.
  /// `guards` lets callers that already computed the frontier key for this
  /// exact state (the lookup path) avoid hashing it a second time.
  void journal_decision(bool decision, const FrontierEntry* guards = nullptr) {
    if (!frontier_consult_ok()) return;
    journal_.push_back({guards != nullptr ? *guards : frontier_guards(),
                        decision, result_.steps});
  }

  /// The path completed: every journaled decision lies on the accepted
  /// parse. Promote each to the shared frontier with the steps the parse
  /// still needed from that site (budget guard for future skips).
  void commit_journal() {
    if (!frontier_active()) return;
    for (JournalEntry& entry : journal_) {
      if (entry.from_hit) continue;  // already resident, recency refreshed
      entry.guards.has_decision = true;
      entry.guards.decision = entry.decision;
      entry.guards.failed_mask = 0;
      entry.guards.steps_to_complete = result_.steps - entry.steps_at;
      memo_->frontier_insert(entry.guards);
    }
  }

  /// Hash of the complete decision-relevant engine state.
  u64 state_hash() const {
    u64 h = 0x9e3779b97f4a7c15ull;
    const auto mix = [&h](u64 v) {
      h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    };
    mix(pc_);
    mix(packet_cursor_);
    mix(bit_cursor_);
    mix(target_cursor_);
    mix(loop_cursor_);
    mix(shadow_stack_.size());
    for (const Address a : shadow_stack_) mix(a);
    for (unsigned i = 0; i < val_.regs.size(); ++i) {
      mix((val_.known >> i) & 1u ? u64{val_.regs[i]} | (1ull << 32) : 0);
    }
    for (unsigned flag = 0; flag < 4; ++flag) {
      const bool known = ((val_.flags >> (flag + 4)) & 1u) != 0;
      const bool value = ((val_.flags >> flag) & 1u) != 0;
      mix(known ? (value ? 2u : 1u) : 0u);
    }
    return h;
  }

  // -- helpers ---------------------------------------------------------------
  void fail(const std::string& why) {
    rec_.active = false;  // a failing stretch must never become a segment
    if (pending_failure_.empty()) pending_failure_ = why;
  }

  bool in_mtbar(Address addr) const { return index_.in_mtbar(addr); }

  std::optional<BranchPacket> consume_packet(Address src) {
    if (packet_cursor_ >= inputs_.packets.size()) {
      fail("CF_Log exhausted at " + hex32(src));
      return std::nullopt;
    }
    const BranchPacket packet = inputs_.packets[packet_cursor_++];
    if (packet.source != src) {
      fail("CF_Log source mismatch at " + hex32(src) + " (log has " +
           hex32(packet.source) + ")");
      return std::nullopt;
    }
    return packet;
  }

  std::optional<Address> consume_indirect_target() {
    if (target_cursor_ >= inputs_.traces_log.indirect_targets.size()) {
      fail("TRACES target stream exhausted");
      return std::nullopt;
    }
    return inputs_.traces_log.indirect_targets[target_cursor_++];
  }

  std::optional<u32> consume_loop_value(bool traces) {
    const auto& stream =
        traces ? inputs_.traces_log.loop_conditions : inputs_.loop_values;
    if (loop_cursor_ >= stream.size()) {
      fail("loop-condition stream exhausted");
      return std::nullopt;
    }
    return stream[loop_cursor_++];
  }

  /// Record a reconstructed event; in checker mode it must match the script.
  void emit_event(Address source, Address destination, BranchKind kind) {
    if (script_) {
      const size_t index = result_.events.size();
      if (index >= script_->size() || !((*script_)[index] ==
                                        trace::OracleEvent{source, destination,
                                                           kind})) {
        fail("path deviates from the scripted path at event " +
             std::to_string(index) + " (" + hex32(source) + " -> " +
             hex32(destination) + ")");
        return;
      }
    }
    result_.events.push_back({source, destination, kind});
  }

  void report_finding(AttackFinding finding) {
    // Findings are path-level judgments; keep them out of memo segments so
    // strict and lenient passes can share the cache (finding-free segments
    // behave identically in both).
    rec_.active = false;
    saw_finding_ = true;
    if (strict_) {
      fail("strict pass: " + finding.description);
      return;
    }
    result_.findings.push_back(std::move(finding));
  }

  void check_call_policy(Address site, Address target) {
    if (!policy_.valid_call_targets.empty() &&
        policy_.valid_call_targets.count(target) == 0) {
      report_finding({site, 0, target,
                      "indirect call to illegitimate target " + hex32(target) +
                          " (JOP indicator)"});
    }
  }

  void pop_shadow(Address site, Address target) {
    if (shadow_stack_.empty()) {
      report_finding({site, 0, target, "return with empty shadow call stack"});
      return;
    }
    if (rec_.active && shadow_stack_.size() <= rec_.min_stack) {
      // Popping below the recording anchor: the popped value steered this
      // segment, so it becomes part of the segment's entry guards.
      rec_.popped.push_back(shadow_stack_.back());
      rec_.min_stack = shadow_stack_.size() - 1;
    }
    const Address expected = shadow_stack_.back();
    shadow_stack_.pop_back();
    if (expected != target) {
      report_finding({site, expected, target,
                      "return target " + hex32(target) +
                          " differs from call-stack expectation " +
                          hex32(expected) + " (ROP indicator)"});
    }
  }

  /// A resolved taken branch: consume/check evidence where required, emit
  /// the event, move the pc.
  void take_branch(Address target, BranchKind kind) {
    if (mode_ == ReplayMode::Naive || in_mtbar(pc_)) {
      const auto packet = consume_packet(pc_);
      if (!packet) return;
      if (packet->destination != target) {
        fail("CF_Log destination mismatch at " + hex32(pc_) + ": log " +
             hex32(packet->destination) + " vs static " + hex32(target));
        return;
      }
    }
    if (pending_failure_.empty()) {
      emit_event(pc_, target, kind);
      if (pending_failure_.empty()) pc_ = target;
    }
  }

  /// Indirect target resolution from the mode's evidence stream. In checker
  /// mode the evidence must agree with the script (emit_event enforces the
  /// final comparison).
  std::optional<Address> indirect_target() {
    switch (mode_) {
      case ReplayMode::Naive: {
        const auto packet = consume_packet(pc_);
        if (!packet) return std::nullopt;
        return packet->destination;
      }
      case ReplayMode::Rap: {
        if (!in_mtbar(pc_)) {
          fail("unlogged indirect branch outside MTBAR at " + hex32(pc_));
          return std::nullopt;
        }
        const auto packet = consume_packet(pc_);
        if (!packet) return std::nullopt;
        return packet->destination;
      }
      case ReplayMode::Traces:
        return consume_indirect_target();
    }
    return std::nullopt;
  }

  void save_checkpoint(bool alternative) {
    rec_.active = false;  // speculative stretch: not a verified segment yet
    checkpoints_.push_back({pc_, val_, shadow_stack_, packet_cursor_,
                            bit_cursor_, target_cursor_, loop_cursor_,
                            result_.events.size(), result_.findings.size(),
                            pre_step_steps_, pre_step_index_hits_,
                            pre_step_index_fallbacks_, journal_.size(),
                            alternative});
  }

  /// Restore the most recent checkpoint and arm its alternative decision.
  bool backtrack() {
    if (checkpoints_.empty() || backtracks_ >= kMaxBacktracks) return false;
    rec_.active = false;  // the recording anchor no longer matches the state
    ++backtracks_;
    Snapshot snap = std::move(checkpoints_.back());
    checkpoints_.pop_back();
    pc_ = snap.pc;
    val_ = std::move(snap.val);
    shadow_stack_ = std::move(snap.shadow_stack);
    packet_cursor_ = snap.packet_cursor;
    bit_cursor_ = snap.bit_cursor;
    target_cursor_ = snap.target_cursor;
    loop_cursor_ = snap.loop_cursor;
    result_.events.resize(snap.events_size);
    result_.findings.resize(snap.findings_size);
    result_.steps = snap.steps;
    result_.index_hits = snap.index_hits;
    result_.index_fallbacks = snap.index_fallbacks;
    journal_.resize(snap.journal_size);
    forced_decision_ = snap.forced_decision;
    pending_failure_.clear();
    // The greedy branch of this checkpoint failed: memoize (state, greedy
    // decision) so equivalent states elsewhere fail immediately. The greedy
    // decision is the negation of the armed alternative, and the restored
    // state IS the checkpoint's pre-decision state, so its hash is the key
    // decide_conditional looks up when it meets that state again.
    const bool failed_decision = !snap.forced_decision;
    failed_states_.insert(state_hash() ^ (failed_decision ? 1u : 0u));
    if (failed_states_.size() > kMaxFailedStates) {
      failed_states_.erase(failed_states_.begin());
    }
    // For the same reason this is the one place the frontier key for
    // "greedy from here is a dead branch" can be computed exactly. Promote
    // it to the shared cache — unless a frontier hit was taken earlier in
    // this engine (under a collision the exploration below the hit would
    // not have been exhaustive).
    if (frontier_active() && !frontier_hit_taken_) {
      FrontierEntry promo = frontier_guards();
      promo.failed_mask = failed_decision ? u8{2} : u8{1};
      memo_->frontier_insert(promo);
    }
    // Search pressure exists on this chain: keep (or resume) consulting the
    // frontier for the rest of the engine regardless of the futility gate.
    frontier_proven_ = true;
    return true;
  }

  /// Decide a conditional branch at pc_. May checkpoint (RAP ambiguity).
  std::optional<bool> decide_conditional(const Instruction& in) {
    if (script_) {
      // Checker mode: the script dictates the decision; evidence consistency
      // is still enforced by take_branch/indirect_target.
      const size_t index = result_.events.size();
      return index < script_->size() && (*script_)[index].source == pc_;
    }
    if (forced_decision_) {
      const bool decision = *forced_decision_;
      forced_decision_ = std::nullopt;
      // Re-executing a backtracked ambiguous site with the alternative: this
      // decision is on the path now being explored, so journal it (the state
      // here is identical to the checkpoint's pre-decision state).
      journal_decision(decision);
      return decision;
    }
    switch (mode_) {
      case ReplayMode::Naive:
        // Every taken branch is logged, and any path returning to this site
        // passes through another logged taken branch first: unambiguous.
        memo_note_peek();
        return packet_cursor_ < inputs_.packets.size() &&
               inputs_.packets[packet_cursor_].source == pc_;
      case ReplayMode::Rap: {
        if (const auto* slot = index_.slot_for_site(pc_)) {
          memo_note_peek();
          const bool next_in_slot =
              packet_cursor_ < inputs_.packets.size() &&
              inputs_.packets[packet_cursor_].source >= slot->slot_base &&
              inputs_.packets[packet_cursor_].source < slot->slot_end;
          const bool logged_direction =
              slot->kind != rewrite::SlotKind::CondNotTaken;
          if (!next_in_slot) {
            // Certain: had the logged direction been taken, this slot's
            // packet would be the very next recorded event.
            return !logged_direction;
          }
          // Ambiguous: the packet may belong to a later dynamic instance of
          // this site. Greedy = attribute it to now; checkpoint the
          // alternative. The failure memo skips decisions already proven
          // futile from an identical state. The decision depends on search
          // history (failed_states_), which is outside a memo segment's
          // footprint — recording must abort on the failure-memo-steered
          // exits below. Two exits instead absorb the decided branch under
          // a splice-time-revalidated guard: a frontier decision-hit, and
          // the clean checkpoint commit (whose guard only becomes
          // spliceable once this engine completes and promotes the
          // journaled decision). The failure memo fills only on backtrack,
          // so the state is hashed only once a search has backtracked.
          bool greedy_failed = false;
          bool alt_failed = false;
          if (!failed_states_.empty()) {
            const u64 here = state_hash();
            greedy_failed =
                failed_states_.count(here ^ (logged_direction ? 1u : 0u)) != 0;
            alt_failed =
                failed_states_.count(here ^ (logged_direction ? 0u : 1u)) != 0;
          }
          FrontierEntry guards;
          bool have_guards = false;
          if (frontier_consult_ok()) {
            // Consult the shared frontier before saving a checkpoint: a
            // recorded known-good decision from this exact total state skips
            // the search entirely, and shared dead-branch bits prune
            // directions some other replay already proved futile.
            guards = frontier_guards();
            have_guards = true;
            FrontierEntry known;
            if (memo_->frontier_lookup(guards, &known)) {
              // A resident entry that carries dead-branch bits came from a
              // replay that actually searched here: the frontier earns its
              // keep on this workload. Decision-only entries just skip a
              // checkpoint save — cheap, but not worth consulting forever
              // on chains whose greedy parse never backtracks.
              if (known.failed_mask != 0) {
                frontier_proven_ = true;
                frontier_futile_streak_ = 0;
              } else {
                ++frontier_futile_streak_;
              }
              if (known.has_decision &&
                  result_.steps + known.steps_to_complete <= max_steps_) {
                // Skip straight to the known-good decision — no checkpoint,
                // no speculative stretch, so segment recording resumes at
                // the next anchor instead of staying backed off.
                frontier_hit_taken_ = true;
                memo_backoff_ = 0;
                memo_resume_step_ = 0;
                journal_.push_back({guards, known.decision, result_.steps,
                                    /*from_hit=*/true});
                // Absorb the decided branch: the segment stays valid only
                // while an equivalent frontier entry still covers this exact
                // state (re-validated at splice time), so record the guard
                // instead of aborting.
                if (rec_.active) {
                  rec_.guards.push_back(segment_guard(
                      guards.val, known.decision, known.failed_mask));
                }
                return known.decision;
              }
              // failed_mask bit 0 = decision `false` is a dead branch,
              // bit 1 = decision `true` is.
              const bool shared_greedy =
                  ((known.failed_mask >> (logged_direction ? 1 : 0)) & 1) != 0;
              const bool shared_alt =
                  ((known.failed_mask >> (logged_direction ? 0 : 1)) & 1) != 0;
              if ((shared_greedy && !greedy_failed) ||
                  (shared_alt && !alt_failed)) {
                used_shared_failure_ = true;
              }
              greedy_failed = greedy_failed || shared_greedy;
              alt_failed = alt_failed || shared_alt;
            } else {
              ++frontier_futile_streak_;
            }
          }
          // Exits steered by failure memos (fail, forced-greedy) depend on
          // search history, so recording aborts as before.
          if (greedy_failed && alt_failed) {
            rec_.active = false;
            fail("no consistent parse from this state");
            return std::nullopt;
          }
          if (greedy_failed) {
            rec_.active = false;
            journal_decision(!logged_direction,
                            have_guards ? &guards : nullptr);
            return !logged_direction;
          }
          // Clean checkpoint commit (greedy not known-failed): absorb the
          // decision into the in-flight segment under a guard, exactly as
          // the frontier-hit path does — no prior frontier warm-up needed.
          // The guard demands a resident frontier entry with this same
          // decision at splice time; such an entry is only ever promoted
          // from a journal that survived to completion (backtracking
          // truncates it), so if this greedy stretch later fails, the
          // stored segment is merely unspliceable — never wrong. The
          // checkpoint itself still aborts recording across save/restore
          // (save_checkpoint clears rec_.active; re-arm after).
          const bool record_guard = rec_.active && have_guards;
          SegmentGuard commit_guard;
          if (record_guard) {
            // No dead branch was proven at commit time; splice only needs
            // an entry that (at least) recorded this decision.
            commit_guard = segment_guard(guards.val, logged_direction,
                                         /*failed_mask=*/0);
          }
          rec_.active = false;
          if (!alt_failed) {
            if (greedy_) {
              skipped_checkpoint_ = true;
            } else {
              save_checkpoint(/*alternative=*/!logged_direction);
            }
          }
          journal_decision(logged_direction, have_guards ? &guards : nullptr);
          if (record_guard) {
            rec_.active = true;
            rec_.guards.push_back(std::move(commit_guard));
          }
          return logged_direction;
        }
        return evaluate_shadow(in.cond, val_.flags);
      }
      case ReplayMode::Traces: {
        const auto* veneer = index_.traces_veneer_containing(pc_);
        if (veneer && veneer->kind == instr::VeneerKind::Conditional &&
            pc_ == veneer->veneer_base + 4) {
          if (bit_cursor_ >= inputs_.traces_log.direction_bits.size()) {
            fail("TRACES direction-bit stream exhausted");
            return std::nullopt;
          }
          return inputs_.traces_log.direction_bits[bit_cursor_++];
        }
        return evaluate_shadow(in.cond, val_.flags);
      }
    }
    return std::nullopt;
  }

  // -- memo engine ----------------------------------------------------------
  // Called once per run()-loop iteration, before the step (or straight-line
  // run) executes. Closes a full recording window, splices any stored
  // segments that apply at the current state, and (re-)anchors recording.
  // All memoization flows through here; the step itself only feeds the
  // recording via the hooks above.

  /// The loop stream this mode consumes (RAP SVC values or TRACES
  /// loop-condition values — disjoint, so one slice covers both).
  const std::vector<u32>& loop_stream() const {
    return mode_ == ReplayMode::Traces ? inputs_.traces_log.loop_conditions
                                       : inputs_.loop_values;
  }

  void memo_tick() {
    if (!pending_failure_.empty()) return;
    if (forced_decision_) {
      // A backtracked decision is pending: neither record through it (the
      // decision comes from search history) nor splice past the site it
      // targets.
      rec_.active = false;
      return;
    }
    if (rec_.active) {
      if (packet_cursor_ - rec_.entry_packets <
          memo_->options().window_packets) {
        return;
      }
      if (memo_close(/*halted=*/false)) memo_backoff_ = 0;
    }
    // Futility backoff: checkpoint-dense replays (RAP ambiguity search)
    // abort recording every few steps, so each re-anchor would pay a full
    // pack+hash+lookup for a near-certain miss. Consecutive anchors that
    // neither hit nor insert double a step delay before the next attempt;
    // any hit or stored segment resets it, so memoizable replays keep
    // anchoring back-to-back. Capped (and disabled at cap 0) via
    // MemoOptions::anchor_backoff_cap.
    if (result_.steps < memo_resume_step_) return;
    bool hit = false;
    while (memo_try_apply()) {
      hit = true;
      if (memo_halted_) return;
    }
    const u32 backoff_cap = memo_->options().anchor_backoff_cap;
    if (hit || backoff_cap == 0) {
      memo_backoff_ = 0;
    } else {
      memo_backoff_ = std::min<u32>(
          memo_backoff_ == 0 ? 1 : memo_backoff_ * 2, backoff_cap);
      memo_resume_step_ = result_.steps + memo_backoff_;
    }
    memo_begin();
  }

  void memo_begin() {
    rec_.active = true;
    rec_.entry_pc = pc_;
    rec_.entry_val = val_;
    rec_.entry_packets = packet_cursor_;
    rec_.entry_loops = loop_cursor_;
    rec_.entry_bits = bit_cursor_;
    rec_.entry_targets = target_cursor_;
    rec_.entry_events = result_.events.size();
    rec_.entry_stack = shadow_stack_.size();
    rec_.min_stack = shadow_stack_.size();
    rec_.entry_steps = result_.steps;
    rec_.entry_index_hits = result_.index_hits;
    rec_.entry_index_fallbacks = result_.index_fallbacks;
    rec_.popped.clear();
    rec_.have_peek = false;
    rec_.have_eos = false;
    rec_.guards.clear();
  }

  /// Record the one-packet lookahead a conditional decision is about to
  /// take. Peeks inside the consumed window are pinned by the window itself;
  /// memo_close keeps only a final peek past it.
  void memo_note_peek() {
    if (!rec_.active) return;
    const size_t rel = packet_cursor_ - rec_.entry_packets;
    if (packet_cursor_ < inputs_.packets.size()) {
      rec_.have_peek = true;
      rec_.peek_rel = rel;
      rec_.peek_pkt = inputs_.packets[packet_cursor_];
    } else {
      rec_.have_eos = true;
      rec_.eos_rel = rel;
    }
  }

  /// Guard for a frontier-decided site at the current state, relative to
  /// the in-flight segment's anchor (see SegmentGuard).
  SegmentGuard segment_guard(const MemoValuation& val, bool decision,
                             u8 failed_mask) const {
    SegmentGuard g;
    g.pc = pc_;
    g.val = val;
    g.d_packets = static_cast<u32>(packet_cursor_ - rec_.entry_packets);
    g.d_loops = static_cast<u32>(loop_cursor_ - rec_.entry_loops);
    g.d_bits = static_cast<u32>(bit_cursor_ - rec_.entry_bits);
    g.d_targets = static_cast<u32>(target_cursor_ - rec_.entry_targets);
    g.pops = static_cast<u32>(rec_.popped.size());
    g.suffix.assign(shadow_stack_.begin() + rec_.min_stack,
                    shadow_stack_.end());
    g.decision = decision;
    g.failed_mask = failed_mask;
    g.steps_delta = result_.steps - rec_.entry_steps;
    return g;
  }

  /// Package the stretch since the anchor into an immutable segment and
  /// store it. `halted` marks a segment that ends in the clean-halt check
  /// (exact evidence exhaustion becomes part of its guards). Returns true
  /// when a segment was handed to the cache (feeds the futility backoff).
  bool memo_close(bool halted) {
    const bool was_active = rec_.active;
    rec_.active = false;
    if (!was_active) return false;
    const u64 steps_delta = result_.steps - rec_.entry_steps;
    if (steps_delta == 0) return false;  // empty segment would splice nothing
    auto seg = std::make_shared<MemoSegment>();
    seg->entry_pc = rec_.entry_pc;
    seg->entry_val = rec_.entry_val;
    seg->policy_hash = policy_hash_;
    seg->popped = rec_.popped;
    seg->packets.assign(inputs_.packets.begin() + rec_.entry_packets,
                        inputs_.packets.begin() + packet_cursor_);
    const auto& loops = loop_stream();
    seg->loop_values.assign(loops.begin() + rec_.entry_loops,
                            loops.begin() + loop_cursor_);
    const auto& bits = inputs_.traces_log.direction_bits;
    seg->direction_bits.reserve(bit_cursor_ - rec_.entry_bits);
    for (size_t i = rec_.entry_bits; i < bit_cursor_; ++i) {
      seg->direction_bits.push_back(bits[i] ? 1 : 0);
    }
    seg->indirect_targets.assign(
        inputs_.traces_log.indirect_targets.begin() + rec_.entry_targets,
        inputs_.traces_log.indirect_targets.begin() + target_cursor_);
    const size_t n_packets = seg->packets.size();
    if (rec_.have_peek && rec_.peek_rel == n_packets) {
      seg->peeked_next = true;
      seg->peeked = rec_.peek_pkt;
    }
    if (rec_.have_eos && rec_.eos_rel == n_packets) seg->eos_observed = true;
    seg->halted = halted;
    seg->exit_pc = pc_;
    seg->exit_val = val_;
    seg->pushed.assign(shadow_stack_.begin() + rec_.min_stack,
                       shadow_stack_.end());
    seg->events.assign(result_.events.begin() + rec_.entry_events,
                       result_.events.end());
    seg->steps = steps_delta;
    seg->index_hits = result_.index_hits - rec_.entry_index_hits;
    seg->index_fallbacks = result_.index_fallbacks - rec_.entry_index_fallbacks;
    seg->guards = std::move(rec_.guards);
    const u64 key = memo_key(seg->entry_pc, seg->entry_val, policy_hash_);
    memo_->insert(key, std::move(seg));
    return true;
  }

  /// Full entry-guard validation of a candidate against the live state.
  bool memo_matches(const MemoSegment& seg, const MemoValuation& val) const {
    if (seg.entry_pc != pc_ || seg.policy_hash != policy_hash_ ||
        !(seg.entry_val == val)) {
      return false;
    }
    // Live execution of the segment's steps would need this much budget.
    if (result_.steps + seg.steps > max_steps_) return false;
    if (seg.popped.size() > shadow_stack_.size()) return false;
    for (size_t i = 0; i < seg.popped.size(); ++i) {
      if (shadow_stack_[shadow_stack_.size() - 1 - i] != seg.popped[i]) {
        return false;
      }
    }
    // Consumed evidence must match byte-for-byte at the live cursors. A
    // halted segment additionally requires each stream *exactly* exhausted —
    // the clean-halt check it memoized demands that.
    const size_t pkt_rem = inputs_.packets.size() - packet_cursor_;
    if (seg.halted ? pkt_rem != seg.packets.size()
                   : pkt_rem < seg.packets.size()) {
      return false;
    }
    if (!std::equal(seg.packets.begin(), seg.packets.end(),
                    inputs_.packets.begin() + packet_cursor_)) {
      return false;
    }
    if (seg.peeked_next) {
      if (pkt_rem < seg.packets.size() + 1) return false;
      if (!(inputs_.packets[packet_cursor_ + seg.packets.size()] ==
            seg.peeked)) {
        return false;
      }
    }
    if (seg.eos_observed && pkt_rem != seg.packets.size()) return false;
    const auto& loops = loop_stream();
    const size_t loop_rem = loops.size() - loop_cursor_;
    if (seg.halted ? loop_rem != seg.loop_values.size()
                   : loop_rem < seg.loop_values.size()) {
      return false;
    }
    if (!std::equal(seg.loop_values.begin(), seg.loop_values.end(),
                    loops.begin() + loop_cursor_)) {
      return false;
    }
    const auto& bits = inputs_.traces_log.direction_bits;
    const size_t bit_rem = bits.size() - bit_cursor_;
    if (seg.halted ? bit_rem != seg.direction_bits.size()
                   : bit_rem < seg.direction_bits.size()) {
      return false;
    }
    for (size_t i = 0; i < seg.direction_bits.size(); ++i) {
      if (static_cast<u8>(bits[bit_cursor_ + i] ? 1 : 0) !=
          seg.direction_bits[i]) {
        return false;
      }
    }
    const auto& targets = inputs_.traces_log.indirect_targets;
    const size_t tgt_rem = targets.size() - target_cursor_;
    if (seg.halted ? tgt_rem != seg.indirect_targets.size()
                   : tgt_rem < seg.indirect_targets.size()) {
      return false;
    }
    if (!std::equal(seg.indirect_targets.begin(), seg.indirect_targets.end(),
                    targets.begin() + target_cursor_)) {
      return false;
    }
    // Frontier guards: every decision the recorded stretch absorbed must
    // still be covered by an equivalent resident frontier entry, rebuilt
    // against the LIVE state (stack prefix + recorded suffix, live cursors
    // plus the recorded deltas — the window checks above guarantee those
    // land inside the streams). Splicing across a guard is equivalent to
    // taking the same frontier hit live, so detached retries must never
    // splice a guarded segment.
    if (!seg.guards.empty()) {
      if (!frontier_active()) return false;
      const auto mix = [](u64& h, u64 v) {
        h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      };
      for (const SegmentGuard& g : seg.guards) {
        FrontierEntry live;
        live.pc = g.pc;
        live.val = g.val;
        live.policy_hash = policy_hash_;
        live.strict = strict_;
        // g.pops <= seg.popped.size() <= shadow_stack_.size() (prefix check
        // above), so `keep` cannot underflow.
        const size_t keep = shadow_stack_.size() - g.pops;
        u64 sh = 0x9216d5d98979fb1bull;
        mix(sh, keep + g.suffix.size());
        for (size_t i = 0; i < keep; ++i) mix(sh, shadow_stack_[i]);
        for (const Address a : g.suffix) mix(sh, a);
        live.stack_hash = sh;
        u64 fp = 0x452821e638d01377ull;
        mix(fp, chain_fp());
        mix(fp, packet_cursor_ + g.d_packets);
        mix(fp, loop_cursor_ + g.d_loops);
        mix(fp, bit_cursor_ + g.d_bits);
        mix(fp, target_cursor_ + g.d_targets);
        live.evidence_fp = fp;
        live.packet_rem = static_cast<u32>(inputs_.packets.size() -
                                           (packet_cursor_ + g.d_packets));
        live.loop_rem =
            static_cast<u32>(loop_stream().size() - (loop_cursor_ + g.d_loops));
        live.bit_rem = static_cast<u32>(
            inputs_.traces_log.direction_bits.size() - (bit_cursor_ + g.d_bits));
        live.target_rem =
            static_cast<u32>(inputs_.traces_log.indirect_targets.size() -
                             (target_cursor_ + g.d_targets));
        FrontierEntry known;
        if (!memo_->frontier_lookup(live, &known)) return false;
        if (!known.has_decision || known.decision != g.decision) return false;
        if ((known.failed_mask & g.failed_mask) != g.failed_mask) return false;
        if (result_.steps + g.steps_delta + known.steps_to_complete >
            max_steps_) {
          return false;
        }
      }
    }
    return true;
  }

  /// Splice a matched segment: exactly the state live execution of the
  /// stretch would have produced.
  void memo_apply(const MemoSegment& seg) {
    shadow_stack_.resize(shadow_stack_.size() - seg.popped.size());
    shadow_stack_.insert(shadow_stack_.end(), seg.pushed.begin(),
                         seg.pushed.end());
    result_.events.insert(result_.events.end(), seg.events.begin(),
                          seg.events.end());
    packet_cursor_ += seg.packets.size();
    loop_cursor_ += seg.loop_values.size();
    bit_cursor_ += seg.direction_bits.size();
    target_cursor_ += seg.indirect_targets.size();
    static_cast<MemoValuation&>(val_) = seg.exit_val;
    pc_ = seg.exit_pc;
    result_.steps += seg.steps;
    result_.index_hits += seg.index_hits;
    result_.index_fallbacks += seg.index_fallbacks;
    if (seg.halted) memo_halted_ = true;
  }

  bool memo_try_apply() {
    const MemoValuation& here = val_;
    const u64 key = memo_key(pc_, here, policy_hash_);
    MemoCache::Handle candidates[MemoCache::kLookupWidth];
    const size_t count =
        memo_->lookup(key, candidates, MemoCache::kLookupWidth);
    for (size_t i = 0; i < count; ++i) {
      if (memo_matches(*candidates[i], here)) {
        memo_apply(*candidates[i]);
        ++result_.memo_hits;
        memo_->note_hit();
        // Splicing across frontier-guarded decisions is equivalent to taking
        // those decision hits live: exploration beyond them is not
        // exhaustive under a fingerprint collision, so the rerun-detached
        // rule applies to this pass too.
        if (!candidates[i]->guards.empty()) frontier_hit_taken_ = true;
        return true;
      }
    }
    ++result_.memo_misses;
    memo_->note_miss();
    return false;
  }

  /// Length of the straight-line run (ReplayIndex::straight_run) to apply
  /// at pc_ in one go, or 0 when pc_ does not head one. The run is capped
  /// at the step budget, and, while no segment is recording, at the step
  /// where memo_tick would next try to anchor. Every memo_tick the run
  /// skips is then a no-op: a recording window only closes on a consumed
  /// packet, and a straight-line instruction consumes no evidence. So memo
  /// anchors, splices, checkpoints and budget exhaustion all land on the
  /// same instructions as a walk one step at a time.
  u64 straight_run_here() const {
    if (pc_ % 4 != 0 || !index_.contains(pc_)) return 0;
    u64 n = std::min<u64>(index_.straight_run(pc_),
                          max_steps_ - result_.steps);
    if (n > 1 && memo_ != nullptr && !rec_.active) {
      n = memo_resume_step_ > result_.steps
              ? std::min(n, memo_resume_step_ - result_.steps)
              : 1;
    }
    return n;
  }

  /// Apply a straight-line run of `n` predecoded instructions to the
  /// valuation: `n` steps, each served from the index.
  void walk_straight_line(u64 n) {
    for (u64 i = 0; i < n; ++i, pc_ += 4) {
      val_.apply(*index_.instruction_at(pc_), pc_);
    }
    result_.steps += n;
    result_.index_hits += n;
  }

  /// Execute one branch, SVC, HLT or undecoded-word instruction of the
  /// walk. Returns true when the program halted cleanly.
  bool step();
};

bool ReplayEngine::step() {
  if (!index_.contains(pc_) || pc_ % 4 != 0) {
    fail("path left the program image at " + hex32(pc_));
    return false;
  }
  const Instruction* cached = index_.instruction_at(pc_);
  Instruction fallback;
  if (cached == nullptr) {
    // Predecode declined this word (or it is data): the per-step decoder is
    // the authoritative tie-break.
    const auto decoded = index_.program().instruction_at(pc_);
    if (!decoded) {
      fail("undefined instruction at " + hex32(pc_));
      return false;
    }
    fallback = *decoded;
  }
  const Instruction& in = cached != nullptr ? *cached : fallback;
  const BranchKind kind = cached != nullptr ? index_.branch_kind(pc_)
                                            : isa::branch_kind(in);
  if (cached != nullptr) {
    ++result_.index_hits;
  } else {
    ++result_.index_fallbacks;
  }
  // Static branch destination: from the precomputed successor map on the
  // cached path, recomputed only on the rare fallback path.
  const auto static_target = [&]() -> Address {
    return cached != nullptr ? index_.branch_target(pc_)
                             : isa::branch_target(in, pc_);
  };

  if (kind == BranchKind::Halt) {
    // All evidence must be accounted for; leftovers indicate injection or a
    // wrong parse (the latter triggers backtracking).
    if (packet_cursor_ != inputs_.packets.size()) {
      fail("unconsumed CF_Log packets at halt");
    } else if (mode_ == ReplayMode::Traces &&
               (bit_cursor_ != inputs_.traces_log.direction_bits.size() ||
                target_cursor_ != inputs_.traces_log.indirect_targets.size() ||
                loop_cursor_ != inputs_.traces_log.loop_conditions.size())) {
      fail("unconsumed TRACES evidence at halt");
    } else if (mode_ == ReplayMode::Rap &&
               loop_cursor_ != inputs_.loop_values.size()) {
      fail("unconsumed loop-condition values at halt");
    } else if (script_ && result_.events.size() != script_->size()) {
      fail("scripted path not fully consumed at halt");
    }
    return pending_failure_.empty();
  }

  switch (kind) {
    case BranchKind::None: {
      if (in.op == Op::SVC) {
        if (mode_ == ReplayMode::Rap) {
          const auto* veneer = index_.rap_veneer_at_svc(pc_);
          if (!veneer) {
            fail("unexpected SVC at " + hex32(pc_));
            break;
          }
          const auto value = consume_loop_value(false);
          if (!value) break;
          val_.write(veneer->loop.iterator, *value);
        } else if (mode_ == ReplayMode::Traces) {
          const auto* veneer = index_.traces_veneer_at_svc(pc_);
          if (!veneer) {
            fail("unexpected SVC at " + hex32(pc_));
            break;
          }
          if (veneer->kind == instr::VeneerKind::LoopCondition) {
            const auto value = consume_loop_value(true);
            if (!value) break;
            val_.write(veneer->loop->iterator, *value);
          }
          // Branch-logging SVCs: the following instruction consumes the
          // stream; nothing to do here.
        } else {
          fail("unexpected SVC at " + hex32(pc_));
          break;
        }
      } else {
        // Only a word the index did not predecode gets here: straight-line
        // runs of predecoded words go through walk_straight_line.
        val_.apply(in, pc_);
      }
      pc_ += 4;
      break;
    }

    case BranchKind::Direct:
      take_branch(static_target(), BranchKind::Direct);
      break;

    case BranchKind::DirectCall: {
      const Address target = static_target();
      shadow_stack_.push_back(pc_ + 4);
      val_.write(Reg::LR, pc_ + 4);
      take_branch(target, BranchKind::DirectCall);
      break;
    }

    case BranchKind::Conditional: {
      const auto taken = decide_conditional(in);
      if (!pending_failure_.empty()) break;
      if (!taken) {
        fail("unresolvable conditional branch at " + hex32(pc_) +
             " (no log entry, flags unknown)");
        break;
      }
      if (*taken) {
        take_branch(static_target(), BranchKind::Conditional);
      } else {
        pc_ += 4;
      }
      break;
    }

    case BranchKind::IndirectCall: {  // BLX rm (naive/traces binaries only)
      shadow_stack_.push_back(pc_ + 4);
      val_.write(Reg::LR, pc_ + 4);
      const Address site = pc_;
      const auto target = indirect_target();
      if (!target) break;
      check_call_policy(site, *target);
      emit_event(site, *target, BranchKind::IndirectCall);
      if (pending_failure_.empty()) pc_ = *target;
      break;
    }

    case BranchKind::IndirectJump: {
      const Address site = pc_;
      const auto target = indirect_target();
      if (!target) break;
      // A BX rm inside a RAP IndirectCall slot is semantically a call: the
      // BL at the original site already pushed the shadow stack; apply the
      // call-target policy here.
      if (mode_ == ReplayMode::Rap) {
        if (const auto* slot = index_.slot_containing(site);
            slot && slot->kind == rewrite::SlotKind::IndirectCall) {
          check_call_policy(slot->site, *target);
        }
      } else if (mode_ == ReplayMode::Traces) {
        if (const auto* veneer = index_.traces_veneer_containing(site);
            veneer && veneer->kind == instr::VeneerKind::IndirectCall) {
          check_call_policy(veneer->site, *target);
        }
      }
      emit_event(site, *target, BranchKind::IndirectJump);
      if (pending_failure_.empty()) pc_ = *target;
      break;
    }

    case BranchKind::Return: {
      if (in.op == Op::BX) {  // BX LR: unmonitored leaf return (§IV-C.2)
        std::optional<Address> target;
        if (mode_ == ReplayMode::Naive) {
          const auto packet = consume_packet(pc_);
          if (!packet) break;
          target = packet->destination;
        } else {
          target = val_.read(Reg::LR, pc_);
          if (!target) {
            fail("BX LR with unknown link register at " + hex32(pc_));
            break;
          }
        }
        pop_shadow(pc_, *target);
        emit_event(pc_, *target, BranchKind::Return);
        if (pending_failure_.empty()) pc_ = *target;
      } else {  // POP {…,pc}: monitored return
        const Address site = pc_;
        const auto target = indirect_target();
        if (!target) break;
        val_.apply(in, site);  // clobber popped registers
        pop_shadow(site, *target);
        emit_event(site, *target, BranchKind::Return);
        if (pending_failure_.empty()) pc_ = *target;
      }
      break;
    }

    case BranchKind::Halt:
      break;  // handled above
  }
  return false;
}

ReplayResult ReplayEngine::run() {
  while (result_.steps < max_steps_) {
    if (memo_ != nullptr) {
      memo_tick();
      if (memo_halted_) {
        // A halted segment was spliced: its guards proved the exact
        // clean-halt conditions, so the replay is complete.
        result_.complete = true;
        result_.backtracks = backtracks_;
        commit_journal();
        return std::move(result_);
      }
    }
    if (const u64 run = straight_run_here(); run != 0) {
      walk_straight_line(run);
      continue;
    }
    pre_step_steps_ = result_.steps;
    pre_step_index_hits_ = result_.index_hits;
    pre_step_index_fallbacks_ = result_.index_fallbacks;
    ++result_.steps;
    const bool halted = step();
    if (halted) {
      if (memo_ != nullptr) memo_close(/*halted=*/true);
      result_.complete = true;
      result_.backtracks = backtracks_;
      commit_journal();
      return std::move(result_);
    }
    if (!pending_failure_.empty() && !backtrack()) break;
  }
  if (pending_failure_.empty() && result_.steps >= max_steps_) {
    budget_exhausted_ = true;
    fail("replay step budget exceeded");
  }
  result_.failure = pending_failure_;
  result_.complete = false;
  result_.backtracks = backtracks_;
  return std::move(result_);
}

}  // namespace

ReplayResult PathReplayer::replay(const ReplayInputs& inputs, u64 max_steps) {
  if (mode_ == ReplayMode::Rap && rap_ == nullptr) {
    ReplayResult result;
    result.failure = "rap manifest not set";
    return result;
  }
  if (mode_ == ReplayMode::Traces && traces_ == nullptr) {
    ReplayResult result;
    result.failure = "traces manifest not set";
    return result;
  }
  // Legacy (non-Deployment) construction: build the index once per call —
  // both passes below share it, so even this path decodes each instruction
  // at most once instead of once per replay step.
  std::optional<ReplayIndex> local_index;
  const ReplayIndex* index = index_;
  if (index == nullptr) {
    local_index.emplace(*program_, mode_, rap_, traces_);
    index = &*local_index;
  }
  // Whole-chain evidence fingerprint: the first engine that needs it
  // computes it once for every pass and retry of this call.
  std::optional<u64> chain_fp;
  // One pass (strict or lenient). RAP passes first run the engine greedily:
  // no checkpoints, no state hashing. Until its first backtrack the search
  // decides exactly as the greedy pass does, so a completing greedy pass is
  // the pass result, and so is a failing one the search provably could not
  // change (ReplayEngine::greedy_failure_final). Otherwise the checkpointed
  // search runs. A search that fails *after being steered by shared
  // frontier state* is re-run with the frontier detached: a genuine
  // frontier hit guarantees completion (the recorded decision led to a full
  // parse from an identical total state), so an influenced failure means
  // shared dead-branch pruning changed which dead end surfaces first (or a
  // fingerprint collision occurred) — the retry reproduces the unmemoized
  // failure byte-for-byte. Completing passes never pay this; the sub-path
  // memo stays attached throughout (its on/off equivalence is
  // unconditional). `saw_finding` records whether the engine whose result
  // the pass returns met a finding; that engine was never steered by the
  // frontier (see below).
  bool saw_finding = false;
  const auto run_pass = [&](bool strict) {
    // Every engine made here runs exactly once, so counting at creation
    // counts passes.
    const auto make_engine = [&](bool use_frontier, bool greedy) {
      if constexpr (obs::kEnabled) {
        if (mode_ == ReplayMode::Rap) {
          (greedy ? ReplayPassObs::get().greedy : ReplayPassObs::get().search)
              .inc();
        }
      }
      return ReplayEngine(*index, entry_, mode_, policy_, inputs, max_steps,
                          nullptr, strict, memo_, use_frontier, &chain_fp,
                          greedy);
    };
    if (mode_ == ReplayMode::Rap) {
      ReplayEngine greedy = make_engine(use_frontier_, /*greedy=*/true);
      ReplayResult result = greedy.run();
      saw_finding = greedy.saw_finding();
      if (result.complete || greedy.greedy_failure_final()) return result;
    }
    ReplayEngine search = make_engine(use_frontier_, /*greedy=*/false);
    ReplayResult result = search.run();
    saw_finding = search.saw_finding();
    if (!result.complete && search.frontier_influenced()) {
      ReplayEngine detached = make_engine(/*use_frontier=*/false,
                                          /*greedy=*/false);
      result = detached.run();
      saw_finding = detached.saw_finding();
    }
    return result;
  };
  // Pass 1 (strict): search for a finding-free parse — a benign execution
  // consistent with the evidence. Only when none exists does the lenient
  // pass attribute findings (the verifier accuses only when every parse of
  // the evidence is malicious). A failed strict pass that met no finding is
  // already the lenient pass's result, with or without the frontier. The
  // failing strict result always comes from an engine the frontier did not
  // steer (a greedy pass that is final, an uninfluenced search, or the
  // detached rerun), and such an engine explores exactly what the memo-off
  // engine explores. Strictness changes nothing on a finding-free
  // exploration, so the lenient engines would retrace it step for step.
  ReplayResult strict_result = run_pass(/*strict=*/true);
  if (strict_result.complete || !saw_finding) return strict_result;
  return run_pass(/*strict=*/false);
}

ReplayResult PathReplayer::check_path(
    const std::vector<trace::OracleEvent>& path, const ReplayInputs& inputs,
    u64 max_steps) {
  if (mode_ == ReplayMode::Rap && rap_ == nullptr) {
    ReplayResult result;
    result.failure = "rap manifest not set";
    return result;
  }
  if (mode_ == ReplayMode::Traces && traces_ == nullptr) {
    ReplayResult result;
    result.failure = "traces manifest not set";
    return result;
  }
  std::optional<ReplayIndex> local_index;
  const ReplayIndex* index = index_;
  if (index == nullptr) {
    local_index.emplace(*program_, mode_, rap_, traces_);
    index = &*local_index;
  }
  ReplayEngine engine(*index, entry_, mode_, policy_, inputs, max_steps, &path);
  return engine.run();
}

}  // namespace raptrack::verify
