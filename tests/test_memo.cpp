// Differential suite for the verified sub-path memo cache (verify/memo.*).
//
// The contract under test: memoization may change wall-clock time and the
// memo_hits/memo_misses telemetry, and NOTHING else. Every test here pins a
// memoized verification against an unmemoized one (set_memo(false)) via
// verification_digest() — a canonical SHA-256 over verdict, flags, detail,
// gaps, notes, events, findings, counters and decoded evidence — so any
// divergence, however subtle, is a byte-level failure:
//   * ~200 fuzzed transport-fault plans across two apps (the fault-campaign
//     injector set), cold and warm;
//   * every registry app, cold cache then warm cache (warm must actually
//     hit);
//   * eviction under a tiny byte budget (pressure must not corrupt results);
//   * concurrent farm workers warming one shared cache (run under the
//     `concurrency` label; the tsan preset builds this with TSan);
//   * golden digests that pin the memo-off reference itself to the
//     search-only replayer greedy-first replay replaced.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/runner.hpp"
#include "common/hex.hpp"
#include "crypto/sha256.hpp"
#include "fault/campaign.hpp"
#include "gen_corpus.hpp"
#include "obs/metrics.hpp"
#include "verify/farm.hpp"
#include "verify/memo.hpp"
#include "verify/verifier.hpp"

namespace raptrack {
namespace {

using apps::PreparedApp;
using fault::AttestedRun;
using fault::FaultPlan;
using fault::InjectorKind;
using verify::Deployment;
using verify::MemoCache;
using verify::MemoOptions;
using verify::MemoSegment;
using verify::VerificationResult;
using verify::verification_digest;

std::string digest_hex(const VerificationResult& result) {
  return hex_digest(verification_digest(result));
}

// Verify `chain` against `deployment` with the memo cache on or off. A
// fresh Verifier (fresh session store) per call; the memo cache itself
// lives on the shared Deployment, so warmth carries across calls.
// `frontier` toggles the second (RAP-ambiguity decision) cache tier on top.
VerificationResult run_verify(std::shared_ptr<const Deployment> deployment,
                              u32 watermark, const cfa::Challenge& chal,
                              const std::vector<cfa::SignedReport>& chain,
                              bool memo, bool frontier = true) {
  verify::Verifier verifier(apps::demo_key());
  verifier.expect(std::move(deployment));
  verifier.set_expected_watermark(watermark);
  verifier.set_memo(memo);
  verifier.set_frontier(frontier);
  verifier.adopt_challenge(chal);
  return verifier.verify(chal, chain);
}

// -- MemoCache unit behavior --------------------------------------------------

MemoCache::Handle make_segment(Address entry_pc, u64 padding = 0) {
  auto seg = std::make_shared<MemoSegment>();
  seg->entry_pc = entry_pc;
  seg->exit_pc = entry_pc + 4;
  seg->steps = 1;
  seg->packets.resize(padding);  // inflate bytes() for budget tests
  return seg;
}

verify::FrontierEntry make_frontier(Address pc, u64 fingerprint) {
  verify::FrontierEntry entry;
  entry.pc = pc;
  entry.policy_hash = 0x1234;
  entry.stack_hash = 0x5678;
  entry.evidence_fp = fingerprint;
  entry.packet_rem = 10;
  return entry;
}

// Run over a roomy cache and over a single probe window (one shard of
// kProbe slots, so every key — segment or frontier — lands in the same
// window): a segment lookup returns only segments, a frontier lookup matches
// only frontier entries with equal guards, whatever shares the slots.
TEST(MemoCacheUnit, InsertLookupRefreshAndClear) {
  for (const MemoOptions& options :
       {MemoOptions{.shards = 4, .slots_per_shard = 64},
        MemoOptions{.shards = 1, .slots_per_shard = MemoCache::kProbe}}) {
    SCOPED_TRACE(options.slots_per_shard);
    MemoCache cache(options);
    MemoCache::Handle out[MemoCache::kLookupWidth];
    EXPECT_EQ(cache.lookup(42, out, MemoCache::kLookupWidth), 0u);

    cache.insert(42, make_segment(0x100));
    if constexpr (!verify::kMemoEnabled) {
      EXPECT_EQ(cache.lookup(42, out, MemoCache::kLookupWidth), 0u);
      continue;
    }
    ASSERT_EQ(cache.lookup(42, out, MemoCache::kLookupWidth), 1u);
    EXPECT_EQ(out[0]->entry_pc, 0x100u);
    EXPECT_EQ(cache.stats().entries, 1u);

    // Same key, same entry guards: refreshes in place, no duplicate.
    cache.insert(42, make_segment(0x100));
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.stats().evictions, 0u);

    // A frontier entry and a segment stored under the frontier entry's own
    // key hash: each lookup sees only its own kind.
    const verify::FrontierEntry frontier = make_frontier(0x100, 1);
    const u64 fkey = frontier.key_hash();
    cache.frontier_insert(frontier);
    EXPECT_EQ(cache.lookup(fkey, out, MemoCache::kLookupWidth), 0u);
    cache.insert(fkey, make_segment(0x300));
    ASSERT_EQ(cache.lookup(fkey, out, MemoCache::kLookupWidth), 1u);
    EXPECT_EQ(out[0]->entry_pc, 0x300u);
    verify::FrontierEntry known;
    EXPECT_TRUE(cache.frontier_lookup(frontier, &known));
    EXPECT_FALSE(cache.frontier_lookup(make_frontier(0x100, 2), &known));
    ASSERT_EQ(cache.lookup(42, out, MemoCache::kLookupWidth), 1u);
    EXPECT_EQ(out[0]->entry_pc, 0x100u);
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.stats().frontier_entries, 1u);
    EXPECT_EQ(cache.stats().evictions, 0u);

    cache.note_hit();
    cache.note_miss();
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_GT(cache.stats().bytes, 0u);

    cache.clear();
    EXPECT_EQ(cache.lookup(42, out, MemoCache::kLookupWidth), 0u);
    EXPECT_FALSE(cache.frontier_lookup(frontier, &known));
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().frontier_entries, 0u);
    EXPECT_EQ(cache.stats().bytes, 0u);
  }
}

TEST(MemoCacheUnit, ByteBudgetEnforcedByEviction) {
  if constexpr (!verify::kMemoEnabled) GTEST_SKIP() << "RAP_MEMO off";
  const MemoOptions options{
      .shards = 1, .slots_per_shard = 256, .budget_bytes = 16 * 1024};
  MemoCache cache(options);
  // Distinct keys, each segment ~1.5 KiB: far past the budget in total.
  for (u64 key = 0; key < 64; ++key) {
    cache.insert(key * 0x10001, make_segment(0x100 + 4 * key, /*padding=*/128));
    EXPECT_LE(cache.stats().bytes, options.budget_bytes)
        << "budget exceeded after insert " << key;
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.inserts, 64u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(stats.entries, 64u);
  // An entry bigger than one shard's whole budget is refused outright.
  cache.insert(999, make_segment(0x900, /*padding=*/4096));
  EXPECT_GT(cache.stats().rejects, 0u);
}

// The budget must hold at every instant, not just between calls: the
// `verify.memo.bytes_hwm` gauge records the maximum resident footprint any
// insert ever observed, across BOTH kinds of entry, so an accounting bug
// that transiently overshoots is caught even after eviction pulls the
// steady state back under. Segments and frontier entries share the slots,
// so pressure from either kind must evict the other too: by the byte sweep
// in a roomy table, by window LRU in a single probe window.
TEST(MemoCacheUnit, ByteHighWaterMarkStaysUnderBudgetAcrossTiers) {
  if constexpr (!verify::kMemoEnabled) GTEST_SKIP() << "RAP_MEMO off";
  if (!obs::kEnabled) GTEST_SKIP() << "RAP_OBS=OFF build";
  for (const MemoOptions& options :
       {MemoOptions{.shards = 1, .slots_per_shard = 256, .budget_bytes = 8 * 1024},
        MemoOptions{.shards = 1,
                    .slots_per_shard = MemoCache::kProbe,
                    .budget_bytes = 8 * 1024}}) {
    SCOPED_TRACE(options.slots_per_shard);
    // The hwm gauge is global and monotonic; zero it so each pass measures
    // only its own cache.
    obs::registry().reset();
    MemoCache cache(options);
    bool segment_evicted_frontier = false;
    bool frontier_evicted_segment = false;
    // Alternate runs of 16 segments and 16 frontier entries, so each run
    // meets a table the other kind filled.
    for (u64 i = 0; i < 128; ++i) {
      const verify::MemoStats before = cache.stats();
      if ((i / 16) % 2 == 0) {
        cache.insert(i * 0x2001, make_segment(0x100 + 4 * i, /*padding=*/64));
        if (cache.stats().frontier_entries < before.frontier_entries) {
          segment_evicted_frontier = true;
        }
      } else {
        verify::FrontierEntry entry = make_frontier(0x100 + 4 * i, i);
        entry.failed_mask = 1;
        cache.frontier_insert(entry);
        if (cache.stats().entries < before.entries) {
          frontier_evicted_segment = true;
        }
      }
      EXPECT_LE(cache.stats().bytes, options.budget_bytes)
          << "budget exceeded after mixed insert " << i;
      EXPECT_LE(cache.stats().entries + cache.stats().frontier_entries,
                options.slots_per_shard);
    }
    const auto stats = cache.stats();
    EXPECT_GT(stats.evictions, 0u) << "mixed pressure never evicted";
    EXPECT_EQ(stats.frontier_inserts, 64u);
    EXPECT_TRUE(segment_evicted_frontier);
    EXPECT_TRUE(frontier_evicted_segment);
    const obs::Snapshot snap = obs::registry().scrape();
    EXPECT_GT(snap.value("verify.memo.bytes_hwm"), 0u);
    EXPECT_LE(snap.value("verify.memo.bytes_hwm"), options.budget_bytes)
        << "some insert transiently overshot the byte budget";
  }
}

// -- frontier tier unit behavior ----------------------------------------------

TEST(MemoFrontierUnit, InsertLookupAndKnowledgeMerge) {
  if constexpr (!verify::kMemoEnabled) GTEST_SKIP() << "RAP_MEMO off";
  MemoCache cache({.shards = 2, .slots_per_shard = 64});
  verify::FrontierEntry known;
  EXPECT_FALSE(cache.frontier_lookup(make_frontier(0x100, 1), &known));

  // A promoted failure and a resolved decision for the same frontier state
  // merge into one entry carrying both kinds of knowledge.
  verify::FrontierEntry failure = make_frontier(0x100, 1);
  failure.failed_mask = 1;  // decision `false` known futile
  cache.frontier_insert(failure);
  verify::FrontierEntry decision = make_frontier(0x100, 1);
  decision.has_decision = true;
  decision.decision = true;
  decision.steps_to_complete = 77;
  cache.frontier_insert(decision);

  ASSERT_TRUE(cache.frontier_lookup(make_frontier(0x100, 1), &known));
  EXPECT_EQ(known.failed_mask, 1u);
  EXPECT_TRUE(known.has_decision);
  EXPECT_TRUE(known.decision);
  EXPECT_EQ(known.steps_to_complete, 77u);
  EXPECT_EQ(cache.stats().frontier_entries, 1u);

  // A different evidence fingerprint is a different frontier state: the
  // guards must miss even though the pc collides.
  EXPECT_FALSE(cache.frontier_lookup(make_frontier(0x100, 2), &known));
  EXPECT_GT(cache.stats().frontier_misses, 0u);
}

TEST(MemoFrontierUnit, FrontierEntriesChargeTheByteBudget) {
  if constexpr (!verify::kMemoEnabled) GTEST_SKIP() << "RAP_MEMO off";
  // Budget sized for a handful of frontier entries (kFrontierEntryBytes
  // charged each): inserting far more must evict instead of growing without
  // bound (promoted failure knowledge rides the same budget).
  const MemoOptions options{
      .shards = 1, .slots_per_shard = 256, .budget_bytes = 2048};
  MemoCache cache(options);
  for (u64 i = 0; i < 64; ++i) {
    verify::FrontierEntry entry = make_frontier(0x100 + 4 * i, i);
    entry.failed_mask = 1;
    cache.frontier_insert(entry);
    EXPECT_LE(cache.stats().bytes, options.budget_bytes)
        << "budget exceeded after frontier insert " << i;
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.frontier_inserts, 64u);
  EXPECT_LT(stats.frontier_entries, 64u)
      << "tiny budget never evicted a frontier entry";
}

// -- fuzzed-chain differential (the ~200-plan fault campaign) -----------------

struct Case {
  size_t app = 0;
  cfa::Challenge chal{};
  std::vector<cfa::SignedReport> chain;
  std::string label;
};

struct Corpus {
  std::vector<std::shared_ptr<const Deployment>> deployments;
  u32 watermark = 0;
  std::vector<Case> cases;
};

// Same corpus shape as the farm differential: per app, the clean chain plus
// every transport injector at several seeds.
const Corpus& corpus() {
  static const Corpus corpus = [] {
    Corpus out;
    const fault::CampaignOptions options;
    out.watermark = options.watermark_bytes;
    constexpr u64 kSeedsPerKind = 8;
    for (const char* name : {"gps", "temperature"}) {
      const PreparedApp prepared = apps::prepare_app(apps::app_by_name(name));
      const AttestedRun clean = fault::attest_once(prepared, options);
      EXPECT_TRUE(clean.functional_ok) << name;
      const size_t app = out.deployments.size();
      out.deployments.push_back(Deployment::rap(
          prepared.rap.program, prepared.rap.manifest, prepared.built.entry));
      out.cases.push_back(
          {app, clean.chal, clean.reports, std::string(name) + "/clean"});
      for (const InjectorKind kind : fault::transport_injectors()) {
        for (u64 seed = 1; seed <= kSeedsPerKind; ++seed) {
          FaultPlan plan(seed);
          plan.add(kind);
          std::vector<cfa::SignedReport> chain = clean.reports;
          if (kind == InjectorKind::WireBitFlip) {
            auto survived = fault::apply_wire_fault(plan, chain);
            if (!survived.has_value()) continue;
            chain = std::move(*survived);
          } else {
            fault::apply_transport_faults(plan, chain);
          }
          out.cases.push_back({app, clean.chal, std::move(chain),
                               std::string(name) + "/" +
                                   fault::injector_name(kind) + "/" +
                                   std::to_string(seed)});
        }
      }
    }
    return out;
  }();
  return corpus;
}

TEST(MemoDifferential, FuzzedFaultPlansMatchUnmemoizedDigests) {
  const Corpus& fuzz = corpus();
  ASSERT_GE(fuzz.cases.size(), 200u)
      << "fault-plan corpus shrank below the differential coverage floor";

  // Fresh deployments for the memoized side so this test controls its own
  // cache warmth (the corpus deployments are shared with other tests).
  size_t accepts = 0;
  for (const Case& c : fuzz.cases) {
    const VerificationResult plain = run_verify(
        fuzz.deployments[c.app], fuzz.watermark, c.chal, c.chain, false);
    // Twice memoized: cold-ish (whatever earlier cases warmed) and warm.
    const VerificationResult memo1 = run_verify(
        fuzz.deployments[c.app], fuzz.watermark, c.chal, c.chain, true);
    const VerificationResult memo2 = run_verify(
        fuzz.deployments[c.app], fuzz.watermark, c.chal, c.chain, true);
    EXPECT_EQ(digest_hex(memo1), digest_hex(plain)) << c.label;
    EXPECT_EQ(digest_hex(memo2), digest_hex(plain)) << c.label << " (warm)";
    if (plain.accepted()) ++accepts;
  }
  EXPECT_GT(accepts, 0u);
  if constexpr (verify::kMemoEnabled) {
    u64 hits = 0;
    for (const auto& deployment : fuzz.deployments) {
      hits += deployment->memo().stats().hits;
    }
    EXPECT_GT(hits, 0u) << "the differential never exercised the hit path";
  }
}

// -- registry-wide app differential -------------------------------------------

TEST(MemoDifferential, EveryRegistryAppWarmCacheMatchesAndHits) {
  const fault::CampaignOptions options;
  // RAP replay aborts recording at every ambiguous-branch checkpoint, and
  // the futility backoff then anchors sparsely; short windows plus backoff
  // disabled keep enough abort-free stretches recordable that the warm-hit
  // assertion stays meaningful on the RAP path (digest equality holds for
  // any window/backoff setting — only traffic volume changes).
  const MemoOptions short_window{.window_packets = 4, .anchor_backoff_cap = 0};
  for (const auto& app : apps::app_registry()) {
    const PreparedApp prepared = apps::prepare_app(app);
    const AttestedRun clean = fault::attest_once(prepared, options);
    ASSERT_TRUE(clean.functional_ok) << app.name;
    const auto deployment =
        Deployment::rap(prepared.rap.program, prepared.rap.manifest,
                        prepared.built.entry, short_window);

    const VerificationResult plain = run_verify(
        deployment, options.watermark_bytes, clean.chal, clean.reports, false);
    ASSERT_TRUE(plain.accepted()) << app.name << ": " << plain.detail;
    const VerificationResult cold = run_verify(
        deployment, options.watermark_bytes, clean.chal, clean.reports, true);
    const VerificationResult warm = run_verify(
        deployment, options.watermark_bytes, clean.chal, clean.reports, true);
    EXPECT_EQ(digest_hex(cold), digest_hex(plain)) << app.name << " cold";
    EXPECT_EQ(digest_hex(warm), digest_hex(plain)) << app.name << " warm";
    if constexpr (verify::kMemoEnabled) {
      EXPECT_GT(warm.replay.memo_hits, 0u)
          << app.name << ": repeated replay never hit the cache";
    }
  }
}

// -- eviction under pressure --------------------------------------------------

TEST(MemoEviction, TinyBudgetEvictsWithoutChangingDigests) {
  const fault::CampaignOptions options;
  const PreparedApp prepared = apps::prepare_app(apps::app_by_name("gps"));
  const AttestedRun clean = fault::attest_once(prepared, options);
  ASSERT_TRUE(clean.functional_ok);
  // A cache far too small for the run: short windows make many segments and
  // a ~2 KiB budget forces continuous eviction while verifying.
  const MemoOptions tiny{.shards = 1,
                         .slots_per_shard = 8,
                         .budget_bytes = 2048,
                         .window_packets = 4};
  const auto pressured =
      Deployment::rap(prepared.rap.program, prepared.rap.manifest,
                      prepared.built.entry, tiny);
  const auto roomy = Deployment::rap(prepared.rap.program,
                                     prepared.rap.manifest,
                                     prepared.built.entry);

  const VerificationResult plain = run_verify(
      roomy, options.watermark_bytes, clean.chal, clean.reports, false);
  ASSERT_TRUE(plain.accepted()) << plain.detail;
  for (int round = 0; round < 4; ++round) {
    const VerificationResult squeezed =
        run_verify(pressured, options.watermark_bytes, clean.chal,
                   clean.reports, true);
    EXPECT_EQ(digest_hex(squeezed), digest_hex(plain)) << "round " << round;
  }
  if constexpr (verify::kMemoEnabled) {
    const auto stats = pressured->memo().stats();
    EXPECT_LE(stats.bytes, tiny.budget_bytes);
    EXPECT_GT(stats.inserts, 0u);
    EXPECT_GT(stats.evictions, 0u)
        << "pressure test never actually evicted (budget too roomy?)";
  }
}

// -- concurrent farm workers sharing one cache --------------------------------

TEST(MemoConcurrency, FarmWorkersWarmOneCacheAndMatchSerial) {
  const fault::CampaignOptions options;
  const PreparedApp prepared = apps::prepare_app(apps::app_by_name("gps"));
  const AttestedRun clean = fault::attest_once(prepared, options);
  ASSERT_TRUE(clean.functional_ok);
  // Short windows + no backoff for the same reason as the registry
  // differential above: they guarantee cache traffic on this
  // checkpoint-dense RAP chain, which is what makes the shared-cache
  // hit/insert assertions below meaningful.
  const auto deployment = Deployment::rap(
      prepared.rap.program, prepared.rap.manifest, prepared.built.entry,
      MemoOptions{.window_packets = 4, .anchor_backoff_cap = 0});

  const VerificationResult plain = run_verify(
      deployment, options.watermark_bytes, clean.chal, clean.reports, false);
  ASSERT_TRUE(plain.accepted()) << plain.detail;
  const std::string expected = digest_hex(plain);

  verify::VerifierFarm farm(apps::demo_key(),
                            {.workers = 4, .clamp_workers = false});
  verify::VerifyConfig config;
  config.expected_watermark = options.watermark_bytes;
  constexpr size_t kDevices = 48;
  std::vector<std::future<VerificationResult>> results;
  for (size_t device = 0; device < kDevices; ++device) {
    farm.provision(device, deployment, config);
    farm.adopt_challenge(device, clean.chal);
    results.push_back(farm.submit(device, clean.chal, clean.reports));
  }
  farm.drain();
  for (size_t device = 0; device < kDevices; ++device) {
    const VerificationResult result = results[device].get();
    EXPECT_TRUE(result.accepted()) << "device " << device;
    EXPECT_EQ(digest_hex(result), expected) << "device " << device;
  }
  if constexpr (verify::kMemoEnabled) {
    const auto stats = deployment->memo().stats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.inserts, 0u);
  }
}

// -- frontier differential ----------------------------------------------------

// The frontier tier must be outcome-invisible exactly like the sub-path
// tier: over the whole fault-plan corpus, digests with {memo+frontier},
// {memo only} and {no memo} are byte-identical. The corpus deployments are
// fresh here so this test controls its own warmth.
TEST(MemoFrontierDifferential, FuzzedFaultPlansMatchAcrossFrontierToggle) {
  const Corpus& fuzz = corpus();
  ASSERT_GE(fuzz.cases.size(), 200u)
      << "fault-plan corpus shrank below the differential coverage floor";
  std::vector<std::shared_ptr<const Deployment>> fresh;
  for (const auto& deployment : fuzz.deployments) {
    fresh.push_back(Deployment::rap(deployment->program(),
                                    *deployment->rap_manifest(),
                                    deployment->entry()));
  }
  for (const Case& c : fuzz.cases) {
    const VerificationResult plain = run_verify(
        fresh[c.app], fuzz.watermark, c.chal, c.chain, false);
    const VerificationResult no_frontier = run_verify(
        fresh[c.app], fuzz.watermark, c.chal, c.chain, true, false);
    const VerificationResult frontier_cold = run_verify(
        fresh[c.app], fuzz.watermark, c.chal, c.chain, true, true);
    const VerificationResult frontier_warm = run_verify(
        fresh[c.app], fuzz.watermark, c.chal, c.chain, true, true);
    EXPECT_EQ(digest_hex(no_frontier), digest_hex(plain)) << c.label;
    EXPECT_EQ(digest_hex(frontier_cold), digest_hex(plain)) << c.label;
    EXPECT_EQ(digest_hex(frontier_warm), digest_hex(plain))
        << c.label << " (warm)";
  }
}

// On a checkpoint-dense repeated RAP chain the frontier must actually fire:
// the second verification should take known-good decisions without saving
// checkpoints, and still land on the memo-off digest.
TEST(MemoFrontierDifferential, DenseRepeatedChainHitsFrontierAndMatches) {
  const fault::CampaignOptions options;
  const PreparedApp prepared = apps::prepare_app(apps::app_by_name("gps"));
  const AttestedRun clean = fault::attest_once(prepared, options);
  ASSERT_TRUE(clean.functional_ok);
  const auto deployment = Deployment::rap(
      prepared.rap.program, prepared.rap.manifest, prepared.built.entry,
      MemoOptions{.window_packets = 4, .anchor_backoff_cap = 0});

  const VerificationResult plain = run_verify(
      deployment, options.watermark_bytes, clean.chal, clean.reports, false);
  ASSERT_TRUE(plain.accepted()) << plain.detail;
  for (int round = 0; round < 3; ++round) {
    const VerificationResult result =
        run_verify(deployment, options.watermark_bytes, clean.chal,
                   clean.reports, true, true);
    EXPECT_EQ(digest_hex(result), digest_hex(plain)) << "round " << round;
  }
  if constexpr (verify::kMemoEnabled) {
    const auto stats = deployment->memo().stats();
    EXPECT_GT(stats.frontier_inserts, 0u)
        << "dense RAP chain never journaled a frontier decision";
    EXPECT_GT(stats.frontier_hits, 0u)
        << "repeated identical chain never hit the frontier memo";
  }
}

// -- generative checkpoint-dense corpus (gen_corpus.hpp) ----------------------

// The generative grid runs the full prover pipeline with the bench's
// checkpoint-dense transport shape: a small MTB and a 128-byte watermark
// chop every run into many short reports, maximizing RAP-ambiguity density
// on the verifier side.
constexpr u32 kGenWatermark = 128;

struct GenChain {
  /// Stable-address App: PreparedApp keeps a pointer into it (run_* calls
  /// app->setup), so it must outlive every run and survive GenChain moves.
  std::shared_ptr<apps::App> app;
  PreparedApp prepared;
  cfa::Challenge chal{};
  std::vector<cfa::SignedReport> chain;
  bool ok = false;
};

GenChain attest_gen(const gen::GenParams& p) {
  GenChain out;
  out.app = std::make_shared<apps::App>(gen::corpus_app(p));
  out.prepared = apps::prepare_app(*out.app);
  out.chal = fault::campaign_challenge(p.seed * 977 + 1);
  const apps::MethodRun run = apps::run_rap(
      out.prepared, p.seed, sim::MachineConfig{.mtb_buffer_bytes = 256},
      cfa::SessionOptions{.watermark_bytes = kGenWatermark}, out.chal);
  out.chain = run.attestation.reports;
  out.ok = run.functional_ok && !out.chain.empty();
  return out;
}

std::shared_ptr<const Deployment> gen_deployment(const GenChain& c,
                                                 const MemoOptions& options) {
  return Deployment::rap(c.prepared.rap.program, c.prepared.rap.manifest,
                         c.prepared.built.entry, options);
}

// The tentpole differential: across the whole parameter grid (>= 200
// synthesized programs), verification_digest() is byte-identical with
// {memo off}, {memo on, frontier off} and {memo + frontier, three warming
// rounds}. Guarded segment recording is on throughout — any unsound splice
// or stale guard shows up as a digest divergence on some grid point. Programs are independent (each owns its deployments), so the
// grid fans out across threads; under the `concurrency` label the tsan
// preset drives this as a multi-threaded differential.
TEST(MemoGenCorpus, GridDigestsInvariantAcrossMemoModes) {
  const std::vector<gen::GenParams> grid = gen::corpus_grid();
  ASSERT_GE(grid.size(), 200u)
      << "generative grid shrank below the acceptance floor";

  const MemoOptions dense{.window_packets = 4, .anchor_backoff_cap = 0};
  std::atomic<u64> segment_hits{0};
  std::atomic<u64> frontier_hits{0};
  const auto run_one = [&](const gen::GenParams& p) -> std::string {
    const std::string name = gen::corpus_name(p);
    const GenChain c = attest_gen(p);
    if (!c.ok) return name + ": prover run failed";
    const auto d = gen_deployment(c, dense);
    const VerificationResult plain =
        run_verify(d, kGenWatermark, c.chal, c.chain, false);
    if (!plain.accepted()) {
      return name + ": plain verify rejected: " + plain.detail;
    }
    const std::string want = digest_hex(plain);
    const auto check = [&](const VerificationResult& r,
                           const char* mode) -> std::string {
      if (digest_hex(r) != want) {
        return name + ": digest diverged under " + mode;
      }
      return {};
    };
    std::string err = check(
        run_verify(d, kGenWatermark, c.chal, c.chain, true, false),
        "memo on / frontier off");
    for (int round = 0; round < 3 && err.empty(); ++round) {
      err = check(run_verify(d, kGenWatermark, c.chal, c.chain, true, true),
                  "memo + frontier");
    }
    if (!err.empty()) return err;
    segment_hits += d->memo().stats().hits;
    frontier_hits += d->memo().stats().frontier_hits;
    return {};
  };

  const size_t workers = std::min<size_t>(
      std::max(std::thread::hardware_concurrency(), 2u), 8);
  std::atomic<size_t> next{0};
  std::atomic<size_t> completed{0};
  std::vector<std::future<std::vector<std::string>>> slices;
  for (size_t w = 0; w < workers; ++w) {
    slices.push_back(std::async(std::launch::async, [&] {
      std::vector<std::string> errors;
      for (size_t i = next.fetch_add(1); i < grid.size();
           i = next.fetch_add(1)) {
        std::string err = run_one(grid[i]);
        if (err.empty()) {
          ++completed;
        } else {
          errors.push_back(std::move(err));
        }
      }
      return errors;
    }));
  }
  std::vector<std::string> errors;
  for (auto& slice : slices) {
    for (std::string& err : slice.get()) errors.push_back(std::move(err));
  }
  for (const std::string& err : errors) ADD_FAILURE() << err;
  EXPECT_EQ(completed.load(), grid.size());
  if constexpr (verify::kMemoEnabled) {
    // The corpus regime the bench floor encodes: guarded recording keeps
    // the §14 segment tier alive on checkpoint-dense chains (it was ~0
    // before), and the frontier tier fires throughout.
    EXPECT_GT(segment_hits.load(), 0u)
        << "guarded segments never spliced anywhere in the grid";
    EXPECT_GT(frontier_hits.load(), 0u);
  }
}

// -- golden digests of the search-only replayer -------------------------------

// The differentials above compare against memo-off replay, and greedy-first
// RAP replay (DESIGN.md §15) changed that reference too. These tests pin it
// to the replayer it replaced: each constant is one SHA-256 over the
// in-order digest_hex strings of every verification in the test, computed
// with the replayer at commit 20f63e0 (search only, no greedy pass, every
// failed strict pass followed by a lenient one).

/// {memo off}, {memo on, frontier off}, {memo + frontier}.
constexpr std::pair<bool, bool> kMemoModes[] = {
    {false, false}, {true, false}, {true, true}};

TEST(MemoGolden, DigestsMatchSearchOnlyReplayer) {
  const Corpus& fuzz = corpus();
  std::vector<std::shared_ptr<const Deployment>> fresh;
  for (const auto& deployment : fuzz.deployments) {
    fresh.push_back(Deployment::rap(deployment->program(),
                                    *deployment->rap_manifest(),
                                    deployment->entry()));
  }
  crypto::Sha256 fault_hash;
  for (const Case& c : fuzz.cases) {
    for (const bool memo : {false, true}) {
      fault_hash.update(digest_hex(
          run_verify(fresh[c.app], fuzz.watermark, c.chal, c.chain, memo)));
    }
  }
  EXPECT_EQ(hex_digest(fault_hash.finalize()),
            "029615b3411c23695a0996cbda37c59e"
            "37ab4dbe4983c632155784f4201f6f7b");

  // Grid points are independent, so they fan out across threads; the
  // digests are hashed in grid order afterwards.
  const std::vector<gen::GenParams> grid = gen::corpus_grid();
  const MemoOptions dense{.window_packets = 4, .anchor_backoff_cap = 0};
  std::vector<std::string> digests(grid.size());
  std::atomic<size_t> next{0};
  std::vector<std::future<void>> workers;
  for (size_t w = 0; w < 4; ++w) {
    workers.push_back(std::async(std::launch::async, [&] {
      for (size_t i = next.fetch_add(1); i < grid.size();
           i = next.fetch_add(1)) {
        const GenChain c = attest_gen(grid[i]);
        const auto d = gen_deployment(c, dense);
        for (const auto& [memo, frontier] : kMemoModes) {
          digests[i] += digest_hex(run_verify(d, kGenWatermark, c.chal,
                                              c.chain, memo, frontier));
        }
      }
    }));
  }
  for (auto& worker : workers) worker.get();
  crypto::Sha256 grid_hash;
  for (const std::string& d : digests) grid_hash.update(d);
  EXPECT_EQ(hex_digest(grid_hash.finalize()),
            "5e4b9ecce2bd4b063fc74e8d9d1d6031"
            "5b6d26234259e9ba85a4ea82060f14e7");
}

// The lenient pass is skipped after a finding-free strict failure with the
// frontier off, in every replay mode. This pins every registry app under
// naive, TRACES and RAP, clean and under each transport injector (mostly
// Reject and Inconclusive), to the same commit's digests, over {memo off,
// memo on, memo + frontier}.
TEST(MemoGolden, AllModesTransportFaultsMatchTwoPassReplayer) {
  constexpr u32 kWatermark = 256;
  crypto::Sha256 hash;
  size_t inconclusive = 0;
  for (const auto& app : apps::app_registry()) {
    const PreparedApp p = apps::prepare_app(app);
    const sim::MachineConfig machine{.mtb_buffer_bytes = 512};
    const cfa::SessionOptions session{.watermark_bytes = kWatermark};
    for (const verify::ReplayMode mode :
         {verify::ReplayMode::Naive, verify::ReplayMode::Traces,
          verify::ReplayMode::Rap}) {
      const cfa::Challenge chal =
          fault::campaign_challenge(17 + static_cast<u64>(mode));
      apps::MethodRun run;
      std::shared_ptr<const Deployment> d;
      switch (mode) {
        case verify::ReplayMode::Naive:
          run = apps::run_naive(p, 3, machine, session, chal);
          d = Deployment::naive(p.built.program, p.built.entry);
          break;
        case verify::ReplayMode::Traces:
          run = apps::run_traces(p, 3, machine, session, chal);
          d = Deployment::traces(p.traces.program, p.traces.manifest,
                                 p.built.entry);
          break;
        case verify::ReplayMode::Rap:
          run = apps::run_rap(p, 3, machine, session, chal);
          d = Deployment::rap(p.rap.program, p.rap.manifest, p.built.entry);
          break;
      }
      std::vector<std::vector<cfa::SignedReport>> chains{
          run.attestation.reports};
      for (const InjectorKind kind : fault::transport_injectors()) {
        for (u64 seed = 1; seed <= 3; ++seed) {
          FaultPlan plan(seed);
          plan.add(kind);
          std::vector<cfa::SignedReport> chain = run.attestation.reports;
          if (kind == InjectorKind::WireBitFlip) {
            auto survived = fault::apply_wire_fault(plan, chain);
            if (!survived.has_value()) continue;
            chain = std::move(*survived);
          } else {
            fault::apply_transport_faults(plan, chain);
          }
          chains.push_back(std::move(chain));
        }
      }
      for (const auto& chain : chains) {
        for (const auto& [memo, frontier] : kMemoModes) {
          const VerificationResult r =
              run_verify(d, kWatermark, chal, chain, memo, frontier);
          if (r.verdict == verify::Verdict::Inconclusive) ++inconclusive;
          hash.update(digest_hex(r));
        }
      }
    }
  }
  EXPECT_GT(inconclusive, 0u) << "no prefix replay exercised";
  EXPECT_EQ(hex_digest(hash.finalize()),
            "20c86c5939ec9a448a04f5380888fa33"
            "643a8c0c7f49903601df8bc284c522f7");
}

// Naive and TRACES replay has no RAP ambiguity, so it never consults or
// fills the frontier: those deployments hold segments only. Clean and
// transport-faulted chains, each verified cold then warm, memo + frontier on.
TEST(MemoModes, NaiveAndTracesNeverTouchTheFrontier) {
  if constexpr (!verify::kMemoEnabled) GTEST_SKIP() << "RAP_MEMO off";
  constexpr u32 kWatermark = 256;
  const sim::MachineConfig machine{.mtb_buffer_bytes = 512};
  const cfa::SessionOptions session{.watermark_bytes = kWatermark};
  for (const char* name : {"gps", "temperature", "crc32"}) {
    const PreparedApp p = apps::prepare_app(apps::app_by_name(name));
    for (const verify::ReplayMode mode :
         {verify::ReplayMode::Naive, verify::ReplayMode::Traces}) {
      const bool naive = mode == verify::ReplayMode::Naive;
      SCOPED_TRACE(std::string(name) + (naive ? "/naive" : "/traces"));
      const cfa::Challenge chal =
          fault::campaign_challenge(29 + static_cast<u64>(mode));
      const apps::MethodRun run =
          naive ? apps::run_naive(p, 3, machine, session, chal)
                : apps::run_traces(p, 3, machine, session, chal);
      const auto d =
          naive ? Deployment::naive(p.built.program, p.built.entry)
                : Deployment::traces(p.traces.program, p.traces.manifest,
                                     p.built.entry);
      std::vector<std::vector<cfa::SignedReport>> chains{
          run.attestation.reports};
      for (const InjectorKind kind : fault::transport_injectors()) {
        if (kind == InjectorKind::WireBitFlip) continue;
        FaultPlan plan(7);
        plan.add(kind);
        chains.push_back(run.attestation.reports);
        fault::apply_transport_faults(plan, chains.back());
      }
      for (const auto& chain : chains) {
        for (int pass = 0; pass < 2; ++pass) {
          run_verify(d, kWatermark, chal, chain, /*memo=*/true);
        }
      }
      const verify::MemoStats stats = d->memo().stats();
      EXPECT_GT(stats.hits + stats.misses, 0u) << "the memo saw no traffic";
      EXPECT_EQ(stats.frontier_entries, 0u);
      EXPECT_EQ(stats.frontier_hits, 0u);
      EXPECT_EQ(stats.frontier_misses, 0u);
    }
  }
}

// Guarded recording keeps the segment tier alive on a checkpoint-dense
// repeated chain. Measured like the leafamb bench gate (16 memo + frontier
// verifications from a cold cache), the segment hit rate holds the same 0.5
// floor: the first two rounds warm both tiers, every later one splices.
// Every round stays on the memo-off digest.
TEST(MemoGenCorpus, GuardedSegmentsLiftHitsOnCheckpointDenseChains) {
  if constexpr (!verify::kMemoEnabled) GTEST_SKIP() << "RAP_MEMO off";
  const gen::GenParams p{
      .depth = 2, .alarm_every = 4, .loop_shape = 0, .seed = 1};
  const GenChain c = attest_gen(p);
  ASSERT_TRUE(c.ok);
  const auto d = gen_deployment(
      c, MemoOptions{.window_packets = 4, .anchor_backoff_cap = 0});
  const VerificationResult plain =
      run_verify(d, kGenWatermark, c.chal, c.chain, false);
  ASSERT_TRUE(plain.accepted()) << plain.detail;
  const std::string want = digest_hex(plain);
  for (int round = 0; round < 16; ++round) {
    const VerificationResult on =
        run_verify(d, kGenWatermark, c.chal, c.chain, true, true);
    EXPECT_EQ(digest_hex(on), want) << "round " << round;
  }
  const verify::MemoStats stats = d->memo().stats();
  EXPECT_GE(stats.hit_rate(), 0.5)
      << stats.hits << " segment hits, " << stats.misses << " misses";
}

// -- greedy-first pass telemetry ----------------------------------------------

// `verify.replay.greedy_passes` / `verify.replay.search_passes` show how often
// the checkpointed search still runs: never on a clean registry chain, whose
// greedy parse completes, and at least once on a cold checkpoint-dense chain.
TEST(MemoGreedyFirst, PassCountersSplitGreedyFromSearch) {
  if (!obs::kEnabled) GTEST_SKIP() << "RAP_OBS=OFF build";
  const auto delta = [](const obs::Snapshot& after, const obs::Snapshot& before,
                        const char* name) {
    return after.value(name) - before.value(name);
  };
  const fault::CampaignOptions options;
  const PreparedApp prepared = apps::prepare_app(apps::app_by_name("gps"));
  const AttestedRun clean = fault::attest_once(prepared, options);
  ASSERT_TRUE(clean.functional_ok);
  const auto deployment = Deployment::rap(
      prepared.rap.program, prepared.rap.manifest, prepared.built.entry);
  const obs::Snapshot s0 = obs::registry().scrape();
  const VerificationResult registry = run_verify(
      deployment, options.watermark_bytes, clean.chal, clean.reports, true);
  const obs::Snapshot s1 = obs::registry().scrape();
  ASSERT_TRUE(registry.accepted()) << registry.detail;
  EXPECT_GE(delta(s1, s0, "verify.replay.greedy_passes"), 1u);
  EXPECT_EQ(delta(s1, s0, "verify.replay.search_passes"), 0u);

  const GenChain c = attest_gen(
      {.depth = 2, .alarm_every = 4, .loop_shape = 0, .seed = 1});
  ASSERT_TRUE(c.ok);
  const auto d = gen_deployment(
      c, MemoOptions{.window_packets = 4, .anchor_backoff_cap = 0});
  const VerificationResult cold =
      run_verify(d, kGenWatermark, c.chal, c.chain, true, true);
  const obs::Snapshot s2 = obs::registry().scrape();
  ASSERT_TRUE(cold.accepted()) << cold.detail;
  EXPECT_GE(delta(s2, s1, "verify.replay.search_passes"), 1u);
}

// -- whole-chain fingerprint -------------------------------------------------

// One verification hashes the four evidence streams at most once: the first
// engine that consults the frontier computes, and the strict, lenient and
// detached engines of that replay reuse it. Nothing carries over between
// verifications, so a second verification of the identical chain computes
// exactly once again.
TEST(MemoFingerprint, ChainFingerprintComputedOncePerVerification) {
  if constexpr (!verify::kMemoEnabled) GTEST_SKIP() << "RAP_MEMO off";
  if (!obs::kEnabled) GTEST_SKIP() << "RAP_OBS=OFF build";
  const gen::GenParams p{
      .depth = 2, .alarm_every = 4, .loop_shape = 0, .seed = 3};
  const GenChain c = attest_gen(p);
  ASSERT_TRUE(c.ok);
  const auto d = gen_deployment(
      c, MemoOptions{.window_packets = 4, .anchor_backoff_cap = 0});
  const VerificationResult plain =
      run_verify(d, kGenWatermark, c.chal, c.chain, false);
  ASSERT_TRUE(plain.accepted()) << plain.detail;

  const obs::Snapshot s0 = obs::registry().scrape();
  const VerificationResult first =
      run_verify(d, kGenWatermark, c.chal, c.chain, true, true);
  const obs::Snapshot s1 = obs::registry().scrape();
  const VerificationResult second =
      run_verify(d, kGenWatermark, c.chal, c.chain, true, true);
  const obs::Snapshot s2 = obs::registry().scrape();
  EXPECT_EQ(digest_hex(first), digest_hex(plain));
  EXPECT_EQ(digest_hex(second), digest_hex(plain));

  const auto delta = [](const obs::Snapshot& after, const obs::Snapshot& before,
                        const char* name) {
    return after.value(name) - before.value(name);
  };
  EXPECT_EQ(delta(s1, s0, "verify.memo.fingerprint.computed"), 1u);
  EXPECT_EQ(delta(s2, s1, "verify.memo.fingerprint.computed"), 1u);
}

}  // namespace
}  // namespace raptrack
