// End-to-end attestation-round benchmark.
//
//   rap_e2e --workload NAME --seed N --seconds S --trace 0|1 [--commit ID]
//
// One round is the §II-C challenge-response protocol, driven through public
// APIs only:
//
//   VerifierFarm::issue_challenge
//     -> sim::Machine + App::setup
//     -> {Rap,Naive,Traces}Prover::attest
//     -> net::ProverEndpoint / VerifierEndpoint over a seeded DuplexLink
//     -> VerifierFarm (inside the endpoint) -> verdict at the prover.
//
// The load is a closed loop: a fixed fleet of simulated devices is spread
// over a few "device lanes" (load-generator threads), and a lane starts a
// device's next round only after that device's verdict has arrived. Lane
// threads plus farm workers never exceed 4, and the whole process is pinned
// to one CPU (see pin_to_one_cpu).
//
// Run structure:
//   1. setup, repeated kSetupReps times (median reported as setup_s):
//      prepare_app per program, Deployment builds, farm + endpoints,
//      fleet provisioning and the untimed warm-up rounds. The first
//      kSetupReps - 1 setups each run in a forked child that is thrown
//      away; the last runs in this process, is timed as process start-up
//      plus its own build, and its fleet runs the rest;
//   2. the timed phase: --seconds of closed-loop rounds. With --trace 1
//      the phase is four blocks (untraced, traced, traced, untraced) so
//      the traced/untraced throughput ratio cancels linear drift;
//   3. the correctness gate (untimed): a fixed set of rounds per device
//      with the simulator's oracle on. Every clean Accept must replay the
//      oracle's events (serial Verifier, memo off), every faulted round
//      must end Reject or Inconclusive, memo-on and memo-off verification
//      digests must match, and the oracle must not change the evidence.
//      This pass also yields the exact per-layer counts (CF_Log bytes,
//      world switches, link counts, replay steps and backtracks);
//   4. the census (untimed): the same inputs proven again, prover only,
//      over more rounds, for the exact cycle and evidence-byte counts.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. Earlier lines carry the host facts and a readable table.
// Exit status is non-zero when a round ends outside its expected outcome,
// the correctness gate misses, or the fresh-verification guard fails.
// See perfbench/README.md.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include "apps/runner.hpp"
#include "fault/injector.hpp"
#include "gen_corpus.hpp"
#include "net/endpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "verify/farm.hpp"

namespace {

using namespace raptrack;
using verify::DeviceId;
using verify::Verdict;

constexpr int kSetupReps = 5;


u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

const u64 g_process_start_ns = now_ns();

/// splitmix64 finalizer over a combined key: every round input is a pure
/// function of (workload seed, device, round index, stream).
u64 mix(u64 a, u64 b, u64 c = 0, u64 d = 0) {
  SplitMix64 sm(a ^ (b * 0x9e3779b97f4a7c15ull) ^ (c * 0xc2b2ae3d27d4eb4full) ^
                (d * 0x165667b19e3779f9ull));
  sm.next();
  return sm.next();
}

// -- workloads -----------------------------------------------------------------

enum class Method : u8 { Rap, Naive, Traces };

const char* method_name(Method m) {
  switch (m) {
    case Method::Rap: return "rap";
    case Method::Naive: return "naive";
    case Method::Traces: return "traces";
  }
  return "?";
}

struct WorkloadSpec {
  std::string name;
  size_t lanes = 1;
  size_t workers = 1;
  u32 loss_permille = 0;       ///< LinkModel::lossy both ways; 0 = lossless
  u32 fault_every = 0;         ///< ~1 in N rounds carries a device fault
  u32 stimulus_pool = 0;       ///< 0 = fresh stimulus per round
  size_t devices_per_image = 1;
  size_t gate_rounds = 1;      ///< correctness-pass rounds per device
  size_t census_rounds = 1;    ///< prover-only rounds per device (counts);
                               ///< with a pool, the warm-up rounds instead
  u64 rss_rounds = 0;          ///< peak RSS is read after this many rounds
};

WorkloadSpec workload_spec(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "corpus_fresh") {
    w.lanes = 2;
    w.workers = 2;
    w.devices_per_image = 4;
    w.gate_rounds = 4;
    w.census_rounds = 300;
    w.rss_rounds = 6000;
  } else if (name == "corpus_repeat") {
    w.stimulus_pool = 64;
    w.devices_per_image = 2;
    w.gate_rounds = 3;
    w.rss_rounds = 5000;
  } else if (name == "lossy_partial") {
    w.loss_permille = 100;
    w.fault_every = 8;
    w.devices_per_image = 2;
    w.gate_rounds = 8;
    w.census_rounds = 200;
    w.rss_rounds = 1500;
  } else if (name == "leafamb_search") {
    w.gate_rounds = 1;
    w.census_rounds = 2;
    w.rss_rounds = 3000;
  } else {
    w.name.clear();
  }
  return w;
}

// -- fleet ---------------------------------------------------------------------

/// One deployed program under one attestation method.
struct Image {
  std::string label;
  std::shared_ptr<const apps::App> owned_app;  ///< generated programs only
  std::shared_ptr<const apps::PreparedApp> prepared;
  Method method = Method::Rap;
  std::shared_ptr<const verify::Deployment> deployment;
  verify::VerifyConfig config;
  sim::MachineConfig machine;
  cfa::SessionOptions session;
};

struct Device {
  DeviceId id = 0;
  const Image* image = nullptr;
  size_t copy = 0;       ///< which of the image's devices this is
  u64 next_round = 0;    ///< round index: selects the round's inputs
  u64 next_session = 1;  ///< never reused: every round is a new session
};

/// Bench-own span, tagged with its round id (traced blocks only).
enum Stage : u8 { kChallenge, kMachine, kAttest, kSession, kRound, kStages };

struct BenchSpan {
  u64 round = 0;
  Stage stage = kRound;
  u64 start = 0;
  u64 end = 0;
};

struct Lane {
  std::unique_ptr<net::VerifierEndpoint> endpoint;
  std::vector<Device*> devices;
  size_t cursor = 0;
};

struct Fleet {
  WorkloadSpec spec;
  u64 seed = 0;
  std::vector<u64> stimulus_pool;
  net::LinkModel link;
  std::deque<Image> images;
  std::deque<Device> devices;
  std::unique_ptr<verify::VerifierFarm> farm;  ///< outlives the lanes
  std::vector<Lane> lanes;
  double prepare_ms_per_program = 0.0;
  /// Untimed warm-up rounds per device (round indices 0..warm_rounds-1).
  /// One, except with a stimulus pool, where the warm-up rounds walk the
  /// pool so that every (image, stimulus) chain is verified once before
  /// timing starts and the timed rounds measure the warm memo.
  u64 warm_rounds = 1;
};

struct RoundInputs {
  u64 stimulus = 0;
  u64 link_seed = 0;
  u64 fault_seed = 0;
  std::optional<fault::InjectorKind> fault;
};

RoundInputs round_inputs(const Fleet& fleet, const Device& device, u64 round) {
  RoundInputs in;
  const u64 s = fleet.seed;
  const size_t pool = fleet.stimulus_pool.size();
  if (pool == 0) {
    in.stimulus = mix(s, device.id, round, 1);
  } else if (round < fleet.warm_rounds) {
    const size_t copies = fleet.spec.devices_per_image;
    in.stimulus = fleet.stimulus_pool[(round * copies + device.copy) % pool];
  } else {
    in.stimulus = fleet.stimulus_pool[mix(s, device.id, round, 2) %
                                      fleet.stimulus_pool.size()];
  }
  in.link_seed = mix(s, device.id, round, 3);
  const u32 every = fleet.spec.fault_every;
  if (every != 0 && round >= fleet.warm_rounds &&
      mix(s, device.id, round, 4) % every == 0) {
    // No MTB SRAM bit flip (MtbSramBitFlip) until the program stops
    // accepting some of them with a wrong path: see README, known defects.
    static const fault::InjectorKind kKinds[] = {
        fault::InjectorKind::SvcDropLoopValue,
        fault::InjectorKind::SvcDoubleLoopValue};
    in.fault = kKinds[mix(s, device.id, round, 5) % 2];
    in.fault_seed = mix(s, device.id, round, 6);
  }
  return in;
}

/// Arm one device-level injector through the prover's public hooks, in the
/// fault shape fault::run_device_fault uses: an SVC gateway that swallows or
/// re-enters one loop-condition call. The plan records the fault only if it
/// fired.
void arm_device_fault(fault::InjectorKind kind, fault::FaultPlan& plan,
                      bool& fired, cfa::SessionOptions& session) {
  const u32 target = static_cast<u32>(plan.rng().next_below(8));
  const bool drop = kind == fault::InjectorKind::SvcDropLoopValue;
  session.post_config_hook = [&plan, &fired, target, drop,
                              kind](sim::Machine& machine) {
    auto calls = std::make_shared<u32>(0);
    tz::SecureMonitor::GatewayFault gateway;
    gateway.dispatch = [&plan, &fired, calls, target, drop, kind](
                           u8 code, cpu::CpuState&) -> u32 {
      if (code != static_cast<u8>(tz::Service::kRapLogLoopCondition)) return 1;
      const u32 index = (*calls)++;
      if (fired || index != target) return 1;
      fired = true;
      plan.record(kind, "loop-condition SVC #" + std::to_string(index));
      return drop ? 0u : 2u;
    };
    machine.monitor().set_gateway_fault(std::move(gateway));
  };
}

cfa::AttestationRun attest(const Image& image, sim::Machine& machine,
                           const cfa::Challenge& chal,
                           const cfa::SessionOptions& session) {
  const apps::PreparedApp& p = *image.prepared;
  switch (image.method) {
    case Method::Rap:
      return cfa::RapProver(p.rap.program, p.rap.manifest, p.built.entry,
                            apps::demo_key(), session)
          .attest(machine, chal);
    case Method::Naive:
      return cfa::NaiveProver(p.built.program, p.built.entry, apps::demo_key(),
                              session)
          .attest(machine, chal);
    case Method::Traces:
      return cfa::TracesProver(p.traces.program, p.traces.manifest,
                               p.built.entry, apps::demo_key(), session)
          .attest(machine, chal);
  }
  return {};
}

struct RoundOutcome {
  bool done = false;  ///< the prover received a terminal verdict
  Verdict verdict = Verdict::Reject;
  bool faulted = false;  ///< a device fault actually fired
  bool ok = false;       ///< terminal outcome inside the expected set
  std::optional<fault::InjectorKind> fault;  ///< the round's armed injector
  std::string detail;    ///< the verdict's detail string
  std::string injected;  ///< what the fired fault changed
  u64 submissions = 0;   ///< farm submissions the endpoint made this round
  // Host timestamps (ns): round start, then the end of each bench span.
  u64 start = 0, challenged = 0, machine_ready = 0, attested = 0;
  u64 session_start = 0, end = 0;
  // Correctness pass only (keep_evidence):
  cfa::Challenge chal{};
  cfa::AttestationRun run;
  std::vector<trace::OracleEvent> oracle;
  bool functional_ok = false;
};

/// One full round for `device` on `lane`. `oracle` turns the simulator's
/// ground-truth tracer on; `keep_evidence` keeps the chain and oracle for
/// the correctness gate (the timed path moves the chain into the endpoint).
RoundOutcome run_round(Fleet& fleet, Lane& lane, Device& device, u64 round,
                       bool oracle, bool keep_evidence) {
  const Image& image = *device.image;
  const RoundInputs in = round_inputs(fleet, device, round);
  RoundOutcome out;
  out.start = now_ns();
  const cfa::Challenge chal = fleet.farm->issue_challenge(device.id);
  out.challenged = now_ns();
  fault::FaultPlan plan(in.fault_seed);
  bool fired = false;
  cfa::AttestationRun run;
  {
    sim::MachineConfig config = image.machine;
    config.enable_oracle = oracle;
    sim::Machine machine(config);
    const auto periph = image.prepared->built.app->setup(machine, in.stimulus);
    out.machine_ready = now_ns();
    cfa::SessionOptions session = image.session;
    if (in.fault.has_value()) arm_device_fault(*in.fault, plan, fired, session);
    run = attest(image, machine, chal, session);
    out.attested = now_ns();
    if (keep_evidence) {
      out.oracle = machine.oracle().events();
      out.functional_ok =
          image.prepared->built.app->check(machine, *periph, in.stimulus);
    }
  }  // machine teardown is host work inside the round, outside every span
  out.session_start = now_ns();
  const u64 submissions_before = lane.endpoint->stats().submissions;
  net::DuplexLink link(fleet.link, fleet.link, in.link_seed);
  net::ProverEndpoint prover(
      device.id, device.next_session++,
      keep_evidence ? run.reports : std::move(run.reports), {},
      in.link_seed ^ 0x70726f76ull);
  const net::SessionOutcome session = net::run_session(prover, *lane.endpoint, link);
  out.end = now_ns();
  out.submissions = lane.endpoint->stats().submissions - submissions_before;
  out.done = session.phase == net::ProverPhase::Done && session.verdict;
  if (out.done) {
    out.verdict = session.verdict->verdict;
    out.detail = session.verdict->detail;
  }
  out.faulted = fired;
  if (fired) out.injected = plan.records().front().detail;
  out.fault = in.fault;
  if (out.done) {
    out.ok = out.faulted ? out.verdict != Verdict::Accept
                         : out.verdict == Verdict::Accept;
  }
  if (keep_evidence) {
    out.chal = chal;
    out.run = std::move(run);
  }
  return out;
}

std::shared_ptr<const verify::Deployment> make_deployment(const Image& image) {
  const apps::PreparedApp& p = *image.prepared;
  switch (image.method) {
    case Method::Rap:
      return verify::Deployment::rap(p.rap.program, p.rap.manifest,
                                     p.built.entry);
    case Method::Naive:
      return verify::Deployment::naive(p.built.program, p.built.entry);
    case Method::Traces:
      return verify::Deployment::traces(p.traces.program, p.traces.manifest,
                                        p.built.entry);
  }
  return nullptr;
}

/// Build the workload's images (programs x method x buffer shape).
void add_images(Fleet& fleet) {
  const WorkloadSpec& w = fleet.spec;
  std::vector<std::shared_ptr<const apps::App>> owned;
  std::vector<const apps::App*> programs;
  if (w.name == "leafamb_search") {
    for (const gen::GenParams& p : gen::corpus_grid()) {
      owned.push_back(std::make_shared<const apps::App>(gen::corpus_app(p)));
      programs.push_back(owned.back().get());
    }
  } else {
    for (const apps::App& app : apps::app_registry()) programs.push_back(&app);
  }
  std::vector<Method> methods = {Method::Rap};
  if (w.name == "corpus_repeat") methods = {Method::Naive, Method::Traces};
  // The campaign-shaped small MTB (256 B, watermark 128) for the partial-
  // report and checkpoint-dense workloads; the paper's 4 KiB MTB otherwise.
  const bool small_mtb = w.name == "lossy_partial" || w.name == "leafamb_search";

  u64 prepare_ns = 0;
  for (size_t i = 0; i < programs.size(); ++i) {
    const u64 t0 = now_ns();
    auto prepared =
        std::make_shared<const apps::PreparedApp>(apps::prepare_app(*programs[i]));
    prepare_ns += now_ns() - t0;
    for (const Method method : methods) {
      Image& image = fleet.images.emplace_back();
      image.label = programs[i]->name + "/" + method_name(method);
      image.owned_app = owned.empty() ? nullptr : owned[i];
      image.prepared = prepared;
      image.method = method;
      if (small_mtb) {
        image.machine.mtb_buffer_bytes = 256;
        image.session.watermark_bytes = 128;
        image.config.expected_watermark = 128;
      } else if (method == Method::Naive) {
        image.session.watermark_bytes = 1024;
      }
      image.deployment = make_deployment(image);
    }
  }
  fleet.prepare_ms_per_program =
      static_cast<double>(prepare_ns) / 1e6 / static_cast<double>(programs.size());
}

std::unique_ptr<Fleet> build_fleet(const WorkloadSpec& spec, u64 seed) {
  auto fleet = std::make_unique<Fleet>();
  fleet->spec = spec;
  fleet->seed = seed;
  // The pool is the same for every --seed, so the set of chains the memo
  // holds, and the census over it, do not change with the seed; the seed
  // picks the order in which devices draw from it.
  for (u32 i = 0; i < spec.stimulus_pool; ++i) {
    fleet->stimulus_pool.push_back(mix(0x5eed, 0xf00d, i));
  }
  if (spec.stimulus_pool != 0) {
    fleet->warm_rounds = (spec.stimulus_pool + spec.devices_per_image - 1) /
                         spec.devices_per_image;
  }
  if (spec.loss_permille != 0) fleet->link = net::LinkModel::lossy(spec.loss_permille);
  add_images(*fleet);
  fleet->farm = std::make_unique<verify::VerifierFarm>(
      apps::demo_key(), verify::FarmOptions{.workers = spec.workers},
      mix(seed, 0xfa53));
  fleet->lanes.resize(spec.lanes);
  for (Lane& lane : fleet->lanes) {
    lane.endpoint = std::make_unique<net::VerifierEndpoint>(*fleet->farm);
  }
  // Every lane gets an even share of every image's devices.
  DeviceId next_id = 1;
  for (size_t copy = 0; copy < spec.devices_per_image; ++copy) {
    for (size_t i = 0; i < fleet->images.size(); ++i) {
      const Image& image = fleet->images[i];
      Device& device = fleet->devices.emplace_back();
      device.id = next_id++;
      device.copy = copy;
      device.image = &image;
      fleet->farm->provision(device.id, image.deployment, image.config);
      fleet->lanes[(copy + i) % spec.lanes].devices.push_back(&device);
    }
  }
  // Untimed warm-up rounds: cold verifier work — first replay, memo and
  // frontier fill — lands in setup.
  for (Lane& lane : fleet->lanes) {
    for (Device* device : lane.devices) {
      while (device->next_round < fleet->warm_rounds) {
        const RoundOutcome o = run_round(*fleet, lane, *device,
                                         device->next_round++, false, false);
        if (!o.ok) {
          std::fprintf(stderr, "error: warm-up round failed on %s\n",
                       device->image->label.c_str());
          std::exit(1);
        }
      }
    }
  }
  return fleet;
}

// -- timed phase ---------------------------------------------------------------

struct LaneResult {
  u64 rounds = 0;     ///< rounds started inside the block
  u64 failed = 0;     ///< terminal outcome outside the expected set
  u64 unverified = 0; ///< rounds whose endpoint made no farm submission
  std::vector<u32> latency_ns;
  std::vector<BenchSpan> spans;
};

struct RssProbe {
  u64 threshold = 0;
  std::atomic<u64> completed{0};
  std::atomic<u64> vm_hwm_kb{0};
};

u64 vm_hwm_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtoull(line.c_str() + 6, nullptr, 10);
  }
  return 0;
}

void report_failure(const Device& device, u64 round, const RoundOutcome& o) {
  std::fprintf(stderr,
               "failed round: %s device %llu round %llu: %s, fault %s%s%s, %s\n",
               device.image->label.c_str(),
               static_cast<unsigned long long>(device.id),
               static_cast<unsigned long long>(round),
               o.done ? verify::verdict_name(o.verdict) : "prover gave up",
               o.fault ? fault::injector_name(*o.fault) : "none",
               o.faulted ? " fired: " : "", o.injected.c_str(), o.detail.c_str());
}

void lane_loop(Fleet& fleet, Lane& lane, u64 deadline, bool traced,
               RssProbe* rss, u64 round_base, LaneResult& result) {
  u64 round_id = round_base;
  while (true) {
    const bool timing = now_ns() < deadline;
    const bool rss_pending = rss != nullptr && rss->vm_hwm_kb.load() == 0;
    if (!timing && !rss_pending) break;
    Device& device = *lane.devices[lane.cursor++ % lane.devices.size()];
    const RoundOutcome o =
        run_round(fleet, lane, device, device.next_round++, false, false);
    if (rss != nullptr && rss->completed.fetch_add(1) + 1 == rss->threshold) {
      rss->vm_hwm_kb.store(std::max<u64>(1, vm_hwm_kb()));
    }
    if (!timing) continue;  // past the deadline, only to reach the RSS mark
    ++result.rounds;
    if (!o.ok) {
      ++result.failed;
      report_failure(device, device.next_round - 1, o);
    }
    if (o.submissions < 1) ++result.unverified;
    result.latency_ns.push_back(
        static_cast<u32>(std::min<u64>(o.end - o.start, 0xffffffffu)));
    if (traced) {
      const u64 id = round_id++;
      result.spans.push_back({id, kChallenge, o.start, o.challenged});
      result.spans.push_back({id, kMachine, o.challenged, o.machine_ready});
      result.spans.push_back({id, kAttest, o.machine_ready, o.attested});
      result.spans.push_back({id, kSession, o.session_start, o.end});
      result.spans.push_back({id, kRound, o.start, o.end});
    }
  }
}

/// One timed block. Rounds count where they start: the closed loop keeps
/// every lane busy, so rounds started per second of block is throughput.
struct Block {
  bool traced = false;
  u64 start_ns = 0;
  u64 end_ns = 0;  ///< the deadline: no round starts after it
  u64 rounds = 0;
  u64 failed = 0;
  u64 unverified = 0;
  std::vector<u32> latency_ns;
  std::vector<BenchSpan> spans;
  double rounds_per_s() const {
    return static_cast<double>(rounds) * 1e9 /
           static_cast<double>(std::max<u64>(1, end_ns - start_ns));
  }
};

Block run_block(Fleet& fleet, double seconds, bool traced, RssProbe* rss,
                u64 round_base) {
  Block block;
  block.traced = traced;
  std::vector<LaneResult> results(fleet.lanes.size());
  block.start_ns = now_ns();
  const u64 deadline = block.start_ns + static_cast<u64>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < fleet.lanes.size(); ++i) {
    threads.emplace_back(lane_loop, std::ref(fleet), std::ref(fleet.lanes[i]),
                         deadline, traced, rss, round_base + (u64{i} << 40),
                         std::ref(results[i]));
  }
  for (std::thread& t : threads) t.join();
  block.end_ns = deadline;
  for (LaneResult& r : results) {
    block.rounds += r.rounds;
    block.failed += r.failed;
    block.unverified += r.unverified;
    block.latency_ns.insert(block.latency_ns.end(), r.latency_ns.begin(),
                            r.latency_ns.end());
    block.spans.insert(block.spans.end(), r.spans.begin(), r.spans.end());
  }
  return block;
}

// -- correctness gate ----------------------------------------------------------

struct GateResult {
  u64 rounds = 0;
  u64 failed = 0;           ///< terminal outcome outside the expected set
  u64 misses = 0;           ///< gate violations (any is fatal)
  u64 faulted = 0;
  u64 exact_oracle = 0;     ///< clean Accepts replaying the oracle exactly
  u64 attribution_equivalent = 0;  ///< RAP silent-rejoin parses (see README)
  u64 digest_checks = 0;
  // Deterministic per-round sums.
  u64 cflog_bytes = 0;
  u64 world_switches = 0;
  u64 submissions = 0;
  u64 datagrams = 0;
  u64 retransmits = 0;
  u64 repair_rounds = 0;
  u64 backtracks = 0;
  u64 replay_steps = 0;
};

void gate_miss(GateResult& g, const Device& device, u64 round, const char* what) {
  ++g.misses;
  std::fprintf(stderr, "gate: %s round %llu: %s\n", device.image->label.c_str(),
               static_cast<unsigned long long>(round), what);
}

verify::VerificationResult serial_verify(const Image& image,
                                         const cfa::Challenge& chal,
                                         const std::vector<cfa::SignedReport>& chain,
                                         bool memo) {
  verify::Verifier verifier(apps::demo_key());
  verifier.expect(image.deployment);
  verifier.set_expected_watermark(image.config.expected_watermark);
  verifier.set_memo(memo);
  verifier.set_frontier(memo);
  verifier.adopt_challenge(chal);
  return verifier.verify(chal, chain);
}

/// RAP taken-edge logging cannot attribute a slot packet to one dynamic
/// instance when an if/else's arms silently rejoin. Such a parse is accepted
/// only if it carries no findings and the oracle path is itself a parse of
/// the same evidence (the rule tests/lossless_helpers.hpp applies).
bool oracle_is_a_parse(const Image& image, const verify::VerificationResult& result,
                       const std::vector<trace::OracleEvent>& oracle) {
  if (image.method != Method::Rap || !result.replay.findings.empty()) return false;
  const verify::Deployment& d = *image.deployment;
  verify::PathReplayer checker(d.program(), d.entry(), verify::ReplayMode::Rap);
  checker.set_rap_manifest(d.rap_manifest());
  return checker.check_path(oracle, result.inputs).complete;
}

/// Prove `round`'s inputs for `device` again, prover only, in the timed
/// configuration (oracle off), with the same device fault armed.
cfa::AttestationRun prove_again(const Fleet& fleet, const Device& device,
                                u64 round, const cfa::Challenge& chal) {
  const Image& image = *device.image;
  const RoundInputs in = round_inputs(fleet, device, round);
  sim::MachineConfig config = image.machine;
  config.enable_oracle = false;
  sim::Machine machine(config);
  const auto periph = image.prepared->built.app->setup(machine, in.stimulus);
  fault::FaultPlan plan(in.fault_seed);
  bool fired = false;
  cfa::SessionOptions session = image.session;
  if (in.fault.has_value()) arm_device_fault(*in.fault, plan, fired, session);
  return attest(image, machine, chal, session);
}

GateResult run_gate(Fleet& fleet) {
  GateResult g;
  Lane& lane = fleet.lanes.front();
  for (Device& device : fleet.devices) {
    const Image& image = *device.image;
    // The inputs of the device's first timed rounds, under fresh session ids.
    const u64 first = fleet.warm_rounds;
    for (u64 round = first; round < first + fleet.spec.gate_rounds; ++round) {
      const obs::Snapshot before = obs::registry().scrape();
      RoundOutcome o = run_round(fleet, lane, device, round, true, true);
      const obs::Snapshot after = obs::registry().scrape();
      ++g.rounds;
      if (!o.ok) {
        ++g.failed;
        report_failure(device, round, o);
        gate_miss(g, device, round, "terminal outcome outside the expected set");
      }
      if (o.submissions < 1) gate_miss(g, device, round, "no farm submission");
      const std::vector<u8> wire = cfa::encode_report_chain(o.run.reports);
      const auto delta = [&](const char* name) {
        return after.value(name) - before.value(name);
      };
      g.cflog_bytes += delta("trace.cflog_bytes");
      g.world_switches += delta("tz.world_switches");
      g.submissions += delta("net.submissions");
      g.datagrams += delta("net.datagrams_sent");
      g.retransmits += delta("net.retransmits_timeout") + delta("net.retransmits_nack");
      g.repair_rounds += delta("net.repair_rounds");

      const verify::VerificationResult off =
          serial_verify(image, o.chal, o.run.reports, false);
      g.backtracks += off.replay.backtracks;
      g.replay_steps += off.replay.steps;
      if (o.faulted) {
        ++g.faulted;
        if (off.verdict == Verdict::Accept) {
          gate_miss(g, device, round,
                    off.replay.events == o.oracle
                        ? "faulted chain accepted by serial verifier"
                        : "faulted chain accepted by serial verifier, with a "
                          "path that differs from the oracle");
        }
      } else {
        if (!o.functional_ok) gate_miss(g, device, round, "golden-model check failed");
        if (off.verdict != Verdict::Accept) {
          gate_miss(g, device, round, "clean chain not accepted by serial verifier");
        } else if (off.replay.events == o.oracle) {
          ++g.exact_oracle;
        } else if (oracle_is_a_parse(image, off, o.oracle)) {
          ++g.attribution_equivalent;
        } else {
          gate_miss(g, device, round, "accepted path differs from the oracle");
        }
      }
      if (round == first) {
        // Sampled differentials: memo on vs off, and oracle off vs on.
        ++g.digest_checks;
        const verify::VerificationResult on =
            serial_verify(image, o.chal, o.run.reports, true);
        if (verify::verification_digest(on) != verify::verification_digest(off)) {
          gate_miss(g, device, round, "memo-on digest differs from memo-off");
        }
        const cfa::AttestationRun quiet = prove_again(fleet, device, round, o.chal);
        if (cfa::encode_report_chain(quiet.reports) != wire) {
          gate_miss(g, device, round, "oracle changed the evidence");
        }
      }
    }
  }
  return g;
}

/// Deterministic per-round counts over a fixed round set, proven with the
/// timed configuration (oracle off) but not verified: every device's first
/// census_rounds timed rounds (the same inputs the timed phase draws), or,
/// with a stimulus pool, the warm-up rounds, which prove every (image,
/// stimulus) pair exactly once. Spreading the sample over many rounds keeps
/// the mean steady across seeds even for apps whose run length swings with
/// the stimulus (fibcall).
struct Census {
  u64 rounds = 0;
  u64 device_cycles = 0;
  u64 evidence_bytes = 0;
};

Census run_census(const Fleet& fleet) {
  Census c;
  for (const Device& device : fleet.devices) {
    const bool pool = !fleet.stimulus_pool.empty();
    const u64 first = pool ? 0 : fleet.warm_rounds;
    const u64 count = pool ? fleet.warm_rounds : fleet.spec.census_rounds;
    for (u64 round = first; round < first + count; ++round) {
      const cfa::AttestationRun run = prove_again(fleet, device, round, {});
      const cfa::RunMetrics& m = run.metrics;
      ++c.rounds;
      c.device_cycles += m.exec_cycles + m.attest_setup_cycles + m.pause_cycles +
                         m.final_report_cycles;
      c.evidence_bytes += cfa::encode_report_chain(run.reports).size();
    }
  }
  return c;
}

// -- reporting -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Nearest-rank percentile of sorted latencies, in microseconds.
double percentile_us(const std::vector<u32>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)] / 1e3;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// Nearest-rank latency percentiles over every round of a block, printed
/// as a `latency:` line; returns {p50, p95}.
///
/// p95, not p99, is the reported tail: pinned to one CPU, the rounds beyond
/// p99 are mostly the ones a hypervisor steal burst landed on, and p99
/// spread 18-47% across seeds where p95 spread 7%.
std::pair<double, double> p50_p95_us(const Block& block) {
  std::vector<u32> all = block.latency_ns;
  std::sort(all.begin(), all.end());
  std::printf("latency: samples=%zu", all.size());
  for (const double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    std::printf(" p%g=%.1fus", q * 100, percentile_us(all, q));
  }
  std::printf("\n");
  return {percentile_us(all, 0.50), percentile_us(all, 0.95)};
}

std::string loadavg() {
  std::ifstream in("/proc/loadavg");
  std::string a, b, c;
  in >> a >> b >> c;
  return a + " " + b + " " + c;
}

/// Aggregate CPU jiffies {steal, total} from /proc/stat. On a virtual
/// machine, steal is time the hypervisor gave this machine's CPUs to other
/// guests: the host noise the timed metrics cannot control.
std::pair<u64, u64> cpu_steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  u64 total = 0, steal = 0;
  for (int i = 0; i < 8; ++i) {
    u64 v = 0;
    in >> v;
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

verify::MemoStats memo_totals(const Fleet& fleet) {
  verify::MemoStats total;
  for (const auto& d : fleet.farm->deployments()) {
    const verify::MemoStats s = d->memo().stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.frontier_hits += s.frontier_hits;
    total.frontier_misses += s.frontier_misses;
  }
  return total;
}

/// Counter and histogram state at a block boundary (traced blocks fold the
/// deltas into the per-layer metrics).
struct Counters {
  u64 instructions = 0;
  u64 fused = 0;
  u64 mailbox_count = 0;
  u64 mailbox_sum = 0;
  verify::MemoStats memo;
};

Counters read_counters(const Fleet& fleet) {
  const obs::Snapshot s = obs::registry().scrape();
  Counters c;
  c.instructions = s.value("sim.instructions");
  c.fused = s.value("sim.fused_dispatches");
  if (const obs::Sample* h = s.find("farm.mailbox_wait_us")) {
    c.mailbox_count = h->count;
    c.mailbox_sum = h->sum;
  }
  c.memo = memo_totals(fleet);
  return c;
}

/// Pin the process (and every thread it creates later: lanes and farm
/// workers inherit the mask) to the highest CPU it may run on. Returns the
/// CPU, or -1 when the mask cannot be read or set.
///
/// On a virtual machine a thread that blocks halts its virtual CPU, and
/// waking a thread on a halted CPU waits for the hypervisor to reschedule
/// it. Every round blocks twice (the endpoint waits on the farm's future,
/// the worker on its queue), so unpinned runs mostly measured those
/// wake-ups: on a 4-CPU guest, round throughput halved and p99 quadrupled
/// whenever neighbours were busy, and the hypervisor's steal rose tenfold.
/// On one CPU a handoff is a plain context switch, and the rounds measure
/// the program's own work.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
  }
  return -1;
}

/// One cold setup, timed in a forked child: it builds the fleet (warm-up
/// rounds included), sends the elapsed seconds back through a pipe and
/// exits without tearing the fleet down. Returns -1 if the child failed.
///
/// Call it only while the process has a single thread. Building every
/// sample's fleet in this process instead would leave each discarded
/// fleet's warm-up spans in the program's global span vector for the rest
/// of the run, and later samples would reuse the heap freed by earlier ones.
double child_setup_s(const WorkloadSpec& spec, u64 seed) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return -1;
  }
  if (pid == 0) {
    close(fds[0]);
    const u64 t0 = now_ns();
    const std::unique_ptr<Fleet> fleet = build_fleet(spec, seed);
    const double s = static_cast<double>(now_ns() - t0) / 1e9;
    const bool sent = write(fds[1], &s, sizeof s) == static_cast<ssize_t>(sizeof s);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double s = -1;
  const bool got = read(fds[0], &s, sizeof s) == static_cast<ssize_t>(sizeof s);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return got && WIFEXITED(status) && WEXITSTATUS(status) == 0 ? s : -1;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload corpus_fresh|corpus_repeat|lossy_partial|"
               "leafamb_search --seed N --seconds S --trace 0|1 [--commit ID]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, commit = "unknown";
  u64 seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") workload = value;
    else if (key == "--seed") seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") seconds = std::strtod(value, nullptr);
    else if (key == "--trace") trace = std::atoi(value);
    else if (key == "--commit") commit = value;
    else return usage(argv[0]);
  }
  const WorkloadSpec spec = workload_spec(workload);
  if (argc % 2 != 1 || spec.name.empty() || seconds <= 0.0 ||
      (trace != 0 && trace != 1)) {
    return usage(argv[0]);
  }
  const bool traced_run = trace == 1;
  const int setup_reps = traced_run ? 1 : kSetupReps;  // setup_s is untraced
  const std::string load_start = loadavg();
  const int cpu = pin_to_one_cpu();

  // 1. Setup: the extra samples in child processes, then the fleet that runs.
  // This process's sample is its start-up plus its own build; the children's
  // time in between is not part of it.
  const u64 startup_ns = now_ns() - g_process_start_ns;
  std::vector<double> setup_s;
  for (int rep = 1; rep < setup_reps; ++rep) {
    const double s = child_setup_s(spec, seed);
    if (s < 0) {
      std::fprintf(stderr, "error: setup in a child process failed\n");
      return 1;
    }
    setup_s.push_back(s);
  }
  const u64 build_start_ns = now_ns();
  const std::unique_ptr<Fleet> fleet = build_fleet(spec, seed);
  setup_s.push_back(static_cast<double>(startup_ns + now_ns() - build_start_ns) / 1e9);

  // 2. Timed phase.
  std::vector<Block> blocks;
  RssProbe rss;
  rss.threshold = spec.rss_rounds;
  std::vector<Counters> marks;
  const u64 spans_before_ns = now_ns();
  const auto steal_start = cpu_steal_jiffies();
  if (!traced_run) {
    blocks.push_back(run_block(*fleet, seconds, false, &rss, 0));
  } else {
    const bool pattern[] = {false, true, true, false};
    for (size_t i = 0; i < 4; ++i) {
      marks.push_back(read_counters(*fleet));
      blocks.push_back(run_block(*fleet, seconds / 4, pattern[i], nullptr,
                                 u64{i} << 48));
    }
    marks.push_back(read_counters(*fleet));
  }
  const auto steal_end = cpu_steal_jiffies();
  const double steal_frac =
      ratio(static_cast<double>(steal_end.first - steal_start.first),
            static_cast<double>(steal_end.second - steal_start.second));
  u64 attempted = 0, failed = 0, unverified = 0;
  for (const Block& b : blocks) {
    attempted += b.rounds;
    failed += b.failed;
    unverified += b.unverified;
  }

  // 3. Correctness gate.
  const GateResult gate = run_gate(*fleet);
  attempted += gate.rounds;
  failed += gate.failed;
  const Census census = run_census(*fleet);
  const double census_rounds = static_cast<double>(std::max<u64>(1, census.rounds));
  const double gate_rounds = static_cast<double>(std::max<u64>(1, gate.rounds));
  const auto per_gate_round = [&](u64 v) { return static_cast<double>(v) / gate_rounds; };

  std::vector<Metric> metrics;
  u64 samples = 0;
  if (!traced_run) {
    const Block& b = blocks.front();
    samples = b.latency_ns.size();
    const auto [p50, p95] = p50_p95_us(b);
    metrics = {
        {"rounds_per_s", b.rounds_per_s(), "1/s"},
        {"round_p50_us", p50, "us"},
        {"round_p95_us", p95, "us"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", static_cast<double>(rss.vm_hwm_kb.load()) / 1024.0, "MB"},
        {"device_cycles_per_round",
         static_cast<double>(census.device_cycles) / census_rounds, "cycles"},
        {"evidence_bytes_per_round",
         static_cast<double>(census.evidence_bytes) / census_rounds, "bytes"},
    };
  } else {
    // Traced blocks: bench-own spans and the program's own spans/counters.
    std::vector<std::pair<u64, u64>> traced_windows, timed_windows;
    double traced_rps = 0, untraced_rps = 0;
    u64 traced_rounds = 0;
    double stage_ns[kStages] = {};
    Counters delta;
    for (size_t i = 0; i < blocks.size(); ++i) {
      const Block& b = blocks[i];
      samples += b.rounds;
      timed_windows.push_back({b.start_ns, b.end_ns});
      if (!b.traced) {
        untraced_rps += b.rounds_per_s() / 2;
        continue;
      }
      traced_rps += b.rounds_per_s() / 2;
      traced_rounds += b.rounds;
      traced_windows.push_back({b.start_ns, b.end_ns});
      for (const BenchSpan& s : b.spans) stage_ns[s.stage] += static_cast<double>(s.end - s.start);
      const Counters& lo = marks[i];
      const Counters& hi = marks[i + 1];
      delta.instructions += hi.instructions - lo.instructions;
      delta.fused += hi.fused - lo.fused;
      delta.mailbox_count += hi.mailbox_count - lo.mailbox_count;
      delta.mailbox_sum += hi.mailbox_sum - lo.mailbox_sum;
      delta.memo.hits += hi.memo.hits - lo.memo.hits;
      delta.memo.misses += hi.memo.misses - lo.memo.misses;
      delta.memo.frontier_hits += hi.memo.frontier_hits - lo.memo.frontier_hits;
      delta.memo.frontier_misses += hi.memo.frontier_misses - lo.memo.frontier_misses;
    }
    const auto in_windows = [](const std::vector<std::pair<u64, u64>>& w, u64 t) {
      for (const auto& [a, b] : w) {
        if (t >= a && t < b) return true;
      }
      return false;
    };
    // Program spans carry their own session ids, not the round id, so they
    // are aggregated per run over the traced blocks' time windows.
    std::map<std::string, double> program_ns;  // "<session kind>/<span>"
    double verify_chain_ns = 0;
    u64 program_spans = 0;
    for (const obs::SpanRecord& r : obs::tracer().records()) {
      if (r.start < spans_before_ns) continue;
      if (in_windows(timed_windows, r.start)) ++program_spans;
      if (!in_windows(traced_windows, r.start)) continue;
      const std::string kind = r.session_kind.rfind("attest.", 0) == 0
                                   ? "attest" : r.session_kind;
      program_ns[kind + "/" + r.name] += static_cast<double>(r.end - r.start);
      if (kind == "verify_chain" && r.depth == 0) {
        verify_chain_ns += static_cast<double>(r.end - r.start);
      }
    }
    const double rounds = static_cast<double>(std::max<u64>(1, traced_rounds));
    const auto us_per_round = [&](double ns) { return ns / 1e3 / rounds; };
    const double roundtrip_ns = program_ns["net_delivery/farm_roundtrip"];
    const double top_level_ns = stage_ns[kChallenge] + stage_ns[kMachine] +
                                stage_ns[kAttest] + stage_ns[kSession];
    const auto rate = [](u64 hits, u64 misses) {
      return ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
    };
    metrics = {
        {"apps.prepare_ms", fleet->prepare_ms_per_program, "ms"},
        {"sim.machine_us", us_per_round(stage_ns[kMachine]), "us"},
        {"sim.mips", ratio(static_cast<double>(delta.instructions),
                           stage_ns[kAttest] / 1e3), "MIPS"},
        {"sim.fused_frac", ratio(static_cast<double>(delta.fused),
                                 static_cast<double>(delta.instructions)), "frac"},
        {"cfa.attest_us", us_per_round(stage_ns[kAttest]), "us"},
        {"cfa.app_run_us", us_per_round(program_ns["attest/app_run"]), "us"},
        {"cfa.h_mem_us", us_per_round(program_ns["attest/h_mem"]), "us"},
        {"cfa.log_drain_us", us_per_round(program_ns["attest/log_drain"]), "us"},
        {"cfa.sign_us", us_per_round(program_ns["attest/sign_final"]), "us"},
        {"trace.cflog_bytes_per_round", per_gate_round(gate.cflog_bytes), "bytes"},
        {"tz.world_switches_per_round", per_gate_round(gate.world_switches), "count"},
        {"net.session_us", us_per_round(stage_ns[kSession]), "us"},
        {"net.self_us", us_per_round(stage_ns[kSession] - roundtrip_ns), "us"},
        {"net.submissions_per_round", per_gate_round(gate.submissions), "count"},
        {"net.datagrams_per_round", per_gate_round(gate.datagrams), "count"},
        {"net.retransmits_per_round", per_gate_round(gate.retransmits), "count"},
        {"net.repair_rounds_per_round", per_gate_round(gate.repair_rounds), "count"},
        {"verify.replay_us", us_per_round(program_ns["verify_chain/replay"]), "us"},
        {"verify.mac_check_us", us_per_round(program_ns["verify_chain/mac_check"]), "us"},
        {"verify.decode_us", us_per_round(program_ns["verify_chain/decode"]), "us"},
        {"verify.handoff_us", us_per_round(roundtrip_ns - verify_chain_ns), "us"},
        {"verify.memo_hit_rate",
         rate(delta.memo.hits + delta.memo.frontier_hits,
              delta.memo.misses + delta.memo.frontier_misses), "frac"},
        {"verify.segment_hit_rate", rate(delta.memo.hits, delta.memo.misses), "frac"},
        {"verify.frontier_hit_rate",
         rate(delta.memo.frontier_hits, delta.memo.frontier_misses), "frac"},
        {"verify.backtracks_per_round", per_gate_round(gate.backtracks), "count"},
        {"verify.replay_steps_per_round", per_gate_round(gate.replay_steps), "count"},
        {"farm.mailbox_wait_us", ratio(static_cast<double>(delta.mailbox_sum),
                                       static_cast<double>(delta.mailbox_count)), "us"},
        {"farm.queue_depth_hwm",
         static_cast<double>(obs::registry().scrape().value("farm.queue_depth_hwm")),
         "count"},
        {"obs.spans_per_round",
         ratio(static_cast<double>(program_spans), static_cast<double>(samples)), "count"},
        {"obs.trace_overhead_frac", 1.0 - ratio(traced_rps, untraced_rps), "frac"},
        {"round.unattributed_us", us_per_round(stage_ns[kRound] - top_level_ns), "us"},
    };
  }

  const bool gate_ok = gate.misses == 0;
  const bool guard_ok = unverified == 0;
  const bool correct = gate_ok && guard_ok && failed == 0;

  // Host facts, then a readable table, then the result line.
  std::printf(
      "host: {\"nproc\": %ld, \"load_start\": \"%s\", \"load_end\": \"%s\", "
      "\"pinned_cpu\": %d, \"cpu_steal_frac\": %.4f, "
      "\"build_type\": \"%s\", \"lto\": %s, \"rap_obs\": %s, \"rap_memo\": %s, "
      "\"compiler\": \"%s\", \"commit\": %s, \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %s, \"trace\": %d, \"lanes\": %zu, "
      "\"workers\": %zu, \"devices\": %zu, \"images\": %zu, "
      "\"timed_rounds\": %llu, \"latency_samples\": %llu, "
      "\"gate_rounds\": %llu, "
      "\"census_rounds\": %llu, \"setup_reps\": %d, \"rss_rounds\": %llu}\n",
      sysconf(_SC_NPROCESSORS_ONLN), load_start.c_str(), loadavg().c_str(), cpu, steal_frac,
      PERFBENCH_BUILD_TYPE, PERFBENCH_LTO ? "true" : "false",
      RAP_OBS_ENABLED ? "true" : "false", RAP_MEMO_ENABLED ? "true" : "false",
      PERFBENCH_COMPILER, json_string(commit).c_str(), spec.name.c_str(),
      static_cast<unsigned long long>(seed), json_number(seconds).c_str(), trace,
      fleet->lanes.size(), fleet->farm->worker_count(), fleet->devices.size(),
      fleet->images.size(),
      static_cast<unsigned long long>(attempted - gate.rounds),
      static_cast<unsigned long long>(samples),
      static_cast<unsigned long long>(gate.rounds),
      static_cast<unsigned long long>(census.rounds), setup_reps,
      static_cast<unsigned long long>(spec.rss_rounds));
  std::printf("setup:");
  for (const double s : setup_s) std::printf(" %.4fs", s);
  std::printf("\n");
  std::printf(
      "gate: rounds=%llu failed=%llu misses=%llu faulted=%llu exact_oracle=%llu "
      "attribution_equivalent=%llu digest_checks=%llu unverified_rounds=%llu "
      "failed_frac=%s\n",
      static_cast<unsigned long long>(gate.rounds),
      static_cast<unsigned long long>(gate.failed),
      static_cast<unsigned long long>(gate.misses),
      static_cast<unsigned long long>(gate.faulted),
      static_cast<unsigned long long>(gate.exact_oracle),
      static_cast<unsigned long long>(gate.attribution_equivalent),
      static_cast<unsigned long long>(gate.digest_checks),
      static_cast<unsigned long long>(unverified),
      json_number(ratio(static_cast<double>(failed),
                        static_cast<double>(attempted))).c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) line += ", ";
    line += json_string(metrics[i].name) + ": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": " +
            json_string(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  if (!gate_ok) std::fprintf(stderr, "error: correctness gate failed\n");
  if (!guard_ok) {
    std::fprintf(stderr, "error: %llu timed rounds were never verified\n",
                 static_cast<unsigned long long>(unverified));
  }
  return correct ? 0 : 1;
}
