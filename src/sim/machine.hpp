// Top-level simulated device: memory map, bus, core, MTB, DWT, Secure-World
// monitor, and an optional ground-truth oracle tracer — the V2M-MPS2+/AN505
// equivalent everything else plugs into.
#pragma once

#include <memory>

#include "asm/program.hpp"
#include "cpu/executor.hpp"
#include "mem/bus.hpp"
#include "mem/memory_map.hpp"
#include "trace/trace_fabric.hpp"
#include "tz/secure_monitor.hpp"

namespace raptrack::sim {

struct MachineConfig {
  u32 mtb_buffer_bytes = 4096;  ///< the paper's MTB has a 4KB limit (§V-B)
  u32 mtb_activation_latency = 2;
  isa::CycleModel cycle_model{};
  tz::CostModel cost_model{};
  bool enable_oracle = true;
  /// Build the predecoded fast-path instruction cache when a session calls
  /// predecode() (normally at H_MEM time, after the NS-MPU lock). Off =
  /// every run takes the decode-per-step oracle path.
  bool fast_path = true;
};

class Machine {
 public:
  explicit Machine(MachineConfig config = {});
  ~Machine();

  mem::MemoryMap& memory() { return memory_; }
  mem::Bus& bus() { return bus_; }
  cpu::Executor& cpu() { return cpu_; }
  trace::Mtb& mtb() { return mtb_; }
  trace::Dwt& dwt() { return dwt_; }
  tz::SecureMonitor& monitor() { return monitor_; }
  const tz::SecureMonitor& monitor() const { return monitor_; }
  trace::OracleTracer& oracle() { return oracle_; }
  const MachineConfig& config() const { return config_; }

  /// Map the MTB and DWT register banks as Secure MMIO (MTB at
  /// 0xf020'0000 as on the AN505 image, DWT at 0xe000'1000 as in the
  /// ARMv8-M system address map). Only the Secure World can touch them —
  /// the §IV-F argument that Adv cannot deactivate or misconfigure tracing.
  void map_trace_registers();

  /// Load a program image into (simulated) flash.
  void load_program(const Program& program);

  /// Reset the core to `entry` with the stack at the top of NS RAM.
  void reset_cpu(Address entry);

  /// Predecode [base, base+size) into the fast-path instruction cache and
  /// arm write-invalidation over the range (any store into it — bus-level
  /// or injector-level — drops the affected lines, so fault-injection
  /// semantics stay bit-identical). Provers call this at H_MEM time, right
  /// after the NS-MPU locks APP memory. No-op when config.fast_path is off.
  void predecode(Address base, u32 size);

  /// Drop the predecode cache and its write watch.
  void drop_predecode();
  const isa::DecodedImage* decoded_image() const { return decoded_.get(); }

  /// Run the loaded application to completion (through the fast path when a
  /// predecoded image is attached, the decode-per-step oracle otherwise).
  /// Flushes the run's execution counters (instructions, fast vs oracle
  /// dispatches, decode-cache invalidations) into the obs registry.
  cpu::HaltReason run(u64 max_instructions = 200'000'000);

 private:
  /// Publish counter deltas since the previous flush. Deltas, not totals:
  /// a machine may run several times per session and the registry counters
  /// are global monotonic accumulators.
  void flush_run_metrics();
  MachineConfig config_;
  mem::MemoryMap memory_;
  mem::Bus bus_;
  cpu::Executor cpu_;
  trace::Mtb mtb_;
  trace::Dwt dwt_;
  trace::TraceFabric fabric_;
  trace::OracleTracer oracle_;
  tz::SecureMonitor monitor_;
  std::unique_ptr<isa::DecodedImage> decoded_;
  int predecode_watch_ = -1;
  // High-water marks of what flush_run_metrics() already published.
  u64 flushed_instructions_ = 0;
  u64 flushed_oracle_ = 0;
  u64 flushed_fused_ = 0;
  u64 flushed_invalidations_ = 0;  ///< against the *current* decoded_ image
};

}  // namespace raptrack::sim
