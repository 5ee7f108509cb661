#include "sim/machine.hpp"

#include "obs/metrics.hpp"

namespace raptrack::sim {

namespace {

mem::MemoryMap make_machine_map(const MachineConfig& config) {
  mem::MemoryMap map = mem::MemoryMap::make_default();
  // The modeled device's MTB SRAM is 16KB (§V-B), but volume benches
  // configure much larger buffers; size the region to the configured
  // buffer so packet writes can never run off the mapped range. Backing
  // pages are lazily mapped, so an oversized region costs nothing until
  // the log actually grows into it.
  if (config.mtb_buffer_bytes > mem::MapLayout::kMtbSramSize) {
    mem::Region* region = map.find(mem::MapLayout::kMtbSramBase);
    region->size = config.mtb_buffer_bytes;
    region->backing = mem::Backing(config.mtb_buffer_bytes);
  }
  return map;
}

}  // namespace

Machine::Machine(MachineConfig config)
    : config_(config),
      memory_(make_machine_map(config)),
      bus_(memory_),
      cpu_(bus_, config.cycle_model),
      mtb_(memory_, mem::MapLayout::kMtbSramBase, config.mtb_buffer_bytes),
      dwt_(mtb_),
      fabric_(dwt_, mtb_),
      monitor_(config.cost_model) {
  mtb_.set_activation_latency(config.mtb_activation_latency);
  cpu_.add_sink(&fabric_);
  if (config.enable_oracle) cpu_.add_sink(&oracle_);
  cpu_.set_svc_handler(
      [this](u8 code, cpu::CpuState& state) { return monitor_.handle(code, state); });
}

void Machine::map_trace_registers() {
  mem::MmioHandler mtb_regs;
  mtb_regs.read = [this](Address offset, u32) { return mtb_.read_register(offset); };
  mtb_regs.write = [this](Address offset, u32 value, u32) {
    mtb_.write_register(offset, value);
  };
  memory_.add_mmio("mtb-regs", 0xf020'0000, 0x1000, mem::Security::Secure,
                   std::move(mtb_regs));

  mem::MmioHandler dwt_regs;
  dwt_regs.read = [this](Address offset, u32) { return dwt_.read_register(offset); };
  dwt_regs.write = [this](Address offset, u32 value, u32) {
    dwt_.write_register(offset, value);
  };
  memory_.add_mmio("dwt-regs", 0xe000'1000, 0x1000, mem::Security::Secure,
                   std::move(dwt_regs));
}

Machine::~Machine() { drop_predecode(); }

void Machine::load_program(const Program& program) {
  memory_.load(program.base(), program.bytes());
}

void Machine::reset_cpu(Address entry) {
  cpu_.reset(entry, mem::MapLayout::kNsRamBase + mem::MapLayout::kNsRamSize);
  // The executor's retirement counters restart from zero with it.
  flushed_instructions_ = 0;
  flushed_oracle_ = 0;
  flushed_fused_ = 0;
}

void Machine::predecode(Address base, u32 size) {
  if (!config_.fast_path || size < 4) return;
  drop_predecode();
  if constexpr (obs::kEnabled) {
    static obs::Counter builds = obs::registry().counter("sim.predecode_builds");
    builds.inc();
  }
  const auto bytes = memory_.dump(base, size);
  decoded_ = std::make_unique<isa::DecodedImage>(base, bytes, config_.cycle_model);
  isa::DecodedImage* image = decoded_.get();
  predecode_watch_ = bus_.watch_writes(
      base, size,
      [image](Address addr, u32 bytes_written) {
        image->invalidate(addr, bytes_written);
      });
  cpu_.attach_decoded_image(image);
}

void Machine::drop_predecode() {
  if (!decoded_) return;
  if constexpr (obs::kEnabled) flush_run_metrics();  // last invalidation delta
  flushed_invalidations_ = 0;
  cpu_.detach_decoded_image();
  bus_.unwatch_writes(predecode_watch_);
  predecode_watch_ = -1;
  decoded_.reset();
}

cpu::HaltReason Machine::run(u64 max_instructions) {
  const cpu::HaltReason reason = cpu_.run_fast(max_instructions);
  if constexpr (obs::kEnabled) flush_run_metrics();
  return reason;
}

void Machine::flush_run_metrics() {
  struct Counters {
    obs::Counter instructions = obs::registry().counter("sim.instructions");
    obs::Counter fast = obs::registry().counter("sim.fast_dispatches");
    obs::Counter oracle = obs::registry().counter("sim.oracle_dispatches");
    obs::Counter fused = obs::registry().counter("sim.fused_dispatches");
    obs::Counter invalidations =
        obs::registry().counter("sim.decode_cache_invalidations");
  };
  static Counters counters;  // one registration, process-wide metrics

  const u64 instructions = cpu_.instructions_retired();
  const u64 oracle = cpu_.oracle_dispatches();
  const u64 fused = cpu_.fused_dispatches();
  counters.instructions.inc(instructions - flushed_instructions_);
  counters.oracle.inc(oracle - flushed_oracle_);
  counters.fast.inc((instructions - oracle) -
                    (flushed_instructions_ - flushed_oracle_));
  counters.fused.inc(fused - flushed_fused_);
  flushed_instructions_ = instructions;
  flushed_oracle_ = oracle;
  flushed_fused_ = fused;
  if (decoded_) {
    const u64 invalidations = decoded_->invalidations();
    counters.invalidations.inc(invalidations - flushed_invalidations_);
    flushed_invalidations_ = invalidations;
  }
}

}  // namespace raptrack::sim
