#include "verify/deployment.hpp"

#include <algorithm>
#include <utility>

#include "crypto/sha256.hpp"

namespace raptrack::verify {

ReplayIndex::ReplayIndex(const Program& program, ReplayMode mode,
                         const rewrite::Manifest* rap,
                         const instr::TracesManifest* traces)
    : program_(&program), decoded_(program.base(), program.bytes()) {
  // Per-slot tables, so the replay hot loop never re-derives them: the
  // static successor of every direct / direct-call / conditional branch,
  // each slot's branch kind, and (filled back to front) the length of the
  // straight-line run headed at each slot.
  info_.assign(decoded_.slot_count(), {});
  for (size_t i = info_.size(); i-- > 0;) {
    const Address pc = decoded_.base() + static_cast<Address>(i * 4);
    const auto& slot = decoded_.slot(pc);
    if (slot.kind != isa::SlotKind::Valid) continue;
    SlotInfo& info = info_[i];
    info.kind = isa::branch_kind(slot.instr);
    switch (info.kind) {
      case isa::BranchKind::Direct:
      case isa::BranchKind::DirectCall:
      case isa::BranchKind::Conditional:
        info.target = isa::branch_target(slot.instr, pc);
        break;
      case isa::BranchKind::None:
        if (slot.instr.op != isa::Op::SVC) {
          info.run = 1 + (i + 1 < info_.size() ? info_[i + 1].run : 0);
        }
        break;
      default:
        break;
    }
  }

  if (mode == ReplayMode::Rap && rap != nullptr) {
    has_mtbar_ = true;
    mtbar_base_ = rap->mtbar_base;
    mtbar_limit_ = rap->mtbar_limit;
    slots_by_base_.reserve(rap->slots.size());
    site_slots_.assign(decoded_.slot_count(), nullptr);
    for (const auto& slot : rap->slots) {
      slots_by_base_.push_back(&slot);
      // Keep the first record per site — the linear first-match semantics
      // of Manifest::slot_for_site. A site outside the image is never a
      // replayed pc, so it needs no entry.
      if (decoded_.contains(slot.site) && slot.site % 4 == 0) {
        auto& entry = site_slots_[(slot.site - decoded_.base()) >> 2];
        if (entry == nullptr) entry = &slot;
      }
    }
    std::sort(slots_by_base_.begin(), slots_by_base_.end(),
              [](const rewrite::SlotRecord* a, const rewrite::SlotRecord* b) {
                return a->slot_base < b->slot_base;
              });
    rap_svc_.reserve(rap->loop_veneers.size());
    for (const auto& veneer : rap->loop_veneers) {
      rap_svc_.emplace(veneer.svc_addr, &veneer);
    }
  }

  if (mode == ReplayMode::Traces && traces != nullptr) {
    veneers_by_base_.reserve(traces->veneers.size());
    traces_svc_.reserve(traces->veneers.size());
    for (const auto& veneer : traces->veneers) {
      veneers_by_base_.push_back(&veneer);
      traces_svc_.emplace(veneer.svc_addr, &veneer);
    }
    std::sort(veneers_by_base_.begin(), veneers_by_base_.end(),
              [](const instr::VeneerRecord* a, const instr::VeneerRecord* b) {
                return a->veneer_base < b->veneer_base;
              });
  }
}

const rewrite::SlotRecord* ReplayIndex::slot_containing(Address addr) const {
  // Last slot whose base is <= addr (slots are disjoint), then bounds-check.
  auto it = std::upper_bound(
      slots_by_base_.begin(), slots_by_base_.end(), addr,
      [](Address a, const rewrite::SlotRecord* s) { return a < s->slot_base; });
  if (it == slots_by_base_.begin()) return nullptr;
  const rewrite::SlotRecord* slot = *(it - 1);
  return addr < slot->slot_end ? slot : nullptr;
}

const rewrite::LoopVeneerRecord* ReplayIndex::rap_veneer_at_svc(
    Address svc_addr) const {
  const auto it = rap_svc_.find(svc_addr);
  return it != rap_svc_.end() ? it->second : nullptr;
}

const instr::VeneerRecord* ReplayIndex::traces_veneer_containing(
    Address addr) const {
  auto it = std::upper_bound(veneers_by_base_.begin(), veneers_by_base_.end(),
                             addr,
                             [](Address a, const instr::VeneerRecord* v) {
                               return a < v->veneer_base;
                             });
  if (it == veneers_by_base_.begin()) return nullptr;
  const instr::VeneerRecord* veneer = *(it - 1);
  return addr < veneer->veneer_end ? veneer : nullptr;
}

const instr::VeneerRecord* ReplayIndex::traces_veneer_at_svc(
    Address svc_addr) const {
  const auto it = traces_svc_.find(svc_addr);
  return it != traces_svc_.end() ? it->second : nullptr;
}

Deployment::Deployment(ReplayMode mode, Program program,
                       std::optional<rewrite::Manifest> rap,
                       std::optional<instr::TracesManifest> traces,
                       Address entry, MemoOptions memo)
    : mode_(mode),
      program_(std::move(program)),
      rap_(std::move(rap)),
      traces_(std::move(traces)),
      entry_(entry),
      h_mem_(crypto::Sha256::hash(program_.bytes())),
      memo_(std::make_unique<MemoCache>(memo)),
      index_(program_, mode_, rap_ ? &*rap_ : nullptr,
             traces_ ? &*traces_ : nullptr) {}

std::shared_ptr<const Deployment> Deployment::rap(Program program,
                                                  rewrite::Manifest manifest,
                                                  Address entry,
                                                  MemoOptions memo) {
  return std::shared_ptr<const Deployment>(
      new Deployment(ReplayMode::Rap, std::move(program), std::move(manifest),
                     std::nullopt, entry, memo));
}

std::shared_ptr<const Deployment> Deployment::naive(Program program,
                                                    Address entry,
                                                    MemoOptions memo) {
  return std::shared_ptr<const Deployment>(new Deployment(
      ReplayMode::Naive, std::move(program), std::nullopt, std::nullopt, entry,
      memo));
}

std::shared_ptr<const Deployment> Deployment::traces(
    Program program, instr::TracesManifest manifest, Address entry,
    MemoOptions memo) {
  return std::shared_ptr<const Deployment>(
      new Deployment(ReplayMode::Traces, std::move(program), std::nullopt,
                     std::move(manifest), entry, memo));
}

}  // namespace raptrack::verify
