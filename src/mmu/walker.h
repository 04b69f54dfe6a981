// Two-dimensional (GPT x EPT) address translation with cost accounting.
//
// In the worst case a 2D walk touches L_g*(L_e+1) + L_e page-table entries
// (24 for 4-level tables); walk caches make the average much cheaper, which
// the per-touch cost constant reflects. A TLB hit bypasses everything.

#ifndef DEMETER_SRC_MMU_WALKER_H_
#define DEMETER_SRC_MMU_WALKER_H_

#include <cstdint>

#include "src/base/units.h"
#include "src/mem/host_memory.h"
#include "src/mmu/page_table.h"
#include "src/mmu/tlb.h"

namespace demeter {

struct MmuCosts {
  double tlb_hit_ns = 1.0;
  double pt_touch_ns = 7.0;        // Per PTE touch during a walk (walk caches help).
  double single_flush_ns = 150.0;  // invlpg/invvpid instruction.
  double full_flush_ns = 800.0;    // invept instruction (refills charged separately).
  double guest_fault_ns = 2500.0;  // Guest minor-fault handling.
  double ept_fault_ns = 9000.0;    // VM exit + hypervisor fault handling + resume.
  double pte_scan_ns = 12.0;       // Software A-bit scan, per PTE visited.
  double context_switch_ns = 1800.0;
  double migrate_sw_ns = 1500.0;   // Per-page software overhead of a migration
                                   // (unmap, rmap update, remap bookkeeping).
};

enum class TranslateStatus {
  kOk = 0,
  kGuestFault,  // gVA unmapped in GPT: guest page-fault needed.
  kEptFault,    // gPA unmapped in EPT: hypervisor must populate.
};

struct TranslationResult {
  TranslateStatus status = TranslateStatus::kOk;
  PageNum gpa_page = 0;
  FrameId frame = kInvalidFrame;
  bool tlb_hit = false;
  double cost_ns = 0.0;  // MMU cost only; memory-tier latency charged by caller.
};

// Performs one translation of gVA page `vpn`, setting A/D bits in both
// dimensions on success and installing the flattened entry in the TLB.
// Forced inline: this sits directly on the per-access hot path, and the
// call (plus the TLB probe it wraps) must fold into ExecuteAccessImpl, which
// GCC's size heuristics otherwise leave out of line.
[[gnu::always_inline]] inline TranslationResult Translate2D(Tlb& tlb, PageTable& gpt,
                                                            PageTable& ept, PageNum vpn,
                                                            bool is_write,
                                                            const MmuCosts& costs) {
  TranslationResult result;

  const FrameId cached = tlb.Lookup(vpn);
  if (cached != kInvalidFrame) {
    result.tlb_hit = true;
    result.frame = cached;
    result.cost_ns = costs.tlb_hit_ns;
    // A/D bits: hardware sets them on the TLB-fill walk; a hit does not
    // re-set them. On writes the D bit must be set, which hardware does by
    // re-walking when the cached entry lacks the dirty permission; we fold
    // that microcode walk into leaf updates in BOTH dimensions without
    // charging a full walk. The EPT leaf is reached via the gPA recorded in
    // the GPT leaf — dropping it here left hypervisor-side dirty tracking
    // blind to every write that hit the TLB.
    if (is_write) {
      const PageTable::WalkResult gpt_leaf =
          gpt.Translate(vpn, /*is_write=*/true, /*set_bits=*/true);
      if (gpt_leaf.present) {
        ept.Translate(gpt_leaf.target, /*is_write=*/true, /*set_bits=*/true);
      }
    }
    return result;
  }

  // After a full invalidation the paging-structure caches are cold and the
  // refill walks cost more (the destructive invept effect of §2.3.1).
  const double walk_factor = tlb.ConsumeWalkFactor();

  // GPT walk: each of the L_g guest levels requires translating the guest
  // page-table page through the EPT (L_e touches each) plus the touch itself.
  PageTable::WalkResult gpt_walk = gpt.Translate(vpn, is_write, /*set_bits=*/true);
  const int ept_levels = PageTable::kLevels;
  double touches =
      static_cast<double>(gpt_walk.levels_touched) * static_cast<double>(ept_levels + 1);

  if (!gpt_walk.present) {
    result.status = TranslateStatus::kGuestFault;
    result.cost_ns = touches * costs.pt_touch_ns * walk_factor;
    return result;
  }
  result.gpa_page = gpt_walk.target;

  // Final EPT walk for the data page itself.
  PageTable::WalkResult ept_walk = ept.Translate(gpt_walk.target, is_write, /*set_bits=*/true);
  touches += static_cast<double>(ept_walk.levels_touched);
  result.cost_ns = touches * costs.pt_touch_ns * walk_factor;

  if (!ept_walk.present) {
    result.status = TranslateStatus::kEptFault;
    return result;
  }

  result.frame = static_cast<FrameId>(ept_walk.target);
  tlb.Insert(vpn, result.frame);
  return result;
}

}  // namespace demeter

#endif  // DEMETER_SRC_MMU_WALKER_H_
