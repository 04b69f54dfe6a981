#include "src/mmu/tlb.h"

#include <cstdlib>

#include "src/base/logging.h"

namespace demeter {

Tlb::Tlb(int num_sets, int ways) : num_sets_(num_sets), ways_(ways) {
  DEMETER_CHECK_GT(num_sets, 0);
  DEMETER_CHECK_GT(ways, 0);
  DEMETER_CHECK_LE(ways, kMaxWays);
  full_mask_ = (1u << ways) - 1;
  top_rank_ = static_cast<uint64_t>(ways - 1);
  // Any permutation of 0..ways-1 works as the initial ranks: untouched ways
  // only need to rank below every touched one. Unused ways rank 0 and never
  // move. Epoch 0 marks every set stale.
  Set blank{};
  for (int w = 0; w < kMaxWays; ++w) {
    if (w < ways) {
      blank.ranks |= static_cast<uint64_t>(w) << (8 * w);
    } else {
      unused_ranks_ |= uint64_t{1} << (8 * w);
    }
  }
  sets_.assign(static_cast<size_t>(num_sets), blank);
}

void Tlb::FrameTooLarge(FrameId frame) {
  DEMETER_CHECK_LE(frame, kMaxFrame) << "TLB frames are 32-bit";
  std::abort();  // Not reached: a failed CHECK aborts.
}

void Tlb::InvalidateAll() {
  ++stats_.full_flushes;
  // Epoch bump: every existing set becomes stale without being touched.
  // A 64-bit counter cannot plausibly wrap within a simulation.
  ++epoch_;
  // Paging-structure caches are gone too; the next ~capacity misses walk
  // cold. A second invalidation before the rewarm completes cannot make the
  // caches any colder — it only restarts the rewarm window — so the budget
  // RESETS to one capacity instead of stacking (back-to-back chunked
  // MMU-notifier scans used to accumulate up to 4x, overcharging refills).
  cold_walks_ = static_cast<uint64_t>(capacity());
}

}  // namespace demeter
