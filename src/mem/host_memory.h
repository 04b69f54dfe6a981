// Host tiered physical memory: per-tier frame allocators plus a contents
// token per frame.
//
// Frames are identified by a global FrameId; each tier owns a contiguous
// FrameId range so TierOf() is a range lookup. The contents token is a
// 64-bit value logically representing the data stored in the frame — page
// migration must preserve tokens, which the test suite verifies end to end.
//
// Construction writes no per-frame list: each tier's LIFO free list is a
// cursor over its never-allocated frames plus a stack of returned ones (see
// TierState), and tokens live in a ChunkedArray, so only frames whose token
// was ever non-zero cost token memory.

#ifndef DEMETER_SRC_MEM_HOST_MEMORY_H_
#define DEMETER_SRC_MEM_HOST_MEMORY_H_

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/base/chunked_array.h"
#include "src/base/logging.h"
#include "src/base/units.h"
#include "src/mem/tier.h"

namespace demeter {

using FrameId = uint64_t;
inline constexpr FrameId kInvalidFrame = ~static_cast<FrameId>(0);

// Index of a tier within a HostMemory. By convention, tier 0 is FMEM
// (fast) and tier 1 is SMEM (slow); three-tier setups add tier 2, the far
// swap tier (compressed RAM / SSD, see src/swap). Two-tier hosts never see
// kSwapTier: every swap path is gated on num_tiers() > kSwapTier.
using TierIndex = int;
inline constexpr TierIndex kFmemTier = 0;
inline constexpr TierIndex kSmemTier = 1;
inline constexpr TierIndex kSwapTier = 2;

class HostMemory {
 public:
  // FMEM, SMEM and the swap tier at most.
  static constexpr int kMaxTiers = 3;

  explicit HostMemory(std::vector<TierSpec> tiers);

  int num_tiers() const { return static_cast<int>(tiers_.size()); }
  MemoryTier& tier(TierIndex t) { return tiers_[static_cast<size_t>(t)]; }
  const MemoryTier& tier(TierIndex t) const { return tiers_[static_cast<size_t>(t)]; }

  // Allocates one frame from tier `t`; nullopt when the tier is exhausted.
  std::optional<FrameId> Allocate(TierIndex t);
  void Free(FrameId frame);

  // Inline: called once per memory access on the hot path. Tier t owns
  // [base_t, base_t+1), so a frame's tier is the number of upper tier bases
  // at or below it: a compare per tier, no branch. An empty tier shares its
  // successor's base and is skipped; absent tiers' bases never match.
  TierIndex TierOf(FrameId frame) const {
    if (frame >= total_frames_) [[unlikely]] {
      FrameOutOfRange(frame);
    }
    TierIndex t = 0;
    for (const FrameId base : upper_base_) {
      t += static_cast<TierIndex>(frame >= base);
    }
    return t;
  }

  // True when `frame` is currently handed out by its tier's allocator.
  bool IsAllocated(FrameId frame) const;

  // ---- hwpoison (uncorrectable memory errors) -----------------------------
  // Marks an allocated frame as poisoned: it leaves the allocator for good
  // (never re-enters the free list) and its token is destroyed. The caller
  // (hypervisor MCE handler) is responsible for unmapping it first.
  void Poison(FrameId frame);
  bool IsPoisoned(FrameId frame) const;
  uint64_t PoisonedPages(TierIndex t) const;

  // ---- capacity hot-shrink (co-tenant pressure) ---------------------------
  // Carves up to `max_frames` free frames out of tier `t` (they become
  // unallocatable until restored); returns the number carved. RestoreCarved
  // returns every carved frame, reproducing the exact pre-carve free-list
  // order so a shrink window that never forces an eviction is invisible to
  // later allocation patterns.
  uint64_t CarveFree(TierIndex t, uint64_t max_frames);
  void RestoreCarved(TierIndex t);
  uint64_t CarvedPages(TierIndex t) const;

  uint64_t CapacityPages(TierIndex t) const;
  uint64_t FreePages(TierIndex t) const;
  // Frames currently handed out to mappings: capacity minus free minus
  // poisoned minus carved. The invariant checker asserts EPT-mapped counts
  // equal this, so offline frames must not be counted as "used".
  uint64_t UsedPages(TierIndex t) const;

  // Contents token of a frame (logical page data identity).
  uint64_t ReadToken(FrameId frame) const;
  void WriteToken(FrameId frame, uint64_t token);

  // Total frames across all tiers.
  uint64_t total_frames() const { return total_frames_; }

 private:
  // The tier's LIFO free list is the explicit `returned` stack on top of the
  // untouched frames base+fresh .. base+num_frames-1, lowest on top. Every
  // push lands on `returned`, above frames never handed out, so popping
  // `returned` first and then `base + fresh++` is the full list's pop order.
  struct TierState {
    FrameId base = 0;
    uint64_t num_frames = 0;
    uint64_t fresh = 0;             // Frames base .. base+fresh-1 were handed out once.
    std::vector<FrameId> returned;  // Freed or restored frames; top = back.
    std::vector<bool> allocated;
    std::vector<bool> poisoned;
    uint64_t poisoned_count = 0;
    std::vector<FrameId> carved;  // Stack of frames removed by CarveFree.
  };

  [[noreturn, gnu::cold, gnu::noinline]] void FrameOutOfRange(FrameId frame) const;

  // Pops the top of a tier's free list; nullopt when it is empty.
  static std::optional<FrameId> PopFree(TierState& state);

  std::vector<MemoryTier> tiers_;
  std::vector<TierState> states_;
  // Base frames of tiers 1.. for TierOf; ~0 for a tier the host lacks.
  std::array<FrameId, kMaxTiers - 1> upper_base_{};
  uint64_t total_frames_ = 0;
  ChunkedArray<uint64_t> tokens_;
};

}  // namespace demeter

#endif  // DEMETER_SRC_MEM_HOST_MEMORY_H_
