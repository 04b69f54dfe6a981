// Set-associative TLB caching flattened 2D translations (gVA -> hPA).
//
// Two invalidation instructions are modelled, matching the paper's taxonomy:
//   * single-address (invlpg / invvpid / invpcid): evicts one gVA
//   * full EPT invalidation (invept): evicts everything derived from an EPT
//
// Hypervisor-based access tracking (which sees only gPA/hPA) must use the
// full invalidation to re-arm PTE.A/D observation; guest-based tracking can
// use single-address invalidations because it knows the gVA. Table 1 counts
// exactly these two instruction kinds.
//
// Storage is one packed 128-byte, 128-aligned block per set (up to 8 ways):
// the eight vpn tags fill the first cache line, and the 32-bit frames, the
// set epoch, the live-way bitmask and the per-way LRU ranks fill the second.
// A probe touches one adjacent line pair, and the default 1024x8 geometry
// costs 128 KiB per vCPU.
//
// Liveness is two-level. The TLB carries a generation counter (epoch_) that
// InvalidateAll bumps in O(1); a set whose epoch lags it is stale and all its
// ways read as empty (Insert resets it lazily). Within a current set, a way
// is live iff its live bit is set; InvalidatePage clears that bit.
//
// LRU is a per-set rank permutation instead of a global tick: a touch (a
// Lookup hit or an Insert) moves the way to rank ways-1 and slides every
// higher rank down by one. The touched ways therefore hold the top ranks in
// the order of their last touch, which is exactly the within-set order the
// global tick gave them, and never-touched ways stay below every touched
// way, as tick 0 did. Victim choice only ever compares live ways, all of
// which were touched, so both schemes evict the same way.

#ifndef DEMETER_SRC_MMU_TLB_H_
#define DEMETER_SRC_MMU_TLB_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "src/base/units.h"
#include "src/mem/host_memory.h"

namespace demeter {

struct TlbStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t single_flushes = 0;  // invlpg/invvpid/invpcid instructions.
  uint64_t full_flushes = 0;    // invept instructions.

  void Merge(const TlbStats& other) {
    hits += other.hits;
    misses += other.misses;
    single_flushes += other.single_flushes;
    full_flushes += other.full_flushes;
  }
};

class Tlb {
 public:
  static constexpr int kMaxWays = 8;

  // Default geometry models an STLB whose reach is amplified by transparent
  // hugepages (the guests run THP: one 2 MiB entry per 512 base pages), so
  // steady-state coverage approximates the working set — which is what makes
  // full invalidations so destructive and tier latency, not translation,
  // the dominant access cost. `ways` is at most kMaxWays.
  explicit Tlb(int num_sets = 1024, int ways = 8);

  // Looks up gVA page `vpn`; returns the cached hPA frame or kInvalidFrame.
  FrameId Lookup(PageNum vpn) {
    Set& set = SetOf(vpn);
    if (set.epoch == epoch_) {
      for (int w = 0; w < ways_; ++w) {
        if (set.vpn[w] == vpn && (set.live >> w & 1u) != 0) {
          Touch(set, w);
          ++stats_.hits;
          return set.frame[w];
        }
      }
    }
    ++stats_.misses;
    return kInvalidFrame;
  }

  // Accounts a hit whose set scan was skipped because the probing vCPU just
  // translated the same page (ExecuteBatch's same-page run coalescing). The
  // hit counter advances exactly as Lookup would have; the LRU rank is NOT
  // re-bumped — the entry already holds its set's top rank from the run's
  // first probe, and re-touching the top rank is a no-op anyway.
  void CountCoalescedHit() { ++stats_.hits; }

  // Installs vpn -> frame after a successful walk. Frames are stored in 32
  // bits (16 TiB of host memory at 4 KiB pages); larger ones fail a CHECK.
  void Insert(PageNum vpn, FrameId frame) {
    if (frame > kMaxFrame) [[unlikely]] {
      FrameTooLarge(frame);
    }
    Set& set = SetOf(vpn);
    if (set.epoch != epoch_) {
      set.epoch = epoch_;  // Stale since the last InvalidateAll: empty it.
      set.live = 0;
    }
    int victim = -1;
    for (int w = 0; w < ways_; ++w) {
      if (set.vpn[w] == vpn && (set.live >> w & 1u) != 0) {
        victim = w;  // Same-vpn live entry: update in place.
        break;
      }
    }
    if (victim < 0) {
      // The LAST non-live way wins; only a full set evicts by LRU. Ranks are
      // a permutation of 0..ways-1, so the LRU way is the one of rank 0.
      const uint32_t dead = ~static_cast<uint32_t>(set.live) & full_mask_;
      if (dead != 0) {
        victim = std::bit_width(dead) - 1;
      } else {
        // The one zero byte among the used ways (unused ones read as 1).
        const uint64_t r = set.ranks | unused_ranks_;
        victim = std::countr_zero((r - kRankOnes) & ~r & kRankHighs) / 8;
      }
      set.vpn[victim] = vpn;
      set.live = static_cast<uint8_t>(set.live | 1u << victim);
    }
    set.frame[victim] = static_cast<uint32_t>(frame);
    Touch(set, victim);
  }

  // Single-address invalidation (guest knows the gVA).
  void InvalidatePage(PageNum vpn) {
    ++stats_.single_flushes;
    Set& set = SetOf(vpn);
    if (set.epoch != epoch_) {
      return;
    }
    for (int w = 0; w < ways_; ++w) {
      if (set.vpn[w] == vpn && (set.live >> w & 1u) != 0) {
        set.live = static_cast<uint8_t>(set.live & ~(1u << w));  // Dead until re-inserted.
        return;
      }
    }
  }

  // Full invalidation of all entries (invept; also used for CR3-class full
  // flushes). The paper's full-invalidation counter counts these. Besides
  // dropping every translation, a full invalidation also destroys the
  // paging-structure caches, so the refill walks that follow are slower:
  // ConsumeWalkFactor() returns the cost multiplier for the next miss.
  //
  // O(1): instead of sweeping every set, the epoch bump makes every set
  // stale at once (see the header comment). Policies that full-flush per
  // scan round (hypervisor-side designs flush every epoch) would otherwise
  // pay an 8K-entry sweep per flush.
  void InvalidateAll();

  // Walk-cost multiplier for a miss happening now; decays as the
  // paging-structure caches rewarm (call once per miss).
  double ConsumeWalkFactor() {
    if (cold_walks_ == 0) {
      return 1.0;
    }
    --cold_walks_;
    return kColdWalkFactor;
  }

  // Read-only walk over every valid entry, set-major and in way order, for
  // audits: fn(vpn, frame).
  template <typename Fn>
  void ForEachValid(Fn&& fn) const {
    for (const Set& set : sets_) {
      if (set.epoch != epoch_) {
        continue;
      }
      for (int w = 0; w < ways_; ++w) {
        if ((set.live >> w & 1u) != 0) {
          fn(set.vpn[w], static_cast<FrameId>(set.frame[w]));
        }
      }
    }
  }

  const TlbStats& stats() const { return stats_; }
  void ClearStats() { stats_ = TlbStats{}; }

  int capacity() const { return num_sets_ * ways_; }

 private:
  struct alignas(128) Set {
    PageNum vpn[kMaxWays];
    uint32_t frame[kMaxWays];
    uint64_t epoch;           // Live only while equal to Tlb::epoch_.
    uint64_t ranks;           // Byte w: LRU rank of way w; ways-1 = most recent.
    uint8_t live;             // Bit w: way w holds a valid entry.
  };
  static_assert(sizeof(Set) == 128, "a set must fill exactly two cache lines");

  static constexpr FrameId kMaxFrame = 0xffffffffULL;
  static constexpr uint64_t kRankOnes = 0x0101010101010101ULL;
  static constexpr uint64_t kRankHighs = 0x8080808080808080ULL;

  Set& SetOf(PageNum vpn) {
    // Multiplicative hash spreads contiguous pages across sets. Both
    // operands fit in 32 bits, and a 32-bit divide is the cheaper one.
    const uint64_t h = vpn * 0x9e3779b97f4a7c15ULL;
    return sets_[static_cast<uint32_t>(h >> 32) % static_cast<uint32_t>(num_sets_)];
  }

  // Moves way `w` to the top rank: every rank above its old one drops by
  // one and way w's rises to ways-1. Ranks are < 8, so one SWAR add flags
  // the bytes greater than `old` (bit 7 of rank + 127 - old) and no byte
  // carries or borrows into its neighbour; unused ways rank 0 and are never
  // flagged. The ranks are one word so that a touch is one load and one
  // store, with no byte store left to stall the next touch's load.
  void Touch(Set& set, int w) const {
    const int shift = 8 * w;
    const uint64_t ranks = set.ranks;
    const uint64_t old = ranks >> shift & 0xff;
    const uint64_t above = ((ranks + (0x7f - old) * kRankOnes) & kRankHighs) >> 7;
    set.ranks = ranks - above + ((top_rank_ - old) << shift);
  }

  [[noreturn, gnu::cold, gnu::noinline]] static void FrameTooLarge(FrameId frame);

  int num_sets_;
  int ways_;
  uint32_t full_mask_ = 0;     // Live bits of a full set.
  uint64_t top_rank_ = 0;      // ways - 1.
  uint64_t unused_ranks_ = 0;  // 0x01 in the rank byte of each way >= ways.
  std::vector<Set> sets_;
  uint64_t epoch_ = 1;       // Bumped by InvalidateAll; sets start stale.
  uint64_t cold_walks_ = 0;  // Misses left that pay the cold-walk multiplier.
  TlbStats stats_;

  static constexpr double kColdWalkFactor = 2.5;
};

}  // namespace demeter

#endif  // DEMETER_SRC_MMU_TLB_H_
