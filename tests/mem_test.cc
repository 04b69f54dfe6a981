#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <set>
#include <vector>

#include "src/base/units.h"
#include "src/mem/host_memory.h"
#include "src/mem/tier.h"

namespace demeter {
namespace {

HostMemory MakeTwoTier(uint64_t fmem_bytes = 16 * kMiB, uint64_t smem_bytes = 64 * kMiB) {
  return HostMemory({TierSpec::LocalDram(fmem_bytes), TierSpec::Pmem(smem_bytes)});
}

TEST(TierSpec, Table2Defaults) {
  const TierSpec dram = TierSpec::LocalDram(kGiB);
  EXPECT_DOUBLE_EQ(dram.read_latency_ns, 68.7);
  EXPECT_DOUBLE_EQ(dram.read_bw_mbps, 88156.5);

  const TierSpec remote = TierSpec::RemoteDram(kGiB);
  EXPECT_DOUBLE_EQ(remote.read_latency_ns, 121.9);
  EXPECT_DOUBLE_EQ(remote.read_bw_mbps, 53533.8);

  const TierSpec pmem = TierSpec::Pmem(kGiB);
  EXPECT_DOUBLE_EQ(pmem.read_latency_ns, 176.6);
  EXPECT_DOUBLE_EQ(pmem.read_bw_mbps, 21414.5);
  // Asymmetric writes.
  EXPECT_GT(pmem.write_latency_ns, pmem.read_latency_ns);
  EXPECT_LT(pmem.write_bw_mbps, pmem.read_bw_mbps);
}

TEST(TierSpec, CapacityPages) {
  EXPECT_EQ(TierSpec::LocalDram(kGiB).capacity_pages(), kGiB / kPageSize);
}

TEST(MemoryTier, UncontendedLatencyNearBase) {
  MemoryTier tier(TierSpec::LocalDram(kGiB));
  const double cost = tier.AccessCost(0, 64, /*is_write=*/false);
  EXPECT_GE(cost, 68.7);
  EXPECT_LT(cost, 72.0);  // 64B service time is under a nanosecond.
}

TEST(MemoryTier, BandwidthContentionStretchesLatency) {
  MemoryTier tier(TierSpec::Pmem(kGiB));
  // Saturate the 1 ms window: thousands of page writes push utilization to
  // the cap and inflate latency by the queueing factor.
  double last = 0.0;
  for (int i = 0; i < 20000; ++i) {
    last = tier.AccessCost(0, kPageSize, /*is_write=*/true);
  }
  const double single = MemoryTier(TierSpec::Pmem(kGiB)).AccessCost(0, kPageSize, true);
  EXPECT_GT(last, single * 5);
  EXPECT_GT(tier.Utilization(), 0.9);
}

TEST(MemoryTier, ContentionDrainsOverTime) {
  MemoryTier tier(TierSpec::Pmem(kGiB));
  for (int i = 0; i < 20000; ++i) {
    tier.AccessCost(0, kPageSize, true);
  }
  // Two windows later the load estimate has aged out.
  const double later = tier.AccessCost(10 * MemoryTier::kWindowNs, 64, false);
  EXPECT_LT(later, 200.0);
  EXPECT_LT(tier.Utilization(), 0.01);
}

TEST(MemoryTier, SkewedTimestampsDoNotExplodeLatency) {
  // Accesses stamped slightly in the past (vCPU clock skew) must not pay
  // phantom queueing delays.
  MemoryTier tier(TierSpec::Pmem(kGiB));
  tier.AccessCost(5 * MemoryTier::kWindowNs, 64, false);
  const double behind = tier.AccessCost(2 * MemoryTier::kWindowNs, 64, false);
  EXPECT_LT(behind, 200.0);
}

TEST(MemoryTier, TracksBytes) {
  MemoryTier tier(TierSpec::LocalDram(kGiB));
  tier.AccessCost(0, 64, false);
  tier.AccessCost(0, kPageSize, true);
  EXPECT_EQ(tier.bytes_transferred(), 64 + kPageSize);
}

TEST(HostMemory, TierLayout) {
  HostMemory mem = MakeTwoTier();
  EXPECT_EQ(mem.num_tiers(), 2);
  EXPECT_EQ(mem.CapacityPages(kFmemTier), 16 * kMiB / kPageSize);
  EXPECT_EQ(mem.CapacityPages(kSmemTier), 64 * kMiB / kPageSize);
  EXPECT_EQ(mem.total_frames(), (16 + 64) * kMiB / kPageSize);
}

TEST(HostMemory, AllocateFromCorrectTier) {
  HostMemory mem = MakeTwoTier();
  const auto f = mem.Allocate(kFmemTier);
  const auto s = mem.Allocate(kSmemTier);
  ASSERT_TRUE(f.has_value());
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(mem.TierOf(*f), kFmemTier);
  EXPECT_EQ(mem.TierOf(*s), kSmemTier);
  EXPECT_NE(*f, *s);
}

TEST(HostMemory, ExhaustionReturnsNullopt) {
  HostMemory mem({TierSpec::LocalDram(4 * kPageSize), TierSpec::Pmem(4 * kPageSize)});
  std::vector<FrameId> frames;
  for (int i = 0; i < 4; ++i) {
    auto f = mem.Allocate(kFmemTier);
    ASSERT_TRUE(f.has_value());
    frames.push_back(*f);
  }
  EXPECT_FALSE(mem.Allocate(kFmemTier).has_value());
  // SMEM unaffected.
  EXPECT_TRUE(mem.Allocate(kSmemTier).has_value());
  mem.Free(frames[0]);
  EXPECT_TRUE(mem.Allocate(kFmemTier).has_value());
}

TEST(HostMemory, NoDuplicateAllocations) {
  HostMemory mem = MakeTwoTier(kMiB, kMiB);
  std::set<FrameId> seen;
  for (int t = 0; t < 2; ++t) {
    for (;;) {
      auto f = mem.Allocate(t);
      if (!f.has_value()) {
        break;
      }
      EXPECT_TRUE(seen.insert(*f).second) << "duplicate frame " << *f;
    }
  }
  EXPECT_EQ(seen.size(), mem.total_frames());
}

TEST(HostMemory, FreeCountsTrack) {
  HostMemory mem = MakeTwoTier(kMiB, kMiB);
  EXPECT_EQ(mem.FreePages(kFmemTier), 256u);
  EXPECT_EQ(mem.UsedPages(kFmemTier), 0u);
  auto f = mem.Allocate(kFmemTier);
  EXPECT_EQ(mem.FreePages(kFmemTier), 255u);
  EXPECT_EQ(mem.UsedPages(kFmemTier), 1u);
  mem.Free(*f);
  EXPECT_EQ(mem.FreePages(kFmemTier), 256u);
}

TEST(HostMemory, TokensPersistUntilFree) {
  HostMemory mem = MakeTwoTier(kMiB, kMiB);
  auto f = mem.Allocate(kSmemTier);
  EXPECT_EQ(mem.ReadToken(*f), 0u);
  mem.WriteToken(*f, 0xdeadbeef);
  EXPECT_EQ(mem.ReadToken(*f), 0xdeadbeefu);
  mem.Free(*f);
  auto f2 = mem.Allocate(kSmemTier);
  // Freed frames are scrubbed.
  EXPECT_EQ(mem.ReadToken(*f2), 0u);
}

TEST(HostMemory, DoubleFreeAborts) {
  HostMemory mem = MakeTwoTier(kMiB, kMiB);
  auto f = mem.Allocate(kFmemTier);
  mem.Free(*f);
  EXPECT_DEATH(mem.Free(*f), "double free");
}

TEST(MediaKindNames, AllNamed) {
  EXPECT_STREQ(MediaKindName(MediaKind::kLocalDram), "local-dram");
  EXPECT_STREQ(MediaKindName(MediaKind::kRemoteDram), "remote-dram(cxl)");
  EXPECT_STREQ(MediaKindName(MediaKind::kPmem), "pmem");
  EXPECT_STREQ(MediaKindName(MediaKind::kZswap), "zswap");
}

TEST(TierSpec, ZswapIsSlowerThanEveryByteAddressableTier) {
  const TierSpec z = TierSpec::Zswap(kGiB);
  EXPECT_EQ(z.media, MediaKind::kZswap);
  // The compression pass dominates: well above PMem, well below the swap
  // device latencies SwapDevice adds on top.
  EXPECT_GT(z.read_latency_ns, TierSpec::Pmem(kGiB).read_latency_ns);
  EXPECT_GT(z.write_latency_ns, z.read_latency_ns);
  EXPECT_LT(z.read_bw_mbps, TierSpec::Pmem(kGiB).read_bw_mbps);
  EXPECT_EQ(z.capacity_pages(), kGiB / kPageSize);
}

TEST(HostMemory, ThreeTierLayout) {
  HostMemory mem({TierSpec::LocalDram(kMiB), TierSpec::Pmem(kMiB),
                  TierSpec::Zswap(2 * kMiB)});
  EXPECT_EQ(mem.num_tiers(), 3);
  EXPECT_EQ(mem.CapacityPages(kSwapTier), 2 * kMiB / kPageSize);
  auto f = mem.Allocate(kSwapTier);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(mem.TierOf(*f), kSwapTier);
  // Swap frames live above both DRAM tiers in the flat frame space.
  EXPECT_GE(*f, mem.CapacityPages(kFmemTier) + mem.CapacityPages(kSmemTier));
}

// TierOf counts the upper tier bases at or below a frame, so an empty tier
// must be skipped (its base equals its successor's) and every frame at the
// tier boundaries must land in the tier that owns it.
TEST(HostMemory, TierOfSkipsEmptyTiersAndChecksRange) {
  HostMemory mem({TierSpec::LocalDram(2 * kPageSize), TierSpec::Pmem(0),
                  TierSpec::Zswap(3 * kPageSize)});
  EXPECT_EQ(mem.TierOf(0), kFmemTier);
  EXPECT_EQ(mem.TierOf(1), kFmemTier);
  for (FrameId f = 2; f < 5; ++f) {
    EXPECT_EQ(mem.TierOf(f), kSwapTier) << "frame " << f;
  }
  HostMemory two_tier({TierSpec::LocalDram(2 * kPageSize), TierSpec::Pmem(kPageSize)});
  EXPECT_EQ(two_tier.TierOf(1), kFmemTier);
  EXPECT_EQ(two_tier.TierOf(2), kSmemTier);
  EXPECT_DEATH(mem.TierOf(5), "not in any tier");
}

// Regression: a degenerate spec (zero bandwidth — e.g. a tiershrink carve
// that took a small tier to nothing) must yield slow-but-finite costs, never
// inf/NaN that would poison every downstream latency accumulator.
TEST(MemoryTier, ZeroBandwidthSpecStaysFinite) {
  TierSpec spec = TierSpec::Pmem(kGiB);
  spec.read_bw_mbps = 0.0;
  spec.write_bw_mbps = 0.0;
  MemoryTier tier(spec);
  const double cost = tier.AccessCost(0, kPageSize, /*is_write=*/true);
  EXPECT_TRUE(std::isfinite(cost));
  EXPECT_GT(cost, 0.0);
  // Clamped to the bandwidth floor: a page takes ~kPageSize/(1 MB/s) = ~4 ms,
  // times at most the capped queueing factor.
  EXPECT_LT(cost, 1e9);
  EXPECT_TRUE(std::isfinite(tier.Utilization()));
}

// Regression: with ~zero window capacity, any traffic pins utilization at
// the cap instead of dividing by ~zero.
TEST(MemoryTier, ZeroCapacitySaturatesUtilization) {
  TierSpec spec = TierSpec::LocalDram(kGiB);
  spec.read_bw_mbps = 0.0;
  spec.write_bw_mbps = 0.0;
  MemoryTier tier(spec);
  EXPECT_DOUBLE_EQ(tier.Utilization(), 0.0);  // No traffic yet: idle.
  tier.AccessCost(0, 64, /*is_write=*/false);
  EXPECT_DOUBLE_EQ(tier.Utilization(), MemoryTier::kMaxUtilization);
}

}  // namespace
}  // namespace demeter
