// Oracle test for the packed TLB: random interleavings of every Tlb
// operation, replayed against the structure-of-arrays reference model
// (tests/soa_tlb_reference.h), must give identical returns, statistics,
// cold-walk factors and ForEachValid sequences on every geometry.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/mmu/tlb.h"
#include "tests/soa_tlb_reference.h"

namespace demeter {
namespace {

using Entries = std::vector<std::pair<PageNum, FrameId>>;

template <typename T>
Entries Valid(const T& tlb) {
  Entries out;
  tlb.ForEachValid([&](PageNum vpn, FrameId frame) { out.emplace_back(vpn, frame); });
  return out;
}

void ExpectSameStats(const TlbStats& a, const TlbStats& b) {
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.single_flushes, b.single_flushes);
  EXPECT_EQ(a.full_flushes, b.full_flushes);
}

// Replays one random operation sequence on both TLBs; returns false at the
// first divergence (the failing EXPECT names it).
bool ReplayMatches(int sets, int ways, uint64_t seed, int ops) {
  Tlb tlb(sets, ways);
  SoaTlbReference ref(sets, ways);
  Rng rng(seed);
  // A page pool a little larger than the TLB keeps sets full (LRU victims)
  // while still producing hits; a pool far larger exercises cold sets.
  const uint64_t cap = static_cast<uint64_t>(sets) * static_cast<uint64_t>(ways);
  const uint64_t pool = rng.NextBool(0.5) ? cap + cap / 2 + 2 : 8 * cap + 16;
  // Full flushes are rare in practice; vary their rate per sequence so some
  // sequences age sets across many epochs and others never flush.
  const double flush_p = 0.002 * static_cast<double>(rng.NextBelow(4));
  for (int i = 0; i < ops; ++i) {
    const PageNum vpn = rng.NextBelow(pool);
    const double pick = rng.NextDouble();
    if (pick < 0.40) {
      const FrameId got = tlb.Lookup(vpn);
      const FrameId want = ref.Lookup(vpn);
      EXPECT_EQ(got, want) << "Lookup(" << vpn << ") at op " << i;
      if (got != want) {
        return false;
      }
    } else if (pick < 0.80) {
      const FrameId frame = rng.NextBelow(uint64_t{1} << 32);
      tlb.Insert(vpn, frame);
      ref.Insert(vpn, frame);
    } else if (pick < 0.88) {
      tlb.InvalidatePage(vpn);
      ref.InvalidatePage(vpn);
    } else if (pick < 0.94) {
      tlb.CountCoalescedHit();
      ref.CountCoalescedHit();
    } else if (pick < 0.94 + flush_p) {
      tlb.InvalidateAll();
      ref.InvalidateAll();
    } else {
      const double got = tlb.ConsumeWalkFactor();
      const double want = ref.ConsumeWalkFactor();
      EXPECT_EQ(got, want) << "ConsumeWalkFactor at op " << i;
      if (got != want) {
        return false;
      }
    }
    ExpectSameStats(tlb.stats(), ref.stats());
    if (i % 256 == 255 && Valid(tlb) != Valid(ref)) {
      ADD_FAILURE() << "ForEachValid diverged at op " << i;
      return false;
    }
  }
  EXPECT_EQ(Valid(tlb), Valid(ref));
  EXPECT_EQ(tlb.capacity(), ref.capacity());
  return !::testing::Test::HasFailure();
}

struct Geometry {
  int sets;
  int ways;
  int sequences;
  int ops;
};

void PrintTo(const Geometry& g, std::ostream* os) { *os << g.sets << "x" << g.ways; }

class TlbOracleTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(TlbOracleTest, MatchesSoaReference) {
  const Geometry g = GetParam();
  for (int s = 0; s < g.sequences; ++s) {
    const uint64_t seed = 0x7b1 + static_cast<uint64_t>(s) * 7919 +
                          static_cast<uint64_t>(g.sets) * 131 + static_cast<uint64_t>(g.ways);
    ASSERT_TRUE(ReplayMatches(g.sets, g.ways, seed, g.ops))
        << g.sets << "x" << g.ways << " sequence " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, TlbOracleTest,
                         ::testing::Values(Geometry{1, 1, 200, 400}, Geometry{1, 4, 200, 600},
                                           Geometry{2, 2, 200, 600}, Geometry{3, 7, 200, 1500},
                                           Geometry{16, 8, 200, 3000},
                                           Geometry{1024, 8, 20, 60000}),
                         [](const ::testing::TestParamInfo<Geometry>& info) {
                           return std::to_string(info.param.sets) + "x" +
                                  std::to_string(info.param.ways);
                         });

// A flush between every insert burst: stale sets must reset lazily to the
// exact victim order the reference picks (last way first).
TEST(TlbOracle, FlushBurstsMatchReference) {
  Tlb tlb(4, 8);
  SoaTlbReference ref(4, 8);
  Rng rng(99);
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 20; ++i) {
      const PageNum vpn = rng.NextBelow(64);
      tlb.Insert(vpn, vpn + 1);
      ref.Insert(vpn, vpn + 1);
      const PageNum probe = rng.NextBelow(64);
      ASSERT_EQ(tlb.Lookup(probe), ref.Lookup(probe));
    }
    ASSERT_EQ(Valid(tlb), Valid(ref)) << "round " << round;
    tlb.InvalidateAll();
    ref.InvalidateAll();
  }
  ExpectSameStats(tlb.stats(), ref.stats());
}

TEST(TlbOracleDeathTest, RejectsMoreThanEightWays) {
  EXPECT_DEATH(Tlb(4, Tlb::kMaxWays + 1), "ways");
}

TEST(TlbOracleDeathTest, RejectsFramesBeyond32Bits) {
  Tlb tlb(4, 2);
  tlb.Insert(1, (uint64_t{1} << 32) - 1);  // The largest storable frame.
  EXPECT_EQ(tlb.Lookup(1), (uint64_t{1} << 32) - 1);
  EXPECT_DEATH(tlb.Insert(2, uint64_t{1} << 32), "32-bit");
}

}  // namespace
}  // namespace demeter
