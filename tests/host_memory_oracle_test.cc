// Oracle test for the frame allocator: random interleavings of Allocate,
// Free, Poison, CarveFree, RestoreCarved and WriteToken, replayed against
// the eager LIFO reference (tests/eager_host_memory_reference.h), must give
// identical frame ids, per-tier counts, allocation and poison state, and
// tokens on one-, two- and three-tier hosts.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/units.h"
#include "src/mem/host_memory.h"
#include "src/mem/tier.h"
#include "tests/eager_host_memory_reference.h"

namespace demeter {
namespace {

std::vector<TierSpec> Specs(const std::vector<uint64_t>& tier_frames) {
  std::vector<TierSpec> specs;
  for (size_t t = 0; t < tier_frames.size(); ++t) {
    const uint64_t bytes = tier_frames[t] * kPageSize;
    specs.push_back(t == 0 ? TierSpec::LocalDram(bytes)
                           : (t == 1 ? TierSpec::Pmem(bytes) : TierSpec::Zswap(bytes)));
  }
  return specs;
}

// Compares every per-tier count; on a mismatch the failing EXPECT names it.
bool SameCounts(const HostMemory& mem, const EagerHostMemoryReference& ref, int op) {
  for (TierIndex t = 0; t < mem.num_tiers(); ++t) {
    EXPECT_EQ(mem.FreePages(t), ref.FreePages(t)) << "tier " << t << " at op " << op;
    EXPECT_EQ(mem.CarvedPages(t), ref.CarvedPages(t)) << "tier " << t << " at op " << op;
    EXPECT_EQ(mem.PoisonedPages(t), ref.PoisonedPages(t)) << "tier " << t << " at op " << op;
  }
  return !::testing::Test::HasFailure();
}

// Compares the state of every frame.
bool SameFrames(const HostMemory& mem, EagerHostMemoryReference& ref, int op) {
  for (FrameId f = 0; f < mem.total_frames(); ++f) {
    if (mem.IsAllocated(f) != ref.IsAllocated(f) || mem.IsPoisoned(f) != ref.IsPoisoned(f) ||
        mem.ReadToken(f) != ref.ReadToken(f)) {
      ADD_FAILURE() << "frame " << f << " diverged at op " << op;
      return false;
    }
  }
  return true;
}

// Replays one random operation sequence on both allocators; returns false
// at the first divergence.
bool ReplayMatches(const std::vector<uint64_t>& tier_frames, uint64_t seed, int ops) {
  HostMemory mem(Specs(tier_frames));
  EagerHostMemoryReference ref(tier_frames);
  EXPECT_EQ(mem.total_frames(), ref.total_frames());
  Rng rng(seed);
  const uint64_t num_tiers = tier_frames.size();
  // Vary the allocation pressure per sequence: some sequences drain tiers to
  // exhaustion, others keep most frames on the fresh cursor.
  const double alloc_p = 0.25 + 0.1 * static_cast<double>(rng.NextBelow(4));
  std::vector<FrameId> live;  // Frames both allocators have handed out.
  for (int i = 0; i < ops; ++i) {
    const TierIndex t = static_cast<TierIndex>(rng.NextBelow(num_tiers));
    const double pick = rng.NextDouble();
    if (pick < alloc_p) {
      const std::optional<FrameId> got = mem.Allocate(t);
      const std::optional<FrameId> want = ref.Allocate(t);
      EXPECT_EQ(got, want) << "Allocate(" << t << ") at op " << i;
      if (got != want) {
        return false;
      }
      if (got.has_value()) {
        live.push_back(*got);
      }
    } else if (pick < alloc_p + 0.28) {
      if (live.empty()) {
        continue;
      }
      const size_t k = rng.NextBelow(live.size());
      const FrameId frame = live[k];
      live[k] = live.back();
      live.pop_back();
      if (pick < alloc_p + 0.25) {
        mem.Free(frame);
        ref.Free(frame);
      } else {
        mem.Poison(frame);
        ref.Poison(frame);
      }
    } else if (pick < alloc_p + 0.33) {
      const uint64_t max_frames = rng.NextBelow(tier_frames[static_cast<size_t>(t)] / 2 + 2);
      const uint64_t got = mem.CarveFree(t, max_frames);
      const uint64_t want = ref.CarveFree(t, max_frames);
      EXPECT_EQ(got, want) << "CarveFree(" << t << ", " << max_frames << ") at op " << i;
      if (got != want) {
        return false;
      }
    } else if (pick < alloc_p + 0.37) {
      mem.RestoreCarved(t);
      ref.RestoreCarved(t);
    } else if (mem.total_frames() > 0) {
      // Zero stores (into frames that may never have held a token) are as
      // common as non-zero ones.
      const FrameId frame = rng.NextBelow(mem.total_frames());
      const uint64_t token = rng.NextBool(0.5) ? 0 : 1 + rng.NextBelow(1000);
      mem.WriteToken(frame, token);
      ref.WriteToken(frame, token);
    }
    if (!SameCounts(mem, ref, i)) {
      return false;
    }
    if (i % 64 == 63 && !SameFrames(mem, ref, i)) {
      return false;
    }
  }
  return SameFrames(mem, ref, ops);
}

struct Geometry {
  std::vector<uint64_t> tier_frames;
  int sequences;
  int ops;
};

std::string Name(const Geometry& g) {
  std::string name;
  for (const uint64_t frames : g.tier_frames) {
    name += (name.empty() ? "" : "_") + std::to_string(frames);
  }
  return name;
}

void PrintTo(const Geometry& g, std::ostream* os) { *os << Name(g); }

class HostMemoryOracleTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(HostMemoryOracleTest, MatchesEagerReference) {
  const Geometry& g = GetParam();
  for (int s = 0; s < g.sequences; ++s) {
    const uint64_t seed = 0x4f1 + static_cast<uint64_t>(s) * 7919 + g.tier_frames.size() * 131 +
                          g.tier_frames.front();
    ASSERT_TRUE(ReplayMatches(g.tier_frames, seed, g.ops)) << Name(g) << " sequence " << s;
  }
}

// Token chunks hold 512 frames, so the larger geometries span several and
// end in a partial one.
INSTANTIATE_TEST_SUITE_P(
    Geometries, HostMemoryOracleTest,
    ::testing::Values(Geometry{{1}, 50, 200}, Geometry{{37}, 100, 1000},
                      Geometry{{1300}, 20, 6000}, Geometry{{16, 64}, 100, 2000},
                      Geometry{{700, 900}, 20, 8000}, Geometry{{24, 40, 16}, 100, 2000},
                      Geometry{{8, 0, 600}, 40, 3000}),
    [](const ::testing::TestParamInfo<Geometry>& info) { return Name(info.param); });

}  // namespace
}  // namespace demeter
