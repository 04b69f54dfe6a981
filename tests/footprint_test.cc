// Heap footprint of the structures a host builds per tier, per VM and per
// address space. A counting global operator new measures the bytes each
// construction or operation asks for, independent of how the allocator
// backs them: frames, sample-channel slots and page-table nodes must cost
// memory only once a run touches them.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/base/units.h"
#include "src/guest/mpsc_channel.h"
#include "src/mem/host_memory.h"
#include "src/mem/tier.h"
#include "src/mmu/page_table.h"

namespace {

// Only the test thread allocates while a measurement is open.
size_t g_bytes = 0;
size_t g_allocations = 0;

void* CountedAlloc(size_t size) {
  g_bytes += size;
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace demeter {
namespace {

// Bytes and allocation calls requested between construction and the
// reading.
struct AllocationMeter {
  size_t bytes_at_start = g_bytes;
  size_t allocations_at_start = g_allocations;
  size_t bytes() const { return g_bytes - bytes_at_start; }
  size_t allocations() const { return g_allocations - allocations_at_start; }
};

TEST(Footprint, HostMemoryConstructionWritesNoPerFrameArrays) {
  // A fleet-ha host: 8192 DRAM + 65536 PMem frames.
  const AllocationMeter meter;
  HostMemory memory({TierSpec::LocalDram(32 * kMiB), TierSpec::Pmem(256 * kMiB)});
  ASSERT_EQ(memory.total_frames(), 73728u);
  // Allocation and poison bits (2 bits per frame) and one pointer per 512
  // tokens remain; a free-list entry and a token per frame (1.1 MiB) do not.
  EXPECT_LT(meter.bytes(), 64 * kKiB);
}

TEST(Footprint, SampleChannelGrowsWithSlotsWritten) {
  const AllocationMeter meter;
  MpscChannel<uint64_t> channel(1 << 16);  // Demeter's capacity: 1 MiB of slots.
  EXPECT_LT(meter.bytes(), 16 * kKiB);
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(channel.Push(i));
  }
  EXPECT_LT(meter.bytes(), 16 * kKiB);
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_EQ(channel.Pop().value_or(~uint64_t{0}), i);
  }
  EXPECT_FALSE(channel.Pop().has_value());
}

TEST(Footprint, PageTableNodesAreFourKiB) {
  PageTable table;
  const AllocationMeter meter;
  constexpr PageNum kPages = 4096;
  for (PageNum vpn = 0; vpn < kPages; ++vpn) {
    ASSERT_TRUE(table.Map(vpn, vpn, /*writable=*/true));
  }
  // Below the existing root: one node at each of the two middle levels and
  // one leaf per 512 pages.
  const size_t nodes = 2 + kPages / PageTable::kFanout;
  EXPECT_EQ(meter.allocations(), nodes);
  EXPECT_EQ(meter.bytes(), nodes * 4 * kKiB);
}

}  // namespace
}  // namespace demeter
