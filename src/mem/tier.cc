#include "src/mem/tier.h"

#include <algorithm>

namespace demeter {

TierSpec TierSpec::LocalDram(uint64_t capacity_bytes) {
  TierSpec spec;
  spec.media = MediaKind::kLocalDram;
  spec.read_latency_ns = 68.7;
  spec.write_latency_ns = 68.7;
  spec.read_bw_mbps = 88156.5;
  spec.write_bw_mbps = 88156.5;
  spec.capacity_bytes = capacity_bytes;
  return spec;
}

TierSpec TierSpec::RemoteDram(uint64_t capacity_bytes) {
  TierSpec spec;
  spec.media = MediaKind::kRemoteDram;
  spec.read_latency_ns = 121.9;
  spec.write_latency_ns = 121.9;
  spec.read_bw_mbps = 53533.8;
  spec.write_bw_mbps = 53533.8;
  spec.capacity_bytes = capacity_bytes;
  return spec;
}

TierSpec TierSpec::Pmem(uint64_t capacity_bytes) {
  TierSpec spec;
  spec.media = MediaKind::kPmem;
  spec.read_latency_ns = 176.6;
  // Optane writes land in the on-DIMM buffer but sustained write bandwidth is
  // roughly a quarter of read bandwidth; latency under load is much worse.
  spec.write_latency_ns = 220.0;
  spec.read_bw_mbps = 21414.5;
  spec.write_bw_mbps = 7700.0;
  spec.capacity_bytes = capacity_bytes;
  return spec;
}

TierSpec TierSpec::Zswap(uint64_t capacity_bytes) {
  TierSpec spec;
  spec.media = MediaKind::kZswap;
  // Compressed-RAM pool fronting an SSD: the base store/load cost is the
  // (de)compression pass, a couple of orders of magnitude above DRAM but far
  // below the swap device itself (modeled separately by SwapDevice). lzo-rle
  // class throughput on one core.
  spec.read_latency_ns = 1500.0;
  spec.write_latency_ns = 2500.0;
  spec.read_bw_mbps = 4000.0;
  spec.write_bw_mbps = 3000.0;
  spec.capacity_bytes = capacity_bytes;
  return spec;
}

const char* MediaKindName(MediaKind media) {
  switch (media) {
    case MediaKind::kLocalDram:
      return "local-dram";
    case MediaKind::kRemoteDram:
      return "remote-dram(cxl)";
    case MediaKind::kPmem:
      return "pmem";
    case MediaKind::kZswap:
      return "zswap";
  }
  return "?";
}

void MemoryTier::ResetContention() {
  current_window_ = 0;
  next_window_start_ = kWindowNs;
  window_bytes_ = 0;
  prev_window_bytes_ = 0;
}

}  // namespace demeter
