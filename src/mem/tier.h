// Memory-tier performance model.
//
// Tier latency/bandwidth figures default to the paper's Table 2 (measured on
// the authors' testbed with Intel Memory Latency Checker):
//   L2 hit          53.6 ns
//   local DRAM      68.7 ns   88156.5 MB/s
//   remote DRAM    121.9 ns   53533.8 MB/s   (used to emulate CXL.mem, as Pond does)
//   local PMEM     176.6 ns   21414.5 MB/s
//
// A utilization-based queueing model adds contention: transferred bytes are
// accounted into coarse virtual-time windows, and the latency of an access
// is inflated by an M/M/1-style factor of the tier's recent utilization.
// The window (1 ms) is wider than any scheduling skew between vCPU clocks,
// so loosely synchronized callers see a consistent load estimate. PMEM
// writes are additionally penalized (Optane write latency/bandwidth
// asymmetry, per "An Empirical Guide to the Behavior and Use of Scalable
// Persistent Memory").

#ifndef DEMETER_SRC_MEM_TIER_H_
#define DEMETER_SRC_MEM_TIER_H_

#include <algorithm>
#include <cstdint>
#include <string>

#include "src/base/units.h"

namespace demeter {

enum class MediaKind : int {
  kLocalDram = 0,
  kRemoteDram = 1,  // Also CXL.mem emulation.
  kPmem = 2,
  kZswap = 3,  // Compressed-RAM/SSD far tier (swap backend).
};

struct TierSpec {
  MediaKind media = MediaKind::kLocalDram;
  double read_latency_ns = 68.7;
  double write_latency_ns = 68.7;
  double read_bw_mbps = 88156.5;
  double write_bw_mbps = 88156.5;
  uint64_t capacity_bytes = 0;

  uint64_t capacity_pages() const { return capacity_bytes / kPageSize; }

  static TierSpec LocalDram(uint64_t capacity_bytes);
  static TierSpec RemoteDram(uint64_t capacity_bytes);  // CXL.mem emulation.
  static TierSpec Pmem(uint64_t capacity_bytes);
  static TierSpec Zswap(uint64_t capacity_bytes);  // Far tier (swap backend).
};

// Cache-hit latency (does not reach any memory tier).
inline constexpr double kL2HitLatencyNs = 53.6;

const char* MediaKindName(MediaKind media);

// Runtime state of one tier: the static spec plus a bandwidth-queueing
// horizon. AccessCost() is the only mutator; it both returns the effective
// latency of a transfer issued at `now` and advances the horizon.
class MemoryTier {
 public:
  explicit MemoryTier(const TierSpec& spec) : spec_(spec) {
    // Hot-path constants. The spec is fixed for the tier's lifetime, so the
    // direction bandwidths, the 64-byte (cacheline) service times, and the
    // utilization window capacity are computed once here — with exactly the
    // expressions AccessCost()/Utilization() used to evaluate per call, so
    // every returned latency is bit-identical to the uncached arithmetic.
    read_bytes_per_ns_ = std::max(spec_.read_bw_mbps, kMinBandwidthMbps) * 1e-3;
    write_bytes_per_ns_ = std::max(spec_.write_bw_mbps, kMinBandwidthMbps) * 1e-3;
    service_read_line_ = static_cast<double>(kLineBytes) / read_bytes_per_ns_;
    service_write_line_ = static_cast<double>(kLineBytes) / write_bytes_per_ns_;
    const double avg_bw = (2.0 * spec_.read_bw_mbps + spec_.write_bw_mbps) / 3.0;
    window_capacity_bytes_ = (avg_bw * 1e-3) * 2.0 * static_cast<double>(kWindowNs);
  }

  const TierSpec& spec() const { return spec_; }

  // Effective latency in ns of transferring `bytes` at virtual time `now`:
  // (base latency + service time) inflated by recent-utilization queueing.
  // Defined inline below: this runs once per simulated access and is the
  // single hottest leaf of the whole pipeline.
  double AccessCost(Nanos now, uint64_t bytes, bool is_write);

  // Current utilization estimate in [0, kMaxUtilization].
  double Utilization() const;

  // Total bytes moved through this tier (reads + writes).
  uint64_t bytes_transferred() const { return bytes_transferred_; }

  void ResetContention();

  static constexpr Nanos kWindowNs = kMillisecond;
  static constexpr double kMaxUtilization = 0.95;
  // Guards against degenerate specs / fully-carved tiers: a direction
  // bandwidth below this floor is clamped (AccessCost stays finite), and a
  // per-window byte capacity below kMinWindowCapacityBytes pins Utilization
  // at kMaxUtilization whenever any traffic is present (no divide-by-~zero).
  static constexpr double kMinBandwidthMbps = 1.0;
  static constexpr double kMinWindowCapacityBytes = 1.0;
  // Transfer size of a demand access (one cacheline); its service time is
  // precomputed because virtually every AccessCost call uses it.
  static constexpr uint64_t kLineBytes = 64;

 private:
  TierSpec spec_;
  uint64_t current_window_ = 0;
  Nanos next_window_start_ = kWindowNs;  // (current_window_ + 1) * kWindowNs.
  uint64_t window_bytes_ = 0;
  uint64_t prev_window_bytes_ = 0;
  uint64_t bytes_transferred_ = 0;
  // Constants derived from spec_ at construction (see ctor).
  double read_bytes_per_ns_ = 0.0;
  double write_bytes_per_ns_ = 0.0;
  double service_read_line_ = 0.0;
  double service_write_line_ = 0.0;
  double window_capacity_bytes_ = 0.0;
};

inline double MemoryTier::Utilization() const {
  // Average read/write bandwidth weighted 2:1 toward reads as the capacity
  // reference (precomputed in the ctor); precise per-direction accounting is
  // below the model's noise.
  // A tier whose effective capacity has collapsed (a tiershrink carve taking
  // a small tier to empty, or a degenerate spec) must saturate, not divide
  // by ~zero: any traffic against no capacity is full contention.
  if (window_capacity_bytes_ < kMinWindowCapacityBytes) {
    return (window_bytes_ + prev_window_bytes_) > 0 ? kMaxUtilization : 0.0;
  }
  const double util =
      static_cast<double>(window_bytes_ + prev_window_bytes_) / window_capacity_bytes_;
  return std::min(util, kMaxUtilization);
}

inline double MemoryTier::AccessCost(Nanos now, uint64_t bytes, bool is_write) {
  const double base = is_write ? spec_.write_latency_ns : spec_.read_latency_ns;
  // Direction bandwidths are floored at construction so a zero/near-zero
  // spec yields a very slow but finite service time instead of inf/NaN
  // poisoning every downstream cost accumulator. The cacheline service time
  // is precomputed: demand accesses dominate and all transfer 64 bytes.
  const double service =
      bytes == kLineBytes
          ? (is_write ? service_write_line_ : service_read_line_)
          : static_cast<double>(bytes) / (is_write ? write_bytes_per_ns_ : read_bytes_per_ns_);

  // A new window starts exactly when `now` reaches the cached start of the
  // next one, so the division only runs on rollover.
  if (now >= next_window_start_) {
    const uint64_t window = now / kWindowNs;
    prev_window_bytes_ = (window == current_window_ + 1) ? window_bytes_ : 0;
    current_window_ = window;
    next_window_start_ = (window + 1) * kWindowNs;
    window_bytes_ = 0;
  }
  // Accesses timestamped behind the newest window (vCPU clock skew) fold
  // into the current window: load is load, wherever the clock says it came
  // from.
  window_bytes_ += bytes;
  bytes_transferred_ += bytes;

  const double util = Utilization();
  const double queue_factor = util * util / (1.0 - util);  // M/M/1-flavoured.
  return (base + service) * (1.0 + queue_factor);
}

}  // namespace demeter

#endif  // DEMETER_SRC_MEM_TIER_H_
