// Reference model for the TLB oracle test: the structure-of-arrays TLB that
// src/mmu/tlb.h replaced, kept verbatim in behaviour. Four parallel arrays
// (vpn, insertion epoch, frame, global LRU tick) hold set-major entries; an
// entry is live iff its epoch equals the current one, and the victim is the
// last non-live way, else the live way with the lowest tick.
//
// The packed Tlb must match this model call for call: same returns, same
// stats, same cold-walk factors, same ForEachValid sequence.

#ifndef DEMETER_TESTS_SOA_TLB_REFERENCE_H_
#define DEMETER_TESTS_SOA_TLB_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "src/mmu/tlb.h"

namespace demeter {

class SoaTlbReference {
 public:
  SoaTlbReference(int num_sets, int ways)
      : num_sets_(num_sets),
        ways_(ways),
        vpns_(Cap(), ~0ULL),
        epochs_(Cap(), 0),
        frames_(Cap(), kInvalidFrame),
        lru_(Cap(), 0) {}

  FrameId Lookup(PageNum vpn) {
    const size_t base = SetOf(vpn);
    for (int w = 0; w < ways_; ++w) {
      const size_t i = base + static_cast<size_t>(w);
      if (epochs_[i] == epoch_ && vpns_[i] == vpn) {
        lru_[i] = ++tick_;
        ++stats_.hits;
        return frames_[i];
      }
    }
    ++stats_.misses;
    return kInvalidFrame;
  }

  void CountCoalescedHit() { ++stats_.hits; }

  void Insert(PageNum vpn, FrameId frame) {
    const size_t base = SetOf(vpn);
    size_t victim = base;
    bool victim_set = false;
    bool victim_live = false;
    for (int w = 0; w < ways_; ++w) {
      const size_t i = base + static_cast<size_t>(w);
      const bool live = epochs_[i] == epoch_;
      if (live && vpns_[i] == vpn) {
        frames_[i] = frame;
        lru_[i] = ++tick_;
        return;
      }
      if (!live) {
        victim = i;
        victim_set = true;
        victim_live = false;
      } else if (!victim_set || (victim_live && lru_[i] < lru_[victim])) {
        victim = i;
        victim_set = true;
        victim_live = true;
      }
    }
    vpns_[victim] = vpn;
    frames_[victim] = frame;
    lru_[victim] = ++tick_;
    epochs_[victim] = epoch_;
  }

  void InvalidatePage(PageNum vpn) {
    ++stats_.single_flushes;
    const size_t base = SetOf(vpn);
    for (int w = 0; w < ways_; ++w) {
      const size_t i = base + static_cast<size_t>(w);
      if (epochs_[i] == epoch_ && vpns_[i] == vpn) {
        epochs_[i] = 0;
        return;
      }
    }
  }

  void InvalidateAll() {
    ++stats_.full_flushes;
    ++epoch_;
    cold_walks_ = static_cast<uint64_t>(capacity());
  }

  double ConsumeWalkFactor() {
    if (cold_walks_ == 0) {
      return 1.0;
    }
    --cold_walks_;
    return 2.5;
  }

  template <typename Fn>
  void ForEachValid(Fn&& fn) const {
    for (size_t i = 0; i < epochs_.size(); ++i) {
      if (epochs_[i] == epoch_) {
        fn(vpns_[i], frames_[i]);
      }
    }
  }

  const TlbStats& stats() const { return stats_; }
  int capacity() const { return num_sets_ * ways_; }

 private:
  size_t Cap() const { return static_cast<size_t>(num_sets_) * static_cast<size_t>(ways_); }

  size_t SetOf(PageNum vpn) const {
    uint64_t h = vpn * 0x9e3779b97f4a7c15ULL;
    return static_cast<size_t>((h >> 32) % static_cast<uint64_t>(num_sets_)) *
           static_cast<size_t>(ways_);
  }

  int num_sets_;
  int ways_;
  std::vector<PageNum> vpns_;
  std::vector<uint64_t> epochs_;
  std::vector<FrameId> frames_;
  std::vector<uint64_t> lru_;
  uint64_t tick_ = 0;
  uint64_t epoch_ = 1;
  uint64_t cold_walks_ = 0;
  TlbStats stats_;
};

}  // namespace demeter

#endif  // DEMETER_TESTS_SOA_TLB_REFERENCE_H_
