// Lock-free bounded multi-producer single-consumer channel.
//
// Demeter feeds PEBS samples from per-vCPU context-switch drains into the
// single range-classifier thread through this channel (§3.2.2). The
// implementation is Vyukov's bounded MPMC ring (each slot carries a sequence
// number), used here in MPSC mode. Push never blocks: when the ring is full
// the sample is dropped and counted, exactly as a fixed sample channel in a
// kernel would shed load.

#ifndef DEMETER_SRC_GUEST_MPSC_CHANNEL_H_
#define DEMETER_SRC_GUEST_MPSC_CHANNEL_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/base/chunked_array.h"
#include "src/base/logging.h"

namespace demeter {

template <typename T>
class MpscChannel {
 public:
  explicit MpscChannel(size_t capacity_pow2) : mask_(capacity_pow2 - 1), slots_(capacity_pow2) {
    DEMETER_CHECK_GT(capacity_pow2, 0u);
    DEMETER_CHECK_EQ(capacity_pow2 & mask_, 0u) << "capacity must be a power of two";
  }

  // Producer side; safe to call from multiple threads concurrently.
  // Returns false (and counts a drop) when the channel is full.
  bool Push(const T& value) {
    uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      const size_t index = pos & mask_;
      Slot& slot = slots_.Touch(index);
      const uint64_t seq = slot.sequence_minus_index.load(std::memory_order_acquire) + index;
      const int64_t diff = static_cast<int64_t>(seq) - static_cast<int64_t>(pos);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          slot.value = value;
          slot.sequence_minus_index.store(pos + 1 - index, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return false;  // Full.
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  // Consumer side; single thread only.
  std::optional<T> Pop() {
    const uint64_t pos = head_;
    const size_t index = pos & mask_;
    Slot* slot = slots_.Find(index);
    if (slot == nullptr) {
      return std::nullopt;  // Empty: no producer has reached this chunk.
    }
    const uint64_t seq = slot->sequence_minus_index.load(std::memory_order_acquire) + index;
    const int64_t diff = static_cast<int64_t>(seq) - static_cast<int64_t>(pos + 1);
    if (diff < 0) {
      return std::nullopt;  // Empty.
    }
    T value = std::move(slot->value);
    slot->sequence_minus_index.store(pos + mask_ + 1 - index, std::memory_order_release);
    ++head_;
    return value;
  }

  // Drains up to `max` items into `out`; returns the count. Consumer only.
  size_t PopBatch(std::vector<T>* out, size_t max) {
    size_t n = 0;
    while (n < max) {
      auto v = Pop();
      if (!v.has_value()) {
        break;
      }
      out->push_back(std::move(*v));
      ++n;
    }
    return n;
  }

  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  size_t capacity() const { return mask_ + 1; }

 private:
  struct Slot {
    std::atomic<uint64_t> sequence_minus_index{0};
    T value{};
  };

  size_t mask_;
  ChunkedArray<Slot> slots_;
  std::atomic<uint64_t> tail_{0};  // Producers claim slots here.
  uint64_t head_ = 0;              // Single consumer cursor.
  std::atomic<uint64_t> dropped_{0};
};

}  // namespace demeter

#endif  // DEMETER_SRC_GUEST_MPSC_CHANNEL_H_
