// Fixed-length array that allocates its storage one chunk at a time, on the
// first write into each chunk.
//
// Until a chunk is written, each of its elements reads as value-initialised
// (zero for arithmetic types). An array a run touches sparsely therefore
// costs one pointer per chunk plus the chunks it touches, never more than
// the eager array would. Chunks live until the array does. The zero state
// comes from value-initialising each chunk when it is allocated, not from
// the allocator handing back fresh pages, so it holds however the heap has
// been used before.
//
// Finding and installing chunks is lock-free and safe from several threads
// at once: a writer that finds its chunk missing allocates a zeroed copy and
// installs it with a compare-and-swap, and the loser of a race frees its
// copy and uses the winner's. The elements themselves are not synchronised;
// threads that share elements make them atomic (see MpscChannel).

#ifndef DEMETER_SRC_BASE_CHUNKED_ARRAY_H_
#define DEMETER_SRC_BASE_CHUNKED_ARRAY_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <memory>

namespace demeter {

template <typename T>
class ChunkedArray {
 public:
  // About 4 KiB per chunk, rounded down to a power of two elements.
  static constexpr size_t kChunkElems = std::bit_floor(std::max<size_t>(1, 4096 / sizeof(T)));

  explicit ChunkedArray(size_t size)
      : size_(size),
        num_chunks_((size + kChunkElems - 1) / kChunkElems),
        chunks_(std::make_unique<std::atomic<T*>[]>(num_chunks_)) {}

  ~ChunkedArray() {
    for (size_t c = 0; c < num_chunks_; ++c) {
      delete[] chunks_[c].load(std::memory_order_relaxed);
    }
  }

  ChunkedArray(const ChunkedArray&) = delete;
  ChunkedArray& operator=(const ChunkedArray&) = delete;

  // Element `i` (< the array size), or nullptr while its chunk has never been written.
  T* Find(size_t i) const {
    T* chunk = chunks_[i / kChunkElems].load(std::memory_order_acquire);
    return chunk == nullptr ? nullptr : chunk + i % kChunkElems;
  }

  // Element `i` (< the array size), allocating its chunk on first use.
  T& Touch(size_t i) {
    std::atomic<T*>& slot = chunks_[i / kChunkElems];
    T* chunk = slot.load(std::memory_order_acquire);
    if (chunk == nullptr) [[unlikely]] {
      chunk = Install(slot, i / kChunkElems);
    }
    return chunk[i % kChunkElems];
  }

  // Value of element `i`: T{} while its chunk is absent.
  T Get(size_t i) const {
    const T* element = Find(i);
    return element == nullptr ? T{} : *element;
  }

  // Stores `value` at `i`. Storing T{} into an absent chunk changes nothing
  // a reader can see, so it allocates nothing.
  void Set(size_t i, const T& value) {
    if (value != T{}) {
      Touch(i) = value;
    } else if (T* element = Find(i)) {
      *element = value;
    }
  }

 private:
  [[gnu::noinline]] T* Install(std::atomic<T*>& slot, size_t chunk_index) {
    // The last chunk holds only the tail, so a small array stays small.
    const size_t len = std::min(kChunkElems, size_ - chunk_index * kChunkElems);
    T* fresh = new T[len]();
    T* installed = nullptr;
    if (slot.compare_exchange_strong(installed, fresh, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      return fresh;
    }
    delete[] fresh;  // Another thread installed this chunk first.
    return installed;
  }

  size_t size_;
  size_t num_chunks_;
  std::unique_ptr<std::atomic<T*>[]> chunks_;
};

}  // namespace demeter

#endif  // DEMETER_SRC_BASE_CHUNKED_ARRAY_H_
