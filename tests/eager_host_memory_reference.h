// Reference model for the frame-allocator oracle test: the eager allocator
// that src/mem/host_memory.h replaced, kept verbatim in behaviour. Each tier
// builds its full LIFO free list at construction (lowest frame on top) and
// every frame has a token slot from the start.
//
// HostMemory must match this model call for call: same frame ids, same free,
// carved and poisoned counts, same allocation and poison state, same tokens.

#ifndef DEMETER_TESTS_EAGER_HOST_MEMORY_REFERENCE_H_
#define DEMETER_TESTS_EAGER_HOST_MEMORY_REFERENCE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/base/logging.h"
#include "src/mem/host_memory.h"

namespace demeter {

class EagerHostMemoryReference {
 public:
  // One entry per tier: its capacity in frames.
  explicit EagerHostMemoryReference(const std::vector<uint64_t>& tier_frames) {
    FrameId base = 0;
    for (const uint64_t frames : tier_frames) {
      TierState state;
      state.base = base;
      state.num_frames = frames;
      state.free_list.reserve(frames);
      // Push in reverse so the LIFO hands out low frame numbers first.
      for (uint64_t i = frames; i > 0; --i) {
        state.free_list.push_back(base + i - 1);
      }
      state.allocated.assign(frames, false);
      state.poisoned.assign(frames, false);
      base += frames;
      states_.push_back(std::move(state));
    }
    tokens_.assign(base, 0);
  }

  std::optional<FrameId> Allocate(TierIndex t) {
    TierState& state = states_[static_cast<size_t>(t)];
    if (state.free_list.empty()) {
      return std::nullopt;
    }
    const FrameId frame = state.free_list.back();
    state.free_list.pop_back();
    state.allocated[frame - state.base] = true;
    return frame;
  }

  void Free(FrameId frame) {
    TierState& state = StateOf(frame);
    DEMETER_CHECK(!state.poisoned[frame - state.base]);
    DEMETER_CHECK(state.allocated[frame - state.base]);
    state.allocated[frame - state.base] = false;
    state.free_list.push_back(frame);
    tokens_[frame] = 0;
  }

  void Poison(FrameId frame) {
    TierState& state = StateOf(frame);
    DEMETER_CHECK(state.allocated[frame - state.base]);
    DEMETER_CHECK(!state.poisoned[frame - state.base]);
    state.allocated[frame - state.base] = false;
    state.poisoned[frame - state.base] = true;
    ++state.poisoned_count;
    tokens_[frame] = 0;
  }

  uint64_t CarveFree(TierIndex t, uint64_t max_frames) {
    TierState& state = states_[static_cast<size_t>(t)];
    uint64_t carved = 0;
    while (carved < max_frames && !state.free_list.empty()) {
      state.carved.push_back(state.free_list.back());
      state.free_list.pop_back();
      ++carved;
    }
    return carved;
  }

  void RestoreCarved(TierIndex t) {
    TierState& state = states_[static_cast<size_t>(t)];
    while (!state.carved.empty()) {
      state.free_list.push_back(state.carved.back());
      state.carved.pop_back();
    }
  }

  bool IsAllocated(FrameId frame) {
    TierState& state = StateOf(frame);
    return state.allocated[frame - state.base];
  }
  bool IsPoisoned(FrameId frame) {
    TierState& state = StateOf(frame);
    return state.poisoned[frame - state.base];
  }

  uint64_t FreePages(TierIndex t) const { return states_[static_cast<size_t>(t)].free_list.size(); }
  uint64_t CarvedPages(TierIndex t) const { return states_[static_cast<size_t>(t)].carved.size(); }
  uint64_t PoisonedPages(TierIndex t) const {
    return states_[static_cast<size_t>(t)].poisoned_count;
  }

  uint64_t ReadToken(FrameId frame) const { return tokens_[frame]; }
  void WriteToken(FrameId frame, uint64_t token) { tokens_[frame] = token; }

  uint64_t total_frames() const { return tokens_.size(); }

 private:
  struct TierState {
    FrameId base = 0;
    uint64_t num_frames = 0;
    std::vector<FrameId> free_list;  // LIFO.
    std::vector<bool> allocated;
    std::vector<bool> poisoned;
    uint64_t poisoned_count = 0;
    std::vector<FrameId> carved;  // Stack of frames removed by CarveFree.
  };

  TierState& StateOf(FrameId frame) {
    for (TierState& state : states_) {
      if (frame >= state.base && frame < state.base + state.num_frames) {
        return state;
      }
    }
    DEMETER_CHECK(false) << "frame not in any tier";
    return states_.front();
  }

  std::vector<TierState> states_;
  std::vector<uint64_t> tokens_;
};

}  // namespace demeter

#endif  // DEMETER_TESTS_EAGER_HOST_MEMORY_REFERENCE_H_
