#include "src/mem/host_memory.h"

#include <cstdlib>

#include "src/base/logging.h"

namespace demeter {

HostMemory::HostMemory(std::vector<TierSpec> tiers) {
  DEMETER_CHECK(!tiers.empty());
  DEMETER_CHECK_LE(tiers.size(), static_cast<size_t>(kMaxTiers));
  upper_base_.fill(kInvalidFrame);
  FrameId base = 0;
  for (const TierSpec& spec : tiers) {
    if (!states_.empty()) {
      upper_base_[states_.size() - 1] = base;
    }
    tiers_.emplace_back(spec);
    TierState state;
    state.base = base;
    state.num_frames = spec.capacity_pages();
    state.free_list.reserve(state.num_frames);
    // Push in reverse so the LIFO hands out low frame numbers first.
    for (uint64_t i = state.num_frames; i > 0; --i) {
      state.free_list.push_back(base + i - 1);
    }
    state.allocated.assign(state.num_frames, false);
    state.poisoned.assign(state.num_frames, false);
    base += state.num_frames;
    states_.push_back(std::move(state));
  }
  total_frames_ = base;
  tokens_.assign(total_frames_, 0);
}

void HostMemory::FrameOutOfRange(FrameId frame) const {
  DEMETER_CHECK_LT(frame, total_frames_) << "frame not in any tier";
  std::abort();  // Not reached: a failed CHECK aborts.
}

std::optional<FrameId> HostMemory::Allocate(TierIndex t) {
  TierState& state = states_[static_cast<size_t>(t)];
  if (state.free_list.empty()) {
    return std::nullopt;
  }
  const FrameId frame = state.free_list.back();
  state.free_list.pop_back();
  state.allocated[frame - state.base] = true;
  return frame;
}

void HostMemory::Free(FrameId frame) {
  const TierIndex t = TierOf(frame);
  TierState& state = states_[static_cast<size_t>(t)];
  DEMETER_CHECK(!state.poisoned[frame - state.base]) << "free of poisoned frame " << frame;
  DEMETER_CHECK(state.allocated[frame - state.base]) << "double free of frame " << frame;
  state.allocated[frame - state.base] = false;
  state.free_list.push_back(frame);
  tokens_[frame] = 0;
}

void HostMemory::Poison(FrameId frame) {
  const TierIndex t = TierOf(frame);
  TierState& state = states_[static_cast<size_t>(t)];
  DEMETER_CHECK(state.allocated[frame - state.base]) << "poison of unallocated frame " << frame;
  DEMETER_CHECK(!state.poisoned[frame - state.base]) << "double poison of frame " << frame;
  state.allocated[frame - state.base] = false;
  state.poisoned[frame - state.base] = true;
  ++state.poisoned_count;
  tokens_[frame] = 0;
}

bool HostMemory::IsPoisoned(FrameId frame) const {
  const TierIndex t = TierOf(frame);
  const TierState& state = states_[static_cast<size_t>(t)];
  return state.poisoned[frame - state.base];
}

uint64_t HostMemory::PoisonedPages(TierIndex t) const {
  return states_[static_cast<size_t>(t)].poisoned_count;
}

uint64_t HostMemory::CarveFree(TierIndex t, uint64_t max_frames) {
  TierState& state = states_[static_cast<size_t>(t)];
  uint64_t carved = 0;
  while (carved < max_frames && !state.free_list.empty()) {
    state.carved.push_back(state.free_list.back());
    state.free_list.pop_back();
    ++carved;
  }
  return carved;
}

void HostMemory::RestoreCarved(TierIndex t) {
  TierState& state = states_[static_cast<size_t>(t)];
  // Push back in reverse carve order so the free list ends up exactly as it
  // was before the carve (the last frame carved returns to the top).
  while (!state.carved.empty()) {
    state.free_list.push_back(state.carved.back());
    state.carved.pop_back();
  }
}

uint64_t HostMemory::CarvedPages(TierIndex t) const {
  return states_[static_cast<size_t>(t)].carved.size();
}

bool HostMemory::IsAllocated(FrameId frame) const {
  const TierIndex t = TierOf(frame);
  const TierState& state = states_[static_cast<size_t>(t)];
  return state.allocated[frame - state.base];
}

uint64_t HostMemory::CapacityPages(TierIndex t) const {
  return states_[static_cast<size_t>(t)].num_frames;
}

uint64_t HostMemory::FreePages(TierIndex t) const {
  return states_[static_cast<size_t>(t)].free_list.size();
}

uint64_t HostMemory::UsedPages(TierIndex t) const {
  return CapacityPages(t) - FreePages(t) - PoisonedPages(t) - CarvedPages(t);
}

uint64_t HostMemory::ReadToken(FrameId frame) const {
  DEMETER_CHECK_LT(frame, total_frames_);
  return tokens_[frame];
}

void HostMemory::WriteToken(FrameId frame, uint64_t token) {
  DEMETER_CHECK_LT(frame, total_frames_);
  tokens_[frame] = token;
}

}  // namespace demeter
