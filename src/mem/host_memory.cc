#include "src/mem/host_memory.h"

#include <cstdlib>

#include "src/base/logging.h"

namespace demeter {

namespace {

uint64_t TotalFrames(const std::vector<TierSpec>& tiers) {
  uint64_t total = 0;
  for (const TierSpec& spec : tiers) {
    total += spec.capacity_pages();
  }
  return total;
}

}  // namespace

HostMemory::HostMemory(std::vector<TierSpec> tiers)
    : total_frames_(TotalFrames(tiers)), tokens_(total_frames_) {
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
    state.allocated.assign(state.num_frames, false);
    state.poisoned.assign(state.num_frames, false);
    base += state.num_frames;
    states_.push_back(std::move(state));
  }
}

void HostMemory::FrameOutOfRange(FrameId frame) const {
  DEMETER_CHECK_LT(frame, total_frames_) << "frame not in any tier";
  std::abort();  // Not reached: a failed CHECK aborts.
}

std::optional<FrameId> HostMemory::PopFree(TierState& state) {
  if (!state.returned.empty()) {
    const FrameId frame = state.returned.back();
    state.returned.pop_back();
    return frame;
  }
  if (state.fresh < state.num_frames) {
    return state.base + state.fresh++;
  }
  return std::nullopt;
}

std::optional<FrameId> HostMemory::Allocate(TierIndex t) {
  TierState& state = states_[static_cast<size_t>(t)];
  const std::optional<FrameId> frame = PopFree(state);
  if (frame.has_value()) {
    state.allocated[*frame - state.base] = true;
  }
  return frame;
}

void HostMemory::Free(FrameId frame) {
  const TierIndex t = TierOf(frame);
  TierState& state = states_[static_cast<size_t>(t)];
  DEMETER_CHECK(!state.poisoned[frame - state.base]) << "free of poisoned frame " << frame;
  DEMETER_CHECK(state.allocated[frame - state.base]) << "double free of frame " << frame;
  state.allocated[frame - state.base] = false;
  state.returned.push_back(frame);
  tokens_.Set(frame, 0);
}

void HostMemory::Poison(FrameId frame) {
  const TierIndex t = TierOf(frame);
  TierState& state = states_[static_cast<size_t>(t)];
  DEMETER_CHECK(state.allocated[frame - state.base]) << "poison of unallocated frame " << frame;
  DEMETER_CHECK(!state.poisoned[frame - state.base]) << "double poison of frame " << frame;
  state.allocated[frame - state.base] = false;
  state.poisoned[frame - state.base] = true;
  ++state.poisoned_count;
  tokens_.Set(frame, 0);
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
  for (; carved < max_frames; ++carved) {
    const std::optional<FrameId> frame = PopFree(state);
    if (!frame.has_value()) {
      break;
    }
    state.carved.push_back(*frame);
  }
  return carved;
}

void HostMemory::RestoreCarved(TierIndex t) {
  TierState& state = states_[static_cast<size_t>(t)];
  // Push back in reverse carve order so the free list ends up exactly as it
  // was before the carve (the last frame carved returns to the top).
  while (!state.carved.empty()) {
    state.returned.push_back(state.carved.back());
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
  const TierState& state = states_[static_cast<size_t>(t)];
  return state.returned.size() + (state.num_frames - state.fresh);
}

uint64_t HostMemory::UsedPages(TierIndex t) const {
  return CapacityPages(t) - FreePages(t) - PoisonedPages(t) - CarvedPages(t);
}

uint64_t HostMemory::ReadToken(FrameId frame) const {
  DEMETER_CHECK_LT(frame, total_frames_);
  return tokens_.Get(frame);
}

void HostMemory::WriteToken(FrameId frame, uint64_t token) {
  DEMETER_CHECK_LT(frame, total_frames_);
  tokens_.Set(frame, token);
}

}  // namespace demeter
