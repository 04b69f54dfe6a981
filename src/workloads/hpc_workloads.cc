#include "src/workloads/hpc_workloads.h"

#include "src/base/logging.h"

namespace demeter {

// ---- BwavesWorkload ----------------------------------------------------------

BwavesWorkload::BwavesWorkload(BwavesConfig config) : config_(config) {
  footprint_bytes_ = config.footprint_bytes;
}

void BwavesWorkload::Setup(GuestProcess& process, Rng& rng) {
  (void)rng;
  array_bytes_ = PageFloor(config_.footprint_bytes / static_cast<uint64_t>(config_.num_arrays));
  for (int a = 0; a < config_.num_arrays; ++a) {
    array_base_.push_back(process.HeapAlloc(array_bytes_));
  }
  cursor_.assign(64, 0);  // Up to 64 workers.
}

void BwavesWorkload::NextBatch(int worker, size_t count, Rng& rng, std::vector<AccessOp>* ops) {
  (void)rng;
  uint64_t& pos = cursor_[static_cast<size_t>(worker) % cursor_.size()];
  const size_t steps = count / static_cast<size_t>(OpsPerTransaction());
  // Workers sweep disjoint offsets of the same grids (domain decomposition).
  const uint64_t worker_shift =
      static_cast<uint64_t>(worker) * (array_bytes_ / 8) % array_bytes_;
  for (size_t s = 0; s < steps; ++s) {
    const uint64_t a = s % array_base_.size();
    const uint64_t off = (worker_shift + pos) % (array_bytes_ - 8);
    const uint64_t base = array_base_[a];
    ops->push_back(AccessOp{base + off, false});  // Centre.
    ops->push_back(AccessOp{base + (off + config_.plane_bytes) % (array_bytes_ - 8), false});
    ops->push_back(
        AccessOp{base + (off + array_bytes_ - config_.plane_bytes) % (array_bytes_ - 8), false});
    ops->push_back(AccessOp{base + off, true});  // Result write.
    pos = (pos + 64) % (array_bytes_ - 8);       // Streaming stride.
  }
}

// ---- XsbenchWorkload -----------------------------------------------------------

XsbenchWorkload::XsbenchWorkload(XsbenchConfig config) : config_(config) {
  footprint_bytes_ = config.footprint_bytes;
}

void XsbenchWorkload::Setup(GuestProcess& process, Rng& rng) {
  (void)rng;
  unionized_bytes_ = PageCeil(static_cast<uint64_t>(
      config_.unionized_fraction * static_cast<double>(config_.footprint_bytes)));
  nuclide_bytes_ = config_.footprint_bytes - unionized_bytes_;
  // Nuclide grids are allocated first (init touches them first), so the hot
  // unionized grid starts life in SMEM — TMM must find and promote it.
  nuclide_base_ = process.HeapAlloc(nuclide_bytes_);
  unionized_base_ = process.HeapAlloc(unionized_bytes_);
}

void XsbenchWorkload::NextBatch(int worker, size_t count, Rng& rng, std::vector<AccessOp>* ops) {
  (void)worker;
  const size_t per_lookup = static_cast<size_t>(OpsPerTransaction());
  const size_t lookups = count / per_lookup;
  const size_t first = ops->size();
  ops->resize(first + lookups * per_lookup);
  AccessOp* out = ops->data() + first;
  for (size_t l = 0; l < lookups; ++l) {
    // Binary search of the unionized energy grid: touches cluster around a
    // random energy point with shrinking stride.
    uint64_t lo = 0;
    uint64_t hi = unionized_bytes_ - 8;
    for (int i = 0; i < config_.grid_searches_per_lookup; ++i) {
      const uint64_t mid = lo + (hi - lo) / 2;
      *out++ = AccessOp{unionized_base_ + mid, false};
      if (rng.NextBool(0.5)) {
        lo = mid;
      } else {
        hi = mid;
      }
      if (hi - lo < 64) {
        hi = lo + 64;
      }
    }
    // Gathers from the per-nuclide grids: uniform, cold.
    for (int i = 0; i < config_.nuclide_reads_per_lookup; ++i) {
      *out++ = AccessOp{nuclide_base_ + rng.NextBelow(nuclide_bytes_ - 8), false};
    }
  }
}

}  // namespace demeter
