// Cross-query kernel batching (DESIGN.md §12). When several co-admitted
// queries have a GPU decode or intersect step ready at nearly the same
// simulated time, a real server would fuse them into one grid (GPUSparse's
// batched parallel traversal; GRAB-ANNS's throughput-first batching —
// PAPERS.md): one launch, the lanes of underfilled kernels co-resident on
// the SMs. The BatchComposer finds those coalescing opportunities among the
// DeviceManager's active lanes; the timing discount itself lives in
// gpu::GpuExecutor::charge_kernel (shared launch overhead split K ways,
// body time scaled by warp fill). Batching never touches result bits —
// each member still runs its own kernels over its own data.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/plan.h"
#include "core/query.h"
#include "sim/time.h"
#include "sim/timeline.h"

namespace griffin::tenancy {

/// Cap on queries fused into one launch.
inline constexpr std::uint32_t kMaxBatch = 8;

struct BatchOptions {
  bool enabled = true;
  /// How far ahead of the leader's frontier a co-tenant step may be and
  /// still join its batch — the launch-coalescing window a batching driver
  /// would hold a kernel for. Modeled after the kernel launch overhead
  /// (~10us): waiting longer than a couple of launches defeats the purpose.
  sim::Duration window = sim::Duration::from_us(20.0);
};

/// A step another query's identical-kind GPU step can fuse with: GPU-placed
/// decode or intersect. Transfers, prefetches, ranking, and CPU steps never
/// batch. Returns the kind to match on, or nullopt.
inline std::optional<core::StepKind> batchable_kind(
    const core::PlanStep& step) {
  if (const auto* d = std::get_if<core::DecodeStep>(&step)) {
    if (d->where == core::Placement::kGpu) return core::StepKind::kDecode;
    return std::nullopt;
  }
  if (const auto* i = std::get_if<core::IntersectStep>(&step)) {
    if (i->where == core::Placement::kGpu) return core::StepKind::kIntersect;
    return std::nullopt;
  }
  return std::nullopt;
}

/// Groups compatible ready steps from co-admitted queries into batched
/// launches. Stateless except for the monotonically increasing group id
/// that tags the members' StepRecords.
class BatchComposer {
 public:
  explicit BatchComposer(BatchOptions opt = {}) : opt_(opt) {}

  /// One candidate lane: its index, the frontier time its next step issues
  /// at, and that step (nullptr when the lane has none ready).
  struct Candidate {
    std::size_t lane = 0;
    sim::Duration frontier;
    const core::PlanStep* step = nullptr;
  };

  /// Composes the batch led by `leader` (the min-frontier lane): every
  /// other candidate whose step has the same batchable kind and whose
  /// frontier lies within `window` of the leader's joins, up to kMaxBatch
  /// members. Returns the member lane indices in ascending order (the
  /// deterministic execution order); a batch of one means "unbatched".
  std::vector<std::size_t> compose(
      const Candidate& leader, const std::vector<Candidate>& others) const {
    std::vector<std::size_t> members{leader.lane};
    if (!opt_.enabled || leader.step == nullptr) return members;
    const auto kind = batchable_kind(*leader.step);
    if (!kind.has_value()) return members;
    for (const auto& c : others) {
      if (members.size() >= kMaxBatch) break;
      if (c.lane == leader.lane || c.step == nullptr) continue;
      if (batchable_kind(*c.step) != kind) continue;
      // The leader has the earliest frontier; a member may only be ahead
      // by the coalescing window.
      if (c.frontier - leader.frontier > opt_.window) continue;
      members.push_back(c.lane);
    }
    std::sort(members.begin(), members.end());
    return members;
  }

  /// Allocates the next batch-group id (1-based; 0 = unbatched).
  std::uint64_t next_group() { return next_group_++; }
  /// Batches composed so far.
  std::uint64_t groups() const { return next_group_ - 1; }

  const BatchOptions& options() const { return opt_; }

 private:
  BatchOptions opt_;
  std::uint64_t next_group_ = 1;
};

}  // namespace griffin::tenancy
