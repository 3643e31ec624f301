// The shared step executor (DESIGN.md §8): runs one physical plan step at a
// time, dispatching CPU steps to cpu::SvsStepper, GPU steps to
// gpu::GpuExecutor, and transfer steps to the PCIe link the GpuExecutor
// owns. Both backends are always present (core::Backends builds them); the
// CPU-only and GPU-only engines differ only in a scheduler policy that
// never places a step on the other one.
//
// Every run() appends a StepRecord to QueryResult::trace by snapshotting
// the QueryMetrics stage totals around the dispatch, so per-step durations
// sum to the stage totals *by construction* — the backends' charging code
// is untouched, which is what keeps execution bit-identical to the
// pre-plan-layer engines.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/plan.h"
#include "core/planner.h"
#include "core/query.h"
#include "cpu/bm25.h"
#include "cpu/svs_step.h"
#include "gpu/engine.h"

namespace griffin::core {

class StepExecutor : public ResidencyProbe {
 public:
  /// Both backends are required; ranking runs on the host under
  /// `rank_spec`. A non-null `injector` arms fault injection (DESIGN.md
  /// §11): GPU compute steps may be abandoned (degrading the plan to the
  /// CPU) and the GpuExecutor's DMAs draw PCIe error coordinates.
  /// `fault_scope` is the shard id in a cluster, 0 standalone.
  StepExecutor(sim::CpuSpec rank_spec, cpu::SvsStepper* svs,
               gpu::GpuExecutor* gpu, const cpu::Bm25Scorer& scorer,
               const fault::FaultInjector* injector = nullptr,
               std::uint32_t fault_scope = 0)
      : rank_spec_(rank_spec),
        svs_(svs),
        gpu_(gpu),
        scorer_(&scorer),
        injector_(injector),
        fault_scope_(fault_scope) {
    gpu_->set_fault_injector(injector, fault_scope);
  }

  /// Binds this executor to a shared multi-tenant timeline (DESIGN.md §12).
  /// The next begin_query() opens its streams at `release` (the admission
  /// time) inside a fresh accounting scope instead of resetting a private
  /// timeline, so ops from co-admitted queries contend for the same
  /// per-resource busy clocks. Call before every begin_query() while
  /// shared; pass nullptr to return to private single-tenant mode.
  void bind_shared(sim::Timeline* tl, sim::Duration release = {}) {
    tl_ = tl != nullptr ? tl : &own_tl_;
    release_ = tl != nullptr ? release : sim::Duration();
  }

  /// Resets per-query state (host intermediate, device buffers) and the
  /// timeline (DESIGN.md §10): one CPU stream here, one copy + one compute
  /// stream inside the GpuExecutor. On a shared timeline the streams open
  /// at the bound release time and the timeline itself is left intact.
  /// The query keys fault coordinates.
  void begin_query(const Query& q);

  /// Executes one step: charges res.metrics through the backend, mirrors
  /// the charges onto the timeline, and appends the StepRecord (with its
  /// issue/start/end placement) to res.trace. The caller hands the returned
  /// StepStatus to Planner::recover.
  StepStatus run(const PlanStep& step, const Query& q, QueryResult& res);

  /// Releases device buffers (dropping unconsumed prefetches into m), then
  /// settles the asynchronous accounting: m.total becomes the timeline's
  /// critical path and m.overlap.saved the exact serial difference, so
  /// decode + intersect + transfer + rank == total + overlap.saved in
  /// integer picoseconds.
  void finish_query(QueryMetrics& m);

  /// Current intermediate-result size, wherever it lives.
  std::uint64_t intermediate_count() const;
  /// Where the intermediate lives; nullopt before the first step.
  std::optional<Placement> location() const { return loc_; }

  // ResidencyProbe: stat-free cache probes for the planner's StepShapes.
  bool device_resident(index::TermId t) const override {
    return gpu_->device_resident(t);
  }
  bool host_decoded(index::TermId t) const override {
    return svs_->host_decoded(t);
  }
  bool prefetched(index::TermId t) const override {
    return gpu_->prefetched(t);
  }

  const sim::Timeline& timeline() const { return *tl_; }

  /// The plan frontier's completion time: when this query's latest step
  /// finishes on the shared timeline. The tenancy DeviceManager steps the
  /// lane whose frontier is earliest (min-frontier interleave).
  sim::Timeline::Event frontier() const { return frontier_; }

  /// Marks the next decode/intersect step as a member of a cross-query
  /// kernel batch of `size` queries (tenancy BatchComposer). Forwarded to
  /// the GpuExecutor's launch-overhead/warp-fill model; `group` tags the
  /// StepRecord. size <= 1 restores unbatched accounting.
  void set_batch(std::uint32_t size, std::uint64_t group);

 private:
  void dispatch(const PlanStep& step, const Query& q, QueryResult& res);
  /// The fault-abort path of run(): charges `waste` as lost device time,
  /// resets the GpuExecutor's per-step state, and appends the faulted
  /// StepRecord. `oom` selects which FaultCounters the abandon lands in
  /// (gpu_faults/gpu_wasted vs oom_degraded_steps/oom_recovery).
  void abandon_gpu_step(const PlanStep& step, QueryResult& res,
                        sim::Duration waste, bool oom);
  /// A device fault (or a bottomed-out OOM ladder) killed a kPrefetch
  /// upload: append a zero-duration faulted record and count it. The cache
  /// is never touched — the dropped upload cannot poison it — and the plan
  /// continues unchanged (a prefetch is optional work).
  void drop_faulted_prefetch(const PrefetchStep& p, QueryResult& res);
  /// Executes a kSplit intersect (DESIGN.md §15): partitions the sorted
  /// probe side at index round((1-alpha)*n) — low docID range to the CPU's
  /// SvS stepper, high range to the GPU's binary-search kernels — runs both
  /// legs concurrently on their timeline streams, and concatenates the
  /// docID-disjoint partials into a host-side intermediate (bit-identical
  /// to the unsplit result). Sets split_done_ to join(cpu leg, gpu leg);
  /// run() adopts it as the new plan frontier.
  void run_split(const IntersectStep& i, QueryResult& res);
  /// The CPU leg of run_split: partial_step over the probe prefix, mirrored
  /// as one CPU-stream op waiting on `ready`. Returns its completion (or
  /// `ready` unchanged for an empty leg).
  sim::Timeline::Event run_cpu_leg(std::span<const codec::DocId> probes,
                                   index::TermId t,
                                   std::vector<codec::DocId>& out,
                                   sim::Timeline::Event ready,
                                   QueryMetrics& m);

  sim::CpuSpec rank_spec_;
  cpu::SvsStepper* svs_;
  gpu::GpuExecutor* gpu_;
  const cpu::Bm25Scorer* scorer_;
  const fault::FaultInjector* injector_;
  std::uint32_t fault_scope_;
  std::uint64_t query_id_ = 0;
  std::uint64_t step_index_ = 0;  ///< fault coordinate of the next step
  std::vector<codec::DocId> host_current_;  ///< valid when loc_ == kCpu
  std::optional<Placement> loc_;
  /// Private single-tenant timeline; tl_ points here unless bind_shared()
  /// redirected it to a DeviceManager-owned shared timeline.
  sim::Timeline own_tl_;
  sim::Timeline* tl_ = &own_tl_;
  sim::Duration release_;              ///< stream open time (shared mode)
  sim::Timeline::ScopeId scope_ = 0;   ///< this query's accounting scope
  std::uint64_t batch_group_ = 0;      ///< current batch tag for records
  sim::Timeline::StreamId cpu_stream_ = 0;
  /// The plan frontier: completion of the latest step every later dependent
  /// op must wait on. GPU steps advance it through the GpuExecutor's chain;
  /// prefetch and host-decode steps deliberately leave it alone.
  sim::Timeline::Event frontier_;
  /// Completion of the last kSplit step (join of both legs); consumed by
  /// run() as the frontier since neither gpu_->chain() nor a single CPU op
  /// covers both legs.
  sim::Timeline::Event split_done_;
  /// Set by run_split when an injected device fault killed the GPU leg
  /// (the step still completed, host-side); consumed by run(), which marks
  /// the StepRecord and returns kOkForceCpu.
  bool leg_faulted_ = false;
};

/// The shared driver loop: plans and executes one query start to finish.
/// HybridEngine::execute is exactly this call.
QueryResult run_plan(Planner& planner, StepExecutor& exec, const Query& q);

}  // namespace griffin::core
