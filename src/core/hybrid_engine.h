// The query engine. Under the default policy it is Griffin (paper Figure
// 1(d), §3.2): a query starts on the processor the scheduler picks for its
// two shortest lists; after every pairwise intersection the scheduler
// re-evaluates with the shrunken intermediate result, and execution migrates
// (GPU -> CPU, paying the PCIe transfer) when the characteristics flip.
// Ranking always runs on the CPU.
//
// Since the plan/execute decomposition (DESIGN.md §8) the engine is a thin
// driver: execute() hands the query to the shared Planner + StepExecutor
// (core/planner.h, core/executor.h) with this engine's scheduler. The paper's
// two baselines are the same engine under the degenerate policies —
// kAlwaysCpu is the CPU-only engine, kAlwaysGpu is Griffin-GPU (§3.1) — and
// cpu::CpuEngine / gpu::GpuEngine below are only their constructors.
#pragma once

#include "core/executor.h"
#include "core/planner.h"
#include "core/query.h"
#include "core/scheduler.h"
#include "cpu/bm25.h"
#include "cpu/decoded_cache.h"
#include "cpu/engine.h"
#include "cpu/svs_step.h"
#include "fault/fault.h"
#include "gpu/engine.h"

namespace griffin::core {

struct HybridOptions {
  SchedulerOptions scheduler;
  gpu::GpuOptions gpu;
  cpu::CpuEngineOptions cpu;
  /// Fault injection (DESIGN.md §11/§16). The engine reads the gpu, pcie,
  /// and oom sites; everything disarmed (the default) executes
  /// bit-identically to a build without the injector.
  fault::FaultConfig faults;
  /// Fault-coordinate scope: the shard id when this engine serves a cluster
  /// shard (cluster/broker.cpp sets it), 0 standalone.
  std::uint32_t fault_scope = 0;
};

/// The backends a StepExecutor drives, configured from HybridOptions in one
/// place: the GPU step executor and the CPU SvS stepper over its decoded-
/// postings cache. Both are always present; a degenerate policy simply
/// never places a step on the other one. The engine, each tenancy lane
/// (tenancy/device_manager.cpp) and hand-driven executor tests build their
/// backends here. The caches persist across the queries they serve.
struct Backends {
  Backends(const index::InvertedIndex& idx, const sim::HardwareSpec& hw,
           const HybridOptions& opt)
      : gpu(idx, hw, opt.gpu),
        host_cache(opt.cpu.decoded_cache_bytes),
        svs(idx, hw.cpu,
            cpu::SvsOptions{opt.cpu.skip_ratio, opt.cpu.ef_random_access},
            &host_cache) {}

  gpu::GpuExecutor gpu;
  cpu::DecodedCache host_cache;
  cpu::SvsStepper svs;  ///< after host_cache: reads through it
};

class HybridEngine : public Engine {
 public:
  HybridEngine(const index::InvertedIndex& idx, sim::HardwareSpec hw = {},
               HybridOptions opt = {})
      : idx_(&idx),
        hw_(hw),
        opt_(opt),
        sched_(opt.scheduler, hw),
        injector_(opt.faults),
        backends_(idx, hw, opt),
        scorer_(idx, opt.cpu.bm25) {}

  QueryResult execute(const Query& q) override {
    // A disarmed fault config passes no injector, so the zero-fault path is
    // the exact pre-fault code path (golden parity).
    const fault::FaultInjector* inj =
        opt_.faults.engine_faults_armed() ? &injector_ : nullptr;
    StepExecutor exec(hw_.cpu, &backends_.svs, &backends_.gpu, scorer_, inj,
                      opt_.fault_scope);
    Planner planner(*idx_, sched_, exec);
    return run_plan(planner, exec, q);
  }

  const gpu::GpuExecutor& executor() const { return backends_.gpu; }
  const cpu::DecodedCache& decoded_cache() const {
    return backends_.host_cache;
  }

 private:
  const index::InvertedIndex* idx_;
  sim::HardwareSpec hw_;
  HybridOptions opt_;
  Scheduler sched_;
  fault::FaultInjector injector_;  ///< before backends_: they point at it
  Backends backends_;
  cpu::Bm25Scorer scorer_;
};

}  // namespace griffin::core

namespace griffin::cpu {

/// The "highly optimized CPU implementation" the paper benchmarks Griffin
/// against: SvS intersection order (shortest lists first, per Culpepper &
/// Moffat [11]), a per-pair choice between the sequential merge and the
/// skip-pointer binary search by length ratio, then BM25 + partial_sort.
/// The hybrid engine under kAlwaysCpu.
class CpuEngine : public core::HybridEngine {
 public:
  CpuEngine(const index::InvertedIndex& idx, sim::CpuSpec spec = {},
            CpuEngineOptions opt = {})
      : HybridEngine(
            idx,
            [&] {
              sim::HardwareSpec hw;
              hw.cpu = spec;
              return hw;
            }(),
            [&] {
              core::HybridOptions o;
              o.scheduler.policy = core::SchedulerPolicy::kAlwaysCpu;
              o.cpu = opt;
              return o;
            }()) {}
};

}  // namespace griffin::cpu

namespace griffin::gpu {

/// Griffin-GPU, the engine the paper evaluates as "GPU only" in Figures
/// 14/15: Para-EF decode, MergePath or binary-search intersection by length
/// ratio, ranking on the CPU (Figure 7). The hybrid engine under kAlwaysGpu.
class GpuEngine : public core::HybridEngine {
 public:
  GpuEngine(const index::InvertedIndex& idx, sim::HardwareSpec hw = {},
            GpuOptions opt = {}, cpu::Bm25Params bm25 = {})
      : HybridEngine(idx, hw, [&] {
          core::HybridOptions o;
          o.scheduler.policy = core::SchedulerPolicy::kAlwaysGpu;
          o.gpu = opt;
          o.cpu.bm25 = bm25;
          return o;
        }()) {}
};

}  // namespace griffin::gpu
