// Query types and the engine interface shared by the CPU engine, Griffin-GPU
// and the hybrid Griffin engine. Kept dependency-light so the concrete
// engines can implement it without cycles.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fault/fault.h"
#include "index/inverted_index.h"
#include "sim/cpu_cost_model.h"
#include "sim/time.h"
#include "sim/timeline.h"
#include "util/counters.h"

namespace griffin::core {

/// A conjunctive (AND) query: documents must contain every term.
struct Query {
  std::vector<index::TermId> terms;
  std::uint32_t k = 10;  ///< results to return
  std::uint64_t id = 0;  ///< caller-assigned id (trace position)
};

struct ScoredDoc {
  index::DocId doc = 0;
  float score = 0.0f;
};

/// Where one intersection step ran — the scheduler's decision trail.
/// kSplit is the co-execution placement (DESIGN.md §15): the probe side is
/// partitioned into two docID-disjoint ranges and both processors run their
/// range at once; the concatenated partials are bit-identical to either
/// single-processor result.
enum class Placement : std::uint8_t { kCpu, kGpu, kSplit };

/// The step taxonomy of the physical-plan layer (core/plan.h holds the typed
/// step structs; the kind tag lives here so trace records stay
/// dependency-light).
enum class StepKind : std::uint8_t {
  kDecode,
  kIntersect,
  kTransfer,
  kRank,
  /// Asynchronous H2D of a later step's posting list on the copy engine,
  /// overlapping the current step's kernels (DESIGN.md §10). Never changes
  /// results; dropped (its entry discarded) when the plan migrates to CPU.
  kPrefetch,
  /// Never emitted. It named the deleted host decode-ahead step (DESIGN.md
  /// §15); the benchmark's step-name table still lists it.
  kHostDecode,
};

/// One intersection step as the scheduler sees it (core/scheduler.h decides
/// on exactly this; core/planner.h builds it from the intermediate-result
/// state plus the cache-residency probes).
struct StepShape {
  std::uint64_t shorter = 0;       ///< current intermediate (or short list)
  std::uint64_t longer = 0;        ///< next posting list length
  std::uint64_t longer_bytes = 0;  ///< its compressed payload bytes
  /// The long list's compression scheme: the cost model prices the CPU
  /// decode through the per-codec lane model and charges the GPU a decode
  /// penalty for codecs with no lane-parallel kernel (gpu/decode.h).
  codec::Scheme longer_scheme = codec::Scheme::kEliasFano;
  /// Long list already resident in the GPU's list cache (no H2D transfer).
  bool longer_device_resident = false;
  /// Long list already decoded in the host cache (no CPU decode work).
  bool longer_host_decoded = false;
  /// Long list already in flight to (or landed on) the device via a
  /// kPrefetch step: the H2D is paid and hidden, so the GPU side owes no
  /// transfer for it (scheduler crossover shifts accordingly).
  bool longer_prefetched = false;
  std::optional<Placement> current_location;  ///< where the intermediate lives
};

/// One executed plan step, as appended to QueryResult::trace. The four stage
/// fields are the *deltas* the step added to the QueryMetrics stage totals,
/// so summing any stage over a trace reproduces that QueryMetrics field
/// exactly — every charge in the system happens inside some step.
struct StepRecord {
  StepKind kind = StepKind::kDecode;
  /// The query this step belongs to (Query::id). Under multi-tenancy the
  /// trace JSONL interleaves co-admitted queries; this keeps rows
  /// attributable.
  std::uint64_t query = 0;
  /// Cross-query kernel batch this step was coalesced into (tenancy
  /// BatchComposer). 0 = unbatched; equal non-zero ids mark steps whose
  /// kernels launched together and shared the launch overhead.
  std::uint64_t batch_group = 0;
  /// Decode/intersect: the processor that ran the step (kSplit when both
  /// ran a range of it). Transfer: the destination. Rank: kCpu.
  Placement placement = Placement::kCpu;
  /// kSplit intersects only: the GPU's share of the probe side — the
  /// scheduler's throughput-proportional fraction α (Scheduler::split_alpha
  /// replays it from `shape`).
  double alpha = 0.0;
  index::TermId term = 0;  ///< posting list consumed (decode/intersect)
  /// Intersect steps: the scheduler's input, residency bits included
  /// (Scheduler::decide(shape) replays to `placement`).
  StepShape shape;
  std::uint64_t output_count = 0;  ///< intermediate size after the step
  std::uint64_t gpu_kernels = 0;   ///< kernel launches charged by the step
  /// kTransfer only: a mid-query placement flip (QueryMetrics::migrations),
  /// as opposed to the final device->host drain before ranking.
  bool migration = false;
  /// The step was abandoned by an injected GPU device fault (DESIGN.md §11)
  /// or by the OOM ladder's re-plan rung (DESIGN.md §16): its duration is
  /// the wasted device time, its work was redone on the CPU by the
  /// re-planned steps that follow it in the trace.
  bool faulted = false;
  /// kSplit only: the GPU leg was lost to an injected device fault but the
  /// step still completed — the CPU leg's partial survived and the high
  /// range was redone host-side (DESIGN.md §16). Unlike `faulted`, the step
  /// did its full stage work and counts normally.
  bool leg_faulted = false;
  sim::Duration duration;          ///< decode + intersect + transfer + rank
  sim::Duration decode;
  sim::Duration intersect;
  sim::Duration transfer;
  sim::Duration rank;
  /// Lane-accounting delta this step added to QueryMetrics::simd (all zero
  /// for scalar-mode CPUs, GPU-placed steps and transfers). simd.utilization()
  /// is the step's vector-lane occupancy.
  sim::SimdCounters simd;
  /// Timeline placement (DESIGN.md §10): when the step's first op could
  /// issue (stream + event dependencies met), when its resource actually
  /// started it, and when its last op finished. duration still sums the
  /// serial charges, so end - start < duration exactly when the step's own
  /// ops overlapped each other (double-buffered decode).
  sim::Duration issue;
  sim::Duration start;
  sim::Duration end;
  /// The step's primary resource: compute unit for decode/intersect, the
  /// copy engine for transfer/prefetch, the host for rank.
  sim::Resource resource = sim::Resource::kCpu;
};

/// Order-free aggregate of step records: the cluster/service layers fold
/// every executed query's trace into one of these through CounterTotals.
struct TraceSummary : util::Counters<TraceSummary> {
  std::uint64_t steps = 0;
  std::uint64_t decode_steps = 0;
  std::uint64_t intersect_steps = 0;
  std::uint64_t transfer_steps = 0;
  std::uint64_t rank_steps = 0;
  std::uint64_t prefetch_steps = 0;
  std::uint64_t cpu_intersects = 0;  ///< intersect steps placed on the CPU
  std::uint64_t gpu_intersects = 0;  ///< intersect steps placed on the GPU
  /// Intersect steps co-executed on both processors (Placement::kSplit).
  std::uint64_t split_intersects = 0;
  std::uint64_t migrations = 0;      ///< transfer steps that were migrations
  std::uint64_t faulted_steps = 0;   ///< steps abandoned by injected faults
  /// Split steps that completed with their GPU leg redone on the CPU after
  /// an injected device fault (StepRecord::leg_faulted).
  std::uint64_t leg_faulted_steps = 0;
  std::uint64_t batched_steps = 0;   ///< steps coalesced into a cross-query batch
  /// Summed StepRecord::duration — the *serial* stage time, i.e. per query
  /// QueryMetrics::total (critical path) + overlap.saved.
  sim::Duration step_time;
  /// Summed lane-accounting counters over every CPU step (DESIGN.md §13).
  sim::SimdCounters simd;

  /// Vector-lane occupancy across the whole trace (0 when no vectorized
  /// loop ran anywhere — scalar CPUs or pure-GPU plans).
  double lane_utilization() const { return simd.utilization(); }

  void add(const StepRecord& r) {
    ++steps;
    if (r.batch_group != 0) ++batched_steps;
    if (r.leg_faulted) ++leg_faulted_steps;
    simd += r.simd;
    if (r.faulted) {
      // An abandoned step's wasted time is real, but it did no stage work —
      // counting it as a gpu_intersect would misstate the processor split.
      ++faulted_steps;
      step_time += r.duration;
      return;
    }
    switch (r.kind) {
      case StepKind::kDecode: ++decode_steps; break;
      case StepKind::kIntersect:
        ++intersect_steps;
        switch (r.placement) {
          case Placement::kCpu: ++cpu_intersects; break;
          case Placement::kGpu: ++gpu_intersects; break;
          case Placement::kSplit: ++split_intersects; break;
        }
        break;
      case StepKind::kTransfer:
        ++transfer_steps;
        if (r.migration) ++migrations;
        break;
      case StepKind::kRank: ++rank_steps; break;
      case StepKind::kPrefetch: ++prefetch_steps; break;
      case StepKind::kHostDecode: break;  // never emitted
    }
    step_time += r.duration;
  }
  void add(std::span<const StepRecord> trace) {
    for (const auto& r : trace) add(r);
  }
  /// Fraction of single-processor intersects that ran on the GPU. Split
  /// steps engage both processors at once, so they are excluded here and
  /// reported through split_intersects instead.
  double gpu_intersect_fraction() const {
    const std::uint64_t n = cpu_intersects + gpu_intersects;
    return n == 0 ? 0.0
                  : static_cast<double>(gpu_intersects) /
                        static_cast<double>(n);
  }

  static constexpr auto fields() {
    using T = TraceSummary;
    return std::tuple{
        util::field(&T::steps, "steps"),
        util::field(&T::decode_steps, "decode_steps"),
        util::field(&T::intersect_steps, "intersect_steps"),
        util::field(&T::transfer_steps, "transfer_steps"),
        util::field(&T::rank_steps, "rank_steps"),
        util::field(&T::prefetch_steps, "prefetch_steps"),
        util::field(&T::cpu_intersects, "cpu_intersects"),
        util::field(&T::gpu_intersects, "gpu_intersects"),
        util::field(&T::split_intersects, "split_intersects"),
        util::field(&T::migrations, "migrations"),
        util::field(&T::faulted_steps, "faulted_steps"),
        util::field(&T::leg_faulted_steps, "leg_faulted_steps"),
        util::field(&T::batched_steps, "batched_steps"),
        util::field(&T::step_time, "step_time_us"),
        util::field(&T::simd, "simd"),
    };
  }
};
static_assert(util::covers<TraceSummary>());

/// Hit/miss/eviction counts for the two engine-side caching tiers: the
/// device-resident compressed-list cache (gpu/list_cache.h) and the host
/// decoded-postings cache (cpu/decoded_cache.h). Pure counters — the time
/// saved by a hit shows up as *absent* charges in the stage durations, so
/// decode + intersect + transfer + rank still sums to total.
struct CacheCounters : util::Counters<CacheCounters> {
  std::uint64_t device_hits = 0;
  std::uint64_t device_misses = 0;
  std::uint64_t device_evictions = 0;
  std::uint64_t host_hits = 0;
  std::uint64_t host_misses = 0;
  std::uint64_t host_evictions = 0;

  static constexpr auto fields() {
    using C = CacheCounters;
    return std::tuple{
        util::field(&C::device_hits, "device_hits"),
        util::field(&C::device_misses, "device_misses"),
        util::field(&C::device_evictions, "device_evictions"),
        util::field(&C::host_hits, "host_hits"),
        util::field(&C::host_misses, "host_misses"),
        util::field(&C::host_evictions, "host_evictions"),
    };
  }

  static double rate(std::uint64_t hits, std::uint64_t misses) {
    const std::uint64_t n = hits + misses;
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
  double device_hit_rate() const { return rate(device_hits, device_misses); }
  double host_hit_rate() const { return rate(host_hits, host_misses); }
};
static_assert(util::covers<CacheCounters>());

/// Asynchronous-execution counters (DESIGN.md §10). `saved` is the exact
/// picosecond difference between the serial stage sum and the critical
/// path, so QueryMetrics::total + overlap.saved reproduces the stage sums
/// bit-exactly; the busy durations measure copy-engine occupancy for
/// utilization reporting.
struct OverlapCounters : util::Counters<OverlapCounters> {
  std::uint64_t prefetch_issued = 0;   ///< kPrefetch uploads started
  std::uint64_t prefetch_used = 0;     ///< consumed by a later GPU step
  std::uint64_t prefetch_dropped = 0;  ///< discarded (migration / query end)
  sim::Duration saved;                 ///< serial stage sum - critical path
  sim::Duration cpu_busy;              ///< host-core busy time
  sim::Duration gpu_busy;              ///< kernel-pipeline busy time
  sim::Duration h2d_busy;              ///< H2D copy-engine busy time
  sim::Duration d2h_busy;              ///< D2H copy-engine busy time

  /// Busy time of one resource, mapped from the timeline's resource enum.
  sim::Duration busy(sim::Resource r) const {
    switch (r) {
      case sim::Resource::kCpu: return cpu_busy;
      case sim::Resource::kGpuCompute: return gpu_busy;
      case sim::Resource::kCopyH2D: return h2d_busy;
      case sim::Resource::kCopyD2H: return d2h_busy;
    }
    return {};
  }

  /// Busy fraction of every resource over `horizon` (zeros when the
  /// horizon is empty), indexed by sim::Resource.
  std::array<double, sim::kNumResources> busy_fractions(
      sim::Duration horizon) const {
    std::array<double, sim::kNumResources> u{};
    if (horizon.ps() > 0) {
      for (std::size_t r = 0; r < sim::kNumResources; ++r) {
        u[r] = busy(static_cast<sim::Resource>(r)) / horizon;
      }
    }
    return u;
  }

  /// Table order is the BENCH JSON key order: saved first.
  static constexpr auto fields() {
    using O = OverlapCounters;
    return std::tuple{
        util::field(&O::saved, "saved_us"),
        util::field(&O::prefetch_issued, "prefetch_issued"),
        util::field(&O::prefetch_used, "prefetch_used"),
        util::field(&O::prefetch_dropped, "prefetch_dropped"),
        util::field(&O::cpu_busy, "cpu_busy_us"),
        util::field(&O::gpu_busy, "gpu_busy_us"),
        util::field(&O::h2d_busy, "h2d_busy_us"),
        util::field(&O::d2h_busy, "d2h_busy_us"),
    };
  }
};
static_assert(util::covers<OverlapCounters>());

/// Per-query latency breakdown in simulated time. Since the asynchronous
/// timeline (DESIGN.md §10), `total` is the *critical path* — what a wall
/// clock would measure with copies overlapping kernels — while the four
/// stage durations keep their serial meaning, so the stage identity is
///   decode + intersect + transfer + rank == total + overlap.saved.
struct QueryMetrics {
  sim::Duration total;
  sim::Duration decode;
  sim::Duration intersect;
  sim::Duration transfer;   ///< PCIe traffic + device allocations
  sim::Duration rank;
  std::uint64_t gpu_kernels = 0;
  std::uint64_t migrations = 0;   ///< GPU<->CPU hand-offs mid-query
  std::uint64_t result_count = 0; ///< docs matching all terms
  CacheCounters cache;            ///< per-query cache-tier counters
  OverlapCounters overlap;        ///< copy/compute-overlap accounting
  fault::FaultCounters faults;    ///< injected-fault / degradation counters
  sim::SimdCounters simd;         ///< lane accounting over the CPU's vector loops
  std::vector<Placement> placements;  ///< one per intersection step

  void add_stage(sim::Duration d, sim::Duration* stage) {
    total += d;
    *stage += d;
  }
};

struct QueryResult {
  std::vector<ScoredDoc> topk;
  QueryMetrics metrics;
  /// One record per executed plan step (core/executor.h appends them); the
  /// introspection/replay surface for scheduling experiments.
  std::vector<StepRecord> trace;
};

/// The roll-up of every per-query counter (DESIGN.md §18): what a broker
/// run, a service run and a tenancy run report. One type with one `add`, so
/// no layer can fold some counter structs and drop another.
struct CounterTotals : util::Counters<CounterTotals> {
  CacheCounters cache;
  OverlapCounters overlap;
  fault::FaultCounters faults;
  TraceSummary trace;  ///< includes the lane counters (trace.simd)

  void add(const QueryResult& r) {
    cache += r.metrics.cache;
    overlap += r.metrics.overlap;
    faults += r.metrics.faults;
    trace.add(r.trace);
  }

  static constexpr auto fields() {
    using T = CounterTotals;
    return std::tuple{
        util::field(&T::cache, "cache"),
        util::field(&T::overlap, "overlap"),
        util::field(&T::faults, "faults"),
        util::field(&T::trace, "trace"),
    };
  }
};
static_assert(util::covers<CounterTotals>());

/// Common interface: execute one query over a fixed index.
class Engine {
 public:
  virtual ~Engine() = default;
  virtual QueryResult execute(const Query& q) = 0;
};

}  // namespace griffin::core
