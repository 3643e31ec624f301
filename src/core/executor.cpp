#include "core/executor.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace griffin::core {

namespace {
/// The GPU's probe count for a split at share `alpha` — the same rounding
/// the scheduler's estimate_split uses, so the executed partition matches
/// the priced one.
std::uint64_t split_share(double alpha, std::uint64_t n) {
  const auto g = static_cast<std::uint64_t>(
      std::llround(std::clamp(alpha, 0.0, 1.0) * static_cast<double>(n)));
  return std::min(g, n);
}
}  // namespace

void StepExecutor::begin_query(const Query& q) {
  host_current_.clear();
  loc_.reset();
  if (tl_ == &own_tl_) {
    // Private timeline: the query owns the device, wipe and restart.
    tl_->reset();
    scope_ = 0;
  } else {
    // Shared timeline: the device keeps running; this query gets its own
    // accounting scope and streams opened at its admission time.
    scope_ = tl_->scope();
  }
  tl_->set_scope(scope_);
  cpu_stream_ = tl_->stream(release_);
  frontier_ = sim::Timeline::Event{release_};
  query_id_ = q.id;
  step_index_ = 0;
  batch_group_ = 0;
  leg_faulted_ = false;
  gpu_->begin_query(tl_, q.id, release_);
}

void StepExecutor::finish_query(QueryMetrics& m) {
  tl_->set_scope(scope_);
  gpu_->finish_query(m);  // drops prefetches, buffers
  // The serial charges and the scope's timeline ops are the same set of
  // durations: any divergence means a charge bypassed the timeline.
  const auto& sc = tl_->scope_stats(scope_);
  assert(sc.serial == m.total);
  // The query's latency is its span on the (possibly shared) timeline:
  // from its admission to its last op's completion. On a private timeline
  // release is zero and this is exactly the critical path. Under
  // contention the span can exceed the serial sum — queueing behind other
  // tenants' ops — so overlap.saved may be negative there.
  const sim::Duration span = sim::max(sc.finish, release_) - release_;
  m.overlap.saved = sc.serial - span;
  m.total = span;
  m.overlap.cpu_busy = sc.busy[static_cast<std::size_t>(sim::Resource::kCpu)];
  m.overlap.gpu_busy =
      sc.busy[static_cast<std::size_t>(sim::Resource::kGpuCompute)];
  m.overlap.h2d_busy =
      sc.busy[static_cast<std::size_t>(sim::Resource::kCopyH2D)];
  m.overlap.d2h_busy =
      sc.busy[static_cast<std::size_t>(sim::Resource::kCopyD2H)];
}

void StepExecutor::set_batch(std::uint32_t size, std::uint64_t group) {
  batch_group_ = size > 1 ? group : 0;
  gpu_->set_batch(size);
}

std::uint64_t StepExecutor::intermediate_count() const {
  if (loc_ == Placement::kGpu) return gpu_->intermediate_count();
  return host_current_.size();
}

void StepExecutor::dispatch(const PlanStep& step, const Query& q,
                            QueryResult& res) {
  QueryMetrics& m = res.metrics;
  if (const auto* d = std::get_if<DecodeStep>(&step)) {
    if (d->where == Placement::kGpu) {
      gpu_->load_single(d->term, m);
      loc_ = Placement::kGpu;
    } else {
      svs_->decode_single(d->term, host_current_, m);
      loc_ = Placement::kCpu;
    }
    return;
  }
  if (const auto* i = std::get_if<IntersectStep>(&step)) {
    if (i->where == Placement::kSplit) {
      run_split(*i, res);
    } else if (i->where == Placement::kGpu) {
      if (i->first_pair) {
        gpu_->intersect_first(i->probe_term, i->term, m);
      } else {
        gpu_->intersect_next(i->term, m);
      }
      loc_ = Placement::kGpu;
    } else {
      if (i->first_pair) {
        svs_->first_pair(i->probe_term, i->term, host_current_, m);
      } else {
        svs_->next_step(host_current_, i->term, m);
      }
      loc_ = Placement::kCpu;
    }
    return;
  }
  if (const auto* t = std::get_if<TransferStep>(&step)) {
    if (t->direction == TransferDirection::kHostToDevice) {
      gpu_->upload_intermediate(host_current_, m);
      loc_ = Placement::kGpu;
    } else {
      host_current_ = gpu_->download_intermediate(m);
      loc_ = Placement::kCpu;
    }
    if (t->migration) ++m.migrations;
    return;
  }
  if (const auto* p = std::get_if<PrefetchStep>(&step)) {
    gpu_->prefetch(p->term, m);  // intermediate and location unchanged
    return;
  }
  // RankStep: BM25 + partial_sort on the host. Scoring uses the query's
  // original term order, not the SvS length order: float accumulation order
  // is then a property of the query alone, so a document-partitioned shard
  // (whose local list lengths differ) produces bit-identical scores to the
  // unpartitioned index (cluster/broker.h).
  m.result_count = host_current_.size();
  sim::CpuCostAccumulator rank(rank_spec_);
  scorer_->score(q.terms, host_current_, res.topk, rank);
  cpu::top_k(res.topk, q.k, rank);
  m.add_stage(rank.time(), &m.rank);
  m.simd += rank.simd();
}

sim::Timeline::Event StepExecutor::run_cpu_leg(
    std::span<const codec::DocId> probes, index::TermId t,
    std::vector<codec::DocId>& out, sim::Timeline::Event ready,
    QueryMetrics& m) {
  if (probes.empty()) {
    out.clear();
    return ready;
  }
  const sim::Duration c0 = m.total;
  svs_->partial_step(probes, t, out, m);
  return tl_->record(cpu_stream_, sim::Resource::kCpu, m.total - c0, ready);
}

void StepExecutor::run_split(const IntersectStep& i, QueryResult& res) {
  QueryMetrics& m = res.metrics;
  const sim::Timeline::Event entry = frontier_;

  std::vector<codec::DocId> cpu_out;
  std::vector<codec::DocId> gpu_partial;
  sim::Timeline::Event cpu_done = entry;
  sim::Timeline::Event gpu_done = entry;

  if (loc_ == Placement::kGpu) {
    // Device-resident probes: only the CPU leg's low prefix crosses back
    // over PCIe; the kernels search the high suffix in place via the
    // probe_offset. The prefix D2H and the GPU leg run on different
    // resources, so the kernels are chained on the step entry, not on the
    // download — only the CPU leg waits the copy out.
    const std::uint64_t n = gpu_->intermediate_count();
    const std::uint64_t n_gpu = split_share(i.alpha, n);
    const std::uint64_t n_cpu = n - n_gpu;
    gpu_->set_chain(entry);
    if (injector_ != nullptr && n_gpu > 0 &&
        injector_->gpu_step_fault(fault_scope_, query_id_, step_index_)) {
      // The GPU leg is lost before its kernels consumed anything
      // (DESIGN.md §16): charge the wasted device time, retire the faulted
      // term's cached pages, drain the WHOLE intermediate, and run both
      // docID ranges through the CPU stepper. partial_step over [0, n_cpu)
      // then [n_cpu, n) concatenates to exactly the unsplit intersection,
      // so the step still completes bit-identically — only the remainder
      // of the plan gets pinned host-side (run() returns kOkForceCpu).
      const sim::Duration waste =
          sim::Duration::from_us(injector_->config().gpu_fault_cost_us);
      gpu_->charge_fault(waste, &m.intersect, m);
      const index::TermId ft[1] = {i.term};
      gpu_->fault_reset(std::span<const index::TermId>(ft, 1), m);
      const sim::Timeline::Event fault_evt = gpu_->chain();
      std::vector<codec::DocId> probes_storage =
          gpu_->download_intermediate(m);
      const std::span<const codec::DocId> probes(probes_storage);
      cpu_done = run_cpu_leg(probes.first(n_cpu), i.term, cpu_out,
                             gpu_->chain(), m);
      gpu_done = run_cpu_leg(probes.subspan(n_cpu), i.term, gpu_partial,
                             sim::Timeline::join(cpu_done, fault_evt), m);
      ++m.faults.gpu_faults;
      ++m.faults.split_leg_faults;
      m.faults.gpu_wasted += waste;
      leg_faulted_ = true;
    } else {
      sim::Timeline::Event cpu_ready = entry;
      std::vector<codec::DocId> prefix;
      if (n_cpu > 0) {
        prefix = gpu_->download_intermediate_prefix(n_cpu, m);
        cpu_ready = gpu_->chain();
        gpu_->set_chain(entry);
      }
      if (n_gpu > 0) {
        gpu_partial = gpu_->split_intersect_device(i.term, n_cpu, m);
        gpu_done = gpu_->chain();
      } else {
        // Degenerate alpha=0: the prefix download drained everything.
        gpu_->drop_intermediate();
      }
      cpu_done = run_cpu_leg(prefix, i.term, cpu_out, cpu_ready, m);
    }
  } else {
    // Host-resident probes — or the first pair, whose probe list the host
    // decodes first; the device leg then waits on that op like any real
    // data dependency.
    sim::Timeline::Event probe_ready = entry;
    std::vector<codec::DocId> probes_storage;
    if (i.first_pair) {
      const sim::Duration c0 = m.total;
      svs_->materialize_probes(i.probe_term, probes_storage, m);
      probe_ready = tl_->record(cpu_stream_, sim::Resource::kCpu,
                                m.total - c0, entry);
    } else {
      probes_storage.swap(host_current_);
    }
    const std::span<const codec::DocId> probes(probes_storage);
    const std::uint64_t n_gpu = split_share(i.alpha, probes.size());
    const std::uint64_t n_cpu = probes.size() - n_gpu;
    if (injector_ != nullptr && n_gpu > 0 &&
        injector_->gpu_step_fault(fault_scope_, query_id_, step_index_)) {
      // GPU leg lost over host-resident probes: the probe range never left
      // the host, so recovery is just redoing the high range through the
      // CPU stepper after the fault is detected. The redo waits out both
      // the CPU leg (same core) and the fault event (the host learns of
      // the abort when the device signals it).
      gpu_->set_chain(probe_ready);
      const sim::Duration waste =
          sim::Duration::from_us(injector_->config().gpu_fault_cost_us);
      gpu_->charge_fault(waste, &m.intersect, m);
      const index::TermId ft[1] = {i.term};
      gpu_->fault_reset(std::span<const index::TermId>(ft, 1), m);
      const sim::Timeline::Event fault_evt = gpu_->chain();
      cpu_done = run_cpu_leg(probes.first(n_cpu), i.term, cpu_out,
                             probe_ready, m);
      gpu_done = run_cpu_leg(probes.subspan(n_cpu), i.term, gpu_partial,
                             sim::Timeline::join(cpu_done, fault_evt), m);
      ++m.faults.gpu_faults;
      ++m.faults.split_leg_faults;
      m.faults.gpu_wasted += waste;
      leg_faulted_ = true;
    } else {
      if (n_gpu > 0) {
        gpu_->set_chain(probe_ready);
        gpu_partial =
            gpu_->split_intersect_host(i.term, probes.subspan(n_cpu), m);
        gpu_done = gpu_->chain();
      } else {
        gpu_done = probe_ready;
      }
      cpu_done = run_cpu_leg(probes.first(n_cpu), i.term, cpu_out,
                             probe_ready, m);
    }
  }

  // The ranges are docID-disjoint and each partial is sorted, so the
  // concatenation is exactly the unsplit intersection.
  cpu_out.insert(cpu_out.end(), gpu_partial.begin(), gpu_partial.end());
  host_current_ = std::move(cpu_out);
  loc_ = Placement::kCpu;
  split_done_ = sim::Timeline::join(cpu_done, gpu_done);
  m.placements.push_back(Placement::kSplit);
}

void StepExecutor::abandon_gpu_step(const PlanStep& step, QueryResult& res,
                                    sim::Duration waste, bool oom) {
  QueryMetrics& m = res.metrics;
  StepRecord rec;
  rec.faulted = true;
  rec.query = query_id_;
  rec.placement = Placement::kGpu;
  rec.resource = sim::Resource::kGpuCompute;

  // The affected terms: invalidated in the device cache by the reset (the
  // simulated ECC error retired their pages). A faulted transfer names no
  // terms — the intermediate is not a cached list.
  index::TermId terms[2];
  std::size_t num_terms = 0;
  sim::Duration* stage = &m.intersect;
  if (const auto* d = std::get_if<DecodeStep>(&step)) {
    rec.kind = StepKind::kDecode;
    rec.term = d->term;
    terms[num_terms++] = d->term;
    stage = &m.decode;
  } else if (const auto* i = std::get_if<IntersectStep>(&step)) {
    rec.kind = StepKind::kIntersect;
    rec.placement = i->where;  // a faulted kSplit step records as kSplit
    rec.term = i->term;
    rec.shape = i->shape;
    rec.alpha = i->alpha;
    terms[num_terms++] = i->term;
    if (i->first_pair) terms[num_terms++] = i->probe_term;
  } else {
    // The OOM ladder bottoming out on an H2D migration: the allocation
    // failed before any bytes moved, so the intermediate never left the
    // host. The waste is allocator machinery, charged as transfer time.
    const auto& t = std::get<TransferStep>(step);
    assert(t.direction == TransferDirection::kHostToDevice);
    (void)t;
    rec.kind = StepKind::kTransfer;
    stage = &m.transfer;
  }

  const std::size_t ops0 = tl_->num_ops();
  gpu_->set_chain(frontier_);
  gpu_->charge_fault(waste, stage, m);  // serial charge + compute-stream op
  gpu_->fault_reset(std::span<const index::TermId>(terms, num_terms), m);
  frontier_ = gpu_->chain();
  if (oom) {
    ++m.faults.oom_degraded_steps;
    m.faults.oom_recovery += waste;
  } else {
    ++m.faults.gpu_faults;
    m.faults.gpu_wasted += waste;
  }

  rec.duration = waste;
  if (stage == &m.decode) {
    rec.decode = waste;
  } else if (stage == &m.transfer) {
    rec.transfer = waste;
  } else {
    rec.intersect = waste;
  }
  rec.output_count = intermediate_count();
  if (tl_->num_ops() > ops0) {
    rec.issue = tl_->ops()[ops0].issue;
    rec.start = tl_->ops()[ops0].start;
    rec.end = tl_->ops()[ops0].end;
  } else {
    rec.issue = rec.start = rec.end = frontier_.at;
  }
  assert(tl_->scope_stats(scope_).serial == m.total);
  res.trace.push_back(rec);
}

void StepExecutor::drop_faulted_prefetch(const PrefetchStep& p,
                                         QueryResult& res) {
  QueryMetrics& m = res.metrics;
  ++m.faults.prefetch_faults;
  // Zero-duration faulted record: the fault fired before the DMA was
  // enqueued, so nothing was charged and the device cache never saw the
  // list. The plan continues unchanged — a prefetch is optional work whose
  // consumer simply misses the cache later.
  StepRecord rec;
  rec.faulted = true;
  rec.query = query_id_;
  rec.kind = StepKind::kPrefetch;
  rec.placement = Placement::kGpu;
  rec.resource = sim::Resource::kCopyH2D;
  rec.term = p.term;
  rec.output_count = intermediate_count();
  rec.issue = rec.start = rec.end = frontier_.at;
  res.trace.push_back(rec);
}

StepStatus StepExecutor::run(const PlanStep& step, const Query& q,
                             QueryResult& res) {
  // Co-tenant executors share one timeline; re-select this query's scope
  // so the step's ops are charged to it.
  tl_->set_scope(scope_);

  // One classification pass over the step, shared by the fault checks and
  // the record/frontier plumbing below. GPU-dispatched steps record their
  // own timeline ops (ledgers + kernels) chained off the plan frontier;
  // split steps manage their own ops inside dispatch; everything else
  // becomes one CPU op.
  bool gpu_step = false;     ///< dispatch drives the GpuExecutor chain
  bool split_step = false;   ///< kSplit: both legs, joined frontier
  bool gpu_compute = false;  ///< kGpu-placed kernels (not kSplit)
  bool dev_alloc = false;    ///< step allocates device memory (OOM site)
  const auto* prefetch = std::get_if<PrefetchStep>(&step);
  if (const auto* d = std::get_if<DecodeStep>(&step)) {
    gpu_step = d->where == Placement::kGpu;
    gpu_compute = gpu_step;
    dev_alloc = gpu_step;
  } else if (const auto* i = std::get_if<IntersectStep>(&step)) {
    gpu_step = i->where == Placement::kGpu;
    split_step = i->where == Placement::kSplit;
    gpu_compute = gpu_step;
    // A split's GPU leg allocates too; its *compute* fault is drawn inside
    // run_split, where losing the leg degrades only the device range.
    dev_alloc = i->where != Placement::kCpu;
  } else if (const auto* t = std::get_if<TransferStep>(&step)) {
    gpu_step = true;
    // Only the H2D direction allocates on the device; a D2H drain lands in
    // pinned host memory.
    dev_alloc = t->direction == TransferDirection::kHostToDevice;
  } else if (prefetch != nullptr) {
    gpu_step = true;
    dev_alloc = true;
  }

  // Pre-dispatch fault checks (DESIGN.md §11/§16): every fault fires before
  // the step's kernels or DMAs consume anything, so the device state from
  // the last committed step stays intact and recovery can drain it through
  // the normal migration path.
  enum class OomRung : std::uint8_t { kNone, kEvict, kUnfuse };
  OomRung rung = OomRung::kNone;
  if (injector_ != nullptr) {
    // An ECC-style device fault on a kGpu compute step abandons the query's
    // device residency wholesale.
    if (gpu_compute &&
        injector_->gpu_step_fault(fault_scope_, query_id_, step_index_)) {
      abandon_gpu_step(
          step, res,
          sim::Duration::from_us(injector_->config().gpu_fault_cost_us),
          /*oom=*/false);
      ++step_index_;
      return StepStatus::kFaultQuery;
    }
    // The same fault on a prefetch upload just loses optional work.
    if (prefetch != nullptr &&
        injector_->gpu_step_fault(fault_scope_, query_id_, step_index_)) {
      drop_faulted_prefetch(*prefetch, res);
      ++step_index_;
      return StepStatus::kOk;
    }
    // Device memory pressure at an allocation site: walk the degradation
    // ladder (DESIGN.md §16). Rung 1 evicts cold cache bytes, rung 2
    // unfuses the cross-query batch — both recover *on the device* and the
    // step proceeds; a faulted prefetch is simply dropped; rung 3 abandons
    // the step and re-plans it (and only it) host-side.
    if (dev_alloc &&
        injector_->oom_fault(fault_scope_, query_id_, step_index_)) {
      ++res.metrics.faults.oom_faults;
      if (gpu_->list_cache().size() > 0) {
        rung = OomRung::kEvict;
      } else if (batch_group_ != 0) {
        rung = OomRung::kUnfuse;
      } else if (prefetch != nullptr) {
        drop_faulted_prefetch(*prefetch, res);
        ++step_index_;
        return StepStatus::kOk;
      } else {
        abandon_gpu_step(
            step, res,
            sim::Duration::from_us(injector_->config().oom_replan_cost_us),
            /*oom=*/true);
        ++step_index_;
        return StepStatus::kFaultStep;
      }
    }
  }

  QueryMetrics& m = res.metrics;
  StepRecord rec;
  rec.query = query_id_;
  const sim::Duration total0 = m.total;
  const sim::Duration decode0 = m.decode;
  const sim::Duration intersect0 = m.intersect;
  const sim::Duration transfer0 = m.transfer;
  const sim::Duration rank0 = m.rank;
  const std::uint64_t kernels0 = m.gpu_kernels;
  const sim::SimdCounters simd0 = m.simd;
  const std::size_t ops0 = tl_->num_ops();

  if (gpu_step || split_step) gpu_->set_chain(frontier_);
  // Apply the chosen OOM rung inside the record window (after the stage
  // snapshots, chained on the frontier), so its recovery charges show up in
  // this step's StepRecord and the retried allocation waits the recovery
  // out on the timeline.
  if (rung == OomRung::kEvict) {
    gpu_->oom_evict(m);
    frontier_ = gpu_->chain();
  } else if (rung == OomRung::kUnfuse) {
    // Shrinking the fused launch back to a single query frees the K-way
    // working set; the relaunch overhead is the recovery cost. Only the
    // faulted query unfuses — co-batched lanes keep their tag.
    const sim::Duration d =
        sim::Duration::from_us(injector_->config().oom_unfuse_cost_us);
    sim::Duration* stage = &m.intersect;
    if (std::holds_alternative<DecodeStep>(step)) stage = &m.decode;
    if (std::holds_alternative<TransferStep>(step) || prefetch != nullptr) {
      stage = &m.transfer;
    }
    gpu_->charge_fault(d, stage, m);
    m.faults.oom_recovery += d;
    ++m.faults.oom_unfused;
    set_batch(1, 0);
    frontier_ = gpu_->chain();
  }
  rec.batch_group = batch_group_;

  dispatch(step, q, res);

  if (const auto* d = std::get_if<DecodeStep>(&step)) {
    rec.kind = StepKind::kDecode;
    rec.placement = d->where;
    rec.term = d->term;
    rec.resource = d->where == Placement::kGpu ? sim::Resource::kGpuCompute
                                               : sim::Resource::kCpu;
  } else if (const auto* i = std::get_if<IntersectStep>(&step)) {
    rec.kind = StepKind::kIntersect;
    rec.placement = i->where;
    rec.term = i->term;
    rec.shape = i->shape;
    rec.alpha = i->alpha;
    rec.resource = i->where == Placement::kCpu ? sim::Resource::kCpu
                                               : sim::Resource::kGpuCompute;
  } else if (const auto* t = std::get_if<TransferStep>(&step)) {
    rec.kind = StepKind::kTransfer;
    rec.placement = t->direction == TransferDirection::kHostToDevice
                        ? Placement::kGpu
                        : Placement::kCpu;
    rec.migration = t->migration;
    rec.resource = t->direction == TransferDirection::kHostToDevice
                       ? sim::Resource::kCopyH2D
                       : sim::Resource::kCopyD2H;
  } else if (const auto* p = std::get_if<PrefetchStep>(&step)) {
    rec.kind = StepKind::kPrefetch;
    rec.placement = Placement::kGpu;
    rec.term = p->term;
    rec.resource = sim::Resource::kCopyH2D;
  } else {
    rec.kind = StepKind::kRank;
    rec.placement = Placement::kCpu;
    rec.resource = sim::Resource::kCpu;
  }
  rec.output_count = intermediate_count();
  rec.gpu_kernels = m.gpu_kernels - kernels0;
  rec.duration = m.total - total0;
  rec.decode = m.decode - decode0;
  rec.intersect = m.intersect - intersect0;
  rec.transfer = m.transfer - transfer0;
  rec.rank = m.rank - rank0;
  rec.simd = m.simd - simd0;

  if (split_step) {
    // Both legs' completion, joined by run_split.
    frontier_ = split_done_;
  } else if (gpu_step) {
    // Prefetches leave the chain untouched, so the frontier is unchanged
    // for them — later steps don't wait on a prefetch unless they use it.
    frontier_ = gpu_->chain();
  } else {
    frontier_ = tl_->record(cpu_stream_, sim::Resource::kCpu, rec.duration,
                            frontier_);
  }

  // Timeline placement of the whole step: first issue to last completion
  // over the ops it recorded (a zero-op step pins all three to the
  // frontier). Co-tenant steps never interleave at op granularity — the
  // DeviceManager steps one lane at a time — so [ops0, end) is this step.
  if (tl_->num_ops() > ops0) {
    const auto& ops = tl_->ops();
    rec.issue = ops[ops0].issue;
    rec.start = ops[ops0].start;
    rec.end = ops[ops0].end;
    for (std::size_t i = ops0 + 1; i < ops.size(); ++i) {
      rec.issue = sim::min(rec.issue, ops[i].issue);
      rec.start = sim::min(rec.start, ops[i].start);
      rec.end = sim::max(rec.end, ops[i].end);
    }
  } else {
    rec.issue = rec.start = rec.end = frontier_.at;
  }
  // Every serial charge must have been mirrored as a timeline op.
  assert(tl_->scope_stats(scope_).serial == m.total);
  rec.leg_faulted = leg_faulted_;
  res.trace.push_back(rec);
  ++step_index_;
  if (leg_faulted_) {
    // run_split lost its GPU leg but completed the step host-side: the
    // caller pins the remainder of the plan to the CPU (the device is no
    // longer trusted for this query).
    leg_faulted_ = false;
    return StepStatus::kOkForceCpu;
  }
  return StepStatus::kOk;
}

QueryResult run_plan(Planner& planner, StepExecutor& exec, const Query& q) {
  QueryResult res;
  if (q.terms.empty()) return res;
  exec.begin_query(q);
  planner.begin(q);
  while (const auto step = planner.next(exec.intermediate_count(),
                                        exec.location())) {
    planner.recover(*step, exec.run(*step, q, res));
  }
  exec.finish_query(res.metrics);
  return res;
}

}  // namespace griffin::core
