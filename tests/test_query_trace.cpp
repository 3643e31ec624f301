// The trace invariants the plan/execute decomposition (DESIGN.md §8)
// guarantees:
//   1. Per-step stage durations sum exactly to the QueryMetrics stage
//      totals — every charge in the system happens inside some recorded
//      step (the records are stage-delta snapshots around dispatch).
//   2. An intersect record's placement replays from Scheduler::decide on
//      its recorded StepShape: the trace carries the scheduler's full
//      input, so decisions are auditable after the fact.
//   3. Cold caches don't perturb the plan: a fresh engine with both cache
//      tiers enabled produces the identical trace (all fields) to one with
//      them disabled.
//   4. Warm steady state is deterministic: once the caches are warm,
//      repeated executions of the same query produce identical traces.
//   5. No engine emits StepKind::kHostDecode: host decode-ahead is gone
//      (DESIGN.md §15) and the enumerator is only a name.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/hybrid_engine.h"
#include "core/scheduler.h"
#include "engine_test_util.h"
#include "tenancy/device_manager.h"

using namespace griffin;

namespace {

std::vector<core::Query> trace_log(const index::InvertedIndex& idx) {
  workload::QueryLogConfig qcfg;
  qcfg.num_queries = 20;
  qcfg.seed = 314;
  auto log = workload::generate_query_log(
      qcfg, static_cast<std::uint32_t>(idx.num_terms()));
  core::Query single;
  single.terms = {5};
  log.push_back(single);
  core::Query extreme;
  extreme.terms = {static_cast<index::TermId>(idx.num_terms() - 1), 0};
  log.push_back(extreme);
  return log;
}

void expect_stage_sums(const core::QueryResult& res, const std::string& label) {
  const auto& m = res.metrics;
  ASSERT_FALSE(res.trace.empty()) << label;
  EXPECT_EQ(res.trace.back().kind, core::StepKind::kRank) << label;
  sim::Duration total, decode, intersect, transfer, rank;
  std::uint64_t kernels = 0;
  for (const auto& r : res.trace) {
    // Each record's duration is exactly its stage charges.
    EXPECT_EQ(r.duration, r.decode + r.intersect + r.transfer + r.rank)
        << label;
    total += r.duration;
    decode += r.decode;
    intersect += r.intersect;
    transfer += r.transfer;
    rank += r.rank;
    kernels += r.gpu_kernels;
    // Single-tenant execution: every record is attributed to this query and
    // nothing is batch-grouped (batch groups only exist under tenancy).
    EXPECT_EQ(r.query, res.trace.front().query) << label;
    EXPECT_EQ(r.batch_group, 0u) << label;
  }
  // Step durations are serial stage charges; m.total is the timeline's
  // critical path. The difference is exactly the overlap the async engines
  // hid (DESIGN.md §10) — picosecond-exact, not approximate.
  EXPECT_EQ(total, m.total + m.overlap.saved) << label;
  EXPECT_EQ(decode, m.decode) << label;
  EXPECT_EQ(intersect, m.intersect) << label;
  EXPECT_EQ(transfer, m.transfer) << label;
  EXPECT_EQ(rank, m.rank) << label;
  EXPECT_EQ(kernels, m.gpu_kernels) << label;
  EXPECT_EQ(res.trace.back().output_count, m.result_count) << label;

  core::TraceSummary sum;
  sum.add(res.trace);
  EXPECT_EQ(sum.steps, res.trace.size()) << label;
  EXPECT_EQ(sum.migrations, m.migrations) << label;
  EXPECT_EQ(sum.step_time, m.total + m.overlap.saved) << label;

  // Timeline placement sanity: every step has issue <= start <= end, and
  // no step ends after the query's critical path.
  for (const auto& r : res.trace) {
    EXPECT_LE(r.issue.ps(), r.start.ps()) << label;
    EXPECT_LE(r.start.ps(), r.end.ps()) << label;
    EXPECT_LE(r.end.ps(), m.total.ps()) << label;
  }
  // Prefetch bookkeeping always balances.
  EXPECT_EQ(m.overlap.prefetch_issued,
            m.overlap.prefetch_used + m.overlap.prefetch_dropped)
      << label;
}

void expect_identical_traces(const std::vector<core::StepRecord>& a,
                             const std::vector<core::StepRecord>& b,
                             const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    const std::string at = label + " step " + std::to_string(i);
    EXPECT_EQ(x.kind, y.kind) << at;
    EXPECT_EQ(x.query, y.query) << at;
    EXPECT_EQ(x.batch_group, y.batch_group) << at;
    EXPECT_EQ(x.placement, y.placement) << at;
    EXPECT_EQ(x.term, y.term) << at;
    EXPECT_EQ(x.shape.shorter, y.shape.shorter) << at;
    EXPECT_EQ(x.shape.longer, y.shape.longer) << at;
    EXPECT_EQ(x.shape.longer_device_resident, y.shape.longer_device_resident)
        << at;
    EXPECT_EQ(x.shape.longer_host_decoded, y.shape.longer_host_decoded) << at;
    EXPECT_EQ(x.shape.longer_prefetched, y.shape.longer_prefetched) << at;
    EXPECT_EQ(x.output_count, y.output_count) << at;
    EXPECT_EQ(x.gpu_kernels, y.gpu_kernels) << at;
    EXPECT_EQ(x.migration, y.migration) << at;
    EXPECT_EQ(x.duration, y.duration) << at;
    EXPECT_EQ(x.decode, y.decode) << at;
    EXPECT_EQ(x.intersect, y.intersect) << at;
    EXPECT_EQ(x.transfer, y.transfer) << at;
    EXPECT_EQ(x.rank, y.rank) << at;
    EXPECT_EQ(x.resource, y.resource) << at;
    EXPECT_EQ(x.issue, y.issue) << at;
    EXPECT_EQ(x.start, y.start) << at;
    EXPECT_EQ(x.end, y.end) << at;
  }
}

core::HybridOptions caches_off_options() {
  core::HybridOptions opt;
  opt.gpu.list_cache = false;
  opt.cpu.decoded_cache_bytes = 0;
  return opt;
}

}  // namespace

TEST(QueryTrace, StepDurationsSumToStageTotals) {
  const auto& idx = testutil::small_index();
  const auto log = trace_log(idx);

  cpu::CpuEngine cpu_engine(idx);
  gpu::GpuEngine gpu_engine(idx);
  core::HybridEngine griffin(idx);
  core::HybridOptions cost_opt;
  cost_opt.scheduler.policy = core::SchedulerPolicy::kCostModel;
  core::HybridEngine griffin_cost(idx, {}, cost_opt);

  const std::vector<std::pair<const char*, core::Engine*>> engines = {
      {"cpu", &cpu_engine},
      {"gpu", &gpu_engine},
      {"griffin", &griffin},
      {"griffin-cost", &griffin_cost},
  };
  for (const auto& [name, engine] : engines) {
    for (std::size_t i = 0; i < log.size(); ++i) {
      const auto res = engine->execute(log[i]);
      const std::string label = std::string(name) + " q" + std::to_string(i);
      expect_stage_sums(res, label);
      // Attribution: every record carries the caller-assigned query id.
      for (const auto& r : res.trace) {
        EXPECT_EQ(r.query, log[i].id) << label;
      }
    }
  }
}

TEST(QueryTrace, IntersectPlacementsReplayFromRecordedShapes) {
  const auto& idx = testutil::small_index();
  const auto log = trace_log(idx);

  for (const auto policy : {core::SchedulerPolicy::kRatioThreshold,
                            core::SchedulerPolicy::kCostModel}) {
    core::HybridOptions opt;
    opt.scheduler.policy = policy;
    core::HybridEngine engine(idx, {}, opt);
    // The same scheduler configuration the engine runs: the recorded shape
    // is the decision's entire input, so decide() must replay it.
    const core::Scheduler replay(opt.scheduler);
    for (const auto& q : log) {
      const auto res = engine.execute(q);
      for (const auto& rec : res.trace) {
        if (rec.kind != core::StepKind::kIntersect) continue;
        EXPECT_EQ(replay.decide(rec.shape), rec.placement)
            << "policy " << static_cast<int>(policy);
      }
    }
  }
}

TEST(QueryTrace, ColdCachesDoNotPerturbTheTrace) {
  const auto& idx = testutil::small_index();
  const auto log = trace_log(idx);
  for (std::size_t i = 0; i < log.size(); ++i) {
    // Fresh engines per query: both cache tiers are cold, so the recorded
    // plan must be identical whether the tiers exist or not.
    core::HybridEngine with_caches(idx);
    core::HybridEngine without_caches(idx, {}, caches_off_options());
    const auto a = with_caches.execute(log[i]);
    const auto b = without_caches.execute(log[i]);
    expect_identical_traces(a.trace, b.trace, "q" + std::to_string(i));
    EXPECT_EQ(a.metrics.total, b.metrics.total);
  }
}

TEST(QueryTrace, PrefetchNeverChangesResults) {
  // Prefetch moves bytes earlier and changes plans, never answers: the
  // top-k doc ids and the score *bits* are identical with it on and off.
  const auto& idx = testutil::small_index();
  const auto log = trace_log(idx);
  core::HybridOptions no_prefetch;
  no_prefetch.scheduler.prefetch = false;
  core::HybridEngine with(idx);
  core::HybridEngine without(idx, {}, no_prefetch);
  for (std::size_t i = 0; i < log.size(); ++i) {
    const auto a = with.execute(log[i]);
    const auto b = without.execute(log[i]);
    ASSERT_EQ(a.topk.size(), b.topk.size()) << "q" << i;
    for (std::size_t r = 0; r < a.topk.size(); ++r) {
      EXPECT_EQ(a.topk[r].doc, b.topk[r].doc) << "q" << i << " rank " << r;
      std::uint32_t xa, xb;
      std::memcpy(&xa, &a.topk[r].score, sizeof(xa));
      std::memcpy(&xb, &b.topk[r].score, sizeof(xb));
      EXPECT_EQ(xa, xb) << "q" << i << " rank " << r;  // bit-identical
    }
    expect_stage_sums(a, "prefetch-on q" + std::to_string(i));
    expect_stage_sums(b, "prefetch-off q" + std::to_string(i));
    EXPECT_EQ(b.metrics.overlap.prefetch_issued, 0u) << "q" << i;
  }
}

TEST(QueryTrace, PrefetchDroppedOnCpuMigration) {
  // Crafted three-term query: the first pair runs on the GPU (ratio 2) and
  // stages a prefetch for the third list (stage-time ratio 50 < 256), but
  // the intersection collapses to 4 docs, so the third intersect's true
  // ratio (25000) clears even the prefetch-boosted threshold (512) and the
  // query migrates to the CPU — the in-flight prefetch loses its consumer
  // and must be dropped, never used.
  index::InvertedIndex idx(codec::Scheme::kEliasFano);
  std::vector<index::DocId> a, b, c;
  for (index::DocId i = 0; i < 2000; ++i) a.push_back(i * 100);
  for (index::DocId i = 0; i < 4; ++i) b.push_back(i * 100);  // the matches
  for (index::DocId i = 0; i < 3996; ++i) b.push_back(i * 100 + 1);
  std::sort(b.begin(), b.end());
  for (index::DocId i = 0; i < 100000; ++i) c.push_back(i * 7);
  const index::DocId universe = 700000;
  idx.docs().resize(universe);
  for (index::DocId d = 0; d < universe; ++d) idx.docs().set_length(d, 1);
  idx.add_list(a);
  idx.add_list(b);
  idx.add_list(c);

  core::HybridEngine engine(idx);
  core::Query q;
  q.terms = {0, 1, 2};
  const auto res = engine.execute(q);
  const auto& m = res.metrics;
  EXPECT_EQ(m.migrations, 1u);
  ASSERT_EQ(m.placements.size(), 2u);
  EXPECT_EQ(m.placements[0], core::Placement::kGpu);
  EXPECT_EQ(m.placements[1], core::Placement::kCpu);
  EXPECT_EQ(m.overlap.prefetch_issued, 1u);
  EXPECT_EQ(m.overlap.prefetch_used, 0u);
  EXPECT_EQ(m.overlap.prefetch_dropped, 1u);
  // The trace carries the prefetch step and the shape bit that set the
  // boosted threshold the migration still cleared.
  bool saw_prefetch = false, saw_boosted_shape = false;
  for (const auto& r : res.trace) {
    if (r.kind == core::StepKind::kPrefetch) {
      saw_prefetch = true;
      EXPECT_EQ(r.term, 2u);
      EXPECT_EQ(r.resource, sim::Resource::kCopyH2D);
    }
    if (r.kind == core::StepKind::kIntersect && r.shape.longer_prefetched) {
      saw_boosted_shape = true;
      EXPECT_EQ(r.placement, core::Placement::kCpu);
    }
  }
  EXPECT_TRUE(saw_prefetch);
  EXPECT_TRUE(saw_boosted_shape);
  expect_stage_sums(res, "dropped-prefetch");
  const auto want = testutil::reference_topk(idx, q);
  testutil::expect_same_topk(res.topk, want, "dropped-prefetch");
}

TEST(QueryTrace, NoOverlapOnCpuOnlyPaths) {
  // Queries that never touch the GPU have nothing to overlap: the critical
  // path *is* the serial sum, exactly.
  const auto& idx = testutil::small_index();
  const auto log = trace_log(idx);
  core::HybridOptions opt;
  opt.scheduler.policy = core::SchedulerPolicy::kAlwaysCpu;
  core::HybridEngine always_cpu(idx, {}, opt);
  cpu::CpuEngine cpu_engine(idx);
  for (const auto& q : log) {
    for (core::Engine* e :
         {static_cast<core::Engine*>(&always_cpu),
          static_cast<core::Engine*>(&cpu_engine)}) {
      const auto res = e->execute(q);
      EXPECT_EQ(res.metrics.overlap.saved.ps(), 0);
      EXPECT_EQ(res.metrics.overlap.prefetch_issued, 0u);
      EXPECT_EQ(res.metrics.overlap.h2d_busy.ps(), 0);
      EXPECT_EQ(res.metrics.overlap.d2h_busy.ps(), 0);
    }
  }
}

TEST(QueryTrace, WarmCacheTracesAreDeterministic) {
  const auto& idx = testutil::small_index();
  const auto log = trace_log(idx);
  core::HybridEngine engine(idx);
  for (const auto& q : log) engine.execute(q);  // warm both tiers

  for (std::size_t i = 0; i < log.size(); ++i) {
    const auto first = engine.execute(log[i]);
    const auto second = engine.execute(log[i]);
    expect_identical_traces(first.trace, second.trace,
                            "warm q" + std::to_string(i));
  }
}

TEST(QueryTrace, NoEngineEmitsHostDecode) {
  const auto& idx = testutil::small_index();
  const auto log = trace_log(idx);
  const auto expect_none = [](const core::QueryResult& res,
                              const std::string& label) {
    for (const auto& r : res.trace) {
      EXPECT_NE(r.kind, core::StepKind::kHostDecode) << label;
    }
  };
  for (const auto policy : {core::SchedulerPolicy::kRatioThreshold,
                            core::SchedulerPolicy::kCostModel,
                            core::SchedulerPolicy::kAlwaysCpu,
                            core::SchedulerPolicy::kAlwaysGpu,
                            core::SchedulerPolicy::kAlwaysSplit}) {
    core::HybridOptions opt;
    opt.scheduler.policy = policy;
    core::HybridEngine engine(idx, {}, opt);
    // Twice over: cold caches, then the warm host decoded cache whose
    // residency bits used to gate the decode-ahead.
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i < log.size(); ++i) {
        expect_none(engine.execute(log[i]),
                    "policy " + std::to_string(static_cast<int>(policy)) +
                        " pass " + std::to_string(pass) + " q" +
                        std::to_string(i));
      }
    }
  }
  // Tenancy lanes run the same planner under batching and a shared clock.
  std::vector<tenancy::TenantQuery> load;
  for (std::size_t i = 0; i < log.size(); ++i) {
    load.push_back(
        {log[i], sim::Duration::from_us(5.0 * static_cast<double>(i))});
  }
  tenancy::DeviceManager device(idx);
  for (int pass = 0; pass < 2; ++pass) {
    const auto results = device.run(load);
    ASSERT_EQ(results.size(), log.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      expect_none(results[i].result, "tenancy pass " + std::to_string(pass) +
                                         " q" + std::to_string(i));
    }
  }
}
