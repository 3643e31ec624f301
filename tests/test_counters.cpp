// The counter schema (util/counters.h, DESIGN.md §18) and the roll-up that
// carries it through the layers (core::CounterTotals).
//
// Schema: for every counter struct, each field reached through the table
// gets a distinct value; the generated +=, -, ==, any() must then act on
// every field, and the JSON emitter must keep the benches' key names and
// order. Conservation: a cluster run, an engine service run and a tenancy
// run must each report exactly the sum of the per-query counters they
// executed — compared whole-struct, so a counter dropped by any layer fails.
#include "util/counters.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "../bench/bench_common.h"
#include "cluster/broker.h"
#include "core/hybrid_engine.h"
#include "engine_test_util.h"
#include "service/service_sim.h"
#include "tenancy/device_manager.h"

using namespace griffin;

namespace {

/// Calls f on every scalar (count or duration) of a counter struct,
/// descending into nested counter structs, in table order.
template <class T, class F>
void for_each_leaf(T& t, F&& f) {
  util::for_each_field<std::remove_const_t<T>>([&](const auto& e) {
    auto& v = t.*e.member;
    using M = std::remove_cvref_t<decltype(v)>;
    if constexpr (std::is_same_v<M, sim::Duration> || std::is_integral_v<M>) {
      f(v);
    } else {
      for_each_leaf(v, f);
    }
  });
}

std::int64_t value(std::uint64_t v) { return static_cast<std::int64_t>(v); }
std::int64_t value(sim::Duration d) { return d.ps(); }
void set(std::uint64_t& v, std::int64_t x) {
  v = static_cast<std::uint64_t>(x);
}
void set(sim::Duration& d, std::int64_t x) { d = sim::Duration::from_ps(x); }

template <class T>
std::vector<std::int64_t> leaves(const T& t) {
  std::vector<std::int64_t> out;
  for_each_leaf(t, [&](const auto& v) { out.push_back(value(v)); });
  return out;
}

/// Leaf i (in table order) gets first + i * step.
template <class T>
T filled(std::int64_t first, std::int64_t step) {
  T t;
  std::int64_t x = first;
  for_each_leaf(t, [&](auto& v) {
    set(v, x);
    x += step;
  });
  return t;
}

template <class T>
class CounterSchema : public ::testing::Test {};

using CounterTypes =
    ::testing::Types<core::CacheCounters, core::OverlapCounters,
                     fault::FaultCounters, sim::SimdCounters,
                     core::TraceSummary, core::CounterTotals>;
TYPED_TEST_SUITE(CounterSchema, CounterTypes);

}  // namespace

TYPED_TEST(CounterSchema, GeneratedOperatorsTouchEveryField) {
  using T = TypeParam;
  const T a = filled<T>(1, 1);
  const T b = filled<T>(1000, 7);
  const auto la = leaves(a);
  const auto lb = leaves(b);
  // Every leaf is an 8-byte scalar and the table reaches all of them.
  ASSERT_EQ(la.size() * 8, sizeof(T));

  T sum = a;
  sum += b;
  const auto ls = leaves(sum);
  for (std::size_t i = 0; i < la.size(); ++i) {
    EXPECT_EQ(ls[i], la[i] + lb[i]) << "leaf " << i;
  }
  EXPECT_EQ(leaves(sum - b), la);
  EXPECT_TRUE(sum - b == a);
  EXPECT_TRUE(a == a);
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(T{} == T{});
  EXPECT_FALSE(T{}.any());
  EXPECT_FALSE((a - a).any());

  // == and any() see each leaf on its own.
  for (std::size_t i = 0; i < la.size(); ++i) {
    T one;
    std::size_t j = 0;
    for_each_leaf(one, [&](auto& v) { set(v, j++ == i ? 1 : 0); });
    EXPECT_TRUE(one.any()) << "leaf " << i;
    EXPECT_FALSE(one == T{}) << "leaf " << i;
  }
}

TEST(CounterSchema, UnwiredFieldIsDetected) {
  // The check every counter struct's static_assert runs: a member left out
  // of the table makes the table's field sizes fall short of sizeof(T).
  struct Partial : util::Counters<Partial> {
    std::uint64_t wired = 0;
    std::uint64_t unwired = 0;
    static constexpr auto fields() {
      return std::tuple{util::field(&Partial::wired, "wired")};
    }
  };
  static_assert(!util::covers<Partial>());
  static_assert(util::covers<core::CounterTotals>());
}

TEST(CounterSchema, JsonKeepsTheBenchKeysAndOrder) {
  // Durations print in microseconds under their _us keys; the key order is
  // the one BENCH_*.json files have always had.
  const auto overlap = filled<core::OverlapCounters>(1'000'000, 1'000'000);
  EXPECT_EQ(bench::counters_json(overlap).dump_line(),
            "{\"saved_us\":1,\"prefetch_issued\":2000000,"
            "\"prefetch_used\":3000000,\"prefetch_dropped\":4000000,"
            "\"cpu_busy_us\":5,\"gpu_busy_us\":6,\"h2d_busy_us\":7,"
            "\"d2h_busy_us\":8}");

  const auto faults = filled<fault::FaultCounters>(1'000'000, 1'000'000);
  EXPECT_EQ(bench::counters_json(faults).dump_line(),
            "{\"gpu_faults\":1000000,\"pcie_errors\":2000000,"
            "\"split_leg_faults\":3000000,\"prefetch_faults\":4000000,"
            "\"oom_faults\":5000000,\"oom_evictions\":6000000,"
            "\"oom_evicted_bytes\":7000000,\"oom_unfused\":8000000,"
            "\"oom_degraded_steps\":9000000,\"gpu_wasted_us\":10,"
            "\"pcie_retry_us\":11,\"oom_recovery_us\":12,"
            "\"replica_failures\":13000000,\"failovers\":14000000,"
            "\"slow_replicas\":15000000,\"backoff_us\":16,"
            "\"breaker_opens\":17000000,\"breaker_short_circuits\":18000000,"
            "\"deadline_misses\":19000000,\"shards_dropped\":20000000,"
            "\"degraded_queries\":21000000,\"shed_queries\":22000000}");

  // Nested counter structs become nested objects under their field key.
  const auto trace = filled<core::TraceSummary>(1, 1);
  const std::string t = bench::counters_json(trace).dump_line();
  EXPECT_EQ(t.rfind("{\"steps\":1,\"decode_steps\":2,", 0), 0u) << t;
  EXPECT_NE(t.find("\"step_time_us\":1.5e-05,\"simd\":{\"loops\":16,"),
            std::string::npos)
      << t;
}

TEST(BenchJson, UnsignedIntegersPrintExactly) {
  // 64-bit values (top-k digests) keep every digit; below 10^12 the text is
  // what the double path printed, so existing BENCH files do not move.
  const std::uint64_t digest = 2543116079170000123ull;
  EXPECT_EQ(bench::Json(digest).dump_line(), "2543116079170000123");
  EXPECT_EQ(bench::Json(~std::uint64_t{0}).dump_line(),
            "18446744073709551615");
  EXPECT_EQ(bench::Json(std::uint64_t{999'999'999'999}).dump_line(),
            bench::Json(999'999'999'999.0).dump_line());
  EXPECT_EQ(bench::Json(std::uint64_t{0}).dump_line(), "0");
  EXPECT_EQ(bench::Json(2.5).dump_line(), "2.5");
}

// ---- Conservation: each layer's roll-up == the sum of what it executed ----

namespace {

/// The expected roll-up, summed per counter struct (not through
/// CounterTotals::add, whose callers are under test). Also checks that the
/// query's lane counters equal the sum over its steps.
void expect_add(core::CounterTotals& want, const core::QueryResult& r) {
  want.cache += r.metrics.cache;
  want.overlap += r.metrics.overlap;
  want.faults += r.metrics.faults;
  core::TraceSummary t;
  t.add(r.trace);
  EXPECT_TRUE(t.simd == r.metrics.simd);
  want.trace += t;
}

sim::HardwareSpec avx2_hardware() {
  sim::HardwareSpec hw;
  hw.cpu = sim::CpuSpec::modern_avx2();  // nonzero lane counters
  return hw;
}

fault::FaultConfig engine_faults() {
  fault::FaultConfig f;
  f.gpu.probability = 0.1;
  f.pcie.probability = 0.05;
  f.oom.probability = 0.1;
  f.seed = 29;
  return f;
}

std::vector<core::Query> conservation_log(std::uint32_t n, std::uint64_t seed) {
  workload::QueryLogConfig qcfg;
  qcfg.num_queries = n;
  qcfg.seed = seed;
  return workload::generate_query_log(
      qcfg, static_cast<std::uint32_t>(testutil::small_index().num_terms()));
}

}  // namespace

TEST(CounterConservation, ClusterRunEqualsTheShardExecutions) {
  const auto& idx = testutil::small_index();
  const auto log = conservation_log(40, 301);
  cluster::ClusterConfig cfg;
  cfg.num_shards = 3;
  cfg.faults = engine_faults();  // engine sites only: no broker-level counts
  const auto hw = avx2_hardware();
  cluster::ClusterBroker timed(idx, cfg, hw);
  cluster::ClusterBroker twin(idx, cfg, hw);

  const auto res = timed.run(log);
  // No result cache: run() executes every query on every shard, in order.
  core::CounterTotals want;
  for (const auto& q : log) {
    for (std::uint32_t s = 0; s < twin.num_shards(); ++s) {
      expect_add(want, twin.node(s).execute(q));
    }
  }
  EXPECT_TRUE(res.totals == want);
  EXPECT_GT(want.faults.gpu_faults + want.faults.oom_faults, 0u);
  EXPECT_GT(want.trace.simd.loops, 0u);
}

TEST(CounterConservation, EngineServiceRunEqualsItsExecutions) {
  const auto& idx = testutil::small_index();
  const auto log = conservation_log(60, 302);
  core::HybridOptions opt;
  opt.faults = engine_faults();
  const auto hw = avx2_hardware();
  core::HybridEngine engine(idx, hw, opt);
  core::HybridEngine twin(idx, hw, opt);

  service::ServiceConfig cfg;
  cfg.arrival_qps = 50000.0;
  cfg.max_queue_depth = 4;  // shed some: service-level counts ride along
  const auto res = service::run_service(engine, log, cfg);

  core::CounterTotals want;
  for (const auto& q : log) expect_add(want, twin.execute(q));
  want.faults.shed_queries = res.shed_queries();
  EXPECT_TRUE(res.totals == want);
  EXPECT_GT(res.shed_queries(), 0u);
  EXPECT_EQ(res.response_ms.count() + res.shed_queries(), log.size());
}

TEST(CounterConservation, TenancyRunEqualsItsQueries) {
  const auto& idx = testutil::small_index();
  const auto log = conservation_log(60, 303);
  tenancy::TenancyOptions opt;
  opt.max_concurrency = 4;
  opt.engine.faults = engine_faults();
  tenancy::DeviceManager dm(idx, avx2_hardware(), opt);
  std::vector<tenancy::TenantQuery> load;
  for (std::size_t i = 0; i < log.size(); ++i) {
    load.push_back({log[i], sim::Duration::from_us(2.0 * double(i))});
  }
  const auto results = dm.run(load, /*max_in_system=*/6);

  core::CounterTotals want;
  std::uint64_t shed = 0;
  for (const auto& r : results) {
    expect_add(want, r.result);
    shed += r.shed ? 1 : 0;
  }
  EXPECT_TRUE(dm.run_totals() == want);
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(want.faults.shed_queries, shed);
  EXPECT_GT(want.trace.batched_steps, 0u);
}
