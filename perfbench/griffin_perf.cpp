// The Griffin benchmark, griffin_perf. One binary run measures one workload:
//
//   griffin_perf --workload paper_mix|tenant_zipf|split_band --seed N
//                --seconds S --trace 0|1 [--trace-out FILE]
//
// It generates the workload's inputs from the seed, builds the index and the
// engines (timed as set-up), runs the queries, checks every output, and
// prints a human-readable report followed by one JSON result line. The
// system is driven only through its public calls: workload::generate_*,
// index::*, core::HybridEngine, core::Planner + core::StepExecutor,
// core::Scheduler, tenancy::DeviceManager and service::run_service.
//
// Two clocks. Simulated figures (sim_*) are query latencies on the modelled
// K20 + Xeon testbed and repeat exactly at a fixed seed; host figures
// (host_qps, setup_s, peak_rss_mb) are this process on the machine it runs
// on, host_qps scaled to a reference host speed (HostSpeed). --trace 0
// reports the end-to-end metrics; --trace 1 is a separate pass that replays
// the engine's plan loop here, records spans around every call into the
// planner and the executor, and reports per-layer metrics named after the
// src/ module they measure.
//
// Correctness checks, per measured query (a query failing any of them, or
// shed, counts in `failed`; any failure exits non-zero):
//   * result_count == |set_intersection| of the cpu::decode_all'd lists;
//   * the top-k equals the CPU-only engine's, doc ids and score bits;
//   * decode + intersect + transfer + rank == total + overlap.saved;
//   * every repeated pass reproduces the first pass bit-for-bit (tenant_zipf:
//     every timed segmented pass gives the reference pass's answers and
//     reproduces the first segmented pass);
//   * traced run: the traced loop reproduces HybridEngine::execute, and
//     Scheduler::decide(shape) replays every intersect's placement.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/executor.h"
#include "core/hybrid_engine.h"
#include "core/planner.h"
#include "core/scheduler.h"
#include "cpu/decode.h"
#include "cpu/engine.h"
#include "gpu/engine.h"
#include "perf_helpers.h"
#include "service/queueing.h"
#include "service/service_sim.h"
#include "spans.h"
#include "tenancy/device_manager.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workload/corpus.h"
#include "workload/querylog.h"

using namespace griffin;
using perfbench::MetricSet;
using perfbench::SpanRecorder;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// This thread's CPU time. Host figures (setup_s, host_qps, index build)
/// use it rather than the wall clock: the benchmark is single-threaded, and
/// CPU time does not count the moments a shared machine runs something else.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The shared host's speed. The CPU time of one and the same pass drifts by
/// up to a quarter over minutes on a shared 4-core Xeon VM, alike on every
/// workload: other tenants' load changes how fast this core runs. A fixed
/// loop that calls nothing in src/ (random read-modify-writes over a 1 MiB
/// table, then sorts of what was read; it adds about 1 MiB to peak_rss_mb) is
/// timed between the timed chunks of a run; host_qps is scaled by its median
/// time over kReferenceLoopS, i.e. reported at the host speed at which the
/// loop takes that long. A change to the system moves the chunks, not the
/// loop.
class HostSpeed {
 public:
  /// The loop's CPU time at the reference speed: its median on the machine
  /// above.
  static constexpr double kReferenceLoopS = 0.019;

  /// Times the loop unless one was timed less than `every_s` CPU seconds ago.
  void sample(double every_s) {
    if (cpu_seconds() - last_ < every_s) return;
    const double t0 = cpu_seconds();
    const std::uint64_t mask = table_.size() - 1;
    for (int r = 0; r < 16; ++r) {
      buf_.clear();
      for (std::uint32_t i = 0; i < 16384; ++i) {
        x_ ^= x_ << 13;
        x_ ^= x_ >> 7;
        x_ ^= x_ << 17;
        table_[x_ & mask] += i;
        buf_.push_back(table_[(x_ >> 32) & mask]);
      }
      std::sort(buf_.begin(), buf_.end());
      table_[buf_[buf_.size() / 2] & mask] ^= 1;  // keeps the reads live
    }
    last_ = cpu_seconds();
    samples_.push_back(last_ - t0);
  }

  std::size_t samples() const { return samples_.size(); }
  double loop_s() const { return median(samples_); }
  /// Reference seconds per CPU second on this host during the run.
  double scale() const { return loop_s() / kReferenceLoopS; }

 private:
  std::vector<std::uint32_t> table_ =
      std::vector<std::uint32_t>(std::size_t{1} << 18);
  std::vector<std::uint32_t> buf_;
  std::uint64_t x_ = 0x9E3779B97F4A7C15ull;
  std::vector<double> samples_;
  double last_ = -1e300;
};

/// CPU seconds between host-speed samples in a timed pass.
constexpr double kSpeedSampleEveryS = 0.5;

/// Derives an independent stream seed from the run seed (splitmix64).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Workload definitions. Every constant here is an absolute input property;
// none is derived from how fast the code runs.

constexpr std::uint64_t kDefaultSeed = 4242;
/// Set-up repeats per run (the median is reported): at least kSetupMinReps,
/// and more while under kSetupMinSeconds, so short set-ups are still timed
/// over enough repetitions to be steady.
constexpr std::size_t kSetupMinReps = 3;
constexpr std::size_t kSetupMaxReps = 25;
constexpr double kSetupMinSeconds = 1.0;

/// paper_mix: the paper-style log over the topical Zipf corpus (the
/// bench::paper_*_config shapes, scaled to 500k docs so one run affords
/// 1000 queries).
workload::CorpusConfig paper_mix_corpus(std::uint64_t seed) {
  workload::CorpusConfig cfg;
  cfg.num_docs = 500'000;
  cfg.num_terms = 1'000;
  cfg.max_list_divisor = 3.0;
  cfg.zipf_s = 0.75;
  cfg.min_list_size = 512;
  cfg.num_topics = 8;
  cfg.topic_affinity = 0.45;
  cfg.seed = derive_seed(seed, 1);
  return cfg;
}

workload::QueryLogConfig paper_log(const workload::CorpusConfig& corpus,
                                   std::uint32_t n, std::uint64_t seed) {
  workload::QueryLogConfig q;
  q.num_queries = n;
  q.term_zipf_s = 1.6;
  q.num_topics = corpus.num_topics;
  q.topical_fraction = 0.9;
  q.seed = seed;
  return q;
}

constexpr std::uint32_t kPaperMixQueries = 1000;

/// tenant_zipf: the multi-tenant corpus shape (300 terms) at 100k docs,
/// Zipf-repeated streams, 4 lanes with batching (TenancyOptions defaults).
workload::CorpusConfig tenant_corpus(std::uint64_t seed) {
  workload::CorpusConfig cfg = paper_mix_corpus(seed);
  cfg.num_docs = 100'000;
  cfg.num_terms = 300;
  cfg.seed = derive_seed(seed, 2);
  return cfg;
}
constexpr std::uint32_t kTenants = 32;  ///< user populations
// Per population: distinct queries, popularity skew, untimed warm-up
// prefix, measured queries. Many mildly skewed populations keep the run's
// tail from resting on a few hot queries' costs (steady across seeds).
constexpr std::uint32_t kTenantPool = 50;
constexpr double kTenantPopularityZipf = 0.5;
constexpr std::uint32_t kTenantWarm = 2;
constexpr std::uint32_t kTenantMeasured = 48;
constexpr double kTenantRateQps = 3000.0;       ///< operating point

/// split_band: pair queries whose second step lands in the split band. The
/// universe keeps every long list under a quarter of it, make_uniform_list's
/// sparse (sample-and-sort) path.
constexpr index::DocId kBandUniverse = 16'000'000;
constexpr std::uint64_t kBandProbe = 6144;
constexpr double kBandLambdas[] = {128.0, 160.0, 192.0, 224.0};
constexpr std::uint32_t kBandQueries = 200;
constexpr double kBandContainment = 0.4;

/// The fixed capacity ladders (offered qps) and p95 limits (simulated ms).
struct CapacitySpec {
  std::vector<double> ladder;
  double limit_ms;
};

std::vector<double> geometric_ladder(double lo, double ratio, int rungs) {
  std::vector<double> v;
  double r = lo;
  for (int i = 0; i < rungs; ++i, r *= ratio) v.push_back(r);
  return v;
}

CapacitySpec capacity_spec(const std::string& wl) {
  if (wl == "tenant_zipf") return {geometric_ladder(3000.0, 1.05, 40), 2.0};
  return {geometric_ladder(100.0, 1.02, 233), 5.0};  // the closed loops
}

// ---------------------------------------------------------------------------
// Inputs.

struct Inputs {
  explicit Inputs(index::InvertedIndex i) : idx(std::move(i)) {}

  index::InvertedIndex idx;
  std::vector<core::Query> warm;     ///< tenant_zipf only
  std::vector<core::Query> queries;  ///< measured
  /// split_band: every query runs on a fresh engine (its long list cold).
  bool fresh_engine_per_query = false;
  double index_build_s = 0.0;
};

Inputs make_paper_mix(std::uint64_t seed) {
  const auto cfg = paper_mix_corpus(seed);
  const double t0 = cpu_seconds();
  Inputs in{workload::generate_corpus(cfg)};
  in.index_build_s = cpu_seconds() - t0;
  // Unique queries: draw a longer log and keep first occurrences.
  const auto log = workload::generate_query_log(
      paper_log(cfg, 4 * kPaperMixQueries, derive_seed(seed, 3)),
      cfg.num_terms);
  std::set<std::vector<index::TermId>> seen;
  for (const auto& q : log) {
    auto key = q.terms;
    std::sort(key.begin(), key.end());
    if (!seen.insert(std::move(key)).second) continue;
    core::Query u = q;
    u.id = in.queries.size();
    in.queries.push_back(std::move(u));
    if (in.queries.size() == kPaperMixQueries) break;
  }
  return in;
}

/// kTenants user populations, each a Zipf-repeated stream over its own
/// pool of paper-style queries; their arrivals interleave round-robin.
Inputs make_tenant_zipf(std::uint64_t seed) {
  const auto cfg = tenant_corpus(seed);
  const double t0 = cpu_seconds();
  Inputs in{workload::generate_corpus(cfg)};
  in.index_build_s = cpu_seconds() - t0;
  std::vector<std::vector<core::Query>> streams;
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    workload::RepeatedLogConfig rep;
    rep.num_queries = kTenantWarm + kTenantMeasured;
    rep.unique_queries = kTenantPool;
    rep.popularity_zipf_s = kTenantPopularityZipf;
    rep.seed = derive_seed(seed, 100 + t);
    streams.push_back(workload::generate_repeated_query_log(
        paper_log(cfg, kTenantPool, derive_seed(seed, 200 + t)), rep,
        cfg.num_terms));
  }
  for (std::uint32_t i = 0; i < kTenantWarm + kTenantMeasured; ++i) {
    for (const auto& st : streams) {
      auto& dst = i < kTenantWarm ? in.warm : in.queries;
      dst.push_back(st[i]);
      dst.back().id = in.warm.size() + in.queries.size() - 1;
    }
  }
  return in;
}

/// Band pairs the way bench/coexec builds them: the probe list indexed
/// twice (step 1 is the identity intersect that leaves it as the
/// intermediate) against a list lambda times longer, VarByte-coded. Each
/// lambda gets one long list; the queries cycle over the lambdas, each with
/// a fresh probe holding `containment` of its postings from the long list.
/// Every query runs on a fresh engine, so its long list is never resident.
Inputs make_split_band(std::uint64_t seed) {
  Inputs in{index::InvertedIndex(codec::Scheme::kVarByte)};
  in.fresh_engine_per_query = true;
  util::Xoshiro256 rng(derive_seed(seed, 6));
  const double t0 = cpu_seconds();
  in.idx.docs().resize(kBandUniverse);
  std::vector<std::vector<index::DocId>> longs;
  std::vector<index::TermId> long_terms;
  for (const double lambda : kBandLambdas) {
    longs.push_back(workload::make_uniform_list(
        static_cast<std::uint64_t>(lambda * double(kBandProbe)),
        kBandUniverse, rng));
    long_terms.push_back(in.idx.add_list(longs.back()));
  }
  const auto n_in =
      static_cast<std::uint64_t>(kBandContainment * double(kBandProbe));
  for (std::uint32_t qi = 0; qi < kBandQueries; ++qi) {
    const std::size_t l = qi % longs.size();
    std::vector<index::DocId> probe;
    probe.reserve(kBandProbe);
    for (std::uint64_t i = 0; i < n_in; ++i) {
      probe.push_back(longs[l][rng.bounded(longs[l].size())]);
    }
    for (std::uint64_t i = n_in; i < kBandProbe; ++i) {
      probe.push_back(static_cast<index::DocId>(rng.bounded(kBandUniverse)));
    }
    std::sort(probe.begin(), probe.end());
    probe.erase(std::unique(probe.begin(), probe.end()), probe.end());
    core::Query q;
    q.terms = {in.idx.add_list(probe), in.idx.add_list(probe), long_terms[l]};
    q.id = qi;
    in.queries.push_back(std::move(q));
  }
  in.index_build_s = cpu_seconds() - t0;
  return in;
}

Inputs make_inputs(const std::string& wl, std::uint64_t seed) {
  if (wl == "paper_mix") return make_paper_mix(seed);
  if (wl == "tenant_zipf") return make_tenant_zipf(seed);
  if (wl == "split_band") return make_split_band(seed);
  throw std::invalid_argument("unknown workload: " + wl);
}

// ---------------------------------------------------------------------------
// Checks.

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> examples;  ///< first few failure reasons

  void query(const std::vector<std::string>& problems) {
    ++attempted;
    if (problems.empty()) return;
    ++failed;
    if (examples.size() < 8) examples.push_back(problems.front());
  }
  /// A failure not tied to one query (e.g. a non-reproducing pass).
  void global(const std::string& what) {
    ++failed;
    ++attempted;
    if (examples.size() < 8) examples.push_back(what);
  }
};

std::uint64_t oracle_count(const index::InvertedIndex& idx,
                           const core::Query& q) {
  const sim::CpuSpec spec;
  sim::CpuCostAccumulator acc(spec);
  std::vector<index::DocId> cur;
  std::vector<index::DocId> next;
  std::vector<index::DocId> tmp;
  for (std::size_t i = 0; i < q.terms.size(); ++i) {
    cpu::decode_all(idx.list(q.terms[i]).docids, i == 0 ? cur : next, acc);
    if (i == 0) continue;
    tmp.clear();
    std::set_intersection(cur.begin(), cur.end(), next.begin(), next.end(),
                          std::back_inserter(tmp));
    cur.swap(tmp);
  }
  return cur.size();
}

bool same_topk(const std::vector<core::ScoredDoc>& a,
               const std::vector<core::ScoredDoc>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].doc != b[i].doc ||
        std::bit_cast<std::uint32_t>(a[i].score) !=
            std::bit_cast<std::uint32_t>(b[i].score)) {
      return false;
    }
  }
  return true;
}

bool stage_identity(const core::QueryMetrics& m) {
  return (m.decode + m.intersect + m.transfer + m.rank).ps() ==
         (m.total + m.overlap.saved).ps();
}

/// Same query result and same simulated accounting, step by step.
bool same_result(const core::QueryResult& a, const core::QueryResult& b) {
  const auto& x = a.metrics;
  const auto& y = b.metrics;
  if (!same_topk(a.topk, b.topk) || x.total != y.total ||
      x.decode != y.decode || x.intersect != y.intersect ||
      x.transfer != y.transfer || x.rank != y.rank ||
      x.overlap.saved != y.overlap.saved || x.result_count != y.result_count ||
      x.gpu_kernels != y.gpu_kernels || x.placements != y.placements ||
      a.trace.size() != b.trace.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    const auto& r = a.trace[i];
    const auto& s = b.trace[i];
    if (r.kind != s.kind || r.placement != s.placement ||
        r.duration != s.duration || r.start != s.start || r.end != s.end) {
      return false;
    }
  }
  return true;
}

/// The per-query output checks shared by every workload.
std::vector<std::string> check_query(const index::InvertedIndex& idx,
                                     const core::Query& q,
                                     const core::QueryResult& res,
                                     const core::QueryResult& cpu_only) {
  std::vector<std::string> problems;
  const std::string id = "query " + std::to_string(q.id) + ": ";
  if (res.metrics.result_count != oracle_count(idx, q)) {
    problems.push_back(id + "result_count differs from set_intersection");
  }
  if (!same_topk(res.topk, cpu_only.topk)) {
    problems.push_back(id + "top-k differs from the CPU-only engine");
  }
  if (!stage_identity(res.metrics)) {
    problems.push_back(id + "stage identity broken");
  }
  return problems;
}

// ---------------------------------------------------------------------------
// The traced engine: HybridEngine's members and run_plan's loop, replayed
// here so every Planner::next and StepExecutor::run call gets a span.

/// Host time and counts per step tag, plus the other per-layer tallies.
struct LayerTally {
  std::map<std::string, double> host_s;  ///< by step tag
  std::map<std::string, std::uint64_t> steps;
  double plan_s = 0.0;
  double query_setup_s = 0.0;  ///< begin_query + finish_query
  double query_s = 0.0;        ///< whole query spans
  double gpu_step_s = 0.0;     ///< GPU-placed decode/intersect steps
  std::uint64_t gpu_step_kernels = 0;
};

std::string step_tag(const core::StepRecord& r) {
  const auto where = [&r] {
    switch (r.placement) {
      case core::Placement::kCpu: return "_cpu";
      case core::Placement::kGpu: return "_gpu";
      case core::Placement::kSplit: return "_split";
    }
    return "";
  };
  switch (r.kind) {
    case core::StepKind::kDecode: return std::string("decode") + where();
    case core::StepKind::kIntersect: return std::string("intersect") + where();
    case core::StepKind::kTransfer: return "transfer";
    case core::StepKind::kRank: return "rank";
    case core::StepKind::kPrefetch: return "prefetch";
    case core::StepKind::kHostDecode: return "host_decode";
  }
  return "unknown";
}

/// A HybridEngine(idx) with default options, built from the same parts.
class TracedHybrid {
 public:
  explicit TracedHybrid(const index::InvertedIndex& idx)
      : idx_(&idx),
        sched_(opt_.scheduler, hw_),
        exec_(idx, hw_, opt_.gpu),
        host_cache_(opt_.cpu.decoded_cache_bytes),
        svs_(idx, hw_.cpu,
             cpu::SvsOptions{opt_.cpu.skip_ratio, opt_.cpu.ef_random_access},
             &host_cache_),
        scorer_(idx, opt_.cpu.bm25) {}

  core::QueryResult execute(const core::Query& q, SpanRecorder& spans,
                            LayerTally& tally) {
    core::StepExecutor exec(hw_.cpu, &svs_, &exec_, scorer_);
    core::Planner planner(*idx_, sched_, exec);
    core::QueryResult res;
    if (q.terms.empty()) return res;
    const auto qid = static_cast<std::int64_t>(q.id);
    const auto root = spans.begin("query", "query", SpanRecorder::kNone, qid);
    auto s = spans.begin("begin_query", "core.executor", root, qid);
    exec.begin_query(q);
    planner.begin(q);
    tally.query_setup_s += spans.end(s);
    for (;;) {
      s = spans.begin("Planner::next", "core.planner", root, qid);
      const auto step =
          planner.next(exec.intermediate_count(), exec.location());
      tally.plan_s += spans.end(s);
      if (!step) break;
      const std::size_t before = res.trace.size();
      s = spans.begin("StepExecutor::run", "core.executor", root, qid);
      const core::StepStatus status = exec.run(*step, q, res);
      const double dt = spans.end(s);
      const std::string tag =
          res.trace.size() > before ? step_tag(res.trace.back()) : "none";
      spans.rename(s, tag);
      tally.host_s[tag] += dt;
      ++tally.steps[tag];
      if (res.trace.size() > before) {
        const auto& r = res.trace.back();
        if (r.placement == core::Placement::kGpu &&
            (r.kind == core::StepKind::kIntersect ||
             r.kind == core::StepKind::kDecode)) {
          tally.gpu_step_s += dt;
          tally.gpu_step_kernels += r.gpu_kernels;
        }
      }
      switch (status) {
        case core::StepStatus::kOk: break;
        case core::StepStatus::kOkForceCpu: planner.force_cpu(); break;
        case core::StepStatus::kFaultQuery: planner.degrade_to_cpu(*step); break;
        case core::StepStatus::kFaultStep:
          planner.degrade_step_to_cpu(*step);
          break;
      }
    }
    s = spans.begin("finish_query", "core.executor", root, qid);
    exec.finish_query(res.metrics);
    tally.query_setup_s += spans.end(s);
    tally.query_s += spans.end(root);
    return res;
  }

 private:
  const index::InvertedIndex* idx_;
  const sim::HardwareSpec hw_{};
  const core::HybridOptions opt_{};
  core::Scheduler sched_;
  gpu::GpuExecutor exec_;
  cpu::DecodedCache host_cache_;
  cpu::SvsStepper svs_;
  cpu::Bm25Scorer scorer_;
};

// ---------------------------------------------------------------------------
// Closed-loop passes.

struct PassOutput {
  std::vector<core::QueryResult> results;
  double host_s = 0.0;  ///< engine calls only
};

/// One untraced closed-loop pass: one client, fresh engines (caches empty).
/// For tenant_zipf-style sequential use the warm prefix runs first, untimed.
PassOutput run_closed_pass(const Inputs& in, bool with_warm,
                           HostSpeed* speed = nullptr) {
  PassOutput out;
  out.results.reserve(in.queries.size());
  std::unique_ptr<core::HybridEngine> engine;
  if (!in.fresh_engine_per_query) {
    engine = std::make_unique<core::HybridEngine>(in.idx);
    if (with_warm) {
      for (const auto& q : in.warm) engine->execute(q);
    }
  }
  for (std::size_t i = 0; i < in.queries.size(); ++i) {
    if (in.fresh_engine_per_query) {
      engine = std::make_unique<core::HybridEngine>(in.idx);
    }
    if (speed) speed->sample(kSpeedSampleEveryS);
    const double t0 = cpu_seconds();
    out.results.push_back(engine->execute(in.queries[i]));
    out.host_s += cpu_seconds() - t0;
  }
  return out;
}

template <class Engine>
std::vector<core::QueryResult> run_baseline(const Inputs& in) {
  std::vector<core::QueryResult> out;
  std::unique_ptr<Engine> engine;
  for (std::size_t i = 0; i < in.queries.size(); ++i) {
    if (!engine || in.fresh_engine_per_query) {
      engine = std::make_unique<Engine>(in.idx);
    }
    out.push_back(engine->execute(in.queries[i]));
  }
  return out;
}

// ---------------------------------------------------------------------------
// tenant_zipf: the open loop through the DeviceManager.

std::vector<tenancy::TenantQuery> poisson_load(
    const std::vector<core::Query>& qs, double qps, std::uint64_t seed) {
  service::PoissonArrivals arrivals(qps, seed);
  std::vector<tenancy::TenantQuery> load;
  for (const auto& q : qs) load.push_back({q, arrivals.next()});
  return load;
}

struct OpenLoopOutput {
  std::vector<tenancy::TenantResult> results;
  double host_s = 0.0;
  std::uint64_t batch_groups = 0;
  std::array<double, sim::kNumResources> busy{};
};

/// One open-loop pass at the operating point: fresh device, warm prefix
/// (untimed), then the measured stream with Poisson arrivals in simulated
/// time — arrivals are timestamps, so the generator is never late and each
/// response is measured from its due arrival. The traced run's tenancy
/// figures come from it; the end-to-end ones from run_segmented_pass.
OpenLoopOutput run_open_pass(const Inputs& in, std::uint64_t seed) {
  OpenLoopOutput out;
  tenancy::DeviceManager device(in.idx);  // defaults: 4 lanes, batching on
  const auto warm = poisson_load(in.warm, kTenantRateQps, derive_seed(seed, 7));
  device.run(warm);
  const auto load =
      poisson_load(in.queries, kTenantRateQps, derive_seed(seed, 8));
  const double t0 = cpu_seconds();
  out.results = device.run(load);
  out.host_s = cpu_seconds() - t0;
  out.batch_groups = device.batch_groups();
  out.busy = device.busy_fractions();
  return out;
}

/// tenant_zipf's measured pass: as run_open_pass, but the measured stream
/// runs as kTenantSegments consecutive segments, each one DeviceManager::run
/// timed on its own. run restarts the simulated clock, so each segment's
/// arrivals are rebased to its first and the device is idle when a segment
/// opens; the caches carry over. The cuts let HostSpeed sample the host
/// inside the stream, as it does between queries in the closed loops;
/// host_qps sums each segment's median time over the passes (at least
/// kMinTimedPasses, and until the measured window is filled).
constexpr std::size_t kTenantSegments = 16;
constexpr int kMinTimedPasses = 2;

struct SegmentedPass {
  std::vector<tenancy::TenantResult> results;
  std::vector<double> segment_s;
};

SegmentedPass run_segmented_pass(const Inputs& in, std::uint64_t seed,
                                 HostSpeed& speed) {
  SegmentedPass out;
  tenancy::DeviceManager device(in.idx);
  device.run(poisson_load(in.warm, kTenantRateQps, derive_seed(seed, 7)));
  const auto load =
      poisson_load(in.queries, kTenantRateQps, derive_seed(seed, 8));
  const std::size_t n = load.size();
  for (std::size_t k = 0; k < kTenantSegments; ++k) {
    std::vector<tenancy::TenantQuery> seg(
        load.begin() + static_cast<std::ptrdiff_t>(n * k / kTenantSegments),
        load.begin() +
            static_cast<std::ptrdiff_t>(n * (k + 1) / kTenantSegments));
    const sim::Duration start = seg.front().arrival;
    for (auto& q : seg) q.arrival = q.arrival - start;
    speed.sample(kSpeedSampleEveryS);
    const double t0 = cpu_seconds();
    auto rs = device.run(seg);
    out.segment_s.push_back(cpu_seconds() - t0);
    for (auto& r : rs) out.results.push_back(std::move(r));
  }
  return out;
}

struct LatencySummary {
  double p50 = 0.0;
  double p95 = 0.0;
  double mean = 0.0;
  std::size_t n = 0;
};

LatencySummary summarize(const std::vector<double>& ms) {
  util::PercentileTracker t;
  for (const double v : ms) t.add(v);
  LatencySummary s;
  s.n = ms.size();
  if (s.n == 0) return s;
  s.p50 = t.percentile(50);
  s.p95 = t.percentile(95);
  s.mean = t.mean();
  return s;
}

/// A ladder rung's verdict from one service run: its p95 response time, and
/// whether queue waits (response - service, in arrival order) grew or any
/// query was shed.
perfbench::RungResult rung_result(const service::ServiceResult& res,
                                  double limit_ms) {
  // Samples are in arrival order until the first percentile() sorts them.
  const auto& resp = res.response_ms.samples();
  const auto& svc = res.service_ms.samples();
  std::vector<double> waits(resp.size());
  for (std::size_t i = 0; i < resp.size(); ++i) waits[i] = resp[i] - svc[i];
  perfbench::RungResult r;
  r.backlog =
      perfbench::growing_backlog(waits, limit_ms) || res.shed_queries() > 0;
  r.p95_ms = res.response_ms.percentile(95);
  const auto w = summarize(waits);
  r.wait_p50_ms = w.p50;
  r.wait_p95_ms = w.p95;
  r.max_queue_depth = static_cast<double>(res.max_queue_depth);
  return r;
}

/// One capacity-ladder probe on the DeviceManager through run_service.
perfbench::RungResult probe_tenant(const Inputs& in, double qps,
                                   std::uint64_t seed, double limit_ms) {
  tenancy::DeviceManager device(in.idx);
  service::ServiceConfig warm_cfg;
  warm_cfg.arrival_qps = qps;
  warm_cfg.seed = derive_seed(seed, 9);
  service::run_service(device, in.warm, warm_cfg);
  service::ServiceConfig cfg;
  cfg.arrival_qps = qps;
  cfg.seed = derive_seed(seed, 10);
  return rung_result(service::run_service(device, in.queries, cfg), limit_ms);
}

/// A closed-loop workload's capacity: a single FCFS node serving its
/// measured per-query service times under Poisson arrivals at each rung
/// (service::run_service's precomputed overload). The stream replays the
/// measured sequence kFcfsReplays times so the queue reaches steady state.
constexpr int kFcfsReplays = 200;

perfbench::RungResult probe_fcfs(std::span<const sim::Duration> times,
                                 double qps, std::uint64_t seed,
                                 double limit_ms) {
  std::vector<sim::Duration> stream;
  for (int r = 0; r < kFcfsReplays; ++r) {
    stream.insert(stream.end(), times.begin(), times.end());
  }
  service::ServiceConfig cfg;
  cfg.arrival_qps = qps;
  cfg.seed = derive_seed(seed, 11);
  return rung_result(
      service::run_service(std::span<const sim::Duration>(stream), cfg),
      limit_ms);
}

/// The workload's capacity: the fixed ladder, binary-searched, probing the
/// DeviceManager (tenant_zipf) or an FCFS node over the reference pass's
/// service times (closed-loop workloads).
perfbench::LadderOutcome search_capacity(
    const std::string& wl, const Inputs& in,
    const std::vector<core::QueryResult>& ref, std::uint64_t seed) {
  const auto cap = capacity_spec(wl);
  if (wl == "tenant_zipf") {
    return perfbench::capacity_search(cap.ladder, cap.limit_ms, [&](double q) {
      return probe_tenant(in, q, seed, cap.limit_ms);
    });
  }
  std::vector<sim::Duration> times;
  for (const auto& r : ref) times.push_back(r.metrics.total);
  return perfbench::capacity_search(cap.ladder, cap.limit_ms, [&](double q) {
    return probe_fcfs(times, q, seed, cap.limit_ms);
  });
}

// ---------------------------------------------------------------------------
// Reporting.

std::uint64_t fold(std::uint64_t d, std::uint64_t v) {
  return (d ^ v) * 1099511628211ull;
}

/// FNV digest of a pass's simulated outputs: top-k, counts, latencies.
std::uint64_t digest(const std::vector<core::QueryResult>& rs) {
  std::uint64_t d = 14695981039346656037ull;
  for (const auto& r : rs) {
    d = fold(d, r.metrics.result_count);
    d = fold(d, static_cast<std::uint64_t>(r.metrics.total.ps()));
    for (const auto& s : r.topk) {
      d = fold(d, s.doc);
      d = fold(d, std::bit_cast<std::uint32_t>(s.score));
    }
  }
  return d;
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload required");
  return a;
}

/// Set-up: index build plus engine construction, repeated at least
/// kSetupMinReps times and until kSetupMinSeconds have passed; setup_s is the
/// median. Each repetition frees the previous one's inputs before building,
/// so peak memory holds one index; the last repetition's inputs are kept.
struct SetupOutput {
  Inputs inputs;
  double setup_s = 0.0;
  double build_s = 0.0;
};

SetupOutput set_up(const Args& a, SpanRecorder* spans) {
  std::vector<double> totals;
  std::vector<double> builds;
  std::optional<Inputs> kept;
  const auto start = Clock::now();
  while (totals.size() < kSetupMinReps ||
         (seconds_since(start) < kSetupMinSeconds &&
          totals.size() < kSetupMaxReps)) {
    kept.reset();
    const double t0 = cpu_seconds();
    const auto sp = spans ? spans->begin("setup", "setup") : 0;
    const auto sb =
        spans ? spans->begin("index build + query generation", "index", sp)
              : 0;
    Inputs in = make_inputs(a.workload, a.seed);
    if (spans) spans->end(sb);
    const auto se = spans ? spans->begin("engine construction", "core", sp) : 0;
    if (a.workload == "tenant_zipf") {
      tenancy::DeviceManager device(in.idx);
    } else {
      core::HybridEngine engine(in.idx);
    }
    if (spans) {
      spans->end(se);
      spans->end(sp);
    }
    totals.push_back(cpu_seconds() - t0);
    builds.push_back(in.index_build_s);
    kept.emplace(std::move(in));
  }
  return {std::move(*kept), median(totals), median(builds)};
}

void print_failures(const Checks& c) {
  for (const auto& e : c.examples) std::printf("  FAILED %s\n", e.c_str());
}

// ---------------------------------------------------------------------------
// --trace 0: the end-to-end metrics.

/// One measured pass of the workload: its results, the simulated latency
/// of each (response time from the due arrival on tenant_zipf), which
/// queries were shed, and the host time of the system calls alone.
struct Pass {
  std::vector<core::QueryResult> results;
  std::vector<double> latency_ms;
  std::vector<bool> shed;
  double host_s = 0.0;
  std::vector<double> segment_s;  ///< tenant_zipf: host time per segment
};

Pass run_pass(const Inputs& in, bool open, std::uint64_t seed,
              HostSpeed& speed) {
  Pass p;
  if (open) {
    auto o = run_segmented_pass(in, seed, speed);
    p.segment_s = std::move(o.segment_s);
    for (const double t : p.segment_s) p.host_s += t;
    for (auto& t : o.results) {
      p.shed.push_back(t.shed);
      if (!t.shed) p.latency_ms.push_back((t.finish - t.arrival).ms());
      p.results.push_back(std::move(t.result));
    }
  } else {
    auto o = run_closed_pass(in, false, &speed);
    p.host_s = o.host_s;
    p.results = std::move(o.results);
    p.shed.assign(p.results.size(), false);
    for (const auto& r : p.results) p.latency_ms.push_back(r.metrics.total.ms());
  }
  return p;
}

int run_untraced(const Args& a) {
  const auto setup = set_up(a, nullptr);
  const Inputs& in = setup.inputs;
  const bool open = a.workload == "tenant_zipf";
  Checks checks;
  HostSpeed speed;

  // The reference pass: its simulated outputs are the reported figures.
  double measured_s = 0.0;
  auto t0 = Clock::now();
  const Pass ref = run_pass(in, open, a.seed, speed);
  measured_s += seconds_since(t0);
  // Peak memory of set-up plus one pass; the checks' baselines run later.
  const double rss_mb = peak_rss_mb();
  std::vector<double> pass_qps = {
      static_cast<double>(ref.results.size()) / ref.host_s};
  std::vector<std::vector<double>> segment_s(ref.segment_s.size());
  const auto add_segments = [&](const Pass& p) {
    for (std::size_t k = 0; k < p.segment_s.size(); ++k) {
      segment_s[k].push_back(p.segment_s[k]);
    }
  };
  add_segments(ref);
  const std::uint64_t ref_digest = digest(ref.results);

  // Checks, once, on the reference pass.
  t0 = Clock::now();
  const auto cpu_only = run_baseline<cpu::CpuEngine>(in);
  for (std::size_t i = 0; i < ref.results.size(); ++i) {
    auto problems = check_query(in.idx, in.queries[i], ref.results[i],
                                cpu_only[i]);
    if (ref.shed[i]) problems.push_back("query shed");
    checks.query(problems);
  }
  const double checks_s = seconds_since(t0);

  // More passes until the measured window is filled (tenant_zipf: and
  // kMinTimedPasses are timed); each must reproduce the reference pass
  // exactly. host_qps is the median pass on the closed loops and, on
  // tenant_zipf, the queries over the sum of each segment's median time;
  // either is reported at the reference host speed (HostSpeed).
  while (measured_s < a.seconds ||
         (open && static_cast<int>(pass_qps.size()) < kMinTimedPasses)) {
    t0 = Clock::now();
    const Pass p = run_pass(in, open, a.seed, speed);
    measured_s += seconds_since(t0);
    pass_qps.push_back(static_cast<double>(p.results.size()) / p.host_s);
    add_segments(p);
    if (digest(p.results) != ref_digest) {
      checks.global("pass " + std::to_string(pass_qps.size()) +
                    " did not reproduce the first pass");
    }
  }
  double raw_qps = median(pass_qps);
  if (open) {
    double total_s = 0.0;
    for (const auto& t : segment_s) total_s += median(t);
    raw_qps = static_cast<double>(ref.results.size()) / total_s;
  }
  const std::vector<double>& latency_ms = ref.latency_ms;
  const int passes = static_cast<int>(pass_qps.size());

  const auto lat = summarize(latency_ms);
  const auto tail = perfbench::tail_percentile(lat.n);
  if (!tail || *tail < 95.0) {
    checks.global("fewer than 200 latency samples: p95 is not well fed");
  }
  const double failed_frac =
      static_cast<double>(checks.failed) / static_cast<double>(checks.attempted);

  std::printf("workload %s  seed %llu  (%s)\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed),
              open ? "open loop, Poisson arrivals in simulated time, so the "
                     "generator is never late"
                   : "closed loop, one client");
  std::printf("  latency samples n=%zu (p95 has %zu samples beyond it)\n",
              lat.n, perfbench::samples_beyond(lat.n, 95.0));
  if (open) {
    std::printf("  operating point %.0f qps, %u warm + %u measured queries\n",
                kTenantRateQps, kTenants * kTenantWarm,
                kTenants * kTenantMeasured);
  }
  std::printf("  passes %d, host_qps per pass:", passes);
  for (const double q : pass_qps) std::printf(" %.2f", q);
  std::printf("\n  host seconds: set-up %.3f (median), passes %.2f, checks "
              "%.2f",
              setup.setup_s, measured_s, checks_s);
  std::printf("\n  host speed: loop %.4f s (median of %zu samples; %.3f at "
              "reference), so host_qps = %.2f x %.4f",
              speed.loop_s(), speed.samples(), HostSpeed::kReferenceLoopS,
              raw_qps, speed.scale());
  std::printf("\n  failed_frac %.6f (%llu of %llu)\n", failed_frac,
              static_cast<unsigned long long>(checks.failed),
              static_cast<unsigned long long>(checks.attempted));
  print_failures(checks);

  MetricSet m;
  m.add("sim_p50_ms", lat.p50, "ms");
  m.add("sim_p95_ms", lat.p95, "ms");
  m.add("sim_mean_ms", lat.mean, "ms");
  m.add("host_qps", raw_qps * speed.scale(), "1/s");
  m.add("setup_s", setup.setup_s, "s");
  m.add("peak_rss_mb", rss_mb, "MB");
  for (const auto& x : m.metrics()) {
    std::printf("  %-18s %14.6f %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
  }
  std::printf("%s\n",
              m.result_line(checks.failed == 0, checks.attempted, checks.failed)
                  .c_str());
  return checks.failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --trace 1: the per-layer metrics.

/// Simulated per-query accounting summed over a traced pass.
struct SimTally {
  std::uint64_t queries = 0;
  sim::Duration decode, intersect, transfer, rank;
  std::uint64_t gpu_kernels = 0;
  std::uint64_t migrations = 0;
  core::OverlapCounters overlap;
  core::CacheCounters cache;
  sim::SimdCounters simd;
  core::TraceSummary trace;

  void add(const core::QueryResult& r) {
    const auto& m = r.metrics;
    ++queries;
    decode += m.decode;
    intersect += m.intersect;
    transfer += m.transfer;
    rank += m.rank;
    gpu_kernels += m.gpu_kernels;
    migrations += m.migrations;
    overlap += m.overlap;
    cache += m.cache;
    simd += m.simd;
    trace.add(r.trace);
  }
  double per_query_ms(sim::Duration d) const {
    return queries == 0 ? 0.0 : d.ms() / static_cast<double>(queries);
  }
};

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

double mean_ms(const std::vector<core::QueryResult>& rs) {
  double s = 0.0;
  for (const auto& r : rs) s += r.metrics.total.ms();
  return rs.empty() ? 0.0 : s / static_cast<double>(rs.size());
}

int run_traced(const Args& a) {
  SpanRecorder spans;
  const auto setup = set_up(a, &spans);
  const Inputs& in = setup.inputs;
  const bool open = a.workload == "tenant_zipf";
  Checks checks;

  // Untraced reference: the engine's own execute(), same query order.
  const auto untraced = run_closed_pass(in, open);

  // Traced replay of the same plan loop.
  LayerTally tally;
  std::vector<core::QueryResult> traced;
  double traced_host_s = 0.0;
  {
    std::unique_ptr<TracedHybrid> engine;
    LayerTally warm_tally;
    if (!in.fresh_engine_per_query) {
      engine = std::make_unique<TracedHybrid>(in.idx);
      SpanRecorder warm_spans;
      for (const auto& q : in.warm) engine->execute(q, warm_spans, warm_tally);
    }
    for (std::size_t i = 0; i < in.queries.size(); ++i) {
      if (in.fresh_engine_per_query) {
        engine = std::make_unique<TracedHybrid>(in.idx);
      }
      const double t0 = cpu_seconds();
      traced.push_back(engine->execute(in.queries[i], spans, tally));
      traced_host_s += cpu_seconds() - t0;
    }
  }

  // Baselines: the CPU-only engine (correctness + speedup) and the
  // GPU-only engine (speedup).
  const auto cpu_only = run_baseline<cpu::CpuEngine>(in);
  const auto gpu_only = run_baseline<gpu::GpuEngine>(in);

  // tenant_zipf: the tenancy layer at the operating point. Its results are
  // checked with the sequential ones below.
  double tenancy_host_ms = 0.0;
  std::uint64_t batch_groups = 0;
  core::TraceSummary tenant_trace;
  double bottleneck = 0.0;
  std::vector<tenancy::TenantResult> tenant;
  if (open) {
    const auto sp = spans.begin("DeviceManager::run", "tenancy");
    auto o = run_open_pass(in, a.seed);
    spans.end(sp);
    tenancy_host_ms = 1e3 * o.host_s / static_cast<double>(in.queries.size());
    batch_groups = o.batch_groups;
    for (const double f : o.busy) bottleneck = std::max(bottleneck, f);
    for (const auto& t : o.results) tenant_trace.add(t.result.trace);
    tenant = std::move(o.results);
  }

  // Capacity: the highest ladder rate meeting the workload's p95 limit.
  const auto sc = spans.begin("capacity search", "service");
  const auto ladder_out =
      search_capacity(a.workload, in, untraced.results, a.seed);
  spans.end(sc);
  const auto cap = capacity_spec(a.workload);
  // The service layer at capacity: queueing at the highest passing rung.
  perfbench::RungResult at_capacity;
  for (const auto& r : ladder_out.probed) {
    if (ladder_out.best && r.rate_qps == cap.ladder[*ladder_out.best]) {
      at_capacity = r;
    }
  }

  // Per-query checks, decision replay and estimate errors. `sched` is the
  // default HybridEngine's scheduler, the one every traced step ran under.
  const core::Scheduler sched;
  std::vector<double> err_cpu, err_gpu, err_split;
  std::uint64_t replay_mismatches = 0;
  SimTally sim_tally;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    auto problems = check_query(in.idx, in.queries[i],
                                traced[i], cpu_only[i]);
    if (!same_result(traced[i], untraced.results[i])) {
      problems.push_back("query " + std::to_string(in.queries[i].id) +
                         ": traced loop differs from HybridEngine::execute");
    }
    for (const auto& r : traced[i].trace) {
      if (r.kind != core::StepKind::kIntersect || r.faulted) continue;
      const bool split = r.placement == core::Placement::kSplit;
      if (sched.decide(r.shape) != r.placement ||
          (split && sched.split_alpha(r.shape) != r.alpha)) {
        ++replay_mismatches;
        problems.push_back("query " + std::to_string(in.queries[i].id) +
                           ": Scheduler::decide does not replay a placement");
      }
      const double charged = r.duration.ms();
      if (charged <= 0.0) continue;
      sim::Duration est;
      std::vector<double>* errs = &err_cpu;
      switch (r.placement) {
        case core::Placement::kCpu: est = sched.estimate_cpu(r.shape); break;
        case core::Placement::kGpu:
          est = sched.estimate_gpu(r.shape);
          errs = &err_gpu;
          break;
        case core::Placement::kSplit:
          est = sched.estimate_split(r.shape, r.alpha);
          errs = &err_split;
          break;
      }
      errs->push_back(std::abs(est.ms() - charged) / charged);
    }
    if (open) {
      const auto& t = tenant[i];
      if (t.shed) {
        problems.push_back("query shed");
      } else {
        for (auto& p : check_query(in.idx, in.queries[i], t.result,
                                   cpu_only[i])) {
          problems.push_back("DeviceManager " + p);
        }
      }
    }
    sim_tally.add(traced[i]);
    checks.query(problems);
  }

  const double untraced_qps =
      static_cast<double>(in.queries.size()) / untraced.host_s;
  const double traced_qps =
      static_cast<double>(in.queries.size()) / traced_host_s;
  const double nq = static_cast<double>(in.queries.size());
  const double cpu_mean = mean_ms(cpu_only);
  const double gpu_mean = mean_ms(gpu_only);
  const double griffin_mean = mean_ms(traced);
  const auto& ts = sim_tally.trace;

  MetricSet m;
  // core: host time per query in the planner and per step kind x placement.
  m.add("core.host_ms.query", 1e3 * tally.query_s / nq, "ms");
  m.add("core.host_ms.plan", 1e3 * tally.plan_s / nq, "ms");
  m.add("core.host_ms.query_setup", 1e3 * tally.query_setup_s / nq, "ms");
  const char* tags[] = {"intersect_gpu", "intersect_cpu", "intersect_split",
                        "rank",          "transfer",      "prefetch",
                        "host_decode",   "decode_cpu",    "decode_gpu"};
  for (const char* t : tags) {
    const auto h = tally.host_s.find(t);
    m.add(std::string("core.host_ms.") + t,
          h == tally.host_s.end() ? 0.0 : 1e3 * h->second / nq, "ms");
  }
  for (const char* t : tags) {
    const auto c = tally.steps.find(t);
    m.add(std::string("core.steps.") + t,
          c == tally.steps.end() ? 0.0 : static_cast<double>(c->second),
          "count");
  }
  m.add("core.migrations_per_query",
        static_cast<double>(sim_tally.migrations) / nq, "count");
  m.add("core.prefetch.used_ratio",
        ratio(static_cast<double>(sim_tally.overlap.prefetch_used),
              static_cast<double>(sim_tally.overlap.prefetch_issued)),
        "ratio");
  // core.scheduler
  m.add("core.scheduler.gpu_intersect_fraction", ts.gpu_intersect_fraction(),
        "ratio");
  m.add("core.scheduler.split_steps", static_cast<double>(ts.split_intersects),
        "count");
  m.add("core.scheduler.est_err_cpu", median(err_cpu), "ratio");
  m.add("core.scheduler.est_err_gpu", median(err_gpu), "ratio");
  m.add("core.scheduler.est_err_split", median(err_split), "ratio");
  m.add("core.scheduler.replay_mismatches",
        static_cast<double>(replay_mismatches), "count");
  m.add("core.scheduler.speedup_vs_cpu", ratio(cpu_mean, griffin_mean), "x");
  m.add("core.scheduler.speedup_vs_gpu_only", ratio(gpu_mean, griffin_mean),
        "x");
  // sim: the serial stage split and the overlap it hides.
  const sim::Duration serial = sim_tally.decode + sim_tally.intersect +
                               sim_tally.transfer + sim_tally.rank;
  m.add("sim.stage_ms.decode", sim_tally.per_query_ms(sim_tally.decode), "ms");
  m.add("sim.stage_ms.intersect", sim_tally.per_query_ms(sim_tally.intersect),
        "ms");
  m.add("sim.stage_ms.transfer", sim_tally.per_query_ms(sim_tally.transfer),
        "ms");
  m.add("sim.stage_ms.rank", sim_tally.per_query_ms(sim_tally.rank), "ms");
  m.add("sim.overlap_saved_ms", sim_tally.per_query_ms(sim_tally.overlap.saved), "ms");
  m.add("sim.rank_share", serial.ps() == 0 ? 0.0 : sim_tally.rank / serial,
        "ratio");
  m.add("sim.busy.cpu", sim_tally.per_query_ms(sim_tally.overlap.cpu_busy), "ms");
  m.add("sim.busy.gpu_compute", sim_tally.per_query_ms(sim_tally.overlap.gpu_busy),
        "ms");
  // simt / gpu
  m.add("gpu.kernels_per_query", static_cast<double>(sim_tally.gpu_kernels) / nq,
        "count");
  m.add("gpu.list_cache.hit_rate", sim_tally.cache.device_hit_rate(), "ratio");
  m.add("gpu.list_cache.evictions",
        static_cast<double>(sim_tally.cache.device_evictions), "count");
  m.add("simt.host_us_per_kernel",
        ratio(1e6 * tally.gpu_step_s,
              static_cast<double>(tally.gpu_step_kernels)),
        "us");
  // cpu
  m.add("cpu.simd.lane_utilization", sim_tally.simd.utilization(), "ratio");
  m.add("cpu.decoded_cache.hit_rate", sim_tally.cache.host_hit_rate(), "ratio");
  m.add("cpu.decoded_cache.evictions",
        static_cast<double>(sim_tally.cache.host_evictions), "count");
  // pcie
  m.add("pcie.busy_ms.h2d", sim_tally.per_query_ms(sim_tally.overlap.h2d_busy), "ms");
  m.add("pcie.busy_ms.d2h", sim_tally.per_query_ms(sim_tally.overlap.d2h_busy), "ms");
  // tenancy / service (tenant_zipf only; 0 elsewhere)
  m.add("tenancy.batch_groups", static_cast<double>(batch_groups), "count");
  m.add("tenancy.batched_step_frac",
        ratio(static_cast<double>(tenant_trace.batched_steps),
              static_cast<double>(tenant_trace.steps)),
        "ratio");
  m.add("tenancy.bottleneck_util", bottleneck, "ratio");
  m.add("tenancy.host_ms_per_query", tenancy_host_ms, "ms");
  m.add("service.queue_wait_p50_ms", at_capacity.wait_p50_ms, "ms");
  m.add("service.queue_wait_p95_ms", at_capacity.wait_p95_ms, "ms");
  m.add("service.max_queue_depth", at_capacity.max_queue_depth, "count");
  m.add("service.sim_capacity_qps", ladder_out.capacity_qps(cap.ladder),
        "1/s");
  // index / codec / workload
  const std::uint64_t docid_bytes = in.idx.compressed_docid_bytes();
  const std::uint64_t postings = in.idx.total_postings();
  // docids + one tf byte per posting + 4 B doc lengths
  const std::uint64_t bytes =
      docid_bytes + postings + 4 * in.idx.docs().num_docs();
  m.add("index.host_s.build", setup.build_s, "s");
  m.add("index.bytes", static_cast<double>(bytes), "B");
  m.add("codec.bits_per_posting",
        ratio(8.0 * static_cast<double>(docid_bytes),
              static_cast<double>(postings)),
        "bit");
  // tracing overhead
  m.add("trace.untraced_host_qps", untraced_qps, "1/s");
  m.add("trace.traced_host_qps", traced_qps, "1/s");
  m.add("trace.overhead_qps", untraced_qps - traced_qps, "1/s");

  std::printf("workload %s  seed %llu  traced run, %zu queries\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              in.queries.size());
  std::printf("  paper Figure 14: ~10x vs CPU-only, ~1.5x vs GPU-only; here "
              "%.3fx and %.3fx on the simulated testbed.\n",
              ratio(cpu_mean, griffin_mean), ratio(gpu_mean, griffin_mean));
  std::printf("  (the cost model is unvalidated against hardware: the repo "
              "holds no hardware measurement)\n");
  double accounted_s = tally.plan_s + tally.query_setup_s;
  for (const auto& [tag, sec] : tally.host_s) accounted_s += sec;
  std::printf("  core.host_ms.plan + query_setup + per-step host time cover "
              "%.2f%% of the query spans' host time\n",
              100.0 * ratio(accounted_s, tally.query_s));
  std::printf("  decision replay: %llu mismatches\n",
              static_cast<unsigned long long>(replay_mismatches));
  std::printf("  capacity ladder %.0f*%.2f^k qps (%zu rungs), p95 limit %.1f "
              "ms; probed:",
              cap.ladder.front(), cap.ladder[1] / cap.ladder[0],
              cap.ladder.size(), cap.limit_ms);
  for (const auto& r : ladder_out.probed) {
    std::printf(" %.0f %s (p95 %.3f%s)", r.rate_qps,
                r.passes(cap.limit_ms) ? "pass" : "fail", r.p95_ms,
                r.backlog ? ", backlog" : "");
  }
  std::printf("\n");
  print_failures(checks);
  for (const auto& x : m.metrics()) {
    std::printf("  %-40s %16.6f %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
  }
  if (!a.trace_out.empty()) {
    spans.write_chrome_trace(a.trace_out);
    std::printf("  chrome trace: %s (%zu spans)\n", a.trace_out.c_str(),
                spans.spans().size());
  }
  std::printf("%s\n",
              m.result_line(checks.failed == 0, checks.attempted, checks.failed)
                  .c_str());
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    return a.trace ? run_traced(a) : run_untraced(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "griffin_perf: %s\n", e.what());
    return 2;
  }
}
