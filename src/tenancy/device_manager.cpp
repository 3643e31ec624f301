#include "tenancy/device_manager.h"

#include <cassert>
#include <deque>
#include <limits>
#include <stdexcept>

namespace griffin::tenancy {

namespace {
constexpr sim::Duration kFar = sim::Duration::from_ps(
    std::numeric_limits<std::int64_t>::max());
}  // namespace

/// One admission slot: a full per-query execution stack (planner + executor
/// over per-lane backends) plus the in-flight query's pumped state. The
/// backends and their caches persist across the queries the lane serves —
/// a lane is a worker in a warm serving process, not a per-query object.
struct DeviceManager::Lane {
  Lane(const index::InvertedIndex& idx, const sim::HardwareSpec& hw,
       const core::HybridOptions& opt, const core::Scheduler& sched,
       const cpu::Bm25Scorer& scorer, const fault::FaultInjector* injector)
      : backends(idx, hw, opt),
        exec(hw.cpu, &backends.svs, &backends.gpu, scorer, injector,
             opt.fault_scope),
        planner(idx, sched, exec) {}

  core::Backends backends;
  core::StepExecutor exec;
  core::Planner planner;

  bool active = false;
  core::Query query;
  core::QueryResult res;
  std::optional<core::PlanStep> next_step;  ///< pumped, not yet run
  sim::Duration arrival;
  sim::Duration release;
  std::size_t slot = 0;         ///< index into the results vector
  sim::Duration free_at;        ///< previous query's finish time
};

DeviceManager::DeviceManager(const index::InvertedIndex& idx,
                             sim::HardwareSpec hw, TenancyOptions opt)
    : idx_(&idx),
      hw_(hw),
      opt_(opt),
      sched_(opt.engine.scheduler, hw),
      scorer_(idx, opt.engine.cpu.bm25),
      injector_(opt.engine.faults),
      composer_(opt.batch) {
  if (opt_.max_concurrency == 0) {
    throw std::invalid_argument("tenancy max_concurrency must be positive");
  }
  // Arm the shared injector only when a site is configured: lanes without
  // one skip every fault branch, keeping the disarmed run bit-identical to
  // a build without the injector.
  const fault::FaultInjector* inj =
      opt_.engine.faults.engine_faults_armed() ? &injector_ : nullptr;
  lanes_.reserve(opt_.max_concurrency);
  for (std::uint32_t i = 0; i < opt_.max_concurrency; ++i) {
    lanes_.push_back(
        std::make_unique<Lane>(idx, hw_, opt_.engine, sched_, scorer_, inj));
  }
}

DeviceManager::~DeviceManager() = default;

std::array<double, sim::kNumResources> DeviceManager::busy_fractions() const {
  std::array<double, sim::kNumResources> f{};
  for (std::size_t r = 0; r < sim::kNumResources; ++r) {
    f[r] = tl_.busy_fraction(static_cast<sim::Resource>(r));
  }
  return f;
}

void DeviceManager::admit(Lane& lane, const TenantQuery& tq,
                          std::size_t slot) {
  lane.active = true;
  lane.query = tq.query;
  lane.res = core::QueryResult{};
  lane.arrival = tq.arrival;
  // The query cannot start before it arrived, nor before its lane's
  // previous tenant finished (the admission window is the lane count).
  lane.release = sim::max(tq.arrival, lane.free_at);
  lane.slot = slot;
  lane.exec.bind_shared(&tl_, lane.release);
  lane.exec.begin_query(lane.query);
  lane.planner.begin(lane.query);
  lane.next_step = lane.planner.next(lane.exec.intermediate_count(),
                                     lane.exec.location());
  ++active_;
}

void DeviceManager::finish(Lane& lane, std::vector<TenantResult>& results) {
  lane.exec.finish_query(lane.res.metrics);
  totals_.add(lane.res);
  const sim::Duration done = lane.release + lane.res.metrics.total;
  TenantResult& out = results[lane.slot];
  out.result = std::move(lane.res);
  out.arrival = lane.arrival;
  out.release = lane.release;
  out.finish = done;
  lane.res = core::QueryResult{};
  lane.free_at = done;
  lane.active = false;
  lane.next_step.reset();
  finishes_.push_back(done);
  assert(active_ > 0);
  --active_;
}

void DeviceManager::step(std::vector<TenantResult>& results) {
  // The leader: the active lane whose next step issues earliest on the
  // shared timeline (tie: lowest index). Stepping min-frontier-first keeps
  // op recording in (approximately) nondecreasing simulated time, which is
  // what makes the busy clocks' record-order FCFS honest.
  std::size_t leader = lanes_.size();
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (!lanes_[i]->active) continue;
    if (leader == lanes_.size() ||
        lanes_[i]->exec.frontier().at < lanes_[leader]->exec.frontier().at) {
      leader = i;
    }
  }
  assert(leader < lanes_.size());

  BatchComposer::Candidate lead{leader, lanes_[leader]->exec.frontier().at,
                                lanes_[leader]->next_step.has_value()
                                    ? &*lanes_[leader]->next_step
                                    : nullptr};
  std::vector<BatchComposer::Candidate> others;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (i == leader || !lanes_[i]->active || !lanes_[i]->next_step) continue;
    others.push_back({i, lanes_[i]->exec.frontier().at,
                      &*lanes_[i]->next_step});
  }
  const auto members = composer_.compose(lead, others);
  const std::uint32_t width = static_cast<std::uint32_t>(members.size());
  const std::uint64_t group = width > 1 ? composer_.next_group() : 0;

  // Members run in ascending lane order: a batch commits together, so the
  // intra-batch order is a determinism convention, not a timing statement.
  for (const std::size_t i : members) {
    Lane& lane = *lanes_[i];
    lane.exec.set_batch(width, group);
    const core::StepStatus st =
        lane.exec.run(*lane.next_step, lane.query, lane.res);
    lane.exec.set_batch(1, 0);
    // Injected-fault recovery (DESIGN.md §16), scoped to the hit lane: a
    // fault inside a fused launch degrades only this query — co-batched
    // members already ran (or will run) their own step unperturbed, and
    // their ops on the shared timeline are untouched. An OOM that unfused
    // inside run() only shrank *this* lane's launch accounting.
    lane.planner.recover(*lane.next_step, st);
    lane.next_step = lane.planner.next(lane.exec.intermediate_count(),
                                       lane.exec.location());
    if (!lane.next_step.has_value()) finish(lane, results);
  }
}

std::vector<TenantResult> DeviceManager::run(
    std::span<const TenantQuery> load, std::uint32_t max_in_system) {
  tl_.reset();
  finishes_.clear();
  totals_ = core::CounterTotals{};
  composer_ = BatchComposer(opt_.batch);
  for (auto& lane : lanes_) {
    lane->active = false;
    lane->free_at = sim::Duration();
    lane->next_step.reset();
  }
  active_ = 0;

  std::vector<TenantResult> results(load.size());
  std::deque<std::size_t> pending;  // arrived, not yet admitted (FIFO)
  std::size_t next_arrival = 0;

  const auto in_system_at = [&](sim::Duration t) {
    std::uint64_t n = active_ + pending.size();
    for (const sim::Duration f : finishes_) {
      if (f > t) ++n;
    }
    return n;
  };
  const auto ingest = [&](std::size_t i) {
    results[i].arrival = load[i].arrival;
    if (max_in_system > 0 && in_system_at(load[i].arrival) >= max_in_system) {
      results[i].shed = true;
      ++results[i].result.metrics.faults.shed_queries;
      totals_.add(results[i].result);
      return;
    }
    pending.push_back(i);
  };

  while (next_arrival < load.size() || !pending.empty() || active_ > 0) {
    // Ingest every arrival up to the next step event, so the shed check
    // sees the system state at its arrival time.
    sim::Duration t_step = kFar;
    for (const auto& lane : lanes_) {
      if (lane->active) t_step = sim::min(t_step, lane->exec.frontier().at);
    }
    while (next_arrival < load.size() &&
           load[next_arrival].arrival <= t_step) {
      ingest(next_arrival++);
    }
    if (active_ == 0 && pending.empty()) {
      if (next_arrival >= load.size()) break;
      ingest(next_arrival++);
      continue;
    }

    // Admit FIFO into free lanes; the lane that freed earliest serves next
    // (deterministic tie-break: lowest index). Queries with no terms finish
    // at admission with an empty result, like run_plan's early return.
    while (!pending.empty() && active_ < opt_.max_concurrency) {
      std::size_t best = lanes_.size();
      for (std::size_t i = 0; i < lanes_.size(); ++i) {
        if (lanes_[i]->active) continue;
        if (best == lanes_.size() ||
            lanes_[i]->free_at < lanes_[best]->free_at) {
          best = i;
        }
      }
      const std::size_t qi = pending.front();
      pending.pop_front();
      if (load[qi].query.terms.empty()) {
        TenantResult& out = results[qi];
        out.arrival = load[qi].arrival;
        out.release = sim::max(load[qi].arrival, lanes_[best]->free_at);
        out.finish = out.release;
        continue;
      }
      admit(*lanes_[best], load[qi], qi);
      // A non-empty query always plans at least one step; the guard keeps
      // the loop live if that invariant ever changes.
      if (!lanes_[best]->next_step.has_value()) {
        finish(*lanes_[best], results);
      }
    }

    if (active_ > 0) step(results);
  }
  return results;
}

}  // namespace griffin::tenancy
