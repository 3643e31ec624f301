// The pairwise SvS intersection step shared by the CPU-only engine
// (cpu/engine.cpp) and the hybrid engine's CPU steps (core/hybrid_engine.cpp),
// which previously re-implemented it. One stepper owns the per-pair choice
// between the sequential merge and the skip-pointer binary search (chosen by
// the length ratio, paper §2.1.2/§2.2), the stage/placement accounting, and
// the optional host decoded-postings cache (cpu/decoded_cache.h).
//
// Cache interplay, chosen so a cold query costs exactly what it does with
// the cache off:
//   - skip path: the probe side is decoded via the cache (decode_all already
//     ran there, so a fill is free); the *target* is only consulted — a hit
//     switches to the decoded-array search, a miss keeps the compressed
//     skip search (decoding a long target would defeat skipping);
//   - merge path: both sides are consulted but never filled (the block-wise
//     merge never materializes a decoded list, so a fill would add cost);
//   - single-term queries decode via the cache.
// At most one cache insert happens per step, and always before any other
// returned span is taken, so spans never dangle (see util/lru_cache.h).
#pragma once

#include <span>
#include <vector>

#include "core/query.h"
#include "cpu/decoded_cache.h"
#include "sim/cpu_cost_model.h"
#include "sim/hardware_spec.h"

namespace griffin::cpu {

/// The CPU-side merge/skip crossover (paper §2.2): skip_intersect when
/// |longer| / |shorter| >= this, merge below. The single definition shared
/// by SvsOptions, CpuEngineOptions and the scheduler's CPU cost estimate —
/// previously three literal 32.0s that could drift apart.
inline constexpr double kDefaultSkipRatio = 32.0;

struct SvsOptions {
  /// Use skip_intersect when |longer| / |shorter| >= this; merge otherwise.
  double skip_ratio = kDefaultSkipRatio;
  /// Charge EF in-block random access in the compressed skip path.
  bool ef_random_access = false;
};

class SvsStepper {
 public:
  /// `cache` may be nullptr (or disabled): behavior and charges then match
  /// the pre-cache engines exactly.
  SvsStepper(const index::InvertedIndex& idx, sim::CpuSpec spec,
             SvsOptions opt, DecodedCache* cache)
      : idx_(&idx), spec_(spec), opt_(opt), cache_(cache) {}

  /// First pair of a query: both sides are full lists, |a| <= |b|.
  /// Charges m.intersect and records a kCpu placement.
  void first_pair(index::TermId a, index::TermId b,
                  std::vector<codec::DocId>& out, core::QueryMetrics& m);

  /// Intersects the current (decoded) intermediate with list t in place.
  void next_step(std::vector<codec::DocId>& current, index::TermId t,
                 core::QueryMetrics& m);

  /// Single-term query: decodes the whole list. Charges m.decode.
  void decode_single(index::TermId t, std::vector<codec::DocId>& out,
                     core::QueryMetrics& m);

  // ---- Co-execution support (DESIGN.md §15) ----------------------------

  /// Materializes the probe side of a split first-pair intersect: decodes
  /// list t fully (via the cache, like the skip path's probe decode) into
  /// `out`. Charges m.intersect — the decode is part of the intersect step,
  /// exactly as in the unsplit skip path. No placement is recorded; the
  /// executor records one kSplit placement for the whole step.
  void materialize_probes(index::TermId t, std::vector<codec::DocId>& out,
                          core::QueryMetrics& m);

  /// The CPU leg of a split intersect: intersects the (sorted, decoded)
  /// probe range with list t, appending matches to `out`. Chooses skip vs
  /// merge by the leg's own length ratio — the same rule next_step applies,
  /// with the same cache interplay — so a degenerate alpha=0 split computes
  /// exactly what the unsplit CPU step would. Charges m.intersect; records
  /// no placement.
  void partial_step(std::span<const codec::DocId> probes, index::TermId t,
                    std::vector<codec::DocId>& out, core::QueryMetrics& m);

  /// Stat-free residency probe (core::StepShape::longer_host_decoded).
  bool host_decoded(index::TermId t) const {
    return cache_ != nullptr && cache_->resident(t);
  }

  const SvsOptions& options() const { return opt_; }

 private:
  bool cache_on() const { return cache_ != nullptr && cache_->enabled(); }

  /// Decodes list t, serving and filling the cache when enabled. The
  /// returned span points either into the cache or into `scratch`.
  std::span<const codec::DocId> decode_via_cache(
      index::TermId t, std::vector<codec::DocId>& scratch,
      sim::CpuCostAccumulator& acc, core::QueryMetrics& m);

  /// Lookup-only (never fills): the cached decoded list or nullptr.
  const std::vector<codec::DocId>* cached_only(index::TermId t,
                                               core::QueryMetrics& m);

  const index::InvertedIndex* idx_;
  sim::CpuSpec spec_;
  SvsOptions opt_;
  DecodedCache* cache_;
  std::vector<codec::DocId> probe_scratch_;
  std::vector<codec::DocId> out_scratch_;
};

}  // namespace griffin::cpu
