// Options of the CPU backend (cpu::SvsStepper over cpu::DecodedCache, and
// the CPU-side BM25 scorer). core::HybridOptions carries them, and
// cpu::CpuEngine — the CPU-only baseline, core::HybridEngine under the
// kAlwaysCpu policy (core/hybrid_engine.h) — takes them directly.
#pragma once

#include <cstddef>

#include "cpu/bm25.h"
#include "cpu/svs_step.h"

namespace griffin::cpu {

struct CpuEngineOptions {
  /// Use skip_intersect when |longer| / |shorter| >= this; merge otherwise.
  double skip_ratio = kDefaultSkipRatio;
  /// Charge EF in-block random access in the skip path (an improvement over
  /// the paper's PForDelta-era CPU baseline; see cpu/intersect.h).
  bool ef_random_access = false;
  /// Host-memory budget for the decoded-postings cache
  /// (cpu/decoded_cache.h); 0 disables it.
  std::size_t decoded_cache_bytes = std::size_t{1} << 30;
  Bm25Params bm25;
};

}  // namespace griffin::cpu
