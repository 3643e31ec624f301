#include "simt/kernel.h"

#include <bit>

namespace griffin::simt {

void Block::finish_region() {
  const std::uint32_t nwarps = warps();
  const std::uint64_t seg_bytes = spec_.mem_transaction_bytes;
  // Transactions are power-of-two sized (32/64/128 B on real parts), so a
  // segment index is a shift.
  assert(std::has_single_bit(seg_bytes));
  const int seg_shift = std::countr_zero(seg_bytes);

  // Regions end at a block barrier: every warp of the block occupies its SM
  // slot until the slowest warp arrives, so the block's region time is the
  // max over warps and every warp is charged it. (For balanced regions this
  // equals the per-warp sum; for imbalanced ones — e.g. one lane serially
  // walking a PForDelta exception chain while three warps idle — it models
  // the idling the paper's §2.3 describes.)
  //
  // One pass over the lanes takes that max together with each warp's
  // longest global/shared/atomic log, so the analyses below skip access
  // kinds a warp never issued.
  double block_max_alu = 0.0;
  for (std::uint32_t w = 0; w < nwarps; ++w) {
    const std::uint32_t lo = w * 32;
    const std::uint32_t hi = std::min(block_dim_, lo + 32);
    WarpMax m;
    for (std::uint32_t t = lo; t < hi; ++t) {
      const Thread& l = lanes_[t];
      block_max_alu = std::max(block_max_alu, l.alu_);
      m.global = std::max(m.global, l.global_.size());
      m.shared = std::max(m.shared, l.shared_banks_.size());
      m.atomics = std::max(m.atomics, l.atomic_addrs_.size());
    }
    warp_max_[w] = m;
  }
  stats_.warp_cycles += block_max_alu * nwarps;

  for (std::uint32_t w = 0; w < nwarps; ++w) {
    const std::uint32_t lo = w * 32;
    const std::uint32_t hi = std::min(block_dim_, lo + 32);
    const std::size_t max_global = warp_max_[w].global;
    const std::size_t max_shared = warp_max_[w].shared;
    const std::size_t max_atomics = warp_max_[w].atomics;

    // Coalesce global accesses: the o-th access of every lane in the warp
    // issues together; distinct 128-byte segments become transactions. The
    // per-ordinal segment set is tiny (1..64), so a linear-probe dedupe into
    // a fixed array beats sorting; neighbouring lanes mostly share the last
    // segment added, which is checked first.
    for (std::size_t o = 0; o < max_global; ++o) {
      std::uint64_t segs[64];
      std::uint32_t nsegs = 0;
      for (std::uint32_t t = lo; t < hi; ++t) {
        const auto& g = lanes_[t].global_;
        if (o >= g.size()) continue;
        stats_.global_bytes_requested += g[o].bytes;
        const std::uint64_t s0 = g[o].addr >> seg_shift;
        const std::uint64_t s1 = (g[o].addr + g[o].bytes - 1) >> seg_shift;
        for (std::uint64_t s = s0; s <= s1; ++s) {
          if (nsegs > 0 && segs[nsegs - 1] == s) continue;
          bool seen = false;
          for (std::uint32_t k = 0; k < nsegs; ++k) {
            if (segs[k] == s) {
              seen = true;
              break;
            }
          }
          if (!seen && nsegs < 64) segs[nsegs++] = s;
        }
      }
      stats_.global_transactions += nsegs;
    }

    // Atomic serialization: the o-th atomic of the warp's lanes replays once
    // per extra lane hitting the same address.
    {
      constexpr double kAtomicReplayCycles = 8.0;
      for (std::size_t o = 0; o < max_atomics; ++o) {
        std::uint64_t addrs[32];
        std::uint32_t counts[32];
        std::uint32_t n = 0;
        std::uint32_t max_mult = 1;
        for (std::uint32_t t = lo; t < hi; ++t) {
          const auto& aa = lanes_[t].atomic_addrs_;
          if (o >= aa.size()) continue;
          bool seen = false;
          for (std::uint32_t k = 0; k < n; ++k) {
            if (addrs[k] == aa[o]) {
              max_mult = std::max(max_mult, ++counts[k]);
              seen = true;
              break;
            }
          }
          if (!seen) {
            addrs[n] = aa[o];
            counts[n] = 1;
            ++n;
          }
        }
        if (max_mult > 1) {
          stats_.warp_cycles +=
              static_cast<double>(max_mult - 1) * kAtomicReplayCycles;
        }
      }
    }

    // Shared-memory bank conflicts: the o-th shared access of the warp's
    // lanes serializes by the most-contended bank.
    for (std::size_t o = 0; o < max_shared; ++o) {
      std::uint32_t bank_count[32] = {};
      std::uint32_t max_mult = 0;
      for (std::uint32_t t = lo; t < hi; ++t) {
        const auto& s = lanes_[t].shared_banks_;
        if (o >= s.size()) continue;
        ++stats_.shared_accesses;
        const std::uint32_t m = ++bank_count[s[o]];
        max_mult = std::max(max_mult, m);
      }
      if (max_mult > 1) {
        stats_.shared_conflict_cycles += static_cast<double>(max_mult - 1);
      }
    }
  }
}

}  // namespace griffin::simt
