#include "simt/kernel.h"

#include <bit>

namespace griffin::simt {

std::size_t SegmentSet::home(std::uint32_t ordinal,
                             std::uint64_t segment) const {
  // Fibonacci hashing: the top bits of a multiplicative hash.
  const std::uint64_t key = segment + (std::uint64_t{ordinal} << 32);
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
}

bool SegmentSet::insert(std::uint32_t ordinal, std::uint64_t segment) {
  if (2 * (size_ + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(ordinal, segment);; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (s.epoch != epoch_) {
      s = {segment, ordinal, epoch_};
      ++size_;
      return true;
    }
    if (s.segment == segment && s.ordinal == ordinal) return false;
  }
}

void SegmentSet::clear() {
  if (size_ == 0) return;
  size_ = 0;
  if (++epoch_ == 0) {  // wrapped: no stale slot may look live
    for (Slot& s : slots_) s.epoch = 0;
    epoch_ = 1;
  }
}

void SegmentSet::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 256 : 2 * old.size(), Slot{});
  shift_ = 64 - std::countr_zero(slots_.size());
  size_ = 0;
  for (const Slot& s : old) {
    if (s.epoch == epoch_) insert(s.ordinal, s.segment);
  }
}

WarpTally::WarpTally(sim::KernelStats& stats, std::uint64_t transaction_bytes)
    : stats_(stats), seg_shift_(std::countr_zero(transaction_bytes)) {
  // Transactions are power-of-two sized (32/64/128 B on real parts), so a
  // segment index is a shift.
  assert(std::has_single_bit(transaction_bytes));
}

void WarpTally::add_segment(std::uint32_t o, GlobalOrdinal& g,
                            std::uint64_t s) {
  // The o-th access of every lane in the warp issues together; each
  // distinct segment is a transaction, up to 64 per ordinal. An ordinal
  // with one segment needs no set (s differs from it); from the second on,
  // the warp's hash set answers in O(1), so a scattered ordinal (one
  // segment per lane) costs linear time.
  if (g.nsegs == kMaxSegments) return;
  if (g.nsegs == 1) seen_.insert(o, g.last);
  const bool is_new = seen_.insert(o, s);
  g.last = s;
  if (!is_new) return;
  ++g.nsegs;
  ++transactions_;
}

void WarpTally::atomic(std::uint32_t o, std::uint64_t addr) {
  // Atomic serialization: the o-th atomic of the warp's lanes replays once
  // per extra lane hitting the same address.
  assert(o <= atomic_used_);
  if (o == atomic_used_) {
    if (o == atomic_.size()) atomic_.emplace_back();
    atomic_[o].n = 0;
    atomic_[o].max = 1;
    ++atomic_used_;
  }
  AtomicOrdinal& a = atomic_[o];
  for (std::uint32_t k = 0; k < a.n; ++k) {
    if (a.addr[k] == addr) {
      a.max = std::max(a.max, ++a.count[k]);
      return;
    }
  }
  assert(a.n < 32);
  a.addr[a.n] = addr;
  a.count[a.n] = 1;
  ++a.n;
}

void WarpTally::end_warp() {
  constexpr double kAtomicReplayCycles = 8.0;
  for (std::uint32_t o = 0; o < atomic_used_; ++o) {
    const std::uint32_t m = atomic_[o].max;
    if (m > 1) {
      replays_.push_back(static_cast<double>(m - 1) * kAtomicReplayCycles);
    }
  }
  global_used_ = 0;
  shared_used_ = 0;
  atomic_used_ = 0;
  seen_.clear();
}

void WarpTally::end_region(double max_alu, std::uint32_t nwarps) {
  // Regions end at a block barrier: every warp of the block occupies its SM
  // slot until the slowest warp arrives, so the block's region time is the
  // max over warps and every warp is charged it. (For balanced regions this
  // equals the per-warp sum; for imbalanced ones — e.g. one lane serially
  // walking a PForDelta exception chain while three warps idle — it models
  // the idling the paper's §2.3 describes.) Replays follow in the order the
  // warps queued them, so the double sum is the same on every run.
  stats_.warp_cycles += max_alu * nwarps;
  for (const double r : replays_) stats_.warp_cycles += r;
  stats_.global_transactions += transactions_;
  stats_.global_bytes_requested += bytes_;
  stats_.shared_accesses += shared_accesses_;
  stats_.shared_conflict_cycles += static_cast<double>(conflicts_);
  replays_.clear();
  bytes_ = 0;
  transactions_ = 0;
  shared_accesses_ = 0;
  conflicts_ = 0;
}

}  // namespace griffin::simt
