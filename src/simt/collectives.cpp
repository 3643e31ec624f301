#include "simt/collectives.h"

#include "util/bits.h"

namespace griffin::simt {

namespace {

/// Memo key of a scan: everything its counted work depends on. Lane loop
/// bounds follow (n, block dim); bank conflicts follow the word offsets of
/// `data` and of the two sums arrays (adjacent, so one offset fixes both)
/// modulo the 32 banks.
std::uint64_t scan_key(bool exclusive, const Block& blk,
                       std::span<const std::uint32_t> data,
                       std::span<const std::uint32_t> sums) {
  std::uint64_t key = data.size();
  key = (key << 11) | blk.dim();  // dim <= 1024
  key = (key << 5) | (blk.shared_word_offset(data.data()) % 32);
  key = (key << 5) | (blk.shared_word_offset(sums.data()) % 32);
  return (key << 1) | (exclusive ? 1u : 0u);
}

/// The simulated inclusive scan. Three phases: per-thread chunk scan,
/// Hillis-Steele scan of chunk sums, offset add.
void simulate_inclusive_scan(Block& blk, std::span<std::uint32_t> data,
                             std::span<std::uint32_t> sums,
                             std::span<std::uint32_t> sums_alt) {
  const std::size_t n = data.size();
  const std::uint32_t dim = blk.dim();
  const std::size_t chunk = util::div_ceil(n, dim);

  // Phase 1: each thread scans its own chunk in place and records the total.
  blk.for_each_thread([&](Thread& t) {
    const std::size_t lo = static_cast<std::size_t>(t.tid()) * chunk;
    const std::size_t hi = std::min(n, lo + chunk);
    std::uint32_t acc = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      acc += t.sload(std::span<const std::uint32_t>(data), i);
      t.sstore(data, i, acc);
      t.charge(kAluCycle);
    }
    t.sstore(sums, t.tid(), acc);
  });

  // Phase 2: Hillis-Steele inclusive scan of the per-thread sums. Only the
  // first m = ceil(n/chunk) slots hold data, so the doubling loop runs
  // ceil(log2 m) rounds.
  const std::uint32_t m = static_cast<std::uint32_t>(util::div_ceil(n, chunk));
  std::span<std::uint32_t> src = sums;
  std::span<std::uint32_t> dst = sums_alt;
  for (std::uint32_t d = 1; d < m; d <<= 1) {
    blk.for_each_thread([&](Thread& t) {
      const std::uint32_t i = t.tid();
      if (i >= m) return;
      std::uint32_t v = t.sload(std::span<const std::uint32_t>(src), i);
      if (i >= d) {
        v += t.sload(std::span<const std::uint32_t>(src), i - d);
        t.charge(kAluCycle);
      }
      t.sstore(dst, i, v);
    });
    std::swap(src, dst);
  }

  // Phase 3: add the preceding chunks' total to each chunk.
  blk.for_each_thread([&](Thread& t) {
    if (t.tid() == 0) return;
    const std::size_t lo = static_cast<std::size_t>(t.tid()) * chunk;
    const std::size_t hi = std::min(n, lo + chunk);
    if (lo >= hi) return;
    const std::uint32_t offset =
        t.sload(std::span<const std::uint32_t>(src), t.tid() - 1);
    for (std::size_t i = lo; i < hi; ++i) {
      t.sstore(data, i,
               t.sload(std::span<const std::uint32_t>(data), i) + offset);
      t.charge(kAluCycle);
    }
  });
}

/// Host reference for both scans (wrapping uint32 sums, like the lanes).
void host_inclusive_scan(std::span<std::uint32_t> data) {
  std::uint32_t acc = 0;
  for (std::uint32_t& v : data) v = acc += v;
}

}  // namespace

void block_inclusive_scan(Block& blk, std::span<std::uint32_t> data) {
  if (data.empty()) return;
  // Allocated on replay too, so later shared() offsets and the budget check
  // see the same layout.
  auto sums = blk.shared<std::uint32_t>(blk.dim());
  auto sums_alt = blk.shared<std::uint32_t>(blk.dim());
  blk.memoized(
      blk.collective_memo(), scan_key(false, blk, data, sums),
      [&] { simulate_inclusive_scan(blk, data, sums, sums_alt); },
      [&] { host_inclusive_scan(data); });
}

std::uint32_t block_exclusive_scan(Block& blk, std::span<std::uint32_t> data) {
  if (data.empty()) return 0;
  const std::size_t n = data.size();
  auto sums = blk.shared<std::uint32_t>(blk.dim());
  auto sums_alt = blk.shared<std::uint32_t>(blk.dim());
  std::uint32_t total = 0;
  auto simulate = [&] {
    simulate_inclusive_scan(blk, data, sums, sums_alt);
    // Shift right by one (in parallel, reading before writing via double
    // read region split: read into registers, barrier, write).
    const std::size_t chunk = util::div_ceil(n, blk.dim());
    std::vector<std::uint32_t> regs(n);  // per-lane registers across barrier
    blk.for_each_thread([&](Thread& t) {
      const std::size_t lo = static_cast<std::size_t>(t.tid()) * chunk;
      const std::size_t hi = std::min(n, lo + chunk);
      for (std::size_t i = lo; i < hi; ++i) {
        regs[i] = i == 0 ? 0
                         : t.sload(std::span<const std::uint32_t>(data), i - 1);
      }
    });
    total = data[n - 1];
    blk.for_each_thread([&](Thread& t) {
      const std::size_t lo = static_cast<std::size_t>(t.tid()) * chunk;
      const std::size_t hi = std::min(n, lo + chunk);
      for (std::size_t i = lo; i < hi; ++i) t.sstore(data, i, regs[i]);
    });
  };
  auto replay = [&] {
    host_inclusive_scan(data);
    total = data[n - 1];
    std::copy_backward(data.begin(), data.end() - 1, data.end());
    data[0] = 0;
  };
  blk.memoized(blk.collective_memo(), scan_key(true, blk, data, sums),
               simulate, replay);
  return total;
}

std::uint64_t block_reduce_sum(Block& blk,
                               std::span<const std::uint32_t> data) {
  const std::size_t n = data.size();
  if (n == 0) return 0;
  const std::uint32_t dim = blk.dim();
  const std::size_t chunk = util::div_ceil(n, dim);
  auto partial = blk.shared<std::uint32_t>(dim);

  blk.for_each_thread([&](Thread& t) {
    const std::size_t lo = static_cast<std::size_t>(t.tid()) * chunk;
    const std::size_t hi = std::min(n, lo + chunk);
    std::uint32_t acc = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      acc += t.sload(data, i);
      t.charge(kAluCycle);
    }
    t.sstore(std::span<std::uint32_t>(partial), t.tid(), acc);
  });

  // Tree reduction over the per-thread partials (models the cost; the exact
  // value is re-derived from the untouched input below so non-power-of-two
  // block dims cannot introduce a folding error).
  for (std::uint32_t stride = dim / 2; stride >= 1; stride /= 2) {
    blk.for_each_thread([&](Thread& t) {
      if (t.tid() < stride && t.tid() + stride < dim) {
        const std::uint32_t a =
            t.sload(std::span<const std::uint32_t>(partial), t.tid());
        const std::uint32_t b =
            t.sload(std::span<const std::uint32_t>(partial), t.tid() + stride);
        t.sstore(std::span<std::uint32_t>(partial), t.tid(), a + b);
        t.charge(kAluCycle);
      }
    });
    if (stride == 1) break;
  }
  std::uint64_t grand = 0;
  for (std::uint32_t v : data) grand += v;
  return grand;
}

}  // namespace griffin::simt
