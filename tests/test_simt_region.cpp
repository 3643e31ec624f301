// Differential test of the SIMT region accounting. The simulator folds each
// access into a streaming per-warp tally (simt::WarpTally) as its lane
// issues it. The reference below keeps every lane's full access log and,
// at the region's end, transposes the logs per warp and per access ordinal:
// the coalescing, bank-conflict and atomic-replay rules written out
// directly. Randomized launches (block dims 1..256, idle and hot lanes,
// 1..200-byte global accesses straddling transaction segments, the 64-
// segment cap, bank conflicts, atomic contention, several regions and
// blocks) must give the same KernelStats, double fields bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "simt/kernel.h"
#include "util/rng.h"

namespace gs = griffin::simt;
namespace sim = griffin::sim;
using griffin::util::Xoshiro256;

namespace {

/// One lane's accesses in one region, in issue order.
struct LaneLog {
  double alu = 0.0;
  struct Global {
    std::uint64_t addr;
    std::uint32_t bytes;
  };
  std::vector<Global> global;
  std::vector<std::uint32_t> banks;
  std::vector<std::uint64_t> atomics;
};

/// How often the rules' edge cases fired, so the randomized inputs are
/// known to reach them.
struct Coverage {
  std::uint64_t straddles = 0;        ///< accesses spanning 2+ segments
  std::uint64_t capped_ordinals = 0;  ///< ordinals with > 64 segments
  std::uint64_t conflicts = 0;        ///< ordinals with a bank conflict
  std::uint64_t replays = 0;          ///< ordinals with atomic contention
  std::uint64_t hot_lanes = 0;        ///< lanes with >= 256 accesses
};

/// The log-based reference analyzer for one region of one block.
void reference_region(const std::vector<LaneLog>& lanes,
                      std::uint64_t seg_bytes, sim::KernelStats& stats,
                      Coverage& cov) {
  const auto dim = static_cast<std::uint32_t>(lanes.size());
  const std::uint32_t nwarps = (dim + 31) / 32;
  double block_max_alu = 0.0;
  for (const LaneLog& l : lanes) {
    block_max_alu = std::max(block_max_alu, l.alu);
    if (l.global.size() + l.banks.size() >= 256) ++cov.hot_lanes;
  }
  stats.warp_cycles += block_max_alu * nwarps;

  for (std::uint32_t w = 0; w < nwarps; ++w) {
    const std::uint32_t lo = w * 32;
    const std::uint32_t hi = std::min(dim, lo + 32);
    std::size_t max_global = 0, max_shared = 0, max_atomics = 0;
    for (std::uint32_t t = lo; t < hi; ++t) {
      max_global = std::max(max_global, lanes[t].global.size());
      max_shared = std::max(max_shared, lanes[t].banks.size());
      max_atomics = std::max(max_atomics, lanes[t].atomics.size());
    }

    // The o-th global access of every lane issues together; each distinct
    // segment is a transaction, counting at most 64.
    for (std::size_t o = 0; o < max_global; ++o) {
      std::vector<std::uint64_t> segs;
      for (std::uint32_t t = lo; t < hi; ++t) {
        const auto& g = lanes[t].global;
        if (o >= g.size()) continue;
        stats.global_bytes_requested += g[o].bytes;
        const std::uint64_t s0 = g[o].addr / seg_bytes;
        const std::uint64_t s1 = (g[o].addr + g[o].bytes - 1) / seg_bytes;
        if (s1 > s0) ++cov.straddles;
        for (std::uint64_t s = s0; s <= s1; ++s) segs.push_back(s);
      }
      std::sort(segs.begin(), segs.end());
      const auto distinct = static_cast<std::uint64_t>(
          std::unique(segs.begin(), segs.end()) - segs.begin());
      if (distinct > 64) ++cov.capped_ordinals;
      stats.global_transactions += std::min<std::uint64_t>(distinct, 64);
    }

    // The o-th atomic replays once per extra lane on its busiest address.
    for (std::size_t o = 0; o < max_atomics; ++o) {
      std::vector<std::uint64_t> addrs;
      for (std::uint32_t t = lo; t < hi; ++t) {
        const auto& a = lanes[t].atomics;
        if (o < a.size()) addrs.push_back(a[o]);
      }
      std::uint32_t max_mult = 1;
      for (const std::uint64_t a : addrs) {
        max_mult = std::max(max_mult, static_cast<std::uint32_t>(std::count(
                                          addrs.begin(), addrs.end(), a)));
      }
      if (max_mult > 1) {
        ++cov.replays;
        stats.warp_cycles += static_cast<double>(max_mult - 1) * 8.0;
      }
    }

    // The o-th shared access serializes by its most contended bank.
    for (std::size_t o = 0; o < max_shared; ++o) {
      std::array<std::uint32_t, 32> count{};
      std::uint32_t max_mult = 0;
      for (std::uint32_t t = lo; t < hi; ++t) {
        const auto& b = lanes[t].banks;
        if (o >= b.size()) continue;
        ++stats.shared_accesses;
        max_mult = std::max(max_mult, ++count[b[o]]);
      }
      if (max_mult > 1) {
        ++cov.conflicts;
        stats.shared_conflict_cycles += static_cast<double>(max_mult - 1);
      }
    }
  }
}

/// A region's access pattern, shared by all its lanes so that equal
/// ordinals relate the way kernels' accesses do.
enum class Flavor { kCoalesced, kStrided, kScattered, kWide, kSerial };
constexpr int kFlavors = 5;

/// The device buffers a random lane reads and writes.
struct Buffers {
  explicit Buffers(gs::Device& dev)
      : b1(dev.alloc<std::uint8_t>(1 << 16)),
        b2(dev.alloc<std::uint16_t>(1 << 15)),
        b4(dev.alloc<std::uint32_t>(1 << 14)),
        b8(dev.alloc<std::uint64_t>(1 << 13)),
        b12(dev.alloc<std::array<std::uint32_t, 3>>(5000)),
        b200(dev.alloc<std::array<std::uint32_t, 50>>(800)),
        counters(dev.alloc<std::uint32_t>(64)),
        maxima(dev.alloc<std::uint64_t>(64)) {}

  gs::DeviceBuffer<std::uint8_t> b1;
  gs::DeviceBuffer<std::uint16_t> b2;
  gs::DeviceBuffer<std::uint32_t> b4;
  gs::DeviceBuffer<std::uint64_t> b8;
  gs::DeviceBuffer<std::array<std::uint32_t, 3>> b12;    ///< may straddle
  gs::DeviceBuffer<std::array<std::uint32_t, 50>> b200;  ///< 2-3 segments
  gs::DeviceBuffer<std::uint32_t> counters;
  gs::DeviceBuffer<std::uint64_t> maxima;
};

/// Issues one global load or store and logs it.
template <typename T>
void global_access(gs::Thread& t, gs::DeviceBuffer<T>& buf,
                   std::uint64_t idx, bool store, LaneLog& log) {
  idx %= buf.size();
  if (store) {
    t.store(buf, idx, T{});
  } else {
    (void)t.load(buf, idx);
  }
  log.alu += gs::kGlobalAccessCycles;
  log.global.push_back({buf.device_addr(idx), sizeof(T)});
}

/// Element index of lane `tid`'s k-th access under `f`, for elements of
/// `size` bytes: contiguous across lanes, one lane per 256 B, one lane
/// walking the buffer, or random.
std::uint64_t global_index(Flavor f, std::uint32_t tid, std::uint32_t dim,
                           std::uint32_t k, std::size_t size,
                           Xoshiro256& rng) {
  switch (f) {
    case Flavor::kCoalesced:
      return std::uint64_t{k} * dim + tid;
    case Flavor::kStrided:
      return std::uint64_t{tid} * (256 / size + 1) + k;
    case Flavor::kSerial:
      return k;
    default:
      return rng.bounded(1u << 16);
  }
}

enum class Op { kCharge, kShared, kAtomic, kGlobal };

/// Runs lane `tid`'s random accesses for one region and logs them. A
/// serial region has one hot lane (280-319 accesses, a third of them
/// shared) and idles the rest; a wide one gives every lane 4-9 accesses of
/// 200 B, so an ordinal spans more than 64 segments.
void run_lane(gs::Thread& t, gs::Block& blk, Buffers& b,
              std::span<std::uint32_t> sh, Flavor f, std::uint32_t hot,
              Xoshiro256& rng, LaneLog& log) {
  const std::uint32_t tid = t.tid();
  std::uint32_t n = 0;
  if (f == Flavor::kSerial) {
    n = tid == hot ? 280 + static_cast<std::uint32_t>(rng.bounded(40)) : 0;
  } else if (f == Flavor::kWide) {
    n = 4 + static_cast<std::uint32_t>(rng.bounded(6));
  } else if (rng.bounded(4) != 0) {  // a quarter of the lanes idle
    n = static_cast<std::uint32_t>(rng.bounded(14));
  }
  constexpr double kCharges[] = {1.0, 2.0, 0.5, 0.1, 1.0 / 3.0};
  constexpr Op kMix[] = {Op::kCharge, Op::kShared, Op::kShared, Op::kAtomic,
                         Op::kGlobal, Op::kGlobal, Op::kGlobal, Op::kGlobal};
  for (std::uint32_t k = 0; k < n; ++k) {
    Op op = Op::kGlobal;
    if (f == Flavor::kSerial) {
      op = rng.bounded(3) == 0 ? Op::kShared : Op::kGlobal;
    } else if (f != Flavor::kWide) {
      op = kMix[rng.bounded(std::size(kMix))];
    }
    const bool store = rng.bounded(2) == 0;
    switch (op) {
      case Op::kCharge: {
        const double c = kCharges[rng.bounded(5)];
        t.charge(c);
        log.alu += c;
        break;
      }
      case Op::kShared: {
        // By lane (conflict-free), one bank per warp (32-way), or random.
        std::size_t idx = 0;
        switch (rng.bounded(3)) {
          case 0:
            idx = (tid + 32 * k) % sh.size();
            break;
          case 1:
            idx = (tid % 32) * 32 + k % 32;
            break;
          default:
            idx = rng.bounded(sh.size());
        }
        if (store) {
          t.sstore(sh, idx, k);
        } else {
          (void)t.sload(std::span<const std::uint32_t>(sh), idx);
        }
        log.alu += gs::kSharedAccessCycles;
        log.banks.push_back(
            static_cast<std::uint32_t>(blk.shared_word_offset(&sh[idx]) % 32));
        break;
      }
      case Op::kAtomic: {
        // Four hot counters, or one per lane.
        const std::uint64_t idx =
            rng.bounded(2) == 0 ? rng.bounded(4) : tid % b.counters.size();
        LaneLog::Global g;
        if (store) {
          (void)t.atomic_add(b.counters, idx, 1u);
          g = {b.counters.device_addr(idx), 4};
        } else {
          (void)t.atomic_max(b.maxima, idx, std::uint64_t{k});
          g = {b.maxima.device_addr(idx), 8};
        }
        log.alu += gs::kGlobalAccessCycles;
        log.global.push_back(g);
        log.atomics.push_back(g.addr);
        log.alu += 2 * gs::kAluCycle;
        break;
      }
      case Op::kGlobal: {
        auto go = [&](auto& buf) {
          const std::size_t size = sizeof(buf.raw()[0]);
          global_access(t, buf,
                        global_index(f, tid, blk.dim(), k, size, rng), store,
                        log);
        };
        switch (f == Flavor::kWide ? 5 : rng.bounded(6)) {
          case 0:
            go(b.b1);
            break;
          case 1:
            go(b.b2);
            break;
          case 2:
            go(b.b4);
            break;
          case 3:
            go(b.b8);
            break;
          case 4:
            go(b.b12);
            break;
          default:
            go(b.b200);
        }
        break;
      }
    }
  }
}

/// One region's logs, and whether the kernel added a barrier after it.
struct RegionLog {
  std::vector<LaneLog> lanes;
  bool extra_barrier = false;
};

struct LaunchResult {
  sim::KernelStats simulated;
  sim::KernelStats reference;
};

/// One random launch: `grid` blocks of `dim` lanes, each block running 1-4
/// regions of random flavors (and, sometimes, an extra barrier).
LaunchResult random_launch(std::uint64_t seed, std::uint32_t grid,
                           std::uint32_t dim, Coverage& cov) {
  gs::Device dev;
  Buffers b(dev);
  Xoshiro256 rng(seed);
  std::vector<RegionLog> logs;

  LaunchResult r;
  r.simulated = gs::launch(dev, {grid, dim}, [&](gs::Block& blk) {
    // An odd-sized first array shifts the second off bank 0.
    (void)blk.shared<std::uint32_t>(1 + rng.bounded(40));
    auto sh = blk.shared<std::uint32_t>(1024 + 64);
    const auto regions = 1 + rng.bounded(4);
    for (std::uint64_t reg = 0; reg < regions; ++reg) {
      const auto f = static_cast<Flavor>(rng.bounded(kFlavors));
      const auto hot = static_cast<std::uint32_t>(rng.bounded(dim));
      RegionLog& log = logs.emplace_back();
      log.lanes.resize(dim);
      blk.for_each_thread([&](gs::Thread& t) {
        run_lane(t, blk, b, sh, f, hot, rng, log.lanes[t.tid()]);
      });
      log.extra_barrier = rng.bounded(4) == 0;
      if (log.extra_barrier) blk.barrier();
    }
  });

  r.reference.blocks = grid;
  r.reference.warps = std::uint64_t{grid} * ((dim + 31) / 32);
  for (const RegionLog& log : logs) {
    reference_region(log.lanes, dev.spec().mem_transaction_bytes,
                     r.reference, cov);
    r.reference.barriers += log.extra_barrier ? 2 : 1;
  }
  return r;
}

void expect_same(const sim::KernelStats& a, const sim::KernelStats& b,
                 const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(a.blocks, b.blocks);
  EXPECT_EQ(a.warps, b.warps);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.warp_cycles),
            std::bit_cast<std::uint64_t>(b.warp_cycles))
      << a.warp_cycles << " vs " << b.warp_cycles;
  EXPECT_EQ(a.global_transactions, b.global_transactions);
  EXPECT_EQ(a.global_bytes_requested, b.global_bytes_requested);
  EXPECT_EQ(a.shared_accesses, b.shared_accesses);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.shared_conflict_cycles),
            std::bit_cast<std::uint64_t>(b.shared_conflict_cycles))
      << a.shared_conflict_cycles << " vs " << b.shared_conflict_cycles;
  EXPECT_EQ(a.barriers, b.barriers);
}

}  // namespace

TEST(SimtRegion, StreamingTallyMatchesLogReference) {
  constexpr std::uint32_t kDims[] = {1, 31, 32, 33, 100, 128, 256};
  Coverage cov;
  std::uint64_t seed = 1;
  for (const std::uint32_t dim : kDims) {
    for (int rep = 0; rep < 8; ++rep, ++seed) {
      const std::uint32_t grid = 1 + static_cast<std::uint32_t>(seed % 3);
      const LaunchResult r = random_launch(seed, grid, dim, cov);
      expect_same(r.simulated, r.reference,
                  "dim " + std::to_string(dim) + " seed " +
                      std::to_string(seed));
    }
  }
  // The randomized inputs reached every rule's edge cases.
  EXPECT_GT(cov.straddles, 0u);
  EXPECT_GT(cov.capped_ordinals, 0u);
  EXPECT_GT(cov.conflicts, 0u);
  EXPECT_GT(cov.replays, 0u);
  EXPECT_GT(cov.hot_lanes, 0u);
}

TEST(SimtRegion, HotLaneAloneIsChargedOnce) {
  // One lane of 128 issues 300 loads of one word each from consecutive
  // addresses: every ordinal is a lone access, so 300 transactions (never
  // 300 x 32 ordinal-lane pairs of work), no conflicts, and the block pays
  // the hot lane's cycles on each of its 4 warps.
  gs::Device dev;
  auto buf = dev.alloc<std::uint32_t>(300);
  const auto s = gs::launch(dev, {1, 128}, [&](gs::Block& blk) {
    blk.for_each_thread([&](gs::Thread& t) {
      if (t.tid() != 77) return;
      for (std::uint32_t i = 0; i < 300; ++i) (void)t.load(buf, i);
    });
  });
  EXPECT_EQ(s.global_transactions, 300u);
  EXPECT_EQ(s.global_bytes_requested, 1200u);
  EXPECT_EQ(s.warp_cycles, 4 * 300 * gs::kGlobalAccessCycles);
  EXPECT_EQ(s.shared_conflict_cycles, 0.0);
}

TEST(SimtRegion, ReplaysFollowTheAluChargeInWarpOrder) {
  // Fractional charges make the double sum depend on its order. These were
  // picked so that adding the replays before the ALU charge, or warp 1's
  // replay before warp 0's, gives a different double.
  gs::Device dev;
  auto counters = dev.alloc<std::uint32_t>(2);
  const auto s = gs::launch(dev, {1, 64}, [&](gs::Block& blk) {
    blk.for_each_thread([&](gs::Thread& t) { t.charge(1.0 / 3.0); });
    blk.for_each_thread([&](gs::Thread& t) {
      if (t.tid() == 0) t.charge(0.1);
      // Five lanes of warp 0 share counter 0, eight of warp 1 counter 1.
      if (t.lane() < (t.warp() == 0 ? 5u : 8u)) {
        (void)t.atomic_add(counters, t.warp(), 1u);
      }
    });
  });
  const double alu = ((0.0 + 0.1) + gs::kGlobalAccessCycles) + 2.0;
  double expected = 0.0;
  expected += (1.0 / 3.0) * 2;
  expected += alu * 2;
  expected += 4 * 8.0;  // warp 0: four replays
  expected += 7 * 8.0;  // warp 1: seven
  EXPECT_EQ(std::bit_cast<std::uint64_t>(s.warp_cycles),
            std::bit_cast<std::uint64_t>(expected))
      << s.warp_cycles << " vs " << expected;
}
