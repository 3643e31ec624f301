// google-benchmark wall-clock microbenchmarks of the SIMT simulator itself:
// the host cost of region accounting (simt::WarpTally) on the kernels'
// access patterns, and of the memoized fragments (simt/memo.h) cold vs
// replayed. The simulated numbers these kernels produce do not
// change between runs; this bench tracks how much host time it takes to
// produce them. Every run is mirrored into BENCH_microbench_simt.json.
//
//   ./build/bench/microbench_simt [--benchmark_filter=Region]
#include <benchmark/benchmark.h>

#include <vector>

#include "codec/block_codec.h"
#include "gpu/ef_decode.h"
#include "microbench_report.h"
#include "simt/collectives.h"
#include "util/rng.h"
#include "workload/corpus.h"

using namespace griffin;

namespace {

constexpr std::uint32_t kThreads = 256;
constexpr std::uint32_t kAccessesPerLane = 8;
constexpr std::uint32_t kRegions = 16;

/// One launch of one block running kRegions regions of `body(Thread&, k)`
/// for k < kAccessesPerLane. Repeating the region inside one launch
/// amortizes the launch's set-up, so the time is region execution and
/// accounting (simt::WarpTally).
template <typename Body>
void region_bench(benchmark::State& state, Body&& body) {
  simt::Device dev;
  auto buf = dev.alloc<std::uint32_t>(kThreads * kAccessesPerLane * 33);
  for (auto _ : state) {
    const sim::KernelStats s =
        simt::launch(dev, {1, kThreads}, [&](simt::Block& blk) {
          auto sh = blk.shared<std::uint32_t>(32 * 32 + kAccessesPerLane);
          for (std::uint32_t r = 0; r < kRegions; ++r) {
            blk.for_each_thread([&](simt::Thread& t) {
              for (std::uint32_t k = 0; k < kAccessesPerLane; ++k) {
                body(t, buf, sh, k);
              }
            });
          }
        });
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * kRegions * kThreads *
                          kAccessesPerLane);
}

void BM_RegionCoalesced(benchmark::State& state) {
  region_bench(state, [](simt::Thread& t, auto& buf, auto&, std::uint32_t k) {
    benchmark::DoNotOptimize(t.load(buf, k * kThreads + t.tid()));
  });
}

void BM_RegionStrided(benchmark::State& state) {
  // Every lane in its own 128-byte segment: 32 transactions per ordinal.
  region_bench(state, [](simt::Thread& t, auto& buf, auto&, std::uint32_t k) {
    const std::uint32_t lane_base = t.tid() * 33 * kAccessesPerLane;
    benchmark::DoNotOptimize(t.load(buf, lane_base + k));
  });
}

void BM_RegionAtomicContended(benchmark::State& state) {
  // Eight lanes per address: seven replays per warp per ordinal.
  region_bench(state, [](simt::Thread& t, auto& buf, auto&, std::uint32_t) {
    benchmark::DoNotOptimize(t.atomic_add(buf, t.lane() % 4, 1u));
  });
}

void BM_RegionBankConflicts(benchmark::State& state) {
  // A 32-word stride puts every lane of a warp on one bank: 32-way.
  region_bench(state, [](simt::Thread& t, auto&, auto& sh, std::uint32_t k) {
    t.sstore(sh, t.lane() * 32 + k, k);
  });
}

void BM_RegionSerialLane(benchmark::State& state) {
  // The serial VarByte/Simple16 decode's shape (gpu/decode.cpp): lane 0
  // walks the block alone, 256 global loads and 128 shared stores, while
  // the other 127 lanes idle.
  constexpr std::uint32_t kLanes = 128;
  constexpr std::uint32_t kLoads = 256;
  simt::Device dev;
  auto buf = dev.alloc<std::uint64_t>(kLoads);
  for (auto _ : state) {
    const sim::KernelStats s =
        simt::launch(dev, {1, kLanes}, [&](simt::Block& blk) {
          auto sh = blk.shared<std::uint32_t>(kLoads / 2);
          for (std::uint32_t r = 0; r < kRegions; ++r) {
            blk.for_each_thread([&](simt::Thread& t) {
              if (t.tid() != 0) return;
              for (std::uint32_t i = 0; i < kLoads; ++i) {
                const auto w = static_cast<std::uint32_t>(t.load(buf, i));
                if (i % 2 == 1) t.sstore(sh, i / 2, w);
              }
            });
          }
        });
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * kRegions * (kLoads * 3 / 2));
}

simt::DeviceBuffer<codec::DocId> ef_setup(simt::Device& dev,
                                          const codec::BlockCompressedList& l,
                                          gpu::DeviceList& dl) {
  pcie::Link link;
  pcie::TransferLedger ledger;
  dl = gpu::upload_list(dev, l, link, ledger);
  return dev.alloc<codec::DocId>(l.size());
}

codec::BlockCompressedList ef_block() {
  util::Xoshiro256 rng(11);
  const auto docs = workload::make_uniform_list(128, 128 * 40, rng);
  return codec::BlockCompressedList::build(docs, codec::Scheme::kEliasFano);
}

void BM_EFBlockDecodeCold(benchmark::State& state) {
  // A fresh device and upload per iteration: the decode and its scan are
  // simulated lane by lane.
  const auto list = ef_block();
  for (auto _ : state) {
    state.PauseTiming();
    simt::Device dev;
    gpu::DeviceList dl;
    auto out = ef_setup(dev, list, dl);
    state.ResumeTiming();
    benchmark::DoNotOptimize(gpu::ef_decode_range(dev, dl, 0, 1, out));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * list.size());
}

void BM_EFBlockDecodeMemoHit(benchmark::State& state) {
  const auto list = ef_block();
  simt::Device dev;
  gpu::DeviceList dl;
  auto out = ef_setup(dev, list, dl);
  (void)gpu::ef_decode_range(dev, dl, 0, 1, out);  // record
  for (auto _ : state) {
    benchmark::DoNotOptimize(gpu::ef_decode_range(dev, dl, 0, 1, out));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * list.size());
}

sim::KernelStats scan_128(simt::Device& dev) {
  return simt::launch(dev, {1, 128}, [](simt::Block& blk) {
    auto data = blk.shared<std::uint32_t>(128);
    for (std::uint32_t i = 0; i < 128; ++i) data[i] = i;
    simt::block_inclusive_scan(blk, data);
  });
}

void BM_BlockScanCold(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    simt::Device dev;
    state.ResumeTiming();
    benchmark::DoNotOptimize(scan_128(dev));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 128);
}

void BM_BlockScanMemoHit(benchmark::State& state) {
  simt::Device dev;
  (void)scan_128(dev);  // record
  for (auto _ : state) {
    benchmark::DoNotOptimize(scan_128(dev));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 128);
}

BENCHMARK(BM_RegionCoalesced);
BENCHMARK(BM_RegionStrided);
BENCHMARK(BM_RegionAtomicContended);
BENCHMARK(BM_RegionBankConflicts);
BENCHMARK(BM_RegionSerialLane);
BENCHMARK(BM_EFBlockDecodeCold);
BENCHMARK(BM_EFBlockDecodeMemoHit);
BENCHMARK(BM_BlockScanCold);
BENCHMARK(BM_BlockScanMemoHit);

}  // namespace

int main(int argc, char** argv) {
  return bench::run_microbench("microbench_simt", argc, argv);
}
