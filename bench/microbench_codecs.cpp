// google-benchmark wall-clock microbenchmarks of the host-side library
// primitives (encode/decode throughput across the codec zoo, adaptive
// selection, intersections). Unlike the figure benches — which report
// *simulated* time on the modeled K20 testbed — these measure this
// library's real speed on the build host. Every run is mirrored into
// BENCH_microbench_codecs.json (microbench_report.h).
#include <benchmark/benchmark.h>

#include <vector>

#include "codec/block_codec.h"
#include "codec/codec.h"
#include "cpu/intersect.h"
#include "microbench_report.h"
#include "util/rng.h"
#include "workload/corpus.h"

using namespace griffin;

namespace {

std::vector<codec::DocId> docs_for(std::uint64_t n) {
  util::Xoshiro256 rng(n);
  return workload::make_uniform_list(
      n, static_cast<codec::DocId>(n * 32), rng);
}

void encode_bench(benchmark::State& state, codec::Scheme scheme) {
  const auto docs = docs_for(state.range(0));
  for (auto _ : state) {
    auto list = codec::BlockCompressedList::build(docs, scheme);
    benchmark::DoNotOptimize(list);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void decode_bench(benchmark::State& state, codec::Scheme scheme) {
  const auto docs = docs_for(state.range(0));
  const auto list = codec::BlockCompressedList::build(docs, scheme);
  std::vector<codec::DocId> out;
  for (auto _ : state) {
    list.decode_all(out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_EncodePFor(benchmark::State& s) {
  encode_bench(s, codec::Scheme::kPForDelta);
}
void BM_EncodeEF(benchmark::State& s) {
  encode_bench(s, codec::Scheme::kEliasFano);
}
void BM_EncodeBP128(benchmark::State& s) {
  encode_bench(s, codec::Scheme::kBitPack128);
}
void BM_EncodeRePair(benchmark::State& s) {
  encode_bench(s, codec::Scheme::kRePair);
}
void BM_DecodePFor(benchmark::State& s) {
  decode_bench(s, codec::Scheme::kPForDelta);
}
void BM_DecodeEF(benchmark::State& s) {
  decode_bench(s, codec::Scheme::kEliasFano);
}
void BM_DecodeBP128(benchmark::State& s) {
  decode_bench(s, codec::Scheme::kBitPack128);
}
void BM_DecodeRePair(benchmark::State& s) {
  decode_bench(s, codec::Scheme::kRePair);
}

void BM_SelectScheme(benchmark::State& state) {
  const auto docs = docs_for(state.range(0));
  for (auto _ : state) {
    const codec::Scheme s = codec::select_scheme(docs);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_MergeIntersect(benchmark::State& state) {
  util::Xoshiro256 rng(5);
  const auto pair = workload::make_pair_with_ratio(
      state.range(0), 4.0, static_cast<codec::DocId>(state.range(0) * 16),
      0.4, rng);
  sim::CpuSpec spec;
  std::vector<codec::DocId> out;
  for (auto _ : state) {
    sim::CpuCostAccumulator acc(spec);
    cpu::merge_intersect(std::span<const codec::DocId>(pair.shorter),
                         std::span<const codec::DocId>(pair.longer), out, acc);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          (pair.shorter.size() + pair.longer.size()));
}

void BM_SkipIntersect(benchmark::State& state) {
  util::Xoshiro256 rng(6);
  const auto pair = workload::make_pair_with_ratio(
      state.range(0), 256.0, static_cast<codec::DocId>(state.range(0) * 8),
      0.4, rng);
  const auto longer = codec::BlockCompressedList::build(
      pair.longer, codec::Scheme::kEliasFano);
  sim::CpuSpec spec;
  std::vector<codec::DocId> out;
  for (auto _ : state) {
    sim::CpuCostAccumulator acc(spec);
    cpu::skip_intersect(pair.shorter, longer, out, acc);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * pair.shorter.size());
}

BENCHMARK(BM_EncodePFor)->Arg(1 << 14)->Arg(1 << 18);
BENCHMARK(BM_EncodeEF)->Arg(1 << 14)->Arg(1 << 18);
BENCHMARK(BM_EncodeBP128)->Arg(1 << 14)->Arg(1 << 18);
// Re-Pair's greedy pairing is the one super-linear encoder; keep its sizes
// below the bit-packers' so the bench stays a microbench.
BENCHMARK(BM_EncodeRePair)->Arg(1 << 12)->Arg(1 << 14);
BENCHMARK(BM_DecodePFor)->Arg(1 << 14)->Arg(1 << 18);
BENCHMARK(BM_DecodeEF)->Arg(1 << 14)->Arg(1 << 18);
BENCHMARK(BM_DecodeBP128)->Arg(1 << 14)->Arg(1 << 18);
BENCHMARK(BM_DecodeRePair)->Arg(1 << 12)->Arg(1 << 14);
BENCHMARK(BM_SelectScheme)->Arg(1 << 14)->Arg(1 << 18);
BENCHMARK(BM_MergeIntersect)->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK(BM_SkipIntersect)->Arg(1 << 18)->Arg(1 << 21);

}  // namespace

int main(int argc, char** argv) {
  return bench::run_microbench("microbench_codecs", argc, argv);
}
