// Host-side memoization of pure SIMT fragments (simt/memo.h): a replayed
// per-block decode or block scan must charge exactly the KernelStats of the
// lane-by-lane run it replaces and produce the same output.
#include <gtest/gtest.h>

#include <numeric>

#include "gpu/decode.h"
#include "simt/collectives.h"
#include "util/rng.h"
#include "workload/corpus.h"

namespace gg = griffin::gpu;
namespace gs = griffin::simt;
using griffin::codec::BlockCompressedList;
using griffin::codec::DocId;
using griffin::codec::Scheme;
using griffin::sim::KernelStats;

namespace {

void expect_same_stats(const KernelStats& a, const KernelStats& b) {
  EXPECT_EQ(a.blocks, b.blocks);
  EXPECT_EQ(a.warps, b.warps);
  EXPECT_EQ(a.warp_cycles, b.warp_cycles);
  EXPECT_EQ(a.global_transactions, b.global_transactions);
  EXPECT_EQ(a.global_bytes_requested, b.global_bytes_requested);
  EXPECT_EQ(a.shared_accesses, b.shared_accesses);
  EXPECT_EQ(a.shared_conflict_cycles, b.shared_conflict_cycles);
  EXPECT_EQ(a.barriers, b.barriers);
}

// ---- Per-block decode ----

struct DecodeRun {
  KernelStats stats;
  std::vector<DocId> out;
};

/// Decodes every block of `dl` at output offset `residue` (range), or every
/// block into fixed-stride slots (selected).
DecodeRun run_decode(gs::Device& dev, const gg::DeviceList& dl, bool selected,
                     std::uint32_t residue) {
  DecodeRun r;
  if (selected) {
    std::vector<std::uint32_t> ids(dl.num_blocks());
    std::iota(ids.begin(), ids.end(), 0u);
    auto ids_dev = dev.alloc<std::uint32_t>(ids.size());
    dev.upload(ids_dev, std::span<const std::uint32_t>(ids));
    auto out = dev.alloc<DocId>(ids.size() * dl.block_size);
    r.stats = gg::decode_selected(dev, dl, ids_dev, ids, out);
    r.out.resize(out.size());
    dev.download(std::span<DocId>(r.out), out);
  } else {
    auto out = dev.alloc<DocId>(dl.size + residue);
    r.stats = gg::decode_range(dev, dl, 0, dl.num_blocks(), out, residue);
    r.out.resize(out.size());
    dev.download(std::span<DocId>(r.out), out);
    r.out.erase(r.out.begin(), r.out.begin() + residue);
  }
  return r;
}

/// The host decode laid out like run_decode's output.
std::vector<DocId> expected_output(const BlockCompressedList& list,
                                   bool selected) {
  std::vector<DocId> all;
  list.decode_all(all);
  if (!selected) return all;
  std::vector<DocId> slots(list.num_blocks() * list.block_size(), 0);
  std::size_t pos = 0;
  for (std::size_t b = 0; b < list.num_blocks(); ++b) {
    const std::size_t c = list.meta(b).count;
    std::copy_n(all.begin() + pos, c, slots.begin() + b * list.block_size());
    pos += c;
  }
  return slots;
}

class DecodeMemo
    : public ::testing::TestWithParam<std::tuple<Scheme, std::uint32_t, bool>> {
};

TEST_P(DecodeMemo, ReplayMatchesSimulation) {
  const auto [scheme, residue, selected] = GetParam();
  // Selected decode writes block i at slot i * block_size: a 97-posting
  // block size walks the slots through every residue mod 32 (0, 1 and 31
  // among them); range decode takes the residue as its output offset.
  const std::uint32_t block_size = selected ? 97 : 128;
  griffin::util::Xoshiro256 rng(static_cast<std::uint64_t>(scheme) * 131 +
                                residue);
  const auto docs = griffin::workload::make_uniform_list(4000, 200000, rng);
  const auto list = BlockCompressedList::build(docs, scheme, block_size);
  const auto want = expected_output(list, selected);

  gs::Device dev;
  griffin::pcie::Link link;
  griffin::pcie::TransferLedger ledger;
  const gg::DeviceList cold = gg::upload_list(dev, list, link, ledger);
  ASSERT_EQ(cold.decode_memo.size(), 0u);

  const DecodeRun first = run_decode(dev, cold, selected, residue);
  EXPECT_EQ(first.out, want);
  const std::size_t recorded = cold.decode_memo.size();
  EXPECT_EQ(recorded, cold.num_blocks());

  // Warm: every block replays from the list's memo.
  const DecodeRun warm = run_decode(dev, cold, selected, residue);
  EXPECT_EQ(cold.decode_memo.size(), recorded);
  expect_same_stats(warm.stats, first.stats);
  EXPECT_EQ(warm.out, want);

  // A re-upload is a new list: its memo starts cold and re-simulates.
  const gg::DeviceList fresh = gg::upload_list(dev, list, link, ledger);
  EXPECT_EQ(fresh.decode_memo.size(), 0u);
  const DecodeRun again = run_decode(dev, fresh, selected, residue);
  EXPECT_EQ(fresh.decode_memo.size(), recorded);
  expect_same_stats(again.stats, first.stats);
  EXPECT_EQ(again.out, want);
}

INSTANTIATE_TEST_SUITE_P(
    CodecsResidues, DecodeMemo,
    ::testing::Combine(::testing::Values(Scheme::kPForDelta,
                                         Scheme::kEliasFano, Scheme::kVarByte,
                                         Scheme::kSimple16,
                                         Scheme::kBitPack128, Scheme::kRePair),
                       ::testing::Values(0u, 1u, 31u), ::testing::Bool()));

TEST(DecodeMemoKey, DistinctResiduesAreDistinctEntries) {
  griffin::util::Xoshiro256 rng(7);
  const auto docs = griffin::workload::make_uniform_list(640, 50000, rng);
  const auto list = BlockCompressedList::build(docs, Scheme::kEliasFano);
  gs::Device dev;
  griffin::pcie::Link link;
  griffin::pcie::TransferLedger ledger;
  const gg::DeviceList dl = gg::upload_list(dev, list, link, ledger);
  run_decode(dev, dl, false, 0);
  run_decode(dev, dl, false, 32);  // same residue: all hits
  EXPECT_EQ(dl.decode_memo.size(), dl.num_blocks());
  run_decode(dev, dl, false, 1);  // new residue: new entries
  EXPECT_EQ(dl.decode_memo.size(), 2 * dl.num_blocks());
}

// ---- Block scans ----

struct ScanRun {
  KernelStats stats;
  std::vector<std::uint32_t> out;
  std::uint32_t total = 0;
};

/// One block scanning `input` placed `offset` words into its shared arena.
ScanRun run_scan(gs::Device& dev, bool exclusive, std::uint32_t dim,
                 std::uint32_t offset,
                 const std::vector<std::uint32_t>& input) {
  ScanRun r;
  r.stats = gs::launch(dev, {1, dim}, [&](gs::Block& blk) {
    auto data =
        blk.shared<std::uint32_t>(offset + input.size()).subspan(offset);
    EXPECT_EQ(blk.shared_word_offset(data.data()), offset);
    std::copy(input.begin(), input.end(), data.begin());
    if (exclusive) {
      r.total = gs::block_exclusive_scan(blk, data);
    } else {
      gs::block_inclusive_scan(blk, data);
    }
    r.out.assign(data.begin(), data.end());
  });
  return r;
}

class ScanMemo : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ScanMemo, ReplayMatchesSimulation) {
  const std::uint32_t dim = GetParam();
  griffin::util::Xoshiro256 rng(dim);
  gs::Device dev;
  std::vector<std::uint32_t> input;
  for (const bool exclusive : {false, true}) {
    for (std::uint32_t n = 1; n <= 1100; ++n) {
      input.resize(n);
      // Full-range values: the sums wrap, on the lanes and on the host.
      for (auto& x : input) x = static_cast<std::uint32_t>(rng());
      std::vector<std::uint32_t> want(n);
      std::inclusive_scan(input.begin(), input.end(), want.begin());
      const std::uint32_t want_total = want.back();
      if (exclusive) {
        std::exclusive_scan(input.begin(), input.end(), want.begin(), 0u);
      }
      for (std::uint32_t offset = 0; offset < 32; ++offset) {
        const std::size_t before = dev.collective_memo().size();
        const ScanRun cold = run_scan(dev, exclusive, dim, offset, input);
        ASSERT_EQ(dev.collective_memo().size(), before + 1)
            << "n=" << n << " offset=" << offset;
        const ScanRun warm = run_scan(dev, exclusive, dim, offset, input);
        ASSERT_EQ(dev.collective_memo().size(), before + 1);
        ASSERT_EQ(cold.out, want) << "n=" << n << " offset=" << offset;
        ASSERT_EQ(warm.out, want) << "n=" << n << " offset=" << offset;
        if (exclusive) {
          ASSERT_EQ(cold.total, want_total);
          ASSERT_EQ(warm.total, want_total);
        }
        expect_same_stats(warm.stats, cold.stats);
        if (::testing::Test::HasFailure()) {
          FAIL() << "n=" << n << " dim=" << dim << " offset=" << offset
                 << " exclusive=" << exclusive;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, ScanMemo,
                         ::testing::Values(32u, 64u, 128u, 256u));

TEST(ScanMemoKey, BankConflictsFollowArenaOffsets) {
  // Same shape, data shifted by one word: a different bank alignment, so a
  // different memo entry; shifted by 32 words: the same banks, a hit.
  gs::Device dev;
  const std::vector<std::uint32_t> input(300, 1);
  run_scan(dev, false, 64, 0, input);
  run_scan(dev, false, 64, 32, input);
  EXPECT_EQ(dev.collective_memo().size(), 1u);
  run_scan(dev, false, 64, 1, input);
  EXPECT_EQ(dev.collective_memo().size(), 2u);
}

TEST(ScanMemoKey, DevicesDoNotShareMemo) {
  gs::Device a;
  gs::Device b;
  run_scan(a, false, 32, 0, std::vector<std::uint32_t>(40, 2));
  EXPECT_EQ(a.collective_memo().size(), 1u);
  EXPECT_EQ(b.collective_memo().size(), 0u);
}

}  // namespace
