#include "gpu/ef_decode.h"

#include <cassert>

#include "gpu/decode.h"
#include "simt/collectives.h"
#include "util/bits.h"

namespace griffin::gpu {

namespace detail {

/// Decodes one posting block inside one SIMT block (Algorithm 1).
/// `out_pos` is the absolute output position of the block's first element.
void ef_decode_one_block(simt::Block& blk, const DeviceList& list,
                         const BlockDesc& d, std::uint64_t desc_index,
                         simt::DeviceBuffer<DocId>& out,
                         std::uint64_t out_pos) {
  const codec::EFHeader eh = d.hdr.ef();
  const std::uint64_t hb_start = d.bit_offset;
  const std::uint64_t low_start = hb_start + 32ull * eh.hb_words;
  assert(eh.hb_words <= blk.dim());

  auto ps = blk.shared<std::uint32_t>(eh.hb_words);
  auto index_arr = blk.shared<std::uint32_t>(d.count);

  // Lane 0 fetches the block descriptor from global memory (the control
  // values used below mirror it exactly).
  blk.for_each_thread([&](simt::Thread& t) {
    if (t.tid() == 0) (void)t.load(list.descs, desc_index);
  });

  // Phase 1: per-word popcount (Algorithm 1 line 2).
  blk.for_each_thread([&](simt::Thread& t) {
    if (t.tid() >= eh.hb_words) return;
    const auto word = static_cast<std::uint32_t>(
        load_bits(t, list.blob, hb_start + 32ull * t.tid(), 32));
    t.sstore(std::span<std::uint32_t>(ps), t.tid(),
             static_cast<std::uint32_t>(t.popc(word)));
  });

  // Phase 2: prefix sum (line 3) — the synchronization point.
  simt::block_inclusive_scan(blk, ps);

  // Phase 3: scheduling — each word's thread scatters its element slots
  // (lines 4-8).
  blk.for_each_thread([&](simt::Thread& t) {
    if (t.tid() >= eh.hb_words) return;
    const std::uint32_t begin =
        t.tid() == 0
            ? 0
            : t.sload(std::span<const std::uint32_t>(ps), t.tid() - 1);
    const std::uint32_t end =
        t.sload(std::span<const std::uint32_t>(ps), t.tid());
    for (std::uint32_t o = begin; o < end; ++o) {
      t.sstore(std::span<std::uint32_t>(index_arr), o,
               static_cast<std::uint32_t>(t.tid()));
      t.charge(simt::kAluCycle);
    }
  });

  // Phase 4: per-element recovery (lines 9-10).
  blk.for_each_thread([&](simt::Thread& t) {
    if (t.tid() >= d.count) return;
    const std::uint32_t w =
        t.sload(std::span<const std::uint32_t>(index_arr), t.tid());
    const std::uint32_t base =
        w == 0 ? 0 : t.sload(std::span<const std::uint32_t>(ps), w - 1);
    const std::uint32_t rank = t.tid() - base;
    const auto word = static_cast<std::uint32_t>(
        load_bits(t, list.blob, hb_start + 32ull * w, 32));
    const int bit = util::select_in_word(word, static_cast<int>(rank));
    t.charge(4 * simt::kAluCycle);  // select + index arithmetic
    const std::uint64_t pos = 32ull * w + static_cast<std::uint32_t>(bit);
    const std::uint64_t high = pos - t.tid();
    std::uint64_t low = 0;
    if (eh.b > 0) {
      low = load_bits(t, list.blob,
                      low_start + static_cast<std::uint64_t>(t.tid()) * eh.b,
                      eh.b);
    }
    const DocId v = static_cast<DocId>(((high << eh.b) | low) + d.first);
    t.store(out, out_pos + t.tid(), v);
  });
}

}  // namespace detail

sim::KernelStats ef_decode_range(simt::Device& dev, const DeviceList& list,
                                 std::size_t lo, std::size_t hi,
                                 simt::DeviceBuffer<DocId>& out,
                                 std::uint64_t out_base) {
  assert(list.scheme == codec::Scheme::kEliasFano);
  assert(lo < hi && hi <= list.num_blocks());
  const std::uint64_t first_off = list.host_descs[lo].out_offset;
  return simt::launch(
      dev, {static_cast<std::uint32_t>(hi - lo), list.block_size},
      [&](simt::Block& blk) {
        const std::size_t pb = lo + blk.block_id();
        detail::decode_block_memoized(
            blk, list, pb, out,
            out_base + list.host_descs[pb].out_offset - first_off,
            detail::ef_decode_one_block);
      });
}

sim::KernelStats ef_decode_selected(simt::Device& dev, const DeviceList& list,
                                    const simt::DeviceBuffer<std::uint32_t>& ids_dev,
                                    std::span<const std::uint32_t> ids,
                                    simt::DeviceBuffer<DocId>& out) {
  assert(list.scheme == codec::Scheme::kEliasFano);
  assert(!ids.empty());
  return simt::launch(
      dev, {static_cast<std::uint32_t>(ids.size()), list.block_size},
      [&](simt::Block& blk) {
        // Lane 0 reads the block id to decode (mirrored on the host).
        blk.for_each_thread([&](simt::Thread& t) {
          if (t.tid() == 0) (void)t.load(ids_dev, blk.block_id());
        });
        detail::decode_block_memoized(
            blk, list, ids[blk.block_id()], out,
            static_cast<std::uint64_t>(blk.block_id()) * list.block_size,
            detail::ef_decode_one_block);
      });
}

}  // namespace griffin::gpu
