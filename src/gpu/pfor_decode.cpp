#include "gpu/pfor_decode.h"

#include <cassert>

#include "gpu/decode.h"
#include "simt/collectives.h"

namespace griffin::gpu {

namespace detail {

void pfor_decode_one_block(simt::Block& blk, const DeviceList& list,
                           const BlockDesc& d, std::uint64_t desc_index,
                           simt::DeviceBuffer<DocId>& out,
                           std::uint64_t out_pos) {
  const codec::PForHeader ph = d.hdr.pfor();
  const std::uint32_t n_gaps = d.count > 0 ? d.count - 1u : 0u;

  auto gaps = blk.shared<std::uint32_t>(std::max<std::uint32_t>(n_gaps, 1));

  blk.for_each_thread([&](simt::Thread& t) {
    if (t.tid() == 0) (void)t.load(list.descs, desc_index);
  });

  // Parallel part: unpack the b-bit slots.
  blk.for_each_thread([&](simt::Thread& t) {
    if (t.tid() >= n_gaps) return;
    const auto slot = static_cast<std::uint32_t>(load_bits(
        t, list.blob,
        d.bit_offset + static_cast<std::uint64_t>(t.tid()) * ph.b, ph.b));
    t.sstore(std::span<std::uint32_t>(gaps), t.tid(), slot);
  });

  // Serial part: lane 0 walks the exception chain alone — every other
  // lane of the warp idles (pure divergence), and each exception value
  // is an isolated, uncoalesced global read. This is the data
  // dependence that sinks PForDelta on the GPU.
  if (ph.n_exceptions > 0) {
    const std::uint64_t exc_start = util::round_up(
        d.bit_offset + static_cast<std::uint64_t>(n_gaps) * ph.b, 32);
    blk.for_each_thread([&](simt::Thread& t) {
      if (t.tid() != 0) return;
      std::uint32_t pos = ph.first_exception;
      for (std::uint32_t k = 0; k < ph.n_exceptions; ++k) {
        const std::uint32_t dist =
            t.sload(std::span<const std::uint32_t>(gaps), pos);
        const auto value = static_cast<std::uint32_t>(
            load_bits(t, list.blob, exc_start + 32ull * k, 32));
        t.sstore(std::span<std::uint32_t>(gaps), pos, value);
        t.charge(2 * simt::kAluCycle);
        pos += dist;
      }
    });
  }

  // d-gaps -> docIDs needs a prefix sum (gap_i stores docid delta - 1).
  if (n_gaps > 0) {
    simt::block_inclusive_scan(blk, gaps.subspan(0, n_gaps));
  }
  blk.for_each_thread([&](simt::Thread& t) {
    if (t.tid() >= d.count) return;
    DocId v = d.first;
    if (t.tid() > 0) {
      v += t.sload(std::span<const std::uint32_t>(gaps), t.tid() - 1) +
           t.tid();
    }
    t.store(out, out_pos + t.tid(), v);
  });
}

}  // namespace detail

sim::KernelStats pfor_decode_range(simt::Device& dev, const DeviceList& list,
                                   std::size_t lo, std::size_t hi,
                                   simt::DeviceBuffer<DocId>& out,
                                   std::uint64_t out_base) {
  assert(list.scheme == codec::Scheme::kPForDelta);
  assert(lo < hi && hi <= list.num_blocks());
  const std::uint64_t first_off = list.host_descs[lo].out_offset;

  return simt::launch(
      dev, {static_cast<std::uint32_t>(hi - lo), list.block_size},
      [&](simt::Block& blk) {
        const std::size_t pb = lo + blk.block_id();
        detail::decode_block_memoized(
            blk, list, pb, out,
            out_base + list.host_descs[pb].out_offset - first_off,
            detail::pfor_decode_one_block);
      });
}

}  // namespace griffin::gpu
