// Codec-generic device decode: dispatches a device list's blocks to the
// kernel its scheme wants. Para-EF (gpu/ef_decode.h) and the PForDelta
// kernel (gpu/pfor_decode.h) keep their dedicated entry points for the
// ablations; this layer adds a BP128 kernel (slot unpack + block scan, no
// exception walk — the codec built for warps), a Re-Pair kernel (per-symbol
// grammar expansion with honest divergence charges), and a serial lane-0
// fallback for the byte/selector codecs (VByte, Simple16) that have no
// lane-parallel structure — decoding those on the device is priced, not
// hidden, which is exactly what the scheduler's per-codec penalty models.
#pragma once

#include "gpu/device_list.h"

namespace griffin::gpu {

/// True when the scheme has a lane-parallel device kernel; false for the
/// serial-fallback codecs (the scheduler charges those a per-posting
/// penalty, and the adaptive selector's tie-break prefers parallel ones).
bool gpu_parallel_decode(codec::Scheme s);

/// Decodes posting blocks [lo, hi) of any device list into out, at
/// positions out_base + (desc.out_offset - descs[lo].out_offset) onward.
sim::KernelStats decode_range(simt::Device& dev, const DeviceList& list,
                              std::size_t lo, std::size_t hi,
                              simt::DeviceBuffer<DocId>& out,
                              std::uint64_t out_base = 0);

/// Decodes an arbitrary subset of posting blocks (ids ascending, device copy
/// in `ids_dev`, host copy in `ids`). Block ids[i] lands at out slot
/// i * list.block_size, like ef_decode_selected.
sim::KernelStats decode_selected(
    simt::Device& dev, const DeviceList& list,
    const simt::DeviceBuffer<std::uint32_t>& ids_dev,
                                 std::span<const std::uint32_t> ids,
                                 simt::DeviceBuffer<DocId>& out);

namespace detail {
// One-posting-block decode bodies, one SIMT block each. Shared between the
// dedicated range kernels and the generic dispatch above; every call goes
// through decode_block_memoized.
using OneBlockDecode = void (*)(simt::Block& blk, const DeviceList& list,
                                const BlockDesc& d, std::uint64_t desc_index,
                                simt::DeviceBuffer<DocId>& out,
                                std::uint64_t out_pos);

/// Decodes posting block `pb` of `list` into out[out_pos, +count) inside
/// the current SIMT block. The first decode of a (block, out_pos modulo one
/// memory transaction) pair runs `kernel` lane by lane and records its
/// stats in list.decode_memo; later ones decode on the host and replay the
/// recorded stats.
void decode_block_memoized(simt::Block& blk, const DeviceList& list,
                           std::size_t pb, simt::DeviceBuffer<DocId>& out,
                           std::uint64_t out_pos, OneBlockDecode kernel);

void ef_decode_one_block(simt::Block& blk, const DeviceList& list,
                         const BlockDesc& d, std::uint64_t desc_index,
                         simt::DeviceBuffer<DocId>& out, std::uint64_t out_pos);
void pfor_decode_one_block(simt::Block& blk, const DeviceList& list,
                           const BlockDesc& d, std::uint64_t desc_index,
                           simt::DeviceBuffer<DocId>& out,
                           std::uint64_t out_pos);
void bp128_decode_one_block(simt::Block& blk, const DeviceList& list,
                            const BlockDesc& d, std::uint64_t desc_index,
                            simt::DeviceBuffer<DocId>& out,
                            std::uint64_t out_pos);
void repair_decode_one_block(simt::Block& blk, const DeviceList& list,
                             const BlockDesc& d, std::uint64_t desc_index,
                             simt::DeviceBuffer<DocId>& out,
                             std::uint64_t out_pos);
void serial_decode_one_block(simt::Block& blk, const DeviceList& list,
                             const BlockDesc& d, std::uint64_t desc_index,
                             simt::DeviceBuffer<DocId>& out,
                             std::uint64_t out_pos);
}  // namespace detail

}  // namespace griffin::gpu
