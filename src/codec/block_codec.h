// Block-partitioned compressed posting lists with skip pointers (paper
// Figure 2). DocIDs are split into fixed-size blocks (128 by default — the
// constant behind the paper's ratio-128 crossover analysis, §3.2); each block
// is compressed independently, and a skip table stores every block's first
// and last docID plus its offset, so intersections can locate and decompress
// only the blocks that can possibly contain matches.
//
// Since the codec-zoo refactor every list carries its own scheme and every
// skip entry a *tagged* per-scheme header (BlockHeader) instead of the old
// inline PFor+EF header pair — the registry in codec/codec.h maps a scheme
// tag to its PostingCodec, and adaptive indexes mix schemes per list.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "codec/eliasfano.h"
#include "codec/pfordelta.h"

namespace griffin::codec {

using DocId = std::uint32_t;

enum class Scheme : std::uint8_t {
  kPForDelta,
  kEliasFano,
  kVarByte,
  kSimple16,    ///< d-gaps must fit in 28 bits (enforced at build time)
  kBitPack128,  ///< SIMD-BP128-style fixed-width packing (codec/bp128.h)
  kRePair,      ///< grammar compression for repetitive lists (codec/repair.h)
};

inline constexpr int kNumSchemes = 6;

std::string scheme_name(Scheme s);

inline constexpr std::uint32_t kDefaultBlockSize = 128;

/// Tagged per-scheme block header. One fixed shape covers every codec so the
/// skip table (and the GPU's BlockDesc mirror) stays a POD array; the
/// generic fields are aliased per scheme via the named views below.
struct BlockHeader {
  Scheme scheme = Scheme::kPForDelta;
  std::uint8_t b = 0;      ///< pfor/bp128 slot, ef low-bit, repair symbol width
  std::uint16_t h16a = 0;  ///< pfor: n_exceptions; repair: n_rules
  std::uint16_t h16b = 0;  ///< pfor: first_exception; repair: n_seq
  std::uint32_t h32 = 0;   ///< ef: hb_words; repair: n_dict

  PForHeader pfor() const { return PForHeader{b, h16a, h16b}; }
  EFHeader ef() const { return EFHeader{b, h32}; }

  static BlockHeader from_pfor(const PForHeader& h) {
    return {Scheme::kPForDelta, h.b, h.n_exceptions, h.first_exception, 0};
  }
  static BlockHeader from_ef(const EFHeader& h) {
    return {Scheme::kEliasFano, h.b, 0, 0, h.hb_words};
  }
};

/// Skip-table entry: one per block. Carries the tagged per-scheme header
/// inline so a block is decodable from (meta, blob) alone — which is exactly
/// what the GPU kernels receive.
struct BlockMeta {
  DocId first = 0;               ///< first docID in the block
  DocId last = 0;                ///< last docID in the block
  std::uint64_t bit_offset = 0;  ///< payload position in the blob
  std::uint16_t count = 0;       ///< postings in the block
  BlockHeader hdr;               ///< per-scheme header (tagged)
};

class BlockCompressedList {
 public:
  BlockCompressedList() = default;

  /// Compresses a strictly increasing docID sequence. Throws
  /// std::invalid_argument when the scheme cannot represent the input
  /// (Simple16 with a d-gap over 28 bits). pfor_forced_b pins the PForDelta
  /// slot width (0 = automatic 90%-coverage rule); it exposes the
  /// compression-ratio-vs-decode-speed trade-off of §2.3 for the ablations.
  static BlockCompressedList build(std::span<const DocId> docids, Scheme scheme,
                                   std::uint32_t block_size = kDefaultBlockSize,
                                   std::uint8_t pfor_forced_b = 0);

  /// Reassembles a list from previously serialized parts (index/io.h).
  /// Throws std::invalid_argument unless the skip table is consistent:
  /// every count in [1, block_size] and summing to size, first <= last in
  /// each block, last strictly increasing across blocks, and every
  /// bit_offset inside the blob (at most its end).
  static BlockCompressedList from_parts(Scheme scheme, std::uint32_t block_size,
                                        std::uint64_t size,
                                        std::vector<std::uint64_t> blob,
                                        std::vector<BlockMeta> metas);

  std::uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::uint32_t block_size() const { return block_size_; }
  std::size_t num_blocks() const { return metas_.size(); }
  Scheme scheme() const { return scheme_; }

  std::span<const std::uint64_t> blob() const { return blob_; }
  std::span<const BlockMeta> metas() const { return metas_; }
  const BlockMeta& meta(std::size_t b) const { return metas_[b]; }

  DocId first_docid() const { return metas_.front().first; }
  DocId last_docid() const { return metas_.back().last; }

  /// Decodes block b into out (room for block_size() values); returns count.
  std::uint32_t decode_block(std::size_t b, DocId* out) const;

  /// Decodes the whole list.
  void decode_all(std::vector<DocId>& out) const;

  /// Smallest block index whose last docID is >= target (binary search over
  /// the skip table); num_blocks() if no such block.
  std::size_t find_block(DocId target) const;

  /// Compressed footprint including the skip table (what the compression-
  /// ratio experiment, Table 1, measures — and what the cache tiers budget).
  std::uint64_t compressed_bytes() const;
  double bits_per_posting() const {
    return size_ == 0 ? 0.0
                      : 8.0 * static_cast<double>(compressed_bytes()) /
                            static_cast<double>(size_);
  }

 private:
  Scheme scheme_ = Scheme::kPForDelta;
  std::uint32_t block_size_ = kDefaultBlockSize;
  std::uint64_t size_ = 0;
  std::vector<std::uint64_t> blob_;
  std::vector<BlockMeta> metas_;
};

}  // namespace griffin::codec
