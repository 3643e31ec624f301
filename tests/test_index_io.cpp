#include "index/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "codec/codec.h"
#include "util/rng.h"
#include "workload/corpus.h"

using namespace griffin;

namespace {
std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}
}  // namespace

TEST(IndexIO, RoundTripPreservesEverything) {
  workload::CorpusConfig cfg;
  cfg.num_docs = 30'000;
  cfg.num_terms = 40;
  cfg.seed = 9;
  const auto idx = workload::generate_corpus(cfg);

  const std::string path = temp_path("griffin_test_index.bin");
  index::save_index(idx, path);
  const auto loaded = index::load_index(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.scheme(), idx.scheme());
  EXPECT_EQ(loaded.block_size(), idx.block_size());
  EXPECT_EQ(loaded.num_terms(), idx.num_terms());
  EXPECT_EQ(loaded.docs().num_docs(), idx.docs().num_docs());
  EXPECT_EQ(loaded.total_postings(), idx.total_postings());
  EXPECT_EQ(loaded.compressed_docid_bytes(), idx.compressed_docid_bytes());
  for (index::DocId d = 0; d < idx.docs().num_docs(); d += 997) {
    EXPECT_EQ(loaded.docs().length(d), idx.docs().length(d));
  }
  for (index::TermId t = 0; t < idx.num_terms(); ++t) {
    std::vector<index::DocId> a, b;
    idx.list(t).docids.decode_all(a);
    loaded.list(t).docids.decode_all(b);
    ASSERT_EQ(a, b) << "term " << t;
    ASSERT_EQ(loaded.list(t).freqs, idx.list(t).freqs) << "term " << t;
  }
}

TEST(IndexIO, PForSchemeRoundTrips) {
  workload::CorpusConfig cfg;
  cfg.num_docs = 10'000;
  cfg.num_terms = 10;
  cfg.scheme = codec::Scheme::kPForDelta;
  const auto idx = workload::generate_corpus(cfg);
  const std::string path = temp_path("griffin_test_index_pfor.bin");
  index::save_index(idx, path);
  const auto loaded = index::load_index(path);
  std::remove(path.c_str());
  std::vector<index::DocId> a, b;
  idx.list(3).docids.decode_all(a);
  loaded.list(3).docids.decode_all(b);
  EXPECT_EQ(a, b);
}

TEST(IndexIO, MixedSchemeRoundTrip) {
  // One list per codec (explicitly forced) plus one adaptively selected —
  // the v3 format must preserve each list's own scheme and the index's
  // adaptive policy flag.
  index::InvertedIndex idx(index::CodecPolicy{codec::Scheme::kEliasFano, true});
  util::Xoshiro256 rng(21);
  for (const codec::Scheme s : codec::all_schemes()) {
    const auto docs = workload::make_uniform_list(700, 40'000, rng);
    const std::vector<std::uint32_t> freqs(docs.size(), 2);
    idx.add_list_as(s, docs, freqs);
  }
  idx.add_list(workload::make_uniform_list(700, 40'000, rng));
  idx.docs().resize(40'000);
  for (index::DocId d = 0; d < 40'000; ++d) idx.docs().set_length(d, d % 7);

  const std::string path = temp_path("griffin_test_index_mixed.bin");
  index::save_index(idx, path);
  const auto loaded = index::load_index(path);
  std::remove(path.c_str());

  EXPECT_TRUE(loaded.adaptive());
  EXPECT_EQ(loaded.scheme(), codec::Scheme::kEliasFano);
  ASSERT_EQ(loaded.num_terms(), idx.num_terms());
  for (index::TermId t = 0; t < idx.num_terms(); ++t) {
    EXPECT_EQ(loaded.list(t).docids.scheme(), idx.list(t).docids.scheme())
        << "term " << t;
    std::vector<index::DocId> a, b;
    idx.list(t).docids.decode_all(a);
    loaded.list(t).docids.decode_all(b);
    ASSERT_EQ(a, b) << "term " << t;
    ASSERT_EQ(loaded.list(t).freqs, idx.list(t).freqs) << "term " << t;
  }
}

namespace {

/// The exact in-memory block metadata struct v2 files were written with
/// (raw fwrite, padding included).
struct LegacyMetaV2 {
  index::DocId first = 0;
  index::DocId last = 0;
  std::uint64_t bit_offset = 0;
  std::uint16_t count = 0;
  codec::PForHeader pfor;
  codec::EFHeader ef;
};
static_assert(sizeof(LegacyMetaV2) == 32);

template <typename T>
void put(std::FILE* f, const T& v) {
  ASSERT_EQ(std::fwrite(&v, 1, sizeof(T), f), sizeof(T));
}

/// Hand-writes a v2 (single-scheme, raw-meta) index file holding one list.
void write_legacy_v2_file(const std::string& path, codec::Scheme scheme,
                          const codec::BlockCompressedList& list,
                          const std::vector<std::uint8_t>& freqs,
                          std::uint64_t ndocs) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  put<std::uint64_t>(f, 0x4752494646494E31ull);  // magic
  put<std::uint32_t>(f, 2);                      // version: legacy
  put<std::uint8_t>(f, static_cast<std::uint8_t>(scheme));
  put<std::uint32_t>(f, list.block_size());
  put<std::uint64_t>(f, ndocs);
  for (std::uint64_t d = 0; d < ndocs; ++d) {
    put<std::uint32_t>(f, static_cast<std::uint32_t>(d % 5));
  }
  put<std::uint64_t>(f, 1);  // one term
  put<std::uint64_t>(f, list.size());
  put<std::uint64_t>(f, list.blob().size());
  ASSERT_EQ(std::fwrite(list.blob().data(), 8, list.blob().size(), f),
            list.blob().size());
  put<std::uint64_t>(f, list.metas().size());
  for (const codec::BlockMeta& m : list.metas()) {
    LegacyMetaV2 l;
    l.first = m.first;
    l.last = m.last;
    l.bit_offset = m.bit_offset;
    l.count = m.count;
    if (scheme == codec::Scheme::kPForDelta) l.pfor = m.hdr.pfor();
    if (scheme == codec::Scheme::kEliasFano) l.ef = m.hdr.ef();
    put(f, l);
  }
  put<std::uint64_t>(f, freqs.size());
  ASSERT_EQ(std::fwrite(freqs.data(), 1, freqs.size(), f), freqs.size());
  std::fclose(f);
}

}  // namespace

TEST(IndexIO, LoadsLegacyV2SingleSchemeFile) {
  // Old single-scheme indexes (written before the tagged-header format) must
  // still load: the reader upgrades each raw v2 meta into a tagged header.
  util::Xoshiro256 rng(5);
  const auto docs = workload::make_uniform_list(900, 60'000, rng);
  const std::vector<std::uint8_t> freqs(docs.size(), 1);
  for (const codec::Scheme s :
       {codec::Scheme::kEliasFano, codec::Scheme::kPForDelta}) {
    const auto list = codec::BlockCompressedList::build(docs, s);
    const std::string path = temp_path("griffin_test_index_v2.bin");
    write_legacy_v2_file(path, s, list, freqs, 100);
    const auto loaded = index::load_index(path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded.scheme(), s);
    EXPECT_FALSE(loaded.adaptive());
    ASSERT_EQ(loaded.num_terms(), 1u);
    EXPECT_EQ(loaded.list(0).docids.scheme(), s);
    std::vector<index::DocId> got;
    loaded.list(0).docids.decode_all(got);
    EXPECT_EQ(got, docs) << codec::scheme_name(s);
    EXPECT_EQ(loaded.docs().num_docs(), 100u);
    EXPECT_EQ(loaded.docs().length(7), 2u);
  }
}

TEST(IndexIO, MissingFileThrows) {
  EXPECT_THROW(index::load_index("/nonexistent/griffin.bin"),
               std::runtime_error);
}

TEST(IndexIO, CorruptMagicThrows) {
  const std::string path = temp_path("griffin_test_corrupt.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[64] = "not an index";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  EXPECT_THROW(index::load_index(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(IndexIO, TruncatedFileThrows) {
  workload::CorpusConfig cfg;
  cfg.num_docs = 5'000;
  cfg.num_terms = 5;
  const auto idx = workload::generate_corpus(cfg);
  const std::string path = temp_path("griffin_test_trunc.bin");
  index::save_index(idx, path);
  // Truncate to half.
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full / 2);
  EXPECT_THROW(index::load_index(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(IndexIO, OutOfRangeSchemeByteThrows) {
  // A scheme byte past the last codec used to be cast through unchecked,
  // so codec_for's switch fell through to EF and the list decoded with the
  // wrong codec. Both the index-wide byte and the v3 per-list byte are
  // range-checked.
  util::Xoshiro256 rng(3);
  index::InvertedIndex idx(index::CodecPolicy{codec::Scheme::kVarByte});
  idx.add_list(workload::make_uniform_list(60, 100, rng));
  idx.docs().resize(100);
  const std::string path = temp_path("griffin_test_bad_scheme.bin");
  index::save_index(idx, path);
  ASSERT_EQ(index::load_index(path).list(0).docids.scheme(),
            codec::Scheme::kVarByte);

  // v3 layout: magic(8) version(4) | fixed scheme(1) adaptive(1)
  // block_size(4) | ndocs(8) lengths(4 each) | nterms(8) | size(8) scheme(1)
  const long fixed_at = 12;
  const long list_at = 18 + 8 + 4 * 100 + 8 + 8;
  for (const long at : {fixed_at, list_at}) {
    for (const std::uint8_t bad : {std::uint8_t{6}, std::uint8_t{0xFF}}) {
      index::save_index(idx, path);
      std::FILE* f = std::fopen(path.c_str(), "r+b");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(std::fseek(f, at, SEEK_SET), 0);
      ASSERT_EQ(std::fgetc(f), static_cast<int>(codec::Scheme::kVarByte));
      ASSERT_EQ(std::fseek(f, at, SEEK_SET), 0);
      ASSERT_EQ(std::fputc(bad, f), bad);
      std::fclose(f);
      try {
        index::load_index(path);
        ADD_FAILURE() << "no throw, byte " << at << " = " << int{bad};
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "index load: bad scheme")
            << "byte " << at << " = " << int{bad};
      }
    }
  }
  std::remove(path.c_str());
}

// ---- Structural checks on load ---------------------------------------------

namespace {

/// A saved one-list VarByte index (300 postings: blocks of 128, 128 and 44)
/// and the byte offsets of its v3 fields, for patching single fields.
struct SavedIndex {
  static constexpr std::uint64_t kDocs = 1000;
  static constexpr long kNdocsAt = 18;  // magic, version, policy, block_size
  static constexpr long kNtermsAt = kNdocsAt + 8 + 4 * kDocs;
  static constexpr long kSizeAt = kNtermsAt + 8;
  static constexpr long kBlobLenAt = kSizeAt + 8 + 1;  // after the scheme
  static constexpr long kMetaBytes = 28;
  /// Field offsets inside one meta record.
  static constexpr long kFirst = 0, kLast = 4, kBitOffset = 8, kCount = 16;

  std::string path;
  index::InvertedIndex idx{index::CodecPolicy{codec::Scheme::kVarByte}};

  explicit SavedIndex(const char* name) : path(temp_path(name)) {
    util::Xoshiro256 rng(17);
    idx.add_list(workload::make_uniform_list(300, kDocs, rng));
    idx.docs().resize(kDocs);
  }
  ~SavedIndex() { std::remove(path.c_str()); }
  SavedIndex(const SavedIndex&) = delete;
  SavedIndex& operator=(const SavedIndex&) = delete;

  const codec::BlockCompressedList& list() const { return idx.list(0).docids; }
  long nmetas_at() const {
    return kBlobLenAt + 8 + 8 * static_cast<long>(list().blob().size());
  }
  long meta_at(std::size_t b, long field) const {
    return nmetas_at() + 8 + kMetaBytes * static_cast<long>(b) + field;
  }
  long freqs_len_at() const { return meta_at(list().num_blocks(), 0); }

  /// Re-saves the index, then overwrites sizeof(T) bytes at `at`.
  template <typename T>
  void save_patched(long at, T value) {
    index::save_index(idx, path);
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, at, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&value, 1, sizeof(T), f), sizeof(T));
    std::fclose(f);
  }

  void expect_load_error(const std::string& what) const {
    try {
      index::load_index(path);
      ADD_FAILURE() << "no throw, expected " << what;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), what);
    }
  }
};

}  // namespace

TEST(IndexIO, HugeNdocsThrowsBeforeAllocating) {
  SavedIndex s("griffin_test_ndocs.bin");
  s.save_patched<std::uint64_t>(SavedIndex::kNdocsAt, std::uint64_t{1} << 60);
  s.expect_load_error("index load: ndocs past end of file");
}

TEST(IndexIO, HugeNtermsThrows) {
  SavedIndex s("griffin_test_nterms.bin");
  s.save_patched<std::uint64_t>(SavedIndex::kNtermsAt, std::uint64_t{1} << 40);
  s.expect_load_error("index load: nterms past end of file");
}

TEST(IndexIO, HugeVectorLengthThrowsBeforeAllocating) {
  // Both the blob and the freqs vector carry a length prefix.
  SavedIndex s("griffin_test_veclen.bin");
  for (const long at : {SavedIndex::kBlobLenAt, s.freqs_len_at()}) {
    s.save_patched<std::uint64_t>(at, std::uint64_t{1} << 60);
    s.expect_load_error("index load: vector length past end of file");
  }
}

TEST(IndexIO, HugeNmetasThrowsBeforeAllocating) {
  SavedIndex s("griffin_test_nmetas.bin");
  s.save_patched<std::uint64_t>(s.nmetas_at(), std::uint64_t{1} << 40);
  s.expect_load_error("index load: nmetas past end of file");
}

TEST(IndexIO, BlockCountsMustSumToListSize) {
  // A larger size field used to make decode_all resize to it and then write
  // only the blocks' postings; a smaller one made it write past the end.
  SavedIndex s("griffin_test_sum.bin");
  for (const std::uint64_t size : {299u, 301u}) {
    s.save_patched<std::uint64_t>(SavedIndex::kSizeAt, size);
    s.expect_load_error(
        "index load: from_parts: block counts do not sum to size");
  }
}

TEST(IndexIO, BlockCountOutOfRangeThrows) {
  SavedIndex s("griffin_test_count.bin");
  for (const std::uint16_t count : {std::uint16_t{0}, std::uint16_t{129}}) {
    s.save_patched<std::uint16_t>(s.meta_at(0, SavedIndex::kCount), count);
    s.expect_load_error("index load: from_parts: block count out of range");
  }
}

TEST(IndexIO, BlockFirstAfterLastThrows) {
  SavedIndex s("griffin_test_first.bin");
  const auto last = s.list().meta(1).last;
  s.save_patched<std::uint32_t>(s.meta_at(1, SavedIndex::kFirst), last + 1);
  s.expect_load_error("index load: from_parts: block first > last");
}

TEST(IndexIO, BlockLastMustIncrease) {
  SavedIndex s("griffin_test_last.bin");
  const auto next_last = s.list().meta(1).last;
  s.save_patched<std::uint32_t>(s.meta_at(0, SavedIndex::kLast), next_last);
  s.expect_load_error("index load: from_parts: block last not increasing");
}

TEST(IndexIO, BlockOffsetPastBlobThrows) {
  SavedIndex s("griffin_test_offset.bin");
  const std::uint64_t blob_bits = 64 * s.list().blob().size();
  s.save_patched<std::uint64_t>(s.meta_at(2, SavedIndex::kBitOffset),
                                blob_bits + 1);
  s.expect_load_error("index load: from_parts: block offset past the blob");
}

TEST(IndexIO, ZeroPayloadBlockAtBlobEndLoads) {
  // Consecutive docIDs pack to zero BP128 bits: the blob is empty and every
  // block starts at its end. That is a valid list, not a corrupt one.
  std::vector<index::DocId> docs(300);
  for (index::DocId d = 0; d < docs.size(); ++d) docs[d] = d + 5;
  index::InvertedIndex idx(index::CodecPolicy{codec::Scheme::kBitPack128});
  idx.add_list(docs);
  idx.docs().resize(400);
  ASSERT_TRUE(idx.list(0).docids.blob().empty());
  const std::string path = temp_path("griffin_test_zero_payload.bin");
  index::save_index(idx, path);
  const auto loaded = index::load_index(path);
  std::remove(path.c_str());
  std::vector<index::DocId> got;
  loaded.list(0).docids.decode_all(got);
  EXPECT_EQ(got, docs);
}
