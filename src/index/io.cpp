#include "index/io.h"

#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>

namespace griffin::index {

namespace {

constexpr std::uint64_t kMagic = 0x4752494646494E31ull;  // "GRIFFIN1"
// v2: single index-wide scheme, raw (pre-tagged-header) BlockMeta structs.
// v3: codec policy (fixed scheme + adaptive flag), a scheme byte per list,
//     and field-by-field BlockMeta records (no struct padding on disk).
constexpr std::uint32_t kVersionLegacy = 2;
constexpr std::uint32_t kVersion = 3;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

void write_raw(std::FILE* f, const void* p, std::size_t bytes) {
  if (std::fwrite(p, 1, bytes, f) != bytes) {
    throw std::runtime_error("index save: short write");
  }
}

template <typename T>
void write_pod(std::FILE* f, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_raw(f, &v, sizeof(T));
}

template <typename T>
void write_vec(std::FILE* f, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_pod<std::uint64_t>(f, v.size());
  if (!v.empty()) write_raw(f, v.data(), v.size() * sizeof(T));
}

/// Reads an index file front to back, tracking how many bytes are left so
/// that no length field from disk can drive an allocation the file cannot
/// back.
class Reader {
 public:
  Reader(std::FILE* f, std::uint64_t file_bytes) : f_(f), left_(file_bytes) {}

  void raw(void* p, std::size_t bytes) {
    if (bytes > left_ || std::fread(p, 1, bytes, f_) != bytes) {
      throw std::runtime_error("index load: short read");
    }
    left_ -= bytes;
  }

  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    raw(&v, sizeof(T));
    return v;
  }

  /// A count of records at least `record_bytes` long each: throws unless
  /// that many fit in the rest of the file.
  std::uint64_t length(std::uint64_t record_bytes, const char* what) {
    const auto n = pod<std::uint64_t>();
    if (n > left_ / record_bytes) {
      throw std::runtime_error(std::string("index load: ") + what +
                               " past end of file");
    }
    return n;
  }

  template <typename T>
  std::vector<T> vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<T> v(length(sizeof(T), "vector length"));
    if (!v.empty()) raw(v.data(), v.size() * sizeof(T));
    return v;
  }

  /// A scheme byte from disk: anything past the last scheme would fall
  /// through codec_for's switch and decode the list with the wrong codec.
  codec::Scheme scheme() {
    const auto s = pod<std::uint8_t>();
    if (s >= codec::kNumSchemes) {
      throw std::runtime_error("index load: bad scheme");
    }
    return static_cast<codec::Scheme>(s);
  }

 private:
  std::FILE* f_;
  std::uint64_t left_;
};

/// On-disk bytes of one v3 BlockMeta record (write_meta).
constexpr std::uint64_t kMetaBytes = 4 + 4 + 8 + 2 + 1 + 1 + 2 + 2 + 4;
/// Fewest bytes one posting list takes on disk: its four 8-byte counts
/// (size, blob length, metas, freqs length). v3 adds a scheme byte.
constexpr std::uint64_t kMinListBytes = 4 * 8;

void write_meta(std::FILE* f, const codec::BlockMeta& m) {
  write_pod<std::uint32_t>(f, m.first);
  write_pod<std::uint32_t>(f, m.last);
  write_pod<std::uint64_t>(f, m.bit_offset);
  write_pod<std::uint16_t>(f, m.count);
  write_pod<std::uint8_t>(f, static_cast<std::uint8_t>(m.hdr.scheme));
  write_pod<std::uint8_t>(f, m.hdr.b);
  write_pod<std::uint16_t>(f, m.hdr.h16a);
  write_pod<std::uint16_t>(f, m.hdr.h16b);
  write_pod<std::uint32_t>(f, m.hdr.h32);
}

codec::BlockMeta read_meta(Reader& in) {
  codec::BlockMeta m;
  m.first = in.pod<std::uint32_t>();
  m.last = in.pod<std::uint32_t>();
  m.bit_offset = in.pod<std::uint64_t>();
  m.count = in.pod<std::uint16_t>();
  m.hdr.scheme = in.scheme();
  m.hdr.b = in.pod<std::uint8_t>();
  m.hdr.h16a = in.pod<std::uint16_t>();
  m.hdr.h16b = in.pod<std::uint16_t>();
  m.hdr.h32 = in.pod<std::uint32_t>();
  return m;
}

/// The exact in-memory block metadata layout v2 files were written with
/// (raw fwrite of the struct, padding included): both per-scheme headers
/// inline, only one of them meaningful.
struct LegacyBlockMetaV2 {
  DocId first = 0;
  DocId last = 0;
  std::uint64_t bit_offset = 0;
  std::uint16_t count = 0;
  codec::PForHeader pfor;
  codec::EFHeader ef;
};
static_assert(sizeof(LegacyBlockMetaV2) == 32,
              "v2 on-disk meta layout drifted; the legacy reader is wrong");

codec::BlockMeta upgrade_meta(const LegacyBlockMetaV2& l,
                              codec::Scheme scheme) {
  codec::BlockMeta m;
  m.first = l.first;
  m.last = l.last;
  m.bit_offset = l.bit_offset;
  m.count = l.count;
  switch (scheme) {
    case codec::Scheme::kPForDelta:
      m.hdr = codec::BlockHeader::from_pfor(l.pfor);
      break;
    case codec::Scheme::kEliasFano:
      m.hdr = codec::BlockHeader::from_ef(l.ef);
      break;
    default:  // VByte / Simple16: header-free blocks
      m.hdr = codec::BlockHeader{};
      m.hdr.scheme = scheme;
      break;
  }
  return m;
}

}  // namespace

void save_index(const InvertedIndex& idx, const std::string& path) {
  File f(std::fopen(path.c_str(), "wb"));
  if (!f) throw std::runtime_error("index save: cannot open " + path);

  write_pod(f.get(), kMagic);
  write_pod(f.get(), kVersion);
  write_pod<std::uint8_t>(f.get(), static_cast<std::uint8_t>(idx.scheme()));
  write_pod<std::uint8_t>(f.get(), idx.adaptive() ? 1 : 0);
  write_pod<std::uint32_t>(f.get(), idx.block_size());

  // Document table.
  const auto& docs = idx.docs();
  write_pod<std::uint64_t>(f.get(), docs.num_docs());
  for (DocId d = 0; d < docs.num_docs(); ++d) {
    write_pod<std::uint32_t>(f.get(), docs.length(d));
  }

  // Posting lists, each tagged with its own scheme.
  write_pod<std::uint64_t>(f.get(), idx.num_terms());
  for (TermId t = 0; t < idx.num_terms(); ++t) {
    const PostingList& pl = idx.list(t);
    write_pod<std::uint64_t>(f.get(), pl.docids.size());
    write_pod<std::uint8_t>(f.get(),
                            static_cast<std::uint8_t>(pl.docids.scheme()));
    std::vector<std::uint64_t> blob(pl.docids.blob().begin(),
                                    pl.docids.blob().end());
    write_vec(f.get(), blob);
    write_pod<std::uint64_t>(f.get(), pl.docids.metas().size());
    for (const codec::BlockMeta& m : pl.docids.metas()) {
      write_meta(f.get(), m);
    }
    write_vec(f.get(), pl.freqs);
  }
}

InvertedIndex load_index(const std::string& path) {
  File f(std::fopen(path.c_str(), "rb"));
  if (!f) throw std::runtime_error("index load: cannot open " + path);
  Reader in(f.get(), std::filesystem::file_size(path));

  if (in.pod<std::uint64_t>() != kMagic) {
    throw std::runtime_error("index load: bad magic");
  }
  const auto version = in.pod<std::uint32_t>();
  if (version != kVersion && version != kVersionLegacy) {
    throw std::runtime_error("index load: version mismatch");
  }
  CodecPolicy policy;
  policy.fixed = in.scheme();
  if (version >= kVersion) {
    policy.adaptive = in.pod<std::uint8_t>() != 0;
  }
  const auto block_size = in.pod<std::uint32_t>();

  InvertedIndex idx(policy, block_size);
  const auto ndocs = in.length(sizeof(std::uint32_t), "ndocs");
  idx.docs().resize(ndocs);
  for (std::uint64_t d = 0; d < ndocs; ++d) {
    idx.docs().set_length(static_cast<DocId>(d), in.pod<std::uint32_t>());
  }

  const auto nterms = in.length(kMinListBytes, "nterms");
  for (std::uint64_t t = 0; t < nterms; ++t) {
    const auto size = in.pod<std::uint64_t>();
    codec::Scheme scheme = policy.fixed;
    if (version >= kVersion) {
      scheme = in.scheme();
    }
    auto blob = in.vec<std::uint64_t>();
    std::vector<codec::BlockMeta> metas;
    if (version >= kVersion) {
      const auto nmetas = in.length(kMetaBytes, "nmetas");
      metas.reserve(nmetas);
      for (std::uint64_t i = 0; i < nmetas; ++i) {
        metas.push_back(read_meta(in));
      }
    } else {
      for (const auto& l : in.vec<LegacyBlockMetaV2>()) {
        metas.push_back(upgrade_meta(l, scheme));
      }
    }
    PostingList pl;
    try {
      pl.docids = codec::BlockCompressedList::from_parts(
          scheme, block_size, size, std::move(blob), std::move(metas));
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error(std::string("index load: ") + e.what());
    }
    pl.freqs = in.vec<std::uint8_t>();
    if (pl.freqs.size() != pl.docids.size()) {
      throw std::runtime_error("index load: freqs/docids size mismatch");
    }
    idx.add_list_raw(std::move(pl));
  }
  return idx;
}

}  // namespace griffin::index
