// Binary index persistence. Real IR deployments build indexes offline and
// serve them from disk images; the bench harness also uses this to cache the
// synthetic corpora between runs. Format: little-endian, versioned, no
// attempt at cross-endian portability.
#pragma once

#include <string>

#include "index/inverted_index.h"

namespace griffin::index {

/// Writes the index to `path` (overwrites). Throws std::runtime_error on IO
/// failure.
void save_index(const InvertedIndex& idx, const std::string& path);

/// Reads an index previously written by save_index. Throws
/// std::runtime_error on IO failure, a format/version mismatch, a length
/// field longer than the rest of the file (checked before allocating), or
/// a posting list whose skip table is inconsistent
/// (codec::BlockCompressedList::from_parts).
InvertedIndex load_index(const std::string& path);

}  // namespace griffin::index
