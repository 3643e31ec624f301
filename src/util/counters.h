// One declarative schema for the counter structs (DESIGN.md §18). A counter
// struct derives from util::Counters<T> and lists its fields exactly once,
// in a static `fields()` table of (member pointer, JSON key) entries; +=,
// -, -=, == and any() are generated from that table, and the benches' JSON
// emitter (bench_common.h counters_json) walks the same table, so table
// order is JSON key order.
//
// A field left out of the table is a compile error: each struct is followed
// by static_assert(util::covers<T>()), which holds only when the table's
// field sizes add up to sizeof(T). Fields are 8-byte scalars (counts,
// sim::Duration) or nested counter structs, so there is no padding to hide
// a missing entry.
#pragma once

#include <cstddef>
#include <tuple>
#include <type_traits>

namespace griffin::util {

/// One table entry: where the field lives and what it is called in JSON.
template <class T, class M>
struct Field {
  using type = M;
  M T::*member;
  const char* key;
};

template <class T, class M>
constexpr Field<T, M> field(M T::*member, const char* key) {
  return {member, key};
}

/// Calls f(entry) for every entry of T's table, in table order.
template <class T, class F>
constexpr void for_each_field(F&& f) {
  std::apply([&](const auto&... entries) { (f(entries), ...); }, T::fields());
}

/// True when T's table accounts for every byte of T.
template <class T>
constexpr bool covers() {
  std::size_t bytes = 0;
  for_each_field<T>([&](const auto& e) {
    bytes += sizeof(typename std::remove_cvref_t<decltype(e)>::type);
  });
  return bytes == sizeof(T);
}

/// Field-wise arithmetic for a counter struct T with a `fields()` table.
/// The operators are hidden friends, found through T's base class.
template <class T>
struct Counters {
  friend T& operator+=(T& a, const T& b) {
    for_each_field<T>([&](const auto& e) { a.*e.member += b.*e.member; });
    return a;
  }
  friend T& operator-=(T& a, const T& b) {
    for_each_field<T>([&](const auto& e) { a.*e.member -= b.*e.member; });
    return a;
  }
  friend T operator-(T a, const T& b) { return a -= b; }
  friend bool operator==(const T& a, const T& b) {
    bool eq = true;
    for_each_field<T>([&](const auto& e) {
      eq = eq && a.*e.member == b.*e.member;
    });
    return eq;
  }

  /// Any field nonzero (nested counters: any of theirs).
  bool any() const {
    const T& self = static_cast<const T&>(*this);
    bool nonzero = false;
    for_each_field<T>([&](const auto& e) {
      using M = typename std::remove_cvref_t<decltype(e)>::type;
      nonzero = nonzero || !(self.*e.member == M{});
    });
    return nonzero;
  }
};

}  // namespace griffin::util
