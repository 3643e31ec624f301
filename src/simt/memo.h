// Host-side memoization of pure SIMT fragments. A fragment is pure when its
// counted work is a function of a small key (a posting block and its output
// alignment, a scan's shape and shared-memory offsets) and not of the data
// it moves. The first run of a key is simulated lane by lane as usual and
// its KernelStats delta is recorded; later runs add the recorded delta and
// compute the output with host reference code (MobulaOP-style host
// emulation: the kernel body without the per-lane bookkeeping). Simulated
// time is unchanged; only the simulator's host time moves. DESIGN.md §17
// explains why the replay is exact.
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/gpu_cost_model.h"

namespace griffin::simt {

/// One fragment's counted work, as whole numbers. `blocks` and `warps` are
/// per-launch fields that a block-scope fragment never touches.
struct StatsDelta {
  std::uint32_t warp_cycles = 0;
  std::uint32_t global_transactions = 0;
  std::uint32_t global_bytes_requested = 0;
  std::uint32_t shared_accesses = 0;
  std::uint32_t shared_conflict_cycles = 0;
  std::uint32_t barriers = 0;

  /// `after - before`, or nullopt when a field is not a whole number that
  /// fits 32 bits (then the fragment is not memoized). Every cycle charge
  /// is a multiple of 1.0, so the double fields are exact integers.
  static std::optional<StatsDelta> between(const sim::KernelStats& before,
                                           const sim::KernelStats& after) {
    if (after.blocks != before.blocks || after.warps != before.warps) {
      return std::nullopt;
    }
    StatsDelta d;
    bool ok = true;
    auto count = [&](std::uint64_t a, std::uint64_t b) {
      const std::uint64_t v = a - b;
      ok = ok && a >= b && v <= UINT32_MAX;
      return static_cast<std::uint32_t>(v);
    };
    auto cycles = [&](double a, double b) {
      const double v = a - b;
      ok = ok && v >= 0.0 && v <= UINT32_MAX && std::floor(v) == v;
      assert(std::floor(v) == v && "cycle charges must be whole cycles");
      return ok ? static_cast<std::uint32_t>(v) : 0u;
    };
    d.warp_cycles = cycles(after.warp_cycles, before.warp_cycles);
    d.global_transactions =
        count(after.global_transactions, before.global_transactions);
    d.global_bytes_requested =
        count(after.global_bytes_requested, before.global_bytes_requested);
    d.shared_accesses = count(after.shared_accesses, before.shared_accesses);
    d.shared_conflict_cycles =
        cycles(after.shared_conflict_cycles, before.shared_conflict_cycles);
    d.barriers = count(after.barriers, before.barriers);
    if (!ok) return std::nullopt;
    return d;
  }

  void apply(sim::KernelStats& s) const {
    s.warp_cycles += warp_cycles;
    s.global_transactions += global_transactions;
    s.global_bytes_requested += global_bytes_requested;
    s.shared_accesses += shared_accesses;
    s.shared_conflict_cycles += shared_conflict_cycles;
    s.barriers += barriers;
  }
};

/// Flat open-addressing map from a 64-bit key to a StatsDelta: 32 bytes per
/// slot, linear probing, at most 3/4 full.
class StatsMemo {
 public:
  const StatsDelta* find(std::uint64_t key) const {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & (slots_.size() - 1)) {
      const Slot& s = slots_[i];
      if (s.key == key) return &s.delta;
      if (s.key == kEmpty) return nullptr;
    }
  }

  void insert(std::uint64_t key, const StatsDelta& delta) {
    assert(key != kEmpty);
    if (4 * (size_ + 1) > 3 * slots_.size()) grow();
    for (std::size_t i = home(key);; i = (i + 1) & (slots_.size() - 1)) {
      Slot& s = slots_[i];
      if (s.key == key) {
        s.delta = delta;
        return;
      }
      if (s.key == kEmpty) {
        s = {key, delta};
        ++size_;
        return;
      }
    }
  }

  std::size_t size() const { return size_; }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  struct Slot {
    std::uint64_t key = kEmpty;
    StatsDelta delta;
  };
  static_assert(sizeof(Slot) == 32);

  std::size_t home(std::uint64_t key) const {
    // splitmix64 finalizer: keys are small structured integers.
    key ^= key >> 30;
    key *= 0xbf58476d1ce4e5b9ull;
    key ^= key >> 27;
    key *= 0x94d049bb133111ebull;
    key ^= key >> 31;
    return static_cast<std::size_t>(key) & (slots_.size() - 1);
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 8 : 2 * old.size(), Slot{});
    size_ = 0;
    for (const Slot& s : old) {
      if (s.key != kEmpty) insert(s.key, s.delta);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace griffin::simt
