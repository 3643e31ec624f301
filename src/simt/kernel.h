// Block-synchronous kernel execution for the virtual GPU.
//
// A kernel is a callable `void(Block&)` invoked once per thread block. Inside
// it, `Block::for_each_thread` runs a region for every thread of the block;
// consecutive regions are separated by an implicit block barrier (the
// __syncthreads of this programming model). Per-lane "registers" that must
// survive across regions are ordinary host arrays indexed by Thread::tid().
//
// While a region executes, the simulator counts the work each lane performs:
//   - ALU cycles (explicit Thread::charge plus fixed per-access costs);
//   - global memory accesses, grouped per warp and per instruction ordinal,
//     then coalesced into 128-byte transactions exactly as the hardware
//     would (lane k's o-th access coalesces with lane j's o-th access);
//   - shared-memory accesses with bank-conflict serialization (32 banks of
//     4 bytes).
// Lanes run in order, so a warp's lanes are consecutive: each access is
// folded at once into its warp's tally for that ordinal (WarpTally), which
// resets when the warp's last lane returns. A warp's time for a region is
// the maximum over its lanes (SIMT lockstep), so divergent code pays the
// cost the paper describes in §2.3. The counts feed sim::GpuCostModel,
// which turns them into simulated time.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "sim/gpu_cost_model.h"
#include "simt/device.h"
#include "simt/memo.h"
#include "util/bits.h"

namespace griffin::simt {

struct LaunchConfig {
  std::uint32_t grid_blocks = 1;
  std::uint32_t block_threads = 256;
};

// Modeled issue costs, in core cycles per lane.
inline constexpr double kAluCycle = 1.0;
inline constexpr double kGlobalAccessCycles = 4.0;
inline constexpr double kSharedAccessCycles = 2.0;

/// The (ordinal, segment) pairs one warp has touched in a region: open
/// addressing with an epoch per slot, so forgetting them between warps is
/// O(1) however many there were.
class SegmentSet {
 public:
  /// Adds the pair; false when it was already present.
  bool insert(std::uint32_t ordinal, std::uint64_t segment);
  void clear();

 private:
  struct Slot {
    std::uint64_t segment = 0;
    std::uint32_t ordinal = 0;
    std::uint32_t epoch = 0;  ///< live only when equal to epoch_
  };

  std::size_t home(std::uint32_t ordinal, std::uint64_t segment) const;
  void grow();

  std::vector<Slot> slots_;
  std::uint32_t epoch_ = 1;
  std::size_t size_ = 0;
  int shift_ = 64;  ///< 64 - log2(slots_.size())
};

/// Streaming access accounting for one block. A lane reports each access
/// with its ordinal (the lane's o-th global, shared or atomic access of the
/// region), and the access is folded at once into the current warp's state
/// for that ordinal:
///   - global: the distinct transaction segments, at most 64 counted; one
///     transaction the first time a segment is seen;
///   - shared: a 32-bank histogram; one conflict cycle each time the most
///     contended bank's multiplicity rises above 1 (so max_mult - 1 in all);
///   - atomic: an address multiset; its highest multiplicity sets the
///     ordinal's replay count.
/// end_warp() queues the warp's atomic replays and forgets its ordinals;
/// end_region() charges the block-max ALU rule, then the queued replays in
/// (warp, ordinal) order, then the region's counts.
class WarpTally {
 public:
  WarpTally(sim::KernelStats& stats, std::uint64_t transaction_bytes);

  void global(std::uint32_t o, std::uint64_t addr, std::uint32_t bytes) {
    bytes_ += bytes;
    std::uint64_t s = addr >> seg_shift_;
    const std::uint64_t last = (addr + bytes - 1) >> seg_shift_;
    assert(o <= global_used_);
    if (o == global_used_) {
      // The warp's first access of ordinal o: its first segment is new.
      if (o == global_.size()) global_.emplace_back();
      global_[o] = {.last = s, .nsegs = 1};
      ++global_used_;
      ++transactions_;
      ++s;
    }
    GlobalOrdinal& g = global_[o];
    for (; s <= last; ++s) {
      // Neighbouring lanes mostly land in the segment seen last.
      if (s != g.last) add_segment(o, g, s);
    }
  }

  void shared(std::uint32_t o, std::uint32_t bank) {
    ++shared_accesses_;
    assert(o <= shared_used_);
    if (o == shared_used_) {
      if (o == shared_.size()) shared_.emplace_back();
      shared_[o] = SharedOrdinal{};
      ++shared_used_;
    }
    SharedOrdinal& h = shared_[o];
    const std::uint8_t m = ++h.bank[bank];
    if (m > h.max) {
      h.max = m;
      ++conflicts_;
    }
  }

  void atomic(std::uint32_t o, std::uint64_t addr);

  void end_warp();
  /// Charges `max_alu`, the block's slowest lane, to each of its `nwarps`
  /// warps, then the region's queued atomic replays and counts.
  void end_region(double max_alu, std::uint32_t nwarps);

 private:
  static constexpr std::uint32_t kMaxSegments = 64;

  struct GlobalOrdinal {
    std::uint64_t last;   ///< segment seen last
    std::uint32_t nsegs;  ///< distinct segments, capped at kMaxSegments
  };
  struct SharedOrdinal {
    std::uint8_t bank[32] = {};  ///< lanes per bank (at most 32)
    std::uint8_t max = 1;        ///< highest multiplicity, at least 1
  };
  struct AtomicOrdinal {
    std::uint32_t n;    ///< distinct addresses
    std::uint32_t max;  ///< highest multiplicity
    std::uint64_t addr[32];
    std::uint32_t count[32];
  };

  void add_segment(std::uint32_t o, GlobalOrdinal& g, std::uint64_t s);

  sim::KernelStats& stats_;
  int seg_shift_;
  // The region's counts, added to stats_ by end_region. All are whole
  // numbers, so adding conflicts_ once equals adding it cycle by cycle.
  std::uint64_t bytes_ = 0;
  std::uint64_t transactions_ = 0;
  std::uint64_t shared_accesses_ = 0;
  std::uint64_t conflicts_ = 0;
  // Ordinals open in the current warp. A lane's ordinals run 0, 1, 2, ...,
  // so the ordinal an access carries is open already or the next to open.
  std::uint32_t global_used_ = 0;
  std::uint32_t shared_used_ = 0;
  std::uint32_t atomic_used_ = 0;
  std::vector<GlobalOrdinal> global_;
  std::vector<SharedOrdinal> shared_;
  std::vector<AtomicOrdinal> atomic_;
  SegmentSet seen_;              ///< segments of ordinals with two or more
  std::vector<double> replays_;  ///< atomic replay cycles, (warp, ordinal)
};

/// Per-lane execution context, valid only inside a for_each_thread region.
class Thread {
 public:
  std::uint32_t tid() const { return tid_; }
  std::uint32_t block_id() const { return block_id_; }
  std::uint32_t block_dim() const { return block_dim_; }
  std::uint32_t gid() const { return block_id_ * block_dim_ + tid_; }
  std::uint32_t lane() const { return tid_ % 32; }
  std::uint32_t warp() const { return tid_ / 32; }

  /// Explicit ALU charge (loop bookkeeping, compares, bit ops, ...).
  void charge(double cycles) { alu_ += cycles; }

  /// Global-memory read of one element.
  template <typename T>
  T load(const DeviceBuffer<T>& buf, std::uint64_t idx) {
    assert(idx < buf.size());
    record_global(buf.device_addr(idx), sizeof(T));
    return buf.raw()[idx];
  }

  /// Global-memory write of one element.
  template <typename T>
  void store(DeviceBuffer<T>& buf, std::uint64_t idx, T value) {
    assert(idx < buf.size());
    record_global(buf.device_addr(idx), sizeof(T));
    buf.raw()[idx] = value;
  }

  /// Shared-memory read (charged, bank-tracked). The bank model is 32
  /// banks of 4-byte words, so only 4-byte elements are modeled.
  template <typename T>
  T sload(std::span<const T> shared, std::size_t idx) {
    static_assert(sizeof(T) == 4, "shared accesses are 4-byte words");
    assert(idx < shared.size());
    record_shared(&shared[idx]);
    return shared[idx];
  }

  /// Shared-memory write (charged, bank-tracked).
  template <typename T>
  void sstore(std::span<T> shared, std::size_t idx, T value) {
    static_assert(sizeof(T) == 4, "shared accesses are 4-byte words");
    assert(idx < shared.size());
    record_shared(&shared[idx]);
    shared[idx] = value;
  }

  /// CUDA __popc equivalent.
  int popc(std::uint32_t x) {
    charge(kAluCycle);
    return util::popcount32(x);
  }

  /// Global atomic add; returns the previous value. Atomics from lanes of the
  /// same warp hitting the same address serialize — the region analyzer adds
  /// a replay penalty per extra hit.
  template <typename T>
  T atomic_add(DeviceBuffer<T>& buf, std::uint64_t idx, T value) {
    assert(idx < buf.size());
    record_atomic(buf.device_addr(idx), sizeof(T));
    const T old = buf.raw()[idx];
    buf.raw()[idx] = old + value;
    return old;
  }

  /// Global atomic max; returns the previous value.
  template <typename T>
  T atomic_max(DeviceBuffer<T>& buf, std::uint64_t idx, T value) {
    assert(idx < buf.size());
    record_atomic(buf.device_addr(idx), sizeof(T));
    const T old = buf.raw()[idx];
    buf.raw()[idx] = std::max(old, value);
    return old;
  }

 private:
  friend class Block;

  void record_global(std::uint64_t addr, std::uint32_t bytes) {
    alu_ += kGlobalAccessCycles;
    tally_->global(global_next_++, addr, bytes);
  }
  void record_atomic(std::uint64_t addr, std::uint32_t bytes) {
    record_global(addr, bytes);
    tally_->atomic(atomic_next_++, addr);
    charge(2 * kAluCycle);
  }
  void record_shared(const void* p) {
    // Bank = (word offset inside the block's shared arena) mod 32, 4-byte
    // banks: a function of the arena layout only, never of host addresses.
    const auto addr = reinterpret_cast<std::uintptr_t>(p);
    assert(addr >= arena_base_ && addr + 4 <= arena_base_ + arena_bytes_);
    alu_ += kSharedAccessCycles;
    tally_->shared(shared_next_++,
                   static_cast<std::uint32_t>(((addr - arena_base_) / 4) % 32));
  }

  void reset(std::uint32_t tid, std::uint32_t block_id, std::uint32_t dim) {
    tid_ = tid;
    block_id_ = block_id;
    block_dim_ = dim;
    alu_ = 0.0;
    global_next_ = 0;
    shared_next_ = 0;
    atomic_next_ = 0;
  }

  WarpTally* tally_ = nullptr;
  std::uint32_t tid_ = 0;
  std::uint32_t block_id_ = 0;
  std::uint32_t block_dim_ = 0;
  std::uintptr_t arena_base_ = 0;  ///< the block's shared arena
  std::size_t arena_bytes_ = 0;
  double alu_ = 0.0;
  std::uint32_t global_next_ = 0;  ///< ordinal of this lane's next access
  std::uint32_t shared_next_ = 0;
  std::uint32_t atomic_next_ = 0;
};

/// Per-block execution context handed to the kernel body. One Block object
/// is reused across a launch's blocks (reset per block), and one Thread
/// across a region's lanes, which run one after another.
class Block {
 public:
  Block(Device& dev, sim::KernelStats& stats, std::uint32_t block_id,
        std::uint32_t block_dim, std::uint32_t grid_dim)
      : dev_(dev),
        spec_(dev.spec()),
        stats_(stats),
        block_id_(block_id),
        block_dim_(block_dim),
        grid_dim_(grid_dim),
        shared_arena_(spec_.shared_mem_per_block),
        tally_(stats, spec_.mem_transaction_bytes) {
    assert(block_dim_ > 0);
    assert(block_dim_ <=
           static_cast<std::uint32_t>(spec_.max_threads_per_block));
    thread_.tally_ = &tally_;
    thread_.arena_base_ =
        reinterpret_cast<std::uintptr_t>(shared_arena_.data());
    thread_.arena_bytes_ = shared_arena_.size();
  }
  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  /// Rewinds per-block state for the next block of the same launch.
  void reset_for_block(std::uint32_t block_id) {
    block_id_ = block_id;
    shared_used_ = 0;
  }

  std::uint32_t block_id() const { return block_id_; }
  std::uint32_t dim() const { return block_dim_; }
  std::uint32_t grid_dim() const { return grid_dim_; }
  std::uint32_t warps() const { return (block_dim_ + 31) / 32; }
  const sim::GpuSpec& spec() const { return spec_; }

  /// Shared-memory bytes allocated so far in this block.
  std::size_t shared_bytes_used() const { return shared_used_; }

  /// Word offset of `p` inside this block's shared arena (bank = offset
  /// mod 32).
  std::size_t shared_word_offset(const void* p) const {
    const auto addr = reinterpret_cast<std::uintptr_t>(p);
    const auto base = reinterpret_cast<std::uintptr_t>(shared_arena_.data());
    assert(addr >= base && addr < base + shared_arena_.size());
    return (addr - base) / 4;
  }

  /// The device's memo of block-collective stats (simt/collectives.h).
  StatsMemo& collective_memo() { return dev_.collective_memo(); }

  /// Runs a pure fragment through `memo` (simt/memo.h). On a hit,
  /// `replay()` computes the fragment's output on the host and the recorded
  /// stats delta is added to the launch; on a miss, `simulate()` runs it
  /// lane by lane and its delta is recorded under `key`.
  template <typename Simulate, typename Replay>
  void memoized(StatsMemo& memo, std::uint64_t key, Simulate&& simulate,
                Replay&& replay) {
    if (const StatsDelta* hit = memo.find(key)) {
      const StatsDelta delta = *hit;
      replay();
      delta.apply(stats_);
      return;
    }
    const sim::KernelStats before = stats_;
    simulate();
    if (const auto delta = StatsDelta::between(before, stats_)) {
      memo.insert(key, *delta);
    }
  }

  /// Allocate a shared-memory array for this block. Counts against the
  /// modeled 48 KB shared-memory budget; contents persist across regions
  /// within the block (like __shared__ arrays) and are zero-initialized.
  template <typename T>
  std::span<T> shared(std::size_t n) {
    const std::size_t bytes = util::round_up(n * sizeof(T), 16);
    if (shared_used_ + bytes > spec_.shared_mem_per_block) {
      throw std::runtime_error("shared memory budget exceeded");
    }
    T* p = reinterpret_cast<T*>(shared_arena_.data() + shared_used_);
    shared_used_ += bytes;
    std::fill_n(p, n, T{});
    return std::span<T>(p, n);
  }

  /// Execute one region: `f(Thread&)` for every thread of the block, then an
  /// implicit barrier. Each access is tallied as its lane issues it; the
  /// region end charges the per-warp max rule (WarpTally).
  template <typename F>
  void for_each_thread(F&& f) {
    double max_alu = 0.0;
    for (std::uint32_t lo = 0; lo < block_dim_; lo += 32) {
      const std::uint32_t hi = std::min(block_dim_, lo + 32);
      for (std::uint32_t t = lo; t < hi; ++t) {
        thread_.reset(t, block_id_, block_dim_);
        f(thread_);
        max_alu = std::max(max_alu, thread_.alu_);
      }
      tally_.end_warp();
    }
    tally_.end_region(max_alu, warps());
    barrier();
  }

  /// Explicit extra barrier (per-block __syncthreads).
  void barrier() { ++stats_.barriers; }

 private:
  Device& dev_;
  const sim::GpuSpec& spec_;
  sim::KernelStats& stats_;
  std::uint32_t block_id_;
  std::uint32_t block_dim_;
  std::uint32_t grid_dim_;
  std::size_t shared_used_ = 0;
  std::vector<std::byte> shared_arena_;
  WarpTally tally_;
  Thread thread_;
};

/// Launch a kernel: `body(Block&)` once per block. Returns the counted work;
/// convert to time with sim::GpuCostModel::kernel_time.
template <typename KernelBody>
sim::KernelStats launch(Device& dev, LaunchConfig cfg, KernelBody&& body) {
  assert(cfg.grid_blocks > 0);
  sim::KernelStats stats;
  stats.blocks = cfg.grid_blocks;
  stats.warps = static_cast<std::uint64_t>(cfg.grid_blocks) *
                ((cfg.block_threads + 31) / 32);
  Block blk(dev, stats, 0, cfg.block_threads, cfg.grid_blocks);
  for (std::uint32_t b = 0; b < cfg.grid_blocks; ++b) {
    blk.reset_for_block(b);
    body(blk);
  }
  return stats;
}

/// Grid size helper: blocks needed so grid*block >= n threads.
inline std::uint32_t blocks_for(std::uint64_t n, std::uint32_t block_threads) {
  return static_cast<std::uint32_t>(util::div_ceil(n, block_threads));
}

}  // namespace griffin::simt
