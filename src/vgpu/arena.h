#pragma once
// Bump-allocated scratch for the batched integration kernels.
//
// The batch path needs two transient arrays per launch (abscissae and
// integrand values). Allocating them per call would put a heap round trip on
// the hot path of every kernel — exactly the pattern BufferPool removes for
// device buffers. ScratchArena is the host-side analogue: a bump allocator
// over a list of blocks, where
//
//  * alloc() is pointer arithmetic in the steady state (no heap);
//  * exhaustion grows the arena by appending a block — previously returned
//    spans stay valid, because existing blocks never move;
//  * reset() rewinds the cursor and keeps all capacity, so a pipelined
//    executor that resets once per task allocates nothing after warm-up.
//
// Lifetime rule: a span returned by alloc() is valid until the next reset()
// (or destruction), NOT merely until the next alloc(). Ownership rule: an
// arena has a single owner — one rank's executor lane, one bench thread —
// and is not thread-safe; concurrent ranks each own one (the per-lane
// arenas in core::FifoExecutor). Virtual-device note: this is host
// scratch for kernel emulation; it charges nothing to the device budget.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace hspec::vgpu {

class ScratchArena {
 public:
  /// `initial_doubles` sizes the first block, allocated lazily on first use.
  explicit ScratchArena(std::size_t initial_doubles = kDefaultBlockDoubles);

  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Bump-allocate `n` doubles (uninitialized). Valid until reset().
  std::span<double> alloc(std::size_t n);

  /// Rewind: all outstanding spans are invalidated, all capacity is kept.
  void reset() noexcept;

  struct Stats {
    std::size_t blocks = 0;          ///< blocks currently held
    std::size_t capacity_doubles = 0;///< total capacity across blocks
    std::size_t used_doubles = 0;    ///< doubles handed out since reset
    std::uint64_t allocations = 0;   ///< alloc() calls over the lifetime
    std::uint64_t growths = 0;       ///< allocs that had to add a block
    std::uint64_t resets = 0;        ///< reset() calls
  };
  Stats stats() const noexcept;

 private:
  static constexpr std::size_t kDefaultBlockDoubles = 4096;

  std::vector<std::vector<double>> blocks_;
  std::size_t block_ = 0;   ///< block the cursor is in
  std::size_t offset_ = 0;  ///< next free double within blocks_[block_]
  std::size_t initial_doubles_;
  Stats stats_;
};

}  // namespace hspec::vgpu
