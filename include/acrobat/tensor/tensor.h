// Dense row-major float tensors over arena storage.
//
// `Tensor` is a non-owning handle (pointer + shape); storage lives in a
// `TensorPool` arena. The arena matters beyond allocation speed: batch
// outputs allocated back-to-back are physically contiguous, which is what
// lets the engine's explicit-gather mode skip staging copies for iterative
// models whose batched inputs were produced by a single earlier launch
// (DESIGN.md §4, ablation_gather.cpp).
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

#include "support/rng.h"
#include "tensor/block_cache.h"

namespace acrobat {

struct Shape {
  int dim[3] = {0, 0, 0};
  int ndim = 0;

  Shape() = default;
  explicit Shape(int a) : dim{a, 0, 0}, ndim(1) {}
  Shape(int a, int b) : dim{a, b, 0}, ndim(2) {}
  Shape(int a, int b, int c) : dim{a, b, c}, ndim(3) {}

  std::int64_t numel() const {
    std::int64_t n = 1;
    for (int i = 0; i < ndim; ++i) n *= dim[i];
    return ndim == 0 ? 0 : n;
  }
  // 2-D views: a 1-D tensor is one row.
  int rows() const { return ndim >= 2 ? dim[0] : 1; }
  int cols() const { return ndim >= 2 ? dim[1] : (ndim == 1 ? dim[0] : 0); }

  bool operator==(const Shape& o) const {
    if (ndim != o.ndim) return false;
    for (int i = 0; i < ndim; ++i)
      if (dim[i] != o.dim[i]) return false;
    return true;
  }
  bool operator!=(const Shape& o) const { return !(*this == o); }
};

// A 1-D row vector shape (kernel_micro.cpp and the cell emitters).
inline Shape RowVec(int n) { return Shape(n); }

struct TensorView {
  const float* data = nullptr;
  Shape shape;
  std::int64_t numel() const { return shape.numel(); }
};

struct Tensor {
  float* data = nullptr;
  Shape shape;
  std::int64_t numel() const { return shape.numel(); }
  TensorView view() const { return TensorView{data, shape}; }
};

// Bump-pointer arena over epoch-stamped pages. Allocations never move, so
// engine nodes can hold raw pointers for the whole run (the backward pass
// replays against them). Standard pages come from the process-wide block
// cache (tensor/block_cache.h) and go back to it when the pool dies, so the
// next pool takes them with their pages still resident; an oversized page
// (one allocation larger than a standard page) is a plain heap array.
// Under the serving layer's epoch protocol (DESIGN.md §7) the engine stamps
// an epoch per batching iteration and calls `reclaim_before` once every
// request live during a page's epochs has completed — the page then goes
// back to the cache at once, and the caller guarantees no live reader
// remains.
class TensorPool {
 public:
  explicit TensorPool(std::size_t block_floats = 1u << 20) : block_floats_(block_floats) {}
  TensorPool(const TensorPool&) = delete;
  TensorPool& operator=(const TensorPool&) = delete;
  // First page first: the partly touched last page goes back last, so the
  // cache hands it out first. The reverse order lets small pools take full
  // blocks while large ones touch fresh ones, which doubled batch_zoo's
  // peak RSS (DESIGN.md §4 "Block cache").
  ~TensorPool() {
    for (const Page& pg : pages_) release(pg);
  }

  float* alloc_raw(std::int64_t n) {
    assert(n >= 0);
    if (n == 0) return nullptr;
    if (pages_.empty() || used_ + n > static_cast<std::int64_t>(pages_.back().size))
      new_page(static_cast<std::size_t>(n));
    Page& pg = pages_.back();
    pg.last_epoch = epoch_;
    float* p = pg.data + used_;
    used_ += n;
    total_floats_ += n;
    return p;
  }

  Tensor alloc(const Shape& s) {
    Tensor t;
    t.shape = s;
    t.data = alloc_raw(s.numel());
    return t;
  }

  Tensor alloc_zero(const Shape& s) {
    Tensor t = alloc(s);
    std::memset(t.data, 0, sizeof(float) * static_cast<std::size_t>(t.numel()));
    return t;
  }

  Tensor alloc_random(const Shape& s, Rng& rng, float scale) {
    Tensor t = alloc(s);
    for (std::int64_t i = 0; i < t.numel(); ++i) t.data[i] = rng.uniform(scale);
    return t;
  }

  // ---- epoch recycling (engine-driven; inert unless set_epoch is called)

  // Stamps subsequent allocations with epoch `e` (monotone non-decreasing).
  void set_epoch(std::uint64_t e) { epoch_ = e; }

  // Releases every page whose last allocation predates `min_live_epoch`;
  // the current bump page is kept as the allocation target (its cursor
  // rewinds instead when it qualifies). Caller contract: nothing live still
  // reads those pages.
  std::size_t reclaim_before(std::uint64_t min_live_epoch) {
    std::size_t reclaimed = 0;
    for (std::size_t i = 0; i + 1 < pages_.size();) {
      if (pages_[i].last_epoch >= min_live_epoch) {
        ++i;
        continue;
      }
      active_floats_ -= static_cast<std::int64_t>(pages_[i].size);
      release(pages_[i]);
      // Fill the hole while keeping the bump page last.
      if (i + 2 < pages_.size()) pages_[i] = pages_[pages_.size() - 2];
      pages_[pages_.size() - 2] = pages_.back();
      pages_.pop_back();
      ++reclaimed;
      ++pages_recycled_;
    }
    if (!pages_.empty() && pages_.back().last_epoch < min_live_epoch && used_ > 0) {
      used_ = 0;  // bump page fully dead: rewind in place
      ++pages_recycled_;
    }
    return reclaimed;
  }

  std::int64_t total_floats() const { return total_floats_; }
  // Footprint gauges: floats held by in-use pages now / at the peak. With
  // recycling the peak plateaus at peak concurrency; without it active ==
  // peak and both track the whole run.
  std::int64_t active_floats() const { return active_floats_; }
  std::int64_t high_water_floats() const { return high_water_floats_; }
  long long pages_recycled() const { return pages_recycled_; }

 private:
  struct Page {
    float* data = nullptr;
    std::size_t size = 0;
    std::uint64_t last_epoch = 0;  // most recent epoch that allocated here
  };

  void new_page(std::size_t n) {
    Page pg;
    pg.size = n > block_floats_ ? n : block_floats_;
    pg.data = pg.size == block_floats_
                  ? static_cast<float*>(block_cache::take(pg.size * sizeof(float)))
                  : new float[pg.size];
    pg.last_epoch = epoch_;
    active_floats_ += static_cast<std::int64_t>(pg.size);
    if (active_floats_ > high_water_floats_) high_water_floats_ = active_floats_;
    pages_.push_back(pg);
    used_ = 0;
  }

  void release(const Page& pg) const {
    if (pg.size == block_floats_)
      block_cache::give(pg.data, pg.size * sizeof(float));
    else
      delete[] pg.data;
  }

  std::size_t block_floats_;
  std::vector<Page> pages_;  // in-use; back() is the bump target
  std::int64_t used_ = 0;    // cursor into pages_.back()
  std::uint64_t epoch_ = 0;
  std::int64_t total_floats_ = 0;
  std::int64_t active_floats_ = 0;
  std::int64_t high_water_floats_ = 0;
  long long pages_recycled_ = 0;
};

}  // namespace acrobat
