// Single-producer single-consumer ring: the only cross-thread channel in
// the serving layer (dispatcher → shard inbox). Lock-free by construction —
// one atomic load/store pair per side — which keeps the no-locks-on-the-
// hot-path invariant: shards never contend, they only consume.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

namespace acrobat::serve {

template <typename T>
class SpscQueue {
 public:
  // Capacity is rounded up to a power of two and never grows; serve() sizes
  // each inbox for the whole trace so push cannot fail mid-run.
  explicit SpscQueue(std::size_t min_capacity) {
    std::size_t cap = 1;
    while (cap < min_capacity + 1) cap <<= 1;
    buf_.resize(cap);
  }

  bool push(const T& v) {  // producer side only
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_.load(std::memory_order_acquire) >= buf_.size()) return false;
    buf_[t & (buf_.size() - 1)] = v;
    tail_.store(t + 1, std::memory_order_release);
    return true;
  }

  bool pop(T& out) {  // consumer side only
    const std::size_t h = head_.load(std::memory_order_relaxed);
    if (h == tail_.load(std::memory_order_acquire)) return false;
    out = buf_[h & (buf_.size() - 1)];
    head_.store(h + 1, std::memory_order_release);
    return true;
  }

  bool empty_hint() const {
    return head_.load(std::memory_order_acquire) == tail_.load(std::memory_order_acquire);
  }

  void close() { closed_.store(true, std::memory_order_release); }
  bool closed() const { return closed_.load(std::memory_order_acquire); }

 private:
  std::vector<T> buf_;
  std::atomic<std::size_t> head_{0}, tail_{0};
  std::atomic<bool> closed_{false};
};

}  // namespace acrobat::serve
