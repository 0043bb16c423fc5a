#include "tensor/block_cache.h"

#include <sys/mman.h>

#include <bit>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define ACROBAT_BLOCK_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ACROBAT_BLOCK_ASAN 1
#endif
#endif
#ifdef ACROBAT_BLOCK_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace acrobat::block_cache {
namespace {

constexpr std::size_t kPage = 4096;

struct Cache {
  std::mutex mu;
  // (block size, free blocks of that size); a handful of sizes, so a scan.
  std::vector<std::pair<std::size_t, std::vector<void*>>> free;
};

// Leaked on purpose: owners may die during static destruction, and a
// reachable singleton is not a leak report.
Cache& cache() {
  static Cache* const c = new Cache;
  return *c;
}

std::size_t page_round(std::size_t bytes) { return (bytes + kPage - 1) & ~(kPage - 1); }

}  // namespace

void* take(std::size_t bytes) {
  bytes = page_round(bytes);
  {
    Cache& c = cache();
    const std::lock_guard<std::mutex> lock(c.mu);
    for (auto& [size, blocks] : c.free) {
      if (size != bytes || blocks.empty()) continue;
      void* const p = blocks.back();
      blocks.pop_back();
#ifdef ACROBAT_BLOCK_ASAN
      ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#endif
      return p;
    }
  }
  void* const p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void give(void* block, std::size_t bytes) noexcept {
  if (block == nullptr) return;
  bytes = page_round(bytes);
#ifdef ACROBAT_BLOCK_ASAN
  ASAN_POISON_MEMORY_REGION(block, bytes);
#endif
  Cache& c = cache();
  const std::lock_guard<std::mutex> lock(c.mu);
  for (auto& [size, blocks] : c.free)
    if (size == bytes) {
      blocks.push_back(block);
      return;
    }
  c.free.push_back({bytes, {block}});
}

std::size_t pow2_class(std::size_t bytes) {
  return bytes <= kMinClassBytes ? kMinClassBytes : std::bit_ceil(bytes);
}

}  // namespace acrobat::block_cache
