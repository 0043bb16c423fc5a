// Process-wide cache of anonymous memory blocks (DESIGN.md §4 "Block
// cache").
//
// A closed batch builds an engine, a fiber scheduler and an AOT executor,
// and drops them at its end. Handing their arena pages, fiber stacks, node
// table and register stacks back to glibc lets it trim or unmap them, and
// the next batch faults every page back in. The cache keeps them instead:
// a block freed by its owner goes onto a per-size free list with its pages
// still resident, and the next owner that asks for that size takes it.
// Nothing is ever unmapped, so per size the cache holds at most as many
// blocks as were live at once at the process's peak. It has no options.
#pragma once

#include <cstddef>

namespace acrobat::block_cache {

// Takes a block of `bytes` rounded up to whole pages: a cached block of that
// size when one is free, else a fresh anonymous mapping. The contents are
// unspecified (a cached block keeps its last owner's bytes). Thread-safe.
// Throws std::bad_alloc when the mapping fails.
void* take(std::size_t bytes);

// Returns a block taken with the same `bytes`. Under AddressSanitizer the
// block is poisoned until the next take hands it out, so a stale pointer
// into a dead owner's memory still reports.
void give(void* block, std::size_t bytes) noexcept;

// Growable owners (the AOT executor's register stack and cell array) ask
// in power-of-two sizes from 64 KB up, so a regrown block lands in a size
// class the next owner will ask for too.
constexpr std::size_t kMinClassBytes = std::size_t{64} << 10;
std::size_t pow2_class(std::size_t bytes);

}  // namespace acrobat::block_cache
