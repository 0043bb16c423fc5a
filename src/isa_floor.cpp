// The ISA floor check (DESIGN.md §3). acrobat_core compiles with -mavx2, so
// any of its code may execute an AVX2 instruction, and on a CPU without AVX2
// the first one dies of SIGILL wherever it happens to be. This file alone
// compiles for baseline x86-64 (CMakeLists.txt) and runs as the first
// initializer of every executable that links the library, so such a CPU
// gets one line naming what is missing instead.
#include <cstdio>
#include <cstdlib>

// Priority 101 is the earliest a program may take: it runs before every
// default-priority constructor and static initializer of the executable.
// The linker keeps this object through an --undefined of its name (the
// library's INTERFACE link options), since nothing calls it.
extern "C" __attribute__((constructor(101))) void acrobat_isa_floor_check() {
  __builtin_cpu_init();  // libgcc's own CPU probe may not have run yet
  if (__builtin_cpu_supports("avx2")) return;
  std::fputs("acrobat: this CPU lacks AVX2, which the build requires (DESIGN.md §3)\n", stderr);
  std::abort();
}
