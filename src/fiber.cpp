#include "runtime/fiber.h"

#include <cassert>
#include <cstring>

#include "tensor/block_cache.h"
#include "trace/trace.h"

#if !defined(__x86_64__) || defined(_WIN64)
#error "src/fiber.cpp: the fiber context switch is written for the x86-64 SysV ABI only"
#endif

#if defined(__SANITIZE_ADDRESS__)
#define ACROBAT_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ACROBAT_FIBER_ASAN 1
#endif
#endif
#ifdef ACROBAT_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

// Saves the running context's callee-saved GPRs, MXCSR and x87 control word
// on its own stack, stores that stack pointer to *save_sp, then loads the
// context saved at load_sp and returns into it. Everything else the SysV
// ABI lets a call clobber, so the compiler has already spilled it. Frame
// layout from the saved sp up: MXCSR (4 bytes), x87 CW (2), pad (2),
// r15, r14, r13, r12, rbx, rbp, return address.
extern "C" void acrobat_fiber_switch(void** save_sp, void* load_sp);

asm(R"(
  .pushsection .text
  .globl acrobat_fiber_switch
  .hidden acrobat_fiber_switch
  .type acrobat_fiber_switch, @function
  .p2align 4
acrobat_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size acrobat_fiber_switch, .-acrobat_fiber_switch
  .popsection
  .pushsection .note.GNU-stack,"",@progbits
  .popsection
)");

namespace acrobat {
namespace {

// The entry frame carries no arguments; each scheduler is single-threaded on
// its own thread (serve/ shards run one scheduler per worker thread), so the
// active scheduler lives in TLS.
thread_local FiberScheduler* g_active = nullptr;

// Power-on FP control state: all exceptions masked, round to nearest; x87
// at extended precision. A fresh fiber starts from it, not from its
// spawner's.
constexpr std::uint32_t kInitMxcsr = 0x1F80;
constexpr std::uint16_t kInitFpuCw = 0x037F;

// ASan must be told about every stack change, or its fake stacks and its
// unpoisoning at noreturn calls work on the wrong stack's bounds. The
// scheduler side runs on the thread's own stack, whose bounds ASan hands
// the fiber on every switch in.
#ifdef ACROBAT_FIBER_ASAN
thread_local const void* g_main_bottom = nullptr;
thread_local std::size_t g_main_size = 0;
#endif

// Scheduler side → fiber. Returns when the fiber blocks, parks or ends.
inline void switch_in(void** main_sp, void* fiber_sp, [[maybe_unused]] const char* stack,
                      [[maybe_unused]] std::size_t size) {
#ifdef ACROBAT_FIBER_ASAN
  void* fake = nullptr;
  __sanitizer_start_switch_fiber(&fake, stack, size);
  acrobat_fiber_switch(main_sp, fiber_sp);
  __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#else
  acrobat_fiber_switch(main_sp, fiber_sp);
#endif
}

// Fiber → scheduler side. Returns when the scheduler resumes the fiber.
inline void switch_out(void** fiber_sp, void* main_sp) {
#ifdef ACROBAT_FIBER_ASAN
  void* fake = nullptr;
  __sanitizer_start_switch_fiber(&fake, g_main_bottom, g_main_size);
  acrobat_fiber_switch(fiber_sp, main_sp);
  __sanitizer_finish_switch_fiber(fake, &g_main_bottom, &g_main_size);
#else
  acrobat_fiber_switch(fiber_sp, main_sp);
#endif
}

}  // namespace

FiberScheduler::Fiber::Fiber()
    : stack(static_cast<char*>(block_cache::take(kStackBytes))) {}

FiberScheduler::Fiber::~Fiber() { block_cache::give(stack, kStackBytes); }

void FiberScheduler::entry() noexcept {
#ifdef ACROBAT_FIBER_ASAN
  __sanitizer_finish_switch_fiber(nullptr, &g_main_bottom, &g_main_size);
#endif
  // g_active and current_ are set by step_ready right before the switch in.
  FiberScheduler* s = g_active;
  s->fibers_[static_cast<std::size_t>(s->current_)]->task();
  // Re-read both: the fiber may have suspended inside task() and resumed at
  // a different index after reap_done compacted the list. current_ always
  // names this fiber while it runs; stale locals from before a suspension
  // may not.
  s = g_active;
  Fiber& f = *s->fibers_[static_cast<std::size_t>(s->current_)];
  f.state = Fiber::kDone;
#ifdef ACROBAT_FIBER_ASAN
  __sanitizer_start_switch_fiber(nullptr, g_main_bottom, g_main_size);  // frees the fake stack
#endif
  acrobat_fiber_switch(&f.sp, s->main_sp_);
  __builtin_unreachable();  // a done fiber is never switched back in
}

void FiberScheduler::spawn(FiberTask task, int tag) {
  assert(current_ < 0 && "spawn must run on the scheduler side, not inside a fiber");
  std::unique_ptr<Fiber> f;
  if (!pool_.empty()) {
    f = std::move(pool_.back());
    pool_.pop_back();
#ifdef ACROBAT_FIBER_ASAN
    // entry() never returns, so its frame's redzones are still poisoned.
    ASAN_UNPOISON_MEMORY_REGION(f->stack, kStackBytes);
#endif
  } else {
    f = std::make_unique<Fiber>();
    ++stacks_allocated_;
  }
  f->task = std::move(task);
  f->tag = tag;
  f->state = Fiber::kReady;
  // Seed the frame acrobat_fiber_switch pops: FP control words, six zeroed
  // callee-saved registers, entry() as the return address, and a null
  // return address above it that ends unwinds and backtraces. ret leaves
  // rsp at top - 8, i.e. ≡ 8 (mod 16), as at any function entry.
  const auto top =
      (reinterpret_cast<std::uintptr_t>(f->stack) + kStackBytes) & ~std::uintptr_t{15};
  auto* frame = reinterpret_cast<std::uint64_t*>(top - 9 * sizeof(std::uint64_t));
  std::memset(frame, 0, 9 * sizeof(std::uint64_t));
  std::memcpy(frame, &kInitMxcsr, sizeof kInitMxcsr);
  std::memcpy(reinterpret_cast<char*>(frame) + 4, &kInitFpuCw, sizeof kInitFpuCw);
  frame[7] = reinterpret_cast<std::uint64_t>(&FiberScheduler::entry);
  f->sp = frame;
  fibers_.push_back(std::move(f));
  ACROBAT_TRACE(tracer_, tracer_->instant(trace::EventKind::kFiberSpawn, tag));
}

std::size_t FiberScheduler::step_ready() {
  assert(current_ < 0 && "step_ready from inside a fiber");
  assert((g_active == nullptr || g_active == this) &&
         "nested fiber schedulers on one thread are not supported");
  FiberScheduler* const prev = g_active;
  g_active = this;
  std::size_t ran = 0;
  // fibers_ may grow during the walk only via spawn, which is barred inside
  // fibers; index-based iteration keeps the walk valid regardless.
  for (std::size_t i = 0; i < fibers_.size(); ++i) {
    if (fibers_[i]->state != Fiber::kReady) continue;
    ++ran;
    current_ = static_cast<int>(i);
    switch_in(&main_sp_, fibers_[i]->sp, fibers_[i]->stack, kStackBytes);
    current_ = -1;
  }
  g_active = prev;
  return ran;
}

std::size_t FiberScheduler::live() const {
  std::size_t n = 0;
  for (const auto& f : fibers_)
    if (f->state != Fiber::kDone) ++n;
  return n;
}

bool FiberScheduler::any_blocked() const {
  for (const auto& f : fibers_)
    if (f->state == Fiber::kBlocked) return true;
  return false;
}

void FiberScheduler::wake_blocked() {
  assert(current_ < 0 && "wake_blocked from inside a fiber");
  int woke = 0;
  for (auto& f : fibers_)
    if (f->state == Fiber::kBlocked) {
      f->state = Fiber::kReady;
      ++woke;
    }
  if (woke > 0) {
    ++idle_triggers_;
    ACROBAT_TRACE(tracer_, tracer_->instant(trace::EventKind::kFiberWake, woke));
  }
}

std::size_t FiberScheduler::reap_done() {
  assert(current_ < 0 && "reap_done from inside a fiber");
  std::size_t reaped = 0;
  for (std::size_t i = 0; i < fibers_.size();) {
    if (fibers_[i]->state != Fiber::kDone) {
      ++i;
      continue;
    }
    std::unique_ptr<Fiber> f = std::move(fibers_[i]);
    fibers_[i] = std::move(fibers_.back());
    fibers_.pop_back();
    f->task = nullptr;  // release captured state now, not at next reuse
    const int tag = f->tag;
    f->tag = -1;
    pool_.push_back(std::move(f));
    ++reaped;
    ACROBAT_TRACE(tracer_, tracer_->instant(trace::EventKind::kFiberReap, tag));
    // The request's stack and captures are gone; its engine-side state
    // (node span, arena epoch) is retired here, on the scheduler side.
    if (reap_hook_ && tag >= 0) reap_hook_(tag);
  }
  return reaped;
}

void FiberScheduler::run(std::vector<FiberTask> tasks,
                         const std::function<void()>& on_all_blocked) {
  assert(fibers_.empty() && "run() on a scheduler with live fibers");
  for (FiberTask& t : tasks) spawn(std::move(t));
  try {
    for (;;) {
      step_ready();
      reap_done();
      if (fibers_.empty()) break;  // all done
      if (any_blocked()) {
        // Every live instance is suspended at a sync point: wake the engine,
        // then resume them all (their futures are now materialized).
        on_all_blocked();
        wake_blocked();
      } else {
        break;  // defensive: nothing runnable, nothing blocked, not all done
      }
    }
  } catch (...) {
    // e.g. OomError out of on_all_blocked: abandon the suspended fibers
    // (their stacks go back to the block cache, not to this scheduler's
    // pool — live frames were never unwound) but leave the scheduler
    // reusable.
    current_ = -1;
    fibers_.clear();
    throw;
  }
}

void FiberScheduler::block_current() {
  assert(current_ >= 0 && "block_current outside a fiber");
  const std::size_t idx = static_cast<std::size_t>(current_);
  fibers_[idx]->state = Fiber::kBlocked;
  ACROBAT_TRACE(tracer_,
                tracer_->instant(trace::EventKind::kFiberBlock, fibers_[idx]->tag));
  switch_out(&fibers_[idx]->sp, main_sp_);
}

void FiberScheduler::park_current() {
  assert(current_ >= 0 && "park_current outside a fiber");
  const std::size_t idx = static_cast<std::size_t>(current_);
  fibers_[idx]->state = Fiber::kParked;
  ACROBAT_TRACE(tracer_,
                tracer_->instant(trace::EventKind::kFiberBlock, fibers_[idx]->tag));
  switch_out(&fibers_[idx]->sp, main_sp_);
}

bool FiberScheduler::unpark(int tag) {
  assert(current_ < 0 && "unpark must run on the scheduler side, not inside a fiber");
  for (auto& f : fibers_)
    if (f->state == Fiber::kParked && f->tag == tag) {
      f->state = Fiber::kReady;
      ACROBAT_TRACE(tracer_, tracer_->instant(trace::EventKind::kFiberWake, tag));
      return true;
    }
  return false;
}

std::size_t FiberScheduler::parked() const {
  std::size_t n = 0;
  for (const auto& f : fibers_)
    if (f->state == Fiber::kParked) ++n;
  return n;
}

}  // namespace acrobat
