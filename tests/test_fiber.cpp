// Fiber scheduler semantics: cooperative interleaving, all-blocked wakeups,
// engine integration (blocked instances batch across a sync point), the
// context switch's contract (registers, FP control state, exceptions), and
// the block cache behind fiber stacks and arena pages.
#include "engine/engine.h"
#include "runtime/fiber.h"
#include "support/rng.h"
#include "test_util.h"

#include <atomic>
#include <cfenv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define ACROBAT_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ACROBAT_TEST_ASAN 1
#endif
#endif
#ifdef ACROBAT_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

using namespace acrobat;

namespace {

void test_interleaving_order() {
  FiberScheduler fs;
  std::string trace;
  std::vector<FiberTask> tasks;
  for (int i = 0; i < 3; ++i)
    tasks.push_back([&, i] {
      trace += static_cast<char>('a' + i);
      fs.block_current();
      trace += static_cast<char>('A' + i);
    });
  int wakes = 0;
  fs.run(std::move(tasks), [&] { ++wakes; });
  CHECK(trace == "abcABC");
  CHECK_EQ(wakes, 1);
  CHECK_EQ(fs.idle_triggers(), 1);
}

void test_engine_sync_batches_across_instances() {
  KernelRegistry reg;
  const Shape x(8), w(8, 8);
  const Shape reps[2] = {x, w};
  const int k_dense = reg.add("t.dense", OpKind::kDense, 0, 2, reps);

  TensorPool pool;
  Rng rng(3);
  const Tensor wt = pool.alloc_random(Shape(8, 8), rng, 0.5f);
  std::vector<Tensor> xs;
  for (int i = 0; i < 8; ++i) xs.push_back(pool.alloc_random(RowVec(8), rng, 1.0f));

  EngineConfig cfg;
  Engine eng(reg, cfg);
  const TRef wref = eng.add_concrete(wt.view());

  FiberScheduler fs;
  eng.set_fiber_scheduler(&fs);
  std::vector<FiberTask> tasks;
  for (int i = 0; i < 8; ++i)
    tasks.push_back([&, i] {
      InstCtx ctx{i};
      const TRef xr = eng.add_concrete(xs[static_cast<std::size_t>(i)].view());
      const TRef ins[2] = {xr, wref};
      const TRef d = eng.add_op(k_dense, ins, 2, ctx, 0);
      // Data-dependent decision: suspends this instance.
      const float v = eng.scalar(d);
      const TRef ins2[2] = {d, wref};
      if (v < 1e30f) eng.add_op(k_dense, ins2, 2, ctx, 0);
    });
  fs.run(std::move(tasks), [&] { eng.trigger_execution(); });
  eng.set_fiber_scheduler(nullptr);
  eng.trigger_execution();

  // All 8 first-stage denses batch into one launch despite every instance
  // syncing on its own result, and the post-sync denses into another.
  CHECK_EQ(eng.stats().kernel_launches, 2);
  CHECK_EQ(fs.idle_triggers(), 1);
}

void test_instance_at_a_time_fallback() {
  KernelRegistry reg;
  const Shape x(8), w(8, 8);
  const Shape reps[2] = {x, w};
  const int k_dense = reg.add("t.dense", OpKind::kDense, 0, 2, reps);
  TensorPool pool;
  Rng rng(3);
  const Tensor wt = pool.alloc_random(Shape(8, 8), rng, 0.5f);

  EngineConfig cfg;
  Engine eng(reg, cfg);
  const TRef wref = eng.add_concrete(wt.view());
  for (int i = 0; i < 8; ++i) {
    InstCtx ctx{i};
    const Tensor xt = pool.alloc_random(RowVec(8), rng, 1.0f);
    const TRef xr = eng.add_concrete(xt.view());
    const TRef ins[2] = {xr, wref};
    const TRef d = eng.add_op(k_dense, ins, 2, ctx, 0);
    (void)eng.scalar(d);  // no fibers: forces a trigger per instance
  }
  CHECK_EQ(eng.stats().kernel_launches, 8);
}

void test_dynamic_admission() {
  // A fiber admitted while earlier fibers are suspended runs in the same
  // scheduling round and wakes with them — the serving-layer primitive.
  FiberScheduler fs;
  std::string trace;
  fs.spawn([&] {
    trace += 'a';
    fs.block_current();
    trace += 'A';
  });
  fs.spawn([&] {
    trace += 'b';
    fs.block_current();
    trace += 'B';
  });
  fs.step_ready();
  CHECK(fs.any_blocked());
  CHECK_EQ(fs.live(), 2);
  fs.spawn([&] {
    trace += 'c';
    fs.block_current();
    trace += 'C';
  });
  fs.step_ready();  // only the newly admitted fiber is ready
  CHECK(trace == "abc");
  fs.wake_blocked();
  fs.step_ready();
  CHECK(trace == "abcABC");
  CHECK_EQ(fs.idle_triggers(), 1);
  CHECK_EQ(fs.reap_done(), 3);
  CHECK_EQ(fs.live(), 0);
}

void test_stack_pool_reuse() {
  // Fibers are created per request under serving load; stacks must come
  // from the free list, not a fresh allocation per fiber.
  FiberScheduler fs;
  for (int round = 0; round < 4; ++round) {
    std::vector<FiberTask> tasks;
    for (int i = 0; i < 3; ++i)
      tasks.push_back([&] { fs.block_current(); });
    fs.run(std::move(tasks), [] {});
  }
  CHECK_EQ(fs.stacks_allocated(), 3);  // peak concurrency, not 4x3
}

// One step of the accumulators test_switch_preserves_locals carries across
// every suspension: integer, double and float state, mixed so that each
// round depends on all of the previous one.
struct Acc {
  std::uint64_t h;
  double d;
  float f;
};

[[gnu::noinline]] Acc acc_step(Acc a, int fiber, int round) {
  a.h = a.h * 6364136223846793005ull + static_cast<std::uint64_t>(round * 64 + fiber);
  a.d = a.d * 0.999 + static_cast<double>(a.h >> 44) * 1e-6;
  a.f = a.f * 0.5f + static_cast<float>(a.d) + static_cast<float>(a.h & 0xff);
  return a;
}

void test_switch_preserves_locals() {
  // Values live across block_current in callee-saved registers and spill
  // slots; any register the switch drops shows up as a wrong accumulator.
  constexpr int kFibers = 32, kRounds = 1000;
  FiberScheduler fs;
  std::vector<Acc> got(kFibers);
  std::vector<FiberTask> tasks;
  for (int i = 0; i < kFibers; ++i)
    tasks.push_back([&, i] {
      Acc a{static_cast<std::uint64_t>(i), 0.25 * i, 1.0f};
      for (int r = 0; r < kRounds; ++r) {
        a = acc_step(a, i, r);
        fs.block_current();
      }
      got[static_cast<std::size_t>(i)] = a;
    });
  fs.run(std::move(tasks), [] {});
  CHECK_EQ(fs.idle_triggers(), kRounds);
  for (int i = 0; i < kFibers; ++i) {
    Acc want{static_cast<std::uint64_t>(i), 0.25 * i, 1.0f};
    for (int r = 0; r < kRounds; ++r) want = acc_step(want, i, r);
    const Acc& a = got[static_cast<std::size_t>(i)];
    CHECK_EQ(a.h, want.h);
    CHECK(a.d == want.d);
    CHECK(a.f == want.f);
  }
}

// 1/3 is inexact, so rounding it up and rounding its negation up (i.e. the
// magnitude down) differ exactly when SSE rounds upward. volatile keeps the
// divisions at run time, under whatever MXCSR is live.
bool sse_rounds_up() {
  volatile float one = 1.0f, minus_one = -1.0f, three = 3.0f;
  const float up = one / three;
  const float down = -(minus_one / three);
  return up > down;
}

void test_switch_keeps_fp_control_per_fiber() {
  // The FP control words are per-context state: a fiber's rounding mode
  // survives its suspension and never leaks into the scheduler side.
  CHECK_EQ(std::fegetround(), FE_TONEAREST);
  FiberScheduler fs;
  bool fiber_kept = false, fiber_sse_up = false, main_clean = false, fresh_nearest = false;
  std::vector<FiberTask> tasks;
  tasks.push_back([&] {
    std::fesetround(FE_UPWARD);
    fs.block_current();
    fiber_kept = std::fegetround() == FE_UPWARD;  // x87 control word
    fiber_sse_up = sse_rounds_up();               // MXCSR
    std::fesetround(FE_TONEAREST);
  });
  fs.run(std::move(tasks), [&] {
    main_clean = std::fegetround() == FE_TONEAREST && !sse_rounds_up();
  });
  CHECK(fiber_kept);
  CHECK(fiber_sse_up);
  CHECK(main_clean);
  CHECK_EQ(std::fegetround(), FE_TONEAREST);

  // A fresh fiber starts from the default state, not its spawner's.
  std::fesetround(FE_DOWNWARD);
  std::vector<FiberTask> fresh;
  fresh.push_back([&] { fresh_nearest = std::fegetround() == FE_TONEAREST && !sse_rounds_up(); });
  fs.run(std::move(fresh), [] {});
  const bool main_still_down = std::fegetround() == FE_DOWNWARD;
  std::fesetround(FE_TONEAREST);
  CHECK(fresh_nearest);
  CHECK(main_still_down);
}

void test_exception_inside_fiber() {
  // A throw after a resume unwinds through frames that were suspended,
  // and each fiber catches its own exception while others interleave.
  constexpr int kFibers = 4;
  FiberScheduler fs;
  std::vector<std::string> caught(kFibers);
  int finished = 0;
  std::vector<FiberTask> tasks;
  for (int i = 0; i < kFibers; ++i)
    tasks.push_back([&, i] {
      try {
        fs.block_current();
        throw std::runtime_error("fiber " + std::to_string(i));
      } catch (const std::runtime_error& e) {
        caught[static_cast<std::size_t>(i)] = e.what();
      }
      fs.block_current();
      ++finished;
    });
  fs.run(std::move(tasks), [] {});
  for (int i = 0; i < kFibers; ++i)
    CHECK(caught[static_cast<std::size_t>(i)] == "fiber " + std::to_string(i));
  CHECK_EQ(finished, kFibers);
  CHECK_EQ(fs.idle_triggers(), 2);
}

// The frame address of a fiber's task: the same task code on the same
// stack block runs at the same address (the real frame, not an ASan fake
// stack, so detect_stack_use_after_return does not move it).
const char* fiber_frame() {
  const char* frame = nullptr;
  FiberScheduler fs;
  std::vector<FiberTask> tasks;
  tasks.push_back([&] { frame = static_cast<const char*>(__builtin_frame_address(0)); });
  fs.run(std::move(tasks), [] {});
  CHECK_EQ(fs.stacks_allocated(), 1);
  return frame;
}

// A dead pool's page and a dead scheduler's stack go back to the block
// cache, and the next pool or scheduler on this thread takes the same block
// with its pages still resident. Under ASan the block is poisoned while it
// sits in the cache, so a stale pointer into a dead arena still reports.
void test_block_cache_hands_blocks_back() {
  float* page = nullptr;
  {
    TensorPool a;
    page = a.alloc_raw(16);
    page[0] = 1.0f;
  }
#ifdef ACROBAT_TEST_ASAN
  CHECK(__asan_address_is_poisoned(page));
#endif
  {
    TensorPool b;
    CHECK(b.alloc_raw(16) == page);
  }

  const char* frame = fiber_frame();
#ifdef ACROBAT_TEST_ASAN
  CHECK(__asan_address_is_poisoned(frame));
#endif
  CHECK(fiber_frame() == frame);
}

// Two threads create and destroy pools and schedulers at once. Each stamps
// its pages and fiber stacks with its own value and checks the stamp before
// it lets go, so a block handed to both threads at once shows as a torn
// stamp (and as a use-after-poison under ASan).
void test_block_cache_two_threads() {
  std::atomic<int> torn{0};
  const auto worker = [&torn](float stamp) {
    constexpr std::int64_t kPage = 1 << 20;  // one standard page
    for (int round = 0; round < 50; ++round) {
      TensorPool pool;
      float* const a = pool.alloc_raw(kPage);
      float* const b = pool.alloc_raw(8);  // spills onto a second page
      for (std::int64_t i = 0; i < kPage; i += 1024) a[i] = stamp;
      b[0] = stamp;
      FiberScheduler fs;
      std::vector<FiberTask> tasks;
      for (int f = 0; f < 4; ++f)
        tasks.push_back([&fs, &torn, stamp] {
          volatile float on_stack[256];
          for (volatile float& v : on_stack) v = stamp;
          fs.block_current();
          for (const volatile float& v : on_stack)
            if (v != stamp) ++torn;
        });
      fs.run(std::move(tasks), [] { std::this_thread::yield(); });
      for (std::int64_t i = 0; i < kPage; i += 1024)
        if (a[i] != stamp) ++torn;
      if (b[0] != stamp) ++torn;
    }
  };
  std::thread t1(worker, 1.0f), t2(worker, 2.0f);
  t1.join();
  t2.join();
  CHECK_EQ(torn.load(), 0);
}

}  // namespace

int main() {
  test_interleaving_order();
  test_engine_sync_batches_across_instances();
  test_instance_at_a_time_fallback();
  test_dynamic_admission();
  test_stack_pool_reuse();
  test_switch_preserves_locals();
  test_switch_keeps_fp_control_per_fiber();
  test_exception_inside_fiber();
  test_block_cache_hands_blocks_back();
  test_block_cache_two_threads();
  return acrobat::test::finish("test_fiber");
}
