// Cooperative fiber scheduler (paper §4.2): each program instance runs as a
// stackful fiber; an instance that reaches data-dependent control flow
// suspends instead of forcing execution, other instances keep recording,
// and only when every live instance is blocked does the scheduler wake the
// engine (`on_all_blocked` → Engine::trigger_execution). This is what lets
// tensor-dependent control flow (DRNN generation, Berxit early exit) still
// batch across instances.
//
// Two driving modes share the same machinery:
//  - `run` executes a closed batch of tasks to completion (the bench/test
//    path: every instance is known up front).
//  - the primitive API (`spawn` / `step_ready` / `wake_blocked` /
//    `reap_done`) lets a driver admit new fibers while earlier ones are
//    suspended — continuous batching across requests (serve/server.h).
//
// Single-threaded per scheduler (a hand-written x86-64 stack switch, no
// syscalls, no locks; DESIGN.md §1 states its contract): determinism and
// zero synchronization cost are the point — concurrency here is about
// program shape, not parallel hardware. Shard workers (serve/) each own a
// private scheduler on their own thread; the active-scheduler slot is
// thread-local, so schedulers never share state across threads.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace acrobat {

namespace trace {
class Tracer;
}

using FiberTask = std::function<void()>;

class FiberScheduler {
 public:
  FiberScheduler() = default;
  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;

  // Closed-batch mode: runs all tasks to completion. Whenever no fiber is
  // runnable but some are blocked, calls `on_all_blocked` (the engine
  // trigger) and wakes every blocked fiber.
  void run(std::vector<FiberTask> tasks, const std::function<void()>& on_all_blocked);

  // --- primitive API (dynamic admission; all calls from the scheduler
  // side, never from inside a fiber) ---

  // Admits a new fiber in the ready state. Legal while other fibers are
  // suspended: a serve-loop trigger boundary admits newly arrived requests
  // so their ops batch with the suspended instances' pending ops. `tag`
  // identifies the fiber to the reap hook (serve: the request id, which
  // keys the engine's per-request node span); -1 = untagged.
  void spawn(FiberTask task, int tag = -1);

  // Called once per tagged fiber as reap_done recycles it — after the task
  // has finished and its stack is off the hot path, i.e. the point where a
  // serve shard retires the request's engine state (node span + arena
  // epoch). Runs on the scheduler side, never inside a fiber.
  void set_reap_hook(std::function<void(int)> hook) { reap_hook_ = std::move(hook); }

  // Observability (trace/trace.h, DESIGN.md §9): spawn/block/wake/reap emit
  // instants into the shard's ring. Null (default) costs one predicted
  // branch per site.
  void set_tracer(trace::Tracer* t) { tracer_ = t; }

  // Runs every ready fiber until it blocks or completes; returns how many
  // fibers were stepped.
  std::size_t step_ready();

  // Fibers that are ready or blocked (completed-but-unreaped excluded).
  std::size_t live() const;
  bool any_blocked() const;

  // Moves every blocked fiber back to ready (their futures materialized by
  // the trigger that just ran); counts one idle trigger when any woke.
  void wake_blocked();

  // Recycles completed fibers onto the free list (stack kept for reuse);
  // returns how many were reaped.
  std::size_t reap_done();

  // Called from inside a fiber (via Engine::sync): suspends the current
  // fiber until the next wake.
  void block_current();

  // Iteration-level scheduling (DESIGN.md §7): a decode fiber at a token
  // boundary parks itself until the serve loop re-admits its next step.
  // Parked is distinct from blocked — wake_blocked (the trigger wake) never
  // resumes a parked fiber and any_blocked ignores them, so a shard full of
  // parked sessions does not force triggers; only a targeted unpark(tag)
  // from the admission path makes the fiber runnable again.
  void park_current();
  bool unpark(int tag);  // scheduler side; false if no parked fiber has tag
  std::size_t parked() const;

  bool in_fiber() const { return current_ >= 0; }

  // Number of all-blocked wakeups performed (tests and diagnostics).
  long long idle_triggers() const { return idle_triggers_; }

  // Stacks ever allocated by this scheduler. Under serving load fibers are
  // created per request; the free-list pool keeps this bounded by the peak
  // number of concurrently live fibers, not the request count.
  long long stacks_allocated() const { return stacks_allocated_; }

 private:
  // Heap-stable: a suspended fiber is still executing `task` in place (its
  // frames point into the std::function's storage), so a Fiber must never
  // move while it runs. Dynamic admission grows the fiber list mid-run,
  // hence unique_ptr elements. `sp` is the fiber's saved stack pointer; the
  // callee-saved registers and FP control words sit on its own stack.
  struct Fiber {
    void* sp = nullptr;
    std::unique_ptr<char[]> stack;
    FiberTask task;
    int tag = -1;
    enum State { kReady, kBlocked, kParked, kDone } state = kReady;
  };

  // First frame of every fiber: runs the task, marks the fiber done and
  // switches back to the scheduler for good.
  [[noreturn]] static void entry() noexcept;

  static constexpr std::size_t kStackBytes = 256 * 1024;

  void* main_sp_ = nullptr;  // scheduler side's saved stack pointer
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<std::unique_ptr<Fiber>> pool_;  // recycled fibers, stacks retained
  std::function<void(int)> reap_hook_;
  trace::Tracer* tracer_ = nullptr;
  int current_ = -1;
  long long idle_triggers_ = 0;
  long long stacks_allocated_ = 0;
};

}  // namespace acrobat
