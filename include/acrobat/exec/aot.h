// AOT executor (paper §6, Table 4 right columns): a compiled program runs
// as direct native dispatch over unboxed registers — per-instruction cost
// is a switch and a 16-byte register slot, control-flow overhead stays out
// of the latency path. Depth/phase bookkeeping is inline (compiled-in
// counters); data-dependent branches suspend via Engine::sync when fibers
// are active.
//
// Storage (DESIGN.md §1 "Registers and cells"): a register is a POD — a
// tensor ref, an int, the index of a cell the run built, or a pointer to a
// tuple or ADT node of the caller's input `Value` tree. Each run has one
// register stack, and a call writes its arguments straight into the
// callee's frame. Tuples and ADTs the program builds are cells
// bump-allocated in the run's cell array and dropped all at once when the
// run ends. Both arrays live in block-cache blocks (tensor/block_cache.h)
// that the executor pools across runs, so a warm run allocates nothing per
// instruction. Dataset inputs are read in place: a tensor leaf read out of
// the input tree is mapped through the caller's dataset refs when it is
// read.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "engine/engine.h"
#include "ir/ir.h"
#include "tensor/block_cache.h"

namespace acrobat::aot {

namespace detail {
struct Reg;
struct RunStore;
struct RunState;
}  // namespace detail

class AotExecutor {
 public:
  AotExecutor(const ir::Program& program, Engine& engine, std::vector<TRef> weights);
  ~AotExecutor();
  AotExecutor(const AotExecutor&) = delete;
  AotExecutor& operator=(const AotExecutor&) = delete;

  // Executes program.main over one dataset instance, appends the result's
  // tensor refs to `outs` in harness::collect_output_trefs' depth-first
  // order, and returns how many it appended. They are appended together when
  // the run ends, so runs on different fibers never interleave theirs.
  // `input` is read in place; its tensor leaves index `input_refs` (the
  // engine refs of the dataset's tensors), and both must outlive the call.
  // Re-entrant across fibers: one executor is shared by every in-flight
  // request, and a fiber suspends mid-exec (kSyncSign), so instance/phase
  // state and the register stack belong to the run, not the executor —
  // under recycling the instance id decides which request span a recorded
  // node retires with, so cross-fiber clobbering would be a use-after-free,
  // not a mislabel.
  std::size_t run(const Value& input, std::span<const TRef> input_refs, InstCtx ctx,
                  std::vector<TRef>& outs);

  // Fleet entry (DESIGN.md §8): runs a specific entry function of a merged
  // multi-model program (fleet/registry.h holds one per model). `entry`
  // must belong to this executor's program; same contract as run(), which
  // is the main-entry special case.
  std::size_t run_entry(const ir::Func& entry, const Value& input,
                        std::span<const TRef> input_refs, InstCtx ctx, std::vector<TRef>& outs);

  // Registers in the first block of a run's stack and of its cell array. A
  // run that needs more moves the array to a larger block mid-run
  // (tests/test_vm_aot_parity.cpp drives both).
  static constexpr std::size_t kFirstStackRegs = block_cache::kMinClassBytes / 16;

 private:
  detail::Reg exec(const ir::Func& f, std::size_t base, detail::RunState& st);
  detail::RunStore* acquire();
  void release(detail::RunStore* s);

  const ir::Program& prog_;
  Engine& engine_;
  std::vector<TRef> weights_;
  // Every store this executor made (one per concurrently live run at the
  // peak), and those no live run holds.
  std::vector<std::unique_ptr<detail::RunStore>> stores_;
  std::vector<detail::RunStore*> idle_;
};

}  // namespace acrobat::aot
