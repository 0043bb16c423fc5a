// The boxed VM and the AOT executor must compute identical results for
// every model (same program, same engine kernels — only dispatch differs),
// and the batched runtime must match across schedulers.
#include "baselines/dynet.h"
#include "baselines/eager.h"
#include "exec/aot.h"
#include "grad/backward.h"
#include "harness/harness.h"
#include "models/specs.h"
#include "test_util.h"

using namespace acrobat;

namespace {

harness::RunOptions out_opts() {
  harness::RunOptions o;
  o.collect_outputs = true;
  return o;
}

void check_same(const harness::RunResult& a, const harness::RunResult& b, double tol) {
  CHECK_EQ(a.outputs.size(), b.outputs.size());
  for (std::size_t i = 0; i < a.outputs.size(); ++i) {
    CHECK_EQ(a.outputs[i].size(), b.outputs[i].size());
    for (std::size_t j = 0; j < a.outputs[i].size(); ++j)
      CHECK_NEAR(a.outputs[i][j], b.outputs[i][j], tol);
  }
}

// A fresh dataset row vector as an input leaf.
Value leaf(models::Dataset& ds, Rng& rng) {
  return models::dataset_tensor(
      ds, ds.pool->alloc_random(RowVec(models::hidden_dim(false)), rng, 1.0f));
}

// Appends a StackRNN action list of `n` pushes, then `n` pops, then End.
// Each action is one more proc call, so the call chain is as deep as the
// list is long.
void add_push_pop_run(models::Dataset& ds, int n) {
  Rng rng(0xd33b);
  Value prog = Value::make_adt(2, {});
  for (int t = 0; t < n; ++t) prog = Value::make_adt(1, {std::move(prog)});
  for (int t = 0; t < n; ++t) prog = Value::make_adt(0, {leaf(ds, rng), std::move(prog)});
  ds.inputs.push_back(std::move(prog));
}

// Appends a BiRNN sequence of `n` tokens.
void add_sequence(models::Dataset& ds, int n) {
  Rng rng(0x5e9);
  std::vector<Value> toks;
  for (int t = 0; t < n; ++t) toks.push_back(leaf(ds, rng));
  ds.inputs.push_back(Value::make_tuple(std::move(toks)));
}

void test_vm_vs_aot_all_models() {
  for (const auto& spec : models::all_models()) {
    models::Dataset ds = spec.build_dataset(false, 4, 0x1234);
    harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});
    // Inputs that outgrow the AOT executor's first blocks mid-run. StackRNN:
    // a call chain of 2n + 1 proc frames outgrows the register stack in the
    // middle of a call, moving every live caller frame; a caller that kept
    // its old frame pointer would read an intact copy in Release, and the
    // sanitizer build, which poisons the old block, reports it. BiRNN: three
    // two-field list cells per token (a header plus two registers each)
    // outgrow the cell array, and the zip loop reads every cell back.
    if (spec.name == "StackRNN") {
      constexpr int kPushes = 200;
      add_push_pop_run(ds, kPushes);
      int proc_regs = 0;
      for (const auto& f : p.compiled.program.funcs)
        if (f->name == "proc") proc_regs = f->num_regs;
      CHECK(static_cast<std::size_t>((2 * kPushes + 1) * proc_regs) >
            aot::AotExecutor::kFirstStackRegs);
    }
    if (spec.name == "BiRNN") {
      constexpr int kTokens = 500;
      add_sequence(ds, kTokens);
      CHECK(static_cast<std::size_t>(9 * kTokens) > aot::AotExecutor::kFirstStackRegs);
    }
    const harness::RunResult aot = harness::run_acrobat(p, ds, out_opts());
    const harness::RunResult vm = harness::run_vm(p, ds, out_opts());
    CHECK(!aot.outputs.empty());
    check_same(aot, vm, 1e-5);
  }
}

void test_batched_vs_eager_numerics() {
  // The lazy batched runtime and the eager per-op baseline agree (same
  // per-op pipeline so the kernel graphs match exactly).
  for (const char* name : {"TreeLSTM", "BiRNN", "NestedRNN"}) {
    const models::ModelSpec& spec = models::model_by_name(name);
    const models::Dataset ds = spec.build_dataset(false, 4, 0x77);
    harness::Prepared lazy = harness::prepare(spec, false, grad::training_pipeline_config());
    harness::Prepared eager = harness::prepare(spec, false, baselines::eager_pipeline_config());
    const harness::RunResult a = harness::run_acrobat(lazy, ds, out_opts());
    const harness::RunResult b = baselines::run_eager(eager, ds, out_opts());
    check_same(a, b, 1e-5);
  }
}

void test_dynet_schedulers_numerics() {
  for (const char* name : {"TreeLSTM", "MV-RNN"}) {
    const models::ModelSpec& spec = models::model_by_name(name);
    const models::Dataset ds = spec.build_dataset(false, 4, 0x99);
    harness::Prepared p = harness::prepare(spec, false, baselines::dynet_pipeline_config());
    harness::Prepared pe = harness::prepare(spec, false, baselines::eager_pipeline_config());
    const harness::RunResult ref = baselines::run_eager(pe, ds, out_opts());
    // run_dynet has no output collection; drive the same configs through
    // run_with_engine to compare numerics under both dynamic schedulers.
    for (const bool agenda : {true, false}) {
      EngineConfig ec;
      ec.inline_depth = false;
      ec.phases = false;
      ec.gather_fusion = false;
      ec.const_reuse = false;
      ec.scheduler = agenda ? SchedulerKind::kAgenda : SchedulerKind::kDepth;
      ec.shape_keyed_batching = false;
      ec.boxed_dfg = true;
      const harness::RunResult d = harness::run_with_engine(p, ds, out_opts(), ec, false, false);
      check_same(ref, d, 1e-5);
    }
  }
}

}  // namespace

int main() {
  test_vm_vs_aot_all_models();
  test_batched_vs_eager_numerics();
  test_dynet_schedulers_numerics();
  return acrobat::test::finish("test_vm_aot_parity");
}
