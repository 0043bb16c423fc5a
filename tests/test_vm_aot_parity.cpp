// The boxed VM and the AOT executor must compute identical results for
// every model (same program, same engine kernels — only dispatch differs),
// bitwise, at every ablation level; a batched run must equal each of its
// inputs run alone, bitwise; and the batched runtime must match across
// schedulers.
#include <cstring>

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

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Both runs' outputs, instance by instance, bitwise.
bool same_bits(const harness::RunResult& a, const harness::RunResult& b) {
  if (a.outputs.size() != b.outputs.size()) return false;
  for (std::size_t i = 0; i < a.outputs.size(); ++i)
    if (!same_bits(a.outputs[i], b.outputs[i])) return false;
  return true;
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
    CHECK(same_bits(aot, vm));
  }
}

// Every model at both sizes and every ablation level L0–L5, batch 1 and 7:
// AOT equals the VM, and each output of the batch-7 run equals its input
// run alone, all bitwise. Each level builds its own kernel granularity, so
// this covers the coarse cells read in place (L5) and staged (L2–L4), and
// the finer grains' per-op and fused kernels.
void test_parity_every_level() {
  int bad = 0;
  for (const auto& spec : models::all_models()) {
    for (const bool large : {false, true}) {
      for (int level = 0; level < 6; ++level) {
        harness::Prepared p =
            harness::prepare(spec, large, passes::PipelineConfig::ablation_level(level));
        for (const int batch : {1, 7}) {
          const models::Dataset ds = spec.build_dataset(large, batch, 0x5eed + batch);
          const harness::RunResult aot = harness::run_acrobat(p, ds, out_opts());
          const harness::RunResult vm = harness::run_vm(p, ds, out_opts());
          CHECK_EQ(aot.outputs.size(), static_cast<std::size_t>(batch));
          if (!same_bits(aot, vm) && ++bad <= 10)
            std::printf("  %s %s L%d batch %d: AOT and VM differ\n", spec.name.c_str(),
                        large ? "large" : "small", level, batch);
          if (batch == 1) continue;
          for (int i = 0; i < batch; ++i) {
            models::Dataset one;
            one.pool = ds.pool;
            one.tensors = ds.tensors;
            one.inputs.push_back(ds.inputs[static_cast<std::size_t>(i)]);
            const harness::RunResult solo = harness::run_acrobat(p, one, out_opts());
            if ((solo.outputs.size() != 1 ||
                 !same_bits(solo.outputs[0], aot.outputs[static_cast<std::size_t>(i)])) &&
                ++bad <= 10)
              std::printf("  %s %s L%d: input %d batched and alone differ\n",
                          spec.name.c_str(), large ? "large" : "small", level, i);
          }
        }
      }
    }
  }
  CHECK_EQ(bad, 0);
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
  test_parity_every_level();
  test_batched_vs_eager_numerics();
  test_dynet_schedulers_numerics();
  return acrobat::test::finish("test_vm_aot_parity");
}
