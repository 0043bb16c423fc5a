// Training ablation: does auto-batching extend to the backward pass?
//
// The paper evaluates inference only but claims its techniques apply to
// training (§9); Qiao & Taura (2019) study dynamic batching for backprop
// explicitly. Our backward pass replays the forward batch plans in reverse,
// so it inherits the forward batching. This bench compares a full training
// step (forward + backward over sum-of-outputs loss) executed as one
// batched mini-batch vs instance-at-a-time, reporting backward launches and
// wall time — the same comparison Fig. 5 makes for inference.
#include "bench_util.h"

#include "exec/aot.h"
#include "grad/backward.h"
#include "runtime/fiber.h"

using namespace acrobat;
using namespace acrobat::bench;

namespace {

struct StepStats {
  double wall_ms = 0;
  long long fwd_launches = 0;
  long long bwd_launches = 0;
};

// One training step over `instances` (a subset of ds indices).
StepStats train_step(const harness::Prepared& p, const models::Dataset& ds,
                     const std::vector<int>& instances, bool tdcf) {
  StepStats st;
  const std::int64_t t0 = now_ns();
  Engine engine(p.compiled.module.registry, [] {
    EngineConfig c;
    c.launch_overhead_ns = kLaunchNs;
    return c;
  }());
  std::vector<TRef> wrefs;
  for (const auto& t : p.weights.tensors)
    wrefs.push_back(engine.add_concrete(t.view()));
  std::vector<TRef> drefs;
  for (const auto& t : ds.tensors) drefs.push_back(engine.add_concrete(t.view()));
  aot::AotExecutor exec(p.compiled.program, engine, std::move(wrefs));

  // Per-instance output refs, so the seeds keep instance order however the
  // fibers finish.
  std::vector<std::vector<TRef>> outs(instances.size());
  const auto run_one = [&](std::size_t i) {
    InstCtx ctx;
    ctx.instance = static_cast<int>(i);
    exec.run(ds.inputs[instances[i]], drefs, ctx, outs[i]);
  };
  if (tdcf) {
    FiberScheduler fs;
    engine.set_fiber_scheduler(&fs);
    std::vector<FiberTask> mains;
    for (std::size_t i = 0; i < instances.size(); ++i) mains.push_back([&, i] { run_one(i); });
    fs.run(std::move(mains), [&] { engine.trigger_execution(); });
    engine.set_fiber_scheduler(nullptr);
  } else {
    for (std::size_t i = 0; i < instances.size(); ++i) run_one(i);
  }
  engine.trigger_execution();

  std::vector<grad::Seed> seeds;
  for (const std::vector<TRef>& inst : outs)
    for (const TRef r : inst) {
      const Tensor t = engine.force(r);
      seeds.push_back({r, std::vector<float>(t.numel(), 1.f)});
    }
  grad::BackwardOptions bopts;
  bopts.launch_overhead_ns = kLaunchNs;
  const grad::BackwardResult bw =
      grad::backward(engine, p.compiled.module.registry, seeds, bopts);

  st.wall_ms = static_cast<double>(now_ns() - t0) * 1e-6;
  st.fwd_launches = engine.stats().kernel_launches;
  st.bwd_launches = bw.backward_launches;
  return st;
}

}  // namespace

int main() {
  header("Training step: batched vs instance-at-a-time (per-op pipeline, "
         "batch 32)",
         "paper §9's training claim; Qiao & Taura 2019");
  std::printf("%-10s | %26s | %26s | %7s\n", "", "batched step",
              "instance-at-a-time", "step");
  std::printf("%-10s | %8s %8s %8s | %8s %8s %8s | %7s\n", "model", "ms",
              "fwd-lch", "bwd-lch", "ms", "fwd-lch", "bwd-lch", "speedup");
  for (const char* name : {"TreeLSTM", "MV-RNN", "BiRNN", "GraphRNN"}) {
    const models::ModelSpec& spec = models::model_by_name(name);
    harness::Prepared p =
        harness::prepare(spec, false, grad::training_pipeline_config());
    const models::Dataset ds = dataset_for(spec, false, 32);
    std::vector<int> all(32);
    for (int i = 0; i < 32; ++i) all[i] = i;

    const bool tdcf = p.compiled.program.main->may_sync;
    // Warm + best-of-kIters.
    train_step(p, ds, all, tdcf);
    StepStats batched;
    batched.wall_ms = 1e300;
    for (int it = 0; it < kIters; ++it) {
      const StepStats s = train_step(p, ds, all, tdcf);
      if (s.wall_ms < batched.wall_ms) batched = s;
    }
    StepStats solo;
    solo.wall_ms = 1e300;
    for (int it = 0; it < kIters; ++it) {
      StepStats acc;
      for (int i = 0; i < 32; ++i) {
        const StepStats s = train_step(p, ds, {i}, tdcf);
        acc.wall_ms += s.wall_ms;
        acc.fwd_launches += s.fwd_launches;
        acc.bwd_launches += s.bwd_launches;
      }
      if (acc.wall_ms < solo.wall_ms) solo = acc;
    }
    std::printf("%-10s | %8.2f %8lld %8lld | %8.2f %8lld %8lld | %6.2fx\n",
                name, batched.wall_ms, batched.fwd_launches,
                batched.bwd_launches, solo.wall_ms, solo.fwd_launches,
                solo.bwd_launches, solo.wall_ms / batched.wall_ms);
  }
  std::printf(
      "\nthe backward pass inherits the forward batching (reverse-plan\n"
      "replay): launch counts collapse together, extending the paper's\n"
      "inference result to training.\n");
  return 0;
}
