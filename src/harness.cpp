#include "harness/harness.h"

#include <functional>
#include <optional>
#include <utility>

#include "exec/aot.h"
#include "exec/vm.h"
#include "runtime/fiber.h"

namespace acrobat::harness {

void collect_output_trefs(const Value& v, std::vector<TRef>& out) {
  switch (v.kind) {
    case Value::kTensor:
      out.push_back(v.tref);
      return;
    case Value::kAdt:
      for (const Value& f : v.adt->fields) collect_output_trefs(f, out);
      return;
    case Value::kTuple:
      for (const Value& e : v.tuple->elems) collect_output_trefs(e, out);
      return;
    default:
      return;
  }
}

EngineConfig engine_config_for(const passes::PipelineConfig& cfg,
                               std::int64_t launch_overhead_ns, bool time_activities) {
  EngineConfig ec;
  ec.launch_overhead_ns = launch_overhead_ns;
  ec.time_activities = time_activities;
  ec.lazy = cfg.lazy;
  ec.inline_depth = cfg.inline_depth;
  ec.phases = cfg.phases;
  ec.gather_fusion = cfg.gather_fusion;
  ec.fuse_chains = cfg.kernel_fusion;
  return ec;
}

void apply_default_schedules(KernelRegistry& registry) {
  for (std::size_t i = 0; i < registry.num_kernels(); ++i) {
    Kernel& k = registry.kernel(static_cast<int>(i));
    k.variant = k.num_variants - 1;
  }
}

Prepared prepare(const models::ModelSpec& spec, bool large, const passes::PipelineConfig& cfg) {
  Prepared p;
  p.cfg = cfg;
  p.large = large;

  std::vector<models::WeightDecl> decls;
  models::BuildCtx bctx{p.compiled.program, p.compiled.module.registry, cfg, large, decls};
  const int main_idx = spec.build(bctx);
  ir::finalize(p.compiled.program, main_idx);
  apply_default_schedules(p.compiled.module.registry);

  materialize_weights(spec.name, large, decls, p.weights);
  return p;
}

void materialize_weights(const std::string& model_name, bool large,
                         const std::vector<models::WeightDecl>& decls, Weights& out) {
  // Weights are deterministic per (model, size) so every pipeline config
  // with the same weight layout sees the same parameters.
  std::uint64_t seed = 0x243f6a8885a308d3ull ^ (large ? 0x5851f42d4c957f2dull : 0);
  for (const char c : model_name) seed = seed * 131 + static_cast<unsigned char>(c);
  Rng rng(seed);
  if (!out.pool) out.pool = std::make_shared<TensorPool>();
  for (const models::WeightDecl& d : decls)
    out.tensors.push_back(d.scale == 0.0f ? out.pool->alloc_zero(d.shape)
                                          : out.pool->alloc_random(d.shape, rng, d.scale));
}

RunResult run_with_engine(const Prepared& p, const models::Dataset& ds, const RunOptions& opts,
                          EngineConfig ec, bool use_fibers, bool use_vm) {
  RunResult r;
  const std::int64_t t0 = now_ns();
  Engine engine(p.compiled.module.registry, ec);
  engine.set_tracer(opts.tracer);

  std::vector<TRef> wrefs, drefs;
  wrefs.reserve(p.weights.tensors.size());
  for (const Tensor& t : p.weights.tensors) wrefs.push_back(engine.add_concrete(t.view()));
  drefs.reserve(ds.tensors.size());
  for (const Tensor& t : ds.tensors) drefs.push_back(engine.add_concrete(t.view()));

  // Only the executor that runs is built. The AOT executor reads each input
  // in place; the VM, the Table 4 baseline, runs a remapped copy.
  std::optional<aot::AotExecutor> aot_exec;
  std::optional<exec::Vm> vm_exec;
  if (use_vm)
    vm_exec.emplace(p.compiled.program, engine, std::move(wrefs));
  else
    aot_exec.emplace(p.compiled.program, engine, std::move(wrefs));

  // Every instance's output refs, depth-first, in one buffer: instance i's
  // are outs[out_span[i].first, out_span[i].second).
  const std::size_t n = ds.inputs.size();
  std::vector<TRef> outs;
  std::vector<std::pair<std::size_t, std::size_t>> out_span(n);
  try {
    auto run_one = [&](std::size_t i) {
      InstCtx ctx;
      ctx.instance = static_cast<int>(i);
      if (use_vm) {
        const Value in = models::remap_trefs(ds.inputs[i], drefs);
        const Value out = vm_exec->run(std::span<const Value>(&in, 1), ctx);
        const std::size_t first = outs.size();
        collect_output_trefs(out, outs);
        out_span[i] = {first, outs.size()};
      } else {
        const std::size_t added = aot_exec->run(ds.inputs[i], drefs, ctx, outs);
        out_span[i] = {outs.size() - added, outs.size()};
      }
    };
    if (use_fibers) {
      FiberScheduler fs;
      fs.set_tracer(opts.tracer);
      engine.set_fiber_scheduler(&fs);
      std::vector<FiberTask> tasks;
      tasks.reserve(n);
      for (std::size_t i = 0; i < n; ++i) tasks.push_back([&, i] { run_one(i); });
      fs.run(std::move(tasks), [&] { engine.trigger_execution(); });
      engine.set_fiber_scheduler(nullptr);
    } else {
      for (std::size_t i = 0; i < n; ++i) run_one(i);
    }
    engine.trigger_execution();

    for (std::size_t i = 0; i < n; ++i) {
      std::vector<float> flat;
      for (std::size_t o = out_span[i].first; o < out_span[i].second; ++o) {
        const Tensor t = engine.force(outs[o]);
        if (opts.collect_outputs)
          flat.insert(flat.end(), t.data, t.data + t.numel());
      }
      if (opts.collect_outputs) r.outputs.push_back(std::move(flat));
    }
  } catch (const OomError&) {
    r.oom = true;
  }

  r.wall_ms = static_cast<double>(now_ns() - t0) * 1e-6;
  r.stats = engine.stats();
  r.kernel_invocations = engine.stats().kernel_invocations;
  return r;
}

RunResult run_acrobat(const Prepared& p, const models::Dataset& ds, const RunOptions& opts) {
  EngineConfig ec =
      engine_config_for(p.cfg, opts.launch_overhead_ns, opts.time_activities);
  // Fibers need the compiled-in depth counters; without inline depth the
  // runtime falls back to instance-at-a-time triggering at sync points.
  const bool fibers =
      p.compiled.program.main->may_sync && p.cfg.inline_depth && p.cfg.lazy;
  return run_with_engine(p, ds, opts, ec, fibers, /*use_vm=*/false);
}

RunResult run_vm(const Prepared& p, const models::Dataset& ds, const RunOptions& opts) {
  EngineConfig ec =
      engine_config_for(p.cfg, opts.launch_overhead_ns, opts.time_activities);
  // The naive interpreter recovers depths dynamically (Table 4's VM).
  ec.inline_depth = false;
  return run_with_engine(p, ds, opts, ec, /*use_fibers=*/false, /*use_vm=*/true);
}

}  // namespace acrobat::harness
