// Bench harness: compiles a model under a pipeline config (`prepare`) and
// runs it under the ACROBAT runtime (`run_acrobat`) or the boxed VM
// (`run_vm`). Baselines (baselines/*.h) reuse the same Prepared module with
// different engine configurations, so every system sees identical kernels,
// weights, and datasets — only the runtime discipline differs.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/engine.h"
#include "ir/ir.h"
#include "models/models.h"
#include "passes/pipeline.h"

namespace acrobat::harness {

struct RunOptions {
  std::int64_t launch_overhead_ns = 0;
  bool time_activities = false;
  bool collect_outputs = false;  // flatten result tensors into RunResult
  // Schedule memoization passthrough (EngineConfig::sched_memo). Off by
  // default so the closed-batch baselines keep their exact counters.
  bool sched_memo = false;
  // Runs the whole instance batch `repeats` times in ONE engine and reports
  // stats and wall time for the LAST repetition only — earlier repetitions
  // are warmup. The memo ablation rows use this to measure steady-state
  // replay cost (bench/ablation_scheduler.cpp); repeats == 1 is the
  // unchanged single-pass behavior.
  int repeats = 1;
  // Observability (DESIGN.md §9): attach this tracer to the engine and
  // fiber scheduler for the run. Null (the default) keeps every
  // instrumentation site to one predicted branch — the overhead bench
  // (bench/trace_overhead.cpp) measures exactly this knob.
  trace::Tracer* tracer = nullptr;
};

struct RunResult {
  double wall_ms = 0;
  bool oom = false;
  ActivityStats stats;
  std::vector<long long> kernel_invocations;       // per kernel id (PGO)
  std::vector<std::vector<float>> outputs;         // per instance, flattened
};

struct Module {
  KernelRegistry registry;
};

struct Compiled {
  Module module;
  ir::Program program;
};

struct Weights {
  std::shared_ptr<TensorPool> pool;
  std::vector<Tensor> tensors;
};

struct Prepared {
  Compiled compiled;
  Weights weights;
  passes::PipelineConfig cfg;
  bool large = false;
};

Prepared prepare(const models::ModelSpec& spec, bool large, const passes::PipelineConfig& cfg);

// Materializes weight declarations into `out` (appending; allocates the
// pool if absent). Deterministic per (model name, size): a model gets
// bitwise-identical weights whether it is prepared solo or compiled into a
// fleet's merged module — the fleet parity tests (tests/test_fleet.cpp)
// cross-check fleet outputs against solo serve runs through this.
void materialize_weights(const std::string& model_name, bool large,
                         const std::vector<models::WeightDecl>& decls, Weights& out);

// Collects every tensor leaf of a structured result value, depth-first
// (the VM path of run_with_engine; AotExecutor::run returns its refs in
// the same order).
void collect_output_trefs(const Value& v, std::vector<TRef>& out);

// Maps a compiled module's pipeline config onto engine behavior flags —
// the single source of truth shared by run_acrobat, run_vm, and the
// serving layer, so a serve engine can never silently diverge from the
// closed-batch one (tests/test_serve.cpp relies on bitwise parity).
EngineConfig engine_config_for(const passes::PipelineConfig& cfg,
                               std::int64_t launch_overhead_ns, bool time_activities);

// Sets every kernel to its last (assumed fastest) schedule variant; called
// by prepare, re-applied by benches after autosched::reset_schedules.
void apply_default_schedules(KernelRegistry& registry);

RunResult run_acrobat(const Prepared& p, const models::Dataset& ds, const RunOptions& opts);
RunResult run_vm(const Prepared& p, const models::Dataset& ds, const RunOptions& opts);

// Shared runner used by run_acrobat/run_vm and the baselines: executes all
// instances against an engine built from `ec`, optionally on fibers, and
// fills a RunResult. `use_vm` selects the boxed interpreter.
RunResult run_with_engine(const Prepared& p, const models::Dataset& ds, const RunOptions& opts,
                          EngineConfig ec, bool use_fibers, bool use_vm);

}  // namespace acrobat::harness
