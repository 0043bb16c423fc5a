// Scheduler ablation (DESIGN.md §5 "Scheduler correctness invariant" /
// paper §4.1): quantifies what inline depth computation buys over dynamic
// depth recovery, and situates DyNet's two dynamic schedulers.
//
//   ACROBAT/inline    — depths from compiled-in counters ((phase, depth)
//                       buckets; the paper's contribution)
//   ACROBAT/dynamic   — same engine, depths recovered with the graph
//                       traversal fully dynamic schemes pay per trigger
//   DyNet/agenda      — greedy most-ready-signature-class batching
//   DyNet/depth       — dynamic depth buckets over per-op nodes
//   Cortex            — Table 8's baseline on its three models, one launch
//                       per depth wave (a separate table)
//
// Expected shape: at ACROBAT's coarsened node counts both of its schedulers
// are cheap, and inline depth shows up as *batching quality* — static
// hoist depths and fiber fork-join give fewer, wider launches (TreeLSTM,
// DRNN) — rather than scheduling time. The dynamic-recovery cost that
// inline depth eliminates is visible at scale in the DyNet columns, whose
// per-op graphs are 50-100x larger: their scheduling row is the Table 6
// "Scheduling" mechanism (9.7 ms vs 0.4 ms in the paper).
#include "bench_util.h"

#include "fleet/fleet.h"
#include "models/specs.h"
#include "serve/server.h"

using namespace acrobat;
using namespace acrobat::bench;

namespace {

struct Row {
  double sched_ms = 0, wall_ms = 0;
  long long launches = 0;
  ActivityStats stats;  // full breakdown of the best run (counters are
                        // identical across runs: each builds a fresh engine)
};

// The fastest of kIters runs after one warm-up run.
Row best_row(const std::function<harness::RunResult()>& run) {
  run();
  Row r;
  r.wall_ms = 1e300;
  for (int i = 0; i < kIters; ++i) {
    const harness::RunResult rr = run();
    if (rr.wall_ms < r.wall_ms) {
      r.wall_ms = rr.wall_ms;
      r.sched_ms = rr.stats.scheduling.ms();
      r.launches = rr.stats.kernel_launches;
      r.stats = rr.stats;
    }
  }
  return r;
}

Row acrobat_row(const models::ModelSpec& spec, const models::Dataset& ds,
                bool inline_depth) {
  passes::PipelineConfig cfg;
  cfg.inline_depth = inline_depth;
  const harness::Prepared p = harness::prepare(spec, false, cfg);
  harness::RunOptions opts = default_opts();
  opts.time_activities = true;
  return best_row([&] { return harness::run_acrobat(p, ds, opts); });
}

Row dynet_row(const models::ModelSpec& spec, const models::Dataset& ds,
              bool agenda) {
  const harness::Prepared p =
      harness::prepare(spec, false, baselines::dynet_pipeline_config());
  baselines::DynetOptions opts;
  opts.agenda_scheduler = agenda;
  opts.launch_overhead_ns = kLaunchNs;
  opts.time_activities = true;
  return best_row([&] { return baselines::run_dynet(p, ds, opts); });
}

// Table 8's Cortex baseline, for its counters: its launches must not move
// when the ACRoBat scheduler changes.
Row cortex_row(const models::ModelSpec& spec, const models::Dataset& ds) {
  const harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});
  harness::RunOptions opts = default_opts();
  opts.time_activities = true;
  return best_row([&] { return baselines::run_cortex(spec.name, p, ds, opts); });
}

// Steady-state serving counters (ROADMAP carried item): deterministic
// per-trigger rows for the golden trajectory. Both recipes pin batch
// composition to arrival order — every request arrives at t=0 and a
// deadline policy with min_batch == max_admit == cohort holds each trigger
// until a full cohort is admitted — so triggers, flat/stacked batch counts,
// and sheds are exact, machine-independent integers.
void serve_steady_row(CounterJson& json) {
  const models::ModelSpec& spec = models::model_by_name("BiRNN");
  // Fixed length 14: the recurring-trigger regime of a bucketed production
  // model.
  const models::Dataset ds = models::make_token_dataset(false, 8, 29, 14, 14);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});

  const int n = 48, cohort = 12;
  std::vector<serve::Request> trace;
  for (int i = 0; i < n; ++i)
    trace.push_back(serve::Request{i, static_cast<std::size_t>(i) % ds.inputs.size(), 0});
  serve::ServeOptions so;
  so.launch_overhead_ns = kLaunchNs;
  so.policy.kind = serve::PolicyKind::kDeadline;
  so.policy.min_batch = cohort;
  so.policy.max_admit = cohort;
  so.policy.slo_ns = 10'000'000'000;
  so.policy.max_hold_ns = 10'000'000'000;
  const serve::ServeResult res = serve::serve(p, ds, trace, so);

  const ActivityStats& s = res.shards.at(0).stats;
  std::printf("serve_steady  (BiRNN len14, %d req, cohort %d): triggers %lld | "
              "flat %lld stacked %lld | launches %lld\n",
              n, cohort, res.shards.at(0).triggers, s.flat_batches,
              s.stacked_batches, s.kernel_launches);
  json.add("serve_steady/birnn", s,
           {{"requests", n}, {"triggers", res.shards.at(0).triggers}, {"shed", 0}},
           {{"p50_ms", res.latency_ms.p50}, {"p99_ms", res.latency_ms.p99}});
}

// Token-level continuous batching counters: one t=0 Decoder cohort under
// the same deadline recipe (min_batch == max_admit == cohort pins the
// first trigger to arrival order; every later trigger is the cohort's
// decode steps, re-admitted at each token boundary). Session lengths are
// data-dependent but exact for the fixed dataset seed, so triggers and
// tokens are machine-independent integers — the golden's view of the
// iteration-level scheduler.
void decode_steady_row(CounterJson& json) {
  const models::ModelSpec& spec = models::model_by_name("Decoder");
  const models::Dataset ds = spec.build_dataset(false, 8, 29);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});

  const int n = 12;
  std::vector<serve::Request> trace;
  for (int i = 0; i < n; ++i)
    trace.push_back(serve::Request{i, static_cast<std::size_t>(i) % ds.inputs.size(), 0});
  serve::ServeOptions so;
  so.launch_overhead_ns = kLaunchNs;
  so.recycle = true;  // session checkpoints require the epoch protocol
  so.policy.kind = serve::PolicyKind::kDeadline;
  so.policy.min_batch = n;
  so.policy.max_admit = n;
  so.policy.slo_ns = 10'000'000'000;
  so.policy.max_hold_ns = 10'000'000'000;
  const serve::ServeResult res = serve::serve(p, ds, trace, so);

  const ActivityStats& s = res.shards.at(0).stats;
  std::printf("decode_steady (Decoder, %d req, cohort %d): triggers %lld | "
              "tokens %lld | flat %lld stacked %lld | launches %lld\n",
              n, n, res.shards.at(0).triggers, res.tokens, s.flat_batches,
              s.stacked_batches, s.kernel_launches);
  json.add("decode_steady/decoder", s,
           {{"requests", n},
            {"triggers", res.shards.at(0).triggers},
            {"shed", 0},
            {"tokens", res.tokens},
            {"cancelled", res.cancelled}},
           {{"ttft_p50_ms", res.ttft_ms.p50},
            {"itl_p99_ms", res.inter_token_ms.p99},
            {"tokens_per_sec", res.tokens_per_sec}});
}

void fleet_steady_row(CounterJson& json) {
  fleet::ModelRegistry reg;
  reg.add(models::model_by_name("TreeLSTM"), false,
          models::model_by_name("TreeLSTM").build_dataset(false, 6, 11));
  reg.add(models::model_by_name("BiRNN"), false,
          models::model_by_name("BiRNN").build_dataset(false, 6, 19));
  reg.prepare();

  // Interactive deadline 1ns is blown on arrival (est_service 0, grace 0),
  // so exactly the interactive third of the cohort sheds — a deterministic
  // shed count exercising the triage path in the golden row.
  const int n = 24;
  std::vector<serve::Request> trace;
  long long interactive = 0;
  for (int i = 0; i < n; ++i) {
    serve::Request r;
    r.id = i;
    r.model_id = i % reg.num_models();
    r.input_index = static_cast<std::size_t>(i / reg.num_models()) %
                    reg.model(r.model_id).dataset.inputs.size();
    r.arrival_ns = 0;
    r.latency_class = i % 3 == 0 ? serve::LatencyClass::kInteractive
                                 : serve::LatencyClass::kBatch;
    interactive += i % 3 == 0 ? 1 : 0;
    trace.push_back(r);
  }
  fleet::FleetOptions fo;
  fo.launch_overhead_ns = kLaunchNs;
  fo.policy.deadline_ns = {1, 0, 0};
  fo.policy.est_service_ns = 0;
  fo.policy.shed_grace = 0.0;
  fo.policy.base.kind = serve::PolicyKind::kDeadline;
  fo.policy.base.min_batch = n;
  fo.policy.base.max_admit = n;
  fo.policy.base.slo_ns = 10'000'000'000;
  fo.policy.base.max_hold_ns = 10'000'000'000;
  const fleet::FleetResult res = fleet::serve_fleet(reg, trace, fo);

  const ActivityStats& s = res.shards.at(0).stats;
  std::printf("fleet_steady  (TreeLSTM+BiRNN, %d req, %lld shed): triggers %lld | "
              "flat %lld stacked %lld | launches %lld\n",
              n, res.shed, res.shards.at(0).triggers, s.flat_batches,
              s.stacked_batches, s.kernel_launches);
  json.add("fleet_steady/mixed", s,
           {{"requests", n}, {"triggers", res.shards.at(0).triggers}, {"shed", res.shed}},
           {{"goodput", res.goodput}});
}

}  // namespace

int main() {
  header("Scheduler ablation: inline depth vs dynamic recovery vs DyNet "
         "(batch 64, small)",
         "paper §4.1 / Table 6 scheduling row");
  std::printf("%-10s | %21s | %21s | %21s | %21s\n", "", "ACROBAT/inline",
              "ACROBAT/dynamic", "DyNet/agenda", "DyNet/depth");
  std::printf("%-10s | %7s %6s %6s | %7s %6s %6s | %7s %6s %6s | %7s %6s %6s\n",
              "model", "sched", "wall", "launch", "sched", "wall", "launch",
              "sched", "wall", "launch", "sched", "wall", "launch");
  CounterJson json;
  for (const auto& spec : models::all_models()) {
    const models::Dataset ds = dataset_for(spec, false, 64);
    const Row a = acrobat_row(spec, ds, true);
    const Row b = acrobat_row(spec, ds, false);
    const Row c = dynet_row(spec, ds, true);
    const Row d = dynet_row(spec, ds, false);
    std::printf(
        "%-10s | %7.3f %6.2f %6lld | %7.3f %6.2f %6lld | %7.3f %6.2f %6lld | "
        "%7.3f %6.2f %6lld\n",
        spec.name.c_str(), a.sched_ms, a.wall_ms, a.launches, b.sched_ms,
        b.wall_ms, b.launches, c.sched_ms, c.wall_ms, c.launches, d.sched_ms,
        d.wall_ms, d.launches);
    json.add(spec.name + "/acrobat_inline", a.stats);
    json.add(spec.name + "/acrobat_dynamic", b.stats);
    json.add(spec.name + "/dynet_agenda", c.stats);
    json.add(spec.name + "/dynet_depth", d.stats);
  }
  std::printf("\n%-10s | %21s\n", "", "Cortex (Table 8)");
  for (const char* name : {"TreeLSTM", "MV-RNN", "BiRNN"}) {
    const models::ModelSpec& spec = models::model_by_name(name);
    const Row c = cortex_row(spec, dataset_for(spec, false, 64));
    std::printf("%-10s | %7.3f %6.2f %6lld\n", name, c.sched_ms, c.wall_ms, c.launches);
    json.add(spec.name + "/cortex", c.stats);
  }
  std::printf(
      "\nexpected: inline depth wins on launch counts (hoisting + fibers:\n"
      "TreeLSTM, DRNN); scheduling time itself is small at ACROBAT's\n"
      "coarsened node counts, and the dynamic-analysis cost inline depth\n"
      "avoids shows at the DyNet columns' per-op scale.\n");
  // Steady-state serving rows (DESIGN.md §9): per-trigger counters from
  // deterministic serve and fleet cohorts, golden-diffed alongside the
  // closed-batch rows so the serving layer's batching behavior has a
  // per-PR trajectory too.
  std::printf("\n");
  serve_steady_row(json);
  decode_steady_row(json);
  fleet_steady_row(json);
  // The perf trajectory artifact: exact counters + timing context per
  // config, diffed (counters only) against bench/golden/BENCH_engine.json
  // by CI's perf-smoke step.
  json.write("ablation_scheduler", "BENCH_engine.json");
  return 0;
}
