// fleet_frontier: multi-model serving with SLO admission control
// (DESIGN.md §8).
//
// A 2-model registry (TreeLSTM + BiRNN, merged into one module) serves a
// seeded mixed-model, mixed-class trace, every model behind one merged
// engine per shard. The open-loop sweep crosses arrival rate x shard
// count: below capacity nothing is shed and goodput is ~100%; past
// capacity the fleet policy sheds blown requests, so goodput degrades far
// more gracefully than the no-shed latency tail would. The closed-loop
// block then sweeps the client population K: throughput rises to the
// service ceiling and saturates while latency grows ~linearly in K past
// it, and no queue (or shed) can ever build beyond K outstanding — the
// classic closed-vs-open contrast with the rows above.
#include "bench_util.h"
#include "fleet/fleet.h"

using namespace acrobat;
using namespace acrobat::bench;

namespace {

// Machine-readable frontier rows (DESIGN.md §9): merged shard counters as
// exact integers, latency/goodput as double context — BENCH_fleet.json (or
// $ACROBAT_BENCH_JSON). Real-time arrival process → context, not golden.
void record_point(CounterJson& json, const std::string& config,
                  const fleet::FleetResult& res) {
  long long triggers = 0, requests = 0;
  for (const serve::ShardReport& s : res.shards) {
    triggers += s.triggers;
    requests += s.requests;
  }
  json.add(config, merged_stats(res.shards),
           {{"requests", requests}, {"triggers", triggers}, {"shed", res.shed}},
           {{"p50_ms", res.latency_ms.p50},
            {"p99_ms", res.latency_ms.p99},
            {"thpt_rps", res.throughput_rps},
            {"goodput", res.goodput}});
}

void print_point(const char* kind, double x, int shards, const fleet::FleetResult& res) {
  std::printf(
      "%-6s %8.0f %6d | %8.3f %8.3f %8.3f | %8.0f %6lld %6.1f | %8.0f %7zu %9.0f\n",
      kind, x, shards, res.latency_ms.p50, res.latency_ms.p95, res.latency_ms.p99,
      res.throughput_rps, res.shed, 100.0 * res.goodput,
      static_cast<double>(res.peak_arena_bytes()) / 1024.0, res.peak_node_table(),
      static_cast<double>(res.peak_persist_bytes()) / 1024.0);
}

double solo_ms_of(const char* name, bool large, int n_inputs) {
  const models::ModelSpec& spec = models::model_by_name(name);
  models::Dataset ds = dataset_for(spec, large, n_inputs);
  harness::Prepared p = harness::prepare(spec, large, passes::PipelineConfig{});
  models::Dataset one;
  one.pool = ds.pool;
  one.tensors = ds.tensors;
  one.inputs.push_back(ds.inputs[0]);
  return time_min_ms([&] { return harness::run_acrobat(p, one, default_opts()); });
}

}  // namespace

int main() {
  const bool large = false;
  const int n_inputs = 24;
  const int n_requests =
      static_cast<int>(std::max<std::int64_t>(2, env_int("ACROBAT_SERVE_REQUESTS", 96)));

  // Calibrate against the mixed solo service time so the sweep straddles
  // capacity on any machine (same discipline as serve_latency).
  const double solo_tree = solo_ms_of("TreeLSTM", large, n_inputs);
  const double solo_birnn = solo_ms_of("BiRNN", large, n_inputs);
  const double solo_ms = 0.5 * (solo_tree + solo_birnn);
  const double base_rps = 1000.0 / std::max(solo_ms, 1e-3);
  const double deadline_ms = deadline_ms_or(solo_ms * 8.0);

  fleet::ModelRegistry reg;
  reg.add(models::model_by_name("TreeLSTM"), large,
          dataset_for(models::model_by_name("TreeLSTM"), large, n_inputs));
  reg.add(models::model_by_name("BiRNN"), large,
          dataset_for(models::model_by_name("BiRNN"), large, n_inputs));
  reg.prepare();

  // 60/40 traffic split; TreeLSTM skews interactive, BiRNN skews batch,
  // with a best-effort remainder on both.
  std::vector<serve::ModelMix> mix = reg.uniform_mix();
  mix[0].weight = 0.6;
  mix[0].p_interactive = 0.6;
  mix[0].p_batch = 0.2;
  mix[1].weight = 0.4;
  mix[1].p_interactive = 0.3;
  mix[1].p_batch = 0.5;

  header("fleet_frontier: multi-model serving, SLO shedding, closed vs open loop",
         "DESIGN.md §8 (fleet serving model)");
  std::printf("models=TreeLSTM+BiRNN/%s  solo=%.3f/%.3fms  requests=%d  "
              "deadlines=%.3f/%.3fms (interactive/batch; best-effort none)\n",
              size_name(large), solo_tree, solo_birnn, n_requests, deadline_ms,
              deadline_ms * 4.0);
  std::printf("%-6s %8s %6s | %8s %8s %8s | %8s %6s %6s | %8s %7s %9s\n", "loop",
              "rate|K", "shards", "p50ms", "p95ms", "p99ms", "thpt", "shed", "good%",
              "arenaKB", "nodes", "persistKB");

  fleet::FleetOptions fo;
  fo.launch_overhead_ns = kLaunchNs;
  fo.policy.base.kind = serve::PolicyKind::kMaxBatch;
  fo.policy.base.max_batch = 8;
  fo.policy.deadline_ns[0] = static_cast<std::int64_t>(deadline_ms * 1e6);
  fo.policy.deadline_ns[1] = static_cast<std::int64_t>(deadline_ms * 4e6);
  fo.policy.deadline_ns[2] = 0;
  // Slack-aware shedding: drop what cannot finish inside its SLO anymore
  // (~2 batched service times), not just what has already blown it.
  fo.policy.est_service_ns = static_cast<std::int64_t>(solo_ms * 2e6);

  CounterJson json;
  fleet::FleetResult overload;  // 1 shard at 6x: the per-class exhibit
  double overload_rate = 0;
  for (const int shards : {1, 2}) {
    for (const double mult : {0.5, 2.0, 6.0}) {
      const double rate = base_rps * mult * shards;
      serve::LoadSpec ls;
      ls.rate_rps = rate;
      ls.num_requests = n_requests;
      ls.seed = 42;
      const std::vector<serve::Request> trace = serve::generate_load(ls, mix);
      fleet::FleetOptions o = fo;
      o.shards = shards;
      fleet::FleetResult res = fleet::serve_fleet(reg, trace, o);
      print_point("open", rate, shards, res);
      char cfg[96];
      std::snprintf(cfg, sizeof cfg, "open/%.1fx/s%d", mult, shards);
      record_point(json, cfg, res);
      if (shards == 1 && mult == 6.0) {
        overload = std::move(res);
        overload_rate = rate;
      }
    }
    std::printf("\n");
  }

  // Class-level view of the overload point: tight-deadline interactive
  // traffic sheds first and keeps its survivors' tail in budget, batch
  // rides its looser SLO, best-effort absorbs the queueing (never shed).
  std::printf("per-class at %.0f rps (open, 1 shard):\n", overload_rate);
  for (int c = 0; c < serve::kNumLatencyClasses; ++c) {
    const fleet::ClassReport& cr = overload.by_class[static_cast<std::size_t>(c)];
    if (cr.requests == 0) continue;
    std::printf("  %-12s n=%4d shed=%4d good%%=%5.1f | p50=%8.3f p95=%8.3f p99.9=%8.3f\n",
                serve::latency_class_name(static_cast<serve::LatencyClass>(c)), cr.requests,
                cr.shed, 100.0 * cr.goodput, cr.latency_ms.p50, cr.latency_ms.p95,
                cr.latency_ms.p999);
  }
  std::printf("\n");

  // Closed loop: K concurrent clients, think time ~ a fraction of the
  // service time, same total request count as one open-loop row.
  for (const int clients : {1, 2, 4, 8, 16}) {
    fleet::ClosedLoopSpec cs;
    cs.clients = clients;
    cs.per_client = std::max(1, n_requests / clients);
    cs.think_mean_ms = solo_ms * 0.25;
    cs.seed = 42;
    fleet::FleetOptions o = fo;
    o.shards = 1;
    const fleet::FleetResult res = fleet::serve_fleet_closed(reg, cs, mix, o);
    print_point("closed", clients, 1, res);
    char cfg[96];
    std::snprintf(cfg, sizeof cfg, "closed/k%d", clients);
    record_point(json, cfg, res);
  }
  json.write("fleet_frontier", "BENCH_fleet.json");

  // Smoke-trace exhibit (ISSUE 7 / DESIGN.md §9): with ACROBAT_TRACE_JSON
  // set, replay a small forced-shed cohort with the tracer on and export
  // Chrome trace-event JSON — open it in Perfetto (README) or validate it
  // with scripts/check_trace.py, which CI runs on exactly this file. The
  // 1ns interactive deadline guarantees shed events; the cohort hold
  // guarantees trigger/batch spans on any machine.
  if (const char* tpath = std::getenv("ACROBAT_TRACE_JSON");
      tpath != nullptr && *tpath != '\0') {
    const int n = 24;
    std::vector<serve::Request> trace;
    for (int i = 0; i < n; ++i) {
      serve::Request r;
      r.id = i;
      r.model_id = i % reg.num_models();
      r.input_index = static_cast<std::size_t>(i / reg.num_models()) % n_inputs;
      r.arrival_ns = 0;
      r.latency_class = i % 3 == 0 ? serve::LatencyClass::kInteractive
                                   : serve::LatencyClass::kBatch;
      trace.push_back(r);
    }
    fleet::FleetOptions o = fo;
    o.policy.deadline_ns = {1, 0, 0};  // interactive blown at arrival → shed
    o.policy.est_service_ns = 0;
    o.policy.shed_grace = 0.0;
    o.policy.base.kind = serve::PolicyKind::kDeadline;
    o.policy.base.min_batch = n;
    o.policy.base.max_admit = n;
    o.policy.base.slo_ns = 10'000'000'000;
    o.policy.base.max_hold_ns = 10'000'000'000;
    o.trace.enabled = true;
    o.trace.slow_threshold_ns = 1;   // capture exemplars too
    o.trace.tick_every_triggers = 1; // and counter tracks
    const fleet::FleetResult res = fleet::serve_fleet(reg, trace, o);
    if (res.trace.write_chrome_json(tpath))
      std::printf("wrote %s (%llu events, %lld shed, %zu ticks)\n", tpath,
                  static_cast<unsigned long long>(res.trace.total_events()), res.shed,
                  res.trace.ticks.size());
    else
      std::fprintf(stderr, "failed to write %s\n", tpath);
  }
  return 0;
}
