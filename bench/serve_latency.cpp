// serve_latency: the latency-throughput frontier of cross-request
// continuous batching (DESIGN.md §7).
//
// An open-loop Poisson load generator replays a seeded request trace
// against the serving layer while we sweep arrival rate x batching policy
// x shard count. Expected shape: below capacity all policies sit near the
// solo latency; past capacity the greedy p99 blows up with queueing while
// max-batch bounds trigger width (throughput cap, flatter tail) and the
// SLO-deadline policy trades a little p50 for batch width. Two shards move
// the knee to ~2x the rate. A burst block shows tail inflation at equal
// mean rate. Rates are chosen relative to the measured single-request
// service time, so the sweep straddles capacity on any machine.
#include "bench_util.h"
#include "serve/server.h"

using namespace acrobat;
using namespace acrobat::bench;

namespace {

// Machine-readable frontier rows (DESIGN.md §9): every printed point also
// lands in BENCH_serve.json (or $ACROBAT_BENCH_JSON) with the merged shard
// counters as exact integers and the latency columns as double extras.
// Unlike BENCH_engine.json these rows ride a real-time arrival process, so
// they are context, not golden-diffed.
void record_point(CounterJson& json, const std::string& config,
                  const serve::ServeResult& res, double deadline_ms) {
  long long triggers = 0, requests = 0;
  for (const serve::ShardReport& s : res.shards) {
    triggers += s.triggers;
    requests += s.requests;
  }
  json.add(config, merged_stats(res.shards), {{"requests", requests}, {"triggers", triggers}},
           {{"p50_ms", res.latency_ms.p50},
            {"p99_ms", res.latency_ms.p99},
            {"thpt_rps", res.throughput_rps},
            {"good_pct", 100.0 * res.latency_ms.attainment(deadline_ms)}});
}

void print_point(double rate, const char* policy, int shards,
                 const serve::ServeResult& res, double deadline_ms) {
  // arenaKB/nodes: worst shard's arena high-water mark and node-table size —
  // with epoch recycling both plateau at peak concurrency, so the frontier
  // shows memory alongside the tail (DESIGN.md §7 "Recycling"). good% is
  // the fraction of requests under the SLO deadline (ACROBAT_SERVE_DEADLINE_MS
  // or 8x the solo service time): past the capacity knee it collapses much
  // faster than the median grows — the tail is what blows the SLO.
  std::printf("%8.0f %-10s %6d | %8.3f %8.3f %8.3f %8.3f | %8.0f %6.1f %9lld "
              "| %8.0f %7zu\n",
              rate, policy, shards, res.latency_ms.p50, res.latency_ms.p95,
              res.latency_ms.p99, res.latency_ms.mean, res.throughput_rps,
              100.0 * res.latency_ms.attainment(deadline_ms), res.total_launches(),
              static_cast<double>(res.peak_arena_bytes()) / 1024.0,
              res.peak_node_table());
}

}  // namespace

int main() {
  const models::ModelSpec& spec = models::model_by_name("TreeLSTM");
  const bool large = false;
  const int n_inputs = 24;
  const models::Dataset ds = dataset_for(spec, large, n_inputs);
  harness::Prepared p = harness::prepare(spec, large, passes::PipelineConfig{});

  const int n_requests =
      static_cast<int>(std::max<std::int64_t>(1, env_int("ACROBAT_SERVE_REQUESTS", 96)));

  // Calibrate the sweep: solo service time sets the capacity scale.
  models::Dataset one;
  one.pool = ds.pool;
  one.tensors = ds.tensors;
  one.inputs.push_back(ds.inputs[0]);
  const double solo_ms =
      time_min_ms([&] { return harness::run_acrobat(p, one, default_opts()); });
  const double base_rps = 1000.0 / std::max(solo_ms, 1e-3);

  const double deadline_ms = deadline_ms_or(solo_ms * 8.0);

  header("serve_latency: continuous-batching latency-throughput frontier",
         "DESIGN.md §7 (serving model)");
  std::printf("model=%s/%s  solo=%.3fms (~%.0f rps/shard solo)  requests=%d  "
              "deadline=%.3fms\n",
              spec.name.c_str(), size_name(large), solo_ms, base_rps, n_requests,
              deadline_ms);
  std::printf("%8s %-10s %6s | %8s %8s %8s %8s | %8s %6s %9s | %8s %7s\n",
              "rate", "policy", "shards", "p50ms", "p95ms", "p99ms", "mean",
              "thpt", "good%", "launches", "arenaKB", "nodes");

  CounterJson json;
  std::vector<serve::PolicyConfig> policies(3);
  policies[0].kind = serve::PolicyKind::kGreedy;
  policies[1].kind = serve::PolicyKind::kMaxBatch;
  policies[1].max_batch = 8;
  policies[2].kind = serve::PolicyKind::kDeadline;
  policies[2].min_batch = 4;
  policies[2].slo_ns = static_cast<std::int64_t>(solo_ms * 8e6);
  policies[2].max_hold_ns = static_cast<std::int64_t>(solo_ms * 0.5e6);

  for (const int shards : {1, 2}) {
    for (const double mult : {0.5, 2.0, 6.0}) {
      const double rate = base_rps * mult * shards;
      for (const serve::PolicyConfig& pc : policies) {
        serve::LoadSpec ls;
        ls.kind = serve::ArrivalKind::kPoisson;
        ls.rate_rps = rate;
        ls.num_requests = n_requests;
        ls.seed = 42;
        const std::vector<serve::Request> trace =
            serve::generate_load(ls, ds.inputs.size());
        serve::ServeOptions so;
        so.shards = shards;
        so.policy = pc;
        so.launch_overhead_ns = kLaunchNs;
        const serve::ServeResult res = serve::serve(p, ds, trace, so);
        print_point(rate, serve::policy_name(pc.kind), shards, res, deadline_ms);
        char cfg[96];
        std::snprintf(cfg, sizeof cfg, "poisson/%.1fx/%s/s%d", mult,
                      serve::policy_name(pc.kind), shards);
        record_point(json, cfg, res, deadline_ms);
      }
    }
    std::printf("\n");
  }

  std::printf("burst arrivals (mean rate 2x capacity, bursts of 8):\n");
  for (const serve::PolicyConfig& pc : policies) {
    serve::LoadSpec ls;
    ls.kind = serve::ArrivalKind::kBurst;
    ls.burst_size = 8;
    ls.rate_rps = base_rps * 2.0;
    ls.num_requests = n_requests;
    ls.seed = 42;
    const std::vector<serve::Request> trace =
        serve::generate_load(ls, ds.inputs.size());
    serve::ServeOptions so;
    so.policy = pc;
    so.launch_overhead_ns = kLaunchNs;
    const serve::ServeResult res = serve::serve(p, ds, trace, so);
    print_point(ls.rate_rps, serve::policy_name(pc.kind), 1, res, deadline_ms);
    record_point(json, std::string("burst/2.0x/") + serve::policy_name(pc.kind), res,
                 deadline_ms);
  }
  json.write("serve_latency", "BENCH_serve.json");
  return 0;
}
