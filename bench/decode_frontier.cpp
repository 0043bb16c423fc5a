// decode_frontier: the token-level continuous-batching frontier (DESIGN.md
// §7, iteration-level scheduling).
//
// The Decoder model emits one token per engine trigger, re-joining the
// admission cycle at every token boundary, so a single serve run mixes
// decode steps from old sessions with prefills from new arrivals in the
// same batch. The axes that matter for a generative workload differ from
// one-shot serving: throughput is tokens/sec, not requests/sec, and the
// latency split is TTFT (queueing + first step — what admission policy
// controls) vs inter-token gap (steady-state batching cadence — what
// trigger width controls). Expected shape: below capacity TTFT p50 sits
// near the solo first-token time and the inter-token p99 near the solo
// step time; past capacity greedy TTFT blows up with queue depth while
// max-batch caps concurrent sessions (TTFT grows, inter-token stays flat —
// a parked session's steps are always re-admitted ahead of arrivals).
#include "bench_util.h"
#include "models/specs.h"
#include "serve/server.h"

using namespace acrobat;
using namespace acrobat::bench;

namespace {

// Rows land in BENCH_decode.json (or $ACROBAT_BENCH_JSON). Like
// serve_latency these ride a real-time arrival process: the token counters
// are exact for a fixed trace but the latency columns are context, so the
// file is not golden-diffed (the deterministic decode row lives in
// ablation_scheduler's BENCH_engine.json instead).
void record_point(CounterJson& json, const std::string& config,
                  const serve::ServeResult& res) {
  long long triggers = 0, requests = 0;
  for (const serve::ShardReport& s : res.shards) {
    triggers += s.triggers;
    requests += s.requests;
  }
  json.add(config, merged_stats(res.shards),
           {{"requests", requests},
            {"triggers", triggers},
            {"tokens", res.tokens},
            {"cancelled", res.cancelled}},
           {{"tokens_per_sec", res.tokens_per_sec},
            {"ttft_p50_ms", res.ttft_ms.p50},
            {"ttft_p99_ms", res.ttft_ms.p99},
            {"itl_p50_ms", res.inter_token_ms.p50},
            {"itl_p99_ms", res.inter_token_ms.p99},
            {"e2e_p99_ms", res.latency_ms.p99}});
}

void print_point(double rate, const char* policy, const serve::ServeResult& res) {
  // sess_peak: the worst shard's session-buffer high-water mark — with
  // retire-on-reap it tracks peak concurrent sessions, not token count, so
  // the frontier shows the memory plateau next to the tail.
  std::size_t sess_peak = 0;
  for (const serve::ShardReport& s : res.shards)
    sess_peak = std::max(sess_peak, s.mem.session_buffers_peak);
  std::printf("%8.0f %-10s | %9.0f %8.3f %8.3f %8.3f %8.3f | %8.3f %7lld %4d "
              "| %9zu\n",
              rate, policy, res.tokens_per_sec, res.ttft_ms.p50, res.ttft_ms.p99,
              res.inter_token_ms.p50, res.inter_token_ms.p99, res.latency_ms.p99,
              res.tokens, res.cancelled, sess_peak);
}

}  // namespace

int main() {
  const models::ModelSpec& spec = models::model_by_name("Decoder");
  const bool large = false;
  const int n_inputs = 24;
  const models::Dataset ds = dataset_for(spec, large, n_inputs);
  harness::Prepared p = harness::prepare(spec, large, passes::PipelineConfig{});

  const int n_requests =
      static_cast<int>(std::max<std::int64_t>(1, env_int("ACROBAT_SERVE_REQUESTS", 64)));

  // Calibrate: a solo session's full decode sets the per-request service
  // time (the capacity scale for session arrival rates).
  models::Dataset one;
  one.pool = ds.pool;
  one.tensors = ds.tensors;
  one.inputs.push_back(ds.inputs[0]);
  const double solo_ms =
      time_min_ms([&] { return harness::run_acrobat(p, one, default_opts()); });
  const double base_rps = 1000.0 / std::max(solo_ms, 1e-3);

  header("decode_frontier: token-level continuous batching (tokens/sec vs "
         "TTFT / inter-token latency)",
         "DESIGN.md §7 (iteration-level scheduling)");
  std::printf("model=%s/%s  solo decode=%.3fms/session (~%.0f sessions/sec "
              "solo)  requests=%d  cap=%d tokens\n",
              spec.name.c_str(), size_name(large), solo_ms, base_rps, n_requests,
              models::decoder_max_tokens(large));
  std::printf("%8s %-10s | %9s %8s %8s %8s %8s | %8s %7s %4s | %9s\n",
              "rate", "policy", "tok/s", "ttft p50", "ttft p99", "itl p50",
              "itl p99", "e2e p99", "tokens", "canc", "sess_peak");

  CounterJson json;
  // The deadline policy rides three ways: uncapped, width-capped
  // (max_admit bounds concurrent sessions — TTFT spikes at overload as
  // arrivals queue behind a full pool), and decode-split (same cap but it
  // gates only prefills, with decode steps metered at decode_admit per
  // trigger window — the before/after column for flat TTFT at overload).
  struct Entry {
    const char* label;
    serve::PolicyConfig pc;
  };
  std::vector<Entry> policies(5);
  policies[0].label = "greedy";
  policies[0].pc.kind = serve::PolicyKind::kGreedy;
  policies[1].label = "max-batch";
  policies[1].pc.kind = serve::PolicyKind::kMaxBatch;
  policies[1].pc.max_batch = 8;
  policies[2].label = "deadline";
  policies[2].pc.kind = serve::PolicyKind::kDeadline;
  policies[2].pc.min_batch = 4;
  policies[2].pc.slo_ns = static_cast<std::int64_t>(solo_ms * 8e6);
  policies[2].pc.max_hold_ns = static_cast<std::int64_t>(solo_ms * 0.5e6);
  policies[3].label = "deadline-cap";
  policies[3].pc = policies[2].pc;
  policies[3].pc.max_admit = 8;
  policies[4].label = "deadline-split";
  policies[4].pc = policies[3].pc;
  policies[4].pc.decode_admit = 4;

  for (const double mult : {0.5, 2.0, 6.0}) {
    const double rate = base_rps * mult;
    for (const Entry& entry : policies) {
      const serve::PolicyConfig& pc = entry.pc;
      serve::LoadSpec ls;
      ls.kind = serve::ArrivalKind::kPoisson;
      ls.rate_rps = rate;
      ls.num_requests = n_requests;
      ls.seed = 42;
      const std::vector<serve::Request> trace =
          serve::generate_load(ls, ds.inputs.size());
      serve::ServeOptions so;
      so.policy = pc;
      so.launch_overhead_ns = kLaunchNs;
      const serve::ServeResult res = serve::serve(p, ds, trace, so);
      print_point(rate, entry.label, res);
      char cfg[96];
      std::snprintf(cfg, sizeof cfg, "poisson/%.1fx/%s", mult, entry.label);
      record_point(json, cfg, res);
    }
    std::printf("\n");
  }
  json.write("decode_frontier", "BENCH_decode.json");
  return 0;
}
