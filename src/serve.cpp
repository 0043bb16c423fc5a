#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "shard_core.h"
#include "support/rng.h"

namespace acrobat::serve {
namespace {

using detail::exp_gap_ns;
using detail::uniform01;

// Loud config validation: fprintf + abort (not assert) so a nonsense sweep
// fails identically in Release and Debug, and the death tests in
// tests/test_serve.cpp can cover it in either build type.
[[noreturn]] void config_die(const char* what) {
  std::fprintf(stderr, "acrobat serve: invalid configuration: %s\n", what);
  std::abort();
}

// ------------------------------------------------------------------ policies

class GreedyPolicy final : public BatchPolicy {
 public:
  AdmitDecision decide(const PolicyCtx&) override { return AdmitDecision{}; }
  const char* name() const override { return policy_name(PolicyKind::kGreedy); }
};

class MaxBatchPolicy final : public BatchPolicy {
 public:
  explicit MaxBatchPolicy(std::size_t max_batch) : max_batch_(max_batch) {}
  AdmitDecision decide(const PolicyCtx& ctx) override {
    AdmitDecision d;
    d.max_admit = ctx.live >= max_batch_ ? 0 : max_batch_ - ctx.live;
    return d;
  }
  const char* name() const override { return policy_name(PolicyKind::kMaxBatch); }

 private:
  std::size_t max_batch_;
};

class DeadlinePolicy final : public BatchPolicy {
 public:
  explicit DeadlinePolicy(const PolicyConfig& cfg) : cfg_(cfg) {}
  AdmitDecision decide(const PolicyCtx& ctx) override {
    AdmitDecision d;  // admission itself is greedy unless capped
    if (cfg_.max_admit > 0 && cfg_.decode_admit > 0) {
      // Decode-aware split (policy.h): the width budget gates *prefill*
      // admissions against non-decode live sessions only, while parked
      // decode steps re-admit in chunks of decode_admit per trigger window.
      // At overload this keeps trigger width available for new arrivals —
      // TTFT stays flat instead of spiking behind a wall of decode steps.
      const std::size_t prefill_live = ctx.live - ctx.live_decode;
      d.max_admit =
          prefill_live >= cfg_.max_admit ? 0 : cfg_.max_admit - prefill_live;
      d.max_step_admit = cfg_.decode_admit;
    } else if (cfg_.max_admit > 0) {
      d.max_admit = ctx.live >= cfg_.max_admit ? 0 : cfg_.max_admit - ctx.live;
    }
    // Batch-forming pause: with a small in-flight pool, hold the trigger for
    // future arrivals — but never past the oldest request's SLO deadline.
    if (ctx.live > 0 && ctx.live + ctx.queued < cfg_.min_batch && ctx.inbox_open)
      d.hold_until_ns = std::min(ctx.oldest_live_arrival_ns + cfg_.slo_ns,
                                 ctx.now_ns + cfg_.max_hold_ns);
    return d;
  }
  const char* name() const override { return policy_name(PolicyKind::kDeadline); }

 private:
  PolicyConfig cfg_;
};

}  // namespace

const char* latency_class_name(LatencyClass c) {
  switch (c) {
    case LatencyClass::kInteractive: return "interactive";
    case LatencyClass::kBatch: return "batch";
    case LatencyClass::kBestEffort: return "best-effort";
  }
  return "?";
}

void validate(const LoadSpec& spec) {
  if (!(spec.rate_rps > 0) || !std::isfinite(spec.rate_rps))
    config_die("LoadSpec.rate_rps must be a positive finite rate");
  if (spec.num_requests <= 0) config_die("LoadSpec.num_requests must be > 0");
  if (spec.kind == ArrivalKind::kBurst && spec.burst_size <= 0)
    config_die("LoadSpec.burst_size must be > 0 for burst arrivals");
}

void validate(const ServeOptions& opts) {
  if (opts.shards <= 0) config_die("ServeOptions.shards must be > 0");
  if (opts.launch_overhead_ns < 0)
    config_die("ServeOptions.launch_overhead_ns must be >= 0");
}

const char* policy_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kGreedy: return "greedy";
    case PolicyKind::kMaxBatch: return "max-batch";
    case PolicyKind::kDeadline: return "deadline";
  }
  return "?";
}

std::unique_ptr<BatchPolicy> make_policy(const PolicyConfig& cfg) {
  switch (cfg.kind) {
    case PolicyKind::kGreedy: return std::make_unique<GreedyPolicy>();
    case PolicyKind::kMaxBatch: return std::make_unique<MaxBatchPolicy>(cfg.max_batch);
    case PolicyKind::kDeadline: return std::make_unique<DeadlinePolicy>(cfg);
  }
  return std::make_unique<GreedyPolicy>();
}

std::vector<Request> generate_load(const LoadSpec& spec, std::size_t num_inputs) {
  return generate_load(spec, {ModelMix{0, 1.0, num_inputs, 1.0, 0.0}});
}

std::vector<Request> generate_load(const LoadSpec& spec, const std::vector<ModelMix>& mix) {
  validate(spec);
  if (mix.empty()) config_die("generate_load: empty model mix");
  double total_weight = 0;
  for (const ModelMix& m : mix) {
    if (m.num_inputs == 0) config_die("generate_load: mix entry with no inputs");
    if (!(m.weight > 0)) config_die("generate_load: mix weights must be > 0");
    if (m.p_interactive < 0 || m.p_batch < 0 || m.p_interactive + m.p_batch > 1.0 + 1e-12)
      config_die("generate_load: class probabilities must be a sub-distribution");
    total_weight += m.weight;
  }

  // All draws come from this one stream in a fixed per-request order
  // (arrival gap, model, input, class), so the trace is a pure function of
  // (spec, mix) — identical across runs and across any serving config.
  // Degenerate draws are skipped (not consumed), so a single all-
  // interactive entry reproduces the legacy single-model stream exactly.
  Rng rng(spec.seed ^ 0x10adull);
  const auto draw_request = [&](int id, std::int64_t t_ns) {
    Request r;
    r.id = id;
    r.arrival_ns = t_ns;
    std::size_t pick = 0;
    if (mix.size() > 1) {
      const double u = uniform01(rng) * total_weight;
      double cum = 0;
      for (std::size_t i = 0; i < mix.size(); ++i) {
        cum += mix[i].weight;
        if (u <= cum) {
          pick = i;
          break;
        }
      }
    }
    const ModelMix& m = mix[pick];
    r.model_id = m.model_id;
    r.input_index =
        static_cast<std::size_t>(rng.uniform_int(static_cast<int>(m.num_inputs)));
    if (m.p_interactive < 1.0) {
      const double u = uniform01(rng);
      r.latency_class = u <= m.p_interactive ? LatencyClass::kInteractive
                        : u <= m.p_interactive + m.p_batch ? LatencyClass::kBatch
                                                           : LatencyClass::kBestEffort;
    }
    return r;
  };

  std::vector<Request> trace;
  trace.reserve(static_cast<std::size_t>(spec.num_requests));
  std::int64_t t_ns = 0;
  int id = 0;
  while (id < spec.num_requests) {
    if (spec.kind == ArrivalKind::kPoisson) {
      t_ns += exp_gap_ns(rng, spec.rate_rps);
      trace.push_back(draw_request(id, t_ns));
      ++id;
    } else {
      // Bursts arrive as a Poisson process at rate/burst_size, so the mean
      // request rate still matches rate_rps.
      t_ns += exp_gap_ns(rng, spec.rate_rps / spec.burst_size);
      for (int b = 0; b < spec.burst_size && id < spec.num_requests; ++b, ++id)
        trace.push_back(draw_request(id, t_ns));
    }
  }
  return trace;
}

ServeResult serve(const harness::Prepared& p, const models::Dataset& ds,
                  const std::vector<Request>& trace, const ServeOptions& opts) {
  validate(opts);
  const detail::ShardModule mod = detail::solo_module(p, ds);
  detail::check_trace(mod, trace, /*sorted=*/true);
  detail::CoreConfig cc = detail::core_config(mod, opts);
  cc.make_policy = [&opts] { return make_policy(opts.policy); };
  // Slow-request exemplars: the explicit threshold, else a deadline
  // policy's SLO — for end-to-end latency and inter-token gaps alike.
  std::int64_t slow_ns = opts.trace.slow_threshold_ns;
  if (slow_ns <= 0 && opts.policy.kind == PolicyKind::kDeadline) slow_ns = opts.policy.slo_ns;
  cc.slow_ns.fill(slow_ns);
  cc.step_slow_ns = slow_ns;

  ServeResult res;
  detail::InprocRun run(opts.shards, cc, opts.trace, trace, res.records);
  run.replay(opts.dispatch, detail::ClassAffinity{});
  res.shards = run.finish(res.trace);
  detail::summarize(res);
  return res;
}

}  // namespace acrobat::serve
