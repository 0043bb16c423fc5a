// acrobat/fleet implementation (DESIGN.md §8): merged multi-model modules,
// SLO admission control with shedding, and the open-loop / closed-loop
// client drivers. A fleet shard is the serve layer's shard loop
// (src/shard_core.h) over the registry's merged module: every model's
// fibers share one engine and one trigger cadence, and the FleetPolicy's
// triage turns admission earliest-deadline-first.
#include "fleet/fleet.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "shard_core.h"

namespace acrobat::fleet {
namespace {

using serve::AdmitDecision;
using serve::LatencyClass;
using serve::PolicyCtx;
using serve::Request;
using serve::RequestRecord;
using serve::RequestView;
using serve::Triage;
using serve::Verdict;

[[noreturn]] void config_die(const char* what) {
  std::fprintf(stderr, "acrobat fleet: invalid configuration: %s\n", what);
  std::abort();
}

int class_idx(LatencyClass c) { return static_cast<int>(c); }

// ------------------------------------------------------------- fleet policy

class FleetPolicy final : public serve::BatchPolicy {
 public:
  explicit FleetPolicy(const FleetPolicyConfig& cfg)
      : cfg_(cfg), base_(serve::make_policy(cfg.base)) {}

  AdmitDecision decide(const PolicyCtx& ctx) override { return base_->decide(ctx); }

  Triage triage(const RequestView& v) override {
    Triage t;
    // A decode step's clock is its inter-token gap, not the session's
    // arrival: the deadline restarts at every token, so EDF keeps working
    // mid-stream and a stalled session is cancelled, not ignored.
    if (v.is_step) {
      const std::int64_t td = cfg_.token_deadline_ns;
      if (td <= 0 || v.last_token_ns < 0) return t;
      t.deadline_ns = v.last_token_ns + td;
      const std::int64_t blown_at = t.deadline_ns - cfg_.est_service_ns;
      if (v.now_ns <= blown_at) return t;
      const auto grace =
          static_cast<std::int64_t>(cfg_.shed_grace * static_cast<double>(td));
      t.verdict =
          cfg_.shed && v.now_ns - blown_at >= grace ? Verdict::kShed : Verdict::kDefer;
      return t;
    }
    const std::int64_t d = class_deadline_ns(cfg_, v.latency_class);
    if (d <= 0) return t;  // no SLO: admit, sorted after every deadline class
    t.deadline_ns = v.arrival_ns + d;
    // A request is blown once it can no longer *finish* inside the SLO:
    // the latest useful admission point is deadline - est_service.
    const std::int64_t blown_at = t.deadline_ns - cfg_.est_service_ns;
    if (v.now_ns <= blown_at) return t;  // still viable: EDF admission
    // Blown: deprioritize within the grace window, shed beyond it —
    // running it anyway only pushes *other* requests past their SLO.
    const auto grace = static_cast<std::int64_t>(cfg_.shed_grace * static_cast<double>(d));
    t.verdict = cfg_.shed && v.now_ns - blown_at >= grace ? Verdict::kShed : Verdict::kDefer;
    return t;
  }

  bool triages() const override { return true; }
  const char* name() const override { return "fleet"; }

 private:
  FleetPolicyConfig cfg_;
  std::unique_ptr<serve::BatchPolicy> base_;
};

// ------------------------------------------------------------------ drivers

// Every registry model behind one engine per shard: one trigger cadence,
// node table and recycling arena, and every model's weights, datasets and
// constants in one persistent region. Kernel names are model-prefixed (or
// structurally deduped), so merged kernel ids alias across models only
// where the kernels are genuinely identical.
serve::detail::ShardModule fleet_module(const ModelRegistry& reg) {
  serve::detail::ShardModule m;
  m.compiled = &reg.compiled();
  m.weights = &reg.weights();
  m.cfg = reg.cfg();
  for (const FleetModel& fm : reg.models()) {
    m.entries.push_back(fm.entry.get());
    m.datasets.push_back(&fm.dataset);
  }
  return m;
}

serve::detail::CoreConfig fleet_config(const serve::detail::ShardModule& mod,
                                       const FleetOptions& opts) {
  serve::detail::CoreConfig c = serve::detail::core_config(mod, opts);
  c.make_policy = [&opts] { return make_fleet_policy(opts.policy); };
  // Slow-request exemplars default to the request's own class deadline —
  // "what did the worst SLO-missing request do" — and mid-stream to the
  // token deadline, captured while the session is still live.
  const std::int64_t slow = opts.trace.slow_threshold_ns;
  for (std::size_t k = 0; k < c.slow_ns.size(); ++k)
    c.slow_ns[k] = slow > 0 ? slow : opts.policy.deadline_ns[k];
  c.step_slow_ns = slow > 0 ? slow : opts.policy.token_deadline_ns;
  return c;
}

// Fleet totals on top of the shared ones: shed count, per-class latency,
// and goodput (SLO attainment).
void finalize(FleetResult& res, const std::vector<Request>& trace,
              const FleetPolicyConfig& pc) {
  serve::detail::summarize(res);
  std::array<serve::LatencyHisto, serve::kNumLatencyClasses> class_lat;
  std::array<int, serve::kNumLatencyClasses> met{};
  int met_total = 0;
  for (const RequestRecord& r : res.records) {
    const Request& rq = trace[static_cast<std::size_t>(r.id)];
    const int ci = class_idx(rq.latency_class);
    ClassReport& cr = res.by_class[static_cast<std::size_t>(ci)];
    ++cr.requests;
    if (r.shed) {
      ++cr.shed;
      ++res.shed;
      continue;
    }
    class_lat[static_cast<std::size_t>(ci)].add(r.latency_ms());
    const std::int64_t d = class_deadline_ns(pc, rq.latency_class);
    if (d <= 0 || r.completion_ns - r.arrival_ns <= d) {
      ++met[static_cast<std::size_t>(ci)];
      ++met_total;
    }
  }
  for (int c = 0; c < serve::kNumLatencyClasses; ++c) {
    ClassReport& cr = res.by_class[static_cast<std::size_t>(c)];
    cr.latency_ms = serve::Percentiles::from(class_lat[static_cast<std::size_t>(c)]);
    cr.goodput = cr.requests > 0
                     ? static_cast<double>(met[static_cast<std::size_t>(c)]) / cr.requests
                     : 1.0;
  }
  res.goodput = res.records.empty()
                    ? 1.0
                    : static_cast<double>(met_total) / static_cast<double>(res.records.size());
}

}  // namespace

// ----------------------------------------------------------------- registry

int ModelRegistry::add(const models::ModelSpec& spec, bool large, models::Dataset ds) {
  if (prepared_) config_die("ModelRegistry::add after prepare()");
  if (ds.inputs.empty()) config_die("ModelRegistry::add with an empty dataset");
  const std::size_t w0 = decls_.size();
  models::BuildCtx bctx{compiled_.program, compiled_.module.registry, cfg_, large, decls_};
  const int entry_idx = spec.build(bctx);

  FleetModel fm;
  fm.name = spec.name;
  fm.large = large;
  fm.dataset = std::move(ds);
  fm.entry = compiled_.program.funcs[static_cast<std::size_t>(entry_idx)];
  fm.entry_index = entry_idx;
  fm.weight_begin = w0;
  fm.weight_end = decls_.size();
  // This model's weights, under its own solo seed: bitwise-identical to a
  // solo harness::prepare, which is what the parity tests cross-check.
  const std::vector<models::WeightDecl> slice(decls_.begin() + static_cast<std::ptrdiff_t>(w0),
                                              decls_.end());
  harness::materialize_weights(spec.name, large, slice, weights_);
  models_.push_back(std::move(fm));
  return static_cast<int>(models_.size()) - 1;
}

void ModelRegistry::prepare() {
  if (prepared_) config_die("ModelRegistry::prepare called twice");
  if (models_.empty()) config_die("ModelRegistry::prepare with no models");
  // finalize propagates may_sync over the whole merged program; the nominal
  // main it designates is unused — shards enter through per-model entries.
  ir::finalize(compiled_.program, models_.front().entry_index);
  harness::apply_default_schedules(compiled_.module.registry);
  prepared_ = true;
}

std::vector<serve::ModelMix> ModelRegistry::uniform_mix() const {
  std::vector<serve::ModelMix> mix;
  mix.reserve(models_.size());
  for (std::size_t m = 0; m < models_.size(); ++m)
    mix.push_back(serve::ModelMix{static_cast<int>(m), 1.0, models_[m].dataset.inputs.size(),
                                  1.0, 0.0});
  return mix;
}

// ------------------------------------------------------------------ policy

std::int64_t class_deadline_ns(const FleetPolicyConfig& cfg, LatencyClass c) {
  return cfg.deadline_ns[static_cast<std::size_t>(class_idx(c))];
}

std::unique_ptr<serve::BatchPolicy> make_fleet_policy(const FleetPolicyConfig& cfg) {
  return std::make_unique<FleetPolicy>(cfg);
}

// ---------------------------------------------------------------- validation

void validate(const FleetOptions& opts) {
  if (opts.shards <= 0) config_die("FleetOptions.shards must be > 0");
  if (opts.launch_overhead_ns < 0)
    config_die("FleetOptions.launch_overhead_ns must be >= 0");
  if (opts.policy.shed_grace < 0) config_die("FleetPolicyConfig.shed_grace must be >= 0");
  if (opts.policy.est_service_ns < 0)
    config_die("FleetPolicyConfig.est_service_ns must be >= 0");
  for (const auto& aff : opts.class_affinity)
    for (const int s : aff)
      if (s < 0 || s >= opts.shards)
        config_die("FleetOptions.class_affinity names a shard out of range");
}

void validate(const ClosedLoopSpec& spec) {
  if (spec.clients <= 0) config_die("ClosedLoopSpec.clients must be > 0");
  if (spec.per_client <= 0) config_die("ClosedLoopSpec.per_client must be > 0");
  if (spec.think_mean_ms < 0) config_die("ClosedLoopSpec.think_mean_ms must be >= 0");
}

// ----------------------------------------------------------------- open loop

FleetResult serve_fleet(const ModelRegistry& reg, const std::vector<Request>& trace,
                        const FleetOptions& opts) {
  if (!reg.prepared()) config_die("serve_fleet before ModelRegistry::prepare()");
  validate(opts);
  const serve::detail::ShardModule mod = fleet_module(reg);
  serve::detail::check_trace(mod, trace, /*sorted=*/true);

  FleetResult res;
  serve::detail::InprocRun run(opts.shards, fleet_config(mod, opts), opts.trace, trace,
                               res.records);
  run.replay(opts.dispatch, opts.class_affinity);  // arrivals never wait (§7)
  res.shards = run.finish(res.trace);
  finalize(res, trace, opts.policy);
  return res;
}

// --------------------------------------------------------------- closed loop

std::vector<Request> generate_closed_load(const ClosedLoopSpec& spec,
                                          const std::vector<serve::ModelMix>& mix) {
  validate(spec);
  if (mix.empty()) config_die("generate_closed_load: empty model mix");
  // Reuse the open-loop generator for the per-request content draws (model,
  // input, class come from the same seeded stream contract), then strip the
  // arrival process: issue times exist only once the serve loop runs.
  serve::LoadSpec ls;
  ls.kind = serve::ArrivalKind::kPoisson;
  ls.rate_rps = 1.0;  // arrival times discarded below
  ls.num_requests = spec.clients * spec.per_client;
  ls.seed = spec.seed ^ 0xc105edull;
  std::vector<Request> trace = serve::generate_load(ls, mix);
  for (Request& r : trace) r.arrival_ns = 0;
  return trace;
}

FleetResult serve_fleet_closed(const ModelRegistry& reg, const ClosedLoopSpec& spec,
                               const std::vector<serve::ModelMix>& mix,
                               const FleetOptions& opts) {
  if (!reg.prepared()) config_die("serve_fleet_closed before ModelRegistry::prepare()");
  validate(opts);
  validate(spec);
  std::vector<Request> trace = generate_closed_load(spec, mix);
  const serve::detail::ShardModule mod = fleet_module(reg);
  serve::detail::check_trace(mod, trace, /*sorted=*/false);

  FleetResult res;
  serve::detail::InprocRun run(opts.shards, fleet_config(mod, opts), opts.trace, trace,
                               res.records);

  // K logical clients: issue → wait for completion (via the shard outbox)
  // → think → issue the next. Offered load adapts to service rate, so the
  // queue can never build beyond K outstanding requests — the structural
  // contrast with the open-loop frontier.
  const int total = spec.clients * spec.per_client;
  std::vector<int> next_k(static_cast<std::size_t>(spec.clients), 0);
  std::vector<char> waiting(static_cast<std::size_t>(spec.clients), 0);
  std::vector<std::int64_t> ready_at(static_cast<std::size_t>(spec.clients), 0);
  std::vector<Rng> think_rng;
  think_rng.reserve(static_cast<std::size_t>(spec.clients));
  for (int c = 0; c < spec.clients; ++c)
    think_rng.emplace_back(spec.seed ^ (0x7417c9ull + 0x9e3779b97f4a7c15ull *
                                                          static_cast<std::uint64_t>(c + 1)));

  int completed = 0;
  while (completed < total) {
    int id;
    while (run.pop_finished(id)) {
      ++completed;
      const std::size_t c = static_cast<std::size_t>(id / spec.per_client);
      waiting[c] = 0;
      std::int64_t think = 0;
      if (spec.think_mean_ms > 0)
        think = serve::detail::exp_gap_ns(think_rng[c], 1000.0 / spec.think_mean_ms);
      ready_at[c] = run.now() + think;
    }
    for (int c = 0; c < spec.clients; ++c) {
      const std::size_t ci = static_cast<std::size_t>(c);
      if (waiting[ci] != 0 || next_k[ci] >= spec.per_client) continue;
      if (run.now() < ready_at[ci]) continue;
      const int rid = c * spec.per_client + next_k[ci]++;
      Request& rq = trace[static_cast<std::size_t>(rid)];
      rq.arrival_ns = run.now();  // issue time IS the arrival in a closed loop
      waiting[ci] = 1;
      run.dispatch(rid, run.route(rq, opts.dispatch, opts.class_affinity));
    }
    run.drain_ticks();
    serve::detail::relax();
  }
  res.shards = run.finish(res.trace);
  finalize(res, trace, opts.policy);
  return res;
}

}  // namespace acrobat::fleet
