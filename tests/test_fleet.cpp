// Fleet-layer acceptance (ISSUE 4 / DESIGN.md §8):
//  (a) a 2-model fleet run — models merged into one module, every
//      model's fibers on one engine per shard — is bitwise identical, per
//      request, to per-model solo serve runs;
//  (b) SLO shedding kicks in only past saturation: zero sheds at low rate,
//      sheds at overload, and goodput with shedding is no worse than the
//      latency-only attainment of the same overload without shedding;
//  (c) closed-loop mode completes all K×M requests, with deterministic
//      seeded content and per-client issue ordering;
//  (d) a mixed-model soak keeps per-shard node slots, arena pages, and the
//      per-model persistent region plateaued — recycling holds across
//      models sharing one engine (ACROBAT_SERVE_REQUESTS overrides the
//      trace length; default 5000).
// Plus units: fleet policy triage, class-affinity routing, and the trace
// contract's aborts.
#include "fleet/fleet.h"
#include "test_util.h"

#include <cstdio>
#include <cstdlib>
#include <map>

using namespace acrobat;

namespace {

using acrobat::test::env_requests;

models::Dataset dataset_of(const char* name, int batch, std::uint64_t seed) {
  return models::model_by_name(name).build_dataset(false, batch, seed);
}

// A registry over TreeLSTM (recursive) + BiRNN (iterative, phase-tagged):
// two control-flow classes sharing one merged module.
fleet::ModelRegistry two_model_registry() {
  fleet::ModelRegistry reg;
  reg.add(models::model_by_name("TreeLSTM"), false, dataset_of("TreeLSTM", 6, 11));
  reg.add(models::model_by_name("BiRNN"), false, dataset_of("BiRNN", 6, 19));
  reg.prepare();
  return reg;
}

// No-SLO policy: FIFO admission, nothing deprioritized or shed — parity
// and soak runs must not depend on deadline timing.
fleet::FleetPolicyConfig no_slo_policy() {
  fleet::FleetPolicyConfig pc;
  pc.deadline_ns = {0, 0, 0};
  return pc;
}

// Deterministic mixed trace: models interleaved, fixed arrival gaps.
std::vector<serve::Request> interleaved_trace(int n, const fleet::ModelRegistry& reg,
                                              std::int64_t gap_ns) {
  std::vector<serve::Request> trace;
  for (int i = 0; i < n; ++i) {
    serve::Request r;
    r.id = i;
    r.model_id = i % reg.num_models();
    r.input_index = static_cast<std::size_t>(i / reg.num_models()) %
                    reg.model(r.model_id).dataset.inputs.size();
    r.arrival_ns = static_cast<std::int64_t>(i) * gap_ns;
    trace.push_back(r);
  }
  return trace;
}

// (a) Sharing one engine across models is observation-free: each request's
// outputs are bitwise identical to a per-model solo serve run.
void test_fleet_parity_with_solo_serve() {
  fleet::ModelRegistry reg = two_model_registry();
  const int n = 12;
  const auto trace = interleaved_trace(n, reg, 20'000);

  // Per-model solo serve baselines: same model spec, same dataset seeds,
  // prepared stand-alone (harness::prepare).
  std::map<int, std::vector<std::vector<float>>> solo;  // model -> outputs in trace order
  for (int m = 0; m < reg.num_models(); ++m) {
    const models::ModelSpec& spec = models::model_by_name(reg.model(m).name);
    const models::Dataset ds = dataset_of(reg.model(m).name.c_str(), 6, m == 0 ? 11 : 19);
    harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});
    std::vector<serve::Request> mtrace;
    for (const serve::Request& r : trace) {
      if (r.model_id != m) continue;
      serve::Request s;
      s.id = static_cast<int>(mtrace.size());
      s.input_index = r.input_index;
      s.arrival_ns = static_cast<std::int64_t>(mtrace.size()) * 20'000;
      mtrace.push_back(s);
    }
    serve::ServeOptions so;
    so.collect_outputs = true;
    const serve::ServeResult sres = serve::serve(p, ds, mtrace, so);
    for (const serve::RequestRecord& rec : sres.records)
      solo[m].push_back(rec.output);
  }

  fleet::FleetOptions fo;
  fo.collect_outputs = true;
  fo.policy = no_slo_policy();
  const fleet::FleetResult res = fleet::serve_fleet(reg, trace, fo);

  CHECK_EQ(res.records.size(), n);
  CHECK_EQ(res.shed, 0);
  std::map<int, std::size_t> seen;  // model -> next solo index
  for (const serve::RequestRecord& rec : res.records) {
    CHECK(!rec.shed);
    CHECK(rec.completion_ns >= rec.arrival_ns);
    const int m = trace[static_cast<std::size_t>(rec.id)].model_id;
    const std::vector<float>& want = solo[m][seen[m]++];
    CHECK_EQ(rec.output.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
      CHECK(rec.output[i] == want[i]);  // bitwise, not approximate
  }
  // One engine per shard, so both models' constants share one persistent
  // region.
  CHECK_EQ(res.shards.size(), 1);
  CHECK(res.shards[0].stats.kernel_launches > 0);
}

// Shape-keyed kernel dedupe (ROADMAP item / ISSUE 5): kernels that agree on
// (op, attr, arity, representative shapes) but were registered under
// different model prefixes — BiRNN's fwd/bwd GRU cells, the two models'
// zero-state constants — collapse into one merged-registry entry, so their
// ops land in the same (depth, kernel) buckets and share launches. The
// deduped fleet must launch STRICTLY fewer kernels than the name-keyed one
// on the same trace, with bitwise-identical per-request outputs.
// Determinism setup (cf. test_serve's recycling parity): all arrivals at
// t=0 and a deadline policy holding the first trigger until the whole
// cohort is admitted, so batch composition is fixed across both runs.
void test_registry_kernel_dedupe() {
  const int n = 12;
  const auto build = [&](bool dedupe) {
    fleet::ModelRegistry reg{passes::PipelineConfig{}, dedupe};
    reg.add(models::model_by_name("TreeLSTM"), false, dataset_of("TreeLSTM", 6, 11));
    reg.add(models::model_by_name("BiRNN"), false, dataset_of("BiRNN", 6, 19));
    reg.prepare();
    return reg;
  };
  const fleet::ModelRegistry on = build(true);
  const fleet::ModelRegistry off = build(false);
  CHECK(on.compiled().module.registry.structural_dupes() > 0);
  CHECK_EQ(off.compiled().module.registry.structural_dupes(), 0);
  CHECK(on.compiled().module.registry.num_kernels() <
        off.compiled().module.registry.num_kernels());

  const auto run = [&](const fleet::ModelRegistry& reg) {
    std::vector<serve::Request> trace = interleaved_trace(n, reg, 0);
    fleet::FleetOptions fo;
    fo.collect_outputs = true;
    fo.policy = no_slo_policy();
    fo.policy.base.kind = serve::PolicyKind::kDeadline;
    fo.policy.base.min_batch = n;
    fo.policy.base.slo_ns = 10'000'000'000;       // never trigger early on SLO
    fo.policy.base.max_hold_ns = 10'000'000'000;  // hold until the cohort is in
    return fleet::serve_fleet(reg, trace, fo);
  };
  const fleet::FleetResult a = run(on);
  const fleet::FleetResult b = run(off);
  CHECK_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const auto& ao = a.records[i].output;
    const auto& bo = b.records[i].output;
    CHECK_EQ(ao.size(), bo.size());
    for (std::size_t j = 0; j < ao.size(); ++j) CHECK(ao[j] == bo[j]);  // bitwise
  }
  std::printf("dedupe: %zu vs %zu kernels (%lld dupes) | launches %lld vs %lld\n",
              on.compiled().module.registry.num_kernels(),
              off.compiled().module.registry.num_kernels(),
              on.compiled().module.registry.structural_dupes(),
              a.shards[0].stats.kernel_launches, b.shards[0].stats.kernel_launches);
  CHECK(a.shards[0].stats.kernel_launches < b.shards[0].stats.kernel_launches);
}

// A merged two-model module serves a structurally recurring mixed cohort
// deterministically. Three identical 12-request cohorts all arrive at t=0
// and a deadline policy with min_batch == max_admit == 12 carves them back
// out: the hold waits until a full cohort is available and the admission
// cap stops the trigger from swallowing the next cohort, so batch
// composition is a pure function of arrival order — reproducible even on a
// loaded machine. A trailing singleton flushes alone. Two runs must agree
// on launches, triggers and every output bit, with nothing shed.
void test_fleet_merged_cohort_deterministic() {
  fleet::ModelRegistry reg{passes::PipelineConfig{}, /*dedupe=*/true};
  reg.add(models::model_by_name("TreeLSTM"), false, dataset_of("TreeLSTM", 6, 11));
  reg.add(models::model_by_name("BiRNN"), false, dataset_of("BiRNN", 6, 19));
  reg.prepare();
  CHECK(reg.compiled().module.registry.structural_dupes() > 0);

  const int cohort = 12, cohorts = 3;
  std::vector<serve::Request> trace;
  for (int c = 0; c < cohorts; ++c) {
    for (int i = 0; i < cohort; ++i) {
      serve::Request r;
      r.id = static_cast<int>(trace.size());
      r.model_id = i % reg.num_models();
      r.input_index = static_cast<std::size_t>(i / reg.num_models()) %
                      reg.model(r.model_id).dataset.inputs.size();
      r.arrival_ns = 0;
      trace.push_back(r);
    }
  }
  serve::Request tail;  // flushes as a singleton trigger after cohort 3
  tail.id = static_cast<int>(trace.size());
  tail.model_id = 0;
  tail.input_index = 0;
  tail.arrival_ns = 0;
  trace.push_back(tail);

  const auto run = [&] {
    fleet::FleetOptions fo;
    fo.collect_outputs = true;
    fo.policy = no_slo_policy();
    fo.policy.base.kind = serve::PolicyKind::kDeadline;
    fo.policy.base.min_batch = cohort;
    fo.policy.base.max_admit = cohort;
    fo.policy.base.slo_ns = 10'000'000'000;
    fo.policy.base.max_hold_ns = 10'000'000'000;
    return fleet::serve_fleet(reg, trace, fo);
  };

  const fleet::FleetResult a = run();
  const fleet::FleetResult b = run();

  std::printf("fleet merged cohort: launches %lld | triggers %lld\n",
              a.shards.at(0).stats.kernel_launches, a.shards.at(0).triggers);
  CHECK_EQ(a.shards.at(0).stats.kernel_launches, b.shards.at(0).stats.kernel_launches);
  CHECK_EQ(a.shards.at(0).triggers, b.shards.at(0).triggers);

  CHECK_EQ(a.records.size(), trace.size());
  CHECK_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    CHECK(!a.records[i].shed);
    CHECK(!b.records[i].shed);
    const auto& ao = a.records[i].output;
    const auto& bo = b.records[i].output;
    CHECK_EQ(ao.size(), bo.size());
    for (std::size_t j = 0; j < ao.size(); ++j) CHECK(ao[j] == bo[j]);  // bitwise
  }
}

// (b) Shedding kicks in only past saturation, and never hurts goodput
// relative to running every blown request anyway.
void test_shedding_only_past_saturation() {
  fleet::ModelRegistry reg;
  reg.add(models::model_by_name("TreeLSTM"), false, dataset_of("TreeLSTM", 6, 23));
  reg.prepare();

  fleet::FleetPolicyConfig pc;
  pc.base.kind = serve::PolicyKind::kMaxBatch;
  pc.base.max_batch = 4;  // bounded admission: overload builds a real queue
  pc.deadline_ns = {2'000'000'000, 2'000'000'000, 0};  // generous at low rate

  // Low rate, generous deadline: nothing is ever blown, nothing is shed.
  {
    const auto trace = interleaved_trace(12, reg, 2'000'000);
    fleet::FleetOptions fo;
    fo.policy = pc;
    const fleet::FleetResult res = fleet::serve_fleet(reg, trace, fo);
    CHECK_EQ(res.shed, 0);
    CHECK_NEAR(res.goodput, 1.0, 1e-12);
    for (const serve::RequestRecord& r : res.records) CHECK(!r.shed);
  }

  // Sustained overload: arrivals at several times capacity against a tight
  // deadline, so the FIFO queue grows without bound. With SLO admission
  // control, blown queue entries are shed and fresh arrivals wait only
  // behind still-viable work — they can meet their deadline. The latency-
  // only contrast (no SLO awareness at all: FIFO admission, everything
  // runs) queues every arrival behind doomed requests, so its attainment —
  // the fraction of latencies under the same deadline — collapses.
  // Goodput(shed) >= latency-only attainment, up to one boundary request
  // of timing noise.
  {
    const int n = 200;
    // Service time is anchored by the deterministic simulated launch
    // overhead (DESIGN.md §2), not by this machine's CPU speed: ~100us per
    // launch makes one batched request cost a few hundred us (a coarse
    // TreeLSTM cell is 3 launches), so 500us arrival gaps are a sustained
    // ~1.5-3x overload everywhere. The
    // deadline sits far above one batched service time (fresh admissions
    // meet it comfortably) but far below the cumulative FIFO backlog.
    // Attainment under FIFO is a prefix phenomenon — only arrivals before
    // the backlog first exceeds the deadline can make it — so it keeps
    // falling as the trace grows, while shedding holds its steady state;
    // the long trace is what makes the gap robust to machine noise.
    const double deadline_ms = 20.0;
    const std::int64_t overhead_ns = 100'000;
    const auto trace = interleaved_trace(n, reg, 500'000);
    fleet::FleetPolicyConfig tight = pc;
    tight.deadline_ns = {static_cast<std::int64_t>(deadline_ms * 1e6),
                         static_cast<std::int64_t>(deadline_ms * 1e6), 0};
    // Slack-aware shedding: drop work that cannot finish inside the SLO
    // (~2 batched service times of slack), instead of admitting requests
    // right at their deadline and burning capacity on doomed work.
    tight.est_service_ns = 12'000'000;

    fleet::FleetOptions shed_on;
    shed_on.policy = tight;
    shed_on.launch_overhead_ns = overhead_ns;
    const fleet::FleetResult a = fleet::serve_fleet(reg, trace, shed_on);

    fleet::FleetOptions fifo = shed_on;
    fifo.policy = no_slo_policy();
    fifo.policy.base = tight.base;
    const fleet::FleetResult b = fleet::serve_fleet(reg, trace, fifo);
    const double fifo_attainment = b.latency_ms.attainment(deadline_ms);

    std::printf("overload: shed=%lld goodput=%.2f vs latency-only attainment=%.2f\n",
                a.shed, a.goodput, fifo_attainment);
    CHECK(a.shed > 0);
    CHECK_EQ(b.shed, 0);
    for (const serve::RequestRecord& r : b.records) CHECK(r.completion_ns >= 0);
    CHECK(a.goodput >= fifo_attainment - 1.0 / n);
    // Shed requests complete (as sheds) and never carry outputs.
    for (const serve::RequestRecord& r : a.records)
      if (r.shed) {
        CHECK(r.completion_ns >= 0);
        CHECK_EQ(r.output.size(), 0);
      }
  }
}

// (c) Closed loop: all K×M requests complete; content is deterministic per
// seed; a client's requests are issued strictly after its previous one
// completed (the defining closed-loop property).
void test_closed_loop() {
  fleet::ModelRegistry reg = two_model_registry();
  fleet::ClosedLoopSpec cs;
  cs.clients = 4;
  cs.per_client = 5;
  cs.think_mean_ms = 0.05;
  cs.seed = 7;
  const std::vector<serve::ModelMix> mix = reg.uniform_mix();

  const auto t1 = fleet::generate_closed_load(cs, mix);
  const auto t2 = fleet::generate_closed_load(cs, mix);
  CHECK_EQ(t1.size(), 20);
  for (std::size_t i = 0; i < t1.size(); ++i) {
    CHECK_EQ(t1[i].id, static_cast<int>(i));
    CHECK_EQ(t1[i].model_id, t2[i].model_id);
    CHECK(t1[i].input_index == t2[i].input_index);
    CHECK(t1[i].latency_class == t2[i].latency_class);
    CHECK(t1[i].model_id >= 0 && t1[i].model_id < reg.num_models());
    CHECK(t1[i].input_index < reg.model(t1[i].model_id).dataset.inputs.size());
  }

  fleet::FleetOptions fo;
  fo.policy = no_slo_policy();
  const fleet::FleetResult res = fleet::serve_fleet_closed(reg, cs, mix, fo);
  CHECK_EQ(res.records.size(), 20);
  CHECK_EQ(res.shed, 0);
  for (int c = 0; c < cs.clients; ++c) {
    for (int k = 0; k < cs.per_client; ++k) {
      const serve::RequestRecord& r =
          res.records[static_cast<std::size_t>(c * cs.per_client + k)];
      CHECK(r.completion_ns >= r.arrival_ns);
      CHECK(r.arrival_ns >= 0);
      if (k > 0) {
        const serve::RequestRecord& prev =
            res.records[static_cast<std::size_t>(c * cs.per_client + k - 1)];
        CHECK(r.arrival_ns >= prev.completion_ns);  // issued after completion
      }
    }
  }
  CHECK(res.throughput_rps > 0);
}

// Class-aware routing: per-class shard affinity pins classes to disjoint
// shard sets; least-loaded dispatch stays within the class's set.
void test_class_affinity_routing() {
  fleet::ModelRegistry reg = two_model_registry();
  const int n = 12;
  std::vector<serve::Request> trace = interleaved_trace(n, reg, 15'000);
  for (int i = 0; i < n; ++i)
    trace[static_cast<std::size_t>(i)].latency_class =
        i % 3 == 0 ? serve::LatencyClass::kInteractive : serve::LatencyClass::kBatch;

  fleet::FleetOptions fo;
  fo.shards = 2;
  fo.policy = no_slo_policy();
  fo.class_affinity[0] = {0};  // interactive pinned to shard 0
  fo.class_affinity[1] = {1};  // batch pinned to shard 1
  const fleet::FleetResult res = fleet::serve_fleet(reg, trace, fo);

  for (const serve::RequestRecord& rec : res.records) {
    const serve::LatencyClass c = trace[static_cast<std::size_t>(rec.id)].latency_class;
    CHECK_EQ(rec.shard, c == serve::LatencyClass::kInteractive ? 0 : 1);
  }
  CHECK(res.shards[0].requests > 0);
  CHECK(res.shards[1].requests > 0);
}

// Fleet policy triage units: EDF keys, deprioritization, grace, shedding.
void test_fleet_policy_triage() {
  fleet::FleetPolicyConfig pc;
  pc.deadline_ns = {1'000'000, 10'000'000, 0};
  const auto policy = fleet::make_fleet_policy(pc);

  serve::RequestView v;
  v.now_ns = 500'000;
  v.arrival_ns = 0;
  v.latency_class = serve::LatencyClass::kInteractive;
  serve::Triage t = policy->triage(v);
  CHECK(t.verdict == serve::Verdict::kAdmit);
  CHECK_EQ(t.deadline_ns, 1'000'000);

  v.latency_class = serve::LatencyClass::kBatch;
  t = policy->triage(v);
  CHECK(t.verdict == serve::Verdict::kAdmit);
  CHECK_EQ(t.deadline_ns, 10'000'000);  // later deadline: admitted after interactive

  v.latency_class = serve::LatencyClass::kBestEffort;
  t = policy->triage(v);
  CHECK(t.verdict == serve::Verdict::kAdmit);
  CHECK(t.deadline_ns == std::numeric_limits<std::int64_t>::max());  // sorts last

  // Blown interactive request: shed with grace 0...
  v.latency_class = serve::LatencyClass::kInteractive;
  v.now_ns = 1'500'000;
  t = policy->triage(v);
  CHECK(t.verdict == serve::Verdict::kShed);

  // ...deferred within a grace window...
  fleet::FleetPolicyConfig graced = pc;
  graced.shed_grace = 1.0;  // shed only once blown by a whole deadline
  const auto gpolicy = fleet::make_fleet_policy(graced);
  t = gpolicy->triage(v);
  CHECK(t.verdict == serve::Verdict::kDefer);
  v.now_ns = 2'500'000;
  t = gpolicy->triage(v);
  CHECK(t.verdict == serve::Verdict::kShed);

  // ...and only ever deferred when shedding is disabled.
  fleet::FleetPolicyConfig noshed = pc;
  noshed.shed = false;
  const auto npolicy = fleet::make_fleet_policy(noshed);
  v.now_ns = 100'000'000;
  t = npolicy->triage(v);
  CHECK(t.verdict == serve::Verdict::kDefer);
}

// (d) Mixed-model soak: recycling holds across models sharing one engine.
// Node table, arena watermark, and the persistent region all plateau —
// the full trace stays within 2x of its short prefix, and the persistent
// region (both models' cached constants) goes exactly flat.
// The fleet trace contract is validated loudly at entry: a class outside
// LatencyClass would index the per-class affinity and report tables.
void test_trace_contract_dies() {
  const fleet::ModelRegistry reg = two_model_registry();
  CHECK(acrobat::test::dies([&] {
    auto bad = interleaved_trace(4, reg, 1000);
    bad[2].latency_class = static_cast<serve::LatencyClass>(7);
    (void)fleet::serve_fleet(reg, bad, fleet::FleetOptions{});
  }));
}

void test_fleet_soak_mixed_models() {
  const int n = env_requests(5000);
  const int n_short = n >= 1000 ? 500 : (n >= 40 ? n / 4 : n);

  fleet::ModelRegistry reg = two_model_registry();
  serve::LoadSpec ls;
  ls.num_requests = n;
  ls.rate_rps = 1e12;  // effectively simultaneous arrivals
  ls.seed = acrobat::test::seed(37);
  const std::vector<serve::Request> full = serve::generate_load(ls, reg.uniform_mix());
  const std::vector<serve::Request> prefix(full.begin(), full.begin() + n_short);

  const auto run = [&](const std::vector<serve::Request>& trace) {
    fleet::FleetOptions fo;
    fo.policy = no_slo_policy();
    fo.policy.base.kind = serve::PolicyKind::kMaxBatch;
    fo.policy.base.max_batch = 8;
    return fleet::serve_fleet(reg, trace, fo);
  };

  const fleet::FleetResult short_res = run(prefix);
  const fleet::FleetResult long_res = run(full);

  for (const serve::RequestRecord& r : long_res.records) CHECK(r.completion_ns >= 0);
  CHECK_EQ(long_res.shards.at(0).requests, n);
  CHECK_EQ(long_res.shed, 0);

  const Engine::MemoryStats& sm = short_res.shards.at(0).mem;
  const Engine::MemoryStats& lm = long_res.shards.at(0).mem;
  std::printf("fleet soak: %d vs %d requests | nodes %zu vs %zu | arenaKB %.0f vs %.0f | "
              "persistKB %.0f vs %.0f | recycled nodes %lld pages %lld | leaked %lld\n",
              n_short, n, sm.node_table_size, lm.node_table_size,
              static_cast<double>(sm.arena_high_water_bytes) / 1024.0,
              static_cast<double>(lm.arena_high_water_bytes) / 1024.0,
              static_cast<double>(sm.persist_arena_high_water_bytes) / 1024.0,
              static_cast<double>(lm.persist_arena_high_water_bytes) / 1024.0,
              lm.nodes_recycled, lm.arena_pages_recycled, lm.leaked_slots);
  CHECK_EQ(lm.leaked_slots, 0);

  // The plateau: ~10x the requests, ~same memory — across two models.
  CHECK(lm.node_table_size <= 2 * sm.node_table_size);
  CHECK(lm.arena_high_water_bytes <= 2 * sm.arena_high_water_bytes);
  // The persistent region (weights refs + cached constants of BOTH models)
  // is populated by each model's first requests and then never grows.
  CHECK_EQ(lm.persist_arena_high_water_bytes, sm.persist_arena_high_water_bytes);
  CHECK(lm.nodes_recycled > 0);
  CHECK(lm.live_nodes < lm.node_table_size);  // drained to the persistent set
  // Fiber stacks track peak concurrency, not trace length.
  CHECK(long_res.shards.at(0).stacks_allocated <=
        static_cast<long long>(long_res.shards.at(0).max_live) + 1);
}

}  // namespace

int main() {
  test_fleet_parity_with_solo_serve();
  test_registry_kernel_dedupe();
  test_fleet_merged_cohort_deterministic();
  test_shedding_only_past_saturation();
  test_closed_loop();
  test_class_affinity_routing();
  test_fleet_policy_triage();
  test_trace_contract_dies();
  test_fleet_soak_mixed_models();
  return acrobat::test::finish("test_fleet");
}
