// Serving-layer acceptance (ISSUE 2 / DESIGN.md §7):
//  (a) continuous batching across requests is bitwise identical to running
//      each request solo — the batching-never-changes-results invariant
//      extends across requests;
//  (b) with arrivals spread over time, continuous batching launches
//      strictly fewer kernels than one-request-at-a-time execution;
//  (c) a 2-shard run partitions requests across independent engines with
//      no cross-shard state sharing;
//  (d) epoch recycling is observation-free: a recycling cohort matches a
//      closed batch over the same inputs bitwise in outputs and exactly in
//      kernel_launches.
// Plus units: percentile math, seeded load generation, the SPSC inbox, and
// the policy family.
#include "serve/server.h"
#include "serve/spsc.h"
#include "test_util.h"

#include <cmath>
#include <cstdio>
#include <utility>

using namespace acrobat;

namespace {

models::Dataset solo_dataset(const models::Dataset& ds, std::size_t idx) {
  models::Dataset one;
  one.pool = ds.pool;
  one.tensors = ds.tensors;
  one.inputs.push_back(ds.inputs[idx]);
  return one;
}

std::vector<float> solo_outputs(const harness::Prepared& p, const models::Dataset& ds,
                                std::size_t idx) {
  harness::RunOptions o;
  o.collect_outputs = true;
  const harness::RunResult r = harness::run_acrobat(p, solo_dataset(ds, idx), o);
  return r.outputs.at(0);
}

// Fixed-gap arrivals: "spread over time", deterministic.
std::vector<serve::Request> spread_trace(int n, std::size_t n_inputs,
                                         std::int64_t gap_ns) {
  std::vector<serve::Request> trace;
  for (int i = 0; i < n; ++i)
    trace.push_back(serve::Request{i, static_cast<std::size_t>(i) % n_inputs,
                                   static_cast<std::int64_t>(i) * gap_ns});
  return trace;
}

void test_percentiles() {
  // Percentiles are histogram-backed (DESIGN.md §9): quantiles land within
  // the bucket resolution (~4.4% relative) of exact nearest-rank, while
  // count/mean/max stay exact. tests/test_trace.cpp checks the error bound
  // systematically; this is the serve-facing contract.
  const auto tol = [](double v) {
    return v * (serve::LatencyHisto::kRelError + 0.01);
  };
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);
  const serve::Percentiles p = serve::Percentiles::of(xs);
  CHECK_NEAR(p.p50, 50.0, tol(50.0));
  CHECK_NEAR(p.p95, 95.0, tol(95.0));
  CHECK_NEAR(p.p99, 99.0, tol(99.0));
  CHECK_NEAR(p.mean, 50.5, 1e-9);  // exact: tracked outside the buckets
  CHECK_EQ(static_cast<int>(p.max), 100);
  CHECK_EQ(p.count, 100);
  CHECK_EQ(serve::Percentiles::of({}).count, 0);

  // p99.9 needs 1000+ samples to separate from p99 under nearest-rank.
  std::vector<double> ys;
  for (int i = 1; i <= 1000; ++i) ys.push_back(i);
  const serve::Percentiles q = serve::Percentiles::of(ys);
  CHECK_NEAR(q.p99, 990.0, tol(990.0));
  CHECK_NEAR(q.p999, 999.0, tol(999.0));
  CHECK(q.p999 >= q.p99);
  // Deadline attainment: fraction of samples at or under the deadline.
  // Interior deadlines interpolate inside a bucket (±5%); at or past the
  // observed max the answer is exact — "every request met its SLO" must
  // read 1.0, and a deadline below every sample must read 0.
  CHECK_NEAR(q.attainment(500.0), 0.5, 0.05);
  CHECK_NEAR(q.attainment(0.5), 0.0, 1e-12);
  CHECK_NEAR(q.attainment(1000.0), 1.0, 1e-12);
  CHECK_NEAR(q.attainment(2000.0), 1.0, 1e-12);
  CHECK_NEAR(serve::Percentiles::of({}).attainment(1.0), 1.0, 1e-12);  // vacuous
}

void test_load_generator() {
  serve::LoadSpec spec;
  spec.rate_rps = 10000;
  spec.num_requests = 200;
  spec.seed = 7;
  const auto a = serve::generate_load(spec, 8);
  const auto b = serve::generate_load(spec, 8);
  CHECK_EQ(a.size(), 200);
  for (std::size_t i = 0; i < a.size(); ++i) {
    CHECK_EQ(a[i].id, static_cast<int>(i));
    CHECK(a[i].input_index < 8);
    CHECK(a[i].arrival_ns == b[i].arrival_ns);  // deterministic under seed
    CHECK(a[i].input_index == b[i].input_index);
    if (i > 0) CHECK(a[i].arrival_ns >= a[i - 1].arrival_ns);
  }
  // Mean inter-arrival tracks 1/rate (100us) within Poisson noise.
  const double mean_gap =
      static_cast<double>(a.back().arrival_ns) / static_cast<double>(a.size() - 1);
  CHECK(mean_gap > 50e3 && mean_gap < 200e3);

  serve::LoadSpec burst = spec;
  burst.kind = serve::ArrivalKind::kBurst;
  burst.burst_size = 8;
  const auto c = serve::generate_load(burst, 8);
  CHECK_EQ(c.size(), 200);
  // Full bursts share one arrival instant.
  for (std::size_t i = 0; i + 8 <= c.size(); i += 8)
    for (std::size_t j = 1; j < 8; ++j)
      CHECK(c[i + j].arrival_ns == c[i].arrival_ns);
}

// Mixed-model traces are a pure function of (spec, mix): same seed, same
// trace, across repeated calls — serving config (shard count etc.) never
// feeds back into generation. Model/input/class draws respect the mix.
void test_mixed_load_determinism() {
  serve::LoadSpec spec;
  spec.rate_rps = 5000;
  spec.num_requests = 300;
  spec.seed = 13;
  std::vector<serve::ModelMix> mix(2);
  mix[0] = serve::ModelMix{0, 3.0, 8, 0.5, 0.3};
  mix[1] = serve::ModelMix{1, 1.0, 5, 0.2, 0.0};

  const auto a = serve::generate_load(spec, mix);
  const auto b = serve::generate_load(spec, mix);
  CHECK_EQ(a.size(), 300);
  int per_model[2] = {0, 0};
  bool classes_seen[3] = {false, false, false};
  for (std::size_t i = 0; i < a.size(); ++i) {
    CHECK_EQ(a[i].id, static_cast<int>(i));
    CHECK(a[i].arrival_ns == b[i].arrival_ns);
    CHECK(a[i].model_id == b[i].model_id);
    CHECK(a[i].input_index == b[i].input_index);
    CHECK(a[i].latency_class == b[i].latency_class);
    CHECK(a[i].model_id == 0 || a[i].model_id == 1);
    CHECK(a[i].input_index < mix[static_cast<std::size_t>(a[i].model_id)].num_inputs);
    classes_seen[static_cast<int>(a[i].latency_class)] = true;
    ++per_model[a[i].model_id];
  }
  // 3:1 weighting within Binomial noise; every class occurs at these sizes.
  CHECK(per_model[0] > per_model[1]);
  CHECK(classes_seen[0] && classes_seen[1] && classes_seen[2]);

  // The single-model overload is the degenerate mix, bit for bit.
  serve::LoadSpec one = spec;
  const auto c = serve::generate_load(one, 8);
  const auto d = serve::generate_load(one, {serve::ModelMix{0, 1.0, 8, 1.0, 0.0}});
  CHECK_EQ(c.size(), d.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    CHECK(c[i].arrival_ns == d[i].arrival_ns);
    CHECK(c[i].input_index == d[i].input_index);
    CHECK(c[i].model_id == 0 && d[i].model_id == 0);
    CHECK(c[i].latency_class == serve::LatencyClass::kInteractive);
  }
}

// Nonsense configurations abort loudly instead of silently clamping.
// Unlike the Debug-only generation checks (test_engine_recycle.cpp), config
// validation aborts via fprintf+abort in every build type.
using acrobat::test::dies;

void test_config_validation_dies() {
  CHECK(dies([] {
    serve::LoadSpec spec;
    spec.rate_rps = 0;
    (void)serve::generate_load(spec, 8);
  }));
  CHECK(dies([] {
    serve::LoadSpec spec;
    spec.num_requests = 0;
    (void)serve::generate_load(spec, 8);
  }));
  CHECK(dies([] {
    serve::LoadSpec spec;
    spec.kind = serve::ArrivalKind::kBurst;
    spec.burst_size = -1;
    (void)serve::generate_load(spec, 8);
  }));
  CHECK(dies([] {
    serve::ServeOptions so;
    so.shards = 0;
    serve::validate(so);
  }));
  CHECK(dies([] {
    serve::ServeOptions so;
    so.launch_overhead_ns = -1;
    serve::validate(so);
  }));
  // Sane configs pass through untouched.
  serve::ServeOptions ok;
  serve::validate(ok);
  serve::LoadSpec ls;
  serve::validate(ls);
}

// The serve() trace contract ("sorted by arrival_ns with ids 0..N-1") is
// validated loudly at entry — a hand-built trace that violates it must
// abort in every build type, not index records out of bounds in Release.
void test_trace_contract_dies() {
  const models::ModelSpec& spec = models::model_by_name("BiRNN");
  const models::Dataset ds = spec.build_dataset(false, 4, 43);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});
  CHECK(dies([&] {
    auto bad = spread_trace(4, ds.inputs.size(), 1000);
    bad[2].id = 7;  // re-numbered
    (void)serve::serve(p, ds, bad, serve::ServeOptions{});
  }));
  CHECK(dies([&] {
    auto bad = spread_trace(4, ds.inputs.size(), 1000);
    std::swap(bad[1].arrival_ns, bad[2].arrival_ns);  // unsorted
    (void)serve::serve(p, ds, bad, serve::ServeOptions{});
  }));
  CHECK(dies([&] {
    auto bad = spread_trace(4, ds.inputs.size(), 1000);
    bad[3].input_index = 999;  // outside the dataset
    (void)serve::serve(p, ds, bad, serve::ServeOptions{});
  }));
  CHECK(dies([&] {
    auto bad = spread_trace(4, ds.inputs.size(), 1000);
    bad[1].latency_class = static_cast<serve::LatencyClass>(7);  // no such class
    (void)serve::serve(p, ds, bad, serve::ServeOptions{});
  }));
  CHECK(dies([&] {
    auto bad = spread_trace(4, ds.inputs.size(), 1000);
    bad[0].model_id = 1;  // serve() hosts model 0 only
    (void)serve::serve(p, ds, bad, serve::ServeOptions{});
  }));
  // The contract-conforming trace from the same builder serves fine.
  const auto good = spread_trace(4, ds.inputs.size(), 1000);
  CHECK_EQ(serve::serve(p, ds, good, serve::ServeOptions{}).records.size(), 4);
}

// A negative or non-finite latency sample is an upstream bug (unset
// completion_ns flowing through latency_ms()); the histogram rejects it
// loudly instead of silently corrupting bucket 0.
void test_histo_rejects_bad_samples() {
  CHECK(dies([] {
    serve::LatencyHisto h;
    h.add(-1.0);
  }));
  CHECK(dies([] {
    serve::LatencyHisto h;
    h.add(std::nan(""));
  }));
  serve::LatencyHisto h;
  h.add(0.0);  // zero is a legal same-tick sample
  CHECK_EQ(h.count(), 1);
}

void test_spsc_queue() {
  serve::SpscQueue<int> q(3);  // rounds up to 4
  CHECK(q.empty_hint());
  for (int i = 0; i < 4; ++i) CHECK(q.push(i));
  int v = -1;
  CHECK(q.pop(v));
  CHECK_EQ(v, 0);
  CHECK(q.push(4));
  for (int want = 1; want <= 4; ++want) {
    CHECK(q.pop(v));
    CHECK_EQ(v, want);
  }
  CHECK(!q.pop(v));
  CHECK(!q.closed());
  q.close();
  CHECK(q.closed());
}

// (a) Serving N requests through continuous batching produces bitwise-
// identical outputs to running each request alone.
void test_serve_matches_solo() {
  for (const char* name : {"TreeLSTM", "Berxit"}) {  // recursive + TDCF
    const models::ModelSpec& spec = models::model_by_name(name);
    const models::Dataset ds = spec.build_dataset(false, 6, 11);
    harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});

    const auto trace = spread_trace(10, ds.inputs.size(), 20'000);
    serve::ServeOptions so;
    so.collect_outputs = true;
    const serve::ServeResult res = serve::serve(p, ds, trace, so);

    CHECK_EQ(res.records.size(), 10);
    for (const serve::RequestRecord& rec : res.records) {
      CHECK(rec.completion_ns >= rec.arrival_ns);
      CHECK(rec.shard == 0);
      const std::vector<float> solo =
          solo_outputs(p, ds, trace[static_cast<std::size_t>(rec.id)].input_index);
      CHECK_EQ(rec.output.size(), solo.size());
      for (std::size_t i = 0; i < solo.size(); ++i)
        CHECK(rec.output[i] == solo[i]);  // bitwise, not approximate
    }
    CHECK_EQ(res.latency_ms.count, 10);
  }
}

// (b) Requests arriving over time still batch: strictly fewer launches
// than executing each request one at a time.
void test_continuous_batching_reduces_launches() {
  const models::ModelSpec& spec = models::model_by_name("TreeLSTM");
  const models::Dataset ds = spec.build_dataset(false, 6, 13);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});

  const int n = 12;
  long long solo_total = 0;
  for (int i = 0; i < n; ++i) {
    harness::RunOptions o;
    solo_total += harness::run_acrobat(p, solo_dataset(ds, static_cast<std::size_t>(i) %
                                                               ds.inputs.size()),
                                       o)
                      .stats.kernel_launches;
  }

  // Service time (20us simulated launch overhead per batch) dwarfs the
  // 20us arrival gaps, so the live pool builds up and requests co-batch.
  const auto trace = spread_trace(n, ds.inputs.size(), 20'000);
  serve::ServeOptions so;
  so.launch_overhead_ns = 20'000;
  const serve::ServeResult res = serve::serve(p, ds, trace, so);

  const long long cont = res.total_launches();
  if (cont >= solo_total)
    std::printf("continuous=%lld solo=%lld\n", cont, solo_total);
  CHECK(cont < solo_total);
  CHECK(res.shards.at(0).triggers > 0);
  // The fiber pool recycles stacks: allocations track peak concurrency,
  // not the request count.
  CHECK(res.shards.at(0).stacks_allocated <= n);
}

// (c) Two shards partition the requests; each shard owns its own engine
// (independent launch counters), nothing is shared across shards.
void test_two_shards_partition() {
  const models::ModelSpec& spec = models::model_by_name("TreeLSTM");
  const models::Dataset ds = spec.build_dataset(false, 6, 17);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});

  const int n = 12;
  const auto trace = spread_trace(n, ds.inputs.size(), 10'000);
  serve::ServeOptions so;
  so.shards = 2;
  so.dispatch = serve::DispatchKind::kRoundRobin;
  so.collect_outputs = true;
  const serve::ServeResult res = serve::serve(p, ds, trace, so);

  CHECK_EQ(res.shards.size(), 2);
  int per_shard[2] = {0, 0};
  for (const serve::RequestRecord& rec : res.records) {
    CHECK(rec.shard == rec.id % 2);  // round-robin partition
    ++per_shard[rec.shard];
    // Partitioning never changes results either.
    const std::vector<float> solo =
        solo_outputs(p, ds, trace[static_cast<std::size_t>(rec.id)].input_index);
    CHECK_EQ(rec.output.size(), solo.size());
    for (std::size_t i = 0; i < solo.size(); ++i) CHECK(rec.output[i] == solo[i]);
  }
  CHECK_EQ(per_shard[0], n / 2);
  CHECK_EQ(per_shard[1], n / 2);
  CHECK_EQ(res.shards[0].requests, n / 2);
  CHECK_EQ(res.shards[1].requests, n / 2);
  // Independent engines: each shard did its own (nonzero) launches.
  CHECK(res.shards[0].stats.kernel_launches > 0);
  CHECK(res.shards[1].stats.kernel_launches > 0);
}

// Epoch recycling is memory management only: a seeded cohort served with
// recycling (serving always recycles) produces per-request outputs bitwise
// equal to run_acrobat over the same inputs, whose engine does not recycle,
// and the same kernel_launches count. Determinism setup: all requests
// arrive at t=0 and a deadline policy with min_batch == N holds the first
// trigger until the whole cohort is admitted — from there the shard is
// single-threaded and batch composition is fixed, so its launches are
// exactly comparable with one closed batch.
void test_recycling_parity() {
  for (const char* name : {"TreeLSTM", "Berxit"}) {  // recursive + TDCF
    const models::ModelSpec& spec = models::model_by_name(name);
    const models::Dataset ds = spec.build_dataset(false, 6, 37);
    harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});

    const int n = 16;
    const auto trace = spread_trace(n, ds.inputs.size(), 0);
    serve::ServeOptions so;
    so.collect_outputs = true;
    so.policy.kind = serve::PolicyKind::kDeadline;
    so.policy.min_batch = n;
    so.policy.slo_ns = 10'000'000'000;  // never trigger early on SLO
    // Renewed on every loop pass while arrivals trickle in; generous so a
    // descheduled dispatcher on a loaded CI runner can't split the cohort
    // (a partial first trigger would break exact launch parity). Normal
    // runs never wait it out — the hold ends once all n are admitted.
    so.policy.max_hold_ns = 10'000'000'000;
    const serve::ServeResult served = serve::serve(p, ds, trace, so);

    models::Dataset cohort;
    cohort.pool = ds.pool;
    cohort.tensors = ds.tensors;
    for (const serve::Request& r : trace) cohort.inputs.push_back(ds.inputs[r.input_index]);
    harness::RunOptions ro;
    ro.collect_outputs = true;
    const harness::RunResult closed = harness::run_acrobat(p, cohort, ro);

    CHECK_EQ(served.shards.at(0).stats.kernel_launches, closed.stats.kernel_launches);
    for (int i = 0; i < n; ++i) {
      const auto& a = served.records[static_cast<std::size_t>(i)].output;
      const auto& b = closed.outputs.at(static_cast<std::size_t>(i));
      CHECK_EQ(a.size(), b.size());
      for (std::size_t j = 0; j < a.size(); ++j) CHECK(a[j] == b[j]);  // bitwise
    }
    CHECK(served.shards.at(0).mem.nodes_recycled > 0);  // the cohort did recycle
  }
}

void test_max_batch_policy_caps_pool() {
  const models::ModelSpec& spec = models::model_by_name("BiRNN");
  const models::Dataset ds = spec.build_dataset(false, 6, 19);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});

  // Everything arrives at once; the policy must still cap the live pool.
  const auto trace = spread_trace(10, ds.inputs.size(), 0);
  serve::ServeOptions so;
  so.policy.kind = serve::PolicyKind::kMaxBatch;
  so.policy.max_batch = 2;
  const serve::ServeResult res = serve::serve(p, ds, trace, so);
  CHECK_EQ(res.shards.at(0).requests, 10);
  CHECK(res.shards.at(0).max_live <= 2);
  for (const serve::RequestRecord& rec : res.records) CHECK(rec.completion_ns >= 0);
}

// Least-loaded ties break to the lowest shard index: every arrival that
// finds all shards idle (gaps far longer than the service time) must land
// on shard 0, deterministically — no hash, no rotation.
void test_least_loaded_tie_break() {
  const models::ModelSpec& spec = models::model_by_name("BiRNN");
  const models::Dataset ds = spec.build_dataset(false, 4, 41);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});

  const int n = 5;
  const auto trace = spread_trace(n, ds.inputs.size(), 50'000'000);  // 50ms gaps
  // (gaps dwarf the ~ms service time even under ASan, so each arrival
  // finds every shard idle — a genuine 3-way tie)
  serve::ServeOptions so;
  so.shards = 3;
  so.dispatch = serve::DispatchKind::kLeastLoaded;
  const serve::ServeResult res = serve::serve(p, ds, trace, so);

  for (const serve::RequestRecord& rec : res.records) {
    CHECK_EQ(rec.shard, 0);  // all-idle tie → lowest index, every time
    CHECK(rec.completion_ns >= 0);
  }
  CHECK_EQ(res.shards.at(0).requests, n);
  CHECK_EQ(res.shards.at(1).requests, 0);
  CHECK_EQ(res.shards.at(2).requests, 0);
}

void test_deadline_policy_and_least_loaded() {
  const models::ModelSpec& spec = models::model_by_name("DRNN");
  const models::Dataset ds = spec.build_dataset(false, 6, 23);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});

  const auto trace = spread_trace(10, ds.inputs.size(), 15'000);
  serve::ServeOptions so;
  so.shards = 2;
  so.dispatch = serve::DispatchKind::kLeastLoaded;
  so.policy.kind = serve::PolicyKind::kDeadline;
  so.policy.min_batch = 3;
  so.policy.slo_ns = 5'000'000;
  so.policy.max_hold_ns = 100'000;
  const serve::ServeResult res = serve::serve(p, ds, trace, so);

  int total = 0;
  for (const serve::ShardReport& s : res.shards) total += s.requests;
  CHECK_EQ(total, 10);
  for (const serve::RequestRecord& rec : res.records) {
    CHECK(rec.shard == 0 || rec.shard == 1);
    CHECK(rec.completion_ns >= rec.admit_ns);
    CHECK(rec.admit_ns >= rec.arrival_ns);
  }
  CHECK(res.throughput_rps > 0);
}

}  // namespace

int main() {
  test_percentiles();
  test_load_generator();
  test_mixed_load_determinism();
  test_config_validation_dies();
  test_trace_contract_dies();
  test_histo_rejects_bad_samples();
  test_spsc_queue();
  test_least_loaded_tie_break();
  test_serve_matches_solo();
  test_continuous_batching_reduces_launches();
  test_two_shards_partition();
  test_recycling_parity();
  test_max_batch_policy_caps_pool();
  test_deadline_policy_and_least_loaded();
  return acrobat::test::finish("test_serve");
}
