// Observability acceptance (ISSUE 7 / DESIGN.md §9):
//  (a) the event ring is fixed-capacity with honest drop accounting —
//      wraparound keeps the newest events and counts what it overwrote;
//  (b) histogram-backed percentiles stay within the bucket-resolution error
//      bound of exact sorted-sample quantiles on seeded data, in O(1)
//      memory (the type-level no-sample-vectors contract is a
//      static_assert in serve/stats.h);
//  (c) tracing is observation-free: a serve run with the tracer on is
//      bitwise identical (outputs) and counter-identical (ActivityStats)
//      to the same run with it off, and the trace itself contains the
//      spans/instants the run implies;
//  (d) same for a fleet run with shedding — every shed has its kShed
//      instant, every completion its kAdmit;
//  (e) a tracer-on soak stays on the recycling layer's zero-steady-state-
//      allocation plateau while the ring and metrics stream stay bounded
//      (ACROBAT_SERVE_REQUESTS overrides the trace length; default 2000).
#include "fleet/fleet.h"
#include "models/specs.h"
#include "serve/server.h"
#include "test_util.h"
#include "trace/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <vector>

using namespace acrobat;

namespace {

using acrobat::test::env_requests;

// (a) Ring wraparound: capacity is a power of two, emitted counts
// everything, dropped counts exactly the overwritten prefix, and the
// snapshot is the newest `capacity` events oldest→newest.
void test_ring_wraparound() {
  trace::TraceConfig cfg;
  cfg.ring_capacity = 5;  // rounds up to 8
  trace::Tracer t(/*shard=*/3, cfg);
  CHECK_EQ(t.capacity(), 8);
  CHECK_EQ(t.emitted(), 0);
  CHECK_EQ(t.dropped(), 0);

  for (int i = 0; i < 20; ++i)
    t.instant(trace::EventKind::kFiberSpawn, /*a=*/i);
  CHECK_EQ(t.emitted(), 20);
  CHECK_EQ(t.dropped(), 12);

  std::vector<trace::Event> snap;
  t.snapshot(snap);
  CHECK_EQ(snap.size(), 8);
  for (std::size_t i = 0; i < snap.size(); ++i) {
    CHECK_EQ(snap[i].a, static_cast<int>(i) + 12);  // newest 8 survive
    CHECK_EQ(snap[i].shard, 3);
    if (i > 0) CHECK(snap[i].t_ns >= snap[i - 1].t_ns);  // oldest→newest
  }

  // dump_track carries the drop ledger into the run-end assembly.
  const trace::TrackDump d = trace::dump_track(t, 4, "shard3");
  CHECK_EQ(d.events.size(), 8);
  CHECK_EQ(d.emitted, 20);
  CHECK_EQ(d.dropped, 12);
}

// Exemplar slots: keep-N-worst, no growth beyond the reserved slice.
void test_exemplar_capture() {
  trace::TraceConfig cfg;
  cfg.ring_capacity = 64;
  cfg.max_exemplars = 2;
  cfg.exemplar_events = 4;
  trace::Tracer t(0, cfg);
  t.set_epoch(0);  // absolute timestamps: windows below use raw now()

  const std::int64_t t0 = t.now();
  for (int i = 0; i < 8; ++i) t.instant(trace::EventKind::kGather, i);
  const std::int64_t t1 = t.now();

  t.capture_exemplar(/*request_id=*/7, t0, t1, /*latency_ns=*/100);
  t.capture_exemplar(/*request_id=*/8, t0, t1, /*latency_ns=*/300);
  t.capture_exemplar(/*request_id=*/9, t0, t1, /*latency_ns=*/200);  // evicts 100

  int kept = 0;
  bool saw_slow = false, saw_fast = false;
  for (const trace::Exemplar& e : t.exemplars()) {
    if (e.request_id < 0) continue;
    ++kept;
    saw_slow |= e.request_id == 8;
    saw_fast |= e.request_id == 7;
    CHECK(e.events.size() <= 4);  // slot capacity, overflow counted
    CHECK(e.events.size() + e.truncated >= 8);
    CHECK(e.latency_ns >= 200);
  }
  CHECK_EQ(kept, 2);
  CHECK(saw_slow);
  CHECK(!saw_fast);  // the fastest exemplar lost its slot to a slower one
}

// (b) Histogram error bound: log-bucketed quantiles vs exact nearest-rank
// on seeded heavy-tailed data; attainment vs the exact empirical CDF.
void test_histo_error_bound() {
  std::mt19937_64 rng(acrobat::test::seed(0x715c0));
  std::lognormal_distribution<double> dist(1.0, 1.5);  // ms, heavy tail
  const int n = 20000;
  serve::LatencyHisto h;
  std::vector<double> xs;
  xs.reserve(n);
  for (int i = 0; i < n; ++i) {
    const double ms = dist(rng);
    xs.push_back(ms);
    h.add(ms);
  }
  std::sort(xs.begin(), xs.end());

  const auto exact_q = [&](double q) {
    std::size_t r = static_cast<std::size_t>(std::ceil(q * n));
    if (r < 1) r = 1;
    return xs[r - 1];
  };
  for (const double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    const double got = h.quantile(q);
    const double want = exact_q(q);
    const double rel = std::fabs(got - want) / want;
    if (rel > serve::LatencyHisto::kRelError + 1e-6)
      std::printf("q=%.3f got=%.4f want=%.4f rel=%.4f\n", q, got, want, rel);
    CHECK(rel <= serve::LatencyHisto::kRelError + 1e-6);
  }
  CHECK_EQ(h.count(), n);
  CHECK(h.quantile(1.0) == h.max());  // clamped to the exact max

  for (const double d : {1.0, 3.0, 10.0, 50.0}) {
    const double exact = static_cast<double>(std::upper_bound(xs.begin(), xs.end(), d) -
                                             xs.begin()) /
                         n;
    CHECK_NEAR(h.attainment(d), exact, 0.05);
  }
  CHECK_NEAR(h.attainment(xs.back()), 1.0, 1e-12);  // exact at the max

  // merge == adding both sample streams into one histogram.
  serve::LatencyHisto a, b;
  for (int i = 0; i < n; ++i) (i % 2 == 0 ? a : b).add(xs[static_cast<std::size_t>(i)]);
  a.merge(b);
  CHECK_EQ(a.count(), h.count());
  CHECK(a.quantile(0.99) == h.quantile(0.99));
  CHECK(a.max() == h.max());
}

// Deterministic serve run (cf. test_serve's recycling parity): all arrivals
// at t=0 and a deadline policy holding the first trigger until the whole
// cohort is admitted, so batch composition — and thus every counter — is a
// pure function of arrival order.
serve::ServeResult run_cohorts(const harness::Prepared& p, const models::Dataset& ds,
                               int n, int cohort, const trace::TraceOptions& to) {
  std::vector<serve::Request> trace;
  for (int i = 0; i < n; ++i)
    trace.push_back(serve::Request{i, static_cast<std::size_t>(i) % ds.inputs.size(), 0});
  serve::ServeOptions so;
  so.collect_outputs = true;
  so.policy.kind = serve::PolicyKind::kDeadline;
  so.policy.min_batch = cohort;
  so.policy.max_admit = cohort;
  so.policy.slo_ns = 10'000'000'000;
  so.policy.max_hold_ns = 10'000'000'000;
  so.trace = to;
  return serve::serve(p, ds, trace, so);
}

// (c) Tracer parity + trace content over a serve run.
void test_serve_trace_parity() {
  const models::ModelSpec& spec = models::model_by_name("BiRNN");
  const models::Dataset ds = models::make_token_dataset(false, 8, 29, 14, 14);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});
  const int n = 24, cohort = 8;

  trace::TraceOptions off;  // default: disabled
  trace::TraceOptions on;
  on.enabled = true;
  on.slow_threshold_ns = 1;     // every completion qualifies as an exemplar
  on.tick_every_triggers = 1;   // force metric ticks even in a short run
  const serve::ServeResult a = run_cohorts(p, ds, n, cohort, off);
  const serve::ServeResult b = run_cohorts(p, ds, n, cohort, on);

  // Observation-free: outputs bitwise identical, counters exactly equal.
  CHECK_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const auto& ao = a.records[i].output;
    const auto& bo = b.records[i].output;
    CHECK_EQ(ao.size(), bo.size());
    for (std::size_t j = 0; j < ao.size(); ++j) CHECK(ao[j] == bo[j]);  // bitwise
  }
  const ActivityStats& sa = a.shards.at(0).stats;
  const ActivityStats& sb = b.shards.at(0).stats;
  CHECK_EQ(sa.kernel_launches, sb.kernel_launches);
  CHECK_EQ(sa.flat_batches, sb.flat_batches);
  CHECK_EQ(sa.stacked_batches, sb.stacked_batches);
  CHECK_EQ(sa.gather_bytes, sb.gather_bytes);
  CHECK_EQ(sa.scheduling_allocs, sb.scheduling_allocs);
  CHECK_EQ(a.shards.at(0).triggers, b.shards.at(0).triggers);

  // Off: no dump at all. On: dispatcher track + one per shard.
  CHECK(a.trace.empty());
  CHECK_EQ(b.trace.tracks.size(), 2);
  CHECK(b.trace.total_events() > 0);
  CHECK(b.trace.count(trace::EventKind::kTrigger) > 0);
  CHECK(b.trace.count(trace::EventKind::kSchedule) > 0);
  CHECK(b.trace.count(trace::EventKind::kBatch) > 0);
  CHECK_EQ(b.trace.count(trace::EventKind::kAdmit), n);
  CHECK_EQ(b.trace.count(trace::EventKind::kDispatch), n);
  CHECK_EQ(b.trace.count(trace::EventKind::kShed), 0);
  for (const trace::TrackDump& t : b.trace.tracks) CHECK_EQ(t.dropped, 0);

  // Every batch span nests inside some trigger span on its track (the
  // Python validator re-checks this on the exported JSON in CI).
  for (const trace::TrackDump& t : b.trace.tracks) {
    for (const trace::Event& e : t.events) {
      if (e.kind != trace::EventKind::kBatch) continue;
      bool inside = false;
      for (const trace::Event& s : t.events) {
        if (s.kind != trace::EventKind::kTrigger) continue;
        if (s.t_ns <= e.t_ns && e.t_ns + e.dur_ns <= s.t_ns + s.dur_ns) {
          inside = true;
          break;
        }
      }
      CHECK(inside);
    }
  }

  // Metric stream: ticking every trigger must produce ticks, with the
  // shard's gauge names riding along.
  CHECK(!b.trace.ticks.empty());
  CHECK_EQ(b.trace.metric_names.size(), 7);
  for (const trace::MetricsTick& t : b.trace.ticks)
    CHECK_EQ(t.n, b.trace.metric_names.size());

  // Slow-request exemplars: threshold 1ns freezes the worst completions.
  bool any_exemplar = false;
  for (const trace::TrackDump& t : b.trace.tracks)
    for (const trace::Exemplar& e : t.exemplars) any_exemplar |= e.request_id >= 0;
  CHECK(any_exemplar);

  // Chrome JSON export round-trip: starts as a JSON object, non-trivial.
  const char* path = "test_trace_out.json";
  CHECK(b.trace.write_chrome_json(path));
  FILE* f = std::fopen(path, "rb");
  CHECK(f != nullptr);
  if (f != nullptr) {
    char head[2] = {0, 0};
    CHECK_EQ(std::fread(head, 1, 1, f), 1);
    CHECK_EQ(head[0], '{');
    std::fclose(f);
    std::remove(path);
  }
}

// (d) Fleet: shedding is fully visible in the trace. Interactive deadline
// 1ns (blown on arrival, est_service 0, grace 0) + no-SLO batch class →
// exactly the interactive requests shed, deterministically; the cohort
// hold makes the rest one fixed batch.
void test_fleet_trace_sheds() {
  fleet::ModelRegistry reg;
  reg.add(models::model_by_name("TreeLSTM"), false,
          models::model_by_name("TreeLSTM").build_dataset(false, 6, 11));
  reg.add(models::model_by_name("BiRNN"), false,
          models::model_by_name("BiRNN").build_dataset(false, 6, 19));
  reg.prepare();

  const int n = 24;
  std::vector<serve::Request> trace;
  int interactive = 0;
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

  const auto run = [&](bool traced) {
    fleet::FleetOptions fo;
    fo.collect_outputs = true;
    fo.policy.deadline_ns = {1, 0, 0};  // interactive blown at arrival; rest no-SLO
    fo.policy.est_service_ns = 0;
    fo.policy.shed_grace = 0.0;
    fo.policy.base.kind = serve::PolicyKind::kDeadline;
    fo.policy.base.min_batch = n;  // hold until the whole cohort (incl. doomed) is in
    fo.policy.base.max_admit = n;
    fo.policy.base.slo_ns = 10'000'000'000;
    fo.policy.base.max_hold_ns = 10'000'000'000;
    fo.trace.enabled = traced;
    fo.trace.slow_threshold_ns = traced ? 1 : 0;
    return fleet::serve_fleet(reg, trace, fo);
  };

  const fleet::FleetResult a = run(false);
  const fleet::FleetResult b = run(true);

  CHECK_EQ(a.shed, interactive);
  CHECK_EQ(b.shed, interactive);
  CHECK_EQ(a.shards.at(0).stats.kernel_launches, b.shards.at(0).stats.kernel_launches);
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    CHECK_EQ(a.records[i].shed ? 1 : 0, b.records[i].shed ? 1 : 0);
    const auto& ao = a.records[i].output;
    const auto& bo = b.records[i].output;
    CHECK_EQ(ao.size(), bo.size());
    for (std::size_t j = 0; j < ao.size(); ++j) CHECK(ao[j] == bo[j]);  // bitwise
  }

  CHECK(a.trace.empty());
  CHECK_EQ(b.trace.count(trace::EventKind::kShed), static_cast<std::size_t>(interactive));
  CHECK_EQ(b.trace.count(trace::EventKind::kAdmit), static_cast<std::size_t>(n - interactive));
  CHECK_EQ(b.trace.count(trace::EventKind::kDispatch), n);
  CHECK(b.trace.count(trace::EventKind::kTrigger) > 0);
  CHECK(b.trace.count(trace::EventKind::kBatch) > 0);
  bool any_exemplar = false;
  for (const trace::TrackDump& t : b.trace.tracks)
    for (const trace::Exemplar& e : t.exemplars) any_exemplar |= e.request_id >= 0;
  CHECK(any_exemplar);
}

// (e) Tracer-on soak: the ring and tick stream stay bounded while the
// engine keeps its zero-steady-state-allocation plateau — tracing must not
// reintroduce the per-request growth the recycling layer removed.
void test_soak_tracer_on_plateau() {
  const int n = env_requests(2000);
  const int n_short = n >= 1000 ? 500 : (n >= 40 ? n / 4 : n);
  // Small enough that the shard track of a 200-request run wraps: a BiRNN
  // request emits about 9.9 shard events with one-launch GRU cells.
  constexpr std::uint32_t kRing = 1u << 10;

  const models::ModelSpec& spec = models::model_by_name("BiRNN");
  const models::Dataset ds = models::make_token_dataset(false, 8, 29, 14, 14);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});

  serve::LoadSpec ls;
  ls.num_requests = n;
  ls.rate_rps = 1e12;
  ls.seed = acrobat::test::seed(31) ^ 0x7ace;
  const std::vector<serve::Request> full = serve::generate_load(ls, ds.inputs.size());
  std::vector<serve::Request> prefix(full.begin(), full.begin() + n_short);

  const auto run = [&](const std::vector<serve::Request>& trace) {
    serve::ServeOptions so;
    so.policy.kind = serve::PolicyKind::kMaxBatch;
    so.policy.max_batch = 8;
    so.trace.enabled = true;
    so.trace.config.ring_capacity = kRing;
    return serve::serve(p, ds, trace, so);
  };
  const serve::ServeResult short_res = run(prefix);
  const serve::ServeResult long_res = run(full);

  const ActivityStats& ss = short_res.shards.at(0).stats;
  const ActivityStats& st = long_res.shards.at(0).stats;
  std::printf("traced soak: %d vs %d requests | sched allocs %lld vs %lld | "
              "nodes %zu vs %zu | events %llu (dropped %llu) ticks %zu\n",
              n_short, n, ss.scheduling_allocs, st.scheduling_allocs,
              short_res.shards.at(0).mem.node_table_size,
              long_res.shards.at(0).mem.node_table_size,
              static_cast<unsigned long long>(long_res.trace.total_events() +
                                              (long_res.trace.tracks.empty()
                                                   ? 0
                                                   : long_res.trace.tracks[0].dropped)),
              static_cast<unsigned long long>(
                  long_res.trace.tracks.empty() ? 0 : long_res.trace.tracks[1].dropped),
              long_res.trace.ticks.size());

  // Engine plateau holds with the tracer attached.
  CHECK(st.scheduling_allocs <= 2 * ss.scheduling_allocs);
  CHECK_EQ(long_res.shards.at(0).mem.leaked_slots, 0);
  CHECK(long_res.shards.at(0).mem.node_table_size <=
        2 * short_res.shards.at(0).mem.node_table_size);

  // Bounded observability: however long the run, the retained window never
  // exceeds the ring and the emitted/dropped ledger accounts for the rest.
  for (const trace::TrackDump& t : long_res.trace.tracks) {
    CHECK(t.events.size() <= kRing);
    CHECK_EQ(t.emitted, t.events.size() + t.dropped);
  }
  // The shard track of a 4x-longer run actually wrapped (same window size).
  CHECK(long_res.trace.tracks.at(1).dropped > 0 || n < 200);
  CHECK(long_res.trace.ticks.size() >= short_res.trace.ticks.size());
}

}  // namespace

int main() {
  test_ring_wraparound();
  test_exemplar_capture();
  test_histo_error_bound();
  test_serve_trace_parity();
  test_fleet_trace_sheds();
  test_soak_tracer_on_plateau();
  return acrobat::test::finish("test_trace");
}
