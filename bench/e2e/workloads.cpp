// The four workloads (README.md "Workloads"). Each one computes its VM
// reference untimed, runs kSegments measured segments per phase, each after
// kSetupReps timed set-ups (setup_s), and with --trace 1 one more traced
// segment per phase, from which the per-layer metrics other than harness.*
// and diag.* come.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "e2e.h"
#include "fleet/fleet.h"
#include "harness/harness.h"
#include "models/models.h"
#include "net/client.h"
#include "net/net.h"
#include "serve/server.h"
#include "support/rng.h"
#include "trace/trace.h"

namespace e2e {
namespace {

using namespace acrobat;

// Simulated per-launch device overhead (DESIGN.md §2), fixed for every
// workload so launch counts show up in wall time as on a GPU.
constexpr std::int64_t kLaunchNs = 3000;
constexpr int kSegments = 5;   // per phase; end-to-end values are their median
// Set-ups before each segment; setup_s is the sum of per-step medians over
// all of a run's set-ups.
constexpr int kSetupReps = 20;

// Nominal rates on a quiet 4-vCPU VM. They size each segment's work from
// --seconds, so a seed always gives the same inputs and wall time follows
// the machine; the two open-loop arrival rates are part of the workload.
constexpr double kZooRoundS = 0.175;        // one batch of each of the 14 configs
constexpr double kFleetRateRps = 1000;      // fleet_mixed phase A, ~1/5 of capacity
constexpr double kFleetClosedRps = 5000;    // fleet_mixed phase B, K=4
constexpr double kDecodeRateRps = 1500;     // decode_stream phase A, sessions/s
constexpr double kDecodeBurstRps = 10000;   // decode_stream phase B, sessions/s
constexpr double kWireRps = 1800;           // wire_decode, K=4 on one connection
// Warm segments: fixed work, about 0.1 s each (one batch of each config on
// batch_zoo), untimed, run before every measured segment once its set-ups
// are done.
constexpr int kFleetWarmPerClient = 100;
constexpr int kDecodeWarmSessions = 1000;
constexpr int kWireWarmRequests = 200;
constexpr int kClients = 4;                 // closed-loop population
constexpr int kZooBatch = 64;
constexpr int kServeInputs = 24;            // dataset size of the served models
constexpr int kMaxRetries = 16;             // 429 retries per wire request

// Trace events per unit of work, with at least 1.4x headroom over what the
// traced segments emit here; rings are sized from them so nothing drops.
constexpr std::size_t kZooEventsPerBatch = 512;
constexpr std::size_t kFleetOpenEvents = 128;
constexpr std::size_t kFleetClosedEvents = 64;
constexpr std::size_t kDecodeOpenEvents = 256;
constexpr std::size_t kDecodeBurstEvents = 128;
constexpr std::size_t kWireEvents = 256;
// The serving calls allocate their rings after stamping the trace epoch, so
// a traced open-loop segment starts its arrivals this late; otherwise the
// allocation shows up as generator lateness and queue wait.
constexpr std::int64_t kTraceLeadInNs = 100'000'000;

// bench/bench_util.h's dataset recipe: the paper benches' inputs.
models::Dataset dataset_for(const models::ModelSpec& spec, bool large, int batch) {
  return spec.build_dataset(large, batch, 0xbe9c5 + batch * 31 + (large ? 7 : 0));
}

int segments(const Params& p) { return p.smoke ? 1 : kSegments; }

// Duration of one segment of a workload with `phases` phases.
double segment_seconds(const Params& p, int phases) {
  return p.smoke ? 0.2 : p.seconds / static_cast<double>(kSegments * phases);
}

// Independent seeded streams per (phase, segment): splitmix64 of the mix.
std::uint64_t derive_seed(std::uint64_t seed, int phase, int segment) {
  std::uint64_t z = seed ^ (static_cast<std::uint64_t>(phase + 1) << 40) ^
                    static_cast<std::uint64_t>(segment + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// peak_rss_mb is each measured segment's own peak RSS (the larger of the
// two phases' where there are two; median over the segments): a vCPU stall
// that backs up one segment's queue then moves one sample, not the whole
// run's maximum. Before each segment freed heap goes back to the kernel and
// the high-water mark restarts at the current RSS.
void begin_segment() {
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double segment_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

// ------------------------------------------------------------- reference

std::vector<std::vector<float>> vm_outputs(const harness::Prepared& p,
                                           const models::Dataset& ds) {
  harness::RunOptions o;
  o.collect_outputs = true;
  return harness::run_vm(p, ds, o).outputs;
}

// The Decoder's per-input outputs and token counts. Each input runs alone
// in the VM; its token count is how often the stop head ran.
void decoder_reference(const harness::Prepared& p, const models::Dataset& ds,
                       Reference& ref) {
  int stop = -1;
  const KernelRegistry& reg = p.compiled.module.registry;
  for (std::size_t k = 0; k < reg.num_kernels(); ++k)
    if (reg.kernel(static_cast<int>(k)).name == "decoder.stop") stop = static_cast<int>(k);
  if (stop < 0) {
    std::fprintf(stderr, "acrobat_e2e: Decoder has no decoder.stop kernel\n");
    std::exit(2);
  }
  ref.out.emplace_back();
  ref.tokens.emplace_back();
  for (std::size_t i = 0; i < ds.inputs.size(); ++i) {
    models::Dataset one;
    one.pool = ds.pool;
    one.tensors = ds.tensors;
    one.inputs.push_back(ds.inputs[i]);
    harness::RunOptions o;
    o.collect_outputs = true;
    harness::RunResult r = harness::run_vm(p, one, o);
    ref.out.back().push_back(std::move(r.outputs.at(0)));
    ref.tokens.back().push_back(
        static_cast<int>(r.kernel_invocations.at(static_cast<std::size_t>(stop))));
  }
}

// --------------------------------------------------------------- set-up

template <class F>
double time_ms(F&& f) {
  const std::int64_t t0 = now_ns();
  f();
  return ms_between(t0, now_ns());
}

// The timed steps of one set-up, in order: preparing models and building
// datasets. Every set-up runs the same steps. Serving is no step: the warm
// segment that follows the set-ups is untimed, because a serving loop's
// total time follows the host's stalls; nor is wire_decode's server start,
// which is thread and socket creation (README.md, "Set-up").
struct SetupSteps {
  std::vector<double> ms;
  template <class F>
  void time(F&& f) { ms.push_back(time_ms(f)); }
};

// Every set-up of a run.
using SetupLog = std::vector<SetupSteps>;

// Builds a fresh workload state kSetupReps times, destroying the previous
// one first so no two states run at once, and keeps the last in `st`. It
// runs before every measured segment, which then runs on the state it
// built (after the warm segment): the set-ups spread over the whole run
// like the segments do, so a slow stretch of the host moves a few of them,
// not all.
template <class State, class Build>
void set_up(const Params& p, SetupLog& log, std::unique_ptr<State>& st, Build& build) {
  for (int r = 0; r < (p.smoke ? 1 : kSetupReps); ++r) {
    st.reset();
    log.emplace_back();
    st = build(log.back());
  }
}

// setup_s is the sum over the steps of each step's median over the
// set-ups: a host stall that hits one step of one set-up moves no step's
// median, where it would move that set-up's total. harness.warmup_ms is the
// untimed warm segment's median wall time.
void report_setup(Report& rep, const SetupLog& log, const std::vector<double>& warm_ms) {
  double sum = 0;
  for (std::size_t i = 0; i < log.front().ms.size(); ++i) {
    std::vector<double> step;
    for (const SetupSteps& s : log) step.push_back(s.ms[i]);
    sum += median(step);
  }
  rep.setup_s = sum * 1e-3;
  rep.layer["harness.prepare_ms"] = sum;
  rep.layer["harness.warmup_ms"] = median(warm_ms);
  std::printf("set-up: %zu set-ups, sum of step medians %.4f ms; untimed warm segment %.3f ms\n",
              log.size(), sum, median(warm_ms));
}

// ---------------------------------------------------- per-segment records

// latency_p50_ms: a closed loop's latency from issue (or from admission
// into one of its slots) to completion. The gated latencies come only from
// closed loops: a vCPU stall of the open-loop generator or shard counts in
// every request due meanwhile, so open-loop medians moved by up to 6x
// between runs on a shared VM.
void record_latency(Report& rep, const SegmentSamples& s) {
  rep.segments["latency_p50_ms"].push_back(median(s.latency_ms));
}

// diag.latency_* and diag.ttft_*: what an independently arriving user sees,
// from the open loop where a workload has one.
void record_user_latency(Report& rep, const SegmentSamples& s) {
  rep.segments["diag.latency_p50_ms"].push_back(median(s.latency_ms));
  rep.segments["diag.ttft_p50_ms"].push_back(median(s.ttft_ms));
  auto& pl = rep.pooled;
  pl.latency_ms.insert(pl.latency_ms.end(), s.latency_ms.begin(), s.latency_ms.end());
  pl.ttft_ms.insert(pl.ttft_ms.end(), s.ttft_ms.begin(), s.ttft_ms.end());
}

void record_itl(Report& rep, const SegmentSamples& s) {
  rep.segments["itl_p50_ms"].push_back(median(s.itl_ms));
  rep.pooled.itl_ms.insert(rep.pooled.itl_ms.end(), s.itl_ms.begin(), s.itl_ms.end());
}

void record_rates(Report& rep, const SegmentSamples& s) {
  rep.segments["diag.throughput_rps"].push_back(static_cast<double>(s.requests) / s.wall_s);
  rep.segments["diag.tokens_per_s"].push_back(static_cast<double>(s.outputs) / s.wall_s);
}

// A session's mean gap between consecutive tokens, in ms.
double mean_gap_ms(std::int64_t first_ns, std::int64_t last_ns, long long outputs) {
  return ms_between(first_ns, last_ns) / static_cast<double>(outputs - 1);
}

// Share of a segment's attempted requests that completed correctly (and
// within their class deadline, where there is one).
class GoodputCounter {
 public:
  explicit GoodputCounter(const Checker& c)
      : c_(c), attempted0_(c.attempted()), failed0_(c.failed()) {}
  double goodput(long long late = 0) const {
    const long long n = c_.attempted() - attempted0_;
    return n > 0 ? static_cast<double>(n - (c_.failed() - failed0_) - late) /
                       static_cast<double>(n)
                 : 0.0;
  }

 private:
  const Checker& c_;
  long long attempted0_, failed0_;
};

// ------------------------------------------------------ per-layer records

struct EngineTotals {
  std::int64_t dfg = 0, sched = 0, gather = 0, kernel = 0, launch = 0;
  long long launches = 0, gather_bytes = 0, flat = 0, stacked = 0, allocs = 0;
  long long hits = 0, misses = 0;

  void add(const ActivityStats& s) {
    dfg += s.dfg_construction.ns;
    sched += s.scheduling.ns;
    gather += s.gather_copy.ns;
    kernel += s.kernel_exec.ns;
    launch += s.launch_overhead.ns;
    launches += s.kernel_launches;
    gather_bytes += s.gather_bytes;
    flat += s.flat_batches;
    stacked += s.stacked_batches;
    allocs += s.scheduling_allocs;
    hits += s.sched_cache_hits;
    misses += s.sched_cache_misses;
  }
  double bucket_ms() const {
    return static_cast<double>(dfg + sched + gather + kernel + launch) * 1e-6;
  }
};

// Counts taken from the traced segment's event rings.
struct TraceCounts {
  long long triggers = 0, ops = 0, deferred = 0;
  std::uint64_t dropped = 0;

  void add(const trace::TraceDump& d) {
    for (const trace::TrackDump& t : d.tracks) {
      dropped += t.dropped;
      for (const trace::Event& e : t.events) {
        if (e.kind == trace::EventKind::kTrigger) ++triggers;
        if (e.kind == trace::EventKind::kBatch) ops += e.b;
        if (e.kind == trace::EventKind::kTriage) ++deferred;
      }
    }
  }
};

struct MemPeaks {
  std::size_t arena = 0, nodes = 0, sessions = 0, persist = 0;
  void add(const Engine::MemoryStats& m) {
    arena = std::max(arena, m.arena_high_water_bytes);
    nodes = std::max(nodes, m.node_table_size);
    sessions = std::max(sessions, m.session_buffers_peak);
    persist = std::max(persist, m.persist_arena_high_water_bytes);
  }
};

// Shard-side totals of one or more traced serving calls.
struct ShardTotals {
  EngineTotals engine;
  MemPeaks mem;
  long long stacks = 0;
  void add(const std::vector<serve::ShardReport>& shards) {
    for (const serve::ShardReport& s : shards) {
      engine.add(s.stats);
      mem.add(s.mem);
      stacks += s.stacks_allocated;
    }
  }
};

trace::TraceOptions traced_options(std::size_t units, std::size_t events_per_unit) {
  trace::TraceOptions t;
  t.enabled = true;
  t.config.ring_capacity = units * events_per_unit;
  t.config.max_exemplars = 0;  // an exemplar capture scans the whole ring
  return t;
}

std::vector<serve::Request> with_lead_in(std::vector<serve::Request> trace) {
  for (serve::Request& r : trace) r.arrival_ns += kTraceLeadInNs;
  return trace;
}

// Engine metrics per unit of work (a batch on batch_zoo, a request
// elsewhere); `wall_ms` is the traced calls' wall time, which the five
// engine buckets plus engine.residual_ms add up to.
void fill_engine_layers(Report& rep, const EngineTotals& e, const TraceCounts& t,
                        double units, double wall_ms, long long requests) {
  auto& L = rep.layer;
  L["engine.dfg_ms"] = static_cast<double>(e.dfg) * 1e-6 / units;
  L["engine.sched_ms"] = static_cast<double>(e.sched) * 1e-6 / units;
  L["engine.kernel_ms"] = static_cast<double>(e.kernel) * 1e-6 / units;
  L["engine.launch_ms"] = static_cast<double>(e.launch) * 1e-6 / units;
  L["engine.gather_ms"] = static_cast<double>(e.gather) * 1e-6 / units;
  L["engine.residual_ms"] = (wall_ms - e.bucket_ms()) / units;
  L["engine.launches"] = static_cast<double>(e.launches) / units;
  L["engine.gather_bytes"] = static_cast<double>(e.gather_bytes) / units;
  L["engine.ops_per_launch"] =
      e.launches > 0 ? static_cast<double>(t.ops) / static_cast<double>(e.launches) : 0.0;
  const long long probes = e.hits + e.misses;
  L["engine.memo_probes"] = static_cast<double>(probes);
  L["engine.memo_hit_ratio"] =
      probes > 0 ? static_cast<double>(e.hits) / static_cast<double>(probes) : 0.0;
  L["engine.flat_batches"] = static_cast<double>(e.flat) / units;
  L["engine.stacked_batches"] = static_cast<double>(e.stacked) / units;
  L["engine.scheduling_allocs"] = static_cast<double>(e.allocs);
  L["runtime.triggers"] = static_cast<double>(t.triggers);
  L["runtime.requests_per_trigger"] =
      t.triggers > 0 ? static_cast<double>(requests) / static_cast<double>(t.triggers) : 0.0;
  L["serve.engine_busy_frac"] = e.bucket_ms() / wall_ms;
  L["trace.dropped_events"] = static_cast<double>(t.dropped);
  std::printf("traced budget: buckets %.3f ms + residual %.3f ms = wall %.3f ms over %.0f units\n",
              e.bucket_ms(), wall_ms - e.bucket_ms(), wall_ms, units);
}

void fill_mem_layers(Report& rep, const MemPeaks& m, long long stacks) {
  auto& L = rep.layer;
  L["mem.arena_high_water_kb"] = static_cast<double>(m.arena) / 1024.0;
  L["mem.node_table_slots"] = static_cast<double>(m.nodes);
  L["mem.session_buffers_peak"] = static_cast<double>(m.sessions);
  L["mem.persist_kb"] = static_cast<double>(m.persist) / 1024.0;
  L["runtime.stacks_allocated"] = static_cast<double>(stacks);
}

// Serve-layer waits of an open-loop segment, from its per-request stamps.
void fill_serve_waits(Report& rep, const std::vector<serve::RequestRecord>& records) {
  std::vector<double> wait, service;
  for (const serve::RequestRecord& r : records) {
    if (r.admit_ns < 0) continue;  // shed before admission
    wait.push_back(ms_between(r.arrival_ns, r.admit_ns));
    service.push_back(ms_between(r.admit_ns, r.completion_ns));
  }
  rep.layer["serve.queue_wait_p50_ms"] = quantile(wait, 0.50);
  rep.layer["serve.queue_wait_p90_ms"] = quantile(wait, 0.90);
  rep.layer["serve.service_p50_ms"] = quantile(service, 0.50);
}

// How late the open-loop generator dispatched: kDispatch instant − due time.
void fill_lateness(Report& rep, const trace::TraceDump& d,
                   const std::vector<serve::Request>& trace) {
  std::vector<double> late;
  for (const trace::TrackDump& t : d.tracks)
    for (const trace::Event& e : t.events)
      if (e.kind == trace::EventKind::kDispatch)
        late.push_back(
            ms_between(trace.at(static_cast<std::size_t>(e.a)).arrival_ns, e.t_ns));
  rep.layer["loadgen.lateness_p99_ms"] = quantile(late, 0.99);
}

// trace.overhead_pct: the traced segment's diag.latency_p50_ms against the
// median of the untraced segments.
void fill_overhead(Report& rep, double traced_p50_ms) {
  const double base = median(rep.segments.at("diag.latency_p50_ms"));
  rep.layer["trace.overhead_pct"] = base > 0 ? 100.0 * (traced_p50_ms / base - 1.0) : 0.0;
}

// --trace-dir: <workload>.<part>.json, a trace::TraceDump or the Spans.
template <class Trace>
void write_trace(const Params& p, const char* part, const Trace& t) {
  if (p.trace_dir.empty()) return;
  std::filesystem::create_directories(p.trace_dir);
  const std::string path = p.trace_dir + "/" + p.workload + "." + part + ".json";
  if (!t.write_chrome_json(path)) {
    std::fprintf(stderr, "acrobat_e2e: cannot write %s\n", path.c_str());
    std::exit(2);
  }
}

// ============================================================ batch_zoo

struct ZooConfig {
  std::string name;
  harness::Prepared prep;
  models::Dataset ds;
};

struct ZooState {
  std::vector<ZooConfig> configs;
};

// The 7 paper models at both sizes, in a fixed order.
std::vector<std::pair<const models::ModelSpec*, bool>> zoo_kinds() {
  std::vector<std::pair<const models::ModelSpec*, bool>> kinds;
  for (const models::ModelSpec& spec : models::all_models())
    for (const bool large : {false, true}) kinds.emplace_back(&spec, large);
  return kinds;
}

harness::RunOptions zoo_options() {
  harness::RunOptions o;
  o.launch_overhead_ns = kLaunchNs;
  o.collect_outputs = true;  // the AOT path with the closed-batch default: memo off
  return o;
}

void check_batch(Checker& chk, std::size_t kind, const harness::RunResult& r) {
  if (r.oom || r.outputs.size() != static_cast<std::size_t>(kZooBatch)) {
    for (int i = 0; i < kZooBatch; ++i) chk.fail("batch produced no outputs");
    return;
  }
  for (std::size_t i = 0; i < r.outputs.size(); ++i) chk.expect(kind, i, r.outputs[i]);
}

Report run_batch_zoo(const Params& p, Checker& chk) {
  Report rep;
  const auto kinds = zoo_kinds();
  {
    Reference ref;
    for (const auto& [spec, large] : kinds)
      ref.out.push_back(vm_outputs(harness::prepare(*spec, large, passes::PipelineConfig{}),
                                   dataset_for(*spec, large, kZooBatch)));
    chk.set_reference(std::move(ref), p.self_test);
  }

  const harness::RunOptions opts = zoo_options();
  const auto build = [&](SetupSteps& steps) {
    auto s = std::make_unique<ZooState>();
    for (const auto& [spec, large] : kinds)
      steps.time([&, spec = spec, large = large] {
        s->configs.push_back(ZooConfig{spec->name + (large ? "/large" : "/small"),
                                       harness::prepare(*spec, large, passes::PipelineConfig{}),
                                       dataset_for(*spec, large, kZooBatch)});
      });
    return s;
  };
  SetupLog setup;
  std::vector<double> warm_ms;
  std::unique_ptr<ZooState> st;

  const int rounds =
      std::max(1, static_cast<int>(std::lround(segment_seconds(p, 1) / kZooRoundS)));
  for (int seg = 0; seg < segments(p); ++seg) {
    set_up(p, setup, st, build);
    warm_ms.push_back(time_ms([&] {
      for (const ZooConfig& c : st->configs) harness::run_acrobat(c.prep, c.ds, opts);
    }));
    begin_segment();
    SegmentSamples s;
    std::vector<std::vector<double>> per_kind(st->configs.size());
    const GoodputCounter good(chk);
    const std::int64_t t_seg = now_ns();
    std::int64_t last_done = t_seg;
    for (int r = 0; r < rounds; ++r) {
      for (std::size_t k = 0; k < st->configs.size(); ++k) {
        const ZooConfig& c = st->configs[k];
        const std::int64_t t0 = now_ns();
        const harness::RunResult res = harness::run_acrobat(c.prep, c.ds, opts);
        const std::int64_t t1 = now_ns();
        check_batch(chk, k, res);
        const double ms = ms_between(t0, t1);
        s.latency_ms.push_back(ms);
        s.ttft_ms.push_back(ms);  // all 64 outputs land when the batch does
        per_kind[k].push_back(ms);
        if (s.requests++ > 0) s.itl_ms.push_back(ms_between(last_done, t1));
        last_done = t1;
      }
    }
    s.wall_s = static_cast<double>(now_ns() - t_seg) * 1e-9;
    rep.segments["peak_rss_mb"].push_back(segment_peak_mb());
    s.outputs = s.requests * kZooBatch;
    std::vector<double> kind_medians;
    for (const auto& v : per_kind) kind_medians.push_back(median(v));
    rep.segments["batch_ms_geomean"].push_back(geomean(kind_medians));
    rep.segments["diag.goodput"].push_back(good.goodput());
    record_latency(rep, s);  // one client: the closed loop is also what a user sees
    record_user_latency(rep, s);
    record_itl(rep, s);
    record_rates(rep, s);
  }
  report_setup(rep, setup, warm_ms);

  if (!p.trace) return rep;
  trace::Tracer tracer(
      0, traced_options(static_cast<std::size_t>(rounds) * st->configs.size(), kZooEventsPerBatch)
             .config);
  Spans spans;
  const std::int64_t epoch = now_ns();
  tracer.set_epoch(epoch);
  spans.set_epoch(epoch);
  harness::RunOptions topts = opts;
  topts.time_activities = true;
  topts.tracer = &tracer;
  EngineTotals eng;
  std::vector<double> batch_ms;
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t k = 0; k < st->configs.size(); ++k) {
      const ZooConfig& c = st->configs[k];
      const harness::RunResult res =
          spans.time(c.name, [&] { return harness::run_acrobat(c.prep, c.ds, topts); });
      check_batch(chk, k, res);
      eng.add(res.stats);
      batch_ms.push_back(ms_between(spans.spans().back().t0_ns, spans.spans().back().t1_ns));
    }
  }
  trace::TraceDump dump;
  dump.tracks.push_back(trace::dump_track(tracer, 1, "engine"));
  TraceCounts counts;
  counts.add(dump);
  const double batches = static_cast<double>(batch_ms.size());
  fill_engine_layers(rep, eng, counts, batches, spans.total_ms(),
                     static_cast<long long>(batch_ms.size()) * kZooBatch);
  fill_overhead(rep, quantile(batch_ms, 0.5));
  write_trace(p, "engine", dump);
  write_trace(p, "bench", spans);
  return rep;
}

// ========================================================== fleet_mixed

struct FleetState {
  fleet::ModelRegistry reg;
  std::vector<serve::ModelMix> mix;
};

const char* const kFleetModels[] = {"TreeLSTM", "BiRNN"};

fleet::FleetOptions fleet_options() {
  fleet::FleetOptions o;
  o.launch_overhead_ns = kLaunchNs;
  o.collect_outputs = true;
  // Blown requests are deprioritized but not shed. On a shared 4-vCPU VM a
  // busy thread stalls for 5-100 ms up to several times a second, which
  // blows the 5 ms interactive deadline of whatever is queued; shedding
  // then failed 1-2.5% of the requests at 1000 rps. Deadline misses still
  // count against diag.goodput.
  o.policy.shed = false;
  return o;
}

// Checks a fleet call's outputs; `reqs[i]` names record i's model and input.
void check_fleet(Checker& chk, const std::vector<serve::Request>& reqs,
                 const std::vector<serve::RequestRecord>& records) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].shed)
      chk.fail("shed");
    else
      chk.expect(static_cast<std::size_t>(reqs[i].model_id), reqs[i].input_index,
                 records[i].output);
  }
}

std::vector<serve::Request> fleet_open_trace(const FleetState& st, double seconds,
                                             std::uint64_t seed) {
  serve::LoadSpec ls;
  ls.kind = serve::ArrivalKind::kPoisson;
  ls.rate_rps = kFleetRateRps;
  ls.num_requests = std::max(1, static_cast<int>(std::lround(kFleetRateRps * seconds)));
  ls.seed = seed;
  return serve::generate_load(ls, st.mix);
}

fleet::ClosedLoopSpec fleet_closed_spec(double seconds, std::uint64_t seed) {
  fleet::ClosedLoopSpec cs;
  cs.clients = kClients;
  cs.per_client = std::max(
      2, static_cast<int>(std::lround(kFleetClosedRps * seconds / kClients)));
  cs.think_mean_ms = 0;
  cs.seed = seed;
  return cs;
}

// Phase A (diag): latency from the due arrival, TTFT (= latency: one output
// per request), and goodput against the class deadlines.
void record_fleet_open(Report& rep, Checker& chk, const fleet::FleetOptions& o,
                       const std::vector<serve::Request>& trace,
                       const fleet::FleetResult& res) {
  const GoodputCounter good(chk);
  check_fleet(chk, trace, res.records);
  SegmentSamples s;
  long long late = 0;
  for (std::size_t i = 0; i < res.records.size(); ++i) {
    const serve::RequestRecord& r = res.records[i];
    if (r.shed) continue;
    s.latency_ms.push_back(r.latency_ms());
    s.ttft_ms.push_back(r.latency_ms());
    const std::int64_t d = fleet::class_deadline_ns(o.policy, trace[i].latency_class);
    if (d > 0 && r.completion_ns - r.arrival_ns > d) ++late;
  }
  rep.segments["diag.goodput"].push_back(good.goodput(late));
  record_user_latency(rep, s);
}

// Phase B: latency from issue, its per-model geomean, the gaps between each
// client's consecutive completions (client c issues ids c*per_client.. in
// order), and the rates.
void record_fleet_closed(Report& rep, Checker& chk, const fleet::ClosedLoopSpec& cs,
                         const std::vector<serve::ModelMix>& mix,
                         const fleet::FleetResult& res, double wall_s) {
  const std::vector<serve::Request> reqs = fleet::generate_closed_load(cs, mix);
  check_fleet(chk, reqs, res.records);
  SegmentSamples s;
  s.wall_s = wall_s;
  std::vector<std::vector<double>> per_model(std::size(kFleetModels));
  for (std::size_t i = 0; i < res.records.size(); ++i) {
    const serve::RequestRecord& r = res.records[i];
    if (r.shed) continue;
    s.latency_ms.push_back(r.latency_ms());  // arrival is the issue time here
    per_model[static_cast<std::size_t>(reqs[i].model_id)].push_back(r.latency_ms());
    if (i % static_cast<std::size_t>(cs.per_client) != 0)
      s.itl_ms.push_back(ms_between(res.records[i - 1].completion_ns, r.completion_ns));
    ++s.requests;
  }
  s.outputs = s.requests;
  std::vector<double> model_medians;
  for (const auto& v : per_model) model_medians.push_back(median(v));
  rep.segments["batch_ms_geomean"].push_back(geomean(model_medians));
  record_latency(rep, s);
  record_itl(rep, s);
  record_rates(rep, s);
}

Report run_fleet_mixed(const Params& p, Checker& chk) {
  Report rep;
  {
    Reference ref;
    for (const char* name : kFleetModels) {
      const models::ModelSpec& spec = models::model_by_name(name);
      ref.out.push_back(vm_outputs(harness::prepare(spec, false, passes::PipelineConfig{}),
                                   dataset_for(spec, false, kServeInputs)));
    }
    chk.set_reference(std::move(ref), p.self_test);
  }

  const fleet::FleetOptions opts = fleet_options();
  const auto build = [&](SetupSteps& steps) {
    auto s = std::make_unique<FleetState>();
    steps.time([&] {
      for (const char* name : kFleetModels) {
        const models::ModelSpec& spec = models::model_by_name(name);
        s->reg.add(spec, false, dataset_for(spec, false, kServeInputs));
      }
      s->reg.prepare();
      s->mix = s->reg.uniform_mix();
      for (serve::ModelMix& m : s->mix) {
        m.p_interactive = 0.5;
        m.p_batch = 0.3;  // the remaining 20% are best-effort
      }
    });
    return s;
  };
  SetupLog setup;
  std::vector<double> warm_ms;
  std::unique_ptr<FleetState> st;
  fleet::ClosedLoopSpec warm;
  warm.clients = kClients;
  warm.per_client = kFleetWarmPerClient;
  warm.think_mean_ms = 0;

  const double seg_s = segment_seconds(p, 2);
  for (int seg = 0; seg < segments(p); ++seg) {
    set_up(p, setup, st, build);
    warm_ms.push_back(time_ms([&] { fleet::serve_fleet_closed(st->reg, warm, st->mix, opts); }));
    const std::vector<serve::Request> trace =
        fleet_open_trace(*st, seg_s, derive_seed(p.seed, 0, seg));
    begin_segment();
    const fleet::FleetResult open = fleet::serve_fleet(st->reg, trace, opts);
    const double peak_mb = segment_peak_mb();
    record_fleet_open(rep, chk, opts, trace, open);

    const fleet::ClosedLoopSpec cs = fleet_closed_spec(seg_s, derive_seed(p.seed, 1, seg));
    begin_segment();
    const std::int64_t t0 = now_ns();
    const fleet::FleetResult closed = fleet::serve_fleet_closed(st->reg, cs, st->mix, opts);
    const double wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    rep.segments["peak_rss_mb"].push_back(std::max(peak_mb, segment_peak_mb()));
    record_fleet_closed(rep, chk, cs, st->mix, closed, wall_s);
  }
  report_setup(rep, setup, warm_ms);

  if (!p.trace) return rep;
  fleet::FleetOptions topts = opts;
  topts.time_activities = true;
  Spans spans;
  spans.set_epoch(now_ns());
  ShardTotals shard;
  TraceCounts counts;
  long long requests = 0;

  const std::vector<serve::Request> trace =
      with_lead_in(fleet_open_trace(*st, seg_s, derive_seed(p.seed, 0, kSegments)));
  topts.trace = traced_options(trace.size(), kFleetOpenEvents);
  const fleet::FleetResult open =
      spans.time("serve_fleet", [&] { return fleet::serve_fleet(st->reg, trace, topts); });
  Report scratch;  // the traced segment's end-to-end values stay out of the report
  record_fleet_open(scratch, chk, topts, trace, open);
  shard.add(open.shards);
  counts.add(open.trace);
  requests += static_cast<long long>(open.records.size());
  fill_serve_waits(rep, open.records);
  fill_lateness(rep, open.trace, trace);
  fill_overhead(rep, scratch.segments.at("diag.latency_p50_ms").at(0));
  rep.layer["fleet.goodput_interactive"] = open.by_class[0].goodput;
  write_trace(p, "open", open.trace);

  const fleet::ClosedLoopSpec cs = fleet_closed_spec(seg_s, derive_seed(p.seed, 1, kSegments));
  topts.trace = traced_options(static_cast<std::size_t>(cs.clients * cs.per_client),
                               kFleetClosedEvents);
  const fleet::FleetResult closed = spans.time(
      "serve_fleet_closed", [&] { return fleet::serve_fleet_closed(st->reg, cs, st->mix, topts); });
  check_fleet(chk, fleet::generate_closed_load(cs, st->mix), closed.records);
  shard.add(closed.shards);
  counts.add(closed.trace);
  requests += static_cast<long long>(closed.records.size());
  write_trace(p, "closed", closed.trace);

  fill_engine_layers(rep, shard.engine, counts, static_cast<double>(requests), spans.total_ms(),
                     requests);
  fill_mem_layers(rep, shard.mem, shard.stacks);
  rep.layer["fleet.deferred"] = static_cast<double>(counts.deferred);
  write_trace(p, "bench", spans);
  return rep;
}

// ======================================================== decode_stream

struct DecodeState {
  harness::Prepared prep;
  models::Dataset ds;
};

serve::ServeOptions decode_options() {
  serve::ServeOptions o;  // greedy policy, recycle and schedule memo on
  o.launch_overhead_ns = kLaunchNs;
  o.collect_outputs = true;
  return o;
}

// Phase B: a t=0 burst of `sessions` sessions under max-batch 16, a closed
// system of 16 slots: a session is admitted the moment another completes.
std::vector<serve::Request> decode_burst(std::size_t inputs, int sessions, std::uint64_t seed) {
  serve::LoadSpec ls;
  ls.num_requests = sessions;
  ls.seed = seed;
  std::vector<serve::Request> trace = serve::generate_load(ls, inputs);
  for (serve::Request& r : trace) r.arrival_ns = 0;
  return trace;
}

serve::ServeOptions burst_options(serve::ServeOptions o) {
  o.policy.kind = serve::PolicyKind::kMaxBatch;
  o.policy.max_batch = 16;
  return o;
}

// Checks every session; fills latency and TTFT from `start` (the due arrival
// or the admission) and each session's mean token gap.
SegmentSamples check_sessions(Checker& chk, const std::vector<serve::Request>& trace,
                              const std::vector<serve::RequestRecord>& records,
                              std::int64_t serve::RequestRecord::*start) {
  SegmentSamples s;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const serve::RequestRecord& r = records[i];
    if (r.cancelled) {
      chk.fail("session cancelled");
      continue;
    }
    chk.expect(0, trace[i].input_index, r.output, r.tokens);
    s.latency_ms.push_back(ms_between(r.*start, r.completion_ns));
    s.ttft_ms.push_back(
        ms_between(r.*start, r.first_token_ns >= 0 ? r.first_token_ns : r.completion_ns));
    if (r.tokens > 1) s.itl_ms.push_back(mean_gap_ms(r.first_token_ns, r.last_token_ns, r.tokens));
    ++s.requests;
    s.outputs += r.tokens;
  }
  return s;
}

// Phase A (diag): latency and TTFT from the due arrival, goodput.
void record_decode_open(Report& rep, Checker& chk, const std::vector<serve::Request>& trace,
                        const serve::ServeResult& res) {
  const GoodputCounter good(chk);
  const SegmentSamples s =
      check_sessions(chk, trace, res.records, &serve::RequestRecord::arrival_ns);
  rep.segments["diag.goodput"].push_back(good.goodput());
  record_user_latency(rep, s);
}

// Phase B: session latency from admission into a slot, token gaps, rates.
void record_decode_burst(Report& rep, Checker& chk, const std::vector<serve::Request>& burst,
                         const serve::ServeResult& res, double wall_s) {
  SegmentSamples s = check_sessions(chk, burst, res.records, &serve::RequestRecord::admit_ns);
  s.wall_s = wall_s;
  rep.segments["batch_ms_geomean"].push_back(median(s.latency_ms));  // one request kind
  record_latency(rep, s);
  record_itl(rep, s);
  record_rates(rep, s);
}

Report run_decode_stream(const Params& p, Checker& chk) {
  Report rep;
  const models::ModelSpec& spec = models::model_by_name("Decoder");
  {
    Reference ref;
    decoder_reference(harness::prepare(spec, false, passes::PipelineConfig{}),
                      dataset_for(spec, false, kServeInputs), ref);
    chk.set_reference(std::move(ref), p.self_test);
  }

  const serve::ServeOptions opts = decode_options();
  const auto build = [&](SetupSteps& steps) {
    auto s = std::make_unique<DecodeState>();
    steps.time([&] {
      s->prep = harness::prepare(spec, false, passes::PipelineConfig{});
      s->ds = dataset_for(spec, false, kServeInputs);
    });
    return s;
  };
  SetupLog setup;
  std::vector<double> warm_ms;
  std::unique_ptr<DecodeState> st;

  const double seg_s = segment_seconds(p, 2);
  const auto open_trace = [&](std::uint64_t seed) {
    serve::LoadSpec ls;
    ls.rate_rps = kDecodeRateRps;
    ls.num_requests = std::max(1, static_cast<int>(std::lround(kDecodeRateRps * seg_s)));
    ls.seed = seed;
    return serve::generate_load(ls, st->ds.inputs.size());
  };
  const int burst_n = std::max(1, static_cast<int>(std::lround(kDecodeBurstRps * seg_s)));
  for (int seg = 0; seg < segments(p); ++seg) {
    set_up(p, setup, st, build);
    const std::vector<serve::Request> warm =
        decode_burst(st->ds.inputs.size(), kDecodeWarmSessions, 1);
    warm_ms.push_back(time_ms([&] { serve::serve(st->prep, st->ds, warm, burst_options(opts)); }));
    const std::vector<serve::Request> trace = open_trace(derive_seed(p.seed, 0, seg));
    begin_segment();
    const serve::ServeResult open = serve::serve(st->prep, st->ds, trace, opts);
    const double peak_mb = segment_peak_mb();
    record_decode_open(rep, chk, trace, open);

    const std::vector<serve::Request> burst =
        decode_burst(st->ds.inputs.size(), burst_n, derive_seed(p.seed, 1, seg));
    begin_segment();
    const std::int64_t t0 = now_ns();
    const serve::ServeResult off = serve::serve(st->prep, st->ds, burst, burst_options(opts));
    const double wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    rep.segments["peak_rss_mb"].push_back(std::max(peak_mb, segment_peak_mb()));
    record_decode_burst(rep, chk, burst, off, wall_s);
  }
  report_setup(rep, setup, warm_ms);

  if (!p.trace) return rep;
  serve::ServeOptions topts = opts;
  topts.time_activities = true;
  Spans spans;
  spans.set_epoch(now_ns());
  ShardTotals shard;
  TraceCounts counts;
  long long requests = 0;

  const std::vector<serve::Request> trace =
      with_lead_in(open_trace(derive_seed(p.seed, 0, kSegments)));
  topts.trace = traced_options(trace.size(), kDecodeOpenEvents);
  const serve::ServeResult open =
      spans.time("serve", [&] { return serve::serve(st->prep, st->ds, trace, topts); });
  Report scratch;  // the traced segment's end-to-end values stay out of the report
  record_decode_open(scratch, chk, trace, open);
  shard.add(open.shards);
  counts.add(open.trace);
  requests += static_cast<long long>(open.records.size());
  fill_serve_waits(rep, open.records);
  fill_lateness(rep, open.trace, trace);
  fill_overhead(rep, scratch.segments.at("diag.latency_p50_ms").at(0));
  write_trace(p, "open", open.trace);

  const std::vector<serve::Request> burst =
      decode_burst(st->ds.inputs.size(), burst_n, derive_seed(p.seed, 1, kSegments));
  topts.trace = traced_options(burst.size(), kDecodeBurstEvents);
  const serve::ServeResult off = spans.time(
      "serve_burst", [&] { return serve::serve(st->prep, st->ds, burst, burst_options(topts)); });
  check_sessions(chk, burst, off.records, &serve::RequestRecord::admit_ns);
  shard.add(off.shards);
  counts.add(off.trace);
  requests += static_cast<long long>(off.records.size());
  write_trace(p, "burst", off.trace);

  fill_engine_layers(rep, shard.engine, counts, static_cast<double>(requests), spans.total_ms(),
                     requests);
  fill_mem_layers(rep, shard.mem, shard.stacks);
  write_trace(p, "bench", spans);
  return rep;
}

// ========================================================== wire_decode

// The Decoder recipe of bench/net_client.cpp: 8 inputs, dataset seed 7.
constexpr int kWireInputs = 8;
constexpr std::uint64_t kWireDatasetSeed = 7;

net::NetOptions wire_options() {
  net::NetOptions o;  // loopback TCP on an ephemeral port, in-proc shard
  o.launch_overhead_ns = kLaunchNs;
  o.ds_batch = kWireInputs;
  o.ds_seed = kWireDatasetSeed;
  return o;
}

struct WireState {
  harness::Prepared prep;
  models::Dataset ds;  // both outlive the server, which points at them
  std::unique_ptr<net::NetServer> srv;
  net::NetClient cli;
};

void start_server(WireState& st, const net::NetOptions& o) {
  st.srv = std::make_unique<net::NetServer>(&st.prep, &st.ds, o);
  if (!st.srv->start() || !st.cli.connect_tcp("127.0.0.1", st.srv->port())) {
    std::fprintf(stderr, "acrobat_e2e: loopback server unavailable: %s %s\n",
                 st.srv->error().c_str(), st.cli.error().c_str());
    std::exit(2);
  }
}

// Closed loop on one connection: K requests pipelined, each completion
// issues the next; a 429 is resent at once and counted. Latency and TTFT run
// from the first send; token stamps are taken on receipt.
SegmentSamples drive_wire(net::NetClient& cli, int n, std::uint64_t seed, Checker& chk,
                          long long& retries) {
  Rng rng(seed);
  std::vector<std::uint32_t> input(static_cast<std::size_t>(n));
  for (std::uint32_t& x : input) x = static_cast<std::uint32_t>(rng.uniform_int(kWireInputs));
  std::vector<std::int64_t> sent(static_cast<std::size_t>(n));
  std::vector<int> attempts(static_cast<std::size_t>(n), 0);
  SegmentSamples s;
  int next = 0;
  const std::int64_t t_start = now_ns();
  for (int done = 0; done < n;) {
    for (; next < n && next - done < kClients; ++next) {
      sent[static_cast<std::size_t>(next)] = now_ns();
      cli.send_request(static_cast<std::uint32_t>(next), input[static_cast<std::size_t>(next)]);
    }
    // The oldest outstanding request; later completions wait in the client.
    const std::size_t id = static_cast<std::size_t>(done);
    net::ClientResponse r;
    if (!cli.wait(static_cast<std::uint32_t>(id), r, 10'000)) {
      for (; done < n; ++done) chk.fail("no response (connection lost or timeout)");
      break;
    }
    if (r.kind == net::ClientResponse::Kind::kRetry) {
      ++retries;
      if (++attempts[id] <= kMaxRetries) {
        cli.send_request(static_cast<std::uint32_t>(id), input[id]);
        continue;
      }
      chk.fail("429 retries exhausted");
    } else if (r.kind == net::ClientResponse::Kind::kError) {
      chk.fail("kError");
    } else if (r.cancelled) {
      chk.fail("session cancelled");
    } else {
      chk.expect(0, input[id], r.output, static_cast<int>(r.tokens));
      const double ms = ms_between(sent[id], r.done_recv_ns);
      s.latency_ms.push_back(ms);
      s.ttft_ms.push_back(r.token_recv_ns.empty() ? ms
                                                  : ms_between(sent[id], r.token_recv_ns.front()));
      if (r.token_recv_ns.size() > 1)
        s.itl_ms.push_back(mean_gap_ms(r.token_recv_ns.front(), r.token_recv_ns.back(),
                                       static_cast<long long>(r.token_recv_ns.size())));
      ++s.requests;
      s.outputs += r.tokens;
    }
    ++done;
  }
  s.wall_s = static_cast<double>(now_ns() - t_start) * 1e-9;
  return s;
}

Report run_wire_decode(const Params& p, Checker& chk) {
  Report rep;
  const models::ModelSpec& spec = models::model_by_name("Decoder");
  {
    Reference ref;
    decoder_reference(harness::prepare(spec, false, passes::PipelineConfig{}),
                      spec.build_dataset(false, kWireInputs, kWireDatasetSeed), ref);
    chk.set_reference(std::move(ref), p.self_test);
  }

  long long retries = 0;
  const auto build = [&](SetupSteps& steps) {
    auto s = std::make_unique<WireState>();
    steps.time([&] {
      s->prep = harness::prepare(spec, false, passes::PipelineConfig{});
      s->ds = spec.build_dataset(false, kWireInputs, kWireDatasetSeed);
    });
    return s;
  };
  SetupLog setup;
  std::vector<double> start_ms, warm_ms;
  std::unique_ptr<WireState> st;

  const double seg_s = segment_seconds(p, 1);
  const int n = std::max(1, static_cast<int>(std::lround(kWireRps * seg_s)));
  for (int seg = 0; seg < segments(p); ++seg) {
    // The previous segment's server stops with its state, before the
    // set-ups; this segment's starts once they are done.
    set_up(p, setup, st, build);
    start_ms.push_back(time_ms([&] { start_server(*st, wire_options()); }));
    warm_ms.push_back(time_ms([&] { drive_wire(st->cli, kWireWarmRequests, 1, chk, retries); }));
    const GoodputCounter good(chk);
    begin_segment();
    const SegmentSamples s = drive_wire(st->cli, n, derive_seed(p.seed, 0, seg), chk, retries);
    rep.segments["peak_rss_mb"].push_back(segment_peak_mb());
    rep.segments["diag.goodput"].push_back(good.goodput());
    rep.segments["batch_ms_geomean"].push_back(median(s.latency_ms));  // one request kind
    record_latency(rep, s);  // a closed loop is the only load here
    record_user_latency(rep, s);
    record_itl(rep, s);
    record_rates(rep, s);
  }
  report_setup(rep, setup, warm_ms);
  rep.layer["harness.start_ms"] = median(start_ms);

  if (!p.trace) return rep;
  // A fresh server with tracing on; the measured one stops first so the
  // process never runs more than the four load threads.
  st->cli.close();
  st->srv->shutdown();
  net::NetOptions topts = wire_options();
  topts.trace = traced_options(static_cast<std::size_t>(n), kWireEvents);
  start_server(*st, topts);
  Spans spans;
  spans.set_epoch(now_ns());
  long long traced_retries = 0;
  const SegmentSamples s = spans.time("net_client", [&] {
    return drive_wire(st->cli, n, derive_seed(p.seed, 0, kSegments), chk, traced_retries);
  });
  st->cli.close();
  st->srv->shutdown();
  const net::NetStats& ns = st->srv->stats();

  ShardTotals shard;
  shard.add(ns.shards);
  TraceCounts counts;
  counts.add(ns.trace);
  fill_engine_layers(rep, shard.engine, counts, static_cast<double>(n), spans.total_ms(), n);
  fill_mem_layers(rep, shard.mem, shard.stacks);
  fill_overhead(rep, quantile(s.latency_ms, 0.5));
  // Server-side queue wait: each session's first kAdmit carries admit − arrival.
  std::vector<double> wait;
  std::vector<char> seen;
  for (const trace::TrackDump& t : ns.trace.tracks)
    for (const trace::Event& e : t.events) {
      if (e.kind != trace::EventKind::kAdmit || e.a < 0) continue;
      if (seen.size() <= static_cast<std::size_t>(e.a)) seen.resize(static_cast<std::size_t>(e.a) + 1);
      if (seen[static_cast<std::size_t>(e.a)] != 0) continue;
      seen[static_cast<std::size_t>(e.a)] = 1;
      wait.push_back(static_cast<double>(e.c) * 1e-6);
    }
  auto& L = rep.layer;
  L["serve.queue_wait_p50_ms"] = quantile(wait, 0.50);
  L["serve.queue_wait_p90_ms"] = quantile(wait, 0.90);
  L["net.ingress_ttft_ms"] =
      quantile(s.ttft_ms, 0.5) - ns.shards.at(0).ttft_ms.quantile(0.5);
  L["net.rejected_429"] = static_cast<double>(ns.rejected_429);
  L["net.client_retries"] = static_cast<double>(traced_retries);
  L["net.admission_peak"] = static_cast<double>(ns.admission_peak);
  L["net.write_buf_peak"] = static_cast<double>(ns.write_buf_peak);
  write_trace(p, "net", ns.trace);
  write_trace(p, "bench", spans);
  return rep;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"batch_zoo", "fleet_mixed", "decode_stream",
                                                 "wire_decode"};
  return names;
}

Report run_workload(const Params& p, Checker& check) {
  if (p.workload == "batch_zoo") return run_batch_zoo(p, check);
  if (p.workload == "fleet_mixed") return run_fleet_mixed(p, check);
  if (p.workload == "decode_stream") return run_decode_stream(p, check);
  if (p.workload == "wire_decode") return run_wire_decode(p, check);
  std::fprintf(stderr, "acrobat_e2e: unknown workload '%s'\n", p.workload.c_str());
  std::exit(2);
}

}  // namespace e2e
