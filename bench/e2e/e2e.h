// Shared pieces of the end-to-end benchmark (README.md): run parameters, the
// metric tables that BENCHMARK.json mirrors, nearest-rank statistics, the
// output check against the VM reference, and the benchmark's own spans.
//
// The benchmark reaches the stack only through its public entry points
// (harness, fleet, serve, net) and times those calls from outside.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/timer.h"

namespace e2e {

struct Params {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;  // measured time, spread over every segment of a run
  bool trace = false;   // also run the traced segment; print per-layer metrics
  bool smoke = false;   // one short segment per phase, one set-up
  bool self_test = false;  // perturb one reference value: the check must fail
  std::string trace_dir;   // Chrome trace-event JSON of the traced segment
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics, printed with --trace 0. Each is defined on every
// workload; README.md gives the per-workload definition.
inline const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"batch_ms_geomean", "ms"},
      {"latency_p50_ms", "ms"},
      {"itl_p50_ms", "ms"},
  };
  return defs;
}

// The per-layer metrics, printed with --trace 1. A layer a workload does not
// exercise reads 0 there (README.md lists which).
inline const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"harness.prepare_ms", "ms"},
      {"harness.start_ms", "ms"},
      {"harness.warmup_ms", "ms"},
      {"engine.dfg_ms", "ms"},
      {"engine.sched_ms", "ms"},
      {"engine.kernel_ms", "ms"},
      {"engine.launch_ms", "ms"},
      {"engine.gather_ms", "ms"},
      {"engine.residual_ms", "ms"},
      {"engine.launches", "count"},
      {"engine.gather_bytes", "bytes"},
      {"engine.ops_per_launch", "ops/launch"},
      {"engine.memo_hit_ratio", "fraction"},
      {"engine.memo_probes", "count"},
      {"engine.flat_batches", "count"},
      {"engine.stacked_batches", "count"},
      {"engine.scheduling_allocs", "count"},
      {"runtime.triggers", "count"},
      {"runtime.requests_per_trigger", "req/trigger"},
      {"runtime.stacks_allocated", "count"},
      {"serve.queue_wait_p50_ms", "ms"},
      {"serve.queue_wait_p90_ms", "ms"},
      {"serve.service_p50_ms", "ms"},
      {"serve.engine_busy_frac", "fraction"},
      {"loadgen.lateness_p99_ms", "ms"},
      {"fleet.deferred", "count"},
      {"fleet.goodput_interactive", "fraction"},
      {"net.ingress_ttft_ms", "ms"},
      {"net.rejected_429", "count"},
      {"net.client_retries", "count"},
      {"net.admission_peak", "count"},
      {"net.write_buf_peak", "bytes"},
      {"mem.arena_high_water_kb", "KB"},
      {"mem.node_table_slots", "count"},
      {"mem.session_buffers_peak", "count"},
      {"mem.persist_kb", "KB"},
      {"trace.overhead_pct", "%"},
      {"trace.dropped_events", "count"},
      {"diag.throughput_rps", "req/s"},
      {"diag.tokens_per_s", "tok/s"},
      {"diag.goodput", "fraction"},
      {"diag.latency_p50_ms", "ms"},
      {"diag.latency_p90_ms", "ms"},
      {"diag.latency_p99_ms", "ms"},
      {"diag.latency_p99_beyond", "count"},
      {"diag.ttft_p50_ms", "ms"},
      {"diag.ttft_p90_ms", "ms"},
      {"diag.ttft_p99_ms", "ms"},
      {"diag.ttft_p99_beyond", "count"},
      {"diag.itl_p90_ms", "ms"},
      {"diag.itl_p99_ms", "ms"},
      {"diag.itl_p99_beyond", "count"},
  };
  return defs;
}

// ------------------------------------------------------------- statistics

// Nearest-rank quantile over stored samples (never a bucketed histogram:
// its ~9% buckets cannot resolve a 10% bound). 0 for no samples.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
// Geometric mean of positive values.
double geomean(const std::vector<double>& v);
inline double ms_between(std::int64_t t0_ns, std::int64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) * 1e-6;
}

// Per-segment samples of one workload phase. Latency-type samples are in
// ms; `requests` and `outputs` are counts over the segment's wall time.
struct SegmentSamples {
  std::vector<double> latency_ms;  // due arrival (open loop) or issue → completion
  std::vector<double> ttft_ms;     // the same start → first output
  // Inter-output gaps: a session's mean token gap, or one gap between a
  // one-shot client's consecutive completions.
  std::vector<double> itl_ms;
  double wall_s = 0;
  long long requests = 0;  // completed units of work
  long long outputs = 0;   // outputs delivered (tokens, instances)
};

// ------------------------------------------------------------ output check

// Reference outputs, computed once and untimed with harness::run_vm.
// `out[kind][input]` is the flattened result of input `input` of request
// kind `kind` (a batch config or a served model); `tokens` the Decoder's
// token count per input (empty for one-shot models).
struct Reference {
  std::vector<std::vector<std::vector<float>>> out;
  std::vector<std::vector<int>> tokens;
};

class Checker {
 public:
  // Outputs match when they have the same length and differ by at most this.
  static constexpr double kTolerance = 1e-5;

  void set_reference(Reference ref, bool self_test);
  // One served unit of work: counts it attempted, and failed on a mismatch.
  void expect(std::size_t kind, std::size_t input, const std::vector<float>& got,
              int tokens = -1);
  // One unit of work that produced no checkable output (shed, cancel, error,
  // timeout, exhausted retries).
  void fail(const char* why);

  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }
  long long mismatches() const { return mismatches_; }

 private:
  Reference ref_;
  long long attempted_ = 0, failed_ = 0, mismatches_ = 0;
  std::map<std::string, long long> reasons_;
};

// ------------------------------------------------------------------ spans

// The benchmark's own spans around each public call of the traced segment:
// the traced wall time the engine buckets are subtracted from, and a track
// of the Chrome JSON the benchmark writes.
struct Span {
  std::string name;
  std::int64_t t0_ns = 0, t1_ns = 0;
};

class Spans {
 public:
  void set_epoch(std::int64_t epoch_ns) { epoch_ns_ = epoch_ns; }
  template <class F>
  auto time(const std::string& name, F&& call) {
    const std::int64_t t0 = acrobat::now_ns();
    auto r = call();
    spans_.push_back(Span{name, t0 - epoch_ns_, acrobat::now_ns() - epoch_ns_});
    return r;
  }
  double total_ms() const;
  const std::vector<Span>& spans() const { return spans_; }
  // Chrome trace-event JSON with one "bench" track; false on I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  std::int64_t epoch_ns_ = 0;
  std::vector<Span> spans_;
};

// ----------------------------------------------------------------- results

// What a workload hands back to main: one value per measured segment for
// each end-to-end and diag.* metric (the printed value is their median),
// the set-up time, and the per-layer values of the traced segment.
struct Report {
  std::map<std::string, std::vector<double>> segments;
  double setup_s = 0;  // sum over the set-up steps of each one's median
  std::map<std::string, double> layer;
  // The samples behind diag.latency_*, diag.ttft_* and itl_p50_ms, pooled
  // over every measured segment for the diag.* tails.
  SegmentSamples pooled;
};

const std::vector<std::string>& workload_names();
// Runs one workload of workload_names().
Report run_workload(const Params& p, Checker& check);

}  // namespace e2e
