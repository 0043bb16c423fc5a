// The continuous-batching serving layer (DESIGN.md §7).
//
// serve() plays a request trace against a prepared model: a dispatcher
// walks the trace in real time (open-loop — arrivals never wait for the
// server) and routes each request to one of N shard workers over an SPSC
// inbox. Each shard is a thread that exclusively owns an engine + arena +
// fiber pool; requests admitted into the live pool record ops as fibers,
// and every trigger batches pending ops across all in-flight requests, old
// and new (Engine::set_admission_hook). Shards share no mutable state —
// scaling is by sharding, and the only cross-thread traffic is the inbox
// ring plus one per-shard load counter the least-loaded dispatcher reads.
#pragma once

#include <cstdint>
#include <vector>

#include "harness/harness.h"
#include "serve/load.h"
#include "serve/policy.h"
#include "serve/stats.h"
#include "trace/trace.h"

namespace acrobat::serve {

enum class DispatchKind {
  kRoundRobin,   // shard = request id mod N (static, zero coordination)
  kLeastLoaded,  // fewest outstanding requests at arrival time; ties break
                 // to the lowest shard index (deterministic when idle)
};

struct ServeOptions {
  int shards = 1;
  DispatchKind dispatch = DispatchKind::kRoundRobin;
  PolicyConfig policy;
  std::int64_t launch_overhead_ns = 0;
  bool collect_outputs = false;  // flatten each request's result tensors
  bool time_activities = false;
  // Observability (DESIGN.md §9): when enabled, each shard owns a
  // fixed-capacity event ring + gauge ticks and ServeResult::trace
  // carries the assembled dump (write_chrome_json → Perfetto). Off (the
  // default) costs one predicted branch per instrumentation site —
  // tests/test_trace.cpp proves bitwise parity.
  trace::TraceOptions trace;
};

// Aborts loudly on a nonsense configuration (shards <= 0, negative launch
// overhead) instead of silently clamping — a typo'd sweep should fail the
// bench, not quietly measure something else.
void validate(const ServeOptions& opts);

// Per-request ledger: enqueue → admission → completion, all relative to
// serve start. Latency (the SLO quantity) is completion - arrival, so time
// spent queued behind an overloaded shard counts.
struct RequestRecord {
  int id = -1;
  int shard = -1;
  std::int64_t arrival_ns = 0;
  std::int64_t admit_ns = -1;
  std::int64_t completion_ns = -1;
  // Fleet SLO admission control (DESIGN.md §8): the request was dropped
  // without running because its deadline was already blown. completion_ns
  // is the shed time; `output` stays empty. Plain serve() never sheds.
  bool shed = false;
  // Token accounting (iteration-level scheduling, DESIGN.md §7): one-shot
  // requests keep tokens == 0 and first/last_token_ns == -1. A generative
  // session counts one token per kStepKeep boundary; `cancelled` marks a
  // session the policy stopped mid-stream (it still completes through the
  // model's tail, so completion_ns and output are valid for the emitted
  // prefix).
  int tokens = 0;
  std::int64_t first_token_ns = -1;
  std::int64_t last_token_ns = -1;
  bool cancelled = false;
  std::vector<float> output;  // when collect_outputs

  double latency_ms() const {
    return static_cast<double>(completion_ns - arrival_ns) * 1e-6;
  }
  double ttft_ms() const {
    return static_cast<double>(first_token_ns - arrival_ns) * 1e-6;
  }
};

struct ShardReport {
  int requests = 0;
  int shed = 0;                  // dropped past deadline by a triaging policy
  long long triggers = 0;        // all-blocked wakeups (fiber scheduler)
  std::size_t max_live = 0;      // peak concurrently admitted requests
  long long stacks_allocated = 0;
  // Token accounting: tokens emitted by generative sessions on this shard,
  // sessions cancelled mid-stream, and the TTFT / inter-token-gap split the
  // per-request latency histogram cannot express (a decode request's
  // end-to-end latency hides whether it stalled on its first token or
  // between tokens).
  long long tokens = 0;
  int cancelled = 0;
  LatencyHisto ttft_ms;
  LatencyHisto inter_token_ms;
  ActivityStats stats;           // per-activity engine buckets + launches
  // Memory watermarks (DESIGN.md §7 "Recycling"): a shard recycles, so the
  // node table and arena high-water mark plateau at peak concurrency over
  // any trace length (test_serve_soak.cpp asserts it).
  Engine::MemoryStats mem;
};

struct ServeResult {
  std::vector<RequestRecord> records;  // indexed by request id
  Percentiles latency_ms;              // enqueue → completion (non-shed)
  // Decode split (zero-count when the trace held no generative sessions):
  // arrival → first token, and the gap between consecutive tokens.
  Percentiles ttft_ms;
  Percentiles inter_token_ms;
  long long tokens = 0;
  int cancelled = 0;
  double tokens_per_sec = 0;  // tokens / makespan
  double throughput_rps = 0;  // completed (non-shed) per second of makespan
  double makespan_ms = 0;     // first arrival to last completion
  std::vector<ShardReport> shards;
  // Populated when ServeOptions::trace.enabled: one track per shard plus
  // the dispatcher, streamed metric ticks, and slow-request exemplars.
  trace::TraceDump trace;

  long long total_launches() const {
    long long n = 0;
    for (const ShardReport& s : shards) n += s.stats.kernel_launches;
    return n;
  }
  // Worst shard's arena watermark / node table — the memory column of the
  // latency-throughput frontier (bench/serve_latency.cpp, soak test).
  std::size_t peak_arena_bytes() const {
    std::size_t m = 0;
    for (const ShardReport& s : shards) m = std::max(m, s.mem.arena_high_water_bytes);
    return m;
  }
  std::size_t peak_node_table() const {
    std::size_t m = 0;
    for (const ShardReport& s : shards) m = std::max(m, s.mem.node_table_size);
    return m;
  }
};

// `trace` must be sorted by arrival_ns with ids 0..N-1 and model_id 0
// (generate_load's contract). Blocks until every request has completed.
ServeResult serve(const harness::Prepared& p, const models::Dataset& ds,
                  const std::vector<Request>& trace, const ServeOptions& opts);

}  // namespace acrobat::serve
