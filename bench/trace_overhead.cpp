// trace_overhead: the cost of always-on tracing (ISSUE 7 / DESIGN.md §9).
//
// Three configurations over the same prepared model and dataset:
//   off      — no tracer attached: every ACROBAT_TRACE site is one
//              predicted-not-taken branch (the steady-state serving cost)
//   on       — a Tracer attached to the engine + fiber scheduler: each site
//              pays one ring write (~a 40-byte store and an increment)
//   on+dump  — tracing plus run-end snapshot and Chrome-JSON export (the
//              cold path: allocation and I/O, never on the hot path)
//
// Launch overhead is forced to 0 so the runtime cost isn't hidden under
// simulated GPU latency; wall times are min-over-kIters as everywhere else.
// The off-vs-on delta divided by events emitted is the per-event cost; the
// bench also cross-checks that counters are identical in all
// configurations — tracing must be observation-free (tests/test_trace.cpp
// proves the bitwise half on the serve path).
#include "bench_util.h"
#include "trace/trace.h"

#include <cstdio>

using namespace acrobat;
using namespace acrobat::bench;

namespace {

struct Point {
  double wall_ms = 1e300;
  ActivityStats stats;
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
};

Point measure(const harness::Prepared& p, const models::Dataset& ds, bool traced) {
  Point pt;
  for (int i = 0; i < kIters + 1; ++i) {  // first pass is warmup
    trace::TraceConfig tc;
    tc.ring_capacity = 1u << 16;
    trace::Tracer tracer(0, tc);
    harness::RunOptions o;
    o.launch_overhead_ns = 0;
    o.tracer = traced ? &tracer : nullptr;
    const harness::RunResult rr = harness::run_acrobat(p, ds, o);
    if (i == 0) continue;
    if (rr.wall_ms < pt.wall_ms) {
      pt.wall_ms = rr.wall_ms;
      pt.stats = rr.stats;
      pt.events = tracer.emitted();
      pt.dropped = tracer.dropped();
    }
  }
  return pt;
}

}  // namespace

int main() {
  header("trace_overhead: always-on tracing cost (TreeLSTM small, batch 64, "
         "launch 0)",
         "DESIGN.md §9 (observability overhead contract)");

  const models::ModelSpec& spec = models::model_by_name("TreeLSTM");
  const models::Dataset ds = dataset_for(spec, false, 64);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});

  const Point off = measure(p, ds, false);
  const Point on = measure(p, ds, true);

  // Cold path: snapshot the ring and export Chrome JSON, timed separately.
  trace::TraceConfig tc;
  tc.ring_capacity = 1u << 16;
  trace::Tracer tracer(0, tc);
  harness::RunOptions o;
  o.launch_overhead_ns = 0;
  o.tracer = &tracer;
  harness::run_acrobat(p, ds, o);
  const std::int64_t t0 = now_ns();
  trace::TraceDump dump;
  dump.tracks.push_back(trace::dump_track(tracer, 1, "bench"));
  const char* path = "trace_overhead_out.json";
  const bool wrote = dump.write_chrome_json(path);
  const double export_ms = static_cast<double>(now_ns() - t0) * 1e-6;
  long long bytes = 0;
  if (wrote) {
    if (std::FILE* f = std::fopen(path, "rb")) {
      std::fseek(f, 0, SEEK_END);
      bytes = std::ftell(f);
      std::fclose(f);
    }
    std::remove(path);
  }

  std::printf("%-8s | %9s %9s | %10s %8s\n", "config", "wall ms", "sched ms",
              "events", "dropped");
  std::printf("%-8s | %9.3f %9.3f | %10s %8s\n", "off", off.wall_ms,
              off.stats.scheduling.ms(), "-", "-");
  std::printf("%-8s | %9.3f %9.3f | %10llu %8llu\n", "on", on.wall_ms,
              on.stats.scheduling.ms(), static_cast<unsigned long long>(on.events),
              static_cast<unsigned long long>(on.dropped));
  std::printf("%-8s | %9.3f %9s | %10s %8s  (%lld bytes)\n", "dump", export_ms, "-",
              "-", "-", bytes);

  const double delta_ms = on.wall_ms - off.wall_ms;
  std::printf("\noverhead: %+.3f ms (%+.1f%%), %.1f ns/event over %llu events\n",
              delta_ms, 100.0 * delta_ms / off.wall_ms,
              delta_ms * 1e6 / static_cast<double>(on.events),
              static_cast<unsigned long long>(on.events));

  // Observation-free check: tracing must not change what the engine did.
  const bool parity = off.stats.kernel_launches == on.stats.kernel_launches &&
                      off.stats.flat_batches == on.stats.flat_batches &&
                      off.stats.stacked_batches == on.stats.stacked_batches &&
                      off.stats.gather_bytes == on.stats.gather_bytes &&
                      off.stats.scheduling_allocs == on.stats.scheduling_allocs;
  std::printf("counter parity off vs on: %s\n", parity ? "OK" : "MISMATCH");
  return parity ? 0 : 1;
}
