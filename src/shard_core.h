// Internal to src/: the one shard loop (DESIGN.md §7). serve(), both fleet
// drivers, the NetServer's in-process shard threads and the `--shard-worker`
// process all call run_shard(): trigger-boundary admission hook, token-
// boundary step hook, fiber pool and batching policy over one engine that
// the calling thread (or process) owns outright. What differs between
// transports sits behind ShardIo: where arrivals come from, where results
// and tokens go, cancels, the degraded flag, the idle wait and the metric
// tick sink. InprocRun, further down, is what serve() and the fleet drivers
// share on top of it: shard threads fed by SPSC inboxes, routing, the
// real-time open-loop replay and trace assembly. Not installed; include
// from src/ only.
#pragma once

#include <sched.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness/harness.h"
#include "serve/policy.h"
#include "serve/server.h"
#include "serve/spsc.h"
#include "trace/trace.h"

namespace acrobat::serve::detail {

// Waiting sides (a dispatcher between arrivals, a shard with nothing
// runnable) yield the core on every poll: unlike the engine's spin_ns —
// which charges simulated device time and must burn the CPU — these waits
// are for *other threads'* progress, and on a small machine a pure spin
// would starve them for a whole preemption quantum.
inline void relax() { sched_yield(); }

// What one shard engine hosts: a compiled module and its weight table, and
// per model id the entry function and dataset. serve() and net host one
// solo model; a fleet shard hosts every registry model in one merged module
// (one trigger cadence, node table and recycling arena for all of them).
struct ShardModule {
  const harness::Compiled* compiled = nullptr;
  const harness::Weights* weights = nullptr;
  passes::PipelineConfig cfg;
  std::vector<const ir::Func*> entries;
  std::vector<const models::Dataset*> datasets;
};

// A solo model: program.main over one dataset, as model id 0.
ShardModule solo_module(const harness::Prepared& p, const models::Dataset& ds);

// The trace contract of serve() and the fleet drivers (generate_load's):
// ids 0..N-1 in order, arrivals sorted when `sorted`, and every model id,
// input index and latency class valid for `module`. Checked loudly —
// fprintf + abort in every build type — because a hand-built trace that
// breaks it would index records and datasets out of bounds in Release.
void check_trace(const ShardModule& module, const std::vector<Request>& trace, bool sorted);

struct CoreConfig {
  const ShardModule* module = nullptr;
  // Builds this shard's policy. The policy also picks the admission order:
  // FIFO unless BatchPolicy::triages() asks for the EDF triage pass.
  std::function<std::unique_ptr<BatchPolicy>()> make_policy;
  std::int64_t launch_overhead_ns = 0;
  bool time_activities = false;
  bool recycle = true;
  bool collect_outputs = true;
  int shard_index = 0;
  std::int64_t epoch_ns = 0;        // session times are relative to this
  trace::Tracer* tracer = nullptr;  // may be null
  // Slow-request exemplar thresholds (DESIGN.md §9), 0 = off: end-to-end
  // latency per latency class, and the gap between two tokens of a session.
  std::array<std::int64_t, kNumLatencyClasses> slow_ns{};
  std::int64_t step_slow_ns = 0;
  // Gauge snapshots to ShardIo::tick every this many triggers; 0 = none.
  int tick_every_triggers = 0;
};

// The transport side of one shard. A request is named by its `handle`, the
// transport's own key: the request id in-process, the slot id over net.
class ShardIo {
 public:
  virtual ~ShardIo() = default;
  // Appends the handles of requests that arrived since the last call, and
  // handles any transport control traffic (cancels, pings, drain).
  virtual void poll(std::deque<int>& arrived) = 0;
  // False once no further arrival can appear.
  virtual bool open() = 0;
  // Nothing is runnable: yield, or wait briefly for input.
  virtual void idle_wait() = 0;
  // The request behind a queued or live handle. Its id names the session in
  // trace events and exemplars.
  virtual const Request& request(int handle) = 0;
  // The request is done: it ran to completion, or was shed without running
  // (rec.shed). May move from rec.output; the core reads only rec's scalar
  // fields afterwards, and never names the handle again.
  virtual void finish(int handle, RequestRecord& rec) = 0;
  // A client-side cancel of a live session, checked at every token
  // boundary and re-admission. Only net has one.
  virtual bool cancelled(int /*handle*/) { return false; }
  // Upstream overload: while true, each trigger window's decode step budget
  // halves (floor 1), so prefill of admitted work outranks token streaming.
  virtual bool degraded() { return false; }
  // A live session produced its `ordinal`-th token.
  virtual void token(int /*handle*/, std::uint32_t /*ordinal*/) {}
  // A gauge snapshot (names: gauge_names()).
  virtual void tick(const trace::MetricsTick& /*t*/) {}
};

// Runs the shard loop until io is closed and every admitted session has
// finished, then fills the report's engine, fiber and memory totals.
void run_shard(const CoreConfig& cfg, ShardIo& io, ShardReport& report);

// The gauges run_shard ticks, in MetricsTick::v order.
const std::vector<std::string>& gauge_names();

// ---------------------------------------------------- in-process driver

using ClassAffinity = std::array<std::vector<int>, kNumLatencyClasses>;

// The in-process shards of one serve()/serve_fleet()/serve_fleet_closed()
// call: each is a thread running run_shard over an SPSC inbox of request
// ids, writing results into `records` (indexed by id). The dispatching
// thread routes, dispatches and drains ticks; nothing else is shared.
class InprocRun {
 public:
  // Resets `records` to one ledger per request, builds `shards` shards
  // (rings and tick queues included), stamps the run's epoch, then starts
  // the threads. `trace` meets check_trace; its entries may still be
  // written (closed-loop issue times) for ids not yet dispatched.
  InprocRun(int shards, const CoreConfig& cfg, const trace::TraceOptions& topts,
            const std::vector<Request>& trace, std::vector<RequestRecord>& records);
  ~InprocRun();
  InprocRun(const InprocRun&) = delete;
  InprocRun& operator=(const InprocRun&) = delete;

  std::int64_t now() const;  // since the epoch
  // The shard for `req`: its class's affinity set (empty = every shard),
  // then round-robin by id or least-loaded (ties → lowest index).
  int route(const Request& req, DispatchKind kind, const ClassAffinity& affinity) const;
  void dispatch(int id, int shard);
  // Open loop: each request is routed and dispatched at its arrival time,
  // whatever the server's state (DESIGN.md §7).
  void replay(DispatchKind kind, const ClassAffinity& affinity);
  // Pops one finished (completed or shed) id from any shard.
  bool pop_finished(int& id);
  void drain_ticks();
  // Closes the inboxes, joins the shards, and returns their reports; with
  // tracing on, `dump` gains the dispatcher track, one track per shard and
  // the remaining ticks.
  std::vector<ShardReport> finish(trace::TraceDump& dump);

 private:
  class Shard;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> threads_;
  std::unique_ptr<trace::Tracer> disp_tracer_;
  std::vector<trace::MetricsTick> ticks_;
  const std::vector<Request>* trace_;
  std::int64_t epoch_ = 0;
};

// The CoreConfig fields ServeOptions and FleetOptions share.
template <class Options>
CoreConfig core_config(const ShardModule& module, const Options& o) {
  CoreConfig c;
  c.module = &module;
  c.launch_overhead_ns = o.launch_overhead_ns;
  c.time_activities = o.time_activities;
  c.recycle = o.recycle;
  c.collect_outputs = o.collect_outputs;
  return c;
}

// The totals serve() and the fleet drivers both report: latency over the
// completed (non-shed) requests, makespan from first arrival to last
// completion, throughput, and the shards' merged token histograms.
void summarize(ServeResult& res);

}  // namespace acrobat::serve::detail
