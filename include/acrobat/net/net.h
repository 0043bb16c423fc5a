// acrobat/net: the socket ingress (DESIGN.md §10).
//
// NetServer is the front door that turns the in-process serving stack into a
// real server: one poll()-based event loop thread accepts TCP (loopback)
// and/or UDS connections, parses length-prefixed request frames, stamps
// arrivals, and admits each request itself — a free slot goes to the
// least-loaded shard's SPSC inbox at once, the same inbox + admission-hook
// machinery the in-proc `serve()` path uses; otherwise the request waits in
// a *bounded* admission FIFO for the next freed slot. Completions (including
// per-token decode frames) stream back on the originating connection. The
// loop blocks until a socket is ready or a shard signals a completion
// through an eventfd; it has no poll tick. In multiprocess mode the same
// thread owns every worker's socketpair, and its poll timeout is the
// nearest ping, liveness or respawn deadline.
//
// Three invariants the design enforces:
//   * Overload sheds, never grows: the slot table has fixed size and the
//     admission FIFO fixed capacity; a request that finds both full gets an
//     explicit kRetry (429) frame. No unbounded buffer exists anywhere on
//     the request path.
//   * Slow readers never block the hot path: only the event-loop thread
//     writes sockets; per-connection write buffers are bounded and a
//     connection that exceeds its bound is dropped, cancelling its live
//     sessions through the existing mid-stream-cancel path.
//   * Shards are shared-nothing: in-proc shards are threads that own their
//     engine exclusively; with `multiprocess = true` each shard is a forked
//     `--shard-worker` process speaking the frame protocol over a UDS
//     socketpair, with ping/pong liveness and drain-on-shutdown.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <sys/types.h>
#include <vector>

#include "acrobat/harness/harness.h"
#include "acrobat/models/models.h"
#include "acrobat/serve/policy.h"
#include "acrobat/serve/server.h"
#include "acrobat/trace/trace.h"

namespace acrobat::net {

struct NetOptions {
  // Listeners. port 0 = pick an ephemeral loopback port (read it back via
  // NetServer::port()); port < 0 = no TCP listener. Empty uds_path = no UDS
  // listener. At least one must be enabled.
  int port = 0;
  std::string uds_path;

  int shards = 1;
  serve::PolicyConfig policy;
  std::int64_t launch_overhead_ns = 0;

  // Bounded-ingress knobs. max_sessions bounds the slot table, i.e.
  // requests on a shard but not yet completed server-wide; a request that
  // finds every slot busy waits in the admission FIFO, whose size is
  // admission_capacity (full → 429). The FIFO's occupancy drives degraded
  // mode (DESIGN.md §11): entered at 7/8 of admission_capacity, where
  // best-effort requests are answered kRetry and shards halve their decode
  // step budget, and left at 1/4.
  std::size_t admission_capacity = 64;
  std::size_t max_sessions = 128;
  std::size_t write_buffer_limit = 1 << 20;  // bytes buffered per conn before drop
  int max_connections = 256;
  int sndbuf_bytes = 0;  // >0: shrink SO_SNDBUF (test knob for slow-reader paths)

  // Per-connection fairness (first slice of the per-client fairness item):
  // > 0 caps how many admitted-but-unfinished requests one connection may
  // hold; beyond the cap a request is answered kRetry and counted in
  // fairness_rejects, so a single client cannot monopolize the admission
  // queue. 0 = uncapped.
  int max_inflight_per_conn = 0;

  // Worker liveness (multiprocess): the router pings each worker every
  // ping_interval_ns; a worker with work in flight that has been silent for
  // liveness_timeout_ns is SIGKILLed and declared dead. Validated in
  // start() config_die-style: both must be > 0 and the timeout must exceed
  // the interval (otherwise a healthy-but-idle gap reads as death).
  std::int64_t ping_interval_ns = 200'000'000;
  std::int64_t liveness_timeout_ns = 5'000'000'000;

  // Supervision (multiprocess): re-fork and re-register a dead worker under
  // the same recipe. respawn_budget bounds total respawns per shard (a
  // crash-looping recipe must not fork forever; 0 never respawns); the
  // delay before attempt k without an intervening completed request is
  // min(respawn_backoff_ns << k, respawn_backoff_cap_ns) — one completed
  // request resets the exponent. The shard is routed around while a respawn
  // is pending, exactly like a death that is never respawned.
  int respawn_budget = 8;
  std::int64_t respawn_backoff_ns = 50'000'000;
  std::int64_t respawn_backoff_cap_ns = 2'000'000'000;

  // Fault-injection plan (DESIGN.md §11). Empty = read ACROBAT_FAULT_SPEC;
  // both empty = inert. A malformed spec fails start().
  std::string fault_spec;

  // Multi-process fleet: each shard is a forked worker process. worker_cmd
  // empty = re-exec this binary (/proc/self/exe), which must route
  // `--shard-worker` argv to shard_worker_main() before anything else.
  bool multiprocess = false;
  std::string worker_cmd;

  // Model + dataset recipe. In multiprocess mode workers rebuild both from
  // this recipe (materialize_weights and build_dataset are deterministic),
  // which is what makes wire parity hold across process boundaries.
  std::string model = "Decoder";
  bool large = false;
  int ds_batch = 24;
  std::uint64_t ds_seed = 0;

  trace::TraceOptions trace;
};

// NetServer's event counters. Each has a row in ACROBAT_NET_STATS below,
// which netd's drain report and net_client's JSON row expand.
struct NetCounters {
  // Event-loop counters.
  std::uint64_t connections = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t requests = 0;       // well-formed request frames seen
  std::uint64_t completed = 0;      // kDone frames written
  std::uint64_t rejected_429 = 0;   // kRetry frames written (admission full)
  std::uint64_t errors = 0;         // kError frames written
  std::uint64_t cancelled = 0;      // sessions cancelled mid-stream
  std::uint64_t conn_drops = 0;     // connections dropped with work pending
  std::uint64_t slow_reader_drops = 0;  // subset: write buffer bound exceeded
  std::uint64_t tokens_streamed = 0;    // kToken frames written
  std::uint64_t worker_deaths = 0;
  // Fault tolerance (DESIGN.md §11).
  std::uint64_t worker_respawns = 0;     // supervisor re-forks that succeeded
  std::uint64_t respawns_exhausted = 0;  // shards left dead: budget burned
  std::uint64_t fairness_rejects = 0;    // kRetry: per-conn in-flight cap hit
  std::uint64_t degraded_entries = 0;    // overload mode transitions
  std::uint64_t degraded_exits = 0;
  std::uint64_t degraded_sheds = 0;      // kRetry: best-effort shed while degraded
  std::uint64_t fault_kills = 0;         // injected router-side worker kills
  std::uint64_t fault_short_writes = 0;  // injected router-side send clamps
};

// The NetCounters table, X(member), in declaration order; each report keys
// a counter by its member name. A field added to the struct without a row
// fails the static_assert below.
#define ACROBAT_NET_STATS(X) \
  X(connections)             \
  X(frames_in)               \
  X(requests)                \
  X(completed)               \
  X(rejected_429)            \
  X(errors)                  \
  X(cancelled)               \
  X(conn_drops)              \
  X(slow_reader_drops)       \
  X(tokens_streamed)         \
  X(worker_deaths)           \
  X(worker_respawns)         \
  X(respawns_exhausted)      \
  X(fairness_rejects)        \
  X(degraded_entries)        \
  X(degraded_exits)          \
  X(degraded_sheds)          \
  X(fault_kills)             \
  X(fault_short_writes)

#define ACROBAT_NET_COUNT_ROW(member) +1
static_assert(sizeof(NetCounters) ==
                  (0 ACROBAT_NET_STATS(ACROBAT_NET_COUNT_ROW)) * sizeof(std::uint64_t),
              "every NetCounters field needs a row in ACROBAT_NET_STATS");
#undef ACROBAT_NET_COUNT_ROW

struct NetStats : NetCounters {
  // High-water marks: all bounded by their configured caps.
  // admission_peak counts only requests that waited in the FIFO for a
  // slot, so it stays 0 while the slot table has room (a K=4 closed loop
  // against the default 128 slots, as bench/e2e's wire_decode runs, never
  // waits).
  std::size_t admission_peak = 0;
  std::size_t slots_peak = 0;
  std::size_t write_buf_peak = 0;

  // Per-shard reports. In-proc shards fill the full serve::ShardReport;
  // worker processes report the subset carried home by the kWorkerBye frame
  // (requests, tokens).
  std::vector<serve::ShardReport> shards;

  trace::TraceDump trace;
};

class NetServer {
 public:
  // `p` and `ds` may be null when multiprocess (workers rebuild from the
  // recipe in opts); in-proc shards require both.
  NetServer(const harness::Prepared* p, const models::Dataset* ds, NetOptions opts);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // Binds listeners, spawns workers (multiproc) and threads. Returns false
  // with error() set if no listener could be created (e.g. sockets are
  // unavailable in the sandbox) — callers fall back to in-proc serve().
  bool start();
  const std::string& error() const;

  int port() const;                         // bound TCP port (after start)
  const std::string& uds_path() const;
  std::vector<pid_t> worker_pids() const;   // multiproc only

  // Drain: stop accepting, 429 new requests, finish in-flight sessions,
  // flush completions, stop workers (kWorkerDrain/kWorkerBye), join.
  // Idempotent; also run by the destructor.
  void shutdown();

  // Valid after shutdown().
  const NetStats& stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Supervisor backoff schedule (pure, unit-tested): delay before respawn
// attempt `consecutive_failures - 1`, i.e. the first death after a served
// request waits `base`, each further death without an intervening
// completion doubles it, capped. Deterministic by construction — no jitter:
// one supervisor per shard means there is no thundering herd to break up,
// and a reproducible schedule is worth more in tests.
inline std::int64_t respawn_delay_ns(int attempt, std::int64_t base,
                                     std::int64_t cap) {
  if (attempt < 0) attempt = 0;
  std::int64_t d = attempt >= 62 ? cap : base << attempt;
  if (d > cap || d <= 0) d = cap;
  return d;
}

// Entry point for `--shard-worker` child processes (multi-process fleet).
// Any binary that may host workers (netd, net_client, test_net) must call
// this from main() when argv[1] == "--shard-worker" and exit with its
// return value. argv is the full command line.
int shard_worker_main(int argc, char** argv);

}  // namespace acrobat::net
