// acrobat/trace: always-on low-overhead event tracing (DESIGN.md §9).
//
// Each shard owns one Tracer — a fixed-capacity power-of-two ring of small
// POD events written by exactly one thread (the shard's worker), so the hot
// path takes no locks and performs no steady-state allocation: the same
// discipline as the engine's scheduler scratch. When the ring wraps, the
// oldest events are overwritten and a drop counter keeps the books honest.
//
// A disabled site costs one predicted branch: every instrumentation point
// goes through ACROBAT_TRACE(tracer, stmt), which expands to an
// __builtin_expect(ptr != nullptr, 0) test (and to nothing at all when the
// build defines ACROBAT_TRACE_COMPILED_OUT). Bitwise on/off parity is
// enforced by tests/test_trace.cpp.
//
// Export paths:
//   * TraceDump::write_chrome_json — Chrome trace-event JSON, loadable in
//     Perfetto / chrome://tracing: one track per shard plus one for the
//     dispatcher, "X" complete events for spans (trigger ⊃ schedule ⊃ …,
//     batch), "i" instants for point events, and "C" counter tracks fed by
//     the per-shard MetricsTick stream (live_nodes, arena bytes, …).
//   * MetricsRegistry — named gauges snapshotted into fixed-size
//     MetricsTick PODs every few triggers and shipped over the existing
//     SPSC machinery to the dispatcher thread; memory is bounded at any
//     request count.
//
// Slow-request exemplars: when a request's latency crosses a threshold
// (default: its SLO deadline), the events overlapping its [admit,
// completion] window are frozen out of the ring into one of a fixed set of
// keep-N-worst slots, so a soak can answer "what did the worst request
// actually do".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support/timer.h"

namespace acrobat::trace {

enum class EventKind : std::uint8_t {
  kTrigger = 0,  // span: one trigger_execution (a = ops in the trigger)
  kSchedule,     // span: scheduling (a = ops)
  kBatch,        // span: one fused batch (a = kernel id, b = width, c = variant,
                 //       flags: path 0 per-op / 1 flat / 2 stacked, bit2 = merged launch)
  kGather,       // instant: staged gather (a = width, b = operand, c = bytes)
  kFiberSpawn,   // instant: a = session tag (the shard's recycled slot)
  kFiberBlock,   // instant: a = session tag
  kFiberWake,    // instant: a = fibers woken this trigger
  kFiberReap,    // instant: a = session tag
  kAdmit,        // instant: request admitted (a = request id, b = model id,
                 //          c = queue delay ns)
  kDispatch,     // instant: dispatcher routed a request (a = id, b = shard)
  kTriage,       // instant: blown request deferred (a = id, b = class)
  kShed,         // instant: request shed (a = id, b = class, c = lateness ns)
  kCounter,      // gauges (a = live nodes, c = arena bytes)
  // Net ingress (acrobat/net, DESIGN.md §10); emitted by the event-loop
  // thread into its own track (tid 0, "net").
  kNetAccept,    // instant: connection accepted (a = conn index, b = open conns)
  kNetReject,    // instant: request 429'd, admission full (a = conn, b = req id)
  kNetConnDrop,  // instant: conn dropped with work pending (a = conn,
                 //          b = 1 if a slow reader exceeded its write bound)
  kNetDegrade,   // instant: degraded-mode transition (a = 1 enter / 0 exit,
                 //          b = admission occupancy at the transition)
};
inline constexpr int kNumEventKinds = 17;
const char* event_name(EventKind k);

// 40 bytes; written into the ring by value — no pointers, trivially
// copyable, so snapshot/exemplar capture is a memcpy-shaped loop.
struct Event {
  std::int64_t t_ns = 0;    // relative to the tracer epoch
  std::int64_t dur_ns = 0;  // 0 = instant event
  std::int64_t c = 0;
  std::int32_t a = -1;
  std::int32_t b = -1;
  EventKind kind = EventKind::kTrigger;
  std::uint8_t flags = 0;
  std::uint16_t shard = 0;
};
static_assert(sizeof(Event) == 40, "Event is a small POD by contract");

// Everything here is preallocated at construction; steady-state tracing
// never allocates (tests/test_trace.cpp soaks this under the same plateau
// assertions as the recycling engine).
struct TraceConfig {
  std::size_t ring_capacity = 1u << 14;  // events; rounded up to a power of 2
  int max_exemplars = 4;                 // keep-N-worst slow-request slots
  std::size_t exemplar_events = 64;      // ring slice retained per exemplar
};

// How a serving layer (serve/fleet) runs its tracers; `enabled` is the
// runtime half of the gate (the compile-time half is
// ACROBAT_TRACE_COMPILED_OUT).
struct TraceOptions {
  bool enabled = false;
  TraceConfig config;
  // A completed request slower than this freezes a ring slice as an
  // exemplar; 0 derives the threshold from the policy's SLO deadline (the
  // per-class deadline in the fleet), and stays off when there is none.
  std::int64_t slow_threshold_ns = 0;
  // Shard gauges are snapshotted into a MetricsTick every this many
  // triggers and streamed to the dispatcher over an SPSC ring.
  int tick_every_triggers = 16;
};

struct Exemplar {
  std::int32_t request_id = -1;
  std::int64_t t0_ns = 0;       // admit time (tracer epoch-relative)
  std::int64_t t1_ns = 0;       // completion time
  std::int64_t latency_ns = 0;  // full arrival→completion latency
  std::uint64_t truncated = 0;  // window events beyond the slot capacity
  std::vector<Event> events;    // oldest→newest slice of the ring
};

class Tracer {
 public:
  explicit Tracer(int shard, const TraceConfig& cfg = TraceConfig{});

  // Timestamps are recorded relative to this epoch so serve/fleet tracks
  // share one time axis (serve() stamps its start-of-run epoch into every
  // shard's tracer before dispatch begins).
  void set_epoch(std::int64_t epoch_ns) { epoch_ns_ = epoch_ns; }
  std::int64_t now() const { return now_ns() - epoch_ns_; }

  // Single-writer by contract: only the owning shard's thread calls these.
  void instant(EventKind k, std::int32_t a = -1, std::int32_t b = -1,
               std::int64_t c = 0, std::uint8_t flags = 0) {
    push(Event{now(), 0, c, a, b, k, flags, shard_});
  }
  // dur = now() - t0 where t0 came from an earlier now() call at span entry.
  void span(EventKind k, std::int64_t t0, std::int32_t a = -1,
            std::int32_t b = -1, std::int64_t c = 0, std::uint8_t flags = 0) {
    push(Event{t0, now() - t0, c, a, b, k, flags, shard_});
  }
  void counter(std::int32_t live_nodes, std::int64_t arena_bytes) {
    push(Event{now(), 0, arena_bytes, live_nodes, -1, EventKind::kCounter, 0,
               shard_});
  }

  std::uint64_t emitted() const { return n_; }
  std::uint64_t dropped() const {
    return n_ > ring_.size() ? n_ - ring_.size() : 0;
  }
  std::size_t capacity() const { return ring_.size(); }
  int shard() const { return shard_; }

  // Oldest→newest copy of the retained window (allocates; not hot path).
  void snapshot(std::vector<Event>& out) const;

  // Freeze the events overlapping [t0, t1] into a keep-worst exemplar slot.
  // Bounded work (scans at most the ring) and no allocation: the slot's
  // event storage was reserved at construction.
  void capture_exemplar(std::int32_t request_id, std::int64_t t0,
                        std::int64_t t1, std::int64_t latency_ns);
  const std::vector<Exemplar>& exemplars() const { return exemplars_; }

 private:
  void push(const Event& e) {
    ring_[static_cast<std::size_t>(n_) & mask_] = e;
    ++n_;
  }

  std::vector<Event> ring_;
  std::size_t mask_ = 0;
  std::uint64_t n_ = 0;  // total emitted; n_ - capacity = dropped
  std::int64_t epoch_ns_ = 0;
  std::uint16_t shard_ = 0;
  std::size_t exemplar_events_ = 0;
  std::vector<Exemplar> exemplars_;
};

// Every instrumentation site in engine/fiber/serve/fleet goes through this
// macro: tracer off (null pointer) costs one predicted-not-taken branch,
// and ACROBAT_TRACE_COMPILED_OUT removes the sites entirely.
#ifdef ACROBAT_TRACE_COMPILED_OUT
#define ACROBAT_TRACE(tracer, stmt) \
  do {                              \
  } while (0)
#else
#define ACROBAT_TRACE(tracer, stmt)              \
  do {                                           \
    if (__builtin_expect((tracer) != nullptr, 0)) { \
      stmt;                                      \
    }                                            \
  } while (0)
#endif

// ---------------------------------------------------------------------------
// Streaming metrics: a registry of named gauges per shard, snapshotted into
// fixed-size PODs and shipped to the dispatcher over an SpscQueue. Names are
// registration-time only; the per-tick payload is a flat double array.

inline constexpr int kMaxMetrics = 16;

struct MetricsTick {
  std::int64_t t_ns = 0;
  std::uint16_t shard = 0;
  std::uint16_t n = 0;
  double v[kMaxMetrics] = {};
};

class MetricsRegistry {
 public:
  // Returns the gauge id; at most kMaxMetrics gauges per registry.
  int add(const char* name);
  // Ids are small and registration-time; a -1 (registry full / tracing off)
  // is silently ignored so call sites need no guard.
  void set(int id, double v) {
    if (id >= 0) vals_[static_cast<std::size_t>(id)] = v;
  }
  void inc(int id, double d = 1.0) {
    if (id >= 0) vals_[static_cast<std::size_t>(id)] += d;
  }
  double get(int id) const {
    return id >= 0 ? vals_[static_cast<std::size_t>(id)] : 0.0;
  }

  MetricsTick tick(std::int64_t t_ns, int shard) const;
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::vector<std::string> names_;
  std::vector<double> vals_;
};

// ---------------------------------------------------------------------------
// Run-end assembly + Chrome trace-event export.

struct TrackDump {
  int tid = 0;  // 0 = dispatcher, shard s = s + 1
  std::string name;
  std::vector<Event> events;  // oldest→newest
  std::uint64_t emitted = 0;
  std::uint64_t dropped = 0;
  std::vector<Exemplar> exemplars;
};

struct TraceDump {
  std::vector<TrackDump> tracks;
  std::vector<MetricsTick> ticks;
  std::vector<std::string> metric_names;
  std::uint64_t dropped_ticks = 0;

  // Nothing recorded: no events, ticks, or exemplars. Track skeletons may
  // exist — with ACROBAT_TRACE_COMPILED_OUT the serve layers still dump
  // their (event-less) per-shard tracks when tracing is requested.
  bool empty() const {
    if (!ticks.empty()) return false;
    for (const TrackDump& t : tracks)
      if (!t.events.empty() || !t.exemplars.empty()) return false;
    return true;
  }
  std::uint64_t total_events() const;
  std::uint64_t count(EventKind k) const;
  // Chrome trace-event JSON (Perfetto-compatible). Returns false on I/O
  // error. ts/dur are microseconds with ns precision (%.3f).
  bool write_chrome_json(const std::string& path) const;
};

// Unrolls the tracer's ring (plus drop counters and exemplars) into a track.
TrackDump dump_track(const Tracer& t, int tid, std::string name);

}  // namespace acrobat::trace
