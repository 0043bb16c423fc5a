// Cold half of acrobat/trace (DESIGN.md §9): ring snapshotting, slow-request
// exemplar capture, and the Chrome trace-event JSON writer. Nothing here is
// on the trigger hot path — the hot path is the inline push in trace.h.
#include "trace/trace.h"

#include <algorithm>
#include <cstdio>

namespace acrobat::trace {

const char* event_name(EventKind k) {
  switch (k) {
    case EventKind::kTrigger: return "trigger";
    case EventKind::kSchedule: return "schedule";
    case EventKind::kBatch: return "batch";
    case EventKind::kGather: return "gather";
    case EventKind::kFiberSpawn: return "fiber_spawn";
    case EventKind::kFiberBlock: return "fiber_block";
    case EventKind::kFiberWake: return "fiber_wake";
    case EventKind::kFiberReap: return "fiber_reap";
    case EventKind::kAdmit: return "admit";
    case EventKind::kDispatch: return "dispatch";
    case EventKind::kTriage: return "triage_defer";
    case EventKind::kShed: return "shed";
    case EventKind::kCounter: return "counter";
    case EventKind::kNetAccept: return "net_accept";
    case EventKind::kNetReject: return "net_reject";
    case EventKind::kNetConnDrop: return "net_conn_drop";
    case EventKind::kNetDegrade: return "net_degrade";
  }
  return "?";
}

Tracer::Tracer(int shard, const TraceConfig& cfg)
    : shard_(static_cast<std::uint16_t>(shard)) {
  std::size_t cap = 8;
  while (cap < cfg.ring_capacity) cap <<= 1;
  ring_.resize(cap);
  mask_ = cap - 1;
  exemplar_events_ = cfg.exemplar_events;
  exemplars_.resize(static_cast<std::size_t>(std::max(cfg.max_exemplars, 0)));
  for (Exemplar& e : exemplars_) e.events.reserve(exemplar_events_);
}

void Tracer::snapshot(std::vector<Event>& out) const {
  out.clear();
  const std::uint64_t start = n_ > ring_.size() ? n_ - ring_.size() : 0;
  out.reserve(static_cast<std::size_t>(n_ - start));
  for (std::uint64_t i = start; i < n_; ++i)
    out.push_back(ring_[static_cast<std::size_t>(i) & mask_]);
}

void Tracer::capture_exemplar(std::int32_t request_id, std::int64_t t0,
                              std::int64_t t1, std::int64_t latency_ns) {
  if (exemplars_.empty()) return;
  // Keep-N-worst: replace an empty slot, else the smallest retained latency
  // (only if this request is slower than it).
  Exemplar* slot = nullptr;
  for (Exemplar& e : exemplars_) {
    if (e.request_id < 0) {
      slot = &e;
      break;
    }
    if (slot == nullptr || e.latency_ns < slot->latency_ns) slot = &e;
  }
  if (slot->request_id >= 0 && slot->latency_ns >= latency_ns) return;
  slot->request_id = request_id;
  slot->t0_ns = t0;
  slot->t1_ns = t1;
  slot->latency_ns = latency_ns;
  slot->truncated = 0;
  slot->events.clear();  // capacity reserved at construction — no allocation
  const std::uint64_t start = n_ > ring_.size() ? n_ - ring_.size() : 0;
  for (std::uint64_t i = start; i < n_; ++i) {
    const Event& e = ring_[static_cast<std::size_t>(i) & mask_];
    if (e.kind == EventKind::kCounter) continue;
    if (e.t_ns + e.dur_ns < t0 || e.t_ns > t1) continue;
    if (slot->events.size() < exemplar_events_)
      slot->events.push_back(e);
    else
      ++slot->truncated;
  }
}

TrackDump dump_track(const Tracer& t, int tid, std::string name) {
  TrackDump d;
  d.tid = tid;
  d.name = std::move(name);
  t.snapshot(d.events);
  d.emitted = t.emitted();
  d.dropped = t.dropped();
  for (const Exemplar& e : t.exemplars())
    if (e.request_id >= 0) d.exemplars.push_back(e);
  return d;
}

std::uint64_t TraceDump::total_events() const {
  std::uint64_t n = 0;
  for (const TrackDump& t : tracks) n += t.events.size();
  return n;
}

std::uint64_t TraceDump::count(EventKind k) const {
  std::uint64_t n = 0;
  for (const TrackDump& t : tracks)
    for (const Event& e : t.events)
      if (e.kind == k) ++n;
  return n;
}

namespace {

bool is_span(EventKind k) {
  return k == EventKind::kTrigger || k == EventKind::kSchedule ||
         k == EventKind::kBatch;
}

const char* batch_path(std::uint8_t flags) {
  switch (flags & 3) {
    case 1: return "flat";
    case 2: return "stacked";
    default: return "per-op";
  }
}

void write_args(std::FILE* f, const Event& e) {
  switch (e.kind) {
    case EventKind::kTrigger:
    case EventKind::kSchedule:
      std::fprintf(f, "{\"ops\":%d}", e.a);
      break;
    case EventKind::kBatch:
      std::fprintf(f,
                   "{\"kernel\":%d,\"width\":%d,\"variant\":%lld,"
                   "\"path\":\"%s\",\"merged_launch\":%s}",
                   e.a, e.b, static_cast<long long>(e.c),
                   batch_path(e.flags), (e.flags & 4) ? "true" : "false");
      break;
    case EventKind::kGather:
      std::fprintf(f, "{\"width\":%d,\"operand\":%d,\"bytes\":%lld}", e.a,
                   e.b, static_cast<long long>(e.c));
      break;
    case EventKind::kFiberSpawn:
    case EventKind::kFiberBlock:
    case EventKind::kFiberReap:
      std::fprintf(f, "{\"tag\":%d}", e.a);
      break;
    case EventKind::kFiberWake:
      std::fprintf(f, "{\"woken\":%d}", e.a);
      break;
    case EventKind::kAdmit:
      std::fprintf(f, "{\"request\":%d,\"model\":%d,\"queue_delay_us\":%.3f}",
                   e.a, e.b, static_cast<double>(e.c) * 1e-3);
      break;
    case EventKind::kDispatch:
      std::fprintf(f, "{\"request\":%d,\"shard\":%d}", e.a, e.b);
      break;
    case EventKind::kTriage:
      std::fprintf(f, "{\"request\":%d,\"class\":%d}", e.a, e.b);
      break;
    case EventKind::kShed:
      std::fprintf(f, "{\"request\":%d,\"class\":%d,\"late_us\":%.3f}", e.a,
                   e.b, static_cast<double>(e.c) * 1e-3);
      break;
    case EventKind::kCounter:
      std::fprintf(f, "{}");
      break;
    case EventKind::kNetAccept:
      std::fprintf(f, "{\"conn\":%d,\"open\":%d}", e.a, e.b);
      break;
    case EventKind::kNetReject:
      std::fprintf(f, "{\"conn\":%d,\"request\":%d}", e.a, e.b);
      break;
    case EventKind::kNetConnDrop:
      std::fprintf(f, "{\"conn\":%d,\"slow_reader\":%s}", e.a,
                   e.b != 0 ? "true" : "false");
      break;
    case EventKind::kNetDegrade:
      std::fprintf(f, "{\"enter\":%s,\"occupancy\":%d}",
                   e.a != 0 ? "true" : "false", e.b);
      break;
  }
}

struct Comma {
  bool first = true;
  void next(std::FILE* f) {
    if (!first) std::fputs(",\n", f);
    first = false;
  }
};

}  // namespace

bool TraceDump::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  Comma c;
  for (const TrackDump& t : tracks) {
    c.next(f);
    std::fprintf(f,
                 "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_name\","
                 "\"args\":{\"name\":\"%s\"}}",
                 t.tid, t.name.c_str());
    for (const Event& e : t.events) {
      c.next(f);
      if (e.kind == EventKind::kCounter) {
        // One counter track per gauge, namespaced by shard track name.
        std::fprintf(f,
                     "{\"ph\":\"C\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,"
                     "\"name\":\"%s/live_nodes\",\"args\":{\"value\":%d}},\n",
                     t.tid, static_cast<double>(e.t_ns) * 1e-3,
                     t.name.c_str(), e.a);
        std::fprintf(f,
                     "{\"ph\":\"C\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,"
                     "\"name\":\"%s/arena_bytes\",\"args\":{\"value\":%lld}}",
                     t.tid, static_cast<double>(e.t_ns) * 1e-3,
                     t.name.c_str(), static_cast<long long>(e.c));
        continue;
      }
      if (is_span(e.kind)) {
        std::fprintf(f,
                     "{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,"
                     "\"dur\":%.3f,\"name\":\"%s\",\"cat\":\"acrobat\","
                     "\"args\":",
                     t.tid, static_cast<double>(e.t_ns) * 1e-3,
                     static_cast<double>(e.dur_ns) * 1e-3,
                     event_name(e.kind));
      } else {
        std::fprintf(f,
                     "{\"ph\":\"i\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,"
                     "\"s\":\"t\",\"name\":\"%s\",\"cat\":\"acrobat\","
                     "\"args\":",
                     t.tid, static_cast<double>(e.t_ns) * 1e-3,
                     event_name(e.kind));
      }
      write_args(f, e);
      std::fputs("}", f);
    }
    // Slow-request exemplars go on a sibling track (tid offset) so their
    // [admit, completion] spans never interleave with the trigger nesting.
    for (std::size_t i = 0; i < t.exemplars.size(); ++i) {
      const Exemplar& e = t.exemplars[i];
      if (i == 0) {
        c.next(f);
        std::fprintf(f,
                     "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":"
                     "\"thread_name\",\"args\":{\"name\":\"%s slow\"}}",
                     1000 + t.tid, t.name.c_str());
      }
      c.next(f);
      std::fprintf(f,
                   "{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"name\":\"slow_request\","
                   "\"cat\":\"acrobat\",\"args\":{\"request\":%d,"
                   "\"latency_ms\":%.3f,\"events\":%zu,\"truncated\":%llu}}",
                   1000 + t.tid, static_cast<double>(e.t0_ns) * 1e-3,
                   static_cast<double>(e.t1_ns - e.t0_ns) * 1e-3,
                   e.request_id, static_cast<double>(e.latency_ns) * 1e-6,
                   e.events.size(),
                   static_cast<unsigned long long>(e.truncated));
    }
  }
  // Streamed per-shard gauge ticks become counter tracks.
  for (const MetricsTick& t : ticks) {
    for (int i = 0; i < t.n && i < kMaxMetrics; ++i) {
      const char* name = static_cast<std::size_t>(i) < metric_names.size()
                             ? metric_names[static_cast<std::size_t>(i)].c_str()
                             : "metric";
      c.next(f);
      std::fprintf(f,
                   "{\"ph\":\"C\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,"
                   "\"name\":\"shard%d/%s\",\"args\":{\"value\":%.6g}}",
                   t.shard + 1, static_cast<double>(t.t_ns) * 1e-3, t.shard,
                   name, t.v[i]);
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace acrobat::trace
