#include "shard_core.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <span>

#include "exec/aot.h"
#include "runtime/fiber.h"
#include "support/timer.h"

namespace acrobat::serve::detail {

ShardModule solo_module(const harness::Prepared& p, const models::Dataset& ds) {
  ShardModule m;
  m.compiled = &p.compiled;
  m.weights = &p.weights;
  m.cfg = p.cfg;
  m.entries = {p.compiled.program.main.get()};
  m.datasets = {&ds};
  return m;
}

void check_trace(const ShardModule& module, const std::vector<Request>& trace, bool sorted) {
  const auto die = [](const char* what) {
    std::fprintf(stderr, "acrobat serve: invalid trace: %s\n", what);
    std::abort();
  };
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Request& r = trace[i];
    if (r.id != static_cast<int>(i)) die("ids must be 0..N-1 in order (generate_load's contract)");
    if (sorted && i > 0 && r.arrival_ns < trace[i - 1].arrival_ns)
      die("arrivals must be sorted by arrival_ns");
    if (r.model_id < 0 || static_cast<std::size_t>(r.model_id) >= module.datasets.size())
      die("model_id names no hosted model");
    if (r.input_index >= module.datasets[static_cast<std::size_t>(r.model_id)]->inputs.size())
      die("input_index outside the model's dataset");
    if (static_cast<int>(r.latency_class) >= kNumLatencyClasses)
      die("latency_class out of range");
  }
}

const std::vector<std::string>& gauge_names() {
  static const std::vector<std::string> names = {
      "live_requests",   "queued_requests", "completed_requests", "shed_requests",
      "kernel_launches", "live_nodes",      "arena_kb"};
  return names;
}

namespace {

constexpr std::size_t kUnlimited = static_cast<std::size_t>(-1);

// One admitted request, from admission until the loop prunes it.
struct Session {
  int handle = -1;
  int model_id = 0;
  LatencyClass latency_class = LatencyClass::kInteractive;
  // Between a token-boundary park and the consult that follows its unpark:
  // tells re-admission apart from a fresh token boundary.
  bool awaiting = false;
  RequestRecord rec;
};

// One entry of the EDF triage pass: a queued arrival (by handle) or a
// parked decode step (by session tag).
struct Cand {
  int key;
  std::int64_t deadline_ns;
  bool defer;
  bool step;
};

}  // namespace

void run_shard(const CoreConfig& cfg, ShardIo& io, ShardReport& report) {
  const ShardModule& mod = *cfg.module;
  // Exclusive ownership: this engine, its arena, and the fiber pool live and
  // die on this thread. No locks anywhere downstream of the transport.
  EngineConfig ec = harness::engine_config_for(mod.cfg, cfg.launch_overhead_ns,
                                               cfg.time_activities);
  ec.recycle = cfg.recycle;
  Engine eng(mod.compiled->module.registry, ec);

  // The weight table is global (kLoadWeight indices span every model of a
  // merged module), so the engine wraps all of it; concrete nodes are views.
  std::vector<TRef> wrefs;
  wrefs.reserve(mod.weights->tensors.size());
  for (const Tensor& t : mod.weights->tensors) wrefs.push_back(eng.add_concrete(t.view()));
  std::vector<std::vector<TRef>> drefs(mod.datasets.size());
  for (std::size_t m = 0; m < mod.datasets.size(); ++m) {
    drefs[m].reserve(mod.datasets[m]->tensors.size());
    for (const Tensor& t : mod.datasets[m]->tensors)
      drefs[m].push_back(eng.add_concrete(t.view()));
  }
  aot::AotExecutor exec(mod.compiled->program, eng, std::move(wrefs));

  FiberScheduler fs;
  eng.set_fiber_scheduler(&fs);
  // Reap = retire: when a finished session's fiber is recycled, its engine
  // node span goes onto the free list and dead arena epochs return to the
  // page pool — this is what keeps steady-state memory flat (§7 Recycling).
  fs.set_reap_hook([&eng](int tag) { eng.retire_request(tag); });
  trace::Tracer* const tr = cfg.tracer;
  eng.set_tracer(tr);
  fs.set_tracer(tr);
  const std::unique_ptr<BatchPolicy> policy = cfg.make_policy();
  const bool edf = policy->triages();

  // Live sessions by tag — the fiber tag and engine instance id. A tag is
  // reused only after the loop prunes its session, by which time the fiber
  // has been reaped and its engine state retired; so tags stay small and a
  // session lookup is an index, even over net, where a transport handle can
  // be recycled before the fiber it named is reaped. A deque never
  // relocates, so a suspended fiber's Session& survives the slab growing.
  std::deque<Session> sess;
  std::vector<int> free_tags;
  std::deque<int> queue;       // arrived handles, not yet admitted (EDF order after triage)
  std::deque<int> in_flight;   // session tags, admission order
  std::deque<int> step_queue;  // tags of parked sessions wanting their next token
  std::vector<Cand> cands;     // the EDF pass's scratch, reused across passes
  // Decode-aware split (policy.h AdmitDecision::max_step_admit): how many of
  // in_flight are past their first token, and how many parked steps this
  // trigger window may still unpark. The budget is reset from the policy
  // once per window — in the admission hook — not per admit() call, or the
  // main loop would drain every parked step between triggers and chunked
  // re-admission would be a no-op.
  std::size_t live_decode = 0;
  std::size_t step_budget = kUnlimited;

  const auto now = [&] { return now_ns() - cfg.epoch_ns; };
  [[maybe_unused]] const auto slow_ns = [&](LatencyClass c) {
    const auto i = static_cast<std::size_t>(c);  // wire classes are unchecked
    return i < cfg.slow_ns.size() ? cfg.slow_ns[i] : 0;
  };

  // Observability (DESIGN.md §9): the gauge slots are allocated here, so
  // ticking adds zero steady-state allocation to the loop.
  trace::MetricsRegistry gauges;
  if (tr != nullptr && cfg.tick_every_triggers > 0)
    for (const std::string& n : gauge_names()) gauges.add(n.c_str());
  long long last_tick_trigger = 0;
  [[maybe_unused]] const auto maybe_tick = [&] {
    if (cfg.tick_every_triggers <= 0 ||
        fs.idle_triggers() - last_tick_trigger < cfg.tick_every_triggers)
      return;
    last_tick_trigger = fs.idle_triggers();
    const double v[] = {
        static_cast<double>(in_flight.size()),
        static_cast<double>(queue.size()),
        static_cast<double>(report.requests),
        static_cast<double>(report.shed),
        static_cast<double>(eng.stats().kernel_launches),
        static_cast<double>(eng.live_nodes()),
        static_cast<double>(eng.memory().arena_active_bytes) / 1024.0};
    for (int i = 0; i < static_cast<int>(std::size(v)); ++i) gauges.set(i, v[i]);
    io.tick(gauges.tick(now(), cfg.shard_index));
  };

  const auto prune = [&] {
    while (!in_flight.empty()) {
      const Session& s = sess[static_cast<std::size_t>(in_flight.front())];
      if (s.rec.completion_ns < 0) break;
      if (s.rec.tokens > 0) --live_decode;
      free_tags.push_back(in_flight.front());
      in_flight.pop_front();
    }
  };
  const auto make_ctx = [&] {
    PolicyCtx c;
    c.now_ns = now();
    c.queued = queue.size();
    // Parked sessions stay `live`: they hold session state (the per-session
    // buffer, an SLO clock mid-stream), so a width-capped policy bounds
    // concurrent *sessions* — which is what makes session memory plateau at
    // peak concurrency instead of growing with the trace.
    c.live = in_flight.size();
    c.live_decode = live_decode;
    c.queued_steps = step_queue.size();
    if (edf) {
      // Neither deque is in arrival order here — the queue is EDF-sorted
      // and in_flight is in admission order — so "oldest" is a min, not
      // front(). A base DeadlinePolicy's hold bound ("never past the oldest
      // request's SLO") depends on this.
      for (const int h : queue) {
        const std::int64_t a = io.request(h).arrival_ns;
        if (c.oldest_queued_arrival_ns < 0 || a < c.oldest_queued_arrival_ns)
          c.oldest_queued_arrival_ns = a;
      }
      for (const int tag : in_flight) {
        const std::int64_t a = sess[static_cast<std::size_t>(tag)].rec.arrival_ns;
        if (c.oldest_live_arrival_ns < 0 || a < c.oldest_live_arrival_ns)
          c.oldest_live_arrival_ns = a;
      }
    } else {
      if (!queue.empty()) c.oldest_queued_arrival_ns = io.request(queue.front()).arrival_ns;
      if (!in_flight.empty())
        c.oldest_live_arrival_ns = sess[static_cast<std::size_t>(in_flight.front())].rec.arrival_ns;
    }
    c.inbox_open = io.open();
    return c;
  };

  // A transport cancel that landed since the last look: the session still
  // exits through the model's tail, so its emitted prefix stays valid.
  const auto note_cancel = [&](Session& s) {
    if (!s.rec.cancelled && io.cancelled(s.handle)) {
      s.rec.cancelled = true;
      ++report.cancelled;
    }
  };
  const auto spawn = [&](int handle) {
    const Request& rq = io.request(handle);
    int tag;
    if (free_tags.empty()) {
      tag = static_cast<int>(sess.size());
      sess.emplace_back();
    } else {
      tag = free_tags.back();
      free_tags.pop_back();
      sess[static_cast<std::size_t>(tag)] = Session{};
    }
    Session& s = sess[static_cast<std::size_t>(tag)];
    s.handle = handle;
    s.model_id = rq.model_id;
    s.latency_class = rq.latency_class;
    s.rec.id = rq.id;
    s.rec.shard = cfg.shard_index;
    s.rec.arrival_ns = rq.arrival_ns;
    s.rec.admit_ns = now();
    ACROBAT_TRACE(tr, tr->instant(trace::EventKind::kAdmit, rq.id, rq.model_id,
                                  s.rec.admit_ns - s.rec.arrival_ns));
    in_flight.push_back(tag);
    eng.begin_request(tag);  // pins this epoch's arena pages until retirement
    const std::size_t m = static_cast<std::size_t>(rq.model_id);
    const Value* input = &mod.datasets[m]->inputs[rq.input_index];
    fs.spawn([&, sp = &s, tag, m, input] {
      Session& r = *sp;
      InstCtx ctx;
      ctx.instance = tag;
      std::vector<TRef> outs;
      exec.run_entry(*mod.entries[m], *input, drefs[m], ctx, outs);
      std::vector<float> flat;
      for (const TRef ref : outs) {
        // Suspends this session until a trigger materializes the result;
        // completion is stamped when the final batch lands.
        const Tensor t = eng.force(ref);
        if (cfg.collect_outputs) flat.insert(flat.end(), t.data, t.data + t.numel());
      }
      r.rec.completion_ns = now();
      ACROBAT_TRACE(tr, {
        const std::int64_t lat = r.rec.completion_ns - r.rec.arrival_ns;
        const std::int64_t slow = slow_ns(r.latency_class);
        if (slow > 0 && lat >= slow)
          tr->capture_exemplar(r.rec.id, r.rec.admit_ns, r.rec.completion_ns, lat);
      });
      if (cfg.collect_outputs) r.rec.output = std::move(flat);
      ++report.requests;
      io.finish(r.handle, r.rec);
    }, tag);
  };
  const auto resume = [&](int tag) {
    Session& s = sess[static_cast<std::size_t>(tag)];
    note_cancel(s);
    const bool ok = fs.unpark(tag);
    assert(ok && "queued step must correspond to a parked fiber");
    (void)ok;
    ACROBAT_TRACE(tr, tr->instant(trace::EventKind::kAdmit, s.rec.id, s.model_id, s.rec.tokens));
  };
  const auto take_step = [&] {
    if (step_budget == 0) return false;
    if (step_budget != kUnlimited) --step_budget;
    return true;
  };

  // Base policies: FIFO, popping only what is admitted. Decode steps are
  // re-admitted outside the policy's *session* budget: that budget gates how
  // many sessions hold state concurrently, and a step belongs to a session
  // already in the live pool. Gating steps on the same budget would
  // livelock a width-capped pool of parked sessions (budget 0, nothing to
  // unpark them). With a decode-aware policy the separate per-window step
  // budget meters them instead; the main loop guarantees at least one step
  // per window so progress never stalls.
  const auto admit_fifo = [&](std::size_t max_admit) {
    while (!step_queue.empty() && take_step()) {
      const int tag = step_queue.front();
      step_queue.pop_front();
      resume(tag);
    }
    for (; max_admit > 0 && !queue.empty(); --max_admit) {
      const int h = queue.front();
      queue.pop_front();
      spawn(h);
    }
  };

  // Triaging policies (the fleet's, DESIGN.md §8): triage every queued
  // request (shedding the ones the policy has given up on) *and* every
  // parked decode step (cancelling sessions whose token deadline is
  // hopeless), order survivors earliest-deadline-first with deferred
  // (blown-but-in-grace) entries after everything that can still make its
  // SLO, then admit up to the base policy's budget. Steps and arrivals
  // compete in one EDF order — that is what makes triage work mid-stream.
  const auto admit_edf = [&](std::size_t max_admit) {
    const std::int64_t t = now();
    cands.clear();
    for (const int tag : step_queue) {
      Session& s = sess[static_cast<std::size_t>(tag)];
      RequestView v;
      v.now_ns = t;
      v.arrival_ns = s.rec.arrival_ns;
      v.latency_class = s.latency_class;
      v.is_step = true;
      v.last_token_ns = s.rec.last_token_ns;
      v.tokens = s.rec.tokens;
      const Triage tg = policy->triage(v);
      if (tg.verdict == Verdict::kShed) {
        // Mid-stream cancel: the session already ran and holds valid
        // output, so it is not shed — it is unparked cancelled, and its
        // next step-hook consult stops it through the model's tail.
        s.rec.cancelled = true;
        ++report.cancelled;
        ACROBAT_TRACE(tr, tr->instant(trace::EventKind::kShed, s.rec.id,
                                      static_cast<int>(v.latency_class), s.rec.tokens));
        const bool ok = fs.unpark(tag);
        assert(ok && "cancelled step must correspond to a parked fiber");
        (void)ok;
        continue;
      }
      if (tg.verdict == Verdict::kDefer)
        ACROBAT_TRACE(tr, tr->instant(trace::EventKind::kTriage, s.rec.id,
                                      static_cast<int>(v.latency_class)));
      cands.push_back(Cand{tag, tg.deadline_ns, tg.verdict == Verdict::kDefer, true});
    }
    step_queue.clear();
    for (const int h : queue) {
      const Request& rq = io.request(h);
      RequestView v;
      v.now_ns = t;
      v.arrival_ns = rq.arrival_ns;
      v.latency_class = rq.latency_class;
      const Triage tg = policy->triage(v);
      if (tg.verdict == Verdict::kShed) {
        RequestRecord rec;
        rec.id = rq.id;
        rec.shard = cfg.shard_index;
        rec.arrival_ns = rq.arrival_ns;
        rec.admit_ns = rec.completion_ns = t;
        rec.shed = true;
        ++report.shed;
        ACROBAT_TRACE(tr, tr->instant(trace::EventKind::kShed, rq.id,
                                      static_cast<int>(rq.latency_class),
                                      rec.completion_ns - rec.arrival_ns));
        io.finish(h, rec);
        continue;
      }
      if (tg.verdict == Verdict::kDefer)
        ACROBAT_TRACE(tr, tr->instant(trace::EventKind::kTriage, rq.id,
                                      static_cast<int>(rq.latency_class)));
      cands.push_back(Cand{h, tg.deadline_ns, tg.verdict == Verdict::kDefer, false});
    }
    // stable: FIFO within equal (defer, deadline) — arrival order survives.
    std::stable_sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
      if (a.defer != b.defer) return !a.defer;
      return a.deadline_ns < b.deadline_ns;
    });
    // The *order* is shared (a step with a tight token deadline resumes
    // before a later-deadline arrival spawns, so its ops record first), but
    // only arrivals consume the width budget, as in the FIFO path. Steps
    // over the window's budget return to step_queue in EDF order and are
    // re-triaged next window (their deadlines only tighten).
    queue.clear();
    for (const Cand& c : cands) {
      if (c.step) {
        if (take_step())
          resume(c.key);
        else
          step_queue.push_back(c.key);
      } else if (max_admit > 0) {
        --max_admit;
        spawn(c.key);
      } else {
        queue.push_back(c.key);  // keep EDF order
      }
    }
  };
  const auto admit = [&](std::size_t max_admit) {
    if (queue.empty() && step_queue.empty()) return;
    if (edf)
      admit_edf(max_admit);
    else
      admit_fifo(max_admit);
    report.max_live = std::max(report.max_live, in_flight.size());
  };

  // Trigger-boundary admission (DESIGN.md §7): whatever arrived while the
  // live pool was recording is admitted and records its ops *before* the
  // pending set is scheduled, so one trigger batches old and new requests.
  eng.set_admission_hook([&] {
    io.poll(queue);
    const AdmitDecision d = policy->decide(make_ctx());
    step_budget = d.max_step_admit;  // new trigger window
    if (io.degraded())
      step_budget = step_budget == kUnlimited ? 1 : std::max<std::size_t>(1, step_budget / 2);
    admit(d.max_admit);
    fs.step_ready();  // new fibers record until they suspend
  });

  // Token-boundary hook (iteration-level scheduling): the engine consults
  // this from inside a generative fiber at every kStepKeep. The first
  // consult per token stamps the token, queues the session for
  // re-admission, and parks; the consult after unpark decides run vs stop
  // (a cancelled session exits through the model's tail so its output
  // stays valid).
  eng.set_step_hook([&](int tag) -> Engine::StepVerdict {
    Session& s = sess[static_cast<std::size_t>(tag)];
    RequestRecord& r = s.rec;
    if (s.awaiting) {
      s.awaiting = false;
      return r.cancelled ? Engine::StepVerdict::kStop : Engine::StepVerdict::kRun;
    }
    const std::int64_t t = now();
    note_cancel(s);
    ++r.tokens;
    ++report.tokens;
    if (r.first_token_ns < 0) {
      r.first_token_ns = t;
      ++live_decode;
      report.ttft_ms.add(static_cast<double>(t - r.arrival_ns) * 1e-6);
    } else {
      const std::int64_t gap = t - r.last_token_ns;
      report.inter_token_ms.add(static_cast<double>(gap) * 1e-6);
      // Slow-request exemplars fire at serve time on an inter-token breach
      // (DESIGN.md §9), not only on end-to-end latency at completion — a
      // mid-stream stall surfaces while the session is still running.
      ACROBAT_TRACE(tr, {
        if (cfg.step_slow_ns > 0 && gap >= cfg.step_slow_ns)
          tr->capture_exemplar(r.id, r.last_token_ns, t, gap);
      });
    }
    r.last_token_ns = t;
    if (r.cancelled) return Engine::StepVerdict::kStop;
    io.token(s.handle, static_cast<std::uint32_t>(r.tokens));
    s.awaiting = true;
    step_queue.push_back(tag);
    return Engine::StepVerdict::kPark;
  });

  for (;;) {
    io.poll(queue);
    fs.reap_done();
    prune();
    ACROBAT_TRACE(tr, maybe_tick());
    if (in_flight.empty() && queue.empty()) {
      if (!io.open()) break;
      io.idle_wait();  // poll for the next arrival
      continue;
    }
    const AdmitDecision d = policy->decide(make_ctx());
    admit(d.max_admit);
    if (fs.step_ready() > 0) continue;
    if (fs.any_blocked()) {
      if (d.hold_until_ns > now() && io.open()) {
        // Batch-forming pause: wait for an arrival or the hold's end, then
        // re-decide.
        const std::size_t queued = queue.size();
        for (;;) {
          io.poll(queue);
          if (queue.size() != queued || now() >= d.hold_until_ns || !io.open()) break;
          io.idle_wait();
        }
        continue;
      }
      eng.trigger_execution();  // the admission hook folds in late arrivals
      fs.wake_blocked();
    } else if (!step_queue.empty()) {
      // Every live session is parked and the window's step budget is spent:
      // no trigger is coming to reset it, so open a minimal window by hand —
      // progress is guaranteed for any decode_admit >= 1.
      step_budget = std::max<std::size_t>(step_budget, 1);
    }
  }

  eng.set_step_hook(nullptr);
  eng.set_admission_hook(nullptr);
  eng.set_fiber_scheduler(nullptr);
  report.triggers = fs.idle_triggers();
  report.stacks_allocated = fs.stacks_allocated();
  report.stats = eng.stats();
  report.mem = eng.memory();
}

// ------------------------------------------------------ in-process driver

class InprocRun::Shard final : public ShardIo {
 public:
  Shard(std::size_t capacity, const std::vector<Request>& trace,
        std::vector<RequestRecord>& records)
      : inbox(capacity), outbox(capacity), trace_(trace), records_(records) {}

  void poll(std::deque<int>& arrived) override {
    int id;
    while (inbox.pop(id)) arrived.push_back(id);
  }
  bool open() override { return !(inbox.closed() && inbox.empty_hint()); }
  void idle_wait() override { relax(); }
  const Request& request(int id) override { return trace_[static_cast<std::size_t>(id)]; }
  void finish(int id, RequestRecord& rec) override {
    records_[static_cast<std::size_t>(id)] = std::move(rec);
    outstanding.fetch_sub(1, std::memory_order_relaxed);
    const bool pushed = outbox.push(id);
    assert(pushed && "outbox sized for the whole trace");
    (void)pushed;
  }
  void tick(const trace::MetricsTick& t) override {
    if (!ticks->push(t)) ++dropped_ticks;
  }

  SpscQueue<int> inbox;   // dispatcher → shard (request ids)
  SpscQueue<int> outbox;  // shard → dispatcher (finished ids; the
                          // closed-loop client's completion signal)
  std::atomic<int> outstanding{0};  // dispatched - finished (least-loaded reads)
  ShardReport report;
  // Observability (DESIGN.md §9): a worker-owned ring and an SPSC tick
  // stream, both allocated before the thread starts (tracing on only).
  std::unique_ptr<trace::Tracer> tracer;
  std::unique_ptr<SpscQueue<trace::MetricsTick>> ticks;
  std::uint64_t dropped_ticks = 0;

 private:
  const std::vector<Request>& trace_;
  std::vector<RequestRecord>& records_;
};

InprocRun::InprocRun(int shards, const CoreConfig& cfg, const trace::TraceOptions& topts,
                     const std::vector<Request>& trace, std::vector<RequestRecord>& records)
    : trace_(&trace) {
  records.assign(trace.size(), RequestRecord{});
  for (std::size_t i = 0; i < trace.size(); ++i) {
    records[i].id = trace[i].id;
    records[i].arrival_ns = trace[i].arrival_ns;
  }
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(trace.size(), trace, records));
    if (topts.enabled) {
      shards_.back()->tracer = std::make_unique<trace::Tracer>(s, topts.config);
      shards_.back()->ticks = std::make_unique<SpscQueue<trace::MetricsTick>>(4096);
    }
  }
  // The dispatcher thread owns its own ring (single-writer discipline: it
  // must never write a shard's ring).
  if (topts.enabled) disp_tracer_ = std::make_unique<trace::Tracer>(0, topts.config);

  epoch_ = now_ns();
  if (disp_tracer_) disp_tracer_->set_epoch(epoch_);
  threads_.reserve(shards_.size());
  for (int s = 0; s < shards; ++s) {
    Shard& sh = *shards_[static_cast<std::size_t>(s)];
    if (sh.tracer) sh.tracer->set_epoch(epoch_);
    CoreConfig c = cfg;
    c.shard_index = s;
    c.epoch_ns = epoch_;
    c.tracer = sh.tracer.get();
    c.tick_every_triggers = topts.enabled ? topts.tick_every_triggers : 0;
    threads_.emplace_back([c, &sh] { run_shard(c, sh, sh.report); });
  }
}

InprocRun::~InprocRun() {
  for (auto& sh : shards_) sh->inbox.close();
  for (std::thread& t : threads_)
    if (t.joinable()) t.join();
}

std::int64_t InprocRun::now() const { return now_ns() - epoch_; }

int InprocRun::route(const Request& req, DispatchKind kind,
                     const ClassAffinity& affinity) const {
  const std::vector<int>& aff = affinity[static_cast<std::size_t>(req.latency_class)];
  const auto nth_eligible = [&](std::size_t i) {
    return aff.empty() ? static_cast<int>(i) : aff[i];
  };
  const std::size_t n = aff.empty() ? shards_.size() : aff.size();
  if (kind == DispatchKind::kRoundRobin)
    return nth_eligible(static_cast<std::size_t>(req.id) % n);
  int target = nth_eligible(0);
  int best_load = INT_MAX;
  for (std::size_t i = 0; i < n; ++i) {
    const int s = nth_eligible(i);
    const int load =
        shards_[static_cast<std::size_t>(s)]->outstanding.load(std::memory_order_relaxed);
    if (load < best_load) {  // strict: ties keep the lowest eligible index
      best_load = load;
      target = s;
    }
  }
  return target;
}

void InprocRun::dispatch(int id, int shard) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  sh.outstanding.fetch_add(1, std::memory_order_relaxed);
  const bool pushed = sh.inbox.push(id);
  assert(pushed && "inbox sized for the whole trace");
  (void)pushed;
  ACROBAT_TRACE(disp_tracer_.get(),
                disp_tracer_->instant(trace::EventKind::kDispatch, id, shard));
}

void InprocRun::replay(DispatchKind kind, const ClassAffinity& affinity) {
  for (const Request& req : *trace_) {
    while (now() < req.arrival_ns) {
      drain_ticks();
      relax();
    }
    dispatch(req.id, route(req, kind, affinity));
  }
}

bool InprocRun::pop_finished(int& id) {
  for (auto& sh : shards_)
    if (sh->outbox.pop(id)) return true;
  return false;
}

void InprocRun::drain_ticks() {
  trace::MetricsTick t;
  for (auto& sh : shards_)
    if (sh->ticks)
      while (sh->ticks->pop(t)) ticks_.push_back(t);
}

std::vector<ShardReport> InprocRun::finish(trace::TraceDump& dump) {
  for (auto& sh : shards_) sh->inbox.close();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  std::vector<ShardReport> reports;
  reports.reserve(shards_.size());
  for (auto& sh : shards_) reports.push_back(std::move(sh->report));
  if (!disp_tracer_) return reports;
  // Dispatcher = tid 0, shard s = tid s + 1.
  drain_ticks();
  dump.ticks = std::move(ticks_);
  dump.tracks.push_back(trace::dump_track(*disp_tracer_, 0, "dispatcher"));
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    dump.tracks.push_back(trace::dump_track(*shards_[s]->tracer, static_cast<int>(s) + 1,
                                            "shard" + std::to_string(s)));
    dump.dropped_ticks += shards_[s]->dropped_ticks;
  }
  dump.metric_names = gauge_names();
  return reports;
}

void summarize(ServeResult& res) {
  // Histogram-backed (serve/stats.h): O(1) memory at any request count — no
  // per-sample storage on the serve path.
  LatencyHisto lat;
  std::int64_t first_arrival = res.records.empty() ? 0 : res.records.front().arrival_ns;
  std::int64_t last_completion = 0;
  int completed = 0;
  for (const RequestRecord& r : res.records) {
    assert(r.completion_ns >= 0 && "every request must complete or shed");
    first_arrival = std::min(first_arrival, r.arrival_ns);
    last_completion = std::max(last_completion, r.completion_ns);
    if (r.shed) continue;
    ++completed;
    lat.add(r.latency_ms());
  }
  res.latency_ms = Percentiles::from(lat);
  res.makespan_ms = static_cast<double>(last_completion - first_arrival) * 1e-6;
  // Decode split: shard-local token histograms merge here (same O(1)-memory
  // scheme as latency), so TTFT and inter-token tails are reportable even
  // though no per-token samples were stored.
  LatencyHisto ttft, gap;
  for (const ShardReport& s : res.shards) {
    ttft.merge(s.ttft_ms);
    gap.merge(s.inter_token_ms);
    res.tokens += s.tokens;
    res.cancelled += s.cancelled;
  }
  res.ttft_ms = Percentiles::from(ttft);
  res.inter_token_ms = Percentiles::from(gap);
  if (res.makespan_ms > 0) {
    res.throughput_rps = static_cast<double>(completed) / (res.makespan_ms * 1e-3);
    res.tokens_per_sec = static_cast<double>(res.tokens) / (res.makespan_ms * 1e-3);
  }
}

}  // namespace acrobat::serve::detail
