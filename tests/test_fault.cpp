// Fault tolerance acceptance (ISSUE 10 / DESIGN.md §11): crashes are a
// steady-state input, not an exceptional path.
//  (a) fault-spec parser: the full grammar roundtrips; malformed specs fail
//      loudly with a reason, never silently produce an inert plan;
//  (b) backoff schedules: respawn_delay_ns and retry_backoff_ns are pure,
//      bounded, and (given a seed) bitwise reproducible;
//  (c) config validation: nonsensical liveness / supervision settings
//      abort (config_die) — fork-based death tests, every build;
//  (d) FrameReader fuzz: seeded garbage, truncated headers, and bit-flipped
//      valid streams never crash the reader, never buffer unboundedly;
//  (e) client resilience: call() retries 429s with backoff until completion
//      and times out against a server that never answers;
//  (f) supervisor: a SIGKILLed worker is respawned under the same recipe
//      (post-respawn outputs stay solo-bitwise-identical), a crash-looping
//      command burns its restart budget (or, at budget 0, is never
//      respawned) and degrades to explicit errors;
//  (g) kill-loop soak: SIGKILL a worker every ~n/10 requests via the fault
//      plan — every request still reaches a terminal frame and the fleet
//      keeps goodput;
//  (h) degraded mode: overload enters/exits with hysteresis, sheds
//      best-effort work, and accounts every request, in process and with a
//      forked worker that learns the mode from kWorkerMode frames;
//  (i) bad requests + fairness: a malformed request is refused before
//      admission and not retried; one connection cannot hold more than its
//      in-flight cap;
//  (j) short-write injection fragments frames without changing any output
//      bit; a wedged worker trips the liveness timeout and is respawned.
//
// Wire tests SKIP loudly when sockets are unavailable.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "models/specs.h"
#include "net/client.h"
#include "net/net.h"
#include "serve/server.h"
#include "support/timer.h"
#include "test_util.h"

using namespace acrobat;
using acrobat::test::env_requests;

namespace {

int g_skips = 0;

bool start_or_skip(net::NetServer& srv, const char* what) {
  if (srv.start()) return true;
  std::printf("SKIP %s: %s\n", what, srv.error().c_str());
  ++g_skips;
  return false;
}

models::Dataset solo_dataset(const models::Dataset& ds, std::size_t idx) {
  models::Dataset one;
  one.pool = ds.pool;
  one.tensors = ds.tensors;
  one.inputs.push_back(ds.inputs[idx]);
  return one;
}

std::vector<float> solo_outputs(const harness::Prepared& p,
                                const models::Dataset& ds, std::size_t idx) {
  harness::RunOptions o;
  o.collect_outputs = true;
  return harness::run_acrobat(p, solo_dataset(ds, idx), o).outputs.at(0);
}

// (a) Spec parser: grammar roundtrip + loud failures.
void test_fault_spec_parser() {
  fault::FaultPlan pl;
  std::string err;

  CHECK(fault::parse_fault_spec("", pl, &err));
  CHECK(!pl.any());

  CHECK(fault::parse_fault_spec(
      "kill_worker@req=200;short_write@p=0.01;wedge_shard@req=500,dur_ms=50",
      pl, &err));
  CHECK_EQ(pl.kill_every_req, 200u);
  CHECK_EQ(pl.kill_shard, -1);
  CHECK_EQ(pl.wedge_every_req, 500u);
  CHECK_EQ(pl.wedge_dur_ms, 50);
  CHECK(pl.short_write_p > 0.009 && pl.short_write_p < 0.011);
  CHECK(pl.any());

  CHECK(fault::parse_fault_spec("kill_worker@req=7,shard=1", pl, &err));
  CHECK_EQ(pl.kill_every_req, 7u);
  CHECK_EQ(pl.kill_shard, 1);

  CHECK(fault::parse_fault_spec("crash_worker@req=3;", pl, &err));  // trailing ;
  CHECK_EQ(pl.crash_at_req, 3u);

  CHECK(fault::parse_fault_spec("short_write@p=0.5,seed=42", pl, &err));
  CHECK_EQ(pl.seed, 42u);

  // Every malformed shape names its problem.
  const char* bad[] = {
      "explode@req=1",          // unknown action
      "kill_worker",            // missing @
      "kill_worker@shard=0",    // missing required key
      "wedge_shard@req=5",      // wedge needs dur_ms too
      "short_write@p=1.5",      // probability out of range
      "kill_worker@req=zero",   // bad number
      "kill_worker@req",        // key without value
  };
  for (const char* s : bad) {
    err.clear();
    CHECK(!fault::parse_fault_spec(s, pl, &err));
    CHECK(!err.empty());
  }
}

// (b) Backoff schedules are pure, bounded, reproducible.
void test_backoff_determinism() {
  const std::int64_t base = 50'000'000, cap = 2'000'000'000;
  CHECK_EQ(net::respawn_delay_ns(0, base, cap), base);
  CHECK_EQ(net::respawn_delay_ns(1, base, cap), 2 * base);
  CHECK_EQ(net::respawn_delay_ns(-3, base, cap), base);
  std::int64_t prev = 0;
  for (int k = 0; k < 200; ++k) {
    const std::int64_t d = net::respawn_delay_ns(k, base, cap);
    CHECK(d >= prev);   // monotone non-decreasing
    CHECK(d <= cap);    // capped, no overflow wraparound
    prev = d;
  }
  CHECK_EQ(net::respawn_delay_ns(63, base, cap), cap);

  // Same seed, same schedule — bitwise; bounds follow the jitter range.
  std::uint64_t s1 = 12345, s2 = 12345;
  for (int k = 0; k < 64; ++k) {
    const std::int64_t a = net::retry_backoff_ns(k, 1'000'000, 200'000'000, s1);
    const std::int64_t b = net::retry_backoff_ns(k, 1'000'000, 200'000'000, s2);
    CHECK_EQ(a, b);
    std::uint64_t probe = 12345;  // bounds: d * [0.5, 1.5)
    std::int64_t d = k >= 62 ? 200'000'000 : 1'000'000ll << k;
    if (d > 200'000'000 || d <= 0) d = 200'000'000;
    (void)probe;
    CHECK(a >= d / 2);
    CHECK(a < d + d / 2 + 1);
  }
  std::uint64_t s3 = 99;
  CHECK(net::retry_backoff_ns(0, 1'000'000, 200'000'000, s3) !=
        net::retry_backoff_ns(0, 1'000'000, 200'000'000, s3));  // state advances
}

// (c) config_die: nonsense liveness / supervision settings abort instead
// of producing a server that flaps or never declares death.
void test_config_validation_dies() {
  const auto start_with = [](void (*tweak)(net::NetOptions&)) {
    net::NetOptions o;
    o.multiprocess = true;  // skip the prep/ds requirement; dies pre-listen
    tweak(o);
    net::NetServer srv(nullptr, nullptr, o);
    (void)srv.start();
  };
  CHECK(test::dies([&] {
    start_with([](net::NetOptions& o) { o.ping_interval_ns = 0; });
  }));
  CHECK(test::dies([&] {
    start_with([](net::NetOptions& o) {
      o.ping_interval_ns = 100;
      o.liveness_timeout_ns = 100;  // timeout must exceed the interval
    });
  }));
  CHECK(test::dies([&] {
    start_with([](net::NetOptions& o) { o.respawn_backoff_ns = 0; });
  }));
  CHECK(test::dies([&] {
    start_with([](net::NetOptions& o) {
      o.respawn_backoff_cap_ns = o.respawn_backoff_ns - 1;
    });
  }));
}

// (d) FrameReader fuzz: garbage, truncation, bit flips — never a crash,
// never unbounded buffering, valid prefixes still decode.
void test_frame_reader_fuzz() {
  std::uint64_t rng = test::seed(0xf00dface);
  const auto next_u64 = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };

  // Pure garbage in random-sized chunks: the reader either errors or wants
  // more; its buffer never exceeds one frame's worth of lookahead.
  for (int round = 0; round < 50; ++round) {
    net::FrameReader rd;
    bool errored = false;
    for (int i = 0; i < 64 && !errored; ++i) {
      std::uint8_t chunk[256];
      const std::size_t len = 1 + next_u64() % sizeof chunk;
      for (std::size_t j = 0; j < len; ++j)
        chunk[j] = static_cast<std::uint8_t>(next_u64());
      rd.feed(chunk, len);
      net::Frame f;
      for (;;) {
        const auto st = rd.next(f);
        if (st == net::FrameReader::Status::kFrame) {
          CHECK(f.payload.size() <= net::kMaxPayload);
          continue;
        }
        if (st == net::FrameReader::Status::kError) errored = true;
        break;
      }
      CHECK(rd.buffered() <= net::kMaxPayload + 8);
    }
    // reset() restores a clean stream position.
    rd.reset();
    std::vector<std::uint8_t> ok;
    net::encode_id_only(ok, net::FrameType::kRetry, 7);
    rd.feed(ok.data(), ok.size());
    net::Frame f;
    CHECK(rd.next(f) == net::FrameReader::Status::kFrame);
    CHECK(f.type == net::FrameType::kRetry);
  }

  // A valid multi-frame stream with one flipped bit: every frame before the
  // flip decodes bitwise; after it the reader errors or resyncs — but never
  // fabricates an oversized frame.
  std::vector<std::uint8_t> stream;
  const float ref[] = {1.0f, 2.0f};
  for (std::uint32_t id = 0; id < 32; ++id) {
    net::encode_request(stream, id, id % 8, 0, 0, true);
    net::encode_done(stream, net::FrameType::kDone, id, 3, false, ref, 2);
  }
  for (int round = 0; round < 100; ++round) {
    std::vector<std::uint8_t> mut = stream;
    mut[next_u64() % mut.size()] ^=
        static_cast<std::uint8_t>(1u << (next_u64() % 8));
    net::FrameReader rd;
    std::size_t off = 0;
    while (off < mut.size()) {
      const std::size_t len =
          std::min<std::size_t>(1 + next_u64() % 64, mut.size() - off);
      rd.feed(mut.data() + off, len);
      off += len;
      net::Frame f;
      for (;;) {
        const auto st = rd.next(f);
        if (st == net::FrameReader::Status::kFrame) {
          CHECK(f.payload.size() <= net::kMaxPayload);
          continue;
        }
        break;
      }
      CHECK(rd.buffered() <= net::kMaxPayload + 8);
      if (rd.next(f) == net::FrameReader::Status::kError) break;
    }
  }
}

// (e1) call() against a server that never answers: the deadline is honored
// and counted; no hang, no spin.
void test_client_deadline() {
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (lfd < 0) {
    std::printf("SKIP client_deadline: no sockets\n");
    ++g_skips;
    return;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(lfd, 4) != 0) {
    std::printf("SKIP client_deadline: bind failed\n");
    ++g_skips;
    ::close(lfd);
    return;
  }
  socklen_t alen = sizeof addr;
  ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen);

  net::NetClient cli;
  CHECK(cli.connect_tcp("127.0.0.1", ntohs(addr.sin_port)));
  net::ClientResponse r;
  net::CallOptions co;
  co.deadline_ms = 200;
  co.max_attempts = 8;
  co.backoff_base_ms = 1;
  co.backoff_cap_ms = 20;
  const std::int64_t t0 = now_ns();
  CHECK(!cli.call(1, 0, r, co));
  const std::int64_t el = now_ns() - t0;
  CHECK(el >= 150'000'000);      // actually waited for the deadline
  CHECK(el < 10'000'000'000);    // ...and did not hang
  CHECK(cli.stats().timeouts >= 1);
  ::close(lfd);
}

// (e2) call() rides out backpressure: a saturated 1-slot server answers 429
// until the slot frees; the client's backoff-and-resubmit loop lands kDone.
void test_client_retry_on_429() {
  const models::ModelSpec& spec = models::model_by_name("Decoder");
  const models::Dataset ds = spec.build_dataset(false, 8, 7);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});

  net::NetOptions o;
  o.admission_capacity = 1;
  o.max_sessions = 1;
  o.launch_overhead_ns = 5'000'000;  // keep the slot busy for hundreds of ms
  o.ds_batch = 8;
  o.ds_seed = 7;
  net::NetServer srv(&p, &ds, o);
  if (!start_or_skip(srv, "client_retry_on_429")) return;

  // Admission is synchronous on the event loop and a connection's frames
  // are read in order: the first filler takes the one slot, the second
  // fills the 1-deep admission FIFO, and cli's first attempt finds it full.
  net::NetClient filler;
  CHECK(filler.connect_tcp("127.0.0.1", srv.port()));
  CHECK(filler.send_request(0, 0));  // occupies the slot
  CHECK(filler.send_request(1, 1));  // occupies the 1-deep admission FIFO

  net::NetClient cli;
  CHECK(cli.connect_tcp("127.0.0.1", srv.port()));
  cli.set_jitter_seed(test::seed(7));
  net::ClientResponse r;
  net::CallOptions co;
  co.deadline_ms = 30'000;
  co.backoff_base_ms = 1;
  co.backoff_cap_ms = 16;
  co.max_attempts = 1'000;
  co.stream = false;
  CHECK(cli.call(100, 2, r, co));
  CHECK(r.kind == net::ClientResponse::Kind::kDone);
  CHECK(cli.stats().retries >= 1);  // the first attempts genuinely hit 429

  net::ClientResponse fr;
  CHECK(filler.wait(0, fr));
  CHECK(filler.wait(1, fr));
  cli.close();
  filler.close();
  srv.shutdown();
}

// (f1) Supervisor: SIGKILL a worker; it is respawned under the same recipe
// and post-respawn outputs remain solo-bitwise-identical.
void test_supervisor_respawn() {
  const models::ModelSpec& spec = models::model_by_name("Decoder");
  const models::Dataset ds = spec.build_dataset(false, 6, 23);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});

  net::NetOptions o;
  o.multiprocess = true;
  o.shards = 2;
  o.ds_batch = 6;
  o.ds_seed = 23;
  o.respawn_backoff_ns = 5'000'000;
  o.respawn_backoff_cap_ns = 100'000'000;
  net::NetServer srv(nullptr, nullptr, o);
  if (!start_or_skip(srv, "supervisor_respawn")) return;
  CHECK_EQ(srv.worker_pids().size(), 2u);

  net::NetClient cli;
  CHECK(cli.connect_tcp("127.0.0.1", srv.port()));
  net::ClientResponse r;
  for (std::uint32_t i = 0; i < 4; ++i) {
    CHECK(cli.call(i, i % 6, r));
    CHECK(r.kind == net::ClientResponse::Kind::kDone);
  }

  // Respawned: the event loop stores -1 when it reaps the killed worker and
  // the new pid when it forks, so two pids without the killed one means the
  // shard has a live replacement.
  const pid_t killed = srv.worker_pids().at(0);
  ::kill(killed, SIGKILL);
  const std::int64_t t0 = now_ns();
  for (;;) {
    const std::vector<pid_t> pids = srv.worker_pids();
    if (pids.size() == 2 && std::find(pids.begin(), pids.end(), killed) == pids.end()) break;
    if (now_ns() - t0 > 10'000'000'000) break;
    ::usleep(1'000);
  }
  const std::vector<pid_t> pids = srv.worker_pids();
  CHECK_EQ(pids.size(), 2u);
  CHECK(std::find(pids.begin(), pids.end(), killed) == pids.end());

  // Post-respawn: both shards serve, and single-session outputs are still
  // bitwise the solo reference — the respawn rebuilt the same recipe.
  for (std::uint32_t i = 100; i < 108; ++i) {
    CHECK(cli.call(i, i % 6, r));
    CHECK(r.kind == net::ClientResponse::Kind::kDone);
    const std::vector<float> solo = solo_outputs(p, ds, i % 6);
    CHECK_EQ(r.output.size(), solo.size());
    for (std::size_t j = 0; j < solo.size(); ++j)
      CHECK(r.output[j] == solo[j]);
  }
  cli.close();
  srv.shutdown();
  const net::NetStats& st = srv.stats();
  CHECK_EQ(st.worker_deaths, 1u);
  CHECK_EQ(st.worker_respawns, 1u);
  CHECK_EQ(st.respawns_exhausted, 0u);
  CHECK_EQ(st.shards.size(), 2u);
}

// (f2) Budget exhaustion: a worker command that dies instantly burns its
// restart budget (backoff between attempts), then the shard stays dead and
// requests get explicit errors — not hangs, not fork bombs. At budget 0 the
// first death is final: no respawn, and the budget counts as spent at once.
void test_respawn_budget_exhaustion() {
  for (const int budget : {2, 0}) {
    net::NetOptions o;
    o.multiprocess = true;
    o.shards = 1;
    o.worker_cmd = "/bin/false";  // execs fine, exits immediately: crash loop
    o.respawn_budget = budget;
    o.respawn_backoff_ns = 2'000'000;
    o.respawn_backoff_cap_ns = 8'000'000;
    net::NetServer srv(nullptr, nullptr, o);
    if (!start_or_skip(srv, "respawn_budget")) return;

    // Let the crash loop burn the whole budget. At budget 0 the request
    // gets kError whether it reaches the dying worker (kWorkerDied) or
    // finds it dead already (kUnavailable), so nothing needs to wait.
    if (budget > 0) ::usleep(300'000);

    net::NetClient cli;
    CHECK(cli.connect_tcp("127.0.0.1", srv.port()));
    CHECK(cli.send_request(1, 0));
    net::ClientResponse r;
    CHECK(cli.wait(1, r));
    CHECK(r.kind == net::ClientResponse::Kind::kError);
    cli.close();
    srv.shutdown();
    const net::NetStats& st = srv.stats();
    CHECK_EQ(st.worker_respawns, static_cast<std::uint64_t>(budget));  // the budget, then stop
    CHECK_EQ(st.respawns_exhausted, 1u);
    // The initial spawn and every respawn died.
    CHECK(st.worker_deaths >= static_cast<std::uint64_t>(budget) + 1);
    CHECK(st.errors >= 1u);
  }
}

// (g) Kill-loop soak: the fault plan SIGKILLs a worker every ~n/10 routed
// requests. With supervision + client retry, every request completes, and
// the respawn count tracks the injected kills.
void test_kill_loop_soak() {
  const int n = env_requests(1000);
  const int period = std::max(10, n / 10);

  net::NetOptions o;
  o.multiprocess = true;
  o.shards = 2;
  o.ds_batch = 8;
  o.ds_seed = 7;
  o.respawn_budget = n;  // generous: the budget is not what is under test
  o.respawn_backoff_ns = 2'000'000;
  o.respawn_backoff_cap_ns = 20'000'000;

  net::CallOptions co;
  co.deadline_ms = 30'000;
  co.max_attempts = 200;
  co.backoff_base_ms = 1;
  co.backoff_cap_ms = 20;
  co.stream = false;

  const auto run = [&](const std::string& spec, net::NetStats& st_out,
                       std::int64_t& elapsed) {
    net::NetOptions oo = o;
    oo.fault_spec = spec;
    net::NetServer srv(nullptr, nullptr, oo);
    if (!start_or_skip(srv, "kill_loop_soak")) return false;
    net::NetClient cli;
    CHECK(cli.connect_tcp("127.0.0.1", srv.port()));
    cli.set_jitter_seed(test::seed(11));
    const std::int64_t t0 = now_ns();
    int completed = 0;
    for (int i = 0; i < n; ++i) {
      net::ClientResponse r;
      // Terminal-frame guarantee: under the kill loop every call must still
      // land kDone within its retry budget.
      if (cli.call(static_cast<std::uint32_t>(i),
                   static_cast<std::uint32_t>(i) % 8, r, co))
        ++completed;
    }
    elapsed = now_ns() - t0;
    CHECK_EQ(completed, n);
    cli.close();
    srv.shutdown();
    st_out = srv.stats();
    return true;
  };

  net::NetStats base_st, fault_st;
  std::int64_t base_ns = 0, fault_ns = 0;
  if (!run("", base_st, base_ns)) return;
  CHECK_EQ(base_st.worker_deaths, 0u);
  CHECK_EQ(base_st.fault_kills, 0u);

  char spec[64];
  std::snprintf(spec, sizeof spec, "kill_worker@req=%d", period);
  if (!run(spec, fault_st, fault_ns)) return;

  CHECK(fault_st.fault_kills >= static_cast<std::uint64_t>(n / period / 2));
  CHECK(fault_st.worker_deaths >= 1u);
  CHECK(fault_st.worker_respawns >= 1u);
  // Every death is answered by a respawn, except at most one abandoned when
  // shutdown caught a backoff in flight.
  CHECK(fault_st.worker_respawns <= fault_st.worker_deaths);
  CHECK(fault_st.worker_deaths - fault_st.worker_respawns <= 1u);
  CHECK_EQ(fault_st.respawns_exhausted, 0u);
  // Goodput under the kill loop: bounded degradation, not collapse. (The
  // 15%-of-fault-free acceptance number is measured in Release CI; here the
  // bound is loose enough for sanitizer builds.)
  CHECK(fault_ns < 5 * base_ns + 5'000'000'000);
  std::printf(
      "  kill-loop: n=%d period=%d kills=%llu deaths=%llu respawns=%llu "
      "goodput %.2fx of fault-free\n",
      n, period, static_cast<unsigned long long>(fault_st.fault_kills),
      static_cast<unsigned long long>(fault_st.worker_deaths),
      static_cast<unsigned long long>(fault_st.worker_respawns),
      fault_ns > 0 ? static_cast<double>(base_ns) / static_cast<double>(fault_ns)
                   : 0.0);
}

// (h) Degraded mode: overload crosses the high watermark, best-effort work
// is shed, the mode exits under hysteresis, and the books balance — in
// process, and with a forked worker that the event loop tells of each
// transition by a kWorkerMode frame.
void test_degraded_mode() {
  const models::ModelSpec& spec = models::model_by_name("Decoder");
  const models::Dataset ds = spec.build_dataset(false, 8, 7);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});

  for (const bool multiprocess : {false, true}) {
    net::NetOptions o;
    o.admission_capacity = 8;   // degraded mode enters at 7, exits at 2
    o.max_sessions = 4;         // make the queue actually back up
    o.launch_overhead_ns = 200'000;
    o.ds_batch = 8;
    o.ds_seed = 7;
    o.multiprocess = multiprocess;
    net::NetServer srv(multiprocess ? nullptr : &p, multiprocess ? nullptr : &ds, o);
    if (!start_or_skip(srv, multiprocess ? "degraded_mode/multiproc" : "degraded_mode"))
      continue;

    const int burst = 64;
    net::NetClient cli;
    CHECK(cli.connect_tcp("127.0.0.1", srv.port()));
    for (int i = 0; i < burst; ++i)
      CHECK(cli.send_request(static_cast<std::uint32_t>(i),
                             static_cast<std::uint32_t>(i) % 8, 0,
                             /*latency_class=*/i % 2 == 0 ? 0 : 2,
                             /*stream=*/false));
    int done = 0, retried = 0;
    for (int i = 0; i < burst; ++i) {
      net::ClientResponse r;
      CHECK(cli.wait(static_cast<std::uint32_t>(i), r));
      if (r.kind == net::ClientResponse::Kind::kDone) ++done;
      else ++retried;
    }
    // The mode exit is recorded by shutdown at the latest: the event loop
    // evaluates the hysteresis every pass, and the drain cannot finish
    // before a pass with an empty FIFO.
    cli.close();
    srv.shutdown();
    const net::NetStats& st = srv.stats();
    CHECK_EQ(done + retried, burst);
    CHECK(st.degraded_entries >= 1u);
    CHECK(st.degraded_sheds >= 1u);  // best-effort class hit the shed path
    CHECK_EQ(st.degraded_entries, st.degraded_exits);
    // Sheds are accounted separately from queue-full 429s, and together they
    // explain every kRetry the client saw.
    CHECK_EQ(st.rejected_429 + st.degraded_sheds,
             static_cast<std::uint64_t>(retried));
    CHECK_EQ(st.completed, static_cast<std::uint64_t>(done));
    CHECK_EQ(st.errors, 0u);
  }
}

// (i1) Bad requests: an out-of-range input index and a nonzero model id
// are each answered kError(kBadRequest) before admission. kBadRequest is
// non-retryable, so call() fails fast instead of burning its deadline, and
// the connection still serves a well-formed request.
void test_bad_request() {
  const models::ModelSpec& spec = models::model_by_name("Decoder");
  const models::Dataset ds = spec.build_dataset(false, 6, 23);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});

  net::NetOptions o;
  o.ds_batch = 6;
  o.ds_seed = 23;
  net::NetServer srv(&p, &ds, o);
  if (!start_or_skip(srv, "bad_request")) return;

  net::NetClient cli;
  CHECK(cli.connect_tcp("127.0.0.1", srv.port()));
  net::ClientResponse r;
  net::CallOptions co;
  co.deadline_ms = 10'000;
  const std::int64_t t0 = now_ns();
  CHECK(!cli.call(1, /*input_index=*/6, r, co));  // inputs are 0..5
  CHECK(now_ns() - t0 < 5'000'000'000);
  CHECK_EQ(cli.stats().retries, 0u);
  CHECK_EQ(cli.stats().timeouts, 0u);
  CHECK(r.kind == net::ClientResponse::Kind::kError);
  CHECK_EQ(r.error_code, static_cast<std::uint32_t>(net::ErrorCode::kBadRequest));

  CHECK(cli.send_request(2, 0, /*model_id=*/1));
  CHECK(cli.wait(2, r));
  CHECK(r.kind == net::ClientResponse::Kind::kError);
  CHECK_EQ(r.error_code, static_cast<std::uint32_t>(net::ErrorCode::kBadRequest));

  CHECK(cli.call(3, 0, r));
  CHECK(r.kind == net::ClientResponse::Kind::kDone);
  cli.close();
  srv.shutdown();
  const net::NetStats& st = srv.stats();
  CHECK_EQ(st.requests, 3u);
  CHECK_EQ(st.errors, 2u);
  CHECK_EQ(st.completed, 1u);
}

// (i2) Per-connection fairness: one connection cannot hold more than its
// in-flight cap; the overflow is kRetry, counted separately from 429s.
void test_fairness_cap() {
  const models::ModelSpec& spec = models::model_by_name("Decoder");
  const models::Dataset ds = spec.build_dataset(false, 8, 7);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});

  net::NetOptions o;
  o.max_inflight_per_conn = 2;
  o.launch_overhead_ns = 500'000;  // the first two stay live while the rest land
  o.ds_batch = 8;
  o.ds_seed = 7;
  net::NetServer srv(&p, &ds, o);
  if (!start_or_skip(srv, "fairness_cap")) return;

  const int burst = 8;
  net::NetClient cli;
  CHECK(cli.connect_tcp("127.0.0.1", srv.port()));
  for (int i = 0; i < burst; ++i)
    CHECK(cli.send_request(static_cast<std::uint32_t>(i),
                           static_cast<std::uint32_t>(i) % 8, 0, 0,
                           /*stream=*/false));
  int done = 0, retried = 0;
  for (int i = 0; i < burst; ++i) {
    net::ClientResponse r;
    CHECK(cli.wait(static_cast<std::uint32_t>(i), r));
    if (r.kind == net::ClientResponse::Kind::kDone) ++done;
    else ++retried;
  }
  cli.close();
  srv.shutdown();
  const net::NetStats& st = srv.stats();
  CHECK_EQ(done + retried, burst);
  CHECK(st.fairness_rejects >= 1u);
  CHECK_EQ(st.fairness_rejects, static_cast<std::uint64_t>(retried));
  CHECK_EQ(st.rejected_429, 0u);  // capacity was never the constraint
  CHECK(done >= 2);               // the capped connection still got its share
}

// (j1) Short-write injection fragments every channel frame; outputs remain
// bitwise the solo reference — fragmentation is never data loss.
void test_short_write_parity() {
  const models::ModelSpec& spec = models::model_by_name("Decoder");
  const models::Dataset ds = spec.build_dataset(false, 6, 23);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});

  net::NetOptions o;
  o.multiprocess = true;
  o.shards = 1;
  o.ds_batch = 6;
  o.ds_seed = 23;
  o.fault_spec = "short_write@p=0.5,seed=9";
  net::NetServer srv(nullptr, nullptr, o);
  if (!start_or_skip(srv, "short_write_parity")) return;

  net::NetClient cli;
  CHECK(cli.connect_tcp("127.0.0.1", srv.port()));
  for (std::uint32_t i = 0; i < 6; ++i) {
    CHECK(cli.send_request(i, i % 6));
    net::ClientResponse r;
    CHECK(cli.wait(i, r));
    CHECK(r.kind == net::ClientResponse::Kind::kDone);
    const std::vector<float> solo = solo_outputs(p, ds, i % 6);
    CHECK_EQ(r.output.size(), solo.size());
    for (std::size_t j = 0; j < solo.size(); ++j)
      CHECK(r.output[j] == solo[j]);  // bitwise through injected fragmentation
    CHECK_EQ(r.token_recv_ns.size(), static_cast<std::size_t>(r.tokens));
  }
  cli.close();
  srv.shutdown();
  const net::NetStats& st = srv.stats();
  CHECK(st.fault_short_writes >= 1u);  // router→worker sends were clamped
  CHECK_EQ(st.completed, 6u);
  CHECK_EQ(st.errors, 0u);
  CHECK_EQ(st.worker_deaths, 0u);
}

// (j2) A wedged worker (stops reading, pings unanswered) trips the liveness
// timeout, is SIGKILLed and respawned; the client's retry completes the
// request on the fresh process.
void test_wedge_liveness_respawn() {
  net::NetOptions o;
  o.multiprocess = true;
  o.shards = 1;
  o.ds_batch = 6;
  o.ds_seed = 23;
  o.fault_spec = "wedge_shard@req=3,dur_ms=2000";
  o.ping_interval_ns = 50'000'000;
  o.liveness_timeout_ns = 200'000'000;  // well under the wedge duration
  o.respawn_backoff_ns = 5'000'000;
  o.respawn_backoff_cap_ns = 100'000'000;
  net::NetServer srv(nullptr, nullptr, o);
  if (!start_or_skip(srv, "wedge_liveness")) return;

  net::NetClient cli;
  CHECK(cli.connect_tcp("127.0.0.1", srv.port()));
  cli.set_jitter_seed(test::seed(13));
  net::CallOptions co;
  co.deadline_ms = 30'000;
  co.max_attempts = 100;
  co.backoff_base_ms = 2;
  co.backoff_cap_ms = 50;
  co.stream = false;
  for (std::uint32_t i = 0; i < 5; ++i) {
    net::ClientResponse r;
    CHECK(cli.call(i, i % 6, r, co));
    CHECK(r.kind == net::ClientResponse::Kind::kDone);
  }
  CHECK(cli.stats().retries >= 1);  // the wedged request came back kError
  cli.close();
  srv.shutdown();
  const net::NetStats& st = srv.stats();
  CHECK(st.worker_deaths >= 1u);   // liveness, not EOF, declared this death
  CHECK(st.worker_respawns >= 1u);
  CHECK_EQ(st.respawns_exhausted, 0u);
}

}  // namespace

int main(int argc, char** argv) {
  // Worker host: the multi-process fleet re-execs this binary.
  if (argc > 1 && std::strcmp(argv[1], "--shard-worker") == 0)
    return net::shard_worker_main(argc, argv);

  test_fault_spec_parser();
  test_backoff_determinism();
  test_config_validation_dies();
  test_frame_reader_fuzz();
  test_client_deadline();
  test_client_retry_on_429();
  test_supervisor_respawn();
  test_respawn_budget_exhaustion();
  test_kill_loop_soak();
  test_degraded_mode();
  test_bad_request();
  test_fairness_cap();
  test_short_write_parity();
  test_wedge_liveness_respawn();
  if (g_skips > 0)
    std::printf("note: %d fault test(s) skipped\n", g_skips);
  return acrobat::test::finish("test_fault");
}
