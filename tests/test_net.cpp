// Ingress acceptance (ISSUE 9 / DESIGN.md §10): the socket front door must
// add *nothing* to the serving semantics — only a wire.
//  (a) frame codec: encode/parse roundtrips bitwise under any fragmentation
//      (byte-at-a-time included); a corrupt header faults, never buffers;
//  (b) wire parity: a deterministic cohort served over loopback TCP is
//      bitwise-identical — outputs, token counts, and hermetic engine
//      counters — to the same cohort through the in-proc serve() path;
//  (c) backpressure: a burst beyond the admission bound gets explicit 429
//      frames, every request gets exactly one terminal frame, and the
//      admission/slot high-water marks never exceed their configured caps;
//  (d) slow reader: a connection that stops reading is dropped when its
//      bounded write buffer fills — the shards drain to completion anyway;
//  (e) mid-stream drop: closing a connection with live streaming sessions
//      cancels them through the owner-tagged cancel path, in process and
//      through kWorkerCancel frames to a forked fleet;
//  (f) multi-process fleet: a 2-worker fleet serves solo-bitwise-identical
//      outputs across the process boundary from one router thread, and
//      SIGKILLing a worker still yields a terminal frame for every request
//      plus a clean drain;
//  (g) soak: a bounded-ingress loop with client-side 429 retry completes
//      every request (the ASan job runs this shape for leak coverage);
//  (h) no lost wake: in process the event loop blocks without a timeout,
//      so a K=1 closed loop stalls for good if one completion's wake is
//      lost — every request must land kDone within its 10 s wait, in
//      process and through a forked 2-worker fleet.
//
// Sockets may be unavailable in a sandbox: each wire test SKIPs (loudly)
// when NetServer::start() cannot bind, leaving the codec test as the floor.
#include <dirent.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <vector>

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

// Threads of this process: the entries of /proc/self/task.
int thread_count() {
  DIR* d = ::opendir("/proc/self/task");
  if (d == nullptr) return -1;
  int n = 0;
  while (const dirent* e = ::readdir(d))
    if (e->d_name[0] != '.') ++n;
  ::closedir(d);
  return n;
}

// A joined thread may stay listed for a moment after pthread_join returns
// (the kernel clears its tid before it releases the task), so wait up to
// 5 s for the count to reach `want`.
int settle_thread_count(int want) {
  const std::int64_t t0 = now_ns();
  int n = thread_count();
  while (n != want && now_ns() - t0 < 5'000'000'000) {
    ::usleep(1'000);
    n = thread_count();
  }
  return n;
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

// The deterministic cohort recipe (test_decode.cpp): everything in one
// admission window, so batch composition — and therefore every counter and
// output bit — is a pure function of arrival order.
serve::PolicyConfig cohort_policy(int n) {
  serve::PolicyConfig pc;
  pc.kind = serve::PolicyKind::kDeadline;
  pc.min_batch = static_cast<std::size_t>(n);
  pc.max_admit = static_cast<std::size_t>(n);
  pc.slo_ns = 10'000'000'000;
  pc.max_hold_ns = 10'000'000'000;
  return pc;
}

// (a) Codec: typed roundtrips, arbitrary fragmentation, loud corruption.
void test_frame_codec() {
  using namespace acrobat::net;
  std::vector<std::uint8_t> bytes;
  const float ref[] = {1.5f, -0.25f, 3e-7f};
  encode_request(bytes, 42, 7, 0, 3, true);
  encode_done(bytes, FrameType::kDone, 42, 9, false, ref, 3);
  encode_id_pair(bytes, FrameType::kToken, 42, 4);
  encode_id_only(bytes, FrameType::kRetry, 99);
  encode_empty(bytes, FrameType::kWorkerPing);

  // Feed one byte at a time: frames must pop complete and in order.
  FrameReader rd;
  std::vector<Frame> got;
  for (std::uint8_t b : bytes) {
    rd.feed(&b, 1);
    Frame f;
    while (rd.next(f) == FrameReader::Status::kFrame) got.push_back(f);
  }
  CHECK_EQ(got.size(), 5u);
  CHECK_EQ(rd.buffered(), 0u);

  RequestFields rf;
  CHECK(parse_request(got.at(0), rf));
  CHECK_EQ(rf.id, 42u);
  CHECK_EQ(rf.input_index, 7u);
  CHECK_EQ(rf.latency_class, 3);
  CHECK(rf.stream);

  DoneFields df;
  CHECK(parse_done(got.at(1), df));
  CHECK_EQ(df.id, 42u);
  CHECK_EQ(df.tokens, 9u);
  CHECK(!df.cancelled);
  CHECK_EQ(df.n_floats, 3u);
  CHECK(std::memcmp(df.data, ref, sizeof ref) == 0);  // bitwise across the wire

  CHECK(got.at(2).type == FrameType::kToken);
  CHECK_EQ(wire::get_u32(got.at(2).payload.data() + 4), 4u);
  CHECK(got.at(3).type == FrameType::kRetry);
  CHECK_EQ(wire::get_u32(got.at(3).payload.data()), 99u);
  CHECK(got.at(4).type == FrameType::kWorkerPing);
  CHECK_EQ(got.at(4).payload.size(), 0u);

  // One recv delivering many frames: same result.
  FrameReader rd2;
  rd2.feed(bytes.data(), bytes.size());
  Frame f;
  int n = 0;
  while (rd2.next(f) == FrameReader::Status::kFrame) ++n;
  CHECK_EQ(n, 5);

  // A header announcing more than kMaxPayload is a protocol error the
  // moment it is seen — no buffering until the announced length arrives.
  std::vector<std::uint8_t> bad;
  wire::put_u32(bad, kMaxPayload + 1);
  bad.push_back(1);
  bad.push_back(0);
  wire::put_u16(bad, 0);
  FrameReader rd3;
  rd3.feed(bad.data(), bad.size());
  CHECK(rd3.next(f) == FrameReader::Status::kError);
}

// (b) Wire parity: same cohort, same bits, same hermetic counters —
// in-proc serve() vs the full socket path.
void test_wire_parity_vs_serve() {
  const models::ModelSpec& spec = models::model_by_name("Decoder");
  const models::Dataset ds = spec.build_dataset(false, 6, 23);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});
  const int n = 6;

  // Reference: the in-proc cohort.
  std::vector<serve::Request> trace;
  for (int i = 0; i < n; ++i)
    trace.push_back(serve::Request{i, static_cast<std::size_t>(i) % ds.inputs.size(), 0});
  serve::ServeOptions so;
  so.collect_outputs = true;
  so.policy = cohort_policy(n);
  const serve::ServeResult ref = serve::serve(p, ds, trace, so);

  // Wire: the same cohort through loopback TCP, streamed.
  net::NetOptions o;
  o.policy = cohort_policy(n);
  o.ds_batch = 6;
  o.ds_seed = 23;
  net::NetServer srv(&p, &ds, o);
  if (!start_or_skip(srv, "wire_parity")) return;

  net::NetClient cli;
  CHECK(cli.connect_tcp("127.0.0.1", srv.port()));
  for (int i = 0; i < n; ++i)
    CHECK(cli.send_request(static_cast<std::uint32_t>(i),
                           static_cast<std::uint32_t>(i) % ds.inputs.size()));
  std::vector<net::ClientResponse> got(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    CHECK(cli.wait(static_cast<std::uint32_t>(i), got[static_cast<std::size_t>(i)]));
    CHECK(got[static_cast<std::size_t>(i)].kind == net::ClientResponse::Kind::kDone);
  }
  cli.close();
  srv.shutdown();
  const net::NetStats& st = srv.stats();

  for (int i = 0; i < n; ++i) {
    const net::ClientResponse& r = got[static_cast<std::size_t>(i)];
    const serve::RequestRecord& rec = ref.records.at(static_cast<std::size_t>(i));
    CHECK(!r.cancelled);
    CHECK_EQ(r.tokens, static_cast<std::uint32_t>(rec.tokens));
    // Every decode token crossed the wire as its own frame, in order.
    CHECK_EQ(r.token_recv_ns.size(), static_cast<std::size_t>(rec.tokens));
    CHECK_EQ(r.output.size(), rec.output.size());
    for (std::size_t j = 0; j < rec.output.size(); ++j)
      CHECK(r.output[j] == rec.output[j]);  // bitwise, not approximate
  }

  // Hermetic counters agree across the transport: the ingress changed how
  // requests arrive, not what the engine does with them.
  CHECK_EQ(st.shards.size(), 1u);
  CHECK_EQ(st.shards.at(0).stats.kernel_launches, ref.shards.at(0).stats.kernel_launches);
  CHECK_EQ(st.shards.at(0).stats.flat_batches, ref.shards.at(0).stats.flat_batches);
  CHECK_EQ(st.shards.at(0).stats.stacked_batches, ref.shards.at(0).stats.stacked_batches);
  CHECK_EQ(st.shards.at(0).tokens, ref.tokens);
  CHECK_EQ(st.completed, static_cast<std::uint64_t>(n));
  CHECK_EQ(st.requests, static_cast<std::uint64_t>(n));
  CHECK_EQ(st.rejected_429, 0u);
  CHECK_EQ(st.errors, 0u);
  CHECK_EQ(st.conn_drops, 0u);
  CHECK_EQ(st.cancelled, 0u);
}

// (c) Backpressure: overload sheds with explicit 429s; the bounded queues
// never exceed their configured caps; every request gets one terminal frame.
void test_backpressure_429() {
  const models::ModelSpec& spec = models::model_by_name("Decoder");
  const models::Dataset ds = spec.build_dataset(false, 8, 7);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});

  net::NetOptions o;
  o.admission_capacity = 4;
  o.max_sessions = 4;
  o.launch_overhead_ns = 100'000;  // slow the shard so the burst outruns it
  o.ds_batch = 8;
  o.ds_seed = 7;
  net::NetServer srv(&p, &ds, o);
  if (!start_or_skip(srv, "backpressure_429")) return;

  const int burst = 64;
  net::NetClient cli;
  CHECK(cli.connect_tcp("127.0.0.1", srv.port()));
  for (int i = 0; i < burst; ++i)
    CHECK(cli.send_request(static_cast<std::uint32_t>(i),
                           static_cast<std::uint32_t>(i) % ds.inputs.size(),
                           0, 0, /*stream=*/false));
  int done = 0, retried = 0;
  for (int i = 0; i < burst; ++i) {
    net::ClientResponse r;
    CHECK(cli.wait(static_cast<std::uint32_t>(i), r));
    if (r.kind == net::ClientResponse::Kind::kDone) {
      ++done;
      CHECK(!r.output.empty());
    } else {
      CHECK(r.kind == net::ClientResponse::Kind::kRetry);
      ++retried;
    }
  }
  cli.close();
  srv.shutdown();
  const net::NetStats& st = srv.stats();

  CHECK(retried >= 1);  // the burst genuinely outran a 4-deep admission queue
  CHECK(done >= 1);
  CHECK_EQ(done + retried, burst);
  CHECK_EQ(st.requests, static_cast<std::uint64_t>(burst));
  CHECK_EQ(st.completed, static_cast<std::uint64_t>(done));
  CHECK_EQ(st.rejected_429, static_cast<std::uint64_t>(retried));
  CHECK_EQ(st.errors, 0u);
  // The bounded-ingress contract: high-water marks never exceed the caps,
  // and a 429 means the admission FIFO was full.
  CHECK_EQ(st.admission_peak, o.admission_capacity);
  CHECK(st.slots_peak <= o.max_sessions);
}

// (d) Slow reader: a connection that never reads is dropped once its write
// buffer bound fills; the server still drains every admitted session.
void test_slow_reader_dropped() {
  const models::ModelSpec& spec = models::model_by_name("Decoder");
  const models::Dataset ds = spec.build_dataset(false, 8, 7);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});

  net::NetOptions o;
  o.write_buffer_limit = 4096;
  o.sndbuf_bytes = 4096;  // shrink the kernel's slack so the bound is hit
  o.ds_batch = 8;
  o.ds_seed = 7;
  net::NetServer srv(&p, &ds, o);
  if (!start_or_skip(srv, "slow_reader")) return;

  // The reader is a raw socket whose receive buffer is pinned before
  // connect(), so the window it advertises stays a few KB: however the
  // server batches its frames, the socket path clogs early. Stream tokens +
  // outputs at it, then keep the server writing — a flood of small requests
  // each earns a response frame (429s once admission fills) until the
  // server's bounded write buffer trips. The drop is observable from
  // outside: the server closes with unread data queued (RST), so our sends
  // start failing.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  CHECK(fd >= 0);
  const int rcvbuf = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(srv.port()));
  CHECK(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0);
  std::vector<std::uint8_t> wire;
  const auto send_all = [&] {
    for (std::size_t off = 0; off < wire.size();) {
      const ssize_t n = ::send(fd, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
      if (n < 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  };
  for (std::uint32_t i = 0; i < 32; ++i)
    net::encode_request(wire, i, i % static_cast<std::uint32_t>(ds.inputs.size()), 0, 0,
                        /*stream=*/true);
  CHECK(send_all());
  bool send_failed = false;
  for (std::uint32_t i = 0; i < 200'000 && !send_failed; ++i) {
    wire.clear();
    net::encode_request(wire, 1000 + i, 0, 0, 0, /*stream=*/false);
    send_failed = !send_all();
  }
  ::close(fd);
  srv.shutdown();
  const net::NetStats& st = srv.stats();
  CHECK(send_failed);
  CHECK(st.slow_reader_drops >= 1);
  CHECK(st.conn_drops >= 1);
  CHECK(st.write_buf_peak <= o.write_buffer_limit + net::kMaxPayload);
}

// (e) Mid-stream connection drop cancels the live sessions it owned: in
// process through the slot's cancel tag, and in a 2-worker fleet through
// the kWorkerCancel frames the event loop sends.
void test_midstream_drop_cancels() {
  const models::ModelSpec& spec = models::model_by_name("Decoder");
  const models::Dataset ds = spec.build_dataset(false, 8, 7);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});

  for (const bool multiprocess : {false, true}) {
    net::NetOptions o;
    // A decode step is 2 launches (the cell's kLinear and the stop head), so
    // each step costs ~1 ms of simulated launch time.
    o.launch_overhead_ns = 500'000;
    o.ds_batch = 8;
    o.ds_seed = 7;
    o.multiprocess = multiprocess;
    o.shards = multiprocess ? 2 : 1;
    net::NetServer srv(multiprocess ? nullptr : &p, multiprocess ? nullptr : &ds, o);
    if (!start_or_skip(srv, multiprocess ? "midstream_drop/multiproc" : "midstream_drop"))
      continue;

    net::NetClient cli;
    CHECK(cli.connect_tcp("127.0.0.1", srv.port()));
    for (int i = 0; i < 4; ++i)
      CHECK(cli.send_request(static_cast<std::uint32_t>(i),
                             static_cast<std::uint32_t>(i) % ds.inputs.size()));
    // Vanish mid-stream: a received token proves the cohort is decoding, and
    // its longest session still has many ~1 ms steps to go.
    CHECK(cli.wait_token(0));
    cli.close();
    srv.shutdown();
    const net::NetStats& st = srv.stats();

    CHECK(st.conn_drops >= 1);
    // Every request either completed before the drop or was cancelled by
    // it; with ~1 ms steps at least one session was still mid-decode. A
    // worker's report carries no cancel count, so the fleet reads the
    // server's, which counts each kDone that says cancelled.
    CHECK(st.cancelled >= 1);
    if (!multiprocess) {
      long long shard_cancelled = 0;
      for (const serve::ShardReport& s : st.shards) shard_cancelled += s.cancelled;
      CHECK(shard_cancelled >= 1);
    }
    CHECK_EQ(st.completed, 4u);  // cancelled sessions still retire through kDone
  }
}

// (f) Multi-process fleet: bitwise parity across the process boundary, and
// a SIGKILLed worker degrades to explicit errors, not hangs.
void test_multiprocess_fleet() {
  const models::ModelSpec& spec = models::model_by_name("Decoder");
  // Workers rebuild model + dataset from this recipe; build the same one
  // here for the solo reference.
  const models::Dataset ds = spec.build_dataset(false, 6, 23);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});

  net::NetOptions o;
  o.multiprocess = true;
  o.shards = 2;
  o.ds_batch = 6;
  o.ds_seed = 23;
  net::NetServer srv(nullptr, nullptr, o);
  // One router thread: the event loop owns both workers' sockets, so start()
  // adds exactly one thread however many workers it forks.
  const int threads_before = thread_count();
  if (!start_or_skip(srv, "multiprocess_fleet")) return;
  CHECK_EQ(thread_count(), threads_before + 1);
  CHECK_EQ(srv.worker_pids().size(), 2u);

  net::NetClient cli;
  CHECK(cli.connect_tcp("127.0.0.1", srv.port()));

  // Sequential (closed-loop K=1) requests: each runs alone in its shard, so
  // the single-session == solo invariant must hold bitwise across the wire
  // AND the process boundary.
  for (int i = 0; i < 6; ++i) {
    CHECK(cli.send_request(static_cast<std::uint32_t>(i),
                           static_cast<std::uint32_t>(i) % ds.inputs.size()));
    net::ClientResponse r;
    CHECK(cli.wait(static_cast<std::uint32_t>(i), r));
    if (r.kind != net::ClientResponse::Kind::kDone) {
      CHECK(r.kind == net::ClientResponse::Kind::kDone);
      continue;
    }
    const std::vector<float> solo =
        solo_outputs(p, ds, static_cast<std::size_t>(i) % ds.inputs.size());
    CHECK_EQ(r.output.size(), solo.size());
    for (std::size_t j = 0; j < solo.size(); ++j)
      CHECK(r.output[j] == solo[j]);  // bitwise through fork+exec+UDS+TCP
    CHECK_EQ(r.token_recv_ns.size(), static_cast<std::size_t>(r.tokens));
  }

  // Kill one worker. Every subsequent request must still get a terminal
  // frame — kDone from the surviving shard or an explicit kError for any
  // request the dead shard had in flight.
  ::kill(srv.worker_pids().at(0), SIGKILL);
  int done = 0, errored = 0, retried = 0;
  for (int i = 100; i < 112; ++i) {
    CHECK(cli.send_request(static_cast<std::uint32_t>(i),
                           static_cast<std::uint32_t>(i) % ds.inputs.size()));
    net::ClientResponse r;
    CHECK(cli.wait(static_cast<std::uint32_t>(i), r));
    if (r.kind == net::ClientResponse::Kind::kDone) ++done;
    else if (r.kind == net::ClientResponse::Kind::kError) ++errored;
    else ++retried;
  }
  CHECK_EQ(done + errored + retried, 12);
  CHECK(done >= 1);  // the surviving worker kept serving
  cli.close();
  srv.shutdown();  // must drain cleanly: kWorkerDrain/kWorkerBye + waitpid
  CHECK_EQ(settle_thread_count(threads_before), threads_before);
  const net::NetStats& st = srv.stats();
  CHECK_EQ(st.worker_deaths, 1u);
  CHECK_EQ(st.shards.size(), 2u);
}

// (g) Bounded-ingress soak: small caps, client-side retry on 429 — every
// request eventually completes. The ASan CI job leans on this shape.
void test_soak_with_retry() {
  const models::ModelSpec& spec = models::model_by_name("Decoder");
  const models::Dataset ds = spec.build_dataset(false, 8, 7);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});

  net::NetOptions o;
  o.admission_capacity = 8;
  o.max_sessions = 8;
  o.ds_batch = 8;
  o.ds_seed = 7;
  net::NetServer srv(&p, &ds, o);
  if (!start_or_skip(srv, "soak_with_retry")) return;

  const int n = env_requests(64);
  net::NetClient cli;
  CHECK(cli.connect_tcp("127.0.0.1", srv.port()));
  const int window = 16;  // deliberately larger than the admission cap
  int completed = 0, next = 0, outstanding = 0;
  long long retries = 0;
  while (completed < n) {
    while (outstanding < window && next < n) {
      CHECK(cli.send_request(static_cast<std::uint32_t>(next),
                             static_cast<std::uint32_t>(next) % ds.inputs.size()));
      ++next;
      ++outstanding;
    }
    net::ClientResponse r;
    CHECK(cli.wait(static_cast<std::uint32_t>(completed), r));
    if (r.kind == net::ClientResponse::Kind::kRetry) {
      ++retries;
      CHECK(retries < 1'000'000);  // forward progress, not a 429 livelock
      CHECK(cli.send_request(r.req_id,
                             static_cast<std::uint32_t>(r.req_id) % ds.inputs.size()));
      continue;
    }
    CHECK(r.kind == net::ClientResponse::Kind::kDone);
    ++completed;
    --outstanding;
  }
  cli.close();
  srv.shutdown();
  const net::NetStats& st = srv.stats();
  CHECK_EQ(st.completed, static_cast<std::uint64_t>(n));
  CHECK(st.admission_peak <= o.admission_capacity);
  CHECK(st.slots_peak <= o.max_sessions);
  CHECK_EQ(st.conn_drops, 0u);
  std::printf("  soak: %d requests, %llu 429s retried, slots_peak=%zu\n", n,
              static_cast<unsigned long long>(st.rejected_429), st.slots_peak);
}

// (h) No lost wake: one streamed request at a time, so each completion
// reaches the client only if its wake reaches the parked event loop. In the
// fleet the loop polls the worker sockets itself, with the nearest
// supervision deadline as its timeout: each result frame must still wake it.
void test_no_lost_wake() {
  const models::ModelSpec& spec = models::model_by_name("Decoder");
  const models::Dataset ds = spec.build_dataset(false, 8, 7);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});

  const auto closed_loop = [&](bool multiprocess, int n) {
    net::NetOptions o;
    o.launch_overhead_ns = 0;
    o.multiprocess = multiprocess;
    o.shards = multiprocess ? 2 : 1;
    o.ds_batch = 8;
    o.ds_seed = 7;
    net::NetServer srv(multiprocess ? nullptr : &p, multiprocess ? nullptr : &ds, o);
    if (!start_or_skip(srv, multiprocess ? "no_lost_wake/multiproc" : "no_lost_wake")) return;
    net::NetClient cli;
    CHECK(cli.connect_tcp("127.0.0.1", srv.port()));
    int done = 0;
    for (int i = 0; i < n; ++i) {
      CHECK(cli.send_request(static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(i) % 8));
      net::ClientResponse r;
      // A lost wake stalls the loop until this budget runs out.
      const bool answered = cli.wait(static_cast<std::uint32_t>(i), r, 10'000);
      CHECK(answered);
      if (!answered) break;
      CHECK(r.kind == net::ClientResponse::Kind::kDone);
      CHECK_EQ(r.token_recv_ns.size(), static_cast<std::size_t>(r.tokens));
      ++done;
    }
    cli.close();
    srv.shutdown();
    const net::NetStats& st = srv.stats();
    CHECK_EQ(done, n);
    CHECK_EQ(st.completed, static_cast<std::uint64_t>(n));
    CHECK_EQ(st.errors, 0u);
  };
  closed_loop(false, env_requests(500));
  closed_loop(true, 64);
}

}  // namespace

int main(int argc, char** argv) {
  // Worker host: the multi-process fleet re-execs this binary.
  if (argc > 1 && std::strcmp(argv[1], "--shard-worker") == 0)
    return net::shard_worker_main(argc, argv);

  test_frame_codec();
  test_wire_parity_vs_serve();
  test_backpressure_429();
  test_slow_reader_dropped();
  test_midstream_drop_cancels();
  test_multiprocess_fleet();
  test_soak_with_retry();
  test_no_lost_wake();
  if (g_skips > 0)
    std::printf("note: %d wire test(s) skipped (no sockets in this sandbox)\n",
                g_skips);
  return acrobat::test::finish("test_net");
}
