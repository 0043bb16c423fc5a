#include "net/net.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <climits>
#include <cstdio>
#include <cstring>
#include <deque>
#include <set>
#include <thread>

#include "fault/fault.h"
#include "net/frame.h"
#include "serve/load.h"
#include "serve/spsc.h"
#include "shard_core.h"
#include "support/timer.h"

namespace acrobat::net {
namespace {

using serve::SpscQueue;
using serve::detail::relax;

// Misconfiguration aborts (serve.cpp idiom): fprintf + abort rather than an
// exception, so the fork-based death tests observe the same behavior in
// Release and Debug. Used for knobs whose silent misuse would *look* like a
// fault-tolerance bug (a liveness timeout below the ping interval reads as
// workers "dying" while healthy) — plain bad-but-safe options still fail
// start() with an error string.
[[noreturn]] void config_die(const char* what) {
  std::fprintf(stderr, "acrobat net: invalid configuration: %s\n", what);
  std::abort();
}

// Owner tag for a slot: which (connection, generation) the result belongs
// to. 0 = free. Cancellation is owner-tagged rather than a plain flag so a
// cancel aimed at a dropped connection can never hit a slot that has since
// been recycled to a new request: the shard compares cancel_owner against
// the slot's *current* pack, and generations never repeat.
std::uint64_t pack_owner(int conn, std::uint64_t gen) {
  return (gen << 16) | static_cast<std::uint64_t>(conn + 1);
}

// One admitted-but-not-completed request. Exactly one thread owns the
// other fields at any time (event loop → shard or worker proxy → event
// loop), with ownership handed over through the shard's SPSC inbox and
// completion ring; `cancel_owner` is the only concurrently-touched member.
struct Slot {
  std::uint64_t owner = 0;  // pack_owner while busy; event loop only
  std::atomic<std::uint64_t> cancel_owner{0};

  // Wire identity (event-loop-written at dispatch, read at completion).
  int conn = -1;
  std::uint64_t conn_gen = 0;
  std::uint32_t req_id = 0;
  bool stream = false;

  // The request as a shard sees it (event-loop-written). req.id is a
  // per-shard session number, stamped by the in-process shard that takes
  // the slot.
  serve::Request req;

  // Results (shard- or proxy-written before the done message).
  std::vector<float> output;
  std::uint32_t tokens = 0;
  bool cancelled = false;
};

bool slot_cancelled(const Slot& s) {
  return s.cancel_owner.load(std::memory_order_acquire) == pack_owner(s.conn, s.conn_gen);
}

// An accepted request: everything the event loop needs to fill a slot. It
// is dispatched at once when a slot is free, else it waits in the admission
// FIFO until a completion frees one.
struct AdmissionMsg {
  int conn = -1;
  std::uint64_t conn_gen = 0;
  std::uint32_t req_id = 0;
  std::uint32_t input_index = 0;
  std::uint8_t latency_class = 0;
  bool stream = false;
  std::int64_t arrival_ns = 0;
};

// Shard or worker proxy → event loop, over the shard's completion ring.
struct CompMsg {
  enum Kind : std::uint8_t { kToken, kDone, kError };
  Kind kind = kDone;
  int slot = -1;
  std::uint32_t aux = 0;  // token ordinal / ErrorCode
};

bool set_nonblocking(int fd) {
  const int fl = ::fcntl(fd, F_GETFL, 0);
  return fl >= 0 && ::fcntl(fd, F_SETFL, fl | O_NONBLOCK) == 0;
}

// Lets one consumer thread block in poll() until a producer hands it work
// through a lock-free ring, with a syscall only when the consumer sleeps.
// The event loop is woken by shard completions; each worker proxy by inbox
// pushes from the event loop.
//
// Consumer: park(), re-check every ring it reads and pass poll() a zero
// timeout if one holds work, poll() with `fd` in the set, then unpark().
// Producer: push to the ring, then notify().
//
// No push is lost. park() stores `parked` and then issues a seq_cst fence;
// notify() issues one after the push and then reads `parked`. The two
// fences fall in the single total order one way or the other. If the
// producer's comes first, the consumer's re-check sees the push. If the
// consumer's comes first, the producer reads parked == true (or a later
// value: another producer's clear, whose write wakes the consumer, or a
// later unpark, which precedes the next park's re-check), clears it and
// writes the eventfd, so poll() returns. Only the producer that clears the
// flag writes, so a burst costs one write. Rare events whose state the
// consumer does not re-check (a shard exiting, shutdown, an inbox closing)
// call signal(), which writes unconditionally.
struct Wake {
  int fd = -1;
  std::atomic<bool> parked{false};

  Wake() = default;
  Wake(const Wake&) = delete;
  Wake& operator=(const Wake&) = delete;
  ~Wake() { close(); }

  bool open() {
    fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    return fd >= 0;
  }
  void close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  void park() {
    parked.store(true, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }
  // `revents` is the eventfd's entry of the poll() set.
  void unpark(short revents) {
    parked.store(false, std::memory_order_relaxed);
    if (revents == 0) return;
    std::uint64_t n = 0;
    const ssize_t r = ::read(fd, &n, sizeof n);  // resets the counter
    (void)r;
  }
  void notify() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (parked.load(std::memory_order_relaxed) &&
        parked.exchange(false, std::memory_order_relaxed))
      signal();
  }
  void signal() {
    const std::uint64_t one = 1;
    const ssize_t r = ::write(fd, &one, sizeof one);
    (void)r;
  }
};

// The admission FIFO: requests waiting for a free slot, oldest first, in
// storage fixed at start(). Event loop only.
struct Fifo {
  std::vector<AdmissionMsg> buf;
  std::size_t head = 0, len = 0;

  bool full() const { return len == buf.size(); }
  void push(const AdmissionMsg& m) { buf[(head + len++) % buf.size()] = m; }
  AdmissionMsg pop() {
    const AdmissionMsg m = buf[head];
    head = (head + 1) % buf.size();
    --len;
    return m;
  }
};

}  // namespace

// ------------------------------------------------------------- NetServer

struct NetServer::Impl {
  NetOptions opts;
  const harness::Prepared* prep = nullptr;
  const models::Dataset* ds = nullptr;
  std::string err;

  std::int64_t epoch = 0;
  int tcp_listen = -1;
  int uds_listen = -1;
  int bound_port = -1;
  std::string uds_path;
  std::size_t n_inputs = 0;

  std::unique_ptr<Slot[]> slots;
  std::size_t n_slots = 0;

  // Per-shard channel: the event loop feeds the inbox (slot ids); the shard
  // thread (or the worker's proxy thread) feeds `out` back to the event
  // loop. The out ring is sized so that even a full slot table streaming
  // tokens rarely fills it; shard-side pushes spin briefly if it does —
  // server-internal flow control against the event loop, never against a
  // client (slow clients are absorbed per-connection, see write buffers).
  struct ShardCh {
    ShardCh(std::size_t sessions, int idx)
        : index(idx), inbox(sessions), out(sessions * 8 + 1024) {}
    int index;
    SpscQueue<int> inbox;
    SpscQueue<CompMsg> out;
    std::atomic<int> outstanding{0};
    std::atomic<bool> alive{true};
    serve::ShardReport report;
    std::unique_ptr<trace::Tracer> tracer;
    // Multiproc: the worker's pid (proxy-written, read by worker_pids() on
    // the caller's thread), the router end of the socketpair, and the wake
    // the event loop signals after an inbox push or close.
    std::atomic<pid_t> pid{-1};
    int fd = -1;
    Wake wake;
  };
  std::vector<std::unique_ptr<ShardCh>> shards;

  // Event-loop-owned admission state, sized in start(): the free slot ids
  // and the requests waiting for one.
  std::vector<int> free_slots;
  Fifo waiting;
  Wake loop_wake;  // shard completions, shard exits and shutdown wake the loop

  std::atomic<bool> draining{false};
  std::atomic<int> shards_done{0};
  std::atomic<std::uint64_t> worker_deaths{0};

  // Fault tolerance (DESIGN.md §11). `degraded` is written by the event loop
  // and read by in-proc shard cores (ShardIo::degraded) and the worker proxies
  // (which forward it as kWorkerMode frames). The respawn counters are
  // written by proxy threads, aggregated into stats at shutdown.
  std::atomic<bool> degraded{false};
  std::atomic<std::uint64_t> respawns{0};
  std::atomic<std::uint64_t> respawns_exhausted{0};
  std::size_t degrade_high = 0, degrade_low = 0;  // resolved in start()
  fault::Injector inject;
  std::string fault_spec;  // resolved spec, forwarded to workers via argv

  std::thread ev_thread;
  std::vector<std::thread> shard_threads;

  std::unique_ptr<trace::Tracer> net_tracer;
  NetStats stats;
  bool started = false;
  bool finished = false;

  bool fail(const std::string& what) {
    err = what;
    return false;
  }

  // Shard side of the completion ring (in-process shard or worker proxy).
  void send_comp(ShardCh& ch, const CompMsg& m) {
    while (!ch.out.push(m)) relax();
    loop_wake.notify();
  }
  void shard_exited() {
    shards_done.fetch_add(1, std::memory_order_release);
    loop_wake.signal();
  }

  bool setup_listeners();
  bool spawn_worker(ShardCh& ch);
  void shard_main_inproc(ShardCh& ch);
  void proxy_main(ShardCh& ch);
  void event_loop();
};

bool NetServer::Impl::setup_listeners() {
  if (opts.port >= 0) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(opts.port));
      if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
          ::listen(fd, 128) == 0 && set_nonblocking(fd)) {
        sockaddr_in bound{};
        socklen_t len = sizeof bound;
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
        bound_port = ntohs(bound.sin_port);
        tcp_listen = fd;
      } else {
        ::close(fd);
      }
    }
  }
  if (!opts.uds_path.empty() && opts.uds_path.size() < sizeof(sockaddr_un{}.sun_path)) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd >= 0) {
      ::unlink(opts.uds_path.c_str());
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, opts.uds_path.c_str(), sizeof addr.sun_path - 1);
      if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
          ::listen(fd, 128) == 0 && set_nonblocking(fd)) {
        uds_listen = fd;
        uds_path = opts.uds_path;
      } else {
        ::close(fd);
      }
    }
  }
  return tcp_listen >= 0 || uds_listen >= 0;
}

bool NetServer::Impl::spawn_worker(ShardCh& ch) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return false;
  ::fcntl(sv[0], F_SETFD, FD_CLOEXEC);  // router end must not leak into execs

  const std::string cmd = opts.worker_cmd.empty() ? "/proc/self/exe" : opts.worker_cmd;
  std::vector<std::string> args = {
      cmd, "--shard-worker",
      "--fd", std::to_string(sv[1]),
      "--shard", std::to_string(ch.index),
      "--model", opts.model,
      "--large", opts.large ? "1" : "0",
      "--ds-batch", std::to_string(opts.ds_batch),
      "--ds-seed", std::to_string(opts.ds_seed),
      "--launch-ns", std::to_string(opts.launch_overhead_ns),
      "--recycle", opts.recycle ? "1" : "0",
      "--pol-kind", std::to_string(static_cast<int>(opts.policy.kind)),
      "--pol-max-batch", std::to_string(opts.policy.max_batch),
      "--pol-min-batch", std::to_string(opts.policy.min_batch),
      "--pol-max-admit", std::to_string(opts.policy.max_admit),
      "--pol-decode-admit", std::to_string(opts.policy.decode_admit),
      "--pol-slo-ns", std::to_string(opts.policy.slo_ns),
      "--pol-hold-ns", std::to_string(opts.policy.max_hold_ns),
  };
  if (!fault_spec.empty()) {
    args.push_back("--fault");
    args.push_back(fault_spec);
  }
  // The argv array is fully materialized *before* fork: respawns fork from a
  // proxy thread of a multithreaded process, where the child may only run
  // async-signal-safe code until execv.
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    return false;
  }
  if (pid == 0) {
    ::execv(cmd.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(sv[1]);
  ch.pid.store(pid);
  ch.fd = sv[0];
  return true;
}

// In-process shard thread: the shard core over this shard's inbox of slot
// ids, answering through its completion ring to the event loop.
void NetServer::Impl::shard_main_inproc(ShardCh& ch) {
  struct Io final : serve::detail::ShardIo {
    Io(Impl& im, ShardCh& ch) : im(im), ch(ch) {}
    Impl& im;
    ShardCh& ch;
    int next_session = 1;

    Slot& slot(int si) { return im.slots[static_cast<std::size_t>(si)]; }
    void send(const CompMsg& m) { im.send_comp(ch, m); }
    void poll(std::deque<int>& arrived) override {
      // Slot ids recycle, so each session gets a fresh number to name it
      // in trace events.
      int si;
      while (ch.inbox.pop(si)) {
        slot(si).req.id = next_session++;
        arrived.push_back(si);
      }
    }
    bool open() override { return !(ch.inbox.closed() && ch.inbox.empty_hint()); }
    void idle_wait() override { relax(); }
    const serve::Request& request(int si) override { return slot(si).req; }
    bool cancelled(int si) override { return slot_cancelled(slot(si)); }
    bool degraded() override { return im.degraded.load(std::memory_order_relaxed); }
    void token(int si, std::uint32_t ordinal) override {
      if (slot(si).stream) send(CompMsg{CompMsg::kToken, si, ordinal});
    }
    void finish(int si, serve::RequestRecord& rec) override {
      Slot& s = slot(si);
      s.output = std::move(rec.output);
      s.tokens = static_cast<std::uint32_t>(rec.tokens);
      s.cancelled = rec.cancelled;
      ch.outstanding.fetch_sub(1, std::memory_order_relaxed);
      send(CompMsg{CompMsg::kDone, si, 0});
    }
  } io(*this, ch);

  const serve::detail::ShardModule mod = serve::detail::solo_module(*prep, *ds);
  serve::detail::CoreConfig cc;
  cc.module = &mod;
  cc.make_policy = [this] { return serve::make_policy(opts.policy); };
  cc.launch_overhead_ns = opts.launch_overhead_ns;
  cc.recycle = opts.recycle;
  cc.shard_index = ch.index;
  cc.epoch_ns = epoch;
  cc.tracer = ch.tracer.get();
  serve::detail::run_shard(cc, io, ch.report);
  shard_exited();
}

// Router-side thread for one worker process: forwards requests and cancels
// to the worker as frames, translates its reply frames into CompMsgs, runs
// liveness (ping/pong + EOF), and drains it on shutdown. A dead worker
// turns every in-flight and still-arriving slot into a kError completion —
// clients always get a terminal frame.
//
// Supervision (ISSUE 10): with opts.supervise, a dead worker is re-forked
// under the same recipe after a capped-exponential backoff, within a
// bounded per-shard respawn budget. The shard stays routed-around
// (alive = false) while the respawn is pending, so nothing here changes the
// failure semantics clients observe — recovery only restores capacity. One
// completed request resets the backoff exponent; a crash-looping recipe
// walks the backoff up until the budget is gone, then the shard stays dead.
void NetServer::Impl::proxy_main(ShardCh& ch) {
  FrameReader rd;
  std::vector<std::uint8_t> wire;
  std::set<int> inflight, cancel_sent;
  bool drain_sent = false, bye = false;
  std::int64_t last_ping = now_ns(), last_heard = now_ns();

  int respawns_left = opts.supervise ? opts.respawn_budget : 0;
  int consecutive_failures = 0;   // deaths since the last completed request
  std::int64_t respawn_at = -1;   // -1 = no respawn pending
  bool exhausted_counted = false;
  bool mode_sent = false;  // degraded bit last forwarded (fresh worker = normal)

  const auto push_out = [&](const CompMsg& m) { send_comp(ch, m); };
  const auto schedule_respawn = [&] {
    if (!opts.supervise) return;
    if (respawns_left > 0) {
      ++consecutive_failures;
      respawn_at = now_ns() + respawn_delay_ns(consecutive_failures - 1,
                                               opts.respawn_backoff_ns,
                                               opts.respawn_backoff_cap_ns);
    } else if (!exhausted_counted) {
      respawns_exhausted.fetch_add(1, std::memory_order_relaxed);
      exhausted_counted = true;
    }
  };
  const auto mark_dead = [&](bool unexpected) {
    if (!ch.alive.load(std::memory_order_relaxed)) return;
    ch.alive.store(false, std::memory_order_release);
    if (unexpected) worker_deaths.fetch_add(1, std::memory_order_relaxed);
    for (const int si : inflight) {
      ch.outstanding.fetch_sub(1, std::memory_order_relaxed);
      push_out(CompMsg{CompMsg::kError, si,
                       static_cast<std::uint32_t>(ErrorCode::kWorkerDied)});
    }
    inflight.clear();
    cancel_sent.clear();
    if (ch.fd >= 0) {
      ::close(ch.fd);
      ch.fd = -1;
    }
    // Reap immediately (SIGKILL is belt-and-braces for the wedged case —
    // EOF deaths are already zombies) so a respawn never stacks zombies.
    if (const pid_t pid = ch.pid.load(); pid > 0) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
      ch.pid.store(-1);
    }
    if (unexpected) schedule_respawn();
  };
  const auto wsend = [&](const std::vector<std::uint8_t>& b) {
    if (ch.fd < 0) return false;
    std::size_t off = 0;
    while (off < b.size()) {
      std::size_t chunk = b.size() - off;
      ACROBAT_FAULT(chunk = inject.clamp_write(chunk));
      const ssize_t n = ::send(ch.fd, b.data() + off, chunk, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        mark_dead(true);
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  };
  const auto handle_frame = [&](const Frame& f) {
    switch (f.type) {
      case FrameType::kWorkerToken: {
        if (f.payload.size() < 8) break;
        const int si = static_cast<int>(wire::get_u32(f.payload.data()));
        push_out(CompMsg{CompMsg::kToken, si, wire::get_u32(f.payload.data() + 4)});
        break;
      }
      case FrameType::kWorkerDone: {
        DoneFields df;
        if (!parse_done(f, df)) break;
        const int si = static_cast<int>(df.id);
        Slot& s = slots[static_cast<std::size_t>(si)];
        s.output.assign(df.data, df.data + df.n_floats);
        s.tokens = df.tokens;
        s.cancelled = df.cancelled;
        inflight.erase(si);
        cancel_sent.erase(si);
        ch.outstanding.fetch_sub(1, std::memory_order_relaxed);
        consecutive_failures = 0;  // served work: not a crash loop
        push_out(CompMsg{CompMsg::kDone, si, 0});
        break;
      }
      case FrameType::kWorkerBye: {
        if (f.payload.size() >= 12) {
          ch.report.requests = static_cast<int>(wire::get_u32(f.payload.data()));
          ch.report.tokens = static_cast<long long>(wire::get_u64(f.payload.data() + 4));
        }
        bye = true;
        break;
      }
      case FrameType::kWorkerPong:
      default:
        break;  // last_heard already updated on receipt
    }
  };

  for (;;) {
    // A pending respawn fires once its backoff elapses — unless the server
    // is already draining this shard (inbox closed and empty), in which
    // case restoring capacity is pointless and the drain wins.
    if (respawn_at >= 0) {
      if (ch.inbox.closed() && ch.inbox.empty_hint()) {
        respawn_at = -1;
      } else if (now_ns() >= respawn_at) {
        respawn_at = -1;
        --respawns_left;
        if (spawn_worker(ch)) {
          rd.reset();
          drain_sent = false;
          bye = false;
          mode_sent = false;
          last_ping = last_heard = now_ns();
          respawns.fetch_add(1, std::memory_order_relaxed);
          ch.alive.store(true, std::memory_order_release);
        } else {
          schedule_respawn();  // fork/socketpair failed: counts as a failure
        }
      }
    }
    int si;
    while (ch.inbox.pop(si)) {
      if (!ch.alive.load(std::memory_order_relaxed)) {
        ch.outstanding.fetch_sub(1, std::memory_order_relaxed);
        push_out(CompMsg{CompMsg::kError, si,
                         static_cast<std::uint32_t>(ErrorCode::kWorkerDied)});
        continue;
      }
      const Slot& s = slots[static_cast<std::size_t>(si)];
      wire.clear();
      std::vector<std::uint8_t> p;
      wire::put_u32(p, static_cast<std::uint32_t>(si));
      wire::put_u32(p, static_cast<std::uint32_t>(s.req.input_index));
      wire::put_u16(p, 0);
      p.push_back(static_cast<std::uint8_t>(s.req.latency_class));
      p.push_back(0);
      encode_frame(wire, FrameType::kWorkerReq, p.data(), p.size(),
                   s.stream ? kFlagStream : 0);
      if (wsend(wire)) {
        inflight.insert(si);
        // kill_worker fault: SIGKILL our own worker right after forwarding
        // the planned request — the EOF path then runs the exact production
        // death/respawn machinery, nothing test-only.
        ACROBAT_FAULT(if (const pid_t pid = ch.pid.load();
                          inject.fire_kill(ch.index) && pid > 0)
                          ::kill(pid, SIGKILL));
      } else {
        ch.outstanding.fetch_sub(1, std::memory_order_relaxed);
        push_out(CompMsg{CompMsg::kError, si,
                         static_cast<std::uint32_t>(ErrorCode::kWorkerDied)});
      }
    }

    // Degraded-mode propagation: workers cannot see the router's admission
    // queue, so the event loop's transitions travel as kWorkerMode frames
    // (idempotent; resent from scratch to a respawned worker).
    if (ch.alive.load(std::memory_order_relaxed) && !drain_sent) {
      const bool degr = degraded.load(std::memory_order_relaxed);
      if (degr != mode_sent) {
        wire.clear();
        encode_frame(wire, FrameType::kWorkerMode, nullptr, 0, 0, degr ? 1 : 0);
        if (wsend(wire)) mode_sent = degr;
      }
    }

    if (ch.alive.load(std::memory_order_relaxed)) {
      for (const int s2 : inflight) {
        if (cancel_sent.count(s2) != 0) continue;
        const Slot& s = slots[static_cast<std::size_t>(s2)];
        if (!slot_cancelled(s)) continue;
        wire.clear();
        encode_id_only(wire, FrameType::kWorkerCancel, static_cast<std::uint32_t>(s2));
        if (!wsend(wire)) break;
        cancel_sent.insert(s2);
      }
    }

    if (ch.alive.load(std::memory_order_relaxed) && !drain_sent && inflight.empty() &&
        ch.inbox.closed() && ch.inbox.empty_hint()) {
      wire.clear();
      encode_empty(wire, FrameType::kWorkerDrain);
      wsend(wire);
      drain_sent = true;
    }

    const std::int64_t tnow = now_ns();
    if (ch.alive.load(std::memory_order_relaxed) && !drain_sent &&
        tnow - last_ping > opts.ping_interval_ns) {
      wire.clear();
      encode_empty(wire, FrameType::kWorkerPing);
      wsend(wire);
      last_ping = tnow;
    }
    if (ch.alive.load(std::memory_order_relaxed) && !inflight.empty() &&
        tnow - last_heard > opts.liveness_timeout_ns) {
      // Unresponsive with work owed (the wedge failure mode): declare dead.
      // mark_dead delivers the SIGKILL and reaps.
      mark_dead(true);
    }

    // Block for at most the 1 ms supervision tick (pings, liveness, respawn
    // backoff, cancel scans, degraded forwarding), or until the worker
    // writes or the event loop pushes to or closes the inbox. A dead
    // worker's fd is -1, which poll() skips.
    ch.wake.park();
    pollfd pfd[2] = {{ch.fd, POLLIN, 0}, {ch.wake.fd, POLLIN, 0}};
    ::poll(pfd, 2, ch.inbox.empty_hint() ? 1 : 0);
    ch.wake.unpark(pfd[1].revents);
    if (ch.alive.load(std::memory_order_relaxed)) {
      std::uint8_t buf[16384];
      for (;;) {
        const ssize_t n = ::recv(ch.fd, buf, sizeof buf, MSG_DONTWAIT);
        if (n > 0) {
          last_heard = now_ns();
          rd.feed(buf, static_cast<std::size_t>(n));
          Frame f;
          while (rd.next(f) == FrameReader::Status::kFrame) handle_frame(f);
          continue;
        }
        if (n == 0) {
          if (drain_sent && bye) {  // clean exit after drain handshake
            ::close(ch.fd);
            ch.fd = -1;
          } else {
            mark_dead(true);
          }
          break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        mark_dead(true);
        break;
      }
    }

    const bool worker_finished =
        (drain_sent && (bye || !ch.alive.load(std::memory_order_relaxed))) ||
        (!ch.alive.load(std::memory_order_relaxed) && ch.inbox.closed() &&
         ch.inbox.empty_hint());
    if (worker_finished) {
      if (ch.fd >= 0) {
        ::close(ch.fd);
        ch.fd = -1;
      }
      // Reap the child: grace for a clean exit, then force.
      if (const pid_t pid = ch.pid.load(); pid > 0) {
        int status = 0;
        const std::int64_t deadline = now_ns() + 2'000'000'000;
        for (;;) {
          const pid_t r = ::waitpid(pid, &status, WNOHANG);
          if (r == pid || r < 0) break;
          if (now_ns() > deadline) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &status, 0);
            break;
          }
          relax();
        }
        ch.pid.store(-1);
      }
      break;
    }
  }
  shard_exited();
}

void NetServer::Impl::event_loop() {
  struct Conn {
    int fd = -1;
    std::uint64_t gen = 1;
    bool open = false;
    bool dirty = false;  // frames appended this pass; flushed before the loop blocks
    FrameReader rd;
    std::vector<std::uint8_t> wbuf;
    std::size_t woff = 0;
    int live = 0;  // requests admitted for this conn, terminal frame pending
  };
  std::vector<Conn> conns(static_cast<std::size_t>(opts.max_connections));
  std::vector<int> dirty;
  int open_count = 0;
  trace::Tracer* const tr = net_tracer.get();
  bool listeners_open = true;
  bool inboxes_closed = false;
  std::int64_t flush_deadline = -1;
  std::vector<std::uint8_t> scratch;
  const int nshards = static_cast<int>(shards.size());

  const auto now_rel = [&] { return now_ns() - epoch; };
  const auto conn_ok = [&](int ci, std::uint64_t gen) {
    return ci >= 0 && conns[static_cast<std::size_t>(ci)].open &&
           conns[static_cast<std::size_t>(ci)].gen == gen;
  };

  const auto drop_conn = [&](int ci, bool slow) {
    Conn& c = conns[static_cast<std::size_t>(ci)];
    if (!c.open) return;
    const bool pending = c.live > 0 || c.woff < c.wbuf.size();
    ::close(c.fd);
    c.fd = -1;
    c.open = false;
    c.wbuf.clear();
    c.woff = 0;
    c.rd = FrameReader();
    if (pending) {
      ++stats.conn_drops;
      if (slow) ++stats.slow_reader_drops;
      ACROBAT_TRACE(tr, tr->instant(trace::EventKind::kNetConnDrop, ci, slow ? 1 : 0));
      // Cancel every live session owned by this (conn, gen). Owner-tagged:
      // a slot recycled to a newer generation can never match. Requests of
      // this connection still in the FIFO are skipped when they reach its
      // head (dispatch checks the generation).
      const std::uint64_t target = pack_owner(ci, c.gen);
      for (std::size_t i = 0; i < n_slots; ++i)
        if (slots[i].owner == target)
          slots[i].cancel_owner.store(target, std::memory_order_release);
    }
    ++c.gen;
    c.live = 0;
    --open_count;
  };

  const auto try_flush = [&](int ci) {
    Conn& c = conns[static_cast<std::size_t>(ci)];
    while (c.woff < c.wbuf.size()) {
      const ssize_t n = ::send(c.fd, c.wbuf.data() + c.woff, c.wbuf.size() - c.woff,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        c.woff += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      drop_conn(ci, false);
      return;
    }
    if (c.woff == c.wbuf.size()) {
      c.wbuf.clear();
      c.woff = 0;
    } else if (c.woff > (1u << 16)) {
      c.wbuf.erase(c.wbuf.begin(), c.wbuf.begin() + static_cast<std::ptrdiff_t>(c.woff));
      c.woff = 0;
    }
  };

  // Appends a frame; the pass's one send per connection happens before the
  // loop next blocks.
  const auto send_to = [&](int ci, const std::vector<std::uint8_t>& bytes) {
    Conn& c = conns[static_cast<std::size_t>(ci)];
    if (!c.open) return;
    c.wbuf.insert(c.wbuf.end(), bytes.begin(), bytes.end());
    stats.write_buf_peak = std::max(stats.write_buf_peak, c.wbuf.size() - c.woff);
    if (c.wbuf.size() - c.woff > opts.write_buffer_limit) {
      // The bound is on what the socket refuses, not on one pass's frames:
      // offer them first. A connection still over it is a slow reader whose
      // socket stopped draining — shed it; the shard hot path never waits.
      try_flush(ci);
      if (!c.open) return;
      if (c.wbuf.size() - c.woff > opts.write_buffer_limit) {
        drop_conn(ci, true);
        return;
      }
    }
    if (!c.dirty) {
      c.dirty = true;
      dirty.push_back(ci);
    }
  };

  // Gives a request a slot on the least-loaded live shard. Needs a free
  // slot. With no shard alive it answers kError(kUnavailable) and the slot
  // stays free.
  const auto dispatch = [&](const AdmissionMsg& m) {
    if (!conn_ok(m.conn, m.conn_gen)) return;  // dropped while it waited
    int target = -1, best = INT_MAX;
    for (const auto& ch : shards) {
      if (!ch->alive.load(std::memory_order_acquire)) continue;
      const int load = ch->outstanding.load(std::memory_order_relaxed);
      if (load < best) {
        best = load;
        target = ch->index;
      }
    }
    if (target < 0) {
      ++stats.errors;
      scratch.clear();
      encode_id_pair(scratch, FrameType::kError, m.req_id,
                     static_cast<std::uint32_t>(ErrorCode::kUnavailable));
      send_to(m.conn, scratch);
      if (conns[static_cast<std::size_t>(m.conn)].open)
        --conns[static_cast<std::size_t>(m.conn)].live;  // send_to may have dropped it
      return;
    }
    const int si = free_slots.back();
    free_slots.pop_back();
    stats.slots_peak = std::max(stats.slots_peak, n_slots - free_slots.size());
    Slot& s = slots[static_cast<std::size_t>(si)];
    s.conn = m.conn;
    s.conn_gen = m.conn_gen;
    s.req_id = m.req_id;
    s.stream = m.stream;
    s.req.input_index = m.input_index;
    s.req.latency_class = static_cast<serve::LatencyClass>(m.latency_class);
    s.req.arrival_ns = m.arrival_ns;
    s.owner = pack_owner(m.conn, m.conn_gen);
    ShardCh& ch = *shards[static_cast<std::size_t>(target)];
    ch.outstanding.fetch_add(1, std::memory_order_relaxed);
    const bool pushed = ch.inbox.push(si);
    assert(pushed && "inbox sized for the whole slot table");
    (void)pushed;
    ch.wake.notify();
  };

  const auto handle_comp = [&](const CompMsg& m) {
    Slot& s = slots[static_cast<std::size_t>(m.slot)];
    const int ci = s.conn;
    const bool ok = conn_ok(ci, s.conn_gen);
    scratch.clear();
    switch (m.kind) {
      case CompMsg::kToken:
        if (ok) {
          encode_id_pair(scratch, FrameType::kToken, s.req_id, m.aux);
          send_to(ci, scratch);
          ++stats.tokens_streamed;
        }
        return;  // non-terminal: slot stays busy
      case CompMsg::kDone:
        ++stats.completed;
        if (s.cancelled) ++stats.cancelled;
        if (ok) {
          encode_done(scratch, FrameType::kDone, s.req_id, s.tokens, s.cancelled,
                      s.output.data(), s.output.size());
          send_to(ci, scratch);
        }
        break;
      case CompMsg::kError:
        ++stats.errors;
        if (ok) {
          encode_id_pair(scratch, FrameType::kError, s.req_id, m.aux);
          send_to(ci, scratch);
        }
        break;
    }
    if (ok && conns[static_cast<std::size_t>(ci)].open)
      --conns[static_cast<std::size_t>(ci)].live;  // send_to may have dropped it
    // Free the slot; it goes straight to the oldest waiting request.
    s.owner = 0;
    s.output.clear();
    s.tokens = 0;
    s.cancelled = false;
    free_slots.push_back(m.slot);
    while (!free_slots.empty() && waiting.len > 0) dispatch(waiting.pop());
  };

  const auto pump = [&] {
    CompMsg m;
    for (const auto& ch : shards)
      while (ch->out.pop(m)) handle_comp(m);
  };

  // Degraded-mode hysteresis (ISSUE 10): enter at the high watermark, exit
  // at the low one, on the admission FIFO's occupancy. Evaluated by the
  // event loop only — single writer to the Impl::degraded atomic that
  // shards and worker proxies read.
  bool degraded_mode = false;
  const std::uint16_t want_auth =
      opts.auth_token.empty() ? 0 : auth_token16(opts.auth_token);
  const auto update_degraded = [&] {
    const std::size_t occ = waiting.len;
    if (!degraded_mode && occ >= degrade_high) {
      degraded_mode = true;
      degraded.store(true, std::memory_order_relaxed);
      ++stats.degraded_entries;
      ACROBAT_TRACE(tr, tr->instant(trace::EventKind::kNetDegrade, 1,
                                    static_cast<int>(occ)));
    } else if (degraded_mode && occ <= degrade_low) {
      degraded_mode = false;
      degraded.store(false, std::memory_order_relaxed);
      ++stats.degraded_exits;
      ACROBAT_TRACE(tr, tr->instant(trace::EventKind::kNetDegrade, 0,
                                    static_cast<int>(occ)));
    }
  };

  const auto handle_request = [&](int ci, const Frame& f) {
    RequestFields rf;
    if (!parse_request(f, rf)) {
      drop_conn(ci, false);
      return;
    }
    ++stats.requests;
    scratch.clear();
    // Authn precedes everything that costs admission space: a client
    // without the shared token cannot even occupy a queue slot.
    if (want_auth != 0 && rf.auth != want_auth) {
      ++stats.auth_rejects;
      ++stats.errors;
      encode_id_pair(scratch, FrameType::kError, rf.id,
                     static_cast<std::uint32_t>(ErrorCode::kUnauthorized));
      send_to(ci, scratch);
      return;
    }
    if (rf.model_id != 0 || rf.input_index >= n_inputs) {
      ++stats.errors;
      encode_id_pair(scratch, FrameType::kError, rf.id,
                     static_cast<std::uint32_t>(ErrorCode::kBadRequest));
      send_to(ci, scratch);
      return;
    }
    // Per-connection fairness cap: one connection's admitted-but-unfinished
    // requests cannot fill the shared queue. kRetry, like any other shed —
    // the client backs off; others get the capacity.
    if (opts.max_inflight_per_conn > 0 &&
        conns[static_cast<std::size_t>(ci)].live >= opts.max_inflight_per_conn) {
      ++stats.fairness_rejects;
      encode_id_only(scratch, FrameType::kRetry, rf.id);
      send_to(ci, scratch);
      return;
    }
    // Degraded mode sheds best-effort-class work at the door: the capacity
    // that remains under overload goes to interactive/batch classes.
    if (degraded_mode &&
        rf.latency_class == static_cast<std::uint8_t>(serve::LatencyClass::kBestEffort)) {
      ++stats.degraded_sheds;
      encode_id_only(scratch, FrameType::kRetry, rf.id);
      send_to(ci, scratch);
      return;
    }
    // The backpressure contract: a request that finds every slot busy waits
    // in the admission FIFO; a full FIFO (or a draining server) answers 429.
    if (draining.load(std::memory_order_relaxed) ||
        (free_slots.empty() && waiting.full())) {
      ++stats.rejected_429;
      ACROBAT_TRACE(tr, tr->instant(trace::EventKind::kNetReject, ci,
                                    static_cast<int>(rf.id)));
      encode_id_only(scratch, FrameType::kRetry, rf.id);
      send_to(ci, scratch);
      return;
    }
    Conn& c = conns[static_cast<std::size_t>(ci)];
    AdmissionMsg m;
    m.conn = ci;
    m.conn_gen = c.gen;
    m.req_id = rf.id;
    m.input_index = rf.input_index;
    m.latency_class = rf.latency_class;
    m.stream = rf.stream;
    m.arrival_ns = now_rel();
    ++c.live;
    if (!free_slots.empty()) {  // then nothing waits: a freed slot takes the FIFO head
      dispatch(m);
      return;
    }
    waiting.push(m);
    stats.admission_peak = std::max(stats.admission_peak, waiting.len);
    update_degraded();  // entering on the admit edge catches the high watermark
  };

  const auto read_conn = [&](int ci) {
    Conn& c = conns[static_cast<std::size_t>(ci)];
    std::uint8_t buf[16384];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) {
        c.rd.feed(buf, static_cast<std::size_t>(n));
        Frame f;
        for (;;) {
          const FrameReader::Status st = c.rd.next(f);
          if (st == FrameReader::Status::kNeedMore) break;
          if (st == FrameReader::Status::kError) {
            drop_conn(ci, false);
            return;
          }
          ++stats.frames_in;
          if (f.type == FrameType::kRequest) handle_request(ci, f);
          if (!c.open) return;  // handler may have dropped the conn
        }
        continue;
      }
      if (n == 0) {
        drop_conn(ci, false);  // graceful iff no work owed (no counters then)
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      drop_conn(ci, false);
      return;
    }
  };

  const auto do_accept = [&](int lfd, bool tcp) {
    for (;;) {
      const int fd = ::accept(lfd, nullptr, nullptr);
      if (fd < 0) return;
      if (open_count >= opts.max_connections) {
        ::close(fd);  // admission for *connections*: beyond the cap, refuse
        continue;
      }
      if (!set_nonblocking(fd)) {
        ::close(fd);
        continue;
      }
      if (tcp) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      }
      if (opts.sndbuf_bytes > 0)
        ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opts.sndbuf_bytes,
                     sizeof opts.sndbuf_bytes);
      int ci = -1;
      for (std::size_t i = 0; i < conns.size(); ++i)
        if (!conns[i].open) {
          ci = static_cast<int>(i);
          break;
        }
      assert(ci >= 0);
      Conn& c = conns[static_cast<std::size_t>(ci)];
      c.fd = fd;
      c.open = true;
      c.rd = FrameReader();
      c.wbuf.clear();
      c.woff = 0;
      c.live = 0;
      ++open_count;
      ++stats.connections;
      ACROBAT_TRACE(tr, tr->instant(trace::EventKind::kNetAccept, ci, open_count));
    }
  };

  // One pass: completions, admission and drain bookkeeping, one send per
  // connection with new frames, then block until a socket is ready or a
  // shard signals (Wake). No timeout but the drain's flush deadline.
  std::vector<pollfd> pfds;
  std::vector<int> pidx;
  for (;;) {
    const bool drain = draining.load(std::memory_order_acquire);
    if (drain && listeners_open) {
      if (tcp_listen >= 0) ::close(tcp_listen);
      if (uds_listen >= 0) ::close(uds_listen);
      tcp_listen = uds_listen = -1;
      listeners_open = false;
    }
    // Read before pump(): a shard's last completions precede its count.
    const int done = shards_done.load(std::memory_order_acquire);
    pump();
    update_degraded();  // exit path: occupancy falls as completions free slots
    if (drain && !inboxes_closed && waiting.len == 0 && free_slots.size() == n_slots) {
      for (const auto& ch : shards) {
        ch->inbox.close();
        if (opts.multiprocess) ch->wake.signal();
      }
      inboxes_closed = true;
    }

    for (const int ci : dirty) {
      conns[static_cast<std::size_t>(ci)].dirty = false;
      if (conns[static_cast<std::size_t>(ci)].open) try_flush(ci);
    }
    dirty.clear();

    int timeout_ms = -1;
    if (inboxes_closed && done == nshards) {
      // Every shard has exited and pump() has seen all it sent.
      bool wpending = false;
      for (const Conn& c : conns)
        if (c.open && c.woff < c.wbuf.size()) wpending = true;
      if (!wpending) break;
      if (flush_deadline < 0) flush_deadline = now_ns() + 2'000'000'000;
      const std::int64_t left = flush_deadline - now_ns();
      if (left < 0) break;
      timeout_ms = static_cast<int>((left + 999'999) / 1'000'000);
    }

    pfds.clear();
    pidx.clear();
    if (listeners_open) {
      if (tcp_listen >= 0) {
        pfds.push_back(pollfd{tcp_listen, POLLIN, 0});
        pidx.push_back(-1);
      }
      if (uds_listen >= 0) {
        pfds.push_back(pollfd{uds_listen, POLLIN, 0});
        pidx.push_back(-2);
      }
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (!conns[i].open) continue;
      short ev = POLLIN;
      if (conns[i].woff < conns[i].wbuf.size()) ev |= POLLOUT;
      pfds.push_back(pollfd{conns[i].fd, ev, 0});
      pidx.push_back(static_cast<int>(i));
    }
    pfds.push_back(pollfd{loop_wake.fd, POLLIN, 0});
    pidx.push_back(-3);

    loop_wake.park();
    bool owed = draining.load(std::memory_order_acquire) != drain ||
                shards_done.load(std::memory_order_acquire) != done;
    for (const auto& ch : shards) owed = owed || !ch->out.empty_hint();
    ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), owed ? 0 : timeout_ms);
    loop_wake.unpark(pfds.back().revents);

    for (std::size_t k = 0; k < pfds.size(); ++k) {
      if (pfds[k].revents == 0) continue;
      const int ix = pidx[k];
      if (ix == -1) {
        do_accept(tcp_listen, true);
      } else if (ix == -2) {
        do_accept(uds_listen, false);
      } else if (ix >= 0) {
        if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) != 0) read_conn(ix);
        if (conns[static_cast<std::size_t>(ix)].open &&
            (pfds[k].revents & POLLOUT) != 0)
          try_flush(ix);
      }
    }
  }

  for (std::size_t i = 0; i < conns.size(); ++i)
    if (conns[i].open) drop_conn(static_cast<int>(i), false);
  if (tcp_listen >= 0) ::close(tcp_listen);
  if (uds_listen >= 0) ::close(uds_listen);
  tcp_listen = uds_listen = -1;
}

NetServer::NetServer(const harness::Prepared* p, const models::Dataset* ds,
                     NetOptions opts)
    : impl_(std::make_unique<Impl>()) {
  impl_->opts = std::move(opts);
  impl_->prep = p;
  impl_->ds = ds;
}

NetServer::~NetServer() {
  if (impl_ && impl_->started) shutdown();
  if (impl_ && !impl_->uds_path.empty()) ::unlink(impl_->uds_path.c_str());
}

const std::string& NetServer::error() const { return impl_->err; }
int NetServer::port() const { return impl_->bound_port; }
const std::string& NetServer::uds_path() const { return impl_->uds_path; }

std::vector<pid_t> NetServer::worker_pids() const {
  std::vector<pid_t> pids;
  for (const auto& ch : impl_->shards)
    if (const pid_t pid = ch->pid.load(); pid > 0) pids.push_back(pid);
  return pids;
}

bool NetServer::start() {
  Impl& im = *impl_;
  if (im.started) return im.fail("start() called twice");
  const NetOptions& o = im.opts;
  if (o.shards <= 0) return im.fail("shards must be > 0");
  if (o.admission_capacity == 0) return im.fail("admission_capacity must be > 0");
  if (o.max_sessions == 0) return im.fail("max_sessions must be > 0");
  if (o.max_connections <= 0) return im.fail("max_connections must be > 0");
  if (!o.multiprocess && (im.prep == nullptr || im.ds == nullptr))
    return im.fail("in-proc shards need a prepared model and dataset");
  // Liveness / supervision knobs are programmer configuration, not runtime
  // inputs: a nonsensical schedule aborts loudly (config_die) rather than
  // degrading into a server that flaps workers or never declares death.
  if (o.ping_interval_ns <= 0) config_die("ping_interval_ns must be > 0");
  if (o.liveness_timeout_ns <= o.ping_interval_ns)
    config_die("liveness_timeout_ns must exceed ping_interval_ns");
  if (o.respawn_budget < 0) config_die("respawn_budget must be >= 0");
  if (o.respawn_backoff_ns <= 0) config_die("respawn_backoff_ns must be > 0");
  if (o.respawn_backoff_cap_ns < o.respawn_backoff_ns)
    config_die("respawn_backoff_cap_ns must be >= respawn_backoff_ns");
  // Degradation watermarks: 0 = derive from capacity; explicit values must
  // form a proper hysteresis band inside the queue bound.
  im.degrade_high = o.degrade_high_watermark != 0
                        ? o.degrade_high_watermark
                        : std::max<std::size_t>(1, o.admission_capacity -
                                                       o.admission_capacity / 8);
  im.degrade_low = o.degrade_low_watermark != 0 ? o.degrade_low_watermark
                                                : o.admission_capacity / 4;
  if (im.degrade_high > o.admission_capacity)
    config_die("degrade_high_watermark must be <= admission_capacity");
  if (im.degrade_low >= im.degrade_high)
    config_die("degrade_low_watermark must be < degrade_high_watermark");
  // Fault plan: explicit option wins, else the environment; a spec that
  // does not parse is a hard start() failure, never a silently-inert run.
  {
    std::string spec = o.fault_spec.empty() ? fault::Injector::spec_from_env()
                                            : o.fault_spec;
    if (fault::kCompiledOut) spec.clear();
    if (!spec.empty()) {
      fault::FaultPlan plan;
      std::string perr;
      if (!fault::parse_fault_spec(spec, plan, &perr))
        return im.fail("bad fault spec: " + perr);
      im.inject.reset(plan);
      im.fault_spec = spec;
    }
  }
  if (!im.setup_listeners())
    return im.fail("no listener available (TCP bind and UDS bind both failed)");

  im.epoch = now_ns();
  im.n_inputs = im.ds != nullptr ? im.ds->inputs.size()
                                 : static_cast<std::size_t>(o.ds_batch);
  im.n_slots = o.max_sessions;
  im.slots = std::make_unique<Slot[]>(im.n_slots);
  if (o.trace.enabled) {
    im.net_tracer = std::make_unique<trace::Tracer>(0, o.trace.config);
    im.net_tracer->set_epoch(im.epoch);
  }
  for (int s = 0; s < o.shards; ++s) {
    auto ch = std::make_unique<Impl::ShardCh>(im.n_slots, s);
    if (!o.multiprocess && o.trace.enabled) {
      ch->tracer = std::make_unique<trace::Tracer>(s, o.trace.config);
      ch->tracer->set_epoch(im.epoch);
    }
    im.shards.push_back(std::move(ch));
  }
  bool woke = im.loop_wake.open();
  for (const auto& ch : im.shards) woke = woke && (!o.multiprocess || ch->wake.open());
  if (!woke) {  // undo so that start() may be retried, as after a bind failure
    const std::string why = std::strerror(errno);
    im.loop_wake.close();
    im.shards.clear();
    if (im.tcp_listen >= 0) ::close(im.tcp_listen);
    if (im.uds_listen >= 0) ::close(im.uds_listen);
    im.tcp_listen = im.uds_listen = -1;
    return im.fail("eventfd: " + why);
  }
  for (std::size_t i = im.n_slots; i > 0; --i) im.free_slots.push_back(static_cast<int>(i - 1));
  im.waiting.buf.resize(o.admission_capacity);

  // Workers fork before any thread exists (fork+exec from a single-threaded
  // process; nothing to corrupt). A failed spawn marks its shard dead — the
  // event loop routes around it, or errors if none survived.
  if (o.multiprocess) {
    for (const auto& ch : im.shards)
      if (!im.spawn_worker(*ch)) ch->alive.store(false, std::memory_order_release);
  }

  im.started = true;
  im.ev_thread = std::thread([&im] { im.event_loop(); });
  for (const auto& ch : im.shards) {
    Impl::ShardCh& c = *ch;
    if (o.multiprocess)
      im.shard_threads.emplace_back([&im, &c] { im.proxy_main(c); });
    else
      im.shard_threads.emplace_back([&im, &c] { im.shard_main_inproc(c); });
  }
  return true;
}

void NetServer::shutdown() {
  Impl& im = *impl_;
  if (!im.started || im.finished) return;
  im.draining.store(true, std::memory_order_release);
  im.loop_wake.signal();
  for (std::thread& t : im.shard_threads)
    if (t.joinable()) t.join();
  if (im.ev_thread.joinable()) im.ev_thread.join();
  if (!im.uds_path.empty()) ::unlink(im.uds_path.c_str());
  im.loop_wake.close();
  for (const auto& ch : im.shards) ch->wake.close();

  im.stats.worker_deaths = im.worker_deaths.load(std::memory_order_relaxed);
  im.stats.worker_respawns = im.respawns.load(std::memory_order_relaxed);
  im.stats.respawns_exhausted = im.respawns_exhausted.load(std::memory_order_relaxed);
  im.stats.fault_kills = im.inject.kills();
  im.stats.fault_short_writes = im.inject.short_writes();
  for (const auto& ch : im.shards) im.stats.shards.push_back(std::move(ch->report));
  if (im.opts.trace.enabled && im.net_tracer) {
    im.stats.trace.tracks.push_back(trace::dump_track(*im.net_tracer, 0, "net"));
    for (const auto& ch : im.shards)
      if (ch->tracer)
        im.stats.trace.tracks.push_back(trace::dump_track(
            *ch->tracer, ch->index + 1, "shard" + std::to_string(ch->index)));
  }
  im.finished = true;
}

const NetStats& NetServer::stats() const { return impl_->stats; }

}  // namespace acrobat::net
