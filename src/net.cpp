#include "net/net.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
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
// non-atomic fields at any time (event loop → dispatcher → shard or worker
// proxy → event loop), with ownership handed over through SPSC queues;
// `owner` and `cancel_owner` are the only concurrently-touched members.
struct Slot {
  std::atomic<std::uint64_t> owner{0};
  std::atomic<std::uint64_t> cancel_owner{0};

  // Wire identity (dispatcher-written; event loop reads at completion).
  int conn = -1;
  std::uint64_t conn_gen = 0;
  std::uint32_t req_id = 0;
  bool stream = false;

  // The request as a shard sees it (dispatcher-written). req.id is a
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

// Acceptor → dispatcher. Everything the dispatcher needs to fill a slot.
struct AdmissionMsg {
  int conn = -1;
  std::uint64_t conn_gen = 0;
  std::uint32_t req_id = 0;
  std::uint32_t input_index = 0;
  std::uint8_t latency_class = 0;
  bool stream = false;
  std::int64_t arrival_ns = 0;
};

// Shard/proxy/dispatcher → event loop.
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

  // Per-shard channel: the dispatcher feeds the inbox (slot ids); the shard
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
    pid_t pid = -1;  // multiproc
    int fd = -1;     // multiproc: router end of the socketpair
  };
  std::vector<std::unique_ptr<ShardCh>> shards;
  std::unique_ptr<SpscQueue<AdmissionMsg>> admission;
  std::unique_ptr<SpscQueue<int>> free_ring;
  std::unique_ptr<SpscQueue<CompMsg>> disp_out;

  std::atomic<bool> draining{false};
  std::atomic<bool> admission_closed{false};
  std::atomic<bool> dispatcher_done{false};
  std::atomic<int> shards_done{0};
  std::atomic<std::uint64_t> worker_deaths{0};
  std::atomic<std::size_t> slots_peak{0};

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

  std::thread ev_thread, disp_thread;
  std::vector<std::thread> shard_threads;

  std::unique_ptr<trace::Tracer> net_tracer;
  NetStats stats;
  bool started = false;
  bool finished = false;

  bool fail(const std::string& what) {
    err = what;
    return false;
  }

  bool setup_listeners();
  bool spawn_worker(ShardCh& ch);
  void shard_main_inproc(ShardCh& ch);
  void proxy_main(ShardCh& ch);
  void dispatcher_loop();
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
  ch.pid = pid;
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
    void send(const CompMsg& m) {
      while (!ch.out.push(m)) relax();
    }
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
  shards_done.fetch_add(1, std::memory_order_release);
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

  const auto push_out = [&](const CompMsg& m) {
    while (!ch.out.push(m)) relax();
  };
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
    if (ch.pid > 0) {
      ::kill(ch.pid, SIGKILL);
      int status = 0;
      ::waitpid(ch.pid, &status, 0);
      ch.pid = -1;
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
    bool progressed = false;
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
          progressed = true;
        } else {
          schedule_respawn();  // fork/socketpair failed: counts as a failure
        }
      }
    }
    int si;
    while (ch.inbox.pop(si)) {
      progressed = true;
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
        ACROBAT_FAULT(if (inject.fire_kill(ch.index) && ch.pid > 0)
                          ::kill(ch.pid, SIGKILL));
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

    if (ch.alive.load(std::memory_order_relaxed)) {
      pollfd pfd{ch.fd, POLLIN, 0};
      ::poll(&pfd, 1, 1);
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
    } else if (!progressed) {
      relax();
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
      if (ch.pid > 0) {
        int status = 0;
        const std::int64_t deadline = now_ns() + 2'000'000'000;
        for (;;) {
          const pid_t r = ::waitpid(ch.pid, &status, WNOHANG);
          if (r == ch.pid || r < 0) break;
          if (now_ns() > deadline) {
            ::kill(ch.pid, SIGKILL);
            ::waitpid(ch.pid, &status, 0);
            break;
          }
          relax();
        }
        ch.pid = -1;
      }
      break;
    }
  }
  shards_done.fetch_add(1, std::memory_order_release);
}

void NetServer::Impl::dispatcher_loop() {
  std::vector<int> free_list;
  free_list.reserve(n_slots);
  for (std::size_t i = n_slots; i > 0; --i) free_list.push_back(static_cast<int>(i - 1));

  for (;;) {
    bool progressed = false;
    int sid;
    while (free_ring->pop(sid)) {
      progressed = true;
      Slot& s = slots[static_cast<std::size_t>(sid)];
      s.owner.store(0, std::memory_order_relaxed);
      s.output.clear();
      s.tokens = 0;
      s.cancelled = false;
      free_list.push_back(sid);
    }
    // Backpressure cascade: no free slot → don't pop admission → the
    // admission queue fills → the event loop 429s. Nothing ever grows.
    while (!free_list.empty()) {
      AdmissionMsg m;
      if (!admission->pop(m)) break;
      progressed = true;
      const int si = free_list.back();
      free_list.pop_back();
      Slot& s = slots[static_cast<std::size_t>(si)];
      s.conn = m.conn;
      s.conn_gen = m.conn_gen;
      s.req_id = m.req_id;
      s.stream = m.stream;
      s.req.input_index = m.input_index;
      s.req.latency_class = static_cast<serve::LatencyClass>(m.latency_class);
      s.req.arrival_ns = m.arrival_ns;
      s.owner.store(pack_owner(m.conn, m.conn_gen), std::memory_order_release);
      const std::size_t used = n_slots - free_list.size();
      if (used > slots_peak.load(std::memory_order_relaxed))
        slots_peak.store(used, std::memory_order_relaxed);

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
        const CompMsg em{CompMsg::kError, si,
                         static_cast<std::uint32_t>(ErrorCode::kUnavailable)};
        while (!disp_out->push(em)) relax();
        continue;
      }
      ShardCh& ch = *shards[static_cast<std::size_t>(target)];
      ch.outstanding.fetch_add(1, std::memory_order_relaxed);
      const bool pushed = ch.inbox.push(si);
      assert(pushed && "inbox sized for the whole slot table");
      (void)pushed;
    }
    if (admission_closed.load(std::memory_order_acquire) && admission->empty_hint() &&
        free_list.size() == n_slots && free_ring->empty_hint()) {
      for (const auto& ch : shards) ch->inbox.close();
      dispatcher_done.store(true, std::memory_order_release);
      return;
    }
    if (!progressed) relax();
  }
}

void NetServer::Impl::event_loop() {
  struct Conn {
    int fd = -1;
    std::uint64_t gen = 1;
    bool open = false;
    FrameReader rd;
    std::vector<std::uint8_t> wbuf;
    std::size_t woff = 0;
    int live = 0;  // requests admitted for this conn, terminal frame pending
  };
  std::vector<Conn> conns(static_cast<std::size_t>(opts.max_connections));
  int open_count = 0;
  trace::Tracer* const tr = net_tracer.get();
  bool listeners_open = true;
  std::int64_t flush_deadline = -1;
  std::vector<std::uint8_t> scratch;
  const int nshards = static_cast<int>(shards.size());

  const auto now_rel = [&] { return now_ns() - epoch; };

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
      // a slot recycled to a newer generation can never match.
      const std::uint64_t target = pack_owner(ci, c.gen);
      for (std::size_t i = 0; i < n_slots; ++i)
        if (slots[i].owner.load(std::memory_order_acquire) == target)
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

  const auto send_to = [&](int ci, const std::vector<std::uint8_t>& bytes) {
    Conn& c = conns[static_cast<std::size_t>(ci)];
    if (!c.open) return;
    c.wbuf.insert(c.wbuf.end(), bytes.begin(), bytes.end());
    const std::size_t backlog = c.wbuf.size() - c.woff;
    stats.write_buf_peak = std::max(stats.write_buf_peak, backlog);
    if (backlog > opts.write_buffer_limit) {
      // Slow reader: its socket stopped draining and the bounded buffer is
      // full. Shed the connection — the shard hot path never waits on it.
      drop_conn(ci, true);
      return;
    }
    try_flush(ci);
  };

  const auto handle_comp = [&](const CompMsg& m) {
    Slot& s = slots[static_cast<std::size_t>(m.slot)];
    const int ci = s.conn;
    const bool ok = ci >= 0 && conns[static_cast<std::size_t>(ci)].open &&
                    conns[static_cast<std::size_t>(ci)].gen == s.conn_gen;
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
    const bool pushed = free_ring->push(m.slot);
    assert(pushed && "free ring sized for the whole slot table");
    (void)pushed;
  };

  const auto pump = [&] {
    CompMsg m;
    for (const auto& ch : shards)
      while (ch->out.pop(m)) handle_comp(m);
    while (disp_out->pop(m)) handle_comp(m);
  };

  // Degraded-mode hysteresis (ISSUE 10): enter at the high watermark, exit
  // at the low one. Evaluated by the event loop only — single writer to the
  // Impl::degraded atomic that shards and worker proxies read.
  bool degraded_mode = false;
  const std::uint16_t want_auth =
      opts.auth_token.empty() ? 0 : auth_token16(opts.auth_token);
  const auto update_degraded = [&] {
    const std::size_t occ = admission->size_hint();
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
    // The backpressure contract: a full admission queue (or a draining
    // server) answers 429 immediately. size_hint from the producer side is
    // exact-or-overestimate, so the configured capacity is a hard bound.
    if (draining.load(std::memory_order_relaxed) ||
        admission->size_hint() >= opts.admission_capacity) {
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
    const bool pushed = admission->push(m);
    assert(pushed && "size_hint bound guarantees ring space");
    (void)pushed;
    stats.admission_peak = std::max(stats.admission_peak, admission->size_hint());
    ++c.live;
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

  std::vector<pollfd> pfds;
  std::vector<int> pidx;
  for (;;) {
    if (draining.load(std::memory_order_relaxed)) {
      if (listeners_open) {
        if (tcp_listen >= 0) ::close(tcp_listen);
        if (uds_listen >= 0) ::close(uds_listen);
        tcp_listen = uds_listen = -1;
        listeners_open = false;
      }
      admission_closed.store(true, std::memory_order_release);
    }
    pump();
    update_degraded();  // exit path: occupancy falls as the dispatcher drains

    if (draining.load(std::memory_order_relaxed) &&
        dispatcher_done.load(std::memory_order_acquire) &&
        shards_done.load(std::memory_order_acquire) == nshards) {
      pump();  // shards are gone: whatever is queued now is the last of it
      bool outs_empty = disp_out->empty_hint();
      for (const auto& ch : shards) outs_empty = outs_empty && ch->out.empty_hint();
      if (outs_empty) {
        bool wpending = false;
        for (const Conn& c : conns)
          if (c.open && c.woff < c.wbuf.size()) wpending = true;
        if (!wpending) break;
        if (flush_deadline < 0) flush_deadline = now_ns() + 2'000'000'000;
        if (now_ns() > flush_deadline) break;
      }
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
    ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 1);
    for (std::size_t k = 0; k < pfds.size(); ++k) {
      if (pfds[k].revents == 0) continue;
      const int ix = pidx[k];
      if (ix == -1) {
        do_accept(tcp_listen, true);
      } else if (ix == -2) {
        do_accept(uds_listen, false);
      } else {
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
    if (ch->pid > 0) pids.push_back(ch->pid);
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
  im.admission = std::make_unique<SpscQueue<AdmissionMsg>>(o.admission_capacity);
  im.free_ring = std::make_unique<SpscQueue<int>>(im.n_slots);
  im.disp_out = std::make_unique<SpscQueue<CompMsg>>(im.n_slots);
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

  // Workers fork before any thread exists (fork+exec from a single-threaded
  // process; nothing to corrupt). A failed spawn marks its shard dead — the
  // dispatcher routes around it, or errors if none survived.
  if (o.multiprocess) {
    for (const auto& ch : im.shards)
      if (!im.spawn_worker(*ch)) ch->alive.store(false, std::memory_order_release);
  }

  im.started = true;
  im.ev_thread = std::thread([&im] { im.event_loop(); });
  im.disp_thread = std::thread([&im] { im.dispatcher_loop(); });
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
  for (std::thread& t : im.shard_threads)
    if (t.joinable()) t.join();
  if (im.disp_thread.joinable()) im.disp_thread.join();
  if (im.ev_thread.joinable()) im.ev_thread.join();
  if (!im.uds_path.empty()) ::unlink(im.uds_path.c_str());

  im.stats.worker_deaths = im.worker_deaths.load(std::memory_order_relaxed);
  im.stats.worker_respawns = im.respawns.load(std::memory_order_relaxed);
  im.stats.respawns_exhausted = im.respawns_exhausted.load(std::memory_order_relaxed);
  im.stats.fault_kills = im.inject.kills();
  im.stats.fault_short_writes = im.inject.short_writes();
  im.stats.slots_peak = im.slots_peak.load(std::memory_order_relaxed);
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
