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

// One admitted-but-not-completed request. The event loop owns it, except
// that an in-process shard owns the result fields from the inbox push to
// its done message (handed over through the shard's SPSC inbox and
// completion ring); `cancel_owner` is the only concurrently-touched member.
// A worker's slot never leaves the event loop.
struct Slot {
  std::uint64_t owner = 0;  // pack_owner while busy; event loop only
  std::atomic<std::uint64_t> cancel_owner{0};

  // Wire identity and placement (event-loop-written at dispatch).
  int conn = -1;
  std::uint64_t conn_gen = 0;
  std::uint32_t req_id = 0;
  bool stream = false;
  int shard = -1;

  // The request as a shard sees it (event-loop-written). req.id is a
  // per-shard session number, stamped by the in-process shard that takes
  // the slot.
  serve::Request req;

  // Results (written before the done message).
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

// A slot's result as the event loop handles it: pushed by an in-process
// shard over its completion ring, or read from a worker's frame in place.
struct CompMsg {
  enum Kind : std::uint8_t { kToken, kDone, kError };
  Kind kind = kDone;
  int slot = -1;
  std::uint32_t aux = 0;  // token ordinal / ErrorCode
};

// Lets one consumer thread block in poll() until a producer hands it work
// through a lock-free ring, with a syscall only when the consumer sleeps.
// The event loop is woken by in-process shard completions.
//
// Consumer: park(), re-check every ring it reads and pass poll() a zero
// timeout if one holds work, poll() with `fd` in the set, then unpark().
// Producer: push to the ring, then notify().
//
// No push is lost. Every write of `parked` is an acq_rel exchange: park()
// sets it, unpark() and notify() clear it. Exchanges on one atomic fall in
// its single modification order, each reading the value just before it, so
// the producer's notify() and the consumer's park() are ordered one way or
// the other. If park() comes first, notify() reads true and signals, or
// reads false because an exchange between them cleared the flag: another
// producer's notify(), which signalled, or the consumer's unpark(), which
// precedes the next park's re-check. If notify() comes first, park() reads
// its value or a later one; with no plain store to `parked`, every write
// after the producer's release exchange belongs to its release sequence, so
// the acquiring park() synchronizes with it and the push happens before the
// consumer's re-check, which sees it. Only the producer that clears the
// flag writes, so a burst costs one write. The argument uses no fence,
// which ThreadSanitizer does not model, so the tsan-ingress CI job checks
// it. Rare events whose state the consumer does not re-check (a shard
// exiting, shutdown) call signal(), which writes unconditionally.
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
  void park() { parked.exchange(true, std::memory_order_acq_rel); }
  // `revents` is the eventfd's entry of the poll() set.
  void unpark(short revents) {
    parked.exchange(false, std::memory_order_acq_rel);
    if (revents == 0) return;
    std::uint64_t n = 0;
    const ssize_t r = ::read(fd, &n, sizeof n);  // resets the counter
    (void)r;
  }
  // Always the exchange: a plain load could read a stale false.
  void notify() {
    if (parked.exchange(false, std::memory_order_acq_rel)) signal();
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

// A non-blocking socket the event loop owns: a client connection, or the
// router end of a worker's socketpair. Frames are appended to `wbuf` as
// they are made; flush() sends what the socket takes, the loop calls it
// before it blocks, and the rest waits for POLLOUT.
struct Channel {
  int fd = -1;
  FrameReader rd;
  std::vector<std::uint8_t> wbuf;
  std::size_t woff = 0;

  bool open() const { return fd >= 0; }
  std::size_t pending() const { return wbuf.size() - woff; }
  void detach() {
    if (fd >= 0) ::close(fd);
    fd = -1;
    rd = FrameReader();
    wbuf.clear();
    woff = 0;
  }

  // False on a send error. A worker channel passes the fault injector,
  // whose short_write clamp cuts a send to a few bytes: fragmentation only,
  // which the worker's FrameReader reassembles. Client sends are never cut.
  bool flush(fault::Injector* inject) {
    while (woff < wbuf.size()) {
      std::size_t want = wbuf.size() - woff;
      if (inject != nullptr) want = inject->clamp_write(want);
      const ssize_t n = ::send(fd, wbuf.data() + woff, want, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        woff += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    if (woff == wbuf.size()) {
      wbuf.clear();
      woff = 0;
    } else if (woff > (1u << 16)) {
      wbuf.erase(wbuf.begin(), wbuf.begin() + static_cast<std::ptrdiff_t>(woff));
      woff = 0;
    }
    return true;
  }

  // One recv into `rd`: the bytes read, 0 at EOF or on a socket error, -1
  // when nothing is waiting.
  ssize_t fill() {
    std::uint8_t buf[16384];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) rd.feed(buf, static_cast<std::size_t>(n));
      if (n >= 0) return n;
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK ? -1 : 0;
    }
  }
};

struct Conn : Channel {
  std::uint64_t gen = 1;
  bool dirty = false;  // frames appended this pass; flushed before the loop blocks
  int live = 0;        // requests admitted for this conn, terminal frame pending
};

// What each pollfd of the loop stands for: a connection index (>= 0), a
// listener, the wake, or worker w as kWorker0 - w.
constexpr int kTcpListen = -1, kUdsListen = -2, kLoopWake = -3, kWorker0 = -4;

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

  // What routing reads of a shard, thread or process alike. Event loop only.
  struct Shard {
    int index = 0;
    bool alive = true;    // routable
    int outstanding = 0;  // slots dispatched here and not yet retired
    serve::ShardReport report;
  };
  // An in-process shard thread, fed slot ids through its inbox and
  // answering through `out`. The out ring is sized so that even a full slot
  // table streaming tokens rarely fills it; shard-side pushes spin briefly
  // if it does — server-internal flow control against the event loop, never
  // against a client (slow clients are absorbed per-connection, see write
  // buffers).
  struct InprocShard : Shard {
    explicit InprocShard(std::size_t sessions) : inbox(sessions), out(sessions * 8 + 1024) {}
    SpscQueue<int> inbox;
    SpscQueue<CompMsg> out;
    std::unique_ptr<trace::Tracer> tracer;
  };
  // A worker process and the router end of its socketpair, which the event
  // loop owns as it owns a client connection, with its supervision state
  // (DESIGN.md §11). `pid` is atomic only because worker_pids() reads it on
  // the caller's thread.
  struct Worker : Shard, Channel {
    std::atomic<pid_t> pid{-1};
    std::int64_t last_ping = 0, last_heard = 0;
    std::int64_t respawn_at = -1;  // -1 = no respawn pending
    int respawns_left = 0;
    int failures = 0;  // deaths since the last completed request
    bool drain_sent = false;
  };
  std::vector<std::unique_ptr<InprocShard>> inproc;  // in process
  std::vector<std::unique_ptr<Worker>> workers;      // multiprocess
  Shard& shard(int i) {
    if (opts.multiprocess) return *workers[static_cast<std::size_t>(i)];
    return *inproc[static_cast<std::size_t>(i)];
  }

  // Event-loop state, sized in start(): the connections, the free slot ids
  // and the requests waiting for one.
  std::vector<Conn> conns;
  std::vector<int> dirty;
  int open_count = 0;
  std::vector<int> free_slots;
  Fifo waiting;
  bool degraded_mode = false;
  bool inboxes_closed = false;
  int workers_done = 0;
  std::vector<std::uint8_t> scratch;
  Wake loop_wake;  // shard completions, shard exits and shutdown wake the loop

  std::atomic<bool> draining{false};
  std::atomic<int> shards_done{0};  // in-process shard threads that exited

  // Fault tolerance (DESIGN.md §11). `degraded` mirrors degraded_mode for
  // in-process shard cores (ShardIo::degraded); workers get kWorkerMode
  // frames instead.
  std::atomic<bool> degraded{false};
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

  // Shard side of the completion ring (in-process shard thread).
  void send_comp(InprocShard& sh, const CompMsg& m) {
    while (!sh.out.push(m)) relax();
    loop_wake.notify();
  }
  void shard_exited() {
    shards_done.fetch_add(1, std::memory_order_release);
    loop_wake.signal();
  }

  bool setup_listeners();
  void shard_main_inproc(InprocShard& sh);
  void event_loop();

  // Connections and admission (event loop).
  bool conn_ok(int ci, std::uint64_t gen) const {
    return ci >= 0 && conns[static_cast<std::size_t>(ci)].open() &&
           conns[static_cast<std::size_t>(ci)].gen == gen;
  }
  void drop_conn(int ci, bool slow);
  void flush_conn(int ci);
  void send_to(int ci, const std::vector<std::uint8_t>& bytes);
  void dispatch(const AdmissionMsg& m);
  void handle_comp(const CompMsg& m);
  void pump();
  void update_degraded();
  void handle_request(int ci, const Frame& f);
  void read_conn(int ci);
  void accept_conns(int lfd, bool tcp);
  void close_inboxes();

  // Worker channels and supervision (event loop, multiprocess).
  bool spawn_worker(Worker& w);
  void read_worker(Worker& w);
  void worker_frame(Worker& w, const Frame& f);
  void flush_worker(Worker& w);
  void worker_died(Worker& w);
  void schedule_respawn(Worker& w);
  void respawn(Worker& w);
  void finish_worker(Worker& w);
  void supervise();
  std::int64_t next_deadline() const;
};

bool NetServer::Impl::setup_listeners() {
  if (opts.port >= 0) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(opts.port));
      if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
          ::listen(fd, 128) == 0) {
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
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd >= 0) {
      ::unlink(opts.uds_path.c_str());
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, opts.uds_path.c_str(), sizeof addr.sun_path - 1);
      if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
          ::listen(fd, 128) == 0) {
        uds_listen = fd;
        uds_path = opts.uds_path;
      } else {
        ::close(fd);
      }
    }
  }
  return tcp_listen >= 0 || uds_listen >= 0;
}

// In-process shard thread: the shard core over this shard's inbox of slot
// ids, answering through its completion ring to the event loop.
void NetServer::Impl::shard_main_inproc(InprocShard& sh) {
  struct Io final : serve::detail::ShardIo {
    Io(Impl& im, InprocShard& sh) : im(im), sh(sh) {}
    Impl& im;
    InprocShard& sh;
    int next_session = 1;

    Slot& slot(int si) { return im.slots[static_cast<std::size_t>(si)]; }
    void send(const CompMsg& m) { im.send_comp(sh, m); }
    void poll(std::deque<int>& arrived) override {
      // Slot ids recycle, so each session gets a fresh number to name it
      // in trace events.
      int si;
      while (sh.inbox.pop(si)) {
        slot(si).req.id = next_session++;
        arrived.push_back(si);
      }
    }
    bool open() override { return !(sh.inbox.closed() && sh.inbox.empty_hint()); }
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
      send(CompMsg{CompMsg::kDone, si, 0});
    }
  } io(*this, sh);

  const serve::detail::ShardModule mod = serve::detail::solo_module(*prep, *ds);
  serve::detail::CoreConfig cc;
  cc.module = &mod;
  cc.make_policy = [this] { return serve::make_policy(opts.policy); };
  cc.launch_overhead_ns = opts.launch_overhead_ns;
  cc.shard_index = sh.index;
  cc.epoch_ns = epoch;
  cc.tracer = sh.tracer.get();
  serve::detail::run_shard(cc, io, sh.report);
  shard_exited();
}

// ------------------------------------------------- connections, admission

void NetServer::Impl::drop_conn(int ci, bool slow) {
  Conn& c = conns[static_cast<std::size_t>(ci)];
  if (!c.open()) return;
  const bool pending = c.live > 0 || c.pending() > 0;
  c.detach();
  if (pending) {
    ++stats.conn_drops;
    if (slow) ++stats.slow_reader_drops;
    trace::Tracer* const tr = net_tracer.get();
    ACROBAT_TRACE(tr, tr->instant(trace::EventKind::kNetConnDrop, ci, slow ? 1 : 0));
    // Cancel every live session owned by this (conn, gen). Owner-tagged:
    // a slot recycled to a newer generation can never match. Requests of
    // this connection still in the FIFO are skipped when they reach its
    // head (dispatch checks the generation). A worker learns of a cancel
    // by a kWorkerCancel frame.
    const std::uint64_t target = pack_owner(ci, c.gen);
    for (std::size_t i = 0; i < n_slots; ++i) {
      Slot& s = slots[i];
      if (s.owner != target) continue;
      s.cancel_owner.store(target, std::memory_order_release);
      if (opts.multiprocess && workers[static_cast<std::size_t>(s.shard)]->alive)
        encode_id_only(workers[static_cast<std::size_t>(s.shard)]->wbuf,
                       FrameType::kWorkerCancel, static_cast<std::uint32_t>(i));
    }
  }
  ++c.gen;
  c.live = 0;
  --open_count;
}

void NetServer::Impl::flush_conn(int ci) {
  if (!conns[static_cast<std::size_t>(ci)].flush(nullptr)) drop_conn(ci, false);
}

// Appends a frame; the pass's one send per connection happens before the
// loop next blocks.
void NetServer::Impl::send_to(int ci, const std::vector<std::uint8_t>& bytes) {
  Conn& c = conns[static_cast<std::size_t>(ci)];
  if (!c.open()) return;
  c.wbuf.insert(c.wbuf.end(), bytes.begin(), bytes.end());
  stats.write_buf_peak = std::max(stats.write_buf_peak, c.pending());
  if (c.pending() > opts.write_buffer_limit) {
    // The bound is on what the socket refuses, not on one pass's frames:
    // offer them first. A connection still over it is a slow reader whose
    // socket stopped draining — shed it; the shard hot path never waits.
    flush_conn(ci);
    if (!c.open()) return;
    if (c.pending() > opts.write_buffer_limit) {
      drop_conn(ci, true);
      return;
    }
  }
  if (!c.dirty) {
    c.dirty = true;
    dirty.push_back(ci);
  }
}

// Gives a request a slot on the least-loaded live shard. Needs a free
// slot. With no shard alive it answers kError(kUnavailable) and the slot
// stays free.
void NetServer::Impl::dispatch(const AdmissionMsg& m) {
  if (!conn_ok(m.conn, m.conn_gen)) return;  // dropped while it waited
  int target = -1, best = INT_MAX;
  for (int i = 0; i < opts.shards; ++i) {
    const Shard& sh = shard(i);
    if (sh.alive && sh.outstanding < best) {
      best = sh.outstanding;
      target = i;
    }
  }
  if (target < 0) {
    ++stats.errors;
    scratch.clear();
    encode_id_pair(scratch, FrameType::kError, m.req_id,
                   static_cast<std::uint32_t>(ErrorCode::kUnavailable));
    send_to(m.conn, scratch);
    if (conns[static_cast<std::size_t>(m.conn)].open())
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
  s.shard = target;
  s.req.input_index = m.input_index;
  s.req.latency_class = static_cast<serve::LatencyClass>(m.latency_class);
  s.req.arrival_ns = m.arrival_ns;
  s.owner = pack_owner(m.conn, m.conn_gen);
  ++shard(target).outstanding;
  if (opts.multiprocess) {
    // A worker's request is the client's kRequest with the slot id as its id.
    Worker& w = *workers[static_cast<std::size_t>(target)];
    encode_request(w.wbuf, static_cast<std::uint32_t>(si), m.input_index, 0, m.latency_class,
                   m.stream);
    // kill_worker fault: SIGKILL the worker this request was routed to — the
    // EOF path then runs the production death and respawn machinery.
    if (const pid_t pid = w.pid.load(); inject.fire_kill(target) && pid > 0)
      ::kill(pid, SIGKILL);
    return;
  }
  InprocShard& sh = *inproc[static_cast<std::size_t>(target)];
  const bool pushed = sh.inbox.push(si);
  assert(pushed && "inbox sized for the whole slot table");
  (void)pushed;
}

// A token frame leaves the slot busy; a done or an error retires it: the
// terminal frame goes to the client, and the freed slot goes straight to
// the oldest waiting request.
void NetServer::Impl::handle_comp(const CompMsg& m) {
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
  if (ok && conns[static_cast<std::size_t>(ci)].open())
    --conns[static_cast<std::size_t>(ci)].live;  // send_to may have dropped it
  --shard(s.shard).outstanding;
  s.owner = 0;
  s.output.clear();
  s.tokens = 0;
  s.cancelled = false;
  free_slots.push_back(m.slot);
  while (!free_slots.empty() && waiting.len > 0) dispatch(waiting.pop());
}

void NetServer::Impl::pump() {
  CompMsg m;
  for (const auto& sh : inproc)
    while (sh->out.pop(m)) handle_comp(m);
}

// Degraded-mode hysteresis (DESIGN.md §11): enter at the high watermark,
// exit at the low one, on the admission FIFO's occupancy. Each transition
// reaches the in-process shards through `degraded` and each live worker as
// a kWorkerMode frame; respawn() tells a fresh worker while degraded.
void NetServer::Impl::update_degraded() {
  const std::size_t occ = waiting.len;
  const bool on = degraded_mode ? occ > degrade_low : occ >= degrade_high;
  if (on == degraded_mode) return;
  degraded_mode = on;
  degraded.store(on, std::memory_order_relaxed);
  ++(on ? stats.degraded_entries : stats.degraded_exits);
  trace::Tracer* const tr = net_tracer.get();
  ACROBAT_TRACE(tr, tr->instant(trace::EventKind::kNetDegrade, on ? 1 : 0,
                                static_cast<int>(occ)));
  for (const auto& w : workers)
    if (w->alive) encode_frame(w->wbuf, FrameType::kWorkerMode, nullptr, 0, 0, on ? 1 : 0);
}

void NetServer::Impl::handle_request(int ci, const Frame& f) {
  RequestFields rf;
  if (!parse_request(f, rf)) {
    drop_conn(ci, false);
    return;
  }
  ++stats.requests;
  scratch.clear();
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
  Conn& c = conns[static_cast<std::size_t>(ci)];
  if (opts.max_inflight_per_conn > 0 && c.live >= opts.max_inflight_per_conn) {
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
  if (draining.load(std::memory_order_relaxed) || (free_slots.empty() && waiting.full())) {
    ++stats.rejected_429;
    trace::Tracer* const tr = net_tracer.get();
    ACROBAT_TRACE(tr, tr->instant(trace::EventKind::kNetReject, ci, static_cast<int>(rf.id)));
    encode_id_only(scratch, FrameType::kRetry, rf.id);
    send_to(ci, scratch);
    return;
  }
  AdmissionMsg m;
  m.conn = ci;
  m.conn_gen = c.gen;
  m.req_id = rf.id;
  m.input_index = rf.input_index;
  m.latency_class = rf.latency_class;
  m.stream = rf.stream;
  m.arrival_ns = now_ns() - epoch;
  ++c.live;
  if (!free_slots.empty()) {  // then nothing waits: a freed slot takes the FIFO head
    dispatch(m);
    return;
  }
  waiting.push(m);
  stats.admission_peak = std::max(stats.admission_peak, waiting.len);
  update_degraded();  // entering on the admit edge catches the high watermark
}

void NetServer::Impl::read_conn(int ci) {
  Conn& c = conns[static_cast<std::size_t>(ci)];
  for (;;) {
    const ssize_t n = c.fill();
    if (n < 0) return;
    if (n == 0) {
      drop_conn(ci, false);  // graceful iff no work owed (no counters then)
      return;
    }
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
      if (!c.open()) return;  // handler may have dropped the conn
    }
  }
}

void NetServer::Impl::accept_conns(int lfd, bool tcp) {
  for (;;) {
    // Non-blocking, and closed on exec: a worker respawned later must not
    // hold a client's socket open.
    const int fd = ::accept4(lfd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;
    if (open_count >= opts.max_connections) {
      ::close(fd);  // admission for *connections*: beyond the cap, refuse
      continue;
    }
    if (tcp) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    if (opts.sndbuf_bytes > 0)
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opts.sndbuf_bytes, sizeof opts.sndbuf_bytes);
    const auto it = std::find_if(conns.begin(), conns.end(),
                                 [](const Conn& c) { return !c.open(); });
    assert(it != conns.end());
    it->fd = fd;
    it->live = 0;
    ++open_count;
    ++stats.connections;
    trace::Tracer* const tr = net_tracer.get();
    ACROBAT_TRACE(tr, tr->instant(trace::EventKind::kNetAccept,
                                  static_cast<int>(it - conns.begin()), open_count));
  }
}

// The drain, once nothing waits and every slot is free: in-process shards
// see their inbox close; each live worker gets kWorkerDrain and answers
// kWorkerBye, and a dead one gives up any pending respawn.
void NetServer::Impl::close_inboxes() {
  inboxes_closed = true;
  for (const auto& sh : inproc) sh->inbox.close();
  for (const auto& w : workers) {
    if (!w->alive) {
      finish_worker(*w);
      continue;
    }
    encode_empty(w->wbuf, FrameType::kWorkerDrain);
    w->drain_sent = true;
  }
}

// ------------------------------------------------------ worker channels

bool NetServer::Impl::spawn_worker(Worker& w) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return false;
  // The router end must not leak into execs, and the loop never blocks on
  // it; the worker's end stays blocking.
  ::fcntl(sv[0], F_SETFD, FD_CLOEXEC);
  ::fcntl(sv[0], F_SETFL, O_NONBLOCK);

  const std::string cmd = opts.worker_cmd.empty() ? "/proc/self/exe" : opts.worker_cmd;
  std::vector<std::string> args = {
      cmd, "--shard-worker",
      "--fd", std::to_string(sv[1]),
      "--shard", std::to_string(w.index),
      "--model", opts.model,
      "--large", opts.large ? "1" : "0",
      "--ds-batch", std::to_string(opts.ds_batch),
      "--ds-seed", std::to_string(opts.ds_seed),
      "--launch-ns", std::to_string(opts.launch_overhead_ns),
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
  // The argv array is fully materialized *before* fork: respawns fork from
  // the event loop thread of a multithreaded process, where the child may
  // only run async-signal-safe code until execv.
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
  w.pid.store(pid);
  w.fd = sv[0];
  w.last_ping = w.last_heard = now_ns();
  w.drain_sent = false;
  w.alive = true;
  return true;
}

// A worker's result frames are the client's kToken and kDone with the slot
// id as their id; each completes its slot in place. Frames for a slot this
// worker does not hold are ignored.
void NetServer::Impl::worker_frame(Worker& w, const Frame& f) {
  const auto holds = [&](std::uint32_t si) {
    return si < n_slots && slots[si].owner != 0 && slots[si].shard == w.index;
  };
  switch (f.type) {
    case FrameType::kToken: {
      if (f.payload.size() < 8) break;
      const std::uint32_t si = wire::get_u32(f.payload.data());
      if (holds(si))
        handle_comp(CompMsg{CompMsg::kToken, static_cast<int>(si),
                            wire::get_u32(f.payload.data() + 4)});
      break;
    }
    case FrameType::kDone: {
      DoneFields df;
      if (!parse_done(f, df) || !holds(df.id)) break;
      Slot& s = slots[df.id];
      s.output.assign(df.data, df.data + df.n_floats);
      s.tokens = df.tokens;
      s.cancelled = df.cancelled;
      w.failures = 0;  // served work: not a crash loop
      handle_comp(CompMsg{CompMsg::kDone, static_cast<int>(df.id), 0});
      break;
    }
    case FrameType::kWorkerBye:  // the drain handshake's end: a clean exit follows
      if (!w.drain_sent) break;
      if (f.payload.size() >= 12) {
        w.report.requests = static_cast<int>(wire::get_u32(f.payload.data()));
        w.report.tokens = static_cast<long long>(wire::get_u64(f.payload.data() + 4));
      }
      finish_worker(w);
      break;
    case FrameType::kWorkerPong:
    default:
      break;  // read_worker already refreshed last_heard
  }
}

void NetServer::Impl::read_worker(Worker& w) {
  for (;;) {
    const ssize_t n = w.fill();
    if (n < 0) return;
    if (n == 0) {
      worker_died(w);  // EOF before the drain handshake ended
      return;
    }
    w.last_heard = now_ns();
    Frame f;
    while (w.open() && w.rd.next(f) == FrameReader::Status::kFrame) worker_frame(w, f);
    if (!w.open()) return;  // finished at its bye
  }
}

void NetServer::Impl::flush_worker(Worker& w) {
  if (!w.flush(&inject)) worker_died(w);
}

// An unexpected death: EOF, a socket error or the liveness timeout. The
// process is killed (a wedged worker is still running) and reaped at once,
// so a respawn never stacks zombies; every slot it held is answered
// kError(kWorkerDied), and a respawn is scheduled within the budget.
void NetServer::Impl::worker_died(Worker& w) {
  if (!w.alive) return;
  w.alive = false;
  ++stats.worker_deaths;
  w.detach();
  if (const pid_t pid = w.pid.load(); pid > 0) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    w.pid.store(-1);
  }
  for (std::size_t i = 0; i < n_slots; ++i)
    if (slots[i].owner != 0 && slots[i].shard == w.index)
      handle_comp(CompMsg{CompMsg::kError, static_cast<int>(i),
                          static_cast<std::uint32_t>(ErrorCode::kWorkerDied)});
  schedule_respawn(w);
  if (inboxes_closed) finish_worker(w);  // the drain wins over a respawn
}

// Supervision (DESIGN.md §11): a dead worker is re-forked under the same
// recipe after a capped-exponential backoff, within a per-shard respawn
// budget. The shard is routed around while the respawn is pending, so
// recovery only restores capacity. One completed request resets the
// backoff exponent; a crash-looping recipe walks the backoff up until the
// budget is gone, then the shard stays dead, which is counted once: a
// worker with no respawn pending is never alive again.
void NetServer::Impl::schedule_respawn(Worker& w) {
  if (w.respawns_left == 0) {
    ++stats.respawns_exhausted;
    return;
  }
  ++w.failures;
  w.respawn_at = now_ns() + respawn_delay_ns(w.failures - 1, opts.respawn_backoff_ns,
                                             opts.respawn_backoff_cap_ns);
}

void NetServer::Impl::respawn(Worker& w) {
  w.respawn_at = -1;
  --w.respawns_left;
  if (!spawn_worker(w)) {
    schedule_respawn(w);  // fork/socketpair failed: counts as a failure
    return;
  }
  ++stats.worker_respawns;
  if (degraded_mode) encode_frame(w.wbuf, FrameType::kWorkerMode, nullptr, 0, 0, 1);
}

// The worker is done for the server's life, once: it said bye to the
// drain, or the drain found it dead. A bye'd worker gets 2 s to exit, then
// SIGKILL.
void NetServer::Impl::finish_worker(Worker& w) {
  w.alive = false;
  w.respawn_at = -1;
  ++workers_done;
  w.detach();
  if (const pid_t pid = w.pid.load(); pid > 0) {
    int status = 0;
    const std::int64_t deadline = now_ns() + 2'000'000'000;
    while (::waitpid(pid, &status, WNOHANG) == 0) {
      if (now_ns() > deadline) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        break;
      }
      relax();
    }
    w.pid.store(-1);
  }
}

// Once per loop pass: respawns whose backoff has run out, pings, and the
// liveness kill of a worker that owes work and has been silent too long
// (the wedge failure mode).
void NetServer::Impl::supervise() {
  const std::int64_t now = now_ns();
  for (const auto& wp : workers) {
    Worker& w = *wp;
    if (!w.alive && w.respawn_at >= 0 && now >= w.respawn_at) respawn(w);
    if (!w.alive || w.drain_sent) continue;
    if (now - w.last_ping >= opts.ping_interval_ns) {
      encode_empty(w.wbuf, FrameType::kWorkerPing);
      w.last_ping = now;
    }
    if (w.outstanding > 0 && now - w.last_heard >= opts.liveness_timeout_ns) worker_died(w);
  }
}

// The nearest supervise() deadline, -1 for none: the loop's poll timeout
// in multiprocess mode.
std::int64_t NetServer::Impl::next_deadline() const {
  std::int64_t next = -1;
  const auto at = [&next](std::int64_t t) {
    if (next < 0 || t < next) next = t;
  };
  for (const auto& w : workers) {
    if (!w->alive) {
      if (w->respawn_at >= 0) at(w->respawn_at);
      continue;
    }
    if (w->drain_sent) continue;
    at(w->last_ping + opts.ping_interval_ns);
    if (w->outstanding > 0) at(w->last_heard + opts.liveness_timeout_ns);
  }
  return next;
}

// ------------------------------------------------------------ event loop

// One pass: completions, supervision, admission and drain bookkeeping, one
// send per channel with new frames, then block until a socket is ready or
// an in-process shard signals (Wake). In process the only timeout is the
// drain's flush deadline; in multiprocess mode it is also the nearest
// supervision deadline.
void NetServer::Impl::event_loop() {
  bool listeners_open = true;
  std::int64_t flush_deadline = -1;
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
    supervise();
    update_degraded();  // exit path: occupancy falls as completions free slots
    if (drain && !inboxes_closed && waiting.len == 0 && free_slots.size() == n_slots)
      close_inboxes();

    for (const int ci : dirty) {
      conns[static_cast<std::size_t>(ci)].dirty = false;
      if (conns[static_cast<std::size_t>(ci)].open()) flush_conn(ci);
    }
    dirty.clear();
    for (const auto& w : workers)
      if (w->open() && w->pending() > 0) flush_worker(*w);

    std::int64_t deadline = next_deadline();
    if (inboxes_closed && (opts.multiprocess ? workers_done : done) == opts.shards) {
      // Every shard has exited and the loop has seen all it sent.
      bool wpending = false;
      for (const Conn& c : conns)
        if (c.open() && c.pending() > 0) wpending = true;
      if (!wpending) break;
      if (flush_deadline < 0) flush_deadline = now_ns() + 2'000'000'000;
      if (now_ns() > flush_deadline) break;
      deadline = flush_deadline;
    }

    pfds.clear();
    pidx.clear();
    const auto watch = [&](int fd, short ev, int ix) {
      pfds.push_back(pollfd{fd, ev, 0});
      pidx.push_back(ix);
    };
    if (tcp_listen >= 0) watch(tcp_listen, POLLIN, kTcpListen);
    if (uds_listen >= 0) watch(uds_listen, POLLIN, kUdsListen);
    for (std::size_t i = 0; i < conns.size(); ++i)
      if (conns[i].open())
        watch(conns[i].fd, conns[i].pending() > 0 ? POLLIN | POLLOUT : POLLIN,
              static_cast<int>(i));
    for (const auto& w : workers)
      if (w->open())
        watch(w->fd, w->pending() > 0 ? POLLIN | POLLOUT : POLLIN, kWorker0 - w->index);
    watch(loop_wake.fd, POLLIN, kLoopWake);

    int timeout_ms = -1;
    if (deadline >= 0)
      timeout_ms = static_cast<int>(
          std::clamp<std::int64_t>((deadline - now_ns() + 999'999) / 1'000'000, 0, INT_MAX));
    loop_wake.park();
    bool owed = draining.load(std::memory_order_acquire) != drain ||
                shards_done.load(std::memory_order_acquire) != done;
    for (const auto& sh : inproc) owed = owed || !sh->out.empty_hint();
    ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), owed ? 0 : timeout_ms);
    loop_wake.unpark(pfds.back().revents);

    for (std::size_t k = 0; k < pfds.size(); ++k) {
      const short rev = pfds[k].revents;
      if (rev == 0) continue;
      const int ix = pidx[k];
      if (ix == kTcpListen) {
        accept_conns(tcp_listen, true);
      } else if (ix == kUdsListen) {
        accept_conns(uds_listen, false);
      } else if (ix >= 0) {
        if ((rev & (POLLIN | POLLHUP | POLLERR)) != 0) read_conn(ix);
        if (conns[static_cast<std::size_t>(ix)].open() && (rev & POLLOUT) != 0) flush_conn(ix);
      } else if (ix <= kWorker0) {
        Worker& w = *workers[static_cast<std::size_t>(kWorker0 - ix)];
        if ((rev & (POLLIN | POLLHUP | POLLERR)) != 0) read_worker(w);
        if (w.open() && (rev & POLLOUT) != 0) flush_worker(w);
      }
    }
  }

  for (std::size_t i = 0; i < conns.size(); ++i)
    if (conns[i].open()) drop_conn(static_cast<int>(i), false);
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
  for (const auto& w : impl_->workers)
    if (const pid_t pid = w->pid.load(); pid > 0) pids.push_back(pid);
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
  // Degradation watermarks, 7/8 and 1/4 of the queue bound: for every
  // capacity >= 1, low < high <= capacity, a proper hysteresis band.
  im.degrade_high =
      std::max<std::size_t>(1, o.admission_capacity - o.admission_capacity / 8);
  im.degrade_low = o.admission_capacity / 4;
  // Fault plan: explicit option wins, else the environment; a spec that
  // does not parse is a hard start() failure, never a silently-inert run.
  {
    std::string spec = o.fault_spec.empty() ? fault::Injector::spec_from_env()
                                            : o.fault_spec;
    if (!spec.empty()) {
      fault::FaultPlan plan;
      std::string perr;
      if (!fault::parse_fault_spec(spec, plan, &perr))
        return im.fail("bad fault spec: " + perr);
      im.inject = fault::Injector(plan);
      im.fault_spec = spec;
    }
  }
  if (!im.setup_listeners())
    return im.fail("no listener available (TCP bind and UDS bind both failed)");
  if (!im.loop_wake.open()) {  // undo so that start() may be retried, as after a bind failure
    const std::string why = std::strerror(errno);
    if (im.tcp_listen >= 0) ::close(im.tcp_listen);
    if (im.uds_listen >= 0) ::close(im.uds_listen);
    im.tcp_listen = im.uds_listen = -1;
    return im.fail("eventfd: " + why);
  }

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
    if (o.multiprocess) {
      auto w = std::make_unique<Impl::Worker>();
      w->index = s;
      w->respawns_left = o.respawn_budget;
      im.workers.push_back(std::move(w));
      continue;
    }
    auto sh = std::make_unique<Impl::InprocShard>(im.n_slots);
    sh->index = s;
    if (o.trace.enabled) {
      sh->tracer = std::make_unique<trace::Tracer>(s, o.trace.config);
      sh->tracer->set_epoch(im.epoch);
    }
    im.inproc.push_back(std::move(sh));
  }
  for (std::size_t i = im.n_slots; i > 0; --i) im.free_slots.push_back(static_cast<int>(i - 1));
  im.waiting.buf.resize(o.admission_capacity);
  im.conns.resize(static_cast<std::size_t>(o.max_connections));

  // Workers fork before any thread exists (fork+exec from a single-threaded
  // process; nothing to corrupt). A failed spawn marks its shard dead — the
  // event loop routes around it, or errors if none survived.
  for (const auto& w : im.workers)
    if (!im.spawn_worker(*w)) w->alive = false;

  im.started = true;
  im.ev_thread = std::thread([&im] { im.event_loop(); });
  for (const auto& sh : im.inproc) {
    Impl::InprocShard& s = *sh;
    im.shard_threads.emplace_back([&im, &s] { im.shard_main_inproc(s); });
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

  im.stats.fault_kills = im.inject.kills();
  im.stats.fault_short_writes = im.inject.short_writes();
  for (int s = 0; s < im.opts.shards; ++s)
    im.stats.shards.push_back(std::move(im.shard(s).report));
  if (im.opts.trace.enabled && im.net_tracer) {
    im.stats.trace.tracks.push_back(trace::dump_track(*im.net_tracer, 0, "net"));
    for (const auto& sh : im.inproc)
      if (sh->tracer)
        im.stats.trace.tracks.push_back(trace::dump_track(
            *sh->tracer, sh->index + 1, "shard" + std::to_string(sh->index)));
  }
  im.finished = true;
}

const NetStats& NetServer::stats() const { return impl_->stats; }

}  // namespace acrobat::net
