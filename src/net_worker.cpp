// `--shard-worker` process loop (multi-process fleet, DESIGN.md §10). One
// worker = one shard = one engine, shared-nothing: the process rebuilds the
// prepared model and dataset from the recipe on its command line (both are
// deterministic functions of the recipe, which is what makes wire parity
// hold across the process boundary), then runs the shard loop every other
// serving mode runs (src/shard_core.h, as serve() does), with the router
// socketpair as its transport.
#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>

#include "fault/fault.h"
#include "models/models.h"
#include "net/frame.h"
#include "net/net.h"
#include "shard_core.h"
#include "support/timer.h"

namespace acrobat::net {
namespace {

// Worker-side fault injector (DESIGN.md §11): one per process, installed
// from --fault before the loop starts. Inert (empty plan) by default.
fault::Injector g_inject;

// Sends all of `b` on `fd`, retrying on EINTR; false on any other send
// error. Injected short writes fragment a frame without losing bytes: the
// loop resumes at the next unsent byte, so the router's FrameReader
// reassembly is what gets exercised.
bool send_all(int fd, const std::vector<std::uint8_t>& b) {
  std::size_t off = 0;
  while (off < b.size()) {
    const std::size_t chunk = g_inject.clamp_write(b.size() - off);
    const ssize_t n = ::send(fd, b.data() + off, chunk, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void stall_ns(std::int64_t ns) {
  timespec ts{static_cast<time_t>(ns / 1'000'000'000),
              static_cast<long>(ns % 1'000'000'000)};
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

struct WorkerArgs {
  int fd = -1;
  int shard = 0;
  std::string model = "Decoder";
  bool large = false;
  int ds_batch = 24;
  std::uint64_t ds_seed = 0;
  std::int64_t launch_ns = 0;
  std::string fault;
  serve::PolicyConfig policy;
};

bool parse_args(int argc, char** argv, WorkerArgs& a) {
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--fd") a.fd = std::atoi(v);
    else if (k == "--shard") a.shard = std::atoi(v);
    else if (k == "--model") a.model = v;
    else if (k == "--large") a.large = std::atoi(v) != 0;
    else if (k == "--ds-batch") a.ds_batch = std::atoi(v);
    else if (k == "--ds-seed") a.ds_seed = std::strtoull(v, nullptr, 10);
    else if (k == "--launch-ns") a.launch_ns = std::atoll(v);
    else if (k == "--fault") a.fault = v;
    else if (k == "--pol-kind") a.policy.kind = static_cast<serve::PolicyKind>(std::atoi(v));
    else if (k == "--pol-max-batch") a.policy.max_batch = static_cast<std::size_t>(std::atoll(v));
    else if (k == "--pol-min-batch") a.policy.min_batch = static_cast<std::size_t>(std::atoll(v));
    else if (k == "--pol-max-admit") a.policy.max_admit = static_cast<std::size_t>(std::atoll(v));
    else if (k == "--pol-decode-admit") a.policy.decode_admit = static_cast<std::size_t>(std::atoll(v));
    else if (k == "--pol-slo-ns") a.policy.slo_ns = std::atoll(v);
    else if (k == "--pol-hold-ns") a.policy.max_hold_ns = std::atoll(v);
    else return false;
  }
  return a.fd >= 0;
}

// The router socketpair as the shard core's transport. It speaks the
// client protocol with the router's slot id in the id field: kRequest
// frames are arrivals, kToken and kDone frames carry results back. Cancel,
// ping, drain and mode frames are handled as they are read.
class WorkerIo final : public serve::detail::ShardIo {
 public:
  explicit WorkerIo(int fd) : fd_(fd), epoch_(now_ns()) {}

  std::int64_t epoch() const { return epoch_; }
  bool eof() const { return eof_; }

  void poll(std::deque<int>& arrived) override {
    std::uint8_t buf[16384];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) {
        rd_.feed(buf, static_cast<std::size_t>(n));
        Frame f;
        while (rd_.next(f) == FrameReader::Status::kFrame) handle(f, arrived);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      eof_ = true;  // router gone (or a socket error): finish in-flight work and exit
      return;
    }
  }
  bool open() override { return !drain_ && !eof_; }
  void idle_wait() override {
    pollfd pfd{fd_, POLLIN, 0};
    ::poll(&pfd, 1, 1);
  }
  const serve::Request& request(int si) override { return slot(si).req; }
  bool cancelled(int si) override { return slot(si).cancelled; }
  bool degraded() override { return degraded_; }
  void token(int si, std::uint32_t ordinal) override {
    if (!slot(si).stream) return;
    wire_.clear();
    encode_id_pair(wire_, FrameType::kToken, static_cast<std::uint32_t>(si), ordinal);
    send();
  }
  void finish(int si, serve::RequestRecord& rec) override {
    wire_.clear();
    encode_done(wire_, FrameType::kDone, static_cast<std::uint32_t>(si),
                static_cast<std::uint32_t>(rec.tokens), rec.cancelled, rec.output.data(),
                rec.output.size());
    send();
  }
  // Drain acknowledgement: what this worker served, carried home.
  void bye(const serve::ShardReport& report) {
    std::vector<std::uint8_t> payload;
    wire::put_u32(payload, static_cast<std::uint32_t>(report.requests));
    wire::put_u64(payload, static_cast<std::uint64_t>(report.tokens));
    wire_.clear();
    encode_frame(wire_, FrameType::kWorkerBye, payload.data(), payload.size());
    send();
  }

 private:
  // One request the router forwarded, keyed by the router's slot id.
  struct Pending {
    serve::Request req;  // req.id: a per-worker session number for traces
    bool stream = false;
    bool cancelled = false;
  };

  Pending& slot(int si) { return slots_[static_cast<std::size_t>(si)]; }
  void send() {
    if (!send_all(fd_, wire_)) eof_ = true;
  }
  void handle(const Frame& f, std::deque<int>& arrived) {
    switch (f.type) {
      case FrameType::kRequest: {
        RequestFields rf;
        if (!parse_request(f, rf)) break;
        // crash_worker: die before replying — the router sees EOF and fails
        // this request's slot with kError(kWorkerDied).
        if (g_inject.fire_crash()) ::raise(SIGKILL);
        // wedge_shard: stop reading the socket mid-stream; pings go
        // unanswered, which is the liveness timeout's failure mode.
        if (const std::int64_t wns = g_inject.fire_wedge_ns(); wns > 0) stall_ns(wns);
        // The router reuses a slot id only after its done frame, so the
        // entry is free. A deque never relocates, and the router's slot
        // table bounds it.
        const std::size_t si = rf.id;
        while (slots_.size() <= si) slots_.emplace_back();
        Pending& p = slots_[si];
        p.req.id = next_session_++;
        p.req.input_index = rf.input_index;
        p.req.latency_class = static_cast<serve::LatencyClass>(rf.latency_class);
        p.req.arrival_ns = now_ns() - epoch_;
        p.stream = rf.stream;
        p.cancelled = false;
        arrived.push_back(static_cast<int>(si));
        break;
      }
      case FrameType::kWorkerCancel: {
        if (f.payload.size() < 4) break;
        const std::size_t si = wire::get_u32(f.payload.data());
        if (si < slots_.size()) slots_[si].cancelled = true;
        break;
      }
      case FrameType::kWorkerPing:
        wire_.clear();
        encode_empty(wire_, FrameType::kWorkerPong);
        send();
        break;
      case FrameType::kWorkerDrain:
        drain_ = true;
        break;
      case FrameType::kWorkerMode:
        degraded_ = f.aux != 0;
        break;
      default:
        break;
    }
  }

  int fd_;
  std::int64_t epoch_;
  std::deque<Pending> slots_;
  FrameReader rd_;
  std::vector<std::uint8_t> wire_;
  int next_session_ = 1;
  bool drain_ = false, eof_ = false, degraded_ = false;
};

}  // namespace

int shard_worker_main(int argc, char** argv) {
  WorkerArgs a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr, "acrobat net worker: bad arguments\n");
    return 2;
  }

  if (!a.fault.empty()) {
    fault::FaultPlan plan;
    std::string perr;
    if (!fault::parse_fault_spec(a.fault, plan, &perr)) {
      std::fprintf(stderr, "acrobat net worker: bad fault spec: %s\n", perr.c_str());
      return 2;
    }
    g_inject = fault::Injector(plan);
  }

  const models::ModelSpec& spec = models::model_by_name(a.model);
  const harness::Prepared prep =
      harness::prepare(spec, a.large, passes::PipelineConfig{});
  const models::Dataset ds = spec.build_dataset(a.large, a.ds_batch, a.ds_seed);
  const serve::detail::ShardModule mod = serve::detail::solo_module(prep, ds);

  WorkerIo io(a.fd);
  serve::detail::CoreConfig cc;
  cc.module = &mod;
  cc.make_policy = [&a] { return serve::make_policy(a.policy); };
  cc.launch_overhead_ns = a.launch_ns;
  cc.shard_index = a.shard;
  cc.epoch_ns = io.epoch();
  serve::ShardReport report;
  serve::detail::run_shard(cc, io, report);

  if (!io.eof()) io.bye(report);
  ::close(a.fd);
  return 0;
}

}  // namespace acrobat::net
