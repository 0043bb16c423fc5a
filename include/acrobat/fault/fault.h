// acrobat/fault: deterministic fault injection (DESIGN.md §11).
//
// A FaultPlan is parsed from a compact spec string (the ACROBAT_FAULT_SPEC
// environment variable, or NetOptions::fault_spec):
//
//   action@key=val[,key=val...][;action@...]
//
//   kill_worker@req=N[,shard=S]  router side: SIGKILL the worker that every
//                                Nth forwarded request routes to (S >= 0
//                                restricts the kill to one shard index)
//   crash_worker@req=N           worker side: the worker kills itself upon
//                                receiving its Nth request, before replying
//                                (per process life: a respawned worker
//                                crash-loops until the restart budget ends)
//   wedge_shard@req=N,dur_ms=D   worker side: stall D ms before handling
//                                every Nth request — the worker stops
//                                reading its socket, so pings go
//                                unanswered and the liveness timeout fires
//   short_write@p=P[,seed=S]     frame writer (router<->worker channel,
//                                both directions): with probability P clamp
//                                a send to a few bytes. Pure fragmentation,
//                                never data loss: exercises FrameReader
//                                reassembly, and must not change any output
//                                bit.
//
// Every decision is a pure function of the plan and a per-injector event
// sequence number (Bernoulli draws hash the seed with the sequence number;
// there is no shared mutable RNG), so a failing faulted run replays with
// the same fault schedule. An injector belongs to one thread: the router's
// event loop, or a worker process.
#pragma once

#include <cstdint>
#include <string>

namespace acrobat::fault {

struct FaultPlan {
  std::uint64_t kill_every_req = 0;   // kill_worker: 0 = off
  int kill_shard = -1;                // kill_worker: -1 = any shard
  std::uint64_t crash_at_req = 0;     // crash_worker: 0 = off
  std::uint64_t wedge_every_req = 0;  // wedge_shard: 0 = off
  std::int64_t wedge_dur_ms = 0;
  double short_write_p = 0.0;  // short_write: 0 = off
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;

  bool any() const {
    return kill_every_req != 0 || crash_at_req != 0 || wedge_every_req != 0 ||
           short_write_p > 0.0;
  }
};

// Parses `spec` into `plan`. Empty spec = valid empty plan. Returns false
// on malformed input (unknown action/key, missing required key, bad
// number) with a human-readable reason in *err when provided.
bool parse_fault_spec(const std::string& spec, FaultPlan& plan,
                      std::string* err = nullptr);

class Injector {
 public:
  Injector() = default;
  explicit Injector(const FaultPlan& plan) : plan_(plan) {}

  // Plan resolution used by NetServer and the shard worker: an explicit
  // spec wins; otherwise ACROBAT_FAULT_SPEC; otherwise inert.
  static std::string spec_from_env();

  const FaultPlan& plan() const { return plan_; }
  bool enabled() const { return plan_.any(); }

  // Router: called once per request forwarded to a worker; true when the
  // plan says this request's worker should be SIGKILLed.
  bool fire_kill(int shard) {
    if (plan_.kill_every_req == 0) return false;
    if (++req_seq_ % plan_.kill_every_req != 0) return false;
    if (plan_.kill_shard >= 0 && shard != plan_.kill_shard) return false;
    ++kills_;
    return true;
  }

  // Worker: called once per received request; true when this process
  // should die right now.
  bool fire_crash() {
    if (plan_.crash_at_req == 0) return false;
    if (++crash_seq_ != plan_.crash_at_req) return false;
    ++crashes_;
    return true;
  }

  // Worker: called once per received request; > 0 = stall this many ns
  // before handling it.
  std::int64_t fire_wedge_ns() {
    if (plan_.wedge_every_req == 0) return 0;
    if (++wedge_seq_ % plan_.wedge_every_req != 0) return 0;
    ++wedges_;
    return plan_.wedge_dur_ms * 1'000'000;
  }

  // Frame writer: clamp a pending send of `want` bytes. Seeded Bernoulli
  // per call (the draw hashes seed ^ sequence).
  std::size_t clamp_write(std::size_t want) {
    if (plan_.short_write_p <= 0.0 || want <= 1) return want;
    const std::uint64_t seq = sw_seq_++;
    const std::uint64_t h = mix(plan_.seed ^ (seq * 0x9e3779b97f4a7c15ull));
    const double u = static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
    if (u >= plan_.short_write_p) return want;
    ++short_writes_;
    const std::size_t cap = want < 16 ? want - 1 : 15;
    return 1 + static_cast<std::size_t>(mix(h) % cap);
  }

  std::uint64_t kills() const { return kills_; }
  std::uint64_t crashes() const { return crashes_; }
  std::uint64_t wedges() const { return wedges_; }
  std::uint64_t short_writes() const { return short_writes_; }

 private:
  // splitmix64 finalizer: the stateless per-sequence hash behind every
  // probabilistic draw.
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  FaultPlan plan_;
  std::uint64_t req_seq_ = 0, crash_seq_ = 0, wedge_seq_ = 0, sw_seq_ = 0;
  std::uint64_t kills_ = 0, crashes_ = 0, wedges_ = 0, short_writes_ = 0;
};

}  // namespace acrobat::fault
