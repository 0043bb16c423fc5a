// Batching policies: at every trigger boundary the shard asks its policy
// how many queued requests to admit into the live fiber pool, and whether
// to hold the trigger briefly to let more arrivals join the batch. The
// policy sees only shard-local state — policies never synchronize across
// shards (DESIGN.md §7).
//
// Policies additionally triage each queued request (DESIGN.md §8): the
// base policies admit everything in arrival order, while the fleet's SLO
// policy (fleet/policy.h) orders admission earliest-deadline-first,
// deprioritizes requests whose deadline is blown, and ultimately sheds
// them — the admission-control half of goodput-oriented serving.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>

#include "serve/load.h"

namespace acrobat::serve {

struct PolicyCtx {
  std::int64_t now_ns = 0;   // since serve start
  std::size_t queued = 0;    // arrived at this shard, not yet admitted
  std::size_t live = 0;      // admitted requests in flight
  // Decode-aware split: how many of `live` are generative sessions past
  // their first token, and how many parked sessions currently want their
  // next decode step. Policies without a decode budget ignore both.
  std::size_t live_decode = 0;
  std::size_t queued_steps = 0;
  std::int64_t oldest_queued_arrival_ns = -1;  // -1: queue empty
  std::int64_t oldest_live_arrival_ns = -1;    // -1: nothing in flight
  bool inbox_open = true;  // false once the dispatcher has sent everything
};

struct AdmitDecision {
  // Upper bound on requests to admit this round (actual = min with queued).
  std::size_t max_admit = static_cast<std::size_t>(-1);
  // Upper bound on parked decode steps to unpark per *trigger window* (the
  // interval between admission hooks). size_t(-1) = unlimited, the classic
  // behavior: steps re-admit outside the width budget. A finite value chunks
  // decode re-admission so prefill admissions are not starved of trigger
  // width at overload — the shard resets its step budget from this once per
  // window, and guarantees at least one step per window so a fully-parked
  // pool can never stall.
  std::size_t max_step_admit = static_cast<std::size_t>(-1);
  // If > now and everything live is suspended, poll for new arrivals until
  // this time before triggering — the batch-forming pause.
  std::int64_t hold_until_ns = -1;
};

// One queued request as the policy sees it at a triage point.
struct RequestView {
  std::int64_t now_ns = 0;
  std::int64_t arrival_ns = 0;
  LatencyClass latency_class = LatencyClass::kInteractive;
  // Iteration-level scheduling (DESIGN.md §7): a parked generative session
  // re-entering admission for its next token. last_token_ns is when it
  // parked — a token-aware policy derives its deadline from that, not from
  // the session's original arrival, so EDF triage and shedding keep working
  // mid-stream.
  bool is_step = false;
  std::int64_t last_token_ns = -1;
  int tokens = 0;
};

enum class Verdict : std::uint8_t {
  kAdmit,  // run; admission order is ascending deadline_ns
  kDefer,  // deadline blown but within grace: sort after every admit
  kShed,   // drop without running; completes immediately as shed
};

struct Triage {
  Verdict verdict = Verdict::kAdmit;
  // Absolute deadline used as the admission sort key; max() = no deadline
  // (best-effort requests sort after everything with an SLO).
  std::int64_t deadline_ns = std::numeric_limits<std::int64_t>::max();
};

class BatchPolicy {
 public:
  virtual ~BatchPolicy() = default;
  virtual AdmitDecision decide(const PolicyCtx& ctx) = 0;
  // Default: admit everything, no deadline — arrival-order FIFO admission,
  // which is exactly the pre-fleet serve behavior.
  virtual Triage triage(const RequestView&) { return Triage{}; }
  // True when triage() can reorder or shed: the shard then runs the EDF
  // triage pass over its whole queue at every admission. False keeps FIFO
  // admission, which pops only what it admits.
  virtual bool triages() const { return false; }
  virtual const char* name() const = 0;
};

enum class PolicyKind {
  kGreedy,    // admit everything that has arrived; never hold a trigger
  kMaxBatch,  // cap the live pool at `max_batch` (bounds per-trigger width)
  kDeadline,  // greedy admission + hold triggers while the batch is small
              // and the oldest in-flight request still has SLO slack
};

struct PolicyConfig {
  PolicyKind kind = PolicyKind::kGreedy;
  std::size_t max_batch = 8;          // kMaxBatch
  std::size_t min_batch = 4;          // kDeadline: stop holding at this width
  std::int64_t slo_ns = 2'000'000;    // kDeadline: per-request latency target
  std::int64_t max_hold_ns = 200'000; // kDeadline: cap on one hold
  // kDeadline: hard cap on the live pool width (0 = uncapped). With
  // min_batch == max_admit the policy carves the arrival stream into
  // fixed-width triggers regardless of queue depth — batch composition
  // becomes a pure function of arrival order, not of timing.
  std::size_t max_admit = 0;
  // kDeadline: split the width budget into prefill vs decode sub-budgets
  // (0 = off). When set (requires max_admit > 0), max_admit gates *prefill*
  // admissions against non-decode live sessions only, and parked decode
  // steps are re-admitted in chunks of decode_admit per trigger window.
  // Trades the hard cap on concurrent sessions for flat TTFT at overload:
  // new arrivals keep entering while decode work is metered, so the live
  // session count is bounded by decode duration rather than max_admit.
  std::size_t decode_admit = 0;
};

std::unique_ptr<BatchPolicy> make_policy(const PolicyConfig& cfg);
const char* policy_name(PolicyKind kind);

}  // namespace acrobat::serve
