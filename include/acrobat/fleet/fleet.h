// acrobat/fleet — multi-model serving over the serve layer (DESIGN.md §8).
//
// A fleet run plays a mixed-model request trace against shard workers
// built from a ModelRegistry. Each shard runs the serve layer's shard loop
// over one merged engine hosting every model, so fibers from every model
// share one trigger cadence, node table and recycling arena (per-model
// persistent regions). The dispatcher routes each request to the
// least-loaded shard (or round-robin), the FleetPolicy sheds
// requests whose deadline is already blown, and results report shed count
// and goodput (SLO attainment) alongside the latency tail.
//
// Two client modes: open-loop (replay a generate_load trace in real time —
// arrivals never wait, queueing counts) and closed-loop (K concurrent
// clients, each issuing its next request only after the previous one
// completes plus a think time — the classic contrast whose measured
// latency cannot exceed what K outstanding requests can queue).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "fleet/policy.h"
#include "fleet/registry.h"
#include "serve/server.h"

namespace acrobat::fleet {

struct FleetOptions {
  int shards = 1;
  serve::DispatchKind dispatch = serve::DispatchKind::kLeastLoaded;
  FleetPolicyConfig policy;
  std::int64_t launch_overhead_ns = 0;
  bool collect_outputs = false;
  bool time_activities = false;
  // Observability (DESIGN.md §9), as in serve::ServeOptions. The slow-
  // request exemplar threshold defaults to each request's own class
  // deadline when slow_threshold_ns is 0.
  trace::TraceOptions trace;
};

// Aborts loudly on nonsense (shards <= 0, a negative launch overhead or
// policy time).
void validate(const FleetOptions& opts);

struct ClassReport {
  int requests = 0;
  int shed = 0;
  serve::Percentiles latency_ms;  // completed (non-shed) requests only
  double goodput = 0;  // met deadline (or completed, if class has none) / requests
};

// The serve-layer totals (latency, throughput, makespan and the decode
// split over completed, non-shed requests; shard reports; trace dump)
// plus the fleet's admission-control view.
struct FleetResult : serve::ServeResult {
  long long shed = 0;
  // Fraction of ALL requests that completed within their class deadline
  // (sheds and no-deadline non-completions count as misses; classes with
  // no deadline count completion itself as success).
  double goodput = 0;
  std::array<ClassReport, serve::kNumLatencyClasses> by_class;

  std::size_t peak_persist_bytes() const {
    std::size_t m = 0;
    for (const serve::ShardReport& s : shards)
      m = std::max(m, s.mem.persist_arena_high_water_bytes);
    return m;
  }
};

// Open-loop: `trace` must be sorted by arrival_ns with ids 0..N-1 and every
// model_id/input_index valid for `reg` (generate_load over reg mixes
// guarantees this). Blocks until every request has completed or been shed.
FleetResult serve_fleet(const ModelRegistry& reg, const std::vector<serve::Request>& trace,
                        const FleetOptions& opts);

// Closed-loop client population: `clients` concurrent logical users, each
// issuing `per_client` requests back to back — the next request is issued
// only after the previous one completes plus an exponential think time
// with mean `think_mean_ms` (0 = reissue immediately).
struct ClosedLoopSpec {
  int clients = 4;
  int per_client = 8;
  double think_mean_ms = 0.5;
  std::uint64_t seed = 1;
};

void validate(const ClosedLoopSpec& spec);

// Deterministic request *content* for a closed-loop run: client c owns ids
// [c*per_client, (c+1)*per_client) in issue order; model/input/class are
// drawn from `mix` under spec.seed. arrival_ns is 0 here — the dispatcher
// stamps it at issue time, because in a closed loop arrivals depend on
// completions by construction.
std::vector<serve::Request> generate_closed_load(const ClosedLoopSpec& spec,
                                                 const std::vector<serve::ModelMix>& mix);

FleetResult serve_fleet_closed(const ModelRegistry& reg, const ClosedLoopSpec& spec,
                               const std::vector<serve::ModelMix>& mix,
                               const FleetOptions& opts);

}  // namespace acrobat::fleet
