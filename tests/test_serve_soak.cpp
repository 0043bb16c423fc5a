// Steady-state soak (DESIGN.md §7 "Recycling"): drive thousands of
// requests through a 1-shard server, which always recycles, and assert the
// shard's node table and arena high-water mark PLATEAU — the run over the
// full trace must stay within 2x of the run over its short prefix, i.e.
// memory is bounded by peak concurrency, not by the request count.
//
// ACROBAT_SERVE_REQUESTS overrides the trace length (default 5000; CI
// registers a reduced-count smoke). The trace seed goes through
// acrobat::test::seed, so ACROBAT_TEST_SEED reproduces a CI failure.
#include "models/specs.h"
#include "serve/server.h"
#include "test_util.h"

#include <cstdio>
#include <cstdlib>

using namespace acrobat;

namespace {

using acrobat::test::env_requests;

// All arrivals at t=0: the dispatcher floods the shard and max-batch
// admission turns the run into a long sequence of recycle epochs at a
// fixed peak concurrency — the densest possible slot/page churn, with no
// real-time waiting.
std::vector<serve::Request> flood_trace(const std::vector<serve::Request>& full, int n) {
  return {full.begin(), full.begin() + n};
}

serve::ServeResult run(const harness::Prepared& p, const models::Dataset& ds,
                       const std::vector<serve::Request>& trace) {
  serve::ServeOptions so;
  so.policy.kind = serve::PolicyKind::kMaxBatch;
  so.policy.max_batch = 8;
  return serve::serve(p, ds, trace, so);
}

void test_soak_memory_plateau() {
  const int n = env_requests(5000);
  const int n_short = n >= 1000 ? 500 : (n >= 40 ? n / 4 : n);

  const models::ModelSpec& spec = models::model_by_name("BiRNN");
  const models::Dataset ds = spec.build_dataset(false, 8, 29);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});

  serve::LoadSpec ls;
  ls.num_requests = n;
  ls.rate_rps = 1e12;  // effectively simultaneous arrivals
  ls.seed = acrobat::test::seed(31);
  const std::vector<serve::Request> full = serve::generate_load(ls, ds.inputs.size());

  const serve::ServeResult short_res = run(p, ds, flood_trace(full, n_short));
  const serve::ServeResult long_res = run(p, ds, full);

  for (const serve::RequestRecord& r : long_res.records) CHECK(r.completion_ns >= 0);
  CHECK_EQ(long_res.shards.at(0).requests, n);

  const Engine::MemoryStats& sm = short_res.shards.at(0).mem;
  const Engine::MemoryStats& lm = long_res.shards.at(0).mem;
  std::printf("soak: %d vs %d requests | nodes %zu vs %zu | arenaKB %.0f vs %.0f | "
              "recycled nodes %lld pages %lld | leaked slots %lld | sched allocs %lld vs %lld\n",
              n_short, n, sm.node_table_size, lm.node_table_size,
              static_cast<double>(sm.arena_high_water_bytes) / 1024.0,
              static_cast<double>(lm.arena_high_water_bytes) / 1024.0,
              lm.nodes_recycled, lm.arena_pages_recycled, lm.leaked_slots,
              short_res.shards.at(0).stats.scheduling_allocs,
              long_res.shards.at(0).stats.scheduling_allocs);

  // The plateau: 10x the requests, ~same memory.
  CHECK(lm.node_table_size <= 2 * sm.node_table_size);
  CHECK(lm.arena_high_water_bytes <= 2 * sm.arena_high_water_bytes);
  // No request ever retired with pending ops (the Release-mode leak path
  // retire_request counts instead of hiding).
  CHECK_EQ(lm.leaked_slots, 0);
  // Scheduler scratch plateaus with the working set, not the trace: 10x the
  // requests may not 2x the allocation events (steady state adds zero).
  CHECK(long_res.shards.at(0).stats.scheduling_allocs <=
        2 * short_res.shards.at(0).stats.scheduling_allocs);
  // The recycler actually ran, and shutdown drained to the persistent set.
  CHECK(lm.nodes_recycled > 0);
  CHECK(lm.live_nodes < lm.node_table_size);  // drained to the persistent set
  CHECK(lm.live_nodes_peak <= lm.node_table_size);
  // Fiber stacks already plateaued pre-recycling; they must still.
  CHECK(long_res.shards.at(0).stacks_allocated <=
        static_cast<long long>(long_res.shards.at(0).max_live) + 1);
}

}  // namespace

int main() {
  test_soak_memory_plateau();
  return acrobat::test::finish("test_serve_soak");
}
