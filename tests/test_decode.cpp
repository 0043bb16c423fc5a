// Iteration-level scheduling acceptance (ISSUE 8 / DESIGN.md §7): the
// autoregressive Decoder's fiber parks at every kStepKeep token boundary
// and rejoins admission, so each trigger batches decode steps across
// sessions old and new.
//  (a) a single served session is bitwise-identical to a solo engine run —
//      the batching-never-changes-results invariant extends per token;
//  (b) the deterministic cohort recipe (all arrivals at t0, deadline policy
//      with min_batch == max_admit == cohort) makes batch composition a
//      pure function of arrival order: two runs agree exactly, and every
//      session still matches its solo outputs bitwise;
//  (c) soak: session-state, node-table, and arena watermarks plateau at
//      peak concurrent sessions while tokens scale with the trace;
//  (d) fleet: per-token deadlines cancel stalled sessions mid-stream (they
//      exit through the model's tail with valid prefix output), and the
//      fleet trace contract is validated loudly;
//  (e) the decode-aware width split gates prefills and decode steps
//      separately.
//
// ACROBAT_SERVE_REQUESTS bounds the soak (default 400 ≈ 6k+ tokens; the
// ctest entry registers a 64-request smoke).
#include "fleet/fleet.h"
#include "models/specs.h"
#include "serve/server.h"
#include "test_util.h"

#include <algorithm>
#include <cstdio>
#include <vector>

using namespace acrobat;
using acrobat::test::dies;
using acrobat::test::env_requests;

namespace {

models::Dataset solo_dataset(const models::Dataset& ds, std::size_t idx) {
  models::Dataset one;
  one.pool = ds.pool;
  one.tensors = ds.tensors;
  one.inputs.push_back(ds.inputs[idx]);
  return one;
}

std::vector<float> solo_outputs(const harness::Prepared& p, const models::Dataset& ds,
                                std::size_t idx) {
  harness::RunOptions o;
  o.collect_outputs = true;
  return harness::run_acrobat(p, solo_dataset(ds, idx), o).outputs.at(0);
}

std::vector<serve::Request> t0_trace(int n, std::size_t n_inputs) {
  std::vector<serve::Request> trace;
  for (int i = 0; i < n; ++i)
    trace.push_back(serve::Request{i, static_cast<std::size_t>(i) % n_inputs, 0});
  return trace;
}

// The deterministic cohort recipe (as in test_serve's recycling parity):
// everything arrives at t0 and the deadline policy holds the first trigger
// until the whole cohort is admitted (min_batch == max_admit == n, SLO and
// hold far beyond the run), so batch composition — including every decode
// step's width — is a pure function of arrival order, not of timing.
serve::ServeOptions cohort_opts(int n) {
  serve::ServeOptions so;
  so.collect_outputs = true;
  so.policy.kind = serve::PolicyKind::kDeadline;
  so.policy.min_batch = static_cast<std::size_t>(n);
  so.policy.max_admit = static_cast<std::size_t>(n);
  so.policy.slo_ns = 10'000'000'000;
  so.policy.max_hold_ns = 10'000'000'000;
  return so;
}

// (a) One served session == one solo run, bitwise. The serve path runs
// with recycling on (per-step span retirement + session checkpointing);
// the solo run is a plain closed-batch execution — agreement proves the
// checkpoint protocol is observation-free.
void test_single_session_matches_solo() {
  const models::ModelSpec& spec = models::model_by_name("Decoder");
  const models::Dataset ds = spec.build_dataset(false, 4, 11);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});

  for (std::size_t idx = 0; idx < ds.inputs.size(); ++idx) {
    std::vector<serve::Request> trace{serve::Request{0, idx, 0}};
    serve::ServeOptions so;
    so.collect_outputs = true;
    const serve::ServeResult res = serve::serve(p, ds, trace, so);

    const serve::RequestRecord& rec = res.records.at(0);
    CHECK(rec.completion_ns >= 0);
    CHECK(rec.tokens >= 1);
    CHECK(rec.tokens <= models::decoder_max_tokens(false));
    CHECK(rec.first_token_ns >= rec.arrival_ns);
    CHECK(rec.last_token_ns >= rec.first_token_ns);
    CHECK(!rec.cancelled);
    CHECK_EQ(res.tokens, rec.tokens);
    CHECK_EQ(res.ttft_ms.count, 1);
    CHECK_EQ(res.inter_token_ms.count, static_cast<std::size_t>(rec.tokens - 1));

    const std::vector<float> solo = solo_outputs(p, ds, idx);
    CHECK_EQ(rec.output.size(), solo.size());
    for (std::size_t i = 0; i < solo.size(); ++i)
      CHECK(rec.output[i] == solo[i]);  // bitwise, not approximate
  }
}

// bench/e2e's decode references take each input's token count as the VM's
// invocations of the kernel named decoder.stop, so no other call site may
// share that kernel. At both sizes and every ablation level, the count on
// one input must equal the tokens a solo serve() session reports for it.
void test_stop_kernel_counts_tokens() {
  const models::ModelSpec& spec = models::model_by_name("Decoder");
  for (const bool large : {false, true}) {
    const models::Dataset ds = spec.build_dataset(large, 3, 29);
    for (int level = 0; level <= 5; ++level) {
      const harness::Prepared p =
          harness::prepare(spec, large, passes::PipelineConfig::ablation_level(level));
      const KernelRegistry& reg = p.compiled.module.registry;
      std::size_t stop = reg.num_kernels();
      for (std::size_t k = 0; k < reg.num_kernels(); ++k)
        if (reg.kernel(static_cast<int>(k)).name == "decoder.stop") stop = k;
      CHECK(stop < reg.num_kernels());
      if (stop == reg.num_kernels()) continue;
      for (std::size_t idx = 0; idx < ds.inputs.size(); ++idx) {
        const harness::RunResult vm = harness::run_vm(p, solo_dataset(ds, idx), {});
        const std::vector<serve::Request> trace{serve::Request{0, idx, 0}};
        const serve::ServeResult served = serve::serve(p, ds, trace, serve::ServeOptions{});
        CHECK_EQ(vm.kernel_invocations.at(stop), served.records.at(0).tokens);
      }
    }
  }
}

// (b) Deterministic cohort: two identical runs agree on every counter and
// every output bit; co-batched sessions still match their solo outputs.
void test_cohort_deterministic_and_matches_solo() {
  const models::ModelSpec& spec = models::model_by_name("Decoder");
  const models::Dataset ds = spec.build_dataset(false, 6, 23);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});

  const int n = 6;
  const auto trace = t0_trace(n, ds.inputs.size());
  const serve::ServeResult a = serve::serve(p, ds, trace, cohort_opts(n));
  const serve::ServeResult b = serve::serve(p, ds, trace, cohort_opts(n));

  CHECK_EQ(a.shards.at(0).stats.kernel_launches, b.shards.at(0).stats.kernel_launches);
  CHECK_EQ(a.shards.at(0).stats.flat_batches, b.shards.at(0).stats.flat_batches);
  CHECK_EQ(a.shards.at(0).stats.stacked_batches, b.shards.at(0).stats.stacked_batches);
  CHECK_EQ(a.tokens, b.tokens);
  CHECK(a.tokens >= n);  // every session emitted at least one token
  CHECK_EQ(a.cancelled, 0);
  CHECK_EQ(a.ttft_ms.count, static_cast<std::size_t>(n));
  CHECK_EQ(a.inter_token_ms.count, static_cast<std::size_t>(a.tokens - n));

  // Sessions must have genuinely varied, input-dependent lengths — a
  // degenerate all-stop-immediately or all-ride-to-cap decoder would make
  // the iteration-level scheduler untestable.
  int min_tok = models::decoder_max_tokens(false) + 1, max_tok = 0;
  for (const serve::RequestRecord& rec : a.records) {
    min_tok = std::min(min_tok, rec.tokens);
    max_tok = std::max(max_tok, rec.tokens);
    CHECK_EQ(rec.tokens, b.records.at(static_cast<std::size_t>(rec.id)).tokens);
  }
  CHECK(min_tok < max_tok);

  for (const serve::RequestRecord& rec : a.records) {
    const auto& other = b.records.at(static_cast<std::size_t>(rec.id)).output;
    CHECK_EQ(rec.output.size(), other.size());
    for (std::size_t i = 0; i < rec.output.size(); ++i)
      CHECK(rec.output[i] == other[i]);
    const std::vector<float> solo =
        solo_outputs(p, ds, trace[static_cast<std::size_t>(rec.id)].input_index);
    CHECK_EQ(rec.output.size(), solo.size());
    for (std::size_t i = 0; i < solo.size(); ++i)
      CHECK(rec.output[i] == solo[i]);  // co-batching never changes results
  }
}

// (c) Soak: with recycling on, session buffers / node table / arena all
// plateau at peak concurrent sessions (the max-batch cap) — 4x the
// requests means ~4x the tokens but the same memory watermarks.
void test_session_memory_plateau() {
  const int n = env_requests(400);
  const int n_short = n >= 16 ? n / 4 : n;

  const models::ModelSpec& spec = models::model_by_name("Decoder");
  const models::Dataset ds = spec.build_dataset(false, 8, 29);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});

  const auto run = [&](int count) {
    serve::ServeOptions so;
    so.policy.kind = serve::PolicyKind::kMaxBatch;
    so.policy.max_batch = 8;  // caps concurrent sessions, parked included
    return serve::serve(p, ds, t0_trace(count, ds.inputs.size()), so);
  };

  const serve::ServeResult short_res = run(n_short);
  const serve::ServeResult long_res = run(n);
  const Engine::MemoryStats& sm = short_res.shards.at(0).mem;
  const Engine::MemoryStats& lm = long_res.shards.at(0).mem;

  std::printf("decode soak: %d vs %d requests | tokens %lld vs %lld | sessions peak "
              "%zu vs %zu | session KB %.0f vs %.0f | nodes %zu vs %zu | arenaKB %.0f "
              "vs %.0f\n",
              n_short, n, short_res.tokens, long_res.tokens, sm.session_buffers_peak,
              lm.session_buffers_peak,
              static_cast<double>(sm.session_bytes_allocated) / 1024.0,
              static_cast<double>(lm.session_bytes_allocated) / 1024.0,
              sm.node_table_size, lm.node_table_size,
              static_cast<double>(sm.arena_high_water_bytes) / 1024.0,
              static_cast<double>(lm.arena_high_water_bytes) / 1024.0);

  for (const serve::RequestRecord& r : long_res.records) CHECK(r.completion_ns >= 0);
  // Tokens scale with the trace...
  CHECK(long_res.tokens > 2 * short_res.tokens);
  // ...but session state plateaus at peak concurrency, not token count:
  CHECK(lm.session_buffers_peak <= 8);
  CHECK_EQ(lm.session_buffers_peak, sm.session_buffers_peak);
  CHECK(lm.session_bytes_allocated <= 2 * sm.session_bytes_allocated);
  CHECK_EQ(lm.session_buffers_live, 0);  // all returned to the pool at the end
  // Node table and arena plateau exactly as in the one-shot soak.
  CHECK(lm.node_table_size <= 2 * sm.node_table_size);
  CHECK(lm.arena_high_water_bytes <= 2 * sm.arena_high_water_bytes);
  CHECK_EQ(lm.leaked_slots, 0);
  CHECK(lm.nodes_recycled > 0);
}

// (d) Fleet: a tiny per-token deadline with shedding on cancels sessions
// mid-stream. Cancelled sessions still complete through the model's tail
// (valid output for the emitted prefix) and are counted as cancelled, not
// shed; a no-token-deadline contrast run cancels nothing.
void test_fleet_token_deadline_cancels() {
  fleet::ModelRegistry reg;
  const models::ModelSpec& spec = models::model_by_name("Decoder");
  reg.add(spec, false, spec.build_dataset(false, 6, 37));
  reg.prepare();

  const int n = 6;
  const auto run = [&](std::int64_t token_deadline_ns) {
    std::vector<serve::Request> trace = t0_trace(n, 6);
    fleet::FleetOptions fo;
    fo.collect_outputs = true;
    // No class deadline: only the per-token one is under test, and a
    // loaded machine must not shed sessions at arrival.
    fo.policy.deadline_ns = {0, 0, 0};
    fo.policy.token_deadline_ns = token_deadline_ns;
    return fleet::serve_fleet(reg, trace, fo);
  };

  // 1ns per token: every parked step is blown at triage time → cancel.
  const fleet::FleetResult cut = run(1);
  CHECK(cut.cancelled > 0);
  CHECK_EQ(cut.shed, 0);  // mid-stream cancel is not arrival-shedding
  for (const serve::RequestRecord& r : cut.records) {
    CHECK(r.completion_ns >= 0);  // tail still ran
    CHECK(!r.shed);
    CHECK(r.tokens >= 1);
    CHECK(!r.output.empty());  // prefix output stays valid
    if (r.cancelled) CHECK(r.tokens < models::decoder_max_tokens(false));
  }
  CHECK_EQ(cut.cancelled, cut.shards.at(0).cancelled);

  // No token deadline: nothing is cancelled, sessions run to their natural
  // stop, and the fleet worker reports the same token accounting serve does.
  const fleet::FleetResult free_run = run(0);
  CHECK_EQ(free_run.cancelled, 0);
  CHECK(free_run.tokens >= cut.tokens);  // uncut sessions emit at least as much
  CHECK_EQ(free_run.ttft_ms.count, static_cast<std::size_t>(n));
  CHECK(free_run.tokens_per_sec > 0);

  // The fleet trace contract is validated loudly at entry, like serve's.
  CHECK(dies([&] {
    auto bad = t0_trace(n, 6);
    bad[1].model_id = 42;  // outside the registry
    (void)fleet::serve_fleet(reg, bad, fleet::FleetOptions{});
  }));
  CHECK(dies([&] {
    auto bad = t0_trace(n, 6);
    bad[0].id = 3;  // re-numbered
    (void)fleet::serve_fleet(reg, bad, fleet::FleetOptions{});
  }));
}

// (e) Decode-aware width split: with decode_admit set, max_admit gates
// *prefill* admissions against non-decode live sessions only, and parked
// decode steps re-admit in decode_admit-sized chunks per trigger window.
void test_decode_split_budget() {
  // Unit: the split arithmetic, pinned against synthetic shard state.
  serve::PolicyConfig pc;
  pc.kind = serve::PolicyKind::kDeadline;
  pc.min_batch = 1;
  pc.slo_ns = 10'000'000'000;
  pc.max_hold_ns = 10'000'000'000;
  pc.max_admit = 4;
  pc.decode_admit = 2;
  const auto pol = serve::make_policy(pc);

  serve::PolicyCtx ctx;
  ctx.live = 6;
  ctx.live_decode = 4;  // prefill_live = 2 → room for 2 more prefills
  serve::AdmitDecision d = pol->decide(ctx);
  CHECK_EQ(d.max_admit, 2u);
  CHECK_EQ(d.max_step_admit, 2u);

  ctx.live = 8;
  ctx.live_decode = 2;  // prefill_live = 6 ≥ max_admit → no new prefills
  d = pol->decide(ctx);
  CHECK_EQ(d.max_admit, 0u);
  CHECK_EQ(d.max_step_admit, 2u);  // decode steps still metered through

  serve::PolicyConfig flat = pc;
  flat.decode_admit = 0;  // split off: classic hard cap, unlimited steps
  const auto pol2 = serve::make_policy(flat);
  ctx.live = 3;
  ctx.live_decode = 3;
  d = pol2->decide(ctx);
  CHECK_EQ(d.max_admit, 1u);
  CHECK(d.max_step_admit == static_cast<std::size_t>(-1));

  // End-to-end: the split changes *scheduling* only — every session still
  // matches its solo outputs bitwise, token counts are identical to the
  // hard-cap run, and the live pool is allowed to grow past max_admit
  // (decode sessions no longer consume prefill width).
  const models::ModelSpec& spec = models::model_by_name("Decoder");
  const models::Dataset ds = spec.build_dataset(false, 6, 23);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});
  const int n = 6;
  const auto trace = t0_trace(n, ds.inputs.size());

  const auto run = [&](std::size_t decode_admit) {
    serve::ServeOptions so;
    so.collect_outputs = true;
    so.policy.kind = serve::PolicyKind::kDeadline;
    so.policy.min_batch = 1;
    so.policy.slo_ns = 2'000'000;
    so.policy.max_hold_ns = 200'000;
    so.policy.max_admit = 3;
    so.policy.decode_admit = decode_admit;
    return serve::serve(p, ds, trace, so);
  };

  const serve::ServeResult capped = run(0);
  const serve::ServeResult split = run(2);

  CHECK(capped.shards.at(0).max_live <= 3);  // the hard cap really caps
  CHECK(split.shards.at(0).max_live >= capped.shards.at(0).max_live);
  CHECK_EQ(split.tokens, capped.tokens);  // lengths are input-dependent only
  CHECK_EQ(split.cancelled, 0);
  for (const serve::RequestRecord& rec : split.records) {
    CHECK(rec.completion_ns >= 0);
    const std::vector<float> solo =
        solo_outputs(p, ds, trace[static_cast<std::size_t>(rec.id)].input_index);
    CHECK_EQ(rec.output.size(), solo.size());
    for (std::size_t i = 0; i < solo.size(); ++i)
      CHECK(rec.output[i] == solo[i]);  // metered steps never change results
  }
}

}  // namespace

int main() {
  test_single_session_matches_solo();
  test_stop_kernel_counts_tokens();
  test_cohort_deterministic_and_matches_solo();
  test_session_memory_plateau();
  test_fleet_token_deadline_cancels();
  test_decode_split_budget();
  return acrobat::test::finish("test_decode");
}
