// Differential proof that schedule memoization is invisible (ISSUE 6).
//
// A seeded generator builds random DFG traces over the full op vocabulary
// the 8 models use — random op mix, shapes, phases, depths, shared and
// scattered operands, mid-trace triggers — and replays every trace three
// times into two engines that differ ONLY in EngineConfig::sched_memo. The
// memo engine must be bit-for-bit indistinguishable: identical outputs,
// identical kernel_launches / flat_batches / stacked_batches / gather_bytes
// per pass, and (because pass 3 recurs pass 2's trigger structure) a
// nonzero hit count proving the cache actually replayed. The sweep covers
// both schedulers and rotates inline_depth / gather_fusion /
// shape_keyed_batching / fuse_waves off the seed bits.
//
// ACROBAT_SERVE_REQUESTS bounds the number of seeds (default 50; CI's
// sanitize job pins it back to 50). ACROBAT_TEST_SEED overrides the base
// seed; every failure prints the exact per-trace seed to rerun with.
//
// The targeted tests below the sweep pin the invalidation surface: a
// changed attr (kernel identity), shape, or PGO-chosen variant must MISS;
// replay through a gather-staging batch must re-stage (never reuse stale
// pointers); and a bounded cache must evict LRU-first without ever serving
// a wrong plan.
#include <cstdio>
#include <cstring>
#include <vector>

#include "engine/engine.h"
#include "support/rng.h"
#include "test_util.h"

using namespace acrobat;

namespace {

// ---------------------------------------------------------------- fixture

// Value shape classes the generator tracks pools for. kM* classes are
// weight-like: only concrete tensors feed them.
enum ShapeClass : int {
  kV8 = 0,  // RowVec(8)
  kV16,     // RowVec(16): concat2 output
  kV24,     // RowVec(24): GRU gates
  kV32,     // RowVec(32): LSTM gates
  kV40,     // RowVec(40): concat5 output (sink)
  kS1,      // Shape(1): whole-batch reductions (sinks)
  kM8,      // Shape(8,8) parameter
  kM24,     // Shape(24,8) parameter
  kM32,     // Shape(32,8) parameter
  kM816,    // Shape(8,16) parameter: kLinear over [x;h]
  kNumClasses
};

Shape class_shape(int c) {
  switch (c) {
    case kV8: return RowVec(8);
    case kV16: return RowVec(16);
    case kV24: return RowVec(24);
    case kV32: return RowVec(32);
    case kV40: return RowVec(40);
    case kS1: return Shape(1);
    case kM8: return Shape(8, 8);
    case kM24: return Shape(24, 8);
    case kM32: return Shape(32, 8);
    default: return Shape(8, 16);
  }
}

struct OpSpec {
  const char* name;
  OpKind op;
  std::int64_t attr;
  int arity;
  int out;
  int in[5];
};

// The whole vocabulary: dense family, elementwise, fused pointwise, coarse
// cells, structural and reduction kinds.
const OpSpec kOps[] = {
    {"g.dense8", OpKind::kDense, 0, 2, kV8, {kV8, kM8}},
    {"g.dense24", OpKind::kDense, 0, 2, kV24, {kV8, kM24}},
    {"g.dense32", OpKind::kDense, 0, 2, kV32, {kV8, kM32}},
    {"g.matmul", OpKind::kMatMul, 0, 2, kV8, {kV8, kM8}},
    {"g.matmulbt", OpKind::kMatMulBT, 0, 2, kV8, {kV8, kM8}},
    {"g.add", OpKind::kAdd, 0, 2, kV8, {kV8, kV8}},
    {"g.sub", OpKind::kSub, 0, 2, kV8, {kV8, kV8}},
    {"g.mul", OpKind::kMul, 0, 2, kV8, {kV8, kV8}},
    {"g.tanh", OpKind::kTanh, 0, 1, kV8, {kV8}},
    {"g.sigmoid", OpKind::kSigmoid, 0, 1, kV8, {kV8}},
    {"g.relu", OpKind::kRelu, 0, 1, kV8, {kV8}},
    {"g.scale", OpKind::kScale, 1500000, 1, kV8, {kV8}},
    {"g.softmax", OpKind::kSoftmax, 0, 1, kV8, {kV8}},
    {"g.abt", OpKind::kAddBiasTanh, 0, 3, kV8, {kV8, kV8, kV8}},
    {"g.abs", OpKind::kAddBiasSigmoid, 0, 3, kV8, {kV8, kV8, kV8}},
    {"g.fma2", OpKind::kFma2, 0, 4, kV8, {kV8, kV8, kV8, kV8}},
    {"g.multanh", OpKind::kMulTanh, 0, 2, kV8, {kV8, kV8}},
    {"g.lstmc", OpKind::kLstmNewC, 0, 2, kV8, {kV32, kV8}},
    {"g.lstmh", OpKind::kLstmNewH, 0, 2, kV8, {kV32, kV8}},
    {"g.gru", OpKind::kGruPoint, 0, 2, kV8, {kV24, kV8}},
    // kLinear, each epilogue, both forms (x alone, and [x;h]); the bias is
    // any V8 value, so shared-bias row-pointer calls and per-op fallbacks
    // both occur.
    {"g.lin", OpKind::kLinear, kLinearIdentity, 3, kV8, {kV8, kM8, kV8}},
    {"g.lin_tanh", OpKind::kLinear, kLinearTanh, 4, kV8, {kV8, kV8, kM816, kV8}},
    {"g.lin_soft", OpKind::kLinear, kLinearSoftmax, 3, kV8, {kV8, kM8, kV8}},
    {"g.lin_soft2", OpKind::kLinear, kLinearSoftmax, 4, kV8, {kV8, kV8, kM816, kV8}},
    {"g.concat2", OpKind::kConcat, 1, 2, kV16, {kV8, kV8}},
    {"g.tanh16", OpKind::kTanh, 0, 1, kV16, {kV16}},
    // Variable arity above the inline small-vector bound: exercises the
    // InsList heap spill and the engine-executed concat loop.
    {"g.concat5", OpKind::kConcat, 1, 5, kV40, {kV8, kV8, kV8, kV8, kV8}},
    {"g.zeros", OpKind::kZeros, 8, 0, kV8, {}},
    {"g.sumall", OpKind::kSumAll, 0, 1, kS1, {kV8}},
    {"g.maxprob", OpKind::kMaxProb, 0, 1, kS1, {kV8}},
};
constexpr int kNumOps = static_cast<int>(sizeof(kOps) / sizeof(kOps[0]));

struct Fixture {
  KernelRegistry reg;
  TensorPool pool;
  std::vector<int> kernel_ids;    // per OpSpec
  std::vector<Tensor> tensors;    // concrete inputs
  std::vector<int> tensor_class;  // ShapeClass per tensor

  explicit Fixture(Rng& rng) {
    for (const OpSpec& os : kOps) {
      Shape reps[4];
      const int rep_arity = os.arity > 4 ? 2 : os.arity;  // registry cap
      for (int j = 0; j < rep_arity; ++j) reps[j] = class_shape(os.in[j]);
      kernel_ids.push_back(
          reg.add(os.name, os.op, os.attr, rep_arity, rep_arity ? reps : nullptr));
    }
    // Per-seed PGO state: random schedule variants, shared by both engines.
    for (const int id : kernel_ids) {
      Kernel& k = reg.kernel(id);
      k.variant = rng.uniform_int(k.num_variants);
    }
    // Concrete inputs: several V8 activations (shared/scattered operand
    // draws) and two M8 parameters (shared-parameter stacking vs split
    // first-argument classes), one each of the gate-sized parameters.
    const int counts[kNumClasses] = {4, 0, 0, 0, 0, 0, 2, 1, 1, 1};
    for (int c = 0; c < kNumClasses; ++c)
      for (int i = 0; i < counts[c]; ++i) {
        tensors.push_back(pool.alloc_random(class_shape(c), rng, 0.8f));
        tensor_class.push_back(c);
      }
  }
};

// --------------------------------------------------------------- generator

struct TraceStep {
  enum Kind { kConcrete, kOp, kTrigger } kind = kTrigger;
  int a = 0;  // kConcrete: fixture tensor index; kOp: OpSpec index
  int phase = 0;
  std::vector<int> args;  // kOp: value indices
};

struct Trace {
  std::vector<TraceStep> steps;
  int n_values = 0;
};

Trace make_trace(const Fixture& f, Rng& rng) {
  Trace t;
  std::vector<std::vector<int>> pool(kNumClasses);
  std::vector<int> vphase;
  for (std::size_t i = 0; i < f.tensors.size(); ++i) {
    TraceStep st;
    st.kind = TraceStep::kConcrete;
    st.a = static_cast<int>(i);
    t.steps.push_back(st);
    pool[f.tensor_class[i]].push_back(t.n_values);
    vphase.push_back(0);
    ++t.n_values;
  }
  const int n_ops = 30 + rng.uniform_int(91);
  int made = 0;
  for (int guard = 0; made < n_ops && guard < n_ops * 20; ++guard) {
    const int oi = rng.uniform_int(kNumOps);
    const OpSpec& os = kOps[oi];
    bool feasible = true;
    for (int j = 0; j < os.arity; ++j)
      if (pool[os.in[j]].empty()) {
        feasible = false;
        break;
      }
    if (!feasible) continue;
    TraceStep st;
    st.kind = TraceStep::kOp;
    st.a = oi;
    int ph = 0;
    for (int j = 0; j < os.arity; ++j) {
      const std::vector<int>& p = pool[os.in[j]];
      const int v = p[rng.uniform_int(static_cast<int>(p.size()))];
      st.args.push_back(v);
      if (vphase[v] > ph) ph = vphase[v];
    }
    // Phase tags stay monotone along dependencies (the builders' contract);
    // occasional bumps exercise the phase>0 readiness-wave scheduler.
    // Zero-arity consts stay at phase 0: const_reuse aliases every such op
    // to one cached node, so a phase-bumped const would leak its tag to
    // structurally-phase-0 consumers elsewhere in the trace.
    if (os.arity > 0 && ph < 2 && rng.uniform_int(8) == 0) ++ph;
    st.phase = ph;
    t.steps.push_back(std::move(st));
    pool[os.out].push_back(t.n_values);
    vphase.push_back(ph);
    ++t.n_values;
    ++made;
    if (rng.uniform_int(12) == 0) t.steps.push_back(TraceStep{});  // mid-trace trigger
  }
  return t;
}

// ------------------------------------------------------------------ apply

struct PassCounters {
  long long launches = 0, flat = 0, stacked = 0, gather_bytes = 0;
  long long hits = 0, misses = 0;
};

// Replays the trace `passes` times into one engine. Concrete tensors are
// wrapped once (pass 0) and reused — like weights in a server — so
// recurring passes present recurring trigger structure.
std::vector<std::vector<float>> apply(const Fixture& f, const Trace& t, EngineConfig cfg,
                                      int passes, std::vector<PassCounters>& per_pass) {
  Engine eng(f.reg, cfg);
  std::vector<std::vector<float>> out;
  std::vector<TRef> cvals;
  ActivityStats prev;
  for (int p = 0; p < passes; ++p) {
    InstCtx ctx{p};
    std::vector<TRef> vals;
    vals.reserve(static_cast<std::size_t>(t.n_values));
    std::size_t c_idx = 0;
    for (const TraceStep& st : t.steps) {
      switch (st.kind) {
        case TraceStep::kConcrete:
          if (p == 0) cvals.push_back(eng.add_concrete(f.tensors[st.a].view()));
          vals.push_back(cvals[c_idx++]);
          break;
        case TraceStep::kOp: {
          TRef ins[8];
          for (std::size_t j = 0; j < st.args.size(); ++j)
            ins[j] = vals[static_cast<std::size_t>(st.args[j])];
          vals.push_back(eng.add_op(f.kernel_ids[st.a], ins,
                                    static_cast<int>(st.args.size()), ctx, st.phase));
          break;
        }
        case TraceStep::kTrigger:
          eng.trigger_execution();
          break;
      }
    }
    eng.trigger_execution();
    std::vector<float> flat;
    for (const TRef v : vals) {
      const Tensor tt = eng.force(v);
      flat.insert(flat.end(), tt.data, tt.data + tt.numel());
    }
    out.push_back(std::move(flat));
    const ActivityStats& s = eng.stats();
    PassCounters pc;
    pc.launches = s.kernel_launches - prev.kernel_launches;
    pc.flat = s.flat_batches - prev.flat_batches;
    pc.stacked = s.stacked_batches - prev.stacked_batches;
    pc.gather_bytes = s.gather_bytes - prev.gather_bytes;
    pc.hits = s.sched_cache_hits - prev.sched_cache_hits;
    pc.misses = s.sched_cache_misses - prev.sched_cache_misses;
    per_pass.push_back(pc);
    prev = s;
  }
  return out;
}

// ------------------------------------------------------ differential sweep

void run_one_seed(std::uint64_t seed) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  Fixture f(rng);
  const Trace t = make_trace(f, rng);

  for (int si = 0; si < 2; ++si) {
    EngineConfig cfg;
    cfg.scheduler = si == 0 ? SchedulerKind::kDepth : SchedulerKind::kAgenda;
    cfg.inline_depth = ((seed >> 1) & 1) != 0;
    cfg.gather_fusion = ((seed >> 2) & 1) != 0;
    cfg.shape_keyed_batching = ((seed >> 3) & 1) != 0;
    cfg.fuse_waves = si == 0 && ((seed >> 4) & 1) != 0;

    EngineConfig on = cfg;
    on.sched_memo = true;
    std::vector<PassCounters> pc_on, pc_off;
    const auto out_on = apply(f, t, on, 3, pc_on);
    const auto out_off = apply(f, t, cfg, 3, pc_off);

    for (int p = 0; p < 3; ++p) {
      CHECK_EQ(out_on[p].size(), out_off[p].size());
      CHECK(std::memcmp(out_on[p].data(), out_off[p].data(),
                        out_on[p].size() * sizeof(float)) == 0);
      CHECK_EQ(pc_on[p].launches, pc_off[p].launches);
      CHECK_EQ(pc_on[p].flat, pc_off[p].flat);
      CHECK_EQ(pc_on[p].stacked, pc_off[p].stacked);
      CHECK_EQ(pc_on[p].gather_bytes, pc_off[p].gather_bytes);
      CHECK_EQ(pc_off[p].hits + pc_off[p].misses, 0);  // cache-off: untouched
    }
    // Pass 3 recurs pass 2's trigger structure exactly (the constant cache
    // makes pass 2 differ from pass 1), so the cache must have replayed.
    CHECK(pc_on[2].hits > 0);
    CHECK_EQ(pc_on[2].misses, 0);
  }
}

void test_differential_sweep() {
  const std::uint64_t base = acrobat::test::seed(0x6e0d1ffull);
  const int n_seeds = acrobat::test::env_requests(50);
  for (int i = 0; i < n_seeds; ++i) {
    // Record the per-trace seed so a CHECK failure prints the exact rerun.
    acrobat::test::g_seed = base + static_cast<std::uint64_t>(i);
    run_one_seed(base + static_cast<std::uint64_t>(i));
  }
  acrobat::test::g_seed = base;
  std::printf("differential sweep: %d seeds x 2 schedulers x 3 passes\n", n_seeds);
}

// ------------------------------------------------------ invalidation tests

// Small fixed fixture for the targeted tests.
struct Mini {
  KernelRegistry reg;
  TensorPool pool;
  Rng rng{acrobat::test::seed(0x6e0d1ffull) ^ 0x7ull};
  int k_dense, k_tanh, k_scale2, k_scale3;
  Tensor w, x8, x8b, x16;

  Mini() {
    const Shape v8 = RowVec(8), v16 = RowVec(16), m8(8, 8);
    const Shape rd[2] = {v8, m8};
    k_dense = reg.add("m.dense", OpKind::kDense, 0, 2, rd);
    k_tanh = reg.add("m.tanh", OpKind::kTanh, 0, 1, rd);
    // Same op, same shapes, different attr: distinct kernel identities.
    k_scale2 = reg.add("m.scale2", OpKind::kScale, 2000000, 1, rd);
    k_scale3 = reg.add("m.scale3", OpKind::kScale, 3000000, 1, rd);
    // x16 sits between the two V8 tensors so x8/x8b are NOT back-to-back in
    // the pool — the gather-restage test needs genuinely scattered rows.
    w = pool.alloc_random(m8, rng, 0.5f);
    x8 = pool.alloc_random(v8, rng, 1.0f);
    x16 = pool.alloc_random(v16, rng, 1.0f);
    x8b = pool.alloc_random(v8, rng, 1.0f);
  }

  static EngineConfig memo_config() {
    EngineConfig cfg;
    cfg.sched_memo = true;
    return cfg;
  }
};

// A PGO retune (kernel variant mutated in place, exactly what the tuner
// does) must invalidate: same structure, new variant → MISS, and the
// replayed round's outputs must match a from-scratch engine at the new
// variant bitwise.
void test_variant_invalidation() {
  Mini m;
  Engine eng(m.reg, Mini::memo_config());
  const TRef xr = eng.add_concrete(m.x8.view());
  const TRef wr = eng.add_concrete(m.w.view());
  const InstCtx ctx{0};

  auto round = [&]() {
    const TRef ins[2] = {xr, wr};
    const TRef d = eng.add_op(m.k_dense, ins, 2, ctx, 0);
    const TRef o = eng.add_op(m.k_tanh, &d, 1, ctx, 0);
    eng.trigger_execution();
    return eng.force(o);
  };

  Kernel& dk = m.reg.kernel(m.k_dense);
  dk.variant = 1;
  const Tensor r1 = round();
  CHECK_EQ(eng.stats().sched_cache_misses, 1);
  round();
  CHECK_EQ(eng.stats().sched_cache_hits, 1);

  dk.variant = 0;  // the tuner picked a different schedule
  const Tensor r3 = round();
  CHECK_EQ(eng.stats().sched_cache_hits, 1);  // no stale-plan replay
  CHECK_EQ(eng.stats().sched_cache_misses, 2);

  // Cross-check against an untouched engine running variant 0 from scratch.
  Engine ref(m.reg, EngineConfig{});
  const TRef xr2 = ref.add_concrete(m.x8.view());
  const TRef wr2 = ref.add_concrete(m.w.view());
  const TRef ins2[2] = {xr2, wr2};
  const TRef d2 = ref.add_op(m.k_dense, ins2, 2, ctx, 0);
  const TRef o2 = ref.add_op(m.k_tanh, &d2, 1, ctx, 0);
  const Tensor rr = ref.force(o2);
  CHECK(std::memcmp(r3.data, rr.data, sizeof(float) * 8) == 0);
  (void)r1;
  dk.variant = dk.num_variants - 1;
}

// Attr rides on kernel identity: two kernels differing only in attr may
// never share a plan entry.
void test_attr_keys_separate() {
  Mini m;
  Engine eng(m.reg, Mini::memo_config());
  const TRef xr = eng.add_concrete(m.x8.view());
  const InstCtx ctx{0};

  const TRef a = eng.add_op(m.k_scale2, &xr, 1, ctx, 0);
  eng.trigger_execution();
  const TRef b = eng.add_op(m.k_scale3, &xr, 1, ctx, 0);
  eng.trigger_execution();
  CHECK_EQ(eng.stats().sched_cache_hits, 0);
  CHECK_EQ(eng.stats().sched_cache_misses, 2);
  // And the attrs really executed differently (x2 vs x3).
  const Tensor ta = eng.force(a), tb = eng.force(b);
  for (int i = 0; i < 8; ++i) CHECK_NEAR(tb.data[i], ta.data[i] * 1.5f, 1e-6);
}

// Same kernel, different input shape → different signature → MISS; the
// original shape still hits afterwards.
void test_shape_invalidation() {
  Mini m;
  Engine eng(m.reg, Mini::memo_config());
  const TRef x8 = eng.add_concrete(m.x8.view());
  const TRef x16 = eng.add_concrete(m.x16.view());
  const InstCtx ctx{0};

  eng.add_op(m.k_tanh, &x8, 1, ctx, 0);
  eng.trigger_execution();
  eng.add_op(m.k_tanh, &x16, 1, ctx, 0);
  eng.trigger_execution();
  CHECK_EQ(eng.stats().sched_cache_hits, 0);
  CHECK_EQ(eng.stats().sched_cache_misses, 2);
  eng.add_op(m.k_tanh, &x8, 1, ctx, 0);
  eng.trigger_execution();
  CHECK_EQ(eng.stats().sched_cache_hits, 1);
}

// Gather-mode replay safety: with gather fusion off, a stacked batch over
// scattered rows stages an explicit copy. A replayed plan must RE-stage
// from live pointers — gather bytes double, outputs stay bitwise equal to
// a cache-off engine.
void test_gather_restaged_on_replay() {
  Mini m;
  EngineConfig cfg = Mini::memo_config();
  cfg.gather_fusion = false;
  Engine eng(m.reg, cfg);
  EngineConfig off = cfg;
  off.sched_memo = false;
  Engine ref(m.reg, off);
  const InstCtx ctx{0};

  auto round = [&](Engine& e, const TRef* xs, TRef wr) {
    const TRef i0[2] = {xs[0], wr};
    const TRef i1[2] = {xs[1], wr};
    const TRef a = e.add_op(m.k_dense, i0, 2, ctx, 0);
    const TRef b = e.add_op(m.k_dense, i1, 2, ctx, 0);
    e.trigger_execution();
    return std::make_pair(e.force(a), e.force(b));
  };

  const TRef exs[2] = {eng.add_concrete(m.x8.view()), eng.add_concrete(m.x8b.view())};
  const TRef ewr = eng.add_concrete(m.w.view());
  const TRef rxs[2] = {ref.add_concrete(m.x8.view()), ref.add_concrete(m.x8b.view())};
  const TRef rwr = ref.add_concrete(m.w.view());

  round(eng, exs, ewr);
  const long long bytes1 = eng.stats().gather_bytes;
  CHECK(bytes1 > 0);  // the two xs come from separate pool allocations
  CHECK_EQ(eng.stats().stacked_batches, 1);

  const auto [a2, b2] = round(eng, exs, ewr);
  CHECK_EQ(eng.stats().sched_cache_hits, 1);
  CHECK_EQ(eng.stats().gather_bytes, 2 * bytes1);  // re-staged, not reused
  CHECK_EQ(eng.stats().stacked_batches, 2);

  round(ref, rxs, rwr);
  const auto [ra, rb] = round(ref, rxs, rwr);
  CHECK(std::memcmp(a2.data, ra.data, sizeof(float) * 8) == 0);
  CHECK(std::memcmp(b2.data, rb.data, sizeof(float) * 8) == 0);
}

// Bounded capacity with LRU-ish eviction: three distinct structures cycled
// through a 2-entry cache never hit and evict deterministically; the same
// cycle under a roomier cache hits every repeat.
void test_capacity_eviction() {
  Mini m;
  const auto cycle = [&](Engine& eng, TRef xr) {
    const InstCtx ctx{0};
    for (int len = 1; len <= 3; ++len) {
      TRef v = xr;
      for (int i = 0; i < len; ++i) v = eng.add_op(m.k_tanh, &v, 1, ctx, 0);
      eng.trigger_execution();
    }
  };

  EngineConfig tight = Mini::memo_config();
  tight.sched_memo_capacity = 2;
  Engine eng(m.reg, tight);
  const TRef xr = eng.add_concrete(m.x8.view());
  cycle(eng, xr);
  cycle(eng, xr);
  CHECK_EQ(eng.stats().sched_cache_hits, 0);
  CHECK_EQ(eng.stats().sched_cache_misses, 6);
  CHECK_EQ(eng.stats().sched_cache_evictions, 4);

  Engine roomy(m.reg, Mini::memo_config());
  const TRef xr2 = roomy.add_concrete(m.x8.view());
  cycle(roomy, xr2);
  cycle(roomy, xr2);
  CHECK_EQ(roomy.stats().sched_cache_hits, 3);
  CHECK_EQ(roomy.stats().sched_cache_misses, 3);
  CHECK_EQ(roomy.stats().sched_cache_evictions, 0);
}

}  // namespace

int main() {
  test_differential_sweep();
  test_variant_invalidation();
  test_attr_keys_separate();
  test_shape_invalidation();
  test_gather_restaged_on_replay();
  test_capacity_eviction();
  return acrobat::test::finish("test_sched_memo");
}
