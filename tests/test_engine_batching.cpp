// The engine's batching invariant: same-signature ops recorded by N
// instances collapse into one kernel launch (and eager mode into N), with
// numerics identical either way.
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <new>
#include <tuple>
#include <utility>

#include "engine/engine.h"
#include "exec/aot.h"
#include "harness/harness.h"
#include "models/specs.h"
#include "support/rng.h"
#include "test_util.h"

// Counting global allocator: test_record_op_ins_inline measures how many
// heap allocations DFG construction performs per recorded op,
// test_node_table_no_heap how many the node table makes, and
// test_aot_warm_run_allocations how many a warm AOT run makes. Counting is
// gated so only the measurement window is observed; storage is plain
// malloc/free, which keeps sanitizer builds honest (ASan still tracks the
// underlying blocks). Not inlined: GCC's -Wmismatched-new-delete would
// otherwise pair the inlined free() with the library's operator new.
namespace {
bool g_count_news = false;
long long g_news = 0;
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  if (g_count_news) ++g_news;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

using namespace acrobat;

namespace {

struct Fixture {
  KernelRegistry reg;
  TensorPool pool;
  Rng rng{7};
  int k_dense, k_tanh, k_zero;

  Fixture() {
    const Shape x(8), w(8, 8);
    const Shape reps[2] = {x, w};
    k_dense = reg.add("t.dense", OpKind::kDense, 0, 2, reps);
    k_tanh = reg.add("t.tanh", OpKind::kTanh, 0, 1, reps);
    k_zero = reg.add("t.zero", OpKind::kZeros, 8, 0, nullptr);
  }
};

void test_same_signature_collapses() {
  Fixture f;
  EngineConfig cfg;
  Engine eng(f.reg, cfg);
  const Tensor w = f.pool.alloc_random(Shape(8, 8), f.rng, 0.5f);
  const TRef wref = eng.add_concrete(w.view());
  constexpr int kInstances = 16;
  std::vector<TRef> outs;
  for (int i = 0; i < kInstances; ++i) {
    InstCtx ctx{i};
    const Tensor x = f.pool.alloc_random(RowVec(8), f.rng, 1.0f);
    const TRef xr = eng.add_concrete(x.view());
    const TRef ins[2] = {xr, wref};
    const TRef d = eng.add_op(f.k_dense, ins, 2, ctx, 0);
    const TRef t = eng.add_op(f.k_tanh, &d, 1, ctx, 0);
    outs.push_back(t);
  }
  eng.trigger_execution();
  // 16 denses at depth 1 → one launch; 16 tanhs at depth 2 → one launch.
  CHECK_EQ(eng.stats().kernel_launches, 2);
  CHECK_EQ(eng.stats().kernel_invocations[f.k_dense], kInstances);
  for (const TRef r : outs) CHECK(eng.data(r) != nullptr);
}

void test_eager_launches_per_op() {
  Fixture f;
  EngineConfig cfg;
  cfg.lazy = false;
  Engine eng(f.reg, cfg);
  const Tensor w = f.pool.alloc_random(Shape(8, 8), f.rng, 0.5f);
  const TRef wref = eng.add_concrete(w.view());
  for (int i = 0; i < 5; ++i) {
    InstCtx ctx{i};
    const Tensor x = f.pool.alloc_random(RowVec(8), f.rng, 1.0f);
    const TRef xr = eng.add_concrete(x.view());
    const TRef ins[2] = {xr, wref};
    eng.add_op(f.k_dense, ins, 2, ctx, 0);
  }
  CHECK_EQ(eng.stats().kernel_launches, 5);
}

void test_batched_matches_unbatched() {
  Fixture f;
  std::vector<Tensor> xs;
  for (int i = 0; i < 6; ++i) xs.push_back(f.pool.alloc_random(RowVec(8), f.rng, 1.0f));
  const Tensor w = f.pool.alloc_random(Shape(8, 8), f.rng, 0.5f);

  auto run = [&](bool lazy) {
    EngineConfig cfg;
    cfg.lazy = lazy;
    Engine eng(f.reg, cfg);
    const TRef wref = eng.add_concrete(w.view());
    std::vector<TRef> outs;
    for (int i = 0; i < 6; ++i) {
      InstCtx ctx{i};
      const TRef xr = eng.add_concrete(xs[static_cast<std::size_t>(i)].view());
      const TRef ins[2] = {xr, wref};
      const TRef d = eng.add_op(f.k_dense, ins, 2, ctx, 0);
      outs.push_back(eng.add_op(f.k_tanh, &d, 1, ctx, 0));
    }
    eng.trigger_execution();
    std::vector<float> flat;
    for (const TRef r : outs) {
      const Tensor t = eng.force(r);
      flat.insert(flat.end(), t.data, t.data + t.numel());
    }
    return flat;
  };

  const std::vector<float> batched = run(true);
  const std::vector<float> eager = run(false);
  CHECK_EQ(batched.size(), eager.size());
  for (std::size_t i = 0; i < batched.size(); ++i) CHECK_NEAR(batched[i], eager[i], 1e-6);
}

void test_const_reuse() {
  Fixture f;
  EngineConfig cfg;
  Engine eng(f.reg, cfg);
  InstCtx ctx{0};
  const TRef a = eng.add_op(f.k_zero, nullptr, 0, ctx, 0);
  const TRef b = eng.add_op(f.k_zero, nullptr, 0, ctx, 0);
  CHECK_EQ(a.id, b.id);  // hoisted constant

  EngineConfig cfg2;
  cfg2.const_reuse = false;
  Engine eng2(f.reg, cfg2);
  const TRef c = eng2.add_op(f.k_zero, nullptr, 0, ctx, 0);
  const TRef d = eng2.add_op(f.k_zero, nullptr, 0, ctx, 0);
  CHECK(c.id != d.id);  // DyNet-style duplicate constants
}

// --- flat elementwise + stacked matmul execution (ISSUE 5 tentpole) --------

// The dense → tanh/sigmoid → mul → add(shared bias) ladder: one batch per
// (depth, kernel), every elementwise batch reading the previous batch's
// back-to-back outputs — the contiguous common case the flat path targets.
struct LadderFixture {
  KernelRegistry reg;
  TensorPool pool;
  Rng rng{11};
  int k_dense, k_tanh, k_sig, k_mul, k_add;
  Tensor w, bias;
  std::vector<Tensor> xs;

  explicit LadderFixture(int n_instances) {
    const Shape x(8), ww(8, 8);
    const Shape reps2[2] = {x, ww};
    const Shape repsb[2] = {x, x};
    k_dense = reg.add("l.dense", OpKind::kDense, 0, 2, reps2);
    k_tanh = reg.add("l.tanh", OpKind::kTanh, 0, 1, reps2);
    k_sig = reg.add("l.sig", OpKind::kSigmoid, 0, 1, reps2);
    k_mul = reg.add("l.mul", OpKind::kMul, 0, 2, repsb);
    k_add = reg.add("l.add", OpKind::kAdd, 0, 2, repsb);
    w = pool.alloc_random(Shape(8, 8), rng, 0.5f);
    bias = pool.alloc_random(RowVec(8), rng, 0.3f);
    // Back-to-back allocations: the dense batch's first-arg rows are
    // contiguous, so the stacked path fires too.
    for (int i = 0; i < n_instances; ++i)
      xs.push_back(pool.alloc_random(RowVec(8), rng, 1.0f));
  }

  // Records the ladder for every instance and returns the flattened outputs
  // after one trigger.
  std::vector<float> run(Engine& eng) {
    const TRef wref = eng.add_concrete(w.view());
    const TRef bref = eng.add_concrete(bias.view());
    std::vector<TRef> outs;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      InstCtx ctx{static_cast<int>(i)};
      const TRef xr = eng.add_concrete(xs[i].view());
      const TRef dins[2] = {xr, wref};
      const TRef d = eng.add_op(k_dense, dins, 2, ctx, 0);
      const TRef t = eng.add_op(k_tanh, &d, 1, ctx, 0);
      const TRef s = eng.add_op(k_sig, &d, 1, ctx, 0);
      const TRef mins[2] = {t, s};
      const TRef m = eng.add_op(k_mul, mins, 2, ctx, 0);
      const TRef ains[2] = {m, bref};
      outs.push_back(eng.add_op(k_add, ains, 2, ctx, 0));
    }
    eng.trigger_execution();
    std::vector<float> flat;
    for (const TRef r : outs) {
      const Tensor t = eng.force(r);
      flat.insert(flat.end(), t.data, t.data + t.numel());
    }
    return flat;
  }
};

// Contiguous batches: the flat path fires (4 elementwise batches + 1
// stacked dense), kernel_launches are EXACTLY the per-op path's counts, and
// outputs are bitwise-identical across flat, per-op, and eager execution.
void test_flat_elementwise_bitwise_parity() {
  constexpr int kN = 16;
  std::vector<float> flat_out, perop_out, eager_out;
  long long flat_launches = 0, perop_launches = 0, eager_launches = 0;
  {
    LadderFixture f(kN);
    EngineConfig cfg;  // fuse_elementwise defaults on
    Engine eng(f.reg, cfg);
    flat_out = f.run(eng);
    flat_launches = eng.stats().kernel_launches;
    CHECK_EQ(eng.stats().flat_batches, 4);     // tanh, sigmoid, mul, add
    CHECK_EQ(eng.stats().stacked_batches, 1);  // the dense batch
    CHECK_EQ(eng.stats().gather_bytes, 0);     // contiguous: nothing staged
  }
  {
    LadderFixture f(kN);
    EngineConfig cfg;
    cfg.fuse_elementwise = false;
    Engine eng(f.reg, cfg);
    perop_out = f.run(eng);
    perop_launches = eng.stats().kernel_launches;
    CHECK_EQ(eng.stats().flat_batches, 0);
  }
  {
    LadderFixture f(kN);
    EngineConfig cfg;
    cfg.lazy = false;  // one launch per op: the op-at-a-time reference
    Engine eng(f.reg, cfg);
    eager_out = f.run(eng);
    eager_launches = eng.stats().kernel_launches;
  }
  CHECK_EQ(flat_launches, 5);  // one per (depth, kernel) bucket — unchanged
  CHECK_EQ(perop_launches, 5);
  CHECK_EQ(eager_launches, 5ll * kN);
  CHECK_EQ(flat_out.size(), perop_out.size());
  CHECK_EQ(flat_out.size(), eager_out.size());
  for (std::size_t i = 0; i < flat_out.size(); ++i) {
    CHECK(flat_out[i] == perop_out[i]);  // bitwise, not approximate
    CHECK(flat_out[i] == eager_out[i]);
  }
}

// Scattered inputs: with gather fusion the batch falls back per-op (no
// copies); with explicit gathers it stages one contiguous buffer (counted
// bytes) and still runs flat. All three agree bitwise.
void test_flat_scattered_fallback() {
  constexpr int kN = 8;
  Rng rng{23};
  TensorPool pool;
  KernelRegistry reg;
  const Shape x(8);
  const int k_tanh = reg.add("s.tanh", OpKind::kTanh, 0, 1, &x);
  std::vector<Tensor> xs;
  for (int i = 0; i < kN; ++i) {
    xs.push_back(pool.alloc_random(RowVec(8), rng, 1.0f));
    pool.alloc(RowVec(3));  // padding: make consecutive inputs non-contiguous
  }
  const auto run = [&](bool gather_fusion, bool fuse) {
    EngineConfig cfg;
    cfg.gather_fusion = gather_fusion;
    cfg.fuse_elementwise = fuse;
    Engine eng(reg, cfg);
    std::vector<TRef> outs;
    for (int i = 0; i < kN; ++i) {
      InstCtx ctx{i};
      const TRef xr = eng.add_concrete(xs[static_cast<std::size_t>(i)].view());
      outs.push_back(eng.add_op(k_tanh, &xr, 1, ctx, 0));
    }
    eng.trigger_execution();
    std::vector<float> flat;
    for (const TRef r : outs) {
      const Tensor t = eng.force(r);
      flat.insert(flat.end(), t.data, t.data + t.numel());
    }
    return std::make_tuple(flat, eng.stats().flat_batches, eng.stats().gather_bytes,
                           eng.stats().kernel_launches);
  };

  const auto [fused_out, fused_flat, fused_bytes, fused_launches] = run(true, true);
  CHECK_EQ(fused_flat, 0);  // scattered + fusion: per-op fallback, in place
  CHECK_EQ(fused_bytes, 0);
  const auto [staged_out, staged_flat, staged_bytes, staged_launches] = run(false, true);
  CHECK_EQ(staged_flat, 1);  // explicit mode: stage once, run flat
  CHECK_EQ(staged_bytes, kN * 8ll * static_cast<long long>(sizeof(float)));
  const auto [perop_out, perop_flat, perop_bytes, perop_launches] = run(false, false);
  CHECK_EQ(perop_flat, 0);
  CHECK_EQ(perop_bytes, 0);  // elementwise per-op never staged pre-flat either
  CHECK_EQ(fused_launches, 1);
  CHECK_EQ(staged_launches, 1);
  CHECK_EQ(perop_launches, 1);
  CHECK_EQ(fused_out.size(), staged_out.size());
  for (std::size_t i = 0; i < fused_out.size(); ++i) {
    CHECK(fused_out[i] == staged_out[i]);  // bitwise across all three paths
    CHECK(fused_out[i] == perop_out[i]);
  }
}

// Recycling on: slot reuse and epoch reclamation leave the flat path's
// outputs bitwise-identical to the per-op path, and after warmup the
// scheduler scratch stops allocating — steady-state triggers are
// allocation-free (the scheduling_allocs plateau).
void test_flat_recycling_parity_and_alloc_plateau() {
  constexpr int kRounds = 6;
  LadderFixture fa(8), fb(8);
  EngineConfig on;
  on.recycle = true;
  EngineConfig off;
  off.recycle = true;
  off.fuse_elementwise = false;
  Engine ea(fa.reg, on), eb(fb.reg, off);

  const TRef wa = ea.add_concrete(fa.w.view()), ba = ea.add_concrete(fa.bias.view());
  const TRef wb = eb.add_concrete(fb.w.view()), bb = eb.add_concrete(fb.bias.view());
  std::vector<TRef> xa, xb;
  for (std::size_t i = 0; i < fa.xs.size(); ++i) {
    xa.push_back(ea.add_concrete(fa.xs[i].view()));
    xb.push_back(eb.add_concrete(fb.xs[i].view()));
  }

  const auto round = [&](Engine& eng, const LadderFixture& f, const std::vector<TRef>& xs,
                         TRef wref, TRef bref, int request) {
    eng.begin_request(request);
    InstCtx ctx{request};
    std::vector<TRef> outs;
    for (const TRef xr : xs) {
      const TRef dins[2] = {xr, wref};
      const TRef d = eng.add_op(f.k_dense, dins, 2, ctx, 0);
      const TRef t = eng.add_op(f.k_tanh, &d, 1, ctx, 0);
      const TRef s = eng.add_op(f.k_sig, &d, 1, ctx, 0);
      const TRef mins[2] = {t, s};
      const TRef m = eng.add_op(f.k_mul, mins, 2, ctx, 0);
      const TRef ains[2] = {m, bref};
      outs.push_back(eng.add_op(f.k_add, ains, 2, ctx, 0));
    }
    eng.trigger_execution();
    std::vector<float> flat;
    for (const TRef r : outs) {
      const Tensor t = eng.force(r);
      flat.insert(flat.end(), t.data, t.data + t.numel());
    }
    eng.retire_request(request);
    return flat;
  };

  long long allocs_prev = -1;
  for (int r = 0; r < kRounds; ++r) {
    const std::vector<float> a = round(ea, fa, xa, wa, ba, r);
    const std::vector<float> b = round(eb, fb, xb, wb, bb, r);
    CHECK_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) CHECK(a[i] == b[i]);  // bitwise
    if (r >= kRounds - 2) {
      // Last two identical rounds: zero new scratch growth.
      if (allocs_prev >= 0) CHECK_EQ(ea.stats().scheduling_allocs, allocs_prev);
      allocs_prev = ea.stats().scheduling_allocs;
    }
  }
  CHECK(ea.stats().flat_batches > 0);
  CHECK(ea.memory().nodes_recycled > 0);
  CHECK_EQ(ea.memory().leaked_slots, 0);
}

// The stacked fast path covers the whole matmul family now: a batch of
// row-vector matmuls sharing the parameter operand is ONE launch and ONE
// stacked call, bitwise-identical to eager per-op execution.
void test_stacked_matmul_family() {
  for (const OpKind op : {OpKind::kMatMul, OpKind::kMatMulBT}) {
    constexpr int kN = 12;
    Rng rng{31};
    TensorPool pool;
    KernelRegistry reg;
    const Shape x(8), b(8, 8);
    const Shape reps[2] = {x, b};
    const int kid = reg.add("m.mm", op, 0, 2, reps);
    const Tensor bmat = pool.alloc_random(Shape(8, 8), rng, 0.4f);
    std::vector<Tensor> xs;
    for (int i = 0; i < kN; ++i) xs.push_back(pool.alloc_random(RowVec(8), rng, 1.0f));

    const auto run = [&](bool lazy) {
      EngineConfig cfg;
      cfg.lazy = lazy;
      Engine eng(reg, cfg);
      const TRef bref = eng.add_concrete(bmat.view());
      std::vector<TRef> outs;
      for (int i = 0; i < kN; ++i) {
        InstCtx ctx{i};
        const TRef xr = eng.add_concrete(xs[static_cast<std::size_t>(i)].view());
        const TRef ins[2] = {xr, bref};
        outs.push_back(eng.add_op(kid, ins, 2, ctx, 0));
      }
      eng.trigger_execution();
      std::vector<float> flat;
      for (const TRef r : outs) {
        const Tensor t = eng.force(r);
        flat.insert(flat.end(), t.data, t.data + t.numel());
      }
      return std::make_pair(flat, eng.stats());
    };

    const auto [batched, bstats] = run(true);
    const auto [eager, estats] = run(false);
    CHECK_EQ(bstats.kernel_launches, 1);
    CHECK_EQ(bstats.stacked_batches, 1);
    CHECK_EQ(estats.kernel_launches, kN);
    CHECK_EQ(batched.size(), eager.size());
    for (std::size_t i = 0; i < batched.size(); ++i) CHECK(batched[i] == eager[i]);
  }
}

// kLinear batches (the coarse cell kernel): a batch with scattered x and h
// rows is ONE launch and ONE row-pointer call, bitwise equal to the
// op-at-a-time path and to the concat → dense → add → tanh chain it
// replaces, at every dense variant. Gather fusion reads the rows in place;
// with it off, both activation operands are staged and counted.
void test_linear_batch_scattered_rows() {
  constexpr int kN = 8, kx = 16, kh = 16, n = 16;
  Rng rng{41};
  TensorPool pool;
  const Tensor w = pool.alloc_random(Shape(n, kx + kh), rng, 0.3f);
  const Tensor bias = pool.alloc_random(RowVec(n), rng, 0.2f);
  std::vector<Tensor> xs, hs;
  for (int i = 0; i < kN; ++i) {
    xs.push_back(pool.alloc_random(RowVec(kx), rng, 1.0f));
    hs.push_back(pool.alloc_random(RowVec(kh), rng, 1.0f));
    pool.alloc(RowVec(3));  // padding: no operand is back to back across the batch
  }
  for (int variant = 0; variant < op_num_variants(OpKind::kLinear); ++variant) {
    KernelRegistry reg;
    const Shape vx(kx), vh(kh), vn(n), vxh(kx + kh), ww(n, kx + kh);
    const Shape lin_reps[4] = {vx, vh, ww, vn};
    const Shape cat_reps[2] = {vx, vh};
    const Shape dense_reps[2] = {vxh, ww};
    const Shape add_reps[2] = {vn, vn};
    const int k_lin = reg.add("c.linear", OpKind::kLinear, kLinearTanh, 4, lin_reps);
    const int k_cat = reg.add("c.concat", OpKind::kConcat, 1, 2, cat_reps);
    const int k_dense = reg.add("c.dense", OpKind::kDense, 0, 2, dense_reps);
    const int k_bias = reg.add("c.bias", OpKind::kAdd, 0, 2, add_reps);
    const int k_tanh = reg.add("c.tanh", OpKind::kTanh, 0, 1, add_reps);
    for (const int k : {k_lin, k_dense}) reg.kernel(k).variant = variant;

    const auto run = [&](bool fused, EngineConfig cfg) {
      Engine eng(reg, cfg);
      const TRef wref = eng.add_concrete(w.view()), bref = eng.add_concrete(bias.view());
      std::vector<TRef> outs;
      for (int i = 0; i < kN; ++i) {
        const InstCtx ctx{i};
        const TRef x = eng.add_concrete(xs[static_cast<std::size_t>(i)].view());
        const TRef h = eng.add_concrete(hs[static_cast<std::size_t>(i)].view());
        if (fused) {
          const TRef ins[4] = {x, h, wref, bref};
          outs.push_back(eng.add_op(k_lin, ins, 4, ctx, 0));
          continue;
        }
        const TRef cins[2] = {x, h};
        const TRef xh = eng.add_op(k_cat, cins, 2, ctx, 0);
        const TRef dins[2] = {xh, wref};
        const TRef d = eng.add_op(k_dense, dins, 2, ctx, 0);
        const TRef bins[2] = {d, bref};
        const TRef db = eng.add_op(k_bias, bins, 2, ctx, 0);
        outs.push_back(eng.add_op(k_tanh, &db, 1, ctx, 0));
      }
      eng.trigger_execution();
      std::vector<float> flat;
      for (const TRef r : outs) {
        const Tensor t = eng.force(r);
        flat.insert(flat.end(), t.data, t.data + t.numel());
      }
      return std::make_pair(flat, eng.stats());
    };

    EngineConfig staged_cfg, eager_cfg;
    staged_cfg.gather_fusion = false;
    eager_cfg.lazy = false;
    const auto [in_place, s_in_place] = run(true, EngineConfig{});
    const auto [staged, s_staged] = run(true, staged_cfg);
    const auto [eager, s_eager] = run(true, eager_cfg);
    const auto [chain, s_chain] = run(false, EngineConfig{});
    CHECK_EQ(s_in_place.kernel_launches, 1);
    CHECK_EQ(s_in_place.stacked_batches, 1);
    CHECK_EQ(s_in_place.gather_bytes, 0);  // rows read where they live
    CHECK_EQ(s_staged.kernel_launches, 1);
    CHECK_EQ(s_staged.stacked_batches, 1);
    CHECK_EQ(s_staged.gather_bytes,
             static_cast<long long>(kN) * (kx + kh) * static_cast<long long>(sizeof(float)));
    CHECK_EQ(s_eager.kernel_launches, kN);
    CHECK_EQ(s_chain.kernel_launches, 4);
    const std::size_t bytes = in_place.size() * sizeof(float);
    CHECK_EQ(in_place.size(), static_cast<std::size_t>(kN * n));
    CHECK(staged.size() == in_place.size() && std::memcmp(staged.data(), in_place.data(), bytes) == 0);
    CHECK(eager.size() == in_place.size() && std::memcmp(eager.data(), in_place.data(), bytes) == 0);
    CHECK(chain.size() == in_place.size() && std::memcmp(chain.data(), in_place.data(), bytes) == 0);
  }
}

// An LSTM cell batch (kLinear with the LSTM epilogue) over [h; c] states:
// its h operand is the state, twice W's h columns wide, so the kernel reads
// each state's h half through the dot product and its c half in the
// epilogue. Two steps: 8 cells over scattered x rows and scattered states,
// then 8 more over the first step's outputs, which lie back to back. In
// place, staged (gather fusion off: whole state rows are copied, c halves
// included) and eager, at every variant, the outputs are bitwise equal.
void test_lstm_state_batch() {
  constexpr int kN = 8, kx = 16, hid = 16, n = 4 * hid;
  Rng rng{53};
  TensorPool pool;
  const Tensor w = pool.alloc_random(Shape(n, kx + hid), rng, 0.3f);
  const Tensor bias = pool.alloc_random(RowVec(n), rng, 0.2f);
  std::vector<Tensor> xs, states;
  for (int i = 0; i < 2 * kN; ++i) {
    xs.push_back(pool.alloc_random(RowVec(kx), rng, 1.0f));
    if (i < kN) states.push_back(pool.alloc_random(RowVec(2 * hid), rng, 1.0f));
    pool.alloc(RowVec(3));  // padding: no operand is back to back across the batch
  }
  for (int variant = 0; variant < op_num_variants(OpKind::kLinear); ++variant) {
    KernelRegistry reg;
    const Shape reps[4] = {Shape(kx), Shape(2 * hid), w.shape, bias.shape};
    const int k_lstm = reg.add("c.lstm", OpKind::kLinear, kLinearLstm, 4, reps);
    reg.kernel(k_lstm).variant = variant;

    const auto run = [&](EngineConfig cfg) {
      Engine eng(reg, cfg);
      const TRef wref = eng.add_concrete(w.view()), bref = eng.add_concrete(bias.view());
      std::vector<TRef> outs;
      for (int i = 0; i < kN; ++i) {
        const TRef ins[4] = {eng.add_concrete(xs[static_cast<std::size_t>(i)].view()),
                             eng.add_concrete(states[static_cast<std::size_t>(i)].view()), wref,
                             bref};
        outs.push_back(eng.add_op(k_lstm, ins, 4, InstCtx{i}, 0));
      }
      for (int i = 0; i < kN; ++i) {
        const TRef ins[4] = {eng.add_concrete(xs[static_cast<std::size_t>(kN + i)].view()),
                             outs[static_cast<std::size_t>(i)], wref, bref};
        outs.push_back(eng.add_op(k_lstm, ins, 4, InstCtx{i}, 0));
      }
      eng.trigger_execution();
      std::vector<float> flat;
      for (const TRef r : outs) {
        const Tensor t = eng.force(r);
        CHECK(t.shape == RowVec(2 * hid));
        flat.insert(flat.end(), t.data, t.data + t.numel());
      }
      return std::make_pair(flat, eng.stats());
    };

    EngineConfig staged_cfg, eager_cfg;
    staged_cfg.gather_fusion = false;
    eager_cfg.lazy = false;
    const auto [in_place, s_in_place] = run(EngineConfig{});
    const auto [staged, s_staged] = run(staged_cfg);
    const auto [eager, s_eager] = run(eager_cfg);
    CHECK_EQ(s_in_place.kernel_launches, 2);
    CHECK_EQ(s_in_place.stacked_batches, 2);
    CHECK_EQ(s_in_place.gather_bytes, 0);
    CHECK_EQ(s_staged.kernel_launches, 2);
    CHECK_EQ(s_staged.stacked_batches, 2);
    // Step 1 stages both operands, step 2 only its x rows.
    CHECK_EQ(s_staged.gather_bytes, static_cast<long long>(kN) * (2 * kx + 2 * hid) *
                                        static_cast<long long>(sizeof(float)));
    CHECK_EQ(s_eager.kernel_launches, 2 * kN);
    const std::size_t bytes = in_place.size() * sizeof(float);
    CHECK_EQ(in_place.size(), static_cast<std::size_t>(2 * kN * 2 * hid));
    CHECK(staged.size() == in_place.size() && std::memcmp(staged.data(), in_place.data(), bytes) == 0);
    CHECK(eager.size() == in_place.size() && std::memcmp(eager.data(), in_place.data(), bytes) == 0);
  }
}

// Carried-forward fix: Node::ins used to heap-allocate a vector per
// recorded multi-input op. With the arity ≤ 4 inline small-vector plus
// recycled slots and warmed scratch, a steady-state recording round does
// (nearly) no heap allocation at all — the counting allocator above sees
// a handful of allocations where the vector version paid one per op.
// Outputs are bitwise unchanged across the fix (warm round vs measured).
void test_record_op_ins_inline() {
  Fixture f;
  EngineConfig cfg;
  cfg.recycle = true;
  Engine eng(f.reg, cfg);
  const Tensor w = f.pool.alloc_random(Shape(8, 8), f.rng, 0.5f);
  const Tensor x = f.pool.alloc_random(RowVec(8), f.rng, 1.0f);
  const TRef wref = eng.add_concrete(w.view());
  const TRef xref = eng.add_concrete(x.view());
  constexpr int kOps = 64;

  const auto round = [&](int id) {
    eng.begin_request(id);
    const InstCtx ctx{id};
    const TRef ins[2] = {xref, wref};
    TRef v = eng.add_op(f.k_dense, ins, 2, ctx, 0);
    for (int i = 1; i < kOps; ++i) v = eng.add_op(f.k_tanh, &v, 1, ctx, 0);
    eng.trigger_execution();
    const Tensor t = eng.force(v);
    std::vector<float> out(t.data, t.data + t.numel());
    eng.retire_request(id);
    return out;
  };

  // Two warm rounds: the pending list and the trigger scratch are a swap
  // pair, so both buffers need one round to reach full capacity.
  const std::vector<float> warm = round(0);
  round(1);
  g_news = 0;
  g_count_news = true;
  const std::vector<float> measured = round(2);
  g_count_news = false;
  CHECK(g_news <= kOps / 8);  // pre-fix floor: one allocation per recorded op
  CHECK_EQ(warm.size(), measured.size());
  CHECK(std::memcmp(warm.data(), measured.data(), warm.size() * sizeof(float)) == 0);
}

// A node holds its inputs inline, up to Engine's 8-input bound: the
// registry caps declared arity at 4, but record_op accepts up to 8
// (variable-arity concat). A 5-way and an 8-way concat must round-trip
// their operand lists through inputs_of and lay the rows out end to end,
// and a 9-input op aborts in every build.
void test_wide_op_inputs_inline() {
  Fixture f;
  const Shape v8 = RowVec(8);
  const Shape reps[2] = {v8, v8};
  const int k_cat = f.reg.add("t.concat", OpKind::kConcat, 1, 2, reps);
  Engine eng(f.reg, EngineConfig{});
  const InstCtx ctx{0};
  TRef ins[9];
  std::vector<Tensor> xs;
  for (int i = 0; i < 9; ++i) {
    xs.push_back(f.pool.alloc_random(v8, f.rng, 1.0f));
    ins[i] = eng.add_concrete(xs.back().view());
  }
  for (const int width : {5, 8}) {
    const TRef out = eng.add_op(k_cat, ins, width, ctx, 0);
    const Tensor t = eng.force(out);
    CHECK_EQ(t.numel(), 8 * width);
    for (int i = 0; i < width; ++i)
      CHECK(std::memcmp(t.data + 8 * i, xs[static_cast<std::size_t>(i)].data,
                        sizeof(float) * 8) == 0);
    const std::span<const TRef> back = eng.inputs_of(out);
    CHECK_EQ(back.size(), static_cast<std::size_t>(width));
    for (int i = 0; i < width; ++i) CHECK(back[static_cast<std::size_t>(i)].id == ins[i].id);
  }
  CHECK(test::dies([&] { (void)eng.add_op(k_cat, ins, 9, ctx, 0); }));
}

// A phase tag that runs against a dependency, a phase-2 node feeding a
// phase-1 node, leaves phase 1 with nothing ready. The scheduler aborts with
// one line in every build instead of spinning. The child's alarm turns a
// spin into SIGALRM, which fails the check rather than hanging the test.
void test_non_monotone_phase_aborts() {
  Fixture f;
  Engine eng(f.reg, EngineConfig{});
  const Tensor x = f.pool.alloc_random(RowVec(8), f.rng, 1.0f);
  const TRef xr = eng.add_concrete(x.view());
  const InstCtx ctx{0};
  const TRef late = eng.add_op(f.k_tanh, &xr, 1, ctx, /*phase=*/2);
  (void)eng.add_op(f.k_tanh, &late, 1, ctx, /*phase=*/1);
  CHECK_EQ(test::death_signal([&] {
             alarm(10);
             eng.trigger_execution();
           }),
           SIGABRT);
}

// Chain fusion (DESIGN.md §5 "Chains"): a same-kernel elementwise chain
// runs in one launch under fuse_chains, at phase 0 (depth buckets) and at
// phase 1 (readiness waves), with outputs bitwise equal to an eager engine
// with and without the rule. A step whose operand another kernel wrote
// after the chain's launch, or whose operand has another shape, pays a
// launch of its own. kWaveSplit is the phase-1 graph on which pulling a
// ready step forward into the chain's launch would split a later wave
// (4 launches plainly, 5 pulled): the rule moves no batch, so it stays 4.
void test_chain_fusion() {
  Fixture f;
  const Shape v8 = RowVec(8), m28(2, 8);
  const Shape bin[2] = {v8, v8}, row[2] = {m28, v8};
  const int k_add = f.reg.add("t.add", OpKind::kAdd, 0, 2, bin);
  const int k_relu = f.reg.add("t.relu", OpKind::kRelu, 0, 1, bin);  // runs after k_add
  const int k_addrow = f.reg.add("t.addrow", OpKind::kAdd, 0, 2, row);
  std::vector<Tensor> cs;
  for (int i = 0; i < 8; ++i) cs.push_back(f.pool.alloc_random(v8, f.rng, 1.0f));
  const Tensor m = f.pool.alloc_random(m28, f.rng, 1.0f);
  constexpr int kLengths[4] = {3, 5, 2, 6};

  enum Graph { kAccPhase0, kAccPhase1, kTree, kLateOperand, kBroadcast, kWaveSplit };
  struct Run {
    long long launches = 0;
    std::vector<float> out;
  };
  const auto run = [&](Graph g, EngineConfig cfg) {
    Engine eng(f.reg, cfg);
    std::vector<TRef> c;
    for (const Tensor& t : cs) c.push_back(eng.add_concrete(t.view()));
    std::vector<TRef> outs;
    const auto op = [&](int k, std::initializer_list<TRef> ins, int phase) {
      outs.push_back(eng.add_op(k, ins.begin(), static_cast<int>(ins.size()), InstCtx{0}, phase));
      return outs.back();
    };
    switch (g) {
      case kAccPhase0:
      case kAccPhase1:
        // Four accumulators of different lengths, as four instances would
        // record them.
        for (std::size_t i = 0; i < 4; ++i) {
          TRef acc = c[i];
          for (int s = 0; s < kLengths[i]; ++s)
            acc = op(k_add, {acc, c[(i + static_cast<std::size_t>(s)) % 8]},
                     g == kAccPhase1 ? 1 : 0);
        }
        break;
      case kTree: {  // 8 leaves, three levels of pairwise sums
        std::vector<TRef> level = c;
        while (level.size() > 1) {
          std::vector<TRef> next;
          for (std::size_t i = 0; i < level.size(); i += 2)
            next.push_back(op(k_add, {level[i], level[i + 1]}, 0));
          level = next;
        }
        break;
      }
      case kLateOperand: {
        const TRef u = op(k_add, {c[0], c[1]}, 0);
        const TRef t = op(k_relu, {c[2]}, 0);  // same depth, after k_add's batch
        op(k_add, {op(k_add, {u, t}, 0), c[3]}, 0);
        break;
      }
      case kBroadcast: {
        TRef acc = eng.add_concrete(m.view());
        for (int s = 0; s < 3; ++s) acc = op(k_addrow, {acc, c[static_cast<std::size_t>(s)]}, 0);
        break;
      }
      case kWaveSplit: {
        const TRef a = op(k_add, {c[0], c[1]}, 1);
        const TRef b = op(k_relu, {c[2]}, 1);
        op(k_relu, {op(k_add, {a, c[3]}, 1)}, 1);
        op(k_relu, {op(k_add, {b, c[4]}, 1)}, 1);
        break;
      }
    }
    eng.trigger_execution();
    Run r;
    r.launches = eng.stats().kernel_launches;
    for (const TRef o : outs) {
      const Tensor t = eng.force(o);
      r.out.insert(r.out.end(), t.data, t.data + t.numel());
    }
    return r;
  };

  EngineConfig chains, eager;
  chains.fuse_chains = true;
  eager.lazy = false;
  const struct {
    Graph g;
    long long with, without;
  } cases[] = {{kAccPhase0, 1, 6}, {kAccPhase1, 1, 6}, {kTree, 1, 3},
               {kLateOperand, 3, 4}, {kBroadcast, 3, 3}, {kWaveSplit, 4, 4}};
  for (const auto& tc : cases) {
    const Run a = run(tc.g, chains), b = run(tc.g, EngineConfig{}), e = run(tc.g, eager);
    CHECK_EQ(a.launches, tc.with);
    CHECK_EQ(b.launches, tc.without);
    for (const Run* r : {&a, &b})
      CHECK(r->out.size() == e.out.size() &&
            std::memcmp(r->out.data(), e.out.data(), e.out.size() * sizeof(float)) == 0);
  }
}

// The node table grows in fixed chunks and never moves a node. A chunk
// holds at most 65536 / sizeof(Node) nodes (512 of today's 120-byte
// nodes). Two triggers record 48 chains of 24 dense → tanh steps each,
// 2,304 nodes per trigger, so the table passes four chunks, and every
// recorded op's output must equal an eager engine's bitwise. With
// recycling, the second trigger's nodes reuse the first one's retired
// slots, which span five chunks.
void test_node_table_chunks() {
  Fixture f;
  constexpr int kChains = 48, kSteps = 24, kRounds = 2;
  const Tensor w = f.pool.alloc_random(Shape(8, 8), f.rng, 0.5f);
  std::vector<Tensor> xs;
  for (int i = 0; i < kChains; ++i) xs.push_back(f.pool.alloc_random(RowVec(8), f.rng, 1.0f));

  const auto run = [&](const EngineConfig& cfg) {
    Engine eng(f.reg, cfg);
    const TRef wref = eng.add_concrete(w.view());
    std::vector<TRef> xrefs;
    for (const Tensor& x : xs) xrefs.push_back(eng.add_concrete(x.view()));
    std::vector<float> flat;
    for (int round = 0; round < kRounds; ++round) {
      std::vector<TRef> recorded;
      for (int c = 0; c < kChains; ++c) {
        const InstCtx ctx{round * kChains + c};
        eng.begin_request(ctx.instance);
        TRef v = xrefs[static_cast<std::size_t>(c)];
        for (int s = 0; s < kSteps; ++s) {
          const TRef ins[2] = {v, wref};
          recorded.push_back(eng.add_op(f.k_dense, ins, 2, ctx, 0));
          recorded.push_back(eng.add_op(f.k_tanh, &recorded.back(), 1, ctx, 0));
          v = recorded.back();
        }
      }
      eng.trigger_execution();
      for (const TRef r : recorded) {
        const Tensor t = eng.force(r);
        flat.insert(flat.end(), t.data, t.data + t.numel());
      }
      for (int c = 0; c < kChains; ++c) eng.retire_request(round * kChains + c);
    }
    return std::make_pair(flat, eng.num_nodes());
  };

  constexpr std::size_t kPerRound = std::size_t{kChains} * kSteps * 2;
  constexpr std::size_t kConcrete = kChains + 1;
  EngineConfig eager_cfg, recycle_cfg;
  eager_cfg.lazy = false;
  recycle_cfg.recycle = true;
  const auto [eager, eager_nodes] = run(eager_cfg);
  const auto [lazy, lazy_nodes] = run(EngineConfig{});
  const auto [recycled, recycled_nodes] = run(recycle_cfg);
  CHECK_EQ(eager.size(), kRounds * kPerRound * 8);
  CHECK_EQ(lazy_nodes, kRounds * kPerRound + kConcrete);
  CHECK_EQ(eager_nodes, lazy_nodes);
  CHECK_EQ(recycled_nodes, kPerRound + kConcrete);  // round 2 reused round 1's slots
  const std::size_t bytes = eager.size() * sizeof(float);
  CHECK(lazy.size() == eager.size() && std::memcmp(lazy.data(), eager.data(), bytes) == 0);
  CHECK(recycled.size() == eager.size() &&
        std::memcmp(recycled.data(), eager.data(), bytes) == 0);
}

// The node table takes its chunks and its chunk directory from the block
// cache, so a fresh engine that records at least six chunks of nodes makes
// no heap allocation for them, with a cold cache and with a warm one. A
// chunk holds at most 65536 / sizeof(Node) nodes, 546 at today's 120 bytes
// (512 in use). Every node still reads back.
void test_node_table_no_heap() {
  Fixture f;
  constexpr std::size_t kNodes = 6 * (65536 / 120);
  const Tensor x = f.pool.alloc_random(RowVec(8), f.rng, 1.0f);
  for (int round = 0; round < 2; ++round) {
    Engine eng(f.reg, EngineConfig{});
    std::vector<TRef> refs;
    refs.reserve(kNodes);
    g_news = 0;
    g_count_news = true;
    for (std::size_t i = 0; i < kNodes; ++i) refs.push_back(eng.add_concrete(x.view()));
    g_count_news = false;
    CHECK_EQ(g_news, 0);
    CHECK_EQ(eng.num_nodes(), kNodes);
    for (const TRef r : refs) CHECK(eng.data(r) == x.data && eng.shape(r) == x.shape);
  }
}

void test_memory_cap_oom() {
  Fixture f;
  EngineConfig cfg;
  cfg.memory_cap_bytes = 256;  // 8 floats = 32 bytes per node
  cfg.const_reuse = false;     // keep the duplicate nodes alive
  Engine eng(f.reg, cfg);
  InstCtx ctx{0};
  bool oom = false;
  try {
    for (int i = 0; i < 64; ++i) eng.add_op(f.k_zero, nullptr, 0, ctx, 0);
    eng.trigger_execution();
  } catch (const OomError&) {
    oom = true;
  }
  CHECK(oom);
}

// The ActivityStats counter table drives +=: with a distinct value in
// every 8-byte field (written by memcpy, so a field the table misses holds
// one too), a += b is the field-wise sum.
void test_activity_stats_table() {
  constexpr std::size_t n = sizeof(ActivityStats) / sizeof(std::int64_t);
  std::int64_t av[n], bv[n], got[n];
  for (std::size_t i = 0; i < n; ++i) {
    av[i] = static_cast<std::int64_t>(i) + 1;
    bv[i] = 1000 * (static_cast<std::int64_t>(i) + 1);
  }
  ActivityStats a, b;
  std::memcpy(&a, av, sizeof a);
  std::memcpy(&b, bv, sizeof b);
  a += b;
  std::memcpy(got, &a, sizeof a);
  for (std::size_t i = 0; i < n; ++i) CHECK_EQ(got[i], av[i] + bv[i]);
  // Spot-check both row kinds by name.
  CHECK_EQ(a.kernel_exec.ns, 4 + 4000);
  CHECK_EQ(a.scheduling_allocs, 10 + 10000);
}

// A StackRNN action list of `pushes` pushes, then End: one proc call per
// action, so the call chain is as deep as the list is long.
Value push_run(models::Dataset& ds, int pushes) {
  Rng rng(11);
  Value prog = Value::make_adt(2, {});
  for (int t = 0; t < pushes; ++t) {
    const Tensor x = ds.pool->alloc_random(RowVec(models::hidden_dim(false)), rng, 1.0f);
    prog = Value::make_adt(0, {models::dataset_tensor(ds, x), std::move(prog)});
  }
  return prog;
}

// A warm AOT run allocates nothing per instruction. After two warm-up runs
// in a recycling engine, the third run of a StackRNN or TreeLSTM instance —
// record, trigger, force, retire — makes at most kWarmRunAllocs heap
// allocations (the engine's per-request bookkeeping), however long the
// instance: the dataset's 12–18-action lists and 2–9-leaf trees, and a
// 300-action list whose call chain outgrows the first register-stack block.
// The boxed executor made 74–178 per instance: a frame vector and an
// argument vector per call, a shared_ptr per tuple or ADT, and a remapped
// copy of the input tree.
void test_aot_warm_run_allocations() {
  constexpr long long kWarmRunAllocs = 4;
  for (const char* name : {"StackRNN", "TreeLSTM"}) {
    const models::ModelSpec& spec = models::model_by_name(name);
    const harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});
    models::Dataset ds = spec.build_dataset(false, 4, 0x5eed);
    if (spec.name == "StackRNN") ds.inputs.push_back(push_run(ds, 300));
    EngineConfig ec = harness::engine_config_for(p.cfg, 0, false);
    ec.recycle = true;
    Engine eng(p.compiled.module.registry, ec);
    std::vector<TRef> wrefs, drefs;
    for (const Tensor& t : p.weights.tensors) wrefs.push_back(eng.add_concrete(t.view()));
    for (const Tensor& t : ds.tensors) drefs.push_back(eng.add_concrete(t.view()));
    aot::AotExecutor exec(p.compiled.program, eng, std::move(wrefs));

    std::vector<TRef> outs;
    for (std::size_t i = 0; i < ds.inputs.size(); ++i) {
      const InstCtx ctx{static_cast<int>(i)};
      for (int run = 0; run < 3; ++run) {
        outs.clear();
        g_news = 0;
        g_count_news = run == 2;
        eng.begin_request(ctx.instance);
        CHECK_EQ(exec.run(ds.inputs[i], drefs, ctx, outs), std::size_t{1});
        eng.trigger_execution();
        for (const TRef r : outs) CHECK(eng.force(r).numel() == models::kNumClasses);
        eng.retire_request(ctx.instance);
        g_count_news = false;
      }
      if (g_news > kWarmRunAllocs)
        std::printf("%s instance %zu: %lld allocations in a warm run\n", name, i, g_news);
      CHECK(g_news <= kWarmRunAllocs);
    }
    CHECK_EQ(eng.memory().leaked_slots, 0);
  }
}

}  // namespace

int main() {
  test_activity_stats_table();
  test_same_signature_collapses();
  test_eager_launches_per_op();
  test_batched_matches_unbatched();
  test_flat_elementwise_bitwise_parity();
  test_flat_scattered_fallback();
  test_flat_recycling_parity_and_alloc_plateau();
  test_stacked_matmul_family();
  test_linear_batch_scattered_rows();
  test_lstm_state_batch();
  test_const_reuse();
  test_non_monotone_phase_aborts();
  test_chain_fusion();
  test_record_op_ins_inline();
  test_wide_op_inputs_inline();
  test_node_table_chunks();
  test_node_table_no_heap();
  test_memory_cap_oom();
  test_aot_warm_run_allocations();
  return acrobat::test::finish("test_engine_batching");
}
