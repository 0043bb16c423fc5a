// Microbenchmarks of the primitive-kernel schedule variants (the
// auto-scheduler's search space) using google-benchmark — verifies the
// variant ordering assumption (higher variants faster) that
// harness::apply_default_schedules and the tuner rely on — plus the per-switch
// cost of the fiber runtime that suspends instances at sync points.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "runtime/fiber.h"
#include "support/rng.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace {

using namespace acrobat;

void BM_DenseVariant(benchmark::State& state) {
  const int variant = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  TensorPool pool;
  Rng rng(7);
  Tensor x = pool.alloc_random(RowVec(n), rng, 0.5f);
  Tensor w = pool.alloc_random(Shape(n, n), rng, 0.1f);
  Tensor out = pool.alloc(RowVec(n));
  const float* ins[2] = {x.data, w.data};
  const Shape shapes[2] = {x.shape, w.shape};
  for (auto _ : state) {
    run_op(OpKind::kDense, variant, ins, shapes, out.data, out.shape, 0);
    benchmark::DoNotOptimize(out.data[0]);
  }
  state.SetItemsProcessed(state.iterations() * 2ll * n * n);
}
BENCHMARK(BM_DenseVariant)
    ->ArgsProduct({{0, 1, 2}, {64, 128, 256}})
    ->ArgNames({"variant", "n"});

void BM_EltwiseVariant(benchmark::State& state) {
  const int variant = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  TensorPool pool;
  Rng rng(7);
  Tensor x = pool.alloc_random(RowVec(n), rng, 0.5f);
  Tensor y = pool.alloc_random(RowVec(n), rng, 0.5f);
  Tensor out = pool.alloc(RowVec(n));
  const float* ins[2] = {x.data, y.data};
  const Shape shapes[2] = {x.shape, y.shape};
  for (auto _ : state) {
    run_op(OpKind::kAdd, variant, ins, shapes, out.data, out.shape, 0);
    benchmark::DoNotOptimize(out.data[0]);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EltwiseVariant)
    ->ArgsProduct({{0, 1}, {256, 4096}})
    ->ArgNames({"variant", "n"});

// The flat-batch collapse the engine's trigger hot path performs (ISSUE 5):
// n elementwise ops of `numel` each, executed as n run_op calls vs ONE call
// over n×numel. Same floats either way; the delta is pure per-call overhead
// — what execute_batch saves per trigger.
void BM_EltwiseBatchPerOp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int numel = static_cast<int>(state.range(1));
  TensorPool pool;
  Rng rng(7);
  Tensor x = pool.alloc_random(RowVec(n * numel), rng, 0.5f);
  Tensor out = pool.alloc(RowVec(n * numel));
  const Shape s = RowVec(numel);
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      const float* ins[1] = {x.data + static_cast<std::int64_t>(i) * numel};
      run_op(OpKind::kTanh, 1, ins, &s, out.data + static_cast<std::int64_t>(i) * numel,
             s, 0);
    }
    benchmark::DoNotOptimize(out.data[0]);
  }
  state.SetItemsProcessed(state.iterations() * n * numel);
}
BENCHMARK(BM_EltwiseBatchPerOp)
    ->ArgsProduct({{16, 64, 256}, {16}})
    ->ArgNames({"batch", "numel"});

void BM_EltwiseBatchFlat(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int numel = static_cast<int>(state.range(1));
  TensorPool pool;
  Rng rng(7);
  Tensor x = pool.alloc_random(RowVec(n * numel), rng, 0.5f);
  Tensor out = pool.alloc(RowVec(n * numel));
  const Shape flat = RowVec(n * numel);
  const float* ins[1] = {x.data};
  for (auto _ : state) {
    run_op(OpKind::kTanh, 1, ins, &flat, out.data, flat, 0);
    benchmark::DoNotOptimize(out.data[0]);
  }
  state.SetItemsProcessed(state.iterations() * n * numel);
}
BENCHMARK(BM_EltwiseBatchFlat)
    ->ArgsProduct({{16, 64, 256}, {16}})
    ->ArgNames({"batch", "numel"});

// Stacked shared-weight dense: n row-vector denses as n calls vs one
// (n×k)·Wᵀ call — the matmul-family half of the same collapse.
void BM_DenseBatchPerOp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  constexpr int kDim = 16;
  TensorPool pool;
  Rng rng(7);
  Tensor x = pool.alloc_random(Shape(n, kDim), rng, 0.5f);
  Tensor w = pool.alloc_random(Shape(kDim, kDim), rng, 0.1f);
  Tensor out = pool.alloc(Shape(n, kDim));
  const Shape xs = RowVec(kDim);
  const Shape shapes[2] = {xs, w.shape};
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      const float* ins[2] = {x.data + static_cast<std::int64_t>(i) * kDim, w.data};
      run_op(OpKind::kDense, 2, ins, shapes, out.data + static_cast<std::int64_t>(i) * kDim,
             xs, 0);
    }
    benchmark::DoNotOptimize(out.data[0]);
  }
  state.SetItemsProcessed(state.iterations() * 2ll * n * kDim * kDim);
}
BENCHMARK(BM_DenseBatchPerOp)->Arg(16)->Arg(64)->ArgNames({"batch"});

void BM_DenseBatchStacked(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  constexpr int kDim = 16;
  TensorPool pool;
  Rng rng(7);
  Tensor x = pool.alloc_random(Shape(n, kDim), rng, 0.5f);
  Tensor w = pool.alloc_random(Shape(kDim, kDim), rng, 0.1f);
  Tensor out = pool.alloc(Shape(n, kDim));
  const Shape shapes[2] = {x.shape, w.shape};
  const float* ins[2] = {x.data, w.data};
  for (auto _ : state) {
    run_op(OpKind::kDense, 2, ins, shapes, out.data, out.shape, 0);
    benchmark::DoNotOptimize(out.data[0]);
  }
  state.SetItemsProcessed(state.iterations() * 2ll * n * kDim * kDim);
}
BENCHMARK(BM_DenseBatchStacked)->Arg(16)->Arg(64)->ArgNames({"batch"});

// A batch of tanh-RNN cells, act(W·[x;h] + b), over scattered x and h rows
// (dataset inputs and session states live apart). Chain: the engine's old
// coarse path as it executes once batched — per-row concat copies, one
// stacked dense, one flat bias add, one flat tanh. Fused: one run_linear
// call over row pointers. Same floats; the pair isolates kernel-side cost
// (the launches the fused form also saves are simulated, not timed here).
struct CellBatch {
  TensorPool pool;
  Tensor w, b, xh, d, out;
  std::vector<const float*> xs, hs;

  CellBatch(int n, int h) {
    Rng rng(7);
    w = pool.alloc_random(Shape(h, 2 * h), rng, 0.1f);
    b = pool.alloc_random(RowVec(h), rng, 0.1f);
    for (int i = 0; i < n; ++i) {
      xs.push_back(pool.alloc_random(RowVec(h), rng, 0.5f).data);
      hs.push_back(pool.alloc_random(RowVec(h), rng, 0.5f).data);
    }
    xh = pool.alloc(Shape(n, 2 * h));
    d = pool.alloc(Shape(n, h));
    out = pool.alloc(Shape(n, h));
  }
};

void BM_LinearChain(benchmark::State& state) {
  const int h = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  CellBatch c(n, h);
  const Shape ds(n, h);
  const Shape dense_shapes[2] = {c.xh.shape, c.w.shape};
  const Shape bias_shapes[2] = {ds, c.b.shape};
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      float* row = c.xh.data + static_cast<std::int64_t>(i) * 2 * h;
      std::memcpy(row, c.xs[i], sizeof(float) * h);
      std::memcpy(row + h, c.hs[i], sizeof(float) * h);
    }
    const float* dense_ins[2] = {c.xh.data, c.w.data};
    run_op(OpKind::kDense, 2, dense_ins, dense_shapes, c.d.data, ds, 0);
    const float* bias_ins[2] = {c.d.data, c.b.data};
    run_op(OpKind::kAdd, 1, bias_ins, bias_shapes, c.out.data, ds, 0);
    const float* tanh_ins[1] = {c.out.data};
    run_op(OpKind::kTanh, 1, tanh_ins, &ds, c.d.data, ds, 0);
    benchmark::DoNotOptimize(c.d.data[0]);
  }
  state.SetItemsProcessed(state.iterations() * 2ll * n * h * 2 * h);
}
BENCHMARK(BM_LinearChain)->ArgsProduct({{16, 40}, {16, 64}})->ArgNames({"h", "batch"});

void BM_LinearFused(benchmark::State& state) {
  const int h = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  CellBatch c(n, h);
  for (auto _ : state) {
    run_linear(2, kLinearTanh, c.xs.data(), h, c.hs.data(), h, c.w.data, c.b.data, h, n,
               c.out.data);
    benchmark::DoNotOptimize(c.out.data[0]);
  }
  state.SetItemsProcessed(state.iterations() * 2ll * n * h * 2 * h);
}
BENCHMARK(BM_LinearFused)->ArgsProduct({{16, 40}, {16, 64}})->ArgNames({"h", "batch"});

void BM_MatMulBT(benchmark::State& state) {
  const int s = static_cast<int>(state.range(0));
  TensorPool pool;
  Rng rng(7);
  Tensor a = pool.alloc_random(Shape(s, 64), rng, 0.5f);
  Tensor b = pool.alloc_random(Shape(s, 64), rng, 0.5f);
  Tensor out = pool.alloc(Shape(s, s));
  const float* ins[2] = {a.data, b.data};
  const Shape shapes[2] = {a.shape, b.shape};
  for (auto _ : state) {
    run_op(OpKind::kMatMulBT, 0, ins, shapes, out.data, out.shape, 0);
    benchmark::DoNotOptimize(out.data[0]);
  }
}
BENCHMARK(BM_MatMulBT)->Arg(16)->Arg(32);

// Fiber suspension cost (DESIGN.md §1): `fibers` fibers each block once per
// iteration, as decode sessions do at every sync point and token boundary —
// step_ready switches into each, block_current switches back, and
// wake_blocked readies them again. `per_switch` is seconds per one-way
// switch, printed with an SI prefix (e.g. `per_switch=20ns`).
void BM_FiberSwitch(benchmark::State& state) {
  const int fibers = static_cast<int>(state.range(0));
  FiberScheduler fs;
  bool stop = false;
  for (int i = 0; i < fibers; ++i)
    fs.spawn([&] {
      while (!stop) fs.block_current();
    });
  for (auto _ : state) {
    fs.step_ready();
    fs.wake_blocked();
  }
  stop = true;
  fs.step_ready();
  fs.reap_done();
  state.counters["per_switch"] =
      benchmark::Counter(2.0 * fibers, benchmark::Counter::kIsIterationInvariantRate |
                                           benchmark::Counter::kInvert);
}
BENCHMARK(BM_FiberSwitch)->Arg(1)->Arg(16)->ArgNames({"fibers"});

}  // namespace

BENCHMARK_MAIN();
