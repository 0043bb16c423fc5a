// Microbenchmarks of the primitive-kernel schedule variants (the
// auto-scheduler's search space) using google-benchmark, plus the per-switch
// cost of the fiber runtime that suspends instances at sync points.
// harness::apply_default_schedules runs every kernel's last variant on the
// assumption that higher variants are faster; these benches measure it, they
// do not enforce it. At the AVX2 floor the elementwise ops' 4-way unrolled
// variant 1, then the default, lost to the plain loop (medians of 15
// randomly interleaved repetitions, 4-vCPU x86-64 VM, GCC 12: 16.8 vs
// 15.5 ns at n = 40, 47.0 vs 30.1 at 256, 233 vs 213 at 1600, a tie at 16),
// so the plain loop is now their one schedule (BM_Eltwise).
//
// Roofline: BM_CeilingMulAdd and BM_Triad measure this machine's ceilings
// in-process, and the dense-family benches report `GFLOPs` (achieved
// GFLOP/s) and `pct_peak` (that rate as a percentage of the mul+add
// ceiling). Flops count 2·rows·n·k per dense, the multiply and the add.
#include <benchmark/benchmark.h>
#include <immintrin.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <vector>

#include "runtime/fiber.h"
#include "support/rng.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace {

using namespace acrobat;

// `steps` rounds of 8 independent 8-lane chains, acc += x·m, each a separate
// vmulps and vaddps: the instruction pair variant 2's dot tile emits (the
// library builds with -ffp-contract=off, so no FMA), without its loads. The
// empty asm makes m opaque each round so the products cannot be hoisted out
// of the loop. Returns a sum of the chains so none is dead.
__attribute__((noinline)) float mul_add_chains(std::int64_t steps, float seed) {
  __m256 acc[8], x[4];
  for (int c = 0; c < 8; ++c) acc[c] = _mm256_set1_ps(seed * static_cast<float>(c));
  for (int c = 0; c < 4; ++c) x[c] = _mm256_set1_ps(1e-3f * static_cast<float>(c + 1));
  __m256 m0 = _mm256_set1_ps(0.5f), m1 = _mm256_set1_ps(0.25f);
  for (std::int64_t s = 0; s < steps; ++s) {
    asm volatile("" : "+x"(m0), "+x"(m1));
    for (int c = 0; c < 8; ++c)
      acc[c] = _mm256_add_ps(acc[c], _mm256_mul_ps(x[c % 4], c < 4 ? m0 : m1));
  }
  __m256 sum = acc[0];
  for (int c = 1; c < 8; ++c) sum = _mm256_add_ps(sum, acc[c]);
  return _mm256_cvtss_f32(sum);
}
constexpr double kChainFlops = 8 * 8 * 2;  // chains × lanes × (mul + add) per step

// The mul+add ceiling in flop/s, measured once per process over ~0.2 s.
double mul_add_peak() {
  static const double peak = [] {
    constexpr std::int64_t kSteps = 1 << 22;
    double best = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(mul_add_chains(kSteps, 1.0f));
      const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
      best = std::max(best, kSteps * kChainFlops / dt.count());
    }
    return best;
  }();
  return peak;
}

// `GFLOPs` and `pct_peak` counters for `flops` per iteration.
void report_flops(benchmark::State& state, double flops) {
  state.counters["GFLOPs"] =
      benchmark::Counter(flops * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
  state.counters["pct_peak"] = benchmark::Counter(
      flops * 100.0 / mul_add_peak(), benchmark::Counter::kIsIterationInvariantRate);
}

void BM_CeilingMulAdd(benchmark::State& state) {
  constexpr std::int64_t kSteps = 1 << 14;
  for (auto _ : state) benchmark::DoNotOptimize(mul_add_chains(kSteps, 1.0f));
  report_flops(state, kSteps * kChainFlops);
}
BENCHMARK(BM_CeilingMulAdd);

// STREAM triad, a[i] = b[i] + s·c[i], 12 bytes per float element, over
// 24 KB, 768 KB and 48 MB: L1-, L2- and L3-resident on a core with a 48 KB
// L1d, a 2 MB L2 and a shared L3 of 48 MB or more. DRAM is out of reach at
// sizes this bench should allocate (STREAM asks for 4× the last-level
// cache); the kernels' working sets sit in L1/L2 anyway.
void BM_Triad(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  std::vector<float> a(n), b(n, 1.0f), c(n, 2.0f);
  float s = 0.5f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s);
    for (std::int64_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    benchmark::DoNotOptimize(a.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * n * 12);
}
BENCHMARK(BM_Triad)->Arg(2 << 10)->Arg(64 << 10)->Arg(4 << 20)->ArgNames({"floats"});

// tanh over 4096 elements in [-4, 4]: libm tanhf, and kTanh's rational
// tanh one element at a time (variant 0) and 8 lanes at a time (variant 1,
// as kLinear's epilogue runs it).
void BM_Tanh(benchmark::State& state, int variant) {
  constexpr int kN = 4096;
  TensorPool pool;
  Rng rng(7);
  Tensor x = pool.alloc_random(RowVec(kN), rng, 4.0f);
  Tensor out = pool.alloc(RowVec(kN));
  const float* ins[1] = {x.data};
  for (auto _ : state) {
    if (variant < 0) {
      for (int i = 0; i < kN; ++i) out.data[i] = std::tanh(x.data[i]);
    } else {
      run_op(OpKind::kTanh, variant, ins, &x.shape, out.data, out.shape, 0);
    }
    benchmark::DoNotOptimize(out.data);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK_CAPTURE(BM_Tanh, libm, -1);
BENCHMARK_CAPTURE(BM_Tanh, scalar, 0);
BENCHMARK_CAPTURE(BM_Tanh, simd, 1);

// sigmoid over 4096 elements in [-8, 8]: 1/(1 + expf(-x)) through libm, and
// kSigmoid 8 lanes at a time (0.5 + 0.5·tanh(x/2) on the rational tanh).
void BM_Sigmoid(benchmark::State& state, int variant) {
  constexpr int kN = 4096;
  TensorPool pool;
  Rng rng(7);
  Tensor x = pool.alloc_random(RowVec(kN), rng, 8.0f);
  Tensor out = pool.alloc(RowVec(kN));
  const float* ins[1] = {x.data};
  for (auto _ : state) {
    if (variant < 0) {
      for (int i = 0; i < kN; ++i) out.data[i] = 1.0f / (1.0f + std::exp(-x.data[i]));
    } else {
      run_op(OpKind::kSigmoid, variant, ins, &x.shape, out.data, out.shape, 0);
    }
    benchmark::DoNotOptimize(out.data);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK_CAPTURE(BM_Sigmoid, libm, -1);
BENCHMARK_CAPTURE(BM_Sigmoid, simd, 1);

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
  report_flops(state, 2.0 * n * n);
}
BENCHMARK(BM_DenseVariant)
    ->ArgsProduct({{0, 1, 2}, {64, 128, 256}})
    ->ArgNames({"variant", "n"});

// kAdd's one schedule, a plain loop the compiler vectorizes 8 wide.
void BM_Eltwise(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TensorPool pool;
  Rng rng(7);
  Tensor x = pool.alloc_random(RowVec(n), rng, 0.5f);
  Tensor y = pool.alloc_random(RowVec(n), rng, 0.5f);
  Tensor out = pool.alloc(RowVec(n));
  const float* ins[2] = {x.data, y.data};
  const Shape shapes[2] = {x.shape, y.shape};
  for (auto _ : state) {
    run_op(OpKind::kAdd, 0, ins, shapes, out.data, out.shape, 0);
    benchmark::DoNotOptimize(out.data[0]);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Eltwise)->Arg(16)->Arg(40)->Arg(256)->Arg(1600)->ArgNames({"n"});

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

// Stacked shared-weight dense at a coarse RNN cell's shape, (rows, 2h) ·
// (h, 2h)ᵀ: `rows` row-vector denses as that many calls vs one stacked
// call — the matmul-family half of the same collapse. h and rows span
// batch_zoo's cells (hidden 16 / 40) and trigger widths.
struct DenseBatch {
  TensorPool pool;
  Tensor x, w, out;
  DenseBatch(int rows, int h) {
    Rng rng(7);
    x = pool.alloc_random(Shape(rows, 2 * h), rng, 0.5f);
    w = pool.alloc_random(Shape(h, 2 * h), rng, 0.1f);
    out = pool.alloc(Shape(rows, h));
  }
};

void BM_DenseBatchPerOp(benchmark::State& state) {
  const int h = static_cast<int>(state.range(0));
  const int rows = static_cast<int>(state.range(1));
  DenseBatch d(rows, h);
  const Shape shapes[2] = {RowVec(2 * h), d.w.shape};
  for (auto _ : state) {
    for (int i = 0; i < rows; ++i) {
      const float* ins[2] = {d.x.data + static_cast<std::int64_t>(i) * 2 * h, d.w.data};
      run_op(OpKind::kDense, 2, ins, shapes, d.out.data + static_cast<std::int64_t>(i) * h,
             RowVec(h), 0);
    }
    benchmark::DoNotOptimize(d.out.data[0]);
  }
  report_flops(state, 2.0 * rows * h * 2 * h);
}
BENCHMARK(BM_DenseBatchPerOp)->ArgsProduct({{16, 40}, {1, 4, 16, 64}})->ArgNames({"h", "rows"});

void BM_DenseBatchStacked(benchmark::State& state) {
  const int h = static_cast<int>(state.range(0));
  const int rows = static_cast<int>(state.range(1));
  DenseBatch d(rows, h);
  const Shape shapes[2] = {d.x.shape, d.w.shape};
  const float* ins[2] = {d.x.data, d.w.data};
  for (auto _ : state) {
    run_op(OpKind::kDense, 2, ins, shapes, d.out.data, d.out.shape, 0);
    benchmark::DoNotOptimize(d.out.data[0]);
  }
  report_flops(state, 2.0 * rows * h * 2 * h);
}
BENCHMARK(BM_DenseBatchStacked)->ArgsProduct({{16, 40}, {1, 4, 16, 64}})->ArgNames({"h", "rows"});

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
    run_op(OpKind::kAdd, 0, bias_ins, bias_shapes, c.out.data, ds, 0);
    const float* tanh_ins[1] = {c.out.data};
    run_op(OpKind::kTanh, 1, tanh_ins, &ds, c.d.data, ds, 0);
    benchmark::DoNotOptimize(c.d.data[0]);
  }
  report_flops(state, 2.0 * n * h * 2 * h);
}
BENCHMARK(BM_LinearChain)->ArgsProduct({{16, 40}, {1, 4, 16, 64}})->ArgNames({"h", "rows"});

void BM_LinearFused(benchmark::State& state) {
  const int h = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  CellBatch c(n, h);
  for (auto _ : state) {
    run_linear(2, kLinearTanh, c.xs.data(), h, c.hs.data(), nullptr, h, c.w.data, c.b.data, h,
               n, c.out.data);
    benchmark::DoNotOptimize(c.out.data[0]);
  }
  report_flops(state, 2.0 * n * h * 2 * h);
}
BENCHMARK(BM_LinearFused)->ArgsProduct({{16, 40}, {1, 4, 16, 64}})->ArgNames({"h", "rows"});

// A batch of GRU or LSTM cells over scattered x and h rows (an LSTM's h
// operand is its [h; c] state, 2h wide): one run_linear call with W
// (3h or 4h, 2h). `gru` and `lstm` run the cell epilogue; `gru_gates` and
// `lstm_gates` run the same W as kLinear identity, which writes the gates
// instead. The pair isolates the epilogue's kernel-side cost.
void BM_LinearCell(benchmark::State& state, LinearAct act, int gates) {
  const int h = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  TensorPool pool;
  Rng rng(7);
  const Tensor w = pool.alloc_random(Shape(gates * h, 2 * h), rng, 0.1f);
  const Tensor b = pool.alloc_random(RowVec(gates * h), rng, 0.1f);
  const int state_w = gates == 4 ? 2 * h : h;
  std::vector<const float*> xs, hs;
  for (int i = 0; i < n; ++i) {
    xs.push_back(pool.alloc_random(RowVec(h), rng, 0.5f).data);
    hs.push_back(pool.alloc_random(RowVec(state_w), rng, 0.5f).data);
  }
  Tensor out = pool.alloc(Shape(n, gates * h));
  for (auto _ : state) {
    run_linear(2, act, xs.data(), h, hs.data(), nullptr, h, w.data, b.data, gates * h, n,
               out.data);
    benchmark::DoNotOptimize(out.data[0]);
  }
  report_flops(state, 2.0 * n * gates * h * 2 * h);
}
BENCHMARK_CAPTURE(BM_LinearCell, gru, kLinearGru, 3)
    ->ArgsProduct({{16, 40}, {1, 4, 16, 64}})
    ->ArgNames({"h", "rows"});
BENCHMARK_CAPTURE(BM_LinearCell, gru_gates, kLinearIdentity, 3)
    ->ArgsProduct({{16, 40}, {1, 4, 16, 64}})
    ->ArgNames({"h", "rows"});
BENCHMARK_CAPTURE(BM_LinearCell, lstm, kLinearLstm, 4)
    ->ArgsProduct({{16, 40}, {1, 4, 16, 64}})
    ->ArgNames({"h", "rows"});
BENCHMARK_CAPTURE(BM_LinearCell, lstm_gates, kLinearIdentity, 4)
    ->ArgsProduct({{16, 40}, {1, 4, 16, 64}})
    ->ArgNames({"h", "rows"});

// A batch of TreeLSTM internal cells, each over the sum of two [h; c]
// child states. `lstm_sum` is the summed form, one run_linear call that
// adds the two states in its tile; `lstm_add` is what it replaced, one flat
// kAdd of the two states' rows (the child-sum batch over back-to-back
// outputs) and then the `lstm` call over the sums. Their gap is the in-tile
// sum's kernel-side cost or saving.
void BM_LinearCellSum(benchmark::State& state, bool summed) {
  const int h = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  TensorPool pool;
  Rng rng(7);
  const Tensor w = pool.alloc_random(Shape(4 * h, 2 * h), rng, 0.1f);
  const Tensor b = pool.alloc_random(RowVec(4 * h), rng, 0.1f);
  const Tensor l = pool.alloc_random(Shape(n, 2 * h), rng, 0.5f);
  const Tensor r = pool.alloc_random(Shape(n, 2 * h), rng, 0.5f);
  Tensor sums = pool.alloc(Shape(n, 2 * h));
  std::vector<const float*> xs, ls, rs, ss;
  for (int i = 0; i < n; ++i) {
    xs.push_back(pool.alloc_random(RowVec(h), rng, 0.5f).data);
    ls.push_back(l.data + static_cast<std::ptrdiff_t>(i) * 2 * h);
    rs.push_back(r.data + static_cast<std::ptrdiff_t>(i) * 2 * h);
    ss.push_back(sums.data + static_cast<std::ptrdiff_t>(i) * 2 * h);
  }
  const float* add_ins[2] = {l.data, r.data};
  const Shape add_shapes[2] = {l.shape, r.shape};
  Tensor out = pool.alloc(Shape(n, 2 * h));
  for (auto _ : state) {
    if (summed) {
      run_linear(2, kLinearLstm | kLinearSumH, xs.data(), h, ls.data(), rs.data(), h, w.data,
                 b.data, 4 * h, n, out.data);
    } else {
      run_op(OpKind::kAdd, 0, add_ins, add_shapes, sums.data, sums.shape, 0);
      run_linear(2, kLinearLstm, xs.data(), h, ss.data(), nullptr, h, w.data, b.data, 4 * h, n,
                 out.data);
    }
    benchmark::DoNotOptimize(out.data[0]);
  }
  report_flops(state, 2.0 * n * 4 * h * 2 * h);
}
BENCHMARK_CAPTURE(BM_LinearCellSum, lstm_sum, true)
    ->ArgsProduct({{16, 40}, {1, 4, 16, 64}})
    ->ArgNames({"h", "rows"});
BENCHMARK_CAPTURE(BM_LinearCellSum, lstm_add, false)
    ->ArgsProduct({{16, 40}, {1, 4, 16, 64}})
    ->ArgNames({"h", "rows"});

// The matmul family at the models' shapes, every variant; the default
// schedule runs the last (harness::apply_default_schedules). kMatMul is
// a (m, k) · b (k, n): Berxit's mix (s, s)·(s, h) at (8, 16) and (12, 40),
// MV-RNN's vmat (1, h)·(h, h) at h = 16 and 40. BM_MatMulBT is Berxit's
// score a (s, h) · b (s, h)ᵀ, a kDense with W = b.
void BM_MatMul(benchmark::State& state) {
  const int variant = static_cast<int>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  const int n = static_cast<int>(state.range(3));
  TensorPool pool;
  Rng rng(7);
  Tensor a = pool.alloc_random(Shape(m, k), rng, 0.5f);
  Tensor b = pool.alloc_random(Shape(k, n), rng, 0.5f);
  Tensor out = pool.alloc(Shape(m, n));
  const float* ins[2] = {a.data, b.data};
  const Shape shapes[2] = {a.shape, b.shape};
  for (auto _ : state) {
    run_op(OpKind::kMatMul, variant, ins, shapes, out.data, out.shape, 0);
    benchmark::DoNotOptimize(out.data[0]);
  }
  report_flops(state, 2.0 * m * k * n);
}
BENCHMARK(BM_MatMul)
    ->ArgsProduct({{0, 1, 2}, {8}, {8}, {16}})
    ->ArgsProduct({{0, 1, 2}, {12}, {12}, {40}})
    ->ArgsProduct({{0, 1, 2}, {1}, {16}, {16}})
    ->ArgsProduct({{0, 1, 2}, {1}, {40}, {40}})
    ->ArgNames({"variant", "m", "k", "n"});

void BM_MatMulBT(benchmark::State& state) {
  const int variant = static_cast<int>(state.range(0));
  const int s = static_cast<int>(state.range(1));
  const int h = static_cast<int>(state.range(2));
  TensorPool pool;
  Rng rng(7);
  Tensor a = pool.alloc_random(Shape(s, h), rng, 0.5f);
  Tensor b = pool.alloc_random(Shape(s, h), rng, 0.5f);
  Tensor out = pool.alloc(Shape(s, s));
  const float* ins[2] = {a.data, b.data};
  const Shape shapes[2] = {a.shape, b.shape};
  for (auto _ : state) {
    run_op(OpKind::kDense, variant, ins, shapes, out.data, out.shape, 0);
    benchmark::DoNotOptimize(out.data[0]);
  }
  report_flops(state, 2.0 * s * s * h);
}
BENCHMARK(BM_MatMulBT)
    ->ArgsProduct({{0, 1, 2}, {8}, {16}})
    ->ArgsProduct({{0, 1, 2}, {12}, {40}})
    ->ArgNames({"variant", "s", "h"});

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
