// Tensor-op correctness against hand-computed references, and variant
// agreement (every schedule variant of a kernel computes the same function).
// The SIMD kernels are pinned bitwise: dense variant 2's register-blocked
// tile against the per-row loop it replaced, kMatMul's tile against the
// row-update loop it replaced, kLinear's GRU and LSTM epilogues against the
// elementwise chain of the same cell body, the summed kLinear against a kAdd
// and the plain form, and the 8- and 4-lane tanh and
// sigmoid against their one-element forms, with tolerance checks of each
// against the exact function.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include "support/rng.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "test_util.h"

using namespace acrobat;

namespace {

void test_dense_reference() {
  // x = [1, 2], W = [[1, -1], [0.5, 0.25], [2, 0]] (3 outputs, row-major).
  const float x[2] = {1.0f, 2.0f};
  const float w[6] = {1.0f, -1.0f, 0.5f, 0.25f, 2.0f, 0.0f};
  const Shape shapes[2] = {RowVec(2), Shape(3, 2)};
  const float* ins[2] = {x, w};
  float out[3] = {};
  for (int variant = 0; variant < op_num_variants(OpKind::kDense); ++variant) {
    run_op(OpKind::kDense, variant, ins, shapes, out, RowVec(3), 0);
    CHECK_NEAR(out[0], -1.0, 1e-6);   // 1*1 + 2*(-1)
    CHECK_NEAR(out[1], 1.0, 1e-6);    // 1*0.5 + 2*0.25
    CHECK_NEAR(out[2], 2.0, 1e-6);    // 1*2 + 2*0
  }
  // 2-D x: a (2x2) · bᵀ, b (2x2) row-major as W.
  const float a[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  const float b[4] = {5.0f, 6.0f, 7.0f, 8.0f};
  const Shape shapes2[2] = {Shape(2, 2), Shape(2, 2)};
  const float* ins2[2] = {a, b};
  float out2[4] = {};
  for (int variant = 0; variant < op_num_variants(OpKind::kDense); ++variant) {
    run_op(OpKind::kDense, variant, ins2, shapes2, out2, Shape(2, 2), 0);
    CHECK_NEAR(out2[0], 17.0, 1e-6);  // [1 2]·[5 6]
    CHECK_NEAR(out2[1], 23.0, 1e-6);  // [1 2]·[7 8]
    CHECK_NEAR(out2[2], 39.0, 1e-6);
    CHECK_NEAR(out2[3], 53.0, 1e-6);
  }
}

void test_matmul_reference() {
  // a (2x2) · b (2x2)
  const float a[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  const float b[4] = {5.0f, 6.0f, 7.0f, 8.0f};
  const Shape shapes[2] = {Shape(2, 2), Shape(2, 2)};
  const float* ins[2] = {a, b};
  float out[4] = {};
  for (int variant = 0; variant < op_num_variants(OpKind::kMatMul); ++variant) {
    run_op(OpKind::kMatMul, variant, ins, shapes, out, Shape(2, 2), 0);
    CHECK_NEAR(out[0], 19.0, 1e-6);
    CHECK_NEAR(out[1], 22.0, 1e-6);
    CHECK_NEAR(out[2], 43.0, 1e-6);
    CHECK_NEAR(out[3], 50.0, 1e-6);
  }
}

void test_eltwise_and_broadcast() {
  const float a[6] = {1, 2, 3, 4, 5, 6};
  const float b[3] = {10, 20, 30};
  const Shape shapes[2] = {Shape(2, 3), RowVec(3)};
  const float* ins[2] = {a, b};
  float out[6] = {};
  run_op(OpKind::kAdd, 0, ins, shapes, out, Shape(2, 3), 0);
  CHECK_NEAR(out[0], 11.0, 1e-6);
  CHECK_NEAR(out[5], 36.0, 1e-6);
  run_op(OpKind::kMul, 0, ins, shapes, out, Shape(2, 3), 0);
  CHECK_NEAR(out[4], 100.0, 1e-6);
}

void test_softmax_and_reductions() {
  const float a[3] = {0.0f, 0.0f, 0.0f};
  const Shape s[1] = {RowVec(3)};
  const float* ins[1] = {a};
  float out[3] = {};
  run_op(OpKind::kSoftmax, 0, ins, s, out, RowVec(3), 0);
  CHECK_NEAR(out[0], 1.0 / 3.0, 1e-6);
  float one[1] = {};
  run_op(OpKind::kSumAll, 0, ins, s, one, Shape(1), 0);
  CHECK_NEAR(one[0], 0.0, 1e-6);
}

void test_variants_agree() {
  // Random larger shapes: all variants of a kind agree within float noise.
  TensorPool pool;
  Rng rng(42);
  const Tensor x = pool.alloc_random(Shape(5, 33), rng, 1.0f);
  const Tensor w = pool.alloc_random(Shape(17, 33), rng, 0.5f);
  const Shape shapes[2] = {x.shape, w.shape};
  const float* ins[2] = {x.data, w.data};
  Tensor ref = pool.alloc(Shape(5, 17));
  Tensor got = pool.alloc(Shape(5, 17));
  run_op(OpKind::kDense, 0, ins, shapes, ref.data, ref.shape, 0);
  for (int v = 1; v < op_num_variants(OpKind::kDense); ++v) {
    run_op(OpKind::kDense, v, ins, shapes, got.data, got.shape, 0);
    for (std::int64_t i = 0; i < ref.numel(); ++i) CHECK_NEAR(got.data[i], ref.data[i], 1e-4);
  }
}

// One row of a kLinear cell epilogue fed exact gate values: W = 0, so
// W·[x;h] + b is the bias, the chosen gate row. h is the GRU's h (n) or the
// LSTM's [h; c] state (2n); returns h' or [h'; c'].
std::vector<float> cell_epilogue(LinearAct act, int variant, const std::vector<float>& gates,
                                 const std::vector<float>& h) {
  const int n_gates = static_cast<int>(gates.size());
  const int hid = act == kLinearGru ? n_gates / 3 : n_gates / 4;
  const std::vector<float> x = {0.5f}, w(static_cast<std::size_t>(n_gates) * (1 + hid), 0.0f);
  const Shape os = RowVec(act == kLinearGru ? hid : 2 * hid);
  std::vector<float> out(static_cast<std::size_t>(os.numel()));
  const float* ins[4] = {x.data(), h.data(), w.data(), gates.data()};
  const Shape shapes[4] = {RowVec(1), RowVec(static_cast<int>(h.size())), Shape(n_gates, 1 + hid),
                           RowVec(n_gates)};
  CHECK(infer_shape(OpKind::kLinear, act, shapes, 4) == os);
  run_op(OpKind::kLinear, variant, ins, shapes, out.data(), os, act);
  return out;
}

void test_lstm_pointwise() {
  // One unit: gates [i f g o] = [0, 0, raw g, 0], state [h; c] = [0.3, 2].
  const std::vector<float> gates = {0.0f, 0.0f, 0.5f, 0.0f}, state = {0.3f, 2.0f};
  for (int v = 0; v < op_num_variants(OpKind::kLinear); ++v) {
    const std::vector<float> out = cell_epilogue(kLinearLstm, v, gates, state);
    // c' = σ(0+1)*2 + σ(0)*tanh(0.5); h' = σ(0)*tanh(c')
    const double c2 = 1.0 / (1.0 + std::exp(-1.0)) * 2.0 + 0.5 * std::tanh(0.5);
    CHECK_NEAR(out[1], c2, 1e-6);
    CHECK_NEAR(out[0], 0.5 * std::tanh(c2), 1e-6);
  }
}

// The chain kLinear replaces, op by op: [x;h] concatenated row by row, then
// dense → bias add → activation at the given dense variant.
std::vector<float> linear_chain(int variant, LinearAct act, const Tensor& x, const Tensor* h,
                                const Tensor& w, const Tensor& b) {
  const int m = x.shape.rows(), kx = x.shape.cols(), kh = h ? h->shape.cols() : 0;
  const int n = w.shape.dim[0];
  std::vector<float> xh, d(static_cast<std::size_t>(m) * n), out(d.size());
  for (int r = 0; r < m; ++r) {
    xh.insert(xh.end(), x.data + r * kx, x.data + (r + 1) * kx);
    if (h) xh.insert(xh.end(), h->data + r * kh, h->data + (r + 1) * kh);
  }
  const Shape xs = m == 1 && x.shape.ndim == 1 ? RowVec(kx + kh) : Shape(m, kx + kh);
  const Shape os = xs.ndim == 1 ? RowVec(n) : Shape(m, n);
  const float* dins[2] = {xh.data(), w.data};
  const Shape dshapes[2] = {xs, w.shape};
  run_op(OpKind::kDense, variant, dins, dshapes, d.data(), os, 0);
  const float* bins[2] = {d.data(), b.data};
  const Shape bshapes[2] = {os, b.shape};
  run_op(OpKind::kAdd, 0, bins, bshapes, out.data(), os, 0);
  if (act == kLinearIdentity) return out;
  const float* ains[1] = {out.data()};
  run_op(act == kLinearTanh ? OpKind::kTanh : OpKind::kSoftmax, variant % 2, ains, &os,
         d.data(), os, 0);
  return d;
}

// kLinear is bitwise equal to concat → dense → add → tanh/identity and to
// dense → add → softmax at every dense variant. Splits: h ∈ {16, 40}, one
// kx that is not a multiple of 4 (variant 2's 4-wide blocks straddle the
// split), the x-only form, and 3-row operands.
void test_linear_matches_chain() {
  struct Case {
    int m, kx, kh, n;
  };
  const Case cases[] = {{1, 16, 16, 16}, {1, 40, 40, 40}, {1, 16, 16, 64}, {1, 7, 13, 24},
                        {1, 16, 0, 8},   {1, 80, 0, 8},   {3, 7, 13, 24},  {3, 40, 0, 8}};
  TensorPool pool;
  Rng rng(5);
  for (const Case& c : cases) {
    const Shape xs = c.m == 1 ? RowVec(c.kx) : Shape(c.m, c.kx);
    const Shape hs = c.m == 1 ? RowVec(c.kh) : Shape(c.m, c.kh);
    const Shape os = c.m == 1 ? RowVec(c.n) : Shape(c.m, c.n);
    const Tensor x = pool.alloc_random(xs, rng, 1.0f);
    const Tensor h = pool.alloc_random(c.kh > 0 ? hs : RowVec(1), rng, 1.0f);
    const Tensor w = pool.alloc_random(Shape(c.n, c.kx + c.kh), rng, 0.3f);
    const Tensor b = pool.alloc_random(RowVec(c.n), rng, 0.2f);
    const bool split = c.kh > 0;
    const float* ins[4] = {x.data, h.data, w.data, b.data};
    const Shape shapes[4] = {xs, hs, w.shape, b.shape};
    const float* ins1[3] = {x.data, w.data, b.data};
    const Shape shapes1[3] = {xs, w.shape, b.shape};
    CHECK(infer_shape(OpKind::kLinear, 0, split ? shapes : shapes1, split ? 4 : 3) == os);
    std::vector<float> got(static_cast<std::size_t>(os.numel()));
    for (int v = 0; v < op_num_variants(OpKind::kLinear); ++v) {
      for (const LinearAct act : {kLinearIdentity, kLinearTanh, kLinearSoftmax}) {
        const std::vector<float> want = linear_chain(v, act, x, split ? &h : nullptr, w, b);
        run_op(OpKind::kLinear, v, split ? ins : ins1, split ? shapes : shapes1, got.data(), os,
               act);
        CHECK(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)) == 0);
      }
    }
  }
}

// run_linear over scattered per-row pointers equals one run_op per row.
void test_linear_row_pointers() {
  constexpr int kRows = 6, kx = 16, kh = 16, n = 48;
  TensorPool pool;
  Rng rng(9);
  const Tensor w = pool.alloc_random(Shape(n, kx + kh), rng, 0.3f);
  const Tensor b = pool.alloc_random(RowVec(n), rng, 0.2f);
  std::vector<const float*> xp, hp;
  for (int r = 0; r < kRows; ++r) {
    xp.push_back(pool.alloc_random(RowVec(kx), rng, 1.0f).data);
    pool.alloc(RowVec(3));  // padding: rows are not back to back
    hp.push_back(pool.alloc_random(RowVec(kh), rng, 1.0f).data);
  }
  for (int v = 0; v < op_num_variants(OpKind::kLinear); ++v) {
    std::vector<float> batched(kRows * n), single(kRows * n);
    run_linear(v, kLinearTanh, xp.data(), kx, hp.data(), nullptr, kh, w.data, b.data, n, kRows,
               batched.data());
    const Shape shapes[4] = {RowVec(kx), RowVec(kh), w.shape, b.shape};
    for (int r = 0; r < kRows; ++r) {
      const float* ins[4] = {xp[r], hp[r], w.data, b.data};
      run_op(OpKind::kLinear, v, ins, shapes, single.data() + r * n, RowVec(n), kLinearTanh);
    }
    CHECK(std::memcmp(batched.data(), single.data(), batched.size() * sizeof(float)) == 0);
  }
}

// An elementwise op through run_op over n floats at a, b.
void elementwise(OpKind kind, const float* a, const float* b, int n, float* out) {
  const Shape s = RowVec(n);
  const Shape shapes[2] = {s, s};
  const float* ins[2] = {a, b};
  run_op(kind, kind == OpKind::kTanh || kind == OpKind::kSigmoid ? 1 : 0, ins, shapes, out, s, 0);
}

// The cell body a GRU or LSTM epilogue runs, as run_op's elementwise kernels
// over one row of gates: GRU h' = (1 - σ(z))·h + σ(z)·tanh(ĥ) into o (n);
// LSTM c' = σ(f + 1)·c + σ(i)·tanh(g), h' = σ(o)·tanh(c') into o = [h'; c'].
void cell_chain(LinearAct act, const float* g, const float* h, int n, float* o) {
  std::vector<float> t(4 * n), ones(n, 1.0f);
  float *a = t.data(), *b = a + n, *c = b + n, *d = c + n;
  if (act == kLinearGru) {
    elementwise(OpKind::kSigmoid, g, nullptr, n, a);   // z
    elementwise(OpKind::kSub, ones.data(), a, n, b);   // 1 - z
    elementwise(OpKind::kMul, b, h, n, b);             // (1 - z)·h
    elementwise(OpKind::kTanh, g + 2 * n, nullptr, n, c);
    elementwise(OpKind::kMul, a, c, n, c);             // z·tanh(ĥ)
    elementwise(OpKind::kAdd, b, c, n, o);
    return;
  }
  const float* cc = h + n;
  elementwise(OpKind::kAdd, g + n, ones.data(), n, a);  // f + 1
  elementwise(OpKind::kSigmoid, a, nullptr, n, a);
  elementwise(OpKind::kMul, a, cc, n, a);               // σ(f + 1)·c
  elementwise(OpKind::kSigmoid, g, nullptr, n, b);
  elementwise(OpKind::kTanh, g + 2 * n, nullptr, n, c);
  elementwise(OpKind::kMul, b, c, n, b);                // σ(i)·tanh(g)
  elementwise(OpKind::kAdd, a, b, n, o + n);            // c'
  elementwise(OpKind::kSigmoid, g + 3 * n, nullptr, n, d);
  elementwise(OpKind::kTanh, o + n, nullptr, n, c);
  elementwise(OpKind::kMul, d, c, n, o);                // h'
}

// Each cell epilogue is memcmp-equal to kLinear identity followed by the
// cell body as run_op's elementwise kernels, at every variant and 1-9 rows:
// over scattered row pointers (run_linear) and stacked operands (run_op).
// Hidden widths 16 and 40, and a kx = 7 split (variant 2's 4-blocks
// straddle x and h). The LSTM's h operand is the [h; c] state, twice W's h
// columns; the GRU's h rows are also read with 5 floats of slack past them.
// A cell past the stack buffer's width bound aborts.
void test_cell_epilogues_match_chain() {
  struct Case {
    LinearAct act;
    int kx, hid, slack;
  };
  const Case cases[] = {{kLinearGru, 16, 16, 0}, {kLinearGru, 40, 40, 0}, {kLinearGru, 7, 13, 0},
                        {kLinearGru, 16, 16, 5}, {kLinearLstm, 16, 16, 0},
                        {kLinearLstm, 40, 40, 0}, {kLinearLstm, 7, 13, 0}};
  TensorPool pool;
  Rng rng(37);
  int bad = 0;
  for (const Case& c : cases) {
    const bool gru = c.act == kLinearGru;
    const int n = (gru ? 3 : 4) * c.hid, out_cols = gru ? c.hid : 2 * c.hid;
    const int hw = (gru ? c.hid : 2 * c.hid) + c.slack;  // the h operand's row stride
    const Tensor w = pool.alloc_random(Shape(n, c.kx + c.hid), rng, 0.3f);
    const Tensor b = pool.alloc_random(RowVec(n), rng, 0.2f);
    for (int rows = 1; rows <= 9; ++rows) {
      std::vector<const float*> xp, hp;
      std::vector<float> xs, hs;
      for (int r = 0; r < rows; ++r) {
        xp.push_back(pool.alloc_random(RowVec(c.kx), rng, 1.0f).data);
        pool.alloc(RowVec(3));  // padding: rows are not back to back
        hp.push_back(pool.alloc_random(RowVec(hw), rng, 1.0f).data);
        xs.insert(xs.end(), xp.back(), xp.back() + c.kx);
        hs.insert(hs.end(), hp.back(), hp.back() + hw);
      }
      const Shape shapes[4] = {Shape(rows, c.kx), Shape(rows, hw), w.shape, b.shape};
      const float* ins[4] = {xs.data(), hs.data(), w.data, b.data};
      CHECK(infer_shape(OpKind::kLinear, c.act, shapes, 4) == Shape(rows, out_cols));
      for (int v = 0; v < op_num_variants(OpKind::kLinear); ++v) {
        std::vector<float> gates(static_cast<std::size_t>(rows) * n);
        std::vector<float> want(static_cast<std::size_t>(rows) * out_cols), got(want.size());
        run_linear(v, kLinearIdentity, xp.data(), c.kx, hp.data(), nullptr, c.hid, w.data,
                   b.data, n, rows, gates.data());
        for (int r = 0; r < rows; ++r)
          cell_chain(c.act, gates.data() + r * n, hp[r], c.hid, want.data() + r * out_cols);
        const auto same = [&](const char* what) {
          if (std::memcmp(got.data(), want.data(), want.size() * sizeof(float)) == 0) return;
          if (++bad <= 10)
            std::printf("  %s %s differs: variant %d rows=%d kx=%d hid=%d\n", what,
                        gru ? "gru" : "lstm", v, rows, c.kx, c.hid);
        };
        run_linear(v, c.act, xp.data(), c.kx, hp.data(), nullptr, c.hid, w.data, b.data, n,
                   rows, got.data());
        same("run_linear");
        run_op(OpKind::kLinear, v, ins, shapes, got.data(), Shape(rows, out_cols), c.act);
        same("run_op");
      }
    }
  }
  CHECK_EQ(bad, 0);
  // A cell wider than the epilogue's stack buffer (512 gates per row) aborts.
  constexpr int kWide = 172;  // a GRU of 516 gates
  const Tensor w = pool.alloc_random(Shape(3 * kWide, 2 * kWide), rng, 0.1f);
  const Tensor b = pool.alloc_random(RowVec(3 * kWide), rng, 0.1f);
  const Tensor x = pool.alloc_random(RowVec(kWide), rng, 1.0f);
  const Tensor h = pool.alloc_random(RowVec(kWide), rng, 1.0f);
  std::vector<float> out(kWide);
  const float* xp[1] = {x.data};
  const float* hp[1] = {h.data};
  CHECK(test::dies([&] {
    run_linear(2, kLinearGru, xp, kWide, hp, nullptr, kWide, w.data, b.data, 3 * kWide, 1,
               out.data());
  }));
}

// The summed form (kLinearSumH) is memcmp-equal to kAdd's h1 + h2 followed
// by the plain form, for every epilogue and variant at 1-9 rows: over
// scattered row pointers (run_linear) and stacked operands (run_op, where h1
// and h2 have different row strides). An LSTM's h1 and h2 are [h; c]
// states, so the sum covers the c half its epilogue reads. A row past the
// sum buffer's bound (256 floats) aborts.
void test_linear_summed_form() {
  struct Case {
    LinearAct act;
    int kx, hid;
  };
  const Case cases[] = {{kLinearIdentity, 16, 16}, {kLinearTanh, 7, 13}, {kLinearSoftmax, 16, 16},
                        {kLinearGru, 16, 16},      {kLinearGru, 40, 40}, {kLinearLstm, 16, 16},
                        {kLinearLstm, 40, 40},     {kLinearLstm, 7, 13}};
  TensorPool pool;
  Rng rng(61);
  int bad = 0;
  for (const Case& c : cases) {
    const int gates = c.act == kLinearGru ? 3 : c.act == kLinearLstm ? 4 : 1;
    const int n = gates * c.hid, sw = c.act == kLinearLstm ? 2 * c.hid : c.hid;
    const int out_cols = c.act == kLinearGru ? c.hid : c.act == kLinearLstm ? 2 * c.hid : n;
    const Tensor w = pool.alloc_random(Shape(n, c.kx + c.hid), rng, 0.3f);
    const Tensor b = pool.alloc_random(RowVec(n), rng, 0.2f);
    const std::int64_t summed = c.act | kLinearSumH;
    for (int rows = 1; rows <= 9; ++rows) {
      std::vector<const float*> xp, h1p, h2p, sp;
      std::vector<float> xs, h1s, h2s, sums(static_cast<std::size_t>(rows) * sw);
      for (int r = 0; r < rows; ++r) {
        xp.push_back(pool.alloc_random(RowVec(c.kx), rng, 1.0f).data);
        h1p.push_back(pool.alloc_random(RowVec(sw), rng, 1.0f).data);
        pool.alloc(RowVec(3));  // padding: rows are not back to back
        h2p.push_back(pool.alloc_random(RowVec(sw + 3), rng, 1.0f).data);
        xs.insert(xs.end(), xp.back(), xp.back() + c.kx);
        h1s.insert(h1s.end(), h1p.back(), h1p.back() + sw);
        h2s.insert(h2s.end(), h2p.back(), h2p.back() + sw + 3);
        float* sum = sums.data() + static_cast<std::ptrdiff_t>(r) * sw;
        elementwise(OpKind::kAdd, h1p.back(), h2p.back(), sw, sum);
        sp.push_back(sum);
      }
      const Shape shapes[5] = {Shape(rows, c.kx), Shape(rows, sw), Shape(rows, sw + 3), w.shape,
                               b.shape};
      const float* ins[5] = {xs.data(), h1s.data(), h2s.data(), w.data, b.data};
      CHECK(infer_shape(OpKind::kLinear, summed, shapes, 5) == Shape(rows, out_cols));
      for (int v = 0; v < op_num_variants(OpKind::kLinear); ++v) {
        std::vector<float> want(static_cast<std::size_t>(rows) * out_cols), got(want.size());
        run_linear(v, c.act, xp.data(), c.kx, sp.data(), nullptr, c.hid, w.data, b.data, n, rows,
                   want.data());
        const auto same = [&](const char* what) {
          if (std::memcmp(got.data(), want.data(), want.size() * sizeof(float)) == 0) return;
          if (++bad <= 10)
            std::printf("  summed %s differs: act %d variant %d rows=%d kx=%d hid=%d\n", what,
                        static_cast<int>(c.act), v, rows, c.kx, c.hid);
        };
        run_linear(v, summed, xp.data(), c.kx, h1p.data(), h2p.data(), c.hid, w.data, b.data, n,
                   rows, got.data());
        same("run_linear");
        run_op(OpKind::kLinear, v, ins, shapes, got.data(), Shape(rows, out_cols), summed);
        same("run_op");
      }
    }
  }
  CHECK_EQ(bad, 0);
  constexpr int kWide = 257;  // an h row one float past the sum buffer
  const Tensor w = pool.alloc_random(Shape(8, 8 + kWide), rng, 0.1f);
  const Tensor b = pool.alloc_random(RowVec(8), rng, 0.1f);
  const Tensor x = pool.alloc_random(RowVec(8), rng, 1.0f);
  const Tensor h = pool.alloc_random(RowVec(kWide), rng, 1.0f);
  std::vector<float> out(8);
  const float* xp[1] = {x.data};
  const float* hp[1] = {h.data};
  CHECK(test::dies([&] {
    run_linear(2, kLinearTanh | kLinearSumH, xp, 8, hp, hp, kWide, w.data, b.data, 8, 1,
               out.data());
  }));
}

// The operand rule: kLinear reads the first kx floats of each x row and the
// first W.cols − kx of each h row (x-only: the first W.cols of each x row),
// and an operand's width is only its row stride. So over rows with 3 floats
// of slack past them, every epilogue of both forms is memcmp-equal to the
// same rows packed, at every variant.
void test_linear_operand_rule() {
  constexpr int kRows = 5, kx = 7, kh = 13, n = 24, kSlack = 3;
  TensorPool pool;
  Rng rng(43);
  const Tensor w = pool.alloc_random(Shape(n, kx + kh), rng, 0.3f);
  const Tensor w1 = pool.alloc_random(Shape(n, kx), rng, 0.3f);
  const Tensor b = pool.alloc_random(RowVec(n), rng, 0.2f);
  const Tensor xw = pool.alloc_random(Shape(kRows, kx + kSlack), rng, 1.0f);
  const Tensor hw = pool.alloc_random(Shape(kRows, kh + kSlack), rng, 1.0f);
  std::vector<float> xs, hs;
  for (int r = 0; r < kRows; ++r) {
    xs.insert(xs.end(), xw.data + r * (kx + kSlack), xw.data + r * (kx + kSlack) + kx);
    hs.insert(hs.end(), hw.data + r * (kh + kSlack), hw.data + r * (kh + kSlack) + kh);
  }
  const Shape os(kRows, n);
  std::vector<float> want(static_cast<std::size_t>(os.numel())), got(want.size());
  for (int v = 0; v < op_num_variants(OpKind::kLinear); ++v) {
    for (const LinearAct act : {kLinearIdentity, kLinearTanh, kLinearSoftmax}) {
      // [x;h]: x packed, h with slack.
      const Shape packed[4] = {Shape(kRows, kx), Shape(kRows, kh), w.shape, b.shape};
      const float* pins[4] = {xs.data(), hs.data(), w.data, b.data};
      const Shape wide[4] = {Shape(kRows, kx), hw.shape, w.shape, b.shape};
      const float* wins[4] = {xs.data(), hw.data, w.data, b.data};
      CHECK(infer_shape(OpKind::kLinear, act, wide, 4) == os);
      run_op(OpKind::kLinear, v, pins, packed, want.data(), os, act);
      run_op(OpKind::kLinear, v, wins, wide, got.data(), os, act);
      CHECK(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)) == 0);
      // x alone, with slack.
      const Shape packed1[3] = {Shape(kRows, kx), w1.shape, b.shape};
      const float* pins1[3] = {xs.data(), w1.data, b.data};
      const Shape wide1[3] = {xw.shape, w1.shape, b.shape};
      const float* wins1[3] = {xw.data, w1.data, b.data};
      CHECK(infer_shape(OpKind::kLinear, act, wide1, 3) == os);
      run_op(OpKind::kLinear, v, pins1, packed1, want.data(), os, act);
      run_op(OpKind::kLinear, v, wins1, wide1, got.data(), os, act);
      CHECK(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)) == 0);
    }
  }
}

// Dense variant 2 as a per-row loop: four accumulators, one per position
// mod 4 of [x;h], the (a0+a1)+(a2+a3) fold, then the (k mod 4) tail
// i-ascending. The reference the register-blocked tile must match bitwise.
void dense_row_v2_ref(const float* x, int kx, const float* h, int kh, const float* w, int n,
                      float* o) {
  const int k = kx + kh;
  const auto at = [&](int i) { return i < kx ? x[i] : h[i - kx]; };
  for (int j = 0; j < n; ++j) {
    const float* wj = w + static_cast<std::int64_t>(j) * k;
    float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
    int i = 0;
    for (; i + 4 <= k; i += 4) {
      a0 += at(i) * wj[i];
      a1 += at(i + 1) * wj[i + 1];
      a2 += at(i + 2) * wj[i + 2];
      a3 += at(i + 3) * wj[i + 3];
    }
    float acc = (a0 + a1) + (a2 + a3);
    for (; i < k; ++i) acc += at(i) * wj[i];
    o[j] = acc;
  }
}

// Every variant-2 entry point — kDense stacked (x-only and over [x;h]
// concatenated), kLinear through run_op (stacked, split or not) and
// run_linear over scattered row pointers — is bitwise the per-row loop.
// Rows 1-9 cover every row-tile remainder; n covers every output-tile
// remainder: after full 8- or 4-output tiles, output pairs and an odd last
// output (n = 7, 9, 13 reach it after full pair tiles); and the (kx, kh)
// list k mod 4 ∈ {0, 1, 2, 3}, splits with kx mod 4 ≠ 0 (a 4-block
// straddles x and h, or only the tail does), and kh = 0.
void test_dense_tile_matches_row_loop() {
  struct K {
    int kx, kh;
  };
  const K ks[] = {{1, 0},  {3, 0},   {16, 0}, {17, 0}, {18, 0}, {19, 0}, {40, 0},
                  {16, 16}, {40, 40}, {7, 13}, {5, 6},  {6, 3},  {3, 2},  {1, 1},
                  {2, 1},   {13, 7},  {9, 30}};
  const int ns[] = {1, 2, 3, 5, 7, 9, 13, 16, 48, 120};
  TensorPool pool;
  Rng rng(17);
  int bad = 0;
  for (const K& c : ks) {
    const int k = c.kx + c.kh;
    for (const int n : ns) {
      const Tensor w = pool.alloc_random(Shape(n, k), rng, 0.3f);
      const Tensor b = pool.alloc_random(RowVec(n), rng, 0.2f);
      for (int rows = 1; rows <= 9; ++rows) {
        std::vector<const float*> xp, hp;
        for (int r = 0; r < rows; ++r) {
          xp.push_back(pool.alloc_random(RowVec(c.kx), rng, 1.0f).data);
          pool.alloc(RowVec(3));  // padding: rows are not back to back
          hp.push_back(c.kh > 0 ? pool.alloc_random(RowVec(c.kh), rng, 1.0f).data : nullptr);
        }
        std::vector<float> xs, hs, xh, want(static_cast<std::size_t>(rows) * n);
        for (int r = 0; r < rows; ++r) {
          xs.insert(xs.end(), xp[r], xp[r] + c.kx);
          xh.insert(xh.end(), xp[r], xp[r] + c.kx);
          if (c.kh == 0) continue;
          hs.insert(hs.end(), hp[r], hp[r] + c.kh);
          xh.insert(xh.end(), hp[r], hp[r] + c.kh);
        }
        for (int r = 0; r < rows; ++r)
          dense_row_v2_ref(xp[r], c.kx, hp[r], c.kh, w.data, n, want.data() + r * n);
        std::vector<float> biased(want.size());
        for (std::size_t i = 0; i < want.size(); ++i) biased[i] = want[i] + b.data[i % n];

        const auto same = [&](const std::vector<float>& got, const std::vector<float>& ref,
                              const char* what) {
          if (std::memcmp(got.data(), ref.data(), ref.size() * sizeof(float)) == 0) return;
          if (++bad <= 10)
            std::printf("  %s differs: rows=%d n=%d kx=%d kh=%d\n", what, rows, n, c.kx, c.kh);
        };
        std::vector<float> got(want.size());
        const Shape os(rows, n);
        const Shape dshapes[2] = {Shape(rows, k), w.shape};
        const float* dins[2] = {xh.data(), w.data};
        run_op(OpKind::kDense, 2, dins, dshapes, got.data(), os, 0);
        same(got, want, "kDense");

        const Shape lshapes[4] = {Shape(rows, c.kx), Shape(rows, c.kh), w.shape, b.shape};
        const float* lins[4] = {xs.data(), hs.data(), w.data, b.data};
        const Shape lshapes1[3] = {lshapes[0], w.shape, b.shape};
        const float* lins1[3] = {xs.data(), w.data, b.data};
        const bool split = c.kh > 0;
        run_op(OpKind::kLinear, 2, split ? lins : lins1, split ? lshapes : lshapes1, got.data(),
               os, kLinearIdentity);
        same(got, biased, "kLinear run_op");

        run_linear(2, kLinearIdentity, xp.data(), c.kx, hp.data(), nullptr, c.kh, w.data, b.data, n,
                   rows, got.data());
        same(got, biased, "run_linear");
      }
    }
  }
  CHECK_EQ(bad, 0);
}

// kMatMul's register tile (variant 2, the default) is bitwise the
// row-update loop it replaced: each output sums a[r][l]·b[l][j] for l
// ascending from 0.0f. m covers every row-tile remainder and more than one
// tile; n 16-output tiles, an 8-output tile and tails of 0-7 outputs; k one
// term and more than one 8-block. Variants 0 and 1 keep the same order, so
// they must match too.
void test_matmul_tile_matches_row_update() {
  const int ms[] = {1, 3, 4, 5, 12};
  const int ns[] = {8, 12, 16, 40, 41};
  const int ks[] = {1, 8, 12, 40};
  TensorPool pool;
  Rng rng(29);
  int bad = 0;
  for (const int m : ms)
    for (const int n : ns)
      for (const int k : ks) {
        const Tensor a = pool.alloc_random(Shape(m, k), rng, 1.0f);
        const Tensor b = pool.alloc_random(Shape(k, n), rng, 0.5f);
        std::vector<float> want(static_cast<std::size_t>(m) * n);
        for (int r = 0; r < m; ++r) {
          float* o = want.data() + r * n;
          for (int j = 0; j < n; ++j) o[j] = 0.0f;
          for (int l = 0; l < k; ++l)
            for (int j = 0; j < n; ++j) o[j] += a.data[r * k + l] * b.data[l * n + j];
        }
        const Shape shapes[2] = {a.shape, b.shape};
        const float* ins[2] = {a.data, b.data};
        std::vector<float> got(want.size());
        for (int v = 0; v < op_num_variants(OpKind::kMatMul); ++v) {
          run_op(OpKind::kMatMul, v, ins, shapes, got.data(), Shape(m, n), 0);
          if (std::memcmp(got.data(), want.data(), want.size() * sizeof(float)) != 0 &&
              ++bad <= 10)
            std::printf("  kMatMul variant %d differs: m=%d n=%d k=%d\n", v, m, n, k);
        }
      }
  CHECK_EQ(bad, 0);
}

std::vector<float> run_unary(OpKind kind, int variant, const std::vector<float>& a) {
  std::vector<float> out(a.size());
  const Shape s = RowVec(static_cast<int>(a.size()));
  const float* ins[1] = {a.data()};
  run_op(kind, variant, ins, &s, out.data(), s, 0);
  return out;
}
std::vector<float> run_tanh(int variant, const std::vector<float>& a) {
  return run_unary(OpKind::kTanh, variant, a);
}
std::vector<float> run_sigmoid(int variant, const std::vector<float>& a) {
  return run_unary(OpKind::kSigmoid, variant, a);
}

// kTanh and kSigmoid variant 1 run 8-lane blocks, then a 4-lane block, then
// the one-element form on the tail; variant 0 is one element at a time
// throughout. Every length 1-19 (each mix of 8-blocks, a 4-block and tails
// of 1-3) over inputs from every branch of tanh: the identity below 4e-4,
// the rational range and the clamp (sigmoid evaluates tanh(x/2), so its
// inputs are twice as wide).
void test_simd_matches_scalar() {
  Rng rng(23);
  for (const OpKind kind : {OpKind::kTanh, OpKind::kSigmoid}) {
    const float scale = kind == OpKind::kTanh ? 1.0f : 2.0f;
    for (int len = 1; len <= 19; ++len) {
      for (int rep = 0; rep < 50; ++rep) {
        std::vector<float> a(len);
        for (float& v : a) {
          switch (rng.uniform_int(3)) {
            case 0: v = scale * rng.uniform(5e-4f); break;
            case 1: v = scale * rng.uniform(6.0f); break;
            default: v = scale * rng.uniform(12.0f); break;
          }
        }
        const std::vector<float> scalar = run_unary(kind, 0, a), simd = run_unary(kind, 1, a);
        CHECK(std::memcmp(scalar.data(), simd.data(), a.size() * sizeof(float)) == 0);
      }
    }
  }
}

// Within 4e-7 of std::tanh over a dense sweep of [-12, 12], plus a
// geometric sweep of small magnitudes across the identity cutoff.
void test_tanh_accuracy() {
  std::vector<float> a;
  for (int i = -1200000; i <= 1200000; ++i) a.push_back(static_cast<float>(i) * 1e-5f);
  for (float m = 1e-9f; m < 1.0f; m *= 1.001f) {
    a.push_back(m);
    a.push_back(-m);
  }
  for (int variant = 0; variant < op_num_variants(OpKind::kTanh); ++variant) {
    const std::vector<float> got = run_tanh(variant, a);
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
      worst = std::max(worst, std::fabs(static_cast<double>(got[i]) - std::tanh(a[i])));
    CHECK(worst <= 4e-7);
  }
}

// σ = 0.5 + 0.5·tanh(x/2) is within 2.5e-7 of 1/(1 + e^-x), computed in
// double, over a dense sweep of [-30, 30]: beyond ±15.8 the tanh saturates,
// so σ is exactly 0 or 1, at most 1.4e-7 from exact.
void test_sigmoid_accuracy() {
  std::vector<float> a;
  for (int i = -3000000; i <= 3000000; ++i) a.push_back(static_cast<float>(i) * 1e-5f);
  for (int variant = 0; variant < op_num_variants(OpKind::kSigmoid); ++variant) {
    const std::vector<float> got = run_sigmoid(variant, a);
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const double exact = 1.0 / (1.0 + std::exp(-static_cast<double>(a[i])));
      worst = std::max(worst, std::fabs(static_cast<double>(got[i]) - exact));
    }
    CHECK(worst <= 2.5e-7);
  }
}

// tanh: ±inf → ±1, NaN → NaN, ±0 → ±0. sigmoid: +inf → 1, -inf → 0,
// NaN → NaN, ±0 → exactly 0.5. At every variant, and with every value in
// every slot of 13 elements (8 + 4 + 1), so each lands in the 8-lane
// block, the 4-lane block and the single-element tail.
void test_tanh_sigmoid_edges() {
  constexpr int kLen = 13;
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float in[5] = {inf, -inf, nan, -0.0f, 0.0f};
  for (int shift = 0; shift < kLen; ++shift) {
    std::vector<float> a(kLen, 0.5f);
    for (int i = 0; i < 5; ++i) a[(i + shift) % kLen] = in[i];
    const auto at = [&](const std::vector<float>& v, int i) { return v[(i + shift) % kLen]; };
    for (int variant = 0; variant < op_num_variants(OpKind::kTanh); ++variant) {
      const std::vector<float> t = run_tanh(variant, a);
      CHECK(at(t, 0) == 1.0f);
      CHECK(at(t, 1) == -1.0f);
      CHECK(std::isnan(at(t, 2)));
      CHECK(at(t, 3) == 0.0f && std::signbit(at(t, 3)));
      CHECK(at(t, 4) == 0.0f && !std::signbit(at(t, 4)));
    }
    for (int variant = 0; variant < op_num_variants(OpKind::kSigmoid); ++variant) {
      const std::vector<float> s = run_sigmoid(variant, a);
      CHECK(at(s, 0) == 1.0f);
      CHECK(at(s, 1) == 0.0f);
      CHECK(std::isnan(at(s, 2)));
      CHECK(at(s, 3) == 0.5f);
      CHECK(at(s, 4) == 0.5f);
    }
  }
}

// Every tanh site computes the same tanh, bitwise: kAddBiasTanh with zero
// addends, kMulTanh by 1, and kLinear's LSTM and GRU epilogues with gates
// saturated so σ = 1 or 0 exactly (σ(±100) rounds to 1.0f and 0.0f) all
// equal kTanh. At
// n = 7 (a 4-lane block and a scalar tail), 8 (one 8-lane block) and 19
// (8-lane blocks and a scalar tail).
void test_tanh_sites_agree() {
  for (const int n : {7, 8, 19}) {
    Rng rng(29);
    std::vector<float> v(n), zeros(n, 0.0f), ones(n, 1.0f);
    for (float& x : v) x = rng.uniform(6.0f);
    const std::vector<float> want = run_tanh(1, v);
    std::vector<float> got(n);
    const Shape row = RowVec(n);
    const auto same = [&] {
      CHECK(std::memcmp(got.data(), want.data(), sizeof(float) * n) == 0);
    };

    const float* abt[3] = {v.data(), zeros.data(), zeros.data()};
    const Shape abt_s[3] = {row, row, row};
    for (int variant = 0; variant < op_num_variants(OpKind::kAddBiasTanh); ++variant) {
      run_op(OpKind::kAddBiasTanh, variant, abt, abt_s, got.data(), row, 0);
      same();
    }
    const float* mt[2] = {ones.data(), v.data()};
    run_op(OpKind::kMulTanh, 0, mt, abt_s, got.data(), row, 0);
    same();

    // The cell epilogues, fed exact gates (cell_epilogue), at every variant.
    // LSTM gates [i f g o] = [100, 100, v, 100] over c = 0: c' = σ(101)·0 +
    // σ(100)·tanh(v) and h' = σ(100)·tanh(c'). Gates [-100, 100, 0, 100]
    // over c = v: c' = σ(101)·v + σ(-100)·tanh(0) = v, h' = tanh(v).
    const std::vector<float> want2 = run_tanh(1, want);
    for (int variant = 0; variant < op_num_variants(OpKind::kLinear); ++variant) {
      std::vector<float> lstm(4 * n, 100.0f), state(2 * n, 0.0f);
      std::copy(v.begin(), v.end(), lstm.begin() + 2 * n);
      std::copy(v.begin(), v.end(), state.begin());  // h half: W = 0 ignores it
      std::vector<float> hc = cell_epilogue(kLinearLstm, variant, lstm, state);
      CHECK(std::memcmp(hc.data() + n, want.data(), sizeof(float) * n) == 0);
      CHECK(std::memcmp(hc.data(), want2.data(), sizeof(float) * n) == 0);
      std::fill(lstm.begin(), lstm.begin() + n, -100.0f);
      std::fill(lstm.begin() + 2 * n, lstm.begin() + 3 * n, 0.0f);
      std::copy(v.begin(), v.end(), state.begin() + n);
      hc = cell_epilogue(kLinearLstm, variant, lstm, state);
      CHECK(std::memcmp(hc.data(), want.data(), sizeof(float) * n) == 0);
      CHECK(std::memcmp(hc.data() + n, v.data(), sizeof(float) * n) == 0);

      // GRU gates [z r ĥ] = [100, 100, v]: (1 - σ(100))·h + σ(100)·tanh(ĥ).
      std::vector<float> gru(3 * n, 100.0f);
      std::copy(v.begin(), v.end(), gru.begin() + 2 * n);
      got = cell_epilogue(kLinearGru, variant, gru, ones);
      same();
    }
  }
}

// Every sigmoid site computes kSigmoid's sigmoid, bitwise, with the other
// factors exact: kAddBiasSigmoid with zero addends; the LSTM epilogue's
// forget gate σ(f+1) with c = 1 and tanh(0) = 0, its input gate with
// σ(-100) = 0 and tanh(100) = 1, and its output gate with c' = 100, so
// tanh(c') = 1; and the GRU epilogue's z with h = 0 and tanh(100) = 1. At
// n = 7, 8 and 19.
void test_sigmoid_sites_agree() {
  for (const int n : {7, 8, 19}) {
    Rng rng(31);
    std::vector<float> v(n), v1(n), zeros(n, 0.0f), ones(n, 1.0f), big(n, 100.0f);
    for (float& x : v) x = rng.uniform(12.0f);
    for (int j = 0; j < n; ++j) v1[j] = v[j] + 1.0f;
    const std::vector<float> want = run_sigmoid(1, v), want1 = run_sigmoid(1, v1);
    std::vector<float> got(n);
    const Shape row = RowVec(n);
    const auto same = [&](const std::vector<float>& ref) {
      CHECK(std::memcmp(got.data(), ref.data(), sizeof(float) * n) == 0);
    };

    const float* abs[3] = {v.data(), zeros.data(), zeros.data()};
    const Shape abs_s[3] = {row, row, row};
    for (int variant = 0; variant < op_num_variants(OpKind::kAddBiasSigmoid); ++variant) {
      run_op(OpKind::kAddBiasSigmoid, variant, abs, abs_s, got.data(), row, 0);
      same(want);
    }

    // The cell epilogues, fed exact gates (cell_epilogue), at every variant.
    // LSTM gates [i f g o] over the state [h; c]; c' is the second half.
    for (int variant = 0; variant < op_num_variants(OpKind::kLinear); ++variant) {
      std::vector<float> state(2 * n, 1.0f), hc;
      // Forget gate: c' = σ(v+1)·1 + σ(100)·tanh(0).
      std::vector<float> lstm(4 * n, 100.0f);
      std::copy(v.begin(), v.end(), lstm.begin() + n);
      std::fill(lstm.begin() + 2 * n, lstm.begin() + 3 * n, 0.0f);
      hc = cell_epilogue(kLinearLstm, variant, lstm, state);
      got.assign(hc.begin() + n, hc.end());
      same(want1);
      // Input gate: c' = σ(-100 + 1)·1 + σ(v)·tanh(100).
      std::copy(v.begin(), v.end(), lstm.begin());
      std::fill(lstm.begin() + n, lstm.begin() + 2 * n, -100.0f);
      std::fill(lstm.begin() + 2 * n, lstm.begin() + 3 * n, 100.0f);
      hc = cell_epilogue(kLinearLstm, variant, lstm, state);
      got.assign(hc.begin() + n, hc.end());
      same(want);
      // Output gate: c' = σ(101)·100 + σ(-100)·tanh(0) = 100, h' = σ(v)·tanh(100).
      std::fill(lstm.begin(), lstm.begin() + n, -100.0f);
      std::fill(lstm.begin() + n, lstm.begin() + 2 * n, 100.0f);
      std::fill(lstm.begin() + 2 * n, lstm.begin() + 3 * n, 0.0f);
      std::copy(v.begin(), v.end(), lstm.begin() + 3 * n);
      std::copy(big.begin(), big.end(), state.begin() + n);
      hc = cell_epilogue(kLinearLstm, variant, lstm, state);
      got.assign(hc.begin(), hc.begin() + n);
      same(want);

      // GRU gates [z r ĥ]: (1 - σ(v))·0 + σ(v)·tanh(100).
      std::vector<float> gru(3 * n, 100.0f);
      std::copy(v.begin(), v.end(), gru.begin());
      got = cell_epilogue(kLinearGru, variant, gru, zeros);
      same(want);
    }
  }
}

}  // namespace

int main() {
  test_dense_reference();
  test_matmul_reference();
  test_eltwise_and_broadcast();
  test_softmax_and_reductions();
  test_variants_agree();
  test_lstm_pointwise();
  test_linear_matches_chain();
  test_linear_row_pointers();
  test_dense_tile_matches_row_loop();
  test_cell_epilogues_match_chain();
  test_linear_summed_form();
  test_linear_operand_rule();
  test_matmul_tile_matches_row_update();
  test_simd_matches_scalar();
  test_tanh_accuracy();
  test_sigmoid_accuracy();
  test_tanh_sigmoid_edges();
  test_tanh_sites_agree();
  test_sigmoid_sites_agree();
  return acrobat::test::finish("test_tensor_ops");
}
