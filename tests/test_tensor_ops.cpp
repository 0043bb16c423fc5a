// Tensor-op correctness against hand-computed references, and variant
// agreement (every schedule variant of a kernel computes the same function).
#include <cstring>
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
  // a·bᵀ
  run_op(OpKind::kMatMulBT, 0, ins, shapes, out, Shape(2, 2), 0);
  CHECK_NEAR(out[0], 17.0, 1e-6);  // [1 2]·[5 6]
  CHECK_NEAR(out[1], 23.0, 1e-6);  // [1 2]·[7 8]
  CHECK_NEAR(out[2], 39.0, 1e-6);
  CHECK_NEAR(out[3], 53.0, 1e-6);
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
  run_op(OpKind::kMul, 1, ins, shapes, out, Shape(2, 3), 0);  // broadcast falls back
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
  run_op(OpKind::kMaxProb, 0, ins, s, one, Shape(1), 0);
  CHECK_NEAR(one[0], 1.0 / 3.0, 1e-6);
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

void test_lstm_pointwise() {
  // One unit: gates [i f g o] = [0, 0, raw g, 0], c = 2.
  const float gates[4] = {0.0f, 0.0f, 0.5f, 0.0f};
  const float c[1] = {2.0f};
  const Shape shapes[2] = {RowVec(4), RowVec(1)};
  const float* ins[2] = {gates, c};
  float out[1] = {};
  run_op(OpKind::kLstmNewC, 0, ins, shapes, out, RowVec(1), 0);
  // σ(0+1)*2 + σ(0)*tanh(0.5)
  const double expect = 1.0 / (1.0 + std::exp(-1.0)) * 2.0 + 0.5 * std::tanh(0.5);
  CHECK_NEAR(out[0], expect, 1e-6);
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
  run_op(OpKind::kAdd, variant % 2, bins, bshapes, out.data(), os, 0);
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
    run_linear(v, kLinearTanh, xp.data(), kx, hp.data(), kh, w.data, b.data, n, kRows,
               batched.data());
    const Shape shapes[4] = {RowVec(kx), RowVec(kh), w.shape, b.shape};
    for (int r = 0; r < kRows; ++r) {
      const float* ins[4] = {xp[r], hp[r], w.data, b.data};
      run_op(OpKind::kLinear, v, ins, shapes, single.data() + r * n, RowVec(n), kLinearTanh);
    }
    CHECK(std::memcmp(batched.data(), single.data(), batched.size() * sizeof(float)) == 0);
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
  return acrobat::test::finish("test_tensor_ops");
}
