#include "tensor/ops.h"

#include <cassert>
#include <cmath>

namespace acrobat {
namespace {

inline float sigmoidf(float x) { return 1.0f / (1.0f + std::exp(-x)); }

// One output row of [x;h] · Wᵀ with W (n, kx+kh) row-major: the row's
// input is x (kx wide) followed by h (kh wide, absent when kh == 0), read
// in place — a virtual concat. Each variant's per-output accumulation order
// depends only on the position in [x;h], never on where the split falls,
// so a split row is bitwise equal to the same row concatenated first.
// Variants 0 and 1 sum i-ascending; variant 2 keeps 4 accumulators, one per
// position mod 4, then adds the (k mod 4) tail i-ascending. The variants
// therefore agree only up to float reassociation.
void dense_row(int variant, const float* x, int kx, const float* h, int kh, const float* w,
               int n, float* o) {
  const int k = kx + kh;
  const auto at = [&](int i) { return i < kx ? x[i] : h[i - kx]; };
  switch (variant) {
    case 0:  // i-outer: strided walk over W, cache-hostile on purpose.
      for (int j = 0; j < n; ++j) o[j] = 0.0f;
      for (int i = 0; i < k; ++i) {
        const float xi = at(i);
        for (int j = 0; j < n; ++j) o[j] += xi * w[static_cast<std::int64_t>(j) * k + i];
      }
      return;
    case 1:  // o-outer, contiguous inner dot products.
      for (int j = 0; j < n; ++j) {
        const float* wj = w + static_cast<std::int64_t>(j) * k;
        float acc = 0.0f;
        for (int i = 0; i < kx; ++i) acc += x[i] * wj[i];
        for (int i = 0; i < kh; ++i) acc += h[i] * wj[kx + i];
        o[j] = acc;
      }
      return;
    default:  // 2: contiguous dots with 4-wide accumulators.
      for (int j = 0; j < n; ++j) {
        const float* wj = w + static_cast<std::int64_t>(j) * k;
        float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
        int i = 0;
        for (; i + 4 <= kx; i += 4) {
          a0 += x[i] * wj[i];
          a1 += x[i + 1] * wj[i + 1];
          a2 += x[i + 2] * wj[i + 2];
          a3 += x[i + 3] * wj[i + 3];
        }
        // Guarded so the plain dense (kh == 0) keeps the single loop above,
        // which the compiler vectorizes better.
        if (kh > 0) {
          for (; i < kx && i + 4 <= k; i += 4) {  // the block that straddles the split
            a0 += at(i) * wj[i];
            a1 += at(i + 1) * wj[i + 1];
            a2 += at(i + 2) * wj[i + 2];
            a3 += at(i + 3) * wj[i + 3];
          }
          for (; i + 4 <= k; i += 4) {
            const float* hi = h + (i - kx);
            a0 += hi[0] * wj[i];
            a1 += hi[1] * wj[i + 1];
            a2 += hi[2] * wj[i + 2];
            a3 += hi[3] * wj[i + 3];
          }
        }
        float acc = (a0 + a1) + (a2 + a3);
        for (; i < k; ++i) acc += at(i) * wj[i];
        o[j] = acc;
      }
      return;
  }
}

// x (m,k) · Wᵀ with W (n,k) row-major.
void dense(int variant, const float* x, int m, int k, const float* w, int n, float* out) {
  for (int r = 0; r < m; ++r)
    dense_row(variant, x + static_cast<std::int64_t>(r) * k, k, nullptr, 0, w, n,
              out + static_cast<std::int64_t>(r) * n);
}

// Row-wise softmax; `a` may alias `o`.
void softmax_row(const float* a, int cols, float* o) {
  float mx = a[0];
  for (int j = 1; j < cols; ++j) mx = a[j] > mx ? a[j] : mx;
  float sum = 0.0f;
  for (int j = 0; j < cols; ++j) {
    o[j] = std::exp(a[j] - mx);
    sum += o[j];
  }
  const float inv = 1.0f / sum;
  for (int j = 0; j < cols; ++j) o[j] *= inv;
}

// One kLinear row: the dense row, then the bias add and the epilogue as
// separate passes, each the same float op the kAdd / kTanh / kSoftmax
// kernels apply — which is what makes kLinear bitwise equal to that chain.
void linear_row(int variant, std::int64_t act, const float* x, int kx, const float* h, int kh,
                const float* w, const float* b, int n, float* o) {
  dense_row(variant, x, kx, h, kh, w, n, o);
  for (int j = 0; j < n; ++j) o[j] = o[j] + b[j];
  if (act == kLinearTanh) {
    for (int j = 0; j < n; ++j) o[j] = std::tanh(o[j]);
  } else if (act == kLinearSoftmax) {
    softmax_row(o, n, o);
  }
}

void matmul(int variant, const float* a, int m, int k, const float* b, int n, float* out) {
  if (variant == 0) {  // j-inner over strided b columns.
    for (int r = 0; r < m; ++r) {
      const float* ar = a + static_cast<std::int64_t>(r) * k;
      float* o = out + static_cast<std::int64_t>(r) * n;
      for (int j = 0; j < n; ++j) {
        float acc = 0.0f;
        for (int l = 0; l < k; ++l) acc += ar[l] * b[static_cast<std::int64_t>(l) * n + j];
        o[j] = acc;
      }
    }
    return;
  }
  // 1+: accumulate whole output rows, contiguous b rows.
  for (int r = 0; r < m; ++r) {
    const float* ar = a + static_cast<std::int64_t>(r) * k;
    float* o = out + static_cast<std::int64_t>(r) * n;
    for (int j = 0; j < n; ++j) o[j] = 0.0f;
    for (int l = 0; l < k; ++l) {
      const float al = ar[l];
      const float* bl = b + static_cast<std::int64_t>(l) * n;
      for (int j = 0; j < n; ++j) o[j] += al * bl[j];
    }
  }
}

void matmul_bt(int variant, const float* a, int m, int k, const float* b, int n, float* out) {
  for (int r = 0; r < m; ++r) {
    const float* ar = a + static_cast<std::int64_t>(r) * k;
    float* o = out + static_cast<std::int64_t>(r) * n;
    for (int j = 0; j < n; ++j) {
      const float* bj = b + static_cast<std::int64_t>(j) * k;
      float acc = 0.0f;
      if (variant == 0) {
        for (int i = 0; i < k; ++i) acc += ar[i] * bj[i];
      } else {
        float a0 = 0.0f, a1 = 0.0f;
        int i = 0;
        for (; i + 2 <= k; i += 2) {
          a0 += ar[i] * bj[i];
          a1 += ar[i + 1] * bj[i + 1];
        }
        acc = a0 + a1;
        for (; i < k; ++i) acc += ar[i] * bj[i];
      }
      o[j] = acc;
    }
  }
}

template <typename F>
void binary(int variant, const float* a, const Shape& sa, const float* b, const Shape& sb,
            float* out, F f) {
  const std::int64_t n = sa.numel();
  if (sb == sa) {
    if (variant == 0) {
      for (std::int64_t i = 0; i < n; ++i) out[i] = f(a[i], b[i]);
    } else {
      std::int64_t i = 0;
      for (; i + 4 <= n; i += 4) {
        out[i] = f(a[i], b[i]);
        out[i + 1] = f(a[i + 1], b[i + 1]);
        out[i + 2] = f(a[i + 2], b[i + 2]);
        out[i + 3] = f(a[i + 3], b[i + 3]);
      }
      for (; i < n; ++i) out[i] = f(a[i], b[i]);
    }
    return;
  }
  // Row-broadcast: b is a row vector applied to each row of a.
  const int cols = sa.cols();
  assert(sb.numel() == cols);
  const int rows = static_cast<int>(n / cols);
  for (int r = 0; r < rows; ++r) {
    const float* ar = a + static_cast<std::int64_t>(r) * cols;
    float* o = out + static_cast<std::int64_t>(r) * cols;
    for (int j = 0; j < cols; ++j) o[j] = f(ar[j], b[j]);
  }
}

template <typename F>
void unary(int variant, const float* a, std::int64_t n, float* out, F f) {
  if (variant == 0) {
    for (std::int64_t i = 0; i < n; ++i) out[i] = f(a[i]);
  } else {
    std::int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
      out[i] = f(a[i]);
      out[i + 1] = f(a[i + 1]);
      out[i + 2] = f(a[i + 2]);
      out[i + 3] = f(a[i + 3]);
    }
    for (; i < n; ++i) out[i] = f(a[i]);
  }
}

}  // namespace

const char* op_name(OpKind kind) {
  switch (kind) {
    case OpKind::kDense: return "dense";
    case OpKind::kMatMul: return "matmul";
    case OpKind::kMatMulBT: return "matmul_bt";
    case OpKind::kAdd: return "add";
    case OpKind::kSub: return "sub";
    case OpKind::kMul: return "mul";
    case OpKind::kTanh: return "tanh";
    case OpKind::kSigmoid: return "sigmoid";
    case OpKind::kRelu: return "relu";
    case OpKind::kScale: return "scale";
    case OpKind::kAddBiasTanh: return "add_bias_tanh";
    case OpKind::kAddBiasSigmoid: return "add_bias_sigmoid";
    case OpKind::kFma2: return "fma2";
    case OpKind::kMulTanh: return "mul_tanh";
    case OpKind::kLstmNewC: return "lstm_new_c";
    case OpKind::kLstmNewH: return "lstm_new_h";
    case OpKind::kLinear: return "linear";
    case OpKind::kGruPoint: return "gru_point";
    case OpKind::kConcat: return "concat";
    case OpKind::kZeros: return "zeros";
    case OpKind::kSoftmax: return "softmax";
    case OpKind::kSumAll: return "sum_all";
    case OpKind::kMaxProb: return "max_prob";
  }
  return "?";
}

int op_num_variants(OpKind kind) {
  switch (kind) {
    case OpKind::kDense:
    case OpKind::kMatMul:
    case OpKind::kLinear:
      return 3;
    case OpKind::kMatMulBT:
    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:
    case OpKind::kTanh:
    case OpKind::kSigmoid:
    case OpKind::kRelu:
    case OpKind::kAddBiasTanh:
    case OpKind::kAddBiasSigmoid:
    case OpKind::kFma2:
    case OpKind::kMulTanh:
      return 2;
    default:
      return 1;
  }
}

int op_arity(OpKind kind) {
  switch (kind) {
    case OpKind::kZeros: return 0;
    case OpKind::kTanh:
    case OpKind::kSigmoid:
    case OpKind::kRelu:
    case OpKind::kScale:
    case OpKind::kSoftmax:
    case OpKind::kSumAll:
    case OpKind::kMaxProb:
      return 1;
    case OpKind::kAddBiasTanh:
    case OpKind::kAddBiasSigmoid:
      return 3;
    case OpKind::kFma2: return 4;
    case OpKind::kConcat:
    case OpKind::kLinear:
      return -1;
    default: return 2;
  }
}

Shape infer_shape(OpKind kind, std::int64_t attr, const Shape* s, int n_ins) {
  (void)n_ins;
  switch (kind) {
    case OpKind::kDense: {
      assert(s[1].ndim == 2 && s[0].cols() == s[1].dim[1]);
      const int n = s[1].dim[0];
      return s[0].ndim == 1 ? RowVec(n) : Shape(s[0].dim[0], n);
    }
    case OpKind::kMatMul: {
      assert(s[1].ndim == 2 && s[0].cols() == s[1].dim[0]);
      const int n = s[1].dim[1];
      return s[0].ndim == 1 ? RowVec(n) : Shape(s[0].dim[0], n);
    }
    case OpKind::kMatMulBT: {
      assert(s[1].ndim == 2 && s[0].cols() == s[1].dim[1]);
      const int n = s[1].dim[0];
      return s[0].ndim == 1 ? RowVec(n) : Shape(s[0].dim[0], n);
    }
    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:
      assert(s[1] == s[0] || s[1].numel() == s[0].cols());
      return s[0];
    case OpKind::kAddBiasTanh:
    case OpKind::kAddBiasSigmoid:
      assert(s[1] == s[0] && s[2].numel() == s[0].cols());
      return s[0];
    case OpKind::kFma2:
      assert(s[1] == s[0] && s[2] == s[0] && s[3] == s[0]);
      return s[0];
    case OpKind::kMulTanh:
      assert(s[1] == s[0]);
      return s[0];
    case OpKind::kLinear: {
      const Shape& w = s[n_ins - 2];
      assert((n_ins == 3 || (n_ins == 4 && s[1].rows() == s[0].rows())) && w.ndim == 2 &&
             w.dim[1] == s[0].cols() + (n_ins == 4 ? s[1].cols() : 0) &&
             s[n_ins - 1].numel() == w.dim[0]);
      return s[0].ndim == 1 ? RowVec(w.dim[0]) : Shape(s[0].rows(), w.dim[0]);
    }
    case OpKind::kLstmNewC:
    case OpKind::kLstmNewH:
      assert(s[0].cols() == 4 * s[1].cols() && s[0].rows() == s[1].rows());
      return s[1];
    case OpKind::kGruPoint:
      assert(s[0].cols() == 3 * s[1].cols() && s[0].rows() == s[1].rows());
      return s[1];
    case OpKind::kZeros:
      return RowVec(static_cast<int>(attr));
    case OpKind::kSumAll:
    case OpKind::kMaxProb:
      return Shape(1);
    case OpKind::kConcat: {
      // axis = attr: 0 stacks rows (equal cols), 1 extends a single row.
      if (attr == 0 && s[0].ndim >= 2) {
        int rows = 0;
        for (int i = 0; i < n_ins; ++i) {
          assert(s[i].cols() == s[0].cols());
          rows += s[i].rows();
        }
        return Shape(rows, s[0].cols());
      }
      int total = 0;
      for (int i = 0; i < n_ins; ++i) total += static_cast<int>(s[i].numel());
      return RowVec(total);
    }
    default:  // unary, same shape
      return s[0];
  }
}

void run_op(OpKind kind, int variant, const float* const* ins, const Shape* s, float* out,
            const Shape& out_shape, std::int64_t attr) {
  switch (kind) {
    case OpKind::kDense:
      dense(variant, ins[0], s[0].rows(), s[0].cols(), ins[1], s[1].dim[0], out);
      return;
    case OpKind::kMatMul:
      matmul(variant, ins[0], s[0].rows(), s[0].cols(), ins[1], s[1].dim[1], out);
      return;
    case OpKind::kMatMulBT:
      matmul_bt(variant, ins[0], s[0].rows(), s[0].cols(), ins[1], s[1].dim[0], out);
      return;
    case OpKind::kAdd:
      binary(variant, ins[0], s[0], ins[1], s[1], out, [](float a, float b) { return a + b; });
      return;
    case OpKind::kSub:
      binary(variant, ins[0], s[0], ins[1], s[1], out, [](float a, float b) { return a - b; });
      return;
    case OpKind::kMul:
      binary(variant, ins[0], s[0], ins[1], s[1], out, [](float a, float b) { return a * b; });
      return;
    case OpKind::kTanh:
      unary(variant, ins[0], s[0].numel(), out, [](float a) { return std::tanh(a); });
      return;
    case OpKind::kSigmoid:
      unary(variant, ins[0], s[0].numel(), out, sigmoidf);
      return;
    case OpKind::kRelu:
      unary(variant, ins[0], s[0].numel(), out, [](float a) { return a > 0.0f ? a : 0.0f; });
      return;
    case OpKind::kScale: {
      const float c = static_cast<float>(static_cast<double>(attr) * 1e-6);
      unary(variant, ins[0], s[0].numel(), out, [c](float a) { return a * c; });
      return;
    }
    case OpKind::kAddBiasTanh:
    case OpKind::kAddBiasSigmoid: {
      const int cols = s[0].cols();
      const int rows = static_cast<int>(s[0].numel() / cols);
      const bool tanh_act = kind == OpKind::kAddBiasTanh;
      for (int r = 0; r < rows; ++r) {
        const std::int64_t off = static_cast<std::int64_t>(r) * cols;
        for (int j = 0; j < cols; ++j) {
          const float v = ins[0][off + j] + ins[1][off + j] + ins[2][j];
          out[off + j] = tanh_act ? std::tanh(v) : sigmoidf(v);
        }
      }
      return;
    }
    case OpKind::kFma2: {
      const std::int64_t n = s[0].numel();
      for (std::int64_t i = 0; i < n; ++i)
        out[i] = ins[0][i] * ins[1][i] + ins[2][i] * ins[3][i];
      return;
    }
    case OpKind::kMulTanh: {
      const std::int64_t n = s[0].numel();
      for (std::int64_t i = 0; i < n; ++i) out[i] = ins[0][i] * std::tanh(ins[1][i]);
      return;
    }
    case OpKind::kLstmNewC: {
      const int n = s[1].cols();
      const int rows = s[1].rows();
      for (int r = 0; r < rows; ++r) {
        const float* g = ins[0] + static_cast<std::int64_t>(r) * 4 * n;
        const float* c = ins[1] + static_cast<std::int64_t>(r) * n;
        float* o = out + static_cast<std::int64_t>(r) * n;
        for (int j = 0; j < n; ++j)
          o[j] = sigmoidf(g[n + j] + 1.0f) * c[j] + sigmoidf(g[j]) * std::tanh(g[2 * n + j]);
      }
      return;
    }
    case OpKind::kLstmNewH: {
      const int n = s[1].cols();
      const int rows = s[1].rows();
      for (int r = 0; r < rows; ++r) {
        const float* g = ins[0] + static_cast<std::int64_t>(r) * 4 * n;
        const float* c = ins[1] + static_cast<std::int64_t>(r) * n;
        float* o = out + static_cast<std::int64_t>(r) * n;
        for (int j = 0; j < n; ++j) o[j] = sigmoidf(g[3 * n + j]) * std::tanh(c[j]);
      }
      return;
    }
    case OpKind::kGruPoint: {
      const int n = s[1].cols();
      const int rows = s[1].rows();
      for (int r = 0; r < rows; ++r) {
        const float* g = ins[0] + static_cast<std::int64_t>(r) * 3 * n;
        const float* h = ins[1] + static_cast<std::int64_t>(r) * n;
        float* o = out + static_cast<std::int64_t>(r) * n;
        for (int j = 0; j < n; ++j) {
          const float z = sigmoidf(g[j]);
          o[j] = (1.0f - z) * h[j] + z * std::tanh(g[2 * n + j]);
        }
      }
      return;
    }
    case OpKind::kZeros: {
      const std::int64_t n = out_shape.numel();
      for (std::int64_t i = 0; i < n; ++i) out[i] = 0.0f;
      return;
    }
    case OpKind::kSoftmax: {
      const int cols = s[0].cols();
      const int rows = static_cast<int>(s[0].numel() / cols);
      for (int r = 0; r < rows; ++r)
        softmax_row(ins[0] + static_cast<std::int64_t>(r) * cols, cols,
                    out + static_cast<std::int64_t>(r) * cols);
      return;
    }
    case OpKind::kLinear: {
      // ins: x, W, b or x, h, W, b; the third operand is the bias exactly
      // when it is n wide (W is n·(kx+kh) > n).
      const int n = out_shape.cols();
      const bool split = s[2].numel() != n;
      const int kx = s[0].cols(), kh = split ? s[1].cols() : 0;
      const float* w = ins[split ? 2 : 1];
      const float* b = ins[split ? 3 : 2];
      for (int r = 0; r < s[0].rows(); ++r)
        linear_row(variant, attr, ins[0] + static_cast<std::int64_t>(r) * kx, kx,
                   split ? ins[1] + static_cast<std::int64_t>(r) * kh : nullptr, kh, w, b, n,
                   out + static_cast<std::int64_t>(r) * n);
      return;
    }
    case OpKind::kSumAll: {
      const std::int64_t n = s[0].numel();
      float acc = 0.0f;
      for (std::int64_t i = 0; i < n; ++i) acc += ins[0][i];
      out[0] = acc;
      return;
    }
    case OpKind::kMaxProb: {
      const std::int64_t n = s[0].numel();
      float mx = ins[0][0];
      for (std::int64_t i = 1; i < n; ++i) mx = ins[0][i] > mx ? ins[0][i] : mx;
      float sum = 0.0f;
      float best = 0.0f;
      for (std::int64_t i = 0; i < n; ++i) {
        const float e = std::exp(ins[0][i] - mx);
        sum += e;
        best = e > best ? e : best;
      }
      out[0] = best / sum;
      return;
    }
    case OpKind::kConcat:
      assert(false && "concat executes inside the engine");
      return;
  }
}

void run_linear(int variant, std::int64_t act, const float* const* x, int kx,
                const float* const* h, int kh, const float* w, const float* b, int n, int rows,
                float* out) {
  for (int r = 0; r < rows; ++r)
    linear_row(variant, act, x[r], kx, kh > 0 ? h[r] : nullptr, kh, w, b, n,
               out + static_cast<std::int64_t>(r) * n);
}

}  // namespace acrobat
