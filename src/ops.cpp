#include "tensor/ops.h"

#include <immintrin.h>  // AVX2 without FMA, the library's ISA floor

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

namespace acrobat {
namespace {

// Unaligned load and store of one float or one 4- or 8-lane vector.
template <typename V>
V load(const float* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
template <typename V>
void store(float* p, V v) {
  std::memcpy(p, &v, sizeof v);
}

// Calls f.operator()<V>(i) over [0, n): 8-lane blocks (V = __m256), then a
// 4-lane block (__m128), then single elements (float). __m128 and __m256
// are GCC vector types, so +, -, *, / and < act lane by lane (a scalar
// operand is broadcast) and one kernel body serves all three widths.
template <typename F>
void for_lanes(std::int64_t n, F f) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) f.template operator()<__m256>(i);
  if (i + 4 <= n) {
    f.template operator()<__m128>(i);
    i += 4;
  }
  for (; i < n; ++i) f.template operator()<float>(i);
}

// max(-c, min(c, a)); minps/maxps return their second operand, here the
// input, on a NaN.
inline __m128 clamp(__m128 a, float c) {
  return _mm_max_ps(_mm_set1_ps(-c), _mm_min_ps(_mm_set1_ps(c), a));
}
inline __m256 clamp(__m256 a, float c) {
  return _mm256_max_ps(_mm256_set1_ps(-c), _mm256_min_ps(_mm256_set1_ps(c), a));
}

// tanh as one rational function: x clamped to ±kTanhClamp, an odd degree-13
// numerator over an even degree-6 denominator, and the identity below
// kTanhTiny, where tanh(x) rounds to x. The coefficients are the minimax fit
// that Eigen's and XLA's float tanh use. With y = x², the numerator is
// x·P0 + (x·y)·P'(y), P' by Horner, and the denominator is Estrin's
// (Q0 + Q1·y) + (Q2 + Q3·y)·y². Of the orders tried, this one has the least
// rounding error: 3.4e-7 at worst against exact tanh, every float checked
// (plain Horner on both: 4.1e-7). kTanhClamp is the first float past 7.9 at
// which this evaluation rounds to exactly 1, so saturated inputs give ±1 and
// 1 - tanh(kTanhClamp) = 2.7e-7 bounds the error beyond it. ±inf → ±1,
// NaN → NaN, ±0 kept.
//
// There is one implementation at 8, 4 and 1 lanes: the one-element form is
// lane 0 of the 4-lane one, and every lane runs the same float ops, so a
// scalar site and any SIMD lane round identically and every tanh site
// agrees with every other (DESIGN.md §3). Separate multiplies and adds (the
// library builds with -ffp-contract=off) and a correctly rounded divide fix
// each lane's rounding; the selects keep it branch-free.
constexpr float kTanhClamp = 7.90338278f;
constexpr float kTanhTiny = 4e-4f;
constexpr float kTanhP[7] = {4.89352455891786e-03f,  6.37261928875436e-04f,
                             1.48572235717979e-05f,  5.12229709037114e-08f,
                             -8.60467152213735e-11f, 2.00018790482477e-13f,
                             -2.76076847742355e-16f};  // x¹, x³, …, x¹³
constexpr float kTanhQ[4] = {4.89352518554385e-03f, 2.26843463243900e-03f,
                             1.18534705686654e-04f, 1.19825839466702e-06f};  // x⁰, …, x⁶

template <typename V>
V tanh_v(V a) {
  if constexpr (std::is_same_v<V, float>) {
    return tanh_v(__m128{a})[0];
  } else {
    const V x = clamp(a, kTanhClamp);
    const V y = x * x, y2 = y * y;
    V p = kTanhP[5] + y * kTanhP[6];
    for (int d = 4; d >= 1; --d) p = kTanhP[d] + y * p;
    p = x * kTanhP[0] + (x * y) * p;
    const V q = (kTanhQ[0] + kTanhQ[1] * y) + (kTanhQ[2] + kTanhQ[3] * y) * y2;
    const V r = p / q;
    return (a < kTanhTiny) & (a > -kTanhTiny) ? a : r;
  }
}

// o[i] = tanh(a[i]); `a` may alias `o`.
void tanh_n(const float* a, std::int64_t n, float* o) {
  for_lanes(n, [&]<typename V>(std::int64_t i) { store(o + i, tanh_v(load<V>(a + i))); });
}

// σ(x) = 0.5 + 0.5·tanh(x/2) on the tanh above, at the same 8, 4 and 1
// lanes, so no kernel calls libm exp for a sigmoid. Within 1.8e-7 of exact
// over [−30, 30]; below −15.8 the tanh saturates and σ is 0. σ(±inf) is 1
// and 0, NaN stays NaN, σ(0) is exactly 0.5.
template <typename V>
V sigmoid_v(V x) {
  return 0.5f + 0.5f * tanh_v(0.5f * x);
}

// o[i] = σ(a[i]); `a` may alias `o`.
void sigmoid_n(const float* a, std::int64_t n, float* o) {
  for_lanes(n, [&]<typename V>(std::int64_t i) { store(o + i, sigmoid_v(load<V>(a + i))); });
}

// One output row of [x;h] · Wᵀ with W (n, kx+kh) row-major: the row's
// input is x (kx wide) followed by h (kh wide, absent when kh == 0), read
// in place — a virtual concat. Each variant's per-output accumulation order
// depends only on the position in [x;h], never on where the split falls,
// so a split row is bitwise equal to the same row concatenated first.
// Variants 0 and 1 sum i-ascending; variant 2 (dot_tile below) keeps 4
// accumulators, one per position mod 4, then adds the (k mod 4) tail
// i-ascending. The variants therefore agree only up to float reassociation.
void dense_row(int variant, const float* x, int kx, const float* h, int kh, const float* w,
               int n, float* o) {
  const int k = kx + kh;
  if (variant == 0) {  // i-outer: strided walk over W, cache-hostile on purpose.
    const auto at = [&](int i) { return i < kx ? x[i] : h[i - kx]; };
    for (int j = 0; j < n; ++j) o[j] = 0.0f;
    for (int i = 0; i < k; ++i) {
      const float xi = at(i);
      for (int j = 0; j < n; ++j) o[j] += xi * w[static_cast<std::int64_t>(j) * k + i];
    }
    return;
  }
  for (int j = 0; j < n; ++j) {  // 1: o-outer, contiguous inner dot products.
    const float* wj = w + static_cast<std::int64_t>(j) * k;
    float acc = 0.0f;
    for (int i = 0; i < kx; ++i) acc += x[i] * wj[i];
    for (int i = 0; i < kh; ++i) acc += h[i] * wj[kx + i];
    o[j] = acc;
  }
}

// A dot-tile accumulator: an __m128 serves one (row, output) pair, an
// __m256 two, output j in its low half and j + 1 in its high half.
template <typename V>
constexpr int kOutsPerAcc = sizeof(V) / sizeof(__m128);

// The 4-block of W at position i for one accumulator's outputs, whose W rows
// start at wa[0] (and wa[1]): one load, or two joined by one insertf128.
template <typename V>
V w_block(const float* const* wa, int i);
template <>
inline __m128 w_block(const float* const* wa, int i) {
  return _mm_loadu_ps(wa[0] + i);
}
template <>
inline __m256 w_block(const float* const* wa, int i) {
  return _mm256_insertf128_ps(_mm256_castps128_ps256(_mm_loadu_ps(wa[0] + i)),
                              _mm_loadu_ps(wa[1] + i), 1);
}

// A row's four inputs at p, in each 128-bit half (one vbroadcastf128 for
// __m256). Spelt as a load and a join: _mm256_broadcast_ps reads through an
// __m128 pointer that GCC lets alias the accumulators, and it then stores
// them to the stack on every block.
template <typename V>
V x_block(const float* p);
template <>
inline __m128 x_block(const float* p) {
  return _mm_loadu_ps(p);
}
template <>
inline __m256 x_block(const float* p) {
  const __m128 v = _mm_loadu_ps(p);
  return _mm256_set_m128(v, v);
}

// (a0 + a1) + (a2 + a3) of the lanes of a.
inline float fold4(__m128 a) {
  const __m128 s = _mm_add_ps(a, _mm_shuffle_ps(a, a, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtss_f32(_mm_add_ss(s, _mm_movehl_ps(s, s)));
}
// fold4 of each 128-bit half of an accumulator, one sum per output.
inline void fold(__m128 a, float* s) { s[0] = fold4(a); }
inline void fold(__m256 a, float* s) {
  s[0] = fold4(_mm256_castps256_ps128(a));
  s[1] = fold4(_mm256_extractf128_ps(a, 1));
}
// The same sums for two pair accumulators, outputs j, j + 1 (a) and j + 2,
// j + 3 (b), with two hadds: the first makes a0+a1 and a2+a3 in each half,
// the second adds those two, and one unpack puts the four in output order.
inline void fold(__m256 a, __m256 b, float* s) {
  const __m256 h1 = _mm256_hadd_ps(a, b);
  const __m256 h2 = _mm256_hadd_ps(h1, h1);
  _mm_storeu_ps(s, _mm_unpacklo_ps(_mm256_castps256_ps128(h2), _mm256_extractf128_ps(h2, 1)));
}

// Variant 2 for rows [x[r]; h[r]], r < R, and the A·kOutsPerAcc<V> outputs
// from j0, written to out[r·n + j]. Each (row, output) pair owns one 128-bit
// accumulator (half of an __m256) whose lane l sums the products at
// positions ≡ l (mod 4) of [x;h], 4-blocks ascending; then the
// (a0+a1)+(a2+a3) fold and the (k mod 4) tail added i-ascending. That is the
// order of a scalar loop with four accumulators, so each output is
// independent of R, A, V and the batch width. Per 4-block, each W load
// serves R rows and each x load all of the tile's outputs, with R·A add
// chains in flight. The one block that straddles the split is staged on the
// stack. Inlined into dot_rows: as a call per tile it was 10-20% slower on
// run_linear's shapes.
template <int R, int A, typename V>
[[gnu::always_inline]] inline void dot_tile(const float* const* x, const float* const* h, int kx,
                                            int kh, const float* w, int n, int j0, float* out) {
  constexpr int O = kOutsPerAcc<V>, J = A * O;
  const int k = kx + kh;
  const float* wj[J];
  for (int j = 0; j < J; ++j) wj[j] = w + static_cast<std::int64_t>(j0 + j) * k;
  V acc[R][A];
  for (int r = 0; r < R; ++r)
    for (int a = 0; a < A; ++a) acc[r][a] = V{};
  // One 4-block at position i of W; row r's four inputs start at src[r] + off.
  const auto block = [&](const float* const* src, int off, int i) {
    V wv[A];
    for (int a = 0; a < A; ++a) wv[a] = w_block<V>(wj + a * O, i);
    for (int r = 0; r < R; ++r) {
      const V xv = x_block<V>(src[r] + off);
      for (int a = 0; a < A; ++a) acc[r][a] = acc[r][a] + xv * wv[a];
    }
  };
  const auto at = [&](int r, int i) { return i < kx ? x[r][i] : h[r][i - kx]; };
  int i = 0;
  for (; i + 4 <= kx; i += 4) block(x, i, i);
  if (kh > 0) {
    if (i < kx && i + 4 <= k) {
      float staged[R][4];
      const float* rows[R];
      for (int r = 0; r < R; ++r) {
        for (int l = 0; l < 4; ++l) staged[r][l] = at(r, i + l);
        rows[r] = staged[r];
      }
      block(rows, 0, i);
      i += 4;
    }
    for (; i + 4 <= k; i += 4) block(h, i - kx, i);
  }
  // Fold with compile-time indices first: a runtime-indexed acc would live
  // on the stack through the loops above.
  float s[R][J];
  for (int r = 0; r < R; ++r) {
    int a = 0;
    if constexpr (O == 2)
      for (; a + 2 <= A; a += 2) fold(acc[r][a], acc[r][a + 1], s[r] + a * O);
    for (; a < A; ++a) fold(acc[r][a], s[r] + a * O);
  }
  for (int r = 0; r < R; ++r)
    for (int j = 0; j < J; ++j) {
      for (int t = i; t < k; ++t) s[r][j] += at(r, t) * wj[j][t];
      out[static_cast<std::int64_t>(r) * n + j0 + j] = s[r][j];
    }
}

// All n outputs of R rows: tiles of 4 outputs for 3-4 rows and 8 outputs
// for 1-2 rows (at least 4 pair accumulators in flight), then output pairs,
// then an odd last output in the 4-lane form.
template <int R>
void dot_rows(const float* const* x, const float* const* h, int kx, int kh, const float* w,
              int n, float* out) {
  constexpr int A = R <= 2 ? 4 : 2;
  int j = 0;
  for (; j + 2 * A <= n; j += 2 * A) dot_tile<R, A, __m256>(x, h, kx, kh, w, n, j, out);
  for (; j + 2 <= n; j += 2) dot_tile<R, 1, __m256>(x, h, kx, kh, w, n, j, out);
  if (j < n) dot_tile<R, 1, __m128>(x, h, kx, kh, w, n, j, out);
}

// Row r of a batch operand: entry r of a row-pointer array, else base + r·stride.
struct RowSrc {
  const float* const* ptrs = nullptr;
  const float* base = nullptr;
  int stride = 0;
  const float* operator[](int r) const {
    return ptrs ? ptrs[r] : base + static_cast<std::int64_t>(r) * stride;
  }
  // The rows from r0 on.
  RowSrc from(int r0) const {
    return ptrs ? RowSrc{ptrs + r0} : RowSrc{nullptr, (*this)[r0], stride};
  }
};

constexpr int kTileRows = 4;

// Rows [r0, r0 + R) of [x;h] · Wᵀ, R ≤ kTileRows, row r0 + i into o + i·n.
void dense_rows(int variant, RowSrc x, int kx, RowSrc h, int kh, const float* w, int n, int r0,
                int R, float* o) {
  if (variant < 2) {
    for (int i = 0; i < R; ++i)
      dense_row(variant, x[r0 + i], kx, kh > 0 ? h[r0 + i] : nullptr, kh, w, n,
                o + static_cast<std::int64_t>(i) * n);
    return;
  }
  const float* xr[kTileRows];
  const float* hr[kTileRows];
  for (int r = 0; r < R; ++r) {
    xr[r] = x[r0 + r];
    hr[r] = kh > 0 ? h[r0 + r] : nullptr;
  }
  switch (R) {
    case 1: dot_rows<1>(xr, hr, kx, kh, w, n, o); return;
    case 2: dot_rows<2>(xr, hr, kx, kh, w, n, o); return;
    case 3: dot_rows<3>(xr, hr, kx, kh, w, n, o); return;
    default: dot_rows<4>(xr, hr, kx, kh, w, n, o); return;
  }
}

// x (m,k) · Wᵀ with W (n,k) row-major.
void dense(int variant, const float* x, int m, int k, const float* w, int n, float* out) {
  for (int r0 = 0; r0 < m; r0 += kTileRows)
    dense_rows(variant, {nullptr, x, k}, k, {}, 0, w, n, r0, std::min(kTileRows, m - r0),
               out + static_cast<std::int64_t>(r0) * n);
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

// The GRU cell body on one row of gates [z r ĥ] (3n) and h (n):
// h' = (1-σ(z))*h + σ(z)*tanh(ĥ), into o (n).
void gru_row(const float* g, const float* h, int n, float* o) {
  for_lanes(n, [&]<typename V>(std::int64_t j) {
    const V z = sigmoid_v(load<V>(g + j));
    store(o + j, (1.0f - z) * load<V>(h + j) + z * tanh_v(load<V>(g + 2 * n + j)));
  });
}

// The LSTM cell body on one row of gates [i f g o] (4n) and c (n), into
// o = [h'; c'] (2n): c' = σ(f+1)*c + σ(i)*tanh(g), then h' = σ(o)*tanh(c')
// on c' as stored.
void lstm_row(const float* g, const float* c, int n, float* o) {
  for_lanes(n, [&]<typename V>(std::int64_t j) {
    const V c2 = sigmoid_v(load<V>(g + n + j) + 1.0f) * load<V>(c + j) +
                 sigmoid_v(load<V>(g + j)) * tanh_v(load<V>(g + 2 * n + j));
    store(o + n + j, c2);
    store(o + j, sigmoid_v(load<V>(g + 3 * n + j)) * tanh_v(c2));
  });
}

// Gates per row a cell epilogue holds on the stack: an LSTM of hidden width
// up to 128, a GRU up to 170.
constexpr int kMaxCellGates = 512;

// kLinear with the GRU or LSTM epilogue: each tile's gate rows, W·[x;h] + b
// (n = 3 or 4 hidden widths), go to a stack buffer, and the cell body
// writes each row's h' (GRU) or [h'; c'] (LSTM) to out. Out of line, so the
// buffer is in this frame and not in linear()'s.
[[gnu::noinline]] void linear_cell(int variant, std::int64_t act, RowSrc x, int kx, RowSrc h,
                                   int kh, const float* w, const float* b, int n, int rows,
                                   float* out) {
  if (n > kMaxCellGates) {
    std::fprintf(stderr, "acrobat: kLinear cell epilogue over %d gates per row, more than %d\n",
                 n, kMaxCellGates);
    std::abort();
  }
  const bool gru = act == kLinearGru;
  const int hid = gru ? n / 3 : n / 4, out_cols = gru ? hid : 2 * hid;
  float gates[kTileRows * kMaxCellGates];
  for (int r0 = 0; r0 < rows; r0 += kTileRows) {
    const int R = std::min(kTileRows, rows - r0);
    dense_rows(variant, x, kx, h, kh, w, n, r0, R, gates);
    for (int i = 0; i < R; ++i) {
      float* g = gates + i * n;
      for (int j = 0; j < n; ++j) g[j] = g[j] + b[j];
      float* o = out + static_cast<std::int64_t>(r0 + i) * out_cols;
      if (gru) {
        gru_row(g, h[r0 + i], hid, o);
      } else {
        lstm_row(g, h[r0 + i] + hid, hid, o);
      }
    }
  }
}

// kLinear over `rows` rows: the dense rows a tile at a time, then on each
// row the bias add and the epilogue as separate passes, each the same float
// op the kAdd / kTanh / kSoftmax kernels apply — which is what makes kLinear
// bitwise equal to that chain.
void linear(int variant, std::int64_t act, RowSrc x, int kx, RowSrc h, int kh, const float* w,
            const float* b, int n, int rows, float* out) {
  if (act == kLinearGru || act == kLinearLstm) {
    linear_cell(variant, act, x, kx, h, kh, w, b, n, rows, out);
    return;
  }
  for (int r0 = 0; r0 < rows; r0 += kTileRows) {
    const int R = std::min(kTileRows, rows - r0);
    dense_rows(variant, x, kx, h, kh, w, n, r0, R, out + static_cast<std::int64_t>(r0) * n);
    for (int r = r0; r < r0 + R; ++r) {
      float* o = out + static_cast<std::int64_t>(r) * n;
      for (int j = 0; j < n; ++j) o[j] = o[j] + b[j];
      if (act == kLinearTanh) {
        tanh_n(o, n, o);
      } else if (act == kLinearSoftmax) {
        softmax_row(o, n, o);
      }
    }
  }
}

// Floats per row of the summed form's h buffer: an LSTM [h; c] state of
// hidden width up to 128.
constexpr int kMaxSumCols = 256;

// The summed form (kLinearSumH): for each tile, h1 + h2 row by row, the
// float op kAdd applies, into a stack buffer over the first kh floats and
// whatever more of the row the epilogue reads (the GRU's h, the LSTM's
// [h; c] state), then the plain form over that tile with the buffer as its
// h operand. Out of line, like linear_cell, so the buffer is in this frame.
[[gnu::noinline]] void linear_summed(int variant, std::int64_t act, RowSrc x, int kx, RowSrc h1,
                                     RowSrc h2, int kh, const float* w, const float* b, int n,
                                     int rows, float* out) {
  const int state = act == kLinearGru ? n / 3 : act == kLinearLstm ? n / 2 : 0;
  const int cols = std::max(kh, state);
  if (cols > kMaxSumCols) {
    std::fprintf(stderr, "acrobat: summed kLinear over %d floats per h row, more than %d\n",
                 cols, kMaxSumCols);
    std::abort();
  }
  const int out_cols = state > 0 ? state : n;
  float sum[kTileRows * kMaxSumCols];
  const float* rows_h[kTileRows];
  for (int r0 = 0; r0 < rows; r0 += kTileRows) {
    const int R = std::min(kTileRows, rows - r0);
    for (int i = 0; i < R; ++i) {
      const float *a = h1[r0 + i], *c = h2[r0 + i];
      float* s = sum + i * cols;
      for (int j = 0; j < cols; ++j) s[j] = a[j] + c[j];
      rows_h[i] = s;
    }
    linear(variant, act, x.from(r0), kx, {rows_h}, kh, w, b, n, R,
           out + static_cast<std::int64_t>(r0) * out_cols);
  }
}

// Rows [0, R) of a (R, k) · b (k, n), the A·8 outputs from j0, written to
// out[r·n + j]: one 8-lane accumulator per (row, 8 outputs), held in
// registers across the whole l loop. Each output sums a[r][l]·b[l][j] for l
// ascending from 0.0f, the order of the row-update loop, so the tile is
// bitwise equal to it whatever R and A are.
template <int R, int A>
[[gnu::always_inline]] inline void matmul_tile(const float* a, int k, const float* b, int n,
                                               int j0, float* out) {
  __m256 acc[R][A];
  for (int r = 0; r < R; ++r)
    for (int t = 0; t < A; ++t) acc[r][t] = __m256{};
  for (int l = 0; l < k; ++l) {
    const float* bl = b + static_cast<std::int64_t>(l) * n + j0;
    __m256 bv[A];
    for (int t = 0; t < A; ++t) bv[t] = load<__m256>(bl + 8 * t);
    for (int r = 0; r < R; ++r) {
      const __m256 al = _mm256_set1_ps(a[static_cast<std::int64_t>(r) * k + l]);
      for (int t = 0; t < A; ++t) acc[r][t] = acc[r][t] + al * bv[t];
    }
  }
  for (int r = 0; r < R; ++r)
    for (int t = 0; t < A; ++t)
      store(out + static_cast<std::int64_t>(r) * n + j0 + 8 * t, acc[r][t]);
}

// All n outputs of R rows: 16-output tiles, then an 8-output one, then the
// (n mod 8) last outputs one at a time in the same l-ascending order.
template <int R>
void matmul_rows(const float* a, int k, const float* b, int n, float* out) {
  int j = 0;
  for (; j + 16 <= n; j += 16) matmul_tile<R, 2>(a, k, b, n, j, out);
  if (j + 8 <= n) {
    matmul_tile<R, 1>(a, k, b, n, j, out);
    j += 8;
  }
  for (; j < n; ++j)
    for (int r = 0; r < R; ++r) {
      const float* ar = a + static_cast<std::int64_t>(r) * k;
      float acc = 0.0f;
      for (int l = 0; l < k; ++l) acc += ar[l] * b[static_cast<std::int64_t>(l) * n + j];
      out[static_cast<std::int64_t>(r) * n + j] = acc;
    }
}

// a (m,k) · b (k,n). Every variant sums each output l-ascending from 0.0f,
// so the three are bitwise equal and differ only in speed.
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
  if (variant == 2) {  // Register tiles of up to kTileRows rows.
    for (int r0 = 0; r0 < m; r0 += kTileRows) {
      const float* ar = a + static_cast<std::int64_t>(r0) * k;
      float* o = out + static_cast<std::int64_t>(r0) * n;
      switch (std::min(kTileRows, m - r0)) {
        case 1: matmul_rows<1>(ar, k, b, n, o); break;
        case 2: matmul_rows<2>(ar, k, b, n, o); break;
        case 3: matmul_rows<3>(ar, k, b, n, o); break;
        default: matmul_rows<4>(ar, k, b, n, o); break;
      }
    }
    return;
  }
  // 1: accumulate whole output rows, contiguous b rows.
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

// The elementwise ops' one schedule: a plain loop, which the compiler
// vectorizes 8 wide. A 4-way unrolled second variant was slower than it at
// the AVX2 floor (EXPERIMENTS.md, "AVX2 floor").
template <typename F>
void binary(const float* a, const Shape& sa, const float* b, const Shape& sb, float* out, F f) {
  const std::int64_t n = sa.numel();
  if (sb == sa) {
    for (std::int64_t i = 0; i < n; ++i) out[i] = f(a[i], b[i]);
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
void unary(const float* a, std::int64_t n, float* out, F f) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = f(a[i]);
}

}  // namespace

const char* op_name(OpKind kind) {
  switch (kind) {
    case OpKind::kDense: return "dense";
    case OpKind::kMatMul: return "matmul";
    case OpKind::kAdd: return "add";
    case OpKind::kSub: return "sub";
    case OpKind::kMul: return "mul";
    case OpKind::kTanh: return "tanh";
    case OpKind::kSigmoid: return "sigmoid";
    case OpKind::kScale: return "scale";
    case OpKind::kAddBiasTanh: return "add_bias_tanh";
    case OpKind::kAddBiasSigmoid: return "add_bias_sigmoid";
    case OpKind::kFma2: return "fma2";
    case OpKind::kMulTanh: return "mul_tanh";
    case OpKind::kLinear: return "linear";
    case OpKind::kConcat: return "concat";
    case OpKind::kZeros: return "zeros";
    case OpKind::kSoftmax: return "softmax";
    case OpKind::kSumAll: return "sum_all";
  }
  return "?";
}

int op_num_variants(OpKind kind) {
  switch (kind) {
    case OpKind::kDense:
    case OpKind::kMatMul:
    case OpKind::kLinear:
      return 3;
    case OpKind::kTanh:
    case OpKind::kSigmoid:
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
    case OpKind::kScale:
    case OpKind::kSoftmax:
    case OpKind::kSumAll:
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
      // The operand rule: x is read for its first kx floats, h (h1 and h2
      // each in the summed form) for its first W.cols − kx, and each
      // operand's own width is only its row stride.
      const int n_h = n_ins - 3;
      const std::int64_t act = attr & ~kLinearSumH;
      const Shape& w = s[n_ins - 2];
      const int n = w.dim[0], hid = act == kLinearGru ? n / 3 : n / 4;
      [[maybe_unused]] const int kx = n_h > 0 ? s[0].cols() : w.dim[1];
      assert(n_h >= 0 && n_h <= 2 && ((attr & kLinearSumH) != 0) == (n_h == 2));
      assert(w.ndim == 2 && s[n_ins - 1].ndim == 1 && s[n_ins - 1].numel() == n &&
             s[0].cols() >= kx);
      assert((act != kLinearGru && act != kLinearLstm) || n_h > 0);
      for (int j = 1; j <= n_h; ++j) {
        assert(s[j].rows() == s[0].rows() && s[j].cols() >= w.dim[1] - kx);
        assert(act != kLinearGru || (n % 3 == 0 && s[j].cols() >= hid));
        assert(act != kLinearLstm || (n % 4 == 0 && s[j].cols() >= 2 * hid));
      }
      const int out = act == kLinearGru ? hid : act == kLinearLstm ? 2 * hid : n;
      return s[0].ndim == 1 ? RowVec(out) : Shape(s[0].rows(), out);
    }
    case OpKind::kZeros:
      return RowVec(static_cast<int>(attr));
    case OpKind::kSumAll:
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
    case OpKind::kAdd:
      binary(ins[0], s[0], ins[1], s[1], out, [](float a, float b) { return a + b; });
      return;
    case OpKind::kSub:
      binary(ins[0], s[0], ins[1], s[1], out, [](float a, float b) { return a - b; });
      return;
    case OpKind::kMul:
      binary(ins[0], s[0], ins[1], s[1], out, [](float a, float b) { return a * b; });
      return;
    case OpKind::kTanh:
      if (variant == 0) {  // one element at a time
        unary(ins[0], s[0].numel(), out, tanh_v<float>);
      } else {
        tanh_n(ins[0], s[0].numel(), out);
      }
      return;
    case OpKind::kSigmoid:
      if (variant == 0) {  // one element at a time
        unary(ins[0], s[0].numel(), out, sigmoid_v<float>);
      } else {
        sigmoid_n(ins[0], s[0].numel(), out);
      }
      return;
    case OpKind::kScale: {
      const float c = static_cast<float>(static_cast<double>(attr) * 1e-6);
      unary(ins[0], s[0].numel(), out, [c](float a) { return a * c; });
      return;
    }
    case OpKind::kAddBiasTanh:
    case OpKind::kAddBiasSigmoid: {
      const int cols = s[0].cols();
      const int rows = static_cast<int>(s[0].numel() / cols);
      const bool tanh_act = kind == OpKind::kAddBiasTanh;
      for (int r = 0; r < rows; ++r) {
        const std::int64_t off = static_cast<std::int64_t>(r) * cols;
        const float *a = ins[0] + off, *b = ins[1] + off;
        float* o = out + off;
        for_lanes(cols, [&]<typename V>(std::int64_t j) {
          const V v = load<V>(a + j) + load<V>(b + j) + load<V>(ins[2] + j);
          store(o + j, tanh_act ? tanh_v(v) : sigmoid_v(v));
        });
      }
      return;
    }
    case OpKind::kFma2: {
      const std::int64_t n = s[0].numel();
      for (std::int64_t i = 0; i < n; ++i)
        out[i] = ins[0][i] * ins[1][i] + ins[2][i] * ins[3][i];
      return;
    }
    case OpKind::kMulTanh:
      for_lanes(s[0].numel(), [&]<typename V>(std::int64_t i) {
        store(out + i, load<V>(ins[0] + i) * tanh_v(load<V>(ins[1] + i)));
      });
      return;
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
      // ins: x, W, b; x, h, W, b; or, summed, x, h1, h2, W, b. W is 2-D,
      // the bias 1-D.
      const bool summed = (attr & kLinearSumH) != 0;
      const int n_h = summed ? 2 : s[2].ndim == 2 ? 1 : 0;
      const Shape& w = s[n_h + 1];
      const int kx = n_h > 0 ? s[0].cols() : w.dim[1];
      const auto operand = [&](int j) {
        return j <= n_h ? RowSrc{nullptr, ins[j], s[j].cols()} : RowSrc{};
      };
      if (summed) {
        linear_summed(variant, attr & ~kLinearSumH, operand(0), kx, operand(1), operand(2),
                      w.dim[1] - kx, ins[3], ins[4], w.dim[0], s[0].rows(), out);
      } else {
        linear(variant, attr, operand(0), kx, operand(1), w.dim[1] - kx, ins[n_h + 1],
               ins[n_h + 2], w.dim[0], s[0].rows(), out);
      }
      return;
    }
    case OpKind::kSumAll: {
      const std::int64_t n = s[0].numel();
      float acc = 0.0f;
      for (std::int64_t i = 0; i < n; ++i) acc += ins[0][i];
      out[0] = acc;
      return;
    }
    case OpKind::kConcat:
      assert(false && "concat executes inside the engine");
      return;
  }
}

void run_linear(int variant, std::int64_t attr, const float* const* x, int kx,
                const float* const* h, const float* const* h2, int kh, const float* w,
                const float* b, int n, int rows, float* out) {
  if (attr & kLinearSumH) {
    linear_summed(variant, attr & ~kLinearSumH, {x}, kx, {h}, {h2}, kh, w, b, n, rows, out);
  } else {
    linear(variant, attr, {x}, kx, {h}, kh, w, b, n, rows, out);
  }
}

}  // namespace acrobat
