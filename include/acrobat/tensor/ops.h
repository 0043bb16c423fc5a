// Primitive kernels and their schedule variants.
//
// Every tensor computation in the system bottoms out in `run_op` (or
// `run_linear`, its row-pointer form for kLinear batches), a pure
// function of (kind, variant, inputs) — so a batch of N same-kernel ops
// executed op-at-a-time, gathered-then-stacked, or under any scheduler
// produces the same floats. `variant` selects a schedule (loop order /
// unrolling); variants are the auto-scheduler's search space and are
// roughly ordered slowest-to-fastest (kernel_micro.cpp measures them). The
// kernels use AVX2 without FMA, the library's ISA floor (DESIGN.md §3), and
// allocate nothing.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace acrobat {

enum class OpKind : std::uint8_t {
  // Dense family (3 variants each). kDense's variant 2 is a
  // register-blocked AVX tile over up to 4 rows whose per-(row, output) sum
  // order is fixed (DESIGN.md §3), so any row count gives the same floats
  // per row. kMatMulBT is the same computation and runs kDense's variants;
  // kMatMul's three sum each output in one order, so they are bitwise equal
  // (variant 2 holds a 4-row × 16-output tile in registers).
  kDense,     // ins: x (k) or (m,k), W (n,k) row-major → x·Wᵀ, shape (n)/(m,n)
  kMatMul,    // ins: a (m,k) or (k), b (k,n) → a·b
  kMatMulBT,  // ins: a (m,k), b (n,k) → a·bᵀ

  // Elementwise binary (1 variant, a plain loop); b may be a row vector
  // broadcast over the rows of a (bias add).
  kAdd,
  kSub,
  kMul,

  // Elementwise unary (kTanh and kSigmoid 2 variants, kRelu and kScale 1).
  // Every tanh here and in the fused and cell kernels below is one rational
  // function, within 4e-7 of std::tanh (DESIGN.md §3), and every sigmoid is
  // 0.5 + 0.5·tanh(x/2) on it; kTanh's and kSigmoid's variant 0 runs one
  // element at a time, variant 1 8 lanes at a time.
  kTanh,
  kSigmoid,
  kRelu,
  kScale,  // out = in * (attr * 1e-6)

  // Fused pointwise kernels (standard kernel fusion, PipelineConfig
  // kernel_fusion; 1 variant).
  kAddBiasTanh,     // tanh(a + b + bias)        ins: a, b, bias
  kAddBiasSigmoid,  // sigmoid(a + b + bias)     ins: a, b, bias
  kFma2,            // f*c + i*g                 ins: f, c, i, g
  kMulTanh,         // o * tanh(c)               ins: o, c

  // Coarse cell kernels (grain-size coarsening, PipelineConfig coarsen).
  // A coarse cell is one kLinear (its gate matmul with bias and, for RNN
  // and classifier heads, the activation), followed by the GRU/LSTM
  // pointwise kernels below. LSTM gate layout: [i f g o], each n wide; GRU
  // layout: [z r ĥ].
  kLinear,    // ins: x, [h,] W (n, kx+kh), b (n) → act(W·[x;h] + b); attr: LinearAct.
              // [x;h] is a virtual concat read through the two operand
              // pointers; without h it is act(x·Wᵀ + b). 3 variants: dense's.
  kLstmNewC,  // ins: gates (…,4n), c (…,n) → σ(f+1)*c + σ(i)*tanh(g)
  kLstmNewH,  // ins: gates (…,4n), c' (…,n) → σ(o)*tanh(c')
  kGruPoint,  // ins: gates (…,3n), h (…,n) → (1-σ(z))*h + σ(z)*tanh(ĥ)

  // Structural / reduction.
  kConcat,   // engine-executed (variable arity); attr = axis
  kZeros,    // no ins; → zeros RowVec(attr)
  kSoftmax,  // row-wise softmax
  kSumAll,   // → Shape(1), sum of all elements
  kMaxProb,  // → Shape(1), max of softmax over all elements (early exit)
};

// kLinear epilogues (Kernel::attr): applied to each row after the bias add.
enum LinearAct : std::int64_t { kLinearIdentity = 0, kLinearTanh = 1, kLinearSoftmax = 2 };

const char* op_name(OpKind kind);

// Number of schedule variants a kind exposes (≥1).
int op_num_variants(OpKind kind);

// Fixed input arity; -1 for kConcat (any) and kLinear (3 or 4).
int op_arity(OpKind kind);

// Output shape from input shapes; asserts on rank/size mismatches.
Shape infer_shape(OpKind kind, std::int64_t attr, const Shape* in_shapes, int n_ins);

// Execute one op. `ins`/`in_shapes` hold `op_arity(kind)` entries; kLinear
// tells its two forms apart by the third operand (the bias, n wide, or W).
// kConcat goes through the engine instead. `out` must have
// `infer_shape(...)` elements.
void run_op(OpKind kind, int variant, const float* const* ins, const Shape* in_shapes,
            float* out, const Shape& out_shape, std::int64_t attr);

// kLinear over `rows` rows addressed by pointer, the engine's gather-fused
// batch call: row r is act(W·[x[r]; h[r]] + b), x[r] kx wide and h[r] kh
// wide (kh == 0: no h), written to out + r·n. Each output's sum order
// depends only on its row, so one call is bitwise equal to `rows`
// single-row run_op calls.
void run_linear(int variant, std::int64_t act, const float* const* x, int kx,
                const float* const* h, int kh, const float* w, const float* b, int n, int rows,
                float* out);

}  // namespace acrobat
