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
  // per row; an a·bᵀ with b (n,k) row-major is a kDense with W = b.
  // kMatMul's three sum each output in one order, so they are bitwise equal
  // (variant 2 holds a 4-row × 16-output tile in registers).
  kDense,   // ins: x (k) or (m,k), W (n,k) row-major → x·Wᵀ, shape (n)/(m,n)
  kMatMul,  // ins: a (m,k) or (k), b (k,n) → a·b

  // Elementwise binary (1 variant, a plain loop); b may be a row vector
  // broadcast over the rows of a (bias add).
  kAdd,
  kSub,
  kMul,

  // Elementwise unary (kTanh and kSigmoid 2 variants, kScale 1).
  // Every tanh here, in the fused kernels and in kLinear's epilogues is one
  // rational function, within 4e-7 of std::tanh (DESIGN.md §3), and every
  // sigmoid is 0.5 + 0.5·tanh(x/2) on it; kTanh's and kSigmoid's variant 0
  // runs one element at a time, variant 1 8 lanes at a time.
  kTanh,
  kSigmoid,
  kScale,  // out = in * (attr * 1e-6)

  // Fused pointwise kernels (standard kernel fusion, PipelineConfig
  // kernel_fusion; 1 variant).
  kAddBiasTanh,     // tanh(a + b + bias)        ins: a, b, bias
  kAddBiasSigmoid,  // sigmoid(a + b + bias)     ins: a, b, bias
  kFma2,            // f*c + i*g                 ins: f, c, i, g
  kMulTanh,         // o * tanh(c)               ins: o, c

  // The coarse cell kernel (grain-size coarsening, PipelineConfig coarsen):
  // every RNN, GRU and LSTM cell and classifier head is one kLinear, its
  // gate matmul with bias and the cell body as the epilogue. GRU gates are
  // [z r ĥ] and LSTM gates [i f g o], each n wide; an LSTM state is one
  // [h; c] row, 2n wide.
  kLinear,  // ins: x, [h,] W (N, kx+kh), b (N) → act(W·[x;h] + b); attr: LinearAct.
            // [x;h] is a virtual concat read through the two operand
            // pointers: the first kx = x.cols floats of each x row and the
            // first kh = W.cols − kx of each h row (x-only: the first
            // W.cols floats of each x row). An operand's width is only its
            // row stride. The summed form (attr flag kLinearSumH) takes
            // x, h1, h2, W, b and reads h = h1 + h2. 3 variants: dense's.

  // Structural / reduction.
  kConcat,   // engine-executed (variable arity); attr = axis
  kZeros,    // no ins; → zeros RowVec(attr)
  kSoftmax,  // row-wise softmax
  kSumAll,   // → Shape(1), sum of all elements
};

// kLinear epilogues (Kernel::attr), applied to each row of gates after the
// bias add. Identity, tanh and softmax write the N gates. kLinearGru needs
// the h operand and writes h' = (1-σ(z))*h + σ(z)*tanh(ĥ), n = N/3 wide, h
// the first n floats of the h row. kLinearLstm reads the [h; c] state as
// its h operand and writes the new state [h'; c'], 2n = N/2 wide:
// c' = σ(f+1)*c + σ(i)*tanh(g), h' = σ(o)*tanh(c'). A cell epilogue holds
// its gates on the stack, at most 512 per row; a wider kernel aborts with
// one line.
//
// kLinearSumH is a flag bit beside the epilogue, not an epilogue: it marks
// the summed form, whose h operand is h1 + h2 (a TreeLSTM cell over its two
// children's states). Each tile adds h1 and h2 row by row, the float op
// kAdd applies, into a stack buffer over the floats the dot and the
// epilogue read: the first kh, and under kLinearLstm the whole [h; c]
// state. The tile then runs over that buffer as the plain form, so the
// summed form is bitwise equal to a kAdd followed by the plain form. The
// buffer holds at most 256 floats per row; a wider row aborts with one
// line. The flag is what tells 4 operands from 5: a multi-row h1 is 2-D
// like W.
enum LinearAct : std::int64_t {
  kLinearIdentity = 0,
  kLinearTanh = 1,
  kLinearSoftmax = 2,
  kLinearGru = 3,
  kLinearLstm = 4,
  kLinearSumH = 8,
};

const char* op_name(OpKind kind);

// Number of schedule variants a kind exposes (≥1).
int op_num_variants(OpKind kind);

// Fixed input arity; -1 for kConcat (any) and kLinear (3, 4 or 5).
int op_arity(OpKind kind);

// Output shape from input shapes; asserts on rank/size mismatches.
Shape infer_shape(OpKind kind, std::int64_t attr, const Shape* in_shapes, int n_ins);

// Execute one op. `ins`/`in_shapes` hold `op_arity(kind)` entries; kLinear
// tells the summed form by its attr flag and the other two forms apart by
// the third operand (W is 2-D, the bias 1-D).
// kConcat goes through the engine instead. `out` must have
// `infer_shape(...)` elements.
void run_op(OpKind kind, int variant, const float* const* ins, const Shape* in_shapes,
            float* out, const Shape& out_shape, std::int64_t attr);

// kLinear over `rows` rows addressed by pointer, the engine's gather-fused
// batch call: row r is act(W·[x[r]; h[r]] + b) over the first kx floats of
// x[r] and the first kh of h[r] (kh == 0: no h; the GRU and LSTM epilogues
// still read h[r]), W (n, kx+kh), written to out + r·(the epilogue's output
// width). Under kLinearSumH, h[r] is h[r] + h2[r]; otherwise h2 is not
// read. Each output's sum order depends only on its row, so one call is
// bitwise equal to `rows` single-row run_op calls.
void run_linear(int variant, std::int64_t attr, const float* const* x, int kx,
                const float* const* h, const float* const* h2, int kh, const float* w,
                const float* b, int n, int rows, float* out);

}  // namespace acrobat
