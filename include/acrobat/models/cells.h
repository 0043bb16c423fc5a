// Recurrent-cell emitters shared by the model builders.
//
// A cell is created in two steps: make_* registers weights and kernels up
// front (so registration order — which the no-PGO tuner walks — follows the
// builder's declared order, not loop emission order), and emit_* writes the
// cell body into a FuncBuilder. The pipeline config picks the granularity:
//   coarsen        → whole-cell kernels: every cell is one kLinear reading x
//                    and h in place (no concat), its activation or GRU/LSTM
//                    cell body the epilogue — one launch per RNN, GRU and
//                    LSTM cell and classifier head
//   kernel_fusion  → per-gate kernels with fused add+bias+activation
//   neither        → fully per-op (DyNet/eager granularity)
// All three compute the same function. Each level sums x's and h's
// contributions differently (one dot over [x;h] vs two denses and an
// add), so levels agree only up to float reassociation; within a level,
// batched and solo execution are bitwise equal (DESIGN.md §3).
#pragma once

#include <string>

#include "models/models.h"

namespace acrobat::models {

enum class Grain { kCoarse, kFused, kPerOp };

inline Grain grain_of(const passes::PipelineConfig& cfg) {
  if (cfg.coarsen) return Grain::kCoarse;
  if (cfg.kernel_fusion) return Grain::kFused;
  return Grain::kPerOp;
}

// --- tanh RNN cell: h' = tanh(Wx·x + Wh·h + b) ------------------------------
struct RnnCell {
  Grain grain;
  // coarse: h' = linear_tanh(x, h; w, b); b is the bias at every grain
  int k_linear = -1, w = -1, b = -1;
  // fused / per-op
  int k_dx = -1, k_dh = -1, k_abt = -1, k_add = -1, k_bias = -1, k_tanh = -1, wx = -1, wh = -1;
};
RnnCell make_rnn(BuildCtx& ctx, const std::string& prefix, int in_dim, int h);
int emit_rnn(ir::FuncBuilder& b, const RnnCell& c, int x, int h);

// --- GRU cell ---------------------------------------------------------------
struct GruCell {
  Grain grain;
  // coarse: h' = linear_gru(x, h; W3, b3)
  int k_linear3 = -1, w3 = -1, b3 = -1;
  // fused / per-op: z and candidate n, then h' = h + z*(n - h)
  int k_zx = -1, k_zh = -1, k_abs = -1, k_nx = -1, k_nh = -1, k_abt = -1;
  int k_add = -1, k_sub = -1, k_mul = -1, k_sig = -1, k_tanh = -1;
  int wzx = -1, wzh = -1, bz = -1, wnx = -1, wnh = -1, bn = -1;
};
GruCell make_gru(BuildCtx& ctx, const std::string& prefix, int in_dim, int h);
int emit_gru(ir::FuncBuilder& b, const GruCell& c, int x, int h);

// --- LSTM cell (gate layout [i f g o]) --------------------------------------
struct LstmCell {
  Grain grain;
  // coarse: the state is one [h; c] row (2h wide), state' = linear_lstm(x,
  // state; W4, b4), and a kLinear over the state reads its h half;
  // k_linear4_sum is the summed form over two states, a child-sum cell
  int k_linear4 = -1, k_linear4_sum = -1, w4 = -1, b4 = -1;
  // fused / per-op: 4 gates, then c' = f*c + i*g, h' = o*tanh(c')
  int k_gx[4] = {-1, -1, -1, -1}, k_gh[4] = {-1, -1, -1, -1};
  int k_fuse[4] = {-1, -1, -1, -1};  // fused add+bias+act per gate
  int k_add = -1, k_mul = -1, k_sig = -1, k_tanh = -1, k_fma2 = -1, k_multanh = -1;
  int wgx[4] = {-1, -1, -1, -1}, wgh[4] = {-1, -1, -1, -1}, bg[4] = {-1, -1, -1, -1};
};
LstmCell make_lstm(BuildCtx& ctx, const std::string& prefix, int in_dim, int h);
// Coarse grain: returns the new [h; c] state from the old one, or, given
// state2, from the sum of the two (one kLinear that adds them in its tile).
int emit_lstm_state(ir::FuncBuilder& b, const LstmCell& c, int x, int state, int state2 = -1);
// Fused / per-op: returns h'; writes c' through c_out.
int emit_lstm(ir::FuncBuilder& b, const LstmCell& c, int x, int h, int cc, int* c_out);

// --- classifier head: softmax(dense(x) + b) ---------------------------------
// With h_dim > 0 the head reads [x;h] (in_dim + h_dim wide). Coarse grain
// takes both operands in one kLinear; finer grains take the concatenated
// vector as x and leave h at -1.
struct ClassifierHead {
  Grain grain;
  int k_linear = -1;                              // coarse
  int k_dense = -1, k_bias = -1, k_softmax = -1;  // fused / per-op
  int w = -1, b = -1;
};
ClassifierHead make_classifier(BuildCtx& ctx, const std::string& prefix, int in_dim,
                               int h_dim = 0);
int emit_classifier(ir::FuncBuilder& b, const ClassifierHead& c, int x, int h = -1);

// Zero-state kernel (hoistable constant, Table 7's leaf states).
int make_zeros(BuildCtx& ctx, const std::string& name, int n);

}  // namespace acrobat::models
