#include "models/cells.h"

#include <cmath>

namespace acrobat::models {
namespace {

float wscale(int fan_in) { return 0.6f / std::sqrt(static_cast<float>(fan_in)); }

}  // namespace

int make_zeros(BuildCtx& ctx, const std::string& name, int n) {
  return ctx.kernel(name, OpKind::kZeros, n, {});
}

// --- tanh RNN ---------------------------------------------------------------

RnnCell make_rnn(BuildCtx& ctx, const std::string& p, int in_dim, int h) {
  RnnCell c;
  c.grain = grain_of(ctx.cfg);
  const Shape x(in_dim), hh(h);
  if (c.grain == Grain::kCoarse) {
    const Shape w(h, in_dim + h);
    c.w = ctx.add_weight(w, wscale(in_dim + h));
    c.b = ctx.add_weight(Shape(h), 0.05f);
    c.k_linear = ctx.kernel(p + ".linear", OpKind::kLinear, kLinearTanh, {x, hh, w, hh});
    return c;
  }
  const Shape wx(h, in_dim), wh(h, h);
  c.wx = ctx.add_weight(wx, wscale(in_dim + h));
  c.wh = ctx.add_weight(wh, wscale(in_dim + h));
  c.b = ctx.add_weight(Shape(h), 0.05f);
  c.k_dx = ctx.kernel(p + ".dense_x", OpKind::kDense, 0, {x, wx});
  c.k_dh = ctx.kernel(p + ".dense_h", OpKind::kDense, 0, {hh, wh});
  if (c.grain == Grain::kFused) {
    c.k_abt = ctx.kernel(p + ".add_bias_tanh", OpKind::kAddBiasTanh, 0, {hh, hh, hh});
  } else {
    c.k_add = ctx.kernel(p + ".add", OpKind::kAdd, 0, {hh, hh});
    c.k_bias = ctx.kernel(p + ".bias", OpKind::kAdd, 0, {hh, hh});
    c.k_tanh = ctx.kernel(p + ".tanh", OpKind::kTanh, 0, {hh});
  }
  return c;
}

int emit_rnn(ir::FuncBuilder& b, const RnnCell& c, int x, int h) {
  if (c.grain == Grain::kCoarse)
    return b.kernel(c.k_linear, {x, h, b.weight(c.w), b.weight(c.b)});
  const int dx = b.kernel(c.k_dx, {x, b.weight(c.wx)});
  const int dh = b.kernel(c.k_dh, {h, b.weight(c.wh)});
  if (c.grain == Grain::kFused) return b.kernel(c.k_abt, {dx, dh, b.weight(c.b)});
  const int s = b.kernel(c.k_add, {dx, dh});
  const int sb = b.kernel(c.k_bias, {s, b.weight(c.b)});
  return b.kernel(c.k_tanh, {sb});
}

// --- GRU --------------------------------------------------------------------

GruCell make_gru(BuildCtx& ctx, const std::string& p, int in_dim, int h) {
  GruCell c;
  c.grain = grain_of(ctx.cfg);
  const Shape x(in_dim), hh(h);
  if (c.grain == Grain::kCoarse) {
    const Shape w(3 * h, in_dim + h), g3(3 * h);
    c.w3 = ctx.add_weight(w, wscale(in_dim + h));
    c.b3 = ctx.add_weight(g3, 0.05f);
    c.k_linear3 = ctx.kernel(p + ".linear3", OpKind::kLinear, kLinearGru, {x, hh, w, g3});
    return c;
  }
  const Shape wx(h, in_dim), wh(h, h);
  c.wzx = ctx.add_weight(wx, wscale(in_dim + h));
  c.wzh = ctx.add_weight(wh, wscale(in_dim + h));
  c.bz = ctx.add_weight(Shape(h), 0.05f);
  c.wnx = ctx.add_weight(wx, wscale(in_dim + h));
  c.wnh = ctx.add_weight(wh, wscale(in_dim + h));
  c.bn = ctx.add_weight(Shape(h), 0.05f);
  c.k_zx = ctx.kernel(p + ".z_x", OpKind::kDense, 0, {x, wx});
  c.k_zh = ctx.kernel(p + ".z_h", OpKind::kDense, 0, {hh, wh});
  c.k_nx = ctx.kernel(p + ".n_x", OpKind::kDense, 0, {x, wx});
  c.k_nh = ctx.kernel(p + ".n_h", OpKind::kDense, 0, {hh, wh});
  if (c.grain == Grain::kFused) {
    c.k_abs = ctx.kernel(p + ".add_bias_sig", OpKind::kAddBiasSigmoid, 0, {hh, hh, hh});
    c.k_abt = ctx.kernel(p + ".add_bias_tanh", OpKind::kAddBiasTanh, 0, {hh, hh, hh});
  } else {
    c.k_add = ctx.kernel(p + ".add", OpKind::kAdd, 0, {hh, hh});
    c.k_sig = ctx.kernel(p + ".sigmoid", OpKind::kSigmoid, 0, {hh});
    c.k_tanh = ctx.kernel(p + ".tanh", OpKind::kTanh, 0, {hh});
  }
  c.k_sub = ctx.kernel(p + ".sub", OpKind::kSub, 0, {hh, hh});
  c.k_mul = ctx.kernel(p + ".mul", OpKind::kMul, 0, {hh, hh});
  if (c.k_add < 0) c.k_add = ctx.kernel(p + ".add", OpKind::kAdd, 0, {hh, hh});
  return c;
}

int emit_gru(ir::FuncBuilder& b, const GruCell& c, int x, int h) {
  if (c.grain == Grain::kCoarse)
    return b.kernel(c.k_linear3, {x, h, b.weight(c.w3), b.weight(c.b3)});
  const int zx = b.kernel(c.k_zx, {x, b.weight(c.wzx)});
  const int zh = b.kernel(c.k_zh, {h, b.weight(c.wzh)});
  const int nx = b.kernel(c.k_nx, {x, b.weight(c.wnx)});
  const int nh = b.kernel(c.k_nh, {h, b.weight(c.wnh)});
  int z, n;
  if (c.grain == Grain::kFused) {
    z = b.kernel(c.k_abs, {zx, zh, b.weight(c.bz)});
    n = b.kernel(c.k_abt, {nx, nh, b.weight(c.bn)});
  } else {
    const int za = b.kernel(c.k_add, {zx, zh});
    const int zb = b.kernel(c.k_add, {za, b.weight(c.bz)});
    z = b.kernel(c.k_sig, {zb});
    const int na = b.kernel(c.k_add, {nx, nh});
    const int nb = b.kernel(c.k_add, {na, b.weight(c.bn)});
    n = b.kernel(c.k_tanh, {nb});
  }
  // h' = h + z*(n - h)
  const int d = b.kernel(c.k_sub, {n, h});
  const int zd = b.kernel(c.k_mul, {z, d});
  return b.kernel(c.k_add, {h, zd});
}

// --- LSTM -------------------------------------------------------------------

LstmCell make_lstm(BuildCtx& ctx, const std::string& p, int in_dim, int h) {
  LstmCell c;
  c.grain = grain_of(ctx.cfg);
  const Shape x(in_dim), hh(h);
  if (c.grain == Grain::kCoarse) {
    const Shape w(4 * h, in_dim + h), g4(4 * h);
    c.w4 = ctx.add_weight(w, wscale(in_dim + h));
    c.b4 = ctx.add_weight(g4, 0.05f);
    c.k_linear4 =
        ctx.kernel(p + ".linear4", OpKind::kLinear, kLinearLstm, {x, Shape(2 * h), w, g4});
    c.k_linear4_sum = ctx.kernel(p + ".linear4_sum", OpKind::kLinear, kLinearLstm | kLinearSumH,
                                 {x, Shape(2 * h), Shape(2 * h), w, g4});
    return c;
  }
  static const char* gate[4] = {"i", "f", "g", "o"};
  const Shape wx(h, in_dim), wh(h, h);
  for (int gi = 0; gi < 4; ++gi) {
    c.wgx[gi] = ctx.add_weight(wx, wscale(in_dim + h));
    c.wgh[gi] = ctx.add_weight(wh, wscale(in_dim + h));
    c.bg[gi] = ctx.add_weight(Shape(h), gi == 1 ? 1.0f : 0.05f);  // forget bias up
    c.k_gx[gi] = ctx.kernel(p + "." + gate[gi] + "_x", OpKind::kDense, 0, {x, wx});
    c.k_gh[gi] = ctx.kernel(p + "." + gate[gi] + "_h", OpKind::kDense, 0, {hh, wh});
  }
  if (c.grain == Grain::kFused) {
    for (int gi = 0; gi < 4; ++gi) {
      const OpKind act = gi == 2 ? OpKind::kAddBiasTanh : OpKind::kAddBiasSigmoid;
      c.k_fuse[gi] = ctx.kernel(p + "." + gate[gi] + "_act", act, 0, {hh, hh, hh});
    }
    c.k_fma2 = ctx.kernel(p + ".fma2", OpKind::kFma2, 0, {hh, hh, hh, hh});
    c.k_multanh = ctx.kernel(p + ".mul_tanh", OpKind::kMulTanh, 0, {hh, hh});
    return c;
  }
  c.k_add = ctx.kernel(p + ".add", OpKind::kAdd, 0, {hh, hh});
  c.k_sig = ctx.kernel(p + ".sigmoid", OpKind::kSigmoid, 0, {hh});
  c.k_tanh = ctx.kernel(p + ".tanh", OpKind::kTanh, 0, {hh});
  c.k_mul = ctx.kernel(p + ".mul", OpKind::kMul, 0, {hh, hh});
  return c;
}

int emit_lstm_state(ir::FuncBuilder& b, const LstmCell& c, int x, int state, int state2) {
  if (state2 >= 0)
    return b.kernel(c.k_linear4_sum, {x, state, state2, b.weight(c.w4), b.weight(c.b4)});
  return b.kernel(c.k_linear4, {x, state, b.weight(c.w4), b.weight(c.b4)});
}

int emit_lstm(ir::FuncBuilder& b, const LstmCell& c, int x, int h, int cc, int* c_out) {
  int act[4];
  for (int gi = 0; gi < 4; ++gi) {
    const int gx = b.kernel(c.k_gx[gi], {x, b.weight(c.wgx[gi])});
    const int gh = b.kernel(c.k_gh[gi], {h, b.weight(c.wgh[gi])});
    if (c.grain == Grain::kFused) {
      act[gi] = b.kernel(c.k_fuse[gi], {gx, gh, b.weight(c.bg[gi])});
    } else {
      const int s = b.kernel(c.k_add, {gx, gh});
      const int sb = b.kernel(c.k_add, {s, b.weight(c.bg[gi])});
      act[gi] = b.kernel(gi == 2 ? c.k_tanh : c.k_sig, {sb});
    }
  }
  int nc, nh;
  if (c.grain == Grain::kFused) {
    nc = b.kernel(c.k_fma2, {act[1], cc, act[0], act[2]});
    nh = b.kernel(c.k_multanh, {act[3], nc});
  } else {
    const int fc = b.kernel(c.k_mul, {act[1], cc});
    const int ig = b.kernel(c.k_mul, {act[0], act[2]});
    nc = b.kernel(c.k_add, {fc, ig});
    const int tc = b.kernel(c.k_tanh, {nc});
    nh = b.kernel(c.k_mul, {act[3], tc});
  }
  *c_out = nc;
  return nh;
}

// --- classifier -------------------------------------------------------------

ClassifierHead make_classifier(BuildCtx& ctx, const std::string& p, int in_dim, int h_dim) {
  ClassifierHead c;
  c.grain = grain_of(ctx.cfg);
  const Shape x(in_dim), w(kNumClasses, in_dim + h_dim), l(kNumClasses);
  c.w = ctx.add_weight(w, wscale(in_dim + h_dim));
  c.b = ctx.add_weight(l, 0.05f);
  if (c.grain == Grain::kCoarse) {
    c.k_linear = h_dim > 0 ? ctx.kernel(p + ".cls_linear", OpKind::kLinear, kLinearSoftmax,
                                        {x, Shape(h_dim), w, l})
                           : ctx.kernel(p + ".cls_linear", OpKind::kLinear, kLinearSoftmax,
                                        {x, w, l});
    return c;
  }
  c.k_dense = ctx.kernel(p + ".cls_dense", OpKind::kDense, 0, {Shape(in_dim + h_dim), w});
  c.k_bias = ctx.kernel(p + ".cls_bias", OpKind::kAdd, 0, {l, l});
  c.k_softmax = ctx.kernel(p + ".cls_softmax", OpKind::kSoftmax, 0, {l});
  return c;
}

int emit_classifier(ir::FuncBuilder& b, const ClassifierHead& c, int x, int h) {
  if (c.grain == Grain::kCoarse) {
    return h >= 0 ? b.kernel(c.k_linear, {x, h, b.weight(c.w), b.weight(c.b)})
                  : b.kernel(c.k_linear, {x, b.weight(c.w), b.weight(c.b)});
  }
  const int d = b.kernel(c.k_dense, {x, b.weight(c.w)});
  const int db = b.kernel(c.k_bias, {d, b.weight(c.b)});
  return b.kernel(c.k_softmax, {db});
}

}  // namespace acrobat::models
