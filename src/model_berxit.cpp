// Berxit: a small transformer-style encoder with per-layer early exit
// decided from activations (kSyncSign) — tensor-dependent control flow over
// a wide, intermediate-heavy graph. Under DyNet's per-op pipeline every
// unfused intermediate stays live, which is what trips the scaled device
// memory cap at batch 64 (Table 5's OOM entries).
#include "models/cells.h"
#include "models/specs.h"

namespace acrobat::models {
namespace {

constexpr int kLayers = 6;

int seq_len(bool large) { return large ? 12 : 8; }

Dataset dataset(bool large, int batch, std::uint64_t seed) {
  Dataset ds;
  ds.pool = std::make_shared<TensorPool>();
  Rng rng(seed);
  const int h = hidden_dim(large);
  const int s = seq_len(large);
  for (int i = 0; i < batch; ++i)
    ds.inputs.push_back(dataset_tensor(ds, ds.pool->alloc_random(Shape(s, h), rng, 1.0f)));
  return ds;
}

int build(BuildCtx& ctx) {
  const int h = hidden_dim(ctx.large);
  const int s = seq_len(ctx.large);
  const bool per_op = grain_of(ctx.cfg) == Grain::kPerOp;
  const Shape sh(s, h), ss(s, s), w(h, h), brow(h);
  const float scale = 0.5f / static_cast<float>(h);

  struct Layer {
    int wq, wk, wv, wo, w1, w2;
    int bq, bk, bv, bo, b1, b2;  // per-op only
  };
  std::vector<Layer> layers;
  // Kernel ids are shared across layers. A kernel is its structure
  // (engine/kernels.h), so q, k, v, o and both FFN projections, each a
  // kDense of an (s, h) activation by an (h, h) weight, are one kernel and
  // batch together across roles.
  const int k_q = ctx.kernel("berxit.q", OpKind::kDense, 0, {sh, w});
  const int k_k = ctx.kernel("berxit.k", OpKind::kDense, 0, {sh, w});
  const int k_v = ctx.kernel("berxit.v", OpKind::kDense, 0, {sh, w});
  const int k_score = ctx.kernel("berxit.score", OpKind::kDense, 0, {sh, sh});  // q·kᵀ
  const int k_soft = ctx.kernel("berxit.softmax", OpKind::kSoftmax, 0, {ss});
  const int k_mix = ctx.kernel("berxit.mix", OpKind::kMatMul, 0, {ss, sh});
  const int k_o = ctx.kernel("berxit.o", OpKind::kDense, 0, {sh, w});
  const int k_res = ctx.kernel("berxit.residual", OpKind::kAdd, 0, {sh, sh});
  const int k_f1 = ctx.kernel("berxit.ffn1", OpKind::kDense, 0, {sh, w});
  const int k_act = ctx.kernel("berxit.ffn_tanh", OpKind::kTanh, 0, {sh});
  const int k_f2 = ctx.kernel("berxit.ffn2", OpKind::kDense, 0, {sh, w});
  const int k_bias = per_op ? ctx.kernel("berxit.bias", OpKind::kAdd, 0, {sh, brow}) : -1;
  const int k_exit = ctx.kernel("berxit.exit_sum", OpKind::kSumAll, 0, {sh});
  const ClassifierHead cls = make_classifier(ctx, "berxit", h);
  // Row pooling: a learned (1×s) row times the (s×h) activations.
  const int k_pool = ctx.kernel("berxit.pool", OpKind::kMatMul, 0, {Shape(1, s), sh});
  const int w_pool = ctx.add_weight(Shape(1, s), 0.3f);

  for (int l = 0; l < kLayers; ++l) {
    Layer lay{};
    lay.wq = ctx.add_weight(w, scale);
    lay.wk = ctx.add_weight(w, scale);
    lay.wv = ctx.add_weight(w, scale);
    lay.wo = ctx.add_weight(w, scale);
    lay.w1 = ctx.add_weight(w, scale);
    lay.w2 = ctx.add_weight(w, scale);
    if (per_op) {
      lay.bq = ctx.add_weight(brow, 0.05f);
      lay.bk = ctx.add_weight(brow, 0.05f);
      lay.bv = ctx.add_weight(brow, 0.05f);
      lay.bo = ctx.add_weight(brow, 0.05f);
      lay.b1 = ctx.add_weight(brow, 0.05f);
      lay.b2 = ctx.add_weight(brow, 0.05f);
    }
    layers.push_back(lay);
  }

  ir::FuncBuilder b(ctx.program, "main", 1);
  const int hv = b.var(b.arg(0));
  std::vector<int> exit_jumps;
  auto proj = [&](int kid, int x, int wi, int bi) {
    int d = b.kernel(kid, {x, b.weight(wi)});
    if (per_op) d = b.kernel(k_bias, {d, b.weight(bi)});
    return d;
  };
  for (int l = 0; l < kLayers; ++l) {
    const Layer& lay = layers[static_cast<std::size_t>(l)];
    const int q = proj(k_q, hv, lay.wq, lay.bq);
    const int kk = proj(k_k, hv, lay.wk, lay.bk);
    const int vv = proj(k_v, hv, lay.wv, lay.bv);
    const int att = b.kernel(k_score, {q, kk});
    const int sm = b.kernel(k_soft, {att});
    const int mix = b.kernel(k_mix, {sm, vv});
    const int o = proj(k_o, mix, lay.wo, lay.bo);
    const int r1 = b.kernel(k_res, {hv, o});
    const int f1 = proj(k_f1, r1, lay.w1, lay.b1);
    const int f1t = b.kernel(k_act, {f1});
    const int f2 = proj(k_f2, f1t, lay.w2, lay.b2);
    b.assign(hv, b.kernel(k_res, {r1, f2}));
    if (l >= 1 && l < kLayers - 1) {
      // Early exit: confident enough once the activation mass goes positive.
      const int score = b.kernel(k_exit, {hv});
      const int done = b.sync_sign(score, 0.0);
      exit_jumps.push_back(b.br_if(done));
    }
  }
  const int tail = b.here();
  for (const int jump : exit_jumps) b.patch(jump, tail);
  b.set_phase(1);
  const int pooled = b.kernel(k_pool, {b.weight(w_pool), hv});
  b.ret(emit_classifier(b, cls, pooled));
  b.finish();
  return b.index();
}

}  // namespace

ModelSpec make_berxit_spec() { return ModelSpec{"Berxit", dataset, build}; }

}  // namespace acrobat::models
