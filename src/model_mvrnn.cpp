// MV-RNN (matrix-vector recursive network): every tree node carries a
// vector and a matrix; combining children multiplies each child's vector by
// the sibling's matrix. The per-node matrices are what break DyNet's
// first-argument-keyed matmul batching (Table 7) — shape-keyed batching
// collapses them.
#include "models/cells.h"
#include "models/specs.h"

namespace acrobat::models {
namespace {

Value build_tree(Dataset& ds, Rng& rng, int leaves, int h) {
  if (leaves == 1) {
    Value v = dataset_tensor(ds, ds.pool->alloc_random(RowVec(h), rng, 1.0f));
    Value m = dataset_tensor(ds, ds.pool->alloc_random(Shape(h, h), rng, 0.4f));
    return Value::make_adt(0, {std::move(v), std::move(m)});
  }
  const int left = rng.range(1, leaves - 1);
  Value l = build_tree(ds, rng, left, h);
  Value r = build_tree(ds, rng, leaves - left, h);
  return Value::make_adt(1, {std::move(l), std::move(r)});
}

Dataset dataset(bool large, int batch, std::uint64_t seed) {
  Dataset ds;
  ds.pool = std::make_shared<TensorPool>();
  Rng rng(seed);
  const int h = hidden_dim(large);
  for (int i = 0; i < batch; ++i) ds.inputs.push_back(build_tree(ds, rng, rng.range(8, 13), h));
  return ds;
}

int build(BuildCtx& ctx) {
  const int h = hidden_dim(ctx.large);
  const Shape v(h), m(h, h), v2(2 * h), w(h, 2 * h);
  const int w_comb = ctx.add_weight(w, 0.5f / static_cast<float>(h));
  const int b_comb = ctx.add_weight(Shape(h), 0.05f);
  const int k_vmat = ctx.kernel("mvrnn.vmat", OpKind::kMatMul, 0, {v, m});
  // Coarse grain combines in one kLinear that reads [a;b] in place; finer
  // grains concatenate, then run dense, bias add and tanh.
  const bool coarse = grain_of(ctx.cfg) == Grain::kCoarse;
  int k_concat = -1, k_comb, k_bias = -1, k_tanh = -1;
  if (coarse) {
    k_comb = ctx.kernel("mvrnn.combine", OpKind::kLinear, kLinearTanh, {v, v, w, v});
  } else {
    k_concat = ctx.kernel("mvrnn.concat", OpKind::kConcat, 1, {v, v});
    k_comb = ctx.kernel("mvrnn.combine", OpKind::kDense, 0, {v2, w});
    k_bias = ctx.kernel("mvrnn.bias", OpKind::kAdd, 0, {v, v});
    k_tanh = ctx.kernel("mvrnn.tanh", OpKind::kTanh, 0, {v});
  }
  const int k_madd = ctx.kernel("mvrnn.madd", OpKind::kAdd, 0, {m, m});
  const int k_mhalf = ctx.kernel("mvrnn.mhalf", OpKind::kScale, 500000, {m});  // ×0.5
  const ClassifierHead cls = make_classifier(ctx, "mvrnn", h);

  // mv(node) -> (v, M)
  ir::FuncBuilder mv(ctx.program, "mv", 1);
  {
    const int tag = mv.adt_tag(mv.arg(0));
    const int to_internal = mv.br_if(tag);
    mv.ret(mv.tuple({mv.adt_field(mv.arg(0), 0), mv.adt_field(mv.arg(0), 1)}));
    mv.patch(to_internal, mv.here());
    const int l = mv.call(mv.index(), {mv.adt_field(mv.arg(0), 0)});
    const int r = mv.call(mv.index(), {mv.adt_field(mv.arg(0), 1)});
    const int v1 = mv.tuple_get(l, 0), m1 = mv.tuple_get(l, 1);
    const int vr = mv.tuple_get(r, 0), m2 = mv.tuple_get(r, 1);
    const int a = mv.kernel(k_vmat, {v1, m2});
    const int bb = mv.kernel(k_vmat, {vr, m1});
    int vv;
    if (coarse) {
      vv = mv.kernel(k_comb, {a, bb, mv.weight(w_comb), mv.weight(b_comb)});
    } else {
      const int ab = mv.kernel(k_concat, {a, bb});
      const int d = mv.kernel(k_comb, {ab, mv.weight(w_comb)});
      const int db = mv.kernel(k_bias, {d, mv.weight(b_comb)});
      vv = mv.kernel(k_tanh, {db});
    }
    const int ms = mv.kernel(k_madd, {m1, m2});
    const int mm = mv.kernel(k_mhalf, {ms});
    mv.ret(mv.tuple({vv, mm}));
    mv.finish();
  }

  ir::FuncBuilder main(ctx.program, "main", 1);
  {
    const int r = main.call(mv.index(), {main.arg(0)});
    main.set_phase(1);
    main.ret(emit_classifier(main, cls, main.tuple_get(r, 0)));
    main.finish();
  }
  return main.index();
}

}  // namespace

ModelSpec make_mvrnn_spec() { return ModelSpec{"MV-RNN", dataset, build}; }

}  // namespace acrobat::models
