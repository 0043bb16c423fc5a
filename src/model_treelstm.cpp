// TreeLSTM (child-sum) over random binary parse trees; the paper's flagship
// recursive model. Leaf cells consume the token embedding with hoistable
// zero states (the Table 7 constant-reuse story); the root classifier is
// phase-tagged so roots at different tree depths batch into one launch.
// Under coarsening a cell is one launch and a node's state one [h; c] row.
#include "models/cells.h"
#include "models/specs.h"

namespace acrobat::models {
namespace {

Value build_tree(Dataset& ds, Rng& rng, int leaves, int h) {
  if (leaves == 1)
    return Value::make_adt(0, {dataset_tensor(ds, ds.pool->alloc_random(RowVec(h), rng, 1.0f))});
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
  for (int i = 0; i < batch; ++i) ds.inputs.push_back(build_tree(ds, rng, rng.range(10, 16), h));
  return ds;
}

int build(BuildCtx& ctx) {
  const int h = hidden_dim(ctx.large);
  const LstmCell cell = make_lstm(ctx, "treelstm", h, h);
  const int k_zero = make_zeros(ctx, "treelstm.zero", h);
  // Coarse grain carries each node's state as one [h; c] row: an internal
  // cell adds its children's states inside its own kLinear, a leaf reads one
  // cached zero state, and the root classifier reads the h half in place.
  // Finer grains carry an (h, c) tuple and add the children first.
  const bool coarse = grain_of(ctx.cfg) == Grain::kCoarse;
  const int k_zero_state = coarse ? make_zeros(ctx, "treelstm.zero_state", 2 * h) : k_zero;
  const int k_merge =
      coarse ? -1 : ctx.kernel("treelstm.child_sum", OpKind::kAdd, 0, {Shape(h), Shape(h)});
  const ClassifierHead cls = make_classifier(ctx, "treelstm", h);

  // tree(node) -> [h; c] (coarse) or (h, c)
  ir::FuncBuilder tree(ctx.program, "tree", 1);
  {
    const int tag = tree.adt_tag(tree.arg(0));
    const int to_internal = tree.br_if(tag);
    // Leaf(x): cell over the embedding with zero state.
    const int x = tree.adt_field(tree.arg(0), 0);
    const int z = tree.kernel(k_zero_state, {});
    if (coarse) {
      tree.ret(emit_lstm_state(tree, cell, x, z));
    } else {
      int c_out = -1;
      const int hh = emit_lstm(tree, cell, x, z, z, &c_out);
      tree.ret(tree.tuple({hh, c_out}));
    }
    // Node(l, r): child-sum combine, zero input embedding.
    tree.patch(to_internal, tree.here());
    const int l = tree.call(tree.index(), {tree.adt_field(tree.arg(0), 0)});
    const int r = tree.call(tree.index(), {tree.adt_field(tree.arg(0), 1)});
    if (coarse) {
      tree.ret(emit_lstm_state(tree, cell, tree.kernel(k_zero, {}), l, r));
    } else {
      const int hs = tree.kernel(k_merge, {tree.tuple_get(l, 0), tree.tuple_get(r, 0)});
      const int cs = tree.kernel(k_merge, {tree.tuple_get(l, 1), tree.tuple_get(r, 1)});
      const int z2 = tree.kernel(k_zero, {});
      int c2 = -1;
      const int h2 = emit_lstm(tree, cell, z2, hs, cs, &c2);
      tree.ret(tree.tuple({h2, c2}));
    }
    tree.finish();
  }

  ir::FuncBuilder main(ctx.program, "main", 1);
  {
    const int r = main.call(tree.index(), {main.arg(0)});
    main.set_phase(1);
    const int logits = emit_classifier(main, cls, coarse ? r : main.tuple_get(r, 0));
    main.ret(logits);
    main.finish();
  }
  return main.index();
}

}  // namespace

ModelSpec make_treelstm_spec() { return ModelSpec{"TreeLSTM", dataset, build}; }

}  // namespace acrobat::models
