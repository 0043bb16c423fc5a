// BiRNN: bidirectional GRU tagger. Iterative (no instance parallelism —
// the Fig. 5 model with the smallest speedups); the per-token classifier
// consumes forward and backward states that become available at opposite
// ends of the sequence, so it is phase-tagged (phases are what let the
// classifier launches batch, the paper's BiRNN phase example).
#include "models/cells.h"
#include "models/specs.h"

namespace acrobat::models {
namespace {

Dataset dataset(bool large, int batch, std::uint64_t seed) {
  return make_token_dataset(large, batch, seed, 12, 18);
}

int build(BuildCtx& ctx) {
  const int h = hidden_dim(ctx.large);
  const GruCell fwd = make_gru(ctx, "birnn.fwd", h, h);
  const GruCell bwd = make_gru(ctx, "birnn.bwd", h, h);
  const int k_zero = make_zeros(ctx, "birnn.zero", h);
  const int k_zero_cls = make_zeros(ctx, "birnn.zero_cls", kNumClasses);
  // Coarse grain: the classifier reads [fwd;bwd] in place (one kLinear);
  // finer grains concatenate the two states first.
  const bool coarse = grain_of(ctx.cfg) == Grain::kCoarse;
  const int k_concat =
      coarse ? -1 : ctx.kernel("birnn.concat_fb", OpKind::kConcat, 1, {Shape(h), Shape(h)});
  const int k_acc = ctx.kernel("birnn.acc", OpKind::kAdd, 0, {Shape(kNumClasses), Shape(kNumClasses)});
  const ClassifierHead cls = make_classifier(ctx, "birnn", h, h);

  ir::FuncBuilder b(ctx.program, "main", 1);
  const int seq = b.arg(0);
  const int t_len = b.tuple_len(seq);
  const int h0 = b.kernel(k_zero, {});
  const int nil = b.adt(0, {});
  const int zero_i = b.cint(0);

  // Forward pass, consing states (list ends ordered last-token-first).
  const int hf = b.var(h0);
  const int lf = b.var(nil);
  const int i = b.var(zero_i);
  const int fwd_head = b.here();
  const int fwd_cond = b.lt(i, t_len);
  const int fwd_body = b.br_if(fwd_cond);
  const int fwd_exit = b.jmp();
  b.patch(fwd_body, b.here());
  {
    const int x = b.tuple_get_dyn(seq, i);
    const int nh = emit_gru(b, fwd, x, hf);
    b.assign(hf, nh);
    b.assign(lf, b.adt(1, {nh, lf}));
    b.assign(i, b.add_int_imm(i, 1));
    b.jmp_to(fwd_head);
  }
  b.patch(fwd_exit, b.here());

  // Backward pass over reversed tokens.
  const int hb = b.var(h0);
  const int lb = b.var(nil);
  const int j = b.var(b.add_int_imm(t_len, -1));
  const int bwd_head = b.here();
  const int bwd_done = b.lt(j, zero_i);
  const int bwd_exit = b.br_if(bwd_done);
  {
    const int x = b.tuple_get_dyn(seq, j);
    const int nh = emit_gru(b, bwd, x, hb);
    b.assign(hb, nh);
    b.assign(lb, b.adt(1, {nh, lb}));
    b.assign(j, b.add_int_imm(j, -1));
    b.jmp_to(bwd_head);
  }
  b.patch(bwd_exit, b.here());

  // lf holds forward states last-token-first; lb holds backward states
  // first-token-first (cons order follows each pass's direction). Reverse
  // lb so the zip below pairs both states of the *same* token.
  const int lbr = b.var(nil);
  const int pr = b.var(lb);
  const int rev_head = b.here();
  const int rev_tag = b.adt_tag(pr);
  const int rev_body = b.br_if(rev_tag);
  const int rev_exit = b.jmp();
  b.patch(rev_body, b.here());
  {
    b.assign(lbr, b.adt(1, {b.adt_field(pr, 0), lbr}));
    b.assign(pr, b.adt_field(pr, 1));
    b.jmp_to(rev_head);
  }
  b.patch(rev_exit, b.here());

  // Per-token heads: zip the two state lists; everything here is phase 1
  // (including the accumulation, which chains and therefore schedules as
  // readiness waves).
  b.set_phase(1);
  const int out = b.var(b.kernel(k_zero_cls, {}));
  const int pf = b.var(lf);
  const int pb = b.var(lbr);
  const int zip_head = b.here();
  const int zip_tag = b.adt_tag(pf);
  const int zip_body = b.br_if(zip_tag);
  const int zip_exit = b.jmp();
  b.patch(zip_body, b.here());
  {
    const int sf = b.adt_field(pf, 0), sb = b.adt_field(pb, 0);
    const int logits = coarse ? emit_classifier(b, cls, sf, sb)
                              : emit_classifier(b, cls, b.kernel(k_concat, {sf, sb}));
    b.assign(out, b.kernel(k_acc, {out, logits}));
    b.assign(pf, b.adt_field(pf, 1));
    b.assign(pb, b.adt_field(pb, 1));
    b.jmp_to(zip_head);
  }
  b.patch(zip_exit, b.here());
  b.ret(out);
  b.finish();
  return b.index();
}

}  // namespace

ModelSpec make_birnn_spec() { return ModelSpec{"BiRNN", dataset, build}; }

}  // namespace acrobat::models
