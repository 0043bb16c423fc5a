// Differential proof that batched scheduling is invisible in the outputs.
//
// A seeded generator builds random DFG traces over the full op vocabulary
// the 8 models use — random op mix, shapes, phases, depths, shared and
// scattered operands, mid-trace triggers — and replays every trace twice
// into each of three batched engines: inline-depth buckets, dynamic-depth
// recovery, and the agenda scheduler. Every pass must be bit-for-bit equal
// to an eager (lazy = false, one launch per op) engine over the same trace,
// and no batched engine may make more launches than eager. The second pass
// differs from the first through the constant cache. The sweep rotates
// gather_fusion / shape_keyed_batching / fuse_waves off the seed bits.
//
// ACROBAT_SERVE_REQUESTS bounds the number of seeds (default 50; CI's
// sanitize job pins it back to 50). ACROBAT_TEST_SEED overrides the base
// seed; every failure prints the exact per-trace seed to rerun with.
#include <cstdio>
#include <cstring>
#include <vector>

#include "engine/engine.h"
#include "support/rng.h"
#include "test_util.h"

using namespace acrobat;

namespace {

// ---------------------------------------------------------------- fixture

// Value shape classes the generator tracks pools for. kM* classes are
// weight-like: only concrete tensors feed them.
enum ShapeClass : int {
  kV8 = 0,  // RowVec(8)
  kV16,     // RowVec(16): concat2 output
  kV24,     // RowVec(24): GRU gates (the GRU epilogue's bias)
  kV32,     // RowVec(32): LSTM gates (the LSTM epilogue's bias)
  kV40,     // RowVec(40): concat5 output (sink)
  kS1,      // Shape(1): whole-batch reductions (sinks)
  kM8,      // Shape(8,8) parameter
  kM24,     // Shape(24,8) parameter
  kM32,     // Shape(32,8) parameter
  kM816,    // Shape(8,16) parameter: kLinear over [x;h]
  kM2416,   // Shape(24,16) parameter: GRU cell over [x;h]
  kM3216,   // Shape(32,16) parameter: LSTM cell over [x;h]
  kNumClasses
};

Shape class_shape(int c) {
  switch (c) {
    case kV8: return RowVec(8);
    case kV16: return RowVec(16);
    case kV24: return RowVec(24);
    case kV32: return RowVec(32);
    case kV40: return RowVec(40);
    case kS1: return Shape(1);
    case kM8: return Shape(8, 8);
    case kM24: return Shape(24, 8);
    case kM32: return Shape(32, 8);
    case kM816: return Shape(8, 16);
    case kM2416: return Shape(24, 16);
    default: return Shape(32, 16);
  }
}

struct OpSpec {
  const char* name;
  OpKind op;
  std::int64_t attr;
  int arity;
  int out;
  int in[5];
};

// The whole vocabulary: dense family, elementwise, fused pointwise, coarse
// cells, structural and reduction kinds.
const OpSpec kOps[] = {
    {"g.dense8", OpKind::kDense, 0, 2, kV8, {kV8, kM8}},
    {"g.dense24", OpKind::kDense, 0, 2, kV24, {kV8, kM24}},
    {"g.dense32", OpKind::kDense, 0, 2, kV32, {kV8, kM32}},
    {"g.matmul", OpKind::kMatMul, 0, 2, kV8, {kV8, kM8}},
    {"g.matmulbt", OpKind::kMatMulBT, 0, 2, kV8, {kV8, kM8}},
    {"g.add", OpKind::kAdd, 0, 2, kV8, {kV8, kV8}},
    {"g.sub", OpKind::kSub, 0, 2, kV8, {kV8, kV8}},
    {"g.mul", OpKind::kMul, 0, 2, kV8, {kV8, kV8}},
    {"g.tanh", OpKind::kTanh, 0, 1, kV8, {kV8}},
    {"g.sigmoid", OpKind::kSigmoid, 0, 1, kV8, {kV8}},
    {"g.relu", OpKind::kRelu, 0, 1, kV8, {kV8}},
    {"g.scale", OpKind::kScale, 1500000, 1, kV8, {kV8}},
    {"g.softmax", OpKind::kSoftmax, 0, 1, kV8, {kV8}},
    {"g.abt", OpKind::kAddBiasTanh, 0, 3, kV8, {kV8, kV8, kV8}},
    {"g.abs", OpKind::kAddBiasSigmoid, 0, 3, kV8, {kV8, kV8, kV8}},
    {"g.fma2", OpKind::kFma2, 0, 4, kV8, {kV8, kV8, kV8, kV8}},
    {"g.multanh", OpKind::kMulTanh, 0, 2, kV8, {kV8, kV8}},
    // kLinear, each epilogue, both forms (x alone, and [x;h]); the bias is
    // any value of its width, so shared-bias row-pointer calls and per-op
    // fallbacks both occur. The GRU cell reads h (V8); the LSTM cell reads
    // an [h; c] state (V16: a concat or an earlier LSTM cell) and writes
    // one. The operand rule: a V16 h operand under an (8, 16) W gives its
    // first 8 floats, and a V16 x alone under an (8, 8) W its first 8.
    {"g.lin", OpKind::kLinear, kLinearIdentity, 3, kV8, {kV8, kM8, kV8}},
    {"g.lin_tanh", OpKind::kLinear, kLinearTanh, 4, kV8, {kV8, kV8, kM816, kV8}},
    {"g.lin_soft", OpKind::kLinear, kLinearSoftmax, 3, kV8, {kV8, kM8, kV8}},
    {"g.lin_soft2", OpKind::kLinear, kLinearSoftmax, 4, kV8, {kV8, kV8, kM816, kV8}},
    {"g.gru", OpKind::kLinear, kLinearGru, 4, kV8, {kV8, kV8, kM2416, kV24}},
    {"g.lstm", OpKind::kLinear, kLinearLstm, 4, kV16, {kV8, kV16, kM3216, kV32}},
    {"g.lin_hwide", OpKind::kLinear, kLinearTanh, 4, kV8, {kV8, kV16, kM816, kV8}},
    {"g.lin_xwide", OpKind::kLinear, kLinearIdentity, 3, kV8, {kV16, kM8, kV8}},
    {"g.concat2", OpKind::kConcat, 1, 2, kV16, {kV8, kV8}},
    {"g.tanh16", OpKind::kTanh, 0, 1, kV16, {kV16}},
    // Variable arity above the registry's declared-arity cap of 4: a node
    // with five inline inputs and the engine-executed concat loop.
    {"g.concat5", OpKind::kConcat, 1, 5, kV40, {kV8, kV8, kV8, kV8, kV8}},
    {"g.zeros", OpKind::kZeros, 8, 0, kV8, {}},
    {"g.sumall", OpKind::kSumAll, 0, 1, kS1, {kV8}},
    {"g.maxprob", OpKind::kMaxProb, 0, 1, kS1, {kV8}},
};
constexpr int kNumOps = static_cast<int>(sizeof(kOps) / sizeof(kOps[0]));

struct Fixture {
  KernelRegistry reg;
  TensorPool pool;
  std::vector<int> kernel_ids;    // per OpSpec
  std::vector<Tensor> tensors;    // concrete inputs
  std::vector<int> tensor_class;  // ShapeClass per tensor

  explicit Fixture(Rng& rng) {
    for (const OpSpec& os : kOps) {
      Shape reps[4];
      const int rep_arity = os.arity > 4 ? 2 : os.arity;  // registry cap
      for (int j = 0; j < rep_arity; ++j) reps[j] = class_shape(os.in[j]);
      kernel_ids.push_back(
          reg.add(os.name, os.op, os.attr, rep_arity, rep_arity ? reps : nullptr));
    }
    // Per-seed PGO state: random schedule variants, shared by every engine.
    for (const int id : kernel_ids) {
      Kernel& k = reg.kernel(id);
      k.variant = rng.uniform_int(k.num_variants);
    }
    // Concrete inputs: several V8 activations (shared/scattered operand
    // draws) and two M8 parameters (shared-parameter stacking vs split
    // first-argument classes), one each of the gate-sized parameters.
    const int counts[kNumClasses] = {4, 0, 0, 0, 0, 0, 2, 1, 1, 1, 1, 1};
    for (int c = 0; c < kNumClasses; ++c)
      for (int i = 0; i < counts[c]; ++i) {
        tensors.push_back(pool.alloc_random(class_shape(c), rng, 0.8f));
        tensor_class.push_back(c);
      }
  }
};

// --------------------------------------------------------------- generator

struct TraceStep {
  enum Kind { kConcrete, kOp, kTrigger } kind = kTrigger;
  int a = 0;  // kConcrete: fixture tensor index; kOp: OpSpec index
  int phase = 0;
  std::vector<int> args;  // kOp: value indices
};

struct Trace {
  std::vector<TraceStep> steps;
  int n_values = 0;
};

Trace make_trace(const Fixture& f, Rng& rng) {
  Trace t;
  std::vector<std::vector<int>> pool(kNumClasses);
  std::vector<int> vphase;
  for (std::size_t i = 0; i < f.tensors.size(); ++i) {
    TraceStep st;
    st.kind = TraceStep::kConcrete;
    st.a = static_cast<int>(i);
    t.steps.push_back(st);
    pool[f.tensor_class[i]].push_back(t.n_values);
    vphase.push_back(0);
    ++t.n_values;
  }
  const int n_ops = 30 + rng.uniform_int(91);
  int made = 0;
  for (int guard = 0; made < n_ops && guard < n_ops * 20; ++guard) {
    const int oi = rng.uniform_int(kNumOps);
    const OpSpec& os = kOps[oi];
    bool feasible = true;
    for (int j = 0; j < os.arity; ++j)
      if (pool[os.in[j]].empty()) {
        feasible = false;
        break;
      }
    if (!feasible) continue;
    TraceStep st;
    st.kind = TraceStep::kOp;
    st.a = oi;
    int ph = 0;
    for (int j = 0; j < os.arity; ++j) {
      const std::vector<int>& p = pool[os.in[j]];
      const int v = p[rng.uniform_int(static_cast<int>(p.size()))];
      st.args.push_back(v);
      if (vphase[v] > ph) ph = vphase[v];
    }
    // Phase tags stay monotone along dependencies (the builders' contract);
    // occasional bumps exercise the phase>0 readiness-wave scheduler.
    // Zero-arity consts stay at phase 0: const_reuse aliases every such op
    // to one cached node, so a phase-bumped const would leak its tag to
    // structurally-phase-0 consumers elsewhere in the trace.
    if (os.arity > 0 && ph < 2 && rng.uniform_int(8) == 0) ++ph;
    st.phase = ph;
    t.steps.push_back(std::move(st));
    pool[os.out].push_back(t.n_values);
    vphase.push_back(ph);
    ++t.n_values;
    ++made;
    if (rng.uniform_int(12) == 0) t.steps.push_back(TraceStep{});  // mid-trace trigger
  }
  return t;
}

// ------------------------------------------------------------------ apply

// Replays the trace `passes` times into one engine and returns each pass's
// flattened values; `launches` receives each pass's kernel launches.
// Concrete tensors are wrapped once (pass 0) and reused, like weights in a
// server.
std::vector<std::vector<float>> apply(const Fixture& f, const Trace& t, EngineConfig cfg,
                                      int passes, std::vector<long long>& launches) {
  Engine eng(f.reg, cfg);
  std::vector<std::vector<float>> out;
  std::vector<TRef> cvals;
  long long prev = 0;
  for (int p = 0; p < passes; ++p) {
    InstCtx ctx{p};
    std::vector<TRef> vals;
    vals.reserve(static_cast<std::size_t>(t.n_values));
    std::size_t c_idx = 0;
    for (const TraceStep& st : t.steps) {
      switch (st.kind) {
        case TraceStep::kConcrete:
          if (p == 0) cvals.push_back(eng.add_concrete(f.tensors[st.a].view()));
          vals.push_back(cvals[c_idx++]);
          break;
        case TraceStep::kOp: {
          TRef ins[8];
          for (std::size_t j = 0; j < st.args.size(); ++j)
            ins[j] = vals[static_cast<std::size_t>(st.args[j])];
          vals.push_back(eng.add_op(f.kernel_ids[st.a], ins,
                                    static_cast<int>(st.args.size()), ctx, st.phase));
          break;
        }
        case TraceStep::kTrigger:
          eng.trigger_execution();
          break;
      }
    }
    eng.trigger_execution();
    std::vector<float> flat;
    for (const TRef v : vals) {
      const Tensor tt = eng.force(v);
      flat.insert(flat.end(), tt.data, tt.data + tt.numel());
    }
    out.push_back(std::move(flat));
    launches.push_back(eng.stats().kernel_launches - prev);
    prev = eng.stats().kernel_launches;
  }
  return out;
}

// ------------------------------------------------------ differential sweep

constexpr int kPasses = 2;

void run_one_seed(std::uint64_t seed) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  Fixture f(rng);
  const Trace t = make_trace(f, rng);

  EngineConfig cfg;
  cfg.gather_fusion = ((seed >> 2) & 1) != 0;
  cfg.shape_keyed_batching = ((seed >> 3) & 1) != 0;

  EngineConfig eager = cfg;
  eager.lazy = false;
  std::vector<long long> eager_launches;
  const auto ref = apply(f, t, eager, kPasses, eager_launches);

  for (int si = 0; si < 3; ++si) {
    EngineConfig batched = cfg;
    batched.scheduler = si == 2 ? SchedulerKind::kAgenda : SchedulerKind::kDepth;
    batched.inline_depth = si != 1;  // si == 1: dynamic-depth recovery
    batched.fuse_waves = si < 2 && ((seed >> 4) & 1) != 0;
    std::vector<long long> launches;
    const auto out = apply(f, t, batched, kPasses, launches);
    for (int p = 0; p < kPasses; ++p) {
      CHECK_EQ(out[p].size(), ref[p].size());
      CHECK(out[p].size() == ref[p].size() &&
            std::memcmp(out[p].data(), ref[p].data(), out[p].size() * sizeof(float)) == 0);
      CHECK(launches[p] <= eager_launches[p]);
    }
  }
}

void test_differential_sweep() {
  const std::uint64_t base = acrobat::test::seed(0x6e0d1ffull);
  const int n_seeds = acrobat::test::env_requests(50);
  for (int i = 0; i < n_seeds; ++i) {
    // Record the per-trace seed so a CHECK failure prints the exact rerun.
    acrobat::test::g_seed = base + static_cast<std::uint64_t>(i);
    run_one_seed(base + static_cast<std::uint64_t>(i));
  }
  acrobat::test::g_seed = base;
  std::printf("differential sweep: %d seeds x 3 schedulers x %d passes vs eager\n", n_seeds,
              kPasses);
}

}  // namespace

int main() {
  test_differential_sweep();
  return acrobat::test::finish("test_sched_diff");
}
