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
// gather_fusion / shape_keyed_batching / fuse_waves / fuse_chains off the
// seed bits. The generator also records same-kernel elementwise chains
// (accumulators, reduction trees, a step that waits on a later kernel, a
// broadcast step); an engine with fuse_chains makes no more launches than
// the same engine without, and every batch it merged into an earlier
// launch must satisfy the chain rule, re-checked from its batch log.
//
// ACROBAT_SERVE_REQUESTS bounds the number of seeds (default 50; CI's
// sanitize job pins it back to 50). ACROBAT_TEST_SEED overrides the base
// seed; every failure prints the exact per-trace seed to rerun with.
#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
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
  kR2,      // Shape(2,8): a two-row value, which a RowVec(8) broadcasts over
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
    case kM3216: return Shape(32, 16);
    default: return Shape(2, 8);
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
    {"g.addrow", OpKind::kAdd, 0, 2, kR2, {kR2, kV8}},  // row broadcast
};
constexpr int kNumOps = static_cast<int>(sizeof(kOps) / sizeof(kOps[0]));

int op_index(const char* name) {
  for (int i = 0; i < kNumOps; ++i)
    if (std::strcmp(kOps[i].name, name) == 0) return i;
  std::abort();
}

// The elementwise V8 kernels a chain can run through (DESIGN.md §5
// "Chains"), the binary ones first; the chain rides their first operand.
const char* const kChainOps[] = {"g.add",  "g.sub",  "g.mul",  "g.tanh", "g.sigmoid", "g.relu",
                                 "g.scale", "g.abt", "g.abs", "g.fma2", "g.multanh"};
constexpr int kNumChainOps = static_cast<int>(sizeof(kChainOps) / sizeof(kChainOps[0]));
constexpr int kNumBinaryChainOps = 3;
// Unary V8 kernels registered after every binary chain kernel, so they run
// later in the same depth bucket or wave.
const char* const kLateOps[] = {"g.tanh", "g.sigmoid", "g.relu", "g.scale"};

bool elementwise(OpKind op) {
  switch (op) {
    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:
    case OpKind::kTanh:
    case OpKind::kSigmoid:
    case OpKind::kRelu:
    case OpKind::kScale:
    case OpKind::kAddBiasTanh:
    case OpKind::kAddBiasSigmoid:
    case OpKind::kFma2:
    case OpKind::kMulTanh:
      return true;
    default:
      return false;
  }
}

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
    const int counts[kNumClasses] = {4, 0, 0, 0, 0, 0, 2, 1, 1, 1, 1, 1, 1};
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
  const std::vector<int> concrete_v8 = pool[kV8];
  const int n_ops = 30 + rng.uniform_int(91);
  int made = 0;

  // Records op `oi` over `args` at `phase`, raised to its inputs' phases
  // (builders keep phase tags monotone along dependencies), and returns the
  // new value.
  const auto emit = [&](int oi, std::vector<int> args, int phase) {
    for (const int v : args) phase = std::max(phase, vphase[static_cast<std::size_t>(v)]);
    TraceStep st;
    st.kind = TraceStep::kOp;
    st.a = oi;
    st.phase = phase;
    st.args = std::move(args);
    t.steps.push_back(std::move(st));
    pool[kOps[oi].out].push_back(t.n_values);
    vphase.push_back(phase);
    ++made;
    return t.n_values++;
  };
  const auto pick = [&](const std::vector<int>& p) {
    return p[static_cast<std::size_t>(rng.uniform_int(static_cast<int>(p.size())))];
  };
  const auto pick_op = [&](const char* const* names, int n) {
    return op_index(names[rng.uniform_int(n)]);
  };

  // Same-kernel elementwise chains carried from step to step, at phase 0
  // (depth buckets) or at phase 1 or 2 (readiness waves).
  const auto chain = [&] {
    const int phase = rng.uniform_int(3);
    switch (rng.uniform_int(4)) {
      case 0: {
        // Per-instance accumulators of different random lengths, their
        // steps interleaved; the other operands are any V8 values.
        const int oi = pick_op(kChainOps, kNumChainOps);
        const int n = 2 + rng.uniform_int(4);
        std::vector<int> acc, left;
        for (int i = 0; i < n; ++i) {
          acc.push_back(pick(pool[kV8]));
          left.push_back(1 + rng.uniform_int(8));
        }
        for (int live = n; live > 0;) {
          const std::size_t i = static_cast<std::size_t>(rng.uniform_int(n));
          if (left[i] == 0) continue;
          std::vector<int> args{acc[i]};
          for (int j = 1; j < kOps[oi].arity; ++j) args.push_back(pick(pool[kV8]));
          acc[i] = emit(oi, std::move(args), phase);
          if (--left[i] == 0) --live;
        }
        return;
      }
      case 1: {
        // A binary reduction tree over 2-9 leaves, pairs taken in random
        // order: DRNN's merge shape.
        const int oi = pick_op(kChainOps, kNumBinaryChainOps);
        std::vector<int> level(static_cast<std::size_t>(2 + rng.uniform_int(8)));
        for (int& v : level) v = pick(pool[kV8]);
        while (level.size() > 1) {
          const std::size_t i =
              static_cast<std::size_t>(rng.uniform_int(static_cast<int>(level.size()) - 1));
          level[i] = emit(oi, {level[i], level[i + 1]}, phase);
          level.erase(level.begin() + static_cast<std::ptrdiff_t>(i) + 1);
        }
        return;
      }
      case 2: {
        // A step whose other operand a later kernel writes in the chain's
        // first depth bucket or wave: that step must wait for it.
        const int oi = pick_op(kChainOps, kNumBinaryChainOps);
        const int late = emit(pick_op(kLateOps, 4), {pick(concrete_v8)}, phase);
        int acc = emit(oi, {pick(concrete_v8), pick(concrete_v8)}, phase);
        acc = emit(oi, {acc, late}, phase);
        for (int s = rng.uniform_int(3); s > 0; --s) acc = emit(oi, {acc, pick(concrete_v8)}, phase);
        return;
      }
      default: {
        // Steps with a broadcast-shaped operand: they must not chain.
        int acc = pick(pool[kR2]);
        for (int s = 1 + rng.uniform_int(4); s > 0; --s)
          acc = emit(op_index("g.addrow"), {acc, pick(pool[kV8])}, phase);
      }
    }
  };

  for (int guard = 0; made < n_ops && guard < n_ops * 20; ++guard) {
    if (rng.uniform_int(8) == 0) {
      chain();
    } else {
      const int oi = rng.uniform_int(kNumOps);
      const OpSpec& os = kOps[oi];
      bool feasible = true;
      for (int j = 0; j < os.arity; ++j)
        if (pool[os.in[j]].empty()) {
          feasible = false;
          break;
        }
      if (!feasible) continue;
      std::vector<int> args;
      int ph = 0;
      for (int j = 0; j < os.arity; ++j) {
        args.push_back(pick(pool[os.in[j]]));
        ph = std::max(ph, vphase[static_cast<std::size_t>(args.back())]);
      }
      // Occasional phase bumps exercise the phase>0 readiness-wave
      // scheduler. Zero-arity consts stay at phase 0: const_reuse aliases
      // every such op to one cached node, so a phase-bumped const would leak
      // its tag to structurally-phase-0 consumers elsewhere in the trace.
      if (os.arity > 0 && ph < 2 && rng.uniform_int(8) == 0) ++ph;
      emit(oi, std::move(args), ph);
    }
    if (rng.uniform_int(12) == 0) t.steps.push_back(TraceStep{});  // mid-trace trigger
  }
  return t;
}

// ------------------------------------------------------------------ apply

// Chain fusion's rule (DESIGN.md §5 "Chains"), checked from the engine's
// batch log with `ends` the log's length at each trigger's end. A batch that
// ran inside an earlier launch has an elementwise kernel, and that kernel
// launched earlier in the same trigger with only merged batches of it
// since. Each member reads only operands of its own shape, each written
// before that launch or by a batch of the same kernel since. Cortex's wave
// merging (fuse_waves) is a different rule, so its runs are not checked.
void check_chain_log(const Fixture& f, const Engine& eng, const std::vector<std::size_t>& ends) {
  const std::vector<Engine::ExecBatch>& log = eng.exec_log();
  std::vector<long> written(eng.num_nodes(), -1);  // log index of each node's batch
  std::size_t b = 0;
  for (const std::size_t end : ends) {
    std::vector<long> launch(f.reg.num_kernels(), -1);  // kernel → its last launch
    for (; b < end; ++b) {
      const Engine::ExecBatch& eb = log[b];
      const auto kid = static_cast<std::size_t>(eb.kernel_id);
      if (!eb.merged) {
        launch[kid] = static_cast<long>(b);
      } else {
        CHECK(launch[kid] >= 0 && elementwise(f.reg.kernel(eb.kernel_id).op));
        for (const std::uint32_t id : eb.nodes) {
          const TRef r{id, 0};
          for (const TRef in : eng.inputs_of(r)) {
            CHECK(eng.shape(in) == eng.shape(r));
            CHECK(written[in.id] < launch[kid] || eng.kernel_of(in) == eb.kernel_id);
          }
        }
      }
      for (const std::uint32_t id : eb.nodes) written[id] = static_cast<long>(b);
    }
  }
}

// Replays the trace `passes` times into one engine and returns each pass's
// flattened values; `launches` receives each pass's kernel launches.
// Concrete tensors are wrapped once (pass 0) and reused, like weights in a
// server.
std::vector<std::vector<float>> apply(const Fixture& f, const Trace& t, EngineConfig cfg,
                                      int passes, std::vector<long long>& launches) {
  Engine eng(f.reg, cfg);
  std::vector<std::vector<float>> out;
  std::vector<TRef> cvals;
  std::vector<std::size_t> trigger_ends;
  const auto trigger = [&] {
    eng.trigger_execution();
    trigger_ends.push_back(eng.exec_log().size());
  };
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
          trigger();
          break;
      }
    }
    trigger();
    std::vector<float> flat;
    for (const TRef v : vals) {
      const Tensor tt = eng.force(v);
      flat.insert(flat.end(), tt.data, tt.data + tt.numel());
    }
    out.push_back(std::move(flat));
    launches.push_back(eng.stats().kernel_launches - prev);
    prev = eng.stats().kernel_launches;
  }
  if (cfg.lazy && !cfg.fuse_waves) check_chain_log(f, eng, trigger_ends);
  return out;
}

// ------------------------------------------------------ differential sweep

constexpr int kPasses = 2;
long long g_chain_saved = 0;  // launches chain fusion saved over the sweep

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
    batched.fuse_chains = ((seed >> 5) & 1) != 0;
    std::vector<long long> launches;
    const auto out = apply(f, t, batched, kPasses, launches);
    for (int p = 0; p < kPasses; ++p) {
      CHECK_EQ(out[p].size(), ref[p].size());
      CHECK(out[p].size() == ref[p].size() &&
            std::memcmp(out[p].data(), ref[p].data(), out[p].size() * sizeof(float)) == 0);
      CHECK(launches[p] <= eager_launches[p]);
    }
    if (!batched.fuse_chains) continue;
    // Chains only ever take launches away, and the agenda scheduler
    // ignores them.
    EngineConfig plain = batched;
    plain.fuse_chains = false;
    std::vector<long long> plain_launches;
    apply(f, t, plain, kPasses, plain_launches);
    for (int p = 0; p < kPasses; ++p) {
      CHECK(si == 2 ? launches[p] == plain_launches[p] : launches[p] <= plain_launches[p]);
      g_chain_saved += plain_launches[p] - launches[p];
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
  std::printf("differential sweep: %d seeds x 3 schedulers x %d passes vs eager; "
              "chains saved %lld launches\n",
              n_seeds, kPasses, g_chain_saved);
}

}  // namespace

int main() {
  test_differential_sweep();
  return acrobat::test::finish("test_sched_diff");
}
