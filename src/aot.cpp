#include "exec/aot.h"

#include <cassert>
#include <cstdint>
#include <cstring>

namespace acrobat::aot {
namespace detail {

// A register: a tensor ref, an int, a tuple or ADT the program built (the
// index of its header in the run's cell array), or a tuple or ADT node of
// the caller's input tree. A cell is a header register followed by its
// fields. Trivially copyable; nothing is refcounted.
struct Reg {
  enum Kind : std::uint32_t { kNone, kTensor, kInt, kCell, kInput };
  Kind kind;
  union {
    struct {
      std::uint32_t id, gen;
    } t;
    std::int64_t i;
    std::size_t cell;
    const Value* in;  // a kAdt or kTuple node
    struct {
      std::int32_t tag;  // -1 for a tuple
      std::uint32_t n;   // fields
    } hdr;               // a cell's header
  };

  static Reg tensor(TRef r) {
    Reg v{};
    v.kind = kTensor;
    v.t = {r.id, r.gen};
    return v;
  }
  static Reg integer(std::int64_t x) {
    Reg v{};
    v.kind = kInt;
    v.i = x;
    return v;
  }
  static Reg of_cell(std::size_t at) {
    Reg v{};
    v.kind = kCell;
    v.cell = at;
    return v;
  }
  TRef tref() const { return TRef{t.id, t.gen}; }
};
static_assert(sizeof(Reg) * AotExecutor::kFirstStackRegs == block_cache::kMinClassBytes);

// Registers in one block-cache block. The array grows by moving to a larger
// block, so its users hold indices and re-derive pointers after anything
// that can grow it.
struct RegArray {
  Reg* data = nullptr;
  std::size_t cap = 0;

  RegArray() = default;
  RegArray(const RegArray&) = delete;
  RegArray& operator=(const RegArray&) = delete;
  ~RegArray() { block_cache::give(data, cap * sizeof(Reg)); }

  // Makes [0, need) addressable, keeping the first `keep` registers.
  void fit(std::size_t need, std::size_t keep) {
    if (need <= cap) return;
    const std::size_t bytes = block_cache::pow2_class(need * sizeof(Reg));
    Reg* const bigger = static_cast<Reg*>(block_cache::take(bytes));
    if (keep > 0) std::memcpy(bigger, data, keep * sizeof(Reg));
    block_cache::give(data, cap * sizeof(Reg));
    data = bigger;
    cap = bytes / sizeof(Reg);
  }
};

// One run's storage, pooled by the executor across runs: the register stack,
// with frames at increasing indices, and the cells the run built,
// bump-allocated and all dropped when the run ends.
struct RunStore {
  RegArray stack;
  RegArray cells;
  std::size_t cells_used = 0;

  // The n-register frame at `base`. Growing moves the live frames below it.
  Reg* frame(std::size_t base, std::size_t n) {
    stack.fit(base + n, base);
#ifndef NDEBUG
    for (std::size_t i = 0; i < n; ++i) stack.data[base + i] = Reg{};  // kNone for the kind asserts
#endif
    return stack.data + base;
  }

  // Appends a cell of n fields and returns its index. The caller fills the
  // fields before anything else appends.
  std::size_t cell(std::int32_t tag, std::size_t n) {
    const std::size_t at = cells_used;
    cells.fit(at + 1 + n, at);
    cells.data[at].hdr = {tag, static_cast<std::uint32_t>(n)};
    cells_used = at + 1 + n;
    return at;
  }
};

struct RunState {
  InstCtx ctx;
  int phase = 0;  // shared down the call chain of one run
  std::span<const TRef> input_refs;
  RunStore* store = nullptr;
};

namespace {

// A node of the caller's input tree as a register: tensor leaves map
// through the dataset refs, aggregates are pointed at in place.
Reg input_reg(const Value& v, std::span<const TRef> refs) {
  Reg r{};
  switch (v.kind) {
    case Value::kTensor:
      return Reg::tensor(refs[v.tref.id]);
    case Value::kInt:
      return Reg::integer(v.i);
    case Value::kAdt:
    case Value::kTuple:
      r.kind = Reg::kInput;
      r.in = &v;
      return r;
    default:
      return r;
  }
}

// The i-th field of a tuple (`tuple`) or ADT register.
Reg child(const RunState& st, const Reg& agg, std::size_t i, bool tuple) {
  if (agg.kind == Reg::kCell) {
    const Reg* const c = st.store->cells.data + agg.cell;
    assert((c->hdr.tag < 0) == tuple && i < c->hdr.n);
    return c[1 + i];
  }
  assert(agg.kind == Reg::kInput && (agg.in->kind == Value::kTuple) == tuple);
  return input_reg(tuple ? agg.in->tuple->elems[i] : agg.in->adt->fields[i], st.input_refs);
}

// harness::collect_output_trefs over the result, in the same depth-first
// order, mapping input leaves as they are read.
void collect(const Value& v, std::span<const TRef> refs, std::vector<TRef>& outs) {
  switch (v.kind) {
    case Value::kTensor:
      outs.push_back(refs[v.tref.id]);
      return;
    case Value::kAdt:
      for (const Value& f : v.adt->fields) collect(f, refs, outs);
      return;
    case Value::kTuple:
      for (const Value& e : v.tuple->elems) collect(e, refs, outs);
      return;
    default:
      return;
  }
}

void collect(const RunState& st, const Reg& v, std::vector<TRef>& outs) {
  switch (v.kind) {
    case Reg::kTensor:
      outs.push_back(v.tref());
      return;
    case Reg::kCell: {
      const Reg* const c = st.store->cells.data + v.cell;
      for (std::uint32_t i = 0; i < c->hdr.n; ++i) collect(st, c[1 + i], outs);
      return;
    }
    case Reg::kInput:
      collect(*v.in, st.input_refs, outs);
      return;
    default:
      return;
  }
}

}  // namespace
}  // namespace detail

using detail::Reg;
using detail::RunState;
using detail::RunStore;

AotExecutor::AotExecutor(const ir::Program& program, Engine& engine, std::vector<TRef> weights)
    : prog_(program), engine_(engine), weights_(std::move(weights)) {}

AotExecutor::~AotExecutor() = default;

RunStore* AotExecutor::acquire() {
  if (idle_.empty()) {
    stores_.push_back(std::make_unique<RunStore>());
    return stores_.back().get();
  }
  RunStore* const s = idle_.back();
  idle_.pop_back();
  return s;
}

void AotExecutor::release(RunStore* s) {
  s->cells_used = 0;
  idle_.push_back(s);
}

std::size_t AotExecutor::run(const Value& input, std::span<const TRef> input_refs, InstCtx ctx,
                             std::vector<TRef>& outs) {
  return run_entry(*prog_.main, input, input_refs, ctx, outs);
}

std::size_t AotExecutor::run_entry(const ir::Func& entry, const Value& input,
                                   std::span<const TRef> input_refs, InstCtx ctx,
                                   std::vector<TRef>& outs) {
  assert(entry.num_args == 1);
  RunState st;
  st.ctx = ctx;
  st.input_refs = input_refs;
  st.store = acquire();
  // The store goes back to the pool however the run ends (OomError too).
  struct Release {
    AotExecutor* ex;
    RunStore* s;
    ~Release() { ex->release(s); }
  } const guard{this, st.store};
  st.store->frame(0, static_cast<std::size_t>(entry.num_regs))[0] =
      detail::input_reg(input, input_refs);
  const Reg out = exec(entry, 0, st);
  const std::size_t first = outs.size();
  detail::collect(st, out, outs);  // before the release drops the cells
  return outs.size() - first;
}

Reg AotExecutor::exec(const ir::Func& f, std::size_t base, RunState& st) {
  RunStore& rs = *st.store;
  // Re-derived after every call: a callee may move the stack.
  Reg* r = rs.stack.data + base;
  const auto make_cell = [&](const ir::Instr& ins, std::int32_t tag) {
    const std::size_t at = rs.cell(tag, ins.srcs.size());
    Reg* const fields = rs.cells.data + at + 1;
    for (std::size_t i = 0; i < ins.srcs.size(); ++i) fields[i] = r[ins.srcs[i]];
    return Reg::of_cell(at);
  };

  std::size_t pc = 0;
  while (pc < f.code.size()) {
    const ir::Instr& ins = f.code[pc];
    switch (ins.op) {
      case ir::Op::kLoadInput:
        // Arguments occupy registers [0, num_args). The VM reads the call's
        // original arguments instead; the two agree unless a program
        // assigns to an argument register, which no model does.
        r[ins.dst] = r[ins.attr];
        break;
      case ir::Op::kLoadWeight:
        r[ins.dst] = Reg::tensor(weights_[static_cast<std::size_t>(ins.attr)]);
        break;
      case ir::Op::kKernel: {
        TRef srcs[8];
        const int n = static_cast<int>(ins.srcs.size());
        assert(n <= 8);
        for (int i = 0; i < n; ++i) {
          const Reg& v = r[ins.srcs[i]];
          assert(v.kind == Reg::kTensor);
          srcs[i] = v.tref();
        }
        r[ins.dst] =
            Reg::tensor(engine_.add_op(static_cast<int>(ins.attr), srcs, n, st.ctx, st.phase));
        break;
      }
      case ir::Op::kTupleMake:
        r[ins.dst] = make_cell(ins, -1);
        break;
      case ir::Op::kTupleGet:
        r[ins.dst] = detail::child(st, r[ins.srcs[0]], static_cast<std::size_t>(ins.attr), true);
        break;
      case ir::Op::kTupleLen: {
        const Reg& t = r[ins.srcs[0]];
        assert(t.kind == Reg::kCell || (t.kind == Reg::kInput && t.in->kind == Value::kTuple));
        r[ins.dst] = Reg::integer(t.kind == Reg::kCell
                                      ? static_cast<std::int64_t>(rs.cells.data[t.cell].hdr.n)
                                      : static_cast<std::int64_t>(t.in->tuple->elems.size()));
        break;
      }
      case ir::Op::kTupleGetDyn:
        r[ins.dst] =
            detail::child(st, r[ins.srcs[0]], static_cast<std::size_t>(r[ins.srcs[1]].i), true);
        break;
      case ir::Op::kAdtMake:
        r[ins.dst] = make_cell(ins, static_cast<std::int32_t>(ins.attr));
        break;
      case ir::Op::kAdtTag: {
        const Reg& a = r[ins.srcs[0]];
        assert(a.kind == Reg::kCell || (a.kind == Reg::kInput && a.in->kind == Value::kAdt));
        r[ins.dst] =
            Reg::integer(a.kind == Reg::kCell ? rs.cells.data[a.cell].hdr.tag : a.in->adt->tag);
        break;
      }
      case ir::Op::kAdtField:
        r[ins.dst] = detail::child(st, r[ins.srcs[0]], static_cast<std::size_t>(ins.attr), false);
        break;
      case ir::Op::kConstInt:
        r[ins.dst] = Reg::integer(ins.attr);
        break;
      case ir::Op::kAddInt:
        r[ins.dst] = Reg::integer(r[ins.srcs[0]].i +
                                  (ins.srcs.size() > 1 ? r[ins.srcs[1]].i : ins.attr));
        break;
      case ir::Op::kLtInt:
        r[ins.dst] = Reg::integer(r[ins.srcs[0]].i < r[ins.srcs[1]].i ? 1 : 0);
        break;
      case ir::Op::kMove:
        r[ins.dst] = r[ins.srcs[0]];
        break;
      case ir::Op::kJmp:
        pc = static_cast<std::size_t>(ins.target);
        continue;
      case ir::Op::kBrIf:
        if (r[ins.srcs[0]].i != 0) {
          pc = static_cast<std::size_t>(ins.target);
          continue;
        }
        break;
      case ir::Op::kCall: {
        // Arguments go straight into the callee's frame, just above ours.
        const ir::Func& callee = *prog_.funcs[static_cast<std::size_t>(ins.attr)];
        const std::size_t cbase = base + static_cast<std::size_t>(f.num_regs);
        Reg* const args = rs.frame(cbase, static_cast<std::size_t>(callee.num_regs));
        r = rs.stack.data + base;
        for (std::size_t i = 0; i < ins.srcs.size(); ++i) args[i] = r[ins.srcs[i]];
        const Reg ret = exec(callee, cbase, st);
        r = rs.stack.data + base;
        r[ins.dst] = ret;
        break;
      }
      case ir::Op::kRet:
        return r[ins.srcs[0]];
      case ir::Op::kPhase:
        st.phase = static_cast<int>(ins.attr);
        break;
      case ir::Op::kSyncSign: {
        // Inline depth computation means nothing else needs recovering at
        // this point: force just this scalar (suspending the fiber if the
        // runtime is in TDCF mode) and branch on it natively.
        assert(r[ins.srcs[0]].kind == Reg::kTensor);
        const float v = engine_.scalar(r[ins.srcs[0]].tref());
        r[ins.dst] = Reg::integer(v > static_cast<double>(ins.attr) * 1e-6 ? 1 : 0);
        break;
      }
      case ir::Op::kStepKeep: {
        // Token boundary: checkpoint the carried state into the session's
        // persistent buffer and let the serve loop's step hook park this
        // fiber until the session is re-admitted (engine/engine.h).
        assert(r[ins.srcs[0]].kind == Reg::kTensor);
        const Engine::StepResult res = engine_.session_step(r[ins.srcs[0]].tref(), st.ctx);
        const std::size_t at = rs.cell(-1, 2);
        rs.cells.data[at + 1] = Reg::tensor(res.state);
        rs.cells.data[at + 2] = Reg::integer(res.cont);
        r[ins.dst] = Reg::of_cell(at);
        break;
      }
    }
    ++pc;
  }
  return Reg{};
}

}  // namespace acrobat::aot
