// The kernel registry: the compiled module's table of primitive kernels.
//
// A kernel is its structure: (op, attr, arity, representative input
// shapes). `run_op` is a pure function of that tuple plus the schedule
// variant, so call sites that agree on it get one kernel id, whatever they
// are named (DESIGN.md §8 "One kernel identity rule"), and the engine
// batches their ops together. The auto-scheduler mutates each kernel's
// `variant` in place (autosched/tuner.h); the representative shapes let it
// measure variants offline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "tensor/ops.h"

namespace acrobat {

struct Kernel {
  // The widest declared arity: the summed kLinear's x, h1, h2, W, b.
  static constexpr int kMaxArity = 5;
  std::string name;  // the label of the first call site that registered it
  OpKind op = OpKind::kAdd;
  std::int64_t attr = 0;
  int arity = 0;
  int variant = 0;  // chosen schedule; mutated by the tuner
  int num_variants = 1;
  Shape rep[kMaxArity];  // representative input shapes for offline measurement
};

class KernelRegistry {
 public:
  // Returns the kernel with this structure, registering it under `name` if
  // there is none yet. `rep_shapes` may be null when arity == 0.
  int add(const std::string& name, OpKind op, std::int64_t attr, int arity,
          const Shape* rep_shapes) {
    if (arity > Kernel::kMaxArity) {
      std::fprintf(stderr, "acrobat: kernel %s registered with arity %d, more than %d\n",
                   name.c_str(), arity, Kernel::kMaxArity);
      std::abort();
    }
    Kernel k;
    k.op = op;
    k.attr = attr;
    k.arity = arity;
    for (int i = 0; i < arity && rep_shapes; ++i) k.rep[i] = rep_shapes[i];
    // A module holds a few dozen kernels, so a scan of the table is the
    // lookup.
    for (std::size_t id = 0; id < kernels_.size(); ++id) {
      const Kernel& e = kernels_[id];
      if (e.op == op && e.attr == attr && e.arity == arity &&
          std::equal(e.rep, e.rep + arity, k.rep))
        return static_cast<int>(id);
    }
    k.name = name;
    k.num_variants = op_num_variants(op);
    kernels_.push_back(std::move(k));
    return static_cast<int>(kernels_.size()) - 1;
  }

  std::size_t num_kernels() const { return kernels_.size(); }
  Kernel& kernel(int id) { return kernels_[static_cast<std::size_t>(id)]; }
  const Kernel& kernel(int id) const { return kernels_[static_cast<std::size_t>(id)]; }

 private:
  std::vector<Kernel> kernels_;
};

}  // namespace acrobat
