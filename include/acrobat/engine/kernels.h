// The kernel registry: the compiled module's table of primitive kernels.
//
// Model builders register kernels by name (deduplicated); the engine batches
// ops by kernel id; the auto-scheduler mutates each kernel's `variant` in
// place (autosched/tuner.h). A kernel remembers representative input shapes
// from registration so the tuner can measure variants offline.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include "tensor/ops.h"

namespace acrobat {

struct Kernel {
  // The widest declared arity: the summed kLinear's x, h1, h2, W, b.
  static constexpr int kMaxArity = 5;
  std::string name;
  OpKind op = OpKind::kAdd;
  std::int64_t attr = 0;
  int arity = 0;
  int variant = 0;  // chosen schedule; mutated by the tuner
  int num_variants = 1;
  Shape rep[kMaxArity];  // representative input shapes for offline measurement
};

class KernelRegistry {
 public:
  // Registers (or finds) a kernel. `rep_shapes` may be null when arity == 0.
  int add(const std::string& name, OpKind op, std::int64_t attr, int arity,
          const Shape* rep_shapes) {
    auto it = by_name_.find(name);
    if (it != by_name_.end()) return it->second;
    if (arity > Kernel::kMaxArity) {
      std::fprintf(stderr, "acrobat: kernel %s registered with arity %d, more than %d\n",
                   name.c_str(), arity, Kernel::kMaxArity);
      std::abort();
    }
    std::string skey;
    if (structural_dedupe_) {
      skey = structural_key(op, attr, arity, rep_shapes);
      auto sit = by_struct_.find(skey);
      if (sit != by_struct_.end()) {
        // Structurally identical to an existing kernel: alias this name to
        // it so the models' ops share batches (and launches) at runtime.
        by_name_.emplace(name, sit->second);
        ++structural_dupes_;
        return sit->second;
      }
    }
    Kernel k;
    k.name = name;
    k.op = op;
    k.attr = attr;
    k.arity = arity;
    k.num_variants = op_num_variants(op);
    for (int i = 0; i < arity && rep_shapes; ++i) k.rep[i] = rep_shapes[i];
    const int id = static_cast<int>(kernels_.size());
    kernels_.push_back(std::move(k));
    by_name_.emplace(name, id);
    if (structural_dedupe_) by_struct_.emplace(std::move(skey), id);
    return id;
  }

  // Shape-keyed kernel dedupe (ROADMAP / DESIGN.md §8): `run_op` is a pure
  // function of (op, variant, attr, input shapes), so two kernels agreeing
  // on (op, attr, arity, representative shapes) compute the same function
  // regardless of the model-prefixed names they were registered under. With
  // dedupe enabled (fleet ModelRegistry merges), such kernels collapse into
  // ONE entry, and cross-model ops batch into shared launches. Off by
  // default so solo modules keep their historical per-name identity. Must
  // be enabled before the first add.
  void enable_structural_dedupe() {
    assert(kernels_.empty() && "enable dedupe before registering kernels");
    structural_dedupe_ = true;
  }
  long long structural_dupes() const { return structural_dupes_; }

  std::size_t num_kernels() const { return kernels_.size(); }
  Kernel& kernel(int id) { return kernels_[static_cast<std::size_t>(id)]; }
  const Kernel& kernel(int id) const { return kernels_[static_cast<std::size_t>(id)]; }

 private:
  static std::string structural_key(OpKind op, std::int64_t attr, int arity,
                                    const Shape* rep_shapes) {
    std::string key;
    key.reserve(48);
    key += std::to_string(static_cast<int>(op));
    key += '|';
    key += std::to_string(attr);
    key += '|';
    key += std::to_string(arity);
    for (int i = 0; i < arity && rep_shapes; ++i) {
      key += '|';
      for (int d = 0; d < rep_shapes[i].ndim; ++d) {
        key += std::to_string(rep_shapes[i].dim[d]);
        key += 'x';
      }
    }
    return key;
  }

  std::vector<Kernel> kernels_;
  std::unordered_map<std::string, int> by_name_;
  std::unordered_map<std::string, int> by_struct_;  // structural_key → id
  bool structural_dedupe_ = false;
  long long structural_dupes_ = 0;
};

}  // namespace acrobat
