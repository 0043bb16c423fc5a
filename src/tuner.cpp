#include "autosched/tuner.h"

#include <algorithm>
#include <numeric>

#include "support/rng.h"
#include "support/timer.h"
#include "tensor/tensor.h"

namespace acrobat::autosched {
namespace {

// Measures one variant on the kernel's representative shapes: min wall time
// over a few repetitions of run_op on synthetic data.
std::int64_t measure_variant(const Kernel& k, int variant) {
  TensorPool pool;
  Rng rng(0x5eedu + static_cast<unsigned>(variant));
  const float* ins[Kernel::kMaxArity] = {};
  Shape shapes[Kernel::kMaxArity];
  for (int i = 0; i < k.arity; ++i) {
    shapes[i] = k.rep[i];
    ins[i] = pool.alloc_random(k.rep[i], rng, 0.5f).data;
  }
  const Shape out_shape = infer_shape(k.op, k.attr, shapes, k.arity);
  Tensor out = pool.alloc(out_shape);

  std::int64_t best = INT64_MAX;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = now_ns();
    for (int it = 0; it < 8; ++it)
      run_op(k.op, variant, ins, shapes, out.data, out_shape, k.attr);
    best = std::min(best, now_ns() - t0);
  }
  return best;
}

}  // namespace

void reset_schedules(KernelRegistry& registry, int variant) {
  for (std::size_t i = 0; i < registry.num_kernels(); ++i) {
    Kernel& k = registry.kernel(static_cast<int>(i));
    k.variant = std::min(variant, k.num_variants - 1);
  }
}

void tune(KernelRegistry& registry, const std::vector<double>& freq, int budget) {
  std::vector<int> order(registry.num_kernels());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    const double fa = static_cast<std::size_t>(a) < freq.size() ? freq[a] : 0.0;
    const double fb = static_cast<std::size_t>(b) < freq.size() ? freq[b] : 0.0;
    return fa > fb;  // stable: ties stay in registration order
  });

  int spent = 0;
  for (const int id : order) {
    Kernel& k = registry.kernel(id);
    if (k.num_variants <= 1) continue;
    if (spent >= budget) break;
    int best_variant = k.variant;
    std::int64_t best_ns = INT64_MAX;
    for (int v = 0; v < k.num_variants && spent < budget; ++v, ++spent) {
      const std::int64_t ns = measure_variant(k, v);
      if (ns < best_ns) {
        best_ns = ns;
        best_variant = v;
      }
    }
    k.variant = best_variant;
  }
}

}  // namespace acrobat::autosched
