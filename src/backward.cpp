#include "grad/backward.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <span>

namespace acrobat::grad {
namespace {

struct Ctx {
  Engine& eng;
  std::unordered_map<std::uint32_t, std::vector<float>>& grads;

  std::vector<float>* find(TRef r) {
    auto it = grads.find(r.id);
    return it == grads.end() ? nullptr : &it->second;
  }
  std::vector<float>& acc(TRef r) {
    std::vector<float>& v = grads[r.id];
    if (v.empty()) v.assign(static_cast<std::size_t>(eng.shape(r).numel()), 0.0f);
    return v;
  }
};

// Accumulates `g` (shaped like `out_shape`) into the gradient of input `in`,
// handling the row-broadcast case (bias adds) by summing over rows.
void acc_maybe_broadcast(Ctx& c, TRef in, const float* g, const Shape& out_shape, float sign) {
  std::vector<float>& dst = c.acc(in);
  const std::int64_t n_in = c.eng.shape(in).numel();
  const std::int64_t n_out = out_shape.numel();
  if (n_in == n_out) {
    for (std::int64_t i = 0; i < n_out; ++i) dst[static_cast<std::size_t>(i)] += sign * g[i];
    return;
  }
  const int cols = out_shape.cols();
  const int rows = static_cast<int>(n_out / cols);
  for (int r = 0; r < rows; ++r)
    for (int j = 0; j < cols; ++j)
      dst[static_cast<std::size_t>(j)] += sign * g[static_cast<std::int64_t>(r) * cols + j];
}

}  // namespace

BackwardResult backward(Engine& engine, const KernelRegistry& registry,
                        const std::vector<Seed>& seeds, const BackwardOptions& opts) {
  if (engine.recycling()) {
    // Recycling drops the exec log (retired node ids would dangle), so a
    // replay here would silently return zero gradients — refuse instead.
    std::fprintf(stderr,
                 "acrobat: backward() on a recycling engine — the exec log is not "
                 "kept under EngineConfig::recycle; train with recycling off\n");
    std::abort();
  }
  BackwardResult res;
  Ctx ctx{engine, res.grads};
  for (const Seed& s : seeds) {
    std::vector<float>& g = ctx.acc(s.ref);
    for (std::size_t i = 0; i < g.size() && i < s.grad.size(); ++i) g[i] += s.grad[i];
  }

  const auto& log = engine.exec_log();
  for (auto batch = log.rbegin(); batch != log.rend(); ++batch) {
    const Kernel& k = registry.kernel(batch->kernel_id);
    int slots_used = 0;
    bool any = false;
    for (const std::uint32_t id : engine.exec_nodes(*batch)) {
      const TRef out{id};
      const std::vector<float>* gv = ctx.find(out);
      if (gv == nullptr || gv->empty()) continue;
      any = true;
      const float* g = gv->data();
      const Shape& os = engine.shape(out);
      const std::span<const TRef> ins = engine.inputs_of(out);
      const float* y = engine.data(out);

      switch (k.op) {
        case OpKind::kDense: {
          // out = x·Wᵀ → dx = g·W, dW += gᵀ·x
          const TRef x = ins[0], w = ins[1];
          const Shape& xs = engine.shape(x);
          const Shape& wsh = engine.shape(w);
          const int m = xs.rows(), kk = xs.cols(), n = wsh.dim[0];
          const float* xd = engine.data(x);
          const float* wd = engine.data(w);
          std::vector<float>& dx = ctx.acc(x);
          std::vector<float>& dw = ctx.acc(w);
          for (int r = 0; r < m; ++r)
            for (int j = 0; j < n; ++j) {
              const float gj = g[static_cast<std::int64_t>(r) * n + j];
              if (gj == 0.0f) continue;
              for (int i = 0; i < kk; ++i) {
                dx[static_cast<std::size_t>(r) * kk + i] +=
                    gj * wd[static_cast<std::int64_t>(j) * kk + i];
                dw[static_cast<std::size_t>(j) * kk + i] +=
                    gj * xd[static_cast<std::int64_t>(r) * kk + i];
              }
            }
          slots_used = 2;
          break;
        }
        case OpKind::kMatMul: {
          // out = a·b → da = g·bᵀ, db = aᵀ·g
          const TRef a = ins[0], b = ins[1];
          const Shape& as = engine.shape(a);
          const Shape& bs = engine.shape(b);
          const int m = as.rows(), kk = as.cols(), n = bs.dim[1];
          const float* ad = engine.data(a);
          const float* bd = engine.data(b);
          std::vector<float>& da = ctx.acc(a);
          std::vector<float>& db = ctx.acc(b);
          for (int r = 0; r < m; ++r)
            for (int j = 0; j < n; ++j) {
              const float gj = g[static_cast<std::int64_t>(r) * n + j];
              if (gj == 0.0f) continue;
              for (int l = 0; l < kk; ++l) {
                da[static_cast<std::size_t>(r) * kk + l] +=
                    gj * bd[static_cast<std::int64_t>(l) * n + j];
                db[static_cast<std::size_t>(l) * n + j] +=
                    gj * ad[static_cast<std::int64_t>(r) * kk + l];
              }
            }
          slots_used = 2;
          break;
        }
        case OpKind::kAdd:
          acc_maybe_broadcast(ctx, ins[0], g, os, 1.0f);
          acc_maybe_broadcast(ctx, ins[1], g, os, 1.0f);
          slots_used = 2;
          break;
        case OpKind::kSub:
          acc_maybe_broadcast(ctx, ins[0], g, os, 1.0f);
          acc_maybe_broadcast(ctx, ins[1], g, os, -1.0f);
          slots_used = 2;
          break;
        case OpKind::kMul: {
          const float* a = engine.data(ins[0]);
          const float* b = engine.data(ins[1]);
          const std::int64_t n = os.numel();
          const bool bcast = engine.shape(ins[1]).numel() != n;
          std::vector<float>& da = ctx.acc(ins[0]);
          std::vector<float>& db = ctx.acc(ins[1]);
          const int cols = os.cols();
          for (std::int64_t i = 0; i < n; ++i) {
            const std::int64_t bi = bcast ? i % cols : i;
            da[static_cast<std::size_t>(i)] += g[i] * b[bi];
            db[static_cast<std::size_t>(bi)] += g[i] * a[i];
          }
          slots_used = 2;
          break;
        }
        case OpKind::kTanh: {
          std::vector<float>& da = ctx.acc(ins[0]);
          const std::int64_t n = os.numel();
          for (std::int64_t i = 0; i < n; ++i)
            da[static_cast<std::size_t>(i)] += g[i] * (1.0f - y[i] * y[i]);
          slots_used = 1;
          break;
        }
        case OpKind::kSigmoid: {
          std::vector<float>& da = ctx.acc(ins[0]);
          const std::int64_t n = os.numel();
          for (std::int64_t i = 0; i < n; ++i)
            da[static_cast<std::size_t>(i)] += g[i] * y[i] * (1.0f - y[i]);
          slots_used = 1;
          break;
        }
        case OpKind::kScale: {
          const float c = static_cast<float>(static_cast<double>(k.attr) * 1e-6);
          std::vector<float>& da = ctx.acc(ins[0]);
          const std::int64_t n = os.numel();
          for (std::int64_t i = 0; i < n; ++i) da[static_cast<std::size_t>(i)] += g[i] * c;
          slots_used = 1;
          break;
        }
        case OpKind::kConcat: {
          std::int64_t off = 0;
          for (const TRef in : ins) {
            std::vector<float>& da = ctx.acc(in);
            const std::int64_t n = engine.shape(in).numel();
            for (std::int64_t i = 0; i < n; ++i) da[static_cast<std::size_t>(i)] += g[off + i];
            off += n;
          }
          slots_used = 1;
          break;
        }
        case OpKind::kSoftmax: {
          // da_j = y_j (g_j − Σ_k g_k y_k), row-wise.
          std::vector<float>& da = ctx.acc(ins[0]);
          const int cols = os.cols();
          const int rows = static_cast<int>(os.numel() / cols);
          for (int r = 0; r < rows; ++r) {
            const std::int64_t off = static_cast<std::int64_t>(r) * cols;
            float dot = 0.0f;
            for (int j = 0; j < cols; ++j) dot += g[off + j] * y[off + j];
            for (int j = 0; j < cols; ++j)
              da[static_cast<std::size_t>(off) + j] += y[off + j] * (g[off + j] - dot);
          }
          slots_used = 1;
          break;
        }
        case OpKind::kSumAll: {
          std::vector<float>& da = ctx.acc(ins[0]);
          const std::int64_t n = engine.shape(ins[0]).numel();
          for (std::int64_t i = 0; i < n; ++i) da[static_cast<std::size_t>(i)] += g[0];
          slots_used = 1;
          break;
        }
        case OpKind::kZeros:
        default:
          // Constants have no inputs; fused/coarse cell kernels are
          // inference-only (training_pipeline_config keeps them out).
          break;
      }
    }
    if (any && slots_used > 0) {
      // One backward launch per input slot of the batch, mirroring the
      // forward batching: a whole forward batch costs the same fixed number
      // of backward launches regardless of how many ops it held.
      res.backward_launches += slots_used;
      for (int s = 0; s < slots_used; ++s) spin_ns(opts.launch_overhead_ns);
    }
  }
  return res;
}

}  // namespace acrobat::grad
