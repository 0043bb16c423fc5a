// Figure 6: benefit of each ACROBAT optimization — cumulative latencies at
// batch size 64 for every model, small and large:
//   L0 no kernel fusion            L3 +inline depth computation
//   L1 +standard kernel fusion     L4 +program phases / ghost ops
//   L2 +grain-size coarsening      L5 +gather operator fusion
//
// Paper result: fusion always helps; coarsening + inline depth matter most
// for control-flow-heavy models (TreeLSTM, MV-RNN); inline depth also
// unlocks DRNN's instance parallelism; phases help BiRNN (and TreeLSTM's
// root classifiers); ghost ops help StackRNN; gather fusion helps the
// recursive models and can slightly hurt iterative ones whose inputs are
// usually already contiguous. Here coarsening also cuts launches below L1:
// a coarse cell is one kLinear (matmul + bias + activation over [x;h])
// plus the GRU/LSTM pointwise op. Each cell prints its kernel launches
// beside its ms: the launches are deterministic, the ms a min-of-3 that
// moves between runs.
#include "bench_util.h"

using namespace acrobat;
using namespace acrobat::bench;

int main() {
  header("Figure 6: optimization ablation, batch 64 (latency ms, kernel launches)",
         "paper Fig. 6");
  for (const bool large : {false, true}) {
    std::printf("\n%s model size\n%-10s", size_name(large), "model");
    for (int level = 0; level < 6; ++level) std::printf(" %15s", [&] {
      static char buf[16];
      std::snprintf(buf, sizeof buf, "L%d ms  launch", level);
      return buf;
    }());
    std::printf("\n");
    for (const auto& spec : models::all_models()) {
      const models::Dataset ds = dataset_for(spec, large, 64);
      std::printf("%-10s", spec.name.c_str());
      for (int level = 0; level < 6; ++level) {
        harness::Prepared p = harness::prepare(
            spec, large, passes::PipelineConfig::ablation_level(level));
        long long launches = 0;
        const double ms = time_min_ms([&] {
          harness::RunResult r = harness::run_acrobat(p, ds, default_opts());
          launches = r.stats.kernel_launches;
          return r;
        });
        std::printf(" %8.2f %6lld", ms, launches);
      }
      std::printf("\n");
    }
  }
  std::printf("\nlevels: ");
  for (int level = 0; level < 6; ++level)
    std::printf("L%d=%s%s", level, passes::PipelineConfig::ablation_name(level),
                level == 5 ? "\n" : ", ");
  return 0;
}
