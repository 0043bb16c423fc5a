// The static optimization pipeline configuration (paper §5, Fig. 6).
//
// Each flag gates one compile-time transformation; the cumulative ablation
// levels reproduce Fig. 6's L0..L5. Flags act in two places: model builders
// choose kernel granularity (kernel_fusion, coarsen), and the engine/harness
// choose runtime behavior (kernel_fusion → chain fusion, inline_depth →
// fibers + static depth buckets, phases, gather_fusion, lazy).
#pragma once

namespace acrobat::passes {

struct PipelineConfig {
  // L1: fuse elementwise chains into one kernel. The builders fuse the
  // chains they see (per-gate add+bias+activation kernels); the engine runs
  // a same-kernel chain found at run time, such as BiRNN's per-token
  // accumulation, in one launch (EngineConfig::fuse_chains).
  bool kernel_fusion = true;
  bool coarsen = true;        // L2: grain-size coarsening (whole-cell kernels)
  bool inline_depth = true;   // L3: compiled-in depth counters + fiber TDCF
  bool phases = true;         // L4: program phases / ghost ops
  bool gather_fusion = true;  // L5: gather-operator fusion (no staging copies)
  bool lazy = true;           // false: eager per-op execution (baseline only)

  static PipelineConfig ablation_level(int level) {
    PipelineConfig c;
    c.kernel_fusion = level >= 1;
    c.coarsen = level >= 2;
    c.inline_depth = level >= 3;
    c.phases = level >= 4;
    c.gather_fusion = level >= 5;
    return c;
  }

  static const char* ablation_name(int level) {
    switch (level) {
      case 0: return "no fusion";
      case 1: return "+kernel fusion";
      case 2: return "+coarsening";
      case 3: return "+inline depth";
      case 4: return "+phases/ghost ops";
      case 5: return "+gather fusion";
      default: return "?";
    }
  }
};

}  // namespace acrobat::passes
