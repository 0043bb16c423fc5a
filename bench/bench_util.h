// Shared benchmark harness utilities.
//
// All table/figure benches use the same measurement discipline: a fixed
// simulated kernel-launch overhead (DESIGN.md substitution for GPU launch
// latency), one warmup run, and the minimum wall time over `kIters`
// measured runs (minimum, not mean: the quantity of interest is the
// achievable latency, and the arena/allocator warm state matches steady-
// state serving).
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/cortex.h"
#include "baselines/dynet.h"
#include "baselines/eager.h"
#include "harness/harness.h"
#include "serve/server.h"
#include "serve/stats.h"

namespace acrobat::bench {

// Environment override for bench knobs (CI runs benches fast with
// ACROBAT_BENCH_ITERS=1; regime sweeps set ACROBAT_LAUNCH_NS without
// recompiling). Empty/unset falls back to the default.
inline std::int64_t env_int(const char* name, std::int64_t dflt) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::atoll(v) : dflt;
}

inline double env_double(const char* name, double dflt) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::atof(v) : dflt;
}

inline const std::int64_t kLaunchNs =
    std::max<std::int64_t>(0, env_int("ACROBAT_LAUNCH_NS", 3000));  // ~CUDA launch latency
inline const int kIters = static_cast<int>(
    std::max<std::int64_t>(1, env_int("ACROBAT_BENCH_ITERS", 3)));

// Latency-distribution aggregation (serve_latency and any bench reporting
// tails instead of a min): nearest-rank p50/p95/p99/p99.9 + mean, plus
// `attainment(deadline_ms)` — the goodput column's SLO-met fraction.
using serve::Percentiles;

// Serving benches report goodput against this deadline (ms). 0 (the
// default) lets the bench derive one from the measured solo service time;
// ACROBAT_SERVE_DEADLINE_MS pins it without recompiling (EXPERIMENTS.md).
inline double deadline_ms_or(double derived_ms) {
  const double env = env_double("ACROBAT_SERVE_DEADLINE_MS", 0.0);
  return env > 0 ? env : derived_ms;
}

inline Percentiles percentiles(std::vector<double> samples) {
  return Percentiles::of(std::move(samples));
}

inline harness::RunOptions default_opts() {
  harness::RunOptions o;
  o.launch_overhead_ns = kLaunchNs;
  return o;
}

// Minimum wall-ms over kIters runs (plus one warmup).
inline double time_min_ms(const std::function<harness::RunResult()>& run) {
  run();  // warmup
  double best = 1e300;
  for (int i = 0; i < kIters; ++i) best = std::min(best, run().wall_ms);
  return best;
}

inline const char* size_name(bool large) { return large ? "large" : "small"; }

// Standard datasets: seed fixed per (model, size, batch) so every bench and
// baseline sees identical inputs.
inline models::Dataset dataset_for(const models::ModelSpec& spec, bool large,
                                   int batch) {
  return spec.build_dataset(large, batch,
                            0xbe9c5 + batch * 31 + (large ? 7 : 0));
}

// Engine counters summed over a serving run's shards.
inline ActivityStats merged_stats(const std::vector<serve::ShardReport>& shards) {
  ActivityStats m;
  for (const serve::ShardReport& s : shards) m += s.stats;
  return m;
}

// Machine-readable engine-counter emission (the repo's perf trajectory):
// per-config rows of the engine's activity breakdown. Integer columns —
// kernel_launches, gather_bytes, flat/stacked batch counts, scheduling
// allocs and the integer extras — are exact and deterministic for a fixed
// trace, so CI diffs every one of them against a checked-in golden
// (scripts/check_bench_counters.py); the *_ns timing fields and the double
// columns are machine-dependent context and are never diffed. A double is
// always written as a JSON float (with a '.' or an exponent), so the
// checker can tell the two kinds apart by type alone.
class CounterJson {
 public:
  void add(const std::string& config, const ActivityStats& s) {
    rows_.push_back(Row{config, s, {}, {}});
  }
  // Serving rows ride extra columns alongside the engine counters: integer
  // extras (requests, triggers, shed, …) are exact and golden-diffed like
  // the counters; double extras (p50_ms, goodput, …) are machine-dependent
  // context, emitted but never diffed — the same split as the *_ns fields.
  void add(const std::string& config, const ActivityStats& s,
           std::vector<std::pair<std::string, long long>> int_extras,
           std::vector<std::pair<std::string, double>> dbl_extras = {}) {
    rows_.push_back(Row{config, s, std::move(int_extras), std::move(dbl_extras)});
  }

  // Writes to $ACROBAT_BENCH_JSON, or `fallback_path` when the env var is
  // unset/empty; returns false (and writes nothing) if neither names a
  // path. The emitting bench stays silent about it unless asked.
  bool write(const char* bench_name, const char* fallback_path = nullptr) const {
    const char* env = std::getenv("ACROBAT_BENCH_JSON");
    const char* path = (env != nullptr && *env != '\0') ? env : fallback_path;
    if (path == nullptr || *path == '\0') return false;
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"launch_overhead_ns\": %lld,\n",
                 bench_name, static_cast<long long>(kLaunchNs));
    std::fprintf(f, "  \"rows\": [\n");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const ActivityStats& s = rows_[i].stats;
      std::fprintf(f, "    {\"config\": \"%s\"", rows_[i].config.c_str());
#define ACROBAT_JSON_ROW(member, key) \
  std::fprintf(f, ", \"" key "\": %lld", counter_value(s.member));
      ACROBAT_ACTIVITY_STATS(ACROBAT_JSON_ROW)
#undef ACROBAT_JSON_ROW
      for (const auto& [k, v] : rows_[i].int_extras)
        std::fprintf(f, ", \"%s\": %lld", k.c_str(), v);
      for (const auto& [k, v] : rows_[i].dbl_extras) {
        char num[32];
        std::snprintf(num, sizeof num, "%.6g", v);
        std::fprintf(f, ", \"%s\": %s%s", k.c_str(), num,
                     std::strpbrk(num, ".e") != nullptr ? "" : ".0");
      }
      std::fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu rows)\n", path, rows_.size());
    return true;
  }

 private:
  struct Row {
    std::string config;
    ActivityStats stats;
    std::vector<std::pair<std::string, long long>> int_extras;
    std::vector<std::pair<std::string, double>> dbl_extras;
  };
  std::vector<Row> rows_;
};

inline void header(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n  (reproduces %s; CPU substrate, launch overhead %lldns —\n"
              "   compare shapes and ratios, not absolute times; see EXPERIMENTS.md)\n",
              title, paper_ref, static_cast<long long>(kLaunchNs));
  std::printf("================================================================\n");
}

}  // namespace acrobat::bench
