// Table 6: time spent in runtime activities for DyNet and ACROBAT at batch
// size 64 — DFG construction, scheduling, memory copies, kernel time,
// number of kernel launches, and simulated-device API time.
//
// Paper result: ACROBAT's static optimizations cut DFG-construction and
// scheduling time by close to an order of magnitude and launch ~9x fewer
// kernels on TreeLSTM-small; on BiRNN-large it still wins every overhead
// column while spending *more* time in kernels (the paper notes the same).
#include <sys/resource.h>

#include <cstdlib>
#include <new>

#include "bench_util.h"

// Heap allocations made through operator new in this binary (the
// "Heap allocations" row).
namespace {
long long g_news = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

using namespace acrobat;
using namespace acrobat::bench;

namespace {

// The measured run's minor page faults and heap allocations.
struct MemCost {
  long faults = 0;
  long long allocs = 0;
};

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

template <class F>
harness::RunResult measured(F&& run, MemCost& cost) {
  const long f0 = minor_faults();
  const long long a0 = g_news;
  harness::RunResult r = run();
  cost.faults = minor_faults() - f0;
  cost.allocs = g_news - a0;
  return r;
}

void row(const char* activity, double dynet, double acrobat,
         const char* unit = "ms") {
  std::printf("  %-22s %10.2f %10.2f  %s\n", activity, dynet, acrobat, unit);
}

void breakdown(const char* model, bool large) {
  const models::ModelSpec& spec = models::model_by_name(model);
  const models::Dataset ds = dataset_for(spec, large, 64);

  harness::RunOptions opts = default_opts();
  opts.time_activities = true;

  MemCost am, dm;
  harness::Prepared pa = harness::prepare(spec, large, passes::PipelineConfig{});
  harness::run_acrobat(pa, ds, opts);  // warmup
  const harness::RunResult a = measured([&] { return harness::run_acrobat(pa, ds, opts); }, am);

  harness::Prepared pd =
      harness::prepare(spec, large, baselines::dynet_pipeline_config());
  baselines::DynetOptions dop;
  dop.launch_overhead_ns = kLaunchNs;
  dop.time_activities = true;
  baselines::run_dynet(pd, ds, dop);  // warmup
  const harness::RunResult d = measured([&] { return baselines::run_dynet(pd, ds, dop); }, dm);

  std::printf("\n%s, %s, batch 64 %28s %10s\n", model, size_name(large),
              "DyNet", "ACROBAT");
  row("DFG construction", d.stats.dfg_construction.ms(),
      a.stats.dfg_construction.ms());
  row("Scheduling", d.stats.scheduling.ms(), a.stats.scheduling.ms());
  row("Memory copy (gather)", d.stats.gather_copy.ms(),
      a.stats.gather_copy.ms());
  row("GPU kernel time", d.stats.kernel_exec.ms(), a.stats.kernel_exec.ms());
  row("#Kernel calls", static_cast<double>(d.stats.kernel_launches),
      static_cast<double>(a.stats.kernel_launches), "calls");
  row("Device API time", d.stats.launch_overhead.ms() + d.stats.gather_copy.ms(),
      a.stats.launch_overhead.ms() + a.stats.gather_copy.ms());
  // Hot-path shape (ISSUE 5): batches collapsed to one flat/stacked call,
  // and scheduler scratch growth (0 in steady state — fresh engines here
  // show the warmup count).
  row("Flat+stacked batches",
      static_cast<double>(d.stats.flat_batches + d.stats.stacked_batches),
      static_cast<double>(a.stats.flat_batches + a.stats.stacked_batches), "calls");
  row("Scheduling allocs", static_cast<double>(d.stats.scheduling_allocs),
      static_cast<double>(a.stats.scheduling_allocs), "allocs");
  // Memory cost of the warm batch (DESIGN.md §4 "Block cache"): pages the
  // batch faulted in and operator new calls it made.
  row("Minor page faults", static_cast<double>(dm.faults), static_cast<double>(am.faults),
      "faults");
  row("Heap allocations", static_cast<double>(dm.allocs), static_cast<double>(am.allocs),
      "allocs");
  row("Total (wall)", d.wall_ms, a.wall_ms);
}

}  // namespace

int main() {
  header("Table 6: runtime activity breakdown, batch 64", "paper Table 6");
  breakdown("TreeLSTM", /*large=*/false);
  breakdown("BiRNN", /*large=*/true);
  return 0;
}
