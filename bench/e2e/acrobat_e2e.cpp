// acrobat_e2e: the repository's end-to-end benchmark (README.md).
//
//   acrobat_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//               [--trace-dir DIR] [--smoke] [--self-test]
//
// Prints a human-readable table, then as the last line one JSON object:
// {"correct", "attempted", "failed", "metrics"} with every end-to-end metric
// (--trace 0) or every per-layer metric (--trace 1). Exits 1 if any request
// failed or any output differs from the VM reference, 2 on bad arguments.
// Settings come only from the command line: no ACROBAT_* variable is used.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "e2e.h"

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "acrobat_e2e: %s\nusage: acrobat_e2e --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-dir DIR] [--smoke] [--self-test]\n",
               msg);
  std::exit(2);
}

double parse_number(const char* flag, const char* v) {
  char* end = nullptr;
  const double x = std::strtod(v, &end);
  if (end == v || *end != '\0' || !std::isfinite(x) || x < 0)
    usage((std::string("bad value for ") + flag + ": " + v).c_str());
  return x;
}

e2e::Params parse(int argc, char** argv) {
  e2e::Params p;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") p.workload = value();
    else if (a == "--seed") p.seed = static_cast<std::uint64_t>(parse_number("--seed", value()));
    else if (a == "--seconds") p.seconds = parse_number("--seconds", value());
    else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      p.trace = v == "1";
    } else if (a == "--trace-dir") p.trace_dir = value();
    else if (a == "--smoke") p.smoke = true;
    else if (a == "--self-test") p.self_test = true;
    else usage(("unknown argument " + a).c_str());
  }
  const auto& names = e2e::workload_names();
  if (std::find(names.begin(), names.end(), p.workload) == names.end())
    usage(("--workload must name one of batch_zoo, fleet_mixed, decode_stream, wire_decode, "
           "not '" + p.workload + "'").c_str());
  if (!(p.seconds > 0)) usage("--seconds must be > 0");
  return p;
}

// Tails over every measured segment, never gated: diag.<name>_p90_ms,
// diag.<name>_p99_ms, and the number of samples beyond the p99.
void add_tails(e2e::Report& rep, const char* name, const std::vector<double>& samples) {
  const std::string base = std::string("diag.") + name;
  rep.layer[base + "_p90_ms"] = e2e::quantile(samples, 0.90);
  rep.layer[base + "_p99_ms"] = e2e::quantile(samples, 0.99);
  const double rank = std::ceil(0.99 * static_cast<double>(samples.size()));
  rep.layer[base + "_p99_beyond"] = static_cast<double>(samples.size()) - rank;
}

}  // namespace

int main(int argc, char** argv) {
  const e2e::Params p = parse(argc, argv);
  if (std::getenv("ACROBAT_FAULT_SPEC") != nullptr) {
    std::fprintf(stderr, "acrobat_e2e: refusing to run with ACROBAT_FAULT_SPEC set: the "
                         "socket server would inject faults\n");
    return 2;
  }

  std::printf("workload %s  seed %llu  seconds %g%s\n", p.workload.c_str(),
              static_cast<unsigned long long>(p.seed), p.seconds, p.smoke ? "  (smoke)" : "");
  e2e::Checker check;
  e2e::Report rep = e2e::run_workload(p, check);
  rep.segments["setup_s"] = {rep.setup_s};
  // Measured per segment like the end-to-end metrics, but not gated
  // (README.md, "Demoted").
  for (const auto& [name, values] : rep.segments)
    if (name.rfind("diag.", 0) == 0) rep.layer[name] = e2e::median(values);
  add_tails(rep, "latency", rep.pooled.latency_ms);
  add_tails(rep, "ttft", rep.pooled.ttft_ms);
  add_tails(rep, "itl", rep.pooled.itl_ms);

  std::printf("%-28s %-10s %14s %14s %14s\n", "end-to-end metric", "unit", "median", "q1",
              "q3");
  for (const e2e::MetricDef& m : e2e::end_to_end_metrics()) {
    const std::vector<double>& v = rep.segments[m.name];
    std::printf("%-28s %-10s %14.6g %14.6g %14.6g\n", m.name, m.unit, e2e::median(v),
                e2e::quantile(v, 0.25), e2e::quantile(v, 0.75));
  }
  // Without the traced segment only the set-up and diag.* rows are measured.
  std::printf("%-28s %-10s %14s\n", "per-layer metric", "unit", "value");
  for (const e2e::MetricDef& m : e2e::per_layer_metrics()) {
    const std::string name = m.name;
    if (p.trace || name.rfind("diag.", 0) == 0 || name.rfind("harness.", 0) == 0)
      std::printf("%-28s %-10s %14.6g\n", m.name, m.unit, rep.layer[m.name]);
  }
  std::printf("requests attempted %lld, failed %lld (output mismatches %lld)\n",
              check.attempted(), check.failed(), check.mismatches());

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              check.mismatches() == 0 ? "true" : "false", check.attempted(), check.failed());
  const auto& defs = p.trace ? e2e::per_layer_metrics() : e2e::end_to_end_metrics();
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const double v = p.trace ? rep.layer[defs[i].name] : e2e::median(rep.segments[defs[i].name]);
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                defs[i].name, std::isfinite(v) ? v : 0.0, defs[i].unit);
  }
  std::printf("}}\n");
  return check.failed() == 0 ? 0 : 1;
}
