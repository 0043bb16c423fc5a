// netd: the standalone acrobat ingress server (DESIGN.md §10).
//
//   netd [--port N] [--uds PATH] [--shards N] [--multiproc] [--model NAME]
//        [--large] [--launch-ns N] [--admission-cap N] [--max-sessions N]
//        [--policy greedy|max-batch|deadline] [--trace PATH]
//        [--max-inflight-per-conn N] [--respawn-budget N] [--ping-ms N]
//        [--liveness-ms N] [--fault SPEC]
//
// Binds loopback TCP (and/or a UDS path), prints the bound endpoint, serves
// until SIGINT/SIGTERM, then drains: stops accepting, 429s new requests,
// finishes in-flight sessions, and prints the ingress counters. With
// --multiproc each shard is a forked --shard-worker child of this binary.
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "models/models.h"
#include "net/net.h"

namespace {

volatile sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--shard-worker") == 0)
    return acrobat::net::shard_worker_main(argc, argv);

  using namespace acrobat;
  net::NetOptions o;
  o.port = 7471;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "netd: %s needs a value\n", k.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (k == "--port") o.port = std::atoi(next());
    else if (k == "--uds") o.uds_path = next();
    else if (k == "--shards") o.shards = std::atoi(next());
    else if (k == "--multiproc") o.multiprocess = true;
    else if (k == "--model") o.model = next();
    else if (k == "--large") o.large = true;
    else if (k == "--launch-ns") o.launch_overhead_ns = std::atoll(next());
    else if (k == "--admission-cap") o.admission_capacity = static_cast<std::size_t>(std::atoll(next()));
    else if (k == "--max-sessions") o.max_sessions = static_cast<std::size_t>(std::atoll(next()));
    else if (k == "--trace") { o.trace.enabled = true; trace_path = next(); }
    else if (k == "--max-inflight-per-conn") o.max_inflight_per_conn = std::atoi(next());
    else if (k == "--respawn-budget") o.respawn_budget = std::atoi(next());
    else if (k == "--ping-ms") o.ping_interval_ns = std::atoll(next()) * 1'000'000;
    else if (k == "--liveness-ms") o.liveness_timeout_ns = std::atoll(next()) * 1'000'000;
    else if (k == "--fault") o.fault_spec = next();
    else if (k == "--policy") {
      const std::string p = next();
      if (p == "greedy") o.policy.kind = serve::PolicyKind::kGreedy;
      else if (p == "max-batch") o.policy.kind = serve::PolicyKind::kMaxBatch;
      else if (p == "deadline") o.policy.kind = serve::PolicyKind::kDeadline;
      else { std::fprintf(stderr, "netd: unknown policy %s\n", p.c_str()); return 2; }
    } else {
      std::fprintf(stderr, "netd: unknown flag %s\n", k.c_str());
      return 2;
    }
  }

  // In-proc shards need the model prepared up front; multiproc workers
  // rebuild it from the recipe themselves.
  harness::Prepared prep;
  models::Dataset ds;
  const harness::Prepared* pp = nullptr;
  const models::Dataset* pds = nullptr;
  if (!o.multiprocess) {
    const models::ModelSpec& spec = models::model_by_name(o.model);
    prep = harness::prepare(spec, o.large, passes::PipelineConfig{});
    ds = spec.build_dataset(o.large, o.ds_batch, o.ds_seed);
    pp = &prep;
    pds = &ds;
  }

  net::NetServer srv(pp, pds, o);
  if (!srv.start()) {
    std::fprintf(stderr, "netd: %s\n", srv.error().c_str());
    return 1;
  }
  if (srv.port() >= 0) std::printf("netd: listening on 127.0.0.1:%d\n", srv.port());
  if (!srv.uds_path().empty()) std::printf("netd: listening on %s\n", srv.uds_path().c_str());
  std::printf("netd: model=%s shards=%d %s — Ctrl-C to drain\n", o.model.c_str(),
              o.shards, o.multiprocess ? "multiprocess" : "in-proc");
  std::fflush(stdout);

  struct sigaction sa {};
  sa.sa_handler = on_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  while (g_stop == 0) ::usleep(50'000);

  std::printf("netd: draining...\n");
  srv.shutdown();
  const net::NetStats& st = srv.stats();
  std::printf("netd:");
#define ACROBAT_NET_PRINT_ROW(member) \
  std::printf(" " #member "=%llu", static_cast<unsigned long long>(st.member));
  ACROBAT_NET_STATS(ACROBAT_NET_PRINT_ROW)
#undef ACROBAT_NET_PRINT_ROW
  std::printf("\n");
  if (o.trace.enabled && !trace_path.empty()) {
    if (st.trace.write_chrome_json(trace_path))
      std::printf("netd: trace written to %s\n", trace_path.c_str());
  }
  return 0;
}
