// net_client: the closed-loop *wire* client (DESIGN.md §10) — the latency
// frontier measured where it belongs, outside the server process boundary.
//
// Default mode self-hosts a NetServer (loopback TCP, in-proc shards) and
// drives it closed-loop: K outstanding requests pipelined on one
// connection; each completion immediately issues the next request, and a
// 429 retries at once (the retry count is part of the row). A kError for a
// dead or unavailable worker is resubmitted after NetClient::call()'s
// backoff (client_errors counts them); any other error fails the run.
// TTFT and inter-token gaps are stamped at frame *receipt* — wire-measured,
// including the protocol, the event loop, and the socket.
//
//   net_client [--uds] [--multiproc] [--connect HOST:PORT]
//
// --uds self-hosts over a UNIX socket; --multiproc self-hosts a forked
// 2-worker shard fleet (this binary re-execs as --shard-worker); --connect
// drives an external netd. When no listener can be bound (sandboxed CI),
// the bench falls back to the in-proc serve() path and says so in the
// config label — counters still flow to BENCH_net.json. A self-hosted run
// with no fault plan (ACROBAT_FAULT_SPEC unset) exits 1 if the server
// counts a worker death, a respawn or a degraded entry, or the client an
// error frame.
#include <time.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fault/fault.h"
#include "models/specs.h"
#include "net/client.h"
#include "net/net.h"
#include "serve/server.h"
#include "support/timer.h"

using namespace acrobat;
using namespace acrobat::bench;

namespace {

struct Row {
  double tok_s = 0, rps = 0;
  Percentiles ttft_ms, itl_ms, e2e_ms;
  long long retries = 0;
  long long errors = 0;  // kWorkerDied / kUnavailable frames, each resubmitted
  long long timeouts = 0;
  long long tokens = 0;
};

// Closed-loop driver: K outstanding on one connection, n total completions.
bool drive(net::NetClient& cli, int n, int k, Row& row) {
  std::vector<double> ttft, itl, e2e;
  std::vector<std::int64_t> sent_ns(static_cast<std::size_t>(n) + 1, 0);
  std::vector<int> sends(static_cast<std::size_t>(n) + 1, 0);  // per id, 429 resends aside
  const net::CallOptions retry;  // call()'s attempt cap and backoff schedule
  std::uint64_t jitter = 0x6a09e667f3bcc909ull;  // NetClient's default jitter seed
  const std::int64_t t_start = now_ns();
  std::uint32_t next_id = 0;
  int completed = 0, outstanding = 0;
  const auto issue = [&](std::uint32_t id, std::uint32_t input) {
    sent_ns[id] = now_ns();
    return cli.send_request(id, input);
  };
  while (completed < n) {
    while (outstanding < k && next_id < static_cast<std::uint32_t>(n)) {
      if (!issue(next_id, next_id % 8)) return false;
      sends[next_id] = 1;
      ++next_id;
      ++outstanding;
    }
    // Wait on the oldest unfinished id; pipelined completions for the
    // others are stashed inside the client and claimed on their turn.
    net::ClientResponse r;
    if (!cli.wait(static_cast<std::uint32_t>(completed), r)) return false;
    if (r.kind == net::ClientResponse::Kind::kRetry) {
      ++row.retries;
      // Closed-loop retry: same id, immediately (the completion that frees
      // a slot has already happened server-side by the time we see a 429
      // again, so this converges; the retry count records the pressure).
      if (!issue(r.req_id, r.req_id % 8)) return false;
      continue;
    }
    if (r.kind == net::ClientResponse::Kind::kError) {
      const auto code = static_cast<net::ErrorCode>(r.error_code);
      if (code != net::ErrorCode::kWorkerDied && code != net::ErrorCode::kUnavailable) {
        std::fprintf(stderr, "net_client: request %u failed with error code %u\n", r.req_id,
                     r.error_code);
        return false;
      }
      ++row.errors;
      int& tries = sends[r.req_id];
      if (tries >= retry.max_attempts) {
        std::fprintf(stderr, "net_client: request %u failed %d sends, last error code %u\n",
                     r.req_id, tries, r.error_code);
        return false;
      }
      const std::int64_t ns = net::retry_backoff_ns(tries - 1, retry.backoff_base_ms * 1'000'000,
                                                    retry.backoff_cap_ms * 1'000'000, jitter);
      const timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                        static_cast<long>(ns % 1'000'000'000)};
      ::nanosleep(&ts, nullptr);
      ++tries;
      // sent_ns keeps the first send: the lost attempt and the backoff are
      // part of what the client waited.
      if (!cli.send_request(r.req_id, r.req_id % 8)) return false;
      continue;
    }
    const double e2e_ms_v =
        static_cast<double>(r.done_recv_ns - sent_ns[r.req_id]) * 1e-6;
    e2e.push_back(e2e_ms_v);
    if (!r.token_recv_ns.empty()) {
      ttft.push_back(static_cast<double>(r.token_recv_ns.front() - sent_ns[r.req_id]) * 1e-6);
      for (std::size_t i = 1; i < r.token_recv_ns.size(); ++i)
        itl.push_back(static_cast<double>(r.token_recv_ns[i] - r.token_recv_ns[i - 1]) * 1e-6);
    }
    row.tokens += r.tokens;
    ++completed;
    --outstanding;
  }
  const double secs = static_cast<double>(now_ns() - t_start) * 1e-9;
  row.timeouts = static_cast<long long>(cli.stats().timeouts);
  row.rps = static_cast<double>(n) / secs;
  row.tok_s = static_cast<double>(row.tokens) / secs;
  row.ttft_ms = percentiles(std::move(ttft));
  row.itl_ms = percentiles(std::move(itl));
  row.e2e_ms = percentiles(std::move(e2e));
  return true;
}

void record(CounterJson& json, const std::string& cfg, const net::NetStats& st,
            const Row& row) {
  std::vector<std::pair<std::string, long long>> ints;
#define ACROBAT_NET_JSON_ROW(member) ints.emplace_back(#member, static_cast<long long>(st.member));
  ACROBAT_NET_STATS(ACROBAT_NET_JSON_ROW)
#undef ACROBAT_NET_JSON_ROW
  ints.emplace_back("client_retries", row.retries);
  ints.emplace_back("client_errors", row.errors);
  ints.emplace_back("client_timeouts", row.timeouts);
  json.add(cfg, merged_stats(st.shards), std::move(ints),
           {{"rps", row.rps},
            {"tokens_per_sec", row.tok_s},
            {"ttft_p50_ms", row.ttft_ms.p50},
            {"ttft_p99_ms", row.ttft_ms.p99},
            {"itl_p50_ms", row.itl_ms.p50},
            {"itl_p99_ms", row.itl_ms.p99},
            {"e2e_p99_ms", row.e2e_ms.p99}});
}

void print_row(const char* mode, int k, const Row& row) {
  std::printf("%-14s K=%-3d | %8.0f %9.0f | %8.3f %8.3f %8.3f %8.3f %8.3f | %6lld %6lld\n",
              mode, k, row.rps, row.tok_s, row.ttft_ms.p50, row.ttft_ms.p99,
              row.itl_ms.p50, row.itl_ms.p99, row.e2e_ms.p99, row.retries, row.errors);
}

// In-proc fallback when the sandbox has no sockets: the same closed-loop
// shape approximated by a t0 burst of K-session cohorts through serve().
void fallback_inproc(CounterJson& json, int n) {
  const models::ModelSpec& spec = models::model_by_name("Decoder");
  const models::Dataset ds = dataset_for(spec, false, 8);
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});
  std::vector<serve::Request> trace;
  for (int i = 0; i < n; ++i)
    trace.push_back(serve::Request{i, static_cast<std::size_t>(i % 8), 0});
  serve::ServeOptions so;
  so.launch_overhead_ns = kLaunchNs;
  const serve::ServeResult res = serve::serve(p, ds, trace, so);
  json.add("fallback-inproc", merged_stats(res.shards),
           {{"requests", static_cast<long long>(n)},
            {"completed", static_cast<long long>(n)},
            {"rejected_429", 0},
            {"tokens", res.tokens}},
           {{"tokens_per_sec", res.tokens_per_sec},
            {"ttft_p50_ms", res.ttft_ms.p50},
            {"ttft_p99_ms", res.ttft_ms.p99}});
  std::printf("fallback-inproc: %d requests, %lld tokens, %.0f tok/s\n", n,
              res.tokens, res.tokens_per_sec);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--shard-worker") == 0)
    return net::shard_worker_main(argc, argv);

  bool use_uds = false, multiproc = false;
  std::string connect;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--uds") use_uds = true;
    else if (k == "--multiproc") multiproc = true;
    else if (k == "--connect" && i + 1 < argc) connect = argv[++i];
    else {
      std::fprintf(stderr, "net_client: unknown flag %s\n", k.c_str());
      return 2;
    }
  }

  const int n = static_cast<int>(
      std::max<std::int64_t>(1, env_int("ACROBAT_SERVE_REQUESTS", 64)));

  header("net_client: wire-measured ingress frontier (closed loop, K "
         "outstanding)",
         "DESIGN.md §10 (socket front door + bounded admission)");
  std::printf("%-14s %-5s | %8s %9s | %8s %8s %8s %8s %8s | %6s %6s\n", "mode", "",
              "req/s", "tok/s", "ttft p50", "ttft p99", "itl p50", "itl p99",
              "e2e p99", "429s", "errs");

  CounterJson json;
  const char* json_path = "BENCH_net.json";

  // External server: one sweep against it, no self-hosting.
  if (!connect.empty()) {
    const std::size_t colon = connect.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "net_client: --connect needs HOST:PORT\n");
      return 2;
    }
    const std::string host = connect.substr(0, colon);
    const int port = std::atoi(connect.c_str() + colon + 1);
    for (const int k : {1, 4, 16}) {
      net::NetClient cli;
      if (!cli.connect_tcp(host, port)) {
        std::fprintf(stderr, "net_client: %s\n", cli.error().c_str());
        return 1;
      }
      Row row;
      if (!drive(cli, n, k, row)) {
        std::fprintf(stderr, "net_client: %s\n", cli.error().c_str());
        return 1;
      }
      print_row("external", k, row);
    }
    return 0;
  }

  // Self-hosted sweep: one server, K ∈ {1, 4, 16} closed-loop connections
  // in sequence (stats accumulate across the sweep; the JSON row per K
  // carries the client-side latency split, which is per-K).
  const models::ModelSpec& spec = models::model_by_name("Decoder");
  harness::Prepared prep;
  models::Dataset ds;
  const harness::Prepared* pp = nullptr;
  const models::Dataset* pds = nullptr;
  net::NetOptions o;
  o.launch_overhead_ns = kLaunchNs;
  o.ds_batch = 8;
  o.ds_seed = 7;
  if (multiproc) {
    o.multiprocess = true;
    o.shards = 2;
  } else {
    prep = harness::prepare(spec, false, passes::PipelineConfig{});
    ds = spec.build_dataset(false, o.ds_batch, o.ds_seed);
    pp = &prep;
    pds = &ds;
  }
  char uds_buf[64];
  if (use_uds) {
    std::snprintf(uds_buf, sizeof uds_buf, "/tmp/acrobat_net_%d.sock", ::getpid());
    o.uds_path = uds_buf;
    o.port = -1;
  }
  const char* mode = multiproc ? "multiproc" : (use_uds ? "uds" : "tcp");

  net::NetServer srv(pp, pds, o);
  if (!srv.start()) {
    std::printf("net_client: no listener (%s); falling back to in-proc serve\n",
                srv.error().c_str());
    fallback_inproc(json, n);
    json.write("net_client", json_path);
    return 0;
  }

  std::vector<std::pair<int, Row>> rows;
  for (const int k : {1, 4, 16}) {
    net::NetClient cli;
    const bool ok = use_uds ? cli.connect_uds(srv.uds_path())
                            : cli.connect_tcp("127.0.0.1", srv.port());
    if (!ok) {
      std::fprintf(stderr, "net_client: %s\n", cli.error().c_str());
      return 1;
    }
    Row row;
    if (!drive(cli, n, k, row)) {
      std::fprintf(stderr, "net_client: drive failed: %s\n", cli.error().c_str());
      return 1;
    }
    print_row(mode, k, row);
    rows.emplace_back(k, row);
  }
  srv.shutdown();
  const net::NetStats& st = srv.stats();
  for (const auto& [k, row] : rows) {
    char cfg[64];
    std::snprintf(cfg, sizeof cfg, "%s/K%d", mode, k);
    record(json, cfg, st, row);
  }
  std::printf("server:");
#define ACROBAT_NET_PRINT_ROW(member) \
  std::printf(" " #member "=%llu", static_cast<unsigned long long>(st.member));
  ACROBAT_NET_STATS(ACROBAT_NET_PRINT_ROW)
#undef ACROBAT_NET_PRINT_ROW
  std::printf("\n");
  json.write("net_client", json_path);
  // Without a fault plan nothing kills a worker, and K <= 16 outstanding
  // requests stay below the degraded watermark (7/8 of 64 admission
  // slots), so any of these counts is a server fault.
  long long client_errors = 0;
  for (const auto& [k, row] : rows) client_errors += row.errors;
  if (fault::Injector::spec_from_env().empty() &&
      st.worker_deaths + st.worker_respawns + st.degraded_entries + client_errors > 0) {
    std::fprintf(stderr,
                 "net_client: fault-free run counted worker_deaths=%llu "
                 "worker_respawns=%llu degraded_entries=%llu client_errors=%lld\n",
                 static_cast<unsigned long long>(st.worker_deaths),
                 static_cast<unsigned long long>(st.worker_respawns),
                 static_cast<unsigned long long>(st.degraded_entries), client_errors);
    return 1;
  }
  return 0;
}
