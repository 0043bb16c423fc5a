// Minimal blocking client for the acrobat/net wire protocol. Used by the
// tests and by bench/net_client; one NetClient per connection, single
// threaded. Responses for concurrently outstanding requests are demuxed by
// req_id, so a client may pipeline many requests on one connection.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "acrobat/net/frame.h"

namespace acrobat::net {

// Capped exponential backoff with seeded multiplicative jitter in
// [0.5, 1.5): delay for retry attempt k (0-based) is
// min(base << k, cap) * (0.5 + u). `jitter_state` is an xorshift64 state
// advanced per call — seed it once per client/run and the whole backoff
// schedule is reproducible. Pure and header-only so the determinism unit
// test exercises exactly the production code path.
inline std::int64_t retry_backoff_ns(int attempt, std::int64_t base_ns,
                                     std::int64_t cap_ns,
                                     std::uint64_t& jitter_state) {
  if (attempt < 0) attempt = 0;
  std::int64_t d = attempt >= 62 ? cap_ns : base_ns << attempt;
  if (d > cap_ns || d <= 0) d = cap_ns;
  std::uint64_t x = jitter_state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  jitter_state = x;
  const double u = static_cast<double>(x >> 11) * (1.0 / 9007199254740992.0);
  return static_cast<std::int64_t>(static_cast<double>(d) * (0.5 + u));
}

// Per-call resilience policy for NetClient::call().
struct CallOptions {
  std::int64_t deadline_ms = 60'000;  // end-to-end budget incl. all retries
  int max_attempts = 16;              // sends, including the first
  std::int64_t backoff_base_ms = 1;
  std::int64_t backoff_cap_ms = 200;
  bool stream = true;
};

struct ClientStats {
  std::uint64_t retries = 0;     // resends: kRetry, retryable kError, transport
  std::uint64_t reconnects = 0;  // successful redials of the stored endpoint
  std::uint64_t timeouts = 0;    // call()s that exhausted their deadline
};

struct ClientResponse {
  std::uint32_t req_id = 0;
  enum class Kind { kDone, kRetry, kError } kind = Kind::kDone;
  std::uint32_t error_code = 0;
  std::uint32_t tokens = 0;
  bool cancelled = false;
  std::vector<float> output;
  // Wire-side observation timestamps (CLOCK_MONOTONIC ns): when each token
  // frame and the final frame were *received*, for TTFT / inter-token stats
  // measured at the client.
  std::vector<std::int64_t> token_recv_ns;
  std::int64_t done_recv_ns = 0;
};

class NetClient {
 public:
  NetClient() = default;
  ~NetClient();
  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  bool connect_tcp(const std::string& host, int port);
  bool connect_uds(const std::string& path);
  bool connected() const { return fd_ >= 0; }
  const std::string& error() const { return error_; }
  void close();

  // Fire-and-forget send; responses are collected with wait().
  bool send_request(std::uint32_t req_id, std::uint32_t input_index,
                    std::uint16_t model_id = 0, std::uint8_t latency_class = 0,
                    bool stream = true);

  // Blocks until the terminal frame (kDone / kRetry / kError) for `req_id`
  // arrives, filling `out`. Terminal frames for *other* pipelined requests
  // seen along the way are stashed and returned by their own wait() calls.
  // Returns false on connection error or timeout.
  bool wait(std::uint32_t req_id, ClientResponse& out, int timeout_ms = 60000);

  // Blocks until a kToken frame for streamed request `req_id` has arrived
  // (its response stays claimable by wait()). Returns false on connection
  // error, timeout, or a terminal frame with no token before it.
  bool wait_token(std::uint32_t req_id, int timeout_ms = 60000);

  // Resilient blocking call (ISSUE 10): send_request + wait with retry.
  // Retries (capped exponential backoff, seeded jitter — set_jitter_seed)
  // on kRetry, on kError(kWorkerDied / kUnavailable), and on transport
  // failure — the latter after reconnect-and-resubmit against the endpoint
  // remembered by the last connect_*(). Returns true iff kDone arrived
  // within the deadline; on false, `out.kind` holds the last terminal
  // answer (kError with a non-retryable code returns false immediately).
  // Single request at a time: do not interleave with pipelined wait()s.
  bool call(std::uint32_t req_id, std::uint32_t input_index, ClientResponse& out,
            const CallOptions& opts = {});

  // Redial the endpoint stored by the last connect_*(). Drops any buffered
  // partial frames and unclaimed responses — in-flight pipelined requests
  // on the old connection are gone (the server cancels them on drop).
  bool reconnect();

  void set_jitter_seed(std::uint64_t seed) { jitter_ = seed != 0 ? seed : 1; }

  const ClientStats& stats() const { return stats_; }

 private:
  bool pump(int timeout_ms);

  int fd_ = -1;
  FrameReader reader_;
  std::string error_;
  std::vector<ClientResponse> pending_;  // terminal responses not yet claimed
  std::vector<ClientResponse> partial_;  // streams in progress (token stamps)

  // Stored endpoint for reconnect(): exactly one of host/uds is set.
  std::string host_;
  int port_ = -1;
  std::string uds_;
  std::uint64_t jitter_ = 0x6a09e667f3bcc909ull;
  ClientStats stats_;
};

}  // namespace acrobat::net
