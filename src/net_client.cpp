#include "net/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "support/timer.h"

namespace acrobat::net {

NetClient::~NetClient() { close(); }

void NetClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool NetClient::connect_tcp(const std::string& host, int port) {
  close();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    error_ = "socket() failed";
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    error_ = "bad address: " + host;
    ::close(fd);
    return false;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    error_ = "connect() failed: " + std::string(std::strerror(errno));
    ::close(fd);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  fd_ = fd;
  host_ = host;
  port_ = port;
  uds_.clear();
  return true;
}

bool NetClient::connect_uds(const std::string& path) {
  close();
  if (path.empty() || path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    error_ = "bad uds path";
    return false;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    error_ = "socket() failed";
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    error_ = "connect() failed: " + std::string(std::strerror(errno));
    ::close(fd);
    return false;
  }
  fd_ = fd;
  uds_ = path;
  host_.clear();
  port_ = -1;
  return true;
}

bool NetClient::reconnect() {
  if (host_.empty() && uds_.empty()) {
    error_ = "reconnect() before any connect";
    return false;
  }
  reader_.reset();
  pending_.clear();
  partial_.clear();
  const bool ok = uds_.empty() ? connect_tcp(host_, port_) : connect_uds(uds_);
  if (ok) ++stats_.reconnects;
  return ok;
}

bool NetClient::send_request(std::uint32_t req_id, std::uint32_t input_index,
                             std::uint16_t model_id, std::uint8_t latency_class,
                             bool stream) {
  if (fd_ < 0) return false;
  std::vector<std::uint8_t> wire;
  encode_request(wire, req_id, input_index, model_id, latency_class, stream);
  std::size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n = ::send(fd_, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      error_ = "send() failed: " + std::string(std::strerror(errno));
      close();
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Reads whatever is available within timeout_ms, sorting terminal frames
// into pending_ and token stamps into partial_. Returns false on EOF /
// error, true if any bytes were consumed or the wait simply timed out.
bool NetClient::pump(int timeout_ms) {
  if (fd_ < 0) return false;
  pollfd pfd{fd_, POLLIN, 0};
  const int r = ::poll(&pfd, 1, timeout_ms);
  if (r <= 0) return r == 0;  // timeout is not an error; caller re-checks
  std::uint8_t buf[16384];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
    if (n > 0) {
      reader_.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      error_ = "connection closed by server";
      close();
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    error_ = "recv() failed: " + std::string(std::strerror(errno));
    close();
    return false;
  }

  const std::int64_t t_recv = now_ns();
  Frame f;
  while (reader_.next(f) == FrameReader::Status::kFrame) {
    const auto take_partial = [&](std::uint32_t id) {
      for (std::size_t i = 0; i < partial_.size(); ++i)
        if (partial_[i].req_id == id) {
          ClientResponse r2 = std::move(partial_[i]);
          partial_.erase(partial_.begin() + static_cast<std::ptrdiff_t>(i));
          return r2;
        }
      ClientResponse r2;
      r2.req_id = id;
      return r2;
    };
    switch (f.type) {
      case FrameType::kToken: {
        if (f.payload.size() < 8) break;
        const std::uint32_t id = wire::get_u32(f.payload.data());
        ClientResponse* p = nullptr;
        for (ClientResponse& c : partial_)
          if (c.req_id == id) p = &c;
        if (p == nullptr) {
          partial_.emplace_back();
          partial_.back().req_id = id;
          p = &partial_.back();
        }
        p->token_recv_ns.push_back(t_recv);
        break;
      }
      case FrameType::kDone: {
        DoneFields df;
        if (!parse_done(f, df)) break;
        ClientResponse r2 = take_partial(df.id);
        r2.kind = ClientResponse::Kind::kDone;
        r2.tokens = df.tokens;
        r2.cancelled = df.cancelled;
        r2.output.assign(df.data, df.data + df.n_floats);
        r2.done_recv_ns = t_recv;
        pending_.push_back(std::move(r2));
        break;
      }
      case FrameType::kRetry: {
        if (f.payload.size() < 4) break;
        ClientResponse r2 = take_partial(wire::get_u32(f.payload.data()));
        r2.kind = ClientResponse::Kind::kRetry;
        r2.done_recv_ns = t_recv;
        pending_.push_back(std::move(r2));
        break;
      }
      case FrameType::kError: {
        if (f.payload.size() < 8) break;
        ClientResponse r2 = take_partial(wire::get_u32(f.payload.data()));
        r2.kind = ClientResponse::Kind::kError;
        r2.error_code = wire::get_u32(f.payload.data() + 4);
        r2.done_recv_ns = t_recv;
        pending_.push_back(std::move(r2));
        break;
      }
      default:
        break;  // unknown frame types are ignored, not fatal
    }
  }
  return true;
}

// Sleep helper for backoff waits: plain nanosleep, no socket involvement —
// a dead connection must not turn the backoff into a busy loop.
static void sleep_ns(std::int64_t ns) {
  if (ns <= 0) return;
  timespec ts{static_cast<time_t>(ns / 1'000'000'000),
              static_cast<long>(ns % 1'000'000'000)};
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

bool NetClient::call(std::uint32_t req_id, std::uint32_t input_index,
                     ClientResponse& out, const CallOptions& opts) {
  const std::int64_t deadline = now_ns() + opts.deadline_ms * 1'000'000;
  int attempt = 0;
  for (;;) {
    const std::int64_t left_ns = deadline - now_ns();
    if (left_ns <= 0 || attempt >= opts.max_attempts) {
      ++stats_.timeouts;
      if (error_.empty()) error_ = "call() deadline exhausted";
      return false;
    }
    // A broken (or never-made) connection is itself a retryable failure:
    // reconnect-and-resubmit against the stored endpoint.
    const bool sent = connected() &&
                      send_request(req_id, input_index, 0, 0, opts.stream);
    if (sent) {
      const int wait_ms = static_cast<int>(
          std::min<std::int64_t>(left_ns / 1'000'000 + 1,
                                 std::numeric_limits<int>::max() / 2));
      if (wait(req_id, out, wait_ms)) {
        if (out.kind == ClientResponse::Kind::kDone) return true;
        if (out.kind == ClientResponse::Kind::kError &&
            out.error_code != static_cast<std::uint32_t>(ErrorCode::kWorkerDied) &&
            out.error_code != static_cast<std::uint32_t>(ErrorCode::kUnavailable))
          return false;  // kBadRequest: retrying cannot help
        // kRetry or a retryable kError: fall through to the backoff.
      } else if (connected()) {
        ++stats_.timeouts;  // deadline passed while the request was live
        return false;
      }
    }
    // Retryable outcome (429 / worker died / transport down): back off,
    // then resubmit. The jitter stream advances once per retry, so a fixed
    // seed gives a reproducible schedule.
    ++stats_.retries;
    sleep_ns(std::min(left_ns, retry_backoff_ns(attempt, opts.backoff_base_ms * 1'000'000,
                                                opts.backoff_cap_ms * 1'000'000, jitter_)));
    ++attempt;
    if (!connected()) reconnect();  // a failure here retries: the server may be coming back
  }
}

bool NetClient::wait(std::uint32_t req_id, ClientResponse& out, int timeout_ms) {
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_ms) * 1'000'000;
  for (;;) {
    for (std::size_t i = 0; i < pending_.size(); ++i)
      if (pending_[i].req_id == req_id) {
        out = std::move(pending_[i]);
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    const std::int64_t left_ns = deadline - now_ns();
    if (left_ns <= 0) {
      error_ = "timed out waiting for response";
      return false;
    }
    const int slice = static_cast<int>(std::min<std::int64_t>(left_ns / 1'000'000 + 1, 100));
    if (!pump(slice)) return false;
  }
}

bool NetClient::wait_token(std::uint32_t req_id, int timeout_ms) {
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_ms) * 1'000'000;
  for (;;) {
    for (const std::vector<ClientResponse>* v : {&partial_, &pending_})
      for (const ClientResponse& r : *v)
        if (r.req_id == req_id) return !r.token_recv_ns.empty();
    const std::int64_t left_ns = deadline - now_ns();
    if (left_ns <= 0) {
      error_ = "timed out waiting for a token";
      return false;
    }
    const int slice = static_cast<int>(std::min<std::int64_t>(left_ns / 1'000'000 + 1, 100));
    if (!pump(slice)) return false;
  }
}

}  // namespace acrobat::net
