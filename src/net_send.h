// The frame-send loop of the router <-> shard-worker socketpair (DESIGN.md
// §10), shared by the router's worker proxies (net.cpp) and the worker
// process (net_worker.cpp).
#pragma once

#include <errno.h>
#include <sys/socket.h>

#include <cstdint>
#include <vector>

#include "fault/fault.h"

namespace acrobat::net::detail {

// Sends all of `b` on `fd`, retrying on EINTR; false on any other send
// error. Injected short writes fragment a frame without losing bytes: the
// loop resumes at the next unsent byte, so the peer's FrameReader
// reassembly is what gets exercised.
inline bool send_all(int fd, const std::vector<std::uint8_t>& b, fault::Injector& inject) {
  std::size_t off = 0;
  while (off < b.size()) {
    const std::size_t chunk = inject.clamp_write(b.size() - off);
    const ssize_t n = ::send(fd, b.data() + off, chunk, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace acrobat::net::detail
