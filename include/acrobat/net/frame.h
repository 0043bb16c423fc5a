// acrobat/net wire protocol (DESIGN.md §10): small length-prefixed binary
// frames over TCP or UNIX-domain stream sockets.
//
// Every frame is an 8-byte header followed by `len` payload bytes:
//
//   u32 len   — payload bytes after the header (bounded: kMaxPayload)
//   u8  type  — FrameType
//   u8  flags — type-specific bits (request: bit0 = stream per-token frames)
//   u16 aux   — type-specific small field (worker-mode: degraded bit)
//
// Integers are little-endian; floats are IEEE-754 bit patterns. The
// protocol is host-local by design (loopback TCP or UDS between processes
// on one machine), so there is no cross-endian negotiation — the parity
// tests' bitwise-output contract relies on the bits crossing the wire
// untouched.
//
// The same framing carries both the client-facing protocol (kRequest /
// kDone / kToken / kRetry / kError) and the router↔shard-worker protocol of
// the multi-process fleet: a worker gets kRequest and answers kToken and
// kDone, each with the router's slot id in the id field, and the kWorker*
// frames carry control. FrameReader is an incremental parser:
// feed it whatever recv returned — any fragmentation, including one byte at
// a time — and it yields complete frames in order, faulting loudly on an
// oversized or malformed header instead of buffering unboundedly.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

namespace acrobat::net {

enum class FrameType : std::uint8_t {
  // client → server
  kRequest = 1,  // u32 req_id, u32 input_index, u16 model_id, u8 class, u8 pad
  // server → client
  kDone = 2,   // u32 req_id, u32 tokens, u8 cancelled, u8 pad[3],
               // u32 n_floats, f32[n_floats]
  kToken = 3,  // u32 req_id, u32 ordinal — streamed per decode token
  kRetry = 4,  // u32 req_id — admission queue full: retry later (the 429)
  kError = 5,  // u32 req_id, u32 code (ErrorCode)
  // router ↔ shard worker control (multi-process fleet, over a UDS
  // socketpair; requests and results travel as kRequest, kToken and kDone)
  kWorkerCancel = 11, // u32 slot — cancel a live session mid-stream
  kWorkerPing = 12,   // liveness probe (router → worker)
  kWorkerPong = 13,   // liveness reply (worker → router)
  kWorkerDrain = 14,  // finish in-flight work, reply kWorkerBye, exit
  kWorkerBye = 15,    // u32 requests, u64 tokens — drain acknowledgement
  kWorkerMode = 16,   // empty payload; aux bit0 = degraded-mode on/off
};

enum class ErrorCode : std::uint32_t {
  kWorkerDied = 1,   // the shard process serving this request exited
  kUnavailable = 2,  // no live shard worker to route to
  kBadRequest = 3,   // malformed request fields (model id / input index)
};

inline constexpr std::size_t kHeaderBytes = 8;
// Payload bound: a done-frame for any model output fits with huge margin;
// anything larger is a corrupt header, not a legitimate frame.
inline constexpr std::uint32_t kMaxPayload = 1u << 24;

// Request frame flag bits.
inline constexpr std::uint8_t kFlagStream = 1;

struct Frame {
  FrameType type = FrameType::kRequest;
  std::uint8_t flags = 0;
  std::uint16_t aux = 0;
  std::vector<std::uint8_t> payload;
};

// ------------------------------------------------------------- encode side

namespace wire {

inline void put_u16(std::vector<std::uint8_t>& b, std::uint16_t v) {
  b.push_back(static_cast<std::uint8_t>(v));
  b.push_back(static_cast<std::uint8_t>(v >> 8));
}
inline void put_u32(std::vector<std::uint8_t>& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
inline void put_u64(std::vector<std::uint8_t>& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
inline std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
inline std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}
inline std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

}  // namespace wire

// Appends one complete frame (header + payload) to `out`.
inline void encode_frame(std::vector<std::uint8_t>& out, FrameType type,
                         const std::uint8_t* payload, std::size_t len,
                         std::uint8_t flags = 0, std::uint16_t aux = 0) {
  wire::put_u32(out, static_cast<std::uint32_t>(len));
  out.push_back(static_cast<std::uint8_t>(type));
  out.push_back(flags);
  wire::put_u16(out, aux);
  out.insert(out.end(), payload, payload + len);
}

// Typed encoders: the whole protocol surface in one place, shared by the
// server, the client library, and the shard-worker loop.

inline void encode_request(std::vector<std::uint8_t>& out, std::uint32_t req_id,
                           std::uint32_t input_index, std::uint16_t model_id,
                           std::uint8_t latency_class, bool stream) {
  std::vector<std::uint8_t> p;
  p.reserve(12);
  wire::put_u32(p, req_id);
  wire::put_u32(p, input_index);
  wire::put_u16(p, model_id);
  p.push_back(latency_class);
  p.push_back(0);
  encode_frame(out, FrameType::kRequest, p.data(), p.size(),
               stream ? kFlagStream : 0);
}

inline void encode_done(std::vector<std::uint8_t>& out, FrameType type,
                        std::uint32_t id, std::uint32_t tokens, bool cancelled,
                        const float* data, std::size_t n_floats) {
  std::vector<std::uint8_t> p;
  p.reserve(16 + n_floats * 4);
  wire::put_u32(p, id);
  wire::put_u32(p, tokens);
  p.push_back(cancelled ? 1 : 0);
  p.push_back(0);
  p.push_back(0);
  p.push_back(0);
  wire::put_u32(p, static_cast<std::uint32_t>(n_floats));
  const std::size_t off = p.size();
  p.resize(off + n_floats * 4);
  if (n_floats > 0) std::memcpy(p.data() + off, data, n_floats * 4);
  encode_frame(out, type, p.data(), p.size());
}

inline void encode_id_pair(std::vector<std::uint8_t>& out, FrameType type,
                           std::uint32_t id, std::uint32_t value) {
  std::vector<std::uint8_t> p;
  p.reserve(8);
  wire::put_u32(p, id);
  wire::put_u32(p, value);
  encode_frame(out, type, p.data(), p.size());
}

inline void encode_id_only(std::vector<std::uint8_t>& out, FrameType type,
                           std::uint32_t id) {
  std::vector<std::uint8_t> p;
  p.reserve(4);
  wire::put_u32(p, id);
  encode_frame(out, type, p.data(), p.size());
}

inline void encode_empty(std::vector<std::uint8_t>& out, FrameType type) {
  encode_frame(out, type, nullptr, 0);
}

// Decoded request/done payload views (parse helpers for both directions).
struct RequestFields {
  std::uint32_t id = 0;  // client req_id or router slot id
  std::uint32_t input_index = 0;
  std::uint16_t model_id = 0;
  std::uint8_t latency_class = 0;
  bool stream = false;
};

inline bool parse_request(const Frame& f, RequestFields& out) {
  if (f.payload.size() < 12) return false;
  out.id = wire::get_u32(f.payload.data());
  out.input_index = wire::get_u32(f.payload.data() + 4);
  out.model_id = wire::get_u16(f.payload.data() + 8);
  out.latency_class = f.payload[10];
  out.stream = (f.flags & kFlagStream) != 0;
  return true;
}

struct DoneFields {
  std::uint32_t id = 0;
  std::uint32_t tokens = 0;
  bool cancelled = false;
  const float* data = nullptr;  // points into the frame payload
  std::uint32_t n_floats = 0;
};

inline bool parse_done(const Frame& f, DoneFields& out) {
  if (f.payload.size() < 16) return false;
  out.id = wire::get_u32(f.payload.data());
  out.tokens = wire::get_u32(f.payload.data() + 4);
  out.cancelled = f.payload[8] != 0;
  out.n_floats = wire::get_u32(f.payload.data() + 12);
  if (f.payload.size() != 16 + static_cast<std::size_t>(out.n_floats) * 4) return false;
  out.data = reinterpret_cast<const float*>(f.payload.data() + 16);
  return true;
}

// ------------------------------------------------------------- decode side

// Incremental frame parser over a byte stream. feed() appends received
// bytes; next() extracts the oldest complete frame. Memory is bounded by
// one frame (kMaxPayload): a header announcing more is a protocol error
// (next() returns kError and the connection should be dropped), never an
// unbounded buffer.
class FrameReader {
 public:
  enum class Status { kFrame, kNeedMore, kError };

  void feed(const std::uint8_t* data, std::size_t len) {
    buf_.insert(buf_.end(), data, data + len);
  }

  Status next(Frame& out) {
    if (buf_.size() - off_ < kHeaderBytes) {
      compact();
      return Status::kNeedMore;
    }
    const std::uint8_t* h = buf_.data() + off_;
    const std::uint32_t len = wire::get_u32(h);
    if (len > kMaxPayload) return Status::kError;
    if (buf_.size() - off_ < kHeaderBytes + len) {
      compact();
      return Status::kNeedMore;
    }
    out.type = static_cast<FrameType>(h[4]);
    out.flags = h[5];
    out.aux = wire::get_u16(h + 6);
    out.payload.assign(h + kHeaderBytes, h + kHeaderBytes + len);
    off_ += kHeaderBytes + len;
    return Status::kFrame;
  }

  std::size_t buffered() const { return buf_.size() - off_; }

  // Discard all buffered bytes (reconnect / post-error resync): the next
  // feed() starts parsing at a frame boundary again.
  void reset() {
    buf_.clear();
    off_ = 0;
  }

 private:
  // Consumed prefix is dropped lazily (amortized O(1) per byte): only once
  // it dominates the buffer, so steady-state parsing never memmoves per
  // frame.
  void compact() {
    if (off_ > 4096 && off_ * 2 > buf_.size()) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(off_));
      off_ = 0;
    }
  }

  std::vector<std::uint8_t> buf_;
  std::size_t off_ = 0;
};

}  // namespace acrobat::net
