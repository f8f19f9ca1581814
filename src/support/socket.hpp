// Unix-domain stream sockets + length-prefixed framing — the transport of
// the b2h-serve wire protocol (src/serve/).
//
// Frame format: a 4-byte little-endian payload length, then the payload
// (JSON text by convention; the framing layer is content-agnostic).  The
// length is bounded by a per-endpoint cap so a hostile or corrupted prefix
// can never cause an unbounded allocation: an oversized prefix is reported
// as kOversized (the server answers with a structured error and drops only
// that connection — regression-tested in test_serve).
//
// All helpers are EINTR-safe, handle short reads/writes, and never raise
// SIGPIPE (sends use MSG_NOSIGNAL).  Read timeouts poll() first so a
// deadline-carrying client can give up without wedging on a dead peer.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

namespace b2h::support {

/// Default frame-size cap: generous for explore reports over the full
/// suite, small enough that a malicious length prefix cannot balloon RSS.
inline constexpr std::uint32_t kDefaultMaxFrameBytes = 8u << 20;

/// Outcome of a framed read.
enum class FrameStatus {
  kOk,         ///< one complete frame delivered
  kClosed,     ///< clean EOF before any frame byte (peer hung up)
  kTruncated,  ///< EOF or a stall past the completion bound mid-frame
  kOversized,  ///< length prefix beyond the cap; stream no longer in sync
  kTimeout,    ///< no frame byte arrived before the timeout (in sync)
  kError,      ///< errno-level failure
};

[[nodiscard]] const char* ToString(FrameStatus status) noexcept;

/// Create, bind, and listen on a unix socket at `path`.  An existing
/// socket file at `path` is unlinked first (the daemon owns its socket
/// path; stale files from a crashed predecessor must not block restart).
/// Returns the listening fd, or -1 with `*error` describing the failure.
[[nodiscard]] int ListenUnix(const std::string& path, int backlog,
                             std::string* error);

/// Connect to a unix socket.  Returns the fd, or -1 with `*error` set.
[[nodiscard]] int ConnectUnix(const std::string& path, std::string* error);

/// Read one frame into `*payload`.  `timeout_ms` bounds only the wait for
/// the frame's first byte (`< 0` blocks indefinitely), so kTimeout always
/// means nothing was consumed.  Once a byte has arrived the rest of the
/// frame must follow within a fixed completion bound (5 s); a peer that
/// stalls longer yields kTruncated.  On kOversized the prefix was consumed
/// but the payload was not — the stream is out of sync and the connection
/// should be closed after any error reply.
[[nodiscard]] FrameStatus ReadFrame(int fd, std::string* payload,
                                    std::uint32_t max_frame_bytes,
                                    int timeout_ms = -1);

/// poll() timeout for a read bounded by `deadline` (null = none: -1,
/// block).  The time left is rounded up to whole ms and clamped at 0, so a
/// reader polls at least once even past its deadline: giving up without
/// polling would ignore bytes that have already arrived.  Both transports
/// (framed and HTTP) follow this rule.
[[nodiscard]] int PollTimeoutMs(
    const std::chrono::steady_clock::time_point* deadline);

/// Write one frame (length prefix + payload).  False on any error,
/// including a payload larger than `max_frame_bytes`.
[[nodiscard]] bool WriteFrame(int fd, std::string_view payload,
                              std::uint32_t max_frame_bytes);

}  // namespace b2h::support
