#include "support/socket.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>

namespace b2h::support {

namespace {

using Clock = std::chrono::steady_clock;

/// How long the rest of a frame may take once its first byte has arrived.
/// The caller's timeout only bounds the wait for that first byte (an idle
/// connection); a peer that stalls mid-frame past this bound is treated as
/// dead, so a reader never resumes mid-frame and desyncs the stream.
constexpr std::chrono::milliseconds kFrameCompletionBound{5000};

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

bool FillSockaddr(const std::string& path, sockaddr_un* addr,
                  std::string* error) {
  std::memset(addr, 0, sizeof *addr);
  addr->sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof addr->sun_path) {
    *error = "socket path empty or too long (max " +
             std::to_string(sizeof addr->sun_path - 1) +
             " bytes): " + path;
    return false;
  }
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

enum class IoStatus { kOk, kEof, kTimeout, kError };

/// Read exactly `size` bytes; respects an optional absolute deadline.
IoStatus ReadExact(int fd, void* buffer, std::size_t size,
                   const Clock::time_point* deadline) {
  auto* out = static_cast<char*>(buffer);
  std::size_t done = 0;
  while (done < size) {
    pollfd pfd{fd, POLLIN, 0};
    const int polled = ::poll(&pfd, 1, PollTimeoutMs(deadline));
    if (polled == 0) return IoStatus::kTimeout;
    if (polled < 0) {
      if (errno == EINTR) continue;
      return IoStatus::kError;
    }
    const ssize_t n = ::recv(fd, out + done, size - done, 0);
    if (n == 0) return IoStatus::kEof;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return IoStatus::kError;
    }
    done += static_cast<std::size_t>(n);
  }
  return IoStatus::kOk;
}

}  // namespace

int PollTimeoutMs(const Clock::time_point* deadline) {
  if (deadline == nullptr) return -1;
  const auto remaining = std::chrono::ceil<std::chrono::milliseconds>(
                             *deadline - Clock::now()).count();
  return static_cast<int>(std::clamp<std::int64_t>(
      remaining, 0, std::numeric_limits<int>::max()));
}

const char* ToString(FrameStatus status) noexcept {
  switch (status) {
    case FrameStatus::kOk: return "ok";
    case FrameStatus::kClosed: return "closed";
    case FrameStatus::kTruncated: return "truncated";
    case FrameStatus::kOversized: return "oversized";
    case FrameStatus::kTimeout: return "timeout";
    case FrameStatus::kError: return "error";
  }
  return "error";
}

int ListenUnix(const std::string& path, int backlog, std::string* error) {
  sockaddr_un addr;
  if (!FillSockaddr(path, &addr, error)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = Errno("socket");
    return -1;
  }
  // A stale socket file from a crashed predecessor would make bind fail
  // with EADDRINUSE forever; the daemon owns its path, so reclaim it.
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    *error = Errno("bind");
    ::close(fd);
    return -1;
  }
  if (::listen(fd, backlog) < 0) {
    *error = Errno("listen");
    ::close(fd);
    ::unlink(path.c_str());
    return -1;
  }
  return fd;
}

int ConnectUnix(const std::string& path, std::string* error) {
  sockaddr_un addr;
  if (!FillSockaddr(path, &addr, error)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = Errno("socket");
    return -1;
  }
  while (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr) < 0) {
    if (errno == EINTR) continue;
    *error = Errno("connect");
    ::close(fd);
    return -1;
  }
  return fd;
}

FrameStatus ReadFrame(int fd, std::string* payload,
                      std::uint32_t max_frame_bytes, int timeout_ms) {
  // Wait for the first byte under the caller's timeout: running out here
  // consumed nothing, so kTimeout leaves the stream in sync.
  const Clock::time_point idle_deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  unsigned char prefix[4];
  switch (ReadExact(fd, prefix, 1, timeout_ms >= 0 ? &idle_deadline
                                                   : nullptr)) {
    case IoStatus::kOk: break;
    case IoStatus::kEof: return FrameStatus::kClosed;
    case IoStatus::kTimeout: return FrameStatus::kTimeout;
    case IoStatus::kError: return FrameStatus::kError;
  }
  // The frame has started: the rest must follow within the completion
  // bound, and running out now is a truncation, never an idle timeout.
  const Clock::time_point completion = Clock::now() + kFrameCompletionBound;
  switch (ReadExact(fd, prefix + 1, sizeof prefix - 1, &completion)) {
    case IoStatus::kOk: break;
    case IoStatus::kEof:
    case IoStatus::kTimeout: return FrameStatus::kTruncated;
    case IoStatus::kError: return FrameStatus::kError;
  }
  const std::uint32_t length = static_cast<std::uint32_t>(prefix[0]) |
                               (static_cast<std::uint32_t>(prefix[1]) << 8) |
                               (static_cast<std::uint32_t>(prefix[2]) << 16) |
                               (static_cast<std::uint32_t>(prefix[3]) << 24);
  if (length > max_frame_bytes) return FrameStatus::kOversized;
  payload->resize(length);
  if (length == 0) return FrameStatus::kOk;
  switch (ReadExact(fd, payload->data(), length, &completion)) {
    case IoStatus::kOk: return FrameStatus::kOk;
    case IoStatus::kEof:
    case IoStatus::kTimeout: return FrameStatus::kTruncated;
    case IoStatus::kError: return FrameStatus::kError;
  }
  return FrameStatus::kError;
}

bool WriteFrame(int fd, std::string_view payload,
                std::uint32_t max_frame_bytes) {
  if (payload.size() > max_frame_bytes) return false;
  const auto length = static_cast<std::uint32_t>(payload.size());
  const unsigned char prefix[4] = {
      static_cast<unsigned char>(length & 0xFF),
      static_cast<unsigned char>((length >> 8) & 0xFF),
      static_cast<unsigned char>((length >> 16) & 0xFF),
      static_cast<unsigned char>((length >> 24) & 0xFF),
  };
  // Queue prefix + payload with one writev: a receiver that rejects the
  // frame on the prefix alone (oversized) and hangs up must not be able to
  // EPIPE a sender caught between two separate sends.
  iovec parts[2] = {
      {const_cast<unsigned char*>(prefix), sizeof prefix},
      {const_cast<char*>(payload.data()), payload.size()},
  };
  msghdr msg{};
  msg.msg_iov = parts;
  msg.msg_iovlen = payload.empty() ? 1 : 2;
  std::size_t done = 0;
  const std::size_t total = sizeof prefix + payload.size();
  while (true) {
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
    if (done >= total) return true;
    // Partial write (frame larger than the socket buffer): advance the iovec.
    std::size_t skip = done;
    if (skip < sizeof prefix) {
      parts[0] = {const_cast<unsigned char*>(prefix) + skip,
                  sizeof prefix - skip};
      parts[1] = {const_cast<char*>(payload.data()), payload.size()};
      msg.msg_iov = parts;
      msg.msg_iovlen = payload.empty() ? 1 : 2;
    } else {
      skip -= sizeof prefix;
      parts[0] = {const_cast<char*>(payload.data()) + skip,
                  payload.size() - skip};
      msg.msg_iov = parts;
      msg.msg_iovlen = 1;
    }
  }
}

}  // namespace b2h::support
