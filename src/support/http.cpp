#include "support/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "support/socket.hpp"

namespace b2h::support {

namespace {

using Clock = std::chrono::steady_clock;

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

enum class IoStatus { kOk, kEof, kTimeout, kError };

/// Read some bytes (at least one) into `out`; respects an optional
/// absolute deadline.  Same poll-then-recv shape and deadline rule
/// (PollTimeoutMs) as the framed transport.
IoStatus RecvSome(int fd, std::string* out,
                  const Clock::time_point* deadline) {
  char buffer[4096];
  while (true) {
    pollfd pfd{fd, POLLIN, 0};
    const int polled = ::poll(&pfd, 1, PollTimeoutMs(deadline));
    if (polled == 0) return IoStatus::kTimeout;
    if (polled < 0) {
      if (errno == EINTR) continue;
      return IoStatus::kError;
    }
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n == 0) return IoStatus::kEof;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return IoStatus::kError;
    }
    out->append(buffer, static_cast<std::size_t>(n));
    return IoStatus::kOk;
  }
}

bool SendAll(int fd, std::string_view data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + done, data.size() - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

std::string_view Trim(std::string_view text) {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(
      static_cast<unsigned char>(c)));
  return out;
}

/// Parse the header block (everything before the blank line, CRLF line
/// endings; a bare LF is tolerated).  False on a malformed request line or
/// header.
bool ParseHeaderBlock(std::string_view block, HttpRequest* request) {
  std::size_t pos = 0;
  bool first_line = true;
  while (pos < block.size()) {
    std::size_t eol = block.find('\n', pos);
    if (eol == std::string_view::npos) eol = block.size();
    std::string_view line = block.substr(pos, eol - pos);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    pos = eol + 1;
    if (line.empty()) continue;
    if (first_line) {
      // request-line: METHOD SP request-target SP HTTP-version
      const std::size_t sp1 = line.find(' ');
      const std::size_t sp2 =
          sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
      if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
        return false;
      }
      request->method = std::string(line.substr(0, sp1));
      request->target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
      const std::string_view version = line.substr(sp2 + 1);
      if (request->method.empty() || request->target.empty() ||
          version.substr(0, 5) != "HTTP/") {
        return false;
      }
      first_line = false;
      continue;
    }
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) return false;
    request->headers.emplace_back(ToLower(Trim(line.substr(0, colon))),
                                  std::string(Trim(line.substr(colon + 1))));
  }
  return !first_line;  // a block with no request line is malformed
}

}  // namespace

const char* ToString(HttpStatus status) noexcept {
  switch (status) {
    case HttpStatus::kOk: return "ok";
    case HttpStatus::kClosed: return "closed";
    case HttpStatus::kMalformed: return "malformed";
    case HttpStatus::kOversized: return "oversized";
    case HttpStatus::kTimeout: return "timeout";
    case HttpStatus::kError: return "error";
  }
  return "error";
}

std::string_view HttpRequest::Header(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return value;
  }
  return {};
}

int ListenTcp(std::uint16_t port, int backlog, std::uint16_t* bound_port,
              std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = Errno("socket");
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    *error = Errno("bind");
    ::close(fd);
    return -1;
  }
  if (::listen(fd, backlog) < 0) {
    *error = Errno("listen");
    ::close(fd);
    return -1;
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) <
      0) {
    *error = Errno("getsockname");
    ::close(fd);
    return -1;
  }
  if (bound_port != nullptr) *bound_port = ntohs(bound.sin_port);
  return fd;
}

int ConnectTcp(std::uint16_t port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = Errno("socket");
    return -1;
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  while (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr) < 0) {
    if (errno == EINTR) continue;
    *error = Errno("connect");
    ::close(fd);
    return -1;
  }
  return fd;
}

HttpStatus ReadHttpRequest(int fd, HttpRequest* request,
                           std::size_t max_body_bytes, int timeout_ms) {
  Clock::time_point deadline_storage;
  const Clock::time_point* deadline = nullptr;
  if (timeout_ms >= 0) {
    deadline_storage = Clock::now() + std::chrono::milliseconds(timeout_ms);
    deadline = &deadline_storage;
  }

  // Accumulate until the blank line that ends the header block; the cap
  // keeps an endless header stream from growing the buffer unboundedly.
  std::string buffer;
  std::size_t header_end = std::string::npos;
  std::size_t body_start = 0;
  while (true) {
    header_end = buffer.find("\r\n\r\n");
    body_start = header_end + 4;
    if (header_end == std::string::npos) {
      header_end = buffer.find("\n\n");
      body_start = header_end + 2;
    }
    if (header_end != std::string::npos) break;
    if (buffer.size() > kMaxHttpHeaderBytes) return HttpStatus::kOversized;
    switch (RecvSome(fd, &buffer, deadline)) {
      case IoStatus::kOk: break;
      case IoStatus::kEof:
        return buffer.empty() ? HttpStatus::kClosed : HttpStatus::kMalformed;
      case IoStatus::kTimeout: return HttpStatus::kTimeout;
      case IoStatus::kError: return HttpStatus::kError;
    }
  }

  request->headers.clear();
  request->body.clear();
  if (!ParseHeaderBlock(std::string_view(buffer).substr(0, header_end),
                        request)) {
    return HttpStatus::kMalformed;
  }

  const std::string_view length_text = request->Header("content-length");
  std::size_t body_length = 0;
  if (!length_text.empty()) {
    for (const char c : length_text) {
      if (c < '0' || c > '9') return HttpStatus::kMalformed;
      body_length = body_length * 10 + static_cast<std::size_t>(c - '0');
      if (body_length > max_body_bytes) return HttpStatus::kOversized;
    }
  }
  request->body = buffer.substr(std::min(body_start, buffer.size()));
  if (request->body.size() > body_length) return HttpStatus::kMalformed;
  while (request->body.size() < body_length) {
    switch (RecvSome(fd, &request->body, deadline)) {
      case IoStatus::kOk: break;
      case IoStatus::kEof: return HttpStatus::kMalformed;
      case IoStatus::kTimeout: return HttpStatus::kTimeout;
      case IoStatus::kError: return HttpStatus::kError;
    }
    if (request->body.size() > body_length) return HttpStatus::kMalformed;
  }
  return HttpStatus::kOk;
}

bool WriteHttpResponse(int fd, int status_code, std::string_view reason,
                       std::string_view content_type, std::string_view body) {
  std::string head = "HTTP/1.1 " + std::to_string(status_code) + " " +
                     std::string(reason) + "\r\n";
  head += "Content-Type: " + std::string(content_type) + "\r\n";
  head += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  head += "Connection: close\r\n\r\n";
  if (!SendAll(fd, head)) return false;
  return body.empty() || SendAll(fd, body);
}

bool HttpCall(std::uint16_t port, std::string_view method,
              std::string_view target, std::string_view body,
              HttpResponse* response, int timeout_ms) {
  std::string error;
  const int fd = ConnectTcp(port, &error);
  if (fd < 0) return false;

  std::string request = std::string(method) + " " + std::string(target) +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  request += "Content-Type: application/json\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  request += "Connection: close\r\n\r\n";
  request += body;
  if (!SendAll(fd, request)) {
    ::close(fd);
    return false;
  }

  Clock::time_point deadline_storage;
  const Clock::time_point* deadline = nullptr;
  if (timeout_ms >= 0) {
    deadline_storage = Clock::now() + std::chrono::milliseconds(timeout_ms);
    deadline = &deadline_storage;
  }
  // `Connection: close` means the response ends at EOF — no need to honor
  // Content-Length on the read side.
  std::string buffer;
  bool eof = false;
  while (!eof) {
    switch (RecvSome(fd, &buffer, deadline)) {
      case IoStatus::kOk: break;
      case IoStatus::kEof: eof = true; break;
      case IoStatus::kTimeout:
      case IoStatus::kError:
        ::close(fd);
        return false;
    }
  }
  ::close(fd);

  // "HTTP/1.1 NNN reason\r\n...headers...\r\n\r\nbody"
  constexpr std::string_view kVersion = "HTTP/1.1 ";
  if (buffer.size() < kVersion.size() + 3 ||
      std::string_view(buffer).substr(0, kVersion.size()) != kVersion) {
    return false;
  }
  int code = 0;
  for (std::size_t i = kVersion.size(); i < kVersion.size() + 3; ++i) {
    if (buffer[i] < '0' || buffer[i] > '9') return false;
    code = code * 10 + (buffer[i] - '0');
  }
  std::size_t header_end = buffer.find("\r\n\r\n");
  std::size_t body_start = header_end + 4;
  if (header_end == std::string::npos) {
    header_end = buffer.find("\n\n");
    body_start = header_end + 2;
  }
  if (header_end == std::string::npos) return false;
  response->status_code = code;
  response->body = buffer.substr(std::min(body_start, buffer.size()));
  return true;
}

}  // namespace b2h::support
