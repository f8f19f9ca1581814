// Minimal blocking client for the b2h-serve wire protocol, shared by the
// load generator, the CI smoke, and the multi-tenant tests.  One Client is
// one connection; it is NOT thread-safe (frames would interleave) — use
// one Client per thread, which is also how the daemon meters per-connection
// state.
#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "support/error.hpp"
#include "support/socket.hpp"

namespace b2h::serve {

class Client {
 public:
  Client() = default;
  ~Client();

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connect to a serving daemon.  Fails fast when the socket file is
  /// absent or nothing is listening.
  [[nodiscard]] static Result<Client> Connect(const std::string& socket_path);

  /// Send one request frame and wait up to `timeout_ms` (< 0 = forever)
  /// for the response frame.
  [[nodiscard]] Status Call(std::string_view request, std::string* response,
                            int timeout_ms = -1);

  /// Send one request and collect frames until the FINAL response arrives
  /// (the frame carrying "ok"; progress frames carry "progress" instead —
  /// serve/protocol.hpp).  Each progress frame's payload is handed to
  /// `on_progress` (may be null) as it arrives; the final response lands in
  /// `*response`.  `timeout_ms` bounds each individual frame read, so a
  /// streaming explore keeps the effective timeout alive as long as the
  /// daemon keeps talking.
  [[nodiscard]] Status CallStreaming(
      std::string_view request, std::string* response,
      const std::function<void(std::string_view)>& on_progress,
      int timeout_ms = -1);

  /// Send a frame without awaiting a response (pipelining; responses are
  /// returned in request order and can be collected with Receive).
  [[nodiscard]] Status Send(std::string_view request);
  [[nodiscard]] Status Receive(std::string* response, int timeout_ms = -1);

  /// Write a raw byte sequence with NO length prefix — protocol-abuse
  /// helper for the robustness tests (truncated/garbage frames).
  [[nodiscard]] bool SendRaw(std::string_view bytes);

  void Close();

 private:
  int fd_ = -1;
  std::uint32_t max_frame_bytes_ = support::kDefaultMaxFrameBytes;
};

}  // namespace b2h::serve
