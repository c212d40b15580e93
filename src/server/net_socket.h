// Local-socket transport for colgraphd. This header and net_socket.cc are
// the ONLY files in src/ allowed to touch the raw socket(2)/send/recv API
// (repo lint rule [no-raw-socket]) — everything else goes through these
// wrappers, which centralize the concerns raw calls get wrong:
//
//   - poll(2)-based timeouts on connect/accept/read/write, so a hung or
//     malicious peer can never wedge a server worker (reads that starve
//     return Status::DeadlineExceeded and the connection is dropped);
//   - EINTR retry loops around every blocking call;
//   - SIGPIPE suppression (MSG_NOSIGNAL) — a peer closing mid-write is a
//     Status, not a process kill;
//   - failpoints net:connect, net:read_error, net:write_error and
//     net:short_write for chaos tests (short:<B> keeps the first B bytes
//     of a write, then reports an injected IOError — a torn frame).
//
// AF_UNIX only: colgraphd serves local clients (the paper's workloads are
// co-located analytics, not a network service), which keeps the attack
// surface at file-permission granularity.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace colgraph::server {

/// Sleeps the calling thread for `ms` milliseconds (poll(2) with no fds —
/// signal-tolerant, no std::thread dependency). Used for client backoff
/// and the daemon's deterministic test delays.
void SleepMs(uint64_t ms);

/// \brief One connected AF_UNIX stream socket. Move-only; closes on
/// destruction.
class UnixSocket {
 public:
  UnixSocket() = default;
  ~UnixSocket() { Close(); }

  UnixSocket(UnixSocket&& other) noexcept;
  UnixSocket& operator=(UnixSocket&& other) noexcept;
  UnixSocket(const UnixSocket&) = delete;
  UnixSocket& operator=(const UnixSocket&) = delete;

  /// Connects to the listener at `path`, waiting up to `timeout_ms`
  /// (0 = no limit). A missing/refusing socket is Status::Unavailable —
  /// the retryable "server not up / draining" signal.
  [[nodiscard]] static StatusOr<UnixSocket> Connect(const std::string& path,
                                                    uint64_t timeout_ms);

  bool valid() const { return fd_ >= 0; }
  void Close();

  /// Writes all `n` bytes, waiting up to `timeout_ms` for writability per
  /// chunk (0 = no limit). A peer that stops draining the socket is
  /// DeadlineExceeded; a closed peer is IOError.
  [[nodiscard]] Status WriteAll(const void* data, size_t n,
                                uint64_t timeout_ms);

  /// Reads exactly `n` bytes into `buf`, waiting up to `timeout_ms` for
  /// readability per chunk (0 = no limit). Clean EOF before the first byte
  /// is Status::Unavailable ("connection closed by peer" — the normal end
  /// of a request loop, and retryable from a client's perspective); EOF
  /// mid-buffer is IOError (a torn frame); a silent peer is
  /// DeadlineExceeded.
  [[nodiscard]] Status ReadFull(void* buf, size_t n, uint64_t timeout_ms);

  /// Waits (without consuming anything) until a read would not block —
  /// data or EOF pending. DeadlineExceeded on timeout. The daemon's
  /// request loop idles in short WaitReadable ticks so a drain request can
  /// interrupt a connection that is merely being kept alive.
  [[nodiscard]] Status WaitReadable(uint64_t timeout_ms);

  /// Non-blocking peek: true when the peer has closed (or reset) the
  /// connection with no unread byte pending. Lets a request loop tell a
  /// clean close at a request boundary from the start of a request
  /// before it opens any per-request span.
  bool PeerClosed();

  int fd() const { return fd_; }

 private:
  friend class UnixListener;
  explicit UnixSocket(int fd) : fd_(fd) {}

  int fd_ = -1;
};

/// \brief A bound, listening AF_UNIX socket. Unlinks its path on Close so
/// a drained daemon leaves no stale socket file behind. Move-only.
class UnixListener {
 public:
  UnixListener() = default;
  ~UnixListener() { Close(); }

  UnixListener(UnixListener&& other) noexcept;
  UnixListener& operator=(UnixListener&& other) noexcept;
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  /// Binds and listens at `path` (unlinking any stale socket file first).
  /// AF_UNIX paths are limited to ~107 bytes; longer paths are
  /// InvalidArgument.
  [[nodiscard]] static StatusOr<UnixListener> Bind(const std::string& path,
                                                   int backlog);

  /// Waits up to `timeout_ms` for a connection. A timeout returns
  /// DeadlineExceeded — the accept loop's normal "check the stop flag"
  /// tick, not an error.
  [[nodiscard]] StatusOr<UnixSocket> Accept(uint64_t timeout_ms);

  bool valid() const { return fd_ >= 0; }
  void Close();
  const std::string& path() const { return path_; }

 private:
  UnixListener(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_ = -1;
  std::string path_;
};

}  // namespace colgraph::server
