// Transport layer for the query service: the same JSON-lines protocol over
// two byte streams.
//
//   run_offline   reads request lines from an istream, writes response lines
//                 to an ostream (interleaved in completion order, serialized
//                 by a mutex). This is the stdin/stdout mode — tests, CI,
//                 and `srna-serve --offline` exercise the full service
//                 (admission, deadlines, cache, drain) with no networking.
//   TcpServer     a localhost TCP listener: one accept thread, one reader
//                 thread per connection (it exits, and its memory is freed,
//                 when the connection closes), responses written under a
//                 per-connection mutex as workers complete them (out of
//                 order; clients correlate by id). Malformed lines get an
//                 immediate "error" response rather than killing the
//                 connection. A line longer than kMaxLineBytes gets one
//                 "error" response and then the connection is closed.
//
// Both transports guarantee one response line per request line, in every
// path (parse failure, admission reject, timeout, error, success).
//
// Both also answer in-band admin lines (`{"admin": "metrics" | "healthz" |
// "readyz" | "statz"}`, see serve/admin.hpp) inline, without entering the
// admission queue — the offline mode's stand-in for the HTTP admin listener.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "serve/service.hpp"

namespace srna::serve {

// Drives `service` from a stream of request lines until EOF, then waits for
// every outstanding response before returning. Returns the number of input
// lines consumed (in-band admin lines included). Blank lines are skipped.
std::size_t run_offline(QueryService& service, std::istream& in, std::ostream& out);

class TcpServer {
 public:
  // The generic form: `handler` receives each complete input line plus an
  // emitter for response lines (no trailing newline; callable from any
  // thread, any number of times after the handler returned — the transport
  // keeps the connection's write path alive until the last emitter drops).
  // The distributed router's client-facing listener plugs in here; the
  // QueryService ctor below is this with the standard submit-or-admin line
  // routing.
  using EmitLine = std::function<void(const std::string&)>;
  using LineHandler = std::function<void(const std::string& line, const EmitLine& emit)>;

  // Binds and listens on host:port (port 0 picks an ephemeral port — read it
  // back with port()). Throws std::runtime_error on bind/listen failure.
  TcpServer(LineHandler handler, const std::string& host, std::uint16_t port);
  TcpServer(QueryService& service, const std::string& host, std::uint16_t port);
  ~TcpServer();  // stop()

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  // Longest accepted input line. The buffer of a line that grows past it is
  // dropped, the client gets one "error" response, and the connection is
  // closed: one hostile line cannot make the process buffer without bound.
  static constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

  // Stops accepting, closes every connection, joins all threads. Idempotent.
  // The service itself is NOT drained — that is the caller's decision.
  void stop();

 private:
  struct Connection {
    ~Connection();  // closes fd
    int fd = -1;
    std::mutex write_mutex;  // serializes response lines from worker threads
  };

  void accept_loop();
  void serve_connection(const std::shared_ptr<Connection>& conn);

  LineHandler handler_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;

  // Each reader is in `live_` (its Connection kept alive by the reader)
  // from accept until it is done with the server. A finishing reader moves
  // its own thread into `finished_` and joins the one it displaced, so a
  // closed connection's thread is reaped at once and at most one exited
  // reader waits for its join; stop() waits for `live_` to empty and joins
  // that last one.
  std::mutex mutex_;  // guards live_ / finished_ / stopped_
  std::condition_variable readers_done_;
  std::unordered_map<Connection*, std::thread> live_;
  std::thread finished_;
  bool stopped_ = false;
};

}  // namespace srna::serve
