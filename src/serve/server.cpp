#include "serve/server.hpp"

#include "serve/admin.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace srna::serve {

namespace {

// Routes one input line and answers through `emit_line` (a raw response
// line, no trailing newline). The line is JSON-parsed once. Exactly one emit
// per call:
//   * `{"admin": "metrics" | "healthz" | "readyz" | "statz"}` lines are answered
//     inline from the admin plane — they never enter the admission queue,
//     so they keep working while the service is overloaded or draining.
//   * parse failures, resolve failures, cache hits and admission rejects
//     answer inline;
//   * accepted requests answer from a worker (the caller tracks outstanding
//     responses itself via emit_line).
void submit_line(QueryService& service, const std::string& line,
                 const std::function<void(const std::string&)>& emit_line) {
  const std::optional<obs::Json> doc = obs::Json::parse(line);
  if (doc) {
    if (const obs::Json* what = doc->find("admin"); what != nullptr && what->is_string()) {
      emit_line(admin_json(service, what->as_string()).dump(0));
      return;
    }
  }
  ServeRequest request;
  try {
    request = request_from_json(doc);
  } catch (const std::exception& e) {
    ServeResponse resp;
    resp.status = ResponseStatus::kError;
    resp.error = e.what();
    emit_line(resp.to_line());
    return;
  }
  // Captured by value: a worker may invoke this after submit_line returned.
  service.submit(std::move(request),
                 [emit_line](const ServeResponse& resp) { emit_line(resp.to_line()); });
}

}  // namespace

TcpServer::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

std::size_t run_offline(QueryService& service, std::istream& in, std::ostream& out) {
  std::mutex out_mutex;
  std::condition_variable all_done;
  std::size_t outstanding = 0;  // guarded by out_mutex

  const auto emit = [&](const std::string& line) {
    std::lock_guard lock(out_mutex);
    out << line << '\n';
    out.flush();
    --outstanding;
    all_done.notify_all();
  };

  std::size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    {
      std::lock_guard lock(out_mutex);
      ++outstanding;
    }
    submit_line(service, line, emit);
  }

  std::unique_lock lock(out_mutex);
  all_done.wait(lock, [&] { return outstanding == 0; });
  return lines;
}

// ------------------------------------------------------------------ TcpServer

TcpServer::TcpServer(QueryService& service, const std::string& host, std::uint16_t port)
    : TcpServer(
          [&service](const std::string& line, const EmitLine& emit) {
            submit_line(service, line, emit);
          },
          host, port) {}

TcpServer::TcpServer(LineHandler handler, const std::string& host, std::uint16_t port)
    : handler_(std::move(handler)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("serve: socket() failed");

  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    throw std::runtime_error("serve: bad listen address '" + host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    throw std::runtime_error("serve: bind(" + host + ":" + std::to_string(port) +
                             ") failed: " + std::strerror(err));
  }
  if (::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    throw std::runtime_error(std::string("serve: listen() failed: ") + std::strerror(err));
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
    port_ = ntohs(bound.sin_port);

  accept_thread_ = std::thread([this] { accept_loop(); });
}

TcpServer::~TcpServer() { stop(); }

void TcpServer::stop() {
  {
    std::lock_guard lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  // shutdown() wakes accept() and every blocked recv(); close() alone is not
  // reliable for that across platforms.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();

  std::unique_lock lock(mutex_);
  for (const auto& [conn, reader] : live_) ::shutdown(conn->fd, SHUT_RDWR);
  readers_done_.wait(lock, [&] { return live_.empty(); });
  std::thread last = std::move(finished_);
  lock.unlock();
  if (last.joinable()) last.join();
}

void TcpServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed (stop) or fatal; either way we are done
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    std::lock_guard lock(mutex_);
    if (stopped_) return;  // conn's destructor closes fd
    // Inserted under mutex_, which the reader needs before it can leave.
    Connection* key = conn.get();
    live_.emplace(key, std::thread([this, conn = std::move(conn)] { serve_connection(conn); }));
  }
}

void TcpServer::serve_connection(const std::shared_ptr<Connection>& conn) {
  // In-flight responses may outlive the reader loop (a worker finishes after
  // the client half-closes); the shared_ptr keeps the fd and write mutex
  // alive until the last callback drops its reference. send() failures on a
  // gone peer are ignored — there is nobody left to answer.
  const auto emit = [conn](const std::string& response_line) {
    const std::string line = response_line + "\n";
    std::lock_guard lock(conn->write_mutex);
    std::size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n =
          ::send(conn->fd, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return;
      sent += static_cast<std::size_t>(n);
    }
  };

  std::string buffer;
  char chunk[4096];
  bool oversized = false;
  while (!oversized) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // peer closed or server stopping
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      if (nl - start > kMaxLineBytes) {
        oversized = true;
        break;
      }
      std::string line = buffer.substr(start, nl - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      start = nl + 1;
      if (!line.empty()) handler_(line, emit);
    }
    buffer.erase(0, start);
    oversized = oversized || buffer.size() > kMaxLineBytes;
  }
  if (oversized) {
    ServeResponse resp;
    resp.status = ResponseStatus::kError;
    resp.error = "bad request: line longer than " + std::to_string(kMaxLineBytes) +
                 " bytes; closing the connection";
    emit(resp.to_line());
  }
  // Half-close only: late worker callbacks may still hold the Connection and
  // attempt a send (which now fails cleanly). The fd itself is closed by the
  // Connection destructor once the last reference drops — closing here would
  // race a concurrent send() against fd reuse.
  ::shutdown(conn->fd, SHUT_RDWR);

  // Reap as the connection closes: park this thread for the next reader (or
  // stop()) to join, and join the one parked before it. This is the last
  // touch of `this`; once live_ is empty, stop() may go on.
  std::thread previous;
  {
    std::lock_guard lock(mutex_);
    auto self = live_.extract(conn.get());
    previous = std::exchange(finished_, std::move(self.mapped()));
    if (live_.empty()) readers_done_.notify_all();
  }
  if (previous.joinable()) previous.join();
}

}  // namespace srna::serve
