#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "serve/protocol.hpp"

namespace srna::serve {
namespace {

std::map<std::int64_t, ServeResponse> responses_by_id(const std::string& output) {
  std::map<std::int64_t, ServeResponse> out;
  std::istringstream in(output);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const ServeResponse resp = ServeResponse::from_line(line);
    EXPECT_EQ(out.count(resp.id), 0u) << "duplicate response id " << resp.id;
    out[resp.id] = resp;
  }
  return out;
}

TEST(OfflineServer, OneResponsePerRequestLine) {
  QueryService service({});
  std::istringstream in(
      "{\"id\": 1, \"a\": \"((..))\", \"b\": \"(..)\"}\n"
      "\n"
      "{\"id\": 2, \"a\": \"((..))\", \"b\": \"(..)\"}\n"
      "{\"id\": 3, \"nope\": true}\n"
      "{\"id\": 4, \"a\": \"((\", \"b\": \"()\"}\n");
  std::ostringstream out;
  const std::size_t lines = run_offline(service, in, out);
  EXPECT_EQ(lines, 4u);  // the blank line is skipped

  const auto responses = responses_by_id(out.str());
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_EQ(responses.at(1).status, ResponseStatus::kOk);
  EXPECT_EQ(responses.at(2).status, ResponseStatus::kOk);
  // Same pair as id 1: either id 1 finished first (cache hit) or id 2
  // arrived while it was in flight (coalesced) — never a second solve.
  EXPECT_TRUE(responses.at(2).cache_hit || responses.at(2).coalesced);
  // Malformed JSON cannot echo the request id (it was never parsed).
  EXPECT_EQ(responses.at(0).status, ResponseStatus::kError);
  EXPECT_NE(responses.at(0).error.find("unknown field"), std::string::npos);
  EXPECT_EQ(responses.at(4).status, ResponseStatus::kError);
}

TEST(OfflineServer, EmptyInputReturnsImmediately) {
  QueryService service({});
  std::istringstream in("");
  std::ostringstream out;
  EXPECT_EQ(run_offline(service, in, out), 0u);
  EXPECT_TRUE(out.str().empty());
}

// Minimal blocking client for the TCP tests.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_line(const std::string& line) {
    const std::string framed = line + "\n";
    ASSERT_EQ(::send(fd_, framed.data(), framed.size(), 0),
              static_cast<ssize_t>(framed.size()));
  }

  // Unframed bytes; a peer that closed early fails the send, not the test.
  bool send_raw(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  std::string read_line() {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        const std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[1024];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return {};
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

TEST(TcpServer, ServesRequestsOnAnEphemeralPort) {
  QueryService service({});
  TcpServer server(service, "127.0.0.1", 0);
  ASSERT_GT(server.port(), 0);

  TestClient client(server.port());
  ServeRequest req;
  req.id = 11;
  req.a = "((..))";
  req.b = "(..)";
  client.send_line(req.to_line());
  const ServeResponse resp = ServeResponse::from_line(client.read_line());
  EXPECT_EQ(resp.id, 11);
  EXPECT_EQ(resp.status, ResponseStatus::kOk);

  // Malformed line: connection survives, error response comes back.
  client.send_line("not json");
  EXPECT_EQ(ServeResponse::from_line(client.read_line()).status, ResponseStatus::kError);
  client.send_line(req.to_line());
  const ServeResponse again = ServeResponse::from_line(client.read_line());
  EXPECT_EQ(again.status, ResponseStatus::kOk);
  EXPECT_TRUE(again.cache_hit);

  server.stop();
  service.drain();
}

TEST(TcpServer, MultipleConnectionsAreIndependent) {
  QueryService service({});
  TcpServer server(service, "127.0.0.1", 0);

  TestClient c1(server.port());
  TestClient c2(server.port());
  ServeRequest req;
  req.a = "((..))";
  req.b = "((..))";
  req.id = 1;
  c1.send_line(req.to_line());
  req.id = 2;
  c2.send_line(req.to_line());
  EXPECT_EQ(ServeResponse::from_line(c1.read_line()).id, 1);
  EXPECT_EQ(ServeResponse::from_line(c2.read_line()).id, 2);

  server.stop();  // idempotent with the destructor
  server.stop();
}

// The number of memory mappings of this process. A thread that exited but
// was never joined keeps its stack mapped; RSS would show the same leak, but
// a sanitizer's allocator quarantine moves RSS by more.
std::size_t mapping_count() {
  std::ifstream in("/proc/self/maps");
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  return lines;
}

// One field of /proc/self/status (e.g. "Threads"), 0 if absent.
std::uint64_t proc_status(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(field + ":", 0) == 0) return std::stoull(line.substr(field.size() + 1));
  return 0;
}

ServeRequest small_request(std::int64_t id) {
  ServeRequest req;
  req.id = id;
  req.a = "((..))";
  req.b = "(..)";
  return req;
}

TEST(TcpServer, ConnectionChurnDoesNotGrowThreadsOrMemory) {
  QueryService service({});
  TcpServer server(service, "127.0.0.1", 0);
  const auto settle = [](std::uint64_t threads) {
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (proc_status("Threads") > threads && std::chrono::steady_clock::now() < give_up)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return proc_status("Threads");
  };
  // Workers, the deadline monitor and the acceptor; no connection yet.
  const std::uint64_t threads_idle = proc_status("Threads");
  {
    // Warm up: the cache entry, allocator arenas, the first reader's stack.
    TestClient client(server.port());
    client.send_line(small_request(0).to_line());
    ASSERT_EQ(ServeResponse::from_line(client.read_line()).status, ResponseStatus::kOk);
  }
  ASSERT_EQ(settle(threads_idle), threads_idle);
  const std::size_t mappings_before = mapping_count();

  constexpr int kConnections = 2000;
  for (int i = 1; i <= kConnections; ++i) {
    TestClient client(server.port());
    client.send_line(small_request(i).to_line());
    const ServeResponse resp = ServeResponse::from_line(client.read_line());
    ASSERT_EQ(resp.id, i);
    ASSERT_EQ(resp.status, ResponseStatus::kOk);
  }

  // Every reader exits once its client closes; nothing waits for stop().
  EXPECT_EQ(settle(threads_idle), threads_idle);
  // A reader kept until stop() keeps its stack (two mappings with the guard
  // page); 2000 of them would add about 4000.
  EXPECT_LT(mapping_count(), mappings_before + 200);
  server.stop();
}

TEST(TcpServer, OverlongLineGetsOneErrorThenACloseAndTheNextConnectionIsServed) {
  QueryService service({});
  TcpServer server(service, "127.0.0.1", 0);
  {
    TestClient hostile(server.port());
    ASSERT_TRUE(hostile.send_raw(std::string(TcpServer::kMaxLineBytes + 1, 'x')));
    const ServeResponse resp = ServeResponse::from_line(hostile.read_line());
    EXPECT_EQ(resp.status, ResponseStatus::kError);
    EXPECT_NE(resp.error.find("longer than"), std::string::npos) << resp.error;
    EXPECT_EQ(hostile.read_line(), "") << "the connection must be closed";
  }
  TestClient next(server.port());
  next.send_line(small_request(7).to_line());
  const ServeResponse resp = ServeResponse::from_line(next.read_line());
  EXPECT_EQ(resp.id, 7);
  EXPECT_EQ(resp.status, ResponseStatus::kOk);
  server.stop();
}

TEST(TcpServer, HostileLinesGetErrorResponsesAndTheConnectionSurvives) {
  QueryService service({});
  TcpServer server(service, "127.0.0.1", 0);
  const std::string hostile[] = {
      std::string(300000, '['),                           // deep nesting
      std::string(200000, '{'),
      "{\"id\": 1, \"a\": \"((..))\", \"b\": " + std::string(5000, '[') + "}",
      "{\"id\": 1e999999, \"a\": \"()\", \"b\": \"()\"}",          // huge number
      "{\"id\": 99999999999999999999999999, \"a\": \"()\", \"b\": \"(\xff\xfe)\"}",
      "{\"a\": \"\xc3\x28\", \"b\": \"\xed\xa0\x80\"}",                   // invalid UTF-8
      "\x01\x02\x7f\x80\xff",
  };
  TestClient client(server.port());
  for (const std::string& line : hostile) {
    client.send_line(line);
    const std::string reply = client.read_line();
    ASSERT_FALSE(reply.empty()) << "no answer to a hostile line";
    EXPECT_EQ(ServeResponse::from_line(reply).status, ResponseStatus::kError) << reply;
  }
  client.send_line(small_request(8).to_line());
  EXPECT_EQ(ServeResponse::from_line(client.read_line()).status, ResponseStatus::kOk);
  TestClient next(server.port());
  next.send_line(small_request(9).to_line());
  EXPECT_EQ(ServeResponse::from_line(next.read_line()).status, ResponseStatus::kOk);
  server.stop();
}

}  // namespace
}  // namespace srna::serve
