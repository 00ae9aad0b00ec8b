// End-to-end router semantics (src/dist/router.hpp) against real in-process
// shards (QueryService + TcpServer + AdminServer per shard, loopback TCP all
// the way):
//
//   * routed response bytes equal direct-serving bytes (modulo trace/timing)
//   * the canonical pair digest rides every response, routed or not
//   * exactly one response per accepted request across a shard kill
//   * explicit retryable rejection when no shard can answer
//   * deterministic routing verdicts (route_of)
#include "dist/router.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dist/net.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "rna/dot_bracket.hpp"
#include "rna/generators.hpp"
#include "rna/structure_hash.hpp"
#include "serve/admin.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace srna::dist {
namespace {

serve::ServiceConfig small_service_config() {
  serve::ServiceConfig config;
  config.workers = 2;
  config.queue_capacity = 32;
  config.cache.capacity = 64;
  return config;
}

// One in-process shard: the same three servers srna-serve runs.
struct Shard {
  explicit Shard(const std::string& name) {
    service = std::make_unique<serve::QueryService>(small_service_config());
    server = std::make_unique<serve::TcpServer>(*service, "127.0.0.1", 0);
    admin = std::make_unique<serve::AdminServer>(*service, "127.0.0.1", 0);
    address.name = name;
    address.data = {"127.0.0.1", server->port()};
    address.admin = {"127.0.0.1", admin->port()};
  }

  // A "crash": both listeners vanish, connections reset. The service object
  // stays alive so in-flight solves complete into closed sockets — exactly
  // what a SIGKILLed shard looks like from the router's side of the wire.
  void kill() {
    server->stop();
    admin->stop();
  }

  std::unique_ptr<serve::QueryService> service;
  std::unique_ptr<serve::TcpServer> server;
  std::unique_ptr<serve::AdminServer> admin;
  ShardAddress address;
};

// Blocking JSON-lines client; supports pipelining (send many, read many).
class LineClient {
 public:
  explicit LineClient(std::uint16_t port) {
    fd_ = tcp_connect(Endpoint{"127.0.0.1", port}, 15000);
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  [[nodiscard]] bool connected() const { return fd_ >= 0; }
  [[nodiscard]] bool send_line(const std::string& line) {
    return send_all(fd_, line + "\n");
  }
  [[nodiscard]] bool send_raw(const std::string& bytes) { return send_all(fd_, bytes); }

  // One line, or nullopt on EOF / 15s receive timeout (tests fail loudly
  // instead of hanging).
  std::optional<std::string> recv_line() {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  std::optional<std::string> roundtrip(const std::string& line) {
    if (!send_line(line)) return std::nullopt;
    return recv_line();
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

// Rebuilds a response line without its volatile fields (trace identity and
// wall-clock timings differ run to run; everything else must match).
std::string stripped(const std::string& line) {
  const std::optional<obs::Json> doc = obs::Json::parse(line);
  if (!doc || !doc->is_object()) return line;
  static const std::set<std::string> kVolatile = {"trace_id", "queued_ms", "solve_ms",
                                                  "latency_ms"};
  obs::Json out = obs::Json::object();
  for (const auto& [key, value] : doc->members())
    if (kVolatile.count(key) == 0) out.set(key, value);
  return out.dump(0);
}

std::vector<std::string> test_structures(std::size_t count, Pos length = 40) {
  std::vector<std::string> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    out.push_back(to_dot_bracket(random_structure(length, 0.4, 1234 + 97 * i)));
  return out;
}

std::string request_line(std::int64_t id, const std::string& a, const std::string& b) {
  serve::ServeRequest req;
  req.id = id;
  req.a = a;
  req.b = b;
  return req.to_line();
}

RouterConfig fast_probe_config(const std::vector<ShardAddress>& shards) {
  RouterConfig config;
  config.shards = shards;
  config.probe.interval_ms = 50;
  config.connect_timeout_ms = 250;
  return config;
}

TEST(Router, RoutedBytesEqualDirectServingBytes) {
  // Two identical single-shard universes: one naked, one behind the router.
  // Identical request sequences must produce identical response bytes —
  // including cache_hit flags, error messages for malformed lines, and the
  // restored client ids.
  Shard direct("direct");
  Shard routed("routed");
  Router router(fast_probe_config({routed.address}));
  serve::TcpServer front(
      [&router](const std::string& line, const serve::TcpServer::EmitLine& emit) {
        router.handle_line(line, emit);
      },
      "127.0.0.1", 0);

  const std::vector<std::string> pool = test_structures(4);
  std::vector<std::string> lines;
  std::int64_t id = 1;
  for (int repeat = 0; repeat < 2; ++repeat)  // second pass = cache hits
    for (const std::string& a : pool)
      for (const std::string& b : pool) lines.push_back(request_line(id++, a, b));
  lines.push_back("this is not json");                       // transport error path
  lines.push_back(R"x({"id": 999, "a": "((", "b": "))"})x");  // solve error path

  LineClient direct_client(direct.server->port());
  LineClient routed_client(front.port());
  ASSERT_TRUE(direct_client.connected());
  ASSERT_TRUE(routed_client.connected());

  for (const std::string& line : lines) {
    const std::optional<std::string> from_direct = direct_client.roundtrip(line);
    const std::optional<std::string> from_router = routed_client.roundtrip(line);
    ASSERT_TRUE(from_direct.has_value()) << line;
    ASSERT_TRUE(from_router.has_value()) << line;
    EXPECT_EQ(stripped(*from_router), stripped(*from_direct)) << "request: " << line;
  }

  front.stop();
  router.stop();
}

TEST(Router, ResponsesEchoTheCanonicalPairDigest) {
  Shard shard("s0");
  Router router(fast_probe_config({shard.address}));
  serve::TcpServer front(
      [&router](const std::string& line, const serve::TcpServer::EmitLine& emit) {
        router.handle_line(line, emit);
      },
      "127.0.0.1", 0);
  LineClient client(front.port());
  ASSERT_TRUE(client.connected());

  const std::vector<std::string> pool = test_structures(2);
  const std::string expected =
      pair_digest_hex(parse_dot_bracket(pool[0]), parse_dot_bracket(pool[1]));

  for (int attempt = 0; attempt < 2; ++attempt) {  // miss, then cache hit
    const std::optional<std::string> line =
        client.roundtrip(request_line(attempt + 1, pool[0], pool[1]));
    ASSERT_TRUE(line.has_value());
    const serve::ServeResponse resp = serve::ServeResponse::from_line(*line);
    ASSERT_EQ(resp.status, serve::ResponseStatus::kOk);
    EXPECT_EQ(resp.cache_hit, attempt == 1);
    // The digest is the wire form of the canonical structure-pair hash — the
    // same value the router keyed the ring with and the shard keyed its
    // cache with (cache keys add a config fingerprint on top).
    EXPECT_EQ(resp.digest, expected);
    ASSERT_EQ(resp.digest.size(), 16u);
  }

  front.stop();
  router.stop();
}

TEST(Router, ExactlyOneResponsePerRequestAcrossAShardKill) {
  Shard s0("s0");
  Shard s1("s1");
  Router router(fast_probe_config({s0.address, s1.address}));
  serve::TcpServer front(
      [&router](const std::string& line, const serve::TcpServer::EmitLine& emit) {
        router.handle_line(line, emit);
      },
      "127.0.0.1", 0);
  LineClient client(front.port());
  ASSERT_TRUE(client.connected());

  const std::vector<std::string> pool = test_structures(8);
  constexpr std::int64_t kFirstWave = 40;
  constexpr std::int64_t kSecondWave = 20;

  // Pipeline the first wave, read a few responses, then kill one shard with
  // the rest still in flight.
  for (std::int64_t i = 0; i < kFirstWave; ++i)
    ASSERT_TRUE(client.send_line(request_line(
        i, pool[static_cast<std::size_t>(i) % pool.size()],
        pool[static_cast<std::size_t>(i + 1) % pool.size()])));

  std::map<std::int64_t, serve::ServeResponse> responses;
  for (int got = 0; got < 10; ++got) {
    const std::optional<std::string> line = client.recv_line();
    ASSERT_TRUE(line.has_value()) << "lost a response before the kill";
    const serve::ServeResponse resp = serve::ServeResponse::from_line(*line);
    ASSERT_TRUE(responses.emplace(resp.id, resp).second)
        << "duplicate response for id " << resp.id;
  }

  s0.kill();  // in-flight requests on s0 must fail over to s1

  while (responses.size() < static_cast<std::size_t>(kFirstWave)) {
    const std::optional<std::string> line = client.recv_line();
    ASSERT_TRUE(line.has_value())
        << "lost a response after the kill (" << responses.size() << " of "
        << kFirstWave << " arrived)";
    const serve::ServeResponse resp = serve::ServeResponse::from_line(*line);
    ASSERT_TRUE(responses.emplace(resp.id, resp).second)
        << "duplicate response for id " << resp.id;
  }

  // A second wave against the degraded fleet: everything lands on s1.
  for (std::int64_t i = kFirstWave; i < kFirstWave + kSecondWave; ++i)
    ASSERT_TRUE(client.send_line(request_line(
        i, pool[static_cast<std::size_t>(i) % pool.size()],
        pool[static_cast<std::size_t>(i + 1) % pool.size()])));
  while (responses.size() < static_cast<std::size_t>(kFirstWave + kSecondWave)) {
    const std::optional<std::string> line = client.recv_line();
    ASSERT_TRUE(line.has_value()) << "lost a response in the degraded fleet";
    const serve::ServeResponse resp = serve::ServeResponse::from_line(*line);
    ASSERT_TRUE(responses.emplace(resp.id, resp).second)
        << "duplicate response for id " << resp.id;
  }

  // Exactly one response per id, and with a live replica every single one
  // solved — a kill mid-run costs retries, never answers.
  for (std::int64_t i = 0; i < kFirstWave + kSecondWave; ++i) {
    ASSERT_TRUE(responses.count(i) == 1) << "id " << i;
    EXPECT_EQ(responses[i].status, serve::ResponseStatus::kOk) << "id " << i;
  }

  front.stop();
  router.stop();
}

TEST(Router, RejectsRetryablyWhenNoShardCanAnswer) {
  Shard shard("s0");
  RouterConfig config = fast_probe_config({shard.address});
  shard.kill();  // the only shard is gone before the router ever connects
  Router router(config);

  std::vector<std::string> emitted;
  router.handle_line(request_line(7, "((..))", "(()).."),
                     [&emitted](const std::string& line) { emitted.push_back(line); });

  ASSERT_EQ(emitted.size(), 1u) << "exactly one response even for a dead fleet";
  const serve::ServeResponse resp = serve::ServeResponse::from_line(emitted[0]);
  EXPECT_EQ(resp.status, serve::ResponseStatus::kRejected);
  EXPECT_EQ(resp.id, 7);
  EXPECT_GT(resp.retry_after_ms, 0.0) << "rejection must carry a backoff hint";
  router.stop();
}

TEST(Router, RouteOfIsDeterministicAndStaysInTheFleet) {
  Shard s0("s0");
  Shard s1("s1");
  Router router(fast_probe_config({s0.address, s1.address}));

  const std::vector<std::string> pool = test_structures(6);
  std::set<std::string> seen_owners;
  for (std::size_t i = 0; i + 1 < pool.size(); ++i) {
    const std::string line = request_line(1, pool[i], pool[i + 1]);
    const std::vector<std::string> route = router.route_of(line);
    ASSERT_EQ(route.size(), 2u) << "owner + one replica for a 2-shard fleet";
    EXPECT_NE(route[0], route[1]);
    EXPECT_EQ(route, router.route_of(line)) << "routing must be deterministic";
    seen_owners.insert(route[0]);
    for (const std::string& name : route)
      EXPECT_TRUE(name == "s0" || name == "s1") << name;
  }
  router.stop();
}

TEST(Router, AnAdmittedRequestIsNotTimedOutBeforeItsFirstDispatch) {
  // Regression: an entry used to enter the pending map with an epoch
  // deadline and get its real one only at its first dispatch, so a
  // maintenance scan in between re-dispatched it as an "attempt timeout" (a
  // duplicate forward and a late drop). The debug line logged between the
  // two holds that window open here for several maintenance periods.
  Shard shard("s0");
  Router router(fast_probe_config({shard.address}));
  struct SlowAdmitLog {
    obs::LogLevel level = obs::Logger::instance().min_level();
    SlowAdmitLog() {
      obs::Logger::instance().set_sink([](const std::string& line) {
        if (line.find("router.admit") != std::string::npos)
          std::this_thread::sleep_for(std::chrono::milliseconds(300));
      });
      obs::Logger::instance().set_min_level(obs::LogLevel::kDebug);
    }
    ~SlowAdmitLog() {
      obs::Logger::instance().set_min_level(level);
      obs::Logger::instance().set_sink(nullptr);
    }
  };

  std::mutex mutex;
  std::condition_variable answered;
  std::optional<std::string> answer;
  {
    const SlowAdmitLog slow_admit;
    serve::ServeRequest req;
    req.id = 5;
    req.a = "((..))";
    req.b = "(..)";
    req.trace = true;
    router.handle_line(req.to_line(), [&](const std::string& line) {
      std::lock_guard lock(mutex);
      answer = line;
      answered.notify_all();
    });
    std::unique_lock lock(mutex);
    answered.wait_for(lock, std::chrono::seconds(15), [&] { return answer.has_value(); });
  }
  ASSERT_TRUE(answer.has_value());
  const serve::ServeResponse resp = serve::ServeResponse::from_line(*answer);
  EXPECT_EQ(resp.status, serve::ResponseStatus::kOk);
  EXPECT_EQ(resp.attempts, 1u);
  const obs::Json stats = router.stats_json();
  const obs::Json* own = stats.find("router");
  ASSERT_NE(own, nullptr);
  EXPECT_EQ(own->find("attempt_timeouts")->as_uint(), 0u);
  EXPECT_EQ(own->find("failovers")->as_uint(), 0u);
  router.stop();
  EXPECT_EQ(router.stats_json().find("router")->find("late_drops")->as_uint(), 0u);
}

TEST(Router, HostileLinesGetErrorsAndTheNextConnectionIsRouted) {
  Shard shard("s0");
  Router router(fast_probe_config({shard.address}));
  serve::TcpServer front(
      [&router](const std::string& line, const serve::TcpServer::EmitLine& emit) {
        router.handle_line(line, emit);
      },
      "127.0.0.1", 0);
  const std::vector<std::string> pool = test_structures(2);
  {
    LineClient client(front.port());
    ASSERT_TRUE(client.connected());
    for (const std::string& line :
         {std::string(300000, '['), R"({"admin": )" + std::string(100000, '[') + "}",
          std::string("{\"id\": 1e999999, \"a\": \"()\", \"b\": \"()\"}"),
          std::string("\xff\xfe{\"a\": \"\xc3\x28\"}")}) {
      const std::optional<std::string> reply = client.roundtrip(line);
      ASSERT_TRUE(reply.has_value()) << "no answer to a hostile line";
      EXPECT_EQ(serve::ServeResponse::from_line(*reply).status, serve::ResponseStatus::kError);
    }
    // The same connection still routes.
    const std::optional<std::string> reply = client.roundtrip(request_line(2, pool[0], pool[1]));
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(serve::ServeResponse::from_line(*reply).status, serve::ResponseStatus::kOk);

    // A line past the cap: one error, then the router closes the connection.
    ASSERT_TRUE(client.send_raw(std::string(serve::TcpServer::kMaxLineBytes + 1, '[')));
    const std::optional<std::string> over = client.recv_line();
    ASSERT_TRUE(over.has_value());
    EXPECT_EQ(serve::ServeResponse::from_line(*over).status, serve::ResponseStatus::kError);
    EXPECT_FALSE(client.recv_line().has_value()) << "the connection must be closed";
  }
  LineClient next(front.port());
  const std::optional<std::string> reply = next.roundtrip(request_line(3, pool[1], pool[0]));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(serve::ServeResponse::from_line(*reply).status, serve::ResponseStatus::kOk);
  front.stop();
  router.stop();
}

TEST(Router, InBandAdminLinesAnswerAggregatedViews) {
  Shard shard("s0");
  Router router(fast_probe_config({shard.address}));

  std::vector<std::string> emitted;
  router.handle_line(R"({"admin": "statz"})",
                     [&emitted](const std::string& line) { emitted.push_back(line); });
  ASSERT_EQ(emitted.size(), 1u);
  const std::optional<obs::Json> doc = obs::Json::parse(emitted[0]);
  ASSERT_TRUE(doc.has_value());
  const obs::Json* stats = doc->find("stats");
  ASSERT_NE(stats, nullptr) << emitted[0];
  EXPECT_NE(stats->find("router"), nullptr) << "router's own counters";
  EXPECT_NE(stats->find("fleet"), nullptr) << "aggregated shard statz";
  router.stop();
}

}  // namespace
}  // namespace srna::dist
