// The consistent-hash request router: the client-facing front of the
// distributed serving tier.
//
// Clients speak the exact serve JSON-lines protocol to the router; shards
// are plain srna-serve processes that never learn they are behind one. Per
// request the router:
//
//   0. parses the line once (obs::Json); that one document answers in-band
//      admin lines, yields the validated request, and becomes the line it
//      forwards;
//   1. computes a routing key — the canonical structure-pair digest
//      (rna/structure_hash.hpp) when the literal pair parses locally, an
//      FNV-1a fallback over the raw request fields otherwise (db-name pairs,
//      malformed dot-brackets: the request is still forwarded so the owning
//      shard produces the same error bytes direct serving would);
//   2. looks up the owner + replicas on the hash ring (dist/hash_ring.hpp);
//   3. rewrites the request's "id" to a router-internal correlation id,
//      records a Pending entry, and forwards the line over the owner's
//      persistent TCP link (lazily connected, one reader thread per link);
//   4. on the shard's response line, swaps the original id back into the
//      parsed response and emits it to the client. Both directions
//      reserialize through obs::Json, the same writer the shards use, so
//      routed bytes equal direct bytes.
//
// Failover: a dead link (connection reset) or a per-attempt timeout
// re-dispatches the request to the next distinct replica on the ring, up to
// `max_attempts`; exhaustion answers an explicit retryable "rejected"
// response with a retry_after_ms hint. The Pending map is the single source
// of truth — erasing an entry is the one claim point, so every accepted
// request gets exactly one response: the first shard answer wins, late
// duplicates from timed-out attempts find no entry and are dropped, and
// shutdown rejects whatever is left. A health prober (dist/health.hpp)
// polls each shard's /readyz so new dispatches skip draining or warming
// shards; in-flight requests on a draining shard are NOT failed over — a
// draining srna-serve still answers everything it accepted.
//
// The admin plane (serve::AdminServer with a router handler) aggregates the
// topology: /metrics merges shard scrapes per dist/aggregate.hpp on top of
// the router's own counters, /statz nests per-shard stats under fleet
// totals, /readyz is 200 while at least one shard is ready.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dist/hash_ring.hpp"
#include "dist/health.hpp"
#include "dist/net.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "serve/admin.hpp"
#include "serve/server.hpp"

namespace srna::dist {

struct ShardAddress {
  std::string name;
  Endpoint data;   // the shard's JSON-lines listener
  Endpoint admin;  // the shard's admin plane; port 0 = none (no probe, no scrape)
};

struct RouterConfig {
  std::vector<ShardAddress> shards;
  int replicas = 2;    // owner + failover candidates consulted per request
  int vnodes = 128;    // hash-ring virtual nodes per shard
  ProberConfig probe;
  // Per-attempt response budget. Set it above the slowest expected solve:
  // a timeout re-dispatches to a replica, and while duplicate solves are
  // harmless (first answer wins, MCOS is pure), they waste shard time.
  double request_timeout_ms = 10000;
  int max_attempts = 3;  // total dispatch attempts before rejecting
  int connect_timeout_ms = 1000;
  double retry_after_ms = 50;  // backoff hint on router-side rejections
  // The router's own flight recorder (obs/flight.hpp): every routed request
  // leaves a record; failovers and rejection bursts are its anomalies.
  obs::FlightConfig flight;
};

class Router {
 public:
  explicit Router(RouterConfig config);
  ~Router();  // stop()

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // The serve::TcpServer::LineHandler — wire this as the data-plane
  // listener's handler. In-band `{"admin": ...}` lines are answered with the
  // aggregated views, mirroring single-process serving.
  void handle_line(const std::string& line, const serve::TcpServer::EmitLine& emit);

  // The serve::AdminServer::HttpHandler for the router's admin plane.
  [[nodiscard]] serve::HttpReply admin_http(const std::string& path);

  [[nodiscard]] obs::Json stats_json();

  // Routing key + replica set for one request line; exposed for tests and
  // the shardctl "where does this pair go" command.
  [[nodiscard]] std::vector<std::string> route_of(const std::string& line) const;

  // The router's own flight recorder (the "router"-labelled slice of the
  // merged /flightz view).
  [[nodiscard]] const obs::FlightRecorder& flight() const noexcept { return flight_; }

  // Rejects every outstanding request, closes shard links, joins all
  // threads. Idempotent.
  void stop();

 private:
  struct Link {
    ShardAddress address;
    std::size_t index = 0;
    std::mutex mutex;  // guards fd / connected / reader lifecycle / writes
    int fd = -1;
    bool connected = false;
    std::thread reader;
    std::atomic<bool> reader_done{false};
    std::atomic<std::uint64_t> forwarded{0};
    std::atomic<std::uint64_t> answered{0};
  };

  struct Pending {
    obs::Json doc;          // request, "id" rewritten to the internal id
    obs::Json original_id;  // restored into the response before emit
    serve::TcpServer::EmitLine emit;
    std::vector<std::size_t> candidates;  // ring replica order, link indices
    std::size_t cursor = 0;               // next candidate to try
    int attempts_left = 0;
    std::size_t shard = static_cast<std::size_t>(-1);  // current in-flight link
    // Per-attempt deadline, set by dispatch(). An entry admitted but not yet
    // dispatched has no attempt to time out, so maintenance must skip it.
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    // Correlation: the fleet-unique trace id stamped into the forwarded line
    // (the owning shard adopts it), plus what the hop spans and the flight
    // record need when the answer (or the failure) comes back.
    std::uint64_t trace_id = 0;
    bool trace = false;  // client asked for hop fields in the response
    std::string digest;  // canonical pair digest hex ("" = fallback key)
    std::chrono::steady_clock::time_point admitted;
    std::uint64_t admitted_us = 0;       // tracer clock at admission (0 = off)
    std::uint64_t attempt_start_us = 0;  // tracer clock at the live dispatch
    int attempts_used = 0;
    double first_dispatch_ms = -1;  // admission -> first dispatch (router_queued_ms)
  };

  [[nodiscard]] std::uint64_t routing_key(const serve::ServeRequest& request,
                                          bool* canonical = nullptr) const;
  // Sends the request's next attempt (or rejects it once attempts run out).
  // `failed_attempt` != 0 names the attempt a maintenance scan saw fail;
  // the call does nothing if the entry has since moved past it.
  void dispatch(std::uint64_t id, int failed_attempt = 0);
  bool send_to_link(Link& link, const std::string& line);
  void read_loop(Link& link);
  void handle_shard_response(Link& link, const std::string& line);
  void mark_link_down(Link& link);
  void maintenance_loop();
  void reject(std::uint64_t id, Pending entry, const std::string& reason);
  [[nodiscard]] obs::Json admin_in_band(std::string_view what);
  [[nodiscard]] std::string merged_metrics();
  [[nodiscard]] obs::Json aggregated_statz();
  [[nodiscard]] obs::Json merged_flightz();
  [[nodiscard]] std::uint64_t mint_trace_id() noexcept;

  RouterConfig config_;
  HashRing ring_;
  std::vector<std::unique_ptr<Link>> links_;
  std::unique_ptr<HealthProber> prober_;

  std::mutex pending_mutex_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::atomic<std::uint64_t> next_id_{1};

  obs::FlightRecorder flight_;
  // Fleet-unique trace ids: a per-process random 12-bit salt (top bit forced
  // on) in bits 40..51 over a 40-bit counter — ids land in [2^51, 2^52), so
  // they survive even a double round-trip in external JSON tooling exactly.
  std::uint64_t trace_salt_ = 0;
  std::atomic<std::uint64_t> next_trace_{1};

  std::mutex events_mutex_;
  std::condition_variable events_wake_;
  std::deque<std::size_t> down_events_;  // link indices whose connection died
  bool stopping_ = false;  // guarded by events_mutex_
  std::thread maintenance_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> responses_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> late_drops_{0};
  std::atomic<std::uint64_t> timeouts_{0};
};

}  // namespace srna::dist
