#include "dist/router.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "dist/aggregate.hpp"
#include "obs/exposition.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rna/dot_bracket.hpp"
#include "rna/structure_hash.hpp"
#include "serve/protocol.hpp"

namespace srna::dist {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) noexcept {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// The registry instruments the routing path touches, resolved once: each
// Registry lookup takes the registry's global mutex. The references stay
// valid across Registry::reset(), which zeroes values in place.
struct Instruments {
  obs::Registry& registry = obs::Registry::instance();
  obs::Counter& requests = registry.counter("router.requests");
  obs::Counter& forwarded = registry.counter("router.forwarded");
  obs::Counter& responses = registry.counter("router.responses");
  obs::Counter& failovers = registry.counter("router.failovers");
  obs::Counter& late_drops = registry.counter("router.late_drops");
  obs::Counter& rejected = registry.counter("router.rejected");
  obs::Gauge& pending = registry.gauge("router.pending");
};

const Instruments& instruments() {
  static const Instruments kInstruments;
  return kInstruments;
}

}  // namespace

Router::Router(RouterConfig config)
    : config_(std::move(config)), ring_(config_.vnodes), flight_(config_.flight) {
  config_.replicas = std::max(1, config_.replicas);
  config_.max_attempts = std::max(1, config_.max_attempts);

  // Fleet-unique trace ids: two routers (or a router restart) must not mint
  // colliding ids, so salt the id space per process.
  const std::uint64_t seed =
      static_cast<std::uint64_t>(::getpid()) ^
      static_cast<std::uint64_t>(Clock::now().time_since_epoch().count());
  trace_salt_ = ((splitmix64(seed) & 0xfffull) | 0x800ull) << 40;

  links_.reserve(config_.shards.size());
  std::vector<ProbeTarget> targets;
  targets.reserve(config_.shards.size());
  for (std::size_t i = 0; i < config_.shards.size(); ++i) {
    auto link = std::make_unique<Link>();
    link->address = config_.shards[i];
    link->index = i;
    links_.push_back(std::move(link));
    ring_.add_node(config_.shards[i].name);
    targets.push_back(ProbeTarget{config_.shards[i].name, config_.shards[i].admin});
  }
  prober_ = std::make_unique<HealthProber>(std::move(targets), config_.probe);
  maintenance_ = std::thread([this] { maintenance_loop(); });
}

Router::~Router() { stop(); }

std::uint64_t Router::mint_trace_id() noexcept {
  return trace_salt_ |
         (next_trace_.fetch_add(1, std::memory_order_relaxed) & ((1ull << 40) - 1));
}

std::uint64_t Router::routing_key(const serve::ServeRequest& request,
                                  bool* canonical) const {
  if (canonical != nullptr) *canonical = false;
  if (!request.by_name()) {
    try {
      const SecondaryStructure a = parse_dot_bracket(request.a);
      const SecondaryStructure b = parse_dot_bracket(request.b);
      if (canonical != nullptr) *canonical = true;
      return hash_structure_pair(a, b);
    } catch (const std::exception&) {
      // Unparseable literals are still forwarded — the owning shard produces
      // the same error bytes direct serving would. \x1f keeps ("ab","c")
      // distinct from ("a","bc").
      return fnv1a_bytes(request.a + '\x1f' + request.b);
    }
  }
  // The router carries no structure database; deterministic content hashing
  // still pins a name pair to one shard (and its cache entry).
  return fnv1a_bytes(request.a_name + '\x1f' + request.b_name);
}

std::vector<std::string> Router::route_of(const std::string& line) const {
  const serve::ServeRequest request = serve::parse_request(line);
  return ring_.owners(routing_key(request), static_cast<std::size_t>(config_.replicas));
}

void Router::handle_line(const std::string& line,
                         const serve::TcpServer::EmitLine& emit) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  instruments().requests.add();

  // The line is JSON-parsed once: the same document answers in-band admin
  // lines, yields the request, and becomes the forwarded line.
  std::optional<obs::Json> doc = obs::Json::parse(line);
  if (doc) {
    // In-band admin lines answer from the aggregated views, mirroring the
    // single-process transports.
    if (const obs::Json* what = doc->find("admin"); what != nullptr && what->is_string()) {
      emit(admin_in_band(what->as_string()).dump(0));
      return;
    }
  }

  serve::ServeRequest request;
  try {
    request = serve::request_from_json(doc);
  } catch (const std::exception& e) {
    // Same inline answer (and bytes) a shard's transport would produce.
    serve::ServeResponse resp;
    resp.status = serve::ResponseStatus::kError;
    resp.error = e.what();
    emit(resp.to_line());
    responses_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  bool canonical = false;
  const std::uint64_t key = routing_key(request, &canonical);
  const std::vector<std::string> owners =
      ring_.owners(key, static_cast<std::size_t>(config_.replicas));

  Pending entry;
  entry.candidates.reserve(owners.size());
  for (const std::string& owner : owners) {
    for (const auto& link : links_)
      if (link->address.name == owner) entry.candidates.push_back(link->index);
  }

  if (entry.candidates.empty()) {
    serve::ServeResponse resp;
    resp.id = request.id;
    resp.status = serve::ResponseStatus::kRejected;
    resp.retry_after_ms = config_.retry_after_ms;
    resp.error = "no shards configured";
    emit(resp.to_line());
    rejected_.fetch_add(1, std::memory_order_relaxed);
    responses_.fetch_add(1, std::memory_order_relaxed);
    obs::FlightRecord rejected_record;
    rejected_record.request_id = resp.id;
    rejected_record.outcome = "rejected";
    rejected_record.detail = resp.error;
    flight_.record(std::move(rejected_record));
    return;
  }

  entry.doc = std::move(*doc);
  entry.original_id = entry.doc.contains("id") ? *entry.doc.find("id")
                                               : obs::Json(std::int64_t{0});
  entry.emit = emit;
  entry.attempts_left = config_.max_attempts;
  entry.trace = request.trace;
  entry.admitted = Clock::now();
  if (canonical) entry.digest = digest_hex(key);
  // One correlation id per request, spanning processes: adopt an upstream
  // caller's id, mint a fleet-unique one otherwise, and stamp it into the
  // forwarded line so the owning shard adopts it too.
  entry.trace_id = request.trace_id != 0 ? request.trace_id : mint_trace_id();
  entry.doc.set("trace_id", obs::Json(entry.trace_id));
  if (obs::Tracer::instance().enabled())
    entry.admitted_us = obs::Tracer::instance().now_us();

  const std::uint64_t trace_id = entry.trace_id;
  const std::int64_t client_id = entry.original_id.is_number()
                                     ? entry.original_id.as_int()
                                     : std::int64_t{0};
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  entry.doc.set("id", obs::Json(id));
  {
    std::lock_guard lock(pending_mutex_);
    pending_.emplace(id, std::move(entry));
    instruments().pending.set(static_cast<double>(pending_.size()));
  }
  if (obs::Logger::instance().enabled(obs::LogLevel::kDebug))
    obs::log_debug("router.admit",
                   obs::log_fields({{"id", obs::Json(client_id)},
                                    {"trace_id", obs::Json(trace_id)}}));
  dispatch(id);
}

void Router::dispatch(std::uint64_t id, int failed_attempt) {
  for (;;) {
    std::string line;
    std::size_t target = static_cast<std::size_t>(-1);
    std::optional<Pending> exhausted;
    std::uint64_t trace_id = 0;
    std::uint64_t attempt_start_us = 0;  // tracer clock; 0 = tracing off
    std::uint64_t queued_start_us = 0;   // nonzero on the first attempt only
    std::uint64_t queued_dur_us = 0;
    int attempt = 0;
    {
      std::lock_guard lock(pending_mutex_);
      const auto it = pending_.find(id);
      if (it == pending_.end()) return;  // already answered (claimed)
      Pending& entry = it->second;
      // A maintenance re-dispatch acts on a snapshot: when the entry has
      // moved past the attempt that snapshot saw fail (its own send failure
      // already failed it over), its live attempt is fine.
      if (failed_attempt != 0 && entry.attempts_used != failed_attempt) return;
      failed_attempt = 0;
      if (entry.attempts_left <= 0) {
        exhausted = std::move(entry);
        pending_.erase(it);
        instruments().pending.set(static_cast<double>(pending_.size()));
      } else {
        entry.attempts_left -= 1;

        // Next candidate, preferring probe-ready shards; with every replica
        // un-ready, fall through optimistically — the send failure (or probe
        // recovery) sorts it out, and a cold-starting fleet should not
        // insta-reject.
        const std::size_t n = entry.candidates.size();
        std::size_t chosen = entry.candidates[entry.cursor % n];
        for (std::size_t step = 0; step < n; ++step) {
          const std::size_t candidate = entry.candidates[(entry.cursor + step) % n];
          if (prober_->ready(links_[candidate]->address.name)) {
            chosen = candidate;
            entry.cursor += step;
            break;
          }
        }
        entry.cursor += 1;
        entry.shard = chosen;
        const Clock::time_point now = Clock::now();
        entry.deadline = now + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::milli>(
                                       config_.request_timeout_ms));
        entry.attempts_used += 1;
        attempt = entry.attempts_used;
        trace_id = entry.trace_id;
        if (entry.first_dispatch_ms < 0)
          entry.first_dispatch_ms = ms_between(entry.admitted, now);
        if (entry.admitted_us != 0 && obs::Tracer::instance().enabled()) {
          const std::uint64_t now_us = obs::Tracer::instance().now_us();
          if (attempt == 1) {
            // The router-side queued phase, recorded retroactively below.
            queued_start_us = entry.admitted_us;
            queued_dur_us = now_us - entry.admitted_us;
          }
          entry.attempt_start_us = now_us;
          attempt_start_us = now_us;
        }
        target = chosen;
        line = entry.doc.dump(0);
      }
    }
    if (exhausted) {
      // Emitting to the client never happens under the map lock.
      reject(id, std::move(*exhausted),
             "no shard available (routing attempts exhausted)");
      return;
    }

    Link& link = *links_[target];
    // Everything this attempt records — spans, instants — carries the
    // request's trace id via the thread-local context.
    obs::TraceContextScope trace_scope(trace_id);
    if (queued_start_us != 0)
      obs::Tracer::instance().record("dist", "queued", queued_start_us, queued_dur_us);
    if (obs::Logger::instance().enabled(obs::LogLevel::kDebug))
      obs::log_debug(
          "router.dispatch",
          obs::log_fields({{"trace_id", obs::Json(trace_id)},
                           {"attempt", obs::Json(static_cast<std::int64_t>(attempt))},
                           {"shard", obs::Json(link.address.name)}}));
    if (send_to_link(link, line)) {
      link.forwarded.fetch_add(1, std::memory_order_relaxed);
      instruments().forwarded.add();
      return;
    }
    // Send failed: the shard is down right now. Loop — the cursor already
    // advanced past it, so the next iteration tries the following replica
    // (or exhausts the budget into an explicit rejection).
    failovers_.fetch_add(1, std::memory_order_relaxed);
    instruments().failovers.add();
    if (attempt_start_us != 0) {
      obs::Tracer& tracer = obs::Tracer::instance();
      tracer.record("dist", "attempt", attempt_start_us,
                    tracer.now_us() - attempt_start_us,
                    obs::trace_args({{"attempt", attempt}, {"ok", 0}}));
      tracer.instant("dist", "failover");
    }
    obs::log_warn(
        "router.failover",
        obs::log_fields({{"trace_id", obs::Json(trace_id)},
                         {"attempt", obs::Json(static_cast<std::int64_t>(attempt))},
                         {"shard", obs::Json(link.address.name)},
                         {"reason", obs::Json("send failed (shard down)")}}));
  }
}

bool Router::send_to_link(Link& link, const std::string& line) {
  std::lock_guard lock(link.mutex);
  if (!link.connected) {
    if (link.reader.joinable()) {
      if (!link.reader_done.load(std::memory_order_acquire))
        return false;  // previous reader still winding down; try a replica
      link.reader.join();
    }
    if (link.fd >= 0) {
      ::close(link.fd);
      link.fd = -1;
    }
    const int fd = tcp_connect(link.address.data, config_.connect_timeout_ms);
    if (fd < 0) return false;
    link.fd = fd;
    link.connected = true;
    link.reader_done.store(false, std::memory_order_release);
    link.reader = std::thread([this, &link] { read_loop(link); });
  }
  if (!send_all(link.fd, line + "\n")) {
    mark_link_down(link);
    return false;
  }
  return true;
}

void Router::mark_link_down(Link& link) {
  // Caller holds link.mutex. shutdown() (not close()) wakes the reader and
  // fails concurrent sends without racing fd reuse; the fd is recycled on
  // the next reconnect attempt.
  if (link.connected) {
    link.connected = false;
    if (link.fd >= 0) ::shutdown(link.fd, SHUT_RDWR);
  }
}

void Router::read_loop(Link& link) {
  const int fd = link.fd;  // stable for the life of this reader
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty()) handle_shard_response(link, line);
    }
    buffer.erase(0, start);
  }
  {
    std::lock_guard lock(link.mutex);
    mark_link_down(link);
  }
  link.reader_done.store(true, std::memory_order_release);
  // The maintenance thread re-homes this link's in-flight requests; a reader
  // must never dispatch (it could block on another link's write mutex while
  // that link's owner is joining us).
  {
    std::lock_guard lock(events_mutex_);
    if (!stopping_) down_events_.push_back(link.index);
  }
  events_wake_.notify_one();
}

void Router::handle_shard_response(Link& link, const std::string& line) {
  std::optional<obs::Json> doc = obs::Json::parse(line);
  if (!doc || !doc->is_object()) return;
  const obs::Json* id_field = doc->find("id");
  if (id_field == nullptr) return;
  const std::uint64_t id = id_field->as_uint();

  Pending claimed;
  {
    std::lock_guard lock(pending_mutex_);
    const auto it = pending_.find(id);
    if (it == pending_.end()) {
      // A late answer from a timed-out or failed-over attempt; the client
      // already got (or will get) exactly one response from elsewhere.
      late_drops_.fetch_add(1, std::memory_order_relaxed);
      instruments().late_drops.add();
      return;
    }
    claimed = std::move(it->second);
    pending_.erase(it);
    instruments().pending.set(static_cast<double>(pending_.size()));
  }

  const Clock::time_point now = Clock::now();
  obs::TraceContextScope trace_scope(claimed.trace_id);
  if (claimed.attempt_start_us != 0 && obs::Tracer::instance().enabled()) {
    // The winning attempt's span: dispatch -> shard answer, on this request's
    // lane alongside the shard's own serve/solve spans.
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.record("dist", "attempt", claimed.attempt_start_us,
                  tracer.now_us() - claimed.attempt_start_us,
                  obs::trace_args({{"attempt", claimed.attempts_used}, {"ok", 1}}));
  }

  // Flight-record before emitting: a client that reads its response and
  // immediately asks /flightz must find its own request in the ring.
  obs::FlightRecord flight_record;
  flight_record.trace_id = claimed.trace_id;
  flight_record.request_id =
      claimed.original_id.is_number() ? claimed.original_id.as_int() : 0;
  flight_record.digest = claimed.digest;
  if (const obs::Json* s = doc->find("status"); s != nullptr && s->is_string())
    flight_record.outcome = s->as_string();
  if (const obs::Json* e = doc->find("error"); e != nullptr && e->is_string())
    flight_record.detail = e->as_string();
  flight_record.shard = link.address.name;
  flight_record.latency_ms = ms_between(claimed.admitted, now);
  flight_record.queued_ms = std::max(0.0, claimed.first_dispatch_ms);
  if (const obs::Json* v = doc->find("solve_ms"); v != nullptr && v->is_number())
    flight_record.solve_ms = v->as_double();
  flight_record.attempts = static_cast<std::uint32_t>(claimed.attempts_used);
  flight_record.failovers =
      claimed.attempts_used > 1 ? static_cast<std::uint32_t>(claimed.attempts_used - 1)
                                : 0;
  if (const obs::Json* v = doc->find("cache_hit");
      v != nullptr && v->kind() == obs::Json::Kind::kBool)
    flight_record.cache_hit = v->as_bool();
  flight_.record(std::move(flight_record));

  // Swap the client's id back in, in place. Shards serialize with the same
  // writer, so this re-dump is byte-identical to the shard's line outside
  // the id field.
  obs::Json response = std::move(*doc);
  response.set("id", std::move(claimed.original_id));
  // Hop fields, traced requests only (set() appends, matching the tail
  // position ServeResponse::to_json gives them); untraced routed responses
  // stay byte-identical to direct serving.
  if (claimed.trace) {
    response.set("attempts",
                 obs::Json(static_cast<std::uint64_t>(claimed.attempts_used)));
    response.set("shard", obs::Json(link.address.name));
    response.set("router_queued_ms",
                 obs::Json(std::max(0.0, claimed.first_dispatch_ms)));
  }
  claimed.emit(response.dump(0));
  link.answered.fetch_add(1, std::memory_order_relaxed);
  responses_.fetch_add(1, std::memory_order_relaxed);
  instruments().responses.add();

  if (obs::Logger::instance().enabled(obs::LogLevel::kDebug))
    obs::log_debug(
        "router.respond",
        obs::log_fields(
            {{"trace_id", obs::Json(claimed.trace_id)},
             {"shard", obs::Json(link.address.name)},
             {"attempts",
              obs::Json(static_cast<std::int64_t>(claimed.attempts_used))}}));
}

void Router::reject(std::uint64_t id, Pending entry, const std::string& reason) {
  (void)id;
  serve::ServeResponse resp;
  resp.id = entry.original_id.as_int();
  resp.status = serve::ResponseStatus::kRejected;
  resp.retry_after_ms = config_.retry_after_ms;
  resp.error = reason;
  // Echo the trace id even on rejection — it is the handle a client quotes
  // to find this request's record in GET /flightz.
  resp.trace_id = entry.trace_id;

  // Flight-record before emitting (same ordering as handle_shard_response):
  // the rejected client can immediately look itself up in /flightz.
  obs::FlightRecord flight_record;
  flight_record.trace_id = entry.trace_id;
  flight_record.request_id = resp.id;
  flight_record.digest = entry.digest;
  flight_record.outcome = "rejected";
  flight_record.detail = reason;
  if (entry.admitted != Clock::time_point{})
    flight_record.latency_ms = ms_between(entry.admitted, Clock::now());
  flight_record.queued_ms = std::max(0.0, entry.first_dispatch_ms);
  flight_record.attempts = static_cast<std::uint32_t>(entry.attempts_used);
  // Every attempt failed — each one was a failover away from an answer.
  flight_record.failovers = static_cast<std::uint32_t>(entry.attempts_used);
  flight_.record(std::move(flight_record));

  entry.emit(resp.to_line());
  rejected_.fetch_add(1, std::memory_order_relaxed);
  responses_.fetch_add(1, std::memory_order_relaxed);
  instruments().rejected.add();
  obs::log_warn("router.reject",
                obs::log_fields({{"id", obs::Json(resp.id)},
                                 {"trace_id", obs::Json(entry.trace_id)},
                                 {"reason", obs::Json(reason)}}));
}

void Router::maintenance_loop() {
  for (;;) {
    std::vector<std::size_t> downed;
    {
      std::unique_lock lock(events_mutex_);
      events_wake_.wait_for(lock, std::chrono::milliseconds(50),
                            [&] { return stopping_ || !down_events_.empty(); });
      if (stopping_) return;
      downed.assign(down_events_.begin(), down_events_.end());
      down_events_.clear();
    }

    // Re-home everything in flight on a dead link, and everything whose
    // per-attempt deadline passed (a hung-but-connected shard looks exactly
    // like a slow one; the timeout is the only tell).
    struct Redispatch {
      std::uint64_t id = 0;
      std::uint64_t trace_id = 0;
      std::uint64_t attempt_start_us = 0;
      int attempt = 0;
      std::size_t shard = static_cast<std::size_t>(-1);
      bool dead_link = false;
    };
    std::vector<Redispatch> redispatch;
    const auto now = Clock::now();
    {
      std::lock_guard lock(pending_mutex_);
      for (const auto& [id, entry] : pending_) {
        const bool on_dead_link =
            std::find(downed.begin(), downed.end(), entry.shard) != downed.end();
        if (on_dead_link || now >= entry.deadline)
          redispatch.push_back(Redispatch{id, entry.trace_id, entry.attempt_start_us,
                                          entry.attempts_used, entry.shard,
                                          on_dead_link});
      }
    }
    for (const Redispatch& r : redispatch) {
      {
        // Answered, or failed over by its own dispatch, since the scan.
        std::lock_guard lock(pending_mutex_);
        const auto it = pending_.find(r.id);
        if (it == pending_.end() || it->second.attempts_used != r.attempt) continue;
      }
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      failovers_.fetch_add(1, std::memory_order_relaxed);
      instruments().failovers.add();
      obs::TraceContextScope trace_scope(r.trace_id);
      if (r.attempt_start_us != 0 && obs::Tracer::instance().enabled()) {
        // The failed attempt's span closes here — its shard never answered.
        obs::Tracer& tracer = obs::Tracer::instance();
        tracer.record("dist", "attempt", r.attempt_start_us,
                      tracer.now_us() - r.attempt_start_us,
                      obs::trace_args({{"attempt", r.attempt}, {"ok", 0}}));
        tracer.instant("dist", "failover");
      }
      obs::log_warn(
          "router.failover",
          obs::log_fields(
              {{"trace_id", obs::Json(r.trace_id)},
               {"attempt", obs::Json(static_cast<std::int64_t>(r.attempt))},
               {"shard", obs::Json(r.shard < links_.size()
                                       ? links_[r.shard]->address.name
                                       : std::string{})},
               {"reason", obs::Json(r.dead_link ? "shard connection died"
                                                : "attempt timeout")}}));
      dispatch(r.id, r.attempt);
    }
  }
}

void Router::stop() {
  {
    std::lock_guard lock(events_mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  events_wake_.notify_all();
  if (maintenance_.joinable()) maintenance_.join();
  prober_->stop();

  for (const auto& link : links_) {
    {
      std::lock_guard lock(link->mutex);
      mark_link_down(*link);
    }
    if (link->reader.joinable()) link->reader.join();
    std::lock_guard lock(link->mutex);
    if (link->fd >= 0) {
      ::close(link->fd);
      link->fd = -1;
    }
  }

  // Nobody is left to answer; reject the stragglers so no client hangs.
  std::unordered_map<std::uint64_t, Pending> leftover;
  {
    std::lock_guard lock(pending_mutex_);
    leftover.swap(pending_);
  }
  for (auto& [id, entry] : leftover)
    reject(id, std::move(entry), "router shutting down");
}

obs::Json Router::admin_in_band(std::string_view what) {
  obs::Json doc = obs::Json::object();
  doc.set("admin", obs::Json(std::string(what)));
  if (what == "metrics") {
    doc.set("body", obs::Json(merged_metrics()));
  } else if (what == "healthz") {
    doc.set("status", obs::Json("ok"));
    doc.set("healthy", obs::Json(true));
  } else if (what == "readyz") {
    const bool ready = prober_->ready_count() > 0;
    doc.set("status", obs::Json(ready ? "ok" : "no shard ready"));
    doc.set("ready", obs::Json(ready));
  } else if (what == "statz") {
    doc.set("stats", stats_json());
  } else if (what == "flightz") {
    doc.set("flight", merged_flightz());
  } else if (what == "tracez") {
    doc.set("enabled", obs::Json(obs::Tracer::instance().enabled()));
    doc.set("trace", obs::Tracer::instance().to_json());
  } else {
    doc.set("error",
            obs::Json("unknown admin command (metrics | healthz | readyz | statz | "
                      "flightz | tracez)"));
  }
  return doc;
}

std::string Router::merged_metrics() {
  std::vector<ShardText> scrapes;
  for (const auto& link : links_) {
    if (link->address.admin.port == 0) continue;
    if (std::optional<std::string> body =
            http_get_body(link->address.admin, "/metrics", config_.connect_timeout_ms))
      scrapes.emplace_back(link->address.name, std::move(*body));
  }
  // Router-local metrics first (router.* counters, plus whatever else this
  // process records), then the cross-shard merge.
  return obs::render_prometheus() + merge_prometheus(scrapes);
}

obs::Json Router::merged_flightz() {
  // The router's own ring first (labelled "router"), then every shard's —
  // aggregate_flightz interleaves the records by wall clock so the merged
  // view reads as one fleet timeline.
  std::vector<ShardJson> views;
  views.emplace_back("router", flight_.to_json());
  for (const auto& link : links_) {
    if (link->address.admin.port == 0) continue;
    if (const std::optional<std::string> body = http_get_body(
            link->address.admin, "/flightz", config_.connect_timeout_ms)) {
      if (std::optional<obs::Json> doc = obs::Json::parse(*body))
        views.emplace_back(link->address.name, std::move(*doc));
    }
  }
  return aggregate_flightz(views);
}

obs::Json Router::aggregated_statz() {
  std::vector<ShardJson> stats;
  for (const auto& link : links_) {
    if (link->address.admin.port == 0) continue;
    if (const std::optional<std::string> body = http_get_body(
            link->address.admin, "/statz", config_.connect_timeout_ms)) {
      if (std::optional<obs::Json> doc = obs::Json::parse(*body))
        stats.emplace_back(link->address.name, std::move(*doc));
    }
  }
  return aggregate_statz(stats);
}

obs::Json Router::stats_json() {
  obs::Json doc = obs::Json::object();
  obs::Json router = obs::Json::object();
  router.set("shards", obs::Json(static_cast<std::uint64_t>(links_.size())));
  router.set("requests", obs::Json(requests_.load(std::memory_order_relaxed)));
  router.set("responses", obs::Json(responses_.load(std::memory_order_relaxed)));
  router.set("failovers", obs::Json(failovers_.load(std::memory_order_relaxed)));
  router.set("rejected", obs::Json(rejected_.load(std::memory_order_relaxed)));
  router.set("late_drops", obs::Json(late_drops_.load(std::memory_order_relaxed)));
  router.set("attempt_timeouts", obs::Json(timeouts_.load(std::memory_order_relaxed)));
  router.set("flight_recorded", obs::Json(flight_.recorded()));
  router.set("flight_anomalies", obs::Json(flight_.anomalies()));
  {
    std::lock_guard lock(pending_mutex_);
    router.set("pending", obs::Json(static_cast<std::uint64_t>(pending_.size())));
  }
  obs::Json per_link = obs::Json::object();
  for (const auto& link : links_) {
    obs::Json entry = obs::Json::object();
    {
      std::lock_guard lock(link->mutex);
      entry.set("connected", obs::Json(link->connected));
    }
    entry.set("ready", obs::Json(prober_->ready(link->address.name)));
    entry.set("forwarded", obs::Json(link->forwarded.load(std::memory_order_relaxed)));
    entry.set("answered", obs::Json(link->answered.load(std::memory_order_relaxed)));
    per_link.set(link->address.name, std::move(entry));
  }
  router.set("links", std::move(per_link));
  router.set("probes", prober_->status_json());
  doc.set("router", std::move(router));
  doc.set("fleet", aggregated_statz());
  return doc;
}

serve::HttpReply Router::admin_http(const std::string& path) {
  if (path == "/metrics")
    return serve::HttpReply{200, "text/plain; version=0.0.4", merged_metrics()};
  if (path == "/healthz") return serve::HttpReply{200, "text/plain", "ok\n"};
  if (path == "/readyz") {
    const bool ready = prober_->ready_count() > 0;
    return serve::HttpReply{ready ? 200 : 503, "text/plain",
                            ready ? "ok\n" : "no shard ready\n"};
  }
  if (path == "/statz")
    return serve::HttpReply{200, "application/json", stats_json().dump(2) + "\n"};
  if (path == "/flightz")
    return serve::HttpReply{200, "application/json", merged_flightz().dump(2) + "\n"};
  if (path == "/tracez")
    // The router's own Chrome trace (with its clock anchor); the collector
    // scrapes the shards' /tracez directly from the status file's topology.
    return serve::HttpReply{200, "application/json",
                            obs::Tracer::instance().to_json().dump(0) + "\n"};
  return serve::HttpReply{404, "text/plain",
                          "routes: /metrics /healthz /readyz /statz /flightz /tracez\n"};
}

}  // namespace srna::dist
