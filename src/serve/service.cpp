#include "serve/service.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/perf/memory.hpp"
#include "obs/trace.hpp"
#include "rna/dot_bracket.hpp"
#include "rna/structure_hash.hpp"

namespace srna::serve {

namespace {

using Clock = DeadlineMonitor::Clock;

double ms_between(Clock::time_point from, Clock::time_point to) noexcept {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double seconds_between(Clock::time_point from, Clock::time_point to) noexcept {
  return std::chrono::duration<double>(to - from).count();
}

// The registry instruments the request path touches, resolved once: each
// Registry lookup takes the registry's global mutex. The references stay
// valid across Registry::reset(), which zeroes values in place.
struct Instruments {
  obs::Registry& registry = obs::Registry::instance();
  obs::Counter& requests = registry.counter("serve.requests");
  obs::Counter& admission_rejects = registry.counter("serve.admission_rejects");
  obs::Gauge& queue_depth = registry.gauge("serve.queue_depth");
  obs::Histogram& queue_wait = registry.histogram("serve.queue_wait");
  obs::Counter& deadline_queue_expirations =
      registry.counter("serve.deadline_queue_expirations");
  obs::Counter& deadline_solve_expirations =
      registry.counter("serve.deadline_solve_expirations");
  obs::Counter& coalesced_requests = registry.counter("serve.coalesced_requests");
  obs::Counter& batched_solves = registry.counter("serve.batched_solves");
  obs::Counter& batch_groups = registry.counter("serve.batch_groups");
  obs::Counter& over_memory_rejects = registry.counter("serve.over_memory_rejects");
  obs::Gauge& memory_budget_bytes = registry.gauge("serve.memory_budget_bytes");
  obs::Gauge& memory_reserved_bytes = registry.gauge("serve.memory_reserved_bytes");
  obs::Gauge& memory_reserved_peak_bytes = registry.gauge("serve.memory_reserved_peak_bytes");
  obs::Histogram& solve_seconds = registry.histogram("serve.solve_seconds");
  obs::WindowHistogram& solve_ms_window = registry.window("serve.solve_ms_window");
  obs::Histogram& request_latency = registry.histogram("serve.request_latency");
  obs::WindowHistogram& latency_ms_window = registry.window("serve.latency_ms_window");
  obs::Counter& responses_ok = registry.counter("serve.responses_ok");
  obs::Counter& responses_timeout = registry.counter("serve.responses_timeout");
  obs::Counter& responses_rejected = registry.counter("serve.responses_rejected");
  obs::Counter& responses_over_memory = registry.counter("serve.responses_over_memory");
  obs::Counter& responses_error = registry.counter("serve.responses_error");
};

// 2 * MCOS / (arcs_a + arcs_b): 1.0 for identical arc sets.
double normalized_score(const SecondaryStructure& a, const SecondaryStructure& b,
                        Score value) noexcept {
  const double denom = static_cast<double>(a.arc_count() + b.arc_count());
  return denom > 0 ? 2.0 * static_cast<double>(value) / denom : 1.0;
}

const Instruments& instruments() {
  static const Instruments kInstruments;
  return kInstruments;
}

}  // namespace

// ------------------------------------------------------------ DeadlineMonitor

DeadlineMonitor::DeadlineMonitor() : thread_([this] { run(); }) {}

DeadlineMonitor::~DeadlineMonitor() { stop(); }

std::uint64_t DeadlineMonitor::watch(Clock::time_point deadline,
                                     std::shared_ptr<std::atomic<bool>> flag) {
  std::uint64_t ticket;
  {
    std::lock_guard lock(mutex_);
    ticket = next_ticket_++;
    active_.emplace(ticket, std::move(flag));
    heap_.push_back(Watch{deadline, ticket});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }
  wake_.notify_one();
  return ticket;
}

void DeadlineMonitor::release(std::uint64_t ticket) {
  std::lock_guard lock(mutex_);
  // Lazy deletion: the heap entry is discarded when it surfaces.
  active_.erase(ticket);
}

void DeadlineMonitor::stop() {
  {
    std::lock_guard lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void DeadlineMonitor::run() {
  std::unique_lock lock(mutex_);
  while (!stopping_) {
    // Drop released tickets off the top, fire everything due.
    const Clock::time_point now = Clock::now();
    while (!heap_.empty()) {
      const Watch& top = heap_.front();
      const auto it = active_.find(top.ticket);
      if (it == active_.end()) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
        heap_.pop_back();
        continue;
      }
      if (top.deadline > now) break;
      it->second->store(true, std::memory_order_relaxed);
      active_.erase(it);
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      heap_.pop_back();
    }
    if (heap_.empty()) {
      wake_.wait(lock, [&] { return stopping_ || !heap_.empty(); });
    } else {
      wake_.wait_until(lock, heap_.front().deadline);
    }
  }
}

// --------------------------------------------------------------- QueryService

std::string config_fingerprint(const std::string& algorithm, const SolverConfig& config) {
  // Only knobs that change the *value* or are worth keying separately need
  // to appear; layout cannot change the answer but keeps entries honest
  // about what was measured.
  return algorithm + "/" +
         (config.layout == SliceLayout::kCompressed ? "compressed" : "dense");
}

QueryService::QueryService(ServiceConfig config)
    : config_(std::move(config)),
      cache_(config_.cache),
      queue_(std::max<std::size_t>(1, config_.queue_capacity)),
      flight_(config_.flight),
      started_(Clock::now()) {
  if (config_.default_algorithm.empty()) config_.default_algorithm = "srna2";
  // Fail construction, not the first request, on an unknown default backend.
  default_backend_ = &McosEngine::instance().at(config_.default_algorithm);
  instruments().memory_budget_bytes.set(static_cast<double>(config_.memory_budget_bytes));
  const int workers = std::max(1, config_.workers);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) workers_.emplace_back([this] { worker_loop(); });
}

QueryService::~QueryService() { drain(); }

void QueryService::drain() {
  std::lock_guard drain_lock(drain_mutex_);
  if (drained_) return;
  obs::log_info("serve.drain",
                obs::log_fields({{"queued", obs::Json(static_cast<std::uint64_t>(
                                                queue_.depth()))}}));
  queue_.close();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  monitor_.stop();
  drained_ = true;
  obs::log_info("serve.drained",
                obs::log_fields(
                    {{"accepted", obs::Json(accepted_.load(std::memory_order_relaxed))},
                     {"rejected", obs::Json(rejected_.load(std::memory_order_relaxed))}}));
}

bool QueryService::try_reserve_memory(std::uint64_t bytes) {
  const std::uint64_t budget = config_.memory_budget_bytes;
  if (budget == 0) return true;
  std::uint64_t current = memory_reserved_.load(std::memory_order_relaxed);
  for (;;) {
    if (bytes > budget - current) return false;  // current <= budget always
    if (memory_reserved_.compare_exchange_weak(current, current + bytes,
                                               std::memory_order_relaxed))
      break;
  }
  instruments().memory_reserved_bytes.set(
      static_cast<double>(memory_reserved_.load(std::memory_order_relaxed)));
  instruments().memory_reserved_peak_bytes.set_max(static_cast<double>(current + bytes));
  return true;
}

void QueryService::release_memory(std::uint64_t bytes) {
  if (config_.memory_budget_bytes == 0 || bytes == 0) return;
  const std::uint64_t after =
      memory_reserved_.fetch_sub(bytes, std::memory_order_relaxed) - bytes;
  instruments().memory_reserved_bytes.set(static_cast<double>(after));
}

double QueryService::retry_after_ms_hint() const {
  // Rough service-time model: depth/workers solves ahead of a retry, each
  // costing the observed EWMA. Floor at 1ms so clients always back off.
  const double ewma =
      std::bit_cast<double>(solve_ewma_bits_.load(std::memory_order_relaxed));
  const double per_solve = ewma > 0 ? ewma : 1e-3;
  const double workers = static_cast<double>(workers_.empty() ? 1 : workers_.size());
  const double depth = static_cast<double>(queue_.depth());
  return std::max(1.0, 1e3 * per_solve * (depth + 1.0) / workers);
}

bool QueryService::submit(ServeRequest request, Callback done) {
  const Instruments& metrics = instruments();
  metrics.requests.add();
  Job job;
  job.admitted = Clock::now();
  // A propagated correlation id (the distributed router's, or any upstream
  // caller's) is adopted wholesale; only uncorrelated requests mint locally.
  job.trace_id = request.trace_id != 0
                     ? request.trace_id
                     : next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  const double deadline_ms =
      request.deadline_ms > 0 ? request.deadline_ms : config_.default_deadline_ms;
  job.deadline = deadline_ms > 0
                     ? job.admitted + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double, std::milli>(deadline_ms))
                     : Clock::time_point::max();
  job.request = std::move(request);
  job.done = std::move(done);

  const std::int64_t request_id = job.request.id;
  const std::uint64_t trace_id = job.trace_id;
  PushResult admission = PushResult::kClosed;
  if (!queue_.closed()) {
    // Resolve and probe the cache here, on the submitting thread: a hit (or
    // a request that cannot resolve) is answered now — never queued, never
    // rejected for a full queue.
    obs::TraceContextScope trace_scope(job.trace_id);
    if (std::optional<ServeResponse> answer = resolve(job)) {
      accepted_.fetch_add(1, std::memory_order_relaxed);
      answer->trace_id = job.trace_id;
      respond(job, std::move(*answer));
      return true;
    }
    // Tracer timestamp captured at admission so the worker can record the
    // queued phase retroactively (the span belongs to this request's lane
    // even though no thread runs it while it waits).
    if (job.request.trace && obs::Tracer::instance().enabled())
      job.admitted_us = obs::Tracer::instance().now_us();
    admission = queue_.try_push(std::move(job));
  }
  if (admission == PushResult::kAccepted) {
    accepted_.fetch_add(1, std::memory_order_relaxed);
    metrics.queue_depth.set(static_cast<double>(queue_.depth()));
    if (obs::Logger::instance().enabled(obs::LogLevel::kDebug))
      obs::log_debug("serve.accept",
                     obs::log_fields({{"id", obs::Json(request_id)},
                                      {"trace_id", obs::Json(trace_id)}}));
    return true;
  }

  // Rejected inline: try_push moves from its argument only on accept, so
  // `job` still owns the request and callback here.
  rejected_.fetch_add(1, std::memory_order_relaxed);
  metrics.admission_rejects.add();
  ServeResponse resp;
  resp.id = job.request.id;
  resp.status = ResponseStatus::kRejected;
  if (admission == PushResult::kFull) {
    resp.retry_after_ms = retry_after_ms_hint();
    resp.error = "queue full (capacity " + std::to_string(queue_.capacity()) + ")";
  } else {
    resp.error = "service is draining";
  }
  obs::log_warn(
      "serve.reject",
      obs::log_fields({{"id", obs::Json(job.request.id)},
                       {"reason", obs::Json(resp.error)},
                       {"retry_after_ms", obs::Json(resp.retry_after_ms)}}));
  resp.latency_ms = ms_between(job.admitted, Clock::now());
  // Rejections never reach respond(), so the flight recorder hears about
  // them here — a burst of these records is exactly the anomaly it watches.
  obs::FlightRecord flight_record;
  flight_record.trace_id = trace_id;
  flight_record.request_id = resp.id;
  flight_record.outcome = to_string(resp.status);
  flight_record.detail = resp.error;
  flight_record.latency_ms = resp.latency_ms;
  flight_.record(std::move(flight_record));
  job.done(resp);
  return false;
}

std::optional<ServeResponse> QueryService::resolve(Job& job) {
  const ServeRequest& req = job.request;
  obs::TraceScope span("serve", "request");
  if (span.active()) span.set_args(obs::trace_args({{"id", req.id}}));
  job.algorithm = req.algorithm.empty() ? config_.default_algorithm : req.algorithm;
  ServeResponse resp;
  resp.id = req.id;
  resp.algorithm = job.algorithm;
  try {
    if (req.by_name()) {
      if (config_.db == nullptr)
        throw std::invalid_argument("this service has no structure database loaded");
      const std::size_t ia = config_.db->find(req.a_name);
      const std::size_t ib = config_.db->find(req.b_name);
      if (ia == StructureDatabase::npos)
        throw std::invalid_argument("unknown structure name '" + req.a_name + "'");
      if (ib == StructureDatabase::npos)
        throw std::invalid_argument("unknown structure name '" + req.b_name + "'");
      job.a = config_.db->record(ia).structure;
      job.b = config_.db->record(ib).structure;
    } else {
      job.a = parse_dot_bracket(req.a);
      job.b = parse_dot_bracket(req.b);
    }
    // The canonical pair digest, echoed so routing is auditable end to end
    // (the distributed router hashes the same digest onto its shard ring).
    const std::uint64_t pair_digest = hash_structure_pair(job.a, job.b);
    job.digest = digest_hex(pair_digest);
    resp.digest = job.digest;
    job.backend = req.algorithm.empty() ? default_backend_
                                        : &McosEngine::instance().at(req.algorithm);
    if (req.layout == "compressed") job.config.layout = SliceLayout::kCompressed;
    job.key = CacheKey::make(job.a, job.b, config_fingerprint(job.algorithm, job.config),
                             pair_digest);
  } catch (const std::exception& e) {
    resp.status = ResponseStatus::kError;
    resp.error = e.what();
    return resp;
  }
  if (req.no_cache) return std::nullopt;

  obs::TraceScope cache_span("serve", "cache_lookup", req.trace);
  const std::optional<Score> hit = cache_.get(job.key);
  if (cache_span.active())
    cache_span.set_args(obs::trace_args({{"hit", hit.has_value() ? 1 : 0}}));
  if (!hit) return std::nullopt;
  resp.status = ResponseStatus::kOk;
  resp.value = *hit;
  resp.normalized = normalized_score(job.a, job.b, *hit);
  resp.cache_hit = true;
  return resp;
}

std::future<ServeResponse> QueryService::solve_async(ServeRequest request) {
  auto promise = std::make_shared<std::promise<ServeResponse>>();
  std::future<ServeResponse> future = promise->get_future();
  submit(std::move(request),
         [promise](const ServeResponse& resp) { promise->set_value(resp); });
  return future;
}

ServeResponse QueryService::solve(ServeRequest request) {
  return solve_async(std::move(request)).get();
}

void QueryService::worker_loop() {
  workers_running_.fetch_add(1, std::memory_order_acq_rel);
  while (auto job = queue_.pop()) {
    instruments().queue_depth.set(static_cast<double>(queue_.depth()));
    process(std::move(*job));
  }
}

void QueryService::process(Job job) {
  const Clock::time_point picked_up = Clock::now();
  instruments().queue_wait.observe(std::max(1e-9, seconds_between(job.admitted, picked_up)));
  // Stored on the job because a parked job is answered later, by its flight
  // or batch leader, which must echo this job's own queue timing.
  job.queued_ms = ms_between(job.admitted, picked_up);

  // Everything recorded while this worker owns the request — including spans
  // from the engine and PRNA layers below — carries the request's trace id.
  obs::TraceContextScope trace_scope(job.trace_id);
  if (job.admitted_us != 0 && obs::Tracer::instance().enabled()) {
    // The queued phase, recorded retroactively now that a thread owns it.
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.record("serve", "queued", job.admitted_us,
                  tracer.now_us() - job.admitted_us,
                  obs::trace_args({{"id", job.request.id}}));
  }

  const std::uint64_t trace_id = job.trace_id;
  const double queued_ms = job.queued_ms;
  ServeResponse response;
  bool parked = false;
  std::vector<Job> batch_members;
  if (picked_up >= job.deadline) {
    // Expired while queued: answer without burning a solve on it.
    instruments().deadline_queue_expirations.add();
    response.id = job.request.id;
    response.status = ResponseStatus::kTimeout;
    response.error = "deadline expired while queued";
  } else {
    response = solve_job(job, parked, batch_members);
  }
  if (!parked) {
    response.trace_id = trace_id;
    response.queued_ms = queued_ms;
    respond(job, std::move(response));
  }
  // Members collected while this job led a batch window run back-to-back on
  // this thread — against its warm per-thread workspace — after the leader's
  // own answer went out.
  for (Job& member : batch_members) run_batch_member(std::move(member));

  const Clock::time_point finished = Clock::now();
  worker_busy_us_.fetch_add(
      static_cast<std::uint64_t>(1e6 * seconds_between(picked_up, finished)),
      std::memory_order_relaxed);
}

void QueryService::run_batch_member(Job job) {
  job.no_batch = true;  // one accumulation window per request, ever
  obs::TraceContextScope trace_scope(job.trace_id);
  ServeResponse response;
  bool parked = false;
  std::vector<Job> no_members;  // no_batch ⇒ solve_job never fills this
  if (Clock::now() >= job.deadline) {
    instruments().deadline_queue_expirations.add();
    response.id = job.request.id;
    response.status = ResponseStatus::kTimeout;
    response.error = "deadline expired while batched";
  } else {
    batched_solves_.fetch_add(1, std::memory_order_relaxed);
    instruments().batched_solves.add();
    response = solve_job(job, parked, no_members);
  }
  if (parked) return;  // joined an in-flight duplicate; that leader answers it
  response.trace_id = job.trace_id;
  response.queued_ms = job.queued_ms;
  respond(job, std::move(response));
}

void QueryService::finish_flight(const std::string& key,
                                 const ServeResponse& leader_response) {
  std::vector<Job> followers;
  {
    std::lock_guard lock(coalesce_mutex_);
    const auto it = inflight_.find(key);
    if (it == inflight_.end()) return;
    followers = std::move(it->second.followers);
    inflight_.erase(it);
  }
  // Followers share the leader's outcome wholesale — value, status, error,
  // solve_ms — under their own correlation identity. A follower whose
  // deadline passed mid-flight still gets the result: an answer in hand
  // beats a timeout for a solve that completed anyway.
  for (Job& follower : followers) {
    ServeResponse fanned = leader_response;
    fanned.id = follower.request.id;
    fanned.trace_id = follower.trace_id;
    fanned.queued_ms = follower.queued_ms;
    fanned.coalesced = true;
    respond(follower, std::move(fanned));
  }
}

ServeResponse QueryService::solve_job(Job& job, bool& parked,
                                      std::vector<Job>& batch_members) {
  const ServeRequest& req = job.request;
  const Instruments& metrics = instruments();
  ServeResponse resp;
  resp.id = req.id;
  resp.algorithm = job.algorithm;
  resp.digest = job.digest;

  // Set once this worker registers itself as the single-flight leader for
  // its (pair, config); every exit after that point — ok, over-memory,
  // timeout, error — must fan the outcome out to parked followers.
  bool flight_leader = false;
  std::string flight_key;

  try {
    obs::TraceScope span("serve", "request");
    if (span.active()) span.set_args(obs::trace_args({{"id", req.id}}));

    // The pair, backend and cache key were resolved at submit. Look again:
    // a duplicate may have filled the cache while this job was queued.
    if (!req.no_cache) {
      if (const std::optional<Score> hit = cache_.get(job.key, /*count_miss=*/false)) {
        resp.status = ResponseStatus::kOk;
        resp.value = *hit;
        resp.normalized = normalized_score(job.a, job.b, *hit);
        resp.cache_hit = true;
        return resp;
      }
    }

    // Shared-structure batching: the first miss for a structure A sleeps out
    // the accumulation window while later misses sharing A park behind it;
    // the leader then runs the members sequentially on its thread (via
    // process(), after its own answer). no_cache requests skip this — they
    // demand a fresh, immediate solve.
    if (config_.batch_window_ms > 0 && !req.no_cache && !job.no_batch) {
      const std::string batch_key =
          digest_hex(hash_structure(job.a)) + "|" + job.key.fingerprint;
      bool batch_leader = false;
      {
        std::lock_guard lock(coalesce_mutex_);
        auto [it, inserted] = batches_.try_emplace(batch_key);
        if (inserted)
          batch_leader = true;
        else
          it->second.members.push_back(std::move(job));
      }
      if (!batch_leader) {
        parked = true;
        return resp;
      }
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          config_.batch_window_ms));
      {
        std::lock_guard lock(coalesce_mutex_);
        const auto it = batches_.find(batch_key);
        if (it != batches_.end()) {
          batch_members = std::move(it->second.members);
          batches_.erase(it);
        }
      }
      if (!batch_members.empty()) {
        batch_groups_.fetch_add(1, std::memory_order_relaxed);
        metrics.batch_groups.add();
        obs::log_debug(
            "serve.batch_group",
            obs::log_fields({{"id", obs::Json(req.id)},
                             {"members", obs::Json(static_cast<std::uint64_t>(
                                             batch_members.size()))}}));
      }
    }

    // Single-flight coalescing: if another worker is already solving this
    // exact (pair, config), park behind it instead of solving it again; the
    // leader fans its outcome out to every follower. Duplicate misses cost
    // one solve total, and followers add nothing to the memory reservation.
    if (!req.no_cache) {
      flight_key = job.digest + "|" + job.key.fingerprint;
      bool joined = false;
      {
        std::lock_guard lock(coalesce_mutex_);
        auto [it, inserted] = inflight_.try_emplace(flight_key);
        if (inserted)
          flight_leader = true;
        else {
          it->second.followers.push_back(std::move(job));
          joined = true;
        }
      }
      if (joined) {
        coalesced_.fetch_add(1, std::memory_order_relaxed);
        metrics.coalesced_requests.add();
        parked = true;
        return resp;
      }
    }

    const SolverBackend& backend = *job.backend;
    SolverConfig config = job.config;
    // Memory admission: reserve the backend's resident-byte upper bound
    // against the process budget before dispatching, so concurrent large
    // solves cannot sum past the cap. Runs after the cache lookup on
    // purpose — a hit costs no solver memory and must never be rejected.
    std::uint64_t reserved_bytes = 0;
    if (const std::uint64_t budget = config_.memory_budget_bytes; budget != 0) {
      const std::uint64_t estimate = backend.estimate_memory_bytes(job.a, job.b, config);
      if (!try_reserve_memory(estimate)) {
        metrics.over_memory_rejects.add();
        resp.status = ResponseStatus::kOverMemoryBudget;
        resp.estimated_bytes = estimate;
        if (estimate <= budget) {
          // Fits an idle service; it was only crowded out by in-flight
          // solves. The hint tells the client when to come back.
          resp.retry_after_ms = retry_after_ms_hint();
          resp.error = "estimated " + std::to_string(estimate) +
                       " solver bytes do not fit the remaining memory budget";
        } else {
          // No retry can ever succeed for this (pair, algorithm).
          resp.error = "estimated " + std::to_string(estimate) +
                       " solver bytes exceed the service memory budget of " +
                       std::to_string(budget) + " bytes";
        }
        obs::log_warn("serve.over_memory",
                      obs::log_fields({{"id", obs::Json(req.id)},
                                       {"algorithm", obs::Json(job.algorithm)},
                                       {"estimated_bytes", obs::Json(estimate)},
                                       {"budget_bytes", obs::Json(budget)}}));
        if (flight_leader) finish_flight(flight_key, resp);
        return resp;
      }
      reserved_bytes = estimate;
    }
    // Local classes share the enclosing member function's access, so the
    // guard may call the private release on every exit path below.
    struct ReservationGuard {
      QueryService* service;
      std::uint64_t bytes;
      ~ReservationGuard() { service->release_memory(bytes); }
    } reservation_guard{this, reserved_bytes};

    // Deadline enforcement: the monitor flips `cancel` when the request's
    // absolute deadline passes; the solver polls it at slice boundaries.
    auto cancel = std::make_shared<std::atomic<bool>>(false);
    std::uint64_t ticket = 0;
    const bool watched = job.deadline != Clock::time_point::max() &&
                         backend.caps().cancel;
    if (watched) {
      config.cancel = cancel.get();
      ticket = monitor_.watch(job.deadline, cancel);
    }

    const Clock::time_point solve_start = Clock::now();
    try {
      obs::TraceScope solve_span("serve", "solve", req.trace);
      if (solve_span.active())
        solve_span.set_args(obs::trace_args(
            {{"n_a", static_cast<std::int64_t>(job.a.length())},
             {"n_b", static_cast<std::int64_t>(job.b.length())}}));
      const EngineResult result =
          solve_with(backend, job.a, job.b, config, Workspace::local());
      solve_span.close();
      if (watched) monitor_.release(ticket);
      const double solve_seconds = seconds_between(solve_start, Clock::now());
      resp.solve_ms = solve_seconds * 1e3;
      metrics.solve_seconds.observe(std::max(1e-9, solve_seconds));
      metrics.solve_ms_window.observe(resp.solve_ms, job.trace_id);
      // EWMA(1/8) feeds the retry-after hint; benign update race is fine.
      const double prev =
          std::bit_cast<double>(solve_ewma_bits_.load(std::memory_order_relaxed));
      const double next = prev > 0 ? prev + (solve_seconds - prev) / 8.0 : solve_seconds;
      solve_ewma_bits_.store(std::bit_cast<std::uint64_t>(next),
                             std::memory_order_relaxed);

      resp.status = ResponseStatus::kOk;
      resp.value = result.value;
      resp.normalized = normalized_score(job.a, job.b, result.value);
      if (!req.no_cache) cache_.put(std::move(job.key), result.value);
    } catch (const SolveCancelled&) {
      if (watched) monitor_.release(ticket);
      metrics.deadline_solve_expirations.add();
      resp.status = ResponseStatus::kTimeout;
      resp.error = "deadline expired mid-solve (cancelled at a slice boundary)";
      resp.solve_ms = ms_between(solve_start, Clock::now());
    } catch (...) {
      if (watched) monitor_.release(ticket);
      throw;
    }
  } catch (const std::exception& e) {
    resp.status = ResponseStatus::kError;
    resp.error = e.what();
  }
  // Fan the leader's outcome — whatever it is — out to parked duplicates.
  // Runs after the cache put above, so a follower-turned-new-leader race
  // (miss before the put, join after the erase) can only cost a redundant
  // solve, never a wrong or missing answer.
  if (flight_leader) finish_flight(flight_key, resp);
  return resp;
}

void QueryService::respond(const Job& job, ServeResponse response) {
  response.latency_ms = ms_between(job.admitted, Clock::now());
  const Instruments& metrics = instruments();
  metrics.request_latency.observe(std::max(1e-9, response.latency_ms / 1e3));
  // The sliding window behind the admin endpoint's live p50/p95/p99 gauges.
  // The trace id rides along as the exemplar: the window's max quantile can
  // name the exact request that set it.
  metrics.latency_ms_window.observe(response.latency_ms, response.trace_id);
  switch (response.status) {
    case ResponseStatus::kOk:
      responses_ok_.fetch_add(1, std::memory_order_relaxed);
      metrics.responses_ok.add();
      break;
    case ResponseStatus::kTimeout:
      responses_timeout_.fetch_add(1, std::memory_order_relaxed);
      metrics.responses_timeout.add();
      obs::log_warn("serve.timeout",
                    obs::log_fields({{"id", obs::Json(response.id)},
                                     {"trace_id", obs::Json(response.trace_id)},
                                     {"latency_ms", obs::Json(response.latency_ms)},
                                     {"detail", obs::Json(response.error)}}));
      break;
    case ResponseStatus::kRejected:
      metrics.responses_rejected.add();
      break;
    case ResponseStatus::kOverMemoryBudget:
      responses_over_memory_.fetch_add(1, std::memory_order_relaxed);
      metrics.responses_over_memory.add();
      break;
    case ResponseStatus::kError:
      responses_error_.fetch_add(1, std::memory_order_relaxed);
      metrics.responses_error.add();
      obs::log_warn("serve.error",
                    obs::log_fields({{"id", obs::Json(response.id)},
                                     {"trace_id", obs::Json(response.trace_id)},
                                     {"detail", obs::Json(response.error)}}));
      break;
  }
  // Every answered request leaves one flight record; timeouts, errors, and
  // slow responses (past flight.slow_ms) trip the anomaly dump.
  obs::FlightRecord flight_record;
  flight_record.trace_id = response.trace_id;
  flight_record.request_id = response.id;
  flight_record.digest = response.digest;
  flight_record.outcome = to_string(response.status);
  flight_record.detail = response.error;
  flight_record.latency_ms = response.latency_ms;
  flight_record.queued_ms = response.queued_ms;
  flight_record.solve_ms = response.solve_ms;
  flight_record.cache_hit = response.cache_hit;
  flight_.record(std::move(flight_record));
  job.done(response);
}

obs::Json QueryService::stats_json() const {
  const Instruments& metrics = instruments();
  obs::Json doc = obs::Json::object();
  doc.set("workers", obs::Json(static_cast<std::uint64_t>(workers_.size())));
  doc.set("queue_capacity", obs::Json(static_cast<std::uint64_t>(queue_.capacity())));
  doc.set("queue_depth", obs::Json(static_cast<std::uint64_t>(queue_.depth())));
  doc.set("accepted", obs::Json(accepted_.load(std::memory_order_relaxed)));
  doc.set("rejected", obs::Json(rejected_.load(std::memory_order_relaxed)));
  doc.set("responses_ok", obs::Json(responses_ok_.load(std::memory_order_relaxed)));
  doc.set("responses_timeout", obs::Json(responses_timeout_.load(std::memory_order_relaxed)));
  doc.set("responses_error", obs::Json(responses_error_.load(std::memory_order_relaxed)));
  doc.set("responses_over_memory",
          obs::Json(responses_over_memory_.load(std::memory_order_relaxed)));
  doc.set("coalesced_requests", obs::Json(coalesced_.load(std::memory_order_relaxed)));
  doc.set("batched_solves", obs::Json(batched_solves_.load(std::memory_order_relaxed)));
  doc.set("batch_groups", obs::Json(batch_groups_.load(std::memory_order_relaxed)));
  doc.set("memory_budget_bytes", obs::Json(config_.memory_budget_bytes));
  doc.set("memory_reserved_bytes",
          obs::Json(memory_reserved_.load(std::memory_order_relaxed)));
  doc.set("cache", cache_.stats_json());

  const double busy_seconds =
      static_cast<double>(worker_busy_us_.load(std::memory_order_relaxed)) / 1e6;
  const double elapsed = seconds_between(started_, Clock::now());
  doc.set("worker_busy_seconds", obs::Json(busy_seconds));
  doc.set("uptime_seconds", obs::Json(elapsed));
  doc.set("worker_utilization",
          obs::Json(elapsed > 0 ? busy_seconds /
                                      (elapsed * static_cast<double>(workers_.size()))
                                : 0.0));

  obs::Json latency = obs::Json::object();
  const auto lat = metrics.request_latency.snapshot();
  latency.set("count", obs::Json(lat.count));
  latency.set("p50_ms", obs::Json(lat.p50 * 1e3));
  latency.set("p90_ms", obs::Json(lat.p90 * 1e3));
  latency.set("p99_ms", obs::Json(lat.p99 * 1e3));
  latency.set("max_ms", obs::Json(lat.max * 1e3));
  doc.set("request_latency", std::move(latency));
  // Exact percentiles over the recent window (what the admin endpoint
  // exposes live), alongside the since-start bucket estimates above.
  doc.set("latency_ms_window", metrics.latency_ms_window.to_json());
  // The memory ledger: RSS plus the exact byte gauges (memo table, slice
  // scratch, result cache) — one place to answer "what does serving cost in
  // bytes right now".
  doc.set("memory", obs::memory_ledger_json());
  return doc;
}

}  // namespace srna::serve
