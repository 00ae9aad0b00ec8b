// QueryService — the concurrent MCOS query service.
//
// A pool of std::thread workers drains a bounded admission queue of
// ServeRequests, dispatches each through the McosEngine registry (per-thread
// pooled Workspaces, so steady-state solves allocate nothing), and answers
// through a caller-supplied completion callback. Production behaviors, in
// the order a request meets them:
//
//   resolution  submit() resolves each request once, on the calling thread:
//               dot-bracket literals are parsed (or db names looked up), the
//               backend is found, and the cache key and pair digest are
//               computed. A request that cannot resolve is answered there.
//   cache       completed solves are memoized in a sharded LRU keyed by the
//               canonical (A, B, config) digest. The lookup also runs in
//               submit(): a hit is answered on the calling thread — no
//               queue hop, no worker wake, never rejected for a full queue
//               (queued_ms 0). A miss carries its resolved pair and key to
//               a worker, which looks once more (a duplicate may have filled
//               the entry meanwhile) and parses nothing.
//   admission   misses try_push on the bounded queue; a full queue rejects
//               synchronously with a retry-after hint derived from the
//               current depth and the observed solve-time EWMA (explicit
//               backpressure, never unbounded queueing).
//   coalescing  cache-missed cacheable requests for the *same* (pair, config)
//               single-flight: the first worker in becomes the leader and
//               solves; duplicates arriving while it runs park as followers
//               and are fanned the leader's outcome (their own ids/trace ids,
//               `coalesced: true`). One solve, N answers — the shared-
//               structure analogue of the cache for in-flight misses.
//   batching    with ServiceConfig::batch_window_ms > 0, the first cache-miss
//               for a given structure A (+ config) sleeps the window while
//               other workers park later misses sharing that A; the leader
//               then executes the members back-to-back on its thread, so a
//               shared-structure burst runs against one warm workspace
//               instead of bouncing across the pool.
//   memory      with ServiceConfig::memory_budget_bytes set, the worker asks
//               the backend for its resident-byte upper bound and reserves it
//               against the process-wide budget (atomic CAS) before solving —
//               concurrent large solves cannot sum past the cap. A request
//               that does not fit is answered "over_memory_budget" with the
//               estimate; it never reaches the solver. Cache hits skip the
//               reservation entirely.
//   deadline    each request carries an absolute deadline. Expiry while
//               queued is detected at pop; expiry mid-solve is enforced by
//               the deadline-monitor thread flipping the request's cancel
//               flag, which the solver polls at slice boundaries
//               (SolveCancelled). Either way the client gets a "timeout"
//               response — never a torn result, never silence.
//   drain       drain() closes the queue, lets workers finish every accepted
//               request, then joins; later submissions are rejected, hits
//               included. Exactly one response per accepted request, always.
//
// The pool is std::thread (not OpenMP) on purpose: every synchronization
// primitive here is TSan-modeled, making serve the first subsystem with
// end-to-end race coverage (scripts/check_tsan.sh runs the serve suite).
//
// Metrics (obs Registry): serve.requests, serve.responses_{ok,timeout,
// rejected,error,over_memory}, serve.admission_rejects,
// serve.over_memory_rejects, serve.memory_budget_bytes /
// serve.memory_reserved_bytes / serve.memory_reserved_peak_bytes (gauges:
// the admission budget, the live in-flight reservation sum, and its
// high-water mark), serve.deadline_{queue,solve}_
// expirations, serve.cache_{hits,misses,evictions}, serve.coalesced_requests /
// serve.batched_solves / serve.batch_groups (duplicate misses answered by a
// flight leader; member solves executed by batch leaders; non-empty batch
// groups formed), serve.queue_depth
// (gauge), serve.queue_wait / serve.solve_seconds / serve.request_latency
// (histograms), serve.latency_ms_window / serve.solve_ms_window (sliding
// windows feeding the admin endpoint's live p50/p95/p99), serve.worker_busy_us.
// stats_json() snapshots everything a run report needs, including worker
// utilization.
//
// Tracing: every admitted request gets a monotonically increasing trace id,
// echoed in its response and installed as the obs trace context while the
// request is resolved (on the submitting thread) and while a worker solves
// it — all spans recorded anywhere downstream (cache lookup, engine solve,
// PRNA's parallel stage one) carry `"trace_id": N` and group into one
// correlated lane set in the Chrome trace. A hit records one serve/request
// span; a miss records one at submit (resolve + lookup) and one on its
// worker (solve). Per-phase spans (queued / cache_lookup / solve) are
// recorded only for requests that ask (`"trace": true`), keeping the common
// path at one id assignment. Operational events (rejects, timeouts, drain)
// go through the structured obs logger under `serve.*` event keys.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "db/structure_db.hpp"
#include "engine/engine.hpp"
#include "obs/flight.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/queue.hpp"

namespace srna::serve {

// Flips request cancel flags when their deadlines pass. One monitor thread
// sleeps until the earliest registered deadline; watch()/release() bracket a
// worker's solve. Lazy deletion: released tickets stay in the heap until
// they surface and are discarded.
class DeadlineMonitor {
 public:
  DeadlineMonitor();
  ~DeadlineMonitor();

  DeadlineMonitor(const DeadlineMonitor&) = delete;
  DeadlineMonitor& operator=(const DeadlineMonitor&) = delete;

  using Clock = std::chrono::steady_clock;

  // Registers `flag` to be set to true at `deadline` (unless released
  // first). Returns the ticket for release().
  std::uint64_t watch(Clock::time_point deadline, std::shared_ptr<std::atomic<bool>> flag);
  void release(std::uint64_t ticket);

  void stop();  // joins the monitor thread; pending flags are left unset

 private:
  struct Watch {
    Clock::time_point deadline;
    std::uint64_t ticket;
    // Min-heap by deadline.
    bool operator>(const Watch& other) const noexcept { return deadline > other.deadline; }
  };

  void run();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::vector<Watch> heap_;  // std::push_heap/pop_heap with std::greater
  std::unordered_map<std::uint64_t, std::shared_ptr<std::atomic<bool>>> active_;
  std::uint64_t next_ticket_ = 1;
  bool stopping_ = false;
  std::thread thread_;
};

struct ServiceConfig {
  int workers = 4;                   // clamped to >= 1
  std::size_t queue_capacity = 64;   // admission queue slots
  CacheConfig cache;                 // result cache (capacity 0 disables)
  double default_deadline_ms = 0;    // applied when a request carries none (0 = unlimited)
  std::string default_algorithm = "srna2";
  // Process-wide cap on the summed estimated footprint of in-flight solves
  // (0 = unlimited). Before dispatching, a worker asks the backend for its
  // estimate_memory_bytes(a, b, config) upper bound and reserves that many
  // bytes against this budget with a CAS; a request that cannot fit gets an
  // "over_memory_budget" response instead of a solve. The estimate alone
  // exceeding the budget is a permanent rejection (no retry hint); being
  // crowded out by concurrent solves carries retry_after_ms. Cache hits and
  // name resolution never reserve — only the solve itself does.
  std::uint64_t memory_budget_bytes = 0;
  // Shared-structure batch accumulation window (0 = off). The first
  // cache-missed request for a structure A (+ solver config) waits this long
  // for later misses sharing A to park behind it, then executes the whole
  // group sequentially on one worker (warm per-thread workspace, no
  // cross-worker bouncing). A burst of (A, B_i) queries pays one window of
  // added latency on the leader in exchange for locality; keep it well under
  // request deadlines. Exact duplicates are already deduplicated by the
  // always-on single-flight coalescing regardless of this setting.
  double batch_window_ms = 0;
  // Optional name-resolution corpus for a_name/b_name requests. Not owned;
  // must outlive the service and must not be mutated while serving (lookups
  // run concurrently on workers).
  const StructureDatabase* db = nullptr;
  // Always-on flight recorder (obs/flight.hpp): every response leaves a
  // record in the ring; anomalies (slow responses past flight.slow_ms,
  // timeouts, rejection bursts) dump recent history and retain exemplars
  // behind GET /flightz.
  obs::FlightConfig flight;
};

class QueryService {
 public:
  explicit QueryService(ServiceConfig config);
  ~QueryService();  // drains

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  using Callback = std::function<void(const ServeResponse&)>;

  // Admission. Returns true when the request was accepted: either it was
  // answered inline (a cache hit, or a request that cannot resolve — the
  // callback has already run on this thread) or it was queued and the
  // callback will run exactly once, on a worker thread. Returns false when
  // admission failed (queue full or draining) — the callback has already run
  // inline with a "rejected" response. Either way, every submit produces
  // exactly one response.
  bool submit(ServeRequest request, Callback done);

  // Conveniences for tests and the in-process load generator.
  [[nodiscard]] std::future<ServeResponse> solve_async(ServeRequest request);
  [[nodiscard]] ServeResponse solve(ServeRequest request);

  // Graceful drain: stop admitting, complete every accepted request, join
  // the workers and the deadline monitor. Idempotent; implied by ~QueryService.
  void drain();

  [[nodiscard]] std::size_t queue_depth() const { return queue_.depth(); }
  [[nodiscard]] bool draining() const { return queue_.closed(); }

  // Readiness (the /readyz contract): every worker thread has reached its
  // pop loop — the engine registry resolved and per-thread workspaces exist —
  // and the service is not draining. Liveness (/healthz) is weaker: the
  // process answering at all.
  [[nodiscard]] bool ready() const noexcept {
    return workers_running_.load(std::memory_order_acquire) ==
               static_cast<int>(workers_.size()) &&
           !queue_.closed();
  }
  [[nodiscard]] const ServiceConfig& config() const noexcept { return config_; }
  [[nodiscard]] const ResultCache& cache() const noexcept { return cache_; }
  // The flight-recorder view (GET /flightz and the in-band admin command).
  [[nodiscard]] const obs::FlightRecorder& flight() const noexcept { return flight_; }

  // Everything a run report wants: request/response counts by status, cache
  // stats, queue capacity/depth, latency percentiles (from the registry
  // histograms), worker utilization since construction.
  [[nodiscard]] obs::Json stats_json() const;

 private:
  struct Job {
    ServeRequest request;
    Callback done;
    DeadlineMonitor::Clock::time_point admitted;
    DeadlineMonitor::Clock::time_point deadline;  // time_point::max() = none
    std::uint64_t trace_id = 0;   // service-assigned, echoed in the response
    std::uint64_t admitted_us = 0;  // tracer timestamp at admission (traced requests)
    double queued_ms = 0.0;  // admission -> first worker pickup, set at pickup
    // Set on batch members re-executed by their leader so they cannot park
    // into a second accumulation window.
    bool no_batch = false;
    // Resolved once by submit() (see resolve()); a miss carries all of it to
    // its worker.
    SecondaryStructure a;
    SecondaryStructure b;
    std::string algorithm;                  // the request's, or the default
    const SolverBackend* backend = nullptr;
    SolverConfig config;                    // the request's layout
    std::string digest;                     // pair_digest_hex(a, b)
    CacheKey key;                           // (a, b, config fingerprint)
  };

  // A single-flight entry: jobs that cache-missed on a (pair, config) some
  // other worker is already solving. The leader fans its outcome out to every
  // follower when its solve resolves (ok, timeout, or error alike).
  struct Flight {
    std::vector<Job> followers;
  };
  // A batch accumulation group: cache-missed jobs sharing structure A (+
  // config) parked behind a leader sleeping out the batch window.
  struct BatchGroup {
    std::vector<Job> members;
  };

  // Resolves job.request in place (pair, backend, cache key) and probes the
  // cache. Returns the answer when there already is one — a hit, or an
  // "error" for a request that cannot resolve — and nullopt when the job
  // needs a worker.
  [[nodiscard]] std::optional<ServeResponse> resolve(Job& job);
  void worker_loop();
  void process(Job job);
  // Solves a resolved job. When the job parked behind an in-flight duplicate
  // or a batch leader instead, sets `parked` and returns a meaningless response —
  // ownership of the job (and the duty to answer it) moved to that leader.
  // When this job led a batch, its collected members are appended to
  // `batch_members` for the caller to execute after responding to the leader.
  [[nodiscard]] ServeResponse solve_job(Job& job, bool& parked,
                                        std::vector<Job>& batch_members);
  // Runs a parked batch member on the current (leader) thread: deadline
  // check, solve, respond. The member may still coalesce into another flight.
  void run_batch_member(Job job);
  // Pops the flight for `key` and answers every follower with the leader's
  // outcome (per-follower id / trace id / queue timing, coalesced = true).
  void finish_flight(const std::string& key, const ServeResponse& leader_response);
  void respond(const Job& job, ServeResponse response);
  [[nodiscard]] double retry_after_ms_hint() const;

  // Memory admission: CAS-reserves `bytes` against memory_budget_bytes.
  // Returns false when the reservation would push the in-flight sum over
  // the budget (the caller rejects the request). A budget of 0 always
  // succeeds without touching the counter.
  [[nodiscard]] bool try_reserve_memory(std::uint64_t bytes);
  void release_memory(std::uint64_t bytes);

  ServiceConfig config_;
  const SolverBackend* default_backend_ = nullptr;  // config_.default_algorithm's
  ResultCache cache_;
  BoundedQueue<Job> queue_;
  DeadlineMonitor monitor_;
  obs::FlightRecorder flight_;
  std::vector<std::thread> workers_;

  // Workers that have entered worker_loop (readiness, see ready()).
  std::atomic<int> workers_running_{0};
  std::atomic<std::uint64_t> next_trace_id_{1};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> responses_ok_{0};
  std::atomic<std::uint64_t> responses_timeout_{0};
  std::atomic<std::uint64_t> responses_error_{0};
  std::atomic<std::uint64_t> responses_over_memory_{0};
  // Summed estimates of in-flight solves, bounded by memory_budget_bytes.
  std::atomic<std::uint64_t> memory_reserved_{0};
  // Duplicate in-flight misses answered by a flight leader's solve.
  std::atomic<std::uint64_t> coalesced_{0};
  // Member solves executed by batch leaders / non-empty groups formed.
  std::atomic<std::uint64_t> batched_solves_{0};
  std::atomic<std::uint64_t> batch_groups_{0};
  std::atomic<std::uint64_t> worker_busy_us_{0};
  // EWMA of solve seconds, for the retry-after hint (stored as double bits).
  std::atomic<std::uint64_t> solve_ewma_bits_{0};
  std::chrono::steady_clock::time_point started_;
  bool drained_ = false;
  std::mutex drain_mutex_;
  // Guards inflight_ and batches_. Held only for map insert/extract — never
  // across a solve or a callback — so it cannot deadlock against workers.
  std::mutex coalesce_mutex_;
  std::unordered_map<std::string, Flight> inflight_;   // digest|fingerprint
  std::unordered_map<std::string, BatchGroup> batches_;  // digest(A)|fingerprint
};

// The cache-key fingerprint of everything outside the structure pair that
// changes an answer: backend name + layout. Exposed for tests.
[[nodiscard]] std::string config_fingerprint(const std::string& algorithm,
                                             const SolverConfig& config);

}  // namespace srna::serve
