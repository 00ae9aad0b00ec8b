// The serve wire protocol: JSON-lines over any byte stream.
//
// One request per line, one response per line; responses carry the
// request's `id` and may arrive out of order (the worker pool completes
// fast requests ahead of slow ones), so clients correlate by id. The same
// schema runs over the TCP listener and the offline stdin/stdout mode —
// tests and CI exercise the full service with no networking.
//
// Request:
//   {"id": 7, "a": "((..))", "b": "(..)"}                  structure-pair form
//   {"id": 8, "a_name": "rrna1", "b_name": "rrna2"}        db-name form
//   optional: "algorithm" (engine backend, default per service),
//             "layout" ("dense" | "compressed"),
//             "deadline_ms" (0 = service default), "no_cache" (bool),
//             "trace" (bool: record per-phase spans for this request)
//
// Response: {"id": 7, "status": "ok", "value": 3, "normalized": 0.75,
//            "cache_hit": false, "latency_ms": 1.2, "algorithm": "srna2",
//            "trace_id": 42, "queued_ms": 0.1, "solve_ms": 1.0}
//   status "rejected" adds "retry_after_ms" (admission backpressure);
//   status "over_memory_budget" means the solve's estimated footprint does
//   not fit the service's memory budget — it adds "estimated_bytes" (the
//   backend's upper bound for this pair) and, when the request would fit an
//   idle service (it was only crowded out by in-flight solves),
//   "retry_after_ms"; a response without the hint is a permanent rejection
//   for this (pair, algorithm) — retrying cannot succeed;
//   status "timeout" means the deadline expired (queued or mid-solve);
//   status "error" carries the failure text in "error".
//   Every admitted request echoes the service-assigned "trace_id" (the key
//   correlating its spans in a Chrome trace) and its phase breakdown:
//   "queued_ms" (admission -> worker pickup) and "solve_ms" (engine time;
//   0 on a cache hit). Rejected requests never reach a worker and carry none
//   of the three.
//   Responses whose structure pair resolved also echo "digest": the canonical
//   structure-pair digest (rna/structure_hash.hpp, 16 lowercase hex digits).
//   The distributed router hashes the same digest onto its shard ring, so a
//   client can audit end to end that a response came from the owning shard.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/result.hpp"
#include "obs/json.hpp"

namespace srna::serve {

struct ServeRequest {
  std::int64_t id = 0;
  // Exactly one of the two pair forms: dot-bracket literals...
  std::string a;
  std::string b;
  // ...or names resolved against the service's structure database.
  std::string a_name;
  std::string b_name;

  std::string algorithm;  // empty = service default
  std::string layout;     // empty = "dense"
  double deadline_ms = 0;  // 0 = service default; < 0 invalid
  bool no_cache = false;   // bypass the result cache (solve + do not store)
  bool trace = false;      // record per-phase spans for this request
  // Propagated correlation id: when nonzero the service ADOPTS it instead of
  // minting its own, so one id follows a request across process boundaries.
  // The distributed router stamps a fleet-unique id here before forwarding;
  // direct clients normally leave it 0.
  std::uint64_t trace_id = 0;

  [[nodiscard]] bool by_name() const noexcept { return !a_name.empty() || !b_name.empty(); }

  [[nodiscard]] obs::Json to_json() const;
  [[nodiscard]] std::string to_line() const;  // one-line JSON, no trailing newline
};

// Parses one request line. Throws std::invalid_argument on malformed JSON,
// unknown fields, or an inconsistent pair form — the message is safe to
// embed in an error response.
ServeRequest parse_request(std::string_view line);

// The same validation over a line already given to obs::Json::parse, for
// transports that parse a line once and also look at it for themselves
// (in-band admin lines, the router's forwarded copy). Same errors as
// parse_request; nullopt (the line was not JSON) is refused like a
// non-object.
ServeRequest request_from_json(const std::optional<obs::Json>& parsed);

enum class ResponseStatus : std::uint8_t {
  kOk,
  kRejected,          // admission backpressure (queue full / draining)
  kOverMemoryBudget,  // estimated footprint exceeds the service memory budget
  kTimeout,
  kError,
};

[[nodiscard]] const char* to_string(ResponseStatus status) noexcept;

struct ServeResponse {
  std::int64_t id = 0;
  ResponseStatus status = ResponseStatus::kError;
  Score value = 0;
  double normalized = 0.0;   // 2*value / (arcs_a + arcs_b), ok responses only
  bool cache_hit = false;
  // True when this answer was produced by another request's solve: the
  // request cache-missed while an identical (pair, config) solve was already
  // in flight, parked behind it, and received the leader's outcome.
  bool coalesced = false;
  double latency_ms = 0.0;   // admission -> completion, as observed by the service
  double retry_after_ms = 0.0;  // rejected responses: suggested client backoff
  // over_memory_budget responses: the backend's resident-byte upper bound for
  // this pair, so clients can see how far over they were (and pick a leaner
  // algorithm). 0 otherwise.
  std::uint64_t estimated_bytes = 0;
  std::uint64_t trace_id = 0;  // service-assigned correlation id; 0 = not admitted
  double queued_ms = 0.0;    // admission -> worker pickup (admitted requests)
  double solve_ms = 0.0;     // engine solve time; 0 on cache hits
  std::string algorithm;     // backend that (would have) solved it
  // Canonical structure-pair digest in wire form (pair_digest_hex); empty when
  // the pair never resolved (parse failure, unknown db name, early rejection).
  std::string digest;
  std::string error;         // timeout / rejected / error detail
  // Router hop fields, appended by the distributed router on traced requests
  // only ("trace": true) — untraced routed responses stay byte-identical to
  // direct serving. attempts == 0 means "did not pass through a router" (or
  // the request was untraced).
  std::uint32_t attempts = 0;     // dispatch attempts the router used (>= 1)
  std::string shard;              // the shard whose answer won
  double router_queued_ms = 0.0;  // router admission -> first dispatch

  [[nodiscard]] obs::Json to_json() const;
  [[nodiscard]] std::string to_line() const;

  // Parses one response line (the loadgen's receive path). Throws
  // std::invalid_argument on malformed input.
  static ServeResponse from_line(std::string_view line);
};

}  // namespace srna::serve
