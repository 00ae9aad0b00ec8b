// Shared pieces of the benchmark probe: the workload input generators (one
// deterministic function of the seed per workload), sample statistics, a
// span recorder that writes Chrome trace JSON, and a flat JSON writer.
//
// Everything here belongs to the benchmark; the program under test only
// receives the generated inputs.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "rna/generators.hpp"
#include "rna/secondary_structure.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// SplitMix64: a seed-only stream whose output does not depend on the
// standard library's distribution implementations.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

// ---- statistics -----------------------------------------------------------

// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---- workload inputs ------------------------------------------------------

struct Pair {
  srna::SecondaryStructure a;
  srna::SecondaryStructure b;
  std::string a_text;  // dot-bracket, what goes on the wire
  std::string b_text;
  bool heavy = false;
};

// A stem-loop structure of length L with about `arcs_per_base`·L arcs.
srna::SecondaryStructure stem_loop(srna::Pos length, double arcs_per_base, std::uint64_t seed);

// Sum of the arcs' interior widths. SRNA2 tabulates W(a)·W(b) + n·m cells,
// so W fixes a structure's share of the work.
std::int64_t interior_sum(const srna::SecondaryStructure& s);

// The widest arc interior: the largest child slice a structure spawns, which
// sets the size of the solvers' slice grids.
std::int64_t widest_interior(const srna::SecondaryStructure& s);

// The first generator seed of seed_k, k = 0, 1, ... (seed_0 = seed) for
// which rrna_like_structure(length, arcs, seed_k) has W within
// kWorkTolerance of `target_w` and, when `target_widest` > 0, its widest
// interior within kWidestTolerance of that. Holding W keeps a seed's work
// near the workload's nominal size and holding the widest interior keeps its
// memory there, so runs on different seeds differ in shape only.
std::uint64_t sized_seed(srna::Pos length, std::size_t arcs, std::uint64_t seed,
                         std::int64_t target_w, std::int64_t target_widest = 0);

// The Table II lengths and arc targets, and W and the widest interior of the
// seed-2012 pair (data/fungus_23s_like.ct, data/malaria_23s_like.ct).
struct Table2Spec {
  srna::Pos length;
  std::size_t arcs;
  std::int64_t work;
  std::int64_t widest;
};
inline constexpr Table2Spec kTable2[2] = {{4216, 721, 48438, 1710}, {4381, 1126, 79245, 3354}};

Pair make_pair_of(srna::SecondaryStructure a, srna::SecondaryStructure b, bool heavy = false);

// table2_pair: the generator seeds of the paper's Table II pair (seed 2012
// gives data/*_23s_like.ct).
std::array<std::uint64_t, 2> table2_seeds(std::uint64_t seed);

// search_mix: distinct small pairs, repeats of earlier small pairs (cache
// hits), and distinct heavy pairs, in request order.
struct SearchMix {
  std::vector<Pair> pairs;          // distinct pairs, first-use order
  std::vector<std::uint32_t> seq;   // request i asks for pairs[seq[i]]
  std::vector<Pair> warm;           // warm-up set, disjoint from `pairs`;
                                    // its heavy pairs go out concurrently
};
SearchMix search_mix(std::uint64_t seed, std::size_t requests);

// routed_hits: 256 distinct tRNA/5S-sized pairs and a uniform request order.
struct RoutedHits {
  std::vector<Pair> pairs;
  std::vector<std::uint32_t> seq;
};
RoutedHits routed_hits(std::uint64_t seed, std::size_t requests);

// Workload constants shared by the probe and documented in README.md.
inline constexpr std::size_t kMixBlock = 50;  // one heavy pair per block: 2%
inline constexpr double kRepeatShare = 0.30;
inline constexpr int kSmallMin = 120, kSmallMax = 600;
inline constexpr srna::Pos kHeavyLength = 1500;
// How far a generated structure's W and widest interior may sit from their
// targets.
inline constexpr double kWorkTolerance = 0.015;
inline constexpr double kWidestTolerance = 0.03;
inline constexpr int kTinyMin = 76, kTinyMax = 120;
inline constexpr std::size_t kRoutedPairs = 256;

// ---- spans ----------------------------------------------------------------

// In-memory span recorder: the benchmark's own spans around calls into each
// layer, written out as Chrome trace-event JSON when the run ends.
class Spans {
 public:
  static Spans& instance() {
    static Spans s;
    return s;
  }
  void enable() { enabled_ = true; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void add(const std::string& name, const std::string& cat, Clock::time_point start,
           Clock::time_point end, int tid = 0) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back({name, cat, us(start), us(end) - us(start), tid});
  }
  void write(const std::string& path) const;

 private:
  static double us(Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t.time_since_epoch()).count();
  }
  struct Event {
    std::string name, cat;
    double ts, dur;
    int tid;
  };
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<Event> events_;
};

// RAII span: [construction, destruction) under `cat/name`.
class Span {
 public:
  Span(std::string name, std::string cat, int tid = 0)
      : name_(std::move(name)), cat_(std::move(cat)), tid_(tid), start_(Clock::now()) {}
  ~Span() { Spans::instance().add(name_, cat_, start_, Clock::now(), tid_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::string name_, cat_;
  int tid_;
  Clock::time_point start_;
};

// ---- output ---------------------------------------------------------------

// A flat JSON object of numbers, strings and raw JSON values, in insertion
// order. The benchmark writes its own output rather than through obs::Json,
// so a change to the program's serializer cannot change what it reports.
class JsonOut {
 public:
  JsonOut& num(const std::string& key, double value);
  JsonOut& str(const std::string& key, const std::string& value);
  JsonOut& raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string dump() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

std::string json_escape(const std::string& s);

// VmHWM / VmRSS / Threads from /proc/<pid>/status (pid 0 = self), in kB or
// count; 0 when unreadable.
std::uint64_t proc_status_field(int pid, const std::string& field);

}  // namespace perfbench
