// perfbench-probe: the benchmark's in-process half and its load generator.
//
//   perfbench-probe pair         --seed S --seconds X --threads T
//   perfbench-probe pair-layers  --seed S --threads T --max-threads N
//   perfbench-probe serve-layers --seed S
//   perfbench-probe load         --workload W --seed S ... (see loadgen.cpp)
//
// Each command prints one JSON object on stdout. `--trace-out PATH` writes
// the spans this process recorded around its calls into the library as a
// Chrome trace. run.py orchestrates the commands into workloads.

#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/mcos.hpp"
#include "core/tabulate_slice.hpp"
#include "core/workspace.hpp"
#include "dist/hash_ring.hpp"
#include "engine/engine.hpp"
#include "obs/log.hpp"
#include "parallel/prna.hpp"
#include "rna/dot_bracket.hpp"
#include "rna/formats.hpp"
#include "rna/sequence.hpp"
#include "rna/structure_hash.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"

namespace perfbench {
int run_load(const std::map<std::string, std::string>& args);
}

namespace {

using namespace perfbench;
using srna::Pos;

std::map<std::string, std::string> parse_args(int argc, char** argv, int first) {
  std::map<std::string, std::string> args;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      throw std::invalid_argument("expected --key value, got " + key);
    args[key.substr(2)] = argv[++i];
  }
  return args;
}

std::string list(const std::vector<double>& v) {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.6g", i ? "," : "", v[i]);
    out += buf;
  }
  return out + "]";
}

double num_arg(const std::map<std::string, std::string>& args, const std::string& key) {
  const auto it = args.find(key);
  if (it == args.end()) throw std::invalid_argument("missing --" + key);
  return std::stod(it->second);
}

const srna::SolverBackend& backend(const char* name) {
  return srna::McosEngine::instance().at(name);
}

// Times `fn` (which performs `calls` operations) in `rounds` rounds and
// returns the median microseconds per operation.
template <typename Fn>
double us_per_call(int rounds, std::size_t calls, Fn&& fn) {
  std::vector<double> per;
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = Clock::now();
    fn();
    per.push_back(seconds_since(t0) * 1e6 / static_cast<double>(calls));
  }
  return median(per);
}

// ---- table2_pair ------------------------------------------------------------

// Generates the pair and checks it: lengths, arc targets within the
// generator's 3%, no crossing arcs, and (seed 2012) the committed CT files.
Pair generate_table2(std::uint64_t seed, const std::array<std::uint64_t, 2>& seeds,
                     const std::string& data_dir, std::string& data_check) {
  Pair p = make_pair_of(srna::rrna_like_structure(kTable2[0].length, kTable2[0].arcs, seeds[0]),
                        srna::rrna_like_structure(kTable2[1].length, kTable2[1].arcs, seeds[1]),
                        true);
  const auto near = [](std::size_t arcs, double target) {
    return std::abs(static_cast<double>(arcs) - target) <= 0.03 * target + 1;
  };
  if (p.a.length() != 4216 || p.b.length() != 4381 || !near(p.a.arc_count(), 721) ||
      !near(p.b.arc_count(), 1126) || !p.a.is_nonpseudoknot() || !p.b.is_nonpseudoknot())
    throw std::runtime_error("table2_pair: generated inputs fail validation");
  data_check = "skipped";
  if (seed == 2012 && !data_dir.empty()) {
    const std::pair<const srna::SecondaryStructure*, const char*> files[] = {
        {&p.a, "fungus_23s_like.ct"}, {&p.b, "malaria_23s_like.ct"}};
    data_check = "match";
    for (const auto& [s, name] : files) {
      std::ifstream in(data_dir + "/" + name, std::ios::binary);
      if (!in) {
        data_check = "absent";
        continue;
      }
      std::ostringstream want, have;
      want << in.rdbuf();
      srna::write_ct(have, srna::AnnotatedStructure{"srna generate --kind=rrna",
                                                    srna::sequence_for_structure(*s, seed), *s});
      if (want.str() != have.str())
        throw std::runtime_error(std::string("table2_pair: seed 2012 differs from data/") + name);
    }
  }
  return p;
}

constexpr int kSetupsPerRepeat = 5;

int cmd_pair(const std::map<std::string, std::string>& args) {
  const auto seed = static_cast<std::uint64_t>(num_arg(args, "seed"));
  const double seconds = num_arg(args, "seconds");
  const int threads = static_cast<int>(num_arg(args, "threads"));
  const std::string data_dir = args.count("data-dir") ? args.at("data-dir") : "";

  // setup_s: generate + validate, about 2 ms. It is repeated
  // kSetupsPerRepeat times after every timed srna2/prna pair as well, so
  // its median samples the host over the whole run like the solve times do,
  // not one instant of it. The seed search that holds the
  // pair's work fixed is the benchmark's own input mapping and stays outside.
  const std::array<std::uint64_t, 2> seeds = table2_seeds(seed);
  std::vector<double> setups;
  Pair p;
  std::string data_check;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    p = generate_table2(seed, seeds, data_dir, data_check);
    setups.push_back(seconds_since(t0));
  };
  set_up();

  const srna::SolverBackend& seq = backend("srna2");
  const srna::SolverBackend& par = backend("prna");
  srna::SolverConfig seq_config;
  srna::SolverConfig par_config;
  par_config.threads = threads;

  // One untimed parallel solve of a small pair first: the first OpenMP
  // region of a process (thread creation and placement) is not part of what
  // the repeats measure.
  {
    const Pair warm = make_pair_of(stem_loop(1500, 0.25, seed), stem_loop(1500, 0.25, ~seed));
    srna::Workspace ws;
    (void)srna::solve_with(par, warm.a, warm.b, par_config, ws);
  }

  std::vector<double> seq_s, par_s;
  std::vector<srna::Score> values;
  std::size_t attempted = 0;
  const auto start = Clock::now();
  // Interleaved repeats until the budget is spent, at least three of each
  // for a median. They share one Workspace, as a serving worker's solves
  // do. A fresh Workspace per repeat (what one CLI call pays) added between
  // 0.06 and 0.4 s to a 1.8 s srna2 solve, varying from minute to minute
  // on a shared VM host, and that set the spread of solve_s. VmHWM is read
  // once, after the last repeat: the peak of a process that solves the
  // pair with both backends.
  srna::Workspace ws;
  while (seq_s.size() < 3 || seconds_since(start) < seconds) {
    for (const bool parallel : {false, true}) {
      const auto t0 = Clock::now();
      const srna::EngineResult r = parallel ? srna::solve_with(par, p.a, p.b, par_config, ws)
                                            : srna::solve_with(seq, p.a, p.b, seq_config, ws);
      (parallel ? par_s : seq_s).push_back(seconds_since(t0));
      values.push_back(r.value);
      ++attempted;
    }
    for (int i = 0; i < kSetupsPerRepeat; ++i) set_up();
  }
  const double elapsed = seconds_since(start);

  // Every solve must agree; at seed 2012 the answer is the paper pair's 596.
  std::size_t correct = 0;
  const bool pinned = seed == 2012;
  for (const srna::Score v : values)
    if (v == values.front() && (!pinned || v == 596)) ++correct;

  JsonOut out;
  out.num("setup_s", median(setups))
      .num("solve_s", median(seq_s))
      .num("par_solve_s", median(par_s))
      .num("solves_per_s", static_cast<double>(attempted) / elapsed)
      .num("value", values.front())
      .num("attempted", static_cast<double>(attempted))
      .num("correct", static_cast<double>(correct))
      .num("peak_rss_kb", static_cast<double>(proc_status_field(0, "VmHWM")))
      .num("repeats", static_cast<double>(seq_s.size()))
      .str("data_check", data_check)
      .raw("srna2_s", list(seq_s))
      .raw("prna_s", list(par_s));
  std::cout << out.dump() << "\n";
  return 0;
}

// The fixed kernel sample: for each rung of a width ladder, the arc of each
// structure whose interior is closest to it; every S1 rung is crossed with
// every S2 rung, like the mix of slice sizes stage one sees.
std::vector<srna::SliceBounds> kernel_sample(const Pair& p) {
  const auto pick = [](const srna::SecondaryStructure& s) {
    std::vector<srna::Arc> out;
    for (const Pos target : {25, 50, 100, 200, 400, 800, 1600}) {
      const srna::Arc* best = nullptr;
      for (const srna::Arc& a : s.arcs_by_right()) {
        const Pos w = a.right - a.left - 1;
        if (best == nullptr ||
            std::abs(w - target) < std::abs(best->right - best->left - 1 - target))
          best = &a;
      }
      if (best != nullptr) out.push_back(*best);
    }
    return out;
  };
  std::vector<srna::SliceBounds> slices;
  for (const srna::Arc& x : pick(p.a))
    for (const srna::Arc& y : pick(p.b)) {
      const auto b = srna::SliceBounds::under(x.left, x.right, y.left, y.right);
      if (!b.empty()) slices.push_back(b);
    }
  return slices;
}

void sum_lanes(const srna::PrnaResult& r, double& barrier, double& idle) {
  barrier = idle = 0;
  for (const srna::PrnaThreadTimeline& lane : r.timeline) {
    barrier += lane.barrier_wait_seconds;
    idle += lane.steal_idle_seconds;
  }
}

int cmd_pair_layers(const std::map<std::string, std::string>& args) {
  const auto seed = static_cast<std::uint64_t>(num_arg(args, "seed"));
  const int threads = static_cast<int>(num_arg(args, "threads"));
  const int max_threads = static_cast<int>(num_arg(args, "max-threads"));
  std::string data_check;
  const Pair p = generate_table2(seed, table2_seeds(seed), "", data_check);
  JsonOut out;

  // core: kernel ns/cell on the fixed slice sample, position-dependent d2.
  {
    Span span("fill_slice_dense sample", "core");
    const std::vector<srna::SliceBounds> slices = kernel_sample(p);
    srna::Workspace ws;
    srna::ColumnEvents& events = ws.column_events();
    events.build(p.b);
    const srna::SliceKernel kernel = ws.slice_kernel(srna::SolverConfig{}.kernel);
    srna::Matrix<srna::Score> grid;
    const auto d2 = [](Pos k1, Pos x, Pos k2, Pos y) {
      return static_cast<srna::Score>((k1 + x + k2 + y) % 5);
    };
    std::uint64_t cells = 0;
    std::int64_t checksum = 0;
    const auto pass = [&](srna::McosStats* stats) {
      for (const srna::SliceBounds& b : slices) {
        srna::fill_slice_dense(p.a, p.b, events, b, grid, kernel, d2, stats);
        checksum += grid(grid.rows() - 1, grid.cols() - 1);
      }
    };
    srna::McosStats stats;
    pass(&stats);
    cells = stats.cells_tabulated;
    constexpr int kPasses = 20;
    std::vector<double> ns;
    for (int round = 0; round < 7; ++round) {
      const auto t0 = Clock::now();
      for (int i = 0; i < kPasses; ++i) pass(nullptr);
      ns.push_back(seconds_since(t0) * 1e9 / (static_cast<double>(cells) * kPasses));
    }
    out.num("core.kernel_ns_per_cell", median(ns))
        .num("core.kernel_sample_cells", static_cast<double>(cells))
        .num("core.kernel_checksum", static_cast<double>(checksum));
  }

  // core: one srna2 solve — counts, stage split, thread CPU.
  double best_seq = 0;
  srna::Score value = 0;
  {
    Span span("solve_with srna2", "core");
    srna::Workspace ws;
    const double cpu0 = thread_cpu_seconds();
    const auto t0 = Clock::now();
    const srna::EngineResult r = srna::solve_with(backend("srna2"), p.a, p.b, {}, ws);
    best_seq = seconds_since(t0);
    value = r.value;
    out.num("core.srna2_cpu_s", thread_cpu_seconds() - cpu0)
        .num("core.cells", static_cast<double>(r.stats.cells_tabulated))
        .num("core.slices", static_cast<double>(r.stats.slices_tabulated))
        .num("core.events", static_cast<double>(r.stats.arc_match_events))
        .num("core.preprocess_s", r.stats.preprocess_seconds)
        .num("core.stage1_s", r.stats.stage1_seconds)
        .num("core.stage2_s", r.stats.stage2_seconds)
        .num("core.srna2_wall_s", best_seq);
  }

  // parallel: the Figure 8 row (static schedule) and the stealing schedule.
  std::size_t mismatches = 0;
  const auto run_prna = [&](int t, srna::PrnaSchedule schedule, const char* label) {
    Span span(std::string(label) + " t=" + std::to_string(t), "parallel");
    srna::PrnaOptions options;
    options.num_threads = t;
    options.schedule = schedule;
    srna::Workspace ws;
    const auto t0 = Clock::now();
    srna::PrnaResult r = srna::prna(p.a, p.b, options, ws);
    const double s = seconds_since(t0);
    if (r.value != value) ++mismatches;
    return std::make_pair(s, std::move(r));
  };
  // The row is t = 1 .. max_threads whatever nproc is, so every host reports
  // the same metric names.
  for (int t = 1; t <= max_threads; ++t) {
    const double s = run_prna(t, srna::PrnaSchedule::kStaticColumns, "prna").first;
    if (t == 1) out.num("parallel.prna_t1_s", s);
    out.num("parallel.speedup_t" + std::to_string(t), best_seq / s);
  }
  {
    auto [s, r] = run_prna(threads, srna::PrnaSchedule::kStaticColumns, "prna");
    double barrier = 0, idle = 0;
    sum_lanes(r, barrier, idle);
    out.num("parallel.barrier_wait_s", barrier).num("parallel.prna_tN_s", s);
  }
  {
    auto [s1, r1] = run_prna(1, srna::PrnaSchedule::kStealing, "prna-steal");
    auto [sn, rn] = run_prna(threads, srna::PrnaSchedule::kStealing, "prna-steal");
    double barrier = 0, idle = 0;
    sum_lanes(rn, barrier, idle);
    out.num("parallel.steal_t1_s", s1).num("parallel.steal_tN_s", sn).num(
        "parallel.steal_idle_s", idle);
  }
  out.num("value", value).num("mismatches", static_cast<double>(mismatches));
  std::cout << out.dump() << "\n";
  return mismatches == 0 ? 0 : 3;
}

// ---- serving layers, in process ---------------------------------------------

int cmd_serve_layers(const std::map<std::string, std::string>& args) {
  const auto seed = static_cast<std::uint64_t>(num_arg(args, "seed"));
  const RoutedHits routed = routed_hits(seed, 0);
  const SearchMix mix = search_mix(seed, 400);
  JsonOut out;
  constexpr int kRounds = 7;
  const std::size_t n = routed.pairs.size();
  std::size_t sink = 0;  // printed, so no timed call's result is unused

  {
    Span span("parse_dot_bracket", "rna");
    out.num("rna.parse_us", us_per_call(kRounds, 2 * n, [&] {
              for (const Pair& p : routed.pairs)
                sink += srna::parse_dot_bracket(p.a_text).arc_count() +
                        srna::parse_dot_bracket(p.b_text).arc_count();
            }));
  }
  std::vector<std::uint64_t> digests(n);
  {
    Span span("hash_structure_pair", "rna");
    out.num("rna.pair_digest_us", us_per_call(kRounds, n, [&] {
              for (std::size_t i = 0; i < n; ++i)
                digests[i] = srna::hash_structure_pair(routed.pairs[i].a, routed.pairs[i].b);
            }));
  }
  {
    Span span("parse_request", "serve");
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < n; ++i)
      lines.push_back("{\"id\":" + std::to_string(i) + ",\"a\":\"" + routed.pairs[i].a_text +
                      "\",\"b\":\"" + routed.pairs[i].b_text + "\"}");
    out.num("serve.parse_request_us", us_per_call(kRounds, n, [&] {
              for (const std::string& line : lines)
                sink += srna::serve::parse_request(line).a.size();
            }));
  }
  {
    Span span("ResultCache::get", "serve");
    srna::serve::ResultCache cache(srna::serve::CacheConfig{});
    const std::string fp = srna::serve::config_fingerprint("srna2", srna::SolverConfig{});
    std::vector<srna::serve::CacheKey> keys;
    for (const Pair& p : routed.pairs) {
      keys.push_back(srna::serve::CacheKey::make(p.a, p.b, fp));
      cache.put(keys.back(), 1);
    }
    std::size_t hits = 0;
    out.num("serve.cache_get_us", us_per_call(kRounds, n, [&] {
              for (const srna::serve::CacheKey& k : keys) hits += cache.get(k).has_value();
            }));
    if (hits != keys.size() * kRounds) throw std::runtime_error("cache probe: missed a hit");
  }
  {
    Span span("QueryService::solve hit", "serve");
    srna::serve::ServiceConfig config;
    config.workers = 1;
    srna::serve::QueryService service(config);
    const auto request = [&](std::size_t i) {
      srna::serve::ServeRequest r;
      r.id = static_cast<std::int64_t>(i);
      r.a = routed.pairs[i].a_text;
      r.b = routed.pairs[i].b_text;
      return r;
    };
    for (std::size_t i = 0; i < n; ++i) (void)service.solve(request(i));
    std::size_t hits = 0;
    out.num("serve.inproc_hit_us", us_per_call(kRounds, n, [&] {
              for (std::size_t i = 0; i < n; ++i) hits += service.solve(request(i)).cache_hit;
            }));
    if (hits != n * kRounds) throw std::runtime_error("in-process hit probe: missed a hit");
  }
  {
    Span span("HashRing::owners", "dist");
    srna::dist::HashRing ring(128);
    ring.add_node("shard0");
    ring.add_node("shard1");
    constexpr int kReps = 20;
    out.num("dist.ring_owners_ns", 1e3 * us_per_call(kRounds, n * kReps, [&] {
              for (int r = 0; r < kReps; ++r)
                for (const std::uint64_t d : digests) sink += ring.owners(d, 2).size();
            }));
  }

  // core / engine on search_mix miss pairs.
  std::vector<const Pair*> small;
  for (const Pair& p : mix.pairs)
    if (!p.heavy) small.push_back(&p);
  {
    Span span("srna2 small pairs", "core");
    std::vector<double> ms;
    srna::Workspace ws;
    for (std::size_t i = 0; i < small.size() && i < 60; ++i) {
      const auto t0 = Clock::now();
      (void)srna::srna2(small[i]->a, small[i]->b, {}, ws);
      ms.push_back(seconds_since(t0) * 1e3);
    }
    out.num("core.small_solve_ms", median(ms));
  }
  {
    Span span("solve_with vs srna2", "engine");
    std::sort(small.begin(), small.end(), [](const Pair* x, const Pair* y) {
      return static_cast<double>(x->a.length()) * x->b.length() <
             static_cast<double>(y->a.length()) * y->b.length();
    });
    const srna::SolverBackend& seq = backend("srna2");
    srna::Workspace ws;
    std::vector<double> diffs;
    for (std::size_t i = 0; i < small.size() && i < 20; ++i) {
      std::vector<double> direct, engine;
      for (int r = 0; r < 7; ++r) {
        auto t0 = Clock::now();
        (void)srna::srna2(small[i]->a, small[i]->b, {}, ws);
        direct.push_back(seconds_since(t0));
        t0 = Clock::now();
        (void)srna::solve_with(seq, small[i]->a, small[i]->b, {}, ws);
        engine.push_back(seconds_since(t0));
      }
      // Minimum of each: the fixed overhead, without the solve's own jitter.
      diffs.push_back((*std::min_element(engine.begin(), engine.end()) -
                       *std::min_element(direct.begin(), direct.end())) * 1e6);
    }
    out.num("engine.dispatch_us", median(diffs));
  }
  out.num("sink", static_cast<double>(sink));
  std::cout << out.dump() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  srna::obs::Logger::instance().set_min_level(srna::obs::LogLevel::kWarn);
  try {
    if (argc < 2) {
      std::cerr << "usage: perfbench-probe pair|pair-layers|serve-layers|load|build-type ...\n";
      return 2;
    }
    const std::string cmd = argv[1];
    if (cmd == "build-type") {
      std::cout << PERFBENCH_BUILD_TYPE << "\n";
      return 0;
    }
    const auto args = parse_args(argc, argv, 2);
    const std::string trace_out = args.count("trace-out") ? args.at("trace-out") : "";
    if (!trace_out.empty()) Spans::instance().enable();
    int rc = 2;
    if (cmd == "pair") rc = cmd_pair(args);
    else if (cmd == "pair-layers") rc = cmd_pair_layers(args);
    else if (cmd == "serve-layers") rc = cmd_serve_layers(args);
    else if (cmd == "load") rc = run_load(args);
    else std::cerr << "unknown command " << cmd << "\n";
    if (!trace_out.empty()) Spans::instance().write(trace_out);
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "perfbench-probe: " << e.what() << "\n";
    return 1;
  }
}
