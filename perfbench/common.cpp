#include "common.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "rna/dot_bracket.hpp"

namespace perfbench {

srna::SecondaryStructure stem_loop(srna::Pos length, double arcs_per_base, std::uint64_t seed) {
  const auto arcs = static_cast<std::size_t>(std::lround(arcs_per_base * length));
  return srna::rrna_like_structure(length, arcs, seed);
}

std::int64_t interior_sum(const srna::SecondaryStructure& s) {
  std::int64_t w = 0;
  for (const srna::Arc& a : s.arcs_by_right()) w += a.right - a.left - 1;
  return w;
}

std::int64_t widest_interior(const srna::SecondaryStructure& s) {
  std::int64_t widest = 0;
  for (const srna::Arc& a : s.arcs_by_right())
    widest = std::max<std::int64_t>(widest, a.right - a.left - 1);
  return widest;
}

std::uint64_t sized_seed(srna::Pos length, std::size_t arcs, std::uint64_t seed,
                         std::int64_t target_w, std::int64_t target_widest) {
  const auto near = [](std::int64_t value, std::int64_t target, double tolerance) {
    return std::abs(static_cast<double>(value - target)) <=
           tolerance * static_cast<double>(target);
  };
  Rng derive(seed);
  for (int k = 0; k < 200000; ++k) {
    const std::uint64_t candidate = k == 0 ? seed : derive.next();
    const srna::SecondaryStructure s = srna::rrna_like_structure(length, arcs, candidate);
    if (near(interior_sum(s), target_w, kWorkTolerance) &&
        (target_widest == 0 || near(widest_interior(s), target_widest, kWidestTolerance)))
      return candidate;
  }
  throw std::runtime_error("no stem-loop structure near the target size");
}

Pair make_pair_of(srna::SecondaryStructure a, srna::SecondaryStructure b, bool heavy) {
  Pair p;
  p.a_text = srna::to_dot_bracket(a);
  p.b_text = srna::to_dot_bracket(b);
  p.a = std::move(a);
  p.b = std::move(b);
  p.heavy = heavy;
  return p;
}

std::array<std::uint64_t, 2> table2_seeds(std::uint64_t seed) {
  return {sized_seed(kTable2[0].length, kTable2[0].arcs, seed, kTable2[0].work,
                     kTable2[0].widest),
          sized_seed(kTable2[1].length, kTable2[1].arcs, seed, kTable2[1].work,
                     kTable2[1].widest)};
}

namespace {

// rRNA-like arc density (the Table II pair sits at 0.17-0.26 arcs/base).
constexpr double kArcsPerBase = 0.25;
// tRNA / 5S rRNA: about 21 pairs on 76 bases.
constexpr double kTinyArcsPerBase = 0.28;
// Median W of rrna_like_structure(1500, 375, ·) over seeds.
constexpr std::int64_t kHeavyWork = 18600;

// n lengths spread evenly over [lo, hi], in a seed-shuffled order. Drawing
// pair lengths from a shuffled ladder rather than independently gives every
// seed the same length mix; only the shapes differ.
class LengthLadder {
 public:
  LengthLadder(int lo, int hi, std::size_t n) : lo_(lo), hi_(hi), lengths_(n) {}
  srna::Pos next(Rng& rng) {
    if (used_ % lengths_.size() == 0) {
      const std::size_t n = lengths_.size();
      for (std::size_t j = 0; j < n; ++j) {
        const std::size_t step = n > 1 ? static_cast<std::size_t>(hi_ - lo_) * j / (n - 1) : 0;
        lengths_[j] = static_cast<srna::Pos>(lo_ + static_cast<int>(step));
      }
      for (std::size_t j = n - 1; j > 0; --j)
        std::swap(lengths_[j], lengths_[static_cast<std::size_t>(rng.next() % (j + 1))]);
    }
    return lengths_[used_++ % lengths_.size()];
  }

 private:
  int lo_, hi_;
  std::vector<srna::Pos> lengths_;
  std::size_t used_ = 0;
};

Pair ladder_pair(Rng& rng, LengthLadder& la, LengthLadder& lb, double density) {
  const srna::Pos a = la.next(rng), b = lb.next(rng);
  const std::uint64_t sa = rng.next(), sb = rng.next();
  return make_pair_of(stem_loop(a, density, sa), stem_loop(b, density, sb));
}

Pair heavy_pair(Rng& rng) {
  const auto arcs = static_cast<std::size_t>(kArcsPerBase * kHeavyLength);
  const std::uint64_t sa = rng.next(), sb = rng.next();
  return make_pair_of(
      srna::rrna_like_structure(kHeavyLength, arcs, sized_seed(kHeavyLength, arcs, sa, kHeavyWork)),
      srna::rrna_like_structure(kHeavyLength, arcs, sized_seed(kHeavyLength, arcs, sb, kHeavyWork)),
      true);
}

}  // namespace

SearchMix search_mix(std::uint64_t seed, std::size_t requests) {
  SearchMix mix;
  Rng rng(seed ^ 0x5ea2c0001e000000ULL);
  // Stratified: every block of kBlock requests holds one heavy pair, in its
  // middle, and kBlock·kRepeatShare repeats at seed-chosen positions, so
  // the shares and the heavy spacing do not drift from run to run.
  constexpr std::size_t kBlock = kMixBlock;
  const auto repeats = static_cast<std::size_t>(kRepeatShare * kBlock);
  const std::size_t fresh = kBlock - 1 - repeats;
  LengthLadder la(kSmallMin, kSmallMax, fresh), lb(kSmallMin, kSmallMax, fresh);
  std::vector<char> block(kBlock);
  std::vector<std::uint32_t> small;  // indices of distinct small pairs so far
  mix.seq.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    if (i % kBlock == 0) {
      std::fill(block.begin(), block.end(), 's');
      std::fill(block.begin(), block.begin() + static_cast<std::ptrdiff_t>(repeats), 'r');
      for (std::size_t j = kBlock - 2; j > 0; --j)
        std::swap(block[j], block[static_cast<std::size_t>(rng.next() % (j + 1))]);
      std::swap(block[kBlock / 2], block[kBlock - 1]);
      block[kBlock / 2] = 'h';
    }
    const char kind = block[i % kBlock];
    if (kind == 'h') {
      mix.seq.push_back(static_cast<std::uint32_t>(mix.pairs.size()));
      mix.pairs.push_back(heavy_pair(rng));
    } else if (kind == 'r' && !small.empty()) {
      mix.seq.push_back(small[static_cast<std::size_t>(rng.next() % small.size())]);
    } else {
      small.push_back(static_cast<std::uint32_t>(mix.pairs.size()));
      mix.seq.push_back(small.back());
      mix.pairs.push_back(ladder_pair(rng, la, lb, kArcsPerBase));
    }
  }
  // Warm-up: small pairs, then one heavy-sized pair per worker, so every
  // worker's pooled workspace has grown to the heavy size before timing (a
  // fresh process otherwise pays its page faults inside the first heavies).
  Rng warm_rng(seed ^ 0x3a3a3a3a00000000ULL);
  LengthLadder wa(kSmallMin, kSmallMin + 80, 8), wb(kSmallMin, kSmallMin + 80, 8);
  for (int i = 0; i < 8; ++i) mix.warm.push_back(ladder_pair(warm_rng, wa, wb, kArcsPerBase));
  for (int i = 0; i < 2; ++i) mix.warm.push_back(heavy_pair(warm_rng));
  return mix;
}

RoutedHits routed_hits(std::uint64_t seed, std::size_t requests) {
  RoutedHits w;
  Rng rng(seed ^ 0x707e7ed0000000ULL);
  LengthLadder la(kTinyMin, kTinyMax, kRoutedPairs), lb(kTinyMin, kTinyMax, kRoutedPairs);
  for (std::size_t i = 0; i < kRoutedPairs; ++i)
    w.pairs.push_back(ladder_pair(rng, la, lb, kTinyArcsPerBase));
  w.seq.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i)
    w.seq.push_back(static_cast<std::uint32_t>(rng.next() % kRoutedPairs));
  return w;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonOut::key(const std::string& k) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += json_escape(k);
  body_ += "\":";
}

JsonOut& JsonOut::num(const std::string& k, double value) {
  key(k);
  if (!std::isfinite(value)) {
    body_ += "null";
  } else {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    body_ += buf;
  }
  return *this;
}

JsonOut& JsonOut::str(const std::string& k, const std::string& value) {
  key(k);
  body_ += '"';
  body_ += json_escape(value);
  body_ += '"';
  return *this;
}

JsonOut& JsonOut::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

void Spans::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  out << "{\"traceEvents\":[";
  bool first = true;
  char buf[64];
  for (const Event& e : events_) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\"" << json_escape(e.cat)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid;
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f", e.ts, e.dur);
    out << buf;
    out << "}";
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("cannot write trace " + path);
}

std::uint64_t proc_status_field(int pid, const std::string& field) {
  const std::string path =
      pid == 0 ? std::string("/proc/self/status") : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      std::istringstream fields(line.substr(field.size() + 1));
      std::uint64_t value = 0;
      fields >> value;
      return value;
    }
  }
  return 0;
}

}  // namespace perfbench
