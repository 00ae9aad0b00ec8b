// The benchmark's load generator: one client process, one thread, at most
// two pipelined TCP connections, driving srna-serve (search_mix) or
// srna-router (routed_hits) with the workload's generated requests.
//
// Phases, in order:
//   warm     search_mix: a disjoint warm-up set; routed_hits: every pair once
//            (cache prefill). Timed; run.py folds it into setup_s.
//   open     requests due at a fixed rate; each latency is measured from the
//            moment the request was due, and how late it was sent is kept.
//            Untraced routed_hits runs skip it.
//   closed   a fixed number of outstanding requests; OK responses per second
//            and the latency of each request from when it was sent.
//   extras   traced runs only (routed_hits): an untraced closed loop for the
//            tracing overhead, an open loop without the vCPU keepers, a
//            direct-to-shard open loop at the same rate, and a
//            connection-churn burst against the router.
//   check    after the timed phases, untimed: answers against in-process
//            srna2, and a sample of routed responses against direct shard
//            responses.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <iostream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/mcos.hpp"
#include "engine/engine.hpp"

namespace perfbench {

namespace {

// ---- a flat JSON response line --------------------------------------------

// The responses are flat objects of numbers, strings and booleans. Returns
// (key, raw value text) pairs in order, or an empty vector when malformed.
// The client parses them itself, not with the program's parser, so a change
// to that parser moves only the server's time.
std::vector<std::pair<std::string, std::string>> flat_fields(const std::string& line) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
  };
  const auto read_string = [&](std::string& dst) {
    if (i >= line.size() || line[i] != '"') return false;
    const std::size_t start = i++;
    while (i < line.size() && line[i] != '"') i += line[i] == '\\' ? 2u : 1u;
    if (i >= line.size()) return false;
    dst = line.substr(start, ++i - start);
    return true;
  };
  skip_ws();
  if (i >= line.size() || line[i++] != '{') return {};
  for (;;) {
    skip_ws();
    if (i < line.size() && line[i] == '}') return out;
    std::string key, value;
    if (!read_string(key)) return {};
    skip_ws();
    if (i >= line.size() || line[i++] != ':') return {};
    skip_ws();
    if (i < line.size() && line[i] == '"') {
      if (!read_string(value)) return {};
    } else {
      const std::size_t start = i;
      while (i < line.size() && line[i] != ',' && line[i] != '}') ++i;
      value = line.substr(start, i - start);
      while (!value.empty() && std::isspace(static_cast<unsigned char>(value.back())))
        value.pop_back();
    }
    out.emplace_back(key.substr(1, key.size() - 2), value);
    skip_ws();
    if (i < line.size() && line[i] == ',') ++i;
  }
}

struct Response {
  std::int64_t id = -1;
  bool ok = false;
  long value = 0;
  bool cache_hit = false;
  bool coalesced = false;
  double queued_ms = -1, solve_ms = -1, attempts = -1;
};

Response parse_response(const std::string& line) {
  Response r;
  for (const auto& [key, value] : flat_fields(line)) {
    if (key == "id") r.id = std::stoll(value);
    else if (key == "status") r.ok = value == "\"ok\"";
    else if (key == "value") r.value = std::stol(value);
    else if (key == "cache_hit") r.cache_hit = value == "true";
    else if (key == "coalesced") r.coalesced = value == "true";
    else if (key == "queued_ms") r.queued_ms = std::stod(value);
    else if (key == "solve_ms") r.solve_ms = std::stod(value);
    else if (key == "attempts") r.attempts = std::stod(value);
  }
  return r;
}

// The response without its per-request fields (id, timings, trace id and
// router hop fields): what routed and direct answers must agree on byte for
// byte.
std::string normalized(const std::string& line) {
  static const char* const kIgnored[] = {"id",      "latency_ms", "trace_id",        "queued_ms",
                                         "solve_ms", "attempts",  "router_queued_ms", "shard"};
  std::string out = "{";
  for (const auto& [key, value] : flat_fields(line)) {
    bool skip = false;
    for (const char* k : kIgnored) skip = skip || key == k;
    if (skip) continue;
    if (out.size() > 1) out += ",";
    out += "\"" + key + "\":" + value;
  }
  return out + "}";
}

// ---- connections ------------------------------------------------------------

int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to port " + std::to_string(port));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

void write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("send failed: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

struct Conn {
  int fd = -1;
  int port = 0;
  std::string inbuf;
  std::size_t outstanding = 0;
  std::size_t sent_since_connect = 0;
  bool draining = false;  // churn: no new requests until it reconnects

  void open() {
    fd = connect_to(port);
    inbuf.clear();
    sent_since_connect = 0;
    draining = false;
  }
  void close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

// One request's record. `due` is when it was scheduled (the open loop) or
// sent (the closed loop); latency is measured from it.
struct Record {
  std::uint32_t pair = 0;
  int conn = 0;
  Clock::time_point due, sent, done;
  bool answered = false;
  Response r;
};

class Client {
 public:
  Client(std::vector<int> ports, const std::vector<Pair>& pairs, bool trace, std::size_t churn)
      : pairs_(pairs), trace_(trace), churn_every_(churn) {
    for (const int port : ports) {
      Conn c;
      c.port = port;
      c.open();
      conns_.push_back(std::move(c));
    }
  }
  ~Client() {
    for (Conn& c : conns_) c.close();
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  std::vector<Record> records;
  bool keep_lines = false;
  std::vector<std::string> lines;  // by record index, when keep_lines

  // Sends pairs[pair] on a usable connection (preferring `conn`); returns
  // the record index.
  std::size_t send(std::uint32_t pair, int conn, Clock::time_point due) {
    Conn* c = &conns_[static_cast<std::size_t>(conn) % conns_.size()];
    if (c->draining) {
      for (Conn& other : conns_)
        if (!other.draining) c = &other;
    }
    const std::size_t id = records.size();
    const int index = static_cast<int>(c - conns_.data());
    Record rec;
    rec.pair = pair;
    rec.conn = index;
    rec.due = due;
    const Pair& p = pairs_[pair];
    std::string line = "{\"id\":" + std::to_string(id) + ",\"a\":\"" + p.a_text +
                       "\",\"b\":\"" + p.b_text + "\"" + (trace_ ? ",\"trace\":true" : "") +
                       "}\n";
    write_all(c->fd, line);
    rec.sent = Clock::now();
    records.push_back(std::move(rec));
    ++c->outstanding;
    ++in_flight_;
    if (churn_every_ > 0 && index == 1 && ++c->sent_since_connect >= churn_every_)
      c->draining = true;
    return id;
  }

  // Polls for responses until `until` or the first batch of answers; calls
  // on_done(record index) for each. The timed phases pass `spin` and
  // busy-poll: a sleeping thread on an otherwise idle vCPU can wake
  // milliseconds late, which would make the open loop send late and add the
  // client's wake-up to every latency it times.
  template <typename OnDone>
  void pump(Clock::time_point until, OnDone&& on_done, bool spin = false) {
    std::vector<pollfd> fds(conns_.size());
    for (;;) {
      for (std::size_t k = 0; k < fds.size(); ++k) fds[k] = {conns_[k].fd, POLLIN, 0};
      timespec ts{0, 0};
      const auto now = Clock::now();
      if (!spin && until > now) {
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(until - now).count();
        ts = {static_cast<time_t>(ns / 1000000000), static_cast<long>(ns % 1000000000)};
      }
      const int n = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
      if (n < 0 && errno != EINTR) throw std::runtime_error("poll failed");
      bool got = false;
      for (std::size_t k = 0; n > 0 && k < fds.size(); ++k) {
        if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        got = read_conn(conns_[k], on_done) || got;
      }
      reconnect_drained();
      if (got || Clock::now() >= until) return;
    }
  }

  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }

  // Waits for every outstanding response (or the timeout).
  template <typename OnDone>
  bool drain(double timeout_s, OnDone&& on_done, bool spin = false) {
    const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(timeout_s));
    while (in_flight_ > 0 && Clock::now() < deadline) pump(deadline, on_done, spin);
    return in_flight_ == 0;
  }

 private:
  template <typename OnDone>
  bool read_conn(Conn& c, OnDone&& on_done) {
    char buf[65536];
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
    if (n == 0) throw std::runtime_error("server closed a connection");
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) return false;
      throw std::runtime_error(std::string("recv failed: ") + std::strerror(errno));
    }
    const auto now = Clock::now();
    c.inbuf.append(buf, static_cast<std::size_t>(n));
    bool got = false;
    std::size_t start = 0;
    for (std::size_t nl; (nl = c.inbuf.find('\n', start)) != std::string::npos; start = nl + 1) {
      std::string line = c.inbuf.substr(start, nl - start);
      Response r = parse_response(line);
      if (r.id < 0 || static_cast<std::size_t>(r.id) >= records.size() ||
          records[static_cast<std::size_t>(r.id)].answered)
        throw std::runtime_error("response with an unknown or repeated id: " + line);
      Record& rec = records[static_cast<std::size_t>(r.id)];
      rec.answered = true;
      rec.done = now;
      rec.r = r;
      if (!r.ok && !reported_failure_) {
        std::cerr << "first failed response: " << line << "\n";
        reported_failure_ = true;
      }
      if (keep_lines) {
        lines.resize(records.size());
        lines[static_cast<std::size_t>(r.id)] = std::move(line);
      }
      --c.outstanding;
      --in_flight_;
      got = true;
      on_done(static_cast<std::size_t>(r.id));
    }
    c.inbuf.erase(0, start);
    return got;
  }

  void reconnect_drained() {
    for (Conn& c : conns_)
      if (c.draining && c.outstanding == 0) {
        c.close();
        c.open();
      }
  }

  const std::vector<Pair>& pairs_;
  bool trace_;
  std::size_t churn_every_;
  std::vector<Conn> conns_;
  std::size_t in_flight_ = 0;
  bool reported_failure_ = false;
};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield");
#endif
}

// Lowest-priority spinners on the other vCPUs while the gated loops run: the
// userspace form of booting with idle=poll. A vCPU that halts when idle
// takes a hypervisor-dependent time to wake, 0.1-0.4 ms on a busy host, and
// that wake-up, not the program, then sets the routed_hits median and its
// spread; in the closed loop it made routed_hits throughput swing between
// 19k and 31k req/s from run to run. SCHED_IDLE threads give way at once to
// any thread of the processes under test. The price: a change that saves
// server wake-ups shows on the gated p50 only by its cost on an awake vCPU
// (it still shows on rps); the traced run reports the routed median without
// spinners as well (dist.routed_halt_p50_ms).
class CpuKeepers {
 public:
  explicit CpuKeepers(unsigned n) {
    for (unsigned i = 0; i < n; ++i)
      threads_.emplace_back([this] {
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) cpu_relax();
      });
  }
  ~CpuKeepers() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
  }
  CpuKeepers(const CpuKeepers&) = delete;
  CpuKeepers& operator=(const CpuKeepers&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

unsigned other_vcpus() { return std::max(1u, std::thread::hardware_concurrency()) - 1; }

Clock::duration secs(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

double ms(Clock::duration d) { return std::chrono::duration<double, std::milli>(d).count(); }

// ---- phases -----------------------------------------------------------------

struct OpenResult {
  std::size_t first = 0, last = 0;  // record range
  double late_p50_ms = 0, late_p99_ms = 0, late_max_ms = 0;
};

// Sends seq[next...] at `rate` for `seconds`, then waits for the answers.
OpenResult open_loop(Client& client, const std::vector<std::uint32_t>& seq, std::size_t& next,
                     double rate, double seconds, int conns) {
  OpenResult out;
  out.first = client.records.size();
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto stop = start + secs(seconds);
  std::vector<double> late;
  std::size_t k = 0;
  for (;;) {
    const auto due = start + secs(static_cast<double>(k) / rate);
    if (due >= stop) break;
    if (Clock::now() < due) {
      client.pump(due, [](std::size_t) {}, true);
      continue;
    }
    if (next >= seq.size()) throw std::runtime_error("request sequence exhausted");
    const std::size_t id =
        client.send(seq[next++], static_cast<int>(k % static_cast<std::size_t>(conns)), due);
    late.push_back(ms(client.records[id].sent - due));
    ++k;
  }
  if (!client.drain(60.0, [](std::size_t) {}, true))
    throw std::runtime_error("open loop: lost responses");
  out.last = client.records.size();
  out.late_p50_ms = median(late);
  out.late_p99_ms = quantile(late, 0.99);
  out.late_max_ms = late.empty() ? 0 : *std::max_element(late.begin(), late.end());
  return out;
}

struct ClosedResult {
  std::size_t first = 0, last = 0;
  double rps = 0;         // OK answers / window length
  double window_rps = 0;  // median over whole half-second windows
};

// Keeps `outstanding` requests in flight for `seconds`; OK answers per
// second of the window.
ClosedResult closed_loop(Client& client, const std::vector<std::uint32_t>& seq, std::size_t& next,
                         std::size_t outstanding, double seconds) {
  ClosedResult out;
  out.first = client.records.size();
  const auto start = Clock::now();
  const auto stop = start + secs(seconds);
  std::size_t ok = 0;
  bool open = true;
  const auto send_next = [&](int conn) {
    if (next >= seq.size()) throw std::runtime_error("closed loop: request sequence exhausted");
    client.send(seq[next++], conn, Clock::now());
  };
  const auto on_done = [&](std::size_t id) {
    const Record& rec = client.records[id];
    if (rec.done <= stop && rec.r.ok) ++ok;
    if (open && rec.done < stop) send_next(rec.conn);
  };
  for (std::size_t i = 0; i < outstanding; ++i) send_next(static_cast<int>(i));
  while (Clock::now() < stop && client.in_flight() > 0) client.pump(stop, on_done, true);
  open = false;
  if (!client.drain(60.0, on_done)) throw std::runtime_error("closed loop: lost responses");
  out.last = client.records.size();
  out.rps = static_cast<double>(ok) / seconds;
  // Throughput of each whole half-second window; the median window is
  // reported, so a host-level stall in one window does not set the figure.
  std::vector<double> windows(static_cast<std::size_t>(seconds * 2), 0.0);
  for (std::size_t i = out.first; i < out.last; ++i) {
    const Record& rec = client.records[i];
    const auto w =
        static_cast<std::size_t>(2 * std::chrono::duration<double>(rec.done - start).count());
    if (rec.r.ok && w < windows.size()) windows[w] += 2.0;
  }
  out.window_rps = median(windows);
  return out;
}

std::vector<int> int_list(const std::string& text) {
  std::vector<int> out;
  std::stringstream in(text);
  for (std::string item; std::getline(in, item, ',');)
    if (!item.empty()) out.push_back(std::stoi(item));
  return out;
}

// Sends pairs[which[i]] over one fresh connection to `port`, at most 32 in
// flight (a shard admits 64), and returns the response lines in the same
// order.
std::vector<std::string> ask_each(int port, const std::vector<Pair>& pairs,
                                  const std::vector<std::uint32_t>& which) {
  Client client({port}, pairs, false, 0);
  client.keep_lines = true;
  for (const std::uint32_t p : which) {
    client.send(p, 0, Clock::now());
    if (client.in_flight() >= 32)
      client.pump(Clock::now() + std::chrono::seconds(30), [](std::size_t) {});
  }
  if (!client.drain(120.0, [](std::size_t) {})) throw std::runtime_error("lost responses");
  return client.lines;
}

std::size_t not_ok(const std::vector<Record>& recs) {
  std::size_t n = 0;
  for (const Record& rec : recs) n += !rec.r.ok;
  return n;
}

// Latency summary of a record range.
struct Latency {
  std::size_t n = 0, ok = 0;
  double p50_ms = 0, p99_ms = 0, heavy_p50_ms = 0;
  std::size_t heavy_n = 0;
};

Latency summarize(const std::vector<Record>& recs, std::size_t first, std::size_t last,
                  const std::vector<Pair>& pairs) {
  Latency out;
  std::vector<double> all, heavy;
  for (std::size_t i = first; i < last; ++i) {
    const Record& rec = recs[i];
    ++out.n;
    if (!rec.r.ok) continue;
    ++out.ok;
    const double latency = ms(rec.done - rec.due);
    all.push_back(latency);
    if (!pairs[rec.pair].heavy) continue;
    heavy.push_back(latency);
  }
  out.p50_ms = median(all);
  out.p99_ms = quantile(all, 0.99);
  out.heavy_p50_ms = median(heavy);
  out.heavy_n = heavy.size();
  return out;
}

void record_spans(const std::vector<Record>& recs, std::size_t first, std::size_t last,
                  const std::string& phase) {
  if (!Spans::instance().enabled()) return;
  for (std::size_t i = first; i < last; ++i)
    Spans::instance().add(phase, "loadgen", recs[i].due, recs[i].done, 10 + recs[i].conn);
}

std::uint64_t sum_status(const std::vector<int>& pids, const std::string& field) {
  std::uint64_t total = 0;
  for (const int pid : pids) total += proc_status_field(pid, field);
  return total;
}

}  // namespace

int run_load(const std::map<std::string, std::string>& args) {
  const auto get = [&](const char* key) {
    const auto it = args.find(key);
    if (it == args.end()) throw std::invalid_argument(std::string("load: missing --") + key);
    return it->second;
  };
  const std::string workload = get("workload");
  const auto seed = static_cast<std::uint64_t>(std::stoull(get("seed")));
  const double seconds = std::stod(get("seconds"));
  const int port = std::stoi(get("port"));
  const bool trace = get("trace") == "1";
  const double rate = std::stod(get("rate"));
  const auto outstanding = static_cast<std::size_t>(std::stoul(get("outstanding")));
  const int conns = std::stoi(get("connections"));
  const auto churn = static_cast<std::size_t>(std::stoul(get("churn-every")));
  const bool warm_only = get("warm-only") == "1";
  const std::vector<int> direct = int_list(args.count("direct") ? args.at("direct") : "");
  const std::vector<int> pids = int_list(args.count("pids") ? args.at("pids") : "");
  const bool routed = workload == "routed_hits";
  if (!routed && workload != "search_mix") throw std::invalid_argument("load: unknown workload");
  if (conns < 1 || conns > 2) throw std::invalid_argument("load: 1 or 2 connections");

  // search_mix (traced runs only) spends 70% of its leg in the open loop.
  // Untraced routed_hits is all closed loop: its gated latencies are taken
  // there, where the servers are busy, because a sub-millisecond open-loop
  // latency follows the host's vCPU wake-ups rather than the program. Its
  // traced leg keeps a 40% open loop for the per-layer hop figures.
  const double open_s = (routed ? (trace ? 0.4 : 0.0) : 0.7) * seconds;
  const double closed_s = seconds - open_s;
  // Requests for the open loop plus a closed loop at up to `ceiling`, about
  // six times the seed commit's saturation on either workload (200 and 30000
  // req/s on 4 vCPUs). A closed loop that runs out throws rather than
  // under-report. Traced routed_hits runs a second closed loop and two more
  // open loops of half the length.
  const double ceiling = rate * (routed ? 200.0 : 20.0);
  const double legs = routed && trace ? 2.0 : 1.0;
  const auto budget =
      warm_only ? 0 : static_cast<std::size_t>(legs * (rate * open_s + ceiling * closed_s)) + 64;

  std::vector<Pair> pairs;
  std::vector<std::uint32_t> seq;
  std::vector<Pair> warm;
  if (routed) {
    // Every request is a hit, so the order only has to outlast the run.
    RoutedHits w = routed_hits(seed, budget);
    pairs = std::move(w.pairs);
    seq = std::move(w.seq);
    // "heavy" on this workload: the largest tenth of the pairs.
    std::vector<double> sizes;
    for (const Pair& p : pairs) sizes.push_back(static_cast<double>(p.a.length()) * p.b.length());
    const double cut = quantile(sizes, 0.9);
    for (Pair& p : pairs) p.heavy = static_cast<double>(p.a.length()) * p.b.length() > cut;
  } else {
    SearchMix w = search_mix(seed, budget);
    pairs = std::move(w.pairs);
    seq = std::move(w.seq);
    warm = std::move(w.warm);
  }

  std::vector<int> ports(static_cast<std::size_t>(conns), port);
  JsonOut out;

  // ---- warm-up / prefill (setup) ----
  {
    Span span("warm-up", "loadgen");
    const auto t0 = Clock::now();
    bool ok = true;
    if (routed) {
      Client client(ports, pairs, false, 0);
      for (std::uint32_t p = 0; p < pairs.size(); ++p) {
        client.send(p, static_cast<int>(p % ports.size()), Clock::now());
        if (client.in_flight() >= 32)
          client.pump(Clock::now() + std::chrono::seconds(30), [](std::size_t) {});
      }
      ok = client.drain(60.0, [](std::size_t) {});
      for (const Record& rec : client.records) ok = ok && rec.r.ok;
    } else {
      Client client({port}, warm, false, 0);
      for (std::uint32_t p = 0; p < warm.size(); ++p) {
        client.send(p, 0, Clock::now());
        if (!warm[p].heavy || p + 1 == warm.size())
          ok = ok && client.drain(60.0, [](std::size_t) {});
      }
      for (const Record& rec : client.records) ok = ok && rec.r.ok;
    }
    if (!ok) throw std::runtime_error("warm-up failed");
    out.num("warm_s", seconds_since(t0));
  }
  if (warm_only) {
    std::cout << out.dump() << "\n";
    return 0;
  }

  // ---- timed phases ----
  Client client(ports, pairs, trace, routed ? churn : 0);
  std::size_t next = 0;
  OpenResult open;
  ClosedResult closed;
  {
    const CpuKeepers keepers(other_vcpus());
    if (open_s > 0) {
      Span span("open loop", "loadgen");
      open = open_loop(client, seq, next, rate, open_s, conns);
    }
    Span span("closed loop", "loadgen");
    closed = closed_loop(client, seq, next, outstanding, closed_s);
  }
  record_spans(client.records, open.first, open.last, "request (open)");
  const Latency lat = summarize(client.records, open.first, open.last, pairs);
  const Latency closed_lat = summarize(client.records, closed.first, closed.last, pairs);
  std::size_t failed = 0, hits = 0, coalesced = 0, ok_responses = 0;
  std::vector<double> queued, solve, attempts;
  for (const Record& rec : client.records) {
    if (!rec.r.ok) {
      ++failed;
      continue;
    }
    ++ok_responses;
    hits += rec.r.cache_hit;
    coalesced += rec.r.coalesced;
    if (rec.r.queued_ms >= 0) queued.push_back(rec.r.queued_ms);
    if (rec.r.solve_ms >= 0 && !rec.r.cache_hit && !rec.r.coalesced)
      solve.push_back(rec.r.solve_ms);
    if (rec.r.attempts >= 0) attempts.push_back(rec.r.attempts);
  }
  const std::size_t sent = client.records.size();
  out.num("sent", static_cast<double>(sent))
      .num("open_n", static_cast<double>(lat.n))
      .num("p50_ms", lat.p50_ms)
      .num("p99_ms", lat.p99_ms)
      .num("heavy_p50_ms", lat.heavy_p50_ms)
      .num("heavy_n", static_cast<double>(lat.heavy_n))
      .num("late_p50_ms", open.late_p50_ms)
      .num("late_p99_ms", open.late_p99_ms)
      .num("late_max_ms", open.late_max_ms)
      .num("closed_n", static_cast<double>(closed_lat.n))
      .num("closed_p50_ms", closed_lat.p50_ms)
      .num("closed_p99_ms", closed_lat.p99_ms)
      .num("closed_heavy_p50_ms", closed_lat.heavy_p50_ms)
      .num("rps", closed.rps)
      .num("window_rps", closed.window_rps)
      .num("ok_responses", static_cast<double>(ok_responses))
      .num("cache_hit_ratio", ok_responses ? static_cast<double>(hits) /
                                                 static_cast<double>(ok_responses) : 0)
      .num("coalesced_ratio", ok_responses ? static_cast<double>(coalesced) /
                                                 static_cast<double>(ok_responses) : 0)
      .num("queued_p50_ms", median(queued))
      .num("queued_p99_ms", quantile(queued, 0.99))
      .num("solve_p50_ms", median(solve))
      .num("attempts_per_req",
           attempts.empty() ? 0
                            : std::accumulate(attempts.begin(), attempts.end(), 0.0) /
                                  static_cast<double>(attempts.size()));

  // ---- traced extras (routed_hits) ----
  if (routed && trace) {
    // Their failed requests count as failures too.
    {
      Span span("closed loop untraced", "loadgen");
      Client plain(ports, pairs, false, churn);
      std::size_t n2 = next;
      const CpuKeepers keepers(other_vcpus());
      const ClosedResult untraced = closed_loop(plain, seq, n2, outstanding, closed_s);
      next = n2;
      failed += not_ok(plain.records);
      out.num("untraced_rps", untraced.window_rps)
          .num("trace_overhead_pct",
               100.0 * (untraced.window_rps - closed.window_rps) / untraced.window_rps);
    }
    {
      Span span("open loop, idle vCPUs halt", "loadgen");
      Client halting(ports, pairs, trace, churn);
      std::size_t n2 = next;
      const OpenResult h = open_loop(halting, seq, n2, rate, open_s / 2, conns);
      next = n2;
      failed += not_ok(halting.records);
      out.num("routed_halt_p50_ms", summarize(halting.records, h.first, h.last, pairs).p50_ms);
    }
    if (!direct.empty()) {
      Span span("direct open loop", "loadgen");
      // Shard 0 answers every pair from its own cache after one pass.
      std::vector<std::uint32_t> all(pairs.size());
      for (std::uint32_t p = 0; p < all.size(); ++p) all[p] = p;
      (void)ask_each(direct[0], pairs, all);
      Client shard(std::vector<int>(static_cast<std::size_t>(conns), direct[0]), pairs, trace, 0);
      std::size_t n2 = next;
      const CpuKeepers keepers(other_vcpus());
      const OpenResult d = open_loop(shard, seq, n2, rate, open_s / 2, conns);
      const Latency dl = summarize(shard.records, d.first, d.last, pairs);
      failed += not_ok(shard.records);
      out.num("direct_hit_p50_us", dl.p50_ms * 1e3)
          .num("router_hop_us", (lat.p50_ms - dl.p50_ms) * 1e3)
          .num("routed_p99_ms", lat.p99_ms);
    }
    if (!pids.empty()) {
      Span span("connection churn", "loadgen");
      constexpr std::size_t kConnections = 1000;
      const std::uint64_t rss0 = sum_status(pids, "VmRSS");
      for (std::size_t i = 0; i < kConnections; ++i)
        (void)ask_each(port, pairs, {static_cast<std::uint32_t>(i % pairs.size())});
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      const std::uint64_t rss1 = sum_status(pids, "VmRSS");
      out.num("rss_kb_per_conn",
              (static_cast<double>(rss1) - static_cast<double>(rss0)) / kConnections)
          .num("threads_after_churn", static_cast<double>(sum_status(pids, "Threads")));
    }
  }

  // ---- correctness (untimed) ----
  Span check_span("check", "loadgen");
  std::size_t wrong = 0;
  // Every answer for one pair must agree.
  std::vector<long> first_value(pairs.size(), -1);
  for (const Record& rec : client.records) {
    if (!rec.r.ok) continue;
    long& v = first_value[rec.pair];
    if (v < 0) v = rec.r.value;
    else if (v != rec.r.value) ++wrong;
  }
  // In-process srna2 solves, after the timed phases and untimed, on all
  // cores: every routed pair, or every heavy pair and every eighth distinct
  // small pair that was asked for.
  const srna::SolverBackend& seq_backend = srna::McosEngine::instance().at("srna2");
  std::vector<std::uint32_t> rest;
  std::size_t small_seen = 0;
  for (std::uint32_t p = 0; p < pairs.size(); ++p) {
    if (first_value[p] < 0) continue;
    if (routed || pairs[p].heavy || small_seen++ % 8 == 0) rest.push_back(p);
  }
  const std::size_t checked = rest.size();
  std::atomic<std::size_t> cursor{0}, rest_wrong{0};
  std::vector<std::thread> checkers;
  for (unsigned t = 0; t < std::max(1u, std::thread::hardware_concurrency()); ++t)
    checkers.emplace_back([&] {
      srna::Workspace ws;
      for (std::size_t i; (i = cursor.fetch_add(1)) < rest.size();) {
        const std::uint32_t p = rest[i];
        try {
          if (srna::solve_with(seq_backend, pairs[p].a, pairs[p].b, {}, ws).value !=
              first_value[p])
            rest_wrong.fetch_add(1);
        } catch (const std::exception& e) {
          std::cerr << "check solve failed: " << e.what() << "\n";
          rest_wrong.fetch_add(1);
        }
      }
    });
  for (std::thread& t : checkers) t.join();
  wrong += rest_wrong.load();
  // routed_hits: routed answers byte-equal to the owning shard's answers.
  std::size_t compared = 0;
  if (routed && !direct.empty()) {
    std::vector<std::uint32_t> sample;
    for (std::uint32_t p = 0; p < pairs.size(); p += 8) sample.push_back(p);
    const std::vector<std::string> via_router = ask_each(port, pairs, sample);
    std::vector<std::vector<std::string>> via_shard;
    for (const int shard_port : direct) via_shard.push_back(ask_each(shard_port, pairs, sample));
    for (std::size_t i = 0; i < sample.size(); ++i) {
      const std::string want = normalized(via_router[i]);
      bool match = false;
      for (const auto& answers : via_shard) match = match || normalized(answers[i]) == want;
      if (!match) {
        ++wrong;
        std::cerr << "routed/direct mismatch: " << via_router[i] << "\n";
      }
      ++compared;
    }
  }

  out.num("failed", static_cast<double>(failed))
      .num("wrong", static_cast<double>(wrong))
      .num("checked", static_cast<double>(checked))
      .num("compared", static_cast<double>(compared));
  std::cout << out.dump() << "\n";
  return 0;
}

}  // namespace perfbench
