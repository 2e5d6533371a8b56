// Workload program of the wall-clock benchmark (see README.md beside this
// file).
//
//   ssspbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//             [--latency-limit-s L]
//
// Runs one workload against the library's public API only (graph
// generators, Solver, QueryEngine, DynamicGraph, Machine/MachineSession,
// seq::dijkstra, the obs recorder), checks every answer against the
// sequential Dijkstra oracle outside the timed window, and writes the raw
// samples to DIR/raw.json. run.py turns them into the reported metrics:
// nothing here computes a percentile or a self time, and of the rate
// ladder's verdict only the backlog rule that stops the ladder is here.
#include <cpuid.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/solver.hpp"
#include "graph/csr.hpp"
#include "graph/rmat.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/machine.hpp"
#include "runtime/machine_session.hpp"
#include "seq/dijkstra.hpp"
#include "serve/query_engine.hpp"
#include "update/dynamic_graph.hpp"

namespace {

using namespace parsssp;
using Clock = std::chrono::steady_clock;

// --- Workload definitions ---------------------------------------------------
// All workloads: RMAT-1, edge factor 16, OPT-25, one lane per rank.

constexpr std::uint32_t kDelta = 25;
/// Set-ups per measuring run; run.py reports the median.
constexpr std::size_t kSetupReps = 3;
/// Closed-loop root set (Graph 500 style: fixed, seed-derived, degree > 0).
/// run.py takes each root's median wall time and reports percentiles over
/// the roots: 128 roots keep twelve beyond their p90.
constexpr std::size_t kRootSetSize = 128;
/// Untimed solves before the timed loop (page faults, allocator growth).
constexpr std::size_t kWarmSolves = 8;
/// Roots whose oracle is also timed alone (seq.dijkstra_ms, traced runs).
constexpr std::size_t kTimedOracles = 8;
/// A timed closed loop runs at least this many solves, so that every root
/// is solved at least three times and its median ignores one slow solve.
constexpr std::size_t kMinTimedSolves = 3 * kRootSetSize;
/// Solver phase of the serving workload (solve_gteps on the s14 graph):
/// at least this long and this many solves.
constexpr double kServeGraphSeconds = 2;
constexpr std::size_t kServeGraphSolves = kMinTimedSolves;

// Serving workload: open-loop Poisson arrivals, Zipf roots, edge batches.
// The query mix is bench/mvcc_serving's (Zipf s = 1.2 over 48 roots, cache
// 256, max_batch 8, a 200 us batch window, batches of 8 edge operations).
// Two changes make its figures steady (README.md gives the measurements):
// updates come once per 5 queries, not per 30, so most queries are version
// misses and the median is a solve rather than a cache hit; and queries
// come at 25/s, not the 100/s at which serve_cli's tail was measured. A
// k-root sweep costs about 2.35 k single solves (core.multi_vs_single), so
// a 2-root sweep lasts about 20 ms: at 50/s one more query arrives during
// it on average and sweeps cascade, at 25/s half of one does, with room
// for a host that runs twice as slow. The rate ladder finds the knee.
constexpr double kQueryRate = 25;
/// The nominal stream holds at least this many queries: ten slices of 75,
/// whose p75 keeps 18 samples beyond it, and a window whose p95 keeps 37.
constexpr std::size_t kMinQueries = 750;
/// A rung of the rate ladder holds this many queries (one p99).
constexpr std::size_t kRungQueries = 1000;
constexpr std::size_t kRootDomain = 48;
constexpr double kZipfS = 1.2;
constexpr std::size_t kCacheCapacity = 256;
constexpr std::size_t kMaxBatch = 8;
constexpr auto kBatchWindow = std::chrono::microseconds(200);
constexpr double kQueriesPerUpdate = 5;
constexpr double kUpdateRate = kQueryRate / kQueriesPerUpdate;
constexpr std::size_t kOpsPerUpdate = 8;
/// Rate ladder above kQueryRate (traced runs only); the nominal window is
/// the ladder's first rung. Every rung keeps the update mix.
constexpr double kLadderRates[] = {100, 150, 200, 300};
/// Length of the traced serving window.
constexpr double kTracedServeSeconds = 4;

// Traced runs.
constexpr std::size_t kProbeSolves = 24;   ///< untraced per-layer solves
constexpr std::size_t kTracedSolves = 8;   ///< traced, accounting-checked
constexpr std::size_t kMultiRoots = 8;     ///< core.multi_vs_single batch
constexpr int kEmptyJobs = 200;            ///< runtime.spawn_us samples

struct Spec {
  const char* name;
  std::uint32_t scale;
  rank_t ranks;
  bool serve;  ///< open-loop stream into a dynamic MVCC QueryEngine
};

constexpr Spec kSpecs[] = {
    {"batch-rmat1-s18", 18, 4, false},
    {"churn-mvcc-s14", 14, 3, true},
};

// --- Small utilities --------------------------------------------------------

const Clock::time_point kEpoch = Clock::now();

std::int64_t ns_of(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - kEpoch)
      .count();
}

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// 64-bit digest of a distance vector; answers are compared with the
/// oracle through it so the harness need not retain every answer.
std::uint64_t digest(const std::vector<dist_t>& dist) {
  std::uint64_t h = 0x9E3779B97F4A7C15ull ^ dist.size();
  for (const dist_t d : dist) {
    h ^= d + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    h *= 0xFF51AFD7ED558CCDull;
  }
  return h;
}

/// One span the benchmark records around a public call.
struct BenchSpan {
  std::string name;
  std::int64_t start_ns;
  std::int64_t dur_ns;
};

/// Library spans of one recorder lane, rebased onto this program's epoch.
struct LaneDump {
  std::string name;
  std::string source;  ///< "solve" (Solver probes) or "serve" (stream)
  std::vector<TraceSpan> spans;
};

struct TraceLog {
  std::vector<BenchSpan> bench;
  std::vector<LaneDump> lanes;
  std::uint64_t dropped = 0;

  void span(const char* name, Clock::time_point a, Clock::time_point b) {
    bench.push_back({name, ns_of(a), ns_of(b) - ns_of(a)});
  }
  /// Copies `rec`'s spans out, shifting them from the recorder's epoch
  /// onto this program's.
  void absorb(const TraceRecorder& rec, const char* source) {
    const std::int64_t shift = ns_of(Clock::now()) - rec.now_ns();
    for (auto& lane : rec.snapshot()) {
      dropped += lane.dropped;
      LaneDump dump{lane.name, source, std::move(lane.spans)};
      for (TraceSpan& s : dump.spans) s.start_ns += shift;
      lanes.push_back(std::move(dump));
    }
  }
};

// --- JSON output ------------------------------------------------------------

class Json {
 public:
  explicit Json(std::ostream& os) : os_(os) {}

  void open(char bracket) {
    comma();
    os_ << bracket;
    first_.push_back(true);
  }
  void close(char bracket) {
    first_.pop_back();
    os_ << bracket;
  }
  void key(const std::string& k) {
    comma();
    os_ << '"' << k << "\":";
    pending_value_ = true;
  }
  void value(double v) {
    comma();
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    os_ << buf;
  }
  void value(std::uint64_t v) {
    comma();
    os_ << v;
  }
  void value(bool v) {
    comma();
    os_ << (v ? "true" : "false");
  }
  void value(const std::string& v) {
    comma();
    os_ << '"';
    for (const char c : v) {
      if (c == '"' || c == '\\') os_ << '\\';
      os_ << (static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
    }
    os_ << '"';
  }
  template <typename T>
  void field(const std::string& k, const T& v) {
    key(k);
    value(v);
  }
  template <typename T>
  void array(const std::string& k, const std::vector<T>& vs) {
    key(k);
    open('[');
    for (const T& v : vs) value(v);
    close(']');
  }

 private:
  void comma() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) os_ << ',';
      first_.back() = false;
    }
  }

  std::ostream& os_;
  std::vector<bool> first_;
  bool pending_value_ = false;
};

// --- Descriptor -------------------------------------------------------------

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

/// High-water resident set of this process so far.
std::uint64_t peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

std::uint64_t cache_bytes(int name) {
  const long v = sysconf(name);
  return v > 0 ? static_cast<std::uint64_t>(v) : 0;
}

// --- Graph and engines ------------------------------------------------------

SsspOptions workload_options() { return SsspOptions::opt(kDelta); }

MachineConfig machine_config(const Spec& spec) {
  MachineConfig m;
  m.num_ranks = spec.ranks;
  m.lanes_per_rank = 1;
  return m;
}

std::uint64_t graph_bytes(const CsrGraph& g) {
  return g.offsets().size() * sizeof(std::uint64_t) +
         g.num_arcs() * sizeof(Arc);
}

struct SetupTimes {
  double total_s = 0;
  double generate_s = 0;
  double csr_build_s = 0;
  double engine_s = 0;
  double view_build_s = 0;
  double warmup_s = 0;
};

/// Everything one set-up builds. Member order is destruction order in
/// reverse: the engine goes before the graphs and the registry it reads.
struct World {
  std::unique_ptr<CsrGraph> graph;
  std::unique_ptr<MetricsRegistry> registry;
  std::unique_ptr<DynamicGraph> dynamic;
  std::unique_ptr<Solver> solver;
  std::unique_ptr<QueryEngine> engine;

  SetupTimes times;
  /// Submit-to-ready latencies of the closed-loop warm-up queries; the
  /// engine's latency histogram counts them too.
  std::vector<double> prior_latency_s;
};

/// The first vertex of positive degree from a seed-derived probe order.
vid_t warm_root(const CsrGraph& g) {
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) > 0) return v;
  }
  throw std::runtime_error("graph has no edges");
}

/// Graph and (optionally) Solver set-up; the serving engine is added
/// separately by add_engine().
std::unique_ptr<World> make_world(const Spec& spec, std::uint64_t seed,
                                  TraceLog& log, bool with_solver = true) {
  auto w = std::make_unique<World>();
  const auto t0 = Clock::now();
  RmatConfig cfg;
  cfg.params = RmatParams::rmat1();
  cfg.scale = spec.scale;
  cfg.edge_factor = 16;
  cfg.seed = seed;
  EdgeList edges = generate_rmat(cfg);
  const auto t1 = Clock::now();
  edges.dedup_and_strip_self_loops();
  w->graph = std::make_unique<CsrGraph>(CsrGraph::from_edges(edges));
  edges = EdgeList();
  const auto t2 = Clock::now();
  log.span("bench.generate", t0, t1);
  log.span("bench.csr_build", t1, t2);

  const vid_t root = warm_root(*w->graph);
  const SsspOptions opts = workload_options();
  double warmup_s = 0;
  double engine_s = 0;
  if (with_solver) {
    const auto a = Clock::now();
    w->solver = std::make_unique<Solver>(
        *w->graph, SolverConfig{.machine = machine_config(spec)});
    const auto b = Clock::now();
    w->solver->solve(root, opts);
    const auto c = Clock::now();
    engine_s += secs(a, b);
    warmup_s += secs(b, c);
    w->times.view_build_s = w->solver->last_preprocess_seconds();
    log.span("bench.solver_warmup", b, c);
  }
  w->times.generate_s = secs(t0, t1);
  w->times.csr_build_s = secs(t1, t2);
  w->times.engine_s = engine_s;
  w->times.warmup_s = warmup_s;
  w->times.total_s = secs(t0, Clock::now());
  return w;
}

/// Adds the dynamic MVCC QueryEngine and its warm-up query to the
/// set-up of `w`. Kept apart from make_world() so that the closed-loop
/// Solver phase runs before the engine's service threads exist.
void add_engine(World& w, const Spec& spec, TraceRecorder* serve_trace,
                TraceLog& log) {
  const auto a = Clock::now();
  w.registry = std::make_unique<MetricsRegistry>();
  ServeConfig sc;
  sc.machine = machine_config(spec);
  sc.max_batch = kMaxBatch;
  sc.cache_capacity = kCacheCapacity;
  sc.batch_window = kBatchWindow;
  sc.metrics = w.registry.get();
  sc.trace = serve_trace;
  w.dynamic = std::make_unique<DynamicGraph>(*w.graph);
  w.engine = std::make_unique<QueryEngine>(*w.dynamic, sc);
  const auto b = Clock::now();
  const QueryResult warm =
      w.engine->query(warm_root(*w.graph), workload_options());
  const auto c = Clock::now();
  w.prior_latency_s.push_back(secs(b, warm.completed_at));
  w.times.engine_s += secs(a, b);
  w.times.warmup_s += secs(b, c);
  w.times.total_s += secs(a, c);
  log.span("bench.engine_warmup", b, c);
}

/// One set-up in a child process, so that its memory leaves no trace in
/// the measured process's peak RSS. Call only while this process runs no
/// other thread: fork copies just the calling one.
SetupTimes setup_in_child(const Spec& spec, std::uint64_t seed) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    SetupTimes t;
    int code = 0;
    try {
      TraceLog log;
      std::unique_ptr<World> w = make_world(spec, seed, log);
      if (spec.serve) add_engine(*w, spec, nullptr, log);
      t = w->times;
    } catch (const std::exception& e) {
      std::cerr << "set-up failed: " << e.what() << "\n";
      code = 1;
    }
    if (write(fds[1], &t, sizeof t) != static_cast<ssize_t>(sizeof t)) {
      code = 1;
    }
    _exit(code);
  }
  close(fds[1]);
  SetupTimes t;
  std::size_t got = 0;
  while (got < sizeof t) {
    const ssize_t n =
        read(fds[0], reinterpret_cast<char*>(&t) + got, sizeof t - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != sizeof t || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up child failed");
  }
  return t;
}

/// Distinct seed-derived vertices of positive degree.
std::vector<vid_t> pick_roots(const CsrGraph& g, std::size_t n,
                              std::mt19937_64& rng) {
  std::uniform_int_distribution<vid_t> pick(0, g.num_vertices() - 1);
  std::set<vid_t> seen;
  std::vector<vid_t> roots;
  while (roots.size() < n) {
    const vid_t v = pick(rng);
    if (g.degree(v) > 0 && seen.insert(v).second) roots.push_back(v);
  }
  return roots;
}

// --- Closed-loop Solver phase ------------------------------------------------

struct Oracle {
  std::vector<double> roots;
  std::map<vid_t, std::uint64_t> digest;
  std::vector<double> ms;
  std::vector<double> relaxations;
};

/// Runs fn(i) for every i in [0, n) on all cores. Oracle work only: it
/// runs outside every timed window.
template <typename Fn>
void parallel_for(std::size_t n, const Fn& fn) {
  const std::size_t workers = std::min<std::size_t>(
      n, std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      for (std::size_t i = w; i < n; i += workers) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

/// Digests of seq::dijkstra from every root, computed on all cores (the
/// oracle runs outside every timed window). With `timed` > 0, that many
/// roots are also solved alone to time the single-thread baseline.
Oracle run_oracle(const CsrGraph& g, const std::vector<vid_t>& roots,
                  std::size_t timed, TraceLog& log) {
  Oracle o;
  std::vector<std::uint64_t> digests(roots.size());
  std::vector<std::uint64_t> relaxations(roots.size());
  const auto a = Clock::now();
  parallel_for(roots.size(), [&](std::size_t i) {
    const SeqSsspResult res = dijkstra(g, roots[i]);
    digests[i] = digest(res.dist);
    relaxations[i] = res.relaxations;
  });
  log.span("bench.oracle", a, Clock::now());
  for (std::size_t i = 0; i < roots.size(); ++i) {
    o.roots.push_back(static_cast<double>(roots[i]));
    o.relaxations.push_back(static_cast<double>(relaxations[i]));
    o.digest.emplace(roots[i], digests[i]);
  }
  for (std::size_t i = 0; i < std::min(timed, roots.size()); ++i) {
    const auto b = Clock::now();
    dijkstra(g, roots[i]);
    const auto c = Clock::now();
    log.span("bench.oracle", b, c);
    o.ms.push_back(secs(b, c) * 1e3);
  }
  return o;
}

struct SolveSamples {
  std::vector<double> root;
  std::vector<double> start_ns;
  std::vector<double> wall_s;
  std::vector<double> engine_s;
  std::vector<double> model_s;
  std::vector<double> relaxations;
  std::vector<double> global_syncs;
  std::vector<double> phases;
  std::vector<double> buckets;
  std::vector<double> messages;
  std::vector<double> bytes;
  std::vector<double> max_rank_bytes;
  std::vector<bool> ok;
  std::vector<bool> accounting_ok;  ///< traced solves only
  double histogram_p99_s = 0;
  std::uint64_t edges = 0;
};

/// Runs Solver::solve back to back over `roots` (cycling) until both
/// `seconds` have passed and `min_solves` were made. With `trace`, every
/// solve records into its own recorder and passes the accounting check.
SolveSamples solver_loop(Solver& solver, const std::vector<vid_t>& roots,
                         const Oracle& oracle, double seconds,
                         std::size_t min_solves, bool trace, TraceLog& log) {
  SolveSamples s;
  s.edges = solver.graph().num_undirected_edges();
  Histogram hist;
  SsspOptions opts = workload_options();
  const auto start = Clock::now();
  for (std::size_t i = 0;
       i < min_solves || secs(start, Clock::now()) < seconds; ++i) {
    const vid_t root = roots[i % roots.size()];
    std::unique_ptr<TraceRecorder> rec;
    if (trace) {
      rec = std::make_unique<TraceRecorder>(1u << 15);
      opts.trace = rec.get();
    }
    SsspResult r;
    bool ok = true;
    const auto a = Clock::now();
    try {
      r = solver.solve(root, opts);
    } catch (const std::exception& e) {
      std::cerr << "solve(" << root << ") failed: " << e.what() << "\n";
      ok = false;
    }
    const auto b = Clock::now();
    if (ok && digest(r.dist) != oracle.digest.at(root)) {
      std::cerr << "solve(" << root << ") differs from seq::dijkstra\n";
      ok = false;
    }
    s.root.push_back(static_cast<double>(root));
    s.start_ns.push_back(static_cast<double>(ns_of(a)));
    s.wall_s.push_back(secs(a, b));
    s.ok.push_back(ok);
    hist.record(secs(a, b));
    const SsspStats& st = r.stats;
    s.engine_s.push_back(st.wall_time_s);
    s.model_s.push_back(st.model_time_s);
    s.relaxations.push_back(static_cast<double>(st.total_relaxations()));
    s.global_syncs.push_back(static_cast<double>(st.global_syncs()));
    s.phases.push_back(static_cast<double>(st.phases));
    s.buckets.push_back(static_cast<double>(st.buckets));
    const TrafficStats& traffic = solver.machine().traffic();
    const TrafficCounters merged = traffic.merged();
    std::uint64_t max_rank = 0;
    for (rank_t k = 0; k < solver.machine().num_ranks(); ++k) {
      max_rank = std::max(max_rank, traffic.rank(k).total_bytes());
    }
    s.messages.push_back(static_cast<double>(merged.total_messages()));
    s.bytes.push_back(static_cast<double>(merged.total_bytes()));
    s.max_rank_bytes.push_back(static_cast<double>(max_rank));
    if (trace) {
      log.span("bench.solve", a, b);
      const TraceCheckReport rep = check_engine_accounting(*rec, st);
      if (!rep.ok) std::cerr << "accounting: " << rep.detail << "\n";
      s.accounting_ok.push_back(ok && rep.ok);
      log.absorb(*rec, "solve");
    }
  }
  s.histogram_p99_s = hist.snapshot().percentile(0.99);
  return s;
}

void write_solves(Json& j, const std::string& k, const SolveSamples& s) {
  j.key(k);
  j.open('{');
  j.field("edges", s.edges);
  j.array("root", s.root);
  j.array("start_ns", s.start_ns);
  j.array("wall_s", s.wall_s);
  j.array("engine_s", s.engine_s);
  j.array("model_s", s.model_s);
  j.array("relaxations", s.relaxations);
  j.array("global_syncs", s.global_syncs);
  j.array("phases", s.phases);
  j.array("buckets", s.buckets);
  j.array("messages", s.messages);
  j.array("bytes", s.bytes);
  j.array("max_rank_bytes", s.max_rank_bytes);
  j.array("ok", s.ok);
  j.array("accounting_ok", s.accounting_ok);
  j.field("histogram_p99_s", s.histogram_p99_s);
  j.close('}');
}

/// One 8-root solve_multi against the same roots solved one by one.
struct MultiProbe {
  double multi_s = 0;
  double singles_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

MultiProbe multi_probe(Solver& solver, const std::vector<vid_t>& roots,
                       const Oracle& oracle, TraceLog& log) {
  MultiProbe p;
  const std::vector<vid_t> batch(roots.begin(),
                                 roots.begin() + kMultiRoots);
  const SsspOptions opts = workload_options();
  const auto a = Clock::now();
  const MultiRootResult m = solver.solve_multi(batch, opts);
  const auto b = Clock::now();
  log.span("bench.solve_multi", a, b);
  p.multi_s = secs(a, b);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ++p.attempted;
    if (digest(m.dist.at(i)) != oracle.digest.at(batch[i])) ++p.failed;
  }
  for (const vid_t r : batch) {
    const auto c = Clock::now();
    const SsspResult one = solver.solve(r, opts);
    const auto d = Clock::now();
    p.singles_s += secs(c, d);
    ++p.attempted;
    if (digest(one.dist) != oracle.digest.at(r)) ++p.failed;
  }
  return p;
}

/// Wall time of an empty job through Machine::run (spawns and joins the
/// rank threads) and through a parked MachineSession, in microseconds.
void host_probe(const Spec& spec, std::vector<double>& spawn_us,
                std::vector<double>& session_us) {
  Machine machine(machine_config(spec));
  for (int i = 0; i < kEmptyJobs; ++i) {
    const auto a = Clock::now();
    machine.run([](RankCtx&) {});
    spawn_us.push_back(secs(a, Clock::now()) * 1e6);
  }
  MachineSession session(machine_config(spec));
  for (int i = 0; i < kEmptyJobs; ++i) {
    const auto a = Clock::now();
    session.run([](RankCtx&) {});
    session_us.push_back(secs(a, Clock::now()) * 1e6);
  }
}

// --- Open-loop serving streams ----------------------------------------------

struct Event {
  double due_s = 0;
  bool update = false;
  vid_t root = 0;
};

/// Zipf root sampler over a seed-ordered domain of positive-degree roots.
class ZipfRoots {
 public:
  ZipfRoots(const CsrGraph& g, std::mt19937_64& rng)
      : domain_(pick_roots(g, kRootDomain, rng)) {
    double acc = 0;
    for (std::size_t r = 1; r <= domain_.size(); ++r) {
      acc += std::pow(static_cast<double>(r), -kZipfS);
      cdf_.push_back(acc);
    }
    for (double& c : cdf_) c /= acc;
  }
  vid_t sample(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0, 1)(rng);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return domain_[std::min<std::size_t>(it - cdf_.begin(),
                                         domain_.size() - 1)];
  }
  /// The `n` most popular roots.
  std::vector<vid_t> top(std::size_t n) const {
    return {domain_.begin(), domain_.begin() + std::min(n, domain_.size())};
  }

 private:
  std::vector<vid_t> domain_;
  std::vector<double> cdf_;
};

/// Poisson queries at `rate` until both `seconds` and `min_queries` are
/// reached, plus (when `update_rate` > 0) Poisson updates over the same
/// span, merged by due time.
std::vector<Event> make_stream(const ZipfRoots& roots, double rate,
                               double seconds, std::size_t min_queries,
                               double update_rate, std::mt19937_64& rng) {
  std::vector<Event> events;
  std::exponential_distribution<double> gap(rate);
  double t = 0;
  std::size_t n = 0;
  while (n < min_queries || t < seconds) {
    t += gap(rng);
    events.push_back({t, false, roots.sample(rng)});
    ++n;
  }
  if (update_rate > 0) {
    std::exponential_distribution<double> ugap(update_rate);
    for (double u = ugap(rng); u < t; u += ugap(rng)) {
      events.push_back({u, true, 0});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.due_s < b.due_s;
                   });
  return events;
}

/// Valid-by-construction update batches: each is generated against a
/// mirror it is then applied to, so batch i is valid on version i.
std::vector<EdgeBatch> make_updates(const CsrGraph& base, std::size_t count,
                                    std::mt19937_64& rng) {
  DynamicGraph mirror(base);
  std::uniform_int_distribution<vid_t> pick(0, mirror.num_vertices() - 1);
  std::uniform_int_distribution<weight_t> weight(1, 255);
  std::vector<EdgeBatch> batches;
  while (batches.size() < count) {
    EdgeBatch batch;
    std::set<std::pair<vid_t, vid_t>> used;
    while (batch.size() < kOpsPerUpdate) {
      const auto roll = rng() % 4;
      const vid_t u = pick(rng);
      const vid_t v = pick(rng);
      if (u == v || !used.insert(std::minmax(u, v)).second) continue;
      const auto w = mirror.find_edge(u, v);
      if (roll == 0) {
        if (w) continue;
        batch.insert_edge(u, v, weight(rng));
      } else if (roll == 1) {
        if (!w) continue;
        batch.delete_edge(u, v);
      } else {
        if (!w) continue;
        batch.update_weight(u, v, weight(rng));
      }
    }
    mirror.apply(batch);
    batches.push_back(std::move(batch));
  }
  return batches;
}

struct StreamSamples {
  double rate = 0;
  // Queries, in submission order; times in ns on this program's epoch.
  std::vector<double> q_root;
  std::vector<double> q_due;
  std::vector<double> q_submit;
  std::vector<double> q_done;  ///< 0 when the query failed
  std::vector<bool> q_ok;
  std::vector<double> q_version;
  std::vector<std::uint64_t> q_digest;
  // Updates.
  std::vector<double> u_due;
  std::vector<double> u_done;
  std::vector<bool> u_ok;
  double snapshots_live_max = 0;
  ServeStats stats;  ///< engine counters accumulated over this stream
  double histogram_p99_s = 0;
  /// Latencies the histogram holds besides this stream's (see World).
  std::vector<double> prior_latency_s;
};

/// Feeds `events` to the engine on their due times from this thread while a
/// collector thread waits for the futures in order, digests each answer
/// and drops it. The i-th update event applies updates[first_update + i].
StreamSamples run_stream(QueryEngine& engine,
                         const std::vector<Event>& events,
                         const std::vector<EdgeBatch>& updates,
                         std::size_t first_update, double rate) {
  struct Item {
    std::size_t slot;
    bool update;
    std::future<QueryResult> query;
    std::future<UpdateResult> upd;
  };
  StreamSamples s;
  s.rate = rate;
  const ServeStats before = engine.stats();
  const SsspOptions opts = workload_options();

  std::size_t nq = 0;
  std::size_t nu = 0;
  for (const Event& e : events) (e.update ? nu : nq) += 1;
  s.q_root.resize(nq);
  s.q_due.resize(nq);
  s.q_submit.resize(nq);
  s.q_done.resize(nq);
  s.q_ok.resize(nq);
  s.q_version.resize(nq);
  s.q_digest.resize(nq);
  s.u_due.resize(nu);
  s.u_done.resize(nu);
  s.u_ok.resize(nu);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Item> items;
  bool done_submitting = false;

  std::thread collector([&] {
    for (;;) {
      Item it;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !items.empty() || done_submitting; });
        if (items.empty()) return;
        it = std::move(items.front());
        items.pop_front();
      }
      try {
        if (it.update) {
          const UpdateResult r = it.upd.get();
          s.u_done[it.slot] = static_cast<double>(ns_of(r.completed_at));
          s.u_ok[it.slot] = true;
        } else {
          const QueryResult r = it.query.get();
          s.q_done[it.slot] = static_cast<double>(ns_of(r.completed_at));
          s.q_ok[it.slot] = r.answer != nullptr;
          s.q_version[it.slot] = static_cast<double>(r.version);
          if (r.answer) s.q_digest[it.slot] = digest(r.answer->dist);
        }
      } catch (const std::exception& e) {
        std::cerr << (it.update ? "update" : "query") << " failed: "
                  << e.what() << "\n";
      }
    }
  });

  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  std::size_t qi = 0;
  std::size_t ui = 0;
  for (const Event& e : events) {
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(e.due_s));
    std::this_thread::sleep_until(due);
    Item it;
    it.update = e.update;
    const auto submit = Clock::now();
    if (e.update) {
      it.slot = ui;
      s.u_due[ui] = static_cast<double>(ns_of(due));
      it.upd = engine.apply_updates(updates.at(first_update + ui));
      ++ui;
      s.snapshots_live_max = std::max(
          s.snapshots_live_max,
          static_cast<double>(engine.stats().snapshots_live));
    } else {
      it.slot = qi;
      s.q_root[qi] = static_cast<double>(e.root);
      s.q_due[qi] = static_cast<double>(ns_of(due));
      s.q_submit[qi] = static_cast<double>(ns_of(submit));
      it.query = engine.submit(e.root, opts);
      ++qi;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      items.push_back(std::move(it));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done_submitting = true;
  }
  cv.notify_one();
  collector.join();

  const ServeStats after = engine.stats();
  s.stats = after;
  s.stats.batches = after.batches - before.batches;
  s.stats.single_solves = after.single_solves - before.single_solves;
  s.stats.multi_sweeps = after.multi_sweeps - before.multi_sweeps;
  s.stats.cache.hits = after.cache.hits - before.cache.hits;
  s.stats.cache.misses = after.cache.misses - before.cache.misses;
  s.stats.cache.version_misses =
      after.cache.version_misses - before.cache.version_misses;
  for (std::size_t k = 0; k < after.batch_size_histogram.size(); ++k) {
    s.stats.batch_size_histogram[k] -=
        k < before.batch_size_histogram.size()
            ? before.batch_size_histogram[k]
            : 0;
  }
  s.snapshots_live_max = std::max(
      s.snapshots_live_max, static_cast<double>(after.snapshots_live));
  return s;
}

/// Whether arrivals outran service in `s`: more queries arrived and not yet
/// done at the last arrival than Little's law allows at `limit_s` (rate x
/// limit) plus one batch. The backlog half of run.py's rung rule
/// (metrics.rung_passes): a rung that fails it fails there too, so no rung
/// above it can count and the ladder stops.
bool backlog_grew(const StreamSamples& s, double limit_s) {
  const double last = *std::max_element(s.q_due.begin(), s.q_due.end());
  std::size_t backlog = 0;
  for (std::size_t i = 0; i < s.q_due.size(); ++i) {
    if (s.q_due[i] <= last && (!s.q_ok[i] || s.q_done[i] > last)) ++backlog;
  }
  return static_cast<double>(backlog) >
         s.rate * limit_s + static_cast<double>(kMaxBatch);
}

/// Checks every served answer against seq::dijkstra on the graph version
/// it is stamped with (the applied batches replayed on a mirror). Returns
/// the number of wrong answers.
std::uint64_t check_stream(const CsrGraph& base,
                           const std::vector<EdgeBatch>& updates,
                           const StreamSamples& s, TraceLog& log) {
  std::map<std::uint64_t, std::map<vid_t, std::vector<std::size_t>>> todo;
  for (std::size_t i = 0; i < s.q_root.size(); ++i) {
    if (!s.q_ok[i]) continue;
    todo[static_cast<std::uint64_t>(s.q_version[i])]
        [static_cast<vid_t>(s.q_root[i])]
            .push_back(i);
  }
  DynamicGraph mirror(base);
  std::uint64_t at = 0;
  std::uint64_t wrong = 0;
  for (const auto& [version, by_root] : todo) {
    while (at < version) mirror.apply(updates.at(at++));
    const CsrGraph g = version == 0 ? CsrGraph() : mirror.materialize();
    const CsrGraph& graph = version == 0 ? base : g;
    const std::vector<std::pair<vid_t, std::vector<std::size_t>>> items(
        by_root.begin(), by_root.end());
    std::vector<std::uint64_t> want(items.size());
    const auto a = Clock::now();
    parallel_for(items.size(), [&](std::size_t k) {
      want[k] = digest(dijkstra_distances(graph, items[k].first));
    });
    log.span("bench.oracle", a, Clock::now());
    for (std::size_t k = 0; k < items.size(); ++k) {
      for (const std::size_t i : items[k].second) {
        if (s.q_digest[i] != want[k]) {
          std::cerr << "query root " << items[k].first << " at version "
                    << version << " differs from seq::dijkstra\n";
          ++wrong;
        }
      }
    }
  }
  return wrong;
}

void write_stream(Json& j, const std::string& k, const StreamSamples& s) {
  j.key(k);
  j.open('{');
  j.field("rate", s.rate);
  j.array("q_due_ns", s.q_due);
  j.array("q_submit_ns", s.q_submit);
  j.array("q_done_ns", s.q_done);
  j.array("q_ok", s.q_ok);
  j.array("u_due_ns", s.u_due);
  j.array("u_done_ns", s.u_done);
  j.array("u_ok", s.u_ok);
  j.field("snapshots_live_max", s.snapshots_live_max);
  j.field("batches", s.stats.batches);
  j.field("single_solves", s.stats.single_solves);
  j.field("multi_sweeps", s.stats.multi_sweeps);
  j.field("cache_hits", s.stats.cache.hits);
  j.field("cache_misses", s.stats.cache.misses);
  j.field("cache_version_misses", s.stats.cache.version_misses);
  j.array("batch_size_histogram", s.stats.batch_size_histogram);
  j.field("histogram_p99_s", s.histogram_p99_s);
  j.array("prior_latency_s", s.prior_latency_s);
  j.close('}');
}

void write_trace(Json& j, const TraceLog& log) {
  j.key("trace");
  j.open('{');
  j.field("dropped", log.dropped);
  j.key("cats");
  j.open('[');
  for (std::size_t c = 0; c < static_cast<std::size_t>(SpanCat::kCount);
       ++c) {
    j.value(std::string(span_cat_name(static_cast<SpanCat>(c))));
  }
  j.close(']');
  j.key("bench");
  j.open('[');
  for (const BenchSpan& b : log.bench) {
    j.open('[');
    j.value(b.name);
    j.value(static_cast<std::uint64_t>(b.start_ns));
    j.value(static_cast<std::uint64_t>(b.dur_ns));
    j.close(']');
  }
  j.close(']');
  j.key("lanes");
  j.open('[');
  for (const LaneDump& lane : log.lanes) {
    j.open('{');
    j.field("name", lane.name);
    j.field("source", lane.source);
    j.key("spans");
    j.open('[');
    for (const TraceSpan& s : lane.spans) {
      j.open('[');
      j.value(static_cast<std::uint64_t>(s.cat));
      j.value(static_cast<std::uint64_t>(std::max<std::int64_t>(0, s.start_ns)));
      j.value(static_cast<std::uint64_t>(std::max<std::int64_t>(0, s.dur_ns)));
      j.close(']');
    }
    j.close(']');
    j.close('}');
  }
  j.close(']');
  j.close('}');
}

// --- Main -------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double latency_limit_s = 0.25;
  std::string out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--latency-limit-s") {
      a.latency_limit_s = std::stod(v);
    } else if (k == "--out") {
      a.out = v;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.out.empty()) throw std::invalid_argument("--out is required");
  return a;
}

int run(const Args& args) {
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    throw std::invalid_argument("unknown workload " + args.workload);
  }
  TraceLog log;
  std::mt19937_64 rng(args.seed * 0x9E3779B97F4A7C15ull + 17);

  // Set-up, repeated: the extra ones in child processes first (before
  // this process starts any thread), then the one that is measured.
  std::vector<SetupTimes> setups;
  for (std::size_t r = 1; r < (args.trace ? 1 : kSetupReps); ++r) {
    setups.push_back(setup_in_child(*spec, args.seed));
  }
  // The engine of this process is added after the Solver phase (below).
  std::unique_ptr<World> world = make_world(*spec, args.seed, log);
  const CsrGraph& g = *world->graph;
  Solver& solver = *world->solver;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Peak RSS at the end of the timed window, before the answer checks.
  std::uint64_t window_peak_kb = 0;
  const auto count = [&](const std::vector<bool>& ok) {
    attempted += ok.size();
    failed += static_cast<std::uint64_t>(
        std::count(ok.begin(), ok.end(), false));
  };

  const std::vector<vid_t> roots = pick_roots(g, kRootSetSize, rng);
  const Oracle oracle =
      run_oracle(g, roots, args.trace ? kTimedOracles : 0, log);
  // A few untimed solves: the first ones pay page faults and allocator
  // growth that later ones do not.
  for (std::size_t i = 0; i < kWarmSolves; ++i) {
    solver.solve(roots[i], workload_options());
  }

  std::ofstream raw(args.out + "/raw.json");
  if (!raw) throw std::runtime_error("cannot write " + args.out);
  Json j(raw);
  j.open('{');
  j.field("workload", std::string(spec->name));
  j.field("seed", args.seed);
  j.field("trace", args.trace);
  j.key("descriptor");
  j.open('{');
  j.field("nproc",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  j.field("cpu_model", cpu_model());
  j.field("l2_bytes", cache_bytes(_SC_LEVEL2_CACHE_SIZE));
  j.field("l3_bytes", cache_bytes(_SC_LEVEL3_CACHE_SIZE));
  j.field("build_type", std::string(SSSPBENCH_BUILD_TYPE));
  j.field("scale", static_cast<std::uint64_t>(spec->scale));
  j.field("ranks", static_cast<std::uint64_t>(spec->ranks));
  j.field("lanes_per_rank", std::uint64_t{1});
  j.field("delta", static_cast<std::uint64_t>(kDelta));
  j.field("vertices", static_cast<std::uint64_t>(g.num_vertices()));
  j.field("edges", static_cast<std::uint64_t>(g.num_undirected_edges()));
  j.field("graph_bytes", graph_bytes(g));
  // CSR, plus the per-rank edge views (one copy of every arc between
  // them), plus one distance array.
  j.field("working_set_bytes",
          graph_bytes(g) + g.num_arcs() * sizeof(Arc) +
              g.num_vertices() * sizeof(dist_t));
  if (spec->serve) {
    j.field("query_rate", kQueryRate);
    j.field("root_domain", static_cast<std::uint64_t>(kRootDomain));
    j.field("zipf_s", kZipfS);
    j.field("cache_capacity", static_cast<std::uint64_t>(kCacheCapacity));
    j.field("max_batch", static_cast<std::uint64_t>(kMaxBatch));
    j.field("update_rate", kUpdateRate);
    j.field("ops_per_update", static_cast<std::uint64_t>(kOpsPerUpdate));
  }
  j.close('}');
  j.key("oracle");
  j.open('{');
  j.array("roots", oracle.roots);
  j.array("ms", oracle.ms);
  j.array("relaxations", oracle.relaxations);
  j.close('}');

  // Closed-loop Solver phase: the whole timed window of the batch
  // workload, a short solve_gteps phase on the serving graph otherwise.
  if (!args.trace) {
    const bool batch = !spec->serve;
    const SolveSamples solves = solver_loop(
        solver, roots, oracle, batch ? args.seconds : kServeGraphSeconds,
        batch ? kMinTimedSolves : kServeGraphSolves, false, log);
    window_peak_kb = peak_rss_kb();
    count(solves.ok);
    write_solves(j, "solves", solves);
  } else {
    const SolveSamples probe =
        solver_loop(solver, roots, oracle, 0.0, kProbeSolves, false, log);
    const SolveSamples traced =
        solver_loop(solver, roots, oracle, 0.0, kTracedSolves, true, log);
    count(probe.ok);
    count(traced.ok);
    write_solves(j, "solves", probe);
    write_solves(j, "traced_solves", traced);
    const MultiProbe mp = multi_probe(solver, roots, oracle, log);
    attempted += mp.attempted;
    failed += mp.failed;
    j.key("multi");
    j.open('{');
    j.field("multi_s", mp.multi_s);
    j.field("singles_s", mp.singles_s);
    j.close('}');
    std::vector<double> spawn_us, session_us;
    host_probe(*spec, spawn_us, session_us);
    j.array("spawn_us", spawn_us);
    j.array("session_job_us", session_us);
  }

  if (spec->serve) add_engine(*world, *spec, nullptr, log);
  setups.push_back(world->times);
  const auto setup_field = [&](const char* k, double SetupTimes::*f) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*f);
    j.array(k, v);
  };
  j.key("setup");
  j.open('{');
  setup_field("total_s", &SetupTimes::total_s);
  setup_field("generate_s", &SetupTimes::generate_s);
  setup_field("csr_build_s", &SetupTimes::csr_build_s);
  setup_field("engine_s", &SetupTimes::engine_s);
  setup_field("view_build_s", &SetupTimes::view_build_s);
  setup_field("warmup_s", &SetupTimes::warmup_s);
  j.close('}');

  if (spec->serve) {
    QueryEngine& engine = *world->engine;
    const ZipfRoots zipf(g, rng);
    // Warm the cache with the most popular roots, so the window starts in
    // steady state rather than measuring the cold start.
    for (const vid_t r : zipf.top(kCacheCapacity)) {
      const auto a = Clock::now();
      const QueryResult warm = engine.query(r, workload_options());
      world->prior_latency_s.push_back(secs(a, warm.completed_at));
    }
    const auto update_count = [](const std::vector<Event>& events) {
      return static_cast<std::size_t>(
          std::count_if(events.begin(), events.end(),
                        [](const Event& e) { return e.update; }));
    };
    const std::vector<Event> nominal = make_stream(
        zipf, kQueryRate, args.seconds, kMinQueries, kUpdateRate, rng);
    // Traced runs: the rate ladder's rungs continue the stream, updates
    // included, on the version the nominal stream left behind.
    std::vector<std::vector<Event>> rungs;
    if (args.trace) {
      for (const double rate : kLadderRates) {
        rungs.push_back(make_stream(zipf, rate, 0.0, kRungQueries,
                                    rate / kQueriesPerUpdate, rng));
      }
    }
    std::size_t update_total = update_count(nominal);
    for (const std::vector<Event>& r : rungs) update_total += update_count(r);
    const std::vector<EdgeBatch> updates = make_updates(g, update_total, rng);
    bool climb = args.trace;
    {
      StreamSamples s = run_stream(engine, nominal, updates, 0, kQueryRate);
      climb = climb && !backlog_grew(s, args.latency_limit_s);
      window_peak_kb = peak_rss_kb();
      s.histogram_p99_s = world->registry->histogram("serve.latency_s")
                              .snapshot()
                              .percentile(0.99);
      s.prior_latency_s = world->prior_latency_s;
      count(s.q_ok);
      count(s.u_ok);
      failed += check_stream(g, updates, s, log);
      write_stream(j, "stream", s);
    }
    if (args.trace) {
      j.key("ladder");
      j.open('[');
      std::size_t first_update = update_count(nominal);
      for (std::size_t r = 0; climb && r < rungs.size(); ++r) {
        const double rate = kLadderRates[r];
        const StreamSamples s =
            run_stream(engine, rungs[r], updates, first_update, rate);
        first_update += update_count(rungs[r]);
        count(s.q_ok);
        count(s.u_ok);
        failed += check_stream(g, updates, s, log);
        j.open('{');
        j.field("rate", rate);
        j.array("q_due_ns", s.q_due);
        j.array("q_done_ns", s.q_done);
        j.array("q_ok", s.q_ok);
        j.close('}');
        climb = !backlog_grew(s, args.latency_limit_s);
      }
      j.close(']');
      // The traced window: a fresh engine recording into its own
      // recorder, so the untraced numbers above stay untraced.
      TraceRecorder rec(1u << 18);
      std::unique_ptr<World> traced =
          make_world(*spec, args.seed, log, /*with_solver=*/false);
      add_engine(*traced, *spec, &rec, log);
      for (const vid_t r : zipf.top(kCacheCapacity)) {
        traced->engine->query(r, workload_options());
      }
      // Let the dispatcher close the warm-up's last span before clearing.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      rec.clear();
      const std::vector<Event> events = make_stream(
          zipf, kQueryRate, kTracedServeSeconds, 0, kUpdateRate, rng);
      const std::vector<EdgeBatch> traced_updates =
          make_updates(*traced->graph, update_count(events), rng);
      const StreamSamples s =
          run_stream(*traced->engine, events, traced_updates, 0, kQueryRate);
      traced->engine.reset();  // quiesce the writers before reading
      log.absorb(rec, "serve");
      for (std::size_t i = 0; i < s.q_due.size(); ++i) {
        if (s.q_ok[i]) {
          log.bench.push_back({"bench.query",
                               static_cast<std::int64_t>(s.q_submit[i]),
                               static_cast<std::int64_t>(s.q_done[i] -
                                                         s.q_submit[i])});
        }
      }
      for (std::size_t i = 0; i < s.u_due.size(); ++i) {
        if (s.u_ok[i]) {
          log.bench.push_back({"bench.update",
                               static_cast<std::int64_t>(s.u_due[i]),
                               static_cast<std::int64_t>(s.u_done[i] -
                                                         s.u_due[i])});
        }
      }
      count(s.q_ok);
      count(s.u_ok);
      failed += check_stream(*traced->graph, traced_updates, s, log);
      write_stream(j, "traced_stream", s);
    }
  }

  j.field("peak_rss_kb", window_peak_kb);
  j.field("attempted", attempted);
  j.field("failed", failed);
  if (args.trace) write_trace(j, log);
  j.close('}');
  raw << "\n";
  raw.close();
  if (!raw) throw std::runtime_error("writing raw.json failed");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "ssspbench: " << e.what() << "\n";
    return 2;
  }
}
