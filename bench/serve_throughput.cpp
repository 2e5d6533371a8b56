// Serving-subsystem acceptance benchmark, three comparisons on RMAT-1 at a
// fixed rank count:
//
//   (a) persistent MachineSession vs spawn-per-query (a fresh session per
//       solve) on back-to-back single-root latency (same work, so the
//       session wins by the thread create/join overhead it amortizes away);
//   (b) batched multi-root serving (QueryEngine, max_batch 8) vs sequential
//       solve_batch over the same roots, in queries/s and aggregate GTEPS;
//   (c) an open-loop Zipf stream against a cached engine: cache hit rate,
//       answer validation against per-root solves, and p50/p95/p99 latency.
//
// Emits a JSON report (argv[1], default BENCH_serve_throughput.json) with
// pass/fail booleans for each comparison alongside the raw numbers.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/runner.hpp"
#include "bench_util/stats_io.hpp"
#include "bench_util/table.hpp"
#include "core/dist_graph.hpp"
#include "core/engine_job.hpp"
#include "core/solver.hpp"
#include "runtime/machine_session.hpp"
#include "serve/query_engine.hpp"
#include "serve/workload.hpp"

namespace parsssp {
namespace {

using Clock = std::chrono::steady_clock;
using namespace std::chrono_literals;

constexpr std::uint32_t kScale = 12;
constexpr rank_t kRanks = 8;
constexpr std::uint32_t kDelta = 25;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<vid_t> distinct_roots(const CsrGraph& g, std::size_t n) {
  // 997 is odd and |V| a power of two, so the stride visits distinct
  // vertices; skip isolated ones to keep per-query work comparable.
  std::vector<vid_t> roots;
  for (vid_t v = 0; roots.size() < n && v < g.num_vertices(); ++v) {
    const vid_t cand =
        static_cast<vid_t>((static_cast<std::uint64_t>(v) * 997) %
                           g.num_vertices());
    if (g.degree(cand) > 0) roots.push_back(cand);
  }
  return roots;
}

struct SessionVsSpawn {
  double spawn_mean_s = 0;
  double spawn_p50_s = 0;
  double session_mean_s = 0;
  double session_p50_s = 0;
  bool session_wins = false;
};

SessionVsSpawn run_session_vs_spawn(const CsrGraph& g) {
  const SsspOptions options = SsspOptions::del(kDelta);
  const auto roots = distinct_roots(g, 6);
  constexpr int kWarmup = 4;
  constexpr int kMeasured = 40;

  // Spawn-per-query: a fresh session per solve spawns and joins the rank
  // threads around one engine job on prebuilt views.
  const BlockPartition part(g.num_vertices(), kRanks);
  const std::vector<LocalEdgeView> views =
      build_all_views(g, part, options.delta);
  // Persistent session: rank threads parked between queries. max_batch 1 and
  // no cache make each query exactly one single-root job on the session.
  ServeConfig config;
  config.machine.num_ranks = kRanks;
  config.max_batch = 1;
  config.cache_capacity = 0;
  QueryEngine engine(g, config);

  // Interleave the two paths so load drift hits both sample sets equally.
  std::vector<double> spawn_lat;
  std::vector<double> session_lat;
  for (int q = 0; q < kWarmup + kMeasured; ++q) {
    const vid_t root = roots[static_cast<std::size_t>(q) % roots.size()];
    const auto t0 = Clock::now();
    SsspResult r;
    {
      MachineSession once({.num_ranks = kRanks});
      run_engine(once,
                 {.graph = &g,
                  .part = part,
                  .views = &views,
                  .dist = &r.dist,
                  .root = root,
                  .stats = &r.stats},
                 options);
    }
    const double spawn_s = seconds_since(t0);
    const auto t1 = Clock::now();
    const QueryResult qr = engine.query(root, options);
    const double session_s = seconds_since(t1);
    if (q >= kWarmup && !r.dist.empty() && qr.answer != nullptr) {
      spawn_lat.push_back(spawn_s);
      session_lat.push_back(session_s);
    }
  }

  const LatencyStats spawn = percentile_stats(std::move(spawn_lat));
  const LatencyStats session = percentile_stats(std::move(session_lat));
  return {.spawn_mean_s = spawn.mean,
          .spawn_p50_s = spawn.p50,
          .session_mean_s = session.mean,
          .session_p50_s = session.p50,
          .session_wins = session.mean < spawn.mean};
}

struct BatchedVsSequential {
  std::size_t num_queries = 0;
  double sequential_elapsed_s = 0;
  double sequential_qps = 0;
  double batched_elapsed_s = 0;
  double batched_qps = 0;
  double sequential_gteps_wall = 0;
  double batched_gteps_wall = 0;
  std::uint64_t multi_sweeps = 0;
  double min_batched_size = 0;  ///< smallest closed batch (want >= 4)
  bool batched_wins = false;
};

BatchedVsSequential run_batched_vs_sequential(const CsrGraph& g) {
  const SsspOptions options = SsspOptions::del(kDelta);
  const auto roots = distinct_roots(g, 32);
  const double edges = static_cast<double>(g.num_undirected_edges());
  BatchedVsSequential out;
  out.num_queries = roots.size();

  Solver solver(g, {.machine = {.num_ranks = kRanks}});
  solver.solve(roots[0], options);  // build views outside the timed region
  const auto t_seq = Clock::now();
  solver.solve_batch(roots, options);
  out.sequential_elapsed_s = seconds_since(t_seq);

  ServeConfig config;
  config.machine.num_ranks = kRanks;
  config.max_batch = 8;
  config.cache_capacity = 0;
  config.batch_window = 5ms;
  QueryEngine engine(g, config);
  engine.query(roots[0], options);  // warm: views + first sweep
  const auto t_batch = Clock::now();
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(roots.size());
  for (const vid_t root : roots) futures.push_back(engine.submit(root, options));
  for (auto& f : futures) f.get();
  out.batched_elapsed_s = seconds_since(t_batch);

  const double n = static_cast<double>(roots.size());
  out.sequential_qps = n / out.sequential_elapsed_s;
  out.batched_qps = n / out.batched_elapsed_s;
  out.sequential_gteps_wall = edges * n / out.sequential_elapsed_s / 1e9;
  out.batched_gteps_wall = edges * n / out.batched_elapsed_s / 1e9;
  const ServeStats stats = engine.stats();
  out.multi_sweeps = stats.multi_sweeps;
  for (std::size_t s = 1; s < stats.batch_size_histogram.size(); ++s) {
    if (stats.batch_size_histogram[s] > 0 &&
        (out.min_batched_size == 0 || s < out.min_batched_size)) {
      // The warm-up query closes a size-1 batch; ignore it.
      if (s == 1 && stats.batch_size_histogram[1] == 1) continue;
      out.min_batched_size = static_cast<double>(s);
    }
  }
  out.batched_wins = out.batched_qps > out.sequential_qps;
  return out;
}

struct ZipfCacheRun {
  std::size_t num_queries = 0;
  double elapsed_s = 0;
  double qps = 0;
  double cache_hit_rate = 0;
  std::uint64_t cache_hits = 0;
  bool answers_identical = false;
  LatencyStats latency;
  std::vector<std::uint64_t> batch_histogram;
};

ZipfCacheRun run_zipf_cached(const CsrGraph& g) {
  const SsspOptions options = SsspOptions::del(kDelta);
  WorkloadConfig workload;
  workload.num_queries = 200;
  workload.rate_qps = 1000;  // open loop: arrivals pace the submissions
  workload.dist = RootDist::kZipf;
  workload.zipf_s = 1.2;
  workload.num_roots_domain = 48;
  workload.seed = 7;
  const auto stream = make_open_loop_stream(workload, g.num_vertices());

  ServeConfig config;
  config.machine.num_ranks = kRanks;
  config.max_batch = 8;
  config.cache_capacity = 64;
  QueryEngine engine(g, config);

  std::vector<std::future<QueryResult>> futures;
  std::vector<Clock::time_point> submitted;
  futures.reserve(stream.size());
  submitted.reserve(stream.size());
  const auto start = Clock::now();
  for (const QueryEvent& ev : stream) {
    const auto due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(ev.arrival_s));
    if (due > Clock::now()) std::this_thread::sleep_until(due);
    submitted.push_back(Clock::now());
    futures.push_back(engine.submit(ev.root, options));
  }

  ZipfCacheRun out;
  out.num_queries = stream.size();
  std::vector<double> latencies;
  latencies.reserve(stream.size());
  std::vector<std::shared_ptr<const QueryAnswer>> answers;
  answers.reserve(stream.size());
  Clock::time_point last_done = start;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const QueryResult r = futures[i].get();
    latencies.push_back(
        std::chrono::duration<double>(r.completed_at - submitted[i]).count());
    last_done = std::max(last_done, r.completed_at);
    answers.push_back(r.answer);
  }
  out.elapsed_s = std::chrono::duration<double>(last_done - start).count();
  out.qps = static_cast<double>(stream.size()) / out.elapsed_s;
  out.latency = percentile_stats(std::move(latencies));

  // Cached and computed answers must both equal an independent per-root
  // solve -- cache hits return stored pointers, so this validates both the
  // multi-root sweeps and the cache's keying.
  Solver oracle(g, {.machine = {.num_ranks = kRanks}});
  std::map<vid_t, std::vector<dist_t>> expected;
  out.answers_identical = true;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    auto [it, fresh] = expected.try_emplace(stream[i].root);
    if (fresh) it->second = oracle.solve(stream[i].root, options).dist;
    if (answers[i] == nullptr || answers[i]->dist != it->second) {
      out.answers_identical = false;
    }
  }

  const ServeStats stats = engine.stats();
  out.cache_hit_rate = stats.cache.hit_rate();
  out.cache_hits = stats.cache.hits;
  out.batch_histogram = stats.batch_size_histogram;
  return out;
}

struct ColdQueryMode {
  std::size_t num_queries = 0;
  LatencyStats sync;
  LatencyStats async;
  bool answers_identical = true;
  bool async_p50_wins = false;
};

// (d) Cold-query latency mode: every query is a cache miss (cache disabled,
// max_batch 1), served by two otherwise identical engines — one
// bucket-synchronous, one with async_cold_queries rerouting misses through
// the barrier-free engine (docs/ASYNC.md). Report-only: the authoritative
// latency gate for the async engine lives in bench/async_latency; here the
// comparison includes the full serve-layer overhead (dispatcher, batching,
// snapshot pinning).
ColdQueryMode run_cold_queries(const CsrGraph& g) {
  const SsspOptions options = SsspOptions::del(kDelta);
  const auto roots = distinct_roots(g, 6);
  constexpr int kWarmup = 4;
  constexpr int kMeasured = 32;

  ServeConfig sync_config;
  sync_config.machine.num_ranks = kRanks;
  sync_config.max_batch = 1;
  sync_config.cache_capacity = 0;
  QueryEngine sync_engine(g, sync_config);
  ServeConfig async_config = sync_config;
  async_config.async_cold_queries = true;
  QueryEngine async_engine(g, async_config);

  ColdQueryMode out;
  std::vector<double> sync_lat, async_lat;
  for (int q = 0; q < kWarmup + kMeasured; ++q) {
    const vid_t root = roots[static_cast<std::size_t>(q) % roots.size()];
    const auto t0 = Clock::now();
    const QueryResult rs = sync_engine.query(root, options);
    const double sync_s = seconds_since(t0);
    const auto t1 = Clock::now();
    const QueryResult ra = async_engine.query(root, options);
    const double async_s = seconds_since(t1);
    if (rs.answer == nullptr || ra.answer == nullptr ||
        rs.answer->dist != ra.answer->dist) {
      out.answers_identical = false;
    }
    if (q >= kWarmup) {
      sync_lat.push_back(sync_s);
      async_lat.push_back(async_s);
      ++out.num_queries;
    }
  }
  out.sync = percentile_stats(std::move(sync_lat));
  out.async = percentile_stats(std::move(async_lat));
  out.async_p50_wins = out.async.p50 < out.sync.p50;
  return out;
}

void write_report(std::ostream& os, const CsrGraph& g,
                  const SessionVsSpawn& a, const BatchedVsSequential& b,
                  const ZipfCacheRun& c, const ColdQueryMode& d) {
  JsonWriter w(os);
  w.begin_object();
  w.field("bench", std::string_view{"serve_throughput"});
  w.field("family", std::string_view{family_name(RmatFamily::kRmat1)});
  w.field("scale", std::uint64_t{kScale});
  w.field("vertices", static_cast<std::uint64_t>(g.num_vertices()));
  w.field("edges", static_cast<std::uint64_t>(g.num_undirected_edges()));
  w.field("ranks", std::uint64_t{kRanks});
  w.field("delta", std::uint64_t{kDelta});

  w.field("a_spawn_mean_latency_s", a.spawn_mean_s);
  w.field("a_spawn_p50_latency_s", a.spawn_p50_s);
  w.field("a_session_mean_latency_s", a.session_mean_s);
  w.field("a_session_p50_latency_s", a.session_p50_s);
  w.field("a_session_speedup", a.session_mean_s > 0
                                   ? a.spawn_mean_s / a.session_mean_s
                                   : 0.0);
  w.field("a_session_beats_spawn", a.session_wins);

  w.field("b_queries", static_cast<std::uint64_t>(b.num_queries));
  w.field("b_sequential_qps", b.sequential_qps);
  w.field("b_batched_qps", b.batched_qps);
  w.field("b_sequential_gteps_wall", b.sequential_gteps_wall);
  w.field("b_batched_gteps_wall", b.batched_gteps_wall);
  w.field("b_multi_sweeps", b.multi_sweeps);
  w.field("b_min_batched_size", b.min_batched_size);
  w.field("b_batched_beats_sequential", b.batched_wins);

  w.field("c_queries", static_cast<std::uint64_t>(c.num_queries));
  w.field("c_qps", c.qps);
  w.field("c_cache_hits", c.cache_hits);
  w.field("c_cache_hit_rate", c.cache_hit_rate);
  w.field("c_answers_identical", c.answers_identical);
  w.field("c_latency_p50_s", c.latency.p50);
  w.field("c_latency_p95_s", c.latency.p95);
  w.field("c_latency_p99_s", c.latency.p99);
  w.begin_array("c_batch_size_histogram");
  for (const auto count : c.batch_histogram) {
    w.value(static_cast<double>(count));
  }
  w.end_array();

  w.field("d_queries", static_cast<std::uint64_t>(d.num_queries));
  w.field("d_sync_p50_s", d.sync.p50);
  w.field("d_sync_p99_s", d.sync.p99);
  w.field("d_async_p50_s", d.async.p50);
  w.field("d_async_p99_s", d.async.p99);
  w.field("d_answers_identical", d.answers_identical);
  w.field("d_async_p50_wins", d.async_p50_wins);

  // (d) is report-only except for correctness: identical answers are part
  // of the async rerouting contract wherever it runs.
  w.field("pass", a.session_wins && b.batched_wins && c.cache_hit_rate > 0 &&
                      c.answers_identical && d.answers_identical);
  w.end_object();
  os << "\n";
}

}  // namespace
}  // namespace parsssp

int main(int argc, char** argv) {
  using namespace parsssp;
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_serve_throughput.json";

  const CsrGraph g = build_rmat_graph(RmatFamily::kRmat1, kScale);
  std::cout << "serve_throughput: RMAT-1 scale " << kScale << " ("
            << g.num_vertices() << " vertices, " << g.num_undirected_edges()
            << " edges), " << kRanks << " ranks, del(" << kDelta << ")\n\n";

  const SessionVsSpawn a = run_session_vs_spawn(g);
  const BatchedVsSequential b = run_batched_vs_sequential(g);
  const ZipfCacheRun c = run_zipf_cached(g);
  const ColdQueryMode d = run_cold_queries(g);

  TextTable ta("(a) back-to-back single-root latency: session vs spawn");
  ta.set_header({"path", "mean (ms)", "p50 (ms)"});
  ta.add_row({"spawn-per-query", TextTable::num(a.spawn_mean_s * 1e3, 4),
              TextTable::num(a.spawn_p50_s * 1e3, 4)});
  ta.add_row({"persistent session", TextTable::num(a.session_mean_s * 1e3, 4),
              TextTable::num(a.session_p50_s * 1e3, 4)});
  ta.print(std::cout);
  std::cout << "session speedup: "
            << TextTable::num(a.spawn_mean_s / a.session_mean_s, 3) << "x ("
            << (a.session_wins ? "session wins" : "SPAWN WINS") << ")\n\n";

  TextTable tb("(b) 32 distinct roots: sequential solve_batch vs batched");
  tb.set_header({"path", "queries/s", "agg GTEPS (wall)"});
  tb.add_row({"sequential solve_batch", TextTable::num(b.sequential_qps, 2),
              TextTable::num(b.sequential_gteps_wall, 4)});
  tb.add_row({"batched (max_batch 8)", TextTable::num(b.batched_qps, 2),
              TextTable::num(b.batched_gteps_wall, 4)});
  tb.print(std::cout);
  std::cout << "batched speedup: "
            << TextTable::num(b.batched_qps / b.sequential_qps, 3) << "x, "
            << b.multi_sweeps << " multi sweeps, smallest batch "
            << TextTable::num(b.min_batched_size, 0) << " ("
            << (b.batched_wins ? "batched wins" : "SEQUENTIAL WINS")
            << ")\n\n";

  TextTable tc("(c) open-loop Zipf stream, cached engine");
  tc.set_header({"metric", "value"});
  tc.add_row({"queries/s", TextTable::num(c.qps, 2)});
  tc.add_row({"cache hit rate", TextTable::num(c.cache_hit_rate, 4)});
  tc.add_row({"latency p50 (ms)", TextTable::num(c.latency.p50 * 1e3, 4)});
  tc.add_row({"latency p95 (ms)", TextTable::num(c.latency.p95 * 1e3, 4)});
  tc.add_row({"latency p99 (ms)", TextTable::num(c.latency.p99 * 1e3, 4)});
  tc.add_row({"answers identical",
              c.answers_identical ? "yes" : "NO (BUG)"});
  tc.print(std::cout);

  TextTable td("(d) cold-query latency: barrier-free misses vs synchronous");
  td.set_header({"path", "p50 (ms)", "p99 (ms)"});
  td.add_row({"synchronous misses", TextTable::num(d.sync.p50 * 1e3, 4),
              TextTable::num(d.sync.p99 * 1e3, 4)});
  td.add_row({"async_cold_queries", TextTable::num(d.async.p50 * 1e3, 4),
              TextTable::num(d.async.p99 * 1e3, 4)});
  td.print(std::cout);
  std::cout << "cold answers "
            << (d.answers_identical ? "bit-identical" : "MISMATCH (BUG)")
            << ", async p50 " << (d.async_p50_wins ? "wins" : "loses")
            << " (report-only; gated in bench/async_latency)\n\n";

  print_paper_note(
      std::cout,
      "Serving-layer additions beyond the paper: the paper measures one "
      "SSSP at a time on a dedicated machine; this bench measures the "
      "query-serving wrapper (persistent sessions, multi-root batching, "
      "result caching) that amortizes the same engine across a stream.");

  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 2;
  }
  write_report(out, g, a, b, c, d);
  std::cout << "wrote " << json_path << "\n";

  const bool pass = a.session_wins && b.batched_wins &&
                    c.cache_hit_rate > 0 && c.answers_identical &&
                    d.answers_identical;
  std::cout << (pass ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}
