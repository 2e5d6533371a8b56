// The online auto-tuner (core/auto_tune.hpp, docs/STEPPING.md). Contract
// under test: TunedConfig::apply only touches engine-selection fields, the
// decision table is incumbent-first and deterministic, tuning is a pure
// function of (graph, probe root) — same inputs => same TunedConfig, bit
// for bit — learned configs persist per version, and the serve-layer
// auto_tune flag rewrites cold default-algorithm queries without changing
// their answers.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "core/auto_tune.hpp"
#include "core/options.hpp"
#include "core/solver.hpp"
#include "graph/builders.hpp"
#include "graph/rmat.hpp"
#include "obs/metrics.hpp"
#include "serve/query_engine.hpp"

namespace parsssp {
namespace {

CsrGraph rmat_graph(std::uint64_t seed = 3) {
  RmatConfig cfg;
  cfg.scale = 8;
  cfg.edge_factor = 8;
  cfg.seed = seed;
  return CsrGraph::from_edges(generate_rmat(cfg));
}

// --- TunedConfig -----------------------------------------------------------

TEST(TunedConfig, ApplyOnlyTouchesEngineSelectionFields) {
  SsspOptions base = SsspOptions::opt(25);
  base.track_parents = true;
  base.canonical_parents = true;
  base.collect_phase_details = true;
  base.cost_model.t_relax_ns = 99.0;

  const TunedConfig tc{SsspAlgo::kRho, 13, 777, 2};
  const SsspOptions out = tc.apply(base);
  EXPECT_EQ(out.algo, SsspAlgo::kRho);
  EXPECT_EQ(out.delta, 13u);
  EXPECT_EQ(out.rho, 777u);
  EXPECT_EQ(out.radius_k, 2u);
  // The client's fields survive the rewrite.
  EXPECT_TRUE(out.track_parents);
  EXPECT_TRUE(out.canonical_parents);
  EXPECT_TRUE(out.collect_phase_details);
  EXPECT_EQ(out.cost_model.t_relax_ns, 99.0);
}

TEST(TunedConfig, NamesAreStable) {
  EXPECT_EQ((TunedConfig{SsspAlgo::kBucketSync, 25, 2048, 4}.name()),
            "opt-d25");
  EXPECT_EQ((TunedConfig{SsspAlgo::kRho, 25, 2048, 4}.name()),
            "rho-2048-d25");
  EXPECT_EQ((TunedConfig{SsspAlgo::kDeltaStar, 4, 2048, 4}.name()),
            "dstar-d4");
  EXPECT_EQ((TunedConfig{SsspAlgo::kRadius, 25, 2048, 2}.name()),
            "radius-k2-d25");
}

// --- Decision table --------------------------------------------------------

TEST(TunerShortlist, IncumbentComesFirstInEveryRegime) {
  for (double skew : {1.0, 100.0}) {
    for (std::uint64_t buckets : {std::uint64_t{4}, std::uint64_t{500}}) {
      GraphProfile p;
      p.degree_skew = skew;
      p.probe_buckets = buckets;
      const auto list = tuner_shortlist(p, 25);
      ASSERT_GE(list.size(), 2u);
      EXPECT_EQ(list[0].algo, SsspAlgo::kBucketSync);
      EXPECT_EQ(list[0].delta, 25u);
    }
  }
}

TEST(TunerShortlist, HighSkewShortlistsBatchingRules) {
  GraphProfile p;
  p.degree_skew = 64.0;
  bool has_rho = false;
  for (const TunedConfig& c : tuner_shortlist(p, 25)) {
    has_rho |= c.algo == SsspAlgo::kRho;
    EXPECT_NE(c.algo, SsspAlgo::kRadius);
  }
  EXPECT_TRUE(has_rho);
}

TEST(TunerShortlist, DeepLowSkewShortlistsRadiusRules) {
  GraphProfile p;
  p.degree_skew = 2.0;
  p.probe_buckets = 400;
  bool has_radius = false;
  for (const TunedConfig& c : tuner_shortlist(p, 25)) {
    has_radius |= c.algo == SsspAlgo::kRadius;
    EXPECT_NE(c.algo, SsspAlgo::kRho);
  }
  EXPECT_TRUE(has_radius);
}

// --- Profiling -------------------------------------------------------------

TEST(GraphProfile, CapturesSkewAndProbeShape) {
  const CsrGraph star = CsrGraph::from_edges(make_star(64));
  GraphProfile p = profile_graph(star);
  EXPECT_EQ(p.vertices, 65u);
  EXPECT_GT(p.degree_skew, 8.0);  // hub degree 64 vs mean < 2

  SsspStats probe;
  probe.short_relaxations = 2 * p.arcs;
  probe.buckets = 10;
  probe.phases = 30;
  profile_probe(p, probe);
  EXPECT_DOUBLE_EQ(p.relax_ratio, 2.0);
  EXPECT_EQ(p.probe_buckets, 10u);
  EXPECT_DOUBLE_EQ(p.phases_per_bucket, 3.0);
  EXPECT_GT(p.mean_frontier, 0.0);
}

// --- AutoTuner -------------------------------------------------------------

TEST(AutoTuner, SameGraphAndSeedYieldTheSameConfig) {
  const CsrGraph g = rmat_graph();
  Solver solver(g, {.machine = {.num_ranks = 4}});
  const auto probe = [&](const SsspOptions& o) {
    return solver.solve(7, o).stats;
  };
  AutoTuner a, b;
  const TunedConfig ca = a.tune(1, g, SsspOptions::opt(25), probe);
  const TunedConfig cb = b.tune(1, g, SsspOptions::opt(25), probe);
  EXPECT_EQ(ca, cb) << ca.name() << " vs " << cb.name();
  ASSERT_TRUE(a.learned(1).has_value());
  EXPECT_EQ(*a.learned(1), ca);
}

TEST(AutoTuner, LearnedVersionsAreNotReprobed) {
  const CsrGraph g = rmat_graph();
  Solver solver(g, {.machine = {.num_ranks = 2}});
  int probes = 0;
  const auto probe = [&](const SsspOptions& o) {
    ++probes;
    return solver.solve(3, o).stats;
  };
  AutoTuner tuner;
  const TunedConfig first = tuner.tune(9, g, SsspOptions::opt(25), probe);
  const int paid = probes;
  EXPECT_GE(paid, 2);  // incumbent + at least one challenger
  EXPECT_EQ(tuner.tune(9, g, SsspOptions::opt(25), probe), first);
  EXPECT_EQ(probes, paid);  // cache hit: no new solves
  EXPECT_EQ(tuner.tunes(), 1u);

  // A new version tunes again; forget() reopens an old one.
  tuner.tune(10, g, SsspOptions::opt(25), probe);
  EXPECT_EQ(tuner.tunes(), 2u);
  tuner.forget(9);
  EXPECT_FALSE(tuner.learned(9).has_value());
}

TEST(AutoTuner, PublishesProfileAndDecisionMetrics) {
  const CsrGraph g = rmat_graph();
  Solver solver(g, {.machine = {.num_ranks = 2}});
  MetricsRegistry metrics;
  AutoTuner tuner(&metrics);
  tuner.tune(1, g, SsspOptions::opt(25),
             [&](const SsspOptions& o) { return solver.solve(0, o).stats; });
  const MetricsSnapshot snap = metrics.snapshot();
  std::uint64_t tunes = 0, probe_solves = 0;
  for (const auto& c : snap.counters) {
    if (c.name == "tuner.tunes") tunes = c.value;
    if (c.name == "tuner.probe_solves") probe_solves = c.value;
  }
  EXPECT_EQ(tunes, 1u);
  EXPECT_GE(probe_solves, 2u);
  bool saw_skew = false;
  for (const auto& gv : snap.gauges) saw_skew |= gv.name == "tuner.degree_skew";
  EXPECT_TRUE(saw_skew);
}

// --- Serve-layer routing ---------------------------------------------------

TEST(AutoTuneServe, ColdDefaultQueriesAreTunedAndBitIdentical) {
  const CsrGraph g = rmat_graph();
  Solver solver(g, {.machine = {.num_ranks = 3}});
  MetricsRegistry metrics;
  ServeConfig config;
  config.machine.num_ranks = 3;
  config.auto_tune = true;
  config.metrics = &metrics;
  QueryEngine engine(g, config);

  const auto tunes = [&metrics]() -> std::uint64_t {
    for (const auto& c : metrics.snapshot().counters) {
      if (c.name == "tuner.tunes") return c.value;
    }
    return 0;
  };

  const SsspOptions options = SsspOptions::opt(25);
  const QueryResult first = engine.query(17, options);
  EXPECT_EQ(first.answer->dist, solver.solve(17, options).dist);
  EXPECT_EQ(tunes(), 1u);

  // Same version: the learned config is reused, not re-probed, and the
  // answer stays bit-identical whatever engine it routed to.
  const QueryResult second = engine.query(23, options);
  EXPECT_EQ(second.answer->dist, solver.solve(23, options).dist);
  EXPECT_EQ(tunes(), 1u);

  // Cached under the client's own signature.
  EXPECT_TRUE(engine.query(17, options).from_cache);
  EXPECT_EQ(tunes(), 1u);
}

TEST(AutoTuneServe, ExplicitEngineChoicesAreNeverRewritten) {
  const CsrGraph g = rmat_graph();
  Solver solver(g, {.machine = {.num_ranks = 2}});
  MetricsRegistry metrics;
  ServeConfig config;
  config.machine.num_ranks = 2;
  config.auto_tune = true;
  config.metrics = &metrics;
  QueryEngine engine(g, config);

  // An explicit stepping request runs as asked — no probe pass.
  const SsspOptions options = SsspOptions::radius_stepping(2);
  const QueryResult r = engine.query(17, options);
  EXPECT_EQ(r.answer->dist, solver.solve(17, options).dist);
  EXPECT_GT(r.answer->stats.stepping_relaxations, 0u);
  for (const auto& c : metrics.snapshot().counters) {
    if (c.name == "tuner.tunes") EXPECT_EQ(c.value, 0u);
  }
}

}  // namespace
}  // namespace parsssp
