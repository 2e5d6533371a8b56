// Exhaustive field coverage for options_signature() (src/serve/
// result_cache.cpp). The result cache keys on the signature, so any
// SsspOptions field that changes results but not the signature silently
// serves wrong cached answers. One mutator per field below; the analyzer's
// A2 check (scripts/analysis/) guarantees the *list* of fields is complete
// against the struct, this test guarantees each serialization actually
// distinguishes values — pairwise, not just against the default.
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/options.hpp"
#include "obs/trace.hpp"
#include "serve/result_cache.hpp"

namespace parsssp {
namespace {

struct FieldMutation {
  const char* name;
  std::function<void(SsspOptions&)> apply;
};

// Every non-excluded SsspOptions field (including the nested
// CostModelParams), each set to a value distinct from the default.
const std::vector<FieldMutation>& mutations() {
  static const std::vector<FieldMutation> kMutations = {
      {"delta", [](SsspOptions& o) { o.delta = 7; }},
      {"algo", [](SsspOptions& o) { o.algo = SsspAlgo::kAsync; }},
      {"edge_classification",
       [](SsspOptions& o) { o.edge_classification = false; }},
      {"ios", [](SsspOptions& o) { o.ios = false; }},
      {"pruning", [](SsspOptions& o) { o.pruning = false; }},
      {"prune_mode",
       [](SsspOptions& o) { o.prune_mode = PruneMode::kPullOnly; }},
      {"forced_pull", [](SsspOptions& o) { o.forced_pull = {true, false}; }},
      {"estimator",
       [](SsspOptions& o) { o.estimator = EstimatorKind::kHistogram; }},
      {"load_lambda", [](SsspOptions& o) { o.load_lambda = 2.5; }},
      {"hybrid_tau", [](SsspOptions& o) { o.hybrid_tau = 0.4; }},
      {"heavy_degree_threshold",
       [](SsspOptions& o) { o.heavy_degree_threshold = 64; }},
      {"rho", [](SsspOptions& o) { o.rho = 999; }},
      {"radius_k", [](SsspOptions& o) { o.radius_k = 17; }},
      {"track_parents", [](SsspOptions& o) { o.track_parents = true; }},
      {"canonical_parents",
       [](SsspOptions& o) { o.canonical_parents = true; }},
      {"collect_phase_details",
       [](SsspOptions& o) { o.collect_phase_details = true; }},
      {"collect_bucket_details",
       [](SsspOptions& o) { o.collect_bucket_details = true; }},
      {"cost_model.t_step_ns",
       [](SsspOptions& o) { o.cost_model.t_step_ns = 123.0; }},
      {"cost_model.t_relax_ns",
       [](SsspOptions& o) { o.cost_model.t_relax_ns = 123.0; }},
      {"cost_model.t_byte_ns",
       [](SsspOptions& o) { o.cost_model.t_byte_ns = 123.0; }},
      {"cost_model.t_scan_ns",
       [](SsspOptions& o) { o.cost_model.t_scan_ns = 123.0; }},
  };
  return kMutations;
}

TEST(OptionsSignature, EveryFieldChangesTheSignature) {
  const std::string base = options_signature(SsspOptions{});
  for (const auto& m : mutations()) {
    SsspOptions o;
    m.apply(o);
    EXPECT_NE(options_signature(o), base)
        << "toggling " << m.name << " did not change the signature — "
        << "the result cache would conflate the two configurations";
  }
}

TEST(OptionsSignature, PairwiseDistinct) {
  // Single-field mutations must stay distinguishable from *each other*,
  // not just from the default: two fields serialized into the same bytes
  // (e.g. both printed as a bare "1" into one slot) pass the test above
  // but collide here.
  const auto& muts = mutations();
  for (std::size_t i = 0; i < muts.size(); ++i) {
    SsspOptions a;
    muts[i].apply(a);
    const std::string sig_a = options_signature(a);
    for (std::size_t j = i + 1; j < muts.size(); ++j) {
      SsspOptions b;
      muts[j].apply(b);
      EXPECT_NE(sig_a, options_signature(b))
          << muts[i].name << " and " << muts[j].name
          << " produce identical signatures";
    }
  }
}

TEST(OptionsSignature, CostModelFieldsDoNotAlias) {
  // All four cost-model knobs default to different values and are printed
  // in sequence; setting two *different* fields to the *same* value must
  // still be told apart (a delimiter bug would merge them).
  SsspOptions a;
  a.cost_model.t_relax_ns = 9.0;
  SsspOptions b;
  b.cost_model.t_byte_ns = 9.0;
  EXPECT_NE(options_signature(a), options_signature(b));
}

TEST(OptionsSignature, ForcedPullIsOrderSensitive) {
  SsspOptions a;
  a.forced_pull = {true, false};
  SsspOptions b;
  b.forced_pull = {false, true};
  EXPECT_NE(options_signature(a), options_signature(b));
}

TEST(OptionsSignature, ExcludedTraceFieldIsIgnored) {
  // trace never changes results or reported statistics; it is on the
  // analyzer's exclusion allowlist (scripts/analysis/policy.toml) and a
  // recorder pointer must not fragment the cache.
  TraceRecorder recorder;
  SsspOptions with_trace;
  with_trace.trace = &recorder;
  EXPECT_EQ(options_signature(with_trace), options_signature(SsspOptions{}));
}

TEST(OptionsSignature, Deterministic) {
  SsspOptions o = SsspOptions::lb_opt(13, 128);
  o.forced_pull = {true, true, false};
  EXPECT_EQ(options_signature(o), options_signature(o));
}

}  // namespace
}  // namespace parsssp
