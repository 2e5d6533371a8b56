#include "core/options.hpp"

#include <stdexcept>
#include <string>

namespace parsssp {

void check_options(const char* where, const SsspOptions& options) {
  const auto reject = [where](const char* what) {
    throw std::invalid_argument(std::string(where) + ": " + what);
  };
  if (options.delta == 0) reject("delta must be >= 1");
  if (options.algo == SsspAlgo::kRho && options.rho == 0) {
    reject("rho must be >= 1");
  }
  if (options.algo == SsspAlgo::kRadius && options.radius_k == 0) {
    reject("radius_k must be >= 1");
  }
}

SsspOptions SsspOptions::dijkstra() {
  SsspOptions o;
  o.delta = 1;
  o.edge_classification = true;  // with Delta=1 every edge is long
  o.ios = false;
  o.pruning = false;
  o.hybrid_tau = -1.0;
  return o;
}

SsspOptions SsspOptions::bellman_ford() {
  SsspOptions o;
  o.delta = kInfDelta;
  o.edge_classification = false;
  o.ios = false;
  o.pruning = false;
  o.hybrid_tau = -1.0;
  return o;
}

SsspOptions SsspOptions::del(std::uint32_t delta) {
  SsspOptions o;
  o.delta = delta;
  o.edge_classification = true;
  o.ios = false;
  o.pruning = false;
  o.hybrid_tau = -1.0;
  return o;
}

SsspOptions SsspOptions::prune(std::uint32_t delta) {
  SsspOptions o = del(delta);
  o.ios = true;
  o.pruning = true;
  o.prune_mode = PruneMode::kHeuristic;
  return o;
}

SsspOptions SsspOptions::opt(std::uint32_t delta) {
  SsspOptions o = prune(delta);
  o.hybrid_tau = 0.4;
  return o;
}

SsspOptions SsspOptions::lb_opt(std::uint32_t delta,
                                std::size_t heavy_threshold) {
  SsspOptions o = opt(delta);
  o.heavy_degree_threshold = heavy_threshold;
  return o;
}

SsspOptions SsspOptions::async_opt(std::uint32_t delta) {
  SsspOptions o;
  o.algo = SsspAlgo::kAsync;
  o.delta = delta;
  // The bucket-synchronous work-shaping knobs are inert under kAsync;
  // keep them at their neutral settings so the signature reads honestly.
  o.edge_classification = false;
  o.ios = false;
  o.pruning = false;
  o.hybrid_tau = -1.0;
  return o;
}

namespace {

// Shared base for the stepping family: the bucket-synchronous
// work-shaping knobs are inert under the stepping engines; keep them
// neutral so the signature reads honestly (same policy as async_opt).
SsspOptions stepping_base(SsspAlgo algo, std::uint32_t delta) {
  SsspOptions o;
  o.algo = algo;
  o.delta = delta;
  o.edge_classification = false;
  o.ios = false;
  o.pruning = false;
  o.hybrid_tau = -1.0;
  return o;
}

}  // namespace

SsspOptions SsspOptions::rho_stepping(std::uint32_t rho,
                                      std::uint32_t delta) {
  SsspOptions o = stepping_base(SsspAlgo::kRho, delta);
  o.rho = rho;
  return o;
}

SsspOptions SsspOptions::delta_star(std::uint32_t delta) {
  return stepping_base(SsspAlgo::kDeltaStar, delta);
}

SsspOptions SsspOptions::radius_stepping(std::uint32_t k,
                                        std::uint32_t delta) {
  SsspOptions o = stepping_base(SsspAlgo::kRadius, delta);
  o.radius_k = k;
  return o;
}

}  // namespace parsssp
