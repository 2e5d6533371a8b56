#include "serve/result_cache.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

namespace parsssp {

namespace {

/// Canonical value for signature printing. Folds -0.0 onto +0.0 (they
/// compare equal and configure identical runs, but print as distinct
/// hexfloats, which used to split the cache key space). Non-finite values
/// configure nothing meaningful and would make every lookup of that option
/// set a miss, so they are rejected at cache admission.
double canonical(double v, const char* field) {
  if (!std::isfinite(v)) {
    throw std::invalid_argument(std::string("options_signature: ") + field +
                                " must be finite");
  }
  return v == 0.0 ? 0.0 : v;
}

}  // namespace

std::string options_signature(const SsspOptions& options) {
  std::ostringstream out;
  // Hexfloat keeps double-valued fields exact: two option sets differing in
  // the 17th digit of load_lambda are different configurations.
  out << std::hexfloat;
  out << "delta=" << options.delta
      << ";algo=" << static_cast<int>(options.algo)
      << ";cls=" << options.edge_classification
      << ";ios=" << options.ios
      << ";prune=" << options.pruning
      << ";mode=" << static_cast<int>(options.prune_mode)
      << ";forced=";
  for (const bool pull : options.forced_pull) out << (pull ? '1' : '0');
  out << ";est=" << static_cast<int>(options.estimator)
      << ";lambda=" << canonical(options.load_lambda, "load_lambda")
      << ";tau=" << canonical(options.hybrid_tau, "hybrid_tau")
      << ";heavy=" << options.heavy_degree_threshold
      << ";rho=" << options.rho
      << ";rk=" << options.radius_k
      << ";parents=" << options.track_parents
      << ";canon=" << options.canonical_parents
      << ";phasedet=" << options.collect_phase_details
      << ";bucketdet=" << options.collect_bucket_details
      << ";cm=" << canonical(options.cost_model.t_step_ns, "t_step_ns") << ','
      << canonical(options.cost_model.t_relax_ns, "t_relax_ns") << ','
      << canonical(options.cost_model.t_byte_ns, "t_byte_ns") << ','
      << canonical(options.cost_model.t_scan_ns, "t_scan_ns");
  return std::move(out).str();
}

std::shared_ptr<const QueryAnswer> ResultCache::lookup(
    vid_t root, const std::string& signature, std::uint64_t version) {
  MutexLock lock(mutex_);
  const auto it = index_.find(Key{root, signature});
  if (it == index_.end()) {
    ++counters_.misses;
    return nullptr;
  }
  if (it->second->version != version) {
    // A stale answer must never be served; drop it eagerly so the slot is
    // free for the recomputation this miss will trigger.
    lru_.erase(it->second);
    index_.erase(it);
    ++counters_.version_misses;
    ++counters_.misses;
    return nullptr;
  }
  ++counters_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->answer;
}

void ResultCache::insert(vid_t root, const std::string& signature,
                         std::shared_ptr<const QueryAnswer> answer,
                         std::uint64_t version) {
  if (capacity_ == 0) return;
  MutexLock lock(mutex_);
  Key key{root, signature};
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->answer = std::move(answer);
    it->second->version = version;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(answer), version});
  index_.emplace(std::move(key), lru_.begin());
  ++counters_.insertions;
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++counters_.evictions;
  }
}

std::size_t ResultCache::invalidate_all() {
  MutexLock lock(mutex_);
  const std::size_t dropped = lru_.size();
  index_.clear();
  lru_.clear();
  counters_.invalidations += dropped;
  return dropped;
}

std::size_t ResultCache::clear() {
  MutexLock lock(mutex_);
  const std::size_t dropped = lru_.size();
  index_.clear();
  lru_.clear();
  counters_.clears += dropped;
  return dropped;
}

std::size_t ResultCache::size() const {
  MutexLock lock(mutex_);
  return lru_.size();
}

ResultCache::Counters ResultCache::counters() const {
  MutexLock lock(mutex_);
  return counters_;
}

}  // namespace parsssp
