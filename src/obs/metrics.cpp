#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace parsssp {

Histogram::Histogram(Config config)
    : config_(config),
      inv_log_growth_(1.0 / std::log2(config.growth)),
      buckets_(config.buckets) {}

std::size_t Histogram::bucket_index(double v) const {
  if (!(v > config_.base)) return 0;  // also catches NaN and non-positives
  const double i = std::log2(v / config_.base) * inv_log_growth_;
  const auto idx = static_cast<std::size_t>(i);
  return std::min(idx, buckets_.size() - 1);
}

void Histogram::record(double v) {
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  double lo = min_.load(std::memory_order_relaxed);
  while (v < lo &&
         !min_.compare_exchange_weak(lo, v, std::memory_order_relaxed)) {
  }
  double hi = max_.load(std::memory_order_relaxed);
  while (v > hi &&
         !max_.compare_exchange_weak(hi, v, std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.config = config_;
  snap.buckets.resize(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.min = snap.count > 0 ? min_.load(std::memory_order_relaxed) : 0.0;
  snap.max = max_.load(std::memory_order_relaxed);
  return snap;
}

double Histogram::Snapshot::percentile(double p) const {
  if (count == 0) return 0.0;
  // Nearest rank over the bucket counts — the same ceil(p*n) convention as
  // percentile_stats(), applied to bucket cumulative counts.
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(p * static_cast<double>(count))));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cum += buckets[i];
    if (cum >= rank) {
      const double lo = config.base * std::pow(config.growth,
                                               static_cast<double>(i));
      // Geometric bucket midpoint, clamped: no percentile may fall outside
      // the range of values actually recorded. (A snapshot racing the first
      // record() may see min = +inf; max wins the clamp then.)
      return std::min(std::max(lo * std::sqrt(config.growth), min), max);
    }
  }
  return std::min(std::max(config.base, min), max);  // counts disagree
}

Counter& MetricsRegistry::counter(std::string_view name) {
  MutexLock lock(mutex_);
  for (auto& c : counters_) {
    if (c.name == name) return c.instrument;
  }
  for (const auto& g : gauges_) {
    if (g.name == name) {
      throw std::logic_error("MetricsRegistry: " + std::string(name) +
                             " already registered as a gauge");
    }
  }
  for (const auto& h : histograms_) {
    if (h.name == name) {
      throw std::logic_error("MetricsRegistry: " + std::string(name) +
                             " already registered as a histogram");
    }
  }
  counters_.emplace_back(std::string(name));
  return counters_.back().instrument;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  MutexLock lock(mutex_);
  for (auto& g : gauges_) {
    if (g.name == name) return g.instrument;
  }
  for (const auto& c : counters_) {
    if (c.name == name) {
      throw std::logic_error("MetricsRegistry: " + std::string(name) +
                             " already registered as a counter");
    }
  }
  for (const auto& h : histograms_) {
    if (h.name == name) {
      throw std::logic_error("MetricsRegistry: " + std::string(name) +
                             " already registered as a histogram");
    }
  }
  gauges_.emplace_back(std::string(name));
  return gauges_.back().instrument;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      Histogram::Config config) {
  MutexLock lock(mutex_);
  for (auto& h : histograms_) {
    if (h.name == name) return h.instrument;
  }
  for (const auto& c : counters_) {
    if (c.name == name) {
      throw std::logic_error("MetricsRegistry: " + std::string(name) +
                             " already registered as a counter");
    }
  }
  for (const auto& g : gauges_) {
    if (g.name == name) {
      throw std::logic_error("MetricsRegistry: " + std::string(name) +
                             " already registered as a gauge");
    }
  }
  histograms_.emplace_back(std::string(name), config);
  return histograms_.back().instrument;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  MutexLock lock(mutex_);
  for (const auto& c : counters_) {
    out.counters.push_back({c.name, c.instrument.value()});
  }
  for (const auto& g : gauges_) {
    out.gauges.push_back({g.name, g.instrument.value()});
  }
  for (const auto& h : histograms_) {
    const Histogram::Snapshot snap = h.instrument.snapshot();
    out.histograms.push_back({h.name, snap.count, snap.mean(),
                              snap.percentile(0.50), snap.percentile(0.95),
                              snap.percentile(0.99), snap.max});
  }
  return out;
}

}  // namespace parsssp
