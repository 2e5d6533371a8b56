// Named counters, gauges and histograms for the serving layer
// (docs/OBSERVABILITY.md).
//
// All instruments are lock-free atomics once created: recording from the
// dispatcher and from client threads never takes a lock, and snapshot()
// can run concurrently with queries in flight (the TSan lane covers this
// in tests/test_runtime_races.cpp). Creation (MetricsRegistry::counter /
// gauge / histogram) takes a mutex and returns a stable reference —
// instruments live in deques and are never moved or destroyed before the
// registry.
//
// Histograms use fixed geometric (log-scale) buckets: recording is one
// log2 + two relaxed fetch_adds, snapshots never sort stored samples
// (there are none), and percentile estimates carry the bucket's relative
// resolution (`growth`, ~19% by default). The serving reports pair them
// with exact nearest-rank percentiles from percentile_stats() so the
// approximation is continuously cross-checked.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/sync.hpp"
#include "core/thread_annotations.hpp"

namespace parsssp {

class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed log-scale histogram over (0, inf). Bucket i covers
/// [base * growth^i, base * growth^(i+1)); values below base clamp into
/// bucket 0, values beyond the top into the last bucket.
class Histogram {
 public:
  struct Config {
    double base = 1e-6;   ///< lower edge of bucket 0 (1 microsecond)
    double growth = std::pow(2.0, 0.25);  ///< ~19% relative resolution
    std::size_t buckets = 128;            ///< covers 1us .. ~4900s
  };

  // A `Config{}` default argument is not usable here (nested-class default
  // member initializers are unavailable until Histogram is complete), so
  // the default configuration comes via a delegating constructor instead.
  Histogram() : Histogram(Config{}) {}
  explicit Histogram(Config config);

  void record(double v);

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0;
    double min = 0;  ///< smallest recorded value (0 when count is 0)
    double max = 0;
    Config config;
    std::vector<std::uint64_t> buckets;

    double mean() const {
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
    /// Nearest-rank percentile over the bucket counts; returns the
    /// geometric midpoint of the selected bucket (exact to within one
    /// `growth` factor), clamped to [min, max]. p in (0, 1]; 0 count
    /// yields 0.
    double percentile(double p) const;
  };
  Snapshot snapshot() const;

 private:
  std::size_t bucket_index(double v) const;

  Config config_;
  double inv_log_growth_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{0.0};
};

/// Flattened registry state, for JSON export (bench_util/stats_io).
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0;
  };
  struct HistogramValue {
    std::string name;
    std::uint64_t count = 0;
    double mean = 0;
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
    double max = 0;
  };
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
};

class MetricsRegistry {
 public:
  /// Returns the named instrument, creating it on first use. References
  /// stay valid for the registry's lifetime. Requesting the same name as
  /// two different kinds throws std::logic_error.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name,
                       Histogram::Config config = Histogram::Config{});

  MetricsSnapshot snapshot() const;

 private:
  /// Instruments hold atomics (immovable), so they are constructed in
  /// place inside their deque node and never relocated.
  template <typename T>
  struct Named {
    template <typename... Args>
    explicit Named(std::string n, Args&&... args)
        : name(std::move(n)), instrument(std::forward<Args>(args)...) {}
    std::string name;
    T instrument;
  };

  mutable Mutex mutex_;
  std::deque<Named<Counter>> counters_ MPS_GUARDED_BY(mutex_);
  std::deque<Named<Gauge>> gauges_ MPS_GUARDED_BY(mutex_);
  std::deque<Named<Histogram>> histograms_ MPS_GUARDED_BY(mutex_);
};

}  // namespace parsssp
