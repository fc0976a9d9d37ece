// Observability instruments for the DPI service (§4.3.1 stress telemetry).
//
// The control plane steers load balancing, MCA² mitigation, and failover off
// signals exported by DPI service instances. Raw counters alone hide the
// distribution tail — a stressed instance shows up in its p99 scan latency
// long before its mean moves — so this module provides the three instrument
// kinds the service layers record into:
//
//   * Counter   — monotonically increasing event count (packets, bytes,
//                 anchor hits, regex evaluations);
//   * Gauge     — last-written level (flow-table occupancy, queue depth);
//   * Histogram — fixed-bucket latency/size distribution with p50/p90/p99
//                 extraction, recorded on the scan hot path.
//
// Hot-path cost model: every instrument write is a handful of relaxed
// atomic adds — no locks, no allocation. The MetricsRegistry mutex guards
// registration and snapshotting only; callers resolve their instruments once
// (at construction) and keep the returned references, which stay valid for
// the registry's lifetime. Snapshots taken while writers run are internally
// consistent per instrument but not across instruments (standard relaxed-
// counter semantics; the telemetry consumers tolerate a packet counted in
// one window and its bytes in the next).
//
// The instruments are always on: the service's telemetry is a view of its
// counters, so there is no switch to compile them out. bench/bench_obs.cpp
// measures what their writes cost (BENCH_obs.json).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_safety.hpp"
#include "json/json.hpp"
#include "mc/sync.hpp"

namespace dpisvc::obs {

/// Counter and Gauge are templated over the dpisvc_mc synchronization
/// facade (mc/sync.hpp) so the model checker can exhaustively explore the
/// snapshot-and-reset protocol — concurrent add() vs take() must never lose
/// or double-count an event — on the shipped code. Production uses the
/// RealSync default (plain std::atomic, identical codegen to the
/// pre-facade types).
template <typename Sync = mc::RealSync>
class BasicCounter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  /// Snapshot-and-reset in one atomic exchange: the telemetry window reader
  /// takes the accumulated count and zeroes the counter without a gap a
  /// concurrent add() could fall into. A load-then-store reset here would
  /// silently drop any add() that lands between the two — the exact lost-
  /// update the dpisvc_mc obs scenario proves cannot happen with take().
  std::uint64_t take() noexcept {
    return value_.exchange(0, std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  typename Sync::template Atomic<std::uint64_t> value_{0};
};

using Counter = BasicCounter<>;

template <typename Sync = mc::RealSync>
class BasicGauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  typename Sync::template Atomic<std::int64_t> value_{0};
};

using Gauge = BasicGauge<>;

/// Fixed-bucket histogram. Bucket i counts recorded values v with
/// bounds[i-1] < v <= bounds[i] (bucket 0: v <= bounds[0]); one implicit
/// overflow bucket counts v > bounds.back(). Bounds are fixed at
/// construction so record() is a binary search plus three relaxed adds.
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly increasing; throws
  /// std::invalid_argument otherwise.
  explicit Histogram(std::vector<std::uint64_t> upper_bounds);

  /// Geometric bucket ladder: first, first*factor, ... (`count` bounds).
  static std::vector<std::uint64_t> exponential_bounds(std::uint64_t first,
                                                       double factor,
                                                       std::size_t count);
  /// Evenly spaced ladder: step, 2*step, ... (`count` bounds) — full
  /// resolution for small bounded quantities like ring fill levels and
  /// ingest batch sizes, where a geometric ladder would merge most of the
  /// interesting range into one bucket.
  static std::vector<std::uint64_t> linear_bounds(std::uint64_t step,
                                                  std::size_t count);
  /// The default ladder for nanosecond latencies: 1us .. ~67s, x2 steps.
  static std::vector<std::uint64_t> latency_bounds_ns();

  void record(std::uint64_t value) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  double mean() const noexcept;

  /// Quantile estimate from the bucket counts, q in [0, 1]. Linear
  /// interpolation within the bucket that holds the rank; values in the
  /// overflow bucket report the last finite bound (a floor, not a guess).
  /// Returns 0 when the histogram is empty.
  double percentile(double q) const;

  const std::vector<std::uint64_t>& bounds() const noexcept { return bounds_; }
  std::size_t num_buckets() const noexcept { return bounds_.size() + 1; }
  std::uint64_t bucket_count(std::size_t i) const noexcept {
    return counts_[i].load(std::memory_order_relaxed);
  }

  /// Adds another histogram's bucket counts into this one (used to merge
  /// per-shard histograms into an instance-wide distribution). Throws
  /// std::invalid_argument when the bucket bounds differ.
  void merge_from(const Histogram& other);

  /// {"count":N,"sum":S,"p50":..,"p90":..,"p99":..,
  ///  "bounds":[...],"counts":[...]} — the wire shape TELEMETRY_REPORT
  /// embeds.
  json::Value to_json() const;

  void reset() noexcept;

 private:
  std::vector<std::uint64_t> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Named instrument directory. Registration and snapshot take the registry
/// mutex; the returned references are stable for the registry's lifetime,
/// so hot paths resolve once and record lock-free thereafter.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates. A histogram name re-requested with different bounds
  /// returns the existing instrument (first registration wins).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       std::vector<std::uint64_t> upper_bounds);

  /// Lookup without creation; nullptr when the name was never registered.
  const Histogram* find_histogram(const std::string& name) const;

  /// {"counters":{name:value},"gauges":{...},"histograms":{name:{...}}}.
  /// Names are emitted sorted so snapshots are byte-stable.
  json::Value snapshot() const;

  /// Resets every instrument to zero (counts only; bounds are kept).
  void reset();

 private:
  template <typename T>
  using Entries = std::vector<std::pair<std::string, std::unique_ptr<T>>>;

  mutable Mutex mu_;
  Entries<Counter> counters_ DPISVC_GUARDED_BY(mu_);
  Entries<Gauge> gauges_ DPISVC_GUARDED_BY(mu_);
  Entries<Histogram> histograms_ DPISVC_GUARDED_BY(mu_);
};

}  // namespace dpisvc::obs
