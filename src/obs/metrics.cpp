#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dpisvc::obs {

Histogram::Histogram(std::vector<std::uint64_t> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty()) {
    throw std::invalid_argument("histogram needs at least one bucket bound");
  }
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      throw std::invalid_argument("histogram bounds must be strictly increasing");
    }
  }
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i < bounds_.size() + 1; ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

std::vector<std::uint64_t> Histogram::exponential_bounds(std::uint64_t first,
                                                         double factor,
                                                         std::size_t count) {
  if (first == 0 || factor <= 1.0 || count == 0) {
    throw std::invalid_argument("exponential_bounds: need first>0, factor>1, count>0");
  }
  std::vector<std::uint64_t> bounds;
  bounds.reserve(count);
  double b = static_cast<double>(first);
  for (std::size_t i = 0; i < count; ++i) {
    auto v = static_cast<std::uint64_t>(std::llround(b));
    // Guard against rounding collapsing two adjacent bounds at small values.
    if (!bounds.empty() && v <= bounds.back()) v = bounds.back() + 1;
    bounds.push_back(v);
    b *= factor;
  }
  return bounds;
}

std::vector<std::uint64_t> Histogram::linear_bounds(std::uint64_t step,
                                                    std::size_t count) {
  if (step == 0 || count == 0) {
    throw std::invalid_argument("linear_bounds: need step>0, count>0");
  }
  std::vector<std::uint64_t> bounds;
  bounds.reserve(count);
  for (std::size_t i = 1; i <= count; ++i) {
    bounds.push_back(step * i);
  }
  return bounds;
}

std::vector<std::uint64_t> Histogram::latency_bounds_ns() {
  // 1us, 2us, 4us ... 2^26 us (~67s): 27 finite buckets + overflow.
  return exponential_bounds(1000, 2.0, 27);
}

void Histogram::record(std::uint64_t value) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

double Histogram::mean() const noexcept {
  const auto n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

double Histogram::percentile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  const auto total = count();
  if (total == 0) return 0.0;
  // Rank of the q-quantile among `total` samples (1-based, ceil).
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < num_buckets(); ++i) {
    const auto c = bucket_count(i);
    if (c == 0) continue;
    if (seen + c >= rank) {
      if (i == bounds_.size()) return static_cast<double>(bounds_.back());
      const double lower = i == 0 ? 0.0 : static_cast<double>(bounds_[i - 1]);
      const double upper = static_cast<double>(bounds_[i]);
      const double frac =
          static_cast<double>(rank - seen) / static_cast<double>(c);
      return lower + (upper - lower) * frac;
    }
    seen += c;
  }
  return static_cast<double>(bounds_.back());
}

json::Value Histogram::to_json() const {
  json::Object obj;
  obj["count"] = json::Value(count());
  obj["sum"] = json::Value(sum());
  obj["p50"] = json::Value(percentile(0.50));
  obj["p90"] = json::Value(percentile(0.90));
  obj["p99"] = json::Value(percentile(0.99));
  json::Array bounds_arr;
  for (auto b : bounds_) bounds_arr.emplace_back(b);
  obj["bounds"] = json::Value(std::move(bounds_arr));
  json::Array counts_arr;
  for (std::size_t i = 0; i < num_buckets(); ++i) {
    counts_arr.emplace_back(bucket_count(i));
  }
  obj["counts"] = json::Value(std::move(counts_arr));
  return json::Value(std::move(obj));
}

void Histogram::merge_from(const Histogram& other) {
  if (bounds_ != other.bounds_) {
    throw std::invalid_argument("Histogram::merge_from: bounds differ");
  }
  for (std::size_t i = 0; i < num_buckets(); ++i) {
    counts_[i].fetch_add(other.bucket_count(i), std::memory_order_relaxed);
  }
  count_.fetch_add(other.count(), std::memory_order_relaxed);
  sum_.fetch_add(other.sum(), std::memory_order_relaxed);
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i < num_buckets(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

namespace {

template <typename Entries>
auto* find_entry(Entries& entries, const std::string& name) {
  for (auto& [key, ptr] : entries) {
    if (key == name) return ptr.get();
  }
  return static_cast<typename Entries::value_type::second_type::pointer>(nullptr);
}

/// Name-sorted (name, raw pointer) view so snapshots are byte-stable
/// regardless of registration order.
template <typename Entries>
auto sorted_view(const Entries& entries) {
  using Instrument =
      typename Entries::value_type::second_type::element_type;
  std::vector<std::pair<std::string, const Instrument*>> view;
  view.reserve(entries.size());
  for (const auto& [key, ptr] : entries) view.emplace_back(key, ptr.get());
  std::sort(view.begin(), view.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return view;
}

}  // namespace

Counter& MetricsRegistry::counter(const std::string& name) {
  const MutexLock lock(mu_);
  if (auto* existing = find_entry(counters_, name)) return *existing;
  counters_.emplace_back(name, std::make_unique<Counter>());
  return *counters_.back().second;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const MutexLock lock(mu_);
  if (auto* existing = find_entry(gauges_, name)) return *existing;
  gauges_.emplace_back(name, std::make_unique<Gauge>());
  return *gauges_.back().second;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<std::uint64_t> upper_bounds) {
  const MutexLock lock(mu_);
  if (auto* existing = find_entry(histograms_, name)) return *existing;
  histograms_.emplace_back(name,
                           std::make_unique<Histogram>(std::move(upper_bounds)));
  return *histograms_.back().second;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  const MutexLock lock(mu_);
  for (const auto& [key, ptr] : histograms_) {
    if (key == name) return ptr.get();
  }
  return nullptr;
}

json::Value MetricsRegistry::snapshot() const {
  const MutexLock lock(mu_);
  json::Object root;
  {
    json::Object counters;
    for (const auto& [name, c] : sorted_view(counters_)) {
      counters[name] = json::Value(c->value());
    }
    root["counters"] = json::Value(std::move(counters));
  }
  {
    json::Object gauges;
    for (const auto& [name, g] : sorted_view(gauges_)) {
      gauges[name] = json::Value(g->value());
    }
    root["gauges"] = json::Value(std::move(gauges));
  }
  {
    json::Object histograms;
    for (const auto& [name, h] : sorted_view(histograms_)) {
      histograms[name] = h->to_json();
    }
    root["histograms"] = json::Value(std::move(histograms));
  }
  return json::Value(std::move(root));
}

void MetricsRegistry::reset() {
  const MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace dpisvc::obs
