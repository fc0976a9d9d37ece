// MCA²-style stress monitoring (§4.3.1).
//
// Each DPI service instance performs ongoing monitoring and exports
// telemetry that may indicate complexity-attack attempts; the DPI controller
// takes over the role of MCA²'s central stress monitor. The heavy-traffic
// signal is the accepting-state hit density (hits per scanned byte):
// adversarial payloads stitched from pattern fragments keep the automaton in
// deep/accepting states far more often than benign traffic, which the paper
// reports as > 90% matchless packets.
//
// When an instance's smoothed signal crosses the threshold, the monitor
// flags it as stressed; the controller then designates dedicated instances
// (running the compressed-automaton engine) and migrates heavy flows to
// them (Figure 6).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "service/instance.hpp"

namespace dpisvc::service {

struct StressConfig {
  /// Accepting-state hits per byte above which traffic counts as heavy.
  /// Benign text traffic against realistic sets measures well below 0.01;
  /// stitched attack traffic measures 0.05 and up.
  double hits_per_byte_threshold = 0.02;
  /// Minimum bytes in a window before it can trigger (ignore cold starts).
  std::uint64_t min_window_bytes = 4096;
  /// Number of most recent windows smoothed (simple moving average).
  std::size_t smoothing_windows = 4;
};

class StressMonitor {
 public:
  explicit StressMonitor(StressConfig config = {});

  /// Feeds one telemetry window for an instance: the counts of that window
  /// alone, not cumulative totals (DpiController::collect_telemetry passes
  /// the delta since the instance's previous sample).
  void report(const std::string& instance, const InstanceTelemetry& window);

  /// True if the instance's smoothed hit density crosses the threshold.
  bool is_stressed(const std::string& instance) const;

  /// All currently stressed instances.
  std::vector<std::string> stressed_instances() const;

  /// Smoothed hits-per-byte for an instance (0 when unknown).
  double smoothed_signal(const std::string& instance) const;

  void forget(const std::string& instance);

  const StressConfig& config() const noexcept { return config_; }

 private:
  struct Window {
    std::uint64_t bytes = 0;
    std::uint64_t hits = 0;
  };

  StressConfig config_;
  std::map<std::string, std::deque<Window>> history_;
};

}  // namespace dpisvc::service
