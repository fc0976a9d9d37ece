// Sharded scan-pool throughput: packets/sec and batch-latency percentiles
// vs. worker count, for a stateless and a stateful policy chain.
//
// The sharded data plane (service/instance.hpp) promises that adding
// workers scales scan throughput without changing results; this harness
// measures that curve. Each run submits the same interleaved multi-flow
// trace through DpiInstance::scan_batch() at worker counts 1/2/4/8 and
// reports packets/sec plus p50/p99 per-batch submit latency.
//
// NOTE on scaling expectations: real speedup requires real cores. The
// emitted JSON includes `hardware_threads` so consumers can tell whether a
// flat curve means "sharding is broken" or "the machine has one CPU".
//
// Repeats are interleaved: each round replays the trace once through every
// configuration, so host drift lands on all of them alike. The JSON reports
// each figure as the median over rounds plus its min..max spread; speedups
// are medians of the per-round ratios.
//
// Usage: bench_scan_mt [num_packets] [repeats]
//   num_packets  trace size (default 20000; CI smoke passes e.g. 2000)
//   repeats      interleaved rounds (default 3)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "json/json.hpp"
#include "obs/metrics.hpp"
#include "service/instance.hpp"

namespace dpisvc::bench {
namespace {

/// Two-middlebox engine with both a stateless chain (1) and a stateful
/// chain (2), over snort-like pattern sets — the virtual-DPI configuration
/// the sharded instance serves in production.
std::shared_ptr<const dpi::Engine> mt_engine(std::size_t num_patterns,
                                             dpi::ScanKernel kernel) {
  dpi::EngineSpec spec;
  dpi::MiddleboxProfile ids;
  ids.id = 1;
  ids.name = "ids";
  dpi::MiddleboxProfile fw;
  fw.id = 2;
  fw.name = "session-fw";
  fw.stateful = true;
  spec.middleboxes = {ids, fw};
  dpi::PatternId rule = 0;
  for (const auto& pattern :
       workload::generate_patterns(workload::snort_like(num_patterns, 17))) {
    spec.exact_patterns.push_back(dpi::ExactPatternSpec{
        pattern, static_cast<dpi::MiddleboxId>(1 + rule % 2), rule});
    ++rule;
  }
  spec.chains[1] = {1};     // stateless: no flow-table traffic
  spec.chains[2] = {1, 2};  // stateful: per-flow cursors on every packet
  dpi::EngineConfig config;
  config.kernel = kernel;
  return dpi::Engine::compile(spec, config);
}

std::vector<service::ScanItem> items_for(const workload::Trace& trace,
                                         dpi::ChainId chain) {
  std::vector<service::ScanItem> items;
  items.reserve(trace.size());
  for (const auto& p : trace) {
    items.push_back(service::ScanItem{chain, p.tuple, BytesView(p.payload)});
  }
  return items;
}

struct RunResult {
  double pps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Replays `items` once through a fresh instance in batches of kBatch,
/// timing each scan_batch() submit-to-complete round trip. Batch latencies
/// go through an obs::Histogram — the same percentile machinery the
/// telemetry channel exports — instead of a private sort-and-index.
RunResult run_config(const std::shared_ptr<const dpi::Engine>& engine,
                     const std::vector<service::ScanItem>& items,
                     std::size_t workers) {
  service::InstanceConfig config;
  config.num_workers = workers;
  config.max_flows = 4096;
  service::DpiInstance inst("bench", config);
  inst.load_engine(engine, 1);

  constexpr std::size_t kBatch = 256;
  obs::Histogram batch_ns(obs::Histogram::latency_bounds_ns());
  std::uint64_t packets = 0;
  Stopwatch total;
  for (std::size_t base = 0; base < items.size(); base += kBatch) {
    const std::size_t end = std::min(base + kBatch, items.size());
    const std::vector<service::ScanItem> batch(items.begin() + base,
                                               items.begin() + end);
    Stopwatch w;
    const auto results = inst.scan_batch(batch);
    batch_ns.record(w.elapsed_ns());
    packets += results.size();
  }
  const double seconds = total.elapsed_seconds();
  RunResult r;
  r.pps = static_cast<double>(packets) / seconds;
  r.p50_us = batch_ns.percentile(0.50) / 1e3;
  r.p99_us = batch_ns.percentile(0.99) / 1e3;
  return r;
}

/// One figure over the interleaved rounds.
struct Spread {
  std::vector<double> samples;

  double median() const {
    std::vector<double> v = samples;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n == 0) return 0.0;
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  }
  double min() const {
    return samples.empty() ? 0.0
                           : *std::min_element(samples.begin(), samples.end());
  }
  double max() const {
    return samples.empty() ? 0.0
                           : *std::max_element(samples.begin(), samples.end());
  }
};

}  // namespace
}  // namespace dpisvc::bench

int main(int argc, char** argv) {
  using namespace dpisvc;
  using namespace dpisvc::bench;

  const std::size_t num_packets =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 20000;
  const int repeats = argc > 2 ? std::atoi(argv[2]) : 3;
  const unsigned hw_threads = std::thread::hardware_concurrency();

  print_header("sharded scan pool: throughput vs. worker count");
  std::printf("trace: %zu packets x%d repeats, hardware threads: %u\n",
              num_packets, repeats, hw_threads);

  const auto kernel_engine = mt_engine(300, dpi::ScanKernel::kBatched);
  const auto scalar_engine = mt_engine(300, dpi::ScanKernel::kScalar);
  const ac::KernelPolicy& policy = ac::kernel_policy();
  std::printf("kernel dispatch: %s%s\n", policy.reason,
              kernel_engine->kernel_active() ? "" : " (kernel inactive)");

  workload::TrafficConfig traffic;
  traffic.num_packets = num_packets;
  traffic.num_flows = 64;
  traffic.planted_match_rate = 0.05;
  traffic.planted_patterns =
      workload::generate_patterns(workload::snort_like(8, 17));
  const auto trace = workload::generate_http_trace(traffic);

  const std::vector<std::size_t> worker_counts = {1, 2, 4, 8};
  const std::size_t effective_workers =
      std::min<std::size_t>(4, std::max(1u, hw_threads));
  const bool scaling_limited = hw_threads < 4;
  const char* const kinds[] = {"stateless", "stateful"};

  // Per (kind, configuration) samples; configuration "scalar1"/"kernel1"
  // are the 1-worker kernel-vs-scalar pair, "<n>w" the kernel at n workers.
  std::map<std::string, Spread> pps, p50, p99, ratio;
  for (int round = 0; round < repeats; ++round) {
    for (const char* kind : kinds) {
      const dpi::ChainId chain = std::string(kind) == "stateless" ? 1 : 2;
      const auto items = items_for(trace, chain);
      const auto record = [&](const std::string& key, const RunResult& r) {
        pps[key].samples.push_back(r.pps);
        p50[key].samples.push_back(r.p50_us);
        p99[key].samples.push_back(r.p99_us);
        return r.pps;
      };
      const std::string k(kind);
      // Single-worker kernel-vs-scalar: same trace, same instance shape,
      // only the scan walk differs — the direct measure of the kernel.
      const double scalar1 =
          record(k + "/scalar1", run_config(scalar_engine, items, 1));
      const double kernel1 =
          record(k + "/kernel1", run_config(kernel_engine, items, 1));
      if (scalar1 > 0.0) ratio[k + "/kernel"].samples.push_back(kernel1 /
                                                                scalar1);
      std::map<std::size_t, double> round_pps;
      for (const std::size_t workers : worker_counts) {
        round_pps[workers] =
            record(k + "/" + std::to_string(workers) + "w",
                   run_config(kernel_engine, items, workers));
      }
      if (round_pps[1] > 0.0) {
        ratio[k + "/workers"].samples.push_back(round_pps[effective_workers] /
                                                round_pps[1]);
      }
    }
  }

  json::Array series;
  json::Object kernel_vs_scalar;
  for (const char* kind : kinds) {
    const std::string k(kind);
    const Spread& speedup = ratio[k + "/kernel"];
    std::printf("\n%-10s 1-worker scalar %12.0f pps, kernel %12.0f pps "
                "(%.2fx, rounds %.2f..%.2f)\n",
                kind, pps[k + "/scalar1"].median(),
                pps[k + "/kernel1"].median(), speedup.median(), speedup.min(),
                speedup.max());
    kernel_vs_scalar["pps_scalar_1w_" + k] = pps[k + "/scalar1"].median();
    kernel_vs_scalar["pps_kernel_1w_" + k] = pps[k + "/kernel1"].median();
    kernel_vs_scalar["kernel_speedup_1w_" + k] = speedup.median();
    kernel_vs_scalar["kernel_speedup_1w_" + k + "_min"] = speedup.min();
    kernel_vs_scalar["kernel_speedup_1w_" + k + "_max"] = speedup.max();

    std::printf("%-10s %8s %12s %12s %12s %12s %12s\n", kind, "workers",
                "pps", "pps_min", "pps_max", "p50_us", "p99_us");
    for (const std::size_t workers : worker_counts) {
      const std::string key = k + "/" + std::to_string(workers) + "w";
      std::printf("%-10s %8zu %12.0f %12.0f %12.0f %12.1f %12.1f\n", "",
                  workers, pps[key].median(), pps[key].min(), pps[key].max(),
                  p50[key].median(), p99[key].median());
      series.push_back(json::Value(json::obj({
          {"chain", kind},
          {"workers", static_cast<double>(workers)},
          {"pps", pps[key].median()},
          {"pps_min", pps[key].min()},
          {"pps_max", pps[key].max()},
          {"p50_us", p50[key].median()},
          {"p99_us", p99[key].median()},
      })));
    }
  }

  // Worker-scaling speedup, measured at a worker count the machine can
  // actually run in parallel: min(4, hardware threads). Dividing the
  // 4-worker pps by the 1-worker pps on a 1-CPU container only measures
  // scheduler overhead — the number was meaningless there, so the divisor
  // is clamped and the clamp is reported.
  const Spread& scaling = ratio["stateless/workers"];
  const double speedup_4w = scaling.median();
  std::printf("\nstateless %zu-worker speedup over 1 worker: %.2fx "
              "(rounds %.2f..%.2f)\n",
              effective_workers, speedup_4w, scaling.min(), scaling.max());
  if (scaling_limited) {
    std::printf(
        "note: only %u hardware thread(s) available — worker scaling cannot\n"
        "exceed ~1x on this machine regardless of sharding correctness.\n",
        hw_threads);
  }

  json::Object out = json::obj({
      {"bench", "scan_mt"},
      {"num_packets", static_cast<double>(num_packets)},
      {"repeats", static_cast<double>(repeats)},
      {"num_flows", static_cast<double>(traffic.num_flows)},
      {"hardware_threads", static_cast<double>(hw_threads)},
      {"kernel_dispatch", std::string(policy.reason)},
      {"kernel_active", kernel_engine->kernel_active()},
      {"effective_workers", static_cast<double>(effective_workers)},
      {"scaling_limited_by_cpus", scaling_limited},
      {"speedup_stateless_4w", speedup_4w},
      {"speedup_stateless_4w_min", scaling.min()},
      {"speedup_stateless_4w_max", scaling.max()},
      {"repeat_order", "interleaved"},
  });
  for (const auto& [key, value] : kernel_vs_scalar) {
    out[key] = value;
  }
  out["series"] = json::Value(std::move(series));
  std::ofstream("BENCH_scan_mt.json") << json::dump(json::Value(out)) << "\n";
  std::printf("wrote BENCH_scan_mt.json\n");
  return 0;
}
