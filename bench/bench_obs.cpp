// Observability overhead: what the per-run instrument writes cost next to
// the instance scan they account for, plus the scan-latency percentiles the
// instance's scan_ns histograms report.
//
// The instruments are always on (DpiInstance::telemetry() is a view of
// them), so there is no metrics-off run to compare against. Instead the
// harness times two things over the same trace:
//
//   1. DpiInstance::scan() over every packet — the real path, writes
//      included (each scan() call is one run of one packet);
//   2. the same number of runs' instrument writes — the scan_ns and
//      scan_run_packets histograms, the packet/byte/hit/regex counters and
//      the flow-occupancy gauge, fed the scanned values — on a registry of
//      the bench's own.
//
// `overhead_pct` in the JSON output is 100 × (2) / (1). The run's two clock
// reads are not in (2): the shard's busy time needs them with or without
// the histogram. The writes in (2) run back to back with their cache lines
// hot, so the figure is a floor on what they cost inside the scan loop.
//
// Usage: bench_obs [num_packets] [repeats]
//   num_packets  trace size (default 20000; CI smoke passes e.g. 2000)
//   repeats      times the trace is replayed per round (default 3)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "json/json.hpp"
#include "obs/metrics.hpp"
#include "service/instance.hpp"

namespace dpisvc::bench {
namespace {

std::shared_ptr<const dpi::Engine> obs_engine(std::size_t num_patterns) {
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
  spec.chains[1] = {1, 2};
  return dpi::Engine::compile(spec);
}

/// The values one run hands its instruments.
struct RunValues {
  std::uint64_t bytes = 0;
  std::uint64_t raw_hits = 0;
  std::uint64_t anchor_hits = 0;
  std::uint64_t regex_evals = 0;
  std::uint64_t regex_matches = 0;
  bool matched = false;
};

/// Seconds to scan the trace `repeats` times through the instance.
double time_scans(service::DpiInstance& inst, const workload::Trace& trace,
                  int repeats) {
  Stopwatch watch;
  for (int rep = 0; rep < repeats; ++rep) {
    for (const auto& p : trace) (void)inst.scan(1, p.tuple, p.payload);
  }
  return watch.elapsed_seconds();
}

/// Seconds to make `repeats` × trace-size runs' instrument writes, in the
/// order DpiInstance's scan body makes them, on a registry of its own;
/// `run_ns` stands in for each run's measured latency.
double time_writes(const std::vector<RunValues>& runs, std::uint64_t run_ns,
                   int repeats) {
  obs::MetricsRegistry registry;
  obs::Histogram& scan_ns =
      registry.histogram("scan_ns", obs::Histogram::latency_bounds_ns());
  obs::Histogram& run_packets =
      registry.histogram("scan_run_packets", obs::Histogram::linear_bounds(1, 32));
  obs::Counter& packets = registry.counter("packets");
  obs::Counter& bytes = registry.counter("bytes");
  obs::Counter& raw_hits = registry.counter("raw_hits");
  obs::Counter& match_packets = registry.counter("match_packets");
  obs::Counter& anchor_hits = registry.counter("anchor_hits");
  obs::Counter& regex_evals = registry.counter("regex_evals");
  obs::Counter& regex_matches = registry.counter("regex_matches");
  obs::Gauge& occupancy = registry.gauge("flow_occupancy");
  Stopwatch watch;
  for (int rep = 0; rep < repeats; ++rep) {
    for (const RunValues& v : runs) {
      scan_ns.record(run_ns);
      run_packets.record(1);
      packets.add(1);
      bytes.add(v.bytes);
      raw_hits.add(v.raw_hits);
      if (v.matched) match_packets.add(1);
      anchor_hits.add(v.anchor_hits);
      regex_evals.add(v.regex_evals);
      regex_matches.add(v.regex_matches);
      occupancy.set(static_cast<std::int64_t>(v.bytes));
    }
  }
  const double seconds = watch.elapsed_seconds();
  // Read the registry back so the writes are observable.
  if (packets.value() != runs.size() * static_cast<std::size_t>(repeats)) {
    std::fprintf(stderr, "bench_obs: instrument writes lost\n");
    std::exit(1);
  }
  return seconds;
}

}  // namespace
}  // namespace dpisvc::bench

int main(int argc, char** argv) {
  using namespace dpisvc;
  using namespace dpisvc::bench;

  const std::size_t num_packets =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 20000;
  const int repeats = argc > 2 ? std::atoi(argv[2]) : 3;

  print_header("observability overhead: instrument writes vs. scan");
  std::printf("trace: %zu packets x%d repeats\n", num_packets, repeats);

  const auto engine = obs_engine(300);

  workload::TrafficConfig traffic;
  traffic.num_packets = num_packets;
  traffic.num_flows = 64;
  traffic.planted_match_rate = 0.05;
  traffic.planted_patterns =
      workload::generate_patterns(workload::snort_like(8, 17));
  const auto trace = workload::generate_http_trace(traffic);

  service::InstanceConfig config;
  config.max_flows = 4096;
  service::DpiInstance inst("bench", config);
  inst.load_engine(engine, 1);

  // Warm-up pass: touches the flow table, faults in the engine tables and
  // records the values each run hands its instruments.
  std::vector<RunValues> runs;
  runs.reserve(trace.size());
  for (const auto& p : trace) {
    const dpi::ScanResult r = inst.scan(1, p.tuple, p.payload);
    runs.push_back(RunValues{p.payload.size(), r.raw_hits, r.anchor_hits_seen,
                             r.regexes_evaluated, r.regex_matches,
                             r.has_matches()});
  }

  const std::uint64_t run_ns = static_cast<std::uint64_t>(
      inst.metrics().find_histogram("shard0.scan_ns")->mean());

  // Both timings sit near this machine's run-to-run noise, so interleave
  // rounds and keep each one's fastest: noise only ever slows a run down,
  // so best-of-N converges on the true cost from above.
  constexpr int kRounds = 3;
  double scan_s = 0.0;
  double write_s = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    const double s = time_scans(inst, trace, repeats);
    const double w = time_writes(runs, run_ns, repeats);
    scan_s = round == 0 ? s : std::min(scan_s, s);
    write_s = round == 0 ? w : std::min(write_s, w);
  }

  const std::uint64_t scanned =
      static_cast<std::uint64_t>(trace.size()) * repeats;
  std::uint64_t trace_bytes = 0;
  for (const auto& p : trace) trace_bytes += p.payload.size();
  const double pps = static_cast<double>(scanned) / scan_s;
  const double mbps = to_mbps(trace_bytes * repeats, scan_s);
  const double overhead_pct = scan_s > 0.0 ? write_s / scan_s * 100.0 : 0.0;

  // Cross-shard percentiles must merge bucket counts, not average per-shard
  // percentiles (one shard here, but keep the merge for a --workers variant).
  obs::Histogram merged(obs::Histogram::latency_bounds_ns());
  for (std::size_t shard = 0; shard < inst.num_shards(); ++shard) {
    merged.merge_from(*inst.metrics().find_histogram(
        "shard" + std::to_string(shard) + ".scan_ns"));
  }
  const double p50 = merged.percentile(0.50);
  const double p90 = merged.percentile(0.90);
  const double p99 = merged.percentile(0.99);

  std::printf("\n%14s %10s %10s %10s %10s\n", "pps", "mbps", "p50_ns",
              "p90_ns", "p99_ns");
  std::printf("%14.0f %10.0f %10.0f %10.0f %10.0f\n", pps, mbps, p50, p90,
              p99);
  std::printf("\nscan %.4f s, instrument writes %.4f s: overhead %.2f%%\n",
              scan_s, write_s, overhead_pct);

  json::Object out = json::obj({
      {"bench", "obs"},
      {"num_packets", static_cast<double>(num_packets)},
      {"repeats", static_cast<double>(repeats)},
      {"scan_seconds", scan_s},
      {"write_seconds", write_s},
      {"overhead_pct", overhead_pct},
  });
  out["scan"] = json::Value(json::obj({
      {"pps", pps},
      {"mbps", mbps},
      {"p50_ns", p50},
      {"p90_ns", p90},
      {"p99_ns", p99},
  }));
  std::ofstream("BENCH_obs.json") << json::dump(json::Value(out)) << "\n";
  std::printf("wrote BENCH_obs.json\n");
  return 0;
}
