// perfbench: end-to-end benchmark of the DPI service's batched data path.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>] [--fingerprint-only 1]
//
// Prints the workload fingerprint and properties, the metrics by name with
// their units, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 measures the end-to-end metrics untraced; --trace 1 runs the
// traced per-layer breakdown instead (and writes its spans to --spans).
// Exit status 1 means the run could not check its results.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "driver.hpp"
#include "reference.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// compile + load_engine repetitions behind setup_s (the median is taken).
constexpr int kSetupRuns = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool fingerprint_only = false;
  std::string spans;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value != "0";
    } else if (key == "--fingerprint-only") {
      a.fingerprint_only = value != "0";
    } else if (key == "--spans") {
      a.spans = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty() || a.seconds <= 0) {
    throw std::invalid_argument(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--spans <path>] [--fingerprint-only 1]");
  }
  return a;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int run(const Args& args) {
  Workload w = make_workload(args.workload, args.seed);
  const Properties& p = w.props;
  // gzip_bodies carries only the gzip shape the service inflates; the two
  // shapes ROADMAP item 3 reports as missed are replayed apart, untimed.
  std::optional<Workload> miss;
  if (w.name == "gzip_bodies") miss = make_known_miss_probe(args.seed);
  std::printf("workload %s seed %" PRIu64 "\n", w.name.c_str(), w.seed);
  std::printf("fingerprint %016" PRIx64 "\n",
              fingerprint(w) ^ (miss ? fingerprint(*miss) * 31 : 0));
  if (args.fingerprint_only) return 0;
  std::printf(
      "properties: packets/pass %zu, flows/pass %zu (all concurrent), payload "
      "%zu-%zu B (mean %.1f), reordered %.4f, fragmented %.4f, compressed "
      "%.4f, known-miss %.4f\n",
      p.packets, p.flows, p.payload_min, p.payload_max, p.payload_mean,
      p.reordered_share, p.fragmented_share, p.compressed_share,
      p.known_miss_share);

  const std::size_t workers =
      std::max(1u, std::thread::hardware_concurrency());
  service::InstanceConfig config = w.config;
  config.num_workers = workers;
  service::DpiInstance instance("perfbench", config);
  std::shared_ptr<const dpi::Engine> engine;
  std::vector<double> setups;
  for (int r = 0; r < kSetupRuns; ++r) {
    const std::uint64_t t0 = process_cpu_ns();
    engine = dpi::Engine::compile(w.engine_spec());
    instance.load_engine(engine, static_cast<std::uint64_t>(r + 1));
    setups.push_back(static_cast<double>(process_cpu_ns() - t0) * 1e-9);
  }

  const Probe probe = compute_reference(w);
  std::printf("reference: matchless share of sender units %.4f\n",
              p.matchless_share);
  if (!probe.valid) {
    std::fprintf(stderr, "self-test impossible: no flow has a single hit\n");
    return 1;
  }

  // Self-test through the real path: one delivered hit is dropped and the
  // check must fail exactly that flow.
  PassCheck check(w);
  Driver driver(w, check);
  const PassOutcome self_test = driver.warmup(instance, probe);
  if (!self_test.probe_failed) {
    std::fprintf(stderr, "self-test failed: a dropped hit went unnoticed\n");
    return 1;
  }
  std::printf("self-test: dropped hit detected (flow %u)\n", probe.flow);

  double known_miss_share = 0;
  if (miss) {
    compute_reference(*miss);
    std::size_t with_hits = 0;
    for (const FlowInfo& f : miss->flows) with_hits += f.expected.empty() ? 0 : 1;
    service::InstanceConfig miss_config = miss->config;
    miss_config.num_workers = 1;
    service::DpiInstance miss_instance("perfbench-known-miss", miss_config);
    miss_instance.load_engine(engine, 1);
    PassCheck miss_check(*miss);
    const PassOutcome o =
        Driver(*miss, miss_check).warmup(miss_instance, Probe{});
    known_miss_share = static_cast<double>(o.failed_flows) /
                       static_cast<double>(std::max<std::size_t>(1, with_hits));
    std::printf("known-miss probe (ROADMAP item 3, gzip behind HTTP headers or "
                "split over two segments, not in the timed traffic): %" PRIu64
                " of %zu flows with a hit missed, %zu flows\n",
                o.failed_flows, with_hits, miss->flows.size());
  }

  PassOutcome outcome;
  std::vector<Metric> metrics;
  if (!args.trace) {
    // Cost is read from the process's CPU clock: on a shared virtual machine,
    // stretches of steal halve the wall-clock rate of workers that meet at
    // the end of every batch, and a set of runs that catches one spreads
    // past any useful bound (see README.md, "Noise"). The wall-clock rate is
    // printed here and reported by the traced run.
    const LoopResult closed = driver.closed_loop(instance, args.seconds);
    outcome.add(closed.outcome);
    std::printf("closed loop: %" PRIu64 " passes in %.3f s, %.0f pkt/s of wall "
                "time (median over passes)\n",
                closed.passes, closed.seconds, median(closed.pass_pps));
    metrics.push_back(Metric{"cpu_us_per_pkt",
                             median(closed.pass_cpu_us_per_pkt), "us"});
    metrics.push_back(Metric{"verified_share",
                             static_cast<double>(outcome.verified) /
                                 static_cast<double>(outcome.packets),
                             "share"});
    metrics.push_back(Metric{"setup_s", median(setups), "s"});
    metrics.push_back(Metric{"peak_rss_mb", peak_rss_mb(), "MB"});
  } else {
    TracedRun traced =
        traced_run(w, engine, args.seconds, workers, args.spans);
    outcome = traced.outcome;
    for (const std::string& line : traced.notes) std::printf("%s\n", line.c_str());
    metrics = std::move(traced.metrics);
    metrics.push_back(Metric{"compress.known_miss_share", known_miss_share, "share"});
  }

  const double failed_share = static_cast<double>(outcome.failed) /
                              static_cast<double>(outcome.packets);
  std::printf("failed_share %.6f share (%" PRIu64 " of %" PRIu64
              " packets; %" PRIu64 " failed flows, %" PRIu64
              " outside the known-missed shapes)\n",
              failed_share, outcome.failed, outcome.packets,
              outcome.failed_flows, outcome.unexpected_flows);
  for (const Metric& m : metrics) {
    std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  const bool correct =
      self_test.unexpected_flows == 0 && outcome.unexpected_flows == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", outcome.packets, outcome.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
