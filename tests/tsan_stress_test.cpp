// Multi-threaded stress test for the service data/control-plane split,
// written to run under ThreadSanitizer (-DDPISVC_TSAN=ON).
//
// Thread model being validated (§2.2, §4.3): DpiInstance is the only object
// shared across threads — scanner threads hammer instances directly and
// through the netsim fabric while ONE control-plane thread drives the
// DpiController (pattern registration → engine recompile + hot push, MCA²
// telemetry collection, heartbeat loss → failover with live flow-state
// migration, recovery re-sync). The controller and fabric are documented
// single-threaded; the instances' internal mutex is what makes concurrent
// scan vs. engine swap vs. telemetry sampling race-free, and that is
// exactly what TSan checks here.
//
// The test also runs (slowly) in normal builds, so plain CI exercises the
// same interleavings without the data-race detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "netsim/fabric.hpp"
#include "netsim/host.hpp"
#include "service/controller.hpp"
#include "service/instance_node.hpp"
#include "workload/pattern_gen.hpp"
#include "workload/traffic_gen.hpp"

namespace dpisvc {
namespace {

using namespace dpisvc::netsim;
using namespace dpisvc::service;

json::Value register_msg(int id, const char* name, bool stateful) {
  return json::parse(R"({"type":"register","middlebox_id":)" +
                     std::to_string(id) + R"(,"name":")" + name +
                     R"(","stateful":)" + (stateful ? "true" : "false") + "}");
}

json::Value add_exact_msg(int id, int rule, const std::string& text) {
  AddPatternsRequest req;
  req.middlebox = static_cast<dpi::MiddleboxId>(id);
  req.exact.push_back(ExactPatternMsg{static_cast<dpi::PatternId>(rule), text});
  return encode(req);
}

TEST(TsanStress, ConcurrentScanRegisterAndFailover) {
  FailoverConfig failover;
  failover.miss_windows = 2;
  DpiController controller({}, failover);
  controller.handle_message(register_msg(1, "ids", false));
  controller.handle_message(register_msg(2, "session-fw", true));
  controller.handle_message(register_msg(3, "av", false));

  const auto patterns =
      workload::generate_patterns(workload::snort_like(200, 29));
  dpi::PatternId rule = 0;
  for (const auto& pattern : patterns) {
    controller.handle_message(add_exact_msg(
        static_cast<int>(1 + rule % 3), static_cast<int>(rule), pattern));
    ++rule;
  }
  const dpi::ChainId chain1 = controller.register_policy_chain({1, 2, 3});
  const dpi::ChainId chain2 = controller.register_policy_chain({2});

  auto i1 = controller.create_instance("dpi1");
  auto i2 = controller.create_instance("dpi2");
  auto i3 = controller.create_instance("dpi3");
  controller.assign_chain(chain1, "dpi1");
  controller.assign_chain(chain2, "dpi3");
  ASSERT_TRUE(i1->has_engine());

  // The fabric is owned and ticked by the control-plane thread only; the
  // InstanceNode wraps the SAME i1 the scanner threads use directly, so
  // fabric traffic and direct scans contend on the instance mutex.
  Fabric fabric;
  fabric.add_node<Host>("gw");
  fabric.add_node<InstanceNode>("dpi1", i1);
  fabric.connect("gw", "dpi1");

  workload::TrafficConfig traffic;
  traffic.num_packets = 150;
  traffic.planted_match_rate = 0.3;
  traffic.planted_patterns.assign(patterns.begin(), patterns.begin() + 12);
  const auto trace = workload::generate_http_trace(traffic);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> scans{0};
  std::atomic<std::uint64_t> raw_hits{0};

  const std::vector<std::shared_ptr<DpiInstance>> instances = {i1, i2, i3};
  std::vector<std::thread> threads;

  // Scanner threads: the stateful chain exercises the flow table (lookup +
  // cursor update) under the instance lock, racing the control thread's
  // engine pushes (which clear it) and failover flow export.
  constexpr int kScanners = 4;
  for (int t = 0; t < kScanners; ++t) {
    threads.emplace_back([&, t] {
      DpiInstance& inst = *instances[static_cast<std::size_t>(t) % 3];
      const dpi::ChainId chain = t % 2 == 0 ? chain1 : chain2;
      std::uint64_t local_scans = 0;
      std::uint64_t local_hits = 0;
      while (!stop.load(std::memory_order_acquire)) {
        for (const auto& p : trace) {
          local_hits += inst.scan(chain, p.tuple, p.payload).raw_hits;
          ++local_scans;
        }
        net::Packet tagged;
        tagged.tuple = trace.front().tuple;
        tagged.payload = trace.front().payload;
        tagged.push_tag(net::TagKind::kPolicyChain, chain);
        (void)inst.process(std::move(tagged));
      }
      scans += local_scans;
      raw_hits += local_hits;
    });
  }

  // Sampler thread: the controller's monitor view — concurrent telemetry
  // snapshots must never tear against running scans.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const auto& inst : instances) {
        (void)inst->telemetry();
        (void)inst->chain_telemetry();
        (void)inst->active_flows();
        (void)inst->active_flow_keys();
        (void)inst->engine_version();
      }
      std::this_thread::yield();
    }
  });

  // Control-plane rounds, all from this thread.
  constexpr int kRounds = 12;
  for (int round = 0; round < kRounds; ++round) {
    // New pattern → full recompile → hot engine push into live scanners.
    controller.handle_message(
        add_exact_msg(1, 5000 + round, "hot-update-" + std::to_string(round)));

    // Drive tagged traffic through the fabric into the shared instance.
    for (int i = 0; i < 8; ++i) {
      net::Packet p;
      p.tuple = trace[static_cast<std::size_t>(i)].tuple;
      p.payload = trace[static_cast<std::size_t>(i)].payload;
      p.ip_id = static_cast<std::uint16_t>(round * 16 + i);
      p.push_tag(net::TagKind::kPolicyChain, chain1);
      fabric.send("gw", "dpi1", std::move(p));
    }
    fabric.run();

    controller.heartbeat("dpi1");
    controller.heartbeat("dpi2");
    if (round < 4 || round > 8) controller.heartbeat("dpi3");
    controller.collect_telemetry();

    if (controller.is_failed("dpi3")) {
      // dpi3 missed its windows mid-run: reassign its chain and migrate
      // surviving flow state while scanners still hammer all instances.
      const FailoverPlan plan = controller.evaluate_failover();
      (void)controller.apply_failover(plan);
      controller.recover_instance("dpi3");
    }
    std::this_thread::yield();
  }

  stop.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();

  EXPECT_GT(scans.load(), 0u);
  EXPECT_GT(raw_hits.load(), 0u);
  EXPECT_FALSE(controller.is_failed("dpi3"));
  // The last control round pushed to every live instance, so all three end
  // on one engine version.
  EXPECT_EQ(i1->engine_version(), i2->engine_version());
  EXPECT_EQ(i2->engine_version(), i3->engine_version());
  const std::uint64_t total =
      i1->telemetry().packets + i2->telemetry().packets +
      i3->telemetry().packets + i1->telemetry().pass_through;
  EXPECT_GE(total, scans.load());
}

// Sharded-pool stress: batch submitters drive all shards of a multi-worker
// instance while the main thread hot-swaps engines (shard-by-shard) and
// migrates flow state out and back in bulk. Validates that shard mutexes,
// the control-plane lock, and the scan pool's dispatch/completion protocol
// compose race-free.
TEST(TsanStress, ShardedPoolScanVsSwapVsMigration) {
  auto compile_engine = [](std::size_t num_patterns, std::uint64_t seed) {
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
         workload::generate_patterns(workload::snort_like(num_patterns, seed))) {
      spec.exact_patterns.push_back(dpi::ExactPatternSpec{
          pattern, static_cast<dpi::MiddleboxId>(1 + rule % 2), rule});
      ++rule;
    }
    spec.chains[1] = {1, 2};  // stateful chain: flow tables are hot
    return dpi::Engine::compile(spec);
  };
  const auto engine_a = compile_engine(100, 7);
  const auto engine_b = compile_engine(150, 11);

  InstanceConfig config;
  config.num_workers = 4;
  config.max_flows = 256;
  DpiInstance inst("sharded", config);
  DpiInstance peer("peer", config);
  inst.load_engine(engine_a, 1);
  peer.load_engine(engine_a, 1);

  workload::TrafficConfig traffic;
  traffic.num_packets = 200;
  const auto trace = workload::generate_http_trace(traffic);
  std::vector<ScanItem> items;
  items.reserve(trace.size());
  for (const auto& p : trace) {
    items.push_back(ScanItem{1, p.tuple, BytesView(p.payload)});
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> packets{0};
  std::vector<std::thread> threads;

  // Two batch submitters + one per-packet scanner: every shard stays busy.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        packets += inst.scan_batch(items).size();
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const auto& p : trace) {
        (void)inst.scan(1, p.tuple, p.payload);
      }
      packets += trace.size();
    }
  });

  // Telemetry sampler: aggregates across shards while they scan.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)inst.telemetry();
      (void)inst.active_flows();
      (void)inst.active_flow_keys();
      std::this_thread::yield();
    }
  });

  // Control plane (this thread): hot engine swaps and bulk flow migration
  // race the scanners above. On a loaded machine all 15 rounds could finish
  // before any scanner completes a pass, so wait for the first one.
  while (packets.load() == 0) std::this_thread::yield();
  for (int round = 0; round < 15; ++round) {
    const auto& engine = round % 2 == 0 ? engine_b : engine_a;
    inst.load_engine(engine, static_cast<std::uint64_t>(round + 2));
    peer.load_engine(engine, static_cast<std::uint64_t>(round + 2));
    // Drain the instance's shards into the peer and re-home the state.
    peer.import_flows(inst.export_all_flows());
    inst.import_flows(peer.export_all_flows());
    std::this_thread::yield();
  }

  stop.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();

  EXPECT_GT(packets.load(), 0u);
  EXPECT_EQ(inst.telemetry().packets, packets.load());
  EXPECT_EQ(inst.engine_version(), peer.engine_version());
}


// Shared regex verification: the workers of a 4-worker instance run the
// same engine's regex matchers concurrently, each over its own thread-local
// VM scratch, on a stateful chain whose regex instances straddle packets.
// Every packet's matches must equal those of a 1-worker instance.
TEST(TsanStress, SharedEngineStatefulRegexMatchesSingleWorker) {
  dpi::EngineSpec spec;
  dpi::MiddleboxProfile ids;
  ids.id = 1;
  ids.name = "ids";
  ids.stateful = true;
  spec.middleboxes = {ids};
  // Programs from a few instructions to several hundred, so the workers'
  // scratch grows and is reused across very different sizes.
  const std::vector<std::pair<std::string, std::string>> rules = {
      {R"(alpha7[0-9]+zulu)", "alpha71234zulu"},
      {R"(bravo9\s*[a-z]{2,12}x)", "bravo9   qwertx"},
      {R"(charlie(?:ab|cd){1,40}end)", "charlieabcdcdabend"},
      {R"(delta\w{0,200}omega)", "delta_some_word_42omega"},
      {R"(echo\d{3}|foxtrot[^!]*!)", "foxtrot and more!"},
  };
  for (std::size_t i = 0; i < rules.size(); ++i) {
    spec.regex_patterns.push_back(dpi::RegexPatternSpec{
        rules[i].first, 1, static_cast<dpi::PatternId>(i), false});
  }
  spec.chains[1] = {1};
  const auto engine = dpi::Engine::compile(spec);

  // Per flow: filler text with planted instances (and near misses) cut into
  // small segments, round-robin interleaved across flows.
  Rng rng(1337);
  constexpr std::size_t kFlows = 48;
  std::vector<std::vector<Bytes>> segments(kFlows);
  for (std::size_t f = 0; f < kFlows; ++f) {
    std::string stream;
    for (int k = 0; k < 12; ++k) {
      for (std::size_t j = rng.index(40); j > 0; --j) {
        stream.push_back(" abcdefgh0123!"[rng.index(14)]);
      }
      const auto& rule = rules[rng.index(rules.size())];
      stream += rng.bernoulli(0.6) ? rule.second
                                   : rule.second.substr(0, rule.second.size() - 1);
    }
    for (std::size_t at = 0; at < stream.size();) {
      const std::size_t take = std::min<std::size_t>(1 + rng.index(48),
                                                     stream.size() - at);
      segments[f].push_back(to_bytes(stream.substr(at, take)));
      at += take;
    }
  }
  std::vector<ScanItem> items;
  for (std::size_t k = 0;; ++k) {
    bool any = false;
    for (std::size_t f = 0; f < kFlows; ++f) {
      if (k >= segments[f].size()) continue;
      any = true;
      const net::FiveTuple tuple{
          net::Ipv4Addr(10, 2, static_cast<std::uint8_t>(f), 1),
          net::Ipv4Addr(10, 3, 0, 1), static_cast<std::uint16_t>(2000 + f), 80,
          net::IpProto::kTcp};
      items.push_back(ScanItem{1, tuple, BytesView(segments[f][k])});
    }
    if (!any) break;
  }

  auto run = [&](std::size_t workers) {
    InstanceConfig config;
    config.num_workers = workers;
    DpiInstance inst("regex", config);
    inst.load_engine(engine, 1);
    std::vector<std::vector<net::MatchEntry>> out;
    std::uint64_t evaluated = 0;
    for (const dpi::ScanResult& result : inst.scan_batch(items)) {
      out.emplace_back();
      for (const auto& section : result.matches) {
        out.back().insert(out.back().end(), section.entries.begin(),
                          section.entries.end());
      }
      evaluated += result.regexes_evaluated;
    }
    return std::make_pair(out, evaluated);
  };
  const auto [single, single_evals] = run(1);
  const auto [pooled, pooled_evals] = run(4);
  ASSERT_EQ(single.size(), items.size());
  EXPECT_EQ(pooled, single);
  EXPECT_EQ(pooled_evals, single_evals);
  std::size_t matches = 0;
  for (const auto& entries : single) matches += entries.size();
  // Planted instances match and near misses are evaluated without matching.
  EXPECT_GT(matches, kFlows * 3);
  EXPECT_GT(single_evals, matches);
}

// Snapshot-and-reset coherence: while scanner threads run, a telemetry
// thread repeatedly drains the counters via reset_telemetry(). Every packet
// must land in exactly one snapshot (or in the final residual) — the sum of
// all drained windows plus what is left equals the total scanned. The
// wipe-only predecessor of reset_telemetry() lost the counts accumulated
// between its reads and its writes.
TEST(TsanStress, ResetTelemetryCoherentUnderConcurrentScans) {
  dpi::EngineSpec spec;
  spec.middleboxes = {dpi::MiddleboxProfile{1, "ids"}};
  spec.exact_patterns = {dpi::ExactPatternSpec{"attack", 1, 0}};
  spec.chains[1] = {1};
  auto engine = dpi::Engine::compile(spec);

  InstanceConfig config;
  config.num_workers = 2;
  DpiInstance inst("stress", config);
  inst.load_engine(engine, 1);

  workload::TrafficConfig traffic;
  traffic.num_packets = 400;
  traffic.num_flows = 16;
  traffic.planted_patterns = {"attack"};
  const workload::Trace trace = workload::generate_http_trace(traffic);

  constexpr int kScanners = 3;
  constexpr int kRepeats = 8;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> drained_packets{0};
  std::atomic<std::uint64_t> drained_bytes{0};

  std::thread reaper([&] {
    while (!done.load(std::memory_order_acquire)) {
      const InstanceTelemetry window = inst.reset_telemetry();
      drained_packets.fetch_add(window.packets, std::memory_order_relaxed);
      drained_bytes.fetch_add(window.bytes, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> scanners;
  scanners.reserve(kScanners);
  for (int s = 0; s < kScanners; ++s) {
    scanners.emplace_back([&] {
      for (int rep = 0; rep < kRepeats; ++rep) {
        for (const auto& p : trace) {
          (void)inst.scan(1, p.tuple, p.payload);
        }
      }
    });
  }
  for (auto& t : scanners) t.join();
  done.store(true, std::memory_order_release);
  reaper.join();

  // Residual counts left after the last drain.
  const InstanceTelemetry rest = inst.reset_telemetry();
  const std::uint64_t expected_packets =
      static_cast<std::uint64_t>(kScanners) * kRepeats * trace.size();
  std::uint64_t expected_bytes = 0;
  for (const auto& p : trace) expected_bytes += p.payload.size();
  expected_bytes *= static_cast<std::uint64_t>(kScanners) * kRepeats;

  EXPECT_EQ(drained_packets.load() + rest.packets, expected_packets);
  EXPECT_EQ(drained_bytes.load() + rest.bytes, expected_bytes);
  // The obs registry is NOT reset by reset_telemetry(): its counters hold
  // the full total and must agree with the drained windows.
  const json::Value snap = inst.metrics().snapshot();
  std::uint64_t obs_packets = 0;
  for (const auto& [key, value] : snap.at("counters").as_object()) {
    if (key.size() > 8 && key.substr(key.size() - 8) == ".packets") {
      obs_packets += static_cast<std::uint64_t>(value.as_number());
    }
  }
  EXPECT_EQ(obs_packets, expected_packets);
}

}  // namespace
}  // namespace dpisvc
