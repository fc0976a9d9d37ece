// Determinism of the sharded multi-threaded scan path (tier-1).
//
// The sharded data plane promises that parallelism is invisible in the
// results: a flow's packets always land on the shard that owns its cursor
// and are scanned in submission order, so scan_batch() must produce
// byte-identical match sets for every worker count — including the
// single-threaded inline configuration — and all of them must equal a
// plain single-threaded reference over the engine with a per-flow cursor
// map.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dpi/engine.hpp"
#include "service/instance.hpp"
#include "workload/traffic_gen.hpp"

namespace dpisvc::service {
namespace {

std::shared_ptr<const dpi::Engine> mt_engine() {
  dpi::EngineSpec spec;
  dpi::MiddleboxProfile ids;
  ids.id = 1;
  ids.name = "ids";  // stateless
  dpi::MiddleboxProfile av;
  av.id = 2;
  av.name = "av";
  av.stateful = true;
  dpi::MiddleboxProfile hdr;
  hdr.id = 3;
  hdr.name = "hdr";  // bounded scan depth
  hdr.stop_offset = 24;
  spec.middleboxes = {ids, av, hdr};
  spec.exact_patterns = {
      dpi::ExactPatternSpec{"evil", 1, 0},
      dpi::ExactPatternSpec{"GET /", 1, 1},
      dpi::ExactPatternSpec{"splitpattern", 2, 0},
      dpi::ExactPatternSpec{"virus", 2, 1},
      dpi::ExactPatternSpec{"HTTP", 3, 0},
  };
  // A stateful-owned regex whose anchors ("evil", "virus") are also exact
  // patterns: anchor hits, regex evaluations and cross-packet windows all
  // show up in the per-shard counters the comparison below sums.
  spec.regex_patterns = {dpi::RegexPatternSpec{"evil[a-z]*virus", 2, 2}};
  spec.chains[1] = {1, 3};     // stateless chain
  spec.chains[2] = {1, 2, 3};  // stateful chain
  return dpi::Engine::compile(spec);
}

struct TracePacket {
  dpi::ChainId chain = 0;
  net::FiveTuple flow;
  Bytes payload;
};

/// Interleaved multi-flow trace: per-flow streams with patterns planted to
/// straddle packet boundaries, segmented randomly and round-robin merged.
std::vector<TracePacket> make_trace() {
  Rng rng(20140814);  // CoNEXT'14 vintage
  const std::size_t kFlows = 12;
  struct FlowState {
    dpi::ChainId chain;
    net::FiveTuple tuple;
    std::vector<Bytes> packets;
    std::size_t next = 0;
  };
  std::vector<FlowState> flows;
  for (std::size_t f = 0; f < kFlows; ++f) {
    FlowState fs;
    fs.chain = (f % 2 == 0) ? dpi::ChainId{2} : dpi::ChainId{1};
    fs.tuple =
        net::FiveTuple{net::Ipv4Addr(10, 0, static_cast<std::uint8_t>(f), 1),
                       net::Ipv4Addr(10, 1, 1, 1),
                       static_cast<std::uint16_t>(1000 + f), 80,
                       net::IpProto::kTcp};
    // Build the flow's stream with planted patterns.
    std::string stream = "GET /index HTTP/1.1 ";
    for (int i = 0; i < 30; ++i) {
      switch (rng.index(5)) {
        case 0: stream += "splitpattern"; break;
        case 1: stream += "evil"; break;
        case 2: stream += "virus"; break;
        default:
          for (std::size_t j = 0; j < 1 + rng.index(20); ++j) {
            stream.push_back(static_cast<char>('a' + rng.index(26)));
          }
      }
    }
    // Random segmentation so patterns straddle packet boundaries.
    std::size_t at = 0;
    while (at < stream.size()) {
      const std::size_t take =
          std::min<std::size_t>(1 + rng.index(25), stream.size() - at);
      fs.packets.push_back(to_bytes(stream.substr(at, take)));
      at += take;
    }
    flows.push_back(std::move(fs));
  }
  // Random interleave preserving per-flow order.
  std::vector<TracePacket> trace;
  for (;;) {
    std::vector<std::size_t> pending;
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (flows[f].next < flows[f].packets.size()) pending.push_back(f);
    }
    if (pending.empty()) break;
    FlowState& fs = flows[pending[rng.index(pending.size())]];
    trace.push_back(
        TracePacket{fs.chain, fs.tuple, fs.packets[fs.next++]});
  }
  return trace;
}

/// Canonical serialization of an ordered result sequence; byte-identical
/// strings mean identical match sets, positions, and cursors' effects.
std::string serialize(const std::vector<dpi::ScanResult>& results) {
  std::ostringstream out;
  for (std::size_t i = 0; i < results.size(); ++i) {
    out << "#" << i << ":" << results[i].bytes_scanned << ";";
    for (const auto& section : results[i].matches) {
      if (section.entries.empty()) continue;
      out << "m" << section.middlebox << "{";
      for (const auto& e : section.entries) {
        out << e.pattern_id << "@" << e.position << "x" << e.run_length << ",";
      }
      out << "}";
    }
    out << "\n";
  }
  return out.str();
}

/// Every counter two instances keep about the packets they scanned: the
/// telemetry block (less busy time), the per-chain counters, and the obs
/// shard counters summed over shards.
void expect_same_accounting(const DpiInstance& a, const DpiInstance& b,
                            const std::string& label) {
  const InstanceTelemetry ta = a.telemetry();
  const InstanceTelemetry tb = b.telemetry();
  EXPECT_EQ(ta.packets, tb.packets) << label;
  EXPECT_EQ(ta.bytes, tb.bytes) << label;
  EXPECT_EQ(ta.raw_hits, tb.raw_hits) << label;
  EXPECT_EQ(ta.match_packets, tb.match_packets) << label;
  EXPECT_EQ(ta.result_bytes, tb.result_bytes) << label;
  EXPECT_EQ(ta.pass_through, tb.pass_through) << label;
  EXPECT_EQ(ta.flow_evictions, tb.flow_evictions) << label;

  const auto ca = a.chain_telemetry();
  const auto cb = b.chain_telemetry();
  ASSERT_EQ(ca.size(), cb.size()) << label;
  for (const auto& [chain, counters] : ca) {
    ASSERT_EQ(cb.count(chain), 1u) << label << " chain " << chain;
    const ChainTelemetry& other = cb.at(chain);
    EXPECT_EQ(counters.packets, other.packets) << label << " chain " << chain;
    EXPECT_EQ(counters.bytes, other.bytes) << label << " chain " << chain;
    EXPECT_EQ(counters.raw_hits, other.raw_hits) << label << " chain " << chain;
  }

  const auto sum = [](const DpiInstance& inst, const std::string& suffix) {
    const json::Value snap = inst.metrics().snapshot();
    double total = 0;
    for (std::size_t i = 0; i < inst.num_shards(); ++i) {
      total += snap.at("counters")
                   .at("shard" + std::to_string(i) + "." + suffix)
                   .as_number();
    }
    return total;
  };
  for (const char* suffix :
       {"packets", "bytes", "raw_hits", "anchor_hits", "regex_evals",
        "regex_matches", "flow_evictions"}) {
    EXPECT_EQ(sum(a, suffix), sum(b, suffix)) << label << " shard*." << suffix;
  }
  EXPECT_GT(sum(a, "regex_evals"), 0) << label;
}

TEST(ScanMt, BatchMatchesSingleThreadedReferenceForAllWorkerCounts) {
  const auto engine = mt_engine();
  const auto trace = make_trace();
  ASSERT_GT(trace.size(), 100u);

  // Single-threaded reference: the seed path — one scan_packet per packet,
  // cursors in a plain per-flow map.
  std::vector<dpi::ScanResult> reference;
  std::map<std::uint64_t, dpi::FlowCursor> cursors;
  for (const TracePacket& p : trace) {
    dpi::FlowCursor& cursor = cursors[p.flow.canonical().hash()];
    auto result = engine->scan_packet(p.chain, BytesView(p.payload), cursor);
    if (engine->chain_stateful(p.chain)) cursor = result.cursor;
    reference.push_back(std::move(result));
  }
  const std::string expected = serialize(reference);
  ASSERT_NE(expected.find("m2{"), std::string::npos)
      << "trace must exercise stateful straddling matches";

  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    InstanceConfig config;
    config.num_workers = workers;
    DpiInstance inst("mt" + std::to_string(workers), config);
    inst.load_engine(engine, 1);
    ASSERT_EQ(inst.num_shards(), workers);

    std::vector<dpi::ScanResult> results;
    const std::size_t kBatch = 64;
    for (std::size_t base = 0; base < trace.size(); base += kBatch) {
      std::vector<ScanItem> items;
      for (std::size_t i = base; i < std::min(base + kBatch, trace.size());
           ++i) {
        items.push_back(ScanItem{trace[i].chain, trace[i].flow,
                                 BytesView(trace[i].payload)});
      }
      auto batch = inst.scan_batch(items);
      for (auto& r : batch) results.push_back(std::move(r));
    }
    EXPECT_EQ(serialize(results), expected) << "workers=" << workers;
    EXPECT_EQ(inst.telemetry().packets, trace.size());

    // The same trace one packet at a time through scan(): runs of one must
    // account exactly like the batch path's longer runs.
    DpiInstance single("single" + std::to_string(workers), config);
    single.load_engine(engine, 1);
    std::vector<dpi::ScanResult> singles;
    for (const TracePacket& p : trace) {
      singles.push_back(single.scan(p.chain, p.flow, BytesView(p.payload)));
    }
    EXPECT_EQ(serialize(singles), expected) << "workers=" << workers;
    expect_same_accounting(inst, single, "workers=" + std::to_string(workers));
    std::uint64_t runs = 0;
    std::uint64_t run_packets = 0;
    for (std::size_t i = 0; i < workers; ++i) {
      const auto* h = inst.metrics().find_histogram(
          "shard" + std::to_string(i) + ".scan_run_packets");
      ASSERT_NE(h, nullptr);
      runs += h->count();
      run_packets += h->sum();
    }
    EXPECT_EQ(run_packets, trace.size());
    EXPECT_LT(runs, run_packets)
        << "workers=" << workers << ": no run longer than one packet";
  }
}

TEST(ScanMt, ShardPlacementBalancesHttpTraceFlows) {
  // Sequentially numbered flows (10.0.x.y, ports 20000+i) differ only in a
  // few low bits per tuple byte; placement must still spread them.
  workload::TrafficConfig traffic;
  traffic.num_flows = 1024;
  traffic.num_packets = 1024;
  traffic.min_payload = 1;
  traffic.max_payload = 1;
  InstanceConfig config;
  config.num_workers = 4;
  DpiInstance inst("placement", config);
  std::vector<std::size_t> load(inst.num_shards(), 0);
  for (const auto& p : workload::generate_http_trace(traffic)) {
    ++load[inst.shard_of_flow(p.tuple)];
  }
  const double mean = 1024.0 / static_cast<double>(load.size());
  const std::size_t max = *std::max_element(load.begin(), load.end());
  EXPECT_LE(static_cast<double>(max) / mean, 1.5)
      << load[0] << "/" << load[1] << "/" << load[2] << "/" << load[3];
}

TEST(ScanMt, EngineBatchEqualsPerPacketScan) {
  const auto engine = mt_engine();
  const auto trace = make_trace();
  // Stateless chain packets only: the engine-level batch API needs no
  // cursor management for them.
  std::vector<BytesView> payloads;
  std::vector<dpi::ScanResult> reference;
  for (const TracePacket& p : trace) {
    if (p.chain != 1) continue;
    payloads.emplace_back(p.payload);
    reference.push_back(engine->scan_packet(1, BytesView(p.payload)));
  }
  const auto batch = engine->scan_batch(1, payloads);
  EXPECT_EQ(serialize(batch), serialize(reference));
}

TEST(ScanMt, EngineBatchValidatesInputs) {
  const auto engine = mt_engine();
  std::vector<BytesView> payloads(3);
  EXPECT_THROW(engine->scan_batch(99, payloads), std::invalid_argument);
  std::vector<dpi::FlowCursor> cursors(2);  // size mismatch
  EXPECT_THROW(engine->scan_batch(2, payloads, &cursors),
               std::invalid_argument);
}

}  // namespace
}  // namespace dpisvc::service
