// Zero-copy batched ingest pipeline (DESIGN.md §4h, tier-1).
//
// Covers the fabric→shard handoff bottom-up:
//  - SpscRing: wrap-around, exact capacity (including capacity 1), and the
//    concurrent single-producer/single-consumer contract (the TSan build of
//    this binary is the race oracle);
//  - PacketArena: view stability across chunk growth, oversized payloads,
//    and zero-allocation reuse after reset();
//  - ScanPool: bounded rings with block/shed overload policies and the
//    completion latch;
//  - IngestPipeline: results byte-identical to the sequential scan path for
//    every worker count, arena lifetime under consumer leases, and the two
//    overload behaviors — kShed bounds memory by dropping whole packets
//    (counted, accepted subset still byte-identical), kBlock bounds memory
//    by stalling the producer and eventually delivers everything;
//  - process_batch() ≡ per-packet process() — also with defrag,
//    reassembly and decompress-once on, byte for byte on the wire images
//    and in every counter — batched InstanceNode ≡
//    per-packet InstanceNode through a fabric (on_idle flushes stragglers),
//    and Middlebox::apply_report_batch ≡ per-packet apply_report_entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "common/rng.hpp"
#include "common/spsc_ring.hpp"
#include "compress/deflate.hpp"
#include "dpi/engine.hpp"
#include "mbox/middlebox.hpp"
#include "netsim/fabric.hpp"
#include "service/ingest.hpp"
#include "service/instance.hpp"
#include "service/instance_node.hpp"
#include "workload/adversarial_gen.hpp"

namespace dpisvc::service {
namespace {

// --- shared fixtures ---------------------------------------------------------

std::shared_ptr<const dpi::Engine> test_engine() {
  dpi::EngineSpec spec;
  dpi::MiddleboxProfile ids;
  ids.id = 1;
  ids.name = "ids";  // stateless
  dpi::MiddleboxProfile av;
  av.id = 2;
  av.name = "av";
  av.stateful = true;
  spec.middleboxes = {ids, av};
  spec.exact_patterns = {
      dpi::ExactPatternSpec{"evil", 1, 0},
      dpi::ExactPatternSpec{"GET /", 1, 1},
      dpi::ExactPatternSpec{"splitpattern", 2, 0},
      dpi::ExactPatternSpec{"virus", 2, 1},
  };
  spec.chains[1] = {1};     // stateless chain
  spec.chains[2] = {1, 2};  // stateful chain
  return dpi::Engine::compile(spec);
}

struct TracePacket {
  dpi::ChainId chain = 0;
  net::FiveTuple flow;
  Bytes payload;
};

/// Interleaved multi-flow trace with patterns planted to straddle packet
/// boundaries (same construction as scan_mt_test, smaller).
std::vector<TracePacket> make_trace(std::size_t num_flows = 8) {
  Rng rng(20140814);
  struct FlowState {
    dpi::ChainId chain;
    net::FiveTuple tuple;
    std::vector<Bytes> packets;
    std::size_t next = 0;
  };
  std::vector<FlowState> flows;
  for (std::size_t f = 0; f < num_flows; ++f) {
    FlowState fs;
    fs.chain = (f % 2 == 0) ? dpi::ChainId{2} : dpi::ChainId{1};
    fs.tuple =
        net::FiveTuple{net::Ipv4Addr(10, 0, static_cast<std::uint8_t>(f), 1),
                       net::Ipv4Addr(10, 1, 1, 1),
                       static_cast<std::uint16_t>(1000 + f), 80,
                       net::IpProto::kTcp};
    std::string stream = "GET /index HTTP/1.1 ";
    for (int i = 0; i < 20; ++i) {
      switch (rng.index(5)) {
        case 0: stream += "splitpattern"; break;
        case 1: stream += "evil"; break;
        case 2: stream += "virus"; break;
        default:
          for (std::size_t j = 0; j < 1 + rng.index(16); ++j) {
            stream.push_back(static_cast<char>('a' + rng.index(26)));
          }
      }
    }
    std::size_t at = 0;
    while (at < stream.size()) {
      const std::size_t take =
          std::min<std::size_t>(1 + rng.index(20), stream.size() - at);
      fs.packets.push_back(to_bytes(stream.substr(at, take)));
      at += take;
    }
    flows.push_back(std::move(fs));
  }
  std::vector<TracePacket> trace;
  for (;;) {
    std::vector<std::size_t> pending;
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (flows[f].next < flows[f].packets.size()) pending.push_back(f);
    }
    if (pending.empty()) break;
    FlowState& fs = flows[pending[rng.index(pending.size())]];
    trace.push_back(TracePacket{fs.chain, fs.tuple, fs.packets[fs.next++]});
  }
  return trace;
}

/// Canonical serialization: byte-identical strings ⇔ identical match sets.
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

/// A five-tuple whose canonical hash places it on `shard` of `instance`.
net::FiveTuple flow_on_shard(const DpiInstance& instance, std::size_t shard) {
  for (std::uint16_t port = 2000; port < 3000; ++port) {
    const net::FiveTuple flow{net::Ipv4Addr(10, 9, 9, 9),
                              net::Ipv4Addr(10, 8, 8, 8), port, 80,
                              net::IpProto::kTcp};
    if (instance.shard_of_flow(flow) == shard) return flow;
  }
  ADD_FAILURE() << "no port mapping to shard " << shard;
  return {};
}

/// ScanPool::JobFn that spins until released — the stalled-shard fixture.
struct StallCtx {
  std::atomic<bool> running{false};
  std::atomic<bool> release{false};
};

void stall_job(void* ctx, std::size_t) {
  auto* stall = static_cast<StallCtx*>(ctx);
  stall->running.store(true, std::memory_order_release);
  while (!stall->release.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
}

void count_job(void* ctx, std::size_t) {
  static_cast<std::atomic<std::size_t>*>(ctx)->fetch_add(1);
}

// --- SpscRing ----------------------------------------------------------------

TEST(SpscRing, RejectsZeroCapacity) {
  EXPECT_THROW(SpscRing<int>(0), std::invalid_argument);
}

TEST(SpscRing, FifoAcrossWrapAround) {
  SpscRing<int> ring(3);  // deliberately not a power of two: capacity is exact
  EXPECT_EQ(ring.capacity(), 3u);
  int out = 0;
  int next_push = 0;
  int next_pop = 0;
  // Many cycles at varying occupancy so the 64-bit cursors lap the slot
  // array repeatedly.
  for (int round = 0; round < 100; ++round) {
    const int burst = 1 + round % 3;
    for (int i = 0; i < burst; ++i) {
      ASSERT_TRUE(ring.try_push(int{next_push}));
      ++next_push;
    }
    for (int i = 0; i < burst; ++i) {
      ASSERT_TRUE(ring.try_pop(out));
      EXPECT_EQ(out, next_pop);
      ++next_pop;
    }
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(SpscRing, ExactCapacityFullAndEmpty) {
  SpscRing<int> ring(3);
  EXPECT_TRUE(ring.try_push(1));
  EXPECT_TRUE(ring.try_push(2));
  EXPECT_TRUE(ring.try_push(3));
  EXPECT_FALSE(ring.try_push(4)) << "capacity must be exact, not rounded up";
  EXPECT_EQ(ring.size(), 3u);
  int out = 0;
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(ring.try_push(4)) << "pop must free the slot";
}

TEST(SpscRing, CapacityOnePingPong) {
  SpscRing<int> ring(1);
  int out = 0;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.try_push(int{i}));
    ASSERT_FALSE(ring.try_push(int{i})) << "capacity-1 ring holds one item";
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
    ASSERT_FALSE(ring.try_pop(out));
  }
}

TEST(SpscRing, ConcurrentProducerConsumer) {
  // The SPSC contract under real concurrency; the TSan job of the CI matrix
  // runs this same binary, making it the data-race oracle for the ring's
  // acquire/release protocol.
  SpscRing<std::uint64_t> ring(8);
  constexpr std::uint64_t kItems = 200000;
  std::thread producer([&ring] {
    for (std::uint64_t i = 0; i < kItems; ++i) {
      while (!ring.try_push(std::uint64_t{i})) std::this_thread::yield();
    }
  });
  std::uint64_t expected = 0;
  std::uint64_t item = 0;
  while (expected < kItems) {
    if (!ring.try_pop(item)) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_EQ(item, expected) << "SPSC ring must be FIFO";
    ++expected;
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

// --- PacketArena -------------------------------------------------------------

TEST(PacketArena, ViewsStayValidAcrossChunkGrowth) {
  PacketArena arena(64);  // tiny chunks force growth
  std::vector<std::string> originals;
  std::vector<BytesView> views;
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    std::string payload;
    for (std::size_t j = 0; j < 1 + rng.index(40); ++j) {
      payload.push_back(static_cast<char>('A' + rng.index(26)));
    }
    const Bytes bytes = to_bytes(payload);
    views.push_back(arena.append(BytesView(bytes)));
    originals.push_back(std::move(payload));
  }
  // Every earlier view must still read back its original bytes: growth
  // chains new chunks, it never reallocates old ones.
  for (std::size_t i = 0; i < views.size(); ++i) {
    ASSERT_EQ(views[i].size(), originals[i].size());
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(views[i].data()),
                          views[i].size()),
              originals[i])
        << "view " << i << " invalidated by arena growth";
  }
  EXPECT_GT(arena.bytes_reserved(), std::size_t{64}) << "growth must chain";
}

TEST(PacketArena, OversizedPayloadGetsDedicatedChunk) {
  PacketArena arena(32);
  const Bytes big(1000, std::uint8_t{0xAB});
  const BytesView view = arena.append(BytesView(big));
  ASSERT_EQ(view.size(), big.size());
  EXPECT_TRUE(std::equal(big.begin(), big.end(), view.data()));
  EXPECT_GE(arena.bytes_reserved(), std::size_t{1000});
}

TEST(PacketArena, ResetReusesChunksWithoutFreeing) {
  PacketArena arena(128);
  const Bytes payload(100, std::uint8_t{0x42});
  for (int i = 0; i < 5; ++i) arena.append(BytesView(payload));
  const std::size_t reserved = arena.bytes_reserved();
  ASSERT_GT(reserved, 0u);
  arena.reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), reserved)
      << "reset keeps chunks for reuse";
  // Refill to the same level: steady state must not grow the footprint.
  for (int i = 0; i < 5; ++i) arena.append(BytesView(payload));
  EXPECT_EQ(arena.bytes_reserved(), reserved);
  EXPECT_EQ(arena.bytes_used(), 500u);
}

TEST(PacketArena, ZeroLengthAlloc) {
  PacketArena arena(64);
  EXPECT_EQ(arena.alloc(0), nullptr);
  EXPECT_EQ(arena.bytes_used(), 0u);
}

// --- ScanPool ----------------------------------------------------------------

TEST(ScanPool, DispatchRunsEveryJobInlineAndThreaded) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    ScanPool pool(workers, 8, OverloadPolicy::kBlock, ScanPool::Instruments());
    std::atomic<std::size_t> ran{0};
    pool.dispatch(&count_job, &ran, 37);
    EXPECT_EQ(ran.load(), 37u) << "workers=" << workers;
  }
}

TEST(ScanPool, ShedPolicyRefusesOnFullRing) {
  ScanPool pool(2, 1, OverloadPolicy::kShed, ScanPool::Instruments());
  StallCtx stall;
  ASSERT_TRUE(pool.submit(0, &stall_job, &stall, 0));
  while (!stall.running.load()) std::this_thread::yield();

  // Worker 0 is stuck in the stall job: one more job fits in its ring, and
  // everything after that must be refused, not queued.
  std::atomic<std::size_t> ran{0};
  std::size_t accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (pool.submit(0, &count_job, &ran, 0)) ++accepted;
  }
  EXPECT_EQ(accepted, 1u) << "ring capacity 1 with a stalled consumer";

  // Worker 1 is idle: its ring drains, so repeated submissions all land.
  ScanPool::Completion done;
  for (int i = 0; i < 10; ++i) {
    done.expect(1);
    ASSERT_TRUE(pool.submit(1, &count_job, &ran, 0, &done));
    done.wait_zero();
  }
  stall.release.store(true);
  // The one accepted job on worker 0 still runs after the stall clears.
  while (ran.load() < accepted + 10) std::this_thread::yield();
  EXPECT_EQ(ran.load(), accepted + 10);
}

TEST(ScanPool, BlockPolicyWaitsAndCountsBackpressure) {
  obs::MetricsRegistry registry;
  ScanPool::Instruments instruments;
  instruments.blocked = &registry.counter("ingest.backpressure.blocked");
  ScanPool pool(2, 1, OverloadPolicy::kBlock, instruments);
  StallCtx stall;
  ASSERT_TRUE(pool.submit(0, &stall_job, &stall, 0));
  while (!stall.running.load()) std::this_thread::yield();

  std::atomic<std::size_t> ran{0};
  ScanPool::Completion done;
  done.expect(2);
  std::thread producer([&] {
    // First fills the ring slot, second must block until the stall lifts.
    pool.submit(0, &count_job, &ran, 0, &done);
    pool.submit(0, &count_job, &ran, 0, &done);
  });
  // Wait until the producer is provably inside the blocking wait.
  while (instruments.blocked->value() == 0) std::this_thread::yield();
  EXPECT_EQ(ran.load(), 0u) << "stalled worker must not have run jobs";
  stall.release.store(true);
  producer.join();
  done.wait_zero();
  EXPECT_EQ(ran.load(), 2u);
  EXPECT_GE(instruments.blocked->value(), 1u);
}

// --- IngestPipeline: determinism --------------------------------------------

TEST(IngestPipeline, ByteIdenticalToSequentialScanForAllWorkerCounts) {
  const auto engine = test_engine();
  const auto trace = make_trace();
  ASSERT_GT(trace.size(), 80u);

  // Sequential reference: one engine, per-flow cursor map.
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

  for (const std::size_t workers : {1u, 2u, 4u}) {
    InstanceConfig config;
    config.num_workers = workers;
    DpiInstance inst("ingest" + std::to_string(workers), config);
    inst.load_engine(engine, 1);

    IngestConfig ingest;
    ingest.batch_packets = 7;  // odd: the final flush is a partial batch
    ingest.max_batches = 3;
    std::vector<dpi::ScanResult> results;
    std::vector<std::uint64_t> refs;
    IngestPipeline pipeline(
        inst,
        [&](const BatchHandle& batch) {
          for (std::size_t i = 0; i < batch.size(); ++i) {
            results.push_back(batch.results()[i]);
            refs.push_back(batch.packet_refs()[i]);
          }
        },
        ingest);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      ASSERT_TRUE(pipeline.push(trace[i].chain, trace[i].flow,
                                BytesView(trace[i].payload), i));
    }
    pipeline.drain();

    EXPECT_EQ(serialize(results), expected) << "workers=" << workers;
    ASSERT_EQ(refs.size(), trace.size());
    for (std::size_t i = 0; i < refs.size(); ++i) {
      ASSERT_EQ(refs[i], i) << "batches must deliver in submission order";
    }
    EXPECT_EQ(pipeline.packets_pushed(), trace.size());
    EXPECT_EQ(pipeline.packets_shed(), 0u);
    EXPECT_GE(pipeline.batches_flushed(), trace.size() / ingest.batch_packets);
    EXPECT_LE(pipeline.batches_allocated(), ingest.max_batches);
    EXPECT_EQ(inst.telemetry().packets, trace.size());
  }
}

TEST(IngestPipeline, DrainOnDestructionDeliversEverything) {
  const auto engine = test_engine();
  InstanceConfig config;
  config.num_workers = 2;
  DpiInstance inst("dtor", config);
  inst.load_engine(engine, 1);
  std::size_t delivered = 0;
  {
    IngestPipeline pipeline(
        inst, [&](const BatchHandle& batch) { delivered += batch.size(); },
        IngestConfig{16, 2, 4096});
    const auto trace = make_trace(4);
    for (const TracePacket& p : trace) {
      pipeline.push(p.chain, p.flow, BytesView(p.payload));
    }
    // No flush/drain: the destructor owes us the stragglers.
  }
  EXPECT_GT(delivered, 0u);
}

// --- IngestPipeline: arena lifetime under leases -----------------------------

TEST(IngestPipeline, LeasedBatchesKeepArenaBytesValid) {
  const auto engine = test_engine();
  InstanceConfig config;
  config.num_workers = 2;
  DpiInstance inst("lease", config);
  inst.load_engine(engine, 1);

  IngestConfig ingest;
  ingest.batch_packets = 2;
  ingest.max_batches = 2;
  ingest.arena_chunk_bytes = 64;
  std::vector<BatchHandle> held;
  IngestPipeline pipeline(
      inst, [&](const BatchHandle& batch) { held.push_back(batch); }, ingest);

  const net::FiveTuple flow{net::Ipv4Addr(10, 0, 0, 1),
                            net::Ipv4Addr(10, 1, 1, 1), 1234, 80,
                            net::IpProto::kTcp};
  std::vector<std::string> payloads;
  for (int i = 0; i < 12; ++i) {
    payloads.push_back("payload-" + std::to_string(i) + "-evil");
    const Bytes bytes = to_bytes(payloads.back());
    ASSERT_TRUE(pipeline.push(1, flow, BytesView(bytes)));
  }
  pipeline.drain();

  // Every batch is leased by the sink's copies, so the pipeline had to grow
  // past max_batches instead of recycling an arena out from under a lease.
  ASSERT_EQ(held.size(), 6u);
  EXPECT_GT(pipeline.batches_allocated(), ingest.max_batches)
      << "leases must block recycling, not be overwritten";
  std::size_t seen = 0;
  for (const BatchHandle& handle : held) {
    ASSERT_TRUE(handle.valid());
    ASSERT_EQ(handle.items().size(), handle.results().size());
    for (const ScanItem& item : handle.items()) {
      const std::string got(reinterpret_cast<const char*>(item.payload.data()),
                            item.payload.size());
      ASSERT_LT(seen, payloads.size());
      EXPECT_EQ(got, payloads[seen]) << "arena bytes mutated under a lease";
      ++seen;
    }
  }
  EXPECT_EQ(seen, payloads.size());

  // Releasing the leases lets the pipeline trim back under the cap.
  held.clear();
  const Bytes more = to_bytes(std::string("one-more"));
  ASSERT_TRUE(pipeline.push(1, flow, BytesView(more)));
  pipeline.drain();
  EXPECT_LE(pipeline.batches_allocated(), ingest.max_batches)
      << "surplus batches must be trimmed once leases are gone";
}

// --- IngestPipeline: overload ------------------------------------------------

TEST(IngestOverload, ShedBoundsMemoryAndPreservesAcceptedResults) {
  const auto engine = test_engine();
  InstanceConfig config;
  config.num_workers = 2;
  config.queue_capacity = 8;
  config.overload = OverloadPolicy::kShed;
  DpiInstance inst("shed", config);
  inst.load_engine(engine, 1);
  const net::FiveTuple flow = flow_on_shard(inst, 0);

  // Stall shard 0's worker so its batches never complete.
  StallCtx stall;
  inst.scan_pool().submit_blocking(0, &stall_job, &stall, 0);
  while (!stall.running.load()) std::this_thread::yield();

  IngestConfig ingest;
  ingest.batch_packets = 1;  // every push is its own batch
  ingest.max_batches = 3;
  std::vector<dpi::ScanResult> results;
  IngestPipeline pipeline(
      inst,
      [&](const BatchHandle& batch) {
        for (const auto& r : batch.results()) results.push_back(r);
      },
      ingest);

  // Pattern "splitpattern" straddles the first two accepted packets: the
  // accepted subset must scan with intact per-flow cursor continuity.
  const std::vector<std::string> stream = {
      "xx splitpat", "tern yy", "virus GET /", "evil", "more evil",
      "virus",       "filler",  "filler2",     "GET /", "last"};
  std::vector<Bytes> accepted;
  std::size_t shed = 0;
  for (const std::string& payload : stream) {
    const Bytes bytes = to_bytes(payload);
    if (pipeline.push(2, flow, BytesView(bytes))) {
      accepted.push_back(bytes);
    } else {
      ++shed;
    }
  }
  // Deterministic: with the worker stalled, exactly max_batches one-packet
  // batches get in flight; every later push is shed at admission.
  EXPECT_EQ(accepted.size(), ingest.max_batches);
  EXPECT_EQ(shed, stream.size() - ingest.max_batches);
  EXPECT_EQ(pipeline.packets_shed(), shed);
  EXPECT_LE(pipeline.batches_allocated(), ingest.max_batches)
      << "shed must bound memory";
  ASSERT_NE(inst.ingest_instruments().shed, nullptr);
  EXPECT_EQ(inst.ingest_instruments().shed->value(), shed);

  stall.release.store(true);
  pipeline.drain();
  ASSERT_EQ(results.size(), accepted.size());

  // The accepted subset is byte-identical to scanning exactly those packets
  // sequentially — shedding whole packets at admission never corrupts the
  // results of packets that got in.
  DpiInstance reference("shed-ref", InstanceConfig{});
  reference.load_engine(engine, 1);
  std::vector<dpi::ScanResult> expected;
  for (const Bytes& payload : accepted) {
    expected.push_back(reference.scan(2, flow, BytesView(payload)));
  }
  EXPECT_EQ(serialize(results), serialize(expected));
  ASSERT_NE(serialize(expected).find("m2{0@"), std::string::npos)
      << "straddling match must appear in the accepted subset";

  // The backpressure counters surface in the instance's stats snapshot.
  const std::string stats = json::dump(inst.stats_json());
  EXPECT_NE(stats.find("backpressure_shed"), std::string::npos);
  EXPECT_NE(stats.find("\"overload_policy\":\"shed\""), std::string::npos);
}

TEST(IngestOverload, BlockBoundsMemoryAndDeliversEverything) {
  const auto engine = test_engine();
  InstanceConfig config;
  config.num_workers = 2;
  config.queue_capacity = 8;
  config.overload = OverloadPolicy::kBlock;
  DpiInstance inst("block", config);
  inst.load_engine(engine, 1);
  const net::FiveTuple flow = flow_on_shard(inst, 0);

  StallCtx stall;
  inst.scan_pool().submit_blocking(0, &stall_job, &stall, 0);
  while (!stall.running.load()) std::this_thread::yield();

  IngestConfig ingest;
  ingest.batch_packets = 1;
  ingest.max_batches = 3;
  std::vector<dpi::ScanResult> results;
  IngestPipeline pipeline(
      inst,
      [&](const BatchHandle& batch) {
        for (const auto& r : batch.results()) results.push_back(r);
      },
      ingest);

  std::vector<Bytes> payloads;
  Rng rng(99);
  for (int i = 0; i < 30; ++i) {
    std::string s = "pkt" + std::to_string(i) + " ";
    switch (rng.index(3)) {
      case 0: s += "splitpattern"; break;
      case 1: s += "virus"; break;
      default: s += "noise"; break;
    }
    payloads.push_back(to_bytes(s));
  }

  // The producer outruns the stalled shard and must block, not allocate.
  std::thread producer([&] {
    for (const Bytes& payload : payloads) {
      ASSERT_TRUE(pipeline.push(2, flow, BytesView(payload)))
          << "kBlock never sheds";
    }
  });
  const obs::Counter* blocked = inst.ingest_instruments().blocked;
  ASSERT_NE(blocked, nullptr);
  while (blocked->value() == 0) std::this_thread::yield();
  stall.release.store(true);
  producer.join();
  pipeline.drain();

  EXPECT_GE(blocked->value(), 1u) << "backpressure stall must be counted";
  EXPECT_EQ(pipeline.packets_shed(), 0u);
  EXPECT_EQ(pipeline.packets_pushed(), payloads.size());
  // batches_allocated is monotonic here (trimming needs leases past the
  // cap, which this sink never takes), so the final value is the high-water
  // mark: the producer blocked instead of allocating a fourth batch.
  EXPECT_LE(pipeline.batches_allocated(), ingest.max_batches)
      << "kBlock must bound memory while the producer waits";

  DpiInstance reference("block-ref", InstanceConfig{});
  reference.load_engine(engine, 1);
  std::vector<dpi::ScanResult> expected;
  for (const Bytes& payload : payloads) {
    expected.push_back(reference.scan(2, flow, BytesView(payload)));
  }
  ASSERT_EQ(results.size(), payloads.size());
  EXPECT_EQ(serialize(results), serialize(expected))
      << "results under backpressure must stay byte-identical";
}

// --- process_batch ≡ process -------------------------------------------------

std::string serialize_output(const ProcessOutput& out) {
  std::ostringstream s;
  s << std::string(out.data.payload.begin(), out.data.payload.end()) << "|"
    << (out.data.has_match_mark() ? "M" : "-") << "|"
    << (out.data.service_header ? "H" : "-") << "|" << out.had_matches << "|";
  if (out.result) {
    s << "R" << out.result->service_header->metadata.size();
  }
  return s.str();
}

TEST(ProcessBatch, MatchesPerPacketProcess) {
  const auto engine = test_engine();
  const auto trace = make_trace(6);

  auto make_packet = [](const TracePacket& p, bool tagged) {
    net::Packet packet;
    packet.tuple = p.flow;
    packet.payload = p.payload;
    if (tagged) {
      packet.push_tag(net::TagKind::kPolicyChain,
                      static_cast<std::uint32_t>(p.chain));
    }
    return packet;
  };

  InstanceConfig seq_config;  // workers=1: the per-packet reference
  DpiInstance seq("seq", seq_config);
  seq.load_engine(engine, 1);
  InstanceConfig batch_config;
  batch_config.num_workers = 4;
  DpiInstance batched("batched", batch_config);
  batched.load_engine(engine, 1);

  std::vector<std::string> expected;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    // Every 7th packet untagged: the pass-through path must batch too.
    expected.push_back(
        serialize_output(seq.process(make_packet(trace[i], i % 7 != 0))));
  }

  std::vector<std::string> got;
  const std::size_t kBatch = 16;
  for (std::size_t base = 0; base < trace.size(); base += kBatch) {
    std::vector<net::Packet> packets;
    for (std::size_t i = base; i < std::min(base + kBatch, trace.size());
         ++i) {
      packets.push_back(make_packet(trace[i], i % 7 != 0));
    }
    for (ProcessOutput& out : batched.process_batch(std::move(packets))) {
      got.push_back(serialize_output(out));
    }
  }
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "packet " << i;
  }
  EXPECT_EQ(batched.telemetry().packets, seq.telemetry().packets);
}

// The staged bucket body under every stage it has: defrag, reassembly and
// decompress-once on; a stateful regex middlebox beside a stateless one;
// reordered, fragmented and gzip-bodied TCP flows plus untagged traffic.
// process_batch at 1, 2 and 4 workers must emit the per-packet path's
// packets byte for byte (wire images, so tags, ECN and the full result
// metadata are compared) and keep the same telemetry and shard counters.

std::shared_ptr<const dpi::Engine> staged_engine() {
  dpi::EngineSpec spec;
  dpi::MiddleboxProfile ids;
  ids.id = 1;
  ids.name = "ids";  // stateless
  dpi::MiddleboxProfile rx;
  rx.id = 2;
  rx.name = "rx";
  rx.stateful = true;
  spec.middleboxes = {ids, rx};
  spec.exact_patterns = {
      dpi::ExactPatternSpec{"evil", 1, 0},
      dpi::ExactPatternSpec{"GET /", 1, 1},
      dpi::ExactPatternSpec{"splitpattern", 2, 0},
  };
  spec.regex_patterns = {dpi::RegexPatternSpec{"evil[a-z]*virus", 2, 1}};
  spec.chains[1] = {1};     // stateless chain
  spec.chains[2] = {1, 2};  // stateful chain with the regex
  return dpi::Engine::compile(spec);
}

/// Eighteen TCP flows, a third each reordered, IP-fragmented, and carrying a
/// gzip member per segment, interleaved at random (per-flow order kept),
/// plus an untagged UDP flow.
std::vector<net::Packet> staged_trace() {
  Rng rng(1606);
  std::vector<std::vector<net::Packet>> flows;
  for (std::uint8_t f = 0; f < 18; ++f) {
    const net::FiveTuple tuple{net::Ipv4Addr(10, 2, f, 1),
                               net::Ipv4Addr(10, 3, 0, 1),
                               static_cast<std::uint16_t>(2000 + f), 80,
                               net::IpProto::kTcp};
    std::string text = "GET /p" + std::to_string(f) + " ";
    for (int i = 0; i < 12; ++i) {
      switch (rng.index(5)) {
        case 0: text += "splitpattern"; break;
        case 1: text += "evilxyzvirus"; break;
        case 2: text += "evil"; break;
        case 3: text += "virus"; break;
        default:
          for (std::size_t j = 0; j < 1 + rng.index(12); ++j) {
            text.push_back(static_cast<char>('a' + rng.index(26)));
          }
      }
    }
    const Bytes stream = to_bytes(text);
    std::vector<net::Packet> packets;
    if (f % 3 == 2) {
      // One gzip member per in-order segment: decompress-once inflates
      // each released chunk before the scan.
      std::uint32_t seq = 5000u * f;
      for (std::size_t at = 0; at < stream.size(); at += 24) {
        const std::size_t take = std::min<std::size_t>(24, stream.size() - at);
        net::Packet packet;
        packet.tuple = tuple;
        packet.tcp_seq = seq;
        packet.ip_id = static_cast<std::uint16_t>(at);
        packet.payload = compress::gzip_compress(
            BytesView(stream.data() + at, take));
        seq += static_cast<std::uint32_t>(packet.payload.size());
        packets.push_back(std::move(packet));
      }
    } else {
      workload::EvasionSpec spec;
      spec.seed = 100 + f;
      spec.initial_seq = 7000u * f;
      spec.segment_bytes = f % 3 == 1 ? 40 : 7;
      spec.shuffle = f % 3 == 0;
      spec.fragment_payload = f % 3 == 1 ? 16 : 0;
      spec.fragment_reverse = f % 2 == 1;
      spec.first_ip_id = static_cast<std::uint16_t>(100 * f + 1);
      packets = workload::make_evasion_trace(tuple, stream, spec).packets;
    }
    for (net::Packet& packet : packets) {
      packet.push_tag(net::TagKind::kPolicyChain, f % 2 == 0 ? 2u : 1u);
    }
    flows.push_back(std::move(packets));
  }
  std::vector<net::Packet> untagged;
  for (int i = 0; i < 6; ++i) {
    net::Packet packet;
    packet.tuple = net::FiveTuple{net::Ipv4Addr(10, 9, 9, 9),
                                  net::Ipv4Addr(10, 3, 0, 1), 53, 5353,
                                  net::IpProto::kUdp};
    packet.payload = to_bytes("evil untagged " + std::to_string(i));
    untagged.push_back(std::move(packet));
  }
  flows.push_back(std::move(untagged));

  std::vector<std::size_t> next(flows.size(), 0);
  std::vector<net::Packet> trace;
  for (;;) {
    std::vector<std::size_t> pending;
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (next[f] < flows[f].size()) pending.push_back(f);
    }
    if (pending.empty()) break;
    const std::size_t f = pending[rng.index(pending.size())];
    trace.push_back(flows[f][next[f]++]);
  }
  return trace;
}

std::string wire_image(const ProcessOutput& out) {
  std::ostringstream s;
  const Bytes data = out.data.to_wire();
  s << out.had_matches << "|" << std::string(data.begin(), data.end());
  if (out.result) {
    const Bytes result = out.result->to_wire();
    s << "|R" << std::string(result.begin(), result.end());
  }
  return s.str();
}

/// Summed shard<i>.<suffix> counter.
double shard_counter(const DpiInstance& inst, const std::string& suffix) {
  const json::Value snap = inst.metrics().snapshot();
  double total = 0;
  for (std::size_t i = 0; i < inst.num_shards(); ++i) {
    total += snap.at("counters")
                 .at("shard" + std::to_string(i) + "." + suffix)
                 .as_number();
  }
  return total;
}

TEST(ProcessBatch, StagedBucketMatchesPerPacketWithEveryStage) {
  const auto engine = staged_engine();
  const std::vector<net::Packet> trace = staged_trace();
  ASSERT_GT(trace.size(), 150u);

  for (const ResultMode mode :
       {ResultMode::kDedicatedPacket, ResultMode::kServiceHeader}) {
    InstanceConfig config;
    config.result_mode = mode;
    config.reassemble_tcp = true;
    config.defragment_ip = true;
    config.decompress_payloads = true;
    const std::string label_mode =
        mode == ResultMode::kServiceHeader ? "header" : "dedicated";

    DpiInstance ref("ref", config);  // one worker, packet by packet
    ref.load_engine(engine, 1);
    std::vector<std::string> expected;
    for (const net::Packet& packet : trace) {
      expected.push_back(wire_image(ref.process(packet)));
    }
    const InstanceTelemetry rt = ref.telemetry();
    ASSERT_GT(rt.match_packets, 0u);
    ASSERT_GT(rt.reassembly_held, 0u) << "trace must reorder segments";
    ASSERT_GT(rt.defrag_held, 0u) << "trace must fragment datagrams";
    ASSERT_GT(rt.decompressed_packets, 0u) << "trace must inflate bodies";
    ASSERT_GT(rt.pass_through, 0u);
    ASSERT_GT(shard_counter(ref, "regex_matches"), 0);

    for (const std::size_t workers : {1u, 2u, 4u}) {
      const std::string label =
          label_mode + " workers=" + std::to_string(workers);
      InstanceConfig batch_config = config;
      batch_config.num_workers = workers;
      DpiInstance batched("batched", batch_config);
      batched.load_engine(engine, 1);
      std::vector<std::string> got;
      const std::size_t kBatch = 64;
      for (std::size_t base = 0; base < trace.size(); base += kBatch) {
        std::vector<net::Packet> packets(
            trace.begin() + static_cast<std::ptrdiff_t>(base),
            trace.begin() + static_cast<std::ptrdiff_t>(
                                std::min(base + kBatch, trace.size())));
        for (const ProcessOutput& out :
             batched.process_batch(std::move(packets))) {
          got.push_back(wire_image(out));
        }
      }
      ASSERT_EQ(got.size(), expected.size()) << label;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], expected[i]) << label << " packet " << i;
      }

      const InstanceTelemetry bt = batched.telemetry();
      EXPECT_EQ(bt.packets, rt.packets) << label;
      EXPECT_EQ(bt.bytes, rt.bytes) << label;
      EXPECT_EQ(bt.raw_hits, rt.raw_hits) << label;
      EXPECT_EQ(bt.match_packets, rt.match_packets) << label;
      EXPECT_EQ(bt.result_bytes, rt.result_bytes) << label;
      EXPECT_EQ(bt.pass_through, rt.pass_through) << label;
      EXPECT_EQ(bt.decompressed_packets, rt.decompressed_packets) << label;
      EXPECT_EQ(bt.decompressed_bytes, rt.decompressed_bytes) << label;
      EXPECT_EQ(bt.reassembly_held, rt.reassembly_held) << label;
      EXPECT_EQ(bt.defrag_held, rt.defrag_held) << label;
      EXPECT_EQ(bt.flow_evictions, rt.flow_evictions) << label;
      const auto rc = ref.chain_telemetry();
      const auto bc = batched.chain_telemetry();
      ASSERT_EQ(bc.size(), rc.size()) << label;
      for (const auto& [chain, counters] : rc) {
        ASSERT_EQ(bc.count(chain), 1u) << label << " chain " << chain;
        EXPECT_EQ(bc.at(chain).packets, counters.packets) << label;
        EXPECT_EQ(bc.at(chain).bytes, counters.bytes) << label;
        EXPECT_EQ(bc.at(chain).raw_hits, counters.raw_hits) << label;
      }
      for (const char* suffix :
           {"packets", "bytes", "raw_hits", "match_packets", "anchor_hits",
            "regex_evals", "regex_matches", "flow_evictions", "pass_through",
            "defrag_held", "reassembly_held", "decompressed_packets",
            "decompressed_bytes", "result_bytes",
            "decompress.fallback.corrupt"}) {
        EXPECT_EQ(shard_counter(batched, suffix), shard_counter(ref, suffix))
            << label << " shard*." << suffix;
      }
      EXPECT_EQ(json::dump(json::Value(batched.evasion_json())),
                json::dump(json::Value(ref.evasion_json())))
          << label;

      std::uint64_t runs = 0;
      std::uint64_t run_packets = 0;
      for (std::size_t i = 0; i < workers; ++i) {
        const auto* h = batched.metrics().find_histogram(
            "shard" + std::to_string(i) + ".scan_run_packets");
        ASSERT_NE(h, nullptr);
        runs += h->count();
        run_packets += h->sum();
      }
      EXPECT_EQ(run_packets, rt.packets) << label;
      EXPECT_LT(runs, run_packets)
          << label << ": process_batch formed no run longer than one packet";
    }
  }
}

// telemetry() is a view of the shard<i>.* registry counters, not a record of
// its own: every field is the sum of its counters, busy_seconds is the
// summed scan_ns time, and reset_telemetry() moves a base, not the registry.
TEST(ProcessBatch, TelemetryIsAViewOfShardCounters) {
  InstanceConfig config;
  config.num_workers = 2;
  config.reassemble_tcp = true;
  config.defragment_ip = true;
  config.decompress_payloads = true;
  DpiInstance inst("view", config);
  inst.load_engine(staged_engine(), 1);
  const std::vector<net::Packet> trace = staged_trace();
  const std::size_t kBatch = 64;
  for (std::size_t base = 0; base < trace.size(); base += kBatch) {
    (void)inst.process_batch(std::vector<net::Packet>(
        trace.begin() + static_cast<std::ptrdiff_t>(base),
        trace.begin() + static_cast<std::ptrdiff_t>(
                            std::min(base + kBatch, trace.size()))));
  }

  const InstanceTelemetry t = inst.telemetry();
  const std::pair<std::uint64_t, const char*> fields[] = {
      {t.packets, "packets"},
      {t.bytes, "bytes"},
      {t.raw_hits, "raw_hits"},
      {t.match_packets, "match_packets"},
      {t.result_bytes, "result_bytes"},
      {t.pass_through, "pass_through"},
      {t.decompressed_packets, "decompressed_packets"},
      {t.decompressed_bytes, "decompressed_bytes"},
      {t.reassembly_held, "reassembly_held"},
      {t.defrag_held, "defrag_held"},
      {t.flow_evictions, "flow_evictions"},
  };
  for (const auto& [value, suffix] : fields) {
    EXPECT_EQ(static_cast<double>(value), shard_counter(inst, suffix))
        << suffix;
  }
  for (const char* stage : {"packets", "match_packets", "result_bytes",
                            "pass_through", "decompressed_packets",
                            "reassembly_held", "defrag_held"}) {
    EXPECT_GT(shard_counter(inst, stage), 0) << stage;
  }
  std::uint64_t scan_ns = 0;
  for (std::size_t i = 0; i < inst.num_shards(); ++i) {
    scan_ns += inst.metrics()
                   .find_histogram("shard" + std::to_string(i) + ".scan_ns")
                   ->sum();
  }
  EXPECT_GT(scan_ns, 0u);
  EXPECT_DOUBLE_EQ(t.busy_seconds, static_cast<double>(scan_ns) * 1e-9);

  const InstanceTelemetry window = inst.reset_telemetry();
  EXPECT_EQ(window.packets, t.packets);
  EXPECT_EQ(window.result_bytes, t.result_bytes);
  const InstanceTelemetry after = inst.telemetry();
  for (const std::uint64_t v :
       {after.packets, after.bytes, after.raw_hits, after.match_packets,
        after.result_bytes, after.pass_through, after.decompressed_packets,
        after.decompressed_bytes, after.reassembly_held, after.defrag_held,
        after.flow_evictions}) {
    EXPECT_EQ(v, 0u);
  }
  EXPECT_EQ(after.busy_seconds, 0.0);
  EXPECT_TRUE(inst.chain_telemetry().empty());
  // The registry stays monotonic.
  for (const auto& [value, suffix] : fields) {
    EXPECT_EQ(static_cast<double>(value), shard_counter(inst, suffix))
        << suffix;
  }
}

// --- batched InstanceNode through the fabric ---------------------------------

class RecorderNode : public netsim::Node {
 public:
  using Node::Node;
  void receive(net::Packet packet, const netsim::NodeId&) override {
    std::ostringstream s;
    s << std::string(packet.payload.begin(), packet.payload.end()) << "|"
      << (packet.has_match_mark() ? "M" : "-") << "|"
      << (packet.service_header
              ? std::to_string(packet.service_header->service_path_id)
              : "-");
    got.push_back(s.str());
  }
  std::vector<std::string> got;
};

TEST(InstanceNodeBatched, SameEmissionSequenceAsPerPacket) {
  const auto engine = test_engine();
  const auto trace = make_trace(6);

  auto run_mode = [&](std::size_t batch_packets) {
    InstanceConfig config;
    config.num_workers = batch_packets == 0 ? 1 : 2;
    auto instance = std::make_shared<DpiInstance>(
        "node" + std::to_string(batch_packets), config);
    instance->load_engine(engine, 1);
    netsim::Fabric fabric;
    auto& recorder = fabric.add_node<RecorderNode>("drv");
    auto& node =
        fabric.add_node<InstanceNode>("dpi", instance, batch_packets);
    fabric.connect("drv", "dpi");
    for (const TracePacket& p : trace) {
      net::Packet packet;
      packet.tuple = p.flow;
      packet.payload = p.payload;
      packet.push_tag(net::TagKind::kPolicyChain,
                      static_cast<std::uint32_t>(p.chain));
      fabric.send("drv", "dpi", std::move(packet));
    }
    fabric.run();
    EXPECT_EQ(node.pending_packets(), 0u)
        << "on_idle must flush the partial batch";
    return recorder.got;
  };

  const auto per_packet = run_mode(0);
  ASSERT_GT(per_packet.size(), trace.size())
      << "matches must produce dedicated result packets";
  // Batch size 5 does not divide the trace: the tail relies on on_idle.
  ASSERT_NE(trace.size() % 5, 0u);
  EXPECT_EQ(run_mode(5), per_packet);
  EXPECT_EQ(run_mode(64), per_packet);
}

// --- Middlebox::apply_report_batch -------------------------------------------

TEST(MiddleboxBatch, ApplyReportBatchMatchesPerPacket) {
  const auto engine = test_engine();
  const auto trace = make_trace(6);

  auto make_box = [] {
    dpi::MiddleboxProfile profile;
    profile.id = 1;
    profile.name = "ids";
    auto box = std::make_unique<mbox::Middlebox>(profile);
    box->add_rule(mbox::RuleSpec{0, "evil", mbox::Verdict::kDrop, "evil", "",
                                 false, 0});
    box->add_rule(mbox::RuleSpec{1, "get", mbox::Verdict::kShape, "GET /", "",
                                 false, 0});
    return box;
  };

  std::vector<net::FiveTuple> flows;
  std::vector<dpi::ScanResult> results;
  std::map<std::uint64_t, dpi::FlowCursor> cursors;
  for (const TracePacket& p : trace) {
    dpi::FlowCursor& cursor = cursors[p.flow.canonical().hash()];
    auto result = engine->scan_packet(p.chain, BytesView(p.payload), cursor);
    if (engine->chain_stateful(p.chain)) cursor = result.cursor;
    flows.push_back(p.flow);
    results.push_back(std::move(result));
  }

  auto batch_box = make_box();
  const std::vector<mbox::Verdict> batch_verdicts =
      batch_box->apply_report_batch(flows, results);

  auto ref_box = make_box();
  std::vector<mbox::Verdict> expected;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    net::Packet packet;
    packet.tuple = flows[i];
    packet.payload = trace[i].payload;
    const std::vector<net::MatchEntry>* entries = nullptr;
    for (const dpi::MiddleboxMatches& m : results[i].matches) {
      if (m.middlebox == 1) {
        entries = &m.entries;
        break;
      }
    }
    expected.push_back(entries == nullptr
                           ? ref_box->apply_report_entries(packet, {})
                           : ref_box->apply_report_entries(packet, *entries));
  }

  ASSERT_EQ(batch_verdicts.size(), expected.size());
  EXPECT_TRUE(std::count(expected.begin(), expected.end(),
                         mbox::Verdict::kDrop) > 0)
      << "trace must trigger at least one drop verdict";
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(batch_verdicts[i], expected[i]) << "packet " << i;
  }
  EXPECT_EQ(batch_box->packets_processed(), ref_box->packets_processed());
  EXPECT_EQ(batch_box->total_rule_hits(), ref_box->total_rule_hits());
  EXPECT_EQ(batch_box->hits_by_rule(), ref_box->hits_by_rule());
}

TEST(MiddleboxBatch, ApplyReportBatchValidatesSizes) {
  dpi::MiddleboxProfile profile;
  profile.id = 1;
  mbox::Middlebox box(profile);
  std::vector<net::FiveTuple> flows(2);
  std::vector<dpi::ScanResult> results(3);
  EXPECT_THROW(box.apply_report_batch(flows, results), std::invalid_argument);
}

}  // namespace
}  // namespace dpisvc::service
