// DPI service instance (§5, §6.1).
//
// An instance holds a compiled dpi::Engine (swapped atomically when the
// controller pushes a new pattern-set version), a flow table for stateful
// chains, and the result-emission logic of §4.2:
//
//  - ResultMode::kServiceHeader — match results are attached to the data
//    packet as an NSH-like layer in front of the payload (§4.2, option 1);
//  - ResultMode::kDedicatedPacket — results travel in a separate packet
//    emitted right after the data packet, which is what the paper's
//    prototype does ("we decided to send match information ... as a
//    separate packet since POX only implements OpenFlow 1.0");
//  - in both modes the data packet's ECN bit marks "has matches" (§6.1),
//    and "a packet with no matches is always forwarded as is without any
//    modification" (§4.2).
//
// The instance also exports the telemetry MCA² needs (§4.3.1) and supports
// per-flow state export/import for flow migration (§4.3).
//
// Data-plane concurrency (§6 scaling): the instance is sharded. Each shard
// owns a mutex, an engine snapshot (std::shared_ptr<const dpi::Engine>), a
// FlowTable, a TCP reassembler, and its shard<i>.* registry counters. A
// packet's shard is the mixed canonical-tuple hash % num_workers, so both
// directions of a flow — and therefore its stateful cursor — belong to
// exactly one shard and no cross-shard FlowTable locking ever happens.
// scan_batch() / process_batch() partition a packet vector by shard and
// dispatch one job per shard to the ScanPool (worker i ↔ shard i), which
// preserves per-flow packet order for any worker count. The pool's per-worker job rings are fixed-capacity
// (InstanceConfig::queue_capacity), so a stalled shard surfaces as
// backpressure — counted through the ingest.backpressure.* instruments —
// instead of unbounded queue growth. Control-plane operations (engine push,
// migration, telemetry sampling) take shards one at a time — they drain the
// affected shard, not the whole data plane. Lock order: control_mu_ before
// any shard mutex; never two shard mutexes at once.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_safety.hpp"
#include "common/timer.hpp"
#include "compress/inflate.hpp"
#include "dpi/engine.hpp"
#include "dpi/flow_table.hpp"
#include "json/json.hpp"
#include "net/defrag.hpp"
#include "net/packet.hpp"
#include "net/reassembly.hpp"
#include "net/result.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/scan_pool.hpp"

namespace dpisvc::service {

/// service_path_id value marking a dedicated result packet; middleboxes use
/// it to distinguish results from data.
inline constexpr std::uint32_t kResultServicePathId = 0xD715ECFE;

enum class ResultMode {
  kServiceHeader,
  kDedicatedPacket,
  /// §4.2 option 3 ("Big Tap"-style): for chains whose middleboxes are all
  /// read-only, the data packet skips the middlebox path entirely (its
  /// steering tag is popped so it heads straight to the egress) and only
  /// the result packet — produced only when there are matches — follows
  /// the chain to the middleboxes. "As most packets do not contain matches
  /// at all, this option may dramatically reduce traffic load over the
  /// middlebox service chain." Chains with non-read-only members fall back
  /// to dedicated result packets.
  kResultOnly,
};

struct InstanceConfig {
  ResultMode result_mode = ResultMode::kDedicatedPacket;
  net::ReportCodec codec = net::ReportCodec::kUniform6;
  /// Dedicated MCA² instance: tuned for heavy/adversarial traffic (the
  /// controller compiles its engine with the compressed automaton).
  bool dedicated = false;
  /// Decompress-once (§1): gzip/zlib payloads are inflated before the scan
  /// so the heavy decompression runs a single time for all middleboxes on
  /// the chain, instead of once per middlebox. Packets that fail to
  /// decompress are scanned in their raw form.
  bool decompress_payloads = false;
  /// Bound on per-packet decompressed size (bomb protection).
  std::size_t max_decompressed = 1 << 20;
  /// TCP stream reassembly before scanning (§7's "session reconstruction"):
  /// out-of-order segments are buffered and the scan consumes in-order
  /// stream chunks, closing the segmentation-evasion hole. Only affects TCP
  /// packets on known chains.
  bool reassemble_tcp = false;
  /// Reassembly policy knobs (overlap policy, history window, buffering and
  /// stream-table bounds) applied to every shard's FlowReassembler.
  net::ReassemblyConfig reassembly;
  /// IPv4 defragmentation in front of reassembly: fragments are buffered and
  /// the scan path sees whole datagrams, closing the fragmentation-evasion
  /// hole. Only affects fragments of known chains.
  bool defragment_ip = false;
  /// Defragmenter bounds and overlap policy, applied per shard.
  net::DefragConfig defrag;
  /// Deployment group this instance serves (§4.3: "deploy instances that
  /// support only one group and not all the policy chains in the system");
  /// empty = all chains. The controller compiles group-restricted engines.
  std::string group;
  /// Aggregate flow-table capacity, split evenly across shards.
  std::size_t max_flows = 1 << 20;
  /// Data-plane shards / scan-pool workers. 1 (the default) spawns no
  /// threads: scans run inline on the caller, preserving the pre-sharding
  /// single-threaded behavior exactly.
  std::size_t num_workers = 1;
  /// Per-worker job-ring capacity (slots). Bounds the fabric→shard handoff:
  /// a stalled shard holds at most this many queued jobs (the old pool's
  /// deque grew without limit), after which producers block or shed per
  /// `overload`.
  std::size_t queue_capacity = 1024;
  /// Producer behavior on a full shard ring (asynchronous submissions only;
  /// the synchronous scan_batch()/process_batch() dispatches always block —
  /// their callers wait for completion regardless).
  OverloadPolicy overload = OverloadPolicy::kBlock;
  /// ScanTrace ring capacity (structured per-packet event records for
  /// debugging); 0 — the default — disables tracing entirely.
  std::size_t trace_capacity = 0;
};

/// Counters exported to the DPI controller as stress telemetry (§4.3.1).
/// A value type: DpiInstance::telemetry() builds one as a view of the
/// shard<i>.* registry counters, which are the only record.
struct InstanceTelemetry {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t raw_hits = 0;        ///< accepting-state hits during scans
  std::uint64_t match_packets = 0;   ///< packets with at least one match
  std::uint64_t result_bytes = 0;    ///< encoded report bytes emitted
  std::uint64_t pass_through = 0;    ///< packets with no/unknown chain tag
  std::uint64_t decompressed_packets = 0;  ///< payloads inflated before scan
  std::uint64_t decompressed_bytes = 0;    ///< bytes produced by inflation
  std::uint64_t reassembly_held = 0;       ///< packets that released no chunk
  std::uint64_t defrag_held = 0;           ///< fragments awaiting completion
  /// Live stateful cursors lost to FlowTable LRU eviction: the evicted
  /// flow's next packet resumes from the DFA root, so patterns straddling
  /// the eviction point are missed. Non-zero means max_flows is too small
  /// for the offered flow concurrency.
  std::uint64_t flow_evictions = 0;
  double busy_seconds = 0;

  /// The MCA² heavy-traffic signal: accepting-state hits per scanned byte.
  double hits_per_byte() const noexcept {
    return bytes == 0 ? 0.0
                      : static_cast<double>(raw_hits) /
                            static_cast<double>(bytes);
  }

  /// Field-wise sum and difference: the view sums shards and subtracts the
  /// reset base; windowed consumers difference two samples.
  InstanceTelemetry& operator+=(const InstanceTelemetry& other) noexcept;
  InstanceTelemetry& operator-=(const InstanceTelemetry& other) noexcept;
};

/// Per-policy-chain counters; the controller uses these to decide *which*
/// traffic to migrate to dedicated instances under attack (§4.3.1).
struct ChainTelemetry {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t raw_hits = 0;

  double hits_per_byte() const noexcept {
    return bytes == 0 ? 0.0
                      : static_cast<double>(raw_hits) /
                            static_cast<double>(bytes);
  }
};

struct ProcessOutput {
  net::Packet data;
  /// Dedicated result packet (kDedicatedPacket mode, only when matched).
  std::optional<net::Packet> result;
  bool had_matches = false;
};

/// One packet of a scan_batch() submission. The payload view must stay
/// valid until the batch call returns (the ingest pipeline points it into a
/// batch arena, so the bytes are written once at ingress and only ever
/// referenced afterwards).
struct ScanItem {
  dpi::ChainId chain = 0;
  net::FiveTuple flow;
  BytesView payload;
};

/// Batch-granular ingest instruments registered on the instance's metrics
/// registry. The IngestPipeline
/// records into these; they live here so dpisvc_stats finds every
/// backpressure signal in one snapshot.
struct IngestInstruments {
  obs::Counter* shed = nullptr;            ///< packets dropped under kShed
  obs::Counter* blocked = nullptr;         ///< ring-full producer stalls
  obs::Histogram* batch_packets = nullptr; ///< packets per flushed batch
  obs::Histogram* batch_bytes = nullptr;   ///< payload bytes per batch
  obs::Gauge* batches_in_flight = nullptr; ///< batches not yet delivered
};

/// Stable counting sort of a batch by shard: after build(),
/// order[offsets[s] .. offsets[s+1]) lists shard s's item indices in
/// submission order. Stability is what preserves per-flow packet order
/// through the partition. The vectors keep their capacity across builds,
/// so steady-state partitioning allocates nothing.
struct ShardPartition {
  std::vector<std::uint32_t> shard_of;
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> cursor;

  template <typename ShardOf>
  void build(std::size_t n, std::size_t num_shards, ShardOf&& shard_of_fn) {
    shard_of.resize(n);
    offsets.assign(num_shards + 1, 0);
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto s = static_cast<std::uint32_t>(shard_of_fn(i));
      shard_of[i] = s;
      ++offsets[s + 1];
    }
    for (std::size_t s = 0; s < num_shards; ++s) offsets[s + 1] += offsets[s];
    cursor.assign(offsets.begin(), offsets.end() - 1);
    order.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) order[cursor[shard_of[i]]++] = i;
  }
};

class DpiInstance {
 public:
  explicit DpiInstance(std::string name, InstanceConfig config = {});

  const std::string& instance_name() const noexcept { return name_; }
  const InstanceConfig& config() const noexcept { return config_; }
  std::size_t num_shards() const noexcept { return shards_.size(); }

  /// Installs a compiled engine (controller push). Flow tables are cleared:
  /// DFA state ids are only meaningful within one compiled engine, so
  /// stored cursors cannot survive a recompile; affected stateful flows
  /// restart scanning from the root at their next packet. The swap proceeds
  /// shard by shard — scanning continues on shards not yet swapped, and a
  /// shard only ever sees a consistent (engine, flow table) pair.
  void load_engine(std::shared_ptr<const dpi::Engine> engine,
                   std::uint64_t version);

  std::uint64_t engine_version() const;
  bool has_engine() const;
  /// Pins the current engine so callers can inspect it without racing a
  /// concurrent load_engine() dropping the last reference.
  std::shared_ptr<const dpi::Engine> engine_snapshot() const;
  const dpi::Engine* engine() const { return engine_snapshot().get(); }

  /// Full data-plane processing of one packet: resolves the policy-chain
  /// tag, scans, annotates/marks, and produces result output per the
  /// configured mode. Packets without a known chain tag pass through
  /// untouched. Thread-safe; packets of distinct shards process in
  /// parallel.
  ProcessOutput process(net::Packet packet);

  /// Batched counterpart of process(): partitions the packets by shard and
  /// runs each shard's bucket through the same staged body as process() —
  /// one shard-lock acquisition and one pool job per shard, not per packet,
  /// with the caller running one bucket itself. Same-chain packets of a
  /// bucket are scanned as runs on the interleaved walk. Outputs come back
  /// in submission order, and per-flow processing order is preserved, so
  /// the outputs are identical to calling process() on each packet in
  /// turn.
  std::vector<ProcessOutput> process_batch(std::vector<net::Packet> packets);

  /// Scan-only fast path used by throughput benches: no packet object
  /// overhead, still updates telemetry and flow state. Thread-safe.
  dpi::ScanResult scan(dpi::ChainId chain, const net::FiveTuple& flow,
                       BytesView payload);

  /// Batched ingest: partitions the items by shard and scans each shard's
  /// share on its pool worker (inline when num_workers == 1). Results are
  /// returned in submission order. Packets of one flow always land on the
  /// same shard and are scanned in submission order, so the match sets are
  /// identical for every worker count.
  std::vector<dpi::ScanResult> scan_batch(const std::vector<ScanItem>& items);

  /// Scans `count` items selected by `indices` — all of which must belong
  /// to shard `shard` — under that shard's lock, writing each result to
  /// out[indices[k]]. Consecutive same-chain items form runs (see
  /// scan_runs). scan_batch() and the asynchronous ingest path call
  /// this from per-shard pool jobs.
  void scan_bucket(std::size_t shard, const std::vector<ScanItem>& items,
                   const std::uint32_t* indices, std::size_t count,
                   std::vector<dpi::ScanResult>& out);

  /// Shard owning `flow` (mixed canonical-hash placement). Public so the
  /// ingest pipeline can partition batches and tests can target — or
  /// deliberately stall — a specific shard's worker.
  std::size_t shard_of_flow(const net::FiveTuple& flow) const noexcept {
    return shard_index(flow);
  }

  /// The data-plane worker pool. The ingest pipeline submits its per-shard
  /// batch jobs here; job order per worker is FIFO, which extends the
  /// per-flow ordering guarantee across batches.
  ScanPool& scan_pool() noexcept { return pool_; }

  /// Batch-granular ingest instruments.
  const IngestInstruments& ingest_instruments() const noexcept {
    return ingest_obs_;
  }

  /// Telemetry accessors aggregate per-shard counters sampled under the
  /// shard locks, so the controller's monitor thread can read while
  /// scanners are running. telemetry() is a view of the shard<i>.*
  /// registry counters (busy_seconds: the shard<i>.scan_ns sums), minus
  /// the base the last reset_telemetry() recorded.
  InstanceTelemetry telemetry() const;
  std::map<dpi::ChainId, ChainTelemetry> chain_telemetry() const;

  /// Snapshot-and-reset: per shard, under the shard mutex, returns the
  /// counts since the previous reset and moves the shard's base up to the
  /// current totals (the per-chain map is cleared). A windowed consumer
  /// never loses counts to a concurrent scan — every packet lands either in
  /// the returned snapshot or in the next window. The obs registry itself
  /// stays monotonic.
  InstanceTelemetry reset_telemetry();

  /// Obs layer: per-shard instruments (shard<i>.* counters, scan-latency
  /// and pool queue-wait histograms) and the optional scan trace ring.
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }
  const obs::ScanTrace& trace() const noexcept { return trace_; }

  /// Aggregate reassembly counters summed over every shard's
  /// FlowReassembler (ambiguity, eviction, and teardown counts included).
  net::ReassemblyStats reassembly_stats() const;

  /// Aggregate defragmentation counters summed over every shard.
  net::DefragStats defrag_stats() const;

  /// The "reassembly" (with the overlap policy) and "defrag" blocks of
  /// stats_json(), built from the two stats blocks above; TELEMETRY_REPORT
  /// carries the same blocks.
  json::Object evasion_json() const;

  /// Full machine-readable state: instance identity, engine version,
  /// aggregated telemetry counters, metrics snapshot, and — when tracing is
  /// enabled — the trace ring. This is the payload TELEMETRY_REPORT carries
  /// to the controller and dpisvc_stats renders.
  json::Value stats_json() const;

  std::size_t active_flows() const;

  /// All flows with live scan state, most recently used first within each
  /// shard; the controller walks this during failover to migrate a dead
  /// instance's surviving state (§4.3).
  std::vector<net::FiveTuple> active_flow_keys() const;

  // --- flow migration (§4.3) ----------------------------------------------

  /// Removes and returns the flow's scan state for hand-off to another
  /// instance. Invalid cursor if the flow is unknown. Only the owning shard
  /// is touched; the rest of the data plane keeps scanning.
  dpi::FlowCursor export_flow(const net::FiveTuple& flow);

  /// Installs migrated flow state (engine versions must match between the
  /// source and target instance for the DFA state to be meaningful; the
  /// controller guarantees this by syncing instances first).
  void import_flow(const net::FiveTuple& flow, const dpi::FlowCursor& cursor);

  /// Bulk migration: drains every shard's flow table (shard at a time) and
  /// returns all (flow, cursor) pairs. Failover uses this instead of
  /// per-flow export round trips.
  std::vector<std::pair<net::FiveTuple, dpi::FlowCursor>> export_all_flows();

  /// Bulk counterpart of import_flow(); entries are re-homed onto this
  /// instance's own shards.
  void import_flows(
      const std::vector<std::pair<net::FiveTuple, dpi::FlowCursor>>& flows);

 private:
  /// Per-shard obs instruments, resolved once at construction so the scan
  /// path records through stable pointers without touching the registry.
  /// They are the one record of every event the shard counts.
  struct ShardInstruments {
    obs::Histogram* scan_ns = nullptr;           ///< one record per run
    obs::Histogram* scan_run_packets = nullptr;  ///< packets per run
    obs::Counter* packets = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Counter* raw_hits = nullptr;
    obs::Counter* match_packets = nullptr;
    obs::Counter* anchor_hits = nullptr;
    obs::Counter* regex_evals = nullptr;
    obs::Counter* regex_matches = nullptr;
    obs::Counter* flow_evictions = nullptr;
    obs::Gauge* flow_occupancy = nullptr;
    // Stage events of process().
    obs::Counter* pass_through = nullptr;
    obs::Counter* defrag_held = nullptr;
    obs::Counter* reassembly_held = nullptr;
    obs::Counter* decompressed_packets = nullptr;
    obs::Counter* decompressed_bytes = nullptr;
    obs::Counter* result_bytes = nullptr;
    // Failed inflate attempts whose payload was scanned raw, indexed by
    // compress::InflateFailure (shard<i>.decompress.fallback.<reason>).
    std::array<obs::Counter*, compress::kInflateFailureCount>
        decompress_fallback{};
  };

  /// Everything a data-plane worker touches, under one mutex. Flows are
  /// owned by exactly one shard (canonical-hash placement), so shard
  /// mutexes never nest. `obs` and `index` are written once at construction
  /// (before any worker exists) and read-only afterwards, so they stay
  /// unguarded; everything the scan path mutates is GUARDED_BY(mu).
  struct Shard {
    mutable Mutex mu;
    std::shared_ptr<const dpi::Engine> engine DPISVC_GUARDED_BY(mu);
    dpi::FlowTable flows DPISVC_GUARDED_BY(mu);
    net::FlowReassembler reassembler DPISVC_GUARDED_BY(mu);
    net::IpDefragmenter defrag DPISVC_GUARDED_BY(mu);
    std::map<dpi::ChainId, ChainTelemetry> chain_telemetry
        DPISVC_GUARDED_BY(mu);
    /// Counter totals at the last reset_telemetry(); telemetry() reports
    /// the totals minus this base.
    InstanceTelemetry telemetry_base DPISVC_GUARDED_BY(mu);
    ShardInstruments obs;
    std::uint32_t index = 0;

    Shard(std::size_t max_flows, const net::ReassemblyConfig& reassembly,
          const net::DefragConfig& defrag_config)
        : flows(max_flows), reassembler(reassembly), defrag(defrag_config) {}
  };

  Shard& shard_of(const net::FiveTuple& flow) noexcept {
    return *shards_[shard_index(flow)];
  }
  std::size_t shard_index(const net::FiveTuple& flow) const noexcept {
    // FNV-1a's low bits depend only on the low bits of each tuple byte, so
    // a bare modulo piles sequentially numbered flows onto a few shards.
    // The 64-bit finalizer (MurmurHash3 fmix64) spreads every bit first.
    std::uint64_t h = flow.canonical().hash();
    h = (h ^ (h >> 33)) * 0xff51afd7ed558ccdULL;
    h = (h ^ (h >> 33)) * 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return static_cast<std::size_t>(h % shards_.size());
  }

  /// The shard's counter totals, read under its mutex so a reset base
  /// and the totals it is subtracted from stay consistent.
  static InstanceTelemetry shard_totals(const Shard& shard)
      DPISVC_REQUIRES(shard.mu);
  net::MatchReport build_report(dpi::ChainId chain, std::uint64_t packet_ref,
                                dpi::ScanResult&& scan) const;
  std::optional<Bytes> maybe_decompress(const ShardInstruments& obs,
                                        BytesView payload) const;
  /// The one scan body, shared by scan(), process() and scan_bucket():
  /// scans the same-chain run items[indices[0..count)] and writes each
  /// result to out[indices[k]]. Cursor lookup and update, eviction
  /// counting, telemetry, obs and trace events all live here. A run of one
  /// takes the engine's single-lane walk; a longer run goes through
  /// Engine::scan_batch, whose results are byte-identical to scanning it
  /// sequentially. A longer stateful run must hold distinct flows and fit
  /// the flow table without eviction (scan_runs forms runs that way). The
  /// caller must hold shard.mu (compiler-enforced under
  /// DPISVC_THREAD_SAFETY).
  void scan_run_on_shard(Shard& shard, const ScanItem* items,
                         const std::uint32_t* indices, std::size_t count,
                         dpi::ScanResult* out) DPISVC_REQUIRES(shard.mu);
  /// Splits items[indices[0..count)] into same-chain runs of at most
  /// kMaxRun and scans each with scan_run_on_shard. A stateful run breaks
  /// before a flow it already holds and forms only while the flow table
  /// cannot evict, so results equal a one-at-a-time scan.
  void scan_runs(Shard& shard, const ScanItem* items,
                 const std::uint32_t* indices, std::size_t count,
                 dpi::ScanResult* out) DPISVC_REQUIRES(shard.mu);
  /// The one per-packet process body, over the bucket
  /// packets[indices[0..count)] of one shard (process() passes a bucket of
  /// one). Three stages: stage each packet in (tag lookup, defrag,
  /// reassembly, decompress-once); scan the packets that survive through
  /// scan_runs, so same-chain runs take the interleaved walk; emit each
  /// packet in bucket order (result-only tag pop, report encode, ECN mark,
  /// result packet) into out[indices[k]].
  void process_bucket(Shard& shard, net::Packet* packets,
                      const std::uint32_t* indices, std::size_t count,
                      ProcessOutput* out) DPISVC_REQUIRES(shard.mu);
  /// Emit stage of process_bucket for one scanned packet.
  void emit(Shard& shard, dpi::ChainId chain, net::Packet& packet,
            dpi::ScanResult&& scanned, ProcessOutput& out)
      DPISVC_REQUIRES(shard.mu);
  /// ScanPool::JobFn trampolines for the batched entry points: plain
  /// function pointer + context struct, so a steady-state batch dispatch
  /// allocates nothing (the old path heap-allocated a std::function per
  /// shard per batch).
  static void scan_batch_job(void* ctx, std::size_t shard);
  static void process_batch_job(void* ctx, std::size_t shard);
  static ScanPool::Instruments make_pool_instruments(
      obs::MetricsRegistry& metrics, const InstanceConfig& config);

  std::string name_;
  InstanceConfig config_;
  /// Declared before shards_/pool_: shard instruments and the pool's
  /// queue-wait histogram point into the registry.
  obs::MetricsRegistry metrics_;
  obs::ScanTrace trace_;
  /// Control-plane lock: engine pushes and the canonical engine/version
  /// snapshot. Acquired before any shard mutex, never after one.
  mutable Mutex control_mu_;
  std::shared_ptr<const dpi::Engine> engine_ DPISVC_GUARDED_BY(control_mu_);
  std::uint64_t engine_version_ DPISVC_GUARDED_BY(control_mu_) = 0;
  IngestInstruments ingest_obs_;
  /// Declared before pool_ so workers never outlive the shards they touch.
  std::vector<std::unique_ptr<Shard>> shards_;
  ScanPool pool_;
};

}  // namespace dpisvc::service
