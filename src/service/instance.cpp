#include "service/instance.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "common/invariant.hpp"
#include "common/logging.hpp"
#include "compress/inflate.hpp"

namespace dpisvc::service {

namespace {

/// Longest same-chain run scan_bucket forms: one Engine::scan_batch call.
constexpr std::size_t kMaxRun = 32;

}  // namespace

ScanPool::Instruments DpiInstance::make_pool_instruments(
    obs::MetricsRegistry& metrics, const InstanceConfig& config) {
  ScanPool::Instruments ins;
  ins.queue_wait_ns = &metrics.histogram("pool.queue_wait_ns",
                                         obs::Histogram::latency_bounds_ns());
  ins.blocked = &metrics.counter("ingest.backpressure.blocked");
  ins.blocked_ns = &metrics.histogram("ingest.backpressure.blocked_ns",
                                      obs::Histogram::latency_bounds_ns());
  // 16 evenly spaced fill buckets spanning the configured ring capacity.
  const std::size_t cap = std::max<std::size_t>(config.queue_capacity, 1);
  ins.fill = &metrics.histogram(
      "ingest.queue_fill",
      obs::Histogram::linear_bounds(
          std::max<std::uint64_t>(1, static_cast<std::uint64_t>(cap) / 16),
          16));
  const std::size_t workers = std::max<std::size_t>(config.num_workers, 1);
  if (workers > 1) {
    ins.depth.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      ins.depth.push_back(
          &metrics.gauge("shard" + std::to_string(i) + ".queue_depth"));
    }
  }
  return ins;
}

DpiInstance::DpiInstance(std::string name, InstanceConfig config)
    : name_(std::move(name)),
      config_(config),
      trace_(config.trace_capacity),
      pool_(std::max<std::size_t>(config.num_workers, 1),
            config.queue_capacity, config.overload,
            make_pool_instruments(metrics_, config)) {
  ingest_obs_.shed = &metrics_.counter("ingest.backpressure.shed");
  // Same counter the pool's blocked instrument points at (the registry
  // returns the existing entry): kept here so stats_json can read it.
  ingest_obs_.blocked = &metrics_.counter("ingest.backpressure.blocked");
  ingest_obs_.batch_packets = &metrics_.histogram(
      "ingest.batch_packets", obs::Histogram::linear_bounds(8, 32));
  ingest_obs_.batch_bytes = &metrics_.histogram(
      "ingest.batch_bytes", obs::Histogram::exponential_bounds(1024, 2.0, 16));
  ingest_obs_.batches_in_flight = &metrics_.gauge("ingest.batches_in_flight");
  const std::size_t num_shards = std::max<std::size_t>(config.num_workers, 1);
  const std::size_t per_shard =
      std::max<std::size_t>(config.max_flows / num_shards, 1);
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    auto shard =
        std::make_unique<Shard>(per_shard, config.reassembly, config.defrag);
    shard->index = static_cast<std::uint32_t>(i);
    // Resolve instruments once; the scan path records through these
    // pointers without ever touching the registry mutex.
    const std::string p = "shard" + std::to_string(i) + ".";
    ShardInstruments& o = shard->obs;
    o.scan_ns =
        &metrics_.histogram(p + "scan_ns", obs::Histogram::latency_bounds_ns());
    o.scan_run_packets = &metrics_.histogram(
        p + "scan_run_packets", obs::Histogram::linear_bounds(1, kMaxRun));
    o.packets = &metrics_.counter(p + "packets");
    o.bytes = &metrics_.counter(p + "bytes");
    o.raw_hits = &metrics_.counter(p + "raw_hits");
    o.match_packets = &metrics_.counter(p + "match_packets");
    o.anchor_hits = &metrics_.counter(p + "anchor_hits");
    o.regex_evals = &metrics_.counter(p + "regex_evals");
    o.regex_matches = &metrics_.counter(p + "regex_matches");
    o.flow_evictions = &metrics_.counter(p + "flow_evictions");
    o.flow_occupancy = &metrics_.gauge(p + "flow_occupancy");
    o.pass_through = &metrics_.counter(p + "pass_through");
    o.defrag_held = &metrics_.counter(p + "defrag_held");
    o.reassembly_held = &metrics_.counter(p + "reassembly_held");
    o.decompressed_packets = &metrics_.counter(p + "decompressed_packets");
    o.decompressed_bytes = &metrics_.counter(p + "decompressed_bytes");
    o.result_bytes = &metrics_.counter(p + "result_bytes");
    for (std::size_t r = 0; r < compress::kInflateFailureCount; ++r) {
      o.decompress_fallback[r] = &metrics_.counter(
          p + "decompress.fallback." +
          compress::inflate_failure_name(
              static_cast<compress::InflateFailure>(r)));
    }
    shards_.push_back(std::move(shard));
  }
}

void DpiInstance::load_engine(std::shared_ptr<const dpi::Engine> engine,
                              std::uint64_t version) {
  std::size_t num_states = 0;
  {
    const MutexLock control(control_mu_);
    engine_ = engine;
    engine_version_ = version;
    if (engine_ != nullptr) num_states = engine_->num_automaton_states();
    // Swap shard by shard: scanning continues on shards not yet swapped,
    // and each shard always holds a consistent (engine, flow table) pair.
    // DFA state identifiers are meaningful only within one compiled engine;
    // carrying cursors across a recompile would resume at arbitrary states.
    for (auto& shard : shards_) {
      const MutexLock lock(shard->mu);
      shard->engine = engine;
      shard->flows.clear();
      DPISVC_ASSERT_INVARIANT(shard->flows.size() == 0,
                              "flow table must be empty after an engine swap");
    }
  }
  log(LogLevel::kInfo, name_, "loaded engine v", version, " (", num_states,
      " states)");
}

std::uint64_t DpiInstance::engine_version() const {
  const MutexLock lock(control_mu_);
  return engine_version_;
}

bool DpiInstance::has_engine() const {
  const MutexLock lock(control_mu_);
  return engine_ != nullptr;
}

std::shared_ptr<const dpi::Engine> DpiInstance::engine_snapshot() const {
  const MutexLock lock(control_mu_);
  return engine_;
}

namespace {

/// InstanceTelemetry's event counts, for the field-wise operators.
constexpr std::uint64_t InstanceTelemetry::*kTelemetryCounts[] = {
    &InstanceTelemetry::packets,
    &InstanceTelemetry::bytes,
    &InstanceTelemetry::raw_hits,
    &InstanceTelemetry::match_packets,
    &InstanceTelemetry::result_bytes,
    &InstanceTelemetry::pass_through,
    &InstanceTelemetry::decompressed_packets,
    &InstanceTelemetry::decompressed_bytes,
    &InstanceTelemetry::reassembly_held,
    &InstanceTelemetry::defrag_held,
    &InstanceTelemetry::flow_evictions,
};

}  // namespace

InstanceTelemetry& InstanceTelemetry::operator+=(
    const InstanceTelemetry& other) noexcept {
  for (const auto field : kTelemetryCounts) this->*field += other.*field;
  busy_seconds += other.busy_seconds;
  return *this;
}

InstanceTelemetry& InstanceTelemetry::operator-=(
    const InstanceTelemetry& other) noexcept {
  for (const auto field : kTelemetryCounts) this->*field -= other.*field;
  busy_seconds -= other.busy_seconds;
  return *this;
}

net::ReassemblyStats DpiInstance::reassembly_stats() const {
  net::ReassemblyStats total;
  for (const auto& shard : shards_) {
    const MutexLock lock(shard->mu);
    const net::ReassemblyStats& s = shard->reassembler.stats();
    total.dropped_segments += s.dropped_segments;
    total.duplicate_bytes += s.duplicate_bytes;
    total.ambiguous_overlaps += s.ambiguous_overlaps;
    total.conflicting_overlap_bytes += s.conflicting_overlap_bytes;
    total.stream_evictions += s.stream_evictions;
    total.streams_closed += s.streams_closed;
    total.ignored_fins += s.ignored_fins;
    total.ignored_rsts += s.ignored_rsts;
  }
  return total;
}

net::DefragStats DpiInstance::defrag_stats() const {
  net::DefragStats total;
  for (const auto& shard : shards_) {
    const MutexLock lock(shard->mu);
    const net::DefragStats& s = shard->defrag.stats();
    total.fragments += s.fragments;
    total.datagrams_completed += s.datagrams_completed;
    total.rejected_tiny += s.rejected_tiny;
    total.rejected_bounds += s.rejected_bounds;
    total.ambiguous_fragments += s.ambiguous_fragments;
    total.conflicting_bytes += s.conflicting_bytes;
    total.evicted_incomplete += s.evicted_incomplete;
  }
  return total;
}

json::Object DpiInstance::evasion_json() const {
  const net::ReassemblyStats rs = reassembly_stats();
  json::Object reassembly;
  reassembly["policy"] =
      json::Value(std::string(
          net::overlap_policy_name(config_.reassembly.overlap_policy)));
  reassembly["dropped_segments"] = json::Value(rs.dropped_segments);
  reassembly["duplicate_bytes"] = json::Value(rs.duplicate_bytes);
  reassembly["ambiguous_overlaps"] = json::Value(rs.ambiguous_overlaps);
  reassembly["conflicting_overlap_bytes"] =
      json::Value(rs.conflicting_overlap_bytes);
  reassembly["stream_evictions"] = json::Value(rs.stream_evictions);
  reassembly["streams_closed"] = json::Value(rs.streams_closed);
  reassembly["ignored_fins"] = json::Value(rs.ignored_fins);
  reassembly["ignored_rsts"] = json::Value(rs.ignored_rsts);

  const net::DefragStats ds = defrag_stats();
  json::Object defrag;
  defrag["fragments"] = json::Value(ds.fragments);
  defrag["datagrams_completed"] = json::Value(ds.datagrams_completed);
  defrag["rejected_tiny"] = json::Value(ds.rejected_tiny);
  defrag["rejected_bounds"] = json::Value(ds.rejected_bounds);
  defrag["ambiguous_fragments"] = json::Value(ds.ambiguous_fragments);
  defrag["conflicting_bytes"] = json::Value(ds.conflicting_bytes);
  defrag["evicted_incomplete"] = json::Value(ds.evicted_incomplete);

  json::Object out;
  out["reassembly"] = json::Value(std::move(reassembly));
  out["defrag"] = json::Value(std::move(defrag));
  return out;
}

InstanceTelemetry DpiInstance::shard_totals(const Shard& shard) {
  const ShardInstruments& o = shard.obs;
  InstanceTelemetry t;
  t.packets = o.packets->value();
  t.bytes = o.bytes->value();
  t.raw_hits = o.raw_hits->value();
  t.match_packets = o.match_packets->value();
  t.result_bytes = o.result_bytes->value();
  t.pass_through = o.pass_through->value();
  t.decompressed_packets = o.decompressed_packets->value();
  t.decompressed_bytes = o.decompressed_bytes->value();
  t.reassembly_held = o.reassembly_held->value();
  t.defrag_held = o.defrag_held->value();
  t.flow_evictions = o.flow_evictions->value();
  t.busy_seconds = static_cast<double>(o.scan_ns->sum()) * 1e-9;
  return t;
}

InstanceTelemetry DpiInstance::telemetry() const {
  InstanceTelemetry total;
  for (const auto& shard : shards_) {
    const Shard& s = *shard;
    const MutexLock lock(s.mu);
    InstanceTelemetry t = shard_totals(s);
    t -= s.telemetry_base;
    total += t;
  }
  return total;
}

std::map<dpi::ChainId, ChainTelemetry> DpiInstance::chain_telemetry() const {
  std::map<dpi::ChainId, ChainTelemetry> total;
  for (const auto& shard : shards_) {
    const MutexLock lock(shard->mu);
    for (const auto& [chain, counters] : shard->chain_telemetry) {
      ChainTelemetry& into = total[chain];
      into.packets += counters.packets;
      into.bytes += counters.bytes;
      into.raw_hits += counters.raw_hits;
    }
  }
  return total;
}

InstanceTelemetry DpiInstance::reset_telemetry() {
  // Snapshot-and-reset shard by shard, each under its own mutex: every
  // counter write happens under that mutex too, so a packet being scanned
  // concurrently lands either in the returned snapshot or after the new
  // base — never in both, never in neither.
  InstanceTelemetry total;
  for (auto& shard : shards_) {
    Shard& s = *shard;
    const MutexLock lock(s.mu);
    const InstanceTelemetry now = shard_totals(s);
    InstanceTelemetry window = now;
    window -= s.telemetry_base;
    total += window;
    s.telemetry_base = now;
    s.chain_telemetry.clear();
  }
  return total;
}

json::Value DpiInstance::stats_json() const {
  json::Object root;
  root["instance"] = json::Value(name_);
  root["engine_version"] = json::Value(engine_version());
  root["num_shards"] = json::Value(static_cast<std::uint64_t>(shards_.size()));
  root["active_flows"] = json::Value(static_cast<std::uint64_t>(active_flows()));

  const InstanceTelemetry t = telemetry();
  json::Object counters;
  counters["packets"] = json::Value(t.packets);
  counters["bytes"] = json::Value(t.bytes);
  counters["raw_hits"] = json::Value(t.raw_hits);
  counters["match_packets"] = json::Value(t.match_packets);
  counters["result_bytes"] = json::Value(t.result_bytes);
  counters["pass_through"] = json::Value(t.pass_through);
  counters["decompressed_packets"] = json::Value(t.decompressed_packets);
  counters["decompressed_bytes"] = json::Value(t.decompressed_bytes);
  counters["reassembly_held"] = json::Value(t.reassembly_held);
  counters["defrag_held"] = json::Value(t.defrag_held);
  counters["flow_evictions"] = json::Value(t.flow_evictions);
  counters["busy_seconds"] = json::Value(t.busy_seconds);
  counters["hits_per_byte"] = json::Value(t.hits_per_byte());
  root["telemetry"] = json::Value(std::move(counters));

  for (auto& [key, block] : evasion_json()) root[key] = block;

  // Failed inflate attempts (payload scanned raw), summed over shards.
  json::Object decompress;
  for (std::size_t r = 0; r < compress::kInflateFailureCount; ++r) {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->obs.decompress_fallback[r]->value();
    }
    decompress[std::string("fallback_") +
               compress::inflate_failure_name(
                   static_cast<compress::InflateFailure>(r))] =
        json::Value(total);
  }
  root["decompress"] = json::Value(std::move(decompress));

  json::Object ingest;
  ingest["overload_policy"] =
      json::Value(std::string(overload_policy_name(config_.overload)));
  ingest["queue_capacity"] =
      json::Value(static_cast<std::uint64_t>(config_.queue_capacity));
  ingest["backpressure_blocked"] = json::Value(ingest_obs_.blocked->value());
  ingest["backpressure_shed"] = json::Value(ingest_obs_.shed->value());
  ingest["batches_in_flight"] =
      json::Value(ingest_obs_.batches_in_flight->value());
  root["ingest"] = json::Value(std::move(ingest));

  json::Object chains;
  for (const auto& [chain, ct] : chain_telemetry()) {
    json::Object c;
    c["packets"] = json::Value(ct.packets);
    c["bytes"] = json::Value(ct.bytes);
    c["raw_hits"] = json::Value(ct.raw_hits);
    chains[std::to_string(chain)] = json::Value(std::move(c));
  }
  root["chains"] = json::Value(std::move(chains));

  root["metrics"] = metrics_.snapshot();
  if (trace_.enabled()) {
    root["trace"] = trace_.to_json();
  }
  return json::Value(std::move(root));
}

std::size_t DpiInstance::active_flows() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const MutexLock lock(shard->mu);
    total += shard->flows.size();
  }
  return total;
}

std::vector<net::FiveTuple> DpiInstance::active_flow_keys() const {
  std::vector<net::FiveTuple> out;
  for (const auto& shard : shards_) {
    const MutexLock lock(shard->mu);
    const auto keys = shard->flows.keys();
    out.insert(out.end(), keys.begin(), keys.end());
  }
  return out;
}

dpi::ScanResult DpiInstance::scan(dpi::ChainId chain,
                                  const net::FiveTuple& flow,
                                  BytesView payload) {
  Shard& shard = shard_of(flow);
  if (trace_.enabled()) {
    trace_.record(obs::TraceEvent::kShardDispatch, flow.canonical().hash(), 0,
                  payload.size(), shard.index, chain);
  }
  static constexpr std::uint32_t kOnly = 0;
  const ScanItem item{chain, flow, payload};
  dpi::ScanResult result;
  const MutexLock lock(shard.mu);
  scan_run_on_shard(shard, &item, &kOnly, 1, &result);
  return result;
}

namespace {

/// Context threaded through ScanPool::JobFn for one batched dispatch: the
/// job for shard s covers index range order[offsets[s] .. offsets[s+1]).
/// A plain struct on the dispatcher's stack — the old path heap-allocated a
/// std::function closure per shard per batch.
struct BatchScanCtx {
  DpiInstance* self;
  const std::vector<ScanItem>* items;
  std::vector<dpi::ScanResult>* out;
  const std::uint32_t* order;
  const std::uint32_t* offsets;
};

struct BatchProcessCtx {
  DpiInstance* self;
  std::vector<net::Packet>* packets;
  std::vector<ProcessOutput>* out;
  const std::uint32_t* order;
  const std::uint32_t* offsets;
};

/// Reusable partition scratch. thread_local so concurrent batch callers
/// never share buffers.
ShardPartition& partition_scratch() {
  thread_local ShardPartition scratch;
  return scratch;
}

}  // namespace

std::vector<dpi::ScanResult> DpiInstance::scan_batch(
    const std::vector<ScanItem>& items) {
  std::vector<dpi::ScanResult> out(items.size());
  if (items.empty()) return out;
  ShardPartition& part = partition_scratch();
  part.build(items.size(), shards_.size(),
             [&](std::size_t i) { return shard_index(items[i].flow); });
  BatchScanCtx ctx{this, &items, &out, part.order.data(),
                   part.offsets.data()};
  pool_.dispatch(&DpiInstance::scan_batch_job, &ctx, shards_.size());
  return out;
}

void DpiInstance::scan_batch_job(void* ctx, std::size_t shard) {
  auto* c = static_cast<BatchScanCtx*>(ctx);
  const std::uint32_t begin = c->offsets[shard];
  const std::uint32_t end = c->offsets[shard + 1];
  if (begin == end) return;
  c->self->scan_bucket(shard, *c->items, c->order + begin, end - begin,
                       *c->out);
}

void DpiInstance::scan_bucket(std::size_t shard_idx,
                              const std::vector<ScanItem>& items,
                              const std::uint32_t* indices, std::size_t count,
                              std::vector<dpi::ScanResult>& out) {
  Shard& shard = *shards_[shard_idx];
  if (trace_.enabled()) {
    for (std::size_t k = 0; k < count; ++k) {
      const ScanItem& item = items[indices[k]];
      trace_.record(obs::TraceEvent::kShardDispatch,
                    item.flow.canonical().hash(), 0, item.payload.size(),
                    shard.index, item.chain);
    }
  }
  const MutexLock lock(shard.mu);
  // Distinct indices per bucket: writes to `out` never alias.
  scan_runs(shard, items.data(), indices, count, out.data());
}

void DpiInstance::scan_runs(Shard& shard, const ScanItem* items,
                            const std::uint32_t* indices, std::size_t count,
                            dpi::ScanResult* out) {
  std::size_t pos = 0;
  while (pos < count) {
    // Form a same-chain run. A stateful run additionally (a) breaks before
    // a flow it already contains — each run cursor must see the previous
    // packet's update — and (b) only forms while no LRU eviction is
    // possible (run cursors are looked up before any update; with every
    // run flow distinct and room for all inserts, the flow table ends in
    // the same state as the sequential order, so results stay identical).
    const dpi::ChainId chain = items[indices[pos]].chain;
    const bool stateful =
        shard.engine != nullptr && shard.engine->chain_stateful(chain);
    std::size_t end = pos + 1;
    if (!stateful || shard.flows.size() + kMaxRun <= shard.flows.capacity()) {
      while (end < count && end - pos < kMaxRun &&
             items[indices[end]].chain == chain) {
        if (stateful) {
          bool repeat = false;
          for (std::size_t k = pos; k < end && !repeat; ++k) {
            repeat = items[indices[k]].flow.canonical() ==
                     items[indices[end]].flow.canonical();
          }
          if (repeat) break;
        }
        ++end;
      }
    }
    scan_run_on_shard(shard, items, indices + pos, end - pos, out);
    pos = end;
  }
}

std::vector<ProcessOutput> DpiInstance::process_batch(
    std::vector<net::Packet> packets) {
  std::vector<ProcessOutput> out(packets.size());
  if (packets.empty()) return out;
  ShardPartition& part = partition_scratch();
  part.build(packets.size(), shards_.size(),
             [&](std::size_t i) { return shard_index(packets[i].tuple); });
  BatchProcessCtx ctx{this, &packets, &out, part.order.data(),
                      part.offsets.data()};
  pool_.dispatch(&DpiInstance::process_batch_job, &ctx, shards_.size());
  return out;
}

void DpiInstance::process_batch_job(void* ctx, std::size_t shard) {
  auto* c = static_cast<BatchProcessCtx*>(ctx);
  const std::uint32_t begin = c->offsets[shard];
  const std::uint32_t end = c->offsets[shard + 1];
  if (begin == end) return;
  Shard& sh = *c->self->shards_[shard];
  const MutexLock lock(sh.mu);
  // A flow's packets share a bucket and keep submission order, so the
  // outputs match the per-packet process() path exactly.
  c->self->process_bucket(sh, c->packets->data(), c->order + begin,
                          end - begin, c->out->data());
}

void DpiInstance::scan_run_on_shard(Shard& shard, const ScanItem* items,
                                    const std::uint32_t* indices,
                                    std::size_t count, dpi::ScanResult* out) {
  if (shard.engine == nullptr) {
    throw std::logic_error("DpiInstance::scan: no engine loaded");
  }
  Stopwatch watch;
  const dpi::Engine& engine = *shard.engine;
  const dpi::ChainId chain = items[indices[0]].chain;
  const bool stateful = engine.chain_stateful(chain);
  // Thread-local scratch: steady-state runs allocate no payload or cursor
  // vectors. The caller guarantees distinct flows per stateful run, so
  // each lookup precedes its flow's sole update.
  thread_local std::vector<BytesView> payloads;
  thread_local std::vector<dpi::FlowCursor> cursors;
  payloads.clear();
  cursors.clear();
  for (std::size_t k = 0; k < count; ++k) {
    const ScanItem& item = items[indices[k]];
    payloads.push_back(item.payload);
    cursors.push_back(stateful ? shard.flows.lookup(item.flow)
                               : dpi::FlowCursor{});
  }
  if (count == 1) {
    out[indices[0]] = engine.scan_packet(chain, payloads[0], cursors[0]);
  } else {
    std::vector<dpi::ScanResult> results =
        engine.scan_batch(chain, payloads, &cursors);
    for (std::size_t k = 0; k < count; ++k) {
      out[indices[k]] = std::move(results[k]);
    }
  }
  std::uint64_t evictions = 0;
  if (stateful) {
    for (std::size_t k = 0; k < count; ++k) {
      const dpi::FlowCursor& cursor = out[indices[k]].cursor;
      DPISVC_ASSERT_INVARIANT(
          cursor.valid && cursor.dfa_state < engine.num_automaton_states(),
          "stateful scan must leave the cursor on a state of this engine");
      // An update that LRU-evicts a live cursor makes the victim flow
      // resume from the DFA root, so a pattern straddling that point is
      // missed. Counted so the capacity shortfall is observable (§4.3.1).
      if (shard.flows.update(items[indices[k]].flow, cursor)) ++evictions;
    }
  }
  // One clock read per run: the latency histogram's sum is also the
  // shard's busy time; a run of one measures exactly its packet.
  const std::uint64_t run_ns = watch.elapsed_ns();

  std::uint64_t bytes = 0;
  std::uint64_t raw_hits = 0;
  std::uint64_t match_packets = 0;
  std::uint64_t anchor_hits = 0;
  std::uint64_t regex_evals = 0;
  std::uint64_t regex_matches = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const ScanItem& item = items[indices[k]];
    const dpi::ScanResult& result = out[indices[k]];
    bytes += item.payload.size();
    raw_hits += result.raw_hits;
    match_packets += result.has_matches() ? 1 : 0;
    anchor_hits += result.anchor_hits_seen;
    regex_evals += result.regexes_evaluated;
    regex_matches += result.regex_matches;
    if (trace_.enabled()) {
      const std::uint64_t fh = item.flow.canonical().hash();
      const std::uint64_t flow_offset =
          result.cursor.valid ? result.cursor.offset : result.bytes_scanned;
      trace_.record(obs::TraceEvent::kDfaScan, fh, flow_offset,
                    result.bytes_scanned, shard.index, chain);
      if (result.regexes_evaluated > 0) {
        trace_.record(obs::TraceEvent::kRegexEval, fh, flow_offset,
                      result.regexes_evaluated, shard.index, chain);
      }
      std::uint64_t entries = 0;
      for (const auto& m : result.matches) entries += m.entries.size();
      trace_.record(obs::TraceEvent::kVerdict, fh, flow_offset, entries,
                    shard.index, chain);
    }
  }
  ChainTelemetry& per_chain = shard.chain_telemetry[chain];
  per_chain.packets += count;
  per_chain.bytes += bytes;
  per_chain.raw_hits += raw_hits;
  const ShardInstruments& ins = shard.obs;
  ins.scan_ns->record(run_ns);
  ins.scan_run_packets->record(count);
  ins.packets->add(count);
  ins.bytes->add(bytes);
  ins.raw_hits->add(raw_hits);
  if (match_packets != 0) ins.match_packets->add(match_packets);
  ins.anchor_hits->add(anchor_hits);
  ins.regex_evals->add(regex_evals);
  ins.regex_matches->add(regex_matches);
  if (stateful) {
    ins.flow_occupancy->set(static_cast<std::int64_t>(shard.flows.size()));
  }
  if (evictions != 0) {
    ins.flow_evictions->add(evictions);
    log(LogLevel::kDebug, name_,
        "flow table full: evicted live stateful cursor (evictions=",
        ins.flow_evictions->value(), ")");
  }
}

net::MatchReport DpiInstance::build_report(dpi::ChainId chain,
                                           std::uint64_t packet_ref,
                                           dpi::ScanResult&& scan) const {
  net::MatchReport report;
  report.policy_chain_id = chain;
  report.packet_ref = packet_ref;
  for (dpi::MiddleboxMatches& m : scan.matches) {
    if (m.entries.empty()) continue;
    net::MiddleboxSection section;
    section.middlebox_id = m.middlebox;
    section.entries = std::move(m.entries);
    report.sections.push_back(std::move(section));
  }
  return report;
}

/// Decompress-once preprocessing (§1): returns the inflated payload when
/// the packet carries a gzip or zlib body and decompression is enabled;
/// otherwise std::nullopt (scan the raw bytes). A failed attempt is counted
/// by reason, so a raw-scan fallback is never silent.
std::optional<Bytes> DpiInstance::maybe_decompress(const ShardInstruments& obs,
                                                   BytesView payload) const {
  if (!config_.decompress_payloads) return std::nullopt;
  compress::InflateLimits limits;
  limits.max_output = config_.max_decompressed;
  try {
    if (compress::looks_like_gzip(payload)) {
      return compress::gzip_decompress(payload, limits);
    }
    if (compress::looks_like_zlib(payload)) {
      return compress::zlib_decompress(payload, limits);
    }
  } catch (const compress::InflateError& e) {
    // Not actually compressed (or corrupt / a bomb): scan the raw bytes.
    obs.decompress_fallback[static_cast<std::size_t>(e.reason())]->add();
  }
  return std::nullopt;
}

ProcessOutput DpiInstance::process(net::Packet packet) {
  Shard& shard = shard_of(packet.tuple);
  static constexpr std::uint32_t kOnly = 0;
  ProcessOutput out;
  const MutexLock lock(shard.mu);
  process_bucket(shard, &packet, &kOnly, 1, &out);
  return out;
}

namespace {

/// process_bucket's staging slots, reused across buckets so a steady-state
/// bucket allocates no vectors. Slot j belongs to the j-th packet that
/// survives staging; `chunks` and `inflated` keep the bytes its scan reads
/// alive until the emit stage. thread_local: a thread runs one bucket at a
/// time, and concurrent buckets never share buffers.
struct BucketScratch {
  std::vector<ScanItem> items;
  std::vector<std::uint32_t> bucket_pos;  ///< slot j -> bucket position k
  std::vector<std::uint32_t> identity;    ///< 0, 1, 2, ... for scan_runs
  std::vector<dpi::ScanResult> results;
  std::vector<Bytes> chunks;
  std::vector<Bytes> inflated;
};

BucketScratch& bucket_scratch() {
  thread_local BucketScratch scratch;
  return scratch;
}

}  // namespace

void DpiInstance::process_bucket(Shard& shard, net::Packet* packets,
                                 const std::uint32_t* indices,
                                 std::size_t count, ProcessOutput* out) {
  BucketScratch& st = bucket_scratch();
  st.items.clear();
  st.bucket_pos.clear();
  st.chunks.resize(count);
  st.inflated.resize(count);

  // Stage in. Per-flow state (defrag, reassembly) advances in bucket order;
  // a packet that leaves nothing to scan is output here.
  for (std::size_t k = 0; k < count; ++k) {
    net::Packet& packet = packets[indices[k]];
    ProcessOutput& o = out[indices[k]];
    const auto tag = packet.find_tag(net::TagKind::kPolicyChain);
    if (trace_.enabled()) {
      trace_.record(obs::TraceEvent::kPacketIn,
                    packet.tuple.canonical().hash(), 0, packet.payload.size(),
                    shard.index, tag ? static_cast<std::uint32_t>(*tag) : 0u);
    }
    if (!tag || shard.engine == nullptr ||
        !shard.engine->chain_known(static_cast<dpi::ChainId>(*tag))) {
      // Not ours to inspect: forward unchanged.
      shard.obs.pass_through->add();
      o.data = std::move(packet);
      continue;
    }
    const auto chain = static_cast<dpi::ChainId>(*tag);

    // IPv4 defragmentation: scan whole datagrams, not fragments. An
    // incomplete fragment is forwarded unchanged (middleboxes see it; the
    // scan runs on the packet that completes the datagram, which then
    // carries the reassembled payload).
    if (config_.defragment_ip) {
      if (packet.is_fragment()) {
        auto full = shard.defrag.feed(packet);
        if (!full) {
          shard.obs.defrag_held->add();
          o.data = std::move(packet);
          continue;
        }
        packet = std::move(*full);
      } else {
        // Non-fragments still advance the defragmenter's logical clock so
        // partial datagrams time out against real traffic.
        shard.defrag.tick();
      }
    }

    const std::size_t slot = st.items.size();
    // Stream reassembly (§7): scan in-order stream chunks, not raw segments.
    BytesView scan_bytes(packet.payload);
    if (config_.reassemble_tcp && packet.tuple.proto == net::IpProto::kTcp) {
      auto chunk = shard.reassembler.feed(packet);
      if (!chunk) {
        // Out-of-order segment: nothing contiguous yet. Forward the packet
        // (middleboxes see it; results for its bytes come with the packet
        // that completes the gap).
        shard.obs.reassembly_held->add();
        o.data = std::move(packet);
        continue;
      }
      st.chunks[slot] = std::move(chunk->data);
      scan_bytes = st.chunks[slot];
    }

    // Decompress once for all middleboxes on the chain (§1).
    if (std::optional<Bytes> inflated =
            maybe_decompress(shard.obs, scan_bytes)) {
      shard.obs.decompressed_packets->add();
      shard.obs.decompressed_bytes->add(inflated->size());
      st.inflated[slot] = std::move(*inflated);
      scan_bytes = st.inflated[slot];
    }
    st.items.push_back(ScanItem{chain, packet.tuple, scan_bytes});
    st.bucket_pos.push_back(static_cast<std::uint32_t>(k));
  }

  // Scan the survivors in same-chain runs.
  const std::size_t staged = st.items.size();
  while (st.identity.size() < staged) {
    st.identity.push_back(static_cast<std::uint32_t>(st.identity.size()));
  }
  st.results.resize(staged);
  scan_runs(shard, st.items.data(), st.identity.data(), staged,
            st.results.data());

  // Emit in bucket order.
  for (std::size_t j = 0; j < staged; ++j) {
    const std::uint32_t i = indices[st.bucket_pos[j]];
    emit(shard, st.items[j].chain, packets[i], std::move(st.results[j]),
         out[i]);
  }
  // Free the staged bytes now rather than when a slot is next reused.
  st.chunks.clear();
  st.inflated.clear();
}

void DpiInstance::emit(Shard& shard, dpi::ChainId chain, net::Packet& packet,
                       dpi::ScanResult&& scanned, ProcessOutput& out) {
  const bool result_only = config_.result_mode == ResultMode::kResultOnly &&
                           shard.engine->chain_read_only(chain);
  if (result_only) {
    // §4.2 option 3: the data packet bypasses the (read-only) middleboxes;
    // pop the steering tag so the switch sends it straight to the egress.
    packet.pop_tag(net::TagKind::kPolicyChain);
  }

  if (!scanned.has_matches()) {
    // §4.2: "a packet with no matches is always forwarded as is".
    out.data = std::move(packet);
    return;
  }

  out.had_matches = true;
  const std::uint64_t packet_ref =
      packet.tuple.hash() ^ (static_cast<std::uint64_t>(packet.ip_id) << 48);
  // Keep in sync with service::packet_ref_of (instance_node.hpp).
  Bytes encoded = net::encode_report(
      build_report(chain, packet_ref, std::move(scanned)), config_.codec);
  shard.obs.result_bytes->add(encoded.size());

  packet.set_match_mark(true);  // §6.1: ECN marks "has matches"
  if (config_.result_mode == ResultMode::kServiceHeader && !result_only) {
    net::ServiceHeader sh;
    sh.service_path_id = chain;
    sh.service_index = 0;
    sh.metadata = std::move(encoded);
    packet.service_header = std::move(sh);
    out.data = std::move(packet);
    return;
  }

  // Dedicated result packet follows the data packet through the chain (or,
  // in result-only mode, travels the chain alone): it copies the flow tuple
  // and steering tags and is marked by the reserved service-path id.
  net::Packet result;
  result.src_mac = packet.src_mac;
  result.dst_mac = packet.dst_mac;
  result.tags = packet.tags;
  if (result_only) {
    result.push_tag(net::TagKind::kPolicyChain, chain);  // data's tag popped
  }
  result.tuple = packet.tuple;
  result.ip_id = packet.ip_id;
  net::ServiceHeader sh;
  sh.service_path_id = kResultServicePathId;
  sh.service_index = 0;
  sh.metadata = std::move(encoded);
  result.service_header = std::move(sh);

  out.data = std::move(packet);
  out.result = std::move(result);
}

dpi::FlowCursor DpiInstance::export_flow(const net::FiveTuple& flow) {
  Shard& shard = shard_of(flow);
  const MutexLock lock(shard.mu);
  return shard.flows.extract(flow);
}

namespace {

/// A stored cursor must index a state of the shard's *current* engine; a
/// cursor exported before a hot swap landed would resume the DFA from an
/// arbitrary (possibly out-of-range) state. The controller prevents this by
/// matching engine versions, but the instance still refuses rather than
/// trusting its caller.
bool cursor_fits_engine(const dpi::FlowCursor& cursor,
                        const dpi::Engine* engine) {
  if (!cursor.valid) return false;  // nothing worth storing
  return engine != nullptr && cursor.dfa_state < engine->num_automaton_states();
}

}  // namespace

void DpiInstance::import_flow(const net::FiveTuple& flow,
                              const dpi::FlowCursor& cursor) {
  Shard& shard = shard_of(flow);
  const MutexLock lock(shard.mu);
  if (!cursor_fits_engine(cursor, shard.engine.get())) return;
  shard.flows.update(flow, cursor);
}

std::vector<std::pair<net::FiveTuple, dpi::FlowCursor>>
DpiInstance::export_all_flows() {
  std::vector<std::pair<net::FiveTuple, dpi::FlowCursor>> out;
  // Shard at a time: the rest of the data plane keeps scanning while one
  // shard is drained.
  for (auto& shard : shards_) {
    const MutexLock lock(shard->mu);
    auto drained = shard->flows.drain();
    out.insert(out.end(), std::make_move_iterator(drained.begin()),
               std::make_move_iterator(drained.end()));
  }
  return out;
}

void DpiInstance::import_flows(
    const std::vector<std::pair<net::FiveTuple, dpi::FlowCursor>>& flows) {
  for (const auto& [flow, cursor] : flows) {
    Shard& shard = shard_of(flow);
    const MutexLock lock(shard.mu);
    if (!cursor_fits_engine(cursor, shard.engine.get())) continue;
    shard.flows.update(flow, cursor);
  }
}

}  // namespace dpisvc::service
