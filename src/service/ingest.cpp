#include "service/ingest.hpp"

#include <algorithm>
#include <thread>

#include "common/arena.hpp"
#include "service/batch_sync.hpp"

namespace dpisvc::service {

/// One batch: the arena holding every payload, the staged items, and the
/// partition/result buffers. All vectors keep their capacity across
/// recycles, so a steady-state batch performs no allocation at all — the
/// arena reuses its chunks and the vectors their storage.
struct IngestBatch {
  explicit IngestBatch(std::size_t arena_chunk_bytes)
      : arena(arena_chunk_bytes) {}

  PacketArena arena;
  std::vector<ScanItem> items;
  std::vector<std::uint64_t> refs;
  std::vector<dpi::ScanResult> results;
  /// Per-batch rather than thread-local: the shard jobs read it after
  /// flush() returns.
  ShardPartition partition;
  /// Outstanding shard jobs; the producer observes completion via
  /// all_done()'s acquire load of 0, pairing with each job's release
  /// decrement, which makes every result write visible before delivery.
  BatchPending<> pending;
  /// Arena recycle gate: one lease per live BatchHandle. The producer
  /// resets the arena only after idle() — see service/batch_sync.hpp for
  /// the ordering argument; dpisvc_mc explores both counters (DESIGN.md §7).
  LeaseCounter<> leases;
  DpiInstance* instance = nullptr;

  void reset_for_fill() {
    arena.reset();
    items.clear();
    refs.clear();
  }
};

namespace {

/// ScanPool::JobFn for one (batch, shard) pair: scan the shard's bucket,
/// then publish completion.
void batch_scan_job(void* ctx, std::size_t shard) {
  auto* batch = static_cast<IngestBatch*>(ctx);
  const ShardPartition& part = batch->partition;
  const std::uint32_t begin = part.offsets[shard];
  const std::uint32_t end = part.offsets[shard + 1];
  batch->instance->scan_bucket(shard, batch->items, part.order.data() + begin,
                               end - begin, batch->results);
  batch->pending.complete_one();
}

}  // namespace

BatchHandle::BatchHandle(std::shared_ptr<IngestBatch> batch) noexcept
    : batch_(std::move(batch)) {
  if (batch_ != nullptr) batch_->leases.take();
}

BatchHandle::BatchHandle(const BatchHandle& other) noexcept
    : batch_(other.batch_) {
  if (batch_ != nullptr) batch_->leases.take();
}

BatchHandle::BatchHandle(BatchHandle&& other) noexcept
    : batch_(std::move(other.batch_)) {
  other.batch_ = nullptr;  // the lease moves with the pointer
}

BatchHandle& BatchHandle::operator=(const BatchHandle& other) noexcept {
  if (this == &other) return *this;
  if (other.batch_ != nullptr) other.batch_->leases.take();
  release();
  batch_ = other.batch_;
  return *this;
}

BatchHandle& BatchHandle::operator=(BatchHandle&& other) noexcept {
  if (this == &other) return *this;
  release();
  batch_ = std::move(other.batch_);
  other.batch_ = nullptr;
  return *this;
}

BatchHandle::~BatchHandle() { release(); }

void BatchHandle::release() noexcept {
  if (batch_ != nullptr) {
    batch_->leases.drop();
    batch_ = nullptr;
  }
}

std::size_t BatchHandle::size() const noexcept { return batch_->items.size(); }

const std::vector<ScanItem>& BatchHandle::items() const noexcept {
  return batch_->items;
}

const std::vector<std::uint64_t>& BatchHandle::packet_refs() const noexcept {
  return batch_->refs;
}

const std::vector<dpi::ScanResult>& BatchHandle::results() const noexcept {
  return batch_->results;
}

IngestPipeline::IngestPipeline(DpiInstance& instance, Sink sink,
                               IngestConfig config)
    : instance_(instance), sink_(std::move(sink)), config_(config) {
  if (config_.batch_packets == 0) config_.batch_packets = 1;
  if (config_.max_batches == 0) config_.max_batches = 1;
}

IngestPipeline::~IngestPipeline() {
  try {
    drain();
  } catch (...) {
    // A throwing sink during teardown: results are lost, but the shard
    // workers have finished with every batch, so destruction stays safe.
  }
}

std::uint64_t IngestPipeline::packets_pushed() const noexcept {
  const RoleGuard role(producer_role_);
  return pushed_;
}

std::uint64_t IngestPipeline::packets_shed() const noexcept {
  const RoleGuard role(producer_role_);
  return shed_;
}

std::uint64_t IngestPipeline::batches_flushed() const noexcept {
  const RoleGuard role(producer_role_);
  return flushed_;
}

std::size_t IngestPipeline::batches_allocated() const noexcept {
  const RoleGuard role(producer_role_);
  return total_batches_;
}

std::shared_ptr<IngestBatch> IngestPipeline::make_batch() {
  auto batch = std::make_shared<IngestBatch>(config_.arena_chunk_bytes);
  batch->instance = &instance_;
  ++total_batches_;
  return batch;
}

bool IngestPipeline::acquire_batch() {
  for (;;) {
    deliver_ready();
    // Reuse an idle batch no consumer holds a lease on (the lease-gated
    // recycle: resetting the arena under a live lease would invalidate the
    // payload views the leaseholder is still reading).
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      if ((*it)->leases.idle()) {
        current_ = *it;
        free_.erase(it);
        current_->reset_for_fill();
        return true;
      }
    }
    if (total_batches_ < config_.max_batches) {
      current_ = make_batch();
      return true;
    }
    if (inflight_.empty()) {
      // Every slot is leased out by the consumer; the in-flight bound
      // applies to pipeline-owned batches, so grow rather than deadlock.
      // recycle() trims back below the cap once leases are released.
      current_ = make_batch();
      return true;
    }
    if (instance_.config().overload == OverloadPolicy::kShed) return false;
    // kBlock: backpressure. Wait for the oldest batch's shard workers; its
    // delivery at the top of the loop frees a slot. Counted once per stall
    // episode through the same counter the pool's ring-full waits use.
    instance_.ingest_instruments().blocked->add(1);
    while (!inflight_.front()->pending.all_done()) {
      std::this_thread::yield();
    }
  }
}

bool IngestPipeline::push(dpi::ChainId chain, const net::FiveTuple& flow,
                          BytesView payload, std::uint64_t packet_ref) {
  const RoleGuard role(producer_role_);
  return push_impl(chain, flow, payload, packet_ref);
}

bool IngestPipeline::push_impl(dpi::ChainId chain, const net::FiveTuple& flow,
                               BytesView payload, std::uint64_t packet_ref) {
  deliver_ready();  // opportunistic: keep sink latency low, slots free
  if (current_ == nullptr && !acquire_batch()) {
    ++shed_;
    instance_.ingest_instruments().shed->add(1);
    return false;
  }
  ScanItem item;
  item.chain = chain;
  item.flow = flow;
  item.payload = current_->arena.append(payload);  // the ingest path's copy
  current_->items.push_back(item);
  current_->refs.push_back(packet_ref);
  ++pushed_;
  if (current_->items.size() >= config_.batch_packets) flush_impl();
  return true;
}

void IngestPipeline::flush() {
  const RoleGuard role(producer_role_);
  flush_impl();
}

void IngestPipeline::flush_impl() {
  if (current_ == nullptr || current_->items.empty()) return;
  std::shared_ptr<IngestBatch> batch = std::move(current_);

  // The same stable partition as the synchronous scan_batch(), so
  // per-flow submission order survives.
  const std::size_t n = batch->items.size();
  const std::size_t num_shards = instance_.num_shards();
  ShardPartition& part = batch->partition;
  part.build(n, num_shards, [&](std::size_t i) {
    return instance_.shard_of_flow(batch->items[i].flow);
  });

  batch->results.clear();
  batch->results.resize(n);
  std::uint32_t jobs = 0;
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (part.offsets[s + 1] > part.offsets[s]) ++jobs;
  }
  // Armed before any submit; the pool's hand-off orders it for the workers.
  batch->pending.arm(jobs);

  const IngestInstruments& obs = instance_.ingest_instruments();
  obs.batch_packets->record(n);
  obs.batch_bytes->record(batch->arena.bytes_used());

  inflight_.push_back(batch);
  ++flushed_;
  obs.batches_in_flight->set(static_cast<std::int64_t>(inflight_.size()));
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (part.offsets[s + 1] == part.offsets[s]) continue;
    // Blocking on a full ring here is deliberate: shedding happens at batch
    // admission only, so every submitted batch runs to completion.
    instance_.scan_pool().submit_blocking(s, &batch_scan_job, batch.get(), s);
  }
}

std::size_t IngestPipeline::deliver_ready() {
  std::size_t delivered = 0;
  while (!inflight_.empty() && inflight_.front()->pending.all_done()) {
    std::shared_ptr<IngestBatch> batch = std::move(inflight_.front());
    inflight_.pop_front();
    delivered += batch->items.size();
    if (sink_) sink_(BatchHandle(batch));
    recycle(std::move(batch));
  }
  if (delivered != 0) {
    instance_.ingest_instruments().batches_in_flight->set(
        static_cast<std::int64_t>(inflight_.size()));
  }
  return delivered;
}

void IngestPipeline::recycle(std::shared_ptr<IngestBatch> batch) {
  free_.push_back(std::move(batch));
  // Trim surplus batches allocated while consumer leases held the cap.
  while (total_batches_ > config_.max_batches) {
    auto it = std::find_if(free_.begin(), free_.end(),
                           [](const auto& b) { return b->leases.idle(); });
    if (it == free_.end()) break;
    free_.erase(it);
    --total_batches_;
  }
}

std::size_t IngestPipeline::poll() {
  const RoleGuard role(producer_role_);
  return deliver_ready();
}

std::size_t IngestPipeline::drain() {
  const RoleGuard role(producer_role_);
  return drain_impl();
}

std::size_t IngestPipeline::drain_impl() {
  flush_impl();
  std::size_t delivered = 0;
  while (!inflight_.empty()) {
    while (!inflight_.front()->pending.all_done()) {
      std::this_thread::yield();
    }
    delivered += deliver_ready();
  }
  return delivered;
}

}  // namespace dpisvc::service
