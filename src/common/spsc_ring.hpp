// Fixed-capacity single-producer / single-consumer ring buffer.
//
// The fabric→shard handoff of the batched ingest pipeline (DESIGN.md §4h)
// replaces the old mutex+deque job queues with one of these per shard: the
// producer (ingest thread) pushes job descriptors, the shard worker pops
// them, and neither side ever takes a lock on the data path. Capacity is
// fixed at construction — a full ring is the backpressure signal, not a
// reason to allocate — which is what turns a slow consumer from an OOM
// (unbounded std::deque growth) into an observable overload.
//
// Ownership contract (the "SP" and "SC" in SPSC): at any instant at most
// ONE thread may call try_push() and at most ONE thread may call try_pop().
// The two may be (and usually are) different threads, and either role may
// migrate between threads only through an external happens-before edge (a
// mutex hand-off, a thread join). ScanPool keeps the producer role single
// by serializing submitters on a per-worker submit mutex, taken once per
// job; the consumer role is the worker thread for its whole life. Two
// concurrent pushers — or two concurrent poppers — race on the cursor
// read-modify-write sequences below and corrupt the ring; that contract is
// exactly what the dpisvc_mc model checker explores (DESIGN.md §7).
//
// Memory ordering: the producer publishes a slot with a release store of
// `tail_`; the consumer acquires `tail_` before reading the slot, and
// releases `head_` after consuming it so the producer's acquire of `head_`
// may safely reuse the slot. Indices increase monotonically (64-bit, never
// wrap in practice); the slot index is `pos % capacity`, so the configured
// capacity is exact — no power-of-two rounding that would loosen a
// queue-depth bound the operator asked for. The modulo runs once per job
// descriptor (a batch of packets), not per packet, so its cost is noise.
//
// The `Sync` template parameter is the dpisvc_mc synchronization facade
// (mc/sync.hpp): production code uses the default RealSync, which aliases
// std::atomic and compiles to exactly the pre-facade code; the model
// checker instantiates the SAME ring over mc::ModelSync so the checker
// executes this shipped algorithm, not a hand-copied model.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mc/sync.hpp"

namespace dpisvc {

/// Construction-time rejection of impossible ring capacities. Derives from
/// std::invalid_argument so pre-existing catch sites (and tests) that
/// expect the untyped error keep working.
class SpscRingError : public std::invalid_argument {
 public:
  explicit SpscRingError(const std::string& what)
      : std::invalid_argument(what) {}
};

/// Capacity ceiling: a ring is a bounded queue-depth knob, not bulk
/// storage. Anything above 2^30 slots is a configuration bug (it could
/// also overflow `capacity * sizeof(T)` on 32-bit size_t), so construction
/// rejects it before attempting the allocation.
inline constexpr std::size_t kSpscRingMaxCapacity = std::size_t{1} << 30;

namespace detail {
// The producer's tail publish. The mc::Fault::kRingRelaxedPublish tag of
// tests/mc_fault_test.cpp demotes it to relaxed, re-introducing the classic
// unsynchronized-slot bug so the model checker can prove it detects wrong
// memory orders; every other Sync keeps the release.
template <typename Sync>
inline constexpr std::memory_order kSpscPublishOrder =
    mc::seeded_fault<Sync>() == mc::Fault::kRingRelaxedPublish
        ? std::memory_order_relaxed
        : std::memory_order_release;
}  // namespace detail

template <typename T, typename Sync = mc::RealSync>
class SpscRing {
 public:
  /// Throws SpscRingError (a std::invalid_argument) when capacity is zero
  /// or above kSpscRingMaxCapacity — validated BEFORE any allocation, so an
  /// absurd capacity is a typed error, not a bad_alloc (or a silent modulo
  /// of an overflowed size). T must be default-constructible (slots are
  /// pre-built) and movable.
  explicit SpscRing(std::size_t capacity) {
    if (capacity == 0) {
      throw SpscRingError("SpscRing: capacity must be positive");
    }
    if (capacity > kSpscRingMaxCapacity) {
      throw SpscRingError("SpscRing: capacity " + std::to_string(capacity) +
                          " exceeds the 2^30-slot ceiling");
    }
    slots_.resize(capacity);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const noexcept { return slots_.size(); }

  /// Producer side. Returns false when the ring is full (the caller decides
  /// whether that means block, retry, or shed).
  bool try_push(T&& value) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) >= slots_.size()) {
      return false;  // full
    }
    T& slot = slots_[tail % slots_.size()];
    Sync::race_write(&slot);  // non-atomic slot write, published by tail_
    slot = std::move(value);
    tail_.store(tail + 1, detail::kSpscPublishOrder<Sync>);
    return true;
  }

  /// Consumer side. Returns false when the ring is empty.
  bool try_pop(T& out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_.load(std::memory_order_acquire)) {
      return false;  // empty
    }
    T& slot = slots_[head % slots_.size()];
    Sync::race_read(&slot);  // paired with the producer's race_write
    out = std::move(slot);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Instantaneous occupancy. Exact from either endpoint's own thread;
  /// a racing observer sees a value that was true at some recent instant
  /// (good enough for the fill-level gauge it feeds).
  std::size_t size() const noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail - head);
  }

  bool empty() const noexcept { return size() == 0; }

 private:
  std::vector<T> slots_;
  /// Producer and consumer cursors on separate cache lines so the two
  /// threads' writes never false-share.
  alignas(64) typename Sync::template Atomic<std::uint64_t> head_{0};
  alignas(64) typename Sync::template Atomic<std::uint64_t> tail_{0};
};

}  // namespace dpisvc
