// Model-checking scenarios over the SHIPPED concurrency primitives
// (DESIGN.md §7). Each body is a function template over the sync facade so
// the registry instantiates it with mc::ModelSync while the fault-injection
// tests re-instantiate the same body with their TU-local Sync tag — the
// checked code paths are the production templates, never hand-copied models.
//
// Scenario sizing: 2–3 model threads, a handful of facade operations each,
// so the exhaustive DFS finishes in well under a second inside ctest. The
// dpisvc_mc CLI runs the same bodies with wider bounds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

#include "common/spsc_ring.hpp"
#include "mc/scheduler.hpp"
#include "obs/metrics.hpp"
#include "service/batch_sync.hpp"
#include "service/scan_pool.hpp"

namespace dpisvc::mc::scenarios {

/// SPSC ring at exact capacity: FIFO order, no overrun (push fails on a
/// full ring rather than clobbering), no underrun (pop fails on empty),
/// and the release/acquire cursor hand-off publishes each slot's payload
/// (the per-slot race_read/race_write hooks inside SpscRing itself would
/// report MC002 otherwise — that is the weak-publish seeded-bug test).
template <typename Sync>
void ring_spsc_body(std::size_t capacity, int items) {
  SpscRing<int, Sync> ring(capacity);
  typename Sync::Thread consumer([&ring, items] {
    int next = 0;
    while (next < items) {
      int v = -1;
      if (!ring.try_pop(v)) {
        Sync::yield();
        continue;
      }
      require(v == next, "SPSC ring must pop values in FIFO order");
      ++next;
    }
    int v = -1;
    require(!ring.try_pop(v), "pop from a drained ring must fail");
  });
  for (int i = 0; i < items; ++i) {
    while (!ring.try_push(int(i))) Sync::yield();
  }
  consumer.join();
}

/// Completion latch: the waiter owns the latch and destroys it the moment
/// wait_zero() returns (placement-new keeps the raw memory valid, so only
/// the model's destroy tombstones — not ASan — decide what counts as a
/// use-after-destroy). The shipped notify-under-mutex discipline makes this
/// safe; the mc::Fault::kNotifyAfterUnlock variant reintroduces the
/// historical signal-after-unlock bug, which must surface as MC003.
template <typename Sync>
void completion_latch_body() {
  using Completion = typename service::BasicScanPool<Sync>::Completion;
  alignas(Completion) unsigned char storage[sizeof(Completion)];
  auto* done = new (storage) Completion();
  done->expect(1);
  typename Sync::Thread finisher([done] { done->finish_one(); });
  done->wait_zero();
  done->~Completion();  // waiter frees the stack latch immediately
  finisher.join();
}

namespace detail {
/// Plain-int job body for the pool scenarios; the counter is handed through
/// the JobFn ctx pointer, with race hooks marking the non-atomic access.
template <typename Sync>
void count_job(void* ctx, std::size_t /*arg*/) {
  auto* hits = static_cast<int*>(ctx);
  Sync::race_write(hits);
  ++*hits;
}
}  // namespace detail

/// Park/wake protocol of the shipped worker pool: one job submitted to a
/// worker that may already be parked (or parking, or still draining). The
/// modeled cv wait never times out, so the pool's 1ms backstop cannot paper
/// over a lost wakeup — if the seq_cst parked/fence hand-off were wrong,
/// this deadlocks (MC004). The destructor's stop/wake/join sequence is
/// explored in the same run.
template <typename Sync>
void pool_park_wake_body() {
  using Pool = service::BasicScanPool<Sync>;
  int hits = 0;
  {
    // 2 workers is the smallest pool that spawns threads at all.
    Pool pool(2, /*queue_capacity=*/1, service::OverloadPolicy::kBlock,
              typename Pool::Instruments{});
    pool.submit_blocking(0, &detail::count_job<Sync>, &hits, 0);
  }  // ~BasicScanPool: stop + wake + join both workers
  Sync::race_read(&hits);
  require(hits == 1, "a submitted job must run exactly once");
}

namespace detail {
/// Worker 0's job log for pool_dispatch: each job appends its tag. The race
/// hooks report two jobs of one worker that run without a happens-before
/// edge, and the order check catches an overtake.
struct DispatchLog {
  int tags[2] = {0, 0};
  int size = 0;
};
template <typename Sync, int kTag>
void log_job(void* ctx, std::size_t /*arg*/) {
  auto* log = static_cast<DispatchLog*>(ctx);
  Sync::race_write(&log->size);
  if (log->size < 2) log->tags[log->size] = kTag;
  ++log->size;
}

/// pool_dispatch's hand-over: a job on worker 1 submits job A to worker 0,
/// then tells the waiting caller through a condvar (not a spin, so the
/// scheduler switches to the caller without spending a preemption).
template <typename Sync>
struct DispatchRace {
  service::BasicScanPool<Sync>* pool = nullptr;
  DispatchLog log;
  typename Sync::Mutex mu;
  typename Sync::CondVar cv;
  bool submitted DPISVC_GUARDED_BY(mu) = false;
};
template <typename Sync>
void submit_async_job(void* ctx, std::size_t /*arg*/) {
  auto* race = static_cast<DispatchRace<Sync>*>(ctx);
  race->pool->submit_blocking(0, &log_job<Sync, 'A'>, &race->log, 0);
  const typename Sync::MutexLock lock(race->mu);
  race->submitted = true;
  race->cv.notify_one();
}
}  // namespace detail

/// dispatch() with the caller running job 0 inline, racing an asynchronous
/// job A that was submitted to the same worker just before: A may still be
/// queued, running, or done when dispatch() decides. A worker whose final
/// pre-park re-check has just popped A still reads as `parked &&
/// ring.empty()`. Job D may run inline only when A is done; otherwise it
/// must queue behind A. Every job runs exactly once, worker 0 runs A before
/// D, and with untimed modeled waits a lost wakeup deadlocks (MC004). Worker
/// 1 submits A, so the scenario needs no model thread beyond the pool's.
template <typename Sync>
void pool_dispatch_body() {
  using Pool = service::BasicScanPool<Sync>;
  detail::DispatchRace<Sync> race{};
  {
    Pool pool(2, /*queue_capacity=*/2, service::OverloadPolicy::kBlock,
              typename Pool::Instruments{});
    race.pool = &pool;
    pool.submit_blocking(1, &detail::submit_async_job<Sync>, &race, 0);
    {
      typename Sync::MutexLock lock(race.mu);
      while (!race.submitted) race.cv.wait(lock);
    }
    pool.dispatch(&detail::log_job<Sync, 'D'>, &race.log, 1);
  }  // ~BasicScanPool: stop + wake + join both workers
  Sync::race_read(&race.log.size);
  require(race.log.size == 2, "each job must run exactly once");
  require(race.log.tags[0] == 'A' && race.log.tags[1] == 'D',
          "a worker's jobs must run in push order");
}

/// Batch completion latch used by the ingest pipeline: results written by
/// shard jobs before complete_one() must be visible to the producer after
/// all_done() — the release-decrement / acquire-zero-load pairing on the
/// shipped BatchPending.
template <typename Sync>
void batch_pending_body() {
  int result0 = 0;
  int result1 = 0;
  service::BatchPending<Sync> pending;
  pending.arm(2);
  typename Sync::Thread w0([&] {
    Sync::race_write(&result0);
    result0 = 7;
    pending.complete_one();
  });
  typename Sync::Thread w1([&] {
    Sync::race_write(&result1);
    result1 = 9;
    pending.complete_one();
  });
  while (!pending.all_done()) Sync::yield();
  Sync::race_read(&result0);
  Sync::race_read(&result1);
  require(result0 == 7 && result1 == 9,
          "shard results must be visible once all_done() observes zero");
  w0.join();
  w1.join();
}

/// Lease-gated arena recycle: the producer may reset the arena (modeled as
/// a plain write to the payload) only after LeaseCounter::idle() — the
/// consumer's reads of the leased bytes must happen-before the reset via
/// the release-drop / acquire-idle pairing on the shipped LeaseCounter.
template <typename Sync>
void lease_recycle_body() {
  int payload = 0;
  service::LeaseCounter<Sync> leases;
  leases.take();  // lease handed to the consumer along with the data
  Sync::race_write(&payload);
  payload = 42;
  typename Sync::Thread consumer([&] {
    Sync::race_read(&payload);
    require(payload == 42, "leaseholder must see the payload intact");
    leases.drop();
  });
  while (!leases.idle()) Sync::yield();
  Sync::race_write(&payload);  // the arena reset the lease gate protects
  payload = 0;
  consumer.join();
}

/// Telemetry snapshot-and-reset: concurrent add() vs take() on the shipped
/// BasicCounter must neither lose nor double-count an event in any
/// interleaving (take() is a single exchange, not load-then-store).
template <typename Sync>
void obs_counter_take_body() {
  obs::BasicCounter<Sync> counter;
  typename Sync::Thread writer([&] {
    counter.add(1);
    counter.add(1);
  });
  std::uint64_t drained = counter.take();
  drained += counter.take();
  writer.join();
  drained += counter.take();
  require(drained == 2,
          "snapshot-and-reset must neither lose nor double-count");
}

}  // namespace dpisvc::mc::scenarios
