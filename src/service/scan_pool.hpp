// Worker pool for the sharded data plane (§6 scaling, DESIGN.md §4h).
//
// One worker thread per data-plane shard, fed through a fixed-capacity SPSC
// job ring: dispatch()/submit() hand jobs for shard i to worker i, so a
// shard's packets are always processed one job at a time, in submission
// order. That order is what makes the sharded scan path deterministic — a
// flow maps to exactly one shard (FiveTuple::canonical() hash), and its
// packets are scanned sequentially regardless of how many workers the pool
// runs. dispatch() may run worker 0's job on the calling thread instead,
// but only when worker 0 has nothing queued or running, which keeps that
// order.
//
// This is the bounded-queue rewrite of the original mutex+deque pool. The
// old pool heap-allocated a std::function per job, pushed it under the
// worker mutex, and let the deque grow without limit — a stalled shard
// turned into unbounded memory growth instead of a backpressure signal.
// Now each worker owns a SpscRing of plain Job slots (function pointer +
// context word — no allocation, no type erasure); producers serialize on a
// light per-worker submit mutex (one acquisition per job, uncontended in
// the single-ingest-thread configuration, so the ring stays SPSC), and the
// consumer side is lock-free: a worker pops jobs without ever taking a
// mutex, parking on a condition variable only when its ring runs dry.
//
// A full ring is handled by the configured OverloadPolicy: kBlock makes the
// producer wait for space (backpressure propagates to the fabric), kShed
// makes submit() refuse so the caller can drop the work observably. Both
// outcomes count through the obs instruments. dispatch() always blocks —
// its callers rely on every job running.
//
// A pool of size <= 1 spawns no threads at all; dispatch()/submit() then
// run the jobs inline on the caller, which keeps the single-threaded
// configuration byte-identical to the pre-sharding code path (and trivially
// TSan-clean).
//
// The pool is a class template over the dpisvc_mc synchronization facade
// (mc/sync.hpp): `ScanPool` is the RealSync instantiation (plain std
// primitives, explicitly instantiated in scan_pool.cpp so other TUs don't
// re-compile the template), and the model checker instantiates the SAME
// class over mc::ModelSync to exhaustively explore the park/wake protocol,
// the Completion latch, and the submit path — the shipped algorithms, not
// hand-copied models (DESIGN.md §7).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/spsc_ring.hpp"
#include "common/thread_safety.hpp"
#include "mc/sync.hpp"
#include "obs/metrics.hpp"

namespace dpisvc::service {

/// What a producer does when a shard's job ring is full.
enum class OverloadPolicy {
  kBlock,  ///< wait for space: backpressure propagates upstream
  kShed,   ///< refuse the job: the caller drops it and counts the loss
};

const char* overload_policy_name(OverloadPolicy policy) noexcept;

namespace detail {

inline std::uint64_t scan_pool_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline constexpr std::size_t kDefaultQueueCapacity = 1024;

}  // namespace detail

template <typename Sync = mc::RealSync>
class BasicScanPool {
 public:
  /// Plain-function job: fn(ctx, arg). The pair replaces the old
  /// heap-allocated std::function closures — a job slot is trivially
  /// copyable and lives in the ring, so steady-state dispatch allocates
  /// nothing.
  using JobFn = void (*)(void* ctx, std::size_t arg);

  /// Completion latch shared by the jobs of one synchronous dispatch (or an
  /// ingest batch that wants submit-and-wait semantics). Stack-allocatable:
  /// wait_zero() returns only after every expected job finished.
  class Completion {
   public:
    void expect(std::size_t n) {
      const typename Sync::MutexLock lock(mu_);
      remaining_ += static_cast<std::ptrdiff_t>(n);
    }
    void finish_one() {
      if constexpr (mc::seeded_fault<Sync>() ==
                    mc::Fault::kNotifyAfterUnlock) {
        // Seeded bug for the model checker's teeth test only: the historical
        // shape, signalling AFTER the mutex is released. The waiter can then
        // observe remaining_ == 0, return from wait_zero(), and destroy the
        // stack latch while this thread's notify is still in flight.
        {
          const typename Sync::MutexLock lock(mu_);
          --remaining_;
        }
        cv_.notify_all();
      } else {
        // Notify UNDER the mutex: the latch is stack-allocated by the waiter,
        // and wait_zero() returning frees it. Holding mu_ through the notify
        // means the waiter cannot observe remaining_ == 0 (it needs mu_)
        // until this thread's last touch of the latch is done —
        // signal-after-unlock would let the waiter destroy cv_ mid-notify.
        // Only the last job notifies: the waiter re-checks remaining_ on
        // every wake, so earlier notifies would only wake it to sleep again.
        const typename Sync::MutexLock lock(mu_);
        if (--remaining_ == 0) cv_.notify_all();
      }
    }
    void wait_zero() {
      typename Sync::MutexLock lock(mu_);
      while (remaining_ != 0) cv_.wait(lock);
    }

   private:
    typename Sync::Mutex mu_;
    typename Sync::CondVar cv_;
    std::ptrdiff_t remaining_ DPISVC_GUARDED_BY(mu_) = 0;
  };

  /// Obs instruments the pool records into; any pointer may be null
  /// (a standalone pool records nothing by default). `depth` gauges are per worker (fill level of that
  /// worker's ring, updated on push and pop); `fill` is the pool-wide
  /// fill-at-enqueue histogram. All instruments must outlive the pool.
  struct Instruments {
    obs::Histogram* queue_wait_ns = nullptr;  ///< enqueue-to-start wait
    obs::Counter* blocked = nullptr;    ///< submissions that had to wait
    obs::Histogram* blocked_ns = nullptr;  ///< how long each one waited
    obs::Histogram* fill = nullptr;     ///< ring occupancy after each push
    std::vector<obs::Gauge*> depth;     ///< per-worker ring fill level
  };

  /// Spawns `num_workers` threads (none when num_workers <= 1), each with a
  /// job ring of `queue_capacity` slots (min 1). `policy` governs full-ring
  /// submissions.
  BasicScanPool(std::size_t num_workers, std::size_t queue_capacity,
                OverloadPolicy policy, Instruments instruments)
      : queue_capacity_(queue_capacity == 0 ? 1 : queue_capacity),
        policy_(policy),
        instruments_(std::move(instruments)) {
    if (num_workers <= 1) return;  // inline mode: no threads, no rings
    workers_.reserve(num_workers);
    for (std::size_t i = 0; i < num_workers; ++i) {
      auto worker = std::make_unique<Worker>(queue_capacity_);
      if (i < instruments_.depth.size()) worker->depth = instruments_.depth[i];
      workers_.push_back(std::move(worker));
    }
    // Threads start only after the vector is fully built so the worker
    // pointers handed to the lambdas are final.
    for (auto& worker : workers_) {
      worker->thread =
          typename Sync::Thread([this, w = worker.get()] { worker_loop(*w); });
    }
  }

  /// Back-compat convenience: block policy, default capacity.
  explicit BasicScanPool(std::size_t num_workers,
                         obs::Histogram* queue_wait_ns = nullptr)
      : BasicScanPool(num_workers, detail::kDefaultQueueCapacity,
                      OverloadPolicy::kBlock,
                      Instruments{queue_wait_ns, nullptr, nullptr, nullptr,
                                  {}}) {}

  BasicScanPool(const BasicScanPool&) = delete;
  BasicScanPool& operator=(const BasicScanPool&) = delete;

  ~BasicScanPool() {
    for (auto& worker : workers_) {
      worker->stop.store(true, std::memory_order_release);
      wake(*worker);
    }
    for (auto& worker : workers_) {
      if (worker->thread.joinable()) worker->thread.join();
    }
  }

  /// Number of worker threads (0 for the inline single-threaded pool).
  std::size_t workers() const noexcept { return workers_.size(); }
  std::size_t queue_capacity() const noexcept { return queue_capacity_; }
  OverloadPolicy overload_policy() const noexcept { return policy_; }

  /// Runs fn(ctx, i) for every i in [0, count), job i on worker
  /// (i % workers), and blocks until every job has finished. With no worker
  /// threads the jobs run inline in index order. Callers map job index ==
  /// shard index, so the per-shard ordering guarantee follows from the
  /// per-worker FIFO rings. Full rings block regardless of policy (the
  /// caller is already committed to waiting for completion).
  ///
  /// The caller works instead of only waiting: it runs job 0 itself when
  /// worker 0 has completed every job ever pushed to it (see
  /// run_inline_if_idle), which saves that worker's wake-up. The other jobs
  /// are pushed first so their workers start while the caller runs.
  void dispatch(JobFn fn, void* ctx, std::size_t count) {
    if (workers_.empty()) {
      for (std::size_t i = 0; i < count; ++i) fn(ctx, i);
      return;
    }
    if (count == 0) return;
    Completion done;
    done.expect(count);
    const auto enqueue = detail::scan_pool_now_ns();
    const std::size_t n = workers_.size();
    const auto push = [&](std::size_t i) {
      Worker& worker = *workers_[i % n];
      push_job(worker, Job{fn, ctx, i, &done, enqueue}, /*force_block=*/true);
      wake(worker);
    };
    for (std::size_t i = 1; i < count; ++i) {
      if (i % n != 0) push(i);
    }
    if (run_inline_if_idle(*workers_[0], fn, ctx)) {
      done.finish_one();
    } else {
      push(0);
    }
    // Worker 0's later jobs go behind job 0, keeping its FIFO order.
    for (std::size_t i = n; i < count; i += n) push(i);
    done.wait_zero();
  }

  /// Asynchronous single-job submission to one worker — the batched ingest
  /// path. Returns false iff the policy is kShed and the worker's ring is
  /// full (the job did not run and never will); kBlock waits for space and
  /// returns true. When `done` is non-null it must have expect()ed this job
  /// already; the worker signals it after the job returns. Inline pools run
  /// the job on the caller and return true.
  bool submit(std::size_t worker_index, JobFn fn, void* ctx, std::size_t arg,
              Completion* done = nullptr) {
    if (workers_.empty()) {
      fn(ctx, arg);
      if (done != nullptr) done->finish_one();
      return true;
    }
    Worker& worker = *workers_[worker_index % workers_.size()];
    if (!push_job(worker, Job{fn, ctx, arg, done, detail::scan_pool_now_ns()},
                  /*force_block=*/false)) {
      return false;
    }
    wake(worker);
    return true;
  }

  /// Like submit() but always waits for ring space regardless of policy.
  /// The ingest pipeline sheds at batch admission (whole packets, counted),
  /// never at job granularity — a batch's per-shard jobs must all run or
  /// its results would silently go missing.
  void submit_blocking(std::size_t worker_index, JobFn fn, void* ctx,
                       std::size_t arg, Completion* done = nullptr) {
    if (workers_.empty()) {
      fn(ctx, arg);
      if (done != nullptr) done->finish_one();
      return;
    }
    Worker& worker = *workers_[worker_index % workers_.size()];
    push_job(worker, Job{fn, ctx, arg, done, detail::scan_pool_now_ns()},
             /*force_block=*/true);
    wake(worker);
  }

 private:
  /// One ring slot. `enqueue_ns` carries the Stopwatch-equivalent steady
  /// timestamp for the queue-wait histogram.
  struct Job {
    JobFn fn = nullptr;
    void* ctx = nullptr;
    std::size_t arg = 0;
    Completion* done = nullptr;
    std::uint64_t enqueue_ns = 0;
  };

  struct Worker {
    explicit Worker(std::size_t capacity) : ring(capacity) {}

    SpscRing<Job, Sync> ring;
    /// Serializes producers so the ring keeps its single-producer contract;
    /// taken once per job (never per packet), uncontended with one ingest
    /// thread. Never touched by the consumer (the ring's pop side is the
    /// worker thread's exclusive role). Producer-side ring pushes are
    /// funneled through try_push_locked(), whose DPISVC_REQUIRES(submit_mu)
    /// contract makes an unserialized push a compile error under
    /// -Werror=thread-safety.
    typename Sync::Mutex submit_mu;
    /// Jobs pushed onto the ring, and jobs this worker has finished
    /// running. Equal under submit_mu means nothing is queued or running
    /// and no producer can push until the lock is released: the condition
    /// under which dispatch() may run this worker's job on the caller.
    std::uint64_t pushed DPISVC_GUARDED_BY(submit_mu) = 0;
    typename Sync::template Atomic<std::uint64_t> completed{0};
    /// Parking protocol: the worker publishes `parked` with seq_cst
    /// ordering before its final empty-check, and a producer checks it with
    /// seq_cst ordering after its push — the classic store/load fence pair
    /// that makes a lost wakeup impossible. The timed wait in the worker is
    /// a belt-and-braces liveness backstop, not the correctness mechanism
    /// (the dpisvc_mc pool scenario models wait_for as an untimed wait, so
    /// a protocol that silently leaned on the timeout would show up as a
    /// modeled deadlock).
    typename Sync::Mutex park_mu;
    typename Sync::CondVar park_cv;
    typename Sync::template Atomic<bool> parked{false};
    typename Sync::template Atomic<bool> stop{false};
    obs::Gauge* depth = nullptr;
    typename Sync::Thread thread;
  };

  void run_job(Worker& worker, Job& job) {
    if (instruments_.queue_wait_ns != nullptr && job.enqueue_ns != 0) {
      const auto start = detail::scan_pool_now_ns();
      instruments_.queue_wait_ns->record(
          start > job.enqueue_ns ? start - job.enqueue_ns : 0);
    }
    job.fn(job.ctx, job.arg);
    // Release: pairs with the acquire in worker_idle_locked, so a job the
    // caller then runs inline sees everything this job wrote.
    worker.completed.fetch_add(1, std::memory_order_release);
    if (job.done != nullptr) job.done->finish_one();
  }

  /// True when `worker` has nothing queued or running. Holding submit_mu
  /// fixes `pushed`; a matching `completed` can only have been written after
  /// the last job returned. `parked && ring.empty()` would not do: a worker
  /// whose final re-check just popped a job still reads as parked with an
  /// empty ring, so an inline job could overtake it.
  static bool worker_idle_locked(Worker& worker)
      DPISVC_REQUIRES(worker.submit_mu) {
    if constexpr (mc::seeded_fault<Sync>() ==
                  mc::Fault::kDispatchParkedCheck) {
      return worker.parked.load(std::memory_order_seq_cst) &&
             worker.ring.empty();
    }
    return worker.completed.load(std::memory_order_acquire) == worker.pushed;
  }

  /// Runs fn(ctx, 0) on the calling thread if `worker` is idle; returns
  /// whether it did. submit_mu stays held while the job runs, so a
  /// concurrent submit() to this worker queues behind it. noexcept: like a
  /// job on a worker thread, a throwing inline job terminates (unwinding
  /// would free the Completion the other jobs still signal).
  static bool run_inline_if_idle(Worker& worker, JobFn fn,
                                 void* ctx) noexcept {
    const typename Sync::MutexLock lock(worker.submit_mu);
    if (!worker_idle_locked(worker)) return false;
    fn(ctx, 0);
    return true;
  }

  static void wake(Worker& worker) {
    // Pairs with the seq_cst parked-publish in worker_loop: after our push
    // (or stop store) the fence orders it before the parked load, so either
    // the consumer's final re-check sees the job or we see parked==true and
    // notify. Taking park_mu (empty critical section) closes the window
    // between the worker's last check and its wait.
    Sync::fence(std::memory_order_seq_cst);
    if (worker.parked.load(std::memory_order_seq_cst)) {
      { const typename Sync::MutexLock lock(worker.park_mu); }
      worker.park_cv.notify_one();
    }
  }

  /// The single producer-side ring access; callable only with the worker's
  /// submit mutex held, which is what keeps the ring single-producer.
  static bool try_push_locked(Worker& worker, Job&& job)
      DPISVC_REQUIRES(worker.submit_mu) {
    if (!worker.ring.try_push(std::move(job))) return false;
    ++worker.pushed;
    return true;
  }

  /// Pushes onto `worker`'s ring under its submit mutex, honoring `policy`
  /// (or unconditionally blocking when `force_block`). Returns false only
  /// when the job was shed.
  bool push_job(Worker& worker, Job job, bool force_block) {
    const typename Sync::MutexLock lock(worker.submit_mu);
    if (!try_push_locked(worker, Job(job))) {
      if (!force_block && policy_ == OverloadPolicy::kShed) return false;
      if (instruments_.blocked != nullptr) instruments_.blocked->add();
      const auto blocked_start = detail::scan_pool_now_ns();
      // The consumer frees a slot every time it pops; yielding (rather than
      // a condvar) keeps the producer-side hot path mutex-free against the
      // consumer and the wait short under normal drain rates.
      do {
        Sync::yield();
      } while (!try_push_locked(worker, Job(job)));
      if (instruments_.blocked_ns != nullptr) {
        instruments_.blocked_ns->record(detail::scan_pool_now_ns() -
                                        blocked_start);
      }
    }
    const auto size = worker.ring.size();
    if (instruments_.fill != nullptr) {
      instruments_.fill->record(static_cast<std::uint64_t>(size));
    }
    if (worker.depth != nullptr) {
      worker.depth->set(static_cast<std::int64_t>(size));
    }
    return true;
  }

  void worker_loop(Worker& worker) {
    Job job;
    for (;;) {
      if (worker.ring.try_pop(job)) {
        if (worker.depth != nullptr) {
          worker.depth->set(static_cast<std::int64_t>(worker.ring.size()));
        }
        run_job(worker, job);
        continue;
      }
      // Publish "about to park" before the final emptiness re-check; wake()
      // fences after its push, so either this re-check sees the new job or
      // the producer sees parked==true and notifies under park_mu.
      worker.parked.store(true, std::memory_order_seq_cst);
      Sync::fence(std::memory_order_seq_cst);
      if (worker.ring.try_pop(job)) {
        worker.parked.store(false, std::memory_order_relaxed);
        if (worker.depth != nullptr) {
          worker.depth->set(static_cast<std::int64_t>(worker.ring.size()));
        }
        run_job(worker, job);
        continue;
      }
      if (worker.stop.load(std::memory_order_acquire)) {
        worker.parked.store(false, std::memory_order_relaxed);
        // Drain anything raced in after the stop flag; producers have
        // quiesced by the time the destructor runs, so this empties exactly
        // once.
        while (worker.ring.try_pop(job)) run_job(worker, job);
        return;
      }
      {
        typename Sync::MutexLock lock(worker.park_mu);
        if (worker.ring.empty() &&
            !worker.stop.load(std::memory_order_acquire)) {
          // Timed backstop: even a lost notify (ruled out by the fence
          // protocol, but cheap to insure against) delays a job by <= 1ms.
          worker.park_cv.wait_for(lock, std::chrono::milliseconds(1));
        }
      }
      worker.parked.store(false, std::memory_order_relaxed);
    }
  }

  std::vector<std::unique_ptr<Worker>> workers_;
  std::size_t queue_capacity_ = 0;
  OverloadPolicy policy_ = OverloadPolicy::kBlock;
  Instruments instruments_;
};

/// The production pool. Explicitly instantiated in scan_pool.cpp; other
/// translation units link against that instantiation instead of
/// re-compiling the template.
using ScanPool = BasicScanPool<mc::RealSync>;

extern template class BasicScanPool<mc::RealSync>;

}  // namespace dpisvc::service
