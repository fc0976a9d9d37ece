// Synchronization facade for the dpisvc_mc model checker (DESIGN.md §7).
//
// The lock-free data-path primitives (`common/spsc_ring`, the scan-pool
// park/wake protocol, the ingest batch pending/lease counters, the obs
// counters) are templated over a *sync policy* so that exactly one source of
// truth exists for each algorithm:
//
//   * `mc::RealSync` (this header, the default everywhere) aliases the std /
//     dpisvc primitives directly. Every member is a type alias or an empty
//     inline function, so a `SpscRing<T>` or `ScanPool` compiled against
//     RealSync is byte-for-byte the same code as before the facade existed —
//     production builds pay nothing and never link the checker.
//
//   * `mc::ModelSync` (mc/model_sync.hpp, only in -DDPISVC_MODEL_CHECK
//     targets) routes every atomic access, mutex operation, condition-variable
//     wait/notify, thread spawn/join, yield, and annotated non-atomic access
//     through the central mc::Scheduler, which explores thread interleavings
//     exhaustively (mc/scheduler.hpp). Because the production classes are
//     instantiated over ModelSync, the checker executes the *shipped*
//     algorithms — not hand-copied models that can drift.
//
// Policy surface a sync-templated class may use:
//
//   Sync::Atomic<T>    std::atomic<T>-shaped (load/store/fetch_add/fetch_sub/
//                      exchange with explicit std::memory_order arguments)
//   Sync::Mutex        dpisvc::Mutex-shaped, capability-annotated
//   Sync::MutexLock    scoped lock over Sync::Mutex
//   Sync::CondVar      dpisvc::CondVar-shaped (wait/wait_for/notify_*);
//                      under the model, wait_for never times out — a timed
//                      backstop that turns out to be load-bearing therefore
//                      shows up as a modeled deadlock, not silent slowness
//   Sync::Thread       std::thread-shaped (joinable/join, movable)
//   Sync::yield()      spin-loop politeness hint; the model scheduler uses it
//                      as its fairness signal, so spin loops must call it
//   Sync::fence(o)     std::atomic_thread_fence
//   Sync::race_read(p) / Sync::race_write(p)
//                      annotate a *non-atomic* access to shared location `p`
//                      (loom's UnsafeCell idea): no-ops here, happens-before
//                      race detection under the model
#pragma once

#include <atomic>
#include <thread>

#include "common/thread_safety.hpp"

namespace dpisvc::mc {

/// The production sync policy: plain std / dpisvc primitives, zero overhead.
struct RealSync {
  template <typename T>
  using Atomic = std::atomic<T>;
  using Mutex = dpisvc::Mutex;
  using MutexLock = dpisvc::MutexLock;
  using CondVar = dpisvc::CondVar;
  using Thread = std::thread;

  static void yield() { std::this_thread::yield(); }
  static void fence(std::memory_order order) {
    std::atomic_thread_fence(order);
  }
  static void race_read(const void* /*addr*/) {}
  static void race_write(const void* /*addr*/) {}
};

/// Seeded bugs for the checker's "teeth" tests (tests/mc_fault_test.cpp).
/// A test-only Sync tag derived from ModelSync opts into exactly one by
/// declaring `static constexpr Fault kFault`; RealSync and ModelSync declare
/// none, so every shipped instantiation compiles the correct branch. Keying
/// the bug on the tag keeps one seeded bug from masking another in the same
/// TU, and the faulted code exists only in that tag's specializations.
enum class Fault {
  kNone,
  /// SpscRing's tail publish demoted from release to relaxed.
  kRingRelaxedPublish,
  /// Completion::finish_one signalling after releasing its mutex.
  kNotifyAfterUnlock,
  /// dispatch() running job 0 inline whenever its worker reads as
  /// `parked && ring.empty()`, instead of checking completed == pushed.
  kDispatchParkedCheck,
};

template <typename Sync>
constexpr Fault seeded_fault() {
  if constexpr (requires { Sync::kFault; }) {
    return Sync::kFault;
  } else {
    return Fault::kNone;
  }
}

}  // namespace dpisvc::mc
