// Seeded-bug "teeth" tests for the dpisvc_mc model checker (DESIGN.md §7):
// real, historical or plausible bug shapes are re-introduced into the
// SHIPPED templates, and the checker must find each one in bounded
// exploration with a replayable schedule.
//
// Each bug is keyed on its own TU-local Sync tag (mc::Fault, mc/sync.hpp):
// only that tag's specializations of SpscRing / BasicScanPool carry the
// bug, so the seeded bugs cannot mask one another here, and every other TU
// sees only the un-faulted RealSync/ModelSync specializations.
#include <gtest/gtest.h>

#include "mc/model_sync.hpp"
#include "mc/scenarios.hpp"
#include "mc/scheduler.hpp"

namespace {

using dpisvc::mc::ExploreResult;
using dpisvc::mc::Explorer;
using dpisvc::mc::Fault;

struct RingFaultSync : dpisvc::mc::ModelSync {
  static constexpr Fault kFault = Fault::kRingRelaxedPublish;
};
struct NotifyFaultSync : dpisvc::mc::ModelSync {
  static constexpr Fault kFault = Fault::kNotifyAfterUnlock;
};
struct DispatchFaultSync : dpisvc::mc::ModelSync {
  static constexpr Fault kFault = Fault::kDispatchParkedCheck;
};

// Seeded bug 1: the producer's tail publish demoted from release to
// relaxed. The consumer's acquire of tail_ then reads a store that carries
// no happens-before edge, so its non-atomic slot read races with the
// producer's slot write — MC002, found exhaustively, schedule replayable.
TEST(McFaultTest, RelaxedRingPublishFoundAsDataRace) {
  const auto body = [] {
    dpisvc::mc::scenarios::ring_spsc_body<RingFaultSync>(/*capacity=*/2,
                                                     /*items=*/2);
  };
  Explorer explorer;
  const ExploreResult res = explorer.explore(body);
  ASSERT_FALSE(res.ok()) << "seeded relaxed publish must be detected";
  EXPECT_EQ(res.bug->code, "MC002");
  EXPECT_FALSE(res.bug->schedule.empty());
  EXPECT_FALSE(res.bug->schedule_text.empty());

  Explorer replayer;
  const ExploreResult rep = replayer.replay(body, res.bug->schedule);
  ASSERT_FALSE(rep.ok());
  // Same diagnostic class; the message embeds the racing address, which is
  // a fresh allocation in the replaying Explorer.
  EXPECT_EQ(rep.bug->code, "MC002");
}

// Seeded bug 2: Completion::finish_one signalling AFTER releasing the
// mutex (the pre-PR9 shape). The waiter can then observe remaining_ == 0,
// return from wait_zero(), and destroy the stack latch while the
// finisher's notify is still in flight — a use-after-destroy on the
// latch's CondVar, MC003, with the destroy and the late notify both
// visible in the printed schedule.
TEST(McFaultTest, NotifyAfterUnlockFoundAsUseAfterDestroy) {
  const auto body = [] {
    dpisvc::mc::scenarios::completion_latch_body<NotifyFaultSync>();
  };
  Explorer explorer;
  const ExploreResult res = explorer.explore(body);
  ASSERT_FALSE(res.ok()) << "seeded notify-after-unlock must be detected";
  EXPECT_EQ(res.bug->code, "MC003");
  EXPECT_FALSE(res.bug->schedule.empty());
  EXPECT_FALSE(res.bug->schedule_text.empty());

  Explorer replayer;
  const ExploreResult rep = replayer.replay(body, res.bug->schedule);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.bug->code, "MC003");
}

// Seeded bug 3: dispatch() running job 0 on the caller whenever worker 0
// reads as `parked && ring.empty()`. A worker whose final re-check has just
// popped the earlier asynchronous job still reads that way, so the inline
// job overtakes it: worker 0's jobs run out of order or concurrently (an
// order violation or a data race on the job log). The overtake needs two
// preemptions, one more than the registry's pool_dispatch bound.
TEST(McFaultTest, ParkedCheckInlineJobOvertakesQueuedJob) {
  const auto body = [] {
    dpisvc::mc::scenarios::pool_dispatch_body<DispatchFaultSync>();
  };
  dpisvc::mc::ExploreOptions options;
  options.max_preemptions = 2;
  Explorer explorer(options);
  const ExploreResult res = explorer.explore(body);
  ASSERT_FALSE(res.ok()) << "seeded parked-check inline job must be detected";
  EXPECT_TRUE(res.bug->code == "MC001" || res.bug->code == "MC002")
      << res.bug->code << " " << res.bug->message;
  EXPECT_FALSE(res.bug->schedule.empty());

  Explorer replayer;
  const ExploreResult rep = replayer.replay(body, res.bug->schedule);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.bug->code, res.bug->code);
}

// The un-faulted controls live in mc_test.cpp: the ring_spsc,
// completion_latch and pool_dispatch registry scenarios verify clean over
// ModelSync.

}  // namespace
