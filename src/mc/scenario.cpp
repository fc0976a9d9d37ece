#include "mc/scenario.hpp"

#include "mc/model_sync.hpp"
#include "mc/scenarios.hpp"

namespace dpisvc::mc {

namespace {

std::vector<ScenarioInfo> build_registry() {
  std::vector<ScenarioInfo> list;

  {
    ScenarioInfo s;
    s.name = "batch_pending";
    s.description =
        "ingest batch completion latch: shard results visible after "
        "all_done() (release-dec/acquire-zero pairing)";
    s.body = [] { scenarios::batch_pending_body<ModelSync>(); };
    list.push_back(std::move(s));
  }
  {
    ScenarioInfo s;
    s.name = "completion_latch";
    s.description =
        "ScanPool::Completion destroyed by the waiter the moment wait_zero() "
        "returns; notify-under-mutex keeps the finisher off the freed latch";
    s.body = [] { scenarios::completion_latch_body<ModelSync>(); };
    list.push_back(std::move(s));
  }
  {
    ScenarioInfo s;
    s.name = "lease_recycle";
    s.description =
        "lease-gated arena recycle: reset only after LeaseCounter::idle(), "
        "ordered against the leaseholder's payload reads";
    s.body = [] { scenarios::lease_recycle_body<ModelSync>(); };
    list.push_back(std::move(s));
  }
  {
    ScenarioInfo s;
    s.name = "obs_counter_take";
    s.description =
        "telemetry snapshot-and-reset: concurrent add() vs take() never "
        "loses or double-counts";
    s.body = [] { scenarios::obs_counter_take_body<ModelSync>(); };
    list.push_back(std::move(s));
  }
  {
    ScenarioInfo s;
    s.name = "pool_dispatch";
    s.description =
        "ScanPool dispatch: the caller runs job 0 inline only when its "
        "worker completed every pushed job; per-worker FIFO, exactly-once, "
        "no lost wakeup under untimed waits";
    // One preemption keeps the registry run to seconds. The overtake the
    // parked-check variant allows needs two (the fault test explores at
    // two); `dpisvc_mc --scenario pool_dispatch --max-preemptions 2`
    // verifies the shipped protocol there too (≈170k executions, ≈12 min).
    s.options.max_preemptions = 1;
    s.body = [] { scenarios::pool_dispatch_body<ModelSync>(); };
    list.push_back(std::move(s));
  }
  {
    ScenarioInfo s;
    s.name = "pool_park_wake";
    s.description =
        "ScanPool park/wake: untimed modeled waits prove the 1ms backstop "
        "is never load-bearing (a lost wakeup would deadlock, MC004)";
    // 3 model threads x a destructor protocol: bounded-preemption fallback.
    s.options.max_preemptions = 2;
    s.body = [] { scenarios::pool_park_wake_body<ModelSync>(); };
    list.push_back(std::move(s));
  }
  {
    ScenarioInfo s;
    s.name = "ring_capacity_one";
    s.description =
        "SpscRing at capacity 1: every push/pop alternation explored, no "
        "overrun or underrun at the exact-full boundary";
    s.body = [] { scenarios::ring_spsc_body<ModelSync>(1, 2); };
    list.push_back(std::move(s));
  }
  {
    ScenarioInfo s;
    s.name = "ring_spsc";
    s.description =
        "SpscRing capacity 2, 3 items: FIFO order and release/acquire "
        "publication of every slot payload";
    s.body = [] { scenarios::ring_spsc_body<ModelSync>(2, 3); };
    list.push_back(std::move(s));
  }

  return list;
}

}  // namespace

const std::vector<ScenarioInfo>& scenario_registry() {
  static const std::vector<ScenarioInfo> registry = build_registry();
  return registry;
}

const ScenarioInfo* find_scenario(std::string_view name) {
  for (const ScenarioInfo& s : scenario_registry()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace dpisvc::mc
