// The DPI controller (§4.1, §4.3) — the logically-centralized brain of the
// service.
//
// Responsibilities, mapped to the paper:
//  - middlebox registration and pattern-set management over JSON messages,
//    backed by the ref-counted global PatternDb (§4.1);
//  - policy-chain registry: the TSA hands over middlebox-type sequences and
//    gets back the chain identifier the steering tag carries (§4.1: "It
//    assigns each policy chain a unique identifier that is used later by
//    the DPI service instances to indicate which pattern matching should be
//    performed");
//  - instance lifecycle: creating instances, compiling the combined engine
//    from the current PatternDb snapshot and pushing it to stale instances
//    (§4.1 "initializing DPI service instances", §5.1);
//  - chain-to-instance placement with least-loaded assignment (§4.3);
//  - MCA² orchestration: collecting instance telemetry into the stress
//    monitor, and producing/applying mitigation plans that divert heavy
//    chains to dedicated instances (§4.3.1, Figure 6).
//
// Data-plane routing changes implied by placement decisions are exposed as
// plain data (chain -> instance name) so any TSA implementation — our
// netsim one or a test harness — can realize them.
//
// Concurrency: one control-plane mutex (mu_) serializes every registry the
// controller owns (chains, instances, assignments, groups, engine cache,
// failure-detection state). Public entry points take the lock; private
// *_locked helpers carry a REQUIRES(mu_) contract that Clang's thread-safety
// analysis enforces under DPISVC_THREAD_SAFETY. Lock order: mu_ may be held
// while calling into a DpiInstance (instance control_mu_, then a shard
// mutex), never the reverse — see common/thread_safety.hpp. The routing
// listener is invoked with no controller lock held (notifications are
// collected under the lock and fired after release), so a TSA callback may
// re-enter the controller without deadlocking.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "common/thread_safety.hpp"
#include "dpi/pattern_db.hpp"
#include "json/json.hpp"
#include "obs/metrics.hpp"
#include "service/instance.hpp"
#include "service/mca2.hpp"
#include "service/messages.hpp"

namespace dpisvc::service {

/// One chain reassignment produced by MCA² mitigation.
struct Migration {
  dpi::ChainId chain = 0;
  std::string from_instance;
  std::string to_instance;
};

struct MitigationPlan {
  std::vector<std::string> stressed_instances;
  std::vector<Migration> migrations;

  bool empty() const noexcept { return migrations.empty(); }
};

/// Static-analysis admission control for the JSON registration channel.
/// Every add_patterns request is analyzed (src/analysis) against the budget
/// before the PatternDb is touched; over-budget or invalid requests are
/// rejected fail-closed with a stable diagnostic code while already-admitted
/// tenants keep scanning on the current engine.
struct AdmissionConfig {
  /// Disabling skips the predictive analysis only; structural validation
  /// (oversize patterns, duplicate rules, unknown middleboxes) always runs.
  bool enabled = true;
  analysis::AnalysisBudget budget;
  /// Per-expression exploration caps forwarded to the analyzer.
  std::size_t dfa_state_cap = 2048;
  std::size_t max_program_size = 1u << 20;
};

/// Failure-detection knobs (§4.3: instance pools / failover).
struct FailoverConfig {
  /// Consecutive telemetry windows without a heartbeat before an instance
  /// is declared failed.
  std::size_t miss_windows = 3;
};

/// Recovery plan for failed instances: their chains are reassigned to live
/// instances (least-loaded, preferring regular over dedicated), and each
/// failed instance's surviving flow state is migrated to the target that
/// received most of its chains.
struct FailoverPlan {
  std::vector<std::string> failed_instances;   ///< newly handled failures
  std::vector<Migration> reassignments;        ///< chain -> new instance
  /// Per failed instance, where its flow state should migrate ("" = lost).
  std::map<std::string, std::string> flow_targets;

  bool empty() const noexcept {
    return failed_instances.empty() && reassignments.empty();
  }
};

/// Outcome of apply_failover, for operators and tests.
struct FailoverResult {
  std::size_t chains_reassigned = 0;
  std::size_t flows_migrated = 0;
  std::size_t flows_lost = 0;  ///< state that could not be migrated
};

class DpiController {
 public:
  explicit DpiController(StressConfig stress_config = {},
                         FailoverConfig failover_config = {});

  // --- middlebox-facing JSON channel (§4.1) --------------------------------

  /// Handles one protocol message; never throws — errors come back as
  /// {"ok":false,"error":...} responses. Registration-path rejections carry
  /// a stable "code" field and, for admission-analysis rejections, a
  /// "diagnostics" array of {code,message} findings.
  json::Value handle_message(const json::Value& request);

  /// Admission-control configuration. The budget applies to the *next*
  /// registration message; already-admitted patterns are never re-judged.
  void set_admission_config(AdmissionConfig config);
  AdmissionConfig admission_config() const;

  /// Control-plane metrics: admission.accepted, admission.rejected.* typed
  /// rejection counters, analysis.runs, analysis.predicted_* gauges. Same
  /// external-synchronization contract as db() — the registry's own
  /// instruments are thread-safe.
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }

  /// Direct PatternDb access for setup-time configuration and test
  /// introspection. The reference bypasses mu_, so concurrent use against a
  /// running controller requires external synchronization; the controller's
  /// own mutations (handle_message, register_policy_chain) happen under its
  /// lock.
  dpi::PatternDb& db() noexcept { return db_; }
  const dpi::PatternDb& db() const noexcept { return db_; }

  // --- policy chains (TSA-facing) -------------------------------------------

  /// Registers a policy chain (sequence of middlebox type ids that use the
  /// DPI service) and returns its identifier. Identical sequences share an
  /// id.
  dpi::ChainId register_policy_chain(const std::vector<dpi::MiddleboxId>& mboxes);

  /// Snapshot of the chain registry (a copy: the live map is guarded by the
  /// controller lock and may change under a reference).
  std::map<dpi::ChainId, std::vector<dpi::MiddleboxId>> policy_chains() const;

  // --- instances --------------------------------------------------------------

  /// Creates (and tracks) an instance; it receives the current engine
  /// immediately. Dedicated instances get the compressed-automaton engine.
  std::shared_ptr<DpiInstance> create_instance(const std::string& name,
                                               InstanceConfig config = {});

  bool remove_instance(const std::string& name);

  std::shared_ptr<DpiInstance> instance(const std::string& name) const;
  std::vector<std::string> instance_names() const;

  /// Recompiles engines if the PatternDb changed and pushes them to stale
  /// instances. Called automatically by handle_message and create_instance;
  /// public for direct-API users.
  void sync_instances();

  // --- placement (§4.3) ---------------------------------------------------------

  /// Pins a chain to an instance.
  void assign_chain(dpi::ChainId chain, const std::string& instance_name);

  /// Least-loaded automatic placement over non-dedicated instances (load =
  /// number of chains currently assigned).
  std::string auto_assign_chain(dpi::ChainId chain);

  // --- deployment groups (§4.3) ---------------------------------------------
  // "A common deployment choice is to group together similar policy chains
  //  and to deploy instances that support only one group and not all the
  //  policy chains in the system."

  /// Defines (or redefines) a deployment group over existing chains.
  /// Instances created with InstanceConfig::group == `name` receive an
  /// engine restricted to these chains' middleboxes and patterns.
  void define_group(const std::string& name,
                    std::vector<dpi::ChainId> chains);

  /// Snapshot of the group registry (copy; see policy_chains()).
  std::map<std::string, std::vector<dpi::ChainId>> groups() const;

  std::optional<std::string> instance_for_chain(dpi::ChainId chain) const;

  /// Snapshot of chain -> instance placement (copy; see policy_chains()).
  std::map<dpi::ChainId, std::string> assignments() const;

  // --- MCA² (§4.3.1) ---------------------------------------------------------------

  /// Feeds the stress monitor one monitoring window per live instance: the
  /// telemetry delta since that instance's previous sample (a total below
  /// the previous one, as after reset_telemetry(), starts a fresh window).
  /// The per-chain deltas of the same window are kept for
  /// evaluate_mitigation(). Also closes a failure-detection epoch: any
  /// instance that has not heartbeated for FailoverConfig::miss_windows
  /// consecutive windows is declared failed.
  void collect_telemetry();

  /// Aggregated telemetry as the TELEMETRY_QUERY response body:
  /// {"ok":true,"instances":{name:{...telemetry_report...}}}. Pushed
  /// reports (telemetry_report messages) are overlaid by fresh state from
  /// in-process instances. `instance` filters to one name; empty = all.
  json::Value telemetry_json(const std::string& instance = "") const;

  /// Raw pushed reports, keyed by instance name (tests / introspection;
  /// copy, see policy_chains()).
  std::map<std::string, TelemetryReport> telemetry_reports() const;

  /// Direct monitor access for setup-time tuning and test introspection;
  /// same external-synchronization contract as db().
  StressMonitor& stress_monitor() noexcept { return monitor_; }

  /// Builds a plan diverting heavy chains on stressed instances to the
  /// least-loaded dedicated instance; a chain is heavy when its counts over
  /// the latest collect_telemetry() window cross the threshold. Empty if
  /// nothing is stressed or no dedicated instance exists.
  MitigationPlan evaluate_mitigation();

  /// Applies a plan: reassigns the chains. Returns the number of chains
  /// moved. (The caller propagates the change to its TSA so the data plane
  /// follows; see netsim examples.)
  std::size_t apply_mitigation(const MitigationPlan& plan);

  /// Moves one flow's scan state between instances (§4.3 flow migration).
  /// Fails cleanly (returns false, moves nothing) when: `from` or `to` does
  /// not name a known instance, `from == to`, the two instances run
  /// different engine versions (DFA state ids are engine-relative), or the
  /// flow has no state in the source's flow table. Never throws.
  bool migrate_flow(const net::FiveTuple& flow, const std::string& from,
                    const std::string& to);

  // --- failure detection + failover (§4.3, §7) ------------------------------

  /// Records that `name` was alive this window (the liveness channel; in
  /// netsim the harness heartbeats every non-crashed instance node each
  /// window). Unknown names are ignored.
  void heartbeat(const std::string& name);

  /// Telemetry windows observed so far (the failure-detection clock).
  std::uint64_t epoch() const {
    const MutexLock lock(mu_);
    return epoch_;
  }

  bool is_failed(const std::string& name) const {
    const MutexLock lock(mu_);
    return failed_.count(name) > 0;
  }
  std::vector<std::string> failed_instances() const {
    const MutexLock lock(mu_);
    return {failed_.begin(), failed_.end()};
  }

  /// Builds a plan reassigning every failed instance's chains to live
  /// instances via least-loaded placement (regular instances preferred,
  /// dedicated as a last resort). Chains with no live instance available
  /// stay put and are retried on the next evaluation.
  FailoverPlan evaluate_failover();

  /// Applies a plan: reassigns the chains, migrates each failed instance's
  /// surviving flow state to its flow target, and pushes one routing update
  /// per reassigned chain to the routing listener so the data plane follows.
  FailoverResult apply_failover(const FailoverPlan& plan);

  /// Brings a restarted instance back: clears its failed state, re-syncs
  /// its engine to the current version *before* it may take traffic again,
  /// and heartbeats it. Returns false for unknown instances.
  bool recover_instance(const std::string& name);

  /// Invoked with (chain, new_instance) whenever apply_mitigation or
  /// apply_failover moves a chain — the hook a TSA uses to reroute the
  /// data plane. The listener runs with no controller lock held, so it may
  /// call back into the controller.
  void set_routing_listener(
      std::function<void(dpi::ChainId, const std::string&)> listener) {
    const MutexLock lock(mu_);
    routing_listener_ = std::move(listener);
  }

  const FailoverConfig& failover_config() const noexcept {
    return failover_config_;
  }

 private:
  // Private helpers run under the controller lock taken by their public
  // entry point; the REQUIRES(mu_) contracts make that assumption
  // compiler-checked under DPISVC_THREAD_SAFETY.
  void sync_instances_locked() DPISVC_REQUIRES(mu_);
  void compile_and_push() DPISVC_REQUIRES(mu_);
  std::shared_ptr<const dpi::Engine> engine_for(const std::string& group,
                                                bool compressed)
      DPISVC_REQUIRES(mu_);
  dpi::EngineSpec group_spec(const dpi::EngineSpec& full,
                             const std::string& group) const
      DPISVC_REQUIRES(mu_);
  std::shared_ptr<DpiInstance> least_loaded(bool dedicated) const
      DPISVC_REQUIRES(mu_);
  std::shared_ptr<DpiInstance> least_loaded_live(
      const std::map<std::string, std::size_t>& planned_load) const
      DPISVC_REQUIRES(mu_);
  std::size_t chains_assigned_to(const std::string& name) const
      DPISVC_REQUIRES(mu_);
  std::shared_ptr<DpiInstance> instance_locked(const std::string& name) const
      DPISVC_REQUIRES(mu_);
  std::optional<std::string> instance_for_chain_locked(dpi::ChainId chain) const
      DPISVC_REQUIRES(mu_);
  json::Value telemetry_json_locked(const std::string& filter) const
      DPISVC_REQUIRES(mu_);
  /// Feeds the monitor the window between `name`'s previous sample and the
  /// cumulative `total`, and records `total` as the new previous sample.
  void report_window_locked(const std::string& name,
                            const InstanceTelemetry& total)
      DPISVC_REQUIRES(mu_);
  void heartbeat_locked(const std::string& name) DPISVC_REQUIRES(mu_);
  /// Validates then applies one add_patterns request. On rejection returns
  /// false with `rejection` set to the typed error response and the matching
  /// admission.rejected.* counter bumped; on success the PatternDb holds
  /// every pattern of the request (all-or-nothing).
  bool admit_patterns_locked(const AddPatternsRequest& req,
                             json::Value& rejection) DPISVC_REQUIRES(mu_);
  /// Maps an analyzer violation code to the typed rejection counter it
  /// increments (budget-class codes -> over_budget, syntax -> invalid_regex,
  /// unknown-middlebox codes -> unknown_middlebox, everything else -> other).
  obs::Counter& counter_for_violation(const std::string& code);

  /// Serializes all controller registries below. Held across calls into
  /// DpiInstance (the hierarchy permits mu_ -> control_mu_ -> shard mu);
  /// released before the routing listener fires.
  mutable Mutex mu_;

  /// db_ and monitor_ are deliberately unannotated: db() and
  /// stress_monitor() hand out references for setup-time use, which the
  /// capability model cannot express without blanketing callers in escape
  /// hatches. The controller's own accesses all happen under mu_.
  dpi::PatternDb db_;
  StressMonitor monitor_;
  /// Immutable after construction.
  FailoverConfig failover_config_;

  /// Control-plane metrics. Like db_, deliberately unannotated: metrics()
  /// hands out a reference and the instruments are internally thread-safe.
  /// The Counter/Gauge references below resolve once at construction and
  /// stay valid for the registry's lifetime.
  obs::MetricsRegistry metrics_;
  obs::Counter& admission_accepted_;
  obs::Counter& rej_decode_;
  obs::Counter& rej_duplicate_;
  obs::Counter& rej_oversize_;
  obs::Counter& rej_unknown_mbox_;
  obs::Counter& rej_unknown_rule_;
  obs::Counter& rej_invalid_regex_;
  obs::Counter& rej_over_budget_;
  obs::Counter& rej_other_;
  obs::Counter& analysis_runs_;
  obs::Gauge& predicted_states_;
  obs::Gauge& predicted_memory_;

  AdmissionConfig admission_ DPISVC_GUARDED_BY(mu_);

  std::uint64_t compiled_version_ DPISVC_GUARDED_BY(mu_) = 0;
  /// Compiled engines keyed by (group, compressed); "" = all chains.
  std::map<std::pair<std::string, bool>, std::shared_ptr<const dpi::Engine>>
      engine_cache_ DPISVC_GUARDED_BY(mu_);
  dpi::EngineSpec cached_spec_ DPISVC_GUARDED_BY(mu_);
  std::map<std::string, std::vector<dpi::ChainId>> groups_
      DPISVC_GUARDED_BY(mu_);

  std::map<dpi::ChainId, std::vector<dpi::MiddleboxId>> chains_
      DPISVC_GUARDED_BY(mu_);
  dpi::ChainId next_chain_id_ DPISVC_GUARDED_BY(mu_) = 1;

  std::map<std::string, std::shared_ptr<DpiInstance>> instances_
      DPISVC_GUARDED_BY(mu_);
  std::map<dpi::ChainId, std::string> assignments_ DPISVC_GUARDED_BY(mu_);
  /// Latest telemetry_report per instance name, as pushed over the JSON
  /// channel.
  std::map<std::string, TelemetryReport> telemetry_reports_
      DPISVC_GUARDED_BY(mu_);
  /// Each instance's previous cumulative sample, from collect_telemetry()
  /// or a pushed report: MCA² windows are deltas between samples.
  struct TelemetrySample {
    InstanceTelemetry total;
    std::map<dpi::ChainId, ChainTelemetry> chain_total;
    std::map<dpi::ChainId, ChainTelemetry> chain_window;  ///< latest window
  };
  std::map<std::string, TelemetrySample> samples_ DPISVC_GUARDED_BY(mu_);

  std::uint64_t epoch_ DPISVC_GUARDED_BY(mu_) = 0;
  std::map<std::string, std::uint64_t> last_heartbeat_ DPISVC_GUARDED_BY(mu_);
  std::set<std::string> failed_ DPISVC_GUARDED_BY(mu_);
  std::function<void(dpi::ChainId, const std::string&)> routing_listener_
      DPISVC_GUARDED_BY(mu_);
};

}  // namespace dpisvc::service
