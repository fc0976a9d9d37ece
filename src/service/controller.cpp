#include "service/controller.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/invariant.hpp"
#include "common/logging.hpp"

namespace dpisvc::service {

namespace {

/// The window between two cumulative samples. A total below the previous
/// one means the source's counters were reset (reset_telemetry(), or a
/// restarted instance), so the new total is a fresh window of its own.
InstanceTelemetry window_since(const InstanceTelemetry& prev,
                               const InstanceTelemetry& now) {
  if (now.packets < prev.packets || now.bytes < prev.bytes ||
      now.raw_hits < prev.raw_hits) {
    return now;
  }
  InstanceTelemetry window = now;
  window -= prev;
  return window;
}

ChainTelemetry window_since(const ChainTelemetry& prev,
                            const ChainTelemetry& now) {
  if (now.packets < prev.packets || now.bytes < prev.bytes ||
      now.raw_hits < prev.raw_hits) {
    return now;
  }
  return ChainTelemetry{now.packets - prev.packets, now.bytes - prev.bytes,
                        now.raw_hits - prev.raw_hits};
}

}  // namespace

DpiController::DpiController(StressConfig stress_config,
                             FailoverConfig failover_config)
    : monitor_(stress_config),
      failover_config_(failover_config),
      admission_accepted_(metrics_.counter("admission.accepted")),
      rej_decode_(metrics_.counter("admission.rejected.decode_error")),
      rej_duplicate_(metrics_.counter("admission.rejected.duplicate_rule")),
      rej_oversize_(metrics_.counter("admission.rejected.oversize_pattern")),
      rej_unknown_mbox_(
          metrics_.counter("admission.rejected.unknown_middlebox")),
      rej_unknown_rule_(metrics_.counter("admission.rejected.unknown_rule")),
      rej_invalid_regex_(metrics_.counter("admission.rejected.invalid_regex")),
      rej_over_budget_(metrics_.counter("admission.rejected.over_budget")),
      rej_other_(metrics_.counter("admission.rejected.other")),
      analysis_runs_(metrics_.counter("analysis.runs")),
      predicted_states_(metrics_.gauge("analysis.predicted_states")),
      predicted_memory_(metrics_.gauge("analysis.predicted_memory_bytes")) {}

void DpiController::set_admission_config(AdmissionConfig config) {
  const MutexLock lock(mu_);
  admission_ = std::move(config);
}

AdmissionConfig DpiController::admission_config() const {
  const MutexLock lock(mu_);
  return admission_;
}

// --- JSON channel ------------------------------------------------------------

json::Value DpiController::handle_message(const json::Value& request) {
  const MutexLock lock(mu_);
  std::string type;
  try {
    type = message_type(request);
  } catch (const std::exception& e) {
    rej_decode_.add();
    return error_response(e.what(), "decode-error");
  }
  try {
    // Telemetry messages are pure observability traffic: they never touch
    // the PatternDb, so they answer directly without an engine re-sync.
    if (type == "telemetry_report") {
      const TelemetryReport report = decode_telemetry_report(request);
      telemetry_reports_[report.instance] = report;
      InstanceTelemetry t;
      t.packets = report.packets;
      t.bytes = report.bytes;
      t.raw_hits = report.raw_hits;
      t.match_packets = report.match_packets;
      t.flow_evictions = report.flow_evictions;
      t.busy_seconds = report.busy_seconds;
      report_window_locked(report.instance, t);
      // A pushed report is proof of life for the failure detector.
      heartbeat_locked(report.instance);
      return ok_response();
    }
    if (type == "telemetry_query") {
      const TelemetryQuery query = decode_telemetry_query(request);
      return telemetry_json_locked(query.instance);
    }
    if (type == "register") {
      const RegisterRequest req = decode_register(request);
      if (db_.is_registered(req.profile.id)) {
        rej_duplicate_.add();
        return error_response(
            "middlebox " + std::to_string(req.profile.id) +
                " already registered",
            "duplicate-registration");
      }
      if (req.inherit_from && !db_.is_registered(*req.inherit_from)) {
        rej_unknown_mbox_.add();
        return error_response(
            "inherit_from names unregistered middlebox " +
                std::to_string(*req.inherit_from),
            "unknown-middlebox");
      }
      db_.register_middlebox(req.profile);
      if (req.inherit_from) {
        // §4.1 inheritance copies references to already-admitted distinct
        // patterns: no new distinct strings enter the combined engine, so
        // the inherited set is not re-analyzed or re-charged against the
        // admission budget.
        db_.inherit_patterns(req.profile.id, *req.inherit_from);
      }
      admission_accepted_.add();
      log(LogLevel::kInfo, "dpi-ctrl", "registered middlebox ",
          req.profile.id, " (", req.profile.name, ")");
    } else if (type == "add_patterns") {
      const AddPatternsRequest req = decode_add_patterns(request);
      json::Value rejection;
      if (!admit_patterns_locked(req, rejection)) {
        return rejection;
      }
      admission_accepted_.add();
    } else if (type == "remove_patterns") {
      const RemovePatternsRequest req = decode_remove_patterns(request);
      // Validate-then-apply: a request naming one unknown rule removes
      // nothing (the old mid-loop reject left earlier removals applied).
      for (dpi::PatternId rule : req.rules) {
        if (!db_.has_rule(req.middlebox, rule)) {
          rej_unknown_rule_.add();
          return error_response("unknown rule " + std::to_string(rule),
                                "unknown-rule");
        }
      }
      for (dpi::PatternId rule : req.rules) {
        if (!db_.remove_exact(req.middlebox, rule)) {
          db_.remove_regex(req.middlebox, rule);
        }
      }
    } else if (type == "unregister") {
      const UnregisterRequest req = decode_unregister(request);
      if (!db_.unregister_middlebox(req.middlebox)) {
        rej_unknown_mbox_.add();
        return error_response("middlebox not registered", "unknown-middlebox");
      }
      // Mirror the PatternDb's chain scrub in the controller's registry so
      // a later register_policy_chain cannot alias a stale sequence.
      for (auto& [chain, members] : chains_) {
        std::erase(members, req.middlebox);
      }
    } else {
      rej_decode_.add();
      return error_response("unknown message type: " + type,
                            "unknown-message-type");
    }
    sync_instances_locked();
    return ok_response();
  } catch (const dpi::PatternDbError& e) {
    // Typed PatternDb rejections reach here only on paths admission does
    // not pre-validate (defense in depth; the counters stay accurate).
    switch (e.code()) {
      case dpi::PatternDbError::Code::kDuplicateRule:
        rej_duplicate_.add();
        return error_response(e.what(), "duplicate-rule");
      case dpi::PatternDbError::Code::kPatternTooLong:
        rej_oversize_.add();
        return error_response(e.what(), "pattern-too-long");
    }
    rej_other_.add();
    return error_response(e.what());
  } catch (const json::TypeError& e) {
    rej_decode_.add();
    return error_response(e.what(), "decode-error");
  } catch (const std::invalid_argument& e) {
    // Remaining invalid_argument sources on this path are the request
    // decoders (malformed field values); PatternDbError was caught above.
    rej_decode_.add();
    return error_response(e.what(), "decode-error");
  } catch (const std::exception& e) {
    rej_other_.add();
    return error_response(e.what());
  }
}

obs::Counter& DpiController::counter_for_violation(const std::string& code) {
  if (code == "regex-syntax-error") return rej_invalid_regex_;
  if (code == "pattern-too-long") return rej_oversize_;
  if (code == "pattern-unknown-middlebox" ||
      code == "regex-unknown-middlebox" ||
      code == "chain-unknown-middlebox") {
    return rej_unknown_mbox_;
  }
  // Everything the budget (or a structural capacity limit) rejects that a
  // plain compile would have accepted — or blown up on.
  if (code == "states-over-budget" || code == "memory-over-budget" ||
      code == "regex-nfa-over-budget" || code == "regex-dfa-blowup" ||
      code == "regex-program-too-large" ||
      code == "middlebox-quota-exceeded" || code == "anchor-bits-exceeded" ||
      code == "regex-anchorless" || code == "regex-unbounded-repeat" ||
      code == "regex-large-class-repeat") {
    return rej_over_budget_;
  }
  return rej_other_;
}

bool DpiController::admit_patterns_locked(const AddPatternsRequest& req,
                                          json::Value& rejection) {
  if (!db_.is_registered(req.middlebox)) {
    rej_unknown_mbox_.add();
    rejection = error_response(
        "middlebox " + std::to_string(req.middlebox) + " not registered",
        "unknown-middlebox");
    return false;
  }
  // Structural pre-validation. Two jobs: give precise typed rejections for
  // the common failure classes, and guarantee the apply loop below cannot
  // throw (all-or-nothing semantics — the old code applied a prefix of the
  // request before the first PatternDb throw).
  std::set<dpi::PatternId> in_request;
  const auto structural = [&](dpi::PatternId rule, const std::string& bytes,
                              const char* what) -> bool {
    if (bytes.empty()) {
      rej_other_.add();
      rejection = error_response(
          std::string("empty ") + what + ": rule " + std::to_string(rule),
          "pattern-empty");
      return false;
    }
    if (bytes.size() > dpi::kMaxPatternBytes) {
      rej_oversize_.add();
      rejection = error_response(
          std::string(what) + " too long: rule " + std::to_string(rule),
          "pattern-too-long");
      return false;
    }
    if (db_.has_rule(req.middlebox, rule) || !in_request.insert(rule).second) {
      rej_duplicate_.add();
      rejection = error_response("duplicate rule " + std::to_string(rule),
                                 "duplicate-rule");
      return false;
    }
    return true;
  };
  for (const auto& p : req.exact) {
    if (!structural(p.rule, p.bytes, "pattern")) return false;
  }
  for (const auto& p : req.regex) {
    if (!structural(p.rule, p.expression, "regex")) return false;
  }
  if (admission_.enabled) {
    // Analyze the post-request world: current snapshot plus the candidate
    // patterns, against the same EngineConfig engine_for compiles with.
    dpi::EngineSpec candidate = db_.snapshot();
    for (const auto& p : req.exact) {
      dpi::ExactPatternSpec spec;
      spec.bytes = p.bytes;
      spec.middlebox = req.middlebox;
      spec.pattern_id = p.rule;
      candidate.exact_patterns.push_back(std::move(spec));
    }
    for (const auto& p : req.regex) {
      dpi::RegexPatternSpec spec;
      spec.expression = p.expression;
      spec.middlebox = req.middlebox;
      spec.pattern_id = p.rule;
      spec.case_insensitive = p.case_insensitive;
      candidate.regex_patterns.push_back(std::move(spec));
    }
    analysis::AnalysisOptions options;
    options.budget = admission_.budget;
    options.dfa_state_cap = admission_.dfa_state_cap;
    options.max_program_size = admission_.max_program_size;
    const analysis::PatternSetReport report =
        analysis::analyze(candidate, options);
    analysis_runs_.add();
    predicted_states_.set(
        static_cast<std::int64_t>(report.predicted_states));
    predicted_memory_.set(
        static_cast<std::int64_t>(report.predicted_memory_full));
    if (!report.admissible()) {
      const verify::Diagnostic& first = report.violations.front();
      counter_for_violation(first.code).add();
      json::Array diagnostics;
      diagnostics.reserve(report.violations.size());
      for (const auto& d : report.violations) {
        diagnostics.push_back(json::Value(
            json::obj({{"code", d.code}, {"message", d.message}})));
      }
      json::Object body = json::obj(
          {{"ok", false}, {"error", first.message}, {"code", first.code}});
      body["diagnostics"] = json::Value(std::move(diagnostics));
      rejection = json::Value(std::move(body));
      log(LogLevel::kWarn, "dpi-ctrl", "rejected add_patterns for middlebox ",
          req.middlebox, ": ", first.code);
      return false;
    }
  }
  // Apply. Pre-validation covered every PatternDb throw condition, so the
  // whole request lands or none of it does.
  for (const auto& p : req.exact) {
    db_.add_exact(req.middlebox, p.rule, p.bytes);
  }
  for (const auto& p : req.regex) {
    db_.add_regex(req.middlebox, p.rule, p.expression, p.case_insensitive);
  }
  return true;
}

// --- policy chains -------------------------------------------------------------

dpi::ChainId DpiController::register_policy_chain(
    const std::vector<dpi::MiddleboxId>& mboxes) {
  const MutexLock lock(mu_);
  for (const auto& [id, members] : chains_) {
    if (members == mboxes) return id;  // identical sequences share an id
  }
  for (dpi::MiddleboxId id : mboxes) {
    if (!db_.is_registered(id)) {
      throw std::invalid_argument(
          "register_policy_chain: middlebox not registered");
    }
  }
  const dpi::ChainId chain = next_chain_id_++;
  chains_[chain] = mboxes;
  db_.set_chain(chain, mboxes);
  sync_instances_locked();
  log(LogLevel::kInfo, "dpi-ctrl", "policy chain ", chain, " registered (",
      mboxes.size(), " middleboxes)");
  return chain;
}

std::map<dpi::ChainId, std::vector<dpi::MiddleboxId>>
DpiController::policy_chains() const {
  const MutexLock lock(mu_);
  return chains_;
}

// --- instances --------------------------------------------------------------------

std::shared_ptr<DpiInstance> DpiController::create_instance(
    const std::string& name, InstanceConfig config) {
  const MutexLock lock(mu_);
  if (instances_.count(name)) {
    throw std::invalid_argument("create_instance: duplicate name " + name);
  }
  if (!config.group.empty() && !groups_.count(config.group)) {
    throw std::invalid_argument("create_instance: undefined group " +
                                config.group);
  }
  auto inst = std::make_shared<DpiInstance>(name, config);
  instances_[name] = inst;
  last_heartbeat_[name] = epoch_ + 1;  // vouches for the upcoming window
  sync_instances_locked();
  // sync_instances only pushes on version change; force the initial load.
  if (!inst->has_engine() && compiled_version_ > 0) {
    inst->load_engine(engine_for(config.group, config.dedicated),
                      compiled_version_);
  }
  log(LogLevel::kInfo, "dpi-ctrl", "instance ", name, " created",
      config.dedicated ? " (dedicated)" : "");
  return inst;
}

bool DpiController::remove_instance(const std::string& name) {
  const MutexLock lock(mu_);
  if (instances_.erase(name) == 0) return false;
  monitor_.forget(name);
  samples_.erase(name);
  last_heartbeat_.erase(name);
  failed_.erase(name);
  for (auto it = assignments_.begin(); it != assignments_.end();) {
    it = it->second == name ? assignments_.erase(it) : std::next(it);
  }
  return true;
}

std::shared_ptr<DpiInstance> DpiController::instance_locked(
    const std::string& name) const {
  auto it = instances_.find(name);
  return it == instances_.end() ? nullptr : it->second;
}

std::shared_ptr<DpiInstance> DpiController::instance(
    const std::string& name) const {
  const MutexLock lock(mu_);
  return instance_locked(name);
}

std::vector<std::string> DpiController::instance_names() const {
  const MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(instances_.size());
  for (const auto& [name, inst] : instances_) {
    out.push_back(name);
  }
  return out;
}

dpi::EngineSpec DpiController::group_spec(const dpi::EngineSpec& full,
                                          const std::string& group) const {
  if (group.empty()) return full;
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    throw std::invalid_argument("DpiController: undefined group " + group);
  }
  // Restrict to the group's chains, the middleboxes appearing on them, and
  // those middleboxes' patterns (§4.3).
  dpi::EngineSpec out;
  dpi::MiddleboxBitmap kept = 0;
  for (dpi::ChainId chain : it->second) {
    auto members = full.chains.find(chain);
    if (members == full.chains.end()) continue;  // chain since removed
    out.chains[chain] = members->second;
    for (dpi::MiddleboxId id : members->second) {
      kept |= dpi::bitmap_of(id);
    }
  }
  for (const auto& profile : full.middleboxes) {
    if (kept & dpi::bitmap_of(profile.id)) {
      out.middleboxes.push_back(profile);
    }
  }
  for (const auto& pattern : full.exact_patterns) {
    if (kept & dpi::bitmap_of(pattern.middlebox)) {
      out.exact_patterns.push_back(pattern);
    }
  }
  for (const auto& pattern : full.regex_patterns) {
    if (kept & dpi::bitmap_of(pattern.middlebox)) {
      out.regex_patterns.push_back(pattern);
    }
  }
  return out;
}

std::shared_ptr<const dpi::Engine> DpiController::engine_for(
    const std::string& group, bool compressed) {
  const auto key = std::make_pair(group, compressed);
  auto it = engine_cache_.find(key);
  if (it != engine_cache_.end()) return it->second;
  dpi::EngineConfig config;
  config.use_compressed_automaton = compressed;
  auto engine = dpi::Engine::compile(group_spec(cached_spec_, group), config);
  engine_cache_.emplace(key, engine);
  return engine;
}

void DpiController::compile_and_push() {
  cached_spec_ = db_.snapshot();
  engine_cache_.clear();
  compiled_version_ = db_.version();
  for (auto& [name, inst] : instances_) {
    if (failed_.count(name)) continue;  // unreachable; re-synced on recovery
    inst->load_engine(
        engine_for(inst->config().group, inst->config().dedicated),
        compiled_version_);
  }
}

void DpiController::sync_instances_locked() {
  if (compiled_version_ == db_.version() && compiled_version_ != 0) {
    // Engines current; push only to instances that missed the last compile.
    for (auto& [name, inst] : instances_) {
      if (failed_.count(name)) continue;
      if (inst->engine_version() != compiled_version_) {
        inst->load_engine(
            engine_for(inst->config().group, inst->config().dedicated),
            compiled_version_);
      }
    }
    return;
  }
  if (db_.version() == 0) return;  // nothing registered yet
  compile_and_push();
}

void DpiController::sync_instances() {
  const MutexLock lock(mu_);
  sync_instances_locked();
}

void DpiController::define_group(const std::string& name,
                                 std::vector<dpi::ChainId> chains) {
  const MutexLock lock(mu_);
  if (name.empty()) {
    throw std::invalid_argument("define_group: empty group name");
  }
  for (dpi::ChainId chain : chains) {
    if (!chains_.count(chain)) {
      throw std::invalid_argument("define_group: unknown chain");
    }
  }
  groups_[name] = std::move(chains);
  // Group membership changed: group engines must be rebuilt and re-pushed.
  if (compiled_version_ != 0) {
    compile_and_push();
  }
  log(LogLevel::kInfo, "dpi-ctrl", "group ", name, " defined");
}

std::map<std::string, std::vector<dpi::ChainId>> DpiController::groups()
    const {
  const MutexLock lock(mu_);
  return groups_;
}

// --- placement -----------------------------------------------------------------------

void DpiController::assign_chain(dpi::ChainId chain,
                                 const std::string& instance_name) {
  const MutexLock lock(mu_);
  if (!chains_.count(chain)) {
    throw std::invalid_argument("assign_chain: unknown chain");
  }
  if (!instances_.count(instance_name)) {
    throw std::invalid_argument("assign_chain: unknown instance");
  }
  assignments_[chain] = instance_name;
}

std::size_t DpiController::chains_assigned_to(const std::string& name) const {
  std::size_t n = 0;
  for (const auto& [chain, inst] : assignments_) {
    if (inst == name) ++n;
  }
  return n;
}

std::shared_ptr<DpiInstance> DpiController::least_loaded(
    bool dedicated) const {
  std::shared_ptr<DpiInstance> best;
  std::size_t best_load = 0;
  for (const auto& [name, inst] : instances_) {
    if (inst->config().dedicated != dedicated) continue;
    if (failed_.count(name)) continue;  // dead instances take no traffic
    const std::size_t load = chains_assigned_to(name);
    if (!best || load < best_load) {
      best = inst;
      best_load = load;
    }
  }
  return best;
}

std::shared_ptr<DpiInstance> DpiController::least_loaded_live(
    const std::map<std::string, std::size_t>& planned_load) const {
  // Prefer regular instances; fall back to dedicated ones rather than
  // leaving a chain unserved. `planned_load` adds reassignments already in
  // the plan being built so orphaned chains spread across targets.
  std::shared_ptr<DpiInstance> best;
  std::size_t best_load = 0;
  bool best_dedicated = true;
  for (const auto& [name, inst] : instances_) {
    if (failed_.count(name)) continue;
    const auto planned = planned_load.find(name);
    const std::size_t load =
        chains_assigned_to(name) +
        (planned == planned_load.end() ? 0 : planned->second);
    const bool dedicated = inst->config().dedicated;
    const bool better = !best || (best_dedicated && !dedicated) ||
                        (best_dedicated == dedicated && load < best_load);
    if (better) {
      best = inst;
      best_load = load;
      best_dedicated = dedicated;
    }
  }
  return best;
}

std::string DpiController::auto_assign_chain(dpi::ChainId chain) {
  const MutexLock lock(mu_);
  auto inst = least_loaded(/*dedicated=*/false);
  if (!inst) {
    throw std::logic_error("auto_assign_chain: no regular instance available");
  }
  if (!chains_.count(chain)) {
    throw std::invalid_argument("assign_chain: unknown chain");
  }
  assignments_[chain] = inst->instance_name();
  return inst->instance_name();
}

std::optional<std::string> DpiController::instance_for_chain_locked(
    dpi::ChainId chain) const {
  auto it = assignments_.find(chain);
  if (it == assignments_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::string> DpiController::instance_for_chain(
    dpi::ChainId chain) const {
  const MutexLock lock(mu_);
  return instance_for_chain_locked(chain);
}

std::map<dpi::ChainId, std::string> DpiController::assignments() const {
  const MutexLock lock(mu_);
  return assignments_;
}

std::map<std::string, TelemetryReport> DpiController::telemetry_reports()
    const {
  const MutexLock lock(mu_);
  return telemetry_reports_;
}

json::Value DpiController::telemetry_json_locked(
    const std::string& filter) const {
  json::Object instances;
  // Reports pushed over the JSON channel (possibly from instances this
  // controller does not host) ...
  for (const auto& [name, report] : telemetry_reports_) {
    if (!filter.empty() && name != filter) continue;
    instances[name] = encode(report);
  }
  // ... overlaid by fresh state for in-process instances, which is always
  // current.
  for (const auto& [name, inst] : instances_) {
    if (!filter.empty() && name != filter) continue;
    instances[name] = encode(make_telemetry_report(*inst));
  }
  json::Object root;
  root["ok"] = json::Value(true);
  root["instances"] = json::Value(std::move(instances));
  // Control-plane self-telemetry: admission/rejection counters and the
  // latest analysis predictions, in the standard obs snapshot shape.
  root["controller"] = metrics_.snapshot();
  return json::Value(std::move(root));
}

json::Value DpiController::telemetry_json(const std::string& filter) const {
  const MutexLock lock(mu_);
  return telemetry_json_locked(filter);
}

// --- MCA² ------------------------------------------------------------------------------

void DpiController::report_window_locked(const std::string& name,
                                         const InstanceTelemetry& total) {
  TelemetrySample& sample = samples_[name];
  monitor_.report(name, window_since(sample.total, total));
  sample.total = total;
}

void DpiController::collect_telemetry() {
  const MutexLock lock(mu_);
  ++epoch_;
  for (auto& [name, inst] : instances_) {
    if (failed_.count(name)) continue;  // no fresh telemetry from the dead
    report_window_locked(name, inst->telemetry());
    TelemetrySample& sample = samples_[name];
    std::map<dpi::ChainId, ChainTelemetry> chains = inst->chain_telemetry();
    sample.chain_window.clear();
    for (const auto& [chain, now] : chains) {
      sample.chain_window[chain] = window_since(sample.chain_total[chain], now);
    }
    sample.chain_total = std::move(chains);
    const auto beat = last_heartbeat_.find(name);
    const std::uint64_t last = beat == last_heartbeat_.end() ? 0 : beat->second;
    if (epoch_ - last >= failover_config_.miss_windows) {
      failed_.insert(name);
      log(LogLevel::kWarn, "dpi-ctrl", "instance ", name, " declared failed (",
          epoch_ - last, " windows without heartbeat)");
    }
  }
}

MitigationPlan DpiController::evaluate_mitigation() {
  const MutexLock lock(mu_);
  MitigationPlan plan;
  plan.stressed_instances = monitor_.stressed_instances();
  if (plan.stressed_instances.empty()) return plan;
  auto dedicated = least_loaded(/*dedicated=*/true);
  if (!dedicated) {
    log(LogLevel::kWarn, "dpi-ctrl",
        "stress detected but no dedicated instance is deployed");
    return plan;
  }
  for (const std::string& name : plan.stressed_instances) {
    auto inst = instance_locked(name);
    if (!inst || inst->config().dedicated) continue;
    // Divert the chains whose traffic carries the heavy signal (§4.3.1:
    // "migrates the heavy flows, which are suspected to be malicious").
    for (const auto& [chain, chain_stats] : samples_[name].chain_window) {
      const auto assigned = instance_for_chain_locked(chain);
      if (!assigned || *assigned != name) continue;
      if (chain_stats.hits_per_byte() >
          monitor_.config().hits_per_byte_threshold) {
        plan.migrations.push_back(
            Migration{chain, name, dedicated->instance_name()});
      }
    }
  }
  return plan;
}

std::size_t DpiController::apply_mitigation(const MitigationPlan& plan) {
  std::size_t moved = 0;
  // Routing notifications collected under the lock, fired after release so
  // a TSA listener can re-enter the controller without deadlocking.
  std::vector<std::pair<dpi::ChainId, std::string>> rerouted;
  std::function<void(dpi::ChainId, const std::string&)> listener;
  {
    const MutexLock lock(mu_);
    listener = routing_listener_;
    for (const Migration& m : plan.migrations) {
      auto it = assignments_.find(m.chain);
      if (it == assignments_.end() || it->second != m.from_instance) continue;
      DPISVC_ASSERT_INVARIANT(instances_.count(m.to_instance) != 0,
                              "mitigation must divert to a known instance");
      it->second = m.to_instance;
      ++moved;
      rerouted.emplace_back(m.chain, m.to_instance);
      log(LogLevel::kInfo, "dpi-ctrl", "migrated chain ", m.chain, " from ",
          m.from_instance, " to ", m.to_instance);
    }
  }
  if (listener) {
    for (const auto& [chain, to] : rerouted) listener(chain, to);
  }
  return moved;
}

bool DpiController::migrate_flow(const net::FiveTuple& flow,
                                 const std::string& from,
                                 const std::string& to) {
  if (from == to) return false;  // nothing to move; refuse the no-op
  std::shared_ptr<DpiInstance> src;
  std::shared_ptr<DpiInstance> dst;
  {
    const MutexLock lock(mu_);
    src = instance_locked(from);
    dst = instance_locked(to);
  }
  if (!src || !dst) return false;
  if (src->engine_version() != dst->engine_version()) {
    // DFA state ids are engine-relative; a mismatch would corrupt the scan.
    log(LogLevel::kWarn, "dpi-ctrl",
        "flow migration refused: engine version mismatch");
    return false;
  }
  const dpi::FlowCursor cursor = src->export_flow(flow);
  if (!cursor.valid) return false;
  dst->import_flow(flow, cursor);
  return true;
}

// --- failure detection + failover -------------------------------------------

void DpiController::heartbeat_locked(const std::string& name) {
  if (!instances_.count(name)) return;
  // A heartbeat vouches for the *upcoming* telemetry window: collection
  // increments the epoch before checking, so storing epoch_ + 1 makes a
  // fresh heartbeat read as zero missed windows.
  last_heartbeat_[name] = epoch_ + 1;
}

void DpiController::heartbeat(const std::string& name) {
  const MutexLock lock(mu_);
  heartbeat_locked(name);
}

FailoverPlan DpiController::evaluate_failover() {
  const MutexLock lock(mu_);
  FailoverPlan plan;
  for (const std::string& dead : failed_) {
    std::vector<dpi::ChainId> orphaned;
    for (const auto& [chain, owner] : assignments_) {
      if (owner == dead) orphaned.push_back(chain);
    }
    if (orphaned.empty()) continue;
    plan.failed_instances.push_back(dead);
    // Count chains per target so flow state follows the majority of the
    // dead instance's traffic.
    std::map<std::string, std::size_t> target_chains;
    for (dpi::ChainId chain : orphaned) {
      auto target = least_loaded_live(target_chains);
      if (!target) {
        log(LogLevel::kWarn, "dpi-ctrl", "no live instance to take chain ",
            chain, " from failed ", dead);
        continue;
      }
      DPISVC_ASSERT_INVARIANT(failed_.count(target->instance_name()) == 0,
                              "failover must never target a failed instance");
      plan.reassignments.push_back(
          Migration{chain, dead, target->instance_name()});
      ++target_chains[target->instance_name()];
    }
    std::string flow_target;
    std::size_t best = 0;
    for (const auto& [name, count] : target_chains) {
      if (count > best) {
        best = count;
        flow_target = name;
      }
    }
    plan.flow_targets[dead] = flow_target;
  }
  return plan;
}

FailoverResult DpiController::apply_failover(const FailoverPlan& plan) {
  FailoverResult result;
  std::vector<std::pair<dpi::ChainId, std::string>> rerouted;
  std::function<void(dpi::ChainId, const std::string&)> listener;
  {
    const MutexLock lock(mu_);
    listener = routing_listener_;
    for (const Migration& m : plan.reassignments) {
      auto it = assignments_.find(m.chain);
      if (it == assignments_.end() || it->second != m.from_instance) continue;
      DPISVC_ASSERT_INVARIANT(
          failed_.count(m.to_instance) == 0,
          "failover must reassign chains to live instances");
      it->second = m.to_instance;
      ++result.chains_reassigned;
      rerouted.emplace_back(m.chain, m.to_instance);
      log(LogLevel::kInfo, "dpi-ctrl", "failover: chain ", m.chain, " moved ",
          m.from_instance, " -> ", m.to_instance);
    }
    for (const auto& [dead, target] : plan.flow_targets) {
      auto src = instance_locked(dead);
      if (!src) continue;
      if (target.empty() || target == dead) {
        result.flows_lost += src->active_flows();
        continue;
      }
      auto dst = instance_locked(target);
      if (!dst) {
        result.flows_lost += src->active_flows();
        continue;
      }
      if (src->engine_version() != dst->engine_version()) {
        // DFA state ids are engine-relative; a mismatch would corrupt the
        // scan.
        log(LogLevel::kWarn, "dpi-ctrl",
            "failover flow migration refused: engine version mismatch");
        result.flows_lost += src->active_flows();
        continue;
      }
      // Bulk hand-off: drain the dead instance shard by shard and install
      // the cursors on the target's own shards in one pass, instead of a
      // per-flow export/import round trip.
      auto flows = src->export_all_flows();
      std::vector<std::pair<net::FiveTuple, dpi::FlowCursor>> live;
      live.reserve(flows.size());
      for (auto& entry : flows) {
        if (entry.second.valid) {
          live.push_back(std::move(entry));
        } else {
          ++result.flows_lost;
        }
      }
      dst->import_flows(live);
      result.flows_migrated += live.size();
    }
  }
  if (listener) {
    for (const auto& [chain, to] : rerouted) listener(chain, to);
  }
  return result;
}

bool DpiController::recover_instance(const std::string& name) {
  const MutexLock lock(mu_);
  auto inst = instance_locked(name);
  if (!inst) return false;
  // Engine first: the instance must scan with the current pattern-set
  // version before any chain can route to it again.
  sync_instances_locked();
  if (compiled_version_ != 0 && inst->engine_version() != compiled_version_) {
    inst->load_engine(
        engine_for(inst->config().group, inst->config().dedicated),
        compiled_version_);
  }
  failed_.erase(name);
  last_heartbeat_[name] = epoch_ + 1;
  log(LogLevel::kInfo, "dpi-ctrl", "instance ", name, " recovered at epoch ",
      epoch_);
  return true;
}

}  // namespace dpisvc::service
