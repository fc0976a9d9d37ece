// Tests for the DPI controller: JSON channel handling, chain registry,
// instance sync, placement, and MCA² mitigation (§4.1, §4.3, §4.3.1).
#include <gtest/gtest.h>

#include "service/controller.hpp"

namespace dpisvc::service {
namespace {

json::Value register_msg(int id, const char* name) {
  return json::parse(R"({"type":"register","middlebox_id":)" +
                     std::to_string(id) + R"(,"name":")" + name + R"("})");
}

json::Value add_exact_msg(int id, int rule, const std::string& text) {
  AddPatternsRequest req;
  req.middlebox = static_cast<dpi::MiddleboxId>(id);
  req.exact.push_back(
      ExactPatternMsg{static_cast<dpi::PatternId>(rule), text});
  return encode(req);
}

net::FiveTuple flow(std::uint16_t port) {
  return net::FiveTuple{net::Ipv4Addr(10, 0, 0, 1), net::Ipv4Addr(10, 0, 0, 2),
                        port, 80, net::IpProto::kTcp};
}

BytesView view(const std::string& s) {
  return BytesView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

TEST(Controller, JsonRegistrationFlow) {
  DpiController controller;
  EXPECT_TRUE(response_ok(controller.handle_message(register_msg(1, "ids"))));
  EXPECT_TRUE(
      response_ok(controller.handle_message(add_exact_msg(1, 0, "attack"))));
  EXPECT_TRUE(controller.db().is_registered(1));
  EXPECT_EQ(controller.db().num_distinct_exact(), 1u);
}

TEST(Controller, JsonErrorsAreResponsesNotExceptions) {
  DpiController controller;
  // Unknown type.
  EXPECT_FALSE(response_ok(
      controller.handle_message(json::parse(R"({"type":"dance"})"))));
  // Add for unregistered middlebox.
  EXPECT_FALSE(
      response_ok(controller.handle_message(add_exact_msg(1, 0, "x"))));
  // Duplicate registration.
  controller.handle_message(register_msg(1, "a"));
  EXPECT_FALSE(response_ok(controller.handle_message(register_msg(1, "b"))));
  // Remove of unknown rule.
  RemovePatternsRequest remove;
  remove.middlebox = 1;
  remove.rules = {42};
  EXPECT_FALSE(response_ok(controller.handle_message(encode(remove))));
  // Unregister of unknown middlebox.
  EXPECT_FALSE(response_ok(
      controller.handle_message(encode(UnregisterRequest{5}))));
}

TEST(Controller, RegistrationWithInheritance) {
  DpiController controller;
  controller.handle_message(register_msg(1, "ids"));
  controller.handle_message(add_exact_msg(1, 0, "shared-sig"));
  RegisterRequest clone;
  clone.profile.id = 2;
  clone.profile.name = "ids2";
  clone.inherit_from = 1;
  EXPECT_TRUE(response_ok(controller.handle_message(encode(clone))));
  EXPECT_EQ(controller.db().num_references(2), 1u);
}

TEST(Controller, PolicyChainRegistryDeduplicates) {
  DpiController controller;
  controller.handle_message(register_msg(1, "a"));
  controller.handle_message(register_msg(2, "b"));
  const dpi::ChainId c1 = controller.register_policy_chain({1, 2});
  const dpi::ChainId c2 = controller.register_policy_chain({2});
  const dpi::ChainId c3 = controller.register_policy_chain({1, 2});
  EXPECT_NE(c1, c2);
  EXPECT_EQ(c1, c3);  // identical sequences share the id
  EXPECT_THROW(controller.register_policy_chain({9}), std::invalid_argument);
}

TEST(Controller, InstancesReceiveEngineAndUpdates) {
  DpiController controller;
  controller.handle_message(register_msg(1, "ids"));
  controller.handle_message(add_exact_msg(1, 0, "attack"));
  const dpi::ChainId chain = controller.register_policy_chain({1});

  auto inst = controller.create_instance("i1");
  ASSERT_TRUE(inst->has_engine());
  const std::uint64_t v1 = inst->engine_version();
  auto result = inst->scan(chain, flow(1), view("an attack!"));
  EXPECT_TRUE(result.has_matches());

  // Adding a pattern recompiles and pushes automatically.
  controller.handle_message(add_exact_msg(1, 1, "new-threat"));
  EXPECT_GT(inst->engine_version(), v1);
  result = inst->scan(chain, flow(1), view("a new-threat arrives"));
  EXPECT_TRUE(result.has_matches());

  // Removing the rule stops it from matching.
  RemovePatternsRequest remove;
  remove.middlebox = 1;
  remove.rules = {1};
  EXPECT_TRUE(response_ok(controller.handle_message(encode(remove))));
  result = inst->scan(chain, flow(1), view("a new-threat arrives"));
  EXPECT_FALSE(result.has_matches());
}

TEST(Controller, DedicatedInstanceGetsCompressedEngine) {
  DpiController controller;
  controller.handle_message(register_msg(1, "ids"));
  controller.handle_message(add_exact_msg(1, 0, "attack"));
  InstanceConfig dedicated;
  dedicated.dedicated = true;
  auto regular = controller.create_instance("reg");
  auto special = controller.create_instance("ded", dedicated);
  ASSERT_TRUE(regular->has_engine());
  ASSERT_TRUE(special->has_engine());
  EXPECT_FALSE(regular->engine()->uses_compressed_automaton());
  EXPECT_TRUE(special->engine()->uses_compressed_automaton());
  EXPECT_EQ(regular->engine_version(), special->engine_version());
}

TEST(Controller, InstanceLifecycle) {
  DpiController controller;
  controller.handle_message(register_msg(1, "a"));
  controller.create_instance("i1");
  EXPECT_THROW(controller.create_instance("i1"), std::invalid_argument);
  EXPECT_NE(controller.instance("i1"), nullptr);
  EXPECT_EQ(controller.instance("ghost"), nullptr);
  EXPECT_EQ(controller.instance_names(),
            (std::vector<std::string>{"i1"}));
  EXPECT_TRUE(controller.remove_instance("i1"));
  EXPECT_FALSE(controller.remove_instance("i1"));
}

TEST(Controller, PlacementLeastLoaded) {
  DpiController controller;
  controller.handle_message(register_msg(1, "a"));
  const dpi::ChainId c1 = controller.register_policy_chain({1});
  controller.handle_message(register_msg(2, "b"));
  const dpi::ChainId c2 = controller.register_policy_chain({2});
  const dpi::ChainId c3 = controller.register_policy_chain({1, 2});
  controller.create_instance("i1");
  controller.create_instance("i2");

  const std::string first = controller.auto_assign_chain(c1);
  const std::string second = controller.auto_assign_chain(c2);
  EXPECT_NE(first, second);  // least-loaded spreads chains
  controller.auto_assign_chain(c3);
  EXPECT_EQ(controller.assignments().size(), 3u);
  EXPECT_TRUE(controller.instance_for_chain(c1).has_value());
  EXPECT_FALSE(controller.instance_for_chain(999).has_value());

  EXPECT_THROW(controller.assign_chain(999, "i1"), std::invalid_argument);
  EXPECT_THROW(controller.assign_chain(c1, "ghost"), std::invalid_argument);
}

TEST(Controller, RemoveInstanceUnassignsChains) {
  DpiController controller;
  controller.handle_message(register_msg(1, "a"));
  const dpi::ChainId chain = controller.register_policy_chain({1});
  controller.create_instance("i1");
  controller.assign_chain(chain, "i1");
  controller.remove_instance("i1");
  EXPECT_FALSE(controller.instance_for_chain(chain).has_value());
}

// --- MCA² -----------------------------------------------------------------------

class Mca2Test : public ::testing::Test {
 protected:
  void SetUp() override {
    StressConfig stress;
    stress.hits_per_byte_threshold = 0.02;
    stress.min_window_bytes = 1024;
    stress.smoothing_windows = 2;
    controller_ = std::make_unique<DpiController>(stress);
    controller_->handle_message(register_msg(1, "ids"));
    controller_->handle_message(add_exact_msg(1, 0, "attacksig"));
    controller_->handle_message(add_exact_msg(1, 1, "benignsig"));
    chain_ = controller_->register_policy_chain({1});
    regular_ = controller_->create_instance("regular");
    InstanceConfig dedicated;
    dedicated.dedicated = true;
    dedicated_ = controller_->create_instance("dedicated", dedicated);
    controller_->assign_chain(chain_, "regular");
  }

  void pump_traffic(DpiInstance& inst, const std::string& payload, int n) {
    for (int i = 0; i < n; ++i) {
      inst.scan(chain_, flow(static_cast<std::uint16_t>(i % 8)), view(payload));
    }
  }

  std::unique_ptr<DpiController> controller_;
  std::shared_ptr<DpiInstance> regular_;
  std::shared_ptr<DpiInstance> dedicated_;
  dpi::ChainId chain_ = 0;
};

TEST_F(Mca2Test, BenignTrafficTriggersNothing) {
  pump_traffic(*regular_, "plenty of ordinary web content with no signatures "
                          "whatsoever, just text flowing through the wire....",
               50);
  controller_->collect_telemetry();
  const MitigationPlan plan = controller_->evaluate_mitigation();
  EXPECT_TRUE(plan.stressed_instances.empty());
  EXPECT_TRUE(plan.empty());
}

TEST_F(Mca2Test, AttackTrafficTriggersMigrationToDedicated) {
  // Adversarial payload: back-to-back signatures -> dense accepting hits.
  std::string attack;
  for (int i = 0; i < 20; ++i) attack += "attacksig";
  pump_traffic(*regular_, attack, 50);
  controller_->collect_telemetry();
  EXPECT_TRUE(controller_->stress_monitor().is_stressed("regular"));

  const MitigationPlan plan = controller_->evaluate_mitigation();
  ASSERT_EQ(plan.migrations.size(), 1u);
  EXPECT_EQ(plan.migrations[0].chain, chain_);
  EXPECT_EQ(plan.migrations[0].from_instance, "regular");
  EXPECT_EQ(plan.migrations[0].to_instance, "dedicated");

  EXPECT_EQ(controller_->apply_mitigation(plan), 1u);
  EXPECT_EQ(controller_->instance_for_chain(chain_), "dedicated");
  // Applying the same plan twice is a no-op.
  EXPECT_EQ(controller_->apply_mitigation(plan), 0u);
}

// MCA² windows are deltas, not lifetime totals: once the attack window has
// rotated out of the smoothing span, the instance reads calm again.
TEST_F(Mca2Test, StressClearsOnceAttackWindowsRotateOut) {
  std::string attack;
  for (int i = 0; i < 20; ++i) attack += "attacksig";
  pump_traffic(*regular_, attack, 50);
  controller_->collect_telemetry();
  ASSERT_TRUE(controller_->stress_monitor().is_stressed("regular"));

  const std::string benign =
      "plenty of ordinary web content with no signatures whatsoever, just "
      "text flowing through the wire....";
  for (int window = 0; window < 3; ++window) {
    pump_traffic(*regular_, benign, 50);
    controller_->collect_telemetry();
  }
  EXPECT_FALSE(controller_->stress_monitor().is_stressed("regular"));
  EXPECT_TRUE(controller_->evaluate_mitigation().empty());
}

// The TELEMETRY_REPORT twin: pushed reports carry cumulative counters, and
// the controller windows them the same way; a total below the previous one
// (the instance reset its counters) starts a fresh window.
TEST_F(Mca2Test, PushedReportStressClearsOnceAttackWindowsRotateOut) {
  TelemetryReport report;
  report.instance = "remote";
  auto push = [&](std::uint64_t bytes, std::uint64_t raw_hits) {
    report.packets += 50;
    report.bytes = bytes;
    report.raw_hits = raw_hits;
    ASSERT_TRUE(response_ok(controller_->handle_message(encode(report))));
  };
  push(9000, 1000);  // attack: 0.11 hits per byte
  ASSERT_TRUE(controller_->stress_monitor().is_stressed("remote"));
  push(14000, 1000);  // three benign windows of 5000 bytes, no hits
  push(19000, 1000);
  push(24000, 1000);
  EXPECT_FALSE(controller_->stress_monitor().is_stressed("remote"));

  report.packets = 0;
  push(2000, 500);  // counters reset: this total is a window of its own
  EXPECT_TRUE(controller_->stress_monitor().is_stressed("remote"));
}

TEST_F(Mca2Test, NoDedicatedInstanceMeansEmptyPlan) {
  controller_->remove_instance("dedicated");
  std::string attack;
  for (int i = 0; i < 20; ++i) attack += "attacksig";
  pump_traffic(*regular_, attack, 50);
  controller_->collect_telemetry();
  const MitigationPlan plan = controller_->evaluate_mitigation();
  EXPECT_FALSE(plan.stressed_instances.empty());
  EXPECT_TRUE(plan.empty());
}

TEST_F(Mca2Test, FlowMigrationBetweenInstances) {
  // Make the chain stateful so there is flow state to move.
  controller_->handle_message(json::parse(
      R"({"type":"unregister","middlebox_id":1})"));
  controller_->handle_message(json::parse(
      R"({"type":"register","middlebox_id":1,"name":"ids","stateful":true})"));
  controller_->handle_message(add_exact_msg(1, 0, "attacksig"));
  const dpi::ChainId chain = controller_->register_policy_chain({1});

  regular_->scan(chain, flow(3), view("some bytes"));
  EXPECT_EQ(regular_->active_flows(), 1u);
  EXPECT_TRUE(controller_->migrate_flow(flow(3), "regular", "dedicated"));
  EXPECT_EQ(regular_->active_flows(), 0u);
  EXPECT_EQ(dedicated_->active_flows(), 1u);
  // Unknown flow / instance combinations fail cleanly.
  EXPECT_FALSE(controller_->migrate_flow(flow(9), "regular", "dedicated"));
  EXPECT_FALSE(controller_->migrate_flow(flow(3), "ghost", "dedicated"));
}

TEST(StressMonitor, SmoothingAndThresholds) {
  StressConfig config;
  config.hits_per_byte_threshold = 0.1;
  config.min_window_bytes = 100;
  config.smoothing_windows = 2;
  StressMonitor monitor(config);

  InstanceTelemetry quiet;
  quiet.bytes = 1000;
  quiet.raw_hits = 10;  // 0.01
  monitor.report("a", quiet);
  EXPECT_FALSE(monitor.is_stressed("a"));
  EXPECT_DOUBLE_EQ(monitor.smoothed_signal("a"), 0.01);

  InstanceTelemetry loud;
  loud.bytes = 1000;
  loud.raw_hits = 500;  // 0.5
  monitor.report("a", loud);
  // Average over the 2-window history: (10+500)/2000 = 0.255.
  EXPECT_TRUE(monitor.is_stressed("a"));
  monitor.report("a", loud);  // quiet window rotated out
  EXPECT_DOUBLE_EQ(monitor.smoothed_signal("a"), 0.5);

  // Below min_window_bytes the signal is suppressed.
  StressMonitor small(config);
  InstanceTelemetry tiny;
  tiny.bytes = 50;
  tiny.raw_hits = 50;
  small.report("b", tiny);
  EXPECT_FALSE(small.is_stressed("b"));

  monitor.forget("a");
  EXPECT_FALSE(monitor.is_stressed("a"));
  EXPECT_TRUE(monitor.stressed_instances().empty());
}

// --- admission control (static pattern-set analysis) -------------------------

json::Value add_regex_msg(int id, int rule, const std::string& expr) {
  AddPatternsRequest req;
  req.middlebox = static_cast<dpi::MiddleboxId>(id);
  req.regex.push_back(
      RegexPatternMsg{static_cast<dpi::PatternId>(rule), expr, false});
  return encode(req);
}

std::string response_code(const json::Value& reply) {
  return reply.at("code").as_string();
}

std::uint64_t counter_value(DpiController& c, const std::string& name) {
  return c.metrics().counter(name).value();
}

TEST(Admission, TypedRejectionCodesAndCounters) {
  DpiController controller;
  // Decode failure: middlebox_id is a string.
  auto reply = controller.handle_message(
      json::parse(R"({"type":"add_patterns","middlebox_id":"x"})"));
  EXPECT_FALSE(response_ok(reply));
  EXPECT_EQ(response_code(reply), "decode-error");
  // Unknown message type.
  reply = controller.handle_message(json::parse(R"({"type":"dance"})"));
  EXPECT_EQ(response_code(reply), "unknown-message-type");
  EXPECT_EQ(counter_value(controller, "admission.rejected.decode_error"), 2u);

  // Add for an unregistered middlebox.
  reply = controller.handle_message(add_exact_msg(1, 0, "x"));
  EXPECT_EQ(response_code(reply), "unknown-middlebox");

  controller.handle_message(register_msg(1, "ids"));
  controller.handle_message(add_exact_msg(1, 0, "attack"));

  // Duplicate middlebox registration.
  reply = controller.handle_message(register_msg(1, "other"));
  EXPECT_EQ(response_code(reply), "duplicate-registration");
  // Duplicate rule id (against the db).
  reply = controller.handle_message(add_exact_msg(1, 0, "again"));
  EXPECT_EQ(response_code(reply), "duplicate-rule");
  // Oversize pattern.
  reply = controller.handle_message(
      add_exact_msg(1, 1, std::string(dpi::kMaxPatternBytes + 1, 'a')));
  EXPECT_EQ(response_code(reply), "pattern-too-long");
  // Unknown rule on remove.
  RemovePatternsRequest remove;
  remove.middlebox = 1;
  remove.rules = {42};
  reply = controller.handle_message(encode(remove));
  EXPECT_EQ(response_code(reply), "unknown-rule");
  // Unregister of an unknown middlebox.
  reply = controller.handle_message(encode(UnregisterRequest{5}));
  EXPECT_EQ(response_code(reply), "unknown-middlebox");

  EXPECT_EQ(counter_value(controller, "admission.rejected.duplicate_rule"),
            2u);  // duplicate-registration + duplicate-rule
  EXPECT_EQ(counter_value(controller, "admission.rejected.oversize_pattern"),
            1u);
  EXPECT_EQ(counter_value(controller, "admission.rejected.unknown_middlebox"),
            2u);
  EXPECT_EQ(counter_value(controller, "admission.rejected.unknown_rule"), 1u);
  EXPECT_EQ(counter_value(controller, "admission.accepted"), 2u);
}

TEST(Admission, AddPatternsIsAllOrNothing) {
  DpiController controller;
  controller.handle_message(register_msg(1, "ids"));
  // Second pattern duplicates the first within one request: nothing lands.
  AddPatternsRequest req;
  req.middlebox = 1;
  req.exact.push_back(ExactPatternMsg{7, "aaa"});
  req.exact.push_back(ExactPatternMsg{7, "bbb"});
  const auto reply = controller.handle_message(encode(req));
  EXPECT_EQ(response_code(reply), "duplicate-rule");
  EXPECT_EQ(controller.db().num_distinct_exact(), 0u);
  // Ditto across the exact/regex halves of one request.
  AddPatternsRequest mixed;
  mixed.middlebox = 1;
  mixed.exact.push_back(ExactPatternMsg{8, "ccc"});
  mixed.regex.push_back(RegexPatternMsg{8, "d+", false});
  EXPECT_EQ(response_code(controller.handle_message(encode(mixed))),
            "duplicate-rule");
  EXPECT_EQ(controller.db().num_distinct_exact(), 0u);
}

TEST(Admission, MalformedRegexRejectedBeforeDbMutation) {
  DpiController controller;
  controller.handle_message(register_msg(1, "ids"));
  controller.handle_message(add_exact_msg(1, 0, "attack"));
  auto inst = controller.create_instance("i1");
  const std::uint64_t v1 = inst->engine_version();

  // Unbalanced paren: parse fails. Before admission analysis this poisoned
  // the PatternDb — add_regex stores without parsing, so every later
  // compile (sync) threw. Now the request dies at the gate, typed.
  const auto reply = controller.handle_message(add_regex_msg(1, 1, "evil("));
  EXPECT_FALSE(response_ok(reply));
  EXPECT_EQ(response_code(reply), "regex-syntax-error");
  EXPECT_EQ(
      counter_value(controller, "admission.rejected.invalid_regex"), 1u);

  // The service keeps working: a valid follow-up add compiles and pushes.
  EXPECT_TRUE(
      response_ok(controller.handle_message(add_regex_msg(1, 1, "evil[0-9]+"))));
  EXPECT_GT(inst->engine_version(), v1);
}

TEST(Admission, BlowupSetRejectedWhileAdmittedTenantsKeepScanning) {
  DpiController controller;
  AdmissionConfig admission;
  admission.budget.max_regex_dfa_states = 256;
  admission.budget.max_automaton_states = 64;
  controller.set_admission_config(admission);

  controller.handle_message(register_msg(1, "ids"));
  EXPECT_TRUE(
      response_ok(controller.handle_message(add_exact_msg(1, 0, "attack"))));
  const dpi::ChainId chain = controller.register_policy_chain({1});
  auto inst = controller.create_instance("i1");

  // Registering the greedy tenant is itself fine (no patterns yet) and
  // bumps the engine like any db change; the baseline version to hold is
  // the one after it.
  controller.handle_message(register_msg(2, "greedy"));
  const std::uint64_t v1 = inst->engine_version();
  // A classic subset-construction blow-up: k unanchored wildcard gaps
  // multiply reachable state sets.
  auto reply = controller.handle_message(
      add_regex_msg(2, 0, ".{16}a.{16}b.{16}c.{16}d.{16}e"));
  EXPECT_FALSE(response_ok(reply));
  EXPECT_EQ(response_code(reply), "regex-dfa-blowup");
  // The rejection carries the full diagnostics array.
  const auto& diags = reply.at("diagnostics").as_array();
  ASSERT_FALSE(diags.empty());
  EXPECT_EQ(diags[0].at("code").as_string(), "regex-dfa-blowup");

  // Combined-automaton state budget: many long distinct strings.
  AddPatternsRequest big;
  big.middlebox = 2;
  for (int i = 0; i < 8; ++i) {
    big.exact.push_back(ExactPatternMsg{
        static_cast<dpi::PatternId>(100 + i),
        "unique-long-signature-" + std::to_string(i) + "-padding-padding"});
  }
  reply = controller.handle_message(encode(big));
  EXPECT_FALSE(response_ok(reply));
  EXPECT_EQ(response_code(reply), "states-over-budget");
  EXPECT_EQ(counter_value(controller, "admission.rejected.over_budget"), 2u);

  // The admitted tenant never noticed: same engine, still matching.
  EXPECT_EQ(inst->engine_version(), v1);
  EXPECT_TRUE(inst->scan(chain, flow(1), view("an attack!")).has_matches());
  // And the rejected tenant's db state is untouched, so a conforming add
  // still goes through.
  EXPECT_TRUE(
      response_ok(controller.handle_message(add_exact_msg(2, 0, "small"))));
}

TEST(Admission, InheritedPatternsAreNotRecharged) {
  DpiController controller;
  AdmissionConfig admission;
  admission.budget.max_patterns_per_middlebox = 2;
  controller.set_admission_config(admission);

  controller.handle_message(register_msg(1, "parent"));
  EXPECT_TRUE(
      response_ok(controller.handle_message(add_exact_msg(1, 0, "sig-a"))));
  EXPECT_TRUE(
      response_ok(controller.handle_message(add_exact_msg(1, 1, "sig-b"))));
  // Parent is at quota; one more is rejected by the analyzer.
  EXPECT_EQ(response_code(controller.handle_message(add_exact_msg(1, 2, "c"))),
            "middlebox-quota-exceeded");

  // §4.1 inheritance copies references to already-admitted patterns: the
  // clone registers fine even though its inherited set sits at the quota —
  // no re-analysis, no re-charge.
  RegisterRequest clone;
  clone.profile.id = 2;
  clone.profile.name = "clone";
  clone.inherit_from = 1;
  EXPECT_TRUE(response_ok(controller.handle_message(encode(clone))));
  EXPECT_EQ(controller.db().num_references(2), 2u);
  const std::uint64_t runs_after_inherit =
      counter_value(controller, "analysis.runs");

  // The clone's *next own* add is analyzed, and the inherited patterns do
  // count toward its quota then (they are its patterns now).
  EXPECT_EQ(response_code(controller.handle_message(add_exact_msg(2, 5, "d"))),
            "middlebox-quota-exceeded");
  EXPECT_GT(counter_value(controller, "analysis.runs"), runs_after_inherit);

  // Unregistering the parent keeps accounting consistent: the clone still
  // references the shared patterns, so its quota stays used...
  EXPECT_TRUE(
      response_ok(controller.handle_message(encode(UnregisterRequest{1}))));
  EXPECT_EQ(response_code(controller.handle_message(add_exact_msg(2, 5, "d"))),
            "middlebox-quota-exceeded");
  // ...while a fresh tenant starts from zero against the same budget.
  controller.handle_message(register_msg(3, "fresh"));
  EXPECT_TRUE(
      response_ok(controller.handle_message(add_exact_msg(3, 0, "sig-z"))));
}

TEST(Admission, TelemetryCarriesControllerMetrics) {
  DpiController controller;
  controller.handle_message(register_msg(1, "ids"));
  controller.handle_message(add_exact_msg(1, 0, "attack"));
  controller.handle_message(add_exact_msg(1, 0, "dup"));  // rejected

  const auto reply =
      controller.handle_message(json::parse(R"({"type":"telemetry_query"})"));
  ASSERT_TRUE(response_ok(reply));
  const auto& metrics = reply.at("controller");
  const auto& counters = metrics.at("counters");
  EXPECT_EQ(counters.at("admission.accepted").as_int(), 2);
  EXPECT_EQ(counters.at("admission.rejected.duplicate_rule").as_int(), 1);
  // The duplicate died at structural pre-validation, before analysis: only
  // the accepted add ran the analyzer.
  EXPECT_EQ(counters.at("analysis.runs").as_int(), 1);
  // The analyzer's latest prediction is exported as gauges.
  EXPECT_GT(metrics.at("gauges").at("analysis.predicted_states").as_int(), 0);
}

}  // namespace
}  // namespace dpisvc::service
