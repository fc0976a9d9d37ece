// Tests for the JSON control-plane protocol (§4.1).
#include <gtest/gtest.h>

#include "service/messages.hpp"

namespace dpisvc::service {
namespace {

TEST(Messages, RegisterRoundTrip) {
  RegisterRequest request;
  request.profile.id = 7;
  request.profile.name = "ids";
  request.profile.stateful = true;
  request.profile.read_only = true;
  request.profile.stop_offset = 2048;
  const json::Value wire = encode(request);
  // Survive an actual serialize/parse cycle, as over a real channel.
  const json::Value reparsed = json::parse(json::dump(wire));
  const RegisterRequest decoded = decode_register(reparsed);
  EXPECT_EQ(decoded.profile.id, 7);
  EXPECT_EQ(decoded.profile.name, "ids");
  EXPECT_TRUE(decoded.profile.stateful);
  EXPECT_TRUE(decoded.profile.read_only);
  EXPECT_EQ(decoded.profile.stop_offset, 2048u);
  EXPECT_FALSE(decoded.inherit_from.has_value());
}

TEST(Messages, RegisterNoStopConditionIsNull) {
  RegisterRequest request;
  request.profile.id = 1;
  request.profile.name = "x";
  const json::Value wire = encode(request);
  EXPECT_TRUE(wire.at("stop_offset").is_null());
  EXPECT_EQ(decode_register(wire).profile.stop_offset, dpi::kNoStopCondition);
}

TEST(Messages, RegisterWithInheritance) {
  RegisterRequest request;
  request.profile.id = 2;
  request.profile.name = "ids-clone";
  request.inherit_from = 1;
  const RegisterRequest decoded = decode_register(encode(request));
  ASSERT_TRUE(decoded.inherit_from.has_value());
  EXPECT_EQ(*decoded.inherit_from, 1);
}

TEST(Messages, AddPatternsRoundTripWithBinaryBytes) {
  AddPatternsRequest request;
  request.middlebox = 3;
  request.exact.push_back(ExactPatternMsg{10, std::string("\x00\xFF\x90""abc", 6)});
  request.exact.push_back(ExactPatternMsg{11, "plain-text"});
  request.regex.push_back(RegexPatternMsg{12, R"(evil\d+)", true});
  const json::Value reparsed = json::parse(json::dump(encode(request)));
  const AddPatternsRequest decoded = decode_add_patterns(reparsed);
  EXPECT_EQ(decoded.middlebox, 3);
  ASSERT_EQ(decoded.exact.size(), 2u);
  EXPECT_EQ(decoded.exact[0].rule, 10);
  EXPECT_EQ(decoded.exact[0].bytes, std::string("\x00\xFF\x90""abc", 6));
  EXPECT_EQ(decoded.exact[1].bytes, "plain-text");
  ASSERT_EQ(decoded.regex.size(), 1u);
  EXPECT_EQ(decoded.regex[0].expression, R"(evil\d+)");
  EXPECT_TRUE(decoded.regex[0].case_insensitive);
}

TEST(Messages, RemovePatternsRoundTrip) {
  RemovePatternsRequest request;
  request.middlebox = 5;
  request.rules = {1, 2, 30000};
  const RemovePatternsRequest decoded =
      decode_remove_patterns(json::parse(json::dump(encode(request))));
  EXPECT_EQ(decoded.middlebox, 5);
  EXPECT_EQ(decoded.rules, (std::vector<dpi::PatternId>{1, 2, 30000}));
}

TEST(Messages, UnregisterRoundTrip) {
  UnregisterRequest request;
  request.middlebox = 9;
  EXPECT_EQ(decode_unregister(encode(request)).middlebox, 9);
}

TEST(Messages, Responses) {
  EXPECT_TRUE(response_ok(ok_response()));
  const json::Value err = error_response("boom");
  EXPECT_FALSE(response_ok(err));
  EXPECT_EQ(err.at("error").as_string(), "boom");
}

TEST(Messages, TypeDispatch) {
  RegisterRequest request;
  request.profile.id = 1;
  request.profile.name = "a";
  EXPECT_EQ(message_type(encode(request)), "register");
  EXPECT_THROW(decode_add_patterns(encode(request)), std::invalid_argument);
  EXPECT_THROW(decode_register(encode(UnregisterRequest{1})),
               std::invalid_argument);
}

TEST(Messages, RejectsOutOfRangeIds) {
  json::Value bad = json::parse(
      R"({"type":"register","middlebox_id":65,"name":"x"})");
  EXPECT_THROW(decode_register(bad), std::invalid_argument);
  bad = json::parse(R"({"type":"register","middlebox_id":0,"name":"x"})");
  EXPECT_THROW(decode_register(bad), std::invalid_argument);
  bad = json::parse(
      R"({"type":"remove_patterns","middlebox_id":1,"rules":[70000]})");
  EXPECT_THROW(decode_remove_patterns(bad), std::invalid_argument);
}

TEST(Messages, RejectsMissingFields) {
  EXPECT_THROW(decode_register(json::parse(R"({"type":"register"})")),
               json::TypeError);
  EXPECT_THROW(
      decode_add_patterns(json::parse(
          R"({"type":"add_patterns","middlebox_id":1,"exact":[{"rule":1}]})")),
      json::TypeError);
}


// --- telemetry messages (§4.3.1) ---------------------------------------------

TelemetryReport sample_report() {
  TelemetryReport report;
  report.instance = "dpi-0";
  report.engine_version = 3;
  report.packets = 1000;
  report.bytes = 123456;
  report.raw_hits = 77;
  report.match_packets = 42;
  report.flow_evictions = 5;
  report.active_flows = 64;
  report.busy_seconds = 1.5;
  report.scan_p50_ns = 2500;
  report.scan_p90_ns = 8000;
  report.scan_p99_ns = 20000;
  return report;
}

TEST(Messages, TelemetryReportRoundTrip) {
  TelemetryReport report = sample_report();
  json::Object metrics;
  metrics["counters"] = json::Value(json::Object{});
  report.metrics = json::Value(std::move(metrics));
  const json::Value reparsed = json::parse(json::dump(encode(report)));
  EXPECT_EQ(reparsed.at("type").as_string(), "telemetry_report");
  const TelemetryReport decoded = decode_telemetry_report(reparsed);
  EXPECT_EQ(decoded.instance, "dpi-0");
  EXPECT_EQ(decoded.engine_version, 3u);
  EXPECT_EQ(decoded.packets, 1000u);
  EXPECT_EQ(decoded.bytes, 123456u);
  EXPECT_EQ(decoded.raw_hits, 77u);
  EXPECT_EQ(decoded.match_packets, 42u);
  EXPECT_EQ(decoded.flow_evictions, 5u);
  EXPECT_EQ(decoded.active_flows, 64u);
  EXPECT_DOUBLE_EQ(decoded.busy_seconds, 1.5);
  EXPECT_DOUBLE_EQ(decoded.scan_p50_ns, 2500);
  EXPECT_DOUBLE_EQ(decoded.scan_p99_ns, 20000);
  EXPECT_TRUE(decoded.metrics.is_object());
  EXPECT_GT(decoded.hits_per_byte(), 0.0);
}

TEST(Messages, TelemetryReportOmitsNullMetrics) {
  const json::Value wire = encode(sample_report());
  EXPECT_FALSE(wire.as_object().contains("metrics"));
  const TelemetryReport decoded = decode_telemetry_report(wire);
  EXPECT_TRUE(decoded.metrics.is_null());
}

TEST(Messages, TelemetryQueryRoundTrip) {
  const TelemetryQuery all{};
  // Empty instance = all instances; the field is omitted on the wire.
  const json::Value wire_all = encode(all);
  EXPECT_EQ(wire_all.at("type").as_string(), "telemetry_query");
  EXPECT_FALSE(wire_all.as_object().contains("instance"));
  EXPECT_TRUE(decode_telemetry_query(wire_all).instance.empty());

  const TelemetryQuery one{"dpi-3"};
  EXPECT_EQ(decode_telemetry_query(json::parse(json::dump(encode(one))))
                .instance,
            "dpi-3");
}

TEST(Messages, TelemetryReportRejectsMalformed) {
  // Missing / empty instance name.
  EXPECT_THROW(decode_telemetry_report(json::parse(
                   R"({"type":"telemetry_report","counters":{}})")),
               std::exception);
  EXPECT_THROW(
      decode_telemetry_report(json::parse(
          R"({"type":"telemetry_report","instance":"","counters":{}})")),
      std::exception);
  // Counters must be an object.
  EXPECT_THROW(
      decode_telemetry_report(json::parse(
          R"({"type":"telemetry_report","instance":"a","counters":[1]})")),
      std::exception);
  // Negative counts are invalid.
  EXPECT_THROW(decode_telemetry_report(json::parse(
                   R"({"type":"telemetry_report","instance":"a",
                       "counters":{"packets":-1}})")),
               std::exception);
  // Non-numeric count.
  EXPECT_THROW(decode_telemetry_report(json::parse(
                   R"({"type":"telemetry_report","instance":"a",
                       "counters":{"packets":"many"}})")),
               std::exception);
  // match_packets cannot exceed packets.
  EXPECT_THROW(decode_telemetry_report(json::parse(
                   R"({"type":"telemetry_report","instance":"a",
                       "counters":{"packets":1,"match_packets":2}})")),
               std::exception);
  // latency_ns, metrics and the reassembly/defrag blocks, when present,
  // must be objects.
  EXPECT_THROW(decode_telemetry_report(json::parse(
                   R"({"type":"telemetry_report","instance":"a",
                       "counters":{},"latency_ns":3})")),
               std::exception);
  EXPECT_THROW(decode_telemetry_report(json::parse(
                   R"({"type":"telemetry_report","instance":"a",
                       "counters":{},"metrics":"x"})")),
               std::exception);
  EXPECT_THROW(decode_telemetry_report(json::parse(
                   R"({"type":"telemetry_report","instance":"a",
                       "counters":{},"reassembly":[1]})")),
               std::exception);
  EXPECT_THROW(decode_telemetry_report(json::parse(
                   R"({"type":"telemetry_report","instance":"a",
                       "counters":{},"defrag":7})")),
               std::exception);
}

TEST(Messages, TelemetryReportMinimalCountersDefaultToZero) {
  const TelemetryReport decoded = decode_telemetry_report(json::parse(
      R"({"type":"telemetry_report","instance":"a","counters":{}})"));
  EXPECT_EQ(decoded.packets, 0u);
  EXPECT_EQ(decoded.bytes, 0u);
  EXPECT_DOUBLE_EQ(decoded.busy_seconds, 0.0);
  EXPECT_DOUBLE_EQ(decoded.scan_p50_ns, 0.0);
}

}  // namespace
}  // namespace dpisvc::service
