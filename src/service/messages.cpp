#include "service/messages.hpp"

#include <stdexcept>

#include "common/bytes.hpp"
#include "obs/metrics.hpp"
#include "service/instance.hpp"

namespace dpisvc::service {

namespace {

json::Value stop_offset_field(std::uint32_t stop) {
  if (stop == dpi::kNoStopCondition) return json::Value(nullptr);
  return json::Value(static_cast<std::int64_t>(stop));
}

std::uint32_t parse_stop_offset(const json::Value& field) {
  if (field.is_null()) return dpi::kNoStopCondition;
  const std::int64_t v = field.as_int();
  if (v < 0 || v > static_cast<std::int64_t>(UINT32_MAX)) {
    throw std::invalid_argument("stop_offset out of range");
  }
  return static_cast<std::uint32_t>(v);
}

dpi::MiddleboxId parse_middlebox_id(const json::Value& field) {
  const std::int64_t v = field.as_int();
  if (v < 1 || v > static_cast<std::int64_t>(dpi::kMaxMiddleboxes)) {
    throw std::invalid_argument("middlebox_id out of range");
  }
  return static_cast<dpi::MiddleboxId>(v);
}

dpi::PatternId parse_rule_id(const json::Value& field) {
  const std::int64_t v = field.as_int();
  if (v < 0 || v > 0xFFFF) {
    throw std::invalid_argument("rule id out of range");
  }
  return static_cast<dpi::PatternId>(v);
}

}  // namespace

json::Value encode(const RegisterRequest& request) {
  json::Object msg = json::obj({
      {"type", "register"},
      {"middlebox_id", static_cast<std::int64_t>(request.profile.id)},
      {"name", request.profile.name},
      {"stateful", request.profile.stateful},
      {"read_only", request.profile.read_only},
      {"stop_offset", stop_offset_field(request.profile.stop_offset)},
  });
  if (request.inherit_from) {
    msg["inherit_from"] = static_cast<std::int64_t>(*request.inherit_from);
  }
  return json::Value(std::move(msg));
}

json::Value encode(const AddPatternsRequest& request) {
  json::Array exact;
  for (const auto& p : request.exact) {
    exact.push_back(json::Value(json::obj({
        {"rule", static_cast<std::int64_t>(p.rule)},
        {"hex", to_hex(to_bytes(p.bytes))},
    })));
  }
  json::Array regex;
  for (const auto& p : request.regex) {
    regex.push_back(json::Value(json::obj({
        {"rule", static_cast<std::int64_t>(p.rule)},
        {"expr", p.expression},
        {"ci", p.case_insensitive},
    })));
  }
  return json::Value(json::obj({
      {"type", "add_patterns"},
      {"middlebox_id", static_cast<std::int64_t>(request.middlebox)},
      {"exact", std::move(exact)},
      {"regex", std::move(regex)},
  }));
}

json::Value encode(const RemovePatternsRequest& request) {
  json::Array rules;
  for (dpi::PatternId rule : request.rules) {
    rules.push_back(json::Value(static_cast<std::int64_t>(rule)));
  }
  return json::Value(json::obj({
      {"type", "remove_patterns"},
      {"middlebox_id", static_cast<std::int64_t>(request.middlebox)},
      {"rules", std::move(rules)},
  }));
}

json::Value encode(const UnregisterRequest& request) {
  return json::Value(json::obj({
      {"type", "unregister"},
      {"middlebox_id", static_cast<std::int64_t>(request.middlebox)},
  }));
}

json::Value encode(const TelemetryReport& report) {
  json::Object counters = json::obj({
      {"packets", report.packets},
      {"bytes", report.bytes},
      {"raw_hits", report.raw_hits},
      {"match_packets", report.match_packets},
      {"flow_evictions", report.flow_evictions},
      {"active_flows", report.active_flows},
      {"ambiguous_overlaps", report.ambiguous_overlaps},
      {"conflicting_overlap_bytes", report.conflicting_overlap_bytes},
      {"stream_evictions", report.stream_evictions},
      {"busy_seconds", report.busy_seconds},
  });
  json::Object msg = json::obj({
      {"type", "telemetry_report"},
      {"instance", report.instance},
      {"engine_version", report.engine_version},
      {"counters", json::Value(std::move(counters))},
      {"latency_ns", json::Value(json::obj({
                         {"p50", report.scan_p50_ns},
                         {"p90", report.scan_p90_ns},
                         {"p99", report.scan_p99_ns},
                     }))},
  });
  if (!report.metrics.is_null()) msg["metrics"] = report.metrics;
  if (!report.reassembly.is_null()) msg["reassembly"] = report.reassembly;
  if (!report.defrag.is_null()) msg["defrag"] = report.defrag;
  return json::Value(std::move(msg));
}

json::Value encode(const TelemetryQuery& query) {
  json::Object msg = json::obj({{"type", "telemetry_query"}});
  if (!query.instance.empty()) {
    msg["instance"] = json::Value(query.instance);
  }
  return json::Value(std::move(msg));
}

json::Value ok_response() {
  return json::Value(json::obj({{"ok", true}}));
}

json::Value error_response(const std::string& message) {
  return json::Value(json::obj({{"ok", false}, {"error", message}}));
}

json::Value error_response(const std::string& message,
                           const std::string& code) {
  return json::Value(
      json::obj({{"ok", false}, {"error", message}, {"code", code}}));
}

std::string message_type(const json::Value& message) {
  return message.at("type").as_string();
}

RegisterRequest decode_register(const json::Value& message) {
  if (message_type(message) != "register") {
    throw std::invalid_argument("not a register message");
  }
  RegisterRequest out;
  out.profile.id = parse_middlebox_id(message.at("middlebox_id"));
  out.profile.name = message.at("name").as_string();
  out.profile.stateful =
      message.get_or("stateful", json::Value(false)).as_bool();
  out.profile.read_only =
      message.get_or("read_only", json::Value(false)).as_bool();
  out.profile.stop_offset =
      parse_stop_offset(message.get_or("stop_offset", json::Value(nullptr)));
  // Copy, not reference: get_or returns the fallback temporary when the key
  // is absent, and a reference to it would dangle past this statement.
  const json::Value inherit =
      message.get_or("inherit_from", json::Value(nullptr));
  if (!inherit.is_null()) {
    out.inherit_from = parse_middlebox_id(inherit);
  }
  return out;
}

AddPatternsRequest decode_add_patterns(const json::Value& message) {
  if (message_type(message) != "add_patterns") {
    throw std::invalid_argument("not an add_patterns message");
  }
  AddPatternsRequest out;
  out.middlebox = parse_middlebox_id(message.at("middlebox_id"));
  // Copies, not references: in C++20 a range-for does not extend the life
  // of the get_or fallback temporary the array reference points into.
  const json::Value exact = message.get_or("exact", json::Value(json::Array{}));
  for (const json::Value& entry : exact.as_array()) {
    ExactPatternMsg p;
    p.rule = parse_rule_id(entry.at("rule"));
    const Bytes raw = from_hex(entry.at("hex").as_string());
    p.bytes.assign(raw.begin(), raw.end());
    out.exact.push_back(std::move(p));
  }
  const json::Value regex = message.get_or("regex", json::Value(json::Array{}));
  for (const json::Value& entry : regex.as_array()) {
    RegexPatternMsg p;
    p.rule = parse_rule_id(entry.at("rule"));
    p.expression = entry.at("expr").as_string();
    p.case_insensitive = entry.get_or("ci", json::Value(false)).as_bool();
    out.regex.push_back(std::move(p));
  }
  return out;
}

RemovePatternsRequest decode_remove_patterns(const json::Value& message) {
  if (message_type(message) != "remove_patterns") {
    throw std::invalid_argument("not a remove_patterns message");
  }
  RemovePatternsRequest out;
  out.middlebox = parse_middlebox_id(message.at("middlebox_id"));
  for (const json::Value& rule : message.at("rules").as_array()) {
    out.rules.push_back(parse_rule_id(rule));
  }
  return out;
}

UnregisterRequest decode_unregister(const json::Value& message) {
  if (message_type(message) != "unregister") {
    throw std::invalid_argument("not an unregister message");
  }
  UnregisterRequest out;
  out.middlebox = parse_middlebox_id(message.at("middlebox_id"));
  return out;
}

namespace {

std::uint64_t parse_count(const json::Value& field, const char* what) {
  if (!field.is_number()) {
    throw std::invalid_argument(std::string(what) + " must be a number");
  }
  const double v = field.as_number();
  if (v < 0) {
    throw std::invalid_argument(std::string(what) + " must be non-negative");
  }
  return static_cast<std::uint64_t>(v);
}

double parse_nonneg(const json::Value& field, const char* what) {
  if (!field.is_number()) {
    throw std::invalid_argument(std::string(what) + " must be a number");
  }
  const double v = field.as_number();
  if (v < 0) {
    throw std::invalid_argument(std::string(what) + " must be non-negative");
  }
  return v;
}

/// message[key] when present; null when absent; throws unless an object.
json::Value optional_object(const json::Value& message, const char* key) {
  json::Value v = message.get_or(key, json::Value(nullptr));
  if (!v.is_null() && !v.is_object()) {
    throw std::invalid_argument(std::string("telemetry_report: ") + key +
                                " must be an object");
  }
  return v;
}

}  // namespace

TelemetryReport decode_telemetry_report(const json::Value& message) {
  if (message_type(message) != "telemetry_report") {
    throw std::invalid_argument("not a telemetry_report message");
  }
  TelemetryReport out;
  out.instance = message.at("instance").as_string();
  if (out.instance.empty()) {
    throw std::invalid_argument("telemetry_report: empty instance name");
  }
  out.engine_version =
      parse_count(message.get_or("engine_version", json::Value(0)),
                  "engine_version");
  const json::Value counters = message.at("counters");
  if (!counters.is_object()) {
    throw std::invalid_argument("telemetry_report: counters must be an object");
  }
  const json::Value zero(0);
  out.packets = parse_count(counters.get_or("packets", zero), "packets");
  out.bytes = parse_count(counters.get_or("bytes", zero), "bytes");
  out.raw_hits = parse_count(counters.get_or("raw_hits", zero), "raw_hits");
  out.match_packets =
      parse_count(counters.get_or("match_packets", zero), "match_packets");
  out.flow_evictions =
      parse_count(counters.get_or("flow_evictions", zero), "flow_evictions");
  out.active_flows =
      parse_count(counters.get_or("active_flows", zero), "active_flows");
  out.ambiguous_overlaps = parse_count(
      counters.get_or("ambiguous_overlaps", zero), "ambiguous_overlaps");
  out.conflicting_overlap_bytes =
      parse_count(counters.get_or("conflicting_overlap_bytes", zero),
                  "conflicting_overlap_bytes");
  out.stream_evictions = parse_count(
      counters.get_or("stream_evictions", zero), "stream_evictions");
  out.busy_seconds =
      parse_nonneg(counters.get_or("busy_seconds", zero), "busy_seconds");
  if (out.match_packets > out.packets) {
    throw std::invalid_argument(
        "telemetry_report: match_packets exceeds packets");
  }
  const json::Value latency = message.get_or("latency_ns", json::Value(nullptr));
  if (!latency.is_null()) {
    if (!latency.is_object()) {
      throw std::invalid_argument(
          "telemetry_report: latency_ns must be an object");
    }
    out.scan_p50_ns = parse_nonneg(latency.get_or("p50", zero), "p50");
    out.scan_p90_ns = parse_nonneg(latency.get_or("p90", zero), "p90");
    out.scan_p99_ns = parse_nonneg(latency.get_or("p99", zero), "p99");
  }
  out.metrics = optional_object(message, "metrics");
  out.reassembly = optional_object(message, "reassembly");
  out.defrag = optional_object(message, "defrag");
  return out;
}

TelemetryQuery decode_telemetry_query(const json::Value& message) {
  if (message_type(message) != "telemetry_query") {
    throw std::invalid_argument("not a telemetry_query message");
  }
  TelemetryQuery out;
  const json::Value instance =
      message.get_or("instance", json::Value(nullptr));
  if (!instance.is_null()) {
    out.instance = instance.as_string();
  }
  return out;
}

TelemetryReport make_telemetry_report(const DpiInstance& instance) {
  TelemetryReport report;
  report.instance = instance.instance_name();
  report.engine_version = instance.engine_version();
  const InstanceTelemetry t = instance.telemetry();
  report.packets = t.packets;
  report.bytes = t.bytes;
  report.raw_hits = t.raw_hits;
  report.match_packets = t.match_packets;
  report.flow_evictions = t.flow_evictions;
  report.active_flows = instance.active_flows();
  const net::ReassemblyStats rs = instance.reassembly_stats();
  report.ambiguous_overlaps = rs.ambiguous_overlaps;
  report.conflicting_overlap_bytes = rs.conflicting_overlap_bytes;
  report.stream_evictions = rs.stream_evictions;
  report.busy_seconds = t.busy_seconds;
  // Instance-wide scan latency: merge the per-shard histograms (identical
  // bucket ladders) before extracting percentiles — percentiles do not
  // average across shards.
  obs::Histogram merged(obs::Histogram::latency_bounds_ns());
  for (std::size_t i = 0; i < instance.num_shards(); ++i) {
    merged.merge_from(*instance.metrics().find_histogram(
        "shard" + std::to_string(i) + ".scan_ns"));
  }
  report.scan_p50_ns = merged.percentile(0.50);
  report.scan_p90_ns = merged.percentile(0.90);
  report.scan_p99_ns = merged.percentile(0.99);
  report.metrics = instance.metrics().snapshot();
  json::Object evasion = instance.evasion_json();
  report.reassembly = evasion.at("reassembly");
  report.defrag = evasion.at("defrag");
  return report;
}

bool response_ok(const json::Value& response) {
  return response.at("ok").as_bool();
}

}  // namespace dpisvc::service
