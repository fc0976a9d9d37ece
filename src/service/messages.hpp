// JSON control-plane protocol between middleboxes and the DPI controller.
//
// §4.1: "Communication between the DPI Controller and middleboxes is
// performed using JSON messages sent over a direct (possibly secure)
// communication channel." This header defines the message vocabulary:
//
//   request: {"type":"register","middlebox_id":3,"name":"ids",
//             "stateful":true,"read_only":true,"stop_offset":null,
//             "inherit_from":null}
//   request: {"type":"add_patterns","middlebox_id":3,
//             "exact":[{"rule":1,"hex":"6576696c"}],
//             "regex":[{"rule":2,"expr":"evil\\d+","ci":false}]}
//   request: {"type":"remove_patterns","middlebox_id":3,"rules":[1,2]}
//   request: {"type":"unregister","middlebox_id":3}
//   response: {"ok":true} or {"ok":false,"error":"..."}
//
// Exact pattern bytes travel hex-encoded so arbitrary binary signatures
// survive JSON transport.
//
// Telemetry (§4.3.1): instances push their stress signal to the controller
// and operators pull the aggregate back out over the same JSON channel:
//
//   request: {"type":"telemetry_report","instance":"dpi-0",
//             "engine_version":3,
//             "counters":{"packets":N,"bytes":N,"raw_hits":N,
//                         "match_packets":N,"flow_evictions":N,
//                         "active_flows":N,"busy_seconds":S},
//             "latency_ns":{"p50":..,"p90":..,"p99":..},   // optional
//             "metrics":{...}}                              // optional, free-form
//   request: {"type":"telemetry_query","instance":"dpi-0"}  // or no instance: all
//   response: {"ok":true,"instances":{"dpi-0":{...report body...}}}
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dpi/types.hpp"
#include "json/json.hpp"

namespace dpisvc::service {

struct RegisterRequest {
  dpi::MiddleboxProfile profile;
  /// §4.1: "A middlebox may inherit the pattern set of an already
  /// registered middlebox."
  std::optional<dpi::MiddleboxId> inherit_from;
};

struct ExactPatternMsg {
  dpi::PatternId rule = 0;
  std::string bytes;  // raw bytes (hex on the wire)
};

struct RegexPatternMsg {
  dpi::PatternId rule = 0;
  std::string expression;
  bool case_insensitive = false;
};

struct AddPatternsRequest {
  dpi::MiddleboxId middlebox = 0;
  std::vector<ExactPatternMsg> exact;
  std::vector<RegexPatternMsg> regex;
};

struct RemovePatternsRequest {
  dpi::MiddleboxId middlebox = 0;
  std::vector<dpi::PatternId> rules;
};

struct UnregisterRequest {
  dpi::MiddleboxId middlebox = 0;
};

/// One instance's stress telemetry pushed to the controller (§4.3.1). The
/// counters mirror InstanceTelemetry's MCA²-relevant subset; the latency
/// percentiles come from the instance's scan-ns histogram; `metrics` is the
/// free-form obs registry snapshot (a JSON object) and may be null, as may
/// the `reassembly` / `defrag` blocks (DpiInstance::evasion_json).
struct TelemetryReport {
  std::string instance;  ///< reporting instance name; must be non-empty
  std::uint64_t engine_version = 0;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t raw_hits = 0;
  std::uint64_t match_packets = 0;
  std::uint64_t flow_evictions = 0;
  std::uint64_t active_flows = 0;
  /// Evasion/ambiguity telemetry: reassembly overlaps whose bytes differed,
  /// how many of those bytes conflicted, and streams lost to LRU capacity.
  /// The controller reads these as an active-evasion signal (§4.3.1 —
  /// ambiguous traffic is a reason to migrate a tenant to a dedicated
  /// instance just like hits_per_byte is).
  std::uint64_t ambiguous_overlaps = 0;
  std::uint64_t conflicting_overlap_bytes = 0;
  std::uint64_t stream_evictions = 0;
  double busy_seconds = 0;
  /// Scan latency percentiles in nanoseconds.
  double scan_p50_ns = 0;
  double scan_p90_ns = 0;
  double scan_p99_ns = 0;
  json::Value metrics;     ///< obs registry snapshot or null
  json::Value reassembly;  ///< summed reassembly stats block or null
  json::Value defrag;      ///< summed defrag stats block or null

  double hits_per_byte() const noexcept {
    return bytes == 0 ? 0.0
                      : static_cast<double>(raw_hits) /
                            static_cast<double>(bytes);
  }
};

/// Pulls aggregated reports back out of the controller. Empty instance name
/// = all instances.
struct TelemetryQuery {
  std::string instance;
};

// --- encoding ---------------------------------------------------------------

json::Value encode(const RegisterRequest& request);
json::Value encode(const AddPatternsRequest& request);
json::Value encode(const RemovePatternsRequest& request);
json::Value encode(const UnregisterRequest& request);
json::Value encode(const TelemetryReport& report);
json::Value encode(const TelemetryQuery& query);

json::Value ok_response();
json::Value error_response(const std::string& message);
/// Typed rejection: {"ok":false,"error":message,"code":code}. The code is a
/// stable machine-readable identifier (same scheme as dpisvc_check /
/// analysis::PatternSetReport diagnostics) so middleboxes can branch on the
/// rejection class without parsing prose.
json::Value error_response(const std::string& message,
                           const std::string& code);

// --- decoding ---------------------------------------------------------------

/// Message type dispatch; throws json::TypeError / std::invalid_argument on
/// malformed messages.
std::string message_type(const json::Value& message);

RegisterRequest decode_register(const json::Value& message);
AddPatternsRequest decode_add_patterns(const json::Value& message);
RemovePatternsRequest decode_remove_patterns(const json::Value& message);
UnregisterRequest decode_unregister(const json::Value& message);
TelemetryReport decode_telemetry_report(const json::Value& message);
TelemetryQuery decode_telemetry_query(const json::Value& message);

bool response_ok(const json::Value& response);

class DpiInstance;

/// Builds a report from an instance's live state: aggregated telemetry,
/// active-flow count, scan-latency percentiles summed across shards via the
/// obs registry, and the full metrics snapshot.
TelemetryReport make_telemetry_report(const DpiInstance& instance);

}  // namespace dpisvc::service
