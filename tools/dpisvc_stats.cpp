// dpisvc_stats — end-to-end smoke driver for the telemetry channel.
//
//   dpisvc_stats [--json] [--packets N] [--workers N] [--trace N]
//                [--match-rate R] [--seed S]
//
// Builds an in-process DPI service (controller + one instance), registers a
// stateless and a stateful middlebox with exact and regex patterns, scans a
// generated HTTP-like trace plus an adversarial evasion trace (conflicting
// TCP overlaps and IP fragments through the defrag+reassembly ingest, so
// the ambiguity counters report real activity), then exercises the full
// telemetry loop the way a remote operator would: the instance's
// TELEMETRY_REPORT is pushed through the controller's JSON channel and the
// aggregate is pulled back out with TELEMETRY_QUERY. Default output is a
// human-readable summary; --json dumps the raw TELEMETRY_QUERY response (CI
// pipes it through a JSON parser as a schema smoke check).
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>

#include "common/bytes.hpp"

#include "json/json.hpp"
#include "net/packet.hpp"
#include "service/controller.hpp"
#include "service/instance.hpp"
#include "service/messages.hpp"
#include "workload/adversarial_gen.hpp"
#include "workload/traffic_gen.hpp"

using namespace dpisvc;

namespace {

struct Args {
  std::map<std::string, std::string> options;

  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : std::stoull(it->second);
  }

  double get_double(const std::string& key, double fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : std::stod(it->second);
  }

  bool has_flag(const std::string& key) const {
    return options.count(key) > 0;
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument: " + token);
    }
    const std::string key = token.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.options[key] = argv[++i];
    } else {
      args.options[key] = "";  // boolean flag
    }
  }
  return args;
}

bool response_ok(const json::Value& response) {
  return response.is_object() && response.at("ok").as_bool();
}

void require_ok(const json::Value& response, const char* what) {
  if (!response_ok(response)) {
    throw std::runtime_error(std::string("control message failed: ") + what);
  }
}

std::uint64_t count_of(const json::Value& counters, const char* key) {
  return static_cast<std::uint64_t>(
      counters.get_or(key, json::Value(std::uint64_t{0})).as_number());
}

void print_pretty(const json::Value& response,
                  const service::DpiInstance& instance) {
  for (const auto& [name, report] : response.at("instances").as_object()) {
    const json::Value& counters = report.at("counters");
    std::printf("instance %s (engine v%llu)\n", name.c_str(),
                static_cast<unsigned long long>(
                    report.at("engine_version").as_int()));
    std::printf("  packets:         %llu\n",
                static_cast<unsigned long long>(count_of(counters, "packets")));
    std::printf("  bytes:           %llu\n",
                static_cast<unsigned long long>(count_of(counters, "bytes")));
    std::printf("  raw hits:        %llu\n",
                static_cast<unsigned long long>(count_of(counters, "raw_hits")));
    std::printf("  match packets:   %llu\n",
                static_cast<unsigned long long>(
                    count_of(counters, "match_packets")));
    std::printf("  active flows:    %llu\n",
                static_cast<unsigned long long>(
                    count_of(counters, "active_flows")));
    std::printf("  flow evictions:  %llu\n",
                static_cast<unsigned long long>(
                    count_of(counters, "flow_evictions")));
    std::printf("  ambiguous ovlps: %llu\n",
                static_cast<unsigned long long>(
                    count_of(counters, "ambiguous_overlaps")));
    std::printf("  conflict bytes:  %llu\n",
                static_cast<unsigned long long>(
                    count_of(counters, "conflicting_overlap_bytes")));
    std::printf("  stream evicts:   %llu\n",
                static_cast<unsigned long long>(
                    count_of(counters, "stream_evictions")));
    std::printf("  busy seconds:    %.6f\n",
                counters.get_or("busy_seconds", json::Value(0.0)).as_number());
    const json::Value& lat = report.get_or("latency_ns", json::Value());
    if (lat.is_object()) {
      std::printf("  scan latency:    p50 %.0f ns, p90 %.0f ns, p99 %.0f ns\n",
                  lat.get_or("p50", json::Value(0.0)).as_number(),
                  lat.get_or("p90", json::Value(0.0)).as_number(),
                  lat.get_or("p99", json::Value(0.0)).as_number());
    }
  }
  // Reassembly/defragmentation counter blocks come straight from the
  // instance's stats_json (each TELEMETRY_REPORT carries the same blocks).
  const json::Value stats = instance.stats_json();
  const json::Value& reassembly = stats.at("reassembly");
  std::printf("reassembly (policy %s)\n",
              reassembly.at("policy").as_string().c_str());
  std::printf("  dropped segs:    %llu\n",
              static_cast<unsigned long long>(
                  count_of(reassembly, "dropped_segments")));
  std::printf("  duplicate bytes: %llu\n",
              static_cast<unsigned long long>(
                  count_of(reassembly, "duplicate_bytes")));
  std::printf("  ambiguous ovlps: %llu\n",
              static_cast<unsigned long long>(
                  count_of(reassembly, "ambiguous_overlaps")));
  std::printf("  conflict bytes:  %llu\n",
              static_cast<unsigned long long>(
                  count_of(reassembly, "conflicting_overlap_bytes")));
  std::printf("  stream evicts:   %llu\n",
              static_cast<unsigned long long>(
                  count_of(reassembly, "stream_evictions")));
  std::printf("  streams closed:  %llu\n",
              static_cast<unsigned long long>(
                  count_of(reassembly, "streams_closed")));
  std::printf("  ignored fins:    %llu\n",
              static_cast<unsigned long long>(
                  count_of(reassembly, "ignored_fins")));
  std::printf("  ignored rsts:    %llu\n",
              static_cast<unsigned long long>(
                  count_of(reassembly, "ignored_rsts")));
  const json::Value& defrag = stats.at("defrag");
  std::printf("defrag\n");
  std::printf("  fragments:       %llu\n",
              static_cast<unsigned long long>(count_of(defrag, "fragments")));
  std::printf("  completed:       %llu\n",
              static_cast<unsigned long long>(
                  count_of(defrag, "datagrams_completed")));
  std::printf("  rejected tiny:   %llu\n",
              static_cast<unsigned long long>(
                  count_of(defrag, "rejected_tiny")));
  std::printf("  rejected bounds: %llu\n",
              static_cast<unsigned long long>(
                  count_of(defrag, "rejected_bounds")));
  std::printf("  ambiguous frags: %llu\n",
              static_cast<unsigned long long>(
                  count_of(defrag, "ambiguous_fragments")));
  // Decompress-once fallbacks: failed inflates scanned raw, by reason.
  const json::Value& decompress = stats.get_or("decompress", json::Value());
  if (decompress.is_object()) {
    std::printf("decompress fallbacks\n");
    std::printf("  truncated:       %llu\n",
                static_cast<unsigned long long>(
                    count_of(decompress, "fallback_truncated")));
    std::printf("  corrupt:         %llu\n",
                static_cast<unsigned long long>(
                    count_of(decompress, "fallback_corrupt")));
    std::printf("  limit:           %llu\n",
                static_cast<unsigned long long>(
                    count_of(decompress, "fallback_limit")));
  }
  // Batched-ingest backpressure (DESIGN.md §4h): bounded per-shard rings
  // turn a stalled shard into these counters instead of memory growth.
  const json::Value& ingest = stats.get_or("ingest", json::Value());
  if (ingest.is_object()) {
    std::printf("ingest (policy %s, ring capacity %llu)\n",
                ingest.get_or("overload_policy", json::Value("?"))
                    .as_string()
                    .c_str(),
                static_cast<unsigned long long>(
                    count_of(ingest, "queue_capacity")));
    std::printf("  blocked pushes:  %llu\n",
                static_cast<unsigned long long>(
                    count_of(ingest, "backpressure_blocked")));
    std::printf("  shed packets:    %llu\n",
                static_cast<unsigned long long>(
                    count_of(ingest, "backpressure_shed")));
    std::printf("  in-flight:       %llu batches\n",
                static_cast<unsigned long long>(
                    count_of(ingest, "batches_in_flight")));
  }

  // Control-plane admission telemetry: typed registration rejections and
  // the analyzer's latest combined-engine prediction.
  const json::Value& ctrl = response.get_or("controller", json::Value());
  if (ctrl.is_object()) {
    const json::Value& counters = ctrl.at("counters");
    std::printf("controller admission\n");
    std::printf("  accepted:        %llu\n",
                static_cast<unsigned long long>(
                    count_of(counters, "admission.accepted")));
    std::printf("  analysis runs:   %llu\n",
                static_cast<unsigned long long>(
                    count_of(counters, "analysis.runs")));
    const std::pair<const char*, const char*> kinds[] = {
        {"decode errors", "admission.rejected.decode_error"},
        {"duplicate rule", "admission.rejected.duplicate_rule"},
        {"oversize pat.", "admission.rejected.oversize_pattern"},
        {"unknown mbox", "admission.rejected.unknown_middlebox"},
        {"unknown rule", "admission.rejected.unknown_rule"},
        {"invalid regex", "admission.rejected.invalid_regex"},
        {"over budget", "admission.rejected.over_budget"},
        {"other", "admission.rejected.other"},
    };
    std::uint64_t rejected = 0;
    for (const auto& [label, key] : kinds) rejected += count_of(counters, key);
    std::printf("  rejected:        %llu\n",
                static_cast<unsigned long long>(rejected));
    for (const auto& [label, key] : kinds) {
      const std::uint64_t n = count_of(counters, key);
      if (n != 0) {
        std::printf("    %-14s %llu\n", label,
                    static_cast<unsigned long long>(n));
      }
    }
    const json::Value& gauges = ctrl.at("gauges");
    std::printf("  predicted:       %llu states, %llu bytes\n",
                static_cast<unsigned long long>(
                    count_of(gauges, "analysis.predicted_states")),
                static_cast<unsigned long long>(
                    count_of(gauges, "analysis.predicted_memory_bytes")));
  }

  const auto& trace = instance.trace();
  if (trace.enabled()) {
    const auto events = trace.snapshot();
    std::printf("trace: %llu events recorded, %llu dropped, showing last %zu\n",
                static_cast<unsigned long long>(trace.total_recorded()),
                static_cast<unsigned long long>(trace.dropped()),
                events.size());
    for (const auto& ev : events) {
      std::printf("  #%llu %-14s flow=%016llx shard=%u chain=%u off=%llu "
                  "val=%llu\n",
                  static_cast<unsigned long long>(ev.seq),
                  obs::trace_event_name(ev.event),
                  static_cast<unsigned long long>(ev.flow), ev.shard, ev.chain,
                  static_cast<unsigned long long>(ev.offset),
                  static_cast<unsigned long long>(ev.value));
    }
  }
}

int run(const Args& args) {
  const auto packets =
      static_cast<std::size_t>(args.get_u64("packets", 2000));
  const auto workers = static_cast<std::size_t>(args.get_u64("workers", 2));
  const auto trace_cap = static_cast<std::size_t>(args.get_u64("trace", 0));

  service::DpiController controller;

  // A stateless IDS with exact signatures plus a regex, and a stateful DLP
  // middlebox whose regex can span packet boundaries — together they light
  // up every counter family the telemetry report carries.
  service::RegisterRequest ids;
  ids.profile.id = 1;
  ids.profile.name = "ids";
  require_ok(controller.handle_message(encode(ids)), "register ids");
  service::RegisterRequest dlp;
  dlp.profile.id = 2;
  dlp.profile.name = "dlp";
  dlp.profile.stateful = true;
  require_ok(controller.handle_message(encode(dlp)), "register dlp");

  service::AddPatternsRequest ids_patterns;
  ids_patterns.middlebox = 1;
  ids_patterns.exact = {{1, "attack"}, {2, "evil-payload"}};
  ids_patterns.regex = {{3, "User-Agent: [A-Za-z]+", false}};
  require_ok(controller.handle_message(encode(ids_patterns)), "ids patterns");
  service::AddPatternsRequest dlp_patterns;
  dlp_patterns.middlebox = 2;
  dlp_patterns.regex = {{1, "card=[0-9]+#", false}};
  require_ok(controller.handle_message(encode(dlp_patterns)), "dlp patterns");

  // One deliberately duplicate add exercises the typed rejection path so
  // the controller admission counters carry real activity in the report.
  service::AddPatternsRequest duplicate;
  duplicate.middlebox = 1;
  duplicate.exact = {{1, "attack"}};
  if (response_ok(controller.handle_message(encode(duplicate)))) {
    throw std::runtime_error("duplicate add unexpectedly admitted");
  }

  const dpi::ChainId chain = controller.register_policy_chain({1, 2});
  service::InstanceConfig config;
  config.num_workers = workers;
  config.trace_capacity = trace_cap;
  config.reassemble_tcp = true;
  config.defragment_ip = true;
  auto instance = controller.create_instance("dpi-0", config);
  controller.assign_chain(chain, "dpi-0");

  workload::TrafficConfig traffic;
  traffic.num_packets = packets;
  traffic.seed = args.get_u64("seed", 42);
  traffic.planted_match_rate = args.get_double("match-rate", 0.05);
  traffic.planted_patterns = {"attack", "evil-payload"};
  const workload::Trace trace = workload::generate_http_trace(traffic);
  for (const workload::TracePacket& p : trace) {
    (void)instance->scan(chain, p.tuple, p.payload);
  }

  // Evasion leg: one adversarial flow with conflicting TCP overlaps and one
  // with reversed IP fragments, through the full defrag+reassembly ingest,
  // so the ambiguity/defrag counters in the report reflect real activity.
  const Bytes evasion_stream =
      to_bytes("GET /?q=attack HTTP/1.1 evil-payload card=4111222233334444#xx");
  workload::EvasionSpec overlap_spec;
  overlap_spec.seed = traffic.seed;
  overlap_spec.segment_bytes = 8;
  overlap_spec.conflict = workload::ConflictMode::kDecoyLater;
  overlap_spec.conflict_rate = 0.5;
  workload::EvasionSpec frag_spec;
  frag_spec.seed = traffic.seed + 1;
  frag_spec.segment_bytes = 32;
  frag_spec.fragment_payload = 16;
  frag_spec.fragment_reverse = true;
  const net::FiveTuple overlap_flow{net::Ipv4Addr(10, 9, 0, 1),
                                    net::Ipv4Addr(10, 9, 0, 2), 40001, 80,
                                    net::IpProto::kTcp};
  const net::FiveTuple frag_flow{net::Ipv4Addr(10, 9, 0, 3),
                                 net::Ipv4Addr(10, 9, 0, 4), 40002, 80,
                                 net::IpProto::kTcp};
  for (const auto& [flow, spec] :
       {std::pair{overlap_flow, overlap_spec}, std::pair{frag_flow, frag_spec}}) {
    const workload::AdversarialTrace adversarial =
        workload::make_evasion_trace(flow, evasion_stream, spec);
    for (const net::Packet& packet : adversarial.packets) {
      net::Packet tagged = packet;
      tagged.push_tag(net::TagKind::kPolicyChain, chain);
      (void)instance->process(std::move(tagged));
    }
  }

  // Round-trip the report over the JSON channel exactly like a remote
  // instance would, then pull the aggregate back out.
  const service::TelemetryReport report =
      service::make_telemetry_report(*instance);
  require_ok(controller.handle_message(encode(report)), "telemetry_report");
  const json::Value response =
      controller.handle_message(encode(service::TelemetryQuery{}));
  require_ok(response, "telemetry_query");

  if (args.has_flag("json")) {
    std::printf("%s\n", json::dump(response).c_str());
  } else {
    print_pretty(response, *instance);
  }
  return 0;
}

void usage() {
  std::fprintf(stderr, R"(usage: dpisvc_stats [options]

options:
  --json            dump the raw TELEMETRY_QUERY response
  --packets N       packets to generate and scan (default 2000)
  --workers N       instance shards / scan-pool workers (default 2)
  --trace N         ScanTrace ring capacity (default 0 = disabled)
  --match-rate R    planted-match rate of the generated trace (default 0.05)
  --seed S          traffic generator seed (default 42)
)");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    usage();
    return 1;
  }
}
