#include "traced.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <type_traits>
#include <variant>

#include "compress/inflate.hpp"
#include "dpi/flow_table.hpp"
#include "driver.hpp"
#include "json/json.hpp"
#include "net/defrag.hpp"
#include "net/reassembly.hpp"
#include "net/result.hpp"
#include "service/instance_node.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

namespace ac = dpisvc::ac;
namespace compress = dpisvc::compress;
namespace json = dpisvc::json;
using Scope = SpanRecorder::Scope;

/// Layers of the replay, in stage order. The first six run inside
/// process_batch(); decode and apply are the middleboxes' side.
enum Layer : std::uint32_t {
  kPacket,  // the replay's own glue around one packet (root span)
  kDefrag,
  kReassembly,
  kInflate,
  kFlowTable,
  kScan,
  kEncode,
  kDecode,
  kApply,
  kLayers
};
const char* const kLayerNames[kLayers] = {
    "packet",    "net.defrag", "net.reassembly",    "compress.inflate",
    "dpi.flow_table", "dpi.scan", "net.result.encode", "net.result.decode",
    "mbox.apply"};
constexpr Layer kInsideBatch[] = {kDefrag,    kReassembly, kInflate,
                                  kFlowTable, kScan,       kEncode};

struct Counts {
  std::uint64_t packets = 0;
  std::uint64_t defrag_calls = 0;
  std::uint64_t defrag_feeds = 0;
  std::uint64_t defrag_held = 0;
  std::uint64_t reassembly_calls = 0;
  std::uint64_t reassembly_held = 0;
  std::uint64_t streams_max = 0;
  std::uint64_t inflate_attempts = 0;
  std::uint64_t inflate_ok = 0;
  std::uint64_t inflate_in = 0;
  std::uint64_t inflate_out = 0;
  std::uint64_t flow_ops = 0;
  std::uint64_t flows_max = 0;
  std::uint64_t scans = 0;
  std::uint64_t scan_bytes = 0;
  std::uint64_t matchless = 0;
  std::uint64_t raw_hits = 0;
  std::uint64_t inspected_bytes = 0;
  std::uint64_t reports = 0;
  std::uint64_t report_bytes = 0;
  std::uint64_t report_hits = 0;
};

/// The automaton walk Engine::scan_packet performs, without what follows
/// it: the hot kernel from `start` with the scalar loop finishing after a
/// cold exit, or the scalar loop alone when the kernel is inactive. Match
/// events are collected as the engine collects them.
ac::StateIndex walk(const dpi::Engine& engine, BytesView bytes,
                    ac::StateIndex start, std::vector<ac::Match>& events) {
  events.clear();
  return std::visit(
      [&](const auto& automaton) {
        ac::StateIndex state = start;
        std::size_t done = 0;
        if constexpr (std::is_same_v<std::decay_t<decltype(automaton)>,
                                     ac::FullAutomaton>) {
          if (engine.kernel_active()) {
            const ac::HotKernel::Lane lane =
                engine.hot_kernel()->scan(bytes, state, events);
            state = lane.state;
            done = lane.consumed;
          }
        }
        if (done < bytes.size()) {
          state = automaton.scan(bytes.subspan(done), state,
                                 [&events](ac::Match m) { events.push_back(m); });
        }
        return state;
      },
      engine.automaton());
}

/// Mirror of DpiInstance::process_on_shard on one thread, with its own
/// per-flow state objects, plus delivery to the middleboxes.
class Replay {
 public:
  Replay(Workload& w, const dpi::Engine& engine, PassCheck& check,
         SpanRecorder& rec)
      : w_(w),
        engine_(engine),
        check_(check),
        rec_(rec),
        defrag_(w.config.defrag),
        reassembler_(w.config.reassembly),
        flows_(w.config.max_flows) {
    for (const char* name : kLayerNames) rec_.intern(name);
  }

  PassOutcome pass(std::uint32_t pass) {
    check_.begin_pass();
    for (std::size_t i = 0; i < w_.packets.size(); ++i) packet(i, pass);
    return check_.finish_pass();
  }

  /// A pass in which every scan is paired with a walk of the same bytes
  /// (walk first on even scans, last on odd ones, so neither side always
  /// finds the caches warm). Returns {walk ns, scan_packet ns}.
  std::pair<double, double> walk_pass(std::uint32_t pass) {
    probe_ = true;
    walk_ns_ = 0;
    scan_ns_ = 0;
    this->pass(pass);
    probe_ = false;
    return {walk_ns_, scan_ns_};
  }

  const Counts& counts() const noexcept { return c_; }
  void reset_counts() noexcept { c_ = Counts{}; }
  std::uint64_t evictions() const noexcept { return flows_.evictions(); }

 private:
  void packet(std::size_t i, std::uint32_t pass) {
    const TemplatePacket& t = w_.packets[i];
    const service::InstanceConfig& cfg = w_.config;
    Scope root(rec_, kPacket, t.flow);
    ++c_.packets;
    net::Packet packet = t.packet;
    packet.tuple = flow_tuple(t.flow, pass);

    if (cfg.defragment_ip) {
      ++c_.defrag_calls;
      if (packet.is_fragment()) {
        ++c_.defrag_feeds;
        std::optional<net::Packet> full;
        {
          Scope s(rec_, kDefrag, t.flow);
          full = defrag_.feed(packet);
        }
        if (!full) {
          ++c_.defrag_held;
          return;
        }
        packet = std::move(*full);
      } else {
        Scope s(rec_, kDefrag, t.flow);
        defrag_.tick();
      }
    }

    std::optional<Bytes> chunk;
    if (cfg.reassemble_tcp && packet.tuple.proto == net::IpProto::kTcp) {
      ++c_.reassembly_calls;
      std::optional<net::ReassembledChunk> released;
      {
        Scope s(rec_, kReassembly, t.flow);
        released = reassembler_.feed(packet);
      }
      c_.streams_max = std::max<std::uint64_t>(c_.streams_max,
                                               reassembler_.active_streams());
      if (!released) {
        ++c_.reassembly_held;
        return;
      }
      chunk = std::move(released->data);
    }
    BytesView bytes = chunk ? BytesView(*chunk) : BytesView(packet.payload);

    std::optional<Bytes> inflated;
    if (cfg.decompress_payloads) {
      Scope s(rec_, kInflate, t.flow);
      compress::InflateLimits limits;
      limits.max_output = cfg.max_decompressed;
      const bool gzip = compress::looks_like_gzip(bytes);
      if (gzip || compress::looks_like_zlib(bytes)) {
        ++c_.inflate_attempts;
        try {
          inflated = gzip ? compress::gzip_decompress(bytes, limits)
                          : compress::zlib_decompress(bytes, limits);
          ++c_.inflate_ok;
          c_.inflate_in += bytes.size();
          c_.inflate_out += inflated->size();
        } catch (const compress::InflateError&) {
          // Scanned raw, as the service does.
        }
      }
    }
    if (inflated) {
      bytes = BytesView(*inflated);
      c_.inspected_bytes += bytes.size();
    } else if (!t.encoded) {
      c_.inspected_bytes += bytes.size();
    }

    const bool stateful = engine_.chain_stateful(w_.chain);
    dpi::FlowCursor cursor;
    if (stateful) {
      ++c_.flow_ops;
      Scope s(rec_, kFlowTable, t.flow);
      cursor = flows_.lookup(packet.tuple);
    }
    dpi::ScanResult result;
    if (probe_) {
      const ac::StateIndex start =
          cursor.valid ? cursor.dfa_state
                       : std::visit([](const auto& a) { return a.start_state(); },
                                    engine_.automaton());
      const bool walk_first = c_.scans % 2 == 0;
      std::uint64_t t0 = now_ns();
      if (walk_first) walk(engine_, bytes, start, events_);
      std::uint64_t t1 = now_ns();
      result = engine_.scan_packet(w_.chain, bytes, cursor);
      std::uint64_t t2 = now_ns();
      if (!walk_first) walk(engine_, bytes, start, events_);
      const std::uint64_t t3 = now_ns();
      walk_ns_ += static_cast<double>(walk_first ? t1 - t0 : t3 - t2);
      scan_ns_ += static_cast<double>(t2 - t1);
    } else {
      Scope s(rec_, kScan, t.flow);
      result = engine_.scan_packet(w_.chain, bytes, cursor);
    }
    ++c_.scans;
    c_.scan_bytes += bytes.size();
    c_.raw_hits += result.raw_hits;
    if (stateful) {
      ++c_.flow_ops;
      {
        Scope s(rec_, kFlowTable, t.flow);
        flows_.update(packet.tuple, result.cursor);
      }
      c_.flows_max = std::max<std::uint64_t>(c_.flows_max, flows_.size());
    }
    if (!result.has_matches()) {
      ++c_.matchless;
      return;
    }

    Bytes encoded;
    {
      Scope s(rec_, kEncode, t.flow);
      net::MatchReport report;
      report.policy_chain_id = w_.chain;
      report.packet_ref = service::packet_ref_of(packet);
      for (const dpi::MiddleboxMatches& m : result.matches) {
        if (m.entries.empty()) continue;
        report.sections.push_back(net::MiddleboxSection{m.middlebox, m.entries});
      }
      encoded = net::encode_report(report, cfg.codec);
    }
    ++c_.reports;
    c_.report_bytes += encoded.size();
    net::MatchReport decoded;
    {
      Scope s(rec_, kDecode, t.flow);
      decoded = net::decode_report(encoded);
    }
    static const std::vector<net::MatchEntry> kNone;
    for (const auto& box : w_.boxes) {
      const std::vector<net::MatchEntry>* entries = &kNone;
      for (const net::MiddleboxSection& s : decoded.sections) {
        if (s.middlebox_id == box->profile().id) entries = &s.entries;
      }
      c_.report_hits += entries->size();
      const std::vector<net::MatchEntry>& delivered =
          check_.deliver(t.flow, box->profile().id, *entries);
      Scope s(rec_, kApply, t.flow);
      box->apply_report_entries(packet, delivered);
    }
  }

  Workload& w_;
  const dpi::Engine& engine_;
  PassCheck& check_;
  SpanRecorder& rec_;
  net::IpDefragmenter defrag_;
  net::FlowReassembler reassembler_;
  dpi::FlowTable flows_;
  Counts c_;
  bool probe_ = false;
  double walk_ns_ = 0;
  double scan_ns_ = 0;
  std::vector<ac::Match> events_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

template <typename T>
T percentile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

/// Sum and maximum of the per-shard counter shard<i>.<suffix>.
std::pair<double, double> shard_counter(const service::DpiInstance& inst,
                                        const std::string& suffix) {
  const json::Value snap = inst.metrics().snapshot();
  const json::Value& counters = snap.at("counters");
  double sum = 0;
  double max = 0;
  for (std::size_t i = 0; i < inst.num_shards(); ++i) {
    const double v =
        counters.at("shard" + std::to_string(i) + "." + suffix).as_number();
    sum += v;
    max = std::max(max, v);
  }
  return {sum, max};
}

std::unique_ptr<service::DpiInstance> make_instance(
    const Workload& w, const std::shared_ptr<const dpi::Engine>& engine,
    std::size_t workers) {
  service::InstanceConfig cfg = w.config;
  cfg.num_workers = workers;
  auto inst = std::make_unique<service::DpiInstance>("perfbench", cfg);
  inst->load_engine(engine, 1);
  return inst;
}

std::string format(const char* fmt, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, a, b, c);
  return buf;
}

}  // namespace

TracedRun traced_run(Workload& w,
                     const std::shared_ptr<const dpi::Engine>& engine,
                     double seconds, std::size_t workers,
                     const std::string& spans_path) {
  TracedRun out;
  PassCheck check(w);
  const double slice = seconds / 5;
  auto add = [&out](const std::string& name, double value, const char* unit) {
    out.metrics.push_back(Metric{name, value, unit});
  };

  // 1. Replay: one untraced warm-up pass, then traced whole passes for
  // about one slice, then as many untraced passes (the tracing overhead).
  // The replay's flow state stays warm throughout, as the service's does.
  SpanRecorder rec(false);
  Replay traced(w, *engine, check, rec);
  std::uint32_t pass = 0;
  out.outcome.add(traced.pass(pass++));
  traced.reset_counts();
  const std::uint64_t evictions_before = traced.evictions();
  const SpanRecorder::Calibration cal = SpanRecorder::calibrate();
  rec.reserve(12 * w.packets.size());
  rec.set_enabled(true);
  std::uint32_t passes = 0;
  const std::uint64_t t0 = now_ns();
  do {
    out.outcome.add(traced.pass(pass++));
    ++passes;
  } while (static_cast<double>(now_ns() - t0) * 1e-9 < slice);
  const double traced_s = static_cast<double>(now_ns() - t0) * 1e-9;
  rec.set_enabled(false);
  const Counts c = traced.counts();
  const std::uint64_t evictions = traced.evictions() - evictions_before;
  const std::uint64_t t1 = now_ns();
  for (std::uint32_t p = 0; p < passes; ++p) out.outcome.add(traced.pass(pass++));
  const double plain_s = static_cast<double>(now_ns() - t1) * 1e-9;
  const auto [walk_ns, walk_scan_ns] = traced.walk_pass(pass++);

  const std::vector<SpanRecorder::Totals> totals = rec.totals(cal);
  if (!spans_path.empty() && !rec.dump_json(spans_path, 200000)) {
    out.notes.push_back("could not write span dump " + spans_path);
  }

  // 2. process_batch() at one worker, then at the full worker count.
  Driver driver(w, check);
  auto one = make_instance(w, engine, 1);
  out.outcome.add(driver.warmup(*one, Probe{}));
  const LoopResult r1 = driver.closed_loop(*one, slice);
  auto many = make_instance(w, engine, workers);
  out.outcome.add(driver.warmup(*many, Probe{}));
  const LoopResult rn = driver.closed_loop(*many, slice);
  const LoopResult open = driver.open_loop(*many, w.open_loop_pps, slice);
  out.outcome.add(r1.outcome);
  out.outcome.add(rn.outcome);
  out.outcome.add(open.outcome);

  const double pkts = static_cast<double>(c.packets);
  auto self = [&](Layer l) { return totals[l].self_ns; };

  // dpi
  add("dpi.scan.ns_per_byte", ratio(self(kScan), c.scan_bytes), "ns/B");
  add("dpi.scan.ns_per_pkt", ratio(self(kScan), c.scans), "ns/pkt");
  add("dpi.scan.matchless_share", ratio(c.matchless, c.scans), "share");
  add("dpi.scan.raw_hits_per_kb", ratio(c.raw_hits * 1024.0, c.scan_bytes),
      "1/KB");
  add("dpi.scan.walk_share", ratio(walk_ns, walk_scan_ns), "share");
  add("dpi.flow_table.ns_per_op", ratio(self(kFlowTable), c.flow_ops), "ns/op");
  add("dpi.flow_table.evictions", static_cast<double>(evictions), "count");
  add("dpi.flow_table.flows_max", static_cast<double>(c.flows_max), "count");
  add("dpi.engine_bytes",
      static_cast<double>(engine->memory_bytes() + engine->kernel_memory_bytes()),
      "B");

  // regex, from the instance's shard counters
  const double shard_pkts = shard_counter(*many, "packets").first;
  const double evals = shard_counter(*many, "regex_evals").first;
  add("regex.evals_per_pkt", ratio(evals, shard_pkts), "1/pkt");
  add("regex.anchor_hits_per_pkt",
      ratio(shard_counter(*many, "anchor_hits").first, shard_pkts), "1/pkt");
  add("regex.match_share",
      ratio(shard_counter(*many, "regex_matches").first, evals), "share");

  // net: defrag, reassembly, result codec
  add("net.defrag.ns_per_call", ratio(self(kDefrag), c.defrag_calls), "ns/call");
  add("net.defrag.held_share", ratio(c.defrag_held, c.defrag_feeds), "share");
  add("net.reassembly.ns_per_call", ratio(self(kReassembly), c.reassembly_calls),
      "ns/call");
  add("net.reassembly.held_share", ratio(c.reassembly_held, c.reassembly_calls),
      "share");
  add("net.reassembly.streams_max", static_cast<double>(c.streams_max), "count");
  add("compress.inflate.ns_per_out_byte", ratio(self(kInflate), c.inflate_out),
      "ns/B");
  add("compress.inflate.expansion", ratio(c.inflate_out, c.inflate_in), "ratio");
  add("compress.inflate.success_share", ratio(c.inflate_ok, c.inflate_attempts),
      "share");
  add("net.result.encode_ns", ratio(self(kEncode), c.reports), "ns");
  add("net.result.decode_ns", ratio(self(kDecode), c.reports), "ns");
  add("net.result.bytes_per_report", ratio(c.report_bytes, c.reports), "B");
  add("mbox.apply.ns_per_report", ratio(self(kApply), c.reports), "ns/report");
  add("mbox.apply.hits_per_report", ratio(c.report_hits, c.reports),
      "1/report");

  // service
  double batch_1w_ns = 0;
  for (const std::uint64_t ns : r1.batch_ns) batch_1w_ns += static_cast<double>(ns);
  const double span_per_pkt = ratio(batch_1w_ns, r1.outcome.packets);
  double layers_per_pkt = 0;
  for (const Layer l : kInsideBatch) layers_per_pkt += self(l) / pkts;
  add("service.batch_ns_p50", static_cast<double>(percentile(rn.batch_ns, 0.50)),
      "ns");
  add("service.batch_ns_p99", static_cast<double>(percentile(rn.batch_ns, 0.99)),
      "ns");
  add("service.self_ns_per_pkt", span_per_pkt - layers_per_pkt, "ns/pkt");
  const auto* wait = many->metrics().find_histogram("pool.queue_wait_ns");
  add("service.pool_wait_ns_p99", wait ? wait->percentile(0.99) : 0.0, "ns");
  const auto [shard_sum, shard_max] = shard_counter(*many, "packets");
  add("service.shard_skew",
      ratio(shard_max, shard_sum / static_cast<double>(many->num_shards())),
      "ratio");
  const double pps_1w = median(r1.pass_pps);
  const double pps_nw = median(rn.pass_pps);
  add("service.scaling", ratio(pps_nw, pps_1w), "ratio");
  add("service.wall_pps", pps_nw, "1/s");
  std::uint64_t meant = 0;
  for (const FlowInfo& f : w.flows) meant += f.meant_bytes;
  const double per_pass_inspected = ratio(c.inspected_bytes, passes);
  add("service.uninspected_byte_share",
      std::max(0.0, 1.0 - ratio(per_pass_inspected, meant)), "share");

  // driver and tracing
  add("driver.latency_p50_us", percentile(open.latency_us, 0.50), "us");
  add("driver.latency_p99_us", percentile(open.latency_us, 0.99), "us");
  add("driver.late_ms_max", open.late_ms_max, "ms");
  add("driver.backlog_max_pkts", static_cast<double>(open.backlog_max), "count");
  const double traced_pps = ratio(pkts, traced_s);
  const double plain_pps = ratio(pkts, plain_s);
  add("trace.overhead_share", 1.0 - ratio(traced_pps, plain_pps), "share");

  // Human-readable breakdown: each layer's share of the replay's time.
  const double replay_ns = totals[kPacket].total_ns;
  out.notes.push_back(format(
      "traced replay: %.0f packets in %.0f pass(es), %.0f pkt/s on one thread",
      pkts, passes, traced_pps));
  for (std::uint32_t l = kPacket; l < kLayers; ++l) {
    out.notes.push_back(std::string("  self-time share ") + kLayerNames[l] +
                        ": " +
                        format("%.4f  (%.1f ns/pkt)",
                               ratio(self(Layer(l)), replay_ns),
                               self(Layer(l)) / pkts));
  }
  out.notes.push_back(format(
      "process_batch at 1 worker: %.1f ns/pkt; layers inside it: %.1f ns/pkt; "
      "service self: %.1f ns/pkt",
      span_per_pkt, layers_per_pkt, span_per_pkt - layers_per_pkt));
  out.notes.push_back(format(
      "closed loop: %.0f pkt/s at 1 worker, %.0f pkt/s at %.0f workers", pps_1w,
      pps_nw, static_cast<double>(workers)));
  out.notes.push_back(format("tracing overhead: traced %.0f pkt/s vs untraced "
                             "replay %.0f pkt/s",
                             traced_pps, plain_pps));
  out.notes.push_back(format("span cost removed: %.1f ns inside, %.1f ns in the "
                             "parent, per span",
                             cal.inner_ns, cal.outer_ns));
  return out;
}

}  // namespace perfbench
