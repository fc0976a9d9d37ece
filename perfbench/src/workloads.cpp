#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"
#include "compress/deflate.hpp"
#include "net/defrag.hpp"
#include "workload/pattern_gen.hpp"
#include "workload/traffic_gen.hpp"

namespace perfbench {

using dpisvc::Rng;
namespace workload = dpisvc::workload;

namespace {

// Rule sets are deployment configuration, not seeded input: every seed of a
// workload runs against the same patterns.
constexpr std::uint64_t kSnortSeed = 17;
constexpr std::uint64_t kFirewallSeed = 29;
constexpr std::uint64_t kRegexSeed = 31;

constexpr std::uint8_t kPshAck = 0x18;
constexpr std::uint8_t kPshAckFin = 0x19;

const std::vector<std::string>& snort_patterns() {
  static const std::vector<std::string> patterns =
      workload::generate_patterns(workload::snort_like(4356, kSnortSeed));
  return patterns;
}

dpi::MiddleboxProfile profile(dpi::MiddleboxId id, const char* name,
                              bool stateful, bool read_only) {
  dpi::MiddleboxProfile p;
  p.id = id;
  p.name = name;
  p.stateful = stateful;
  p.read_only = read_only;
  return p;
}

void add_box(Workload& w, const dpi::MiddleboxProfile& p) {
  w.profiles.push_back(p);
  w.boxes.push_back(std::make_unique<mbox::Middlebox>(p));
}

void add_rule(Workload& w, Rule rule) {
  mbox::RuleSpec spec;
  spec.id = rule.id;
  spec.exact = rule.exact;
  spec.regex = rule.regex;
  spec.verdict = mbox::Verdict::kAlert;
  w.box(rule.box)->add_rule(std::move(spec));
  w.rules.push_back(std::move(rule));
}

/// The stateless IDS + AV chain: the 4356 Snort-like patterns alternate
/// between the two boxes.
void stateless_chain(Workload& w) {
  add_box(w, profile(1, "ids", /*stateful=*/false, /*read_only=*/true));
  add_box(w, profile(2, "antivirus", /*stateful=*/false, /*read_only=*/false));
  const auto& patterns = snort_patterns();
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    add_rule(w, Rule{static_cast<dpi::MiddleboxId>(1 + i % 2),
                     static_cast<dpi::PatternId>(i / 2), patterns[i], {}});
  }
}

net::Packet make_packet(std::uint32_t flow, Bytes payload,
                        std::uint16_t ip_id, std::uint32_t seq,
                        std::uint8_t flags, dpi::ChainId chain) {
  net::Packet p;
  p.src_mac = net::MacAddr(0x020000000001ULL);
  p.dst_mac = net::MacAddr(0x020000000002ULL);
  p.push_tag(net::TagKind::kPolicyChain, chain);
  p.tuple = flow_tuple(flow, 0);
  p.ip_id = ip_id;
  p.tcp_seq = seq;
  p.tcp_flags = flags;
  p.payload = std::move(payload);
  return p;
}

/// `flows` flows of `per_flow` HTTP-like packets each, interleaved
/// round-robin. `attack_share` of the packets are replaced by MCA²-style
/// attack payloads stitched from 32 patterns the seed picks.
void stateless_packets(Workload& w, std::size_t flows, std::size_t per_flow,
                       double attack_share) {
  const std::size_t n = flows * per_flow;
  workload::TrafficConfig traffic;
  traffic.num_packets = n;
  traffic.num_flows = flows;
  traffic.min_payload = 64;
  traffic.max_payload = 1460;
  traffic.planted_match_rate = 0.05;
  traffic.planted_patterns = snort_patterns();
  traffic.seed = w.seed;
  workload::Trace trace = workload::generate_http_trace(traffic);

  Rng rng(w.seed ^ 0x5eedULL);
  std::vector<std::uint8_t> attack(n, 0);
  const auto attacks = static_cast<std::size_t>(attack_share * n);
  std::fill(attack.begin(),
            attack.begin() + static_cast<std::ptrdiff_t>(attacks), 1);
  rng.shuffle(attack);
  if (attacks > 0) {
    std::vector<std::string> targets;
    for (int i = 0; i < 32; ++i) {
      targets.push_back(snort_patterns()[rng.index(snort_patterns().size())]);
    }
    const workload::Trace attack_trace =
        workload::generate_attack_trace(traffic, targets);
    for (std::size_t i = 0; i < n; ++i) {
      if (attack[i]) trace[i].payload = attack_trace[i].payload;
    }
  }

  w.flows.resize(flows);
  std::vector<std::uint32_t> seq(flows);
  for (auto& s : seq) s = static_cast<std::uint32_t>(rng.next());
  for (std::size_t i = 0; i < n; ++i) {
    const auto flow = static_cast<std::uint32_t>(i % flows);
    Bytes payload = std::move(trace[i].payload);
    w.flows[flow].units.push_back(payload);
    ++w.flows[flow].packets;
    const auto size = static_cast<std::uint32_t>(payload.size());
    w.packets.push_back(TemplatePacket{
        make_packet(flow, std::move(payload), static_cast<std::uint16_t>(i),
                    seq[flow], kPshAck, w.chain),
        flow, false});
    seq[flow] += size;
  }
}

void web_stateless(Workload& w) {
  stateless_chain(w);
  stateless_packets(w, 4096, 4, 0.0);
  w.open_loop_pps = 10000;
}

void heavy_matches(Workload& w) {
  stateless_chain(w);
  stateless_packets(w, 4096, 4, 0.2);
  w.open_loop_pps = 8000;
}

/// gzip-encoded HTTP responses, one flow each: `headers` of them put HTTP
/// headers in front of the member, `split` split the member over two
/// segments (the two shapes the service is known to miss), and the rest are
/// one bare gzip member in one packet (the shape the service inflates).
void gzip_responses(Workload& w, std::size_t responses, std::size_t headers,
                    std::size_t split) {
  stateless_chain(w);
  w.config.decompress_payloads = true;
  w.config.reassemble_tcp = true;
  workload::TrafficConfig traffic;
  traffic.num_packets = responses;
  traffic.num_flows = responses;
  traffic.min_payload = 600;
  traffic.max_payload = 2400;
  traffic.planted_match_rate = 0.05;
  traffic.planted_patterns = snort_patterns();
  traffic.seed = w.seed;
  workload::Trace bodies = workload::generate_http_trace(traffic);

  enum Shape { kBare, kHeaders, kSplit };
  std::vector<Shape> shapes(responses, kBare);
  std::fill_n(shapes.begin(), headers, kHeaders);
  std::fill_n(shapes.begin() + static_cast<std::ptrdiff_t>(headers), split,
              kSplit);
  Rng rng(w.seed ^ 0x92aULL);
  rng.shuffle(shapes);

  w.flows.resize(responses);
  std::uint16_t ip_id = 0;
  for (std::uint32_t f = 0; f < responses; ++f) {
    Bytes plain = std::move(bodies[f].payload);
    Bytes member = dpisvc::compress::gzip_compress(plain);
    // Keep single-packet shapes within one MSS behind the headers.
    while (member.size() > 1300) {
      plain.resize(plain.size() * 3 / 4);
      member = dpisvc::compress::gzip_compress(plain);
    }
    FlowInfo& flow = w.flows[f];
    const std::uint32_t seq = static_cast<std::uint32_t>(rng.next());
    if (shapes[f] == kSplit) {
      const std::size_t cut =
          member.size() / 4 + rng.index(member.size() / 2);
      Bytes head(member.begin(), member.begin() + static_cast<std::ptrdiff_t>(cut));
      Bytes tail(member.begin() + static_cast<std::ptrdiff_t>(cut), member.end());
      const auto head_len = static_cast<std::uint32_t>(head.size());
      w.packets.push_back(TemplatePacket{
          make_packet(f, std::move(head), ip_id++, seq, kPshAck, w.chain), f,
          true});
      w.packets.push_back(TemplatePacket{
          make_packet(f, std::move(tail), ip_id++, seq + head_len, kPshAckFin,
                      w.chain),
          f, true});
      flow.units.push_back(std::move(plain));
      flow.packets = 2;
      flow.known_miss = true;
      continue;
    }
    Bytes payload;
    Bytes unit;
    if (shapes[f] == kHeaders) {
      const std::string headers =
          "HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\n"
          "Content-Encoding: gzip\r\nContent-Length: " +
          std::to_string(member.size()) + "\r\n\r\n";
      payload.assign(headers.begin(), headers.end());
      unit = payload;
      flow.known_miss = true;
    }
    payload.insert(payload.end(), member.begin(), member.end());
    unit.insert(unit.end(), plain.begin(), plain.end());
    w.packets.push_back(TemplatePacket{
        make_packet(f, std::move(payload), ip_id++, seq, kPshAckFin, w.chain),
        f, true});
    flow.units.push_back(std::move(unit));
    flow.packets = 1;
  }
}

/// Only bare members: every response is a shape the service inflates, so no
/// flow of the timed traffic fails (the missed shapes are measured apart, by
/// make_known_miss_probe()).
void gzip_bodies(Workload& w) {
  gzip_responses(w, 6144, 0, 0);
  w.open_loop_pps = 5000;
}

/// Regex rules with two random alphanumeric anchors joined by glue, each
/// paired with one string it matches. The anchors never occur in generated
/// text, so every regex hit comes from a planted instance.
struct RegexRule {
  std::string first;
  std::string glue;
  std::string sample_glue;
  std::string second;
};

std::vector<RegexRule> regex_rules(std::size_t count) {
  static const char* const kGlue[][2] = {
      {R"(\s*)", " "},
      {R"(\d+)", "4711"},
      {R"([a-z]*)", "xyz"},
      {R"(.{0,8})", "::ab"},
      {R"(\s+\w+\s+)", " token "},
  };
  Rng rng(kRegexSeed);
  auto anchor = [&rng] {
    std::string s;
    const std::size_t len = 8 + rng.index(5);
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint64_t roll = rng.uniform(0, 35);
      s.push_back(roll < 26 ? static_cast<char>('a' + roll)
                            : static_cast<char>('0' + (roll - 26)));
    }
    return s;
  };
  std::vector<RegexRule> out;
  for (std::size_t i = 0; i < count; ++i) {
    const auto& g = kGlue[rng.index(std::size(kGlue))];
    std::string first = anchor();
    std::string second = anchor();
    out.push_back(RegexRule{std::move(first), g[0], g[1], std::move(second)});
  }
  return out;
}

void overwrite(Bytes& stream, Rng& rng, const std::string& text) {
  if (stream.size() < text.size()) return;
  const std::size_t at = rng.index(stream.size() - text.size() + 1);
  std::copy(text.begin(), text.end(),
            stream.begin() + static_cast<std::ptrdiff_t>(at));
}

/// Sequence-numbered TCP streams over 16384 concurrent flows through a
/// stateful session firewall (exact patterns) and a stateful IDS (anchored
/// regexes), with reassembly and defragmentation on. Some segments arrive
/// before their predecessor and some arrive as IPv4 fragments.
void tcp_stateful_regex(Workload& w) {
  add_box(w, profile(3, "session-fw", /*stateful=*/true, /*read_only=*/false));
  add_box(w, profile(4, "ids", /*stateful=*/true, /*read_only=*/true));
  const std::vector<std::string> fw_patterns =
      workload::generate_patterns(workload::snort_like(1024, kFirewallSeed));
  for (std::size_t i = 0; i < fw_patterns.size(); ++i) {
    add_rule(w, Rule{3, static_cast<dpi::PatternId>(i), fw_patterns[i], {}});
  }
  const std::vector<RegexRule> regexes = regex_rules(256);
  for (std::size_t i = 0; i < regexes.size(); ++i) {
    const RegexRule& r = regexes[i];
    add_rule(w, Rule{4, static_cast<dpi::PatternId>(i), {},
                     r.first + r.glue + r.second});
  }

  constexpr std::size_t kFlows = 16384;
  w.config.reassemble_tcp = true;
  w.config.defragment_ip = true;
  // Room for the live flows of one pass plus the finished flows of the
  // previous one; older cursors are evicted.
  w.config.max_flows = 2 * kFlows;

  Rng rng(w.seed ^ 0x7c9ULL);
  std::vector<std::size_t> segments(kFlows);
  std::size_t total = 0;
  for (auto& s : segments) {
    s = 2 + rng.index(5);
    total += s;
  }
  workload::TrafficConfig traffic;
  traffic.num_packets = total;
  traffic.num_flows = 1;
  traffic.min_payload = 64;
  traffic.max_payload = 1460;
  traffic.planted_match_rate = 0.03;
  traffic.planted_patterns = fw_patterns;
  traffic.seed = w.seed;
  workload::Trace trace = workload::generate_http_trace(traffic);

  // Per flow: its segments in arrival order (a reordered pair swaps), each
  // as one packet or as the back-to-back fragments of one datagram.
  std::vector<std::vector<std::vector<net::Packet>>> flow_segments(kFlows);
  w.flows.resize(kFlows);
  std::size_t next = 0;
  std::size_t reordered = 0;
  std::uint16_t ip_id = 0;
  for (std::uint32_t f = 0; f < kFlows; ++f) {
    Bytes stream;
    std::vector<std::size_t> sizes;
    for (std::size_t k = 0; k < segments[f]; ++k) {
      const Bytes& p = trace[next++].payload;
      sizes.push_back(p.size());
      stream.insert(stream.end(), p.begin(), p.end());
    }
    // Regex plants land anywhere in the stream, so some straddle segments.
    const double roll = rng.uniform01();
    const RegexRule& r = regexes[rng.index(regexes.size())];
    if (roll < 0.3) {
      overwrite(stream, rng, r.first + r.sample_glue + r.second);
    } else if (roll < 0.6) {
      // Both anchors present but too far apart for any glue: the regex is
      // evaluated and does not match.
      overwrite(stream, rng, r.first + std::string(24, '!') + r.second);
    }
    std::vector<net::Packet> segs;
    std::uint32_t seq = static_cast<std::uint32_t>(rng.next());
    std::size_t at = 0;
    for (std::size_t k = 0; k < sizes.size(); ++k) {
      Bytes payload(stream.begin() + static_cast<std::ptrdiff_t>(at),
                    stream.begin() + static_cast<std::ptrdiff_t>(at + sizes[k]));
      at += sizes[k];
      w.flows[f].units.push_back(payload);
      const bool last = k + 1 == sizes.size();
      segs.push_back(make_packet(f, std::move(payload), ip_id++, seq,
                                 last ? kPshAckFin : kPshAck, w.chain));
      seq += static_cast<std::uint32_t>(sizes[k]);
    }
    // The first segment fixes the stream's initial sequence number (there
    // is no handshake in this model), so only later segments swap.
    if (segs.size() >= 3 && rng.bernoulli(0.2)) {
      const std::size_t k = 1 + rng.index(segs.size() - 2);
      std::swap(segs[k], segs[k + 1]);
      ++reordered;
    }
    for (net::Packet& seg : segs) {
      if (seg.payload.size() >= 600 && rng.bernoulli(0.1)) {
        flow_segments[f].push_back(net::fragment_packet(seg, 512));
      } else {
        flow_segments[f].push_back({std::move(seg)});
      }
      w.flows[f].packets +=
          static_cast<std::uint32_t>(flow_segments[f].back().size());
    }
  }

  // Interleave segments: every flow stays open across the whole pass.
  std::vector<std::uint32_t> order;
  for (std::uint32_t f = 0; f < kFlows; ++f) {
    order.insert(order.end(), flow_segments[f].size(), f);
  }
  rng.shuffle(order);
  std::vector<std::size_t> cursor(kFlows, 0);
  for (const std::uint32_t f : order) {
    for (net::Packet& p : flow_segments[f][cursor[f]++]) {
      w.packets.push_back(TemplatePacket{std::move(p), f, false});
    }
  }
  w.props.reordered_share =
      static_cast<double>(reordered) / static_cast<double>(w.packets.size());
  w.open_loop_pps = 8000;
}

void measure(Workload& w) {
  Properties& p = w.props;
  p.packets = w.packets.size();
  p.flows = w.flows.size();
  p.payload_min = SIZE_MAX;
  std::size_t bytes = 0;
  std::size_t fragments = 0;
  std::size_t encoded = 0;
  for (const TemplatePacket& t : w.packets) {
    const std::size_t n = t.packet.payload.size();
    p.payload_min = std::min(p.payload_min, n);
    p.payload_max = std::max(p.payload_max, n);
    bytes += n;
    fragments += t.packet.is_fragment() ? 1 : 0;
    encoded += t.encoded ? 1 : 0;
  }
  std::size_t miss_packets = 0;
  for (const FlowInfo& f : w.flows) {
    if (f.known_miss) miss_packets += f.packets;
  }
  const auto n = static_cast<double>(p.packets);
  p.payload_mean = static_cast<double>(bytes) / n;
  p.fragmented_share = static_cast<double>(fragments) / n;
  p.compressed_share = static_cast<double>(encoded) / n;
  p.known_miss_share = static_cast<double>(miss_packets) / n;
}

struct Hasher {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* data, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ b[i]) * 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void real(double v) { u64(static_cast<std::uint64_t>(v * 1e9)); }
};

}  // namespace

dpi::EngineSpec Workload::engine_spec() const {
  dpi::EngineSpec spec;
  spec.middleboxes = profiles;
  for (const Rule& r : rules) {
    if (!r.exact.empty()) {
      spec.exact_patterns.push_back(dpi::ExactPatternSpec{r.exact, r.box, r.id});
    } else {
      spec.regex_patterns.push_back(
          dpi::RegexPatternSpec{r.regex, r.box, r.id, false});
    }
  }
  for (const auto& p : profiles) spec.chains[chain].push_back(p.id);
  return spec;
}

mbox::Middlebox* Workload::box(dpi::MiddleboxId id) const {
  for (const auto& b : boxes) {
    if (b->profile().id == id) return b.get();
  }
  return nullptr;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "web_stateless", "tcp_stateful_regex", "gzip_bodies", "heavy_matches"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  if (name == "web_stateless") {
    web_stateless(w);
  } else if (name == "tcp_stateful_regex") {
    tcp_stateful_regex(w);
  } else if (name == "gzip_bodies") {
    gzip_bodies(w);
  } else if (name == "heavy_matches") {
    heavy_matches(w);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  measure(w);
  return w;
}

Workload make_known_miss_probe(std::uint64_t seed) {
  Workload w;
  w.name = "gzip_known_miss";
  w.seed = seed;
  gzip_responses(w, 1024, 512, 512);
  measure(w);
  return w;
}

net::FiveTuple flow_tuple(std::uint32_t flow, std::uint32_t pass) {
  // The client address makes the tuple unique per (flow, pass); the server
  // address and the ephemeral port are hashed so tuples carry the entropy
  // real traffic has. Sequential ports and addresses alone would correlate
  // the low bits of every tuple byte, and the service's shard placement
  // (FNV-1a modulo the worker count) would then put all flows on one shard.
  std::uint64_t h = (std::uint64_t{pass} << 32 | flow) + 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  net::FiveTuple t;
  t.src_ip = net::Ipv4Addr(((10u + pass % 200u) << 24) | (flow & 0xFFFFFFu));
  t.dst_ip = net::Ipv4Addr(93, 184, static_cast<std::uint8_t>(pass / 200),
                           static_cast<std::uint8_t>(h >> 32));
  t.src_port = static_cast<std::uint16_t>(32768 + h % 28232);
  t.dst_port = 80;
  t.proto = net::IpProto::kTcp;
  return t;
}

std::uint64_t fingerprint(const Workload& w) {
  Hasher h;
  for (const TemplatePacket& t : w.packets) {
    const net::Packet& p = t.packet;
    h.u64(t.flow);
    h.u64(t.encoded);
    h.u64(p.tuple.src_ip.value);
    h.u64(p.tuple.dst_ip.value);
    h.u64((std::uint64_t{p.tuple.src_port} << 16) | p.tuple.dst_port);
    h.u64(p.ip_id);
    h.u64(p.frag_offset);
    h.u64(p.more_fragments);
    h.u64(p.tcp_seq);
    h.u64(p.tcp_flags);
    h.u64(p.payload.size());
    h.bytes(p.payload.data(), p.payload.size());
  }
  const Properties& p = w.props;
  h.u64(p.packets);
  h.u64(p.flows);
  h.u64(p.payload_min);
  h.u64(p.payload_max);
  h.real(p.reordered_share);
  h.real(p.fragmented_share);
  h.real(p.compressed_share);
  h.real(p.known_miss_share);
  return h.h;
}

}  // namespace perfbench
