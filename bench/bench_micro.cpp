// Google-benchmark microbenchmarks for the core primitives: AC traversal,
// combined-engine scan, report encode/decode, regex evaluation, packet
// wire round-trip. These are regression guards for the hot paths behind
// every table/figure harness.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "dpi/flow_table.hpp"
#include "net/packet.hpp"
#include "net/result.hpp"
#include "regex/matcher.hpp"

using namespace dpisvc;
using namespace dpisvc::bench;

namespace {

const std::vector<std::string>& snort_patterns() {
  static const auto patterns =
      workload::generate_patterns(workload::snort_like(4356));
  return patterns;
}

const workload::Trace& http_trace() {
  static const auto trace = benign_trace(snort_patterns(), 500);
  return trace;
}

void BM_AcTraverse(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const std::vector<std::string> subset(
      snort_patterns().begin(),
      snort_patterns().begin() + static_cast<long>(count));
  auto engine = engine_for(subset);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    for (const auto& p : http_trace()) {
      benchmark::DoNotOptimize(engine->traverse_only(p.payload));
      bytes += p.payload.size();
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_AcTraverse)->Arg(500)->Arg(4356);

void BM_EngineScan(benchmark::State& state) {
  auto engine = engine_for(snort_patterns());
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    for (const auto& p : http_trace()) {
      benchmark::DoNotOptimize(engine->scan_packet(1, p.payload));
      bytes += p.payload.size();
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_EngineScan);

void BM_CompressedScan(benchmark::State& state) {
  dpi::EngineConfig config;
  config.use_compressed_automaton = true;
  auto engine = engine_for(snort_patterns(), config);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    for (const auto& p : http_trace()) {
      benchmark::DoNotOptimize(engine->scan_packet(1, p.payload));
      bytes += p.payload.size();
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CompressedScan);

void BM_ReportEncodeDecode(benchmark::State& state) {
  net::MatchReport report;
  report.policy_chain_id = 1;
  net::MiddleboxSection section;
  section.middlebox_id = 1;
  for (std::uint32_t i = 0; i < 8; ++i) {
    section.entries.push_back(net::MatchEntry{
        static_cast<std::uint16_t>(i), 100 + i * 7, 1 + (i % 3)});
  }
  report.sections.push_back(section);
  for (auto _ : state) {
    const Bytes encoded = net::encode_report(report, net::ReportCodec::kUniform6);
    benchmark::DoNotOptimize(net::decode_report(encoded));
  }
}
BENCHMARK(BM_ReportEncodeDecode);

// Regex verification as the engine runs it (§5.3): over a ~950-byte
// haystack (a 256-byte retained flow tail plus the packet), reporting only
// matches that end past the tail. The HTTP-like haystack carries both
// anchors of the perfbench-shaped rule, too far apart to match, so the
// whole haystack is searched.
constexpr std::size_t kRegexTail = 256;

std::string http_haystack() {
  static const char* const kLines[] = {
      "GET /catalog/items/index.html?page=3&sort=price HTTP/1.1\r\n",
      "Host: www.example-shop.com\r\n",
      "User-Agent: Mozilla/5.0 (X11; Linux x86_64; rv:109.0) Firefox/118.0\r\n",
      "Accept: text/html,application/xhtml+xml,application/xml;q=0.9\r\n",
      "Accept-Language: en-US,en;q=0.5\r\n",
      "Accept-Encoding: gzip, deflate, br\r\n",
      "Referer: https://www.example-shop.com/catalog/index.html\r\n",
      "Cookie: session=8f2c41d9e07b; theme=dark; cart=3; consent=yes\r\n",
      "Connection: keep-alive\r\n",
  };
  std::string text;
  for (std::size_t i = 0; text.size() < 880; ++i) {
    text += kLines[i % std::size(kLines)];
  }
  text += "X-Trace: k3f9a0bq2" + std::string(24, '!') + "7zz81mq\r\n\r\n";
  return text;
}

void run_regex(benchmark::State& state, const char* pattern,
               const std::string& haystack) {
  const regex::Matcher matcher(regex::Program::compile(pattern));
  const BytesView input(reinterpret_cast<const std::uint8_t*>(haystack.data()),
                        haystack.size());
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.search_end(input, kRegexTail));
    bytes += haystack.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}

void BM_RegexLiteralPrefix(benchmark::State& state) {
  run_regex(state, R"(k3f9a0bq2\s*7zz81mq)", http_haystack());
}
BENCHMARK(BM_RegexLiteralPrefix);

void BM_RegexLeadingClass(benchmark::State& state) {
  run_regex(state, R"(\s*[kK]3f9a0bq2\s*7zz81mq)", http_haystack());
}
BENCHMARK(BM_RegexLeadingClass);

// Adversarial: the prefix "ab" occurs at every other byte and each thread
// stays alive to the end, so nothing is skipped.
void BM_RegexPrefixDense(benchmark::State& state) {
  std::string haystack;
  while (haystack.size() < 950) haystack += "ab";
  run_regex(state, "(?:ab)+[^z]*zq", haystack);
}
BENCHMARK(BM_RegexPrefixDense);

void BM_PacketWireRoundTrip(benchmark::State& state) {
  const net::Packet packet = workload::to_packet(http_trace()[0], 1);
  for (auto _ : state) {
    const Bytes wire = packet.to_wire();
    benchmark::DoNotOptimize(net::Packet::from_wire(wire));
  }
}
BENCHMARK(BM_PacketWireRoundTrip);

void BM_FlowTableUpdateLookup(benchmark::State& state) {
  dpi::FlowTable table(1 << 16);
  dpi::FlowCursor cursor;
  cursor.dfa_state = 1;
  cursor.offset = 1;
  cursor.valid = true;
  std::uint16_t port = 0;
  for (auto _ : state) {
    net::FiveTuple flow;
    flow.src_ip = net::Ipv4Addr(10, 0, 0, 1);
    flow.dst_ip = net::Ipv4Addr(10, 0, 0, 2);
    flow.src_port = port++;
    flow.dst_port = 80;
    table.update(flow, cursor);
    benchmark::DoNotOptimize(table.lookup(flow));
  }
}
BENCHMARK(BM_FlowTableUpdateLookup);

}  // namespace

BENCHMARK_MAIN();
