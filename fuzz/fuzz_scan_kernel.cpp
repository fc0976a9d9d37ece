// Fuzz target: the batched scan kernel against its scalar oracle.
//
// One engine (exact patterns with stop offsets, stateful + stateless
// chains) is compiled once with the kernel forced on, so the hot layout
// exists even under DPISVC_FORCE_SCALAR. The input bytes decode to a chain
// selector and a packet sequence; every packet is scanned twice through
// the same engine — scan_packet(…, kScalar) and scan_packet(…, kBatched) —
// with independently carried flow cursors, and the packet list is also fed
// through scan_batch both ways (the flow-interleaved lane path).
// Oracles:
//  * no crash / sanitizer report on any packet sequence;
//  * the batched kernel's results are byte-identical to the scalar loop's:
//    raw hits, bytes scanned, per-middlebox match sections and entries,
//    and the resumed cursor (state + offset) — any divergence traps.
// Packet lengths bias around the kernel's stride and interleave widths so
// stride tails, mid-stride resumes, and partial lane groups stay hot.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "dpi/engine.hpp"

namespace {

using namespace dpisvc;

std::shared_ptr<const dpi::Engine> build_engine() {
  dpi::EngineSpec spec;
  auto mbox = [](dpi::MiddleboxId id, const char* name, bool stateful,
                 std::uint32_t stop) {
    dpi::MiddleboxProfile p;
    p.id = id;
    p.name = name;
    p.stateful = stateful;
    p.stop_offset = stop;
    return p;
  };
  spec.middleboxes.push_back(mbox(1, "ids", /*stateful=*/true, /*stop=*/0));
  spec.middleboxes.push_back(mbox(2, "av", /*stateful=*/false, /*stop=*/13));
  spec.middleboxes.push_back(mbox(3, "fw", /*stateful=*/true, /*stop=*/70));
  // Short overlapping patterns over a narrow alphabet: dense accepting-state
  // traffic, matches straddling stride and packet boundaries.
  spec.exact_patterns.push_back({"ab", 1, 0});
  spec.exact_patterns.push_back({"abab", 1, 1});
  spec.exact_patterns.push_back({"babba", 2, 0});
  spec.exact_patterns.push_back({"aaaa", 3, 0});
  spec.exact_patterns.push_back({std::string("\x00\x01", 2), 3, 1});
  spec.chains[1] = {1, 2, 3};
  spec.chains[2] = {2};
  spec.chains[3] = {1};
  dpi::EngineConfig config;
  config.kernel = dpi::ScanKernel::kBatched;
  return dpi::Engine::compile(spec, config);
}

bool same(const dpi::ScanResult& a, const dpi::ScanResult& b) {
  if (a.raw_hits != b.raw_hits || a.bytes_scanned != b.bytes_scanned ||
      a.anchor_hits_seen != b.anchor_hits_seen ||
      a.matches.size() != b.matches.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.matches.size(); ++i) {
    if (a.matches[i].middlebox != b.matches[i].middlebox ||
        a.matches[i].entries != b.matches[i].entries) {
      return false;
    }
  }
  return a.cursor.valid == b.cursor.valid &&
         a.cursor.dfa_state == b.cursor.dfa_state &&
         a.cursor.offset == b.cursor.offset;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  static const std::shared_ptr<const dpi::Engine> engine = build_engine();
  if (size < 2) return 0;

  const dpi::ChainId chain = static_cast<dpi::ChainId>(1 + data[0] % 3);
  std::size_t pos = 1;

  std::vector<BytesView> packets;
  for (int n = 0; n < 64 && pos < size; ++n) {
    const std::uint8_t control = data[pos++];
    // Lengths 1..32: clusters around the stride (4) and the widest
    // interleave group (8), plus empty-tail and tail-only shapes.
    const std::size_t len =
        std::min<std::size_t>(1 + (control & 0x1f), size - pos);
    if (len == 0) break;
    packets.emplace_back(data + pos, len);
    pos += len;
  }
  if (packets.empty()) return 0;

  // Packet-by-packet differential with independently carried cursors: a
  // divergence in any packet's resumed state poisons the rest of the flow,
  // so comparing every step localizes it.
  dpi::FlowCursor scalar_cursor;
  dpi::FlowCursor kernel_cursor;
  for (const BytesView packet : packets) {
    const dpi::ScanResult ref = engine->scan_packet(
        chain, packet, scalar_cursor, dpi::ScanKernel::kScalar);
    const dpi::ScanResult got = engine->scan_packet(
        chain, packet, kernel_cursor, dpi::ScanKernel::kBatched);
    if (!same(ref, got)) __builtin_trap();
    scalar_cursor = ref.cursor;
    kernel_cursor = got.cursor;
  }

  // Batch differential: the interleaved lane walk over stateless packets
  // must equal the sequential scalar loop item-for-item.
  const auto refs =
      engine->scan_batch(chain, packets, nullptr, dpi::ScanKernel::kScalar);
  const auto gots =
      engine->scan_batch(chain, packets, nullptr, dpi::ScanKernel::kBatched);
  if (refs.size() != gots.size()) __builtin_trap();
  for (std::size_t i = 0; i < refs.size(); ++i) {
    if (!same(refs[i], gots[i])) __builtin_trap();
  }
  return 0;
}
