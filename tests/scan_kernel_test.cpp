// Batched scan kernel vs. the scalar oracle.
//
// The kernel (ac/hot_kernel.hpp) must be invisible in results: every walk —
// single-lane, interleaved, resumed mid-stride, clamped by a stop offset,
// continued scalar after a cold exit — ends exactly where the scalar loop
// would have. The tests here check that four ways:
//   1. raw-walk differential: HotKernel::scan / scan_interleaved against
//      FullAutomaton::scan, including a deliberately truncated (incomplete)
//      core whose cold exits force the scalar continuation;
//   2. engine differential over adversarial reassembly streams: the
//      policy-normalized bytes of evasion traces (overlap conflicts,
//      retransmit storms, shuffles, sequence wraparound) scanned packet-by-
//      packet with carried cursors under kScalar and kBatched;
//   3. boundary pins: stateful resume at non-stride offsets, stop-offset
//      clamps at the boundary byte, interleaved batch == sequential scans;
//   4. the verify layer: check_hot_kernel proves the layout, and
//      cross_check_kernel comes back clean on a live engine (and reports
//      kernel-not-active on a scalar-pinned one).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "ac/full_automaton.hpp"
#include "ac/hot_kernel.hpp"
#include "ac/trie.hpp"
#include "dpi/engine.hpp"
#include "verify/verifier.hpp"
#include "workload/adversarial_gen.hpp"

namespace dpisvc {
namespace {

using MatchKey = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                            std::uint32_t>;

std::vector<MatchKey> match_set(const dpi::ScanResult& result) {
  std::vector<MatchKey> keys;
  for (const auto& mb : result.matches) {
    for (const auto& entry : mb.entries) {
      keys.emplace_back(mb.middlebox, entry.pattern_id, entry.position,
                        entry.run_length);
    }
  }
  return keys;
}

/// Full-result equality: counters, sections in order, resumed cursor.
void expect_same_result(const dpi::ScanResult& ref, const dpi::ScanResult& got,
                        const std::string& where) {
  EXPECT_EQ(ref.raw_hits, got.raw_hits) << where;
  EXPECT_EQ(ref.bytes_scanned, got.bytes_scanned) << where;
  EXPECT_EQ(ref.anchor_hits_seen, got.anchor_hits_seen) << where;
  EXPECT_EQ(match_set(ref), match_set(got)) << where;
  EXPECT_EQ(ref.cursor.valid, got.cursor.valid) << where;
  EXPECT_EQ(ref.cursor.dfa_state, got.cursor.dfa_state) << where;
  EXPECT_EQ(ref.cursor.offset, got.cursor.offset) << where;
}

ac::FullAutomaton dense_automaton() {
  ac::Trie trie;
  trie.insert("ab", 0);
  trie.insert("abab", 1);
  trie.insert("babba", 2);
  trie.insert("aaaa", 3);
  trie.insert("cabbage", 4);
  return ac::FullAutomaton::build(trie);
}

/// Deterministic a/b/c-heavy stream with frequent pattern hits.
Bytes dense_payload(std::size_t n, std::uint64_t seed) {
  Bytes out;
  out.reserve(n);
  std::uint64_t x = seed * 2654435761u + 1;
  for (std::size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    static constexpr char kAlpha[] = "aabbabcge";
    out.push_back(static_cast<std::uint8_t>(kAlpha[x % (sizeof(kAlpha) - 1)]));
  }
  return out;
}

std::vector<ac::Match> scalar_events(const ac::FullAutomaton& full,
                                     BytesView data, ac::StateIndex start,
                                     ac::StateIndex* end_state = nullptr) {
  std::vector<ac::Match> events;
  const ac::StateIndex end = full.scan(
      data, start, [&](ac::Match m) { events.push_back(m); });
  if (end_state != nullptr) *end_state = end;
  return events;
}

bool same_events(const std::vector<ac::Match>& a,
                 const std::vector<ac::Match>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].end_offset != b[i].end_offset ||
        a[i].accept_state != b[i].accept_state) {
      return false;
    }
  }
  return true;
}

// --- raw kernel walks --------------------------------------------------------

TEST(HotKernelTest, CompleteCoreScanMatchesScalarWalk) {
  const ac::FullAutomaton full = dense_automaton();
  const ac::HotKernel kernel = ac::HotKernel::build(full);
  ASSERT_TRUE(kernel.available());
  ASSERT_TRUE(kernel.complete());

  // Lengths around the stride boundary (0..9) plus longer bodies: the
  // unrolled stride loop and the per-byte tail must agree with the scalar
  // walk at every cut.
  for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 63u, 256u}) {
    const Bytes payload = dense_payload(n, n + 1);
    ac::StateIndex want_state = 0;
    const auto want =
        scalar_events(full, BytesView(payload), full.start_state(),
                      &want_state);
    std::vector<ac::Match> got;
    const ac::HotKernel::Lane lane =
        kernel.scan(BytesView(payload), full.start_state(), got);
    EXPECT_EQ(lane.consumed, payload.size()) << "complete core never exits";
    EXPECT_EQ(lane.state, want_state) << "n=" << n;
    EXPECT_TRUE(same_events(want, got)) << "n=" << n;
  }
}

TEST(HotKernelTest, TruncatedCoreColdExitsResumeScalar) {
  const ac::FullAutomaton full = dense_automaton();
  // Cap the core below the full state count: deeper states become cold and
  // the kernel must stop at (not consume) the byte that leaves the core.
  const ac::HotKernel kernel = ac::HotKernel::build(full, full.num_states() - 3);
  ASSERT_TRUE(kernel.available());
  ASSERT_FALSE(kernel.complete());
  ASSERT_LT(kernel.num_hot_states(), full.num_states());

  const Bytes payload = dense_payload(512, 7);
  ac::StateIndex want_state = 0;
  const auto want =
      scalar_events(full, BytesView(payload), full.start_state(), &want_state);

  // Kernel walk + scalar continuation over every cold exit, exactly as the
  // engine stitches them: scan the remainder, shift the call's events to
  // stream offsets, take one scalar byte over the cold transition, repeat.
  std::vector<ac::Match> got;
  std::size_t done = 0;
  ac::StateIndex state = full.start_state();
  bool exited_cold = false;
  while (done < payload.size()) {
    const BytesView rest = BytesView(payload).subspan(done);
    std::vector<ac::Match> call;
    const ac::HotKernel::Lane lane = kernel.scan(rest, state, call);
    for (const ac::Match& m : call) {
      got.push_back(ac::Match{m.end_offset + done, m.accept_state});
    }
    state = lane.state;
    done += lane.consumed;
    if (lane.consumed < rest.size()) {
      exited_cold = true;
      std::vector<ac::Match> one;
      state = full.scan(BytesView(payload).subspan(done, 1), state,
                        [&](ac::Match m) { one.push_back(m); });
      for (const ac::Match& m : one) {
        got.push_back(ac::Match{m.end_offset + done, m.accept_state});
      }
      ++done;
    }
  }
  EXPECT_TRUE(exited_cold) << "payload never left the truncated core";
  EXPECT_EQ(want_state, state);
  EXPECT_TRUE(same_events(want, got));
}

TEST(HotKernelTest, InterleavedLanesEqualSingleLaneScans) {
  const ac::FullAutomaton full = dense_automaton();
  const ac::HotKernel kernel = ac::HotKernel::build(full);
  ASSERT_TRUE(kernel.available());

  // Mixed lengths (empty, tail-only, stride-aligned, long) at full width:
  // lane retirement reorders the dense active set, which must not leak into
  // any lane's results.
  const std::vector<std::size_t> lens = {0, 3, 4, 5, 129, 8, 64, 17};
  std::vector<Bytes> payloads;
  for (std::size_t i = 0; i < lens.size(); ++i) {
    payloads.push_back(dense_payload(lens[i], i + 11));
  }

  std::vector<std::vector<ac::Match>> want(lens.size());
  std::vector<ac::StateIndex> want_state(lens.size());
  for (std::size_t i = 0; i < lens.size(); ++i) {
    std::vector<ac::Match> single;
    const ac::HotKernel::Lane lane =
        kernel.scan(BytesView(payloads[i]), full.start_state(), single);
    want[i] = single;
    want_state[i] = lane.state;
  }

  std::vector<std::vector<ac::Match>> got(lens.size());
  std::vector<ac::HotKernel::Lane> lanes(lens.size());
  for (std::size_t i = 0; i < lens.size(); ++i) {
    lanes[i] = ac::HotKernel::Lane{BytesView(payloads[i]), full.start_state(),
                                   0, &got[i]};
  }
  kernel.scan_interleaved(lanes.data(), lanes.size());
  for (std::size_t i = 0; i < lens.size(); ++i) {
    EXPECT_EQ(lanes[i].consumed, payloads[i].size()) << "lane " << i;
    EXPECT_EQ(lanes[i].state, want_state[i]) << "lane " << i;
    EXPECT_TRUE(same_events(want[i], got[i])) << "lane " << i;
  }
}

// --- engine differential -----------------------------------------------------

std::shared_ptr<const dpi::Engine> kernel_engine(bool with_stop = false) {
  dpi::EngineSpec spec;
  dpi::MiddleboxProfile ids;
  ids.id = 1;
  ids.name = "ids";
  ids.stateful = true;
  dpi::MiddleboxProfile av;
  av.id = 2;
  av.name = "av";
  if (with_stop) {
    ids.stop_offset = 70;
    av.stop_offset = 13;
  }
  spec.middleboxes = {ids, av};
  spec.exact_patterns = {
      dpi::ExactPatternSpec{"ab", 1, 0},
      dpi::ExactPatternSpec{"abab", 1, 1},
      dpi::ExactPatternSpec{"babba", 2, 0},
      dpi::ExactPatternSpec{"aaaa", 2, 1},
      dpi::ExactPatternSpec{"secret-attack", 1, 2},
  };
  spec.chains[1] = {1, 2};
  spec.chains[2] = {2};
  dpi::EngineConfig config;
  config.kernel = dpi::ScanKernel::kBatched;  // explicit: active even under
                                              // DPISVC_FORCE_SCALAR
  return dpi::Engine::compile(spec, config);
}

TEST(ScanKernelEngineTest, StatefulResumeAtNonStrideOffsets) {
  const auto engine = kernel_engine();
  ASSERT_TRUE(engine->kernel_active());

  // "secret-attack" split so every packet ends mid-stride (lengths 3, 5, 7,
  // 6, ...): the cursor's DFA state resumes inside a pattern and inside a
  // stride on every boundary.
  const std::string stream = "xxsecret-attackyyabababbabbaaaaaz";
  for (const std::size_t chunk : {1u, 2u, 3u, 5u, 6u, 7u, 9u, 13u}) {
    dpi::FlowCursor scalar_cursor;
    dpi::FlowCursor kernel_cursor;
    bool saw_long_pattern = false;
    for (std::size_t base = 0; base < stream.size(); base += chunk) {
      const std::size_t len = std::min(chunk, stream.size() - base);
      const BytesView packet(
          reinterpret_cast<const std::uint8_t*>(stream.data()) + base, len);
      const auto ref = engine->scan_packet(1, packet, scalar_cursor,
                                           dpi::ScanKernel::kScalar);
      const auto got = engine->scan_packet(1, packet, kernel_cursor,
                                           dpi::ScanKernel::kBatched);
      expect_same_result(ref, got,
                         "chunk=" + std::to_string(chunk) +
                             " base=" + std::to_string(base));
      scalar_cursor = ref.cursor;
      kernel_cursor = got.cursor;
      for (const MatchKey& key : match_set(got)) {
        // pattern_id 2 on middlebox 1 = "secret-attack", flow-relative end
        // position 15 regardless of how the chunking cut it.
        if (std::get<0>(key) == 1 && std::get<1>(key) == 2) {
          EXPECT_EQ(std::get<2>(key), 15u);
          saw_long_pattern = true;
        }
      }
    }
    EXPECT_TRUE(saw_long_pattern) << "chunk=" << chunk;
  }
}

TEST(ScanKernelEngineTest, StopOffsetBoundariesIdenticalAcrossKernels) {
  const auto engine = kernel_engine(/*with_stop=*/true);
  ASSERT_TRUE(engine->kernel_active());

  // "babba" (middlebox 2, stop 13) ending exactly at the boundary byte vs
  // one past it: inclusive at 13, dropped at 14. Payload sizes straddle the
  // combined clamp so the kernel sees clamped slices of every tail shape.
  for (std::size_t end : {13u, 14u}) {
    std::string payload(end - 5, 'x');
    payload += "babba";
    payload += std::string(70, 'x');  // past both stops
    const BytesView bytes(
        reinterpret_cast<const std::uint8_t*>(payload.data()), payload.size());
    const auto ref =
        engine->scan_packet(1, bytes, {}, dpi::ScanKernel::kScalar);
    const auto got =
        engine->scan_packet(1, bytes, {}, dpi::ScanKernel::kBatched);
    expect_same_result(ref, got, "end=" + std::to_string(end));
    bool reported = false;
    for (const MatchKey& key : match_set(got)) {
      if (std::get<0>(key) == 2 && std::get<1>(key) == 0) reported = true;
    }
    EXPECT_EQ(reported, end == 13u) << "stop boundary is inclusive";
    // The §5.2 clamp cuts the walk at the largest live stop offset.
    EXPECT_EQ(got.bytes_scanned, 70u);
  }
}

TEST(ScanKernelEngineTest, AdversarialStreamsScanIdentically) {
  const auto engine = kernel_engine();
  ASSERT_TRUE(engine->kernel_active());

  const net::FiveTuple flow{net::Ipv4Addr(10, 0, 0, 1),
                            net::Ipv4Addr(10, 0, 0, 2), 40000, 80,
                            net::IpProto::kTcp};
  Bytes clean;
  for (int i = 0; i < 24; ++i) {
    const std::string piece = "ab-secret-attack-babba-aaaa#" +
                              std::to_string(i);
    clean.insert(clean.end(), piece.begin(), piece.end());
  }

  // Evasion transforms produce policy-normalized streams (decoy bytes,
  // truncated releases, duplicated content); each stream is chunked and
  // scanned packet-by-packet under both kernels with carried cursors.
  std::vector<workload::EvasionSpec> specs(4);
  specs[0].segment_bytes = 8;
  specs[1].seed = 2;
  specs[1].shuffle = true;
  specs[1].retransmit_rate = 0.3;
  specs[2].seed = 3;
  specs[2].conflict = workload::ConflictMode::kDecoyLater;
  specs[2].conflict_rate = 0.5;
  specs[3].seed = 5;
  specs[3].initial_seq = 0xFFFFFFF0u;  // wraparound
  for (std::size_t si = 0; si < specs.size(); ++si) {
    const auto trace =
        workload::make_evasion_trace(flow, BytesView(clean), specs[si]);
    for (const net::OverlapPolicy policy :
         {net::OverlapPolicy::kFirstWins, net::OverlapPolicy::kLastWins}) {
      const auto view = workload::normalize_segments(
          trace.initial_seq, trace.segments, policy);
      for (const std::size_t chunk : {7u, 64u}) {
        dpi::FlowCursor scalar_cursor;
        dpi::FlowCursor kernel_cursor;
        for (std::size_t base = 0; base < view.bytes.size(); base += chunk) {
          const std::size_t len = std::min(chunk, view.bytes.size() - base);
          const BytesView packet(view.bytes.data() + base, len);
          const auto ref = engine->scan_packet(1, packet, scalar_cursor,
                                               dpi::ScanKernel::kScalar);
          const auto got = engine->scan_packet(1, packet, kernel_cursor,
                                               dpi::ScanKernel::kBatched);
          expect_same_result(ref, got,
                             "spec=" + std::to_string(si) +
                                 " chunk=" + std::to_string(chunk) +
                                 " base=" + std::to_string(base));
          scalar_cursor = ref.cursor;
          kernel_cursor = got.cursor;
        }
      }
    }
  }
}

TEST(ScanKernelEngineTest, InterleavedBatchEqualsSequentialScans) {
  const auto engine = kernel_engine();
  ASSERT_TRUE(engine->kernel_active());

  // 29 packets (three full interleave groups of 8 + a partial group of 5)
  // with mixed lengths, including empties.
  std::vector<Bytes> storage;
  for (std::size_t i = 0; i < 29; ++i) {
    storage.push_back(dense_payload((i * 13) % 90, i + 3));
  }
  std::vector<BytesView> payloads;
  for (const Bytes& b : storage) payloads.emplace_back(b);

  const auto batch =
      engine->scan_batch(2, payloads, nullptr, dpi::ScanKernel::kBatched);
  ASSERT_EQ(batch.size(), payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    const auto ref =
        engine->scan_packet(2, payloads[i], {}, dpi::ScanKernel::kScalar);
    expect_same_result(ref, batch[i], "packet " + std::to_string(i));
  }
}

// --- verify layer ------------------------------------------------------------

TEST(ScanKernelVerifyTest, LayoutProofAndCrossCheckComeBackClean) {
  const auto engine = kernel_engine();
  const auto* full = std::get_if<ac::FullAutomaton>(&engine->automaton());
  ASSERT_NE(full, nullptr);
  ASSERT_NE(engine->hot_kernel(), nullptr);

  const auto layout = verify::check_hot_kernel(*full, *engine->hot_kernel());
  EXPECT_TRUE(layout.empty()) << (layout.empty() ? "" : layout[0].code + ": " +
                                                            layout[0].message);

  std::vector<std::vector<Bytes>> flows;
  for (std::size_t f = 0; f < 3; ++f) {
    std::vector<Bytes> packets;
    for (std::size_t p = 0; p < 6; ++p) {
      packets.push_back(dense_payload(5 + 17 * p + f, f * 31 + p));
    }
    flows.push_back(std::move(packets));
  }
  const auto diffs = verify::cross_check_kernel(*engine, 1, flows);
  EXPECT_TRUE(diffs.empty()) << (diffs.empty() ? "" : diffs[0].code + ": " +
                                                          diffs[0].message);
}

TEST(ScanKernelVerifyTest, CrossCheckReportsScalarPinnedEngine) {
  dpi::EngineSpec spec;
  dpi::MiddleboxProfile ids;
  ids.id = 1;
  ids.name = "ids";
  spec.middleboxes = {ids};
  spec.exact_patterns = {dpi::ExactPatternSpec{"ab", 1, 0}};
  spec.chains[1] = {1};
  dpi::EngineConfig config;
  config.kernel = dpi::ScanKernel::kScalar;
  const auto engine = dpi::Engine::compile(spec, config);
  EXPECT_FALSE(engine->kernel_active());

  const auto diffs = verify::cross_check_kernel(*engine, 1, {});
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].code, "kernel-not-active");
}

TEST(ScanKernelVerifyTest, LayoutProofFlagsTruncatedCoreAsIncomplete) {
  const ac::FullAutomaton full = dense_automaton();
  const ac::HotKernel kernel =
      ac::HotKernel::build(full, full.num_states() - 3);
  ASSERT_TRUE(kernel.available());
  ASSERT_FALSE(kernel.complete());
  // A correctly-built truncated core still passes the layout proof — the
  // proof checks the encoding (maps, depth closure, transitions), not
  // completeness.
  const auto layout = verify::check_hot_kernel(full, kernel);
  EXPECT_TRUE(layout.empty()) << (layout.empty() ? "" : layout[0].code);
}

}  // namespace
}  // namespace dpisvc
