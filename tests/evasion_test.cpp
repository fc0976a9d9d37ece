// Evasion matrix: for every OverlapPolicy, the production pipeline
// (IpDefragmenter -> FlowReassembler -> stateful dpi::Engine) must see
// exactly the stream the policy says it should. Each spec is checked two
// ways against the independent normalization oracle of
// workload/adversarial_gen:
//   1. the concatenation of released chunks equals the oracle's bytes;
//   2. the stateful match set over the streamed chunks equals a one-shot
//      scan of the oracle's bytes (positions are stream offsets, so the
//      sets compare directly).
// On top of the matrix, targeted cases pin the policy-divergence semantics
// (first_wins vs last_wins vs reject_ambiguous under conflicting overlaps)
// and the DpiInstance wiring (counters in stats_json / obs metrics /
// TELEMETRY_REPORT).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "dpi/engine.hpp"
#include "json/json.hpp"
#include "net/defrag.hpp"
#include "net/packet.hpp"
#include "net/reassembly.hpp"
#include "service/instance.hpp"
#include "service/messages.hpp"
#include "workload/adversarial_gen.hpp"

namespace dpisvc::workload {
namespace {

using net::OverlapPolicy;

constexpr dpi::ChainId kChain = 1;
constexpr char kPattern[] = "secret-attack";
// A run of the generator's decoy filler: present only in decoy-resolved
// streams, so reject_ambiguous must never report it.
constexpr char kDecoyPattern[] = "####";

constexpr OverlapPolicy kAllPolicies[] = {OverlapPolicy::kFirstWins,
                                          OverlapPolicy::kLastWins,
                                          OverlapPolicy::kRejectAmbiguous};

std::shared_ptr<const dpi::Engine> make_engine() {
  dpi::EngineSpec spec;
  dpi::MiddleboxProfile ids;
  ids.id = 1;
  ids.name = "ids";
  ids.stateful = true;
  spec.middleboxes = {ids};
  spec.exact_patterns = {dpi::ExactPatternSpec{kPattern, 1, 7},
                         dpi::ExactPatternSpec{kDecoyPattern, 1, 8}};
  spec.chains[kChain] = {1};
  return dpi::Engine::compile(spec);
}

net::FiveTuple test_flow() {
  return net::FiveTuple{net::Ipv4Addr(10, 0, 0, 1), net::Ipv4Addr(10, 0, 0, 2),
                        40000, 80, net::IpProto::kTcp};
}

/// (middlebox, pattern_id, stream position, run length) — the full identity
/// of one reported match.
using MatchKey = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                            std::uint32_t>;

void collect_matches(const dpi::ScanResult& result,
                     std::vector<MatchKey>* sink) {
  for (const auto& mb : result.matches) {
    for (const auto& entry : mb.entries) {
      sink->emplace_back(mb.middlebox, entry.pattern_id, entry.position,
                         entry.run_length);
    }
  }
}

struct PipelineRun {
  Bytes released;                 ///< concatenation of all released chunks
  std::vector<MatchKey> matches;  ///< sorted stateful match set
};

/// Streams the trace through the real pipeline: defragment (when the spec
/// fragments), reassemble under `policy`, scan each released chunk with a
/// persistent stateful cursor.
PipelineRun run_pipeline(const dpi::Engine& engine,
                         const AdversarialTrace& trace, OverlapPolicy policy,
                         net::ReassemblyConfig rcfg = {},
                         net::DefragConfig dcfg = {}) {
  rcfg.overlap_policy = policy;
  dcfg.overlap_policy = policy;
  net::FlowReassembler reassembler(rcfg);
  net::IpDefragmenter defrag(dcfg);

  PipelineRun run;
  dpi::FlowCursor cursor;
  for (const net::Packet& packet : trace.packets) {
    net::Packet whole;
    if (packet.is_fragment()) {
      auto full = defrag.feed(packet);
      if (!full) continue;
      whole = std::move(*full);
    } else {
      defrag.tick();
      whole = packet;
    }
    const auto chunk = reassembler.feed(whole);
    if (!chunk) continue;
    run.released.insert(run.released.end(), chunk->data.begin(),
                        chunk->data.end());
    const auto result = engine.scan_packet(kChain, chunk->data, cursor);
    cursor = result.cursor;
    collect_matches(result, &run.matches);
  }
  std::sort(run.matches.begin(), run.matches.end());
  return run;
}

/// One-shot scan of the oracle-normalized bytes with a fresh cursor: the
/// ground truth the streamed pipeline must reproduce byte for byte and
/// match for match.
std::vector<MatchKey> scan_direct(const dpi::Engine& engine, BytesView bytes) {
  std::vector<MatchKey> matches;
  if (bytes.empty()) return matches;
  collect_matches(engine.scan_packet(kChain, bytes, dpi::FlowCursor{}),
                  &matches);
  std::sort(matches.begin(), matches.end());
  return matches;
}

bool contains_pattern(const std::vector<MatchKey>& matches,
                      std::uint32_t pattern_id) {
  return std::any_of(matches.begin(), matches.end(), [&](const MatchKey& m) {
    return std::get<1>(m) == pattern_id;
  });
}

/// The clean stream every spec transforms: the pattern starts at offset 8,
/// spanning several segments for every segment size the specs use. Length
/// is a multiple of 16 so fragmenting specs never leave an unfragmented
/// tail segment.
Bytes clean_stream() {
  std::string s = "aaaaaaaa";
  s += kPattern;  // offsets 8..20
  s += std::string(43, 'z');
  EXPECT_EQ(s.size() % 16, 0u);
  return to_bytes(s);
}

/// Core matrix assertion: pipeline == oracle for bytes and matches.
void expect_pipeline_matches_oracle(const dpi::Engine& engine,
                                    const AdversarialTrace& trace,
                                    OverlapPolicy policy,
                                    const net::ReassemblyConfig& rcfg = {},
                                    const net::DefragConfig& dcfg = {}) {
  const PipelineRun run = run_pipeline(engine, trace, policy, rcfg, dcfg);
  const NormalizedView oracle = normalize_trace(trace, policy, rcfg, dcfg);
  EXPECT_EQ(to_string(run.released), to_string(oracle.bytes))
      << "policy=" << net::overlap_policy_name(policy);
  EXPECT_EQ(run.matches, scan_direct(engine, oracle.bytes))
      << "policy=" << net::overlap_policy_name(policy);
}

TEST(EvasionMatrix, OutOfOrderShuffleIsPolicyInvariant) {
  const auto engine = make_engine();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    EvasionSpec spec;
    spec.seed = seed;
    spec.segment_bytes = 4;
    spec.shuffle = true;
    const auto trace = make_evasion_trace(test_flow(), clean_stream(), spec);
    for (OverlapPolicy policy : kAllPolicies) {
      expect_pipeline_matches_oracle(*engine, trace, policy);
      // No conflicting data: every policy reconstructs the clean stream and
      // finds the pattern.
      const NormalizedView oracle = normalize_trace(trace, policy);
      EXPECT_FALSE(oracle.ambiguous);
      EXPECT_EQ(to_string(oracle.bytes), to_string(clean_stream()));
      EXPECT_TRUE(contains_pattern(
          run_pipeline(*engine, trace, policy).matches, 7));
    }
  }
}

TEST(EvasionMatrix, RetransmitStormIsHarmless) {
  const auto engine = make_engine();
  EvasionSpec spec;
  spec.seed = 42;
  spec.segment_bytes = 8;
  spec.shuffle = true;
  spec.retransmit_rate = 0.4;
  const auto trace = make_evasion_trace(test_flow(), clean_stream(), spec);
  ASSERT_GT(trace.segments.size(), clean_stream().size() / 8);  // storms hit
  for (OverlapPolicy policy : kAllPolicies) {
    expect_pipeline_matches_oracle(*engine, trace, policy);
    // Retransmissions carry identical bytes: duplicates, not ambiguity.
    const NormalizedView oracle = normalize_trace(trace, policy);
    EXPECT_FALSE(oracle.ambiguous);
    EXPECT_EQ(to_string(oracle.bytes), to_string(clean_stream()));
  }
}

TEST(EvasionMatrix, ConflictDecoyLaterSplitsThePolicies) {
  const auto engine = make_engine();
  EvasionSpec spec;
  spec.seed = 7;
  spec.segment_bytes = 8;
  spec.conflict = ConflictMode::kDecoyLater;
  spec.conflict_rate = 1.0;
  const auto trace = make_evasion_trace(test_flow(), clean_stream(), spec);

  for (OverlapPolicy policy : kAllPolicies) {
    expect_pipeline_matches_oracle(*engine, trace, policy);
  }

  // first_wins: the true bytes arrived first, the decoy loses everywhere —
  // the clean stream (and the pattern) survive.
  const PipelineRun first =
      run_pipeline(*engine, trace, OverlapPolicy::kFirstWins);
  EXPECT_EQ(to_string(first.released), to_string(clean_stream()));
  EXPECT_TRUE(contains_pattern(first.matches, 7));
  EXPECT_FALSE(contains_pattern(first.matches, 8));

  // last_wins: the decoy overwrites the conflicted segments — the pattern
  // is masked and the decoy filler becomes visible.
  const PipelineRun last =
      run_pipeline(*engine, trace, OverlapPolicy::kLastWins);
  EXPECT_NE(to_string(last.released), to_string(clean_stream()));
  EXPECT_FALSE(contains_pattern(last.matches, 7));
  EXPECT_TRUE(contains_pattern(last.matches, 8));

  // reject_ambiguous: fail closed. Only the pre-conflict prefix is ever
  // released, and no match — genuine or decoy — is reported on
  // conflicting data.
  const PipelineRun reject =
      run_pipeline(*engine, trace, OverlapPolicy::kRejectAmbiguous);
  const std::string clean = to_string(clean_stream());
  EXPECT_LT(reject.released.size(), clean.size());
  EXPECT_EQ(to_string(reject.released),
            clean.substr(0, reject.released.size()));
  EXPECT_FALSE(contains_pattern(reject.matches, 7));
  EXPECT_FALSE(contains_pattern(reject.matches, 8));
  const NormalizedView oracle =
      normalize_trace(trace, OverlapPolicy::kRejectAmbiguous);
  EXPECT_TRUE(oracle.ambiguous);
  EXPECT_GT(oracle.conflicting_bytes, 0u);
}

TEST(EvasionMatrix, ConflictDecoyFirstFavorsLastWins) {
  const auto engine = make_engine();
  EvasionSpec spec;
  spec.seed = 9;
  spec.segment_bytes = 8;
  spec.conflict = ConflictMode::kDecoyFirst;
  spec.conflict_rate = 1.0;
  const auto trace = make_evasion_trace(test_flow(), clean_stream(), spec);

  for (OverlapPolicy policy : kAllPolicies) {
    expect_pipeline_matches_oracle(*engine, trace, policy);
  }

  // The mirror image of kDecoyLater: now the retransmitted true bytes win
  // only under last_wins.
  const PipelineRun last =
      run_pipeline(*engine, trace, OverlapPolicy::kLastWins);
  EXPECT_EQ(to_string(last.released), to_string(clean_stream()));
  EXPECT_TRUE(contains_pattern(last.matches, 7));

  const PipelineRun first =
      run_pipeline(*engine, trace, OverlapPolicy::kFirstWins);
  EXPECT_FALSE(contains_pattern(first.matches, 7));
  EXPECT_TRUE(contains_pattern(first.matches, 8));
}

TEST(EvasionMatrix, SequenceWrapStraddlingMatch) {
  const auto engine = make_engine();
  EvasionSpec spec;
  spec.seed = 3;
  // The pattern occupies stream offsets 8..20; with this initial sequence
  // number it straddles 0xFFFFFFFF -> 0.
  spec.initial_seq = 0xFFFFFFF8u - 8u;
  spec.segment_bytes = 4;
  spec.shuffle = true;
  const auto trace = make_evasion_trace(test_flow(), clean_stream(), spec);
  for (OverlapPolicy policy : kAllPolicies) {
    expect_pipeline_matches_oracle(*engine, trace, policy);
    EXPECT_TRUE(
        contains_pattern(run_pipeline(*engine, trace, policy).matches, 7));
  }
}

TEST(EvasionMatrix, FragmentedDeliveryReassemblesUnderEveryPolicy) {
  const auto engine = make_engine();
  EvasionSpec spec;
  spec.seed = 11;
  spec.segment_bytes = 32;  // > fragment_payload: every segment fragments
  spec.fragment_payload = 16;
  spec.fragment_reverse = true;
  const auto trace = make_evasion_trace(test_flow(), clean_stream(), spec);
  ASSERT_TRUE(std::any_of(trace.packets.begin(), trace.packets.end(),
                          [](const net::Packet& p) { return p.is_fragment(); }));
  for (OverlapPolicy policy : kAllPolicies) {
    expect_pipeline_matches_oracle(*engine, trace, policy);
    EXPECT_TRUE(
        contains_pattern(run_pipeline(*engine, trace, policy).matches, 7));
  }
}

TEST(EvasionMatrix, TinyFragmentsAreRejectedFailClosed) {
  const auto engine = make_engine();
  EvasionSpec spec;
  spec.seed = 13;
  spec.segment_bytes = 16;
  spec.fragment_payload = 8;  // below DefragConfig::min_fragment (16)
  const auto trace = make_evasion_trace(test_flow(), clean_stream(), spec);
  for (OverlapPolicy policy : kAllPolicies) {
    expect_pipeline_matches_oracle(*engine, trace, policy);
    // Every datagram leads with a tiny MF fragment: nothing completes,
    // nothing is scanned, nothing matches.
    const PipelineRun run = run_pipeline(*engine, trace, policy);
    EXPECT_TRUE(run.released.empty());
    EXPECT_TRUE(run.matches.empty());
  }
  // The real defragmenter counts the rejection.
  net::DefragConfig dcfg;
  net::IpDefragmenter defrag(dcfg);
  for (const net::Packet& p : trace.packets) {
    if (p.is_fragment()) defrag.feed(p);
  }
  EXPECT_GT(defrag.stats().rejected_tiny, 0u);
}

// --- DpiInstance wiring: the counters must surface end to end --------------

net::Packet tagged(const net::Packet& base) {
  net::Packet p = base;
  p.push_tag(net::TagKind::kPolicyChain, kChain);
  return p;
}

TEST(EvasionInstance, AmbiguityCountersSurfaceInStatsAndTelemetry) {
  service::InstanceConfig config;
  config.reassemble_tcp = true;
  config.reassembly.overlap_policy = OverlapPolicy::kRejectAmbiguous;
  service::DpiInstance instance("evasion-ut", config);
  instance.load_engine(make_engine(), 1);

  EvasionSpec spec;
  spec.seed = 7;
  spec.segment_bytes = 8;
  spec.conflict = ConflictMode::kDecoyLater;
  spec.conflict_rate = 1.0;
  const auto trace = make_evasion_trace(test_flow(), clean_stream(), spec);
  for (const net::Packet& p : trace.packets) instance.process(tagged(p));

  const net::ReassemblyStats rs = instance.reassembly_stats();
  EXPECT_GT(rs.ambiguous_overlaps, 0u);
  EXPECT_GT(rs.conflicting_overlap_bytes, 0u);

  // stats_json: the per-policy reassembly block.
  const json::Value stats = instance.stats_json();
  const json::Value& reassembly = stats.at("reassembly");
  EXPECT_EQ(reassembly.at("policy").as_string(), "reject_ambiguous");
  EXPECT_EQ(static_cast<std::uint64_t>(
                reassembly.at("ambiguous_overlaps").as_int()),
            rs.ambiguous_overlaps);
  EXPECT_GT(reassembly.at("conflicting_overlap_bytes").as_int(), 0);

  // TELEMETRY_REPORT round trip carries the evasion signal to the
  // controller.
  const service::TelemetryReport report =
      service::make_telemetry_report(instance);
  EXPECT_EQ(report.ambiguous_overlaps, rs.ambiguous_overlaps);
  const service::TelemetryReport decoded =
      service::decode_telemetry_report(service::encode(report));
  EXPECT_EQ(decoded.ambiguous_overlaps, rs.ambiguous_overlaps);
  EXPECT_EQ(decoded.conflicting_overlap_bytes, rs.conflicting_overlap_bytes);
  // ... and the whole reassembly/defrag blocks stats_json() shows.
  EXPECT_EQ(json::dump(decoded.reassembly), json::dump(stats.at("reassembly")));
  EXPECT_EQ(json::dump(decoded.defrag), json::dump(stats.at("defrag")));
}

TEST(EvasionInstance, DefragmentationCountersSurfaceInStats) {
  service::InstanceConfig config;
  config.reassemble_tcp = true;
  config.defragment_ip = true;
  service::DpiInstance instance("defrag-ut", config);
  instance.load_engine(make_engine(), 1);

  EvasionSpec spec;
  spec.seed = 11;
  spec.segment_bytes = 32;
  spec.fragment_payload = 16;
  const auto trace = make_evasion_trace(test_flow(), clean_stream(), spec);
  bool matched = false;
  for (const net::Packet& p : trace.packets) {
    matched |= instance.process(tagged(p)).had_matches;
  }
  EXPECT_TRUE(matched);  // defrag + reassembly still detect the pattern

  const net::DefragStats ds = instance.defrag_stats();
  EXPECT_GT(ds.fragments, 0u);
  EXPECT_GT(ds.datagrams_completed, 0u);
  EXPECT_GT(instance.telemetry().defrag_held, 0u);

  const json::Value stats = instance.stats_json();
  EXPECT_EQ(static_cast<std::uint64_t>(
                stats.at("defrag").at("datagrams_completed").as_int()),
            ds.datagrams_completed);
}

}  // namespace
}  // namespace dpisvc::workload
