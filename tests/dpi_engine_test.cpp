// Tests for the virtual DPI engine (§5): combined-set scanning, bitmaps,
// stopping conditions, stateful flows, regex pre-filtering — including the
// central correctness property: scanning once against the combined pattern
// sets is equivalent to scanning separately per middlebox.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "common/rng.hpp"
#include "dpi/engine.hpp"

namespace dpisvc::dpi {
namespace {

BytesView view(const std::string& s) {
  return BytesView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

/// Flattens a scan result to comparable (middlebox, pattern, position) sets,
/// expanding run-length entries.
std::set<std::tuple<MiddleboxId, PatternId, std::uint32_t>> flatten(
    const ScanResult& result) {
  std::set<std::tuple<MiddleboxId, PatternId, std::uint32_t>> out;
  for (const auto& section : result.matches) {
    for (const auto& e : section.entries) {
      for (std::uint32_t i = 0; i < e.run_length; ++i) {
        out.emplace(section.middlebox, e.pattern_id, e.position + i);
      }
    }
  }
  return out;
}

EngineSpec two_middlebox_spec() {
  EngineSpec spec;
  spec.middleboxes = {
      MiddleboxProfile{1, "ids", false, true, kNoStopCondition},
      MiddleboxProfile{2, "av", false, false, kNoStopCondition},
  };
  // Paper's Figure 4/7 sets.
  const char* set1[] = {"E", "BE", "BD", "BCD", "BCAA", "CDBCAB"};
  const char* set2[] = {"EDAE", "BE", "CDBA", "CBD"};
  PatternId id = 0;
  for (const char* p : set1) {
    spec.exact_patterns.push_back(ExactPatternSpec{p, 1, id++});
  }
  id = 0;
  for (const char* p : set2) {
    spec.exact_patterns.push_back(ExactPatternSpec{p, 2, id++});
  }
  spec.chains[10] = {1, 2};
  spec.chains[11] = {1};
  spec.chains[12] = {2};
  return spec;
}

// --- basic combined scanning -------------------------------------------------

TEST(Engine, ReportsPerMiddleboxPatternIds) {
  auto engine = Engine::compile(two_middlebox_spec());
  const auto result = engine->scan_packet(10, view("CDBCABE"));
  const auto found = flatten(result);
  // CDBCAB -> mbox1 pattern 5 at 6; BE -> mbox1 pattern 1 AND mbox2
  // pattern 1 at 7; E -> mbox1 pattern 0 at 7.
  EXPECT_TRUE(found.count({1, 5, 6}));
  EXPECT_TRUE(found.count({1, 1, 7}));
  EXPECT_TRUE(found.count({2, 1, 7}));
  EXPECT_TRUE(found.count({1, 0, 7}));
  EXPECT_EQ(found.size(), 4u);
}

TEST(Engine, ChainSelectsActiveMiddleboxes) {
  auto engine = Engine::compile(two_middlebox_spec());
  // Chain 11: only middlebox 1. The shared pattern BE must be reported only
  // with middlebox 1's id.
  const auto found = flatten(engine->scan_packet(11, view("CDBCABE")));
  for (const auto& [mbox, pattern, pos] : found) {
    EXPECT_EQ(mbox, 1);
  }
  EXPECT_TRUE(found.count({1, 1, 7}));
  // Chain 12: only middlebox 2.
  const auto found2 = flatten(engine->scan_packet(12, view("CDBCABE")));
  EXPECT_EQ(found2.size(), 1u);
  EXPECT_TRUE(found2.count({2, 1, 7}));
}

TEST(Engine, UnknownChainThrows) {
  auto engine = Engine::compile(two_middlebox_spec());
  EXPECT_THROW(engine->scan_packet(99, view("x")), std::invalid_argument);
}

TEST(Engine, NoMatchesOnCleanPayload) {
  auto engine = Engine::compile(two_middlebox_spec());
  const auto result = engine->scan_packet(10, view("xxxxyyyyzzzz"));
  EXPECT_FALSE(result.has_matches());
  EXPECT_EQ(result.bytes_scanned, 12u);
}

TEST(Engine, SuffixPatternAcrossMiddleboxes) {
  EngineSpec spec;
  spec.middleboxes = {MiddleboxProfile{1, "a"}, MiddleboxProfile{2, "b"}};
  spec.exact_patterns = {
      ExactPatternSpec{"ABCDEF", 1, 0},
      ExactPatternSpec{"DEF", 2, 0},
  };
  spec.chains[1] = {1, 2};
  auto engine = Engine::compile(spec);
  const auto found = flatten(engine->scan_packet(1, view("xABCDEFx")));
  // One traversal of ABCDEF's accepting state must report both middleboxes.
  EXPECT_TRUE(found.count({1, 0, 7}));
  EXPECT_TRUE(found.count({2, 0, 7}));
}

TEST(Engine, RunCompressionForSelfRepeatingPatterns) {
  EngineSpec spec;
  spec.middleboxes = {MiddleboxProfile{1, "a"}};
  spec.exact_patterns = {ExactPatternSpec{"aa", 1, 3}};
  spec.chains[1] = {1};
  auto engine = Engine::compile(spec);
  const auto result = engine->scan_packet(1, view("aaaaa"));
  ASSERT_EQ(result.matches.size(), 1u);
  ASSERT_EQ(result.matches[0].entries.size(), 1u);
  const auto& e = result.matches[0].entries[0];
  EXPECT_EQ(e.pattern_id, 3);
  EXPECT_EQ(e.position, 2u);
  EXPECT_EQ(e.run_length, 4u);  // ends at 2,3,4,5
}

// --- the central equivalence property -------------------------------------------

// Scanning once with the combined engine and filtering by the active bitmap
// must equal scanning separately with one single-middlebox engine each.
TEST(Engine, CombinedScanEquivalentToSeparateScans) {
  Rng rng(0xC0FFEE);
  for (int iter = 0; iter < 40; ++iter) {
    // Random pattern sets for 3 middleboxes over a small alphabet.
    EngineSpec combined;
    std::map<MiddleboxId, EngineSpec> separate;
    for (MiddleboxId id = 1; id <= 3; ++id) {
      combined.middleboxes.push_back(MiddleboxProfile{id, "m"});
      separate[id].middleboxes.push_back(MiddleboxProfile{id, "m"});
      separate[id].chains[1] = {id};
      const std::size_t n = 1 + rng.index(6);
      for (PatternId pid = 0; pid < n; ++pid) {
        std::string p;
        const std::size_t len = 1 + rng.index(5);
        for (std::size_t j = 0; j < len; ++j) {
          p.push_back(static_cast<char>('a' + rng.index(3)));
        }
        combined.exact_patterns.push_back(ExactPatternSpec{p, id, pid});
        separate[id].exact_patterns.push_back(ExactPatternSpec{p, id, pid});
      }
    }
    combined.chains[1] = {1, 2, 3};
    combined.chains[2] = {1, 3};
    combined.chains[3] = {2};

    auto combined_engine = Engine::compile(combined);
    std::map<MiddleboxId, std::shared_ptr<const Engine>> separate_engines;
    for (auto& [id, spec] : separate) {
      separate_engines[id] = Engine::compile(spec);
    }

    std::string text;
    const std::size_t text_len = rng.index(100);
    for (std::size_t j = 0; j < text_len; ++j) {
      text.push_back(static_cast<char>('a' + rng.index(3)));
    }

    const std::map<ChainId, std::vector<MiddleboxId>> chains = {
        {1, {1, 2, 3}}, {2, {1, 3}}, {3, {2}}};
    for (const auto& [chain, members] : chains) {
      const auto combined_found =
          flatten(combined_engine->scan_packet(chain, view(text)));
      std::set<std::tuple<MiddleboxId, PatternId, std::uint32_t>> expected;
      for (MiddleboxId id : members) {
        const auto single =
            flatten(separate_engines[id]->scan_packet(1, view(text)));
        expected.insert(single.begin(), single.end());
      }
      EXPECT_EQ(combined_found, expected)
          << "chain=" << chain << " text=" << text;
    }
  }
}

// --- stateful flows ---------------------------------------------------------------

EngineSpec stateful_spec() {
  EngineSpec spec;
  spec.middleboxes = {MiddleboxProfile{1, "ids", /*stateful=*/true, false,
                                       kNoStopCondition}};
  spec.exact_patterns = {ExactPatternSpec{"attackpattern", 1, 0},
                         ExactPatternSpec{"short", 1, 1}};
  spec.chains[1] = {1};
  return spec;
}

TEST(Engine, StatefulScanSpansPacketBoundaries) {
  auto engine = Engine::compile(stateful_spec());
  const std::string part1 = "xxxattackpa";
  const std::string part2 = "tternyyy";
  const auto r1 = engine->scan_packet(1, view(part1));
  EXPECT_FALSE(r1.has_matches());
  ASSERT_TRUE(r1.cursor.valid);
  EXPECT_EQ(r1.cursor.offset, part1.size());
  const auto r2 = engine->scan_packet(1, view(part2), r1.cursor);
  const auto found = flatten(r2);
  // Position is flow-relative: "attackpattern" ends at offset 16.
  EXPECT_TRUE(found.count({1, 0, 16}));
}

TEST(Engine, StatefulEqualsConcatenatedScan) {
  Rng rng(0xFEED);
  auto engine = Engine::compile(stateful_spec());
  for (int iter = 0; iter < 30; ++iter) {
    std::string text;
    const std::size_t len = 1 + rng.index(120);
    for (std::size_t i = 0; i < len; ++i) {
      // Bias toward pattern bytes so matches actually occur.
      const char* soup = "attackpternshor";
      text.push_back(soup[rng.index(15)]);
    }
    if (rng.bernoulli(0.5)) {
      text.insert(rng.index(text.size() + 1), "attackpattern");
    }
    // Whole-scan reference.
    const auto whole = flatten(engine->scan_packet(1, view(text)));
    // Split into 1..4 fragments.
    std::set<std::tuple<MiddleboxId, PatternId, std::uint32_t>> stitched;
    FlowCursor cursor;
    std::size_t at = 0;
    while (at < text.size()) {
      const std::size_t take = 1 + rng.index(text.size() - at);
      const auto r =
          engine->scan_packet(1, view(text.substr(at, take)), cursor);
      const auto part = flatten(r);
      stitched.insert(part.begin(), part.end());
      cursor = r.cursor;
      at += take;
    }
    EXPECT_EQ(stitched, whole) << text;
  }
}

TEST(Engine, StatelessDropsMatchesBeganInPreviousPacket) {
  // One stateful middlebox forces cross-packet state; a stateless middlebox
  // sharing the chain must NOT see a match that straddles the boundary.
  EngineSpec spec;
  spec.middleboxes = {
      MiddleboxProfile{1, "stateful", true, false, kNoStopCondition},
      MiddleboxProfile{2, "stateless", false, false, kNoStopCondition}};
  spec.exact_patterns = {ExactPatternSpec{"abcdef", 1, 0},
                         ExactPatternSpec{"abcdef", 2, 0}};
  spec.chains[1] = {1, 2};
  auto engine = Engine::compile(spec);

  const auto r1 = engine->scan_packet(1, view("xxabc"));
  const auto r2 = engine->scan_packet(1, view("defyy"), r1.cursor);
  const auto found = flatten(r2);
  EXPECT_TRUE(found.count({1, 0, 8}));   // stateful: flow offset 8
  for (const auto& [mbox, pattern, pos] : found) {
    EXPECT_NE(mbox, 2);  // stateless must not report the straddling match
  }
}

TEST(Engine, StatelessStillMatchesWithinPacketWhenResumed) {
  EngineSpec spec;
  spec.middleboxes = {
      MiddleboxProfile{1, "stateful", true, false, kNoStopCondition},
      MiddleboxProfile{2, "stateless", false, false, kNoStopCondition}};
  spec.exact_patterns = {ExactPatternSpec{"needle", 2, 7}};
  spec.chains[1] = {1, 2};
  auto engine = Engine::compile(spec);
  const auto r1 = engine->scan_packet(1, view("garbage"));
  const auto r2 = engine->scan_packet(1, view("xxneedlexx"), r1.cursor);
  const auto found = flatten(r2);
  // Position is packet-relative for the stateless middlebox.
  EXPECT_TRUE(found.count({2, 7, 8}));
}

// --- stopping conditions ------------------------------------------------------------

TEST(Engine, StopConditionFiltersDeepMatches) {
  EngineSpec spec;
  spec.middleboxes = {
      MiddleboxProfile{1, "header-only", false, false, /*stop=*/10},
      MiddleboxProfile{2, "full", false, false, kNoStopCondition}};
  spec.exact_patterns = {ExactPatternSpec{"evil", 1, 0},
                         ExactPatternSpec{"evil", 2, 0}};
  spec.chains[1] = {1, 2};
  auto engine = Engine::compile(spec);
  // "evil" ending at 9 (within mbox1's stop) and at 24 (beyond it).
  const std::string text = "xxxxxevil..........evil.";
  const auto found = flatten(engine->scan_packet(1, view(text)));
  EXPECT_TRUE(found.count({1, 0, 9}));
  EXPECT_TRUE(found.count({2, 0, 9}));
  EXPECT_FALSE(found.count({1, 0, 23}));
  EXPECT_TRUE(found.count({2, 0, 23}));
}

TEST(Engine, ScanTruncatesAtMostConservativeStop) {
  EngineSpec spec;
  spec.middleboxes = {MiddleboxProfile{1, "a", false, false, 8},
                      MiddleboxProfile{2, "b", false, false, 16}};
  spec.exact_patterns = {ExactPatternSpec{"zzzz", 1, 0},
                         ExactPatternSpec{"zzzz", 2, 0}};
  spec.chains[1] = {1, 2};
  auto engine = Engine::compile(spec);
  const std::string text(64, 'a');
  const auto result = engine->scan_packet(1, view(text));
  EXPECT_EQ(result.bytes_scanned, 16u);  // max of the two stop offsets
}

TEST(Engine, StatefulStopAppliesAcrossPackets) {
  EngineSpec spec;
  spec.middleboxes = {MiddleboxProfile{1, "s", true, false, /*stop=*/10}};
  spec.exact_patterns = {ExactPatternSpec{"mark", 1, 0}};
  spec.chains[1] = {1};
  auto engine = Engine::compile(spec);
  const auto r1 = engine->scan_packet(1, view("123456"));  // offset now 6
  EXPECT_EQ(r1.bytes_scanned, 6u);
  const auto r2 = engine->scan_packet(1, view("789012345"), r1.cursor);
  EXPECT_EQ(r2.bytes_scanned, 4u);  // only up to flow offset 10
  const auto r3 = engine->scan_packet(1, view("abcdef"), r2.cursor);
  EXPECT_EQ(r3.bytes_scanned, 0u);
}

// --- regex support (§5.3) --------------------------------------------------------------

EngineSpec regex_spec() {
  EngineSpec spec;
  spec.middleboxes = {MiddleboxProfile{1, "ids"}};
  spec.regex_patterns = {
      RegexPatternSpec{R"(regular\s*expression\s*\d+)", 1, 100, false}};
  spec.chains[1] = {1};
  return spec;
}

TEST(Engine, RegexMatchedViaAnchors) {
  auto engine = Engine::compile(regex_spec());
  EXPECT_EQ(engine->num_distinct_strings(), 2u);  // "regular", "expression"
  const auto found =
      flatten(engine->scan_packet(1, view("a regular expression 42 here")));
  ASSERT_EQ(found.size(), 1u);
  const auto& [mbox, pattern, pos] = *found.begin();
  EXPECT_EQ(mbox, 1);
  EXPECT_EQ(pattern, 100);
}

TEST(Engine, RegexNotEvaluatedWhenAnchorMissing) {
  auto engine = Engine::compile(regex_spec());
  // "regular" present but "expression" absent: no anchors-complete, and the
  // regex itself would not match anyway.
  const auto r = engine->scan_packet(1, view("regular stuff 42"));
  EXPECT_FALSE(r.has_matches());
}

TEST(Engine, AnchorsPresentButRegexFails) {
  auto engine = Engine::compile(regex_spec());
  // Both anchors present but no digits: anchors fire, PCRE-equivalent runs
  // and correctly reports nothing.
  const auto r =
      engine->scan_packet(1, view("expression before regular, no digits"));
  EXPECT_FALSE(r.has_matches());
}

TEST(Engine, AnchorlessRegexAlwaysEvaluated) {
  EngineSpec spec;
  spec.middleboxes = {MiddleboxProfile{1, "ids"}};
  spec.regex_patterns = {RegexPatternSpec{R"(\d{5})", 1, 3, false}};
  spec.chains[1] = {1};
  auto engine = Engine::compile(spec);
  const auto found = flatten(engine->scan_packet(1, view("zip=90210!")));
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(found.count({1, 3, 9}));  // "90210" ends at offset 9
}

TEST(Engine, SharedAnchorBetweenMiddleboxes) {
  EngineSpec spec;
  spec.middleboxes = {MiddleboxProfile{1, "a"}, MiddleboxProfile{2, "b"}};
  spec.regex_patterns = {
      RegexPatternSpec{R"(attack\d)", 1, 0, false},
      RegexPatternSpec{R"(attack[a-z])", 2, 0, false},
  };
  spec.chains[1] = {1, 2};
  spec.chains[2] = {2};
  auto engine = Engine::compile(spec);
  EXPECT_EQ(engine->num_distinct_strings(), 1u);  // shared anchor "attack"
  const auto both = flatten(engine->scan_packet(1, view("xxattack7attackz")));
  EXPECT_TRUE(both.count({1, 0, 9}));
  EXPECT_TRUE(both.count({2, 0, 16}));
  const auto only2 = flatten(engine->scan_packet(2, view("xxattack7attackz")));
  EXPECT_EQ(only2.size(), 1u);
  EXPECT_TRUE(only2.count({2, 0, 16}));
}

TEST(Engine, MixedExactAndRegex) {
  EngineSpec spec;
  spec.middleboxes = {MiddleboxProfile{1, "ids"}};
  spec.exact_patterns = {ExactPatternSpec{"exactmatch", 1, 0}};
  spec.regex_patterns = {RegexPatternSpec{R"(rx\d+rx)", 1, 1, false}};
  spec.chains[1] = {1};
  auto engine = Engine::compile(spec);
  const auto found =
      flatten(engine->scan_packet(1, view("exactmatch and rx123rx")));
  EXPECT_TRUE(found.count({1, 0, 10}));
  EXPECT_EQ(found.size(), 2u);
}

// --- compressed engine configuration ---------------------------------------------------

TEST(Engine, CompressedAutomatonProducesSameResults) {
  const EngineSpec spec = two_middlebox_spec();
  auto full = Engine::compile(spec);
  EngineConfig config;
  config.use_compressed_automaton = true;
  auto compressed = Engine::compile(spec, config);
  EXPECT_TRUE(compressed->uses_compressed_automaton());
  EXPECT_FALSE(full->uses_compressed_automaton());
  const char* inputs[] = {"CDBCABE", "EDAEBD", "zzz", "BCAACBD"};
  for (const char* input : inputs) {
    EXPECT_EQ(flatten(full->scan_packet(10, view(input))),
              flatten(compressed->scan_packet(10, view(input))))
        << input;
  }
  EXPECT_LT(compressed->memory_bytes(), full->memory_bytes());
}

// --- compile-time validation -------------------------------------------------------------

TEST(Engine, CompileRejectsBadSpecs) {
  {
    EngineSpec spec;
    spec.middleboxes = {MiddleboxProfile{0, "bad"}};
    EXPECT_THROW(Engine::compile(spec), std::invalid_argument);
  }
  {
    EngineSpec spec;
    spec.middleboxes = {MiddleboxProfile{65, "bad"}};
    EXPECT_THROW(Engine::compile(spec), std::invalid_argument);
  }
  {
    EngineSpec spec;
    spec.middleboxes = {MiddleboxProfile{1, "a"}, MiddleboxProfile{1, "b"}};
    EXPECT_THROW(Engine::compile(spec), std::invalid_argument);
  }
  {
    EngineSpec spec;
    spec.middleboxes = {MiddleboxProfile{1, "a"}};
    spec.exact_patterns = {ExactPatternSpec{"x", 2, 0}};  // unknown mbox
    EXPECT_THROW(Engine::compile(spec), std::invalid_argument);
  }
  {
    EngineSpec spec;
    spec.middleboxes = {MiddleboxProfile{1, "a"}};
    spec.exact_patterns = {ExactPatternSpec{"", 1, 0}};  // empty pattern
    EXPECT_THROW(Engine::compile(spec), std::invalid_argument);
  }
  {
    EngineSpec spec;
    spec.middleboxes = {MiddleboxProfile{1, "a"}};
    spec.regex_patterns = {RegexPatternSpec{"(", 1, 0, false}};
    EXPECT_THROW(Engine::compile(spec), regex::SyntaxError);
  }
  {
    EngineSpec spec;
    spec.middleboxes = {MiddleboxProfile{1, "a"}};
    spec.chains[1] = {1, 2};  // unknown chain member
    EXPECT_THROW(Engine::compile(spec), std::invalid_argument);
  }
}

TEST(Engine, EmptyPatternSetEngineScansCleanly) {
  EngineSpec spec;
  spec.middleboxes = {MiddleboxProfile{1, "a"}};
  spec.chains[1] = {1};
  auto engine = Engine::compile(spec);
  const auto r = engine->scan_packet(1, view("anything at all"));
  EXPECT_FALSE(r.has_matches());
}

TEST(Engine, IntrospectionCounters) {
  auto engine = Engine::compile(two_middlebox_spec());
  EXPECT_EQ(engine->num_exact_patterns(), 10u);
  EXPECT_EQ(engine->num_distinct_strings(), 9u);  // BE shared
  EXPECT_EQ(engine->num_regex_patterns(), 0u);
  EXPECT_GT(engine->memory_bytes(), 0u);
  EXPECT_TRUE(engine->chain_known(10));
  EXPECT_FALSE(engine->chain_known(42));
  EXPECT_EQ(engine->chain_bitmap(10), 0b11u);
  ASSERT_NE(engine->find_middlebox(1), nullptr);
  EXPECT_EQ(engine->find_middlebox(1)->name, "ids");
  EXPECT_EQ(engine->find_middlebox(42), nullptr);
}

// --- stop-condition boundary convention --------------------------------------
//
// Pin the documented convention (MiddleboxProfile::stop_offset): a match is
// reported iff its end position (1-based count of its last byte) is <= the
// stop offset. At the boundary: reported. One before: reported. One past:
// filtered.

TEST(Engine, StatelessStopBoundaryInclusive) {
  EngineSpec spec;
  spec.middleboxes = {MiddleboxProfile{1, "hdr", false, false, /*stop=*/10}};
  spec.exact_patterns = {ExactPatternSpec{"evil", 1, 0}};
  spec.chains[1] = {1};
  auto engine = Engine::compile(spec);
  // End exactly at the stop offset: reported.
  EXPECT_TRUE(flatten(engine->scan_packet(1, view("xxxxxxevil..")))
                  .count({1, 0, 10}));
  // End one byte before the stop offset: reported.
  EXPECT_TRUE(flatten(engine->scan_packet(1, view("xxxxxevil...")))
                  .count({1, 0, 9}));
  // End one byte past the stop offset: filtered.
  EXPECT_TRUE(flatten(engine->scan_packet(1, view("xxxxxxxevil."))).empty());
}

TEST(Engine, ResumedStatefulStopBoundaryInclusive) {
  EngineSpec spec;
  spec.middleboxes = {MiddleboxProfile{1, "s", true, false, /*stop=*/10}};
  spec.exact_patterns = {ExactPatternSpec{"mark", 1, 0}};
  spec.chains[1] = {1};
  auto engine = Engine::compile(spec);
  // Flow-relative end positions: "mark" straddles the packet boundary.
  {
    // Ends at flow position 10 == stop: reported.
    const auto r1 = engine->scan_packet(1, view("xxxxxxma"));
    const auto found = flatten(engine->scan_packet(1, view("rk"), r1.cursor));
    EXPECT_TRUE(found.count({1, 0, 10}));
  }
  {
    // Ends at flow position 9: reported.
    const auto r1 = engine->scan_packet(1, view("xxxxxma"));
    const auto found = flatten(engine->scan_packet(1, view("rk"), r1.cursor));
    EXPECT_TRUE(found.count({1, 0, 9}));
  }
  {
    // Ends at flow position 11: filtered (and the scan is cut at 10).
    const auto r1 = engine->scan_packet(1, view("xxxxxxxma"));
    const auto r2 = engine->scan_packet(1, view("rk"), r1.cursor);
    EXPECT_TRUE(flatten(r2).empty());
  }
}

TEST(Engine, RegexStopBoundaryInclusive) {
  EngineSpec spec;
  spec.middleboxes = {MiddleboxProfile{1, "re", false, false, /*stop=*/10}};
  spec.regex_patterns = {RegexPatternSpec{R"(evil\d)", 1, 7, false}};
  spec.chains[1] = {1};
  auto engine = Engine::compile(spec);
  // Regex match "evil5" ending exactly at the stop offset: reported.
  EXPECT_TRUE(
      flatten(engine->scan_packet(1, view("xxxxxevil5..."))).count({1, 7, 10}));
  // Ending one byte past the stop offset: filtered.
  EXPECT_TRUE(flatten(engine->scan_packet(1, view("xxxxxxevil5.."))).empty());
}

TEST(Engine, MixedChainStatefulStopDoesNotCutStatelessDepth) {
  // Regression: on a chain with both a bounded stateless and a bounded
  // stateful member, the scan clamp used to take only the flow-relative
  // stateful remainder — resumed packets were cut short of the stateless
  // members' per-packet depth and their in-depth matches silently vanished.
  EngineSpec spec;
  spec.middleboxes = {
      MiddleboxProfile{1, "hdr", false, false, /*stop=*/8},
      MiddleboxProfile{2, "s", true, false, /*stop=*/4},
  };
  spec.exact_patterns = {ExactPatternSpec{"PQRS", 1, 0},
                         ExactPatternSpec{"AAAA", 2, 0}};
  spec.chains[1] = {1, 2};
  auto engine = Engine::compile(spec);
  // Packet 1 consumes the whole stateful depth.
  const auto r1 = engine->scan_packet(1, view("AAAA"));
  EXPECT_TRUE(flatten(r1).count({2, 0, 4}));
  // Packet 2: the stateless member still inspects its per-packet depth of
  // 8 bytes; "PQRS" ends at packet-relative 8 and must be reported.
  const auto r2 = engine->scan_packet(1, view("ZZZZPQRS"), r1.cursor);
  EXPECT_TRUE(flatten(r2).count({1, 0, 8}));
  EXPECT_EQ(r2.bytes_scanned, 8u);
}

// --- anchor hit-set capacity -------------------------------------------------

TEST(Engine, CompileRejectsAnchorsBeyondCapacity) {
  EngineSpec spec;
  spec.middleboxes = {MiddleboxProfile{1, "re"}};
  spec.regex_patterns = {RegexPatternSpec{R"(aaaa\d)", 1, 0, false},
                         RegexPatternSpec{R"(bbbb\d)", 1, 1, false},
                         RegexPatternSpec{R"(cccc\d)", 1, 2, false}};
  spec.chains[1] = {1};
  EngineConfig config;
  config.max_anchor_bits = 2;  // three distinct anchors exceed this
  EXPECT_THROW(Engine::compile(spec, config), std::invalid_argument);
  // Raising the bound (or the default) accepts the same spec.
  config.max_anchor_bits = 3;
  EXPECT_NO_THROW(Engine::compile(spec, config));
  EXPECT_NO_THROW(Engine::compile(spec));
}


// --- cross-packet regex matching (§5.2 + §5.3) -------------------------------
//
// A regex owned by a stateful middlebox must be reported even when its
// anchors — and the match itself — arrive spread over several packets of
// one flow. The FlowCursor persists both the anchor hit-set and a bounded
// tail of recent payload (EngineConfig::stateful_regex_window) so the
// evaluation can see across the packet boundary.

EngineSpec split_regex_spec() {
  EngineSpec spec;
  spec.middleboxes = {MiddleboxProfile{1, "dlp", /*stateful=*/true, false,
                                       kNoStopCondition}};
  spec.regex_patterns = {RegexPatternSpec{R"(expression\d+regular)", 1, 7,
                                          false}};
  spec.chains[1] = {1};
  return spec;
}

TEST(Engine, RegexSplitAcrossPacketsIsReported) {
  auto engine = Engine::compile(split_regex_spec());
  // Anchor "expression" completes in packet 1, anchor "regular" in packet 2;
  // the match itself straddles the boundary.
  const auto r1 = engine->scan_packet(1, view("expression123"));
  EXPECT_FALSE(r1.has_matches());
  const auto r2 = engine->scan_packet(1, view("45regular"), r1.cursor);
  const auto found = flatten(r2);
  ASSERT_EQ(found.size(), 1u);
  // Flow-relative end: "expression12345regular" = 22 bytes.
  EXPECT_TRUE(found.count({1, 7, 22}));
}

TEST(Engine, RegexSplitAcrossThreePackets) {
  EngineSpec spec;
  spec.middleboxes = {MiddleboxProfile{1, "dlp", true, false,
                                       kNoStopCondition}};
  spec.regex_patterns = {RegexPatternSpec{R"(card=[0-9]+#)", 1, 1, false}};
  spec.chains[1] = {1};
  auto engine = Engine::compile(spec);
  const auto r1 = engine->scan_packet(1, view("xxcard="));
  const auto r2 = engine->scan_packet(1, view("1234"), r1.cursor);
  EXPECT_FALSE(r2.has_matches());
  const auto r3 = engine->scan_packet(1, view("5678#yy"), r2.cursor);
  const auto found = flatten(r3);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(found.count({1, 1, 16}));  // "...5678#" ends at flow offset 16
}

TEST(Engine, SplitRegexMatchNotReportedTwice) {
  auto engine = Engine::compile(split_regex_spec());
  const auto r1 = engine->scan_packet(1, view("expression123"));
  const auto r2 = engine->scan_packet(1, view("45regular"), r1.cursor);
  EXPECT_TRUE(r2.has_matches());
  // The completed match sits entirely inside the retained window now; a
  // later packet must not resurrect it (matches must end in new bytes).
  const auto r3 = engine->scan_packet(1, view("harmless"), r2.cursor);
  EXPECT_FALSE(r3.has_matches());
}

TEST(Engine, FreshCursorForgetsSplitRegexState) {
  auto engine = Engine::compile(split_regex_spec());
  const auto r1 = engine->scan_packet(1, view("expression123"));
  EXPECT_FALSE(r1.has_matches());
  // Eviction/reset: scanning the second half with a fresh cursor (what a
  // flow-table eviction produces) must not see packet 1's anchors or bytes.
  const auto r2 = engine->scan_packet(1, view("45regular"));
  EXPECT_FALSE(r2.has_matches());
}

TEST(Engine, ZeroWindowDisablesCrossPacketRegex) {
  EngineConfig config;
  config.stateful_regex_window = 0;
  auto engine = Engine::compile(split_regex_spec(), config);
  const auto r1 = engine->scan_packet(1, view("expression123"));
  const auto r2 = engine->scan_packet(1, view("45regular"), r1.cursor);
  // Without the payload tail the split match cannot be reconstructed --
  // the pre-window behavior, still crash-free.
  EXPECT_FALSE(r2.has_matches());
  // Same-packet matches are unaffected.
  const auto whole =
      flatten(engine->scan_packet(1, view("expression12345regular")));
  EXPECT_TRUE(whole.count({1, 7, 22}));
}

TEST(Engine, TinyWindowBoundsMemoryNotCorrectness) {
  EngineConfig config;
  config.stateful_regex_window = 4;  // too small to hold "expression123"
  auto engine = Engine::compile(split_regex_spec(), config);
  const auto r1 = engine->scan_packet(1, view("expression123"));
  const auto r2 = engine->scan_packet(1, view("45regular"), r1.cursor);
  // The bounded tail honestly cannot reconstruct this match; it must simply
  // miss it (no false positive, no crash).
  EXPECT_FALSE(r2.has_matches());
  EXPECT_LE(r2.cursor.regex_window.size(), 4u);
}

TEST(Engine, SplitRegexEquivalentToWholeStream) {
  // Chunked scans over a persistent cursor report the same (pattern, end)
  // set as scanning the whole stream in one packet, for every split point.
  auto engine = Engine::compile(split_regex_spec());
  const std::string text = "zzexpression40regularzz";
  const auto whole = flatten(engine->scan_packet(1, view(text)));
  ASSERT_EQ(whole.size(), 1u);
  for (std::size_t cut = 1; cut + 1 < text.size(); ++cut) {
    const auto r1 = engine->scan_packet(1, view(text.substr(0, cut)));
    const auto r2 = engine->scan_packet(1, view(text.substr(cut)), r1.cursor);
    auto acc = flatten(r1);
    for (const auto& m : flatten(r2)) acc.insert(m);
    EXPECT_EQ(acc, whole) << "split at " << cut;
  }
}

TEST(Engine, StatelessRegexDoesNotCarryAcrossPackets) {
  EngineSpec spec;
  spec.middleboxes = {MiddleboxProfile{1, "ids"}};  // stateless
  spec.regex_patterns = {RegexPatternSpec{R"(expression\d+regular)", 1, 7,
                                          false}};
  spec.chains[1] = {1};
  auto engine = Engine::compile(spec);
  const auto r1 = engine->scan_packet(1, view("expression123"));
  const auto r2 = engine->scan_packet(1, view("45regular"), r1.cursor);
  // Stateless middleboxes scan per packet: no window, no cross-packet match.
  EXPECT_FALSE(r2.has_matches());
  EXPECT_TRUE(r2.cursor.regex_window.empty());
}

TEST(Engine, ScanResultCountsRegexWork) {
  auto engine = Engine::compile(regex_spec());
  const auto hit = engine->scan_packet(1, view("a regular expression 42"));
  EXPECT_GT(hit.anchor_hits_seen, 0u);
  EXPECT_EQ(hit.regexes_evaluated, 1u);
  EXPECT_EQ(hit.regex_matches, 1u);
  const auto miss = engine->scan_packet(1, view("nothing to see"));
  EXPECT_EQ(miss.anchor_hits_seen, 0u);
  EXPECT_EQ(miss.regexes_evaluated, 0u);
  EXPECT_EQ(miss.regex_matches, 0u);
}

TEST(Engine, ExactOnlyEngineSkipsAnchorTracking) {
  // With no regexes compiled in there are no anchor bits; the scan must not
  // pay for (or report) any anchor bookkeeping.
  auto engine = Engine::compile(two_middlebox_spec());
  const auto r = engine->scan_packet(10, view("CDBCABE"));
  EXPECT_TRUE(r.has_matches());
  EXPECT_EQ(r.anchor_hits_seen, 0u);
  EXPECT_EQ(r.regexes_evaluated, 0u);
  EXPECT_EQ(r.regex_matches, 0u);
  EXPECT_TRUE(r.cursor.anchor_hits.empty());
}

}  // namespace
}  // namespace dpisvc::dpi
