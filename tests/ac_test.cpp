// Tests for the Aho-Corasick module: trie construction, full-table and
// compressed automata, dense accepting-state renumbering, suffix
// propagation, serialization — with property tests against naive matching.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "ac/compressed_automaton.hpp"
#include "ac/full_automaton.hpp"
#include "ac/trie.hpp"
#include "common/rng.hpp"

namespace dpisvc::ac {
namespace {

Bytes bytes_of(std::string_view s) { return to_bytes(s); }

/// Collects (end_offset, pattern_index) matches from an automaton scan.
template <typename Automaton>
std::set<std::pair<std::uint64_t, PatternIndex>> scan_all(
    const Automaton& automaton, std::string_view text) {
  std::set<std::pair<std::uint64_t, PatternIndex>> out;
  const Bytes data = bytes_of(text);
  automaton.scan(data, [&](Match m) {
    for (PatternIndex p : automaton.matches_at(m.accept_state)) {
      out.emplace(m.end_offset, p);
    }
  });
  return out;
}

/// Naive reference: all (end_offset, pattern_index) occurrences.
std::set<std::pair<std::uint64_t, PatternIndex>> naive_matches(
    const std::vector<std::string>& patterns, std::string_view text) {
  std::set<std::pair<std::uint64_t, PatternIndex>> out;
  for (PatternIndex i = 0; i < patterns.size(); ++i) {
    const std::string& p = patterns[i];
    if (p.empty() || p.size() > text.size()) continue;
    for (std::size_t at = 0; at + p.size() <= text.size(); ++at) {
      if (text.substr(at, p.size()) == p) {
        out.emplace(at + p.size(), i);
      }
    }
  }
  return out;
}

template <typename Automaton>
Automaton build_from(const std::vector<std::string>& patterns) {
  Trie trie;
  for (PatternIndex i = 0; i < patterns.size(); ++i) {
    trie.insert(patterns[i], i);
  }
  return Automaton::build(trie);
}

// --- trie ----------------------------------------------------------------------

TEST(Trie, SharedPrefixesShareStates) {
  Trie trie;
  trie.insert(std::string_view("abcd"), 0);
  trie.insert(std::string_view("abef"), 1);
  // root + ab (2) + cd (2) + ef (2) = 7
  EXPECT_EQ(trie.num_states(), 7u);
}

TEST(Trie, RejectsEmptyPattern) {
  Trie trie;
  EXPECT_THROW(trie.insert(std::string_view(""), 0), std::invalid_argument);
}

TEST(Trie, RejectsInsertAfterFinalize) {
  Trie trie;
  trie.insert(std::string_view("x"), 0);
  trie.finalize();
  EXPECT_THROW(trie.insert(std::string_view("y"), 1), std::logic_error);
}

TEST(Trie, FailureLinksPointToLongestSuffix) {
  // Patterns: {ab, bc}. State for "ab" must fail to state "b" (prefix of bc).
  Trie trie;
  trie.insert(std::string_view("ab"), 0);
  trie.insert(std::string_view("bc"), 1);
  trie.finalize();
  const StateIndex a = trie.forward(Trie::root(), 'a');
  const StateIndex ab = trie.forward(a, 'b');
  const StateIndex b = trie.forward(Trie::root(), 'b');
  EXPECT_EQ(trie.fail(ab), b);
  EXPECT_EQ(trie.fail(a), Trie::root());
  EXPECT_EQ(trie.fail(b), Trie::root());
}

TEST(Trie, OutputPropagationForSuffixPatterns) {
  // "DEF" is a suffix of "ABCDEF": the ABCDEF terminal state must report
  // both patterns (§5.1).
  Trie trie;
  trie.insert(std::string_view("ABCDEF"), 0);
  trie.insert(std::string_view("DEF"), 1);
  trie.finalize();
  StateIndex s = Trie::root();
  for (char c : std::string("ABCDEF")) {
    s = trie.forward(s, static_cast<std::uint8_t>(c));
  }
  EXPECT_EQ(trie.output(s), (std::vector<PatternIndex>{0, 1}));
}

TEST(Trie, DepthTracksLabelLength) {
  Trie trie;
  trie.insert(std::string_view("xyz"), 0);
  trie.finalize();
  StateIndex s = Trie::root();
  EXPECT_EQ(trie.depth(s), 0u);
  s = trie.forward(s, 'x');
  EXPECT_EQ(trie.depth(s), 1u);
  s = trie.forward(s, 'y');
  s = trie.forward(s, 'z');
  EXPECT_EQ(trie.depth(s), 3u);
}

// --- paper worked example ---------------------------------------------------------

// Figure 4/7 pattern sets.
const std::vector<std::string> kPaperSet = {
    "E", "BE", "BD", "BCD", "BCAA", "CDBCAB",  // P0
    "EDAE", "BE", "CDBA", "CBD",               // P1 (BE repeats in both sets)
};

TEST(FullAutomaton, PaperExampleMatches) {
  const auto automaton = build_from<FullAutomaton>(kPaperSet);
  const auto found = scan_all(automaton, "CDBCABE");
  // Expected: CDBCAB at 6; BE at 7; E at 7 (end offsets are 1-based counts).
  EXPECT_TRUE(found.count({6, 5}));  // CDBCAB
  EXPECT_TRUE(found.count({7, 1}));  // BE (P0 id 1)
  EXPECT_TRUE(found.count({7, 7}));  // BE (P1 id 7)
  EXPECT_TRUE(found.count({7, 0}));  // E
  EXPECT_EQ(found, naive_matches(kPaperSet, "CDBCABE"));
}

// --- dense renumbering invariants (§5.1) -------------------------------------------

TEST(FullAutomaton, AcceptingStatesAreDenselyRenumbered) {
  const auto automaton = build_from<FullAutomaton>(kPaperSet);
  // 9 distinct strings (BE registered twice but one accepting state… the
  // trie holds 10 insertions, 9 distinct terminals) plus CDBCAB containing
  // suffix hits: accepting state count = number of states with non-empty
  // output, which includes states accepting via suffix propagation.
  const std::uint32_t f = automaton.num_accepting();
  EXPECT_GT(f, 0u);
  // Every state id below f accepts; every id at or above f does not.
  for (StateIndex s = 0; s < automaton.num_states(); ++s) {
    if (s < f) {
      EXPECT_FALSE(automaton.matches_at(s).empty());
    }
    EXPECT_EQ(automaton.is_accepting(s), s < f);
  }
  EXPECT_FALSE(automaton.is_accepting(automaton.start_state()));
}

TEST(FullAutomaton, TransitionsAreTotal) {
  const auto automaton = build_from<FullAutomaton>(kPaperSet);
  for (StateIndex s = 0; s < automaton.num_states(); ++s) {
    for (unsigned b = 0; b < 256; ++b) {
      EXPECT_LT(automaton.step(s, static_cast<std::uint8_t>(b)),
                automaton.num_states());
    }
  }
}

TEST(FullAutomaton, SuffixPropagationInMatchTable) {
  const auto automaton =
      build_from<FullAutomaton>({"ABCDEF", "DEF", "EF"});
  const auto found = scan_all(automaton, "xxABCDEFyy");
  EXPECT_TRUE(found.count({8, 0}));
  EXPECT_TRUE(found.count({8, 1}));
  EXPECT_TRUE(found.count({8, 2}));
}

TEST(FullAutomaton, StatefulResumeEqualsOneShot) {
  const auto automaton = build_from<FullAutomaton>({"needle", "haystack"});
  const std::string part1 = "xxxnee";
  const std::string part2 = "dlexhaystackx";
  std::set<std::pair<std::uint64_t, PatternIndex>> resumed;
  StateIndex state = automaton.start_state();
  state = automaton.scan(bytes_of(part1), state, [&](Match m) {
    for (PatternIndex p : automaton.matches_at(m.accept_state)) {
      resumed.emplace(m.end_offset, p);
    }
  });
  const std::uint64_t offset = part1.size();
  automaton.scan(bytes_of(part2), state, [&](Match m) {
    for (PatternIndex p : automaton.matches_at(m.accept_state)) {
      resumed.emplace(offset + m.end_offset, p);
    }
  });
  EXPECT_EQ(resumed, naive_matches({"needle", "haystack"}, part1 + part2));
}

TEST(FullAutomaton, DepthOfAcceptingStateEqualsPatternLength) {
  const std::vector<std::string> patterns{"ab", "abcd", "xyz"};
  const auto automaton = build_from<FullAutomaton>(patterns);
  const Bytes data = bytes_of("abcd xyz");
  automaton.scan(data, [&](Match m) {
    // depth == label length; the primary (longest) pattern at this state.
    std::size_t max_len = 0;
    for (PatternIndex p : automaton.matches_at(m.accept_state)) {
      max_len = std::max(max_len, patterns[p].size());
    }
    EXPECT_EQ(automaton.depth(m.accept_state), max_len);
  });
}

// --- compressed automaton ----------------------------------------------------------

TEST(CompressedAutomaton, AgreesWithFullOnPaperExample) {
  const auto full = build_from<FullAutomaton>(kPaperSet);
  const auto compressed = build_from<CompressedAutomaton>(kPaperSet);
  const char* inputs[] = {"CDBCABE", "BCAA", "EDAE", "CBD",
                          "zzzz",    "BEBEBE", "DBCDBABCDE"};
  for (const char* input : inputs) {
    EXPECT_EQ(scan_all(full, input), scan_all(compressed, input)) << input;
  }
}

TEST(CompressedAutomaton, SameAcceptingNumbering) {
  const auto full = build_from<FullAutomaton>(kPaperSet);
  const auto compressed = build_from<CompressedAutomaton>(kPaperSet);
  ASSERT_EQ(full.num_accepting(), compressed.num_accepting());
  for (StateIndex s = 0; s < full.num_accepting(); ++s) {
    EXPECT_EQ(full.matches_at(s), compressed.matches_at(s));
  }
}

TEST(CompressedAutomaton, UsesLessMemoryThanFullTable) {
  const auto full = build_from<FullAutomaton>(kPaperSet);
  const auto compressed = build_from<CompressedAutomaton>(kPaperSet);
  EXPECT_LT(compressed.memory_bytes(), full.memory_bytes() / 10);
}

// --- randomized differential property tests -----------------------------------------

struct RandomCase {
  std::vector<std::string> patterns;
  std::string text;
};

RandomCase make_random_case(Rng& rng, int alphabet_size) {
  RandomCase c;
  const std::size_t num_patterns = 1 + rng.index(8);
  for (std::size_t i = 0; i < num_patterns; ++i) {
    std::string p;
    const std::size_t len = 1 + rng.index(6);
    for (std::size_t j = 0; j < len; ++j) {
      p.push_back(static_cast<char>('a' + rng.index(alphabet_size)));
    }
    c.patterns.push_back(std::move(p));
  }
  const std::size_t text_len = rng.index(64);
  for (std::size_t j = 0; j < text_len; ++j) {
    c.text.push_back(static_cast<char>('a' + rng.index(alphabet_size)));
  }
  return c;
}

class AcDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(AcDifferentialTest, FullMatchesNaive) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  for (int iter = 0; iter < 50; ++iter) {
    const RandomCase c = make_random_case(rng, /*alphabet_size=*/3);
    const auto automaton = build_from<FullAutomaton>(c.patterns);
    EXPECT_EQ(scan_all(automaton, c.text), naive_matches(c.patterns, c.text))
        << "text=" << c.text;
  }
}

TEST_P(AcDifferentialTest, CompressedMatchesNaive) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 2);
  for (int iter = 0; iter < 50; ++iter) {
    const RandomCase c = make_random_case(rng, /*alphabet_size=*/2);
    const auto automaton = build_from<CompressedAutomaton>(c.patterns);
    EXPECT_EQ(scan_all(automaton, c.text), naive_matches(c.patterns, c.text))
        << "text=" << c.text;
  }
}

TEST_P(AcDifferentialTest, SplitScanEqualsWholeScan) {
  // Property: scanning a text in two parts with carried state reports the
  // same matches as scanning it at once (the stateful-flow invariant).
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 3);
  for (int iter = 0; iter < 30; ++iter) {
    const RandomCase c = make_random_case(rng, /*alphabet_size=*/2);
    const auto automaton = build_from<FullAutomaton>(c.patterns);
    const std::size_t cut = c.text.empty() ? 0 : rng.index(c.text.size() + 1);
    std::set<std::pair<std::uint64_t, PatternIndex>> split;
    StateIndex state = automaton.start_state();
    const Bytes first = bytes_of(std::string_view(c.text).substr(0, cut));
    const Bytes second = bytes_of(std::string_view(c.text).substr(cut));
    state = automaton.scan(first, state, [&](Match m) {
      for (PatternIndex p : automaton.matches_at(m.accept_state)) {
        split.emplace(m.end_offset, p);
      }
    });
    automaton.scan(second, state, [&](Match m) {
      for (PatternIndex p : automaton.matches_at(m.accept_state)) {
        split.emplace(cut + m.end_offset, p);
      }
    });
    EXPECT_EQ(split, scan_all(automaton, c.text));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AcDifferentialTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace dpisvc::ac
