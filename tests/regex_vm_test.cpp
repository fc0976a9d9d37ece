// Differential tests of the prefix-skipping Pike VM against the reference VM
// (tests/reference_regex.*), plus its thread-local scratch reuse.
//
// regex::Matcher skips idle input positions to the next occurrence of a
// program's literal prefix and reuses per-thread thread lists; the reference
// steps every byte with fresh lists. search_end must return the same answer
// for every program, input and min_end.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "reference_regex.hpp"
#include "regex/matcher.hpp"

namespace dpisvc::regex {
namespace {

BytesView bv(const std::string& s) {
  return BytesView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

/// A production matcher and the reference over one compiled program.
struct Pair {
  Matcher fast;
  reference::Matcher ref;

  explicit Pair(const Program& program) : fast(program), ref(program) {}
};

// --- random generator ----------------------------------------------------------

/// Random regex over a small alphabet using every construct the parser
/// supports: literals, classes, \s \d \w, '.', '^', '$', alternation,
/// capturing and non-capturing groups, * + ? {m} {m,} {m,n}.
class RegexGen {
 public:
  explicit RegexGen(Rng& rng) : rng_(rng) {}

  std::string regex() {
    std::string out;
    // A literal head gives the program a 1-, 2- or 3-byte required prefix.
    if (rng_.bernoulli(0.4)) {
      const std::size_t n = 1 + rng_.index(3);
      for (std::size_t i = 0; i < n; ++i) out += literal();
    }
    return out + alternation(0);
  }

 private:
  std::string literal() { return std::string(1, "abcA"[rng_.index(4)]); }

  std::string alternation(int depth) {
    std::string out = concat(depth);
    while (rng_.bernoulli(0.2)) {
      out += '|';
      out += concat(depth);
    }
    return out;
  }

  std::string concat(int depth) {
    std::string out;
    const std::size_t n = 1 + rng_.index(4);
    for (std::size_t i = 0; i < n; ++i) out += piece(depth);
    return out;
  }

  std::string piece(int depth) {
    static const char* const kClasses[] = {"[ab]", "[^a]", "[a-c]", "[bc]",
                                           "\\s",  "\\d",  "\\w",   "\\S",
                                           "."};
    static const char* const kRepeats[] = {"*",     "+",   "?",    "{2}",
                                           "{0,2}", "{1,3}", "{2,}", "*?"};
    const std::size_t roll = rng_.index(20);
    std::string atom;
    bool repeatable = true;
    if (roll < 9) {
      atom = literal();
    } else if (roll < 14) {
      atom = kClasses[rng_.index(std::size(kClasses))];
    } else if (roll < 15) {
      atom = "^";
      repeatable = false;
    } else if (roll < 16) {
      atom = "$";
      repeatable = false;
    } else if (depth < 3) {
      atom = rng_.bernoulli(0.5) ? "(" : "(?:";
      atom += alternation(depth + 1);
      atom += ')';
    } else {
      atom = literal();
    }
    if (repeatable && rng_.bernoulli(0.35)) {
      atom += kRepeats[rng_.index(std::size(kRepeats))];
    }
    return atom;
  }

  Rng& rng_;
};

std::string random_input(Rng& rng) {
  static const char kAlphabet[] = "aaabbbcccAB 1\n";
  std::string out;
  const std::size_t len = rng.index(40);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(kAlphabet[rng.index(sizeof(kAlphabet) - 1)]);
  }
  return out;
}

// --- differential ----------------------------------------------------------------

TEST(RegexVm, RandomDifferentialAgainstReference) {
  Rng rng(0x9e3779b97f4a7c15ULL);
  std::size_t cases = 0;
  std::size_t matched = 0;
  std::size_t programs = 0;
  while (cases < 120000) {
    RegexGen gen(rng);
    const std::string pattern = gen.regex();
    ParseOptions options;
    options.case_insensitive = rng.bernoulli(0.25);
    Program program;
    try {
      program = Program::compile(pattern, options);
    } catch (const SyntaxError&) {
      continue;
    }
    ++programs;
    const Pair pair(program);
    for (int k = 0; k < 8; ++k) {
      const std::string input = random_input(rng);
      // min_end anywhere in [0, len + 1], with len itself drawn often.
      const std::size_t min_end =
          rng.bernoulli(0.2) ? input.size() : rng.index(input.size() + 2);
      const std::string diff =
          reference::compare(pair.fast, pair.ref, bv(input), min_end);
      ASSERT_EQ(diff, "") << "pattern /" << pattern << "/ ci "
                          << options.case_insensitive << " input \"" << input
                          << "\"";
      if (pair.ref.search_end(bv(input), min_end)) ++matched;
      ++cases;
    }
  }
  // Both outcomes are well represented, so agreement is not vacuous.
  EXPECT_GT(matched, cases / 10);
  EXPECT_LT(matched, cases - cases / 10);
  EXPECT_GT(programs, 10000u);
}

/// Every input over {a, b, c} up to length 6 and every min_end in
/// [0, len + 1], for programs chosen to hit each analysis outcome.
TEST(RegexVm, ExhaustiveSmallInputsForEachProgramShape) {
  const char* const kPatterns[] = {
      // Empty-matching programs (seed closure accepts: never skipped).
      "a*", "(?:ab)*", "x?", "", "()", "(a|)", "[bc]{0,2}",
      // Assertions in the seed closure (never skipped).
      "^", "$", "^$", "^ab", "a$|b", "(?:^a|b)c", "b*$",
      // No prefix (never skipped).
      "[ab]c", "a|b", "(?:a|bc)a", ".b", "\\w+c", "[^a]b*a",
      // One-byte prefix.
      "a[bc]", "a", "ab?c", "a(?:b|c)+",
      // Prefixes of two bytes or more.
      "ab", "abc", "aba", "aab", "abc$", "ab(?:c|a)*b", "ab{2}c", "ca{1,2}",
      "aa+", "ab^",
  };
  std::vector<std::string> inputs{""};
  for (std::size_t begin = 0; inputs.back().size() < 6;) {
    const std::size_t end = inputs.size();
    for (std::size_t i = begin; i < end; ++i) {
      for (char c : {'a', 'b', 'c'}) inputs.push_back(inputs[i] + c);
    }
    begin = end;
  }
  for (const char* pattern : kPatterns) {
    const Pair pair(Program::compile(pattern));
    for (const std::string& input : inputs) {
      for (std::size_t min_end = 0; min_end <= input.size() + 1; ++min_end) {
        ASSERT_EQ(reference::compare(pair.fast, pair.ref, bv(input), min_end),
                  "")
            << "pattern /" << pattern << "/ input \"" << input << "\"";
      }
    }
  }
}

TEST(RegexVm, PrefixAtTheVeryEndOfTheInput) {
  const Pair pair(Program::compile("xyz"));
  const std::string input = std::string(500, 'q') + "xy" + "xyz";
  EXPECT_EQ(pair.fast.search_end(bv(input)), input.size());
  EXPECT_EQ(pair.fast.search_end(bv(input), input.size() - 1), input.size());
  EXPECT_FALSE(pair.fast.search_end(bv(input), input.size()).has_value());
  const std::string cut = input.substr(0, input.size() - 1);
  EXPECT_FALSE(pair.fast.search_end(bv(cut)).has_value());
  EXPECT_EQ(reference::compare(pair.fast, pair.ref, bv(cut), 0), "");
}

TEST(RegexVm, CaseInsensitiveLeadingClassAgreesWithTheReference) {
  ParseOptions ci;
  ci.case_insensitive = true;
  const Pair pair(Program::compile(R"(\s*k3f9[a-z]+)", ci));
  const std::string input =
      "GET /index.html HTTP/1.1\r\nHost: example\r\nX-Key: K3F9zz\r\n";
  EXPECT_EQ(reference::compare(pair.fast, pair.ref, bv(input), 0), "");
  EXPECT_TRUE(pair.fast.search_end(bv(input)).has_value());
  for (std::size_t min_end = 0; min_end <= input.size(); ++min_end) {
    EXPECT_EQ(reference::compare(pair.fast, pair.ref, bv(input), min_end), "");
  }
}

// --- scratch reuse --------------------------------------------------------------

/// Answers for every (input, min_end) pair, computed by `matcher`.
std::vector<std::optional<std::size_t>> answers(
    const Matcher& matcher, const std::vector<std::string>& inputs) {
  std::vector<std::optional<std::size_t>> out;
  for (const std::string& input : inputs) {
    for (std::size_t min_end = 0; min_end <= input.size(); min_end += 7) {
      out.push_back(matcher.search_end(bv(input), min_end));
    }
  }
  return out;
}

TEST(RegexVm, MatchersOfVeryDifferentSizesShareOneThreadsScratch) {
  // ~5 instructions vs. several thousand: the scratch grows for the large
  // program and the small one then runs over marks the large one left.
  const Matcher small(Program::compile("ab"));
  const Matcher large(Program::compile(
      R"((?:a[bc]{2,40}\d|b\s*[a-c]{1,30}a|c(?:ab|ba){1,20}c){2,8}b)"));
  ASSERT_LT(small.program().size(), 10u);
  ASSERT_GT(large.program().size(), 2000u);

  Rng rng(404);
  std::vector<std::string> inputs;
  for (int i = 0; i < 40; ++i) inputs.push_back(random_input(rng));
  inputs.push_back("xxab");
  inputs.push_back("ab" + std::string(60, 'c') + "a1" + "ab" + "c" +
                   std::string(20, 'a') + "cb");

  // Expected answers from matchers constructed and run on a thread of their
  // own, so from scratch that no other program touched.
  std::vector<std::optional<std::size_t>> want_small;
  std::vector<std::optional<std::size_t>> want_large;
  std::thread([&] {
    want_small = answers(Matcher(Program::compile("ab")), inputs);
  }).join();
  std::thread([&] {
    want_large = answers(Matcher(large.program()), inputs);
  }).join();

  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(answers(small, inputs), want_small) << "round " << round;
    EXPECT_EQ(answers(large, inputs), want_large) << "round " << round;
  }
  EXPECT_EQ(answers(small, inputs), want_small);
  // The reference agrees with both, too.
  const reference::Matcher ref_small(small.program());
  const reference::Matcher ref_large(large.program());
  for (const std::string& input : inputs) {
    EXPECT_EQ(reference::compare(small, ref_small, bv(input), 0), "");
    EXPECT_EQ(reference::compare(large, ref_large, bv(input), 0), "");
  }
}

}  // namespace
}  // namespace dpisvc::regex
