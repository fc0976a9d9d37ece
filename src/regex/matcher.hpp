// Pike-VM execution of compiled regex programs.
//
// The DPI engine only needs *existence* semantics ("does this expression
// occur anywhere in the payload?"), which is what the paper's post-anchor
// PCRE invocation decides, so the VM implements unanchored search with O(n*m)
// worst-case time and no backtracking blowup (m = program size). This is the
// property that makes the engine safe to expose as a shared service: the
// complexity attacks discussed in §4.3.1 target backtracking engines and
// full-table DFA caches, not a thread-list NFA simulation.
//
// Construction analyses the seed closure (the epsilon-closure of pc 0, where
// every unanchored thread starts). When every match begins with a literal
// prefix of at least one byte, a position where only the seed thread is
// alive is idle: the search jumps to the next occurrence of the prefix
// (memmem). Programs without such a prefix step every byte. Skipping only
// removes steps that could not change the result, so the worst case stays
// O(n*m). Stepping reuses thread-local scratch and does not allocate once
// the scratch has grown to the largest program seen.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "regex/program.hpp"

namespace dpisvc::regex {

class Matcher {
 public:
  explicit Matcher(Program program);

  /// True if the pattern matches anywhere in `input` (unanchored search;
  /// '^'/'$' in the pattern still pin to the payload boundaries).
  bool search(BytesView input) const;
  bool search(std::string_view input) const;

  /// Like search(), but returns the smallest end offset at which some match
  /// completes (the DPI engine reports this as the regex match position), or
  /// std::nullopt when there is no match.
  std::optional<std::size_t> search_end(BytesView input) const;

  /// Earliest match end strictly greater than `min_end`. The DPI engine's
  /// cross-packet evaluation scans a retained flow tail + the current packet
  /// and must ignore matches that complete inside the already-reported tail
  /// (a stale earliest match would otherwise shadow a fresh one); the VM
  /// keeps stepping past suppressed completions, so later matches are still
  /// found. search_end(input) == search_end(input, 0).
  std::optional<std::size_t> search_end(BytesView input,
                                        std::size_t min_end) const;

  const Program& program() const noexcept { return program_; }

 private:
  struct Scratch;

  /// Adds the closure of `pc` at input position `pos` to `list`, which keeps
  /// only kByte instructions. Returns true if a kMatch was reached.
  bool add_thread(Scratch& scratch, std::vector<std::uint32_t>& list,
                  std::uint32_t pc, std::size_t pos, std::size_t len) const;

  Program program_;
  /// Literal every match begins with. Non-empty only when the seed closure
  /// is a single one-byte instruction with no assertion or accept, so it is
  /// the same at every position and idle positions may be skipped.
  std::string prefix_;
};

/// One-shot convenience: compile and search.
bool regex_search(std::string_view pattern, std::string_view input,
                  const ParseOptions& options = {});

}  // namespace dpisvc::regex
