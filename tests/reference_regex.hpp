// Test-only reference Pike VM (see reference_regex.cpp): the oracle the
// prefix-skipping matcher in src/regex is differentially tested against.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "regex/matcher.hpp"
#include "regex/program.hpp"

namespace dpisvc::regex::reference {

class Matcher {
 public:
  explicit Matcher(Program program);

  /// Earliest match end strictly greater than `min_end` (0 also accepts an
  /// empty match at offset 0), or std::nullopt; the contract of
  /// regex::Matcher::search_end.
  std::optional<std::size_t> search_end(BytesView input,
                                        std::size_t min_end = 0) const;

  const Program& program() const noexcept { return program_; }

 private:
  struct ThreadList {
    std::vector<std::uint32_t> pcs;
    std::vector<std::uint32_t> mark;  ///< generation tag per instruction
    std::uint32_t generation = 0;

    void begin_step() noexcept {
      pcs.clear();
      ++generation;
    }
    bool add(std::uint32_t pc) {
      if (mark[pc] == generation) return false;
      mark[pc] = generation;
      pcs.push_back(pc);
      return true;
    }
  };

  /// Adds pc and transitively follows non-consuming instructions.
  /// Returns true if a kMatch instruction was reached.
  bool add_thread(ThreadList& list, std::uint32_t pc, std::size_t pos,
                  std::size_t len) const;

  Program program_;
};

// --- differential check -----------------------------------------------------------

/// Empty when `fast.search_end(input, min_end)` equals the reference's
/// answer; otherwise what differs.
std::string compare(const regex::Matcher& fast, const Matcher& ref,
                    BytesView input, std::size_t min_end);

}  // namespace dpisvc::regex::reference
