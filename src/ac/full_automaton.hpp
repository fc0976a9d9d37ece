// Full-table Aho-Corasick DFA with dense accepting-state renumbering (§5.1).
//
// Every (state, byte) transition is precomputed into one flat table, so the
// scan loop is a single indexed load per input byte. State identifiers are
// renumbered so the accepting states occupy exactly {0..f-1}: acceptance is
// then the comparison `state < f` the paper calls out ("it is also possible
// to check whether the state ID is less than a predefined constant"), and
// the per-accepting-state match table is a direct-access array.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "ac/trie.hpp"
#include "common/bytes.hpp"

namespace dpisvc::ac {

/// One reported match during a scan.
struct Match {
  /// Byte offset one past the last byte of the matched pattern (i.e. the
  /// number of bytes scanned when the match fired — the paper's `cnt`).
  std::uint64_t end_offset = 0;
  /// The accepting state that fired; key into matches_at() / user tables.
  StateIndex accept_state = 0;
};

class FullAutomaton {
 public:
  FullAutomaton() = default;

  /// Builds from a finalized trie (finalizes it if needed).
  static FullAutomaton build(Trie& trie);

  std::uint32_t num_states() const noexcept { return num_states_; }
  std::uint32_t num_accepting() const noexcept { return num_accepting_; }
  StateIndex start_state() const noexcept { return start_; }

  bool is_accepting(StateIndex state) const noexcept {
    return state < num_accepting_;
  }

  StateIndex step(StateIndex state, std::uint8_t byte) const noexcept {
    return table_[static_cast<std::size_t>(state) * 256u + byte];
  }

  /// Sorted pattern indices reported at an accepting state (with suffix
  /// propagation already applied).
  const std::vector<PatternIndex>& matches_at(StateIndex accept) const {
    return match_table_[accept];
  }

  /// Label length of the state (pattern length for an accepting state's
  /// primary pattern).
  std::uint32_t depth(StateIndex state) const { return depth_[state]; }

  /// Scans `data` starting from `state`, invoking `on_match(Match)` for each
  /// accepting state reached. Returns the final DFA state (to be carried
  /// across packet boundaries for stateful flows, §5.2).
  template <typename OnMatch>
  StateIndex scan(BytesView data, StateIndex state, OnMatch&& on_match) const {
    const StateIndex* table = table_.data();
    const StateIndex accepting = num_accepting_;
    std::uint64_t cnt = 0;
    for (std::uint8_t byte : data) {
      state = table[static_cast<std::size_t>(state) * 256u + byte];
      ++cnt;
      if (state < accepting) {
        on_match(Match{cnt, state});
      }
    }
    return state;
  }

  /// Convenience scan from the start state.
  template <typename OnMatch>
  StateIndex scan(BytesView data, OnMatch&& on_match) const {
    return scan(data, start_, std::forward<OnMatch>(on_match));
  }

  /// Scan that only advances the state machine; used by throughput benches
  /// to measure the raw DFA traversal rate.
  StateIndex traverse(BytesView data, StateIndex state) const noexcept {
    const StateIndex* table = table_.data();
    for (std::uint8_t byte : data) {
      state = table[static_cast<std::size_t>(state) * 256u + byte];
    }
    return state;
  }

  /// Approximate resident size of the runtime structures, in bytes. This is
  /// the "Space" column of Table 2.
  std::size_t memory_bytes() const noexcept;

 private:
  std::uint32_t num_states_ = 0;
  std::uint32_t num_accepting_ = 0;
  StateIndex start_ = 0;
  std::vector<StateIndex> table_;                     // num_states * 256
  std::vector<std::vector<PatternIndex>> match_table_;  // size num_accepting
  std::vector<std::uint32_t> depth_;                  // size num_states
};

}  // namespace dpisvc::ac
