// The virtual DPI engine — the paper's core algorithm (§5).
//
// An Engine is an immutable compiled artifact built from the pattern sets of
// all registered middleboxes:
//
//  * one combined Aho-Corasick automaton over the union of all exact
//    patterns and all regex anchors, with accepting states renumbered to
//    {0..f-1} (§5.1);
//  * a direct-access match table: accepting state -> sorted list of
//    (middlebox id, local pattern id, pattern length) triples, with suffix
//    patterns propagated;
//  * a bitmap per accepting state of the middleboxes interested in it, so a
//    single AND against the packet's active-middlebox bitmap decides whether
//    the match table must be consulted at all (§5.1);
//  * per-middlebox regex programs plus the anchor -> regex mapping used for
//    pre-filtered evaluation, and the list of anchorless regexes that must
//    run unconditionally (§5.3);
//  * the policy-chain table: chain id -> active middlebox set (§5.2).
//
// scan_packet() implements §5.2 end to end: active-set resolution, stopping
// condition, stateful state restore via the caller-provided FlowCursor,
// match-list collection, post-scan filtering, and regex evaluation.
//
// Engines are immutable after compile; service instances share one via
// shared_ptr and swap atomically on pattern-set updates.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "ac/compressed_automaton.hpp"
#include "ac/full_automaton.hpp"
#include "ac/hot_kernel.hpp"
#include "common/bytes.hpp"
#include "dpi/types.hpp"
#include "net/result.hpp"
#include "regex/matcher.hpp"

namespace dpisvc::dpi {

/// One exact-match registration.
struct ExactPatternSpec {
  std::string bytes;  ///< raw pattern bytes
  MiddleboxId middlebox = 0;
  PatternId pattern_id = 0;
};

/// One regular-expression registration.
struct RegexPatternSpec {
  std::string expression;
  MiddleboxId middlebox = 0;
  PatternId pattern_id = 0;
  bool case_insensitive = false;
};

/// Everything needed to compile an engine. Produced by the controller's
/// PatternDb snapshot (service layer) or assembled directly in tests.
struct EngineSpec {
  std::vector<MiddleboxProfile> middleboxes;
  std::vector<ExactPatternSpec> exact_patterns;
  std::vector<RegexPatternSpec> regex_patterns;
  /// Policy chain -> middlebox ids on the chain that use the DPI service.
  std::map<ChainId, std::vector<MiddleboxId>> chains;
};

/// Scan-kernel dispatch choice, resolved once at compile() (the scan hot
/// path never re-checks the environment).
enum class ScanKernel : std::uint8_t {
  /// Batched kernel when the engine runs the full-table automaton, the hot
  /// layout built, and DPISVC_FORCE_SCALAR is not set (ac::kernel_policy()).
  kAuto = 0,
  /// Always the scalar per-byte loop (the pre-kernel behavior, and the
  /// oracle side of the kernel cross-check).
  kScalar = 1,
  /// Batched kernel even under DPISVC_FORCE_SCALAR (used by the verifier
  /// so the cross-check still drives both paths); silently scalar when the
  /// kernel cannot be built (compressed automaton).
  kBatched = 2,
};

struct EngineConfig {
  /// Use the failure-link automaton instead of the full table (the MCA²
  /// dedicated-instance configuration, §4.3.1).
  bool use_compressed_automaton = false;
  /// Scan-kernel dispatch (see ScanKernel). The batched kernel is proven
  /// byte-identical to the scalar loop by src/verify and dpisvc_check
  /// --kernel-xcheck.
  ScanKernel kernel = ScanKernel::kAuto;
  /// Anchors shorter than this are not extracted from regexes (§5.3).
  std::size_t anchor_min_length = 4;
  /// §5.1's accepting-state bitmap optimization: one AND against the active
  /// set decides whether the match table is consulted. Disable only for the
  /// ablation bench quantifying its value.
  bool use_accept_bitmaps = true;
  /// Upper bound on distinct regex anchors (= bits in the per-scan anchor
  /// hit set). Every scan allocates a hit set of this many entries at most,
  /// so the bound keeps the per-packet scratch cost predictable. compile()
  /// rejects a spec whose regexes contribute more distinct anchors with a
  /// diagnostic instead of growing the hit set without limit.
  std::uint32_t max_anchor_bits = 1u << 16;
  /// Payload tail (bytes) retained per stateful flow for cross-packet regex
  /// evaluation (§5.3 x §5.2). Anchors are mandatory substrings of every
  /// match a regex can produce, so when a regex's anchors land in different
  /// packets of one flow the match itself must also straddle the packet
  /// boundary — evaluating the regex against the current packet alone can
  /// never report it. Stateful-owned regexes therefore evaluate against the
  /// retained tail + current packet, and a match is reported iff it ends in
  /// the new bytes (ends inside the tail = was already reportable earlier).
  /// Bounds the per-flow memory cost; matches spanning more than this many
  /// bytes of history are missed (documented best-effort, like any bounded
  /// reassembly depth). 0 disables tail retention: anchor bits still
  /// persist per flow, but cross-packet regex matches are not found.
  std::uint32_t stateful_regex_window = 256;
};

/// Cross-packet scan state for one flow (§5.2): the DFA state where the
/// previous packet left off and the number of payload bytes already scanned.
/// For flows whose chain has a stateful middlebox owning regexes, the cursor
/// additionally carries the §5.3 pre-filter state: the anchor hit bits
/// accumulated over the flow's lifetime (so anchors split across packets
/// still arm the regex) and a bounded payload tail
/// (EngineConfig::stateful_regex_window) the regex evaluates over together
/// with the next packet. Both stay empty for stateless chains and for
/// engines without stateful-owned regexes, so the common case copies two
/// empty vectors. New fields are appended after `valid` so existing
/// three-field aggregate initializers keep their meaning.
struct FlowCursor {
  ac::StateIndex dfa_state = 0;
  std::uint64_t offset = 0;
  bool valid = false;  ///< false for the first packet of a flow
  /// Anchor hit bits (64 per word, indexed by MatchTarget::anchor_bit)
  /// accumulated across the flow's packets. Cleared on eviction/reset with
  /// the rest of the cursor.
  std::vector<std::uint64_t> anchor_hits;
  /// Last min(stateful_regex_window, bytes seen) scanned payload bytes.
  Bytes regex_window;
};

/// Per-middlebox match list for one packet.
struct MiddleboxMatches {
  MiddleboxId middlebox = 0;
  std::vector<net::MatchEntry> entries;
};

struct ScanResult {
  std::vector<MiddleboxMatches> matches;
  /// Updated cursor (valid only when some active middlebox is stateful).
  FlowCursor cursor;
  /// Bytes actually fed to the automaton (after the stop condition cut).
  std::uint64_t bytes_scanned = 0;
  /// Total accepting-state hits during the scan, before per-middlebox
  /// filtering; exported as a stress telemetry input (§4.3.1).
  std::uint64_t raw_hits = 0;
  /// Distinct anchor bits newly observed in this packet (§5.3 pre-filter
  /// progress); an observability input for anchor hit-rate telemetry.
  std::uint64_t anchor_hits_seen = 0;
  /// Regex programs actually run (passed the anchor pre-filter) and match
  /// entries they emitted — the §5.3 selectivity signal.
  std::uint64_t regexes_evaluated = 0;
  std::uint64_t regex_matches = 0;

  bool has_matches() const noexcept {
    for (const auto& m : matches) {
      if (!m.entries.empty()) return true;
    }
    return false;
  }
};

class Engine {
 public:
  /// One entry of the per-accepting-state match table (§5.1). Public so the
  /// static verifier (src/verify) can cross-check the table against the
  /// accepting-state bitmaps.
  struct MatchTarget {
    /// Bitmap of middleboxes interested in this target. For an exact pattern
    /// this is bitmap_of(middlebox); an anchor shared by regexes of several
    /// middleboxes carries their union.
    MiddleboxBitmap owners = 0;
    MiddleboxId middlebox = 0;
    PatternId pattern_id = 0;
    std::uint32_t pattern_length = 0;
    /// Anchor targets mark anchor hits instead of producing match entries.
    bool is_anchor = false;
    std::uint32_t anchor_bit = 0;  ///< index into the per-scan anchor hit set
  };

  /// Compiles a spec. Throws std::invalid_argument on inconsistent input
  /// (unknown middlebox referenced, ids out of range, empty patterns,
  /// malformed regexes).
  static std::shared_ptr<const Engine> compile(const EngineSpec& spec,
                                               const EngineConfig& config = {});

  /// Scans one packet payload (§5.2).
  ///
  /// `chain` selects the active middlebox set. `cursor` carries stateful
  /// flow state: pass the stored cursor for this flow (or a default-
  /// constructed one for a new flow); the updated cursor is returned in the
  /// result. Stateless-only chains ignore it. `mode` overrides the kernel
  /// dispatch resolved at compile(): the kernel cross-check (src/verify,
  /// dpisvc_check --kernel-xcheck) drives the scalar oracle and the batched
  /// kernel over one compiled engine with it; production callers keep kAuto.
  ScanResult scan_packet(ChainId chain, BytesView payload,
                         const FlowCursor& cursor = {},
                         ScanKernel mode = ScanKernel::kAuto) const;

  /// Batched ingest (§6 scaling): scans a vector of independent packets of
  /// one chain with a single chain resolution and automaton dispatch. When
  /// `cursors` is non-null it must have one entry per payload, each that
  /// packet's resume state; the updated cursors come back in the results.
  /// Packets of the same flow must not appear twice in one batch (each
  /// would resume from the same stored state) — the sharded instance path
  /// feeds per-flow sequential runs instead. With the kernel active, two or
  /// more packets walk flow-interleaved (kernel lanes advance in lockstep so
  /// their transition loads overlap); a batch of one takes scan_packet's
  /// single-lane walk. Results are byte-identical to scan_packet in order.
  std::vector<ScanResult> scan_batch(
      ChainId chain, const std::vector<BytesView>& payloads,
      const std::vector<FlowCursor>* cursors = nullptr,
      ScanKernel mode = ScanKernel::kAuto) const;

  /// Per-chain scan-depth bounds, split by statefulness because the two
  /// kinds consume depth differently (see MiddleboxProfile::stop_offset):
  /// stateless depths are packet-relative and renew every packet, stateful
  /// depths are flow-relative and shrink as the flow offset advances. The
  /// scan clamp must feed every byte either kind could still report.
  struct StopSpec {
    std::uint32_t stateless = 0;  ///< max stop over stateless members
    std::uint32_t stateful = 0;   ///< max stop over stateful members
  };

  /// One policy chain (§5.2), resolved at compile() so a scan or run looks
  /// its chain up once.
  struct ChainInfo {
    std::vector<MiddleboxId> members;
    MiddleboxBitmap active = 0;  ///< bitmap of `members`
    StopSpec stop;
    bool stateful = false;   ///< some member is stateful
    bool read_only = false;  ///< non-empty and every member read-only (§4.2)
  };

  // --- introspection -------------------------------------------------------

  const std::vector<MiddleboxProfile>& middleboxes() const noexcept {
    return profiles_;
  }
  const MiddleboxProfile* find_middlebox(MiddleboxId id) const noexcept;

  bool chain_known(ChainId chain) const noexcept {
    return chains_.count(chain) != 0;
  }
  /// The compiled chain record; throws std::invalid_argument when unknown.
  const ChainInfo& chain_info(ChainId id) const;
  MiddleboxBitmap chain_bitmap(ChainId id) const {
    return chain_info(id).active;
  }

  /// True if any middlebox on the chain registered as stateful (the scan
  /// must then carry flow state across packets).
  bool chain_stateful(ChainId id) const { return chain_info(id).stateful; }

  /// True if every middlebox on the chain is read-only (§4.2: the packet
  /// itself need not be routed; results alone suffice).
  bool chain_read_only(ChainId id) const { return chain_info(id).read_only; }

  /// True when scan_packet()/scan_batch() run the batched kernel (full-table
  /// automaton, hot layout built, dispatch resolved in its favor).
  bool kernel_active() const noexcept { return use_kernel_; }
  /// The compiled hot-core layout, or nullptr when none was built. The
  /// static verifier proves it transition-for-transition equal to the full
  /// table. NOT counted in memory_bytes() (which is the Table 2 "Space"
  /// column that src/analysis predicts exactly); see kernel_memory_bytes().
  const ac::HotKernel* hot_kernel() const noexcept {
    return kernel_.available() ? &kernel_ : nullptr;
  }
  std::size_t kernel_memory_bytes() const noexcept {
    return kernel_.memory_bytes();
  }

  std::size_t num_exact_patterns() const noexcept { return num_exact_; }
  std::size_t num_regex_patterns() const noexcept { return regexes_.size(); }
  std::size_t num_distinct_strings() const noexcept { return num_strings_; }
  std::uint32_t num_automaton_states() const noexcept;
  bool uses_compressed_automaton() const noexcept {
    return std::holds_alternative<ac::CompressedAutomaton>(automaton_);
  }

  /// Resident size of the compiled structures (Table 2 "Space" column).
  std::size_t memory_bytes() const noexcept;

  // --- verifier introspection (src/verify) ---------------------------------

  const std::variant<ac::FullAutomaton, ac::CompressedAutomaton>& automaton()
      const noexcept {
    return automaton_;
  }
  std::uint32_t num_accepting_states() const noexcept {
    return static_cast<std::uint32_t>(accept_targets_.size());
  }
  MiddleboxBitmap accept_bitmap(ac::StateIndex accept) const {
    return accept_bitmaps_[accept];
  }
  const std::vector<MatchTarget>& accept_targets(ac::StateIndex accept) const {
    return accept_targets_[accept];
  }
  const std::map<ChainId, ChainInfo>& chain_table() const noexcept {
    return chains_;
  }

  /// Raw automaton traversal with no match collection; the throughput
  /// baseline benches use this to isolate DFA speed. Returns the final
  /// automaton state (callers must consume it so the traversal is not
  /// optimized away).
  ac::StateIndex traverse_only(BytesView payload) const noexcept;

 private:
  Engine() = default;

  struct CompiledRegex {
    MiddleboxId middlebox = 0;
    PatternId pattern_id = 0;
    regex::Matcher matcher;
    /// Anchor-hit bits that must all be set before evaluation (§5.3);
    /// empty means anchorless: always evaluated.
    std::vector<std::uint32_t> anchor_bits;
  };

  /// The scanned slice and resume point of one packet, computed before the
  /// automaton walk (shared by the scalar, kernel, and interleaved paths).
  struct Prepared {
    BytesView scanned;
    std::uint64_t offset = 0;
    ac::StateIndex state = 0;
    bool resume = false;
  };
  Prepared prepare_scan(ac::StateIndex start_state, const ChainInfo& chain,
                        BytesView payload, const FlowCursor& cursor) const;

  template <typename Automaton>
  ScanResult scan_impl(const Automaton& automaton, bool use_kernel,
                       const ChainInfo& chain, BytesView payload,
                       const FlowCursor& cursor) const;

  /// Flow-interleaved batch walk over the full-table automaton: packets are
  /// grouped into kernel lanes (ac::kernel_policy().interleave wide) so
  /// their transition loads overlap, then finished per packet in submission
  /// order — results are byte-identical to the sequential path.
  void scan_batch_interleaved(const ac::FullAutomaton& automaton,
                              const ChainInfo& chain,
                              const std::vector<BytesView>& payloads,
                              const std::vector<FlowCursor>* cursors,
                              std::vector<ScanResult>& out) const;

  /// Per-scan middlebox -> result-section index: section lookups stay O(1)
  /// however many matches a packet reports (the linear section_for scan was
  /// quadratic on heavy-match packets).
  using SectionIndex = std::array<std::int16_t, kMaxMiddleboxes + 1>;

  /// Everything after the automaton walk: §5.1 match-event filtering
  /// against the active set, cursor/anchor-state update, §5.3 regex
  /// evaluation, and section emission. Pure function of the walk's match
  /// events and final state, so the scalar loop and the batched kernel
  /// share it verbatim — the cross-check only has to prove the walks equal.
  void finish_scan(const ChainInfo& chain, const Prepared& prep,
                   const FlowCursor& cursor, ac::StateIndex final_state,
                   const std::vector<ac::Match>& events,
                   ScanResult& result) const;

  /// §5.3 regex evaluation. `packet_hits` holds the anchor bits set by this
  /// packet's automaton pass (null when the engine has no anchor bits);
  /// stateless-owned regexes pre-filter on it and evaluate over `scanned`.
  /// When `carry` is true (stateful chain with stateful-owned regexes),
  /// stateful-owned regexes pre-filter on the merged per-flow bits in
  /// `result.cursor.anchor_hits` and evaluate over `window` + `scanned`,
  /// reporting only matches that end in the new bytes.
  void evaluate_regexes(MiddleboxBitmap active,
                        const std::vector<std::uint64_t>* packet_hits,
                        bool carry, BytesView window, BytesView scanned,
                        std::uint64_t base_offset, SectionIndex& sections,
                        ScanResult& result) const;

  static MiddleboxMatches& section_for(ScanResult& result,
                                       SectionIndex& sections, MiddleboxId id);

  /// Resolves an explicit dispatch override against what was compiled.
  bool resolve_kernel(ScanKernel mode) const noexcept {
    switch (mode) {
      case ScanKernel::kScalar:
        return false;
      case ScanKernel::kBatched:
        return kernel_.available();
      case ScanKernel::kAuto:
      default:
        return use_kernel_;
    }
  }

  std::vector<MiddleboxProfile> profiles_;
  /// Profile fields denormalized by middlebox id for the per-match hot path.
  std::array<bool, kMaxMiddleboxes + 1> mbox_stateful_{};
  std::array<std::uint32_t, kMaxMiddleboxes + 1> mbox_stop_{};
  std::map<ChainId, ChainInfo> chains_;

  std::variant<ac::FullAutomaton, ac::CompressedAutomaton> automaton_;
  /// Cache-conscious hot-core layout over the full-table automaton (empty
  /// when compressed, or when compile() resolved dispatch to scalar).
  ac::HotKernel kernel_;
  /// Compile-time-resolved dispatch: scan_packet()/scan_batch() use the
  /// kernel under kAuto. The scalar loop stays reachable via kScalar.
  bool use_kernel_ = false;
  /// Per accepting state: interested-middlebox bitmap (anchor targets
  /// contribute their owning middlebox too).
  std::vector<MiddleboxBitmap> accept_bitmaps_;
  /// Per accepting state: match targets sorted by middlebox id (§5.1).
  std::vector<std::vector<MatchTarget>> accept_targets_;

  std::vector<CompiledRegex> regexes_;
  std::uint32_t num_anchor_bits_ = 0;
  bool use_accept_bitmaps_ = true;
  /// Stateful middleboxes owning at least one regex: flows only carry
  /// anchor bits / a payload tail when the active set intersects this, so
  /// regex-free stateful chains pay nothing for the §5.3 flow state.
  MiddleboxBitmap stateful_regex_owners_ = 0;
  std::uint32_t stateful_regex_window_ = 0;

  std::size_t num_exact_ = 0;
  std::size_t num_strings_ = 0;
};

}  // namespace dpisvc::dpi
