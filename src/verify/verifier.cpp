#include "verify/verifier.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "regex/anchors.hpp"
#include "regex/parser.hpp"

namespace dpisvc::verify {

namespace {

/// Collects diagnostics with a per-call cap so a single systemic corruption
/// (e.g. every transition shifted by one) cannot produce megabytes of output.
class Reporter {
 public:
  explicit Reporter(std::vector<Diagnostic>& out, std::size_t cap = 32)
      : out_(out), cap_(cap) {}

  template <typename... Args>
  void report(const char* code, const Args&... args) {
    ++total_;
    if (out_.size() >= cap_) return;
    std::ostringstream os;
    (os << ... << args);
    out_.push_back(Diagnostic{code, os.str()});
  }

  ~Reporter() {
    if (total_ > cap_) {
      out_.push_back(Diagnostic{
          "diagnostics-truncated",
          "suppressed " + std::to_string(total_ - cap_) + " further findings"});
    }
  }

 private:
  std::vector<Diagnostic>& out_;
  std::size_t cap_;
  std::size_t total_ = 0;
};

/// Heterogeneous (string_view) hashing so the per-transition oracle lookups
/// allocate nothing.
struct SvHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};
struct SvEq {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const noexcept {
    return a == b;
  }
};

/// The definition-based oracle: everything below is derived from the pattern
/// set alone, sharing no construction code with src/ac.
struct Oracle {
  /// Every prefix of every pattern (including ""), i.e. the expected state
  /// labels of the automaton.
  std::unordered_set<std::string, SvHash, SvEq> prefixes;
  /// Pattern bytes -> indices registered for those bytes.
  std::unordered_map<std::string, std::vector<ac::PatternIndex>, SvHash, SvEq>
      by_bytes;
  /// Distinct pattern lengths, ascending.
  std::vector<std::size_t> lengths;

  explicit Oracle(const Patterns& patterns) {
    prefixes.insert(std::string());
    std::set<std::size_t> length_set;
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      const std::string& p = patterns[i];
      by_bytes[p].push_back(static_cast<ac::PatternIndex>(i));
      length_set.insert(p.size());
      for (std::size_t len = 1; len <= p.size(); ++len) {
        prefixes.insert(p.substr(0, len));
      }
    }
    lengths.assign(length_set.begin(), length_set.end());
  }

  bool is_prefix(std::string_view label) const {
    return prefixes.find(label) != prefixes.end();
  }

  /// Sorted indices of all patterns that are suffixes of `label` — the
  /// suffix-closure rule of §5.1 by definition.
  std::vector<ac::PatternIndex> expected_matches(std::string_view label) const {
    std::vector<ac::PatternIndex> out;
    for (std::size_t len : lengths) {
      if (len > label.size()) break;
      auto it = by_bytes.find(label.substr(label.size() - len));
      if (it != by_bytes.end()) {
        out.insert(out.end(), it->second.begin(), it->second.end());
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Label of delta(label, byte) for `extended` = label + byte: the longest
  /// suffix of it that is a prefix of some pattern (the textbook AC
  /// transition rule). Returns a view into `extended`.
  std::string_view longest_prefix_suffix(std::string_view extended) const {
    for (std::size_t keep = extended.size();; --keep) {
      const std::string_view suffix = extended.substr(extended.size() - keep);
      if (prefixes.find(suffix) != prefixes.end()) return suffix;
      if (keep == 0) return {};
    }
  }
};

/// Reconstructs each state's label by BFS over tree edges (transitions that
/// deepen by exactly one). Returns per-state labels; `labeled[s]` false for
/// unreachable states.
void reconstruct_labels(const DfaSnapshot& snap, std::vector<std::string>& labels,
                        std::vector<bool>& labeled) {
  labels.assign(snap.num_states, {});
  labeled.assign(snap.num_states, false);
  if (snap.start >= snap.num_states) return;
  labeled[snap.start] = true;
  std::deque<ac::StateIndex> queue{snap.start};
  while (!queue.empty()) {
    const ac::StateIndex s = queue.front();
    queue.pop_front();
    for (unsigned b = 0; b < 256; ++b) {
      const ac::StateIndex t = snap.step(s, static_cast<std::uint8_t>(b));
      if (t >= snap.num_states || labeled[t]) continue;
      if (snap.depth[t] != snap.depth[s] + 1) continue;  // not a tree edge
      labels[t] = labels[s] + static_cast<char>(b);
      labeled[t] = true;
      queue.push_back(t);
    }
  }
}

std::string printable(const std::string& bytes) {
  std::string out;
  for (char c : bytes) {
    if (c >= 0x20 && c < 0x7f) {
      out.push_back(c);
    } else {
      char buf[5];
      std::snprintf(buf, sizeof buf, "\\x%02x", static_cast<unsigned char>(c));
      out.append(buf);
    }
  }
  return out;
}

}  // namespace

std::vector<Diagnostic> check_structure(const DfaSnapshot& snap) {
  std::vector<Diagnostic> out;
  Reporter r(out);
  if (snap.num_accepting > snap.num_states) {
    r.report("accepting-count", "num_accepting ", snap.num_accepting,
             " exceeds num_states ", snap.num_states);
  }
  if (snap.start >= snap.num_states) {
    r.report("start-out-of-range", "start state ", snap.start, " >= ",
             snap.num_states);
  }
  if (snap.transitions.size() !=
          static_cast<std::size_t>(snap.num_states) * 256u ||
      snap.depth.size() != snap.num_states ||
      (!snap.fail.empty() && snap.fail.size() != snap.num_states)) {
    r.report("table-shape", "transition/depth/fail table sizes inconsistent ",
             "with num_states ", snap.num_states);
    return out;  // index arithmetic below would be unsafe
  }
  if (snap.match_table.size() != snap.num_accepting) {
    r.report("match-table-size", "match table has ", snap.match_table.size(),
             " rows, expected ", snap.num_accepting);
  }
  for (std::size_t i = 0; i < snap.transitions.size(); ++i) {
    if (snap.transitions[i] >= snap.num_states) {
      r.report("transition-out-of-range", "delta(", i / 256, ", ", i % 256,
               ") = ", snap.transitions[i], " >= ", snap.num_states);
    }
  }
  return out;
}

std::vector<Diagnostic> check_match_rows(const DfaSnapshot& snap,
                                         std::size_t num_patterns) {
  std::vector<Diagnostic> out;
  Reporter r(out);
  for (std::size_t s = 0; s < snap.match_table.size(); ++s) {
    const auto& row = snap.match_table[s];
    if (row.empty()) {
      r.report("accepting-empty-output", "accepting state ", s,
               " has an empty match row (renumbering not dense)");
      continue;
    }
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (row[i] >= num_patterns) {
        r.report("pattern-index-out-of-range", "state ", s, " row entry ",
                 row[i], " >= ", num_patterns);
      }
      if (i == 0) continue;
      if (row[i] < row[i - 1]) {
        r.report("match-row-unsorted", "state ", s, " match row unsorted at ",
                 i, " (", row[i - 1], " then ", row[i], ")");
      } else if (row[i] == row[i - 1]) {
        r.report("match-row-duplicate", "state ", s,
                 " match row duplicates pattern ", row[i]);
      }
    }
  }
  return out;
}

std::vector<Diagnostic> check_failure_links(const DfaSnapshot& snap) {
  std::vector<Diagnostic> out;
  Reporter r(out);
  if (snap.fail.empty()) return out;  // representation bakes failures in
  if (snap.fail.size() != snap.num_states || snap.start >= snap.num_states) {
    return out;  // shape errors reported by check_structure
  }
  if (snap.fail[snap.start] != snap.start) {
    r.report("failure-link-root", "start state's failure link is ",
             snap.fail[snap.start], ", expected self (", snap.start, ")");
  }
  for (ac::StateIndex s = 0; s < snap.num_states; ++s) {
    if (s == snap.start) continue;
    const ac::StateIndex f = snap.fail[s];
    if (f >= snap.num_states) {
      r.report("failure-link-cycle", "state ", s, " failure link ", f,
               " out of range");
      continue;
    }
    if (snap.depth[f] >= snap.depth[s]) {
      r.report("failure-link-depth", "state ", s, " (depth ", snap.depth[s],
               ") has failure link ", f, " at depth ", snap.depth[f],
               " (must strictly decrease)");
    }
    // Independently of the depth table: the chain must reach the root within
    // num_states hops, else it cycles.
    ac::StateIndex walk = s;
    std::uint32_t hops = 0;
    while (walk != snap.start && hops <= snap.num_states) {
      walk = snap.fail[walk];
      if (walk >= snap.num_states) break;
      ++hops;
    }
    if (walk != snap.start) {
      r.report("failure-link-cycle", "failure chain from state ", s,
               " never reaches the root");
    }
  }
  return out;
}

std::vector<Diagnostic> check_against_patterns(const DfaSnapshot& snap,
                                               const Patterns& patterns) {
  std::vector<Diagnostic> out;
  Reporter r(out);
  if (snap.transitions.size() !=
          static_cast<std::size_t>(snap.num_states) * 256u ||
      snap.depth.size() != snap.num_states || snap.start >= snap.num_states ||
      snap.match_table.size() != snap.num_accepting) {
    return out;  // shape errors reported by check_structure
  }
  const Oracle oracle(patterns);

  std::vector<std::string> labels;
  std::vector<bool> labeled;
  reconstruct_labels(snap, labels, labeled);

  std::unordered_map<std::string, ac::StateIndex> state_of_label;
  std::size_t reachable = 0;
  for (ac::StateIndex s = 0; s < snap.num_states; ++s) {
    if (!labeled[s]) {
      r.report("state-unreachable", "state ", s,
               " is not reachable via depth-increasing transitions");
      continue;
    }
    ++reachable;
    if (!oracle.is_prefix(labels[s])) {
      r.report("label-not-prefix", "state ", s, " label \"",
               printable(labels[s]), "\" is not a prefix of any pattern");
      continue;
    }
    auto [it, inserted] = state_of_label.emplace(labels[s], s);
    if (!inserted) {
      r.report("label-collision", "states ", it->second, " and ", s,
               " share label \"", printable(labels[s]), "\"");
    }
  }
  if (reachable != oracle.prefixes.size()) {
    r.report("state-count", "automaton has ", reachable,
             " reachable states, expected ", oracle.prefixes.size(),
             " (one per distinct pattern prefix)");
  }

  std::string scratch;
  for (ac::StateIndex s = 0; s < snap.num_states; ++s) {
    if (!labeled[s]) continue;
    const std::string& label = labels[s];
    if (snap.depth[s] != label.size()) {
      r.report("depth-divergence", "state ", s, " depth ", snap.depth[s],
               " but label \"", printable(label), "\" has length ",
               label.size());
    }

    const std::vector<ac::PatternIndex> expected =
        oracle.expected_matches(label);
    const bool accepting = s < snap.num_accepting;
    if (expected.empty() != !accepting) {
      r.report("acceptance-divergence", "state ", s, " (label \"",
               printable(label), "\") ",
               accepting ? "is accepting but matches no pattern"
                         : "matches a pattern but its id is not in {0..f-1}");
    } else if (accepting) {
      const auto& row = snap.match_table[s];
      if (row != expected) {
        // Distinguish a missing proper-suffix pattern (§5.1 propagation bug)
        // from any other divergence.
        bool missing_suffix = false;
        for (ac::PatternIndex p : expected) {
          if (std::find(row.begin(), row.end(), p) == row.end() &&
              p < patterns.size() && patterns[p].size() < label.size()) {
            missing_suffix = true;
            r.report("suffix-propagation-missing", "state ", s, " (label \"",
                     printable(label), "\") misses suffix pattern ", p, " (\"",
                     printable(patterns[p]), "\")");
          }
        }
        if (!missing_suffix) {
          r.report("match-divergence", "state ", s, " (label \"",
                   printable(label), "\") match row disagrees with the oracle");
        }
      }
    }

    scratch.assign(label);
    scratch.push_back('\0');
    for (unsigned b = 0; b < 256; ++b) {
      const ac::StateIndex t = snap.step(s, static_cast<std::uint8_t>(b));
      if (t >= snap.num_states || !labeled[t]) continue;  // reported above
      scratch.back() = static_cast<char>(b);
      const std::string_view want = oracle.longest_prefix_suffix(scratch);
      if (labels[t] != want) {
        r.report("transition-divergence", "delta(state ", s, " \"",
                 printable(label), "\", byte ", b, ") leads to \"",
                 printable(labels[t]), "\", expected \"",
                 printable(std::string(want)), "\"");
      }
    }
  }
  return out;
}

std::vector<Diagnostic> check_equivalence(const DfaSnapshot& full,
                                          const DfaSnapshot& compressed) {
  std::vector<Diagnostic> out;
  Reporter r(out);
  if (full.num_states != compressed.num_states ||
      full.num_accepting != compressed.num_accepting ||
      full.start != compressed.start) {
    r.report("representation-shape", "representations disagree on shape: ",
             full.num_states, "/", full.num_accepting, "/", full.start,
             " vs ", compressed.num_states, "/", compressed.num_accepting,
             "/", compressed.start);
    return out;
  }
  for (ac::StateIndex s = 0; s < full.num_states; ++s) {
    for (unsigned b = 0; b < 256; ++b) {
      const ac::StateIndex lhs = full.step(s, static_cast<std::uint8_t>(b));
      const ac::StateIndex rhs =
          compressed.step(s, static_cast<std::uint8_t>(b));
      if (lhs != rhs) {
        r.report("representation-divergence", "delta(", s, ", ", b,
                 ") = ", lhs, " in the full table but ", rhs,
                 " after decoding the compressed form");
      }
    }
  }
  for (ac::StateIndex s = 0; s < full.num_accepting; ++s) {
    if (full.match_table[s] != compressed.match_table[s]) {
      r.report("representation-match-divergence", "accepting state ", s,
               " has different match rows in the two representations");
    }
  }
  return out;
}

std::vector<Diagnostic> check_hot_kernel(const ac::FullAutomaton& full,
                                         const ac::HotKernel& kernel) {
  std::vector<Diagnostic> out;
  Reporter r(out);
  if (!kernel.available()) {
    r.report("kernel-unavailable", "kernel has no hot states");
    return out;
  }
  const std::uint32_t n = full.num_states();
  const std::uint32_t f = full.num_accepting();
  if (kernel.num_hot_states() > n || kernel.num_hot_accepting() > f ||
      kernel.num_classes() == 0 || kernel.num_classes() > 256) {
    r.report("kernel-shape", "hot core ", kernel.num_hot_states(), "/",
             kernel.num_hot_accepting(), " states/accepting with ",
             kernel.num_classes(), " classes does not fit automaton ", n, "/",
             f);
    return out;
  }
  // hot <-> full id maps must be inverse bijections over the hot set.
  for (std::uint32_t h = 0; h < kernel.num_hot_states(); ++h) {
    const ac::StateIndex s =
        kernel.full_id(static_cast<ac::HotStateIndex>(h));
    if (s >= n || kernel.hot_id(s) != h) {
      r.report("kernel-id-map", "hot id ", h, " maps to full state ", s,
               " which does not map back");
    }
  }
  for (ac::StateIndex s = 0; s < n; ++s) {
    const std::uint16_t h = kernel.hot_id(s);
    const bool hot = h != ac::kColdExit;
    if (hot && (h >= kernel.num_hot_states() ||
                kernel.full_id(static_cast<ac::HotStateIndex>(h)) != s)) {
      r.report("kernel-id-map", "full state ", s, " maps to hot id ", h,
               " which does not map back");
    }
    // The hot set is exactly the states within the advertised depth bound.
    if (hot != (full.depth(s) <= kernel.hot_depth())) {
      r.report("kernel-depth-closure", "state ", s, " at depth ",
               full.depth(s), " is ", hot ? "hot" : "cold",
               " despite hot depth bound ", kernel.hot_depth());
    }
    // Accepting-first renumbering: acceptance must stay `hot id < fa`.
    if (hot && ((h < kernel.num_hot_accepting()) != (s < f))) {
      r.report("kernel-accepting-order", "full state ", s, " (accepting=",
               s < f, ") renumbered to hot id ", h,
               " across the accepting boundary ", kernel.num_hot_accepting());
    }
  }
  if (kernel.hot_id(full.start_state()) == ac::kColdExit) {
    r.report("kernel-start-cold", "start state ", full.start_state(),
             " is outside the hot core");
  }
  if (kernel.complete() != (kernel.num_hot_states() == n)) {
    r.report("kernel-complete-flag", "complete flag ", kernel.complete(),
             " disagrees with ", kernel.num_hot_states(), " of ", n,
             " states hot");
  }
  for (unsigned b = 0; b < 256; ++b) {
    if (kernel.byte_class(static_cast<std::uint8_t>(b)) >=
        kernel.num_classes()) {
      r.report("kernel-class-range", "byte ", b, " has class ",
               kernel.byte_class(static_cast<std::uint8_t>(b)),
               " >= num_classes ", kernel.num_classes());
    }
  }
  // Exhaustive transition proof over all 256 bytes (not just class
  // representatives): entry(hot(s), class(b)) must equal the full table's
  // delta for EVERY byte of the class, which is precisely the
  // byte-equivalence claim the class compression rests on.
  for (std::uint32_t h = 0; h < kernel.num_hot_states(); ++h) {
    const ac::StateIndex s =
        kernel.full_id(static_cast<ac::HotStateIndex>(h));
    if (s >= n) continue;  // already reported above
    for (unsigned b = 0; b < 256; ++b) {
      const ac::StateIndex target = full.step(s, static_cast<std::uint8_t>(b));
      const std::uint16_t expected = kernel.hot_id(target);
      const std::uint16_t got = kernel.table_entry(
          static_cast<ac::HotStateIndex>(h),
          kernel.byte_class(static_cast<std::uint8_t>(b)));
      if (got != expected) {
        r.report("kernel-transition-divergence", "delta(", s, ", ", b,
                 ") = ", target, " but the hot table resolves hot id ", h,
                 " class ", kernel.byte_class(static_cast<std::uint8_t>(b)),
                 " to ", got, " (expected ", expected, ")");
      }
    }
  }
  return out;
}

namespace {

/// First field where two scan results differ, or "" when identical.
std::string diff_scan_results(const dpi::ScanResult& scalar,
                              const dpi::ScanResult& kernel) {
  std::ostringstream os;
  if (scalar.raw_hits != kernel.raw_hits) {
    os << "raw_hits " << scalar.raw_hits << " vs " << kernel.raw_hits;
    return os.str();
  }
  if (scalar.bytes_scanned != kernel.bytes_scanned) {
    os << "bytes_scanned " << scalar.bytes_scanned << " vs "
       << kernel.bytes_scanned;
    return os.str();
  }
  if (scalar.anchor_hits_seen != kernel.anchor_hits_seen) {
    os << "anchor_hits_seen " << scalar.anchor_hits_seen << " vs "
       << kernel.anchor_hits_seen;
    return os.str();
  }
  if (scalar.regexes_evaluated != kernel.regexes_evaluated ||
      scalar.regex_matches != kernel.regex_matches) {
    os << "regex counters " << scalar.regexes_evaluated << "/"
       << scalar.regex_matches << " vs " << kernel.regexes_evaluated << "/"
       << kernel.regex_matches;
    return os.str();
  }
  if (scalar.matches.size() != kernel.matches.size()) {
    os << "section count " << scalar.matches.size() << " vs "
       << kernel.matches.size();
    return os.str();
  }
  for (std::size_t i = 0; i < scalar.matches.size(); ++i) {
    if (scalar.matches[i].middlebox != kernel.matches[i].middlebox ||
        scalar.matches[i].entries != kernel.matches[i].entries) {
      os << "section " << i << " (middlebox " << scalar.matches[i].middlebox
         << " vs " << kernel.matches[i].middlebox << ") entries differ";
      return os.str();
    }
  }
  const dpi::FlowCursor& sc = scalar.cursor;
  const dpi::FlowCursor& kc = kernel.cursor;
  if (sc.valid != kc.valid || sc.dfa_state != kc.dfa_state ||
      sc.offset != kc.offset) {
    os << "cursor state/offset/valid " << sc.dfa_state << "/" << sc.offset
       << "/" << sc.valid << " vs " << kc.dfa_state << "/" << kc.offset << "/"
       << kc.valid;
    return os.str();
  }
  if (sc.anchor_hits != kc.anchor_hits) return "cursor anchor_hits";
  if (sc.regex_window != kc.regex_window) return "cursor regex_window";
  return {};
}

}  // namespace

std::vector<Diagnostic> cross_check_kernel(
    const dpi::Engine& engine, dpi::ChainId chain,
    const std::vector<std::vector<Bytes>>& flows) {
  std::vector<Diagnostic> out;
  Reporter r(out);
  if (!engine.kernel_active()) {
    r.report("kernel-not-active",
             "engine has no active batched kernel to cross-check");
    return out;
  }
  // Scalar is the oracle: it is the loop the whole verify suite already
  // proves correct against the definition-based automaton oracle.
  std::size_t max_packets = 0;

  // Packet-by-packet differential, cursors resumed independently per mode.
  for (std::size_t fi = 0; fi < flows.size(); ++fi) {
    dpi::FlowCursor scalar_cursor;
    dpi::FlowCursor kernel_cursor;
    max_packets = std::max(max_packets, flows[fi].size());
    for (std::size_t pi = 0; pi < flows[fi].size(); ++pi) {
      const BytesView payload(flows[fi][pi]);
      const dpi::ScanResult scalar = engine.scan_packet(
          chain, payload, scalar_cursor, dpi::ScanKernel::kScalar);
      const dpi::ScanResult batched = engine.scan_packet(
          chain, payload, kernel_cursor, dpi::ScanKernel::kBatched);
      const std::string diff = diff_scan_results(scalar, batched);
      if (!diff.empty()) {
        r.report("kernel-scan-divergence", "flow ", fi, " packet ", pi, ": ",
                 diff);
      }
      scalar_cursor = scalar.cursor;
      kernel_cursor = batched.cursor;
    }
  }

  // Interleaved batch differential: advance all flows in lockstep (round k
  // scans every flow's k-th packet in one batch) so distinct flows share an
  // interleave group, and compare against fresh scalar runs.
  std::vector<dpi::FlowCursor> scalar_cursors(flows.size());
  std::vector<dpi::FlowCursor> batch_cursors(flows.size());
  for (std::size_t round = 0; round < max_packets; ++round) {
    std::vector<BytesView> payloads;
    std::vector<std::size_t> members;
    std::vector<dpi::FlowCursor> round_cursors;
    for (std::size_t fi = 0; fi < flows.size(); ++fi) {
      if (round >= flows[fi].size()) continue;
      payloads.emplace_back(flows[fi][round]);
      members.push_back(fi);
      round_cursors.push_back(batch_cursors[fi]);
    }
    if (payloads.empty()) continue;
    const std::vector<dpi::ScanResult> batched = engine.scan_batch(
        chain, payloads, &round_cursors, dpi::ScanKernel::kBatched);
    for (std::size_t k = 0; k < members.size(); ++k) {
      const std::size_t fi = members[k];
      const dpi::ScanResult scalar = engine.scan_packet(
          chain, payloads[k], scalar_cursors[fi], dpi::ScanKernel::kScalar);
      const std::string diff = diff_scan_results(scalar, batched[k]);
      if (!diff.empty()) {
        r.report("kernel-batch-divergence", "flow ", fi, " round ", round,
                 " (group of ", members.size(), "): ", diff);
      }
      scalar_cursors[fi] = scalar.cursor;
      batch_cursors[fi] = batched[k].cursor;
    }
  }
  return out;
}

std::vector<Diagnostic> check_engine_tables(const EngineTables& tables) {
  std::vector<Diagnostic> out;
  Reporter r(out);
  if (tables.automaton_accepting != tables.accept_targets.size() ||
      tables.accept_bitmaps.size() != tables.accept_targets.size()) {
    r.report("engine-shape", "automaton has ", tables.automaton_accepting,
             " accepting states but the engine tables cover ",
             tables.accept_targets.size(), " (bitmaps: ",
             tables.accept_bitmaps.size(), ")");
    return out;
  }
  const auto known = [&tables](dpi::MiddleboxId id) {
    return std::find(tables.middleboxes.begin(), tables.middleboxes.end(),
                     id) != tables.middleboxes.end();
  };
  for (std::size_t s = 0; s < tables.accept_targets.size(); ++s) {
    const auto& row = tables.accept_targets[s];
    dpi::MiddleboxBitmap owners = 0;
    for (const auto& t : row) {
      owners |= t.owners;
      if (!t.is_anchor) {
        if (t.owners != dpi::bitmap_of(t.middlebox)) {
          r.report("target-owner-mismatch", "state ", s, " target (mbox ",
                   t.middlebox, ", rule ", t.pattern_id,
                   ") owner bitmap disagrees with its middlebox id");
        }
        if (!known(t.middlebox)) {
          r.report("target-unknown-middlebox", "state ", s,
                   " references unregistered middlebox ", t.middlebox);
        }
      }
    }
    if (owners != tables.accept_bitmaps[s]) {
      r.report("bitmap-stale", "state ", s, " bitmap ",
               tables.accept_bitmaps[s], " != OR of its match targets ",
               owners);
    }
    for (std::size_t i = 1; i < row.size(); ++i) {
      const auto& a = row[i - 1];
      const auto& b = row[i];
      const bool ordered =
          a.is_anchor != b.is_anchor
              ? b.is_anchor  // non-anchor targets precede anchor targets
              : (a.middlebox != b.middlebox ? a.middlebox < b.middlebox
                                            : a.pattern_id <= b.pattern_id);
      if (!ordered) {
        r.report("target-row-unsorted", "state ", s,
                 " target row out of (middlebox, pattern) order at index ", i);
      }
    }
  }
  for (const auto& [chain, members] : tables.chains) {
    dpi::MiddleboxBitmap expected = 0;
    for (dpi::MiddleboxId id : members) {
      expected |= dpi::bitmap_of(id);
    }
    const auto it = tables.chain_bitmaps.find(chain);
    const dpi::MiddleboxBitmap have =
        it == tables.chain_bitmaps.end() ? 0 : it->second;
    if (have != expected) {
      r.report("chain-bitmap-stale", "chain ", chain, " bitmap ", have,
               " != OR of its members ", expected);
    }
  }
  return out;
}

std::vector<Diagnostic> check_engine(const dpi::Engine& engine) {
  return check_engine_tables(extract_tables(engine));
}

std::vector<Diagnostic> check_pattern_db(const dpi::PatternDb& db) {
  std::vector<Diagnostic> out;
  Reporter r(out);
  const dpi::EngineSpec spec = db.snapshot();
  std::map<dpi::MiddleboxId, std::size_t> refs;
  std::set<std::string> distinct_exact;
  std::set<std::string> distinct_regex;
  for (const auto& p : spec.exact_patterns) {
    ++refs[p.middlebox];
    distinct_exact.insert(p.bytes);
    if (!db.is_registered(p.middlebox)) {
      r.report("unregistered-reference", "exact pattern \"",
               printable(p.bytes), "\" references unregistered middlebox ",
               p.middlebox);
    }
  }
  for (const auto& p : spec.regex_patterns) {
    ++refs[p.middlebox];
    distinct_regex.insert(p.expression);
    if (!db.is_registered(p.middlebox)) {
      r.report("unregistered-reference", "regex references unregistered ",
               "middlebox ", p.middlebox);
    }
  }
  for (const auto& profile : spec.middleboxes) {
    const std::size_t have = db.num_references(profile.id);
    const auto it = refs.find(profile.id);
    const std::size_t expect = it == refs.end() ? 0 : it->second;
    if (have != expect) {
      r.report("refcount-mismatch", "middlebox ", profile.id, " ref-count ",
               have, " != ", expect, " registrations visible in the snapshot");
    }
  }
  if (distinct_exact.size() != db.num_distinct_exact()) {
    r.report("distinct-count", "snapshot holds ", distinct_exact.size(),
             " distinct exact patterns, registry reports ",
             db.num_distinct_exact());
  }
  if (distinct_regex.size() != db.num_distinct_regex()) {
    r.report("distinct-count", "snapshot holds ", distinct_regex.size(),
             " distinct regexes, registry reports ", db.num_distinct_regex());
  }
  for (const auto& [chain, members] : spec.chains) {
    for (dpi::MiddleboxId id : members) {
      if (!db.is_registered(id)) {
        r.report("chain-unknown-middlebox", "chain ", chain,
                 " references unregistered middlebox ", id);
      }
    }
  }
  return out;
}

std::vector<Diagnostic> verify_dfa(const DfaSnapshot& snap,
                                   const Patterns& patterns) {
  std::vector<Diagnostic> out = check_structure(snap);
  auto append = [&out](std::vector<Diagnostic> more) {
    out.insert(out.end(), std::make_move_iterator(more.begin()),
               std::make_move_iterator(more.end()));
  };
  append(check_match_rows(snap, patterns.size()));
  append(check_failure_links(snap));
  append(check_against_patterns(snap, patterns));
  return out;
}

std::vector<Diagnostic> verify_engine_spec(const dpi::EngineSpec& spec,
                                           const dpi::EngineConfig& config) {
  std::vector<Diagnostic> out;
  std::shared_ptr<const dpi::Engine> engine;
  try {
    engine = dpi::Engine::compile(spec, config);
  } catch (const std::exception& e) {
    out.push_back(Diagnostic{"compile-error", e.what()});
    return out;
  }
  auto append = [&out](std::vector<Diagnostic> more) {
    out.insert(out.end(), std::make_move_iterator(more.begin()),
               std::make_move_iterator(more.end()));
  };

  const Patterns patterns = derive_string_table(spec, config);
  const DfaSnapshot engine_snap = std::visit(
      [](const auto& a) { return snapshot_of(a); }, engine->automaton());

  if (!patterns.empty()) {
    append(verify_dfa(engine_snap, patterns));

    // Build the *other* representation independently from the same strings
    // and prove the two encode the identical automaton.
    ac::Trie trie;
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      trie.insert(std::string_view(patterns[i]),
                  static_cast<ac::PatternIndex>(i));
    }
    if (engine->uses_compressed_automaton()) {
      append(check_equivalence(snapshot_of(ac::FullAutomaton::build(trie)),
                               engine_snap));
    } else {
      append(check_equivalence(
          engine_snap, snapshot_of(ac::CompressedAutomaton::build(trie))));
    }
  }

  append(check_engine(*engine));
  return out;
}

}  // namespace dpisvc::verify
