#include "dpi/engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <stdexcept>
#include <type_traits>

#include "ac/trie.hpp"
#include "common/invariant.hpp"
#include "regex/anchors.hpp"

namespace dpisvc::dpi {

const MiddleboxProfile* Engine::find_middlebox(MiddleboxId id) const noexcept {
  for (const auto& p : profiles_) {
    if (p.id == id) return &p;
  }
  return nullptr;
}

const Engine::ChainInfo& Engine::chain_info(ChainId id) const {
  auto it = chains_.find(id);
  if (it == chains_.end()) {
    throw std::invalid_argument("Engine: unknown policy chain");
  }
  return it->second;
}

std::uint32_t Engine::num_automaton_states() const noexcept {
  return std::visit([](const auto& a) { return a.num_states(); }, automaton_);
}

std::size_t Engine::memory_bytes() const noexcept {
  std::size_t total =
      std::visit([](const auto& a) { return a.memory_bytes(); }, automaton_);
  total += accept_bitmaps_.size() * sizeof(MiddleboxBitmap);
  for (const auto& row : accept_targets_) {
    total += sizeof(row) + row.size() * sizeof(MatchTarget);
  }
  for (const auto& re : regexes_) {
    total += re.matcher.program().size() * sizeof(regex::Inst);
    total += re.anchor_bits.size() * sizeof(std::uint32_t);
  }
  return total;
}

ac::StateIndex Engine::traverse_only(BytesView payload) const noexcept {
  return std::visit(
      [&](const auto& a) { return a.traverse(payload, a.start_state()); },
      automaton_);
}

std::shared_ptr<const Engine> Engine::compile(const EngineSpec& spec,
                                              const EngineConfig& config) {
  auto engine = std::shared_ptr<Engine>(new Engine());

  // --- middlebox profiles --------------------------------------------------
  MiddleboxBitmap seen = 0;
  for (const auto& p : spec.middleboxes) {
    if (p.id == 0 || p.id > kMaxMiddleboxes) {
      throw std::invalid_argument("Engine: middlebox id out of range 1..64");
    }
    if (seen & bitmap_of(p.id)) {
      throw std::invalid_argument("Engine: duplicate middlebox id");
    }
    seen |= bitmap_of(p.id);
  }
  engine->profiles_ = spec.middleboxes;
  engine->use_accept_bitmaps_ = config.use_accept_bitmaps;
  engine->mbox_stop_.fill(kNoStopCondition);
  for (const auto& p : spec.middleboxes) {
    engine->mbox_stateful_[p.id] = p.stateful;
    engine->mbox_stop_[p.id] = p.stop_offset;
  }

  // --- global string table -------------------------------------------------
  // Distinct byte strings (exact patterns and regex anchors) mapped to the
  // targets interested in them. §5.1: two middleboxes registering the same
  // pattern share one entry with both references.
  struct StringEntry {
    std::vector<MatchTarget> targets;
  };
  std::map<std::string, StringEntry> strings;

  for (const auto& pat : spec.exact_patterns) {
    if (!(seen & bitmap_of(pat.middlebox))) {
      throw std::invalid_argument("Engine: exact pattern for unknown middlebox");
    }
    if (pat.bytes.empty()) {
      throw std::invalid_argument("Engine: empty exact pattern");
    }
    MatchTarget target;
    target.owners = bitmap_of(pat.middlebox);
    target.middlebox = pat.middlebox;
    target.pattern_id = pat.pattern_id;
    target.pattern_length = static_cast<std::uint32_t>(pat.bytes.size());
    auto& entry = strings[pat.bytes];
    // Dedupe identical registrations (same middlebox + id).
    const bool dup = std::any_of(
        entry.targets.begin(), entry.targets.end(), [&](const MatchTarget& t) {
          return !t.is_anchor && t.middlebox == pat.middlebox &&
                 t.pattern_id == pat.pattern_id;
        });
    if (!dup) entry.targets.push_back(target);
    ++engine->num_exact_;
  }

  // --- regexes and their anchors -------------------------------------------
  std::map<std::string, std::uint32_t> anchor_bits;  // anchor string -> bit
  for (const auto& re : spec.regex_patterns) {
    if (!(seen & bitmap_of(re.middlebox))) {
      throw std::invalid_argument("Engine: regex for unknown middlebox");
    }
    regex::ParseOptions popts;
    popts.case_insensitive = re.case_insensitive;
    regex::NodePtr ast = regex::parse(re.expression, popts);  // throws on error

    regex::AnchorOptions aopts;
    aopts.min_length = config.anchor_min_length;
    std::vector<std::string> anchors = regex::extract_anchors(*ast, aopts);

    CompiledRegex compiled{re.middlebox, re.pattern_id,
                           regex::Matcher(regex::Program::compile(*ast)),
                           {}};
    for (const std::string& anchor : anchors) {
      auto [it, inserted] =
          anchor_bits.emplace(anchor, static_cast<std::uint32_t>(anchor_bits.size()));
      if (inserted && anchor_bits.size() > config.max_anchor_bits) {
        // Every scan allocates an anchor hit set of num_anchor_bits_
        // entries; reject instead of silently growing the per-scan scratch
        // (and the bit indices) without bound.
        throw std::invalid_argument(
            "Engine: regex anchors exceed the per-scan anchor hit-set "
            "capacity (" +
            std::to_string(anchor_bits.size()) + " distinct anchors > " +
            std::to_string(config.max_anchor_bits) +
            "); raise EngineConfig::max_anchor_bits or coarsen "
            "anchor_min_length");
      }
      const std::uint32_t bit = it->second;
      compiled.anchor_bits.push_back(bit);

      auto& entry = strings[anchor];
      auto existing = std::find_if(
          entry.targets.begin(), entry.targets.end(),
          [&](const MatchTarget& t) { return t.is_anchor && t.anchor_bit == bit; });
      if (existing != entry.targets.end()) {
        existing->owners |= bitmap_of(re.middlebox);
      } else {
        MatchTarget target;
        target.owners = bitmap_of(re.middlebox);
        target.pattern_length = static_cast<std::uint32_t>(anchor.size());
        target.is_anchor = true;
        target.anchor_bit = bit;
        entry.targets.push_back(target);
      }
    }
    if (engine->mbox_stateful_[re.middlebox]) {
      engine->stateful_regex_owners_ |= bitmap_of(re.middlebox);
    }
    engine->regexes_.push_back(std::move(compiled));
  }
  engine->num_anchor_bits_ = static_cast<std::uint32_t>(anchor_bits.size());
  engine->num_strings_ = strings.size();
  engine->stateful_regex_window_ = config.stateful_regex_window;

  // --- combined automaton (§5.1) -------------------------------------------
  ac::Trie trie;
  std::vector<const StringEntry*> entry_of_index;
  entry_of_index.reserve(strings.size());
  for (const auto& [bytes, entry] : strings) {
    trie.insert(std::string_view(bytes),
                static_cast<ac::PatternIndex>(entry_of_index.size()));
    entry_of_index.push_back(&entry);
  }

  auto fill_tables = [&](const auto& automaton) {
    const std::uint32_t f = automaton.num_accepting();
    engine->accept_bitmaps_.assign(f, 0);
    engine->accept_targets_.resize(f);
    for (std::uint32_t s = 0; s < f; ++s) {
      std::vector<MatchTarget>& row = engine->accept_targets_[s];
      for (ac::PatternIndex g : automaton.matches_at(s)) {
        const StringEntry& entry = *entry_of_index[g];
        row.insert(row.end(), entry.targets.begin(), entry.targets.end());
        for (const MatchTarget& t : entry.targets) {
          engine->accept_bitmaps_[s] |= t.owners;
        }
      }
      // §5.1: the match table stores a list sorted by middlebox id.
      std::sort(row.begin(), row.end(),
                [](const MatchTarget& a, const MatchTarget& b) {
                  if (a.is_anchor != b.is_anchor) return b.is_anchor;
                  if (a.middlebox != b.middlebox) return a.middlebox < b.middlebox;
                  return a.pattern_id < b.pattern_id;
                });
      // §5.1: an accepting state with no interested target would mean the
      // dense renumbering and the match table disagree about acceptance.
      DPISVC_ASSERT_INVARIANT(!row.empty(),
                              "accepting state must have at least one target");
    }
  };

  if (strings.empty()) {
    // Degenerate engine (regex-only or empty); build a one-state automaton
    // by leaving the variant's default (empty FullAutomaton is unusable, so
    // insert a never-matching placeholder pattern).
    ac::Trie placeholder;
    placeholder.insert(std::string_view("\x00\x01\x02\x03placeholder-unused",
                                        22),
                       0);
    auto automaton = ac::FullAutomaton::build(placeholder);
    engine->accept_bitmaps_.assign(automaton.num_accepting(), 0);
    engine->accept_targets_.resize(automaton.num_accepting());
    engine->automaton_ = std::move(automaton);
  } else if (config.use_compressed_automaton) {
    auto automaton = ac::CompressedAutomaton::build(trie);
    fill_tables(automaton);
    engine->automaton_ = std::move(automaton);
  } else {
    auto automaton = ac::FullAutomaton::build(trie);
    fill_tables(automaton);
    engine->automaton_ = std::move(automaton);
  }

  // --- policy chains (§5.2) ------------------------------------------------
  for (const auto& [id, members] : spec.chains) {
    ChainInfo chain;
    chain.members = members;
    chain.read_only = !members.empty();
    for (MiddleboxId mbox : members) {
      if (!(seen & bitmap_of(mbox))) {
        throw std::invalid_argument("Engine: chain references unknown middlebox");
      }
      chain.active |= bitmap_of(mbox);
      const MiddleboxProfile* p = engine->find_middlebox(mbox);
      // Stateless and stateful depths are tracked separately: the former
      // renew per packet, the latter are consumed by the flow offset, and
      // the scan clamp needs both maxima (prepare_scan).
      if (p->stateful) {
        chain.stop.stateful = std::max(chain.stop.stateful, p->stop_offset);
      } else {
        chain.stop.stateless = std::max(chain.stop.stateless, p->stop_offset);
      }
      chain.stateful |= p->stateful;
      chain.read_only &= p->read_only;
    }
    engine->chains_[id] = std::move(chain);
  }

  // --- batched scan kernel -------------------------------------------------
  // Built only over the full-table automaton (the compressed automaton's
  // bitmap rows already trade speed for memory). kAuto defers to the
  // process-wide policy (DPISVC_FORCE_SCALAR + cpu features); an explicit
  // kBatched config overrides the environment.
  if (const auto* full = std::get_if<ac::FullAutomaton>(&engine->automaton_)) {
    const bool want_kernel =
        config.kernel == ScanKernel::kBatched ||
        (config.kernel == ScanKernel::kAuto &&
         !ac::kernel_policy().force_scalar);
    if (want_kernel) {
      engine->kernel_ = ac::HotKernel::build(*full);
      engine->use_kernel_ = engine->kernel_.available();
    }
  }

  return engine;
}

MiddleboxMatches& Engine::section_for(ScanResult& result,
                                      SectionIndex& sections, MiddleboxId id) {
  std::int16_t& slot = sections[id];
  if (slot < 0) {
    slot = static_cast<std::int16_t>(result.matches.size());
    result.matches.push_back(MiddleboxMatches{id, {}});
  }
  return result.matches[static_cast<std::size_t>(slot)];
}

Engine::Prepared Engine::prepare_scan(ac::StateIndex start_state,
                                      const ChainInfo& chain,
                                      BytesView payload,
                                      const FlowCursor& cursor) const {
  const StopSpec& stop = chain.stop;
  Prepared prep;
  prep.resume = chain.stateful && cursor.valid;
  prep.offset = prep.resume ? cursor.offset : 0;
  prep.state = prep.resume ? cursor.dfa_state : start_state;

  // Stopping condition (§5.2). Boundary convention (see
  // MiddleboxProfile::stop_offset): a match is reported iff its end
  // position — 1-based count of its last byte, packet-relative for
  // stateless middleboxes, flow-relative for stateful ones — is <= the
  // middlebox's stop offset. The clamp therefore feeds every byte any
  // active middlebox could still report: stateless depths renew on each
  // packet, while stateful depths shrink by the flow offset already
  // scanned. Taking only the flow-relative remainder here used to cut
  // resumed packets short of the stateless members' per-packet depth,
  // silently dropping their in-depth matches.
  std::uint64_t limit = payload.size();
  if (stop.stateless != kNoStopCondition && stop.stateful != kNoStopCondition) {
    const std::uint64_t stateful_remaining =
        stop.stateful > prep.offset ? stop.stateful - prep.offset : 0;
    limit = std::min<std::uint64_t>(
        limit, std::max<std::uint64_t>(stop.stateless, stateful_remaining));
  }
  prep.scanned = payload.first(static_cast<std::size_t>(limit));
  return prep;
}

namespace {

/// Reusable per-thread raw-match accumulator (pattern id, reported position
/// per middlebox). The rows reset lazily by epoch: only rows touched during
/// a scan are cleared at their first touch of the next scan, and clear()
/// keeps the capacity, so steady-state scanning allocates nothing. (The
/// previous per-scan std::array<std::vector, 65> constructed and destroyed
/// 65 vectors on every packet.)
struct RawScratch {
  std::array<std::vector<std::pair<std::uint16_t, std::uint32_t>>,
             kMaxMiddleboxes + 1>
      rows;
  std::array<std::uint64_t, kMaxMiddleboxes + 1> row_epoch{};
  std::uint64_t epoch = 0;

  std::vector<std::pair<std::uint16_t, std::uint32_t>>& row(MiddleboxId id) {
    auto& r = rows[id];
    if (row_epoch[id] != epoch) {
      r.clear();
      row_epoch[id] = epoch;
    }
    return r;
  }
};

}  // namespace

void Engine::finish_scan(const ChainInfo& chain, const Prepared& prep,
                         const FlowCursor& cursor, ac::StateIndex final_state,
                         const std::vector<ac::Match>& events,
                         ScanResult& result) const {
  const MiddleboxBitmap active = chain.active;
  const bool any_stateful = chain.stateful;
  const BytesView scanned = prep.scanned;
  const std::uint64_t offset = prep.offset;

  static thread_local RawScratch scratch;
  ++scratch.epoch;
  // Per-packet anchor hit set, as bit words in a per-thread scratch: no
  // per-packet allocation, and skipped entirely for regex-free engines.
  static thread_local std::vector<std::uint64_t> packet_hit_scratch;
  std::vector<std::uint64_t>* packet_hits = nullptr;
  if (num_anchor_bits_ != 0) {
    packet_hit_scratch.assign((num_anchor_bits_ + 63) / 64, 0);
    packet_hits = &packet_hit_scratch;
  }
  MiddleboxBitmap mboxes_with_matches = 0;

  // §5.1 filtering of the walk's accepting-state events. The walk (scalar
  // loop or batched kernel) only reports (end offset, accepting state)
  // pairs; everything per-middlebox happens here, identically for both.
  result.raw_hits = events.size();
  for (const ac::Match& m : events) {
    DPISVC_ASSERT_INVARIANT(m.accept_state < accept_targets_.size(),
                            "match event must name a renumbered accepting "
                            "state below f");
    if (use_accept_bitmaps_) {
      const MiddleboxBitmap interested = accept_bitmaps_[m.accept_state];
      if (!(interested & active)) continue;  // §5.1 bitmap short-circuit
    }
    const std::uint64_t cnt = m.end_offset;
    for (const MatchTarget& t : accept_targets_[m.accept_state]) {
      if (!(t.owners & active)) continue;
      if (t.is_anchor) {
        (*packet_hits)[t.anchor_bit >> 6] |= 1ull << (t.anchor_bit & 63);
        continue;
      }
      std::uint64_t position;
      if (mbox_stateful_[t.middlebox]) {
        position = cnt + offset;  // flow-relative (§5.2)
      } else {
        // Stateless: a match whose pattern is longer than cnt began in a
        // previous packet (possible when resuming from a restored state) and
        // must be ignored (§5.2, footnote 7).
        if (cnt < t.pattern_length) continue;
        position = cnt;
      }
      // Stop filter: report iff end position <= stop — the boundary byte is
      // inclusive (see MiddleboxProfile::stop_offset).
      if (position > mbox_stop_[t.middlebox]) continue;
      scratch.row(t.middlebox)
          .emplace_back(t.pattern_id, static_cast<std::uint32_t>(position));
      mboxes_with_matches |= bitmap_of(t.middlebox);
    }
  }

  result.bytes_scanned = scanned.size();
  if (any_stateful) {
    result.cursor.dfa_state = final_state;
    result.cursor.offset = offset + scanned.size();
    result.cursor.valid = true;
  }
  if (packet_hits != nullptr) {
    for (std::uint64_t w : *packet_hits) {
      result.anchor_hits_seen += static_cast<std::uint64_t>(std::popcount(w));
    }
  }

  // §5.3 per-flow pre-filter state: carried only when a stateful middlebox
  // on the active set owns regexes, so regex-free stateful chains pay
  // nothing here. Merge this packet's anchor bits into the flow's set and
  // keep the previous payload tail for cross-packet evaluation.
  const bool carry =
      any_stateful && (active & stateful_regex_owners_) != 0;
  BytesView window;
  if (carry) {
    if (prep.resume) {
      result.cursor.anchor_hits = cursor.anchor_hits;
      window = BytesView(cursor.regex_window);
    }
    if (packet_hits != nullptr) {
      auto& flow_bits = result.cursor.anchor_hits;
      if (flow_bits.size() < packet_hits->size()) {
        flow_bits.resize(packet_hits->size(), 0);
      }
      for (std::size_t i = 0; i < packet_hits->size(); ++i) {
        flow_bits[i] |= (*packet_hits)[i];
      }
    }
  }

  // Per-scan middlebox -> section index (O(1) section lookups however many
  // matches the packet reports).
  SectionIndex sections;
  sections.fill(-1);

  // Regex evaluation over the scanned slice (§5.3), against the retained
  // flow tail + packet for stateful-owned regexes.
  evaluate_regexes(active, packet_hits, carry, window, scanned, offset,
                   sections, result);

  // Advance the retained tail past this packet's bytes (after evaluation:
  // the regexes above must see the tail as it stood before this packet).
  if (carry && stateful_regex_window_ > 0) {
    Bytes& next = result.cursor.regex_window;
    const std::size_t cap = stateful_regex_window_;
    if (scanned.size() >= cap) {
      next.assign(scanned.end() - static_cast<std::ptrdiff_t>(cap),
                  scanned.end());
    } else {
      const std::size_t keep =
          std::min(window.size(), cap - scanned.size());
      Bytes merged;
      merged.reserve(keep + scanned.size());
      merged.insert(merged.end(),
                    window.end() - static_cast<std::ptrdiff_t>(keep),
                    window.end());
      merged.insert(merged.end(), scanned.begin(), scanned.end());
      next = std::move(merged);
    }
  }

  // Emit sections sorted by (pattern, position) with run compression (§6.5).
  // Iterating the set bits ascending keeps the section order of the old
  // 1..kMaxMiddleboxes sweep.
  for (MiddleboxBitmap bits = mboxes_with_matches; bits != 0;
       bits &= bits - 1) {
    const auto id = static_cast<MiddleboxId>(std::countr_zero(bits) + 1);
    auto& list = scratch.row(id);
    std::sort(list.begin(), list.end());
    auto& section = section_for(result, sections, id);
    auto compressed = net::compress_runs(list);
    section.entries.insert(section.entries.end(), compressed.begin(),
                           compressed.end());
  }
}

template <typename Automaton>
ScanResult Engine::scan_impl(const Automaton& automaton, bool use_kernel,
                             const ChainInfo& chain, BytesView payload,
                             const FlowCursor& cursor) const {
  const Prepared prep =
      prepare_scan(automaton.start_state(), chain, payload, cursor);
  static thread_local std::vector<ac::Match> event_scratch;
  event_scratch.clear();
  ac::StateIndex state = prep.state;

  bool walked = false;
  if constexpr (std::is_same_v<Automaton, ac::FullAutomaton>) {
    if (use_kernel) {
      const ac::HotKernel::Lane lane =
          kernel_.scan(prep.scanned, state, event_scratch);
      if (lane.consumed < prep.scanned.size()) {
        // Cold exit (or a resume state outside the hot core): finish the
        // packet with the scalar loop from where the kernel stopped,
        // shifting event offsets back to the scanned view.
        const std::size_t done = lane.consumed;
        state = automaton.scan(
            prep.scanned.subspan(done), lane.state, [&](ac::Match m) {
              event_scratch.push_back(
                  ac::Match{m.end_offset + done, m.accept_state});
            });
      } else {
        state = lane.state;
      }
      walked = true;
    }
  } else {
    (void)use_kernel;
  }
  if (!walked) {
    state = automaton.scan(prep.scanned, state, [&](ac::Match m) {
      event_scratch.push_back(m);
    });
  }

  ScanResult result;
  finish_scan(chain, prep, cursor, state, event_scratch, result);
  return result;
}

void Engine::scan_batch_interleaved(const ac::FullAutomaton& automaton,
                                    const ChainInfo& chain,
                                    const std::vector<BytesView>& payloads,
                                    const std::vector<FlowCursor>* cursors,
                                    std::vector<ScanResult>& out) const {
  constexpr std::size_t kMaxLanes = ac::HotKernel::kMaxInterleave;
  const std::size_t width =
      std::min<std::size_t>(ac::kernel_policy().interleave, kMaxLanes);
  static thread_local std::array<std::vector<ac::Match>, kMaxLanes>
      lane_events;
  std::array<Prepared, kMaxLanes> preps;
  std::array<ac::HotKernel::Lane, kMaxLanes> lanes;
  const FlowCursor no_cursor;

  for (std::size_t base = 0; base < payloads.size(); base += width) {
    const std::size_t group = std::min(width, payloads.size() - base);
    for (std::size_t j = 0; j < group; ++j) {
      const FlowCursor& cursor =
          cursors != nullptr ? (*cursors)[base + j] : no_cursor;
      preps[j] = prepare_scan(automaton.start_state(), chain,
                              payloads[base + j], cursor);
      lane_events[j].clear();
      lanes[j] = ac::HotKernel::Lane{preps[j].scanned, preps[j].state, 0,
                                     &lane_events[j]};
    }
    kernel_.scan_interleaved(lanes.data(), group);
    for (std::size_t j = 0; j < group; ++j) {
      ac::StateIndex state;
      if (lanes[j].consumed < preps[j].scanned.size()) {
        const std::size_t done = lanes[j].consumed;
        state = automaton.scan(
            preps[j].scanned.subspan(done), lanes[j].state, [&](ac::Match m) {
              lane_events[j].push_back(
                  ac::Match{m.end_offset + done, m.accept_state});
            });
      } else {
        state = lanes[j].state;
      }
      const FlowCursor& cursor =
          cursors != nullptr ? (*cursors)[base + j] : no_cursor;
      finish_scan(chain, preps[j], cursor, state, lane_events[j],
                  out.emplace_back());
    }
  }
}

namespace {

bool bit_set(const std::vector<std::uint64_t>& words,
             std::uint32_t bit) noexcept {
  const std::size_t w = bit >> 6;
  // Defensive bound: an imported cursor may carry a hit set sized for a
  // previous engine generation; missing words read as unset.
  return w < words.size() && ((words[w] >> (bit & 63)) & 1) != 0;
}

}  // namespace

void Engine::evaluate_regexes(MiddleboxBitmap active,
                              const std::vector<std::uint64_t>* packet_hits,
                              bool carry, BytesView window, BytesView scanned,
                              std::uint64_t base_offset,
                              SectionIndex& sections, ScanResult& result) const {
  static thread_local Bytes concat_scratch;
  for (const CompiledRegex& re : regexes_) {
    if (!(bitmap_of(re.middlebox) & active)) continue;
    // A stateful-owned regex draws its pre-filter bits from the flow's
    // accumulated set (anchors may have matched in earlier packets) and
    // evaluates over the retained tail + this packet; a stateless-owned one
    // sees only this packet's bits and bytes.
    const bool flow_scope = carry && mbox_stateful_[re.middlebox];
    const std::vector<std::uint64_t>* hits =
        flow_scope ? &result.cursor.anchor_hits : packet_hits;
    // Pre-filter: all anchors must have been seen (§5.3). Anchorless
    // regexes run unconditionally (the "parallel path" of §5.3).
    bool all_anchors = true;
    for (std::uint32_t bit : re.anchor_bits) {
      if (hits == nullptr || !bit_set(*hits, bit)) {
        all_anchors = false;
        break;
      }
    }
    if (!all_anchors) continue;
    ++result.regexes_evaluated;

    BytesView haystack = scanned;
    std::size_t min_end = 0;
    if (flow_scope && !window.empty()) {
      concat_scratch.assign(window.begin(), window.end());
      concat_scratch.insert(concat_scratch.end(), scanned.begin(),
                            scanned.end());
      haystack = BytesView(concat_scratch);
      // A match ending inside the tail ends at a flow position that was
      // already evaluable when those bytes were current; only matches
      // ending in the new bytes are reportable now (also prevents a stale
      // earliest-end match in the tail from shadowing a fresh one).
      min_end = window.size();
    }
    const std::optional<std::size_t> end =
        re.matcher.search_end(haystack, min_end);
    if (!end) continue;
    std::uint64_t position = *end;
    if (mbox_stateful_[re.middlebox]) {
      // Flow-relative end: base_offset is the flow offset of the packet's
      // first byte; *end counts from the start of the retained tail.
      position = base_offset - min_end + position;
    }
    // Stop filter: same inclusive-boundary convention as the exact-match
    // site above (report iff end position <= stop).
    if (position > mbox_stop_[re.middlebox]) continue;
    auto& section = section_for(result, sections, re.middlebox);
    section.entries.push_back(net::MatchEntry{
        re.pattern_id, static_cast<std::uint32_t>(position), 1});
    ++result.regex_matches;
  }
}

ScanResult Engine::scan_packet(ChainId chain, BytesView payload,
                               const FlowCursor& cursor,
                               ScanKernel mode) const {
  const ChainInfo& info = chain_info(chain);
  const bool use_kernel = resolve_kernel(mode);
  return std::visit(
      [&](const auto& automaton) {
        return scan_impl(automaton, use_kernel, info, payload, cursor);
      },
      automaton_);
}

std::vector<ScanResult> Engine::scan_batch(
    ChainId chain, const std::vector<BytesView>& payloads,
    const std::vector<FlowCursor>* cursors, ScanKernel mode) const {
  const ChainInfo& info = chain_info(chain);
  if (cursors != nullptr && cursors->size() != payloads.size()) {
    throw std::invalid_argument(
        "Engine::scan_batch: cursors must match payloads one-to-one");
  }
  const bool use_kernel = resolve_kernel(mode);
  std::vector<ScanResult> out;
  out.reserve(payloads.size());
  // One variant visit for the whole batch; the per-packet loop then runs
  // with the automaton type resolved. With the kernel active and more than
  // one packet the batch runs interleaved: several packets' hot-table walks
  // advance in lockstep so their transition loads overlap (results stay
  // byte-identical to the sequential order — each lane ends exactly as a
  // lone scan would). A lone packet keeps the single-lane walk.
  std::visit(
      [&](const auto& automaton) {
        using A = std::decay_t<decltype(automaton)>;
        if constexpr (std::is_same_v<A, ac::FullAutomaton>) {
          if (use_kernel && payloads.size() > 1) {
            scan_batch_interleaved(automaton, info, payloads, cursors, out);
            return;
          }
        }
        const FlowCursor no_cursor;
        for (std::size_t i = 0; i < payloads.size(); ++i) {
          out.push_back(scan_impl(automaton, use_kernel, info, payloads[i],
                                  cursors != nullptr ? (*cursors)[i]
                                                     : no_cursor));
        }
      },
      automaton_);
  return out;
}

}  // namespace dpisvc::dpi
