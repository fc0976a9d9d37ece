#include "mbox/middlebox.hpp"

#include <stdexcept>

namespace dpisvc::mbox {

namespace {
/// Internal chain id used by the standalone engine ({this middlebox} only).
constexpr dpi::ChainId kSelfChain = 1;
}  // namespace

const char* verdict_name(Verdict verdict) noexcept {
  switch (verdict) {
    case Verdict::kPass:
      return "pass";
    case Verdict::kShape:
      return "shape";
    case Verdict::kAlert:
      return "alert";
    case Verdict::kQuarantine:
      return "quarantine";
    case Verdict::kDrop:
      return "drop";
  }
  return "?";
}

Middlebox::Middlebox(dpi::MiddleboxProfile profile)
    : profile_(std::move(profile)) {}

void Middlebox::add_rule(RuleSpec rule) {
  if (rules_.count(rule.id)) {
    throw std::invalid_argument("Middlebox::add_rule: duplicate rule id");
  }
  const bool has_exact = !rule.exact.empty();
  const bool has_regex = !rule.regex.empty();
  if (has_exact == has_regex) {
    throw std::invalid_argument(
        "Middlebox::add_rule: rule needs exactly one of exact/regex");
  }
  const dpi::PatternId id = rule.id;
  const RuleSpec& stored = rules_.emplace(id, std::move(rule)).first->second;
  slots_[id].rule = &stored;
  invalidate_engine();
}

const RuleSpec* Middlebox::find_rule(dpi::PatternId id) const noexcept {
  auto it = slots_.find(id);
  return it == slots_.end() ? nullptr : it->second.rule;
}

std::map<dpi::PatternId, std::uint64_t> Middlebox::hits_by_rule() const {
  std::map<dpi::PatternId, std::uint64_t> hits;
  for (const auto& [id, slot] : slots_) {
    if (slot.hit) hits.emplace(id, slot.hits);
  }
  return hits;
}

service::RegisterRequest Middlebox::registration() const {
  service::RegisterRequest request;
  request.profile = profile_;
  return request;
}

service::AddPatternsRequest Middlebox::pattern_upload() const {
  service::AddPatternsRequest request;
  request.middlebox = profile_.id;
  for (const auto& [id, rule] : rules_) {
    if (!rule.exact.empty()) {
      request.exact.push_back(service::ExactPatternMsg{id, rule.exact});
    } else {
      request.regex.push_back(
          service::RegexPatternMsg{id, rule.regex, rule.case_insensitive});
    }
  }
  return request;
}

void Middlebox::attach(service::DpiController& controller) {
  const json::Value reg_response =
      controller.handle_message(service::encode(registration()));
  if (!service::response_ok(reg_response)) {
    throw std::runtime_error("Middlebox::attach: registration failed: " +
                             json::dump(reg_response));
  }
  const json::Value pat_response =
      controller.handle_message(service::encode(pattern_upload()));
  if (!service::response_ok(pat_response)) {
    throw std::runtime_error("Middlebox::attach: pattern upload failed: " +
                             json::dump(pat_response));
  }
}

void Middlebox::on_rule_hit(const RuleSpec& rule, const net::MatchEntry& entry,
                            const net::Packet& data) {
  (void)rule;
  (void)entry;
  (void)data;
}

void Middlebox::on_packet_done(const net::Packet& data, Verdict verdict) {
  (void)data;
  (void)verdict;
}

Verdict Middlebox::apply_report_entries(
    const net::Packet& data, const std::vector<net::MatchEntry>& entries) {
  ++packets_;
  Verdict verdict = Verdict::kPass;
  for (const net::MatchEntry& entry : entries) {
    const auto it = slots_.find(entry.pattern_id);
    if (it == slots_.end()) continue;  // stale result for a removed rule
    RuleSlot& slot = it->second;
    slot.hits += entry.run_length;
    slot.hit = true;
    total_hits_ += entry.run_length;
    verdict = std::max(verdict, slot.rule->verdict);
    on_rule_hit(*slot.rule, entry, data);
  }
  on_packet_done(data, verdict);
  return verdict;
}

std::vector<Verdict> Middlebox::apply_report_batch(
    const std::vector<net::FiveTuple>& flows,
    const std::vector<dpi::ScanResult>& results) {
  if (flows.size() != results.size()) {
    throw std::invalid_argument(
        "Middlebox::apply_report_batch: flows/results size mismatch");
  }
  std::vector<Verdict> verdicts;
  verdicts.reserve(flows.size());
  static const std::vector<net::MatchEntry> kNoEntries;
  // One reused header-only context: the hooks only consume header fields in
  // service mode, so the batch's payload bytes stay in the ingest arena.
  net::Packet context;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    context.tuple = flows[i];
    const std::vector<net::MatchEntry>* entries = &kNoEntries;
    for (const dpi::MiddleboxMatches& m : results[i].matches) {
      if (m.middlebox == profile_.id) {
        entries = &m.entries;
        break;
      }
    }
    verdicts.push_back(apply_report_entries(context, *entries));
  }
  return verdicts;
}

const dpi::Engine& Middlebox::standalone_engine() {
  if (standalone_engine_ == nullptr) {
    dpi::EngineSpec spec;
    spec.middleboxes = {profile_};
    for (const auto& [id, rule] : rules_) {
      if (!rule.exact.empty()) {
        spec.exact_patterns.push_back(
            dpi::ExactPatternSpec{rule.exact, profile_.id, id});
      } else {
        spec.regex_patterns.push_back(dpi::RegexPatternSpec{
            rule.regex, profile_.id, id, rule.case_insensitive});
      }
    }
    spec.chains[kSelfChain] = {profile_.id};
    standalone_engine_ = dpi::Engine::compile(spec);
    standalone_flows_.clear();
  }
  return *standalone_engine_;
}

Verdict Middlebox::process_standalone(const net::Packet& data) {
  const dpi::Engine& engine = standalone_engine();
  dpi::FlowCursor cursor;
  if (profile_.stateful) {
    cursor = standalone_flows_.lookup(data.tuple);
  }
  const dpi::ScanResult scanned =
      engine.scan_packet(kSelfChain, data.payload, cursor);
  if (profile_.stateful) {
    standalone_flows_.update(data.tuple, scanned.cursor);
  }
  for (const dpi::MiddleboxMatches& m : scanned.matches) {
    if (m.middlebox == profile_.id) {
      return apply_report_entries(data, m.entries);
    }
  }
  return apply_report_entries(data, {});
}

std::vector<Verdict> Middlebox::process_standalone_batch(
    const std::vector<net::Packet>& packets) {
  std::vector<Verdict> verdicts;
  verdicts.reserve(packets.size());
  if (profile_.stateful) {
    // Cursor-carrying scans go through the flow table one packet at a time:
    // the engine's batch API does not allow one flow to appear twice in a
    // batch with caller-managed cursors.
    for (const net::Packet& packet : packets) {
      verdicts.push_back(process_standalone(packet));
    }
    return verdicts;
  }
  const dpi::Engine& engine = standalone_engine();
  std::vector<BytesView> payloads;
  payloads.reserve(packets.size());
  for (const net::Packet& packet : packets) {
    payloads.emplace_back(packet.payload);
  }
  const std::vector<dpi::ScanResult> scanned =
      engine.scan_batch(kSelfChain, payloads);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    bool applied = false;
    for (const dpi::MiddleboxMatches& m : scanned[i].matches) {
      if (m.middlebox == profile_.id) {
        verdicts.push_back(apply_report_entries(packets[i], m.entries));
        applied = true;
        break;
      }
    }
    if (!applied) {
      verdicts.push_back(apply_report_entries(packets[i], {}));
    }
  }
  return verdicts;
}

void Middlebox::reset_stats() {
  for (auto& [id, slot] : slots_) {
    slot.hits = 0;
    slot.hit = false;
  }
  total_hits_ = 0;
  packets_ = 0;
}

}  // namespace dpisvc::mbox
