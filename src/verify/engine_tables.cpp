#include "verify/engine_tables.hpp"

#include <set>
#include <variant>

#include "regex/anchors.hpp"
#include "regex/parser.hpp"

namespace dpisvc::verify {

EngineTables extract_tables(const dpi::Engine& engine) {
  EngineTables tables;
  tables.automaton_accepting = std::visit(
      [](const auto& a) { return a.num_accepting(); }, engine.automaton());
  for (ac::StateIndex s = 0; s < engine.num_accepting_states(); ++s) {
    tables.accept_bitmaps.push_back(engine.accept_bitmap(s));
    tables.accept_targets.push_back(engine.accept_targets(s));
  }
  for (const auto& profile : engine.middleboxes()) {
    tables.middleboxes.push_back(profile.id);
  }
  for (const auto& [chain, info] : engine.chain_table()) {
    tables.chains[chain] = info.members;
    tables.chain_bitmaps[chain] = info.active;
  }
  return tables;
}

Patterns derive_string_table(const dpi::EngineSpec& spec,
                             const dpi::EngineConfig& config) {
  // Mirrors the distinct-string collection of Engine::compile — on purpose
  // re-derived here, so a compile-side mapping bug shows up as an oracle
  // divergence instead of being trusted.
  std::set<std::string> strings;
  for (const auto& pat : spec.exact_patterns) {
    strings.insert(pat.bytes);
  }
  for (const auto& re : spec.regex_patterns) {
    regex::ParseOptions popts;
    popts.case_insensitive = re.case_insensitive;
    regex::NodePtr ast = regex::parse(re.expression, popts);
    regex::AnchorOptions aopts;
    aopts.min_length = config.anchor_min_length;
    for (std::string& anchor : regex::extract_anchors(*ast, aopts)) {
      strings.insert(std::move(anchor));
    }
  }
  return {strings.begin(), strings.end()};
}

}  // namespace dpisvc::verify
