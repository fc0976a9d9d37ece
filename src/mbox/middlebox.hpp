// Middlebox framework (§3, §4.1).
//
// "Abstractly, middleboxes operate by rules that contain actions, and
// conditions that should be satisfied to activate the actions. Some of the
// conditions are based on patterns in the packet's content. The DPI service
// responsibility is only to indicate appearances of patterns, while
// resolving the logic behind a condition and performing the action itself
// is the middlebox's responsibility."
//
// A Middlebox holds pattern-conditioned rules and supports both operating
// modes the paper compares:
//  - *service mode*: match results arrive from the DPI service
//    (apply_report_entries) — the middlebox never scans payloads;
//  - *standalone mode*: the middlebox runs its own private DPI engine over
//    its own pattern set (process_standalone) — the baseline configuration
//    of Figures 2(a)/3(a).
//
// attach() performs the §4.1 handshake against a DpiController using the
// JSON protocol (registration + pattern upload), exactly as an external
// middlebox process would over the control channel.
//
// Subclasses (boxes.hpp) give the concrete middlebox types of Table 1 their
// action semantics via the on_rule_hit/on_packet_done hooks.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dpi/engine.hpp"
#include "dpi/flow_table.hpp"
#include "dpi/types.hpp"
#include "net/packet.hpp"
#include "net/result.hpp"
#include "service/controller.hpp"
#include "service/messages.hpp"

namespace dpisvc::mbox {

/// Action severity; when several rules hit one packet the strongest wins.
enum class Verdict {
  kPass = 0,
  kShape = 1,
  kAlert = 2,
  kQuarantine = 3,
  kDrop = 4,
};

const char* verdict_name(Verdict verdict) noexcept;

struct RuleSpec {
  dpi::PatternId id = 0;
  std::string description;
  Verdict verdict = Verdict::kAlert;
  /// Exactly one of `exact` / `regex` must be non-empty.
  std::string exact;  ///< raw pattern bytes
  std::string regex;  ///< regular expression
  bool case_insensitive = false;
  /// Small subclass-interpreted payload: rate class for a traffic shaper,
  /// backend index for a load balancer, severity for an IDS, ...
  int rule_class = 0;
};

class Middlebox {
 public:
  explicit Middlebox(dpi::MiddleboxProfile profile);
  virtual ~Middlebox() = default;

  Middlebox(const Middlebox&) = delete;
  Middlebox& operator=(const Middlebox&) = delete;

  const dpi::MiddleboxProfile& profile() const noexcept { return profile_; }

  /// Adds a rule; throws std::invalid_argument on duplicate id or a rule
  /// with neither/both pattern kinds.
  void add_rule(RuleSpec rule);

  const RuleSpec* find_rule(dpi::PatternId id) const noexcept;
  std::size_t num_rules() const noexcept { return rules_.size(); }

  // --- control plane (§4.1) ------------------------------------------------

  service::RegisterRequest registration() const;
  service::AddPatternsRequest pattern_upload() const;

  /// Registers this middlebox and uploads its patterns to the controller
  /// over the JSON channel. Throws std::runtime_error on an error response.
  void attach(service::DpiController& controller);

  // --- data plane -------------------------------------------------------------

  /// Service mode: applies the DPI service's match entries for this
  /// middlebox to the packet. Returns the strongest verdict triggered.
  Verdict apply_report_entries(const net::Packet& data,
                               const std::vector<net::MatchEntry>& entries);

  /// Zero-copy service-mode batch verdicts for the ingest pipeline: applies
  /// this middlebox's section of each scan result, with flows[i] naming
  /// packet i's five-tuple. The rule hooks receive a header-only packet
  /// context — in service mode the DPI service already scanned the payload,
  /// so no hook reads payload bytes and the batch's arena bytes are never
  /// copied here. Verdicts are returned in batch order. Throws
  /// std::invalid_argument when the vectors' sizes differ.
  std::vector<Verdict> apply_report_batch(
      const std::vector<net::FiveTuple>& flows,
      const std::vector<dpi::ScanResult>& results);

  /// Standalone mode: scans the payload with this middlebox's private
  /// engine (compiled lazily from its own rules) and applies the matches.
  Verdict process_standalone(const net::Packet& data);

  /// Batched standalone processing: stateless middleboxes scan the whole
  /// vector through the engine's batch API (one chain resolution and
  /// automaton dispatch for all packets); stateful ones fall back to the
  /// per-packet path, whose flow table serializes same-flow cursors.
  /// Verdicts are returned in submission order.
  std::vector<Verdict> process_standalone_batch(
      const std::vector<net::Packet>& packets);

  /// Direct access to the private engine (benchmarks compare its throughput
  /// against the shared service engine).
  const dpi::Engine& standalone_engine();

  // --- statistics ---------------------------------------------------------------

  std::uint64_t packets_processed() const noexcept { return packets_; }
  std::uint64_t total_rule_hits() const noexcept { return total_hits_; }
  /// Hit count per rule id, for the rules hit at least once since the last
  /// reset_stats().
  std::map<dpi::PatternId, std::uint64_t> hits_by_rule() const;
  void reset_stats();

 protected:
  /// Subclass hook: one rule hit on one packet (entry runs are expanded by
  /// run_length before this is called once per entry, not per position).
  virtual void on_rule_hit(const RuleSpec& rule, const net::MatchEntry& entry,
                           const net::Packet& data);

  /// Subclass hook: packet fully evaluated with its final verdict.
  virtual void on_packet_done(const net::Packet& data, Verdict verdict);

 private:
  void invalidate_engine() noexcept { standalone_engine_.reset(); }

  /// The data-plane view of one rule: apply_report_entries resolves a
  /// match entry with one hash lookup and counts the hit in place.
  struct RuleSlot {
    const RuleSpec* rule = nullptr;  ///< node of rules_ (stable address)
    std::uint64_t hits = 0;
    bool hit = false;  ///< hit since the last reset_stats()
  };

  dpi::MiddleboxProfile profile_;
  /// Id order: registration, pattern upload and the standalone engine
  /// iterate it.
  std::map<dpi::PatternId, RuleSpec> rules_;
  std::unordered_map<dpi::PatternId, RuleSlot> slots_;

  std::uint64_t total_hits_ = 0;
  std::uint64_t packets_ = 0;

  // Standalone-mode engine over this middlebox's own pattern set.
  std::shared_ptr<const dpi::Engine> standalone_engine_;
  dpi::FlowTable standalone_flows_;
};

}  // namespace dpisvc::mbox
