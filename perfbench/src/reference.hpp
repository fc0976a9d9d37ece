// Correctness reference and the per-pass delivery check.
//
// The reference is computed before any timing: for every flow, each
// middlebox on the chain scans the bytes the sender meant with its own
// standalone engine (Middlebox::standalone_engine), statelessly per unit or
// with a carried cursor across the flow's units, as that middlebox
// registered. A flow passes when the set of (middlebox, rule) hits the
// service delivered to the middleboxes equals that reference set.
//
// Hits are compared as sets: the engine reports at most one match per regex
// per scanned chunk, and reassembly may merge two reordered segments into
// one chunk, so hit counts depend on segmentation while the set of rules a
// flow triggers does not.
#pragma once

#include <cstdint>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

inline std::uint32_t hit_key(dpi::MiddleboxId box, dpi::PatternId rule) {
  return (std::uint32_t{box} << 16) | rule;
}

/// A delivered hit the self-test removes: the one occurrence of `key` in
/// flow `flow` (the reference finds that rule exactly once in the flow).
struct Probe {
  bool valid = false;
  std::uint32_t flow = 0;
  std::uint32_t key = 0;
};

/// Fills FlowInfo::expected and meant_bytes plus Properties::matchless_share,
/// then frees the units. Returns the self-test probe.
Probe compute_reference(Workload& workload);

struct PassOutcome {
  std::uint64_t packets = 0;
  std::uint64_t verified = 0;  ///< packets of flows matching the reference
  std::uint64_t failed = 0;    ///< packets of flows that do not
  std::uint64_t failed_flows = 0;
  /// Failed flows outside the known-missed shapes: a correctness failure.
  std::uint64_t unexpected_flows = 0;
  /// Whether the probe flow, if one was armed, failed.
  bool probe_failed = false;

  void add(const PassOutcome& o) {
    packets += o.packets;
    verified += o.verified;
    failed += o.failed;
    failed_flows += o.failed_flows;
    unexpected_flows += o.unexpected_flows;
  }
};

/// Collects one pass's delivered hits per flow and compares them with the
/// reference when the pass ends.
class PassCheck {
 public:
  explicit PassCheck(const Workload& workload);

  /// Starts a pass. With `probe` valid, the one delivered hit it names is
  /// dropped before the middleboxes see it.
  void begin_pass(const Probe& probe = {});

  /// Filters `entries` for middlebox `box` of packet flow `flow` (the probe
  /// drop) and records the survivors. Returns the entries to deliver.
  const std::vector<net::MatchEntry>& deliver(
      std::uint32_t flow, dpi::MiddleboxId box,
      const std::vector<net::MatchEntry>& entries);

  PassOutcome finish_pass();

 private:
  const Workload& workload_;
  std::vector<std::vector<std::uint32_t>> delivered_;
  Probe probe_;
  bool probe_pending_ = false;
  std::vector<net::MatchEntry> filtered_;
};

}  // namespace perfbench
