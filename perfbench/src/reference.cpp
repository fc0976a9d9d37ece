#include "reference.hpp"

#include <algorithm>
#include <map>

namespace perfbench {

namespace {

// Middlebox::standalone_engine() registers its rules on this chain id.
constexpr dpi::ChainId kSelfChain = 1;

void sort_unique(std::vector<std::uint32_t>& keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
}

}  // namespace

Probe compute_reference(Workload& w) {
  Probe probe;
  std::size_t units = 0;
  std::size_t matchless_units = 0;
  std::vector<const dpi::Engine*> engines;
  for (const auto& box : w.boxes) engines.push_back(&box->standalone_engine());

  for (std::uint32_t f = 0; f < w.flows.size(); ++f) {
    FlowInfo& flow = w.flows[f];
    std::map<std::uint32_t, std::uint64_t> counts;
    std::vector<bool> unit_hit(flow.units.size(), false);
    for (std::size_t b = 0; b < w.boxes.size(); ++b) {
      const dpi::MiddleboxProfile& p = w.boxes[b]->profile();
      dpi::FlowCursor cursor;
      for (std::size_t u = 0; u < flow.units.size(); ++u) {
        const dpi::ScanResult r = engines[b]->scan_packet(
            kSelfChain, BytesView(flow.units[u]),
            p.stateful ? cursor : dpi::FlowCursor{});
        if (p.stateful) cursor = r.cursor;
        for (const dpi::MiddleboxMatches& m : r.matches) {
          for (const net::MatchEntry& e : m.entries) {
            counts[hit_key(p.id, e.pattern_id)] += e.run_length;
            unit_hit[u] = true;
          }
        }
      }
    }
    for (const auto& [key, n] : counts) {
      flow.expected.push_back(key);
      if (!probe.valid && !flow.known_miss && n == 1) {
        probe = Probe{true, f, key};
      }
    }
    for (const Bytes& u : flow.units) flow.meant_bytes += u.size();
    units += flow.units.size();
    matchless_units += static_cast<std::size_t>(
        std::count(unit_hit.begin(), unit_hit.end(), false));
    flow.units.clear();
    flow.units.shrink_to_fit();
  }
  w.props.matchless_share =
      static_cast<double>(matchless_units) / static_cast<double>(units);
  return probe;
}

PassCheck::PassCheck(const Workload& workload)
    : workload_(workload), delivered_(workload.flows.size()) {}

void PassCheck::begin_pass(const Probe& probe) {
  for (auto& d : delivered_) d.clear();
  probe_ = probe;
  probe_pending_ = probe.valid;
}

const std::vector<net::MatchEntry>& PassCheck::deliver(
    std::uint32_t flow, dpi::MiddleboxId box,
    const std::vector<net::MatchEntry>& entries) {
  const std::vector<net::MatchEntry>* out = &entries;
  if (probe_pending_ && flow == probe_.flow) {
    filtered_.clear();
    for (const net::MatchEntry& e : entries) {
      if (probe_pending_ && hit_key(box, e.pattern_id) == probe_.key) {
        probe_pending_ = false;  // drop exactly one delivered hit
        continue;
      }
      filtered_.push_back(e);
    }
    out = &filtered_;
  }
  std::vector<std::uint32_t>& d = delivered_[flow];
  for (const net::MatchEntry& e : *out) d.push_back(hit_key(box, e.pattern_id));
  return *out;
}

PassOutcome PassCheck::finish_pass() {
  PassOutcome o;
  for (std::uint32_t f = 0; f < delivered_.size(); ++f) {
    const FlowInfo& flow = workload_.flows[f];
    sort_unique(delivered_[f]);
    o.packets += flow.packets;
    if (delivered_[f] == flow.expected) {
      o.verified += flow.packets;
      continue;
    }
    o.failed += flow.packets;
    ++o.failed_flows;
    if (probe_.valid && f == probe_.flow) {
      o.probe_failed = true;
    } else if (!flow.known_miss) {
      ++o.unexpected_flows;
    }
  }
  return o;
}

}  // namespace perfbench
