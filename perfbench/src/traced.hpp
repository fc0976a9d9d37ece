// The traced run: per-layer metrics measured from outside the service.
//
// A single-threaded replay feeds the workload's packets through the same
// public functions DpiInstance::process_batch() calls, in the same stage
// order (IpDefragmenter::feed, FlowReassembler::feed, looks_like_gzip +
// gzip_decompress, FlowTable::lookup, Engine::scan_packet,
// FlowTable::update, encode_report), then delivers like the driver
// (decode_report, Middlebox::apply_report_entries), with a span around
// every call. Service-level figures come from real process_batch() loops at
// one worker and at the full worker count, read through the instance's own
// obs instruments.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "reference.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct TracedRun {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable breakdown lines
  PassOutcome outcome;             ///< every verified pass of the run
};

TracedRun traced_run(Workload& workload,
                     const std::shared_ptr<const dpi::Engine>& engine,
                     double seconds, std::size_t workers,
                     const std::string& spans_path);

}  // namespace perfbench
