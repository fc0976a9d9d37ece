// Load generation through the service's batched data path.
//
// The driver is one thread. It builds full net::Packets from the workload's
// templates, hands them to DpiInstance::process_batch() as the batched
// InstanceNode does, and delivers each result packet to the chain's
// middleboxes through net::decode_report + Middlebox::apply_report_entries
// as MiddleboxNode does. It blocks inside each process_batch(), so at most
// num_workers threads are ever runnable.
//
// Besides wall time the closed loop reads the process's CPU clock (all
// threads), which does not advance while the host takes a vCPU away
// (steal) or while workers are parked.
#pragma once

#include <cstdint>
#include <vector>

#include "reference.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Packets per process_batch() call in the closed loop, and the most the
/// open loop hands over in one call.
inline constexpr std::size_t kBatch = 64;

struct LoopResult {
  PassOutcome outcome;
  double seconds = 0;
  std::uint64_t passes = 0;
  /// Duration of every process_batch() call (closed loop only).
  std::vector<std::uint64_t> batch_ns;
  /// Per pass (closed loop only), over the process_batch() calls and their
  /// delivery: packets per second of wall time, and microseconds of process
  /// CPU time (all threads) per packet. Building the packets and the
  /// per-pass reference check are not timed.
  std::vector<double> pass_pps;
  std::vector<double> pass_cpu_us_per_pkt;
  /// Per packet in arrival order: scheduled arrival to verdict (open loop
  /// only).
  std::vector<float> latency_us;
  double late_ms_max = 0;           ///< open loop: most overdue submission
  std::uint64_t backlog_max = 0;    ///< open loop: most packets overdue at once
};

class Driver {
 public:
  Driver(Workload& workload, PassCheck& check);

  /// One untimed pass. With `probe` armed, the probe's hit is dropped on
  /// delivery; returns the pass outcome.
  PassOutcome warmup(service::DpiInstance& instance, const Probe& probe);

  /// Whole passes back to back until `seconds` have elapsed: the next batch
  /// is submitted when the previous one has been delivered.
  LoopResult closed_loop(service::DpiInstance& instance, double seconds);

  /// Whole passes offered at `rate` packets per second, covering about
  /// `seconds`. Each call hands over every packet already due, at most
  /// kBatch and never across a pass boundary.
  LoopResult open_loop(service::DpiInstance& instance, double rate,
                       double seconds);

 private:
  void build(std::size_t begin, std::size_t end, std::uint32_t pass,
             std::vector<net::Packet>& out) const;
  /// Delivers results of packets [begin, begin + outs.size()); when `done`
  /// is non-null, stores each packet's verdict time into it.
  void deliver(std::size_t begin,
               std::vector<service::ProcessOutput>& outs,
               std::vector<std::uint64_t>* done);

  Workload& workload_;
  PassCheck& check_;
  std::uint32_t next_pass_ = 0;
};

/// steady_clock in nanoseconds.
std::uint64_t now_ns();

/// CPU time of every thread of the process (CLOCK_PROCESS_CPUTIME_ID) in
/// nanoseconds.
std::uint64_t process_cpu_ns();

}  // namespace perfbench
