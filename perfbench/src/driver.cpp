#include "driver.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <thread>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

Driver::Driver(Workload& workload, PassCheck& check)
    : workload_(workload), check_(check) {}

void Driver::build(std::size_t begin, std::size_t end, std::uint32_t pass,
                   std::vector<net::Packet>& out) const {
  out.clear();
  out.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    const TemplatePacket& t = workload_.packets[i];
    out.push_back(t.packet);
    out.back().tuple = flow_tuple(t.flow, pass);
  }
}

void Driver::deliver(std::size_t begin,
                     std::vector<service::ProcessOutput>& outs,
                     std::vector<std::uint64_t>* done) {
  for (std::size_t k = 0; k < outs.size(); ++k) {
    service::ProcessOutput& out = outs[k];
    if (out.result) {
      const std::uint32_t flow = workload_.packets[begin + k].flow;
      const net::MatchReport report =
          net::decode_report(out.result->service_header->metadata);
      // Every middlebox on the chain evaluates the packet against its own
      // section (empty when the service found nothing for it).
      static const std::vector<net::MatchEntry> kNone;
      for (const auto& box : workload_.boxes) {
        const std::vector<net::MatchEntry>* entries = &kNone;
        for (const net::MiddleboxSection& s : report.sections) {
          if (s.middlebox_id == box->profile().id) entries = &s.entries;
        }
        box->apply_report_entries(
            out.data, check_.deliver(flow, box->profile().id, *entries));
      }
      if (done != nullptr) (*done)[k] = now_ns();
    }
  }
}

PassOutcome Driver::warmup(service::DpiInstance& instance,
                           const Probe& probe) {
  const std::uint32_t pass = next_pass_++;
  const std::size_t n = workload_.packets.size();
  check_.begin_pass(probe);
  std::vector<net::Packet> batch;
  for (std::size_t i = 0; i < n; i += kBatch) {
    const std::size_t end = std::min(n, i + kBatch);
    build(i, end, pass, batch);
    std::vector<service::ProcessOutput> outs =
        instance.process_batch(std::move(batch));
    deliver(i, outs, nullptr);
  }
  return check_.finish_pass();
}

LoopResult Driver::closed_loop(service::DpiInstance& instance,
                               double seconds) {
  LoopResult r;
  const std::size_t n = workload_.packets.size();
  std::vector<net::Packet> batch;
  const std::uint64_t start = now_ns();
  const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
  do {
    const std::uint32_t pass = next_pass_++;
    check_.begin_pass();
    std::uint64_t wall_ns = 0;
    std::uint64_t cpu_ns = 0;
    for (std::size_t i = 0; i < n; i += kBatch) {
      const std::size_t end = std::min(n, i + kBatch);
      build(i, end, pass, batch);
      const std::uint64_t c0 = process_cpu_ns();
      const std::uint64_t t0 = now_ns();
      std::vector<service::ProcessOutput> outs =
          instance.process_batch(std::move(batch));
      r.batch_ns.push_back(now_ns() - t0);
      deliver(i, outs, nullptr);
      wall_ns += now_ns() - t0;
      cpu_ns += process_cpu_ns() - c0;
    }
    r.pass_pps.push_back(static_cast<double>(n) * 1e9 /
                         static_cast<double>(wall_ns));
    r.pass_cpu_us_per_pkt.push_back(static_cast<double>(cpu_ns) * 1e-3 /
                                    static_cast<double>(n));
    r.outcome.add(check_.finish_pass());
    ++r.passes;
  } while (now_ns() - start < budget);
  r.seconds = static_cast<double>(now_ns() - start) * 1e-9;
  return r;
}

LoopResult Driver::open_loop(service::DpiInstance& instance, double rate,
                             double seconds) {
  LoopResult r;
  const std::size_t n = workload_.packets.size();
  const std::uint64_t passes = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(rate * seconds / static_cast<double>(n) + 0.5));
  const std::uint64_t total = passes * n;
  const double gap_ns = 1e9 / rate;
  r.latency_us.reserve(total);
  std::vector<net::Packet> batch;
  std::vector<std::uint64_t> done(kBatch);
  const std::uint64_t start = now_ns() + 1000000;  // first arrival in 1 ms
  auto due = [&](std::uint64_t j) {
    return start + static_cast<std::uint64_t>(static_cast<double>(j) * gap_ns);
  };
  std::uint32_t pass = 0;
  std::uint64_t j = 0;
  while (j < total) {
    const std::size_t i = j % n;
    if (i == 0) {
      pass = next_pass_++;
      check_.begin_pass();
    }
    std::uint64_t now = now_ns();
    const std::uint64_t first = due(j);
    if (first > now) {
      // Sleep through long gaps, then spin for the last stretch.
      if (first - now > 200000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(first - now - 100000));
      }
      while ((now = now_ns()) < first) {
      }
    }
    // Every packet due by now, up to one batch and the end of the pass.
    const auto arrived = std::min<std::uint64_t>(
        total, static_cast<std::uint64_t>(static_cast<double>(now - start) / gap_ns) + 1);
    std::uint64_t overdue = arrived > j ? arrived - j : 1;
    while (overdue > 1 && due(j + overdue - 1) > now) --overdue;
    r.backlog_max = std::max(r.backlog_max, overdue);
    r.late_ms_max =
        std::max(r.late_ms_max, static_cast<double>(now - first) * 1e-6);
    const std::size_t end = std::min<std::size_t>(
        {n, i + kBatch, i + static_cast<std::size_t>(overdue)});
    build(i, end, pass, batch);
    std::vector<service::ProcessOutput> outs =
        instance.process_batch(std::move(batch));
    const std::uint64_t returned = now_ns();
    std::fill(done.begin(), done.begin() + static_cast<std::ptrdiff_t>(outs.size()),
              returned);
    deliver(i, outs, &done);
    for (std::size_t k = 0; k < outs.size(); ++k) {
      r.latency_us.push_back(
          static_cast<float>(static_cast<double>(done[k] - due(j + k)) * 1e-3));
    }
    j += outs.size();
    if (j % n == 0) {
      r.outcome.add(check_.finish_pass());
      ++r.passes;
    }
  }
  r.seconds = static_cast<double>(now_ns() - start) * 1e-9;
  return r;
}

}  // namespace perfbench
