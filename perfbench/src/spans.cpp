#include "spans.hpp"

#include <algorithm>
#include <cstdio>

#include "driver.hpp"

namespace perfbench {

std::uint32_t SpanRecorder::intern(const std::string& name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<std::uint32_t>(it - names_.begin());
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, std::uint32_t name,
                           std::uint32_t flow)
    : recorder_(recorder) {
  if (!recorder_.enabled_) return;
  index_ = static_cast<std::uint32_t>(recorder_.spans_.size());
  const std::uint32_t parent =
      recorder_.open_.empty() ? kNoParent : recorder_.open_.back();
  recorder_.spans_.push_back(Span{name, parent, flow, now_ns(), 0});
  recorder_.open_.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
  if (index_ == kNoParent) return;
  recorder_.spans_[index_].end = now_ns();
  recorder_.open_.pop_back();
}

SpanRecorder::Calibration SpanRecorder::calibrate() {
  constexpr std::size_t kRounds = 20000;
  SpanRecorder probe(true);
  const std::uint32_t name = probe.intern("calibration");
  probe.spans_.reserve(kRounds);
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < kRounds; ++i) Scope s(probe, name, 0);
  const std::uint64_t t1 = now_ns();
  Calibration cal;
  for (const Span& s : probe.spans_) {
    cal.inner_ns += static_cast<double>(s.end - s.start);
  }
  cal.inner_ns /= kRounds;
  cal.outer_ns = static_cast<double>(t1 - t0) / kRounds;
  return cal;
}

std::vector<SpanRecorder::Totals> SpanRecorder::totals(
    const Calibration& cal) const {
  // A child occupies its corrected duration plus the full recording cost
  // of the parent's interval.
  auto corrected = [&cal](const Span& s) {
    return std::max(0.0, static_cast<double>(s.end - s.start) - cal.inner_ns);
  };
  std::vector<double> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) child_ns[s.parent] += corrected(s) + cal.outer_ns;
  }
  std::vector<Totals> out(names_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double duration = corrected(spans_[i]);
    Totals& t = out[spans_[i].name];
    ++t.calls;
    t.total_ns += duration;
    t.self_ns += std::max(0.0, duration - child_ns[i]);
  }
  return out;
}

bool SpanRecorder::dump_json(const std::string& path,
                             std::size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"names\": [");
  for (std::size_t i = 0; i < names_.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", names_[i].c_str());
  }
  std::fprintf(f, "],\n\"recorded\": %zu,\n\"spans\": [\n", spans_.size());
  const std::uint64_t base = spans_.empty() ? 0 : spans_.front().start;
  const std::size_t n = std::min(max_spans, spans_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "[%u, %llu, %llu, %lld, %u]%s\n", s.name,
                 static_cast<unsigned long long>(s.start - base),
                 static_cast<unsigned long long>(s.end - base),
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 s.flow, i + 1 < n ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
