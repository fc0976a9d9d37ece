// In-memory span recorder for the traced run.
//
// A span is (name, start, end, parent, flow). Spans nest on one thread: a
// scope opened while another is open becomes its child. A span's self time
// is its duration minus the durations of its direct children, which tile
// part of its interval because children close before their parent.
//
// Recording costs two clock reads and a vector append per span, which the
// raw durations include. totals() removes a calibrated estimate of that
// cost: `inner` is what an empty span measures itself, `outer` what it adds
// to its parent's interval.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = kNoParent;
    std::uint32_t flow = 0;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
  };
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  struct Totals {
    std::uint64_t calls = 0;
    double total_ns = 0;
    double self_ns = 0;
  };

  struct Calibration {
    double inner_ns = 0;
    double outer_ns = 0;
  };

  /// A disabled recorder records nothing and reads no clock, so the same
  /// code path runs untraced.
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }

  /// Measures the recording cost with empty spans on a scratch recorder.
  static Calibration calibrate();

  void reserve(std::size_t spans) { spans_.reserve(spans); }

  /// Returns the id of `name`, registering it on first use.
  std::uint32_t intern(const std::string& name);

  /// Opens a span on construction and closes it on destruction.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::uint32_t name, std::uint32_t flow);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    std::uint32_t index_ = kNoParent;
  };

  /// Per-name call count, total duration and self time, with the
  /// recording cost `cal` removed.
  std::vector<Totals> totals(const Calibration& cal) const;

  /// Writes {"names": [...], "spans": [[name, start_ns, end_ns, parent,
  /// flow], ...], "recorded": N} with at most `max_spans` spans (the first
  /// ones; `recorded` gives the full count). Returns false if the file could
  /// not be written.
  bool dump_json(const std::string& path, std::size_t max_spans) const;

 private:
  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

}  // namespace perfbench
