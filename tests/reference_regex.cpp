// Reference Pike VM: the matcher that shipped in src/regex before the
// prefix-skipping, allocation-free rewrite, kept verbatim as a test oracle.
// It seeds a thread at every input position, steps every byte, and
// allocates its thread lists per call and its closure stack per thread, so
// it is slow but a line-by-line Thompson simulation. The differential tests
// and fuzz_regex require regex::Matcher::search_end to agree with it on
// every program, input and min_end.
#include "reference_regex.hpp"

#include <sstream>

namespace dpisvc::regex::reference {

Matcher::Matcher(Program program) : program_(std::move(program)) {}

bool Matcher::add_thread(ThreadList& list, std::uint32_t pc, std::size_t pos,
                         std::size_t len) const {
  // Iterative epsilon-closure with an explicit stack; the dedup marks in
  // `list` bound the work to O(program size) per input position.
  std::vector<std::uint32_t> stack{pc};
  bool matched = false;
  while (!stack.empty()) {
    const std::uint32_t at = stack.back();
    stack.pop_back();
    if (!list.add(at)) continue;
    const Inst& inst = program_.code()[at];
    switch (inst.op) {
      case Op::kJmp:
        stack.push_back(inst.x);
        break;
      case Op::kSplit:
        stack.push_back(inst.x);
        stack.push_back(inst.y);
        break;
      case Op::kLineStart:
        if (pos == 0) stack.push_back(at + 1);
        break;
      case Op::kLineEnd:
        if (pos == len) stack.push_back(at + 1);
        break;
      case Op::kMatch:
        matched = true;
        break;
      case Op::kByte:
        break;  // Stays in the list; consumed by the step loop.
    }
  }
  return matched;
}

std::optional<std::size_t> Matcher::search_end(BytesView input,
                                               std::size_t min_end) const {
  ThreadList current;
  ThreadList next;
  current.mark.assign(program_.size(), 0);
  next.mark.assign(program_.size(), 0);

  current.begin_step();
  // Unanchored search: seed a thread at program start for position 0 and for
  // every later position (below). Completions at or before min_end are
  // suppressed, not returned; the per-position seeds keep later matches
  // reachable.
  if (add_thread(current, 0, 0, input.size()) && min_end == 0) return 0;

  for (std::size_t pos = 0; pos < input.size(); ++pos) {
    const std::uint8_t byte = input[pos];
    next.begin_step();
    bool matched = false;
    for (std::uint32_t pc : current.pcs) {
      const Inst& inst = program_.code()[pc];
      if (inst.op == Op::kByte && inst.cls.contains(byte)) {
        matched |= add_thread(next, pc + 1, pos + 1, input.size());
      }
    }
    // New thread starting at pos + 1 (unanchored).
    matched |= add_thread(next, 0, pos + 1, input.size());
    if (matched && pos + 1 > min_end) return pos + 1;
    std::swap(current, next);
  }
  return std::nullopt;
}

std::string compare(const regex::Matcher& fast, const Matcher& ref,
                    BytesView input, std::size_t min_end) {
  const std::optional<std::size_t> got = fast.search_end(input, min_end);
  const std::optional<std::size_t> want = ref.search_end(input, min_end);
  if (got == want) return {};
  auto show = [](const std::optional<std::size_t>& end) {
    return end ? std::to_string(*end) : std::string("none");
  };
  std::ostringstream out;
  out << "search_end(len " << input.size() << ", min_end " << min_end
      << "): matcher " << show(got) << ", reference " << show(want);
  return out.str();
}

}  // namespace dpisvc::regex::reference
