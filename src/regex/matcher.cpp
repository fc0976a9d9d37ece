#include "regex/matcher.hpp"

#include <cstring>
#include <utility>

namespace dpisvc::regex {

/// Per-thread VM state, reused across calls and across matchers: after the
/// first call with the largest program, stepping never allocates.
struct Matcher::Scratch {
  std::vector<std::uint32_t> stack;    ///< epsilon-closure work list
  std::vector<std::uint32_t> current;  ///< kByte pcs alive at pos
  std::vector<std::uint32_t> next;     ///< kByte pcs alive at pos + 1
  /// pc is in the list being built iff mark[pc] == generation. One array
  /// serves both lists: membership is only tested while building `next`.
  std::vector<std::uint64_t> mark;
  /// Bumped once per list built and never reset, so a tag left by an
  /// earlier step, call or matcher can never equal it. At one step per
  /// nanosecond a 64-bit counter wraps after ~584 years.
  std::uint64_t generation = 0;
  static_assert(sizeof(generation) == 8);

  void begin(std::vector<std::uint32_t>& list) noexcept {
    list.clear();
    ++generation;
  }
  bool add(std::uint32_t pc) noexcept {
    if (mark[pc] == generation) return false;
    mark[pc] = generation;
    return true;
  }
};

namespace {

/// Position-independent epsilon-closure for the construction-time analysis:
/// assertions are recorded, not followed. of() reuses one result and one
/// stack, so a walk allocates nothing once they have grown.
class ClosureWalker {
 public:
  explicit ClosureWalker(const Program& program)
      : code_(program.code()), mark_(program.size(), 0) {}

  struct Closure {
    std::vector<std::uint32_t> bytes;  ///< kByte pcs
    bool accepts = false;              ///< reaches kMatch
    bool asserts = false;              ///< reaches kLineStart / kLineEnd
  };

  /// Valid until the next call.
  const Closure& of(std::uint32_t pc) {
    ++stamp_;
    closure_.bytes.clear();
    closure_.accepts = false;
    closure_.asserts = false;
    stack_.assign(1, pc);
    while (!stack_.empty()) {
      const std::uint32_t at = stack_.back();
      stack_.pop_back();
      if (mark_[at] == stamp_) continue;
      mark_[at] = stamp_;
      const Inst& inst = code_[at];
      switch (inst.op) {
        case Op::kJmp:
          stack_.push_back(inst.x);
          break;
        case Op::kSplit:
          stack_.push_back(inst.x);
          stack_.push_back(inst.y);
          break;
        case Op::kLineStart:
        case Op::kLineEnd:
          closure_.asserts = true;
          break;
        case Op::kMatch:
          closure_.accepts = true;
          break;
        case Op::kByte:
          closure_.bytes.push_back(at);
          break;
      }
    }
    return closure_;
  }

 private:
  const std::vector<Inst>& code_;
  std::vector<std::uint32_t> mark_;
  std::uint32_t stamp_ = 0;
  std::vector<std::uint32_t> stack_;
  Closure closure_;
};

}  // namespace

Matcher::Matcher(Program program) : program_(std::move(program)) {
  const std::vector<Inst>& code = program_.code();
  ClosureWalker walker(program_);
  // While the closure is a single one-byte instruction, every match
  // continues with that byte. A closure with an assertion depends on the
  // position and one that accepts matches everywhere: both end the prefix,
  // and at pc 0 they leave it empty, so the program steps every byte. The
  // length bound stops a (non-accepting) cycle of such closures.
  const ClosureWalker::Closure* closure = &walker.of(0);
  while (!closure->accepts && !closure->asserts &&
         closure->bytes.size() == 1 && prefix_.size() < program_.size()) {
    const std::uint32_t pc = closure->bytes[0];
    const int byte = code[pc].cls.single();
    if (byte < 0) break;
    prefix_.push_back(static_cast<char>(byte));
    closure = &walker.of(pc + 1);
  }
}

bool Matcher::add_thread(Scratch& scratch, std::vector<std::uint32_t>& list,
                         std::uint32_t pc, std::size_t pos,
                         std::size_t len) const {
  const std::vector<Inst>& code = program_.code();
  // A consuming instruction is its own closure: the common literal step.
  if (code[pc].op == Op::kByte) {
    if (scratch.add(pc)) list.push_back(pc);
    return false;
  }
  // Iterative epsilon-closure; the dedup marks bound the work to
  // O(program size) per input position.
  std::vector<std::uint32_t>& stack = scratch.stack;
  stack.clear();
  stack.push_back(pc);
  bool matched = false;
  while (!stack.empty()) {
    const std::uint32_t at = stack.back();
    stack.pop_back();
    if (!scratch.add(at)) continue;
    const Inst& inst = code[at];
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
        list.push_back(at);  // Consumed by the step loop.
        break;
    }
  }
  return matched;
}

std::optional<std::size_t> Matcher::search_end(BytesView input) const {
  return search_end(input, 0);
}

std::optional<std::size_t> Matcher::search_end(BytesView input,
                                               std::size_t min_end) const {
  static thread_local Scratch scratch;
  if (scratch.mark.size() < program_.size()) {
    scratch.mark.resize(program_.size(), 0);
  }
  const std::vector<Inst>& code = program_.code();
  const std::size_t len = input.size();
  std::vector<std::uint32_t>& current = scratch.current;
  std::vector<std::uint32_t>& next = scratch.next;

  scratch.begin(current);
  // Unanchored search: seed a thread at program start for position 0 and for
  // every later position (below). Completions at or before min_end are
  // suppressed, not returned; the per-position seeds keep later matches
  // reachable.
  if (add_thread(scratch, current, 0, 0, len) && min_end == 0) return 0;

  for (std::size_t pos = 0; pos < len; ++pos) {
    // With a prefix, the seed closure is one kByte pc that every list
    // holds, and lists hold distinct pcs: size 1 means only the seed is
    // alive, and no match can start before the next prefix occurrence.
    if (!prefix_.empty() && current.size() == 1) {
      const void* hit = memmem(input.data() + pos, len - pos, prefix_.data(),
                               prefix_.size());
      if (hit == nullptr) return std::nullopt;
      pos = static_cast<std::size_t>(static_cast<const std::uint8_t*>(hit) -
                                     input.data());
    }
    const std::uint8_t byte = input[pos];
    scratch.begin(next);
    bool matched = false;
    for (std::uint32_t pc : current) {
      if (code[pc].cls.contains(byte)) {
        matched |= add_thread(scratch, next, pc + 1, pos + 1, len);
      }
    }
    // New thread starting at pos + 1 (unanchored).
    matched |= add_thread(scratch, next, 0, pos + 1, len);
    if (matched && pos + 1 > min_end) return pos + 1;
    std::swap(current, next);
  }
  return std::nullopt;
}

bool Matcher::search(BytesView input) const {
  return search_end(input).has_value();
}

bool Matcher::search(std::string_view input) const {
  return search(BytesView(reinterpret_cast<const std::uint8_t*>(input.data()),
                          input.size()));
}

bool regex_search(std::string_view pattern, std::string_view input,
                  const ParseOptions& options) {
  Matcher matcher(Program::compile(pattern, options));
  return matcher.search(input);
}

}  // namespace dpisvc::regex
