// Fuzz target: the prefix-skipping Pike VM against the reference VM
// (tests/reference_regex.*).
//
// Input layout: byte 0 bit 0 turns on case-insensitive parsing; byte 1 is
// a min_end; the pattern runs from byte 2 to the first NUL byte (at most
// 256 bytes), and the bytes after that NUL are the haystack.
// Oracles:
//  * parsing either succeeds or throws regex::SyntaxError;
//  * regex::Matcher::search_end equals the reference's answer for the
//    given min_end, for 0, and for the haystack length.
// Any divergence aborts.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "common/bytes.hpp"
#include "reference_regex.hpp"
#include "regex/matcher.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace dpisvc;
  if (size < 2) return 0;
  const auto* nul = static_cast<const std::uint8_t*>(
      std::memchr(data + 2, 0, size - 2));
  if (nul == nullptr) return 0;
  const std::string_view pattern(reinterpret_cast<const char*>(data + 2),
                                 static_cast<std::size_t>(nul - data - 2));
  if (pattern.size() > 256) return 0;
  regex::ParseOptions options;
  options.case_insensitive = (data[0] & 1u) != 0;
  // Keeps programs small enough for the allocation-heavy reference.
  options.max_counted_repeat = 64;
  regex::Program program;
  try {
    program = regex::Program::compile(pattern, options);
  } catch (const regex::SyntaxError&) {
    return 0;
  }
  const regex::Matcher fast(program);
  const regex::reference::Matcher ref(program);
  const BytesView input(nul + 1, static_cast<std::size_t>(data + size - nul - 1));
  for (std::size_t min_end : {std::size_t{data[1]}, std::size_t{0}, input.size()}) {
    if (!regex::reference::compare(fast, ref, input, min_end).empty()) {
      std::abort();
    }
  }
  return 0;
}
