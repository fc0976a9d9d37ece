// Fuzz target: the table-driven inflater against the bit-at-a-time
// reference (tests/reference_inflate.*).
//
// Input layout: byte 0 picks the entry point (low two bits: 1 gzip, 2 zlib,
// otherwise raw inflate) and whether the output limit is tight (bit 2);
// bytes 1-2 are the tight limit (little-endian, 0..65535); the rest is the
// stream. Seeds: tools/gen_inflate_fixtures.py.
// Oracles:
//  * no crash / sanitizer report on any stream;
//  * same accept/reject outcome, same failure reason and message;
//  * byte-identical output and, for raw streams, the same consumed-byte
//    position (where a wrapper's trailer would start).
// Any divergence aborts.
#include <cstdint>
#include <cstdlib>

#include "common/bytes.hpp"
#include "compress/inflate.hpp"
#include "reference_inflate.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace dpisvc;
  using namespace dpisvc::compress;
  if (size < 3) return 0;
  const unsigned mode = data[0] & 3u;
  const auto wrapper = mode == 1   ? reference::Wrapper::kGzip
                       : mode == 2 ? reference::Wrapper::kZlib
                                   : reference::Wrapper::kRaw;
  InflateLimits limits;
  // The service's per-packet bound, or a tight one that trips mid-stream.
  limits.max_output = (data[0] & 4u) != 0
                          ? static_cast<std::size_t>(data[1] | (data[2] << 8))
                          : std::size_t{1} << 20;
  const BytesView stream(data + 3, size - 3);
  if (!reference::compare(reference::decode(true, wrapper, stream, limits),
                          reference::decode(false, wrapper, stream, limits))
           .empty()) {
    std::abort();
  }
  return 0;
}
