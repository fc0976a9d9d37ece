// Test-only reference inflater (see reference_inflate.cpp): the oracle the
// table-driven decoder in src/compress is differentially tested against.
#pragma once

#include <string>

#include "common/bytes.hpp"
#include "compress/inflate.hpp"

namespace dpisvc::compress::reference {

/// Raw DEFLATE stream at the start of the buffer: output plus the input
/// bytes the stream spanned.
InflateResult inflate_prefix(BytesView deflate_stream,
                             const InflateLimits& limits = {});

Bytes zlib_decompress(BytesView stream, const InflateLimits& limits = {});

Bytes gzip_decompress(BytesView stream, const InflateLimits& limits = {});

// --- differential check -----------------------------------------------------------

enum class Wrapper { kRaw, kGzip, kZlib };

/// What one decoder did with one input.
struct Outcome {
  bool ok = false;
  InflateFailure reason = InflateFailure::kCorrupt;
  std::string what;
  Bytes output;
  std::size_t consumed = 0;  ///< raw streams only
};

/// Decodes `input` with the reference (`use_reference`) or the production
/// decoder.
Outcome decode(bool use_reference, Wrapper wrapper, BytesView input,
               const InflateLimits& limits);

/// Empty when the decoders agree on outcome, failure reason and message,
/// output and consumed position; otherwise what differs.
std::string compare(const Outcome& want, const Outcome& got);

}  // namespace dpisvc::compress::reference
