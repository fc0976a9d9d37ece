// Robustness tests: every parser that consumes wire input (packet frames,
// match reports, JSON control messages, serialized automata, compressed
// payloads, trace files) must reject arbitrary corruption with an exception
// — never crash, hang, or silently mis-parse. These are seeded-random
// mutation tests ("poor man's fuzzing") plus targeted stress cases.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "compress/deflate.hpp"
#include "compress/inflate.hpp"
#include "json/json.hpp"
#include "net/packet.hpp"
#include "net/result.hpp"
#include "service/controller.hpp"
#include "workload/trace_io.hpp"
#include "workload/traffic_gen.hpp"

namespace dpisvc {
namespace {

/// Applies `n` random byte mutations (flip, truncate, extend).
Bytes mutate(const Bytes& input, Rng& rng, int n = 3) {
  Bytes out = input;
  for (int i = 0; i < n; ++i) {
    if (out.empty()) {
      out.push_back(static_cast<std::uint8_t>(rng.uniform(0, 255)));
      continue;
    }
    switch (rng.index(4)) {
      case 0:  // bit flip
        out[rng.index(out.size())] ^=
            static_cast<std::uint8_t>(1u << rng.index(8));
        break;
      case 1:  // byte overwrite
        out[rng.index(out.size())] =
            static_cast<std::uint8_t>(rng.uniform(0, 255));
        break;
      case 2:  // truncate
        out.resize(rng.index(out.size() + 1));
        break;
      case 3:  // append garbage
        out.push_back(static_cast<std::uint8_t>(rng.uniform(0, 255)));
        break;
    }
  }
  return out;
}

net::Packet sample_packet() {
  net::Packet p;
  p.tuple.src_ip = net::Ipv4Addr(10, 0, 0, 1);
  p.tuple.dst_ip = net::Ipv4Addr(10, 0, 0, 2);
  p.tuple.src_port = 1234;
  p.tuple.dst_port = 80;
  p.payload = to_bytes("some payload content here");
  p.push_tag(net::TagKind::kPolicyChain, 3);
  net::ServiceHeader sh;
  sh.service_path_id = 9;
  sh.metadata = {1, 2, 3};
  p.service_header = sh;
  return p;
}

TEST(Robustness, PacketFromWireNeverCrashes) {
  Rng rng(101);
  const Bytes wire = sample_packet().to_wire();
  int parsed = 0;
  for (int i = 0; i < 3000; ++i) {
    const Bytes corrupted = mutate(wire, rng);
    try {
      const net::Packet p = net::Packet::from_wire(corrupted);
      ++parsed;  // mutation happened to stay valid (e.g. payload bytes)
      // Whatever parsed must re-serialize without crashing.
      (void)p.to_wire();
    } catch (const std::invalid_argument&) {
    } catch (const std::out_of_range&) {
    }
  }
  // The checksum catches most single-bit header flips; payload-only
  // mutations may legitimately survive.
  EXPECT_LT(parsed, 3000);
}

TEST(Robustness, PacketFromRandomBytesNeverCrashes) {
  Rng rng(102);
  for (int i = 0; i < 2000; ++i) {
    Bytes garbage(rng.index(200));
    for (auto& b : garbage) {
      b = static_cast<std::uint8_t>(rng.uniform(0, 255));
    }
    try {
      (void)net::Packet::from_wire(garbage);
    } catch (const std::invalid_argument&) {
    } catch (const std::out_of_range&) {
    }
  }
}

TEST(Robustness, ReportDecodeNeverCrashes) {
  Rng rng(103);
  net::MatchReport report;
  report.policy_chain_id = 1;
  report.sections.push_back(
      net::MiddleboxSection{1,
                            {net::MatchEntry{1, 10, 1},
                             net::MatchEntry{2, 20, 5}}});
  const Bytes encoded = net::encode_report(report, net::ReportCodec::kUniform6);
  for (int i = 0; i < 3000; ++i) {
    try {
      (void)net::decode_report(mutate(encoded, rng));
    } catch (const std::invalid_argument&) {
    } catch (const std::out_of_range&) {
    }
  }
}

TEST(Robustness, JsonParseNeverCrashes) {
  Rng rng(104);
  const std::string base =
      R"({"type":"add_patterns","middlebox_id":3,)"
      R"("exact":[{"rule":1,"hex":"6576696c"}],"regex":[]})";
  const Bytes base_bytes = to_bytes(base);
  for (int i = 0; i < 3000; ++i) {
    const Bytes corrupted = mutate(base_bytes, rng);
    try {
      (void)json::parse(as_text(corrupted));
    } catch (const json::ParseError&) {
    }
  }
}

TEST(Robustness, InflateNeverCrashesOrHangs) {
  Rng rng(106);
  const Bytes packed = compress::gzip_compress(
      to_bytes("compressible compressible compressible content"));
  compress::InflateLimits limits;
  limits.max_output = 1 << 16;  // bound work per attempt
  for (int i = 0; i < 2000; ++i) {
    try {
      (void)compress::gzip_decompress(mutate(packed, rng), limits);
    } catch (const compress::InflateError&) {
    }
  }
  // Raw random bytes as a deflate stream.
  for (int i = 0; i < 2000; ++i) {
    Bytes garbage(rng.index(100));
    for (auto& b : garbage) {
      b = static_cast<std::uint8_t>(rng.uniform(0, 255));
    }
    try {
      (void)compress::inflate(garbage, limits);
    } catch (const compress::InflateError&) {
    }
  }
}

TEST(Robustness, ControllerChannelNeverThrowsOnMutatedMessages) {
  // The DPI controller's control channel promises to answer any parseable
  // message — however malformed — with a well-formed response, never an
  // exception (§4.1 registration protocol). Mutate real registration and
  // deregistration traffic and hold it to that.
  Rng rng(108);
  service::DpiController controller;
  const std::vector<std::string> bases = {
      R"({"type":"register","middlebox_id":7,"name":"ids","stateful":true})",
      R"({"type":"unregister","middlebox_id":7})",
      R"({"type":"add_patterns","middlebox_id":7,)"
      R"("exact":[{"rule":1,"hex":"6576696c"}],"regex":[]})",
      R"({"type":"remove_patterns","middlebox_id":7,"rules":[1]})",
  };
  int handled = 0;
  for (int i = 0; i < 2000; ++i) {
    const Bytes corrupted = mutate(to_bytes(bases[i % bases.size()]), rng);
    json::Value message;
    try {
      message = json::parse(as_text(corrupted));
    } catch (const json::ParseError&) {
      continue;  // never reached the controller
    }
    const json::Value reply = controller.handle_message(message);
    ++handled;
    // Every reply is a well-formed {"ok":bool[,"error":string]} object.
    ASSERT_TRUE(reply.is_object());
    const json::Value ok = reply.get_or("ok", json::Value(nullptr));
    ASSERT_TRUE(ok.is_bool());
    if (!ok.as_bool()) {
      ASSERT_TRUE(reply.get_or("error", json::Value(nullptr)).is_string());
    }
  }
  EXPECT_GT(handled, 0);  // some mutants must have survived parsing
}

TEST(Robustness, TraceFromBytesNeverCrashes) {
  Rng rng(107);
  workload::TrafficConfig config;
  config.num_packets = 5;
  const Bytes blob =
      workload::trace_to_bytes(workload::generate_http_trace(config));
  for (int i = 0; i < 1500; ++i) {
    try {
      (void)workload::trace_from_bytes(mutate(blob, rng));
    } catch (const std::invalid_argument&) {
    } catch (const std::out_of_range&) {
    }
  }
}

}  // namespace
}  // namespace dpisvc
