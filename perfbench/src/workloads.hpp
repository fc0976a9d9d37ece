// The benchmark's four traffic mixes. Each workload is generated from its
// seed alone: the rule sets are fixed deployment configuration, the traffic
// (payloads, flow layout, reordering, fragmentation, compression shapes) is
// drawn from the seed. One generated "pass" is a complete set of flows; the
// loops replay passes with fresh five-tuples so every pass opens new flows
// and per-flow service state never carries over from an earlier pass.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dpi/engine.hpp"
#include "mbox/middlebox.hpp"
#include "net/packet.hpp"
#include "service/instance.hpp"

namespace perfbench {

using dpisvc::Bytes;
using dpisvc::BytesView;
namespace dpi = dpisvc::dpi;
namespace mbox = dpisvc::mbox;
namespace net = dpisvc::net;
namespace service = dpisvc::service;

/// One packet as it arrives at the service: a whole segment or an IPv4
/// fragment, carrying the pass-0 five-tuple of its flow.
struct TemplatePacket {
  net::Packet packet;
  std::uint32_t flow = 0;  ///< index into Workload::flows
  /// The payload carries gzip bytes, so a raw scan of it inspects nothing
  /// the sender meant.
  bool encoded = false;
};

struct FlowInfo {
  /// The bytes the sender meant, in stream order: one unit per segment the
  /// sender wrote (decompressed where the sender gzip-encoded it).
  std::vector<Bytes> units;
  std::uint32_t packets = 0;  ///< template packets of the flow
  std::uint64_t meant_bytes = 0;  ///< total size of `units`
  /// Reference hits (hit_key values, sorted, distinct) the chain's
  /// middleboxes find in `units` when each scans them itself.
  std::vector<std::uint32_t> expected;
  /// The flow uses a shape the service is known to miss (a gzip member
  /// behind HTTP headers, or split over two segments).
  bool known_miss = false;
};

/// Input properties the layers' costs depend on (all measured on the
/// generated pass, not configured).
struct Properties {
  std::size_t packets = 0;
  std::size_t flows = 0;
  std::size_t payload_min = 0;
  std::size_t payload_max = 0;
  double payload_mean = 0;
  double reordered_share = 0;   ///< segments delivered before their predecessor
  double fragmented_share = 0;  ///< packets that are IPv4 fragments
  double compressed_share = 0;  ///< packets carrying gzip bytes
  double known_miss_share = 0;  ///< packets of flows in a known-missed shape
  /// Sender units without any reference hit. Measured with the engine, so
  /// it is printed but not part of the fingerprint.
  double matchless_share = 0;
};

struct Rule {
  dpi::MiddleboxId box = 0;
  dpi::PatternId id = 0;
  std::string exact;
  std::string regex;
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  service::InstanceConfig config;
  dpi::ChainId chain = 1;
  std::vector<dpi::MiddleboxProfile> profiles;
  std::vector<Rule> rules;
  /// The chain's middleboxes in service mode (same profiles and rules).
  std::vector<std::unique_ptr<mbox::Middlebox>> boxes;
  std::vector<TemplatePacket> packets;  ///< one pass, in arrival order
  std::vector<FlowInfo> flows;
  Properties props;
  /// Open-loop offered rate, fixed so every later commit is offered the same
  /// load: about a third of what the open loop itself sustains at the commit
  /// that introduced the benchmark on a 4-vCPU machine. Open-loop calls carry
  /// one or two packets and each wakes a parked worker, so that is far below
  /// the closed loop's 64-packet throughput (see README.md, "Noise").
  double open_loop_pps = 0;

  /// The combined-engine spec the controller would compile for the chain.
  dpi::EngineSpec engine_spec() const;
  mbox::Middlebox* box(dpi::MiddleboxId id) const;
};

const std::vector<std::string>& workload_names();

/// Builds the named workload; throws std::invalid_argument for an unknown
/// name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// The two gzip shapes ROADMAP item 3 reports as missed, on the
/// `gzip_bodies` chain and settings: 1024 responses from `seed`, half with
/// HTTP headers in front of the member, half with the member split over two
/// segments. Every flow is marked known_miss.
Workload make_known_miss_probe(std::uint64_t seed);

/// The five-tuple flow `flow` uses in replay pass `pass`.
net::FiveTuple flow_tuple(std::uint32_t flow, std::uint32_t pass);

/// Hash of every generated packet (headers, payload, flow) and of the
/// generator-side properties; equal for equal seeds, so two runs can prove
/// they replayed the same input.
std::uint64_t fingerprint(const Workload& workload);

}  // namespace perfbench
