// Tests for the extended service features: decompress-once scanning (§1),
// result-only mode for read-only chains (§4.2 option 3), and deployment
// groups (§4.3).
#include <gtest/gtest.h>

#include <array>

#include "compress/deflate.hpp"
#include "mbox/boxes.hpp"
#include "mbox/middlebox_node.hpp"
#include "netsim/controller.hpp"
#include "netsim/host.hpp"
#include "netsim/switch.hpp"
#include "service/controller.hpp"
#include "service/instance_node.hpp"

namespace dpisvc::service {
namespace {

std::shared_ptr<const dpi::Engine> simple_engine(bool read_only) {
  dpi::EngineSpec spec;
  dpi::MiddleboxProfile mbox;
  mbox.id = 1;
  mbox.name = "ids";
  mbox.read_only = read_only;
  spec.middleboxes = {mbox};
  spec.exact_patterns = {dpi::ExactPatternSpec{"hidden-attack", 1, 0}};
  spec.chains[5] = {1};
  return dpi::Engine::compile(spec);
}

net::Packet tagged(Bytes payload, std::uint32_t chain = 5) {
  net::Packet p;
  p.tuple.src_ip = net::Ipv4Addr(10, 0, 0, 1);
  p.tuple.dst_ip = net::Ipv4Addr(10, 0, 0, 2);
  p.tuple.src_port = 1;
  p.tuple.dst_port = 80;
  p.payload = std::move(payload);
  p.push_tag(net::TagKind::kPolicyChain, chain);
  return p;
}

// --- decompress-once ----------------------------------------------------------

TEST(Decompression, GzipPayloadScannedInflated) {
  InstanceConfig config;
  config.decompress_payloads = true;
  DpiInstance inst("i1", config);
  inst.load_engine(simple_engine(false), 1);

  const Bytes body = to_bytes("<html>a hidden-attack in compressed text</html>");
  ProcessOutput out = inst.process(tagged(compress::gzip_compress(body)));
  EXPECT_TRUE(out.had_matches);
  EXPECT_EQ(inst.telemetry().decompressed_packets, 1u);
  EXPECT_EQ(inst.telemetry().decompressed_bytes, body.size());
}

TEST(Decompression, ZlibPayloadScannedInflated) {
  InstanceConfig config;
  config.decompress_payloads = true;
  DpiInstance inst("i1", config);
  inst.load_engine(simple_engine(false), 1);
  const Bytes body = to_bytes("zlib wrapped hidden-attack content");
  ProcessOutput out = inst.process(tagged(compress::zlib_compress(body)));
  EXPECT_TRUE(out.had_matches);
}

TEST(Decompression, DisabledByDefaultScansRawBytes) {
  DpiInstance inst("i1");  // decompression off
  inst.load_engine(simple_engine(false), 1);
  const Bytes body = to_bytes("a hidden-attack inside");
  ProcessOutput out = inst.process(tagged(compress::gzip_compress(body)));
  // The compressed bytes do not contain the pattern.
  EXPECT_FALSE(out.had_matches);
  EXPECT_EQ(inst.telemetry().decompressed_packets, 0u);
}

TEST(Decompression, CorruptGzipFallsBackToRawScan) {
  InstanceConfig config;
  config.decompress_payloads = true;
  DpiInstance inst("i1", config);
  inst.load_engine(simple_engine(false), 1);
  // Gzip magic followed by garbage, with the pattern visible in raw bytes.
  Bytes payload = {0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 0xFF};
  const Bytes text = to_bytes(" raw hidden-attack bytes ");
  payload.insert(payload.end(), text.begin(), text.end());
  ProcessOutput out = inst.process(tagged(std::move(payload)));
  EXPECT_TRUE(out.had_matches);  // matched on the raw form
  EXPECT_EQ(inst.telemetry().decompressed_packets, 0u);
}

TEST(Decompression, BombProtectionBoundsOutput) {
  InstanceConfig config;
  config.decompress_payloads = true;
  config.max_decompressed = 512;
  DpiInstance inst("i1", config);
  inst.load_engine(simple_engine(false), 1);
  Bytes huge(100000, 'x');
  ProcessOutput out = inst.process(tagged(compress::gzip_compress(huge)));
  // Inflation aborts at the bound and the raw (no-match) bytes are scanned.
  EXPECT_FALSE(out.had_matches);
  EXPECT_EQ(inst.telemetry().decompressed_packets, 0u);
}

TEST(Decompression, FailedInflatesCountedByReason) {
  InstanceConfig config;
  config.decompress_payloads = true;
  config.max_decompressed = 512;
  DpiInstance inst("i1", config);
  inst.load_engine(simple_engine(false), 1);
  auto fallbacks = [&] {
    const json::Value stats = inst.stats_json();
    const json::Value& d = stats.at("decompress");
    return std::array<std::int64_t, 3>{d.at("fallback_truncated").as_int(),
                                       d.at("fallback_corrupt").as_int(),
                                       d.at("fallback_limit").as_int()};
  };
  using Counts = std::array<std::int64_t, 3>;
  EXPECT_EQ(fallbacks(), (Counts{0, 0, 0}));
  std::uint64_t raw_bytes = 0;
  auto feed = [&](Bytes payload) {
    raw_bytes += payload.size();
    (void)inst.process(tagged(std::move(payload)));
    // Every failed member is scanned in its raw form.
    EXPECT_EQ(inst.telemetry().bytes, raw_bytes);
    EXPECT_EQ(inst.telemetry().decompressed_packets, 0u);
  };

  // Corrupt: gzip magic, then a stored block whose LEN/NLEN disagree.
  Bytes corrupt = {0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 0xFF};
  const Bytes text = to_bytes(" raw hidden-attack bytes ");
  corrupt.insert(corrupt.end(), text.begin(), text.end());
  feed(corrupt);
  EXPECT_EQ(fallbacks(), (Counts{0, 1, 0}));

  // Over max_decompressed.
  feed(compress::gzip_compress(Bytes(100000, 'x')));
  EXPECT_EQ(fallbacks(), (Counts{0, 1, 1}));

  // Truncated: a whole member less the last trailer byte.
  Bytes cut = compress::gzip_compress(text);
  cut.pop_back();
  feed(cut);
  EXPECT_EQ(fallbacks(), (Counts{1, 1, 1}));

  // The per-shard obs counters carry the same counts.
  const json::Value metrics = inst.stats_json().at("metrics");
  const json::Value& counters = metrics.at("counters");
  EXPECT_EQ(counters.at("shard0.decompress.fallback.truncated").as_int(), 1);
  EXPECT_EQ(counters.at("shard0.decompress.fallback.corrupt").as_int(), 1);
  EXPECT_EQ(counters.at("shard0.decompress.fallback.limit").as_int(), 1);

  // A member that inflates touches no fallback counter.
  (void)inst.process(tagged(compress::gzip_compress(text)));
  EXPECT_EQ(inst.telemetry().decompressed_packets, 1u);
  EXPECT_EQ(fallbacks(), (Counts{1, 1, 1}));
}

TEST(Decompression, PlainPayloadUnaffected) {
  InstanceConfig config;
  config.decompress_payloads = true;
  DpiInstance inst("i1", config);
  inst.load_engine(simple_engine(false), 1);
  ProcessOutput out = inst.process(tagged(to_bytes("plain hidden-attack")));
  EXPECT_TRUE(out.had_matches);
  EXPECT_EQ(inst.telemetry().decompressed_packets, 0u);
}

// --- result-only mode -----------------------------------------------------------

TEST(ResultOnly, MatchlessDataBypassesMiddleboxPath) {
  InstanceConfig config;
  config.result_mode = ResultMode::kResultOnly;
  DpiInstance inst("i1", config);
  inst.load_engine(simple_engine(/*read_only=*/true), 1);
  ProcessOutput out = inst.process(tagged(to_bytes("clean content")));
  EXPECT_FALSE(out.result.has_value());
  // Chain tag popped: the data packet heads straight to the egress.
  EXPECT_FALSE(out.data.find_tag(net::TagKind::kPolicyChain).has_value());
}

TEST(ResultOnly, MatchedTrafficSendsResultAlone) {
  InstanceConfig config;
  config.result_mode = ResultMode::kResultOnly;
  DpiInstance inst("i1", config);
  inst.load_engine(simple_engine(/*read_only=*/true), 1);
  ProcessOutput out = inst.process(tagged(to_bytes("a hidden-attack!")));
  EXPECT_TRUE(out.had_matches);
  EXPECT_FALSE(out.data.find_tag(net::TagKind::kPolicyChain).has_value());
  ASSERT_TRUE(out.result.has_value());
  // The result packet carries the chain tag and traverses the middleboxes.
  EXPECT_EQ(out.result->find_tag(net::TagKind::kPolicyChain), 5u);
}

TEST(ResultOnly, FallsBackForNonReadOnlyChains) {
  InstanceConfig config;
  config.result_mode = ResultMode::kResultOnly;
  DpiInstance inst("i1", config);
  inst.load_engine(simple_engine(/*read_only=*/false), 1);
  ProcessOutput out = inst.process(tagged(to_bytes("a hidden-attack!")));
  // Non-read-only middlebox must still see the data packet: tag retained,
  // dedicated result packet trails it.
  EXPECT_EQ(out.data.find_tag(net::TagKind::kPolicyChain), 5u);
  ASSERT_TRUE(out.result.has_value());
}

// --- deployment groups ------------------------------------------------------------

json::Value register_msg(int id, const char* name) {
  return json::parse(R"({"type":"register","middlebox_id":)" +
                     std::to_string(id) + R"(,"name":")" + name + R"("})");
}

json::Value add_exact_msg(int id, int rule, const std::string& text) {
  AddPatternsRequest req;
  req.middlebox = static_cast<dpi::MiddleboxId>(id);
  req.exact.push_back(ExactPatternMsg{static_cast<dpi::PatternId>(rule), text});
  return encode(req);
}

BytesView view(const std::string& s) {
  return BytesView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

class GroupsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    controller_.handle_message(register_msg(1, "http-ids"));
    controller_.handle_message(register_msg(2, "ftp-ids"));
    controller_.handle_message(add_exact_msg(1, 0, "http-attack"));
    controller_.handle_message(add_exact_msg(2, 0, "ftp-attack"));
    http_chain_ = controller_.register_policy_chain({1});
    ftp_chain_ = controller_.register_policy_chain({2});
  }

  DpiController controller_;
  dpi::ChainId http_chain_ = 0;
  dpi::ChainId ftp_chain_ = 0;
};

TEST_F(GroupsTest, GroupInstanceServesOnlyItsChains) {
  controller_.define_group("http", {http_chain_});
  InstanceConfig config;
  config.group = "http";
  auto inst = controller_.create_instance("http-1", config);
  ASSERT_TRUE(inst->has_engine());
  EXPECT_TRUE(inst->engine()->chain_known(http_chain_));
  EXPECT_FALSE(inst->engine()->chain_known(ftp_chain_));
  // Only the HTTP patterns were compiled in.
  EXPECT_EQ(inst->engine()->num_exact_patterns(), 1u);
  const auto result = inst->scan(http_chain_, net::FiveTuple{},
                                 view("an http-attack"));
  EXPECT_TRUE(result.has_matches());
}

TEST_F(GroupsTest, GroupEngineIsSmallerThanFullEngine) {
  controller_.define_group("http", {http_chain_});
  InstanceConfig grouped;
  grouped.group = "http";
  auto http_inst = controller_.create_instance("http-1", grouped);
  auto full_inst = controller_.create_instance("full-1");
  EXPECT_LT(http_inst->engine()->memory_bytes(),
            full_inst->engine()->memory_bytes());
}

TEST_F(GroupsTest, GroupEnginesTrackPatternUpdates) {
  controller_.define_group("http", {http_chain_});
  InstanceConfig config;
  config.group = "http";
  auto inst = controller_.create_instance("http-1", config);
  controller_.handle_message(add_exact_msg(1, 1, "new-http-attack"));
  const auto result = inst->scan(http_chain_, net::FiveTuple{},
                                 view("a new-http-attack!"));
  EXPECT_TRUE(result.has_matches());
  // FTP pattern updates do not bloat the group engine.
  controller_.handle_message(add_exact_msg(2, 1, "new-ftp-attack"));
  EXPECT_EQ(inst->engine()->num_exact_patterns(), 2u);
}

TEST_F(GroupsTest, RedefiningGroupRepushesEngines) {
  controller_.define_group("g", {http_chain_});
  InstanceConfig config;
  config.group = "g";
  auto inst = controller_.create_instance("g-1", config);
  EXPECT_FALSE(inst->engine()->chain_known(ftp_chain_));
  controller_.define_group("g", {http_chain_, ftp_chain_});
  EXPECT_TRUE(inst->engine()->chain_known(ftp_chain_));
  EXPECT_EQ(inst->engine()->num_exact_patterns(), 2u);
}

TEST_F(GroupsTest, Validation) {
  EXPECT_THROW(controller_.define_group("", {http_chain_}),
               std::invalid_argument);
  EXPECT_THROW(controller_.define_group("g", {999}), std::invalid_argument);
  InstanceConfig config;
  config.group = "undefined";
  EXPECT_THROW(controller_.create_instance("x", config),
               std::invalid_argument);
}

// --- instance-level TCP reassembly (§7) -------------------------------------------

std::shared_ptr<const dpi::Engine> stateful_ids_engine() {
  dpi::EngineSpec spec;
  dpi::MiddleboxProfile mbox;
  mbox.id = 1;
  mbox.name = "ids";
  mbox.stateful = true;
  spec.middleboxes = {mbox};
  spec.exact_patterns = {dpi::ExactPatternSpec{"split-across-segments", 1, 0}};
  spec.chains[5] = {1};
  return dpi::Engine::compile(spec);
}

net::Packet tcp_segment(std::uint32_t seq, std::string_view data) {
  net::Packet p;
  p.tuple.src_ip = net::Ipv4Addr(10, 0, 0, 1);
  p.tuple.dst_ip = net::Ipv4Addr(10, 0, 0, 2);
  p.tuple.src_port = 4242;
  p.tuple.dst_port = 80;
  p.tuple.proto = net::IpProto::kTcp;
  p.tcp_seq = seq;
  p.payload = to_bytes(data);
  p.push_tag(net::TagKind::kPolicyChain, 5);
  return p;
}

TEST(InstanceReassembly, OutOfOrderSegmentsStillMatch) {
  InstanceConfig config;
  config.reassemble_tcp = true;
  DpiInstance inst("i1", config);
  inst.load_engine(stateful_ids_engine(), 1);

  const std::string stream = "xx split-across-segments yy";
  // Anchor segment first, then the tail, then the gap-filling middle.
  auto r1 = inst.process(tcp_segment(0, stream.substr(0, 6)));
  EXPECT_FALSE(r1.had_matches);
  auto r2 = inst.process(
      tcp_segment(18, stream.substr(18)));  // out of order: held
  EXPECT_FALSE(r2.had_matches);
  EXPECT_EQ(inst.telemetry().reassembly_held, 1u);
  auto r3 = inst.process(tcp_segment(6, stream.substr(6, 12)));  // fills gap
  EXPECT_TRUE(r3.had_matches);
}

TEST(InstanceReassembly, WithoutReassemblyOutOfOrderEvades) {
  DpiInstance inst("i1");  // reassembly off
  inst.load_engine(stateful_ids_engine(), 1);
  const std::string stream = "xx split-across-segments yy";
  bool matched = false;
  matched |= inst.process(tcp_segment(0, stream.substr(0, 6))).had_matches;
  matched |= inst.process(tcp_segment(18, stream.substr(18))).had_matches;
  matched |=
      inst.process(tcp_segment(6, stream.substr(6, 12))).had_matches;
  EXPECT_FALSE(matched);  // the stateful scan saw bytes out of order
}

TEST(InstanceReassembly, InOrderTrafficUnaffected) {
  InstanceConfig config;
  config.reassemble_tcp = true;
  DpiInstance inst("i1", config);
  inst.load_engine(stateful_ids_engine(), 1);
  auto r1 = inst.process(tcp_segment(0, "xx split-across-"));
  auto r2 = inst.process(tcp_segment(16, "segments yy"));
  EXPECT_FALSE(r1.had_matches);
  EXPECT_TRUE(r2.had_matches);
  EXPECT_EQ(inst.telemetry().reassembly_held, 0u);
}

// --- result-only end to end on the fabric ---------------------------------------

TEST(ResultOnlyFabric, DataBypassesIdsWhileResultsReachIt) {
  DpiController controller;
  mbox::Ids ids(1, /*stateful=*/false);  // read-only by construction
  mbox::RuleSpec rule;
  rule.id = 0;
  rule.exact = "hidden-attack";
  rule.verdict = mbox::Verdict::kAlert;
  ids.add_rule(rule);
  ids.attach(controller);
  const dpi::ChainId chain = controller.register_policy_chain({1});
  InstanceConfig config;
  config.result_mode = ResultMode::kResultOnly;
  auto instance = controller.create_instance("dpi-1", config);

  netsim::Fabric fabric;
  netsim::Switch& sw = fabric.add_node<netsim::Switch>("s1");
  netsim::Host& src = fabric.add_node<netsim::Host>("src");
  netsim::Host& dst = fabric.add_node<netsim::Host>("dst");
  netsim::Host& monitor = fabric.add_node<netsim::Host>("monitor");
  fabric.add_node<InstanceNode>("dpi-1", instance);
  for (const char* n : {"src", "dst", "monitor", "dpi-1"}) {
    fabric.connect("s1", n);
  }
  src.set_gateway("s1");

  // Steering: tagged traffic from src -> DPI; tagged packets from the DPI
  // (only results keep the tag) -> the monitoring host; untagged packets
  // from the DPI -> production egress.
  netsim::SdnController sdn(fabric);
  {
    netsim::FlowRule ingress;
    ingress.priority = 10;
    ingress.match.in_node = "src";
    ingress.action.push_chain_tag = chain;
    ingress.action.forward_to = "dpi-1";
    sdn.install("s1", ingress);
    netsim::FlowRule results;
    results.priority = 20;
    results.match.in_node = "dpi-1";
    results.match.chain_tag = chain;
    results.action.forward_to = "monitor";
    results.action.pop_chain_tag = true;
    sdn.install("s1", results);
    netsim::FlowRule egress;
    egress.priority = 5;
    egress.match.in_node = "dpi-1";
    egress.action.forward_to = "dst";
    sdn.install("s1", egress);
  }

  net::Packet clean;
  clean.tuple.dst_port = 80;
  clean.payload = to_bytes("nothing to see");
  src.send(net::Packet(clean));
  net::Packet evil = clean;
  evil.ip_id = 2;
  evil.payload = to_bytes("a hidden-attack appears");
  src.send(std::move(evil));
  fabric.run();

  // Production egress got both data packets; the monitor got one result.
  EXPECT_EQ(dst.received().size(), 2u);
  ASSERT_EQ(monitor.received().size(), 1u);
  EXPECT_EQ(monitor.received()[0].service_header->service_path_id,
            kResultServicePathId);
  EXPECT_GT(sw.forwarded(), 0u);
}

}  // namespace
}  // namespace dpisvc::service
