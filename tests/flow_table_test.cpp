// Tests for the per-instance active-flow table (stateful scanning state).
#include <gtest/gtest.h>

#include "dpi/flow_table.hpp"

namespace dpisvc::dpi {
namespace {

net::FiveTuple flow(std::uint16_t src_port) {
  return net::FiveTuple{net::Ipv4Addr(10, 0, 0, 1), net::Ipv4Addr(10, 0, 0, 2),
                        src_port, 80, net::IpProto::kTcp};
}

/// A valid cursor at `dfa_state` / `offset` with no anchor or regex state.
FlowCursor cursor(ac::StateIndex dfa_state, std::uint64_t offset) {
  FlowCursor c;
  c.dfa_state = dfa_state;
  c.offset = offset;
  c.valid = true;
  return c;
}

TEST(FlowTable, UnknownFlowReturnsInvalidCursor) {
  FlowTable table;
  EXPECT_FALSE(table.lookup(flow(1)).valid);
  EXPECT_EQ(table.size(), 0u);
}

TEST(FlowTable, UpdateThenLookup) {
  FlowTable table;
  table.update(flow(1), cursor(42, 1000));
  const FlowCursor c = table.lookup(flow(1));
  EXPECT_TRUE(c.valid);
  EXPECT_EQ(c.dfa_state, 42u);
  EXPECT_EQ(c.offset, 1000u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTable, UpdateOverwrites) {
  FlowTable table;
  table.update(flow(1), cursor(1, 10));
  table.update(flow(1), cursor(2, 20));
  EXPECT_EQ(table.lookup(flow(1)).dfa_state, 2u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTable, BothDirectionsShareState) {
  FlowTable table;
  table.update(flow(1), cursor(7, 5));
  net::FiveTuple reverse = flow(1);
  std::swap(reverse.src_ip, reverse.dst_ip);
  std::swap(reverse.src_port, reverse.dst_port);
  EXPECT_EQ(table.lookup(reverse).dfa_state, 7u);
}

TEST(FlowTable, EraseRemoves) {
  FlowTable table;
  table.update(flow(1), cursor(1, 1));
  EXPECT_TRUE(table.erase(flow(1)));
  EXPECT_FALSE(table.erase(flow(1)));
  EXPECT_FALSE(table.lookup(flow(1)).valid);
}

TEST(FlowTable, ExtractForMigration) {
  FlowTable table;
  table.update(flow(9), cursor(33, 444));
  const FlowCursor c = table.extract(flow(9));
  EXPECT_TRUE(c.valid);
  EXPECT_EQ(c.dfa_state, 33u);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.extract(flow(9)).valid);
}

TEST(FlowTable, LruEvictionAtCapacity) {
  FlowTable table(/*max_flows=*/3);
  table.update(flow(1), cursor(1, 0));
  table.update(flow(2), cursor(2, 0));
  table.update(flow(3), cursor(3, 0));
  // Touch flow 1 so flow 2 becomes the LRU victim.
  (void)table.lookup(flow(1));
  table.update(flow(4), cursor(4, 0));
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.evictions(), 1u);
  EXPECT_TRUE(table.lookup(flow(1)).valid);
  EXPECT_FALSE(table.lookup(flow(2)).valid);  // evicted
  EXPECT_TRUE(table.lookup(flow(3)).valid);
  EXPECT_TRUE(table.lookup(flow(4)).valid);
}

TEST(FlowTable, RejectsZeroCapacity) {
  EXPECT_THROW(FlowTable(0), std::invalid_argument);
}

TEST(FlowTable, ClearEmptiesEverything) {
  FlowTable table;
  for (std::uint16_t p = 1; p <= 10; ++p) {
    table.update(flow(p), cursor(p, 0));
  }
  EXPECT_EQ(table.size(), 10u);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.lookup(flow(5)).valid);
}

TEST(FlowTable, UpdateSignalsLiveCursorEviction) {
  FlowTable table(/*max_flows=*/1);
  // Room available: no eviction.
  EXPECT_FALSE(table.update(flow(1), cursor(1, 10)));
  // Refreshing an existing flow never evicts.
  EXPECT_FALSE(table.update(flow(1), cursor(2, 20)));
  // Inserting a second flow evicts flow 1's live cursor: signalled.
  EXPECT_TRUE(table.update(flow(2), cursor(3, 0)));
  EXPECT_EQ(table.evictions(), 1u);
  // Evicting an entry whose cursor was never valid is not a state loss.
  table.clear();
  table.update(flow(3), FlowCursor{});  // invalid cursor
  EXPECT_FALSE(table.update(flow(4), cursor(5, 0)));
  EXPECT_EQ(table.evictions(), 2u);  // still counted as an eviction
}

TEST(FlowTable, DrainExtractsEverythingMruFirst) {
  FlowTable table;
  for (std::uint16_t p = 1; p <= 5; ++p) {
    table.update(flow(p), cursor(p, p));
  }
  (void)table.lookup(flow(2));  // flow 2 becomes most recent
  const auto drained = table.drain();
  ASSERT_EQ(drained.size(), 5u);
  EXPECT_EQ(drained.front().first, flow(2).canonical());
  EXPECT_EQ(drained.front().second.dfa_state, 2u);
  EXPECT_EQ(table.size(), 0u);
  for (const auto& [key, cursor] : drained) {
    EXPECT_TRUE(cursor.valid);
  }
}

TEST(FlowTable, ManyFlowsStressWithEvictionAccounting) {
  FlowTable table(/*max_flows=*/64);
  for (std::uint16_t p = 0; p < 1000; ++p) {
    table.update(flow(p), cursor(p, p));
  }
  EXPECT_EQ(table.size(), 64u);
  EXPECT_EQ(table.evictions(), 1000u - 64u);
  // The most recent 64 flows survive.
  for (std::uint16_t p = 1000 - 64; p < 1000; ++p) {
    EXPECT_TRUE(table.lookup(flow(p)).valid) << p;
  }
}

}  // namespace
}  // namespace dpisvc::dpi
