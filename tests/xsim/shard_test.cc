// Sharded-dispatch tests: classification of batches into resource-class
// shards, the contention property the shards exist to provide (disjoint
// window subtrees never block on each other's shard lock), the cross-shard
// reparent's canonical two-lock acquisition (run under TSan, this is the
// lock-order-inversion regression test), and the ReparentWindow request
// itself.  The session journal's handling of reparents is tested in
// session_journal_test.cc.

#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/xsim/request.h"
#include "src/xsim/server.h"
#include "src/xsim/shard.h"

namespace xsim {
namespace {

Request Make(RequestOpcode op, WindowId window, XId resource = kNone, int x = 0,
             int y = 0) {
  Request request;
  request.op = op;
  request.window = window;
  request.resource = resource;
  request.x = x;
  request.y = y;
  request.width = 8;
  request.height = 8;
  return request;
}

// --- ShardTable --------------------------------------------------------------

TEST(ShardTest, AcquireSortsAndDeduplicates) {
  ShardTable table;
  // Deliberately unsorted with duplicates: the hold covers each distinct
  // shard exactly once, and materializes three mutexes.
  auto hold = table.Acquire({
      ShardKey{ShardClass::kWindowSubtree, 7},
      ShardKey{ShardClass::kGc, 0},
      ShardKey{ShardClass::kWindowSubtree, 3},
      ShardKey{ShardClass::kWindowSubtree, 7},
  });
  EXPECT_EQ(hold.size(), 3u);
  EXPECT_EQ(table.shard_count(), 3u);
}

TEST(ShardTest, HoldsOnDisjointKeySetsDoNotBlock) {
  ShardTable table;
  auto a = table.Acquire({ShardKey{ShardClass::kWindowSubtree, 1}});
  // Must not block even while `a` is held: different shard.
  auto b = table.Acquire({ShardKey{ShardClass::kWindowSubtree, 2}});
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 1u);
}

// --- Classification ----------------------------------------------------------

class ShardClassifyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    client_ = server_.RegisterClient("classifier");
    a_ = client_ * 0x00100000 + 1;
    a1_ = client_ * 0x00100000 + 2;
    b_ = client_ * 0x00100000 + 3;
    b1_ = client_ * 0x00100000 + 4;
    ASSERT_TRUE(server_.ApplyRequest(
        client_, Make(RequestOpcode::kCreateWindow, server_.root(), a_)));
    ASSERT_TRUE(server_.ApplyRequest(client_, Make(RequestOpcode::kCreateWindow, a_, a1_)));
    ASSERT_TRUE(server_.ApplyRequest(
        client_, Make(RequestOpcode::kCreateWindow, server_.root(), b_)));
    ASSERT_TRUE(server_.ApplyRequest(client_, Make(RequestOpcode::kCreateWindow, b_, b1_)));
  }

  Server server_;
  ClientId client_ = 0;
  WindowId a_ = 0, a1_ = 0, b_ = 0, b1_ = 0;
};

TEST_F(ShardClassifyTest, WindowOpsMapToTheirSubtreeRoot) {
  auto keys = server_.ClassifyBatchShards(
      client_, {Make(RequestOpcode::kClearWindow, a1_),
                Make(RequestOpcode::kMapWindow, a_)});
  ASSERT_EQ(keys.size(), 1u);  // Same subtree, deduplicated.
  EXPECT_EQ(keys[0], (ShardKey{ShardClass::kWindowSubtree, a_}));
}

TEST_F(ShardClassifyTest, ResourceClassesSplitIntoDistinctShards) {
  auto keys = server_.ClassifyBatchShards(
      client_, {Make(RequestOpcode::kCreateGc, kNone, client_ * 0x00100000 + 9),
                Make(RequestOpcode::kSetSelectionOwner, a_),
                Make(RequestOpcode::kSetInputFocus, a_),
                Make(RequestOpcode::kClearWindow, b1_)});
  // Canonical order: global < atom < gc < subtree(b).
  ASSERT_EQ(keys.size(), 4u);
  EXPECT_EQ(keys[0], (ShardKey{ShardClass::kGlobal, 0}));
  EXPECT_EQ(keys[1], (ShardKey{ShardClass::kAtom, 0}));
  EXPECT_EQ(keys[2], (ShardKey{ShardClass::kGc, 0}));
  EXPECT_EQ(keys[3], (ShardKey{ShardClass::kWindowSubtree, b_}));
}

TEST_F(ShardClassifyTest, TopLevelCreateFoundsItsOwnShard) {
  WindowId fresh = client_ * 0x00100000 + 10;
  auto keys = server_.ClassifyBatchShards(
      client_, {Make(RequestOpcode::kCreateWindow, server_.root(), fresh)});
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], (ShardKey{ShardClass::kWindowSubtree, fresh}));
}

TEST_F(ShardClassifyTest, CrossShardReparentTakesBothSubtrees) {
  auto keys = server_.ClassifyBatchShards(
      client_, {Make(RequestOpcode::kReparentWindow, a1_, b_)});
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], (ShardKey{ShardClass::kWindowSubtree, a_}));
  EXPECT_EQ(keys[1], (ShardKey{ShardClass::kWindowSubtree, b_}));

  // Reparenting directly under the root promotes the window to subtree root.
  keys = server_.ClassifyBatchShards(
      client_, {Make(RequestOpcode::kReparentWindow, a1_, server_.root())});
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], (ShardKey{ShardClass::kWindowSubtree, a_}));
  EXPECT_EQ(keys[1], (ShardKey{ShardClass::kWindowSubtree, a1_}));
}

// --- Contention properties ---------------------------------------------------

TEST_F(ShardClassifyTest, DisjointSubtreesOverlapUnderInjectedHoldDelay) {
  // Stretch every sharded batch's lock hold by 200 ms.  Two batches on
  // disjoint subtrees must overlap in wall-clock (their shard sets are
  // disjoint); two batches on the SAME subtree must serialize.  The sleeps
  // dominate scheduling noise even on a single-core TSan runner.
  constexpr auto kDelay = std::chrono::milliseconds(200);
  server_.SetShardHoldDelayMs(200);

  auto run_pair = [&](WindowId first, WindowId second) {
    const auto start = std::chrono::steady_clock::now();
    std::thread t1([&] {
      server_.ApplyBatchSharded(client_, {Make(RequestOpcode::kClearWindow, first)});
    });
    std::thread t2([&] {
      server_.ApplyBatchSharded(client_, {Make(RequestOpcode::kClearWindow, second)});
    });
    t1.join();
    t2.join();
    return std::chrono::steady_clock::now() - start;
  };

  const auto disjoint = run_pair(a1_, b1_);
  const auto same = run_pair(a1_, a1_);
  server_.SetShardHoldDelayMs(0);

  // Same subtree: the second batch waits out the first's entire hold.
  EXPECT_GE(same, 2 * kDelay - std::chrono::milliseconds(10));
  // Disjoint subtrees: the holds overlap -- strictly less than two full
  // delays, with generous slack for thread spawn on a loaded runner.
  EXPECT_LT(disjoint, 2 * kDelay - std::chrono::milliseconds(20));
}

TEST_F(ShardClassifyTest, OpposingCrossShardReparentsNeverDeadlock) {
  // Two threads repeatedly reparent in opposite directions between the same
  // pair of subtrees.  Each batch needs both subtree locks; without the
  // canonical sorted acquisition this is the textbook AB/BA deadlock.  Under
  // TSan this doubles as the lock-order-inversion regression test.
  constexpr int kIterations = 50;
  std::thread t1([&] {
    for (int i = 0; i < kIterations; ++i) {
      server_.ApplyBatchSharded(
          client_, {Make(RequestOpcode::kReparentWindow, a1_, i % 2 == 0 ? b_ : a_)});
    }
  });
  std::thread t2([&] {
    for (int i = 0; i < kIterations; ++i) {
      server_.ApplyBatchSharded(
          client_, {Make(RequestOpcode::kReparentWindow, b1_, i % 2 == 0 ? a_ : b_)});
    }
  });
  t1.join();
  t2.join();

  // Both windows survived the shuffle and ended under their final parents.
  EXPECT_EQ(server_.WindowParent(a1_), a_);
  EXPECT_EQ(server_.WindowParent(b1_), b_);
}

// --- ReparentWindow semantics ------------------------------------------------

TEST_F(ShardClassifyTest, ReparentMovesSubtreeAndRejectsCycles) {
  // Move a1 (and implicitly its subtree) under b at (5, 7).
  EXPECT_TRUE(server_.ReparentWindow(client_, a1_, b_, 5, 7));
  EXPECT_EQ(server_.WindowParent(a1_), b_);
  auto geometry = server_.WindowGeometry(a1_);
  ASSERT_TRUE(geometry.has_value());
  EXPECT_EQ(geometry->x, 5);
  EXPECT_EQ(geometry->y, 7);

  // A window cannot become its own descendant's child.
  EXPECT_FALSE(server_.ReparentWindow(client_, b_, a1_, 0, 0));
  // Nor can the root move, and unknown ids are rejected.
  EXPECT_FALSE(server_.ReparentWindow(client_, server_.root(), b_, 0, 0));
  EXPECT_FALSE(server_.ReparentWindow(client_, 0xdead, b_, 0, 0));
  EXPECT_FALSE(server_.ReparentWindow(client_, a1_, 0xdead, 0, 0));

  // Reparenting under the root makes a1 a top-level window.
  EXPECT_TRUE(server_.ReparentWindow(client_, a1_, server_.root(), 1, 2));
  EXPECT_EQ(server_.WindowParent(a1_), server_.root());
}

}  // namespace
}  // namespace xsim
