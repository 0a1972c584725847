//===- SpecTableTest.cpp - Speculation table + FIFO + predictor tests -----===//
//
// Part of the PDL reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "hw/Extern.h"
#include "hw/Fifo.h"
#include "hw/SpecTable.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

using namespace pdl;
using namespace pdl::hw;

namespace {

TEST(SpecTableTest, VerifyCorrect) {
  SpecTable T(4);
  SpecId S = T.alloc(Bits(0x104, 32));
  EXPECT_EQ(T.status(S), SpecStatus::Pending);
  EXPECT_TRUE(T.verify(S, Bits(0x104, 32)));
  EXPECT_EQ(T.status(S), SpecStatus::Correct);
  T.free(S);
  EXPECT_EQ(T.live(), 0u);
}

TEST(SpecTableTest, VerifyMispredictCascades) {
  SpecTable T(4);
  SpecId S1 = T.alloc(Bits(0x104, 32));
  SpecId S2 = T.alloc(Bits(0x108, 32)); // child of the child
  SpecId S3 = T.alloc(Bits(0x10c, 32));
  EXPECT_FALSE(T.verify(S1, Bits(0x200, 32)));
  // All newer entries are mispredicted too (their parents may die before
  // verifying them).
  EXPECT_EQ(T.status(S1), SpecStatus::Mispredicted);
  EXPECT_EQ(T.status(S2), SpecStatus::Mispredicted);
  EXPECT_EQ(T.status(S3), SpecStatus::Mispredicted);
}

TEST(SpecTableTest, MispredictDoesNotAffectOlder) {
  SpecTable T(4);
  SpecId S1 = T.alloc(Bits(4, 32));
  SpecId S2 = T.alloc(Bits(8, 32));
  EXPECT_FALSE(T.verify(S2, Bits(99, 32)));
  EXPECT_EQ(T.status(S1), SpecStatus::Pending);
}

TEST(SpecTableTest, UpdateWithSamePredictionIsNoop) {
  SpecTable T(4);
  SpecId S = T.alloc(Bits(4, 32));
  EXPECT_FALSE(T.update(S, Bits(4, 32)).has_value());
  EXPECT_EQ(T.status(S), SpecStatus::Pending);
}

TEST(SpecTableTest, UpdateResteersAndKillsOldChild) {
  SpecTable T(4);
  SpecId S = T.alloc(Bits(4, 32));
  auto NewS = T.update(S, Bits(8, 32));
  ASSERT_TRUE(NewS.has_value());
  EXPECT_EQ(T.status(S), SpecStatus::Mispredicted);
  EXPECT_EQ(T.status(*NewS), SpecStatus::Pending);
  EXPECT_EQ(T.prediction(*NewS).zext(), 8u);
  // The re-steered child can still be verified correct later.
  EXPECT_TRUE(T.verify(*NewS, Bits(8, 32)));
}

TEST(SpecTableTest, CapacityGatesAllocation) {
  SpecTable T(2);
  T.alloc(Bits(1, 32));
  T.alloc(Bits(2, 32));
  EXPECT_FALSE(T.canAlloc());
}

TEST(FifoTest, BasicOrderingAndCapacity) {
  Fifo<int> F(2);
  EXPECT_TRUE(F.canEnq());
  F.enq(1);
  F.enq(2);
  EXPECT_FALSE(F.canEnq());
  EXPECT_EQ(F.front(), 1);
  EXPECT_EQ(F.deq(), 1);
  EXPECT_TRUE(F.canEnq());
  EXPECT_EQ(F.deq(), 2);
  EXPECT_TRUE(F.empty());
}

TEST(FifoTest, RemoveIfSquashesSelectedItems) {
  Fifo<int> F(4);
  F.enq(1);
  F.enq(2);
  F.enq(3);
  F.removeIf([](int X) { return X % 2 == 0; });
  EXPECT_EQ(F.size(), 2u);
  EXPECT_EQ(F.deq(), 1);
  EXPECT_EQ(F.deq(), 3);
}

// The FIFO is a fixed ring of slots; these pin the deque behaviour it
// replaced: order across wrap-around, squashing, fault arms, restore.

/// Oldest-first contents.
std::vector<int> items(const Fifo<int> &F) {
  return std::vector<int>(F.begin(), F.end());
}

/// Records listener events as (enqueue?, item, depth after).
struct Recorder : Fifo<int>::Listener {
  std::vector<std::tuple<bool, int, size_t>> Log;
  void onEnq(const int &X, size_t Depth) override {
    Log.emplace_back(true, X, Depth);
  }
  void onDeq(const int &X, size_t Depth) override {
    Log.emplace_back(false, X, Depth);
  }
};

/// A depth-3 FIFO whose head has advanced past slot 0, holding \p N items
/// (N <= 3) that are 10, 11, ... in order.
Fifo<int> wrapped(unsigned N) {
  Fifo<int> F(3);
  F.enq(0);
  F.enq(0);
  F.deq();
  F.deq();
  for (unsigned I = 0; I != N; ++I)
    F.enq(10 + int(I));
  return F;
}

TEST(FifoTest, WrapsAroundPastCapacity) {
  Fifo<int> F(3);
  Recorder R;
  F.setListener(&R);
  for (int X = 1; X <= 3; ++X)
    F.enq(X);
  EXPECT_FALSE(F.canEnq());
  // Each round frees the oldest slot and reuses it for a newer item.
  for (int X = 4; X <= 10; ++X) {
    EXPECT_EQ(F.deq(), X - 3);
    F.enq(X);
    EXPECT_EQ(F.size(), 3u);
    EXPECT_EQ(F.front(), X - 2);
    EXPECT_EQ(items(F), (std::vector<int>{X - 2, X - 1, X}));
  }
  EXPECT_EQ(R.Log.size(), 3u + 2 * 7);
  EXPECT_EQ(R.Log.back(), std::make_tuple(true, 10, size_t(3)));
  EXPECT_EQ(F.deq(), 8);
  EXPECT_EQ(R.Log.back(), std::make_tuple(false, 8, size_t(2)));
  EXPECT_EQ(F.deq(), 9);
  EXPECT_EQ(F.deq(), 10);
  EXPECT_TRUE(F.empty());
}

TEST(FifoTest, RemoveIfAfterWrapKeepsOrder) {
  Fifo<int> F = wrapped(3); // 10 11 12, occupying slots 2, 0, 1
  F.removeIf([](int X) { return X == 11; });
  EXPECT_EQ(items(F), (std::vector<int>{10, 12}));
  EXPECT_TRUE(F.canEnq());
  F.enq(13);
  EXPECT_EQ(items(F), (std::vector<int>{10, 12, 13}));
  F.removeIf([](int X) { return X != 13; });
  EXPECT_EQ(items(F), (std::vector<int>{13}));
  F.enq(14);
  F.enq(15);
  EXPECT_FALSE(F.canEnq());
  EXPECT_EQ(F.deq(), 13);
  EXPECT_EQ(F.deq(), 14);
  EXPECT_EQ(F.deq(), 15);
  F.removeIf([](int) { return true; });
  EXPECT_TRUE(F.empty());
}

TEST(FifoTest, DropArmAtFullAndNonFullDepth) {
  for (unsigned Depth : {0u, 2u}) { // the dropped enqueue would fill slot 3
    SCOPED_TRACE(Depth);
    Fifo<int> F = wrapped(Depth);
    Recorder R;
    F.setListener(&R);
    unsigned Fired = 0;
    F.armDropNext(1, [&] { ++Fired; });
    F.enq(99);
    EXPECT_EQ(Fired, 1u);
    EXPECT_EQ(F.size(), Depth);
    EXPECT_TRUE(R.Log.empty()); // a dropped item emits no event
    EXPECT_EQ(F.dropArm(), 0u);
    F.enq(20);
    EXPECT_EQ(F.size(), Depth + 1);
    EXPECT_EQ(items(F).back(), 20);
  }
}

TEST(FifoTest, DupArmAtFullAndNonFullDepth) {
  // Room for the copy: both land, each with its own event.
  Fifo<int> F = wrapped(1);
  Recorder R;
  F.setListener(&R);
  unsigned Fired = 0;
  F.armDupNext(1, [&] { ++Fired; });
  F.enq(7);
  EXPECT_EQ(Fired, 1u);
  EXPECT_EQ(items(F), (std::vector<int>{10, 7, 7}));
  EXPECT_EQ(R.Log.size(), 2u);
  EXPECT_EQ(R.Log[1], std::make_tuple(true, 7, size_t(3)));

  // The duplicated enqueue fills the FIFO: the copy is silently lost.
  Fifo<int> G = wrapped(2);
  Fired = 0;
  G.armDupNext(1, [&] { ++Fired; });
  G.enq(7);
  EXPECT_EQ(Fired, 1u);
  EXPECT_EQ(items(G), (std::vector<int>{10, 11, 7}));
}

TEST(FifoTest, CorruptArmAtFullAndNonFullDepth) {
  for (unsigned Depth : {0u, 2u}) {
    SCOPED_TRACE(Depth);
    Fifo<int> F = wrapped(Depth);
    F.armCorruptNext(2, [](int &X) { X ^= 0x100; });
    F.enq(1);
    EXPECT_EQ(F.corruptArm(), 1u);
    if (Depth == 2) {
      EXPECT_FALSE(F.canEnq());
      F.deq();
    }
    F.enq(2); // the armed one: mutated before it is stored
    EXPECT_EQ(F.corruptArm(), 0u);
    EXPECT_EQ(items(F).back(), 2 ^ 0x100);
    EXPECT_EQ(items(F)[items(F).size() - 2], 1);
  }
}

TEST(FifoTest, RestoreItemsReplacesContentsSilently) {
  Fifo<int> F = wrapped(2);
  Recorder R;
  F.setListener(&R);
  F.armDropNext(1);
  F.restoreItems({7, 8, 9});
  EXPECT_EQ(items(F), (std::vector<int>{7, 8, 9}));
  EXPECT_FALSE(F.canEnq());
  EXPECT_TRUE(R.Log.empty()); // no events, and the drop arm did not fire
  EXPECT_EQ(F.dropArm(), 1u);
  EXPECT_EQ(F.deq(), 7);
  F.restoreItems({});
  EXPECT_TRUE(F.empty());
  F.restoreItems({5});
  EXPECT_EQ(F.front(), 5);
  F.enq(6); // the still-armed drop swallows this one
  EXPECT_EQ(items(F), (std::vector<int>{5}));
}

TEST(BhtTest, LearnsTakenBranches) {
  Bht B(4);
  Bits Pc(0x400, 32);
  Bits Br(1, 1);
  // Weakly not-taken initially.
  EXPECT_FALSE(B.invoke("req", {Pc})->toBool());
  B.invoke("upd", {Pc, Br, Bits(1, 1)});
  EXPECT_TRUE(B.invoke("req", {Pc})->toBool());
  // Saturates: two not-taken to flip back past the weak state.
  B.invoke("upd", {Pc, Br, Bits(1, 1)});
  B.invoke("upd", {Pc, Br, Bits(0, 1)});
  EXPECT_TRUE(B.invoke("req", {Pc})->toBool());
  B.invoke("upd", {Pc, Br, Bits(0, 1)});
  EXPECT_FALSE(B.invoke("req", {Pc})->toBool());
}

TEST(BhtTest, DistinctIndexesAreIndependent) {
  Bht B(4);
  Bits PcA(0x400, 32), PcB(0x404, 32);
  Bits Br(1, 1);
  B.invoke("upd", {PcA, Br, Bits(1, 1)});
  EXPECT_TRUE(B.invoke("req", {PcA})->toBool());
  EXPECT_FALSE(B.invoke("req", {PcB})->toBool());
}

TEST(GshareTest, HistoryDisambiguatesPatterns) {
  // An alternating taken/not-taken branch defeats a plain 2-bit counter
  // but is learned by gshare's global history after warmup.
  Gshare G(6);
  Bits Pc(0x200, 32);
  Bits Br(1, 1);
  unsigned Correct = 0, Total = 0;
  for (int I = 0; I < 200; ++I) {
    bool Taken = I % 2 == 0;
    bool Pred = G.invoke("req", {Pc})->toBool();
    if (I >= 100) {
      ++Total;
      Correct += Pred == Taken;
    }
    G.invoke("upd", {Pc, Br, Bits(Taken ? 1 : 0, 1)});
  }
  EXPECT_GT(Correct * 100, Total * 90) << "gshare should learn alternation";
}

TEST(BhtTest, NonBranchesDontTrain) {
  Bht B(4);
  Bits Pc(0x400, 32);
  B.invoke("upd", {Pc, Bits(0, 1), Bits(1, 1)});
  B.invoke("upd", {Pc, Bits(0, 1), Bits(1, 1)});
  EXPECT_FALSE(B.invoke("req", {Pc})->toBool());
}

} // namespace
