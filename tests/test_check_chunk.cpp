// Model-checking the chunk install of core::ChunkedSlots, the storage under
// the command rings, the request pool and the continuation slots: threads
// race to first-touch one unbuilt chunk, exactly one built copy wins the
// directory word, and every toucher reads the winner's Init writes through
// the directory's acquire load or the install CAS's failure acquire.
#include <gtest/gtest.h>

#include <string>

#include "check/specs.hpp"

namespace {

using chk::Mode;
using chk::Mutation;
using chk::Options;
using chk::Result;
using chk::Side;
using chk::specs::check_chunk;
using chk::specs::ChunkCfg;

TEST(CheckChunk, ExhaustiveTwoTouchers) {
  Options opt;
  opt.mode = Mode::kExhaustive;
  const Result r = check_chunk(opt);
  EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
  EXPECT_TRUE(r.complete) << "state space not exhausted in " << r.executions;
}

TEST(CheckChunk, ExhaustiveThreeTouchers) {
  Options opt;
  opt.mode = Mode::kExhaustive;
  const Result r = check_chunk(opt, ChunkCfg{3});
  EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
  EXPECT_TRUE(r.complete) << "state space not exhausted in " << r.executions;
}

TEST(CheckChunk, RandomSweepThreeTouchers) {
  Options opt;
  opt.mode = Mode::kRandom;
  opt.iterations = 2000;
  opt.seed = 29;
  const Result r = check_chunk(opt, ChunkCfg{3});
  EXPECT_FALSE(r.failed) << r.str() << "\n" << r.trace;
  EXPECT_EQ(r.executions, 2000u);
}

TEST(CheckChunk, ObservesTheInstallSites) {
  // The header's inventory: acquire on the directory load, release on the
  // install CAS's success and acquire on its failure.
  Options opt;
  opt.mode = Mode::kRandom;
  opt.iterations = 50;
  const Result r = check_chunk(opt);
  ASSERT_FALSE(r.failed) << r.message;
  ASSERT_EQ(r.sites.size(), 3u);
  EXPECT_EQ(r.sites[0],
            (chk::Site{"chunk.dir", chk::OpKind::kLoad, Side::kAcquire}));
  EXPECT_EQ(r.sites[1],
            (chk::Site{"chunk.dir", chk::OpKind::kRmw, Side::kAcquire}));
  EXPECT_EQ(r.sites[2],
            (chk::Site{"chunk.dir", chk::OpKind::kRmw, Side::kRelease}));
}

TEST(CheckChunk, EachWeakenedOrderRacesOnThePayload) {
  // Three touchers, random mode: the failing execution this seed finds
  // leaves a third thread suspended between building its copy and the
  // install CAS. The checker unwinds it; an ASan build reports the copy as
  // leaked if it does not.
  for (const Side side : {Side::kAcquire, Side::kRelease}) {
    for (const chk::OpKind op : {chk::OpKind::kLoad, chk::OpKind::kRmw}) {
      if (op == chk::OpKind::kLoad && side == Side::kRelease) continue;
      Options opt;
      opt.mode = Mode::kRandom;
      opt.iterations = 5000;
      opt.seed = 11;
      opt.mutation = Mutation{"chunk.dir", op, side};
      const Result r = check_chunk(opt, ChunkCfg{3});
      ASSERT_TRUE(r.failed) << "mutant survived: " << opt.mutation.str();
      EXPECT_NE(r.message.find("chunk.payload"), std::string::npos)
          << opt.mutation.str() << ": " << r.message;
    }
  }
}

}  // namespace
