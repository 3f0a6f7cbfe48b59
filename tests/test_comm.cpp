// CommTable unit tests (context derivation, groups, split computation).
#include <gtest/gtest.h>

#include "mpi/comm.hpp"

using namespace smpi;

TEST(CommTable, WorldAndSelfInitialized) {
  CommTable t;
  t.init(2, 4);
  const CommInfo& w = t.get(kCommWorld);
  EXPECT_EQ(w.size(), 4);
  EXPECT_EQ(w.my_rank, 2);
  EXPECT_EQ(w.context, 0u);
  EXPECT_EQ(w.to_global(3), 3);
  const CommInfo& s = t.get(kCommSelf);
  EXPECT_EQ(s.size(), 1);
  EXPECT_EQ(s.my_rank, 0);
  EXPECT_EQ(s.to_global(0), 2);
}

TEST(CommTable, DupPreservesGroupFreshContext) {
  CommTable t;
  t.init(1, 4);
  Comm d1 = t.dup(kCommWorld);
  Comm d2 = t.dup(kCommWorld);
  EXPECT_NE(t.get(d1).context, t.get(d2).context);
  EXPECT_NE(t.get(d1).context, t.get(kCommWorld).context);
  EXPECT_EQ(t.get(d1).group, t.get(kCommWorld).group);
  EXPECT_EQ(t.get(d1).my_rank, 1);
}

TEST(CommTable, ContextDerivationAgreesAcrossRanks) {
  // Two ranks independently performing the same constructor sequence must
  // compute identical context ids — that is the whole point of the scheme.
  CommTable a, b;
  a.init(0, 4);
  b.init(3, 4);
  Comm da = a.dup(kCommWorld);
  Comm db = b.dup(kCommWorld);
  EXPECT_EQ(a.get(da).context, b.get(db).context);
  Comm da2 = a.dup(da);
  Comm db2 = b.dup(db);
  EXPECT_EQ(a.get(da2).context, b.get(db2).context);
}

TEST(CommTable, SplitGroupsByColorOrdersByKey) {
  CommTable t;
  t.init(2, 6);
  // colors: even/odd; keys reverse the rank order within each color.
  std::vector<std::pair<int, int>> ck;
  for (int r = 0; r < 6; ++r) ck.push_back({r % 2, -r});
  Comm sub = t.split(kCommWorld, ck);
  const CommInfo& ci = t.get(sub);
  EXPECT_EQ(ci.size(), 3);
  // Even ranks {0,2,4} with keys {0,-2,-4} -> order 4,2,0.
  EXPECT_EQ(ci.group, (std::vector<int>{4, 2, 0}));
  EXPECT_EQ(ci.my_rank, 1);  // rank 2 lands in the middle
}

TEST(CommTable, SplitNegativeColorOptsOut) {
  CommTable t;
  t.init(0, 4);
  std::vector<std::pair<int, int>> ck{{-1, 0}, {0, 0}, {0, 0}, {0, 0}};
  Comm sub = t.split(kCommWorld, ck);
  EXPECT_FALSE(sub.valid());
}

TEST(CommTable, FromGlobalTranslations) {
  CommTable t;
  t.init(0, 6);
  std::vector<std::pair<int, int>> ck;
  for (int r = 0; r < 6; ++r) ck.push_back({r % 2, r});
  Comm sub = t.split(kCommWorld, ck);
  const CommInfo& ci = t.get(sub);
  EXPECT_EQ(ci.from_global(4), 2);
  EXPECT_EQ(ci.from_global(1), kAnySource);  // not a member
}

TEST(CommTable, InvalidHandleThrows) {
  CommTable t;
  t.init(0, 2);
  EXPECT_THROW(static_cast<void>(t.get(Comm{99})), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(t.get(kCommNull)), std::invalid_argument);
}
