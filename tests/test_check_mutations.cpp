// The mutation suite: proof that the checker specs have teeth.
//
// For every acquire/release site in the lock-free core (the mutation
// matrix), weakening that one site to relaxed must make the paired spec
// FAIL, with a deterministic replay. If the unmodified code passes and all
// mutants die, every memory order in the production code is demonstrably
// load-bearing.
#include <gtest/gtest.h>

#include <set>

#include "check/specs.hpp"

namespace {

using chk::Mode;
using chk::Mutation;
using chk::Options;
using chk::Result;
using chk::Site;
using chk::specs::mutation_matrix;
using chk::specs::run_spec;

Options exhaustive() {
  Options o;
  o.mode = Mode::kExhaustive;
  return o;
}

TEST(CheckMutations, MatrixCoversEveryObservedSyncSite) {
  // Every acquire/release the specs actually execute must have a matrix row
  // (and vice versa), so a new fence added to the production code cannot
  // silently dodge the mutation suite.
  const std::vector<Site> observed = chk::specs::collect_sites();
  std::set<Site> matrix_sites;
  for (const auto& mc : mutation_matrix()) matrix_sites.insert(mc.site);
  EXPECT_EQ(std::set<Site>(observed.begin(), observed.end()), matrix_sites);
}

TEST(CheckMutations, UnmutatedSpecsPass) {
  for (const char* spec :
       {"ring", "pool", "lane", "handshake", "cont", "whenany", "mring",
        "sleep", "chunk"}) {
    Options opt = exhaustive();
    // The default ring cfg does not exhaust within the cap (the per-spec
    // tests cover exhaustion on smaller cfgs); bound the sweep so this stays
    // a quick sanity gate for the mutation runs below.
    opt.max_executions = 30000;
    const Result r = run_spec(spec, opt);
    EXPECT_FALSE(r.failed) << spec << ": " << r.message << "\n" << r.trace;
  }
}

TEST(CheckMutations, EveryMutantIsDetectedAndReplayable) {
  for (const auto& mc : mutation_matrix()) {
    Options opt = exhaustive();
    opt.mutation = Mutation::of(mc.site);
    const Result r = run_spec(mc.spec, opt);
    ASSERT_TRUE(r.failed) << "mutant survived: " << opt.mutation.str()
                          << " (spec " << mc.spec << ", " << r.executions
                          << " executions)";
    EXPECT_FALSE(r.trace.empty()) << opt.mutation.str();
    ASSERT_FALSE(r.failing_trail.empty()) << opt.mutation.str();

    // The reported trail must replay the identical failure.
    Options replay = exhaustive();
    replay.mutation = opt.mutation;
    replay.replay_trail = r.failing_trail;
    const Result again = run_spec(mc.spec, replay);
    ASSERT_TRUE(again.failed) << "replay lost the failure: "
                              << opt.mutation.str();
    EXPECT_EQ(again.executions, 1u);
    EXPECT_EQ(again.message, r.message) << opt.mutation.str();
    EXPECT_EQ(again.trace, r.trace) << opt.mutation.str();
  }
}

TEST(CheckMutations, RandomModeAlsoKillsMutants) {
  // The CI random sweep must find the same bugs from a fixed seed, and the
  // reported seed must reproduce the failure in a single execution.
  for (const auto& mc : mutation_matrix()) {
    Options opt;
    opt.mode = Mode::kRandom;
    opt.iterations = 5000;
    opt.seed = 11;
    opt.mutation = Mutation::of(mc.site);
    const Result r = run_spec(mc.spec, opt);
    ASSERT_TRUE(r.failed) << "mutant survived random sweep: "
                          << opt.mutation.str();

    Options replay;
    replay.mode = Mode::kRandom;
    replay.iterations = 1;
    replay.seed = r.failing_seed;
    replay.mutation = opt.mutation;
    const Result again = run_spec(mc.spec, replay);
    ASSERT_TRUE(again.failed) << opt.mutation.str();
    EXPECT_EQ(again.message, r.message) << opt.mutation.str();
  }
}

}  // namespace
