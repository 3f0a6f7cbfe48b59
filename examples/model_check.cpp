// CLI driver for the src/check/ model checker.
//
//   model_check <spec> [options]            explore a spec
//   model_check list                        list specs and mutation sites
//
//   <spec>      ring | pool | lane | handshake | cont | whenany | mring | sleep
//               | chunk
//   --random            random exploration (default: exhaustive DFS)
//   --iters N           random-mode executions (default 2000)
//   --seed S            random-mode base seed (default 1)
//   --replay-seed S     replay exactly one random execution
//   --replay-trail T    replay one exhaustive execution, e.g. "3.0.1"
//   --preemptions N     exhaustive preemption bound (default 2)
//   --stale N           stale-read budget per thread/location (default 2)
//   --mutate SITE       weaken one site, e.g. "ring.seq:store:release"
//
// Typical workflow: a CI failure prints "[replay seed 1234]" — rerun with
//   model_check pool --random --replay-seed 1234
// to get the same interleaving trace deterministically.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "check/specs.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: model_check "
               "<ring|pool|lane|handshake|cont|whenany|mring|sleep|chunk|list> "
               "[--random] "
               "[--iters N] [--seed S]\n"
               "                   [--replay-seed S] [--replay-trail T] "
               "[--preemptions N] [--stale N]\n"
               "                   [--mutate loc:op:side]\n");
}

chk::Mutation parse_mutation(const std::string& s) {
  const std::size_t a = s.find(':');
  const std::size_t b = s.rfind(':');
  if (a == std::string::npos || b == a) {
    throw std::invalid_argument("--mutate expects loc:op:side");
  }
  chk::Mutation m;
  m.loc = s.substr(0, a);
  const std::string op = s.substr(a + 1, b - a - 1);
  const std::string side = s.substr(b + 1);
  if (op == "load") {
    m.op = chk::OpKind::kLoad;
  } else if (op == "store") {
    m.op = chk::OpKind::kStore;
  } else if (op == "rmw") {
    m.op = chk::OpKind::kRmw;
  } else {
    throw std::invalid_argument("mutation op must be load|store|rmw");
  }
  if (side == "acquire") {
    m.drop = chk::Side::kAcquire;
  } else if (side == "release") {
    m.drop = chk::Side::kRelease;
  } else {
    throw std::invalid_argument("mutation side must be acquire|release");
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string spec = argv[1];
  if (spec == "list") {
    std::printf(
        "specs: ring pool lane handshake cont whenany mring sleep chunk\n\n"
        "mutation matrix:\n");
    for (const auto& mc : chk::specs::mutation_matrix()) {
      std::printf("  %-30s -> %s\n", mc.site.str().c_str(), mc.spec);
    }
    return 0;
  }

  chk::Options opt;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--random") {
      opt.mode = chk::Mode::kRandom;
    } else if (a == "--iters") {
      opt.iterations = std::strtoull(next(), nullptr, 10);
    } else if (a == "--seed") {
      opt.seed = std::strtoull(next(), nullptr, 10);
    } else if (a == "--replay-seed") {
      opt.mode = chk::Mode::kRandom;
      opt.seed = std::strtoull(next(), nullptr, 10);
      opt.iterations = 1;
    } else if (a == "--replay-trail") {
      opt.mode = chk::Mode::kExhaustive;
      opt.replay_trail = next();
    } else if (a == "--preemptions") {
      opt.preemption_bound = std::atoi(next());
    } else if (a == "--stale") {
      opt.stale_read_bound = std::atoi(next());
    } else if (a == "--mutate") {
      opt.mutation = parse_mutation(next());
    } else {
      usage();
      return 2;
    }
  }

  try {
    const chk::Result r = chk::specs::run_spec(spec, opt);
    if (opt.mutation.active()) {
      std::printf("mutation: %s\n", opt.mutation.str().c_str());
    }
    std::printf("%s\n", r.str().c_str());
    if (r.failed) {
      std::printf("\ninterleaving trace:\n%s", r.trace.c_str());
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
