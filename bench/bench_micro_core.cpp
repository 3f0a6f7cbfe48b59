// google-benchmark microbenchmarks of the offload core data structures on
// REAL host time (not simulated): the lock-free MPSC command ring and the
// request pool. These validate that the structures the paper's ~140 ns
// command-post figure depends on are in fact O(100ns) operations.
// BM_FiberSwitch, BM_StepChain and BM_EventCallback time the simulator
// itself: the host cost of one fiber switch, of one step of an
// advance_steps chain and of one timed callback, which bound how many
// simulated threads and messages a run can afford. BM_AllreduceRing times
// the collective data path: copies, combines and stage payloads.
#include <benchmark/benchmark.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/command.hpp"
#include "core/mpsc_ring.hpp"
#include "core/proxy.hpp"
#include "core/request_pool.hpp"
#include "mpi/cluster.hpp"
#include "sim/engine.hpp"

namespace {

void BM_RingPushPop(benchmark::State& state) {
  core::MpscRing<core::Command> ring(1024);
  core::Command cmd;
  cmd.op = core::CmdOp::kIsend;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.try_push(cmd));
    core::Command out;
    benchmark::DoNotOptimize(ring.try_pop(out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingPushPop);

void BM_RingContendedPush(benchmark::State& state) {
  static core::MpscRing<core::Command>* ring = nullptr;
  static std::thread* drainer = nullptr;
  static std::atomic<bool> stop{false};
  if (state.thread_index() == 0) {
    ring = new core::MpscRing<core::Command>(4096);
    stop.store(false);
    drainer = new std::thread([] {
      core::Command out;
      while (!stop.load(std::memory_order_acquire)) {
        while (ring->try_pop(out)) {
        }
      }
    });
  }
  core::Command cmd;
  cmd.op = core::CmdOp::kIsend;
  for (auto _ : state) {
    while (!ring->try_push(cmd)) {
    }
  }
  if (state.thread_index() == 0) {
    stop.store(true, std::memory_order_release);
    drainer->join();
    delete drainer;
    delete ring;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingContendedPush)->Threads(1)->Threads(2)->Threads(4);

void BM_RequestPoolAllocFree(benchmark::State& state) {
  core::RequestPool pool(4096);
  for (auto _ : state) {
    const std::uint32_t idx = pool.alloc();
    benchmark::DoNotOptimize(idx);
    pool.free(idx);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RequestPoolAllocFree);

void BM_RequestPoolCompleteCheck(benchmark::State& state) {
  core::RequestPool pool(16);
  const std::uint32_t idx = pool.alloc();
  smpi::Status st;
  for (auto _ : state) {
    pool.complete(idx, st);
    benchmark::DoNotOptimize(pool.done(idx));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RequestPoolCompleteCheck);

// Two fibers alternate through sim::yield() in one Engine::run. A switch is
// one scheduler dispatch into a fiber (EngineStats::context_switches): an
// event-queue push and pop plus a stack switch in and out. `per_switch` is
// host CPU time divided by that count.
void BM_FiberSwitch(benchmark::State& state) {
  sim::Engine engine;
  bool done = false;
  engine.spawn("timed", [&] {
    for (auto _ : state) sim::yield();
    done = true;
  });
  engine.spawn("partner", [&] {
    while (!done) sim::yield();
  });
  engine.run();
  state.counters["per_switch"] = benchmark::Counter(
      static_cast<double>(engine.stats().context_switches),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FiberSwitch);

// One fiber runs 64-step chains (sim::Engine::advance_steps) while 32 other
// fibers sit in the event queue, waking once per simulated millisecond. Each
// step fires as an event, but only a chain's last step switches into the
// fiber. `per_step` is host CPU time divided by the steps run.
void BM_StepChain(benchmark::State& state) {
  constexpr std::uint64_t kSteps = 64;
  sim::Engine engine;
  bool done = false;
  engine.spawn("timed", [&] {
    for (auto _ : state) sim::advance_steps(sim::Time(1), kSteps);
    done = true;
  });
  for (int i = 0; i < 32; ++i) {
    engine.spawn("queued", [&] {
      while (!done) sim::advance(sim::Time::from_ms(1));
    });
  }
  engine.run();
  state.counters["per_step"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kSteps),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_StepChain);

// One Engine::call_at plus the dispatch of its callback, from scheduler
// context: the path every wire delivery takes
// (machine::Network::schedule_delivery). The closure captures 64 bytes,
// too many for std::function's local buffer, so it lives on the heap like
// a delivery closure does. `per_callback` is host CPU time divided by the
// events fired.
void BM_EventCallback(benchmark::State& state) {
  sim::Engine engine;
  std::uint64_t sum = 0;
  const std::array<std::uint64_t, 7> words{1, 2, 3, 4, 5, 6, 7};
  for (auto _ : state) {
    engine.call_at(engine.now(), [out = &sum, words] { *out += words[6]; });
    engine.run();
  }
  benchmark::DoNotOptimize(sum);
  state.counters["per_callback"] = benchmark::Counter(
      static_cast<double>(engine.stats().events_fired),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_EventCallback);

// One 1 MiB iallreduce of doubles over 8 ranks plus its wait, under the
// baseline approach, on the segmented ring schedule. The cluster, proxies
// and buffers are built before the timed loop, which rank 0 runs; every
// other rank runs the same number of iterations. The time per iteration is
// the host cost of one whole collective, all eight ranks together.
void BM_AllreduceRing(benchmark::State& state) {
  constexpr std::size_t kDoubles = (std::size_t{1} << 20) / sizeof(double);
  smpi::ClusterConfig cfg;
  cfg.nranks = 8;
  cfg.thread_level = core::required_thread_level(core::Approach::kBaseline);
  cfg.allreduce_algo = smpi::CollAlgo::kRing;
  smpi::Cluster cluster(cfg);
  const benchmark::IterationCount iters = state.max_iterations;
  cluster.run([&](smpi::RankCtx& rc) {
    auto p = core::make_proxy(core::Approach::kBaseline, rc);
    std::vector<double> sbuf(kDoubles, rc.rank() + 1.0), rbuf(kDoubles);
    const auto allreduce = [&] {
      core::PReq r = p->iallreduce(sbuf.data(), rbuf.data(), kDoubles,
                                   smpi::Datatype::kDouble, smpi::Op::kSum);
      p->wait(r);
      benchmark::DoNotOptimize(rbuf.data());
      benchmark::ClobberMemory();
    };
    p->barrier();
    if (rc.rank() == 0) {
      for (auto _ : state) allreduce();
    } else {
      for (benchmark::IterationCount i = 0; i < iters; ++i) allreduce();
    }
    p->stop();
  });
}
BENCHMARK(BM_AllreduceRing)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
