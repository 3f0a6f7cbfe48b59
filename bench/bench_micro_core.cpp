// google-benchmark microbenchmarks of the offload core data structures on
// REAL host time (not simulated): the lock-free MPSC command ring and the
// request pool. These validate that the structures the paper's ~140 ns
// command-post figure depends on are in fact O(100ns) operations.
// BM_FiberSwitch times the simulator itself: the host cost of one fiber
// switch, which bounds how many simulated threads a run can afford.
#include <benchmark/benchmark.h>

#include <thread>

#include "core/command.hpp"
#include "core/mpsc_ring.hpp"
#include "core/request_pool.hpp"
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

}  // namespace

BENCHMARK_MAIN();
