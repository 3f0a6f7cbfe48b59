#include "check/specs.hpp"

#include <cstdint>
#include <set>
#include <stdexcept>

#include <span>

#include "core/cont_table.hpp"
#include "core/drain_claim.hpp"
#include "core/mpsc_ring.hpp"
#include "core/part_ready.hpp"
#include "core/request_pool.hpp"
#include "core/spsc_lane.hpp"
#include "mpi/types.hpp"

namespace chk::specs {

namespace {

struct RingCmd {
  int producer = -1;
  int seqno = -1;
};

using ModelPool = core::RequestPoolT<ModelAtomics>;

}  // namespace

Result check_ring(const Options& opt, const RingCfg& cfg) {
  return explore(opt, [&cfg](Sim& sim) {
    core::MpscRing<RingCmd, ModelAtomics> ring(cfg.capacity);
    const int total = cfg.producers * cfg.items_per_producer;
    // Consumer-local tallies: plain memory is fine, only one thread touches
    // them (the payload itself goes through the race-checked ring.val vars).
    std::vector<int> next_seq(static_cast<std::size_t>(cfg.producers), 0);
    std::vector<int> got(static_cast<std::size_t>(cfg.producers), 0);
    int popped = 0;

    std::vector<std::function<void()>> bodies;
    bodies.reserve(static_cast<std::size_t>(cfg.producers) + 1);
    for (int p = 0; p < cfg.producers; ++p) {
      bodies.emplace_back([&ring, &cfg, p] {
        for (int s = 0; s < cfg.items_per_producer; ++s) {
          while (!ring.try_push(RingCmd{p, s})) Sim::yield();
        }
      });
    }
    bodies.emplace_back([&] {
      RingCmd c;
      while (popped < total) {
        if (!ring.try_pop(c)) {
          Sim::yield();
          continue;
        }
        check(c.producer >= 0 && c.producer < cfg.producers,
              "popped command has a valid producer id");
        const auto p = static_cast<std::size_t>(c.producer);
        check(c.seqno == next_seq[p], "commands are FIFO per producer");
        ++next_seq[p];
        ++got[p];
        ++popped;
      }
    });
    sim.threads(std::move(bodies));

    for (int p = 0; p < cfg.producers; ++p) {
      check(got[static_cast<std::size_t>(p)] == cfg.items_per_producer,
            "no command lost or duplicated");
    }
    check(ring.empty_approx(), "ring drained");
  });
}

Result check_pool(const Options& opt, const PoolCfg& cfg) {
  return explore(opt, [&cfg](Sim& sim) {
    ModelPool pool(cfg.capacity);
    // One ownership cell per slot. Slot handoff (free -> alloc) must carry a
    // happens-before edge, or two owners' writes race here. alloc() itself
    // also writes the slot's Status var, so corruption inside the pool is
    // usually caught before these cells even trip.
    std::vector<var<int>> owner(cfg.capacity);
    for (std::uint32_t i = 0; i < cfg.capacity; ++i) {
      ModelAtomics::set_name(owner[i], "spec.owner", i);
    }

    std::vector<std::function<void()>> bodies;
    bodies.reserve(static_cast<std::size_t>(cfg.threads));
    for (int t = 0; t < cfg.threads; ++t) {
      bodies.emplace_back([&pool, &owner, &cfg, t] {
        for (int r = 0; r < cfg.rounds; ++r) {
          std::uint32_t idx = ModelPool::kNil;
          while ((idx = pool.alloc()) == ModelPool::kNil) Sim::yield();
          check(idx < cfg.capacity, "alloc returned an in-range slot");
          owner[idx].ref_w() = t;
          Sim::yield();  // widen the window for a second owner to collide
          check(owner[idx].ref_r() == t, "slot ownership is exclusive");
          pool.free(idx);
        }
      });
    }
    sim.threads(std::move(bodies));

    check(pool.free_count() == cfg.capacity,
          "every slot returned to the free list exactly once");
  });
}

Result check_lane(const Options& opt, const LaneCfg& cfg) {
  return explore(opt, [&cfg](Sim& sim) {
    core::SpscLane<int, ModelAtomics> lane(cfg.capacity);
    int popped = 0;  // consumer-local; read by the main body after join
    // The producer's batch buffer. The body owns it because a failed
    // execution abandons suspended threads without unwinding them, so a
    // thread-owned heap buffer would leak.
    std::vector<int> batch;

    sim.threads({
        // Producer: first half pushed singly, second half published through
        // one try_push_n batch, retrying the unconsumed suffix — this drives
        // both the single-item and the batched tail-publish paths.
        [&lane, &cfg, &batch] {
          const int half = cfg.items / 2;
          for (int i = 0; i < half; ++i) {
            while (!lane.try_push(i)) Sim::yield();
          }
          for (int i = half; i < cfg.items; ++i) batch.push_back(i);
          std::span<int> rest(batch);
          while (!rest.empty()) {
            rest = rest.subspan(lane.try_push_n(rest));
            if (!rest.empty()) Sim::yield();
          }
        },
        // Consumer: the stream must come out exactly 0..items-1.
        [&lane, &cfg, &popped] {
          int v = -1;
          while (popped < cfg.items) {
            if (!lane.try_pop(v)) {
              Sim::yield();
              continue;
            }
            check(v == popped, "lane pops FIFO, nothing lost or duplicated");
            ++popped;
          }
        },
    });

    check(popped == cfg.items, "consumer drained every item");
    check(lane.empty_approx(), "lane drained");
  });
}

Result check_handshake(const Options& opt) {
  return explore(opt, [](Sim& sim) {
    struct HsCmd {
      int op = 0;
      std::uint32_t req = ModelPool::kNil;
    };
    core::MpscRing<HsCmd, ModelAtomics> ring(2);
    ModelPool pool(2);
    atomic<int> doorbell{0};
    ModelAtomics::set_name(doorbell, "doorbell");
    // Published ONLY by the doorbell's release/acquire pair: the engine reads
    // it before popping the ring, so the ring's seq protocol cannot mask a
    // weakened doorbell.
    var<int> arg;
    ModelAtomics::set_name(arg, "hs.arg");

    sim.threads({
        // Application thread: alloc -> publish arg -> enqueue -> doorbell ->
        // wait for completion -> validate Status -> free.
        [&] {
          std::uint32_t idx = ModelPool::kNil;
          while ((idx = pool.alloc()) == ModelPool::kNil) Sim::yield();
          arg.ref_w() = 41;
          while (!ring.try_push(HsCmd{1, idx})) Sim::yield();
          doorbell.store(1, std::memory_order_release);
          while (!pool.done(idx)) Sim::yield();
          check(pool.status(idx).bytes == 42,
                "status payload round-tripped through the handshake");
          pool.free(idx);
        },
        // Engine thread: doorbell -> arg -> pop -> complete.
        [&] {
          while (doorbell.load(std::memory_order_acquire) == 0) Sim::yield();
          const int a = arg.ref_r();
          HsCmd c;
          while (!ring.try_pop(c)) Sim::yield();
          check(c.op == 1, "engine popped the issued command");
          smpi::Status st;
          st.bytes = static_cast<std::uint64_t>(a) + 1;
          pool.complete(c.req, st);
        },
    });

    check(pool.free_count() == 2, "request slot returned to the pool");
  });
}

Result check_cont(const Options& opt) {
  return explore(opt, [](Sim& sim) {
    core::ContTableT<ModelAtomics> table(1);
    // What each side publishes before its claim CAS. The callback reads
    // BOTH — so whichever side loses the race, a weakened edge on the
    // winner's publication is a detectable race on one of these cells.
    var<int> payload;  // completer: the Status/done-flag stand-in
    var<int> record;   // attacher: the callback record stand-in
    ModelAtomics::set_name(payload, "cont.payload");
    ModelAtomics::set_name(record, "cont.record");
    int executed = 0;  // only the single callback runner increments
    auto run_cb = [&] {
      check(record.ref_r() == 1, "callback record visible to the runner");
      check(payload.ref_r() == 42, "completion payload visible to the runner");
      ++executed;
    };

    sim.threads({
        // Completer (the offload engine): publish payload, then fire. A true
        // return means a continuation was already armed — run it.
        [&] {
          payload.ref_w() = 42;
          if (table.fire(0)) run_cb();
        },
        // Attacher (the application's .then()): publish the record, then
        // arm. A true return means the completion already fired — run
        // inline.
        [&] {
          record.ref_w() = 1;
          if (table.arm(0)) run_cb();
        },
    });

    check(executed == 1, "callback ran exactly once");
    check(table.state_of(0) != core::ContTableT<ModelAtomics>::kIdle,
          "slot is claimed by exactly one side after the race");
  });
}

Result check_whenany(const Options& opt, const WhenAnyCfg& cfg) {
  return explore(opt, [&cfg](Sim& sim) {
    core::AnyClaimT<ModelAtomics> claim;
    const auto n = static_cast<std::size_t>(cfg.completers);
    // What each member publishes before its claim CAS — the Status record
    // stand-in. The winner's cell is read by every loser (through the failed
    // CAS's acquire) and by the observer (through winner()'s acquire), so a
    // weakened edge on any of the three orders is a detectable race here.
    std::vector<var<int>> record(n);
    for (std::size_t i = 0; i < n; ++i) {
      ModelAtomics::set_name(record[i], "any.record", i);
    }
    int winner_runs = 0;  // only the single claim winner increments

    std::vector<std::function<void()>> bodies;
    bodies.reserve(n + 1);
    for (std::size_t i = 0; i < n; ++i) {
      bodies.emplace_back([&claim, &record, &winner_runs, i] {
        record[i].ref_w() = static_cast<int>(i) + 100;
        std::uint32_t observed;
        if (claim.claim(static_cast<std::uint32_t>(i), observed)) {
          ++winner_runs;  // the win callback: reads its own publication
          check(record[i].ref_r() == static_cast<int>(i) + 100,
                "winner's own record visible in the win callback");
        } else {
          // Loser: the failed CAS observed the winner's index with acquire —
          // the ONLY edge making the winner's record safe to read here (the
          // hedging edge rank reads the winning response buffer like this).
          const auto w = static_cast<std::size_t>(observed);
          check(w < record.size(), "loser observes a decided winner");
          check(record[w].ref_r() == static_cast<int>(w) + 100,
                "winner's record visible to the loser");
        }
      });
    }
    // Observer: a third party (the settled hook / a draining fiber) that
    // learns the winner only through winner()'s acquire load.
    bodies.emplace_back([&claim, &record] {
      std::uint32_t w;
      while ((w = claim.winner()) == core::AnyClaimT<ModelAtomics>::kOpen) {
        Sim::yield();
      }
      check(record[w].ref_r() == static_cast<int>(w) + 100,
            "winner's record visible to a winner() observer");
    });
    sim.threads(std::move(bodies));

    check(winner_runs == 1, "exactly one member won the claim");
    const std::uint32_t w = claim.winner();
    check(w < n, "final winner index is a member");
    claim.reset();
    check(claim.winner() == core::AnyClaimT<ModelAtomics>::kOpen,
          "reset reopens the word for the next group");
  });
}

Result check_mring(const Options& opt, const MringCfg& cfg) {
  return explore(opt, [&cfg](Sim& sim) {
    core::MpscRing<RingCmd, ModelAtomics> ring(cfg.capacity);
    core::DrainClaimT<ModelAtomics> claim;
    const int total = cfg.producers * cfg.items_per_producer;
    // Consumer-side matching state — plain cells ON PURPOSE. The production
    // analogues are the engine's per-peer bookkeeping, the lanes' plain
    // cached_tail_, and the MPSC head's single-consumer protocol: all handed
    // between consumers ONLY by the claim's release/acquire pair. Weaken
    // either side and the race detector fires on these cells (or the ring
    // double-pops and the FIFO check fires).
    std::vector<var<int>> next_seq(static_cast<std::size_t>(cfg.producers));
    for (std::size_t p = 0; p < next_seq.size(); ++p) {
      ModelAtomics::set_name(next_seq[p], "mring.next", p);
    }
    var<int> drained;
    ModelAtomics::set_name(drained, "mring.drained");
    drained.ref_w() = 0;  // ordered before the threads by the spawn edge

    std::vector<std::function<void()>> bodies;
    bodies.reserve(static_cast<std::size_t>(cfg.producers + cfg.consumers));
    for (int p = 0; p < cfg.producers; ++p) {
      bodies.emplace_back([&ring, &cfg, p] {
        for (int s = 0; s < cfg.items_per_producer; ++s) {
          while (!ring.try_push(RingCmd{p, s})) Sim::yield();
        }
      });
    }
    for (int c = 0; c < cfg.consumers; ++c) {
      bodies.emplace_back([&ring, &claim, &next_seq, &drained, total] {
        for (;;) {
          if (!claim.try_claim()) {
            Sim::yield();  // owner or a sibling thief is on it
            continue;
          }
          // Claim held: we are THE consumer of record until release.
          if (drained.ref_r() == total) {
            claim.release();
            return;
          }
          RingCmd cmd;
          while (ring.try_pop(cmd)) {
            const auto p = static_cast<std::size_t>(cmd.producer);
            check(cmd.seqno == next_seq[p].ref_r(),
                  "per-producer FIFO survives the consumer handoff");
            next_seq[p].ref_w() = cmd.seqno + 1;
            drained.ref_w() = drained.ref_r() + 1;
            Sim::yield();  // hold the claim across an interleaving, as the
                           // engine holds it across the issue() yield
          }
          claim.release();
          Sim::yield();
        }
      });
    }
    sim.threads(std::move(bodies));

    check(drained.ref_r() == total, "every command popped exactly once");
    for (std::size_t p = 0; p < next_seq.size(); ++p) {
      check(next_seq[p].ref_r() == cfg.items_per_producer,
            "each producer's stream fully consumed in order");
    }
    check(ring.empty_approx(), "ring drained");
  });
}

Result check_doorbell(const Options& opt, bool buggy) {
  return explore(opt, [buggy](Sim& sim) {
    core::MpscRing<int, ModelAtomics> ring(2);
    atomic<std::uint64_t> doorbell{0};
    ModelAtomics::set_name(doorbell, "doorbell");
    // Engine-local sleep decision, read by the main body after join.
    bool slept = false;
    std::uint64_t armed = 0;

    sim.threads({
        // Producer: publish the command, THEN ring the doorbell — the
        // engine-side sleep protocol is sound only against this order.
        [&ring, &doorbell] {
          while (!ring.try_push(7)) Sim::yield();
          doorbell.store(1, std::memory_order_release);
        },
        // Engine at the sleep transition (its spin/yield polls all came up
        // empty); the two orderings under test differ only in which of
        // {snapshot doorbell, re-check queues} runs first.
        [&ring, &doorbell, &slept, &armed, buggy] {
          if (buggy) {
            // BUG (the lost-doorbell window): re-check the queues FIRST,
            // then snapshot the doorbell to arm the sleep. A command
            // published between the two is counted INSIDE the snapshot —
            // the engine sleeps waiting for a count the doorbell already
            // reached.
            const bool empty = ring.empty_approx();
            Sim::yield();  // the preemption window this ordering leaves open
            const std::uint64_t cur =
                doorbell.load(std::memory_order_acquire);
            if (empty) {
              slept = true;
              armed = cur;
            }
          } else {
            // FIX (the production ordering): snapshot FIRST, then re-check.
            // If the re-check missed a push, that push's signal necessarily
            // lands after the snapshot, so wait_beyond(armed) returns. And
            // if the snapshot saw the signal, the acquire edge makes the
            // push visible to the re-check — the engine cannot sleep at all.
            const std::uint64_t cur =
                doorbell.load(std::memory_order_acquire);
            Sim::yield();
            const bool empty = ring.empty_approx();
            if (empty) {
              slept = true;
              armed = cur;
            }
          }
        },
    });

    // Post-join invariant (the join stands in for wait_beyond returning):
    // sleeping while a command is pending is only sound if the doorbell's
    // final count exceeds the armed snapshot — otherwise the sleep never
    // wakes and the command is stranded.
    if (slept && !ring.empty_approx()) {
      check(doorbell.load(std::memory_order_acquire) > armed,
            "a pending command's signal lands beyond the armed snapshot");
    }
  });
}

Result check_pready(const Options& opt, const PreadyCfg& cfg) {
  return explore(opt, [cfg](Sim& sim) {
    const int n = cfg.publishers;
    core::PartReadyWordT<ModelAtomics> word;
    // One plain payload cell per partition: the compute fiber's slice of the
    // user buffer. Nothing orders these against the engine except the ready
    // word's release/acquire pair — weaken either side and the consumer
    // reads an unpublished slice.
    std::vector<var<int>> payload(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) {
      ModelAtomics::set_name(payload[static_cast<std::size_t>(p)],
                             "pready.payload", static_cast<std::size_t>(p));
    }

    std::vector<std::function<void()>> bodies;
    for (int p = 0; p < n; ++p) {
      bodies.push_back([&, p] {
        payload[static_cast<std::size_t>(p)].ref_w() = 100 + p;
        const std::uint64_t old = word.mark(static_cast<unsigned>(p));
        check((old & (std::uint64_t{1} << p)) == 0,
              "mark() reports a fresh bit (no double pready)");
      });
    }
    // Engine consumer: poll the word, ship every newly-ready partition by
    // reading its payload (the NIC serializes straight from the user
    // buffer). `shipped` is the engine's plain mirror mask.
    bodies.push_back([&] {
      const std::uint64_t all = (std::uint64_t{1} << n) - 1;
      std::uint64_t shipped = 0;
      while (shipped != all) {
        const std::uint64_t ready = word.load();
        std::uint64_t fresh = ready & ~shipped;
        if (fresh == 0) {
          Sim::yield();
          continue;
        }
        for (int p = 0; p < n; ++p) {
          if ((fresh & (std::uint64_t{1} << p)) != 0) {
            check(payload[static_cast<std::size_t>(p)].ref_r() == 100 + p,
                  "partition payload visible when its ready bit is");
          }
        }
        shipped |= fresh;
      }
    });
    sim.threads(std::move(bodies));

    check(word.load() == (std::uint64_t{1} << n) - 1,
          "every partition marked exactly once");
    // Re-arm is quiescent by construction once all threads joined.
    word.reset();
    check(word.load() == 0, "reset clears the word for the next generation");
  });
}

Result run_spec(const std::string& spec, const Options& opt) {
  if (spec == "ring") return check_ring(opt);
  if (spec == "pool") return check_pool(opt);
  if (spec == "lane") return check_lane(opt);
  if (spec == "handshake") return check_handshake(opt);
  if (spec == "cont") return check_cont(opt);
  if (spec == "whenany") return check_whenany(opt);
  if (spec == "mring") return check_mring(opt);
  if (spec == "sleep") return check_doorbell(opt);
  if (spec == "pready") return check_pready(opt);
  throw std::invalid_argument("unknown spec: " + spec);
}

std::vector<MutationCase> mutation_matrix() {
  return {
      // MpscRing seq protocol (both producer and consumer sides share the
      // ring.seq base location; the ring spec catches either side).
      {{"ring.seq", OpKind::kLoad, Side::kAcquire}, "ring"},
      {{"ring.seq", OpKind::kStore, Side::kRelease}, "ring"},
      // SpscLane cached-index protocol: tail release/acquire publishes the
      // payload, head release/acquire returns cells for reuse (the lane spec
      // wraps around, so a weakened head edge races on the recycled cell).
      {{"lane.tail", OpKind::kLoad, Side::kAcquire}, "lane"},
      {{"lane.tail", OpKind::kStore, Side::kRelease}, "lane"},
      {{"lane.head", OpKind::kLoad, Side::kAcquire}, "lane"},
      {{"lane.head", OpKind::kStore, Side::kRelease}, "lane"},
      // RequestPool free-list handoff.
      {{"pool.head", OpKind::kLoad, Side::kAcquire}, "pool"},
      {{"pool.head", OpKind::kRmw, Side::kAcquire}, "pool"},
      {{"pool.head", OpKind::kRmw, Side::kRelease}, "pool"},
      // Completion publish and the doorbell edge: cross-thread only in the
      // handshake spec.
      {{"pool.done", OpKind::kLoad, Side::kAcquire}, "handshake"},
      {{"pool.done", OpKind::kStore, Side::kRelease}, "handshake"},
      {{"doorbell", OpKind::kLoad, Side::kAcquire}, "handshake"},
      {{"doorbell", OpKind::kStore, Side::kRelease}, "handshake"},
      // ContTable claim CAS: the release half of a successful claim
      // publishes that side's record; the acquire half of the FAILED claim
      // is what lets the loser read it before running the callback.
      {{"cont.state", OpKind::kRmw, Side::kAcquire}, "cont"},
      {{"cont.state", OpKind::kRmw, Side::kRelease}, "cont"},
      // AnyClaim first-wins word (when_any): the winning claim's release
      // publishes the winner's Status record; the losers' failure-acquire
      // and the observer's winner() load-acquire are the only edges that
      // make it safe to read. All three load-bearing.
      {{"any.winner", OpKind::kRmw, Side::kRelease}, "whenany"},
      {{"any.winner", OpKind::kRmw, Side::kAcquire}, "whenany"},
      {{"any.winner", OpKind::kLoad, Side::kAcquire}, "whenany"},
      // DrainClaim consumer handoff: the successful try_claim's acquire
      // joins the previous holder's release, carrying the queues'
      // consumer-side plain state between engines. Only the multi-consumer
      // spec exercises two holders, so only it can catch a weakening.
      {{"claim.state", OpKind::kRmw, Side::kAcquire}, "mring"},
      {{"claim.state", OpKind::kStore, Side::kRelease}, "mring"},
      // Partition-ready word: the publisher's fetch_or release publishes the
      // partition payload, the engine's acquire load reads it before the
      // NIC serializes the slice. The only ordering between compute fibers
      // and the engine for partitioned sends — both sides load-bearing.
      {{"pready.word", OpKind::kRmw, Side::kRelease}, "pready"},
      {{"pready.word", OpKind::kLoad, Side::kAcquire}, "pready"},
  };
}

std::vector<Site> collect_sites() {
  Options opt;
  opt.mode = Mode::kRandom;
  opt.iterations = 8;
  opt.seed = 12345;
  std::set<Site> all;
  for (const char* spec :
       {"ring", "pool", "lane", "handshake", "cont", "whenany", "mring",
        "sleep", "pready"}) {
    const Result r = run_spec(spec, opt);
    if (r.failed) {
      throw std::logic_error(std::string("collect_sites: spec '") + spec +
                             "' failed unmutated: " + r.message);
    }
    all.insert(r.sites.begin(), r.sites.end());
  }
  return {all.begin(), all.end()};
}

}  // namespace chk::specs
