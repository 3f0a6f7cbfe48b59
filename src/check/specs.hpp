// Checker specs for the lock-free offload protocols.
//
// Each spec constructs the *production* structure (instantiated with
// chk::ModelAtomics), runs a small number of model threads against it, and
// asserts the protocol invariants. They are used three ways:
//
//  * unmodified, they must pass — exhaustively for small bounds, and under
//    long fixed-seed random sweeps (tests/test_check_*.cpp);
//  * under a Mutation (one acquire/release side weakened to relaxed) they
//    must FAIL with a replayable trace — the mutation suite
//    (tests/test_check_mutations.cpp) runs every entry of mutation_matrix();
//  * from the examples/model_check CLI for interactive exploration/replay.
#pragma once

#include <string>
#include <vector>

#include "check/check.hpp"

namespace chk::specs {

/// MpscRing: N producers push FIFO streams, 1 consumer drains. Asserts
/// per-producer FIFO order, no lost or duplicated commands, and exercises
/// the full/empty edges (capacity < total items).
struct RingCfg {
  int producers = 2;
  int items_per_producer = 2;
  std::size_t capacity = 2;  ///< power of two
};
Result check_ring(const Options& opt, const RingCfg& cfg = {});

/// RequestPool: N threads repeatedly alloc -> mark ownership -> free.
/// Asserts slot exclusivity (via a chk::var ownership cell per slot; the
/// pool's own Status var is also race-checked inside alloc) and that no
/// slot is lost or duplicated (final free-list length == capacity).
struct PoolCfg {
  int threads = 2;
  int rounds = 2;
  std::uint32_t capacity = 2;
};
Result check_pool(const Options& opt, const PoolCfg& cfg = {});

/// SpscLane: 1 producer pushes a FIFO stream (first half singly, second half
/// through one try_push_n batch), 1 consumer drains. capacity < items forces
/// wraparound, so every cell is reused and the head release/acquire pair
/// (cell return) is load-bearing, not just the tail publish.
struct LaneCfg {
  int items = 4;
  std::size_t capacity = 2;  ///< power of two
};
Result check_lane(const Options& opt, const LaneCfg& cfg = {});

/// The engine handshake: app thread allocs a request, writes a plain
/// argument cell, pushes the command, rings a doorbell (release); the
/// engine thread waits on the doorbell (acquire), reads the argument
/// *before* popping the ring (so only the doorbell edge orders it),
/// completes the request through the pool. App spins on done() and checks
/// the Status payload round-tripped.
Result check_handshake(const Options& opt);

/// The continuation claim race: a completer publishes a payload cell then
/// fire()s; an attacher publishes a callback-record cell then arm()s. The
/// loser of the claim CAS runs a callback that reads BOTH cells, so the
/// spec asserts exactly-once execution and that each side's publication is
/// visible to the runner under every interleaving.
Result check_cont(const Options& opt);

/// Multi-consumer ring under the DrainClaim protocol (the multi-proxy
/// engine's work-stealing shape): N producers push FIFO streams into the
/// production MpscRing, and M consumers alternate as THE consumer by taking
/// the claim, holding it across pop + bookkeeping (as the engine holds it
/// across pop + issue). The per-producer sequence cells and the drained
/// tally are plain chk::vars handed between consumers only by the claim's
/// release/acquire pair — exactly the role it plays for the lanes' plain
/// cached_tail_ and the MPSC head's single-consumer protocol — so weakening
/// either side of the claim races immediately.
struct MringCfg {
  int producers = 2;
  int items_per_producer = 2;
  std::size_t capacity = 2;  ///< power of two, < total items (full/empty edges)
  int consumers = 2;
};
Result check_mring(const Options& opt, const MringCfg& cfg = {});

/// The engine's sleep transition (the lost-doorbell window): a producer
/// pushes then signals; the engine, with all polls empty, decides to sleep.
/// `buggy=false` models the production ordering — snapshot the doorbell,
/// THEN re-check the queues, sleep beyond the snapshot — and must hold under
/// every interleaving (a push missed by the re-check implies its signal
/// lands after the snapshot). `buggy=true` swaps the two steps,
/// re-introducing the window where a command pushed between re-check and
/// snapshot is counted inside the armed snapshot: the checker finds the
/// interleaving where the engine sleeps on a doorbell that already rang.
Result check_doorbell(const Options& opt, bool buggy = false);

/// The when_any first-wins race (core::AnyClaimT): N completer threads each
/// publish a Status record cell (their member's payload) and then claim()
/// the single winner word with their index. Exactly one claim must succeed;
/// every loser reads the winner's record through its failure-acquire, and an
/// observer thread that polls winner() (acquire) until the race is decided
/// reads the same record — the three orders (CAS release, CAS
/// failure-acquire, winner() load-acquire) are each the only edge ordering
/// one of those reads, so weakening any of them races immediately.
struct WhenAnyCfg {
  int completers = 2;
};
Result check_whenany(const Options& opt, const WhenAnyCfg& cfg = {});

/// The chunk install of core::ChunkedSlots (the storage under the ring,
/// pool and continuation slots): N threads first-touch the same unbuilt
/// chunk — one-entry chunks, so entry 1 is chunk 1 — and read the plain
/// payload cell the chunk's Init wrote. Each read is ordered after the
/// winning builder's Init only by the directory's acquire load (the word
/// was already installed) or by the install CAS's failure acquire (this
/// thread built a copy and lost), each pairing with the winner's release;
/// weakening any of the three races. Asserts that exactly one chunk
/// survives and that every thread uses it.
struct ChunkCfg {
  int threads = 2;
};
Result check_chunk(const Options& opt, const ChunkCfg& cfg = {});

/// Run a spec by name ("ring" | "pool" | "lane" | "handshake" | "cont" |
/// "whenany" | "mring" | "sleep" | "chunk") with its default cfg.
Result run_spec(const std::string& spec, const Options& opt);

/// One row of the mutation suite: weakening `site` must be caught by `spec`.
struct MutationCase {
  Site site;
  const char* spec;  ///< spec name for run_spec()
};

/// The curated site -> detecting-spec table. Covers every acquire/release
/// site the specs observe (test_check_mutations asserts this against
/// collect_sites(), so a new fence added to the production code cannot
/// silently dodge the suite).
std::vector<MutationCase> mutation_matrix();

/// Union of synchronization sites observed while running all specs briefly
/// (random mode, few iterations).
std::vector<Site> collect_sites();

}  // namespace chk::specs
