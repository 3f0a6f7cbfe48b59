// The one op vocabulary: every MPI call a Proxy accepts is spelled as a
// Command, whichever approach then issues it.
#pragma once

#include <cstdint>

#include "mpi/types.hpp"

namespace smpi {
class RankCtx;
}

namespace core {

enum class CmdOp : std::uint8_t {
  kShutdown,
  kIsend,
  kIrecv,
  kIbarrier,
  kIbcast,
  kIreduce,
  kIallreduce,
  kIalltoall,
  kIallgather,
  /// Re-arm an offload persistent request: `proxy` names its pinned pool
  /// slot and nothing else — the envelope already lives in the persistent
  /// record, which is why this command is cheap to publish
  /// (Profile::cmd_enqueue_persist).
  kStartPersistent,
  /// Tear down an offload persistent request's MPI-level requests and
  /// release its pinned pool slot (`proxy`). Ring FIFO guarantees it runs
  /// after every start of that request.
  kFreePersistent,
};

/// Stable display name for a command opcode (trace span labels, logs).
constexpr const char* cmd_op_name(CmdOp op) {
  switch (op) {
    case CmdOp::kShutdown:   return "cmd:shutdown";
    case CmdOp::kIsend:      return "cmd:isend";
    case CmdOp::kIrecv:      return "cmd:irecv";
    case CmdOp::kIbarrier:   return "cmd:ibarrier";
    case CmdOp::kIbcast:     return "cmd:ibcast";
    case CmdOp::kIreduce:    return "cmd:ireduce";
    case CmdOp::kIallreduce: return "cmd:iallreduce";
    case CmdOp::kIalltoall:  return "cmd:ialltoall";
    case CmdOp::kIallgather: return "cmd:iallgather";
    case CmdOp::kStartPersistent: return "cmd:start-persistent";
    case CmdOp::kFreePersistent:  return "cmd:free-persistent";
  }
  return "cmd:?";
}

/// Proxy-level request handle. Meaning is proxy-specific (real smpi request
/// index for direct proxies; RequestPool slot + 1 for offload). Zero is the
/// null handle for every proxy — a default-constructed PReq is null, and
/// completion calls null handles they release, so waiting twice is safe.
struct PReq {
  std::uint64_t v = 0;
  [[nodiscard]] bool is_null() const { return v == 0; }
};

/// Persistent (init-once/start-many) request handle: index + 1 of the
/// proxy's persistent record, under every approach. Unlike PReq, wait does
/// NOT consume it: it returns to the inactive state, ready for the next
/// start(); only request_free() retires it. Zero is the null handle.
struct PersistentReq {
  std::uint64_t v = 0;
  [[nodiscard]] bool is_null() const { return v == 0; }
};

/// One MPI call, parameters serialized into a flat struct (the paper's
/// "call-specific structure"). `proxy` is the offload RequestPool slot whose
/// done flag signals completion back to the application thread.
struct Command {
  CmdOp op = CmdOp::kShutdown;
  std::uint32_t proxy = 0;
  const void* sbuf = nullptr;
  void* rbuf = nullptr;
  std::uint64_t count = 0;
  smpi::Datatype dtype = smpi::Datatype::kByte;
  smpi::Op rop = smpi::Op::kSum;
  int peer = -1;  ///< dst/src/root/target depending on op
  int tag = 0;
  smpi::Comm comm = smpi::kCommWorld;

  // The point-to-point shapes Proxy::post_batch accepts.
  static Command isend(const void* b, std::uint64_t n, smpi::Datatype dt,
                       int dst, int tag, smpi::Comm c = smpi::kCommWorld) {
    return {.op = CmdOp::kIsend, .sbuf = b, .count = n, .dtype = dt,
            .peer = dst, .tag = tag, .comm = c};
  }
  static Command irecv(void* b, std::uint64_t n, smpi::Datatype dt, int src,
                       int tag, smpi::Comm c = smpi::kCommWorld) {
    return {.op = CmdOp::kIrecv, .rbuf = b, .count = n, .dtype = dt,
            .peer = src, .tag = tag, .comm = c};
  }
};

/// Issue `cmd` on `rc`: the one place an op becomes a RankCtx call, shared
/// by the direct proxies (caller's thread) and the offload engines. Every
/// issuable op returns a live request; kShutdown and the persistent ops are
/// not issuable here.
smpi::Request execute(smpi::RankCtx& rc, const Command& cmd);

}  // namespace core
