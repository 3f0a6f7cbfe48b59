// MpiEntry — RAII guard for one entry into the MPI library.
//
// Charges the per-call software overhead and, under THREAD_MULTIPLE, the
// extra atomic/locking cost plus the global lock itself. Blocking waits must
// release the lock while sleeping (unlock_for_sleep/relock), which is how
// real big-lock MPIs let a progress thread run while another thread blocks.
//
// When tracing is enabled the entry also emits the library-call span (named
// by the caller) and the big-lock wait/hold spans, which is how lock
// contention under THREAD_MULTIPLE (paper Fig. 6) becomes visible on a
// Perfetto timeline.
#pragma once

#include "machine/profile.hpp"
#include "mpi/rank_ctx.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "trace/scope.hpp"

namespace smpi {

class MpiEntry {
 public:
  /// `call_cost` overrides the fixed entry overhead (mpi_call_overhead) for
  /// thin entry points that skip argument validation and envelope setup —
  /// Start on a persistent request replays a prebuilt envelope, so it pays
  /// Profile::persist_start instead. Locking behavior is unchanged.
  MpiEntry(RankCtx& rc, const char* call_name,
           const sim::Time* call_cost = nullptr)
      : rc_(rc) {
    const auto& p = rc_.profile();
    entered_at_ = sim::now();
    ++rc_.stats().calls;
    if (trace::Tracer::on()) {
      call_span_ = true;
      begin_span(call_name);
    }
    sim::advance(call_cost != nullptr ? *call_cost : p.mpi_call_overhead);
    if (rc_.thread_level() == ThreadLevel::kMultiple) {
      const bool contended = trace::Tracer::on() && rc_.big_lock_.locked();
      if (contended) begin_span("lock:wait");
      rc_.big_lock_.lock();  // Mutex charges big_lock_acquire itself
      if (contended) end_span();
      open_hold_span();
      locked_ = true;
      // The extra THREAD_MULTIPLE bookkeeping happens inside the critical
      // section in big-lock MPIs — this is what makes concurrent calls
      // serialize so badly (paper Fig. 6).
      sim::advance(p.thread_multiple_entry);
    }
  }

  ~MpiEntry() {
    if (locked_) {
      close_hold_span();
      rc_.big_lock_.unlock();
    }
    rc_.stats().time_in_mpi += sim::now() - entered_at_;
    if (call_span_) end_span();
  }

  MpiEntry(const MpiEntry&) = delete;
  MpiEntry& operator=(const MpiEntry&) = delete;

  void unlock_for_sleep() {
    if (locked_) {
      close_hold_span();
      rc_.big_lock_.unlock();
      locked_ = false;
    }
  }
  void relock() {
    if (rc_.thread_level() == ThreadLevel::kMultiple && !locked_) {
      rc_.big_lock_.lock();
      open_hold_span();
      locked_ = true;
    }
  }

 private:
  void begin_span(const char* name) {
    trace::Tracer::instance().begin(trace::ambient_ts(), rc_.rank(),
                                    trace::ambient_tid(), name, "mpi");
  }
  void end_span() {
    trace::Tracer::instance().end(trace::ambient_ts(), rc_.rank(),
                                  trace::ambient_tid());
  }
  void open_hold_span() {
    if (!trace::Tracer::on()) return;
    hold_span_ = true;
    begin_span("lock:hold");
  }
  void close_hold_span() {
    if (!hold_span_) return;
    hold_span_ = false;
    end_span();
  }

  RankCtx& rc_;
  bool locked_ = false;
  bool call_span_ = false;
  bool hold_span_ = false;
  sim::Time entered_at_;
};

}  // namespace smpi
