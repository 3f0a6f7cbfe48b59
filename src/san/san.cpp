#include "san/san.hpp"

#include <cstdio>
#include <deque>
#include <map>
#include <set>
#include <utility>

#include "san/vclock.hpp"
#include "trace/tracer.hpp"
#include "util/spec_parser.hpp"

namespace san {

namespace {

/// Inflight buffer registration (one per rendezvous send / pending recv).
struct Reg {
  int rank = 0;
  int req = 0;
  const std::byte* lo = nullptr;
  const std::byte* hi = nullptr;  ///< one past the end
  bool write = false;             ///< true for recv targets (wire writes them)
  bool has_sum = false;
  std::uint64_t sum = 0;

  [[nodiscard]] bool overlaps(const void* p, std::size_t n) const {
    const auto* b = static_cast<const std::byte*>(p);
    return b < hi && b + n > lo;
  }
  [[nodiscard]] const char* dir() const { return write ? "recv" : "send"; }
};

/// Per-communicator-context collective posting log: the first rank to post
/// collective #i on a context defines the expected (kind, root); every other
/// rank's #i post must match.
struct CollLog {
  struct Entry {
    int kind = 0;
    int root = -1;
    std::string name;
  };
  std::vector<Entry> order;
  std::map<int, std::size_t> cursor;  ///< rank -> next posting index
};

struct State {
  Options opt;
  int depth = 0;

  // --- reporter ---
  std::vector<Report> reps;
  std::set<std::string> seen_messages;
  Stats stats;

  // --- race detector: actor context ---
  std::uint64_t cur = 0;  ///< current actor (0 = scheduler context)
  std::int64_t now_ns = 0;
  std::uint32_t sched_tick = 0;  ///< keeps actor 0's own component monotone
  std::vector<std::string> names;
  std::vector<VClock> clocks;
  std::map<std::uint64_t, VClock> pending;    ///< wake edges awaiting switch-in
  std::map<std::uint64_t, VClock> snapshots;  ///< fn-event seq -> poster clock
  std::map<std::pair<const void*, std::uint64_t>, VClock> sync;
  std::map<const void*, std::deque<VClock>> chans;
  std::map<const void*, ShadowVar> shadow;

  // --- usage lint ---
  std::map<std::uint64_t, Reg> regs;  ///< (rank<<32|req) -> registration
  std::map<std::uint32_t, CollLog> colls;
};

// Session state lives for the whole process: reports/stats stay readable
// after end_session(); the next begin_session() resets them.
State& st() {
  static State s;
  return s;
}

std::uint64_t reg_key(int rank, int req) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank)) << 32U) |
         static_cast<std::uint32_t>(req);
}

std::uint64_t fnv1a(const void* p, std::size_t n) {
  const auto* b = static_cast<const std::byte*>(p);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<std::uint64_t>(b[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

void raise(const char* kind, std::string msg) {
  State& s = st();
  if (!s.seen_messages.insert(msg).second) return;  // dedupe repeats
  ++s.stats.reports;
  if (s.reps.size() < s.opt.max_reports) {
    s.reps.push_back(Report{kind, msg});
  }
  std::fprintf(stderr, "[san] %s: %s\n", kind, msg.c_str());
  if (trace::Tracer::on()) {
    trace::Tracer::instance().instant(s.now_ns, /*pid=*/-1, trace::kHwTid,
                                      std::string("san:") + kind, "san");
  }
  if (s.opt.fail) throw Error(std::string(kind) + ": " + msg);
}

void ensure_actor(std::uint64_t a) {
  State& s = st();
  if (s.clocks.size() <= a) {
    s.clocks.resize(a + 1);
    s.names.resize(a + 1);
  }
  if (s.clocks[a].at(a) == 0) s.clocks[a].set(a, 1);
}

VClock& clock_of(std::uint64_t a) {
  ensure_actor(a);
  return st().clocks[a];
}

std::string actor_label(std::uint64_t a) {
  const State& s = st();
  const std::string& n = a < s.names.size() ? s.names[a] : std::string();
  if (!n.empty()) return "'" + n + "'";
  return a == 0 ? "'scheduler'" : "actor " + std::to_string(a);
}

std::string access_label(const Access& acc, bool write) {
  return std::string(write ? "write" : "read") + " by " +
         (acc.actor_name.empty() ? actor_label(acc.epoch.actor)
                                 : "'" + acc.actor_name + "'") +
         " at " + std::to_string(acc.time_ns) + "ns";
}

void report_race(const char* site, const Access& prev, bool prev_write,
                 const Access& now, bool now_write) {
  raise("race", std::string("race on ") + site + ": " +
                    access_label(prev, prev_write) + " vs " +
                    access_label(now, now_write) +
                    " (no happens-before edge between them)");
}

/// Overlap scan for the usage lint; returns the first (deterministic:
/// std::map order) inflight registration intersecting [p, p+n). `rank` scopes
/// the scan to one rank's registrations — ranks model separate address
/// spaces, so identical pointers across ranks are not real sharing (pass -1
/// to scan every rank, for annotations that carry no rank context).
const Reg* find_overlap(int rank, const void* p, std::size_t n,
                        bool writes_needed) {
  if (n == 0) return nullptr;
  for (const auto& [k, reg] : st().regs) {
    if (rank >= 0 && reg.rank != rank) continue;
    if (writes_needed && !reg.write) continue;
    if (reg.overlaps(p, n)) return &reg;
  }
  return nullptr;
}

std::string reg_str(const Reg& reg) {
  return std::string(reg.dir()) + " request #" + std::to_string(reg.req) +
         " of rank " + std::to_string(reg.rank) + " (" +
         std::to_string(reg.hi - reg.lo) + " bytes inflight)";
}

}  // namespace

// --------------------------------------------------------------- options ----

Options Options::parse(const std::string& spec) {
  Options o;
  if (spec.empty() || spec == "0") return o;
  // The leading bare token is the master switch — everything after the first
  // comma is an ordinary key:value spec handled by the shared grammar engine.
  const std::size_t head_end = spec.find(',');
  const std::string head = spec.substr(0, head_end);
  if (head != "0" && head != "1") {
    throw std::invalid_argument(
        "MPIOFF_SAN: spec must start with '1' (on) or '0' (off), got '" +
        spec + "'");
  }
  const std::string rest =
      head_end == std::string::npos ? std::string() : spec.substr(head_end + 1);
  if (head == "0") {
    if (!rest.empty()) {
      throw std::invalid_argument(
          "MPIOFF_SAN: '0' disables the sanitizer and takes no keys");
    }
    return o;
  }
  o.enabled = true;
  util::SpecParser grammar("MPIOFF_SAN", ":",
                           "race, usage, fail, max_reports");
  grammar.key("race").key("usage").key("fail").key("max_reports");
  for (const util::SpecItem& it : grammar.parse(rest)) {
    if (it.key == "race") {
      o.race = util::SpecParser::parse_bool("MPIOFF_SAN", it.value, it.key);
    } else if (it.key == "usage") {
      o.usage = util::SpecParser::parse_bool("MPIOFF_SAN", it.value, it.key);
    } else if (it.key == "fail") {
      o.fail = util::SpecParser::parse_bool("MPIOFF_SAN", it.value, it.key);
    } else if (it.key == "max_reports") {
      std::size_t n = 0;
      try {
        n = util::SpecParser::parse_count("MPIOFF_SAN", it.value, it.key);
      } catch (const std::invalid_argument&) {
        n = 0;
      }
      if (n == 0) {
        throw std::invalid_argument(
            "MPIOFF_SAN: max_reports takes a positive integer, got '" +
            it.value + "'");
      }
      o.max_reports = n;
    }
  }
  return o;
}

// --------------------------------------------------------------- session ----

namespace detail {
bool g_on = false;
bool g_race = false;
bool g_usage = false;
}  // namespace detail

bool begin_session(const Options& o) {
  State& s = st();
  if (s.depth > 0) {  // nested cluster: join the outer session
    ++s.depth;
    return true;
  }
  if (!o.enabled) return false;
  s = State{};
  s.opt = o;
  s.depth = 1;
  s.names.resize(1);
  s.names[0] = "scheduler";
  ensure_actor(0);
  detail::g_on = true;
  detail::g_race = o.race;
  detail::g_usage = o.usage;
  return true;
}

bool begin_session(const std::string& spec) {
  return begin_session(Options::parse(spec));
}

void end_session() {
  State& s = st();
  if (s.depth == 0) return;
  if (--s.depth > 0) return;
  detail::g_on = false;
  detail::g_race = false;
  detail::g_usage = false;
  // Reports, stats and shadow stay readable until the next begin_session().
}

const std::vector<Report>& reports() { return st().reps; }

std::size_t count(const char* kind) {
  std::size_t n = 0;
  for (const Report& r : st().reps) {
    if (r.kind == kind) ++n;
  }
  return n;
}

const Stats& stats() { return st().stats; }

std::string engine_block_message(const char* what) {
  std::string msg =
      std::string("blocking wait in offload-engine context (") + what +
      "): continuations must not block the offload engine "
      "(attach another continuation instead)";
  if (detail::g_usage) raise("engine-block", msg);
  return msg;
}

// ------------------------------------------------- race-detector slow path ----

namespace detail {

void on_switch_slow(std::uint64_t actor, const char* name, std::int64_t ns) {
  State& s = st();
  s.cur = actor;
  s.now_ns = ns;
  ensure_actor(actor);
  if (name != nullptr && s.names[actor].empty()) s.names[actor] = name;
  if (const auto it = s.pending.find(actor); it != s.pending.end()) {
    s.clocks[actor].join(it->second);
    s.pending.erase(it);
    ++s.stats.sync_edges;
  }
}

void on_fork_slow(std::uint64_t child, const char* name) {
  State& s = st();
  VClock c = clock_of(s.cur);
  c.set(child, c.at(child) + 1);
  ensure_actor(child);
  s.clocks[child] = std::move(c);
  if (name != nullptr) s.names[child] = name;
  clock_of(s.cur).tick(s.cur);
  ++s.stats.sync_edges;
}

void on_wake_slow(std::uint64_t target) {
  State& s = st();
  s.pending[target].join(clock_of(s.cur));
  clock_of(s.cur).tick(s.cur);
  ++s.stats.sync_edges;
}

void event_post_slow(std::uint64_t seq) {
  State& s = st();
  s.snapshots[seq] = clock_of(s.cur);
  clock_of(s.cur).tick(s.cur);
  ++s.stats.sync_edges;
}

void event_fire_slow(std::uint64_t seq, std::int64_t ns) {
  State& s = st();
  s.cur = 0;
  s.now_ns = ns;
  ensure_actor(0);
  // The scheduler ADOPTS the posting snapshot instead of joining it: an
  // event chain (post -> fire -> post -> ...) carries exactly its own causal
  // history, so the scheduler never becomes a sink that transitively orders
  // every fiber with every other. Its own component stays monotone via a
  // dedicated tick so scheduler-context epochs remain well-ordered.
  if (const auto it = s.snapshots.find(seq); it != s.snapshots.end()) {
    s.clocks[0] = std::move(it->second);
    s.snapshots.erase(it);
  }
  s.clocks[0].set(0, ++s.sched_tick);
  ++s.stats.sync_edges;
}

void acquire_slow(const void* obj, std::uint64_t sub) {
  State& s = st();
  if (const auto it = s.sync.find({obj, sub}); it != s.sync.end()) {
    clock_of(s.cur).join(it->second);
  }
  ++s.stats.sync_edges;
}

void release_slow(const void* obj, std::uint64_t sub) {
  State& s = st();
  s.sync[{obj, sub}].join(clock_of(s.cur));
  clock_of(s.cur).tick(s.cur);
  ++s.stats.sync_edges;
}

void channel_push_slow(const void* chan, std::uint64_t n) {
  State& s = st();
  auto& q = s.chans[chan];
  for (std::uint64_t i = 0; i < n; ++i) q.push_back(clock_of(s.cur));
  clock_of(s.cur).tick(s.cur);
  ++s.stats.sync_edges;
}

void channel_pop_slow(const void* chan) {
  State& s = st();
  auto& q = s.chans[chan];
  if (!q.empty()) {
    clock_of(s.cur).join(q.front());
    q.pop_front();
  }
  ++s.stats.sync_edges;
}

void access_slow(const void* p, std::size_t n, bool write, const char* site) {
  State& s = st();
  if (g_race) {
    ++s.stats.race_checks;
    VClock& c = clock_of(s.cur);
    ShadowVar& v = s.shadow[p];
    const Access now_acc{Epoch{static_cast<std::uint32_t>(s.cur),
                               c.at(s.cur)},
                         site, s.cur < s.names.size() ? s.names[s.cur] : "",
                         s.now_ns};
    if (write) {
      if (v.last_write.epoch.valid() && !v.last_write.epoch.before(c)) {
        report_race(site, v.last_write, true, now_acc, true);
      } else {
        for (const Access& r : v.reads) {
          if (!r.epoch.before(c)) {
            report_race(site, r, false, now_acc, true);
            break;
          }
        }
      }
      v.reads.clear();
      v.last_write = now_acc;
    } else {
      if (v.last_write.epoch.valid() && !v.last_write.epoch.before(c)) {
        report_race(site, v.last_write, true, now_acc, false);
      }
      bool replaced = false;
      for (Access& r : v.reads) {
        if (r.epoch.actor == now_acc.epoch.actor) {
          r = now_acc;
          replaced = true;
          break;
        }
      }
      if (!replaced) v.reads.push_back(now_acc);
    }
  }
  if (g_usage) {
    // An annotated WRITE may not touch any inflight buffer; an annotated
    // READ may not touch an inflight recv target (inflight send buffers are
    // legal to read).
    if (const Reg* reg = find_overlap(-1, p, n, /*writes_needed=*/!write)) {
      if (write) {
        raise("write-inflight",
              std::string("annotated write at ") + site + " (" +
                  std::to_string(n) + " bytes) overlaps the buffer of " +
                  reg_str(*reg));
      } else {
        raise("read-inflight-recv",
              std::string("annotated read at ") + site + " (" +
                  std::to_string(n) +
                  " bytes) overlaps the not-yet-complete target of " +
                  reg_str(*reg));
      }
    }
  }
}

// ------------------------------------------------------ usage-lint slow path ----

void post_send_slow(int rank, int req, const void* buf, std::size_t n) {
  if (buf == nullptr || n == 0) return;  // phantom transfer: timing only
  State& s = st();
  // A new send range may not intersect any of THIS rank's inflight recv
  // targets (the wire will scribble into it); send-over-send is legal (both
  // only read).
  if (const Reg* other = find_overlap(rank, buf, n, /*writes_needed=*/true)) {
    raise("overlap", "rank " + std::to_string(rank) + " posted send request #" +
                         std::to_string(req) + " (" + std::to_string(n) +
                         " bytes) overlapping " + reg_str(*other));
  }
  Reg r;
  r.rank = rank;
  r.req = req;
  r.lo = static_cast<const std::byte*>(buf);
  r.hi = r.lo + n;
  r.write = false;
  r.has_sum = true;
  r.sum = fnv1a(buf, n);
  s.regs[reg_key(rank, req)] = r;
  ++s.stats.buffer_regs;
  ++s.stats.checksums;
}

void post_recv_slow(int rank, int req, const void* buf, std::size_t n) {
  if (buf == nullptr || n == 0) return;  // phantom transfer: timing only
  State& s = st();
  // A recv target may not intersect ANY of this rank's inflight
  // registrations: two pending recvs into one range race on the wire, and
  // recv-over-send corrupts the send's stable bytes.
  if (const Reg* other = find_overlap(rank, buf, n, /*writes_needed=*/false)) {
    raise("overlap", "rank " + std::to_string(rank) + " posted recv request #" +
                         std::to_string(req) + " (" + std::to_string(n) +
                         " bytes) overlapping " + reg_str(*other));
  }
  Reg r;
  r.rank = rank;
  r.req = req;
  r.lo = static_cast<const std::byte*>(buf);
  r.hi = r.lo + n;
  r.write = true;
  s.regs[reg_key(rank, req)] = r;
  ++s.stats.buffer_regs;
}

void complete_slow(int rank, int req) {
  State& s = st();
  const auto it = s.regs.find(reg_key(rank, req));
  if (it == s.regs.end()) return;  // eager/internal: never registered
  const Reg r = it->second;
  s.regs.erase(it);
  if (r.has_sum) {
    ++s.stats.checksums;
    if (fnv1a(r.lo, static_cast<std::size_t>(r.hi - r.lo)) != r.sum) {
      raise("send-buffer-modified",
            "rank " + std::to_string(rank) + " modified the buffer of " +
                reg_str(r) +
                " while it was inflight (checksum at completion differs "
                "from checksum at post)");
    }
  }
}

bool handle_ok_slow(int rank, int req, const char* call) {
  raise("stale-request",
        std::string(call) + " on rank " + std::to_string(rank) +
            " used request handle #" + std::to_string(req) +
            " after it was released (double wait/test); the operation was "
            "skipped");
  return false;
}

void coll_posted_slow(int rank, std::uint32_t ctx, int kind, int root,
                      const char* name) {
  State& s = st();
  CollLog& log = s.colls[ctx];
  const std::size_t i = log.cursor[rank]++;
  if (i == log.order.size()) {
    log.order.push_back(CollLog::Entry{kind, root, name});
    return;
  }
  const CollLog::Entry& want = log.order[i];
  if (want.kind != kind || want.root != root) {
    raise("coll-order",
          "rank " + std::to_string(rank) + " posted " + name + "(root " +
              std::to_string(root) + ") as collective #" + std::to_string(i) +
              " on comm context " + std::to_string(ctx) +
              ", but another rank posted " + want.name + "(root " +
              std::to_string(want.root) +
              ") there — collectives must be posted in the same order with "
              "the same root on every rank");
  }
}

void persist_misuse_slow(int rank, const char* call, const char* what) {
  raise("persist-misuse",
        std::string(call) + " on rank " + std::to_string(rank) + ": " + what +
            " — persistent requests cycle init -> start -> complete -> "
            "(restart | free)");
}

void teardown_slow(int rank, std::size_t leaked) {
  if (leaked == 0) return;
  raise("request-leak",
        "rank " + std::to_string(rank) + " reached Cluster teardown with " +
            std::to_string(leaked) +
            " active request(s) — every request must be completed by "
            "wait/test before rank_main returns");
}

}  // namespace detail

}  // namespace san
