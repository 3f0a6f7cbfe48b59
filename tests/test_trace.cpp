// The trace subsystem: span recording, counters, JSON output, and the
// properties the benchmarks rely on — byte-identical output across identical
// runs and virtual-time neutrality of enabling the tracer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/proxy.hpp"
#include "mpi/cluster.hpp"
#include "trace/chrome_writer.hpp"
#include "trace/counters.hpp"
#include "trace/scope.hpp"
#include "trace/tracer.hpp"

using trace::Tracer;

namespace {

/// Every test runs against the process-wide tracer: start from a clean,
/// disabled state and leave it that way.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::set_enabled(false);
    Tracer::instance().clear();
  }
  void TearDown() override {
    Tracer::set_enabled(false);
    Tracer::instance().clear();
  }
};

// --------------------------------------------------------- mini JSON parser
// Just enough of a recursive-descent JSON reader to validate that what we
// emit is well-formed, without depending on a JSON library.

struct JsonChecker {
  const std::string& s;
  std::size_t i = 0;
  bool ok = true;

  explicit JsonChecker(const std::string& text) : s(text) {}

  void ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool eat(char c) {
    ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    ok = false;
    return false;
  }
  bool peek(char c) {
    ws();
    return i < s.size() && s[i] == c;
  }
  bool string() {
    ws();
    if (i >= s.size() || s[i] != '"') return fail();
    ++i;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') {
        ++i;
        if (i >= s.size()) return fail();
        const char e = s[i];
        if (e == 'u') {
          for (int k = 0; k < 4; ++k) {
            ++i;
            if (i >= s.size() || !std::isxdigit(static_cast<unsigned char>(s[i])))
              return fail();
          }
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
                   e != 'n' && e != 'r' && e != 't') {
          return fail();
        }
      } else if (static_cast<unsigned char>(s[i]) < 0x20) {
        return fail();  // raw control character inside a string
      }
      ++i;
    }
    return eat('"');
  }
  bool number() {
    ws();
    const std::size_t start = i;
    if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
    while (i < s.size() && (std::isdigit(static_cast<unsigned char>(s[i])) ||
                            s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
                            s[i] == '-' || s[i] == '+')) {
      ++i;
    }
    return i > start || fail();
  }
  bool value() {
    ws();
    if (i >= s.size()) return fail();
    if (s[i] == '"') return string();
    if (s[i] == '{') return object(nullptr);
    if (s[i] == '[') return array();
    return number();
  }
  bool array() {
    if (!eat('[')) return false;
    if (peek(']')) return eat(']');
    for (;;) {
      if (!value()) return false;
      if (peek(',')) {
        eat(',');
        continue;
      }
      return eat(']');
    }
  }
  /// Parse an object; when `keys` is non-null, record the top-level keys.
  bool object(std::vector<std::string>* keys) {
    if (!eat('{')) return false;
    if (peek('}')) return eat('}');
    for (;;) {
      ws();
      const std::size_t key_start = i;
      if (!string()) return false;
      if (keys != nullptr) {
        keys->push_back(s.substr(key_start + 1, i - key_start - 2));
      }
      if (!eat(':')) return false;
      if (!value()) return false;
      if (peek(',')) {
        eat(',');
        continue;
      }
      return eat('}');
    }
  }
  bool fail() {
    ok = false;
    return false;
  }
};

/// A 2-rank rendezvous-sized exchange through the offload proxy; touches all
/// four instrumented layers (sim, net, mpi, offload). Returns the final
/// virtual time.
sim::Time run_offload_exchange() {
  smpi::ClusterConfig cc;
  cc.nranks = 2;
  cc.deadline = sim::Time::from_sec(60);
  smpi::Cluster c(cc);
  const std::size_t bytes = 512 << 10;  // rendezvous path
  return c.run([&](smpi::RankCtx& rc) {
    core::OffloadProxy p(rc);
    p.start_engine();
    const int peer = 1 - rc.rank();
    std::vector<char> sbuf(bytes, 'x'), rbuf(bytes);
    for (int i = 0; i < 3; ++i) {
      core::PReq rr = p.irecv(rbuf.data(), bytes, smpi::Datatype::kByte, peer, i);
      core::PReq rs = p.isend(sbuf.data(), bytes, smpi::Datatype::kByte, peer, i);
      p.wait(rr);
      p.wait(rs);
    }
    p.barrier();
    p.stop();
  });
}

}  // namespace

TEST_F(TraceTest, DisabledRecordsNothing) {
  Tracer& tr = Tracer::instance();
  tr.begin(10, 0, 1, "a", "t");
  tr.end(20, 0, 1);
  tr.counter(30, 0, "c", 1.0);
  EXPECT_TRUE(tr.events().empty());
}

TEST_F(TraceTest, SpanNestingAndOrdering) {
  Tracer::set_enabled(true);
  Tracer& tr = Tracer::instance();
  tr.begin(100, 0, 1, "outer", "t");
  tr.begin(150, 0, 1, "inner", "t");
  tr.complete(160, 20, 0, 1, "leaf", "t");
  tr.end(200, 0, 1);
  tr.end(300, 0, 1);

  const auto& ev = tr.events();
  ASSERT_EQ(ev.size(), 5u);
  // Record order is preserved verbatim.
  EXPECT_EQ(ev[0].ph, 'B');
  EXPECT_EQ(ev[0].name, "outer");
  EXPECT_EQ(ev[1].ph, 'B');
  EXPECT_EQ(ev[1].name, "inner");
  EXPECT_EQ(ev[2].ph, 'X');
  EXPECT_EQ(ev[2].dur_ns, 20);
  EXPECT_EQ(ev[3].ph, 'E');
  EXPECT_EQ(ev[4].ph, 'E');
  // Timestamps are monotone within the track and B/E balance.
  int depth = 0;
  std::int64_t last = -1;
  for (const auto& e : ev) {
    EXPECT_GE(e.ts_ns, last);
    last = e.ts_ns;
    if (e.ph == 'B') ++depth;
    if (e.ph == 'E') {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
}

TEST_F(TraceTest, ScopeUsesAmbientEngineAndBalances) {
  Tracer::set_enabled(true);
  sim::Engine e;
  e.spawn("f", [] {
    {
      trace::Scope s("work", "test");
      sim::advance(sim::Time(500));
    }
    trace::instant("done", "test");
  });
  e.run_until(sim::Time::from_sec(1));

  int b = 0, en = 0, inst = 0;
  for (const auto& ev : Tracer::instance().events()) {
    if (ev.ph == 'B' && ev.name == "work") {
      ++b;
      EXPECT_EQ(ev.ts_ns, 0);
    }
    if (ev.ph == 'E') ++en;
    if (ev.ph == 'i' && ev.name == "done") {
      ++inst;
      EXPECT_EQ(ev.ts_ns, 500);
    }
  }
  EXPECT_EQ(b, 1);
  EXPECT_EQ(en, 1);
  EXPECT_EQ(inst, 1);
}

TEST_F(TraceTest, CounterSeries) {
  // The gauge owns its series name: the string it was built from may die.
  trace::Gauge g(3, std::string("de") + "pth");
  // Disabled: the value is kept, nothing recorded.
  g.set(2);
  trace::counter(3, "bytes", 5);
  EXPECT_DOUBLE_EQ(g.value(), 2);
  EXPECT_EQ(g.name(), "depth");
  EXPECT_TRUE(Tracer::instance().events().empty());

  Tracer::set_enabled(true);
  g.set(7);
  g.set(4);
  trace::counter(3, "bytes", 10);
  const auto& ev = Tracer::instance().events();
  ASSERT_EQ(ev.size(), 3u);
  for (const auto& e : ev) {
    EXPECT_EQ(e.ph, 'C');
    EXPECT_EQ(e.pid, 3);
  }
  EXPECT_EQ(ev[0].name, "depth");
  EXPECT_DOUBLE_EQ(ev[0].value, 7);
  EXPECT_EQ(ev[1].name, "depth");
  EXPECT_DOUBLE_EQ(ev[1].value, 4);
  EXPECT_EQ(ev[2].name, "bytes");
  EXPECT_DOUBLE_EQ(ev[2].value, 10);
}

TEST_F(TraceTest, EventLimitDropsDeterministically) {
  Tracer::set_enabled(true);
  Tracer& tr = Tracer::instance();
  tr.set_limit(4);
  for (int i = 0; i < 10; ++i) tr.instant(i, 0, 0, "e", "t");
  EXPECT_EQ(tr.events().size(), 4u);
  EXPECT_EQ(tr.dropped(), 6u);
}

TEST_F(TraceTest, JsonEscaping) {
  using trace::ChromeWriter;
  EXPECT_EQ(ChromeWriter::escape("plain"), "plain");
  EXPECT_EQ(ChromeWriter::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(ChromeWriter::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(ChromeWriter::escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(ChromeWriter::escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST_F(TraceTest, GoldenJsonIsValidAndCarriesRequiredKeys) {
  Tracer::set_enabled(true);
  Tracer& tr = Tracer::instance();
  tr.name_process(0, "rank 0");
  tr.name_thread(0, 1, "main \"thread\"\n");
  tr.begin(0, 0, 1, "span with \\ and \"quotes\"", "cat");
  tr.complete(100, 50, 0, 1, "leaf", "cat");
  tr.instant(120, 0, 0, "tick", "cat");
  tr.counter(150, 0, "gauge", 2.5);
  tr.end(200, 0, 1);

  std::ostringstream os;
  tr.write_json(os);
  const std::string json = os.str();

  // Whole document parses.
  JsonChecker doc(json);
  std::vector<std::string> top;
  ASSERT_TRUE(doc.object(&top)) << json;
  doc.ws();
  EXPECT_EQ(doc.i, json.size());
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0], "traceEvents");

  // Every event object carries the keys Perfetto needs.
  std::size_t events_seen = 0;
  for (std::size_t pos = json.find('{', 1); pos != std::string::npos;
       pos = json.find('{', pos + 1)) {
    JsonChecker ev(json);
    ev.i = pos;
    std::vector<std::string> keys;
    ASSERT_TRUE(ev.object(&keys)) << "at offset " << pos;
    ++events_seen;
    for (const char* required : {"ph", "ts", "pid", "tid"}) {
      EXPECT_NE(std::find(keys.begin(), keys.end(), required), keys.end())
          << "event missing \"" << required << "\" at offset " << pos;
    }
    pos = ev.i - 1;  // skip nested objects (args of M/C events)
  }
  // 2 metadata + 5 recorded events.
  EXPECT_EQ(events_seen, 7u);
}

TEST_F(TraceTest, EnablingTracingIsVirtualTimeNeutral) {
  const sim::Time off = run_offload_exchange();
  EXPECT_TRUE(Tracer::instance().events().empty());

  Tracer::set_enabled(true);
  const sim::Time on = run_offload_exchange();
  EXPECT_FALSE(Tracer::instance().events().empty());

  EXPECT_EQ(off.ns(), on.ns());
}

TEST_F(TraceTest, IdenticalRunsProduceByteIdenticalJson) {
  Tracer::set_enabled(true);
  const sim::Time t1 = run_offload_exchange();
  std::ostringstream os1;
  Tracer::instance().write_json(os1);

  Tracer::instance().clear();
  const sim::Time t2 = run_offload_exchange();
  std::ostringstream os2;
  Tracer::instance().write_json(os2);

  EXPECT_EQ(t1.ns(), t2.ns());
  EXPECT_EQ(os1.str(), os2.str());
  EXPECT_FALSE(os1.str().empty());
}

TEST_F(TraceTest, OffloadExchangeCoversAllFourLayers) {
  Tracer::set_enabled(true);
  run_offload_exchange();

  bool sim_cpu = false, net_wire = false, net_rx = false, mpi_call = false,
       mpi_rndv = false, off_cmd = false, off_publish = false;
  bool ctr_inflight = false, ctr_ring = false;
  for (const auto& e : Tracer::instance().events()) {
    const std::string cat = e.cat;
    if (cat == "sim" && e.name == "cpu") sim_cpu = true;
    if (cat == "net" && e.name.rfind("wire ", 0) == 0) net_wire = true;
    if (cat == "net" && e.name.rfind("rx:", 0) == 0) net_rx = true;
    if (cat == "mpi" && (e.name == "Isend" || e.name == "Irecv")) mpi_call = true;
    if (cat == "mpi" && e.name.rfind("rndv:", 0) == 0) mpi_rndv = true;
    if (cat == "offload" && e.name.rfind("cmd:", 0) == 0) off_cmd = true;
    if (cat == "offload" && e.name == "done:publish") off_publish = true;
    if (e.ph == 'C' && e.name == "inflight") ctr_inflight = true;
    if (e.ph == 'C' && e.name == "ring_occupancy") ctr_ring = true;
  }
  EXPECT_TRUE(sim_cpu);
  EXPECT_TRUE(net_wire);
  EXPECT_TRUE(net_rx);
  EXPECT_TRUE(mpi_call);
  EXPECT_TRUE(mpi_rndv);
  EXPECT_TRUE(off_cmd);
  EXPECT_TRUE(off_publish);
  EXPECT_TRUE(ctr_inflight);
  EXPECT_TRUE(ctr_ring);
}

TEST_F(TraceTest, SpansNestPerTrackAcrossTheFullExchange) {
  Tracer::set_enabled(true);
  run_offload_exchange();

  // B/E discipline: per (pid, tid) the stack never underflows and ends empty.
  std::map<std::pair<int, std::uint64_t>, int> depth;
  for (const auto& e : Tracer::instance().events()) {
    auto k = std::make_pair(e.pid, e.tid);
    if (e.ph == 'B') ++depth[k];
    if (e.ph == 'E') {
      --depth[k];
      ASSERT_GE(depth[k], 0) << "unmatched E on pid=" << e.pid
                             << " tid=" << e.tid;
    }
  }
  for (const auto& [k, d] : depth) {
    EXPECT_EQ(d, 0) << "unclosed span on pid=" << k.first << " tid=" << k.second;
  }
}
