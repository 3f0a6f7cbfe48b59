#include "mpi/coll_tuner.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "util/env.hpp"
#include "util/spec_parser.hpp"

namespace smpi {

namespace {

bool is_pow2(int v) { return v > 0 && (v & (v - 1)) == 0; }

constexpr const char* kEnv = "MPIOFF_COLL";

constexpr const char* kValidItems =
    "barrier|bcast|reduce|allreduce|alltoall|allgather "
    ":algo[@bytes], seg:<bytes>, chains:<n>";

constexpr const char* kValidAlgos =
    "binomial, dissemination, rdbl, rabenseifner, reduce-bcast, ring, "
    "pipeline, postall, pairwise";

/// Parse a byte count with optional k/K (KiB) or m/M (MiB) suffix.
std::size_t parse_bytes(const std::string& v, const std::string& item) {
  return util::SpecParser::parse_bytes(kEnv, v, item);
}

bool parse_coll(const std::string& s, CollectiveId* out) {
  static constexpr struct {
    const char* name;
    CollectiveId id;
  } kTable[] = {
      {"barrier", CollectiveId::kBarrier},   {"bcast", CollectiveId::kBcast},
      {"reduce", CollectiveId::kReduce},     {"allreduce", CollectiveId::kAllreduce},
      {"alltoall", CollectiveId::kAlltoall}, {"allgather", CollectiveId::kAllgather},
  };
  for (const auto& e : kTable) {
    if (s == e.name) {
      *out = e.id;
      return true;
    }
  }
  return false;
}

CollAlgo parse_algo(const std::string& s, const std::string& item) {
  static constexpr struct {
    const char* name;
    CollAlgo algo;
  } kTable[] = {
      {"binomial", CollAlgo::kBinomial},
      {"dissemination", CollAlgo::kDissemination},
      {"rdbl", CollAlgo::kRecursiveDoubling},
      {"recursive-doubling", CollAlgo::kRecursiveDoubling},
      {"rabenseifner", CollAlgo::kRabenseifner},
      {"reduce-bcast", CollAlgo::kReduceBcast},
      {"ring", CollAlgo::kRing},
      {"pipeline", CollAlgo::kPipeline},
      {"postall", CollAlgo::kPostAll},
      {"pairwise", CollAlgo::kPairwise},
  };
  for (const auto& e : kTable) {
    if (s == e.name) return e.algo;
  }
  throw std::invalid_argument("MPIOFF_COLL: unknown algorithm in '" + item +
                              "' (valid: " + kValidAlgos + ")");
}

}  // namespace

const char* coll_name(CollectiveId c) {
  switch (c) {
    case CollectiveId::kBarrier:
      return "barrier";
    case CollectiveId::kBcast:
      return "bcast";
    case CollectiveId::kReduce:
      return "reduce";
    case CollectiveId::kAllreduce:
      return "allreduce";
    case CollectiveId::kAlltoall:
      return "alltoall";
    case CollectiveId::kAllgather:
      return "allgather";
  }
  return "?";
}

const char* coll_algo_name(CollAlgo a) {
  switch (a) {
    case CollAlgo::kUnknown:
      return "unknown";
    case CollAlgo::kBinomial:
      return "binomial";
    case CollAlgo::kDissemination:
      return "dissemination";
    case CollAlgo::kRecursiveDoubling:
      return "rdbl";
    case CollAlgo::kRabenseifner:
      return "rabenseifner";
    case CollAlgo::kReduceBcast:
      return "reduce-bcast";
    case CollAlgo::kRing:
      return "ring";
    case CollAlgo::kPipeline:
      return "pipeline";
    case CollAlgo::kPostAll:
      return "postall";
    case CollAlgo::kPairwise:
      return "pairwise";
  }
  return "?";
}

CollTuner CollTuner::defaults_for(const machine::Profile& p) {
  CollTuner t;
  t.eager_threshold_ = p.eager_threshold;
  return t;
}

CollTuner CollTuner::parse(const std::string& spec, CollTuner base) {
  CollTuner t = std::move(base);
  // Algo rules for the same collective stack by threshold (that is the
  // grammar's way to build a size-tiered policy), but the scalar knobs are
  // single-valued: a repeated seg/chains is a typo, not an override. The
  // collective names form an open key class handled by the fallback.
  util::SpecParser grammar(kEnv, ":", kValidItems);
  grammar.key("seg").key("chains").open_keys([](const std::string& k) {
    CollectiveId ignored{};
    return parse_coll(k, &ignored);
  });
  for (const util::SpecItem& it : grammar.parse(spec)) {
    if (it.key == "seg") {
      t.seg_bytes_ = std::max<std::size_t>(1, parse_bytes(it.value, it.raw));
      continue;
    }
    if (it.key == "chains") {
      const std::size_t n = parse_bytes(it.value, it.raw);
      if (n < 1 || n > 64) {
        throw std::invalid_argument("MPIOFF_COLL: chains must be 1..64 in '" +
                                    it.raw + "'");
      }
      t.max_chains_ = static_cast<int>(n);
      continue;
    }
    CollectiveId coll{};
    parse_coll(it.key, &coll);  // open_keys already vetted the name
    const std::size_t at = it.value.find('@');
    Rule r;
    r.algo = parse_algo(it.value.substr(0, at), it.raw);
    r.min_bytes =
        at == std::string::npos ? 0 : parse_bytes(it.value.substr(at + 1), it.raw);
    auto& rules = t.rules_[static_cast<int>(coll)];
    rules.push_back(r);
    std::stable_sort(rules.begin(), rules.end(),
                     [](const Rule& a, const Rule& b) {
                       return a.min_bytes < b.min_bytes;
                     });
  }
  return t;
}

CollTuner CollTuner::from_env(const machine::Profile& p) {
  CollTuner t = defaults_for(p);
  if (const char* spec = env_util::get("MPIOFF_COLL"); spec != nullptr) {
    t = parse(spec, std::move(t));
  }
  return t;
}

int CollTuner::chains_for(std::size_t total_bytes) const {
  if (total_bytes <= seg_bytes_) return 1;
  const std::size_t n = (total_bytes + seg_bytes_ - 1) / seg_bytes_;
  return static_cast<int>(
      std::min<std::size_t>(n, static_cast<std::size_t>(max_chains_)));
}

bool CollTuner::legal(CollectiveId c, CollAlgo a, std::size_t count,
                      int ranks) {
  switch (a) {
    case CollAlgo::kUnknown:
      return false;
    case CollAlgo::kRecursiveDoubling:
      return c == CollectiveId::kAllreduce && is_pow2(ranks);
    case CollAlgo::kRabenseifner:
      return c == CollectiveId::kAllreduce && is_pow2(ranks) && ranks > 1 &&
             count % static_cast<std::size_t>(ranks) == 0;
    case CollAlgo::kRing:
      return c == CollectiveId::kAllreduce || c == CollectiveId::kAllgather;
    case CollAlgo::kReduceBcast:
      return c == CollectiveId::kAllreduce;
    case CollAlgo::kPipeline:
      return c == CollectiveId::kBcast;
    case CollAlgo::kBinomial:
      return c == CollectiveId::kBcast || c == CollectiveId::kReduce;
    case CollAlgo::kPostAll:
    case CollAlgo::kPairwise:
      return c == CollectiveId::kAlltoall || c == CollectiveId::kAllgather;
    case CollAlgo::kDissemination:
      return c == CollectiveId::kBarrier;
  }
  return false;
}

CollAlgo CollTuner::default_for(CollectiveId c, std::size_t bytes,
                                std::size_t count, int ranks) const {
  switch (c) {
    case CollectiveId::kBarrier:
      return CollAlgo::kDissemination;
    case CollectiveId::kBcast:
      return (ranks > 1 && bytes >= pipeline_bcast_min_) ? CollAlgo::kPipeline
                                                         : CollAlgo::kBinomial;
    case CollectiveId::kReduce:
      return CollAlgo::kBinomial;
    case CollectiveId::kAllreduce:
      if (ranks <= 1) return CollAlgo::kReduceBcast;
      if (bytes >= ring_allreduce_min_) return CollAlgo::kRing;
      if (legal(c, CollAlgo::kRabenseifner, count, ranks) &&
          bytes >= rabenseifner_min_) {
        return CollAlgo::kRabenseifner;
      }
      if (is_pow2(ranks)) return CollAlgo::kRecursiveDoubling;
      return CollAlgo::kReduceBcast;
    case CollectiveId::kAlltoall:
      return bytes <= eager_threshold_ ? CollAlgo::kPostAll : CollAlgo::kPairwise;
    case CollectiveId::kAllgather:
      return (ranks > 1 && bytes >= ring_allgather_min_) ? CollAlgo::kRing
                                                         : CollAlgo::kPostAll;
  }
  return CollAlgo::kUnknown;
}

CollAlgo CollTuner::choose(CollectiveId c, std::size_t bytes, std::size_t count,
                           int ranks) const {
  // Forced rules: largest threshold not exceeding the message wins; an
  // illegal forced choice falls back to the defaults so the recorded
  // algorithm is always the one that ran.
  const auto& rules = rules_[static_cast<int>(c)];
  for (auto it = rules.rbegin(); it != rules.rend(); ++it) {
    if (bytes < it->min_bytes) continue;
    if (legal(c, it->algo, count, ranks)) return it->algo;
    break;
  }
  return default_for(c, bytes, count, ranks);
}

}  // namespace smpi
