// SpecParser — the one grammar engine behind every MPIOFF_* environment
// spec (MPIOFF_PROXY, MPIOFF_SAN, MPIOFF_FAULTS).
//
// All three knobs speak the same surface language — comma-separated
// key/value items — but each grew its own hand-rolled tokenizer with its
// own duplicate-key bookkeeping and its own slightly-different error
// strings. This class centralizes the parts that were copy-pasted:
//
//   * tokenization (split on ',', skip empty items),
//   * key/value splitting on a per-grammar separator set ("=", ":" or both),
//   * duplicate-key rejection (every key is single-valued),
//   * unknown-key diagnostics that name the valid vocabulary,
//   * the shared value scanners (counts, durations with ns/us/ms/s
//     suffixes, probabilities, booleans).
//
// What stays with the caller is only the *meaning* of each key: callers get
// back an ordered item list and assign fields.
//
// Error contract: every failure throws std::invalid_argument whose message
// starts with the env-var name and, for key errors, names the valid
// vocabulary — a retuning wrapper script that appends to an inherited spec
// should fail loudly, not silently last-write-win.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace util {

/// One parsed `key<sep>value` item, in spec order. `raw` is the original
/// item text for error messages that quote what the user typed.
struct SpecItem {
  std::string key;
  std::string value;
  std::string raw;
};

class SpecParser {
 public:
  /// `env_name` prefixes every diagnostic; `separators` is the set of
  /// accepted key/value separator characters (e.g. "=", ":", "=:");
  /// `vocabulary` is the human-readable key list quoted by key errors.
  SpecParser(std::string env_name, std::string separators,
             std::string vocabulary);

  /// Register a key; it may appear at most once in a spec.
  SpecParser& key(const std::string& name);

  /// Tokenize + validate `spec`; items come back in spec order.
  [[nodiscard]] std::vector<SpecItem> parse(const std::string& spec) const;

  /// Throw std::invalid_argument with the env-name prefix.
  [[noreturn]] void fail(const std::string& what) const;

  // ---- shared value scanners (static: also usable before construction) ----
  /// Non-negative integer, no suffix.
  static std::size_t parse_count(const std::string& env, const std::string& v,
                                 const std::string& where);
  /// Duration with optional ns/us/ms/s suffix (bare number = ns).
  static sim::Time parse_duration(const std::string& env, const std::string& v,
                                  const std::string& where);
  /// Probability in [0, 1].
  static double parse_prob(const std::string& env, const std::string& v,
                           const std::string& where);
  /// Strict boolean: "0" or "1".
  static bool parse_bool(const std::string& env, const std::string& v,
                         const std::string& where);

 private:
  std::string env_;
  std::string separators_;
  std::string vocabulary_;
  std::vector<std::string> keys_;
};

}  // namespace util
