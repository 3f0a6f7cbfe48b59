// Gauge: a typed counter-series handle bound to one (pid, series-name) pair,
// for an instantaneous level (ring occupancy, in-flight operations). A
// monotonic count needs no handle: emit its current value with
// trace::counter (scope.hpp) from wherever the count already lives.
//
// A gauge keeps its live value even while tracing is disabled (reads are
// free and tests use them); it only *emits* a counter sample when the tracer
// is enabled, so the disabled cost is a store plus the usual one-branch
// check.
#pragma once

#include <string>
#include <utility>

#include "trace/scope.hpp"
#include "trace/tracer.hpp"

namespace trace {

class Gauge {
 public:
  Gauge(int pid, std::string name) : pid_(pid), name_(std::move(name)) {}

  void set(double v) {
    value_ = v;
    if (!Tracer::on()) return;
    Tracer::instance().counter(ambient_ts(), pid_, name_, value_);
  }

  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  int pid_;
  std::string name_;
  double value_ = 0;
};

}  // namespace trace
