// tvla.h — Test Vector Leakage Assessment (Welch t-test), streaming form.
//
// The paper's white-box evaluation (§7) asks a yes/no question per
// countermeasure: does any time point of the trace depend on the data?
// TVLA is the standard formulation: capture one group with a *fixed*
// input and one with *random* inputs, compute Welch's t per sample, and
// flag |t| > 4.5 (the conventional 99.999% threshold) as leakage. The
// circuit-ablation bench uses this as its leakage metric.
//
// The accumulator is single-pass and row-major: each trace updates every
// time point's Welford moments in one sweep (the cache-friendly
// direction — the old implementation walked the trace matrix column by
// column), and accumulators merge, so trace blocks can be reduced on a
// thread pool. Blocked accumulation with in-order merging keeps the
// t-values bit-identical for every thread count.
#pragma once

#include <cstddef>
#include <vector>

#include "core/thread_pool.h"
#include "sidechannel/trace.h"

namespace medsec::sidechannel {

struct TvlaReport {
  std::vector<double> t_values;  ///< per time point
  double max_abs_t = 0.0;
  std::size_t points_over_threshold = 0;
  double threshold = 4.5;
  bool leaks() const { return points_over_threshold > 0; }
};

/// Streaming two-group Welford moments over every time point. add_*()
/// consumes one whole trace (samples beyond `length` are ignored;
/// shorter traces are rejected by the caller contract of equal-length
/// trace sets). Mergeable: this := this ∪ other, per point.
class TvlaAccumulator {
 public:
  TvlaAccumulator() = default;
  explicit TvlaAccumulator(std::size_t length) { reset(length); }

  void reset(std::size_t length);
  std::size_t length() const { return len_; }

  void add_fixed(const Trace& t) { fixed_.add(t, len_); }
  void add_random(const Trace& t) { random_.add(t, len_); }
  void merge(const TvlaAccumulator& o);

  TvlaReport report(double threshold = 4.5) const;

 private:
  struct Group {
    std::size_t n = 0;
    std::vector<double> mean, m2;  ///< per time point
    void add(const Trace& t, std::size_t len);
    void merge(const Group& o, std::size_t len);
  };
  std::size_t len_ = 0;
  Group fixed_, random_;
};

/// Welch t-test between a fixed-input group and a random-input group.
/// Traces must have equal length; unequal trailing samples are ignored.
/// When `pool` is given, trace blocks are accumulated in parallel; the
/// report is bit-identical with or without a pool (fixed block geometry,
/// in-order merge).
TvlaReport tvla_fixed_vs_random(const TraceSet& fixed, const TraceSet& random,
                                double threshold = 4.5,
                                core::ThreadPool* pool = nullptr);

}  // namespace medsec::sidechannel
