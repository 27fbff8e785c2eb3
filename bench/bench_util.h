// bench_util.h — shared helpers for the experiment benches.
//
// Every bench binary regenerates one table/figure/number of the paper
// (the README's Benchmarks section lists them): it prints the
// reproduction table to stdout first (paper value vs model value), then
// runs its google-benchmark timers. Benches are deterministic (fixed seeds).
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "rng/xoshiro.h"

namespace medsec::bench {

inline void banner(const char* experiment, const char* paper_artifact) {
  std::printf("\n================================================================\n");
  std::printf("%s\n  reproduces: %s\n", experiment, paper_artifact);
  std::printf("================================================================\n");
}

/// Log-bucketed latency recorder for the load generators: fixed 4-bit
/// sub-precision over power-of-two ranges (first bucket 1 unit wide, the
/// relative error ceiling is 1/16 ≈ 6%), so 100k+ samples cost a constant
/// ~1.4 KiB and recording is two shifts and an increment — cheap enough
/// for a per-response hot path. Histograms from different shard threads
/// merge by bucket-wise addition; percentiles come from a single scan.
class LatencyHistogram {
 public:
  static constexpr std::size_t kSubBits = 4;
  static constexpr std::size_t kBuckets = 64 << kSubBits;

  void record(std::uint64_t v) {
    ++counts_[bucket_of(v)];
    ++total_;
    if (v > max_) max_ = v;
  }

  /// Bucket-wise merge — the cross-shard reduction.
  void merge(const LatencyHistogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
    if (o.max_ > max_) max_ = o.max_;
  }

  std::uint64_t count() const { return total_; }
  std::uint64_t max() const { return max_; }

  /// Value at quantile q in [0,1] (bucket lower bound — the reported
  /// percentile never exceeds any sample in its bucket). 0 when empty.
  std::uint64_t percentile(double q) const {
    if (total_ == 0) return 0;
    if (q < 0) q = 0;
    if (q > 1) q = 1;
    std::uint64_t rank = static_cast<std::uint64_t>(q * (total_ - 1));
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (rank < counts_[i]) return lower_bound_of(i);
      rank -= counts_[i];
    }
    return max_;
  }

 private:
  static std::size_t bucket_of(std::uint64_t v) {
    if (v < (1u << kSubBits)) return static_cast<std::size_t>(v);
    const int msb = 63 - __builtin_clzll(v);
    const std::size_t exp = static_cast<std::size_t>(msb) - kSubBits;
    const std::size_t sub =
        static_cast<std::size_t>(v >> exp) & ((1u << kSubBits) - 1);
    const std::size_t b = ((exp + 1) << kSubBits) + sub;
    return b < kBuckets ? b : kBuckets - 1;
  }

  static std::uint64_t lower_bound_of(std::size_t b) {
    if (b < (1u << kSubBits)) return b;
    const std::size_t exp = (b >> kSubBits) - 1;
    const std::size_t sub = b & ((1u << kSubBits) - 1);
    return ((1ull << kSubBits) + sub) << exp;
  }

  std::uint64_t counts_[kBuckets] = {};
  std::uint64_t total_ = 0;
  std::uint64_t max_ = 0;
};

/// Run google-benchmark with --benchmark_out defaulted to `default_json`
/// (google-benchmark's JSON schema) unless the caller already steers the
/// output somewhere: every bench binary leaves a machine-readable perf
/// artifact next to itself, which CI archives as the perf trajectory.
inline int run_benchmarks_with_json(int argc, char** argv,
                                    const char* default_json) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0 ||
        std::strcmp(argv[i], "--benchmark_out") == 0)
      has_out = true;
  std::string out_flag = std::string("--benchmark_out=") + default_json;
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace medsec::bench
