// common.h — what every perfbench workload shares: the result record, the
// clocks, process/thread resource probes, exact quantiles, and the span
// tracer the traced runs use to split a session's cost into layers.
//
// Spans are recorded from the benchmark's own files around its calls into
// each layer's public functions; nothing inside the library is
// instrumented. Each thread that records spans owns a SpanLog (installed
// with SpanScope); Span is a RAII marker that nests, so a span's self time
// is its duration minus the time its child spans cover.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

// --- result ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One run's outcome. `metrics` holds what the run measured; main() emits
/// them in the order of the run mode's metric set.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Record a failed check: the run is reported incorrect.
  void fail(const std::string& why) {
    correct = false;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
  }
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
};

/// Discarded warm-up before anything is timed: a fresh process on the
/// reference host (a 4-vCPU VM) runs at a fraction of its speed for its
/// first ~1.3 s under load.
inline constexpr double kHostWarmupS = 2.0;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// --- clocks and resource probes --------------------------------------------

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns();   ///< calling thread's user+sys CPU
std::int64_t process_cpu_ns();  ///< whole process user+sys CPU
double peak_rss_mb();           ///< process high-water RSS
/// Heap bytes the process holds now (malloc'd and not freed, glibc's
/// mallinfo2), in MB. Unlike the resident set it does not move with how
/// glibc happens to spread allocations over its per-thread arenas.
double heap_mb();
/// Host-wide CPU time counters from /proc/stat, in clock ticks.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks read_cpu_ticks();
/// Share of the VM's CPU time the hypervisor gave to others between two
/// readings (/proc/stat steal over all ticks).
double steal_share(const CpuTicks& before, const CpuTicks& after);
/// A rate measured over a window the host stole `steal` of, scaled to the
/// CPU time the VM actually had: the workloads keep every vCPU busy while
/// they are timed, so stolen time is time the program could not run.
/// Process CPU time already excludes it.
double steal_adjusted(double rate, double steal);
/// How fast the host's cores run right now, from a probe that owes nothing
/// to the program: a fixed dependent chain of integer operations, timed on
/// the calling thread's CPU clock. The same VM's cores drift by 15% and more
/// between runs minutes apart (clock speed set by the host's other load),
/// and the workloads' CPU cost per session drifts with them by the same
/// share. The end-to-end timings are therefore reported at the speed of a
/// reference host whose probe takes kReferenceProbeNs per iteration: a
/// change to the program moves them, a change in the host's speed does not.
class HostSpeed {
 public:
  /// Run the probe `times` times; call where the workload's own threads
  /// are idle, so the probe shares no core with them.
  void sample(int times = 5);
  /// Reference probe time over the measured one (median of the samples):
  /// above 1 on a host faster than the reference.
  double speed() const;
  double probe_ns() const;  ///< median ns per probe iteration

 private:
  std::vector<double> ns_;
};
/// The probe figure of the 4-vCPU VM the benchmark was tuned on.
inline constexpr double kReferenceProbeNs = 3.2;
/// Hand freed heap pages back to the kernel, so a torn-down warm-up stack
/// does not stay in the resident set of the stack measured after it.
void release_free_memory();
std::uint64_t context_switches();  ///< voluntary + involuntary, process
/// Kernel thread ids of this process, sorted.
std::vector<int> task_ids();
/// CPU time of one of this process's threads (from /proc), -1 if gone.
std::int64_t task_cpu_ns(int tid);

// --- statistics -------------------------------------------------------------

/// Nearest-rank quantile of an unsorted sample (q in [0, 1]); 0 if empty.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double ratio(double num, double den);  ///< num/den, 0 when den == 0

// --- spans -------------------------------------------------------------------

enum class SpanKind : std::uint8_t {
  // shard loop (traced udp runs)
  kShardDrain,
  kShardTimers,
  kShardFlush,
  kShardIdle,
  kLiveSample,
  // children inside the shard loop
  kSendto,
  kSessionOpen,  // also the replica's server-machine open
  // mixed_inproc replica
  kUplink,
  kDownlink,
  kJudge,
  kVerifierFlush,
  kDeviceStart,
  kCount
};

struct SpanRec {
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::int64_t child_ns = 0;  ///< time covered by direct children
  std::uint64_t session = 0;  ///< request identifier (0 = none)
  std::uint32_t parent = 0;   ///< index + 1 into the log, 0 = root
  SpanKind kind = SpanKind::kCount;
};

/// Per-thread in-memory span log. Not thread-safe: one thread writes it.
class SpanLog {
 public:
  SpanLog() { spans_.reserve(1 << 16); }
  std::uint32_t open(SpanKind kind, std::uint64_t session) {
    SpanRec r;
    r.kind = kind;
    r.session = session;
    r.parent = stack_.empty() ? 0 : stack_.back() + 1;
    r.start_ns = now_ns();
    spans_.push_back(r);
    const auto idx = static_cast<std::uint32_t>(spans_.size() - 1);
    stack_.push_back(idx);
    return idx;
  }
  void close(std::uint32_t idx) {
    SpanRec& r = spans_[idx];
    r.dur_ns = now_ns() - r.start_ns;
    stack_.pop_back();
    if (r.parent != 0) spans_[r.parent - 1].child_ns += r.dur_ns;
  }
  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  std::vector<SpanRec> spans_;
  std::vector<std::uint32_t> stack_;
};

/// The calling thread's active log (nullptr = tracing off).
SpanLog*& current_log();

/// Installs `log` as the calling thread's span log for its lifetime.
class SpanScope {
 public:
  explicit SpanScope(SpanLog* log) : prev_(current_log()) {
    current_log() = log;
  }
  ~SpanScope() { current_log() = prev_; }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* prev_;
};

/// RAII span on the calling thread's log; free when tracing is off.
class Span {
 public:
  explicit Span(SpanKind kind, std::uint64_t session = 0)
      : log_(current_log()) {
    if (log_ != nullptr) idx_ = log_->open(kind, session);
  }
  ~Span() {
    if (log_ != nullptr) log_->close(idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  std::uint32_t idx_ = 0;
};

/// Aggregate of one span kind over one or more logs.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ns = 0;  ///< inclusive
  double self_ns = 0;   ///< minus direct children
};

/// Totals per kind; `keep` filters spans (e.g. by session group).
template <typename Keep>
std::vector<SpanTotals> span_totals(const std::vector<const SpanLog*>& logs,
                                    Keep keep) {
  std::vector<SpanTotals> out(static_cast<std::size_t>(SpanKind::kCount));
  for (const SpanLog* log : logs)
    for (const SpanRec& r : log->spans()) {
      if (!keep(r)) continue;
      SpanTotals& t = out[static_cast<std::size_t>(r.kind)];
      ++t.count;
      t.total_ns += static_cast<double>(r.dur_ns);
      t.self_ns += static_cast<double>(r.dur_ns - r.child_ns);
    }
  return out;
}

inline std::vector<SpanTotals> span_totals(
    const std::vector<const SpanLog*>& logs) {
  return span_totals(logs, [](const SpanRec&) { return true; });
}

inline const SpanTotals& at(const std::vector<SpanTotals>& t, SpanKind k) {
  return t[static_cast<std::size_t>(k)];
}

/// Human-readable table of every span kind that was recorded.
void print_spans(const std::vector<SpanTotals>& totals);

// --- metric sets ---------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced run reports, in output order.
const std::vector<MetricSpec>& end_to_end_metrics();
/// The per-layer metrics every traced run reports, in output order. A
/// layer a workload does not exercise reports 0.
const std::vector<MetricSpec>& per_layer_metrics();

// --- host record ---------------------------------------------------------------

std::size_t hardware_threads();
/// One-line JSON description of the host and the chosen field backends.
std::string host_record(const std::string& thread_plan);

// --- workloads -------------------------------------------------------------------

Result run_udp(const RunOptions& opt, bool forged);
Result run_mixed_inproc(const RunOptions& opt);

}  // namespace perfbench
