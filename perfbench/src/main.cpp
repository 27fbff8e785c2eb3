// perfbench — the repository benchmark.
//
//   perfbench --workload <udp_honest|udp_forged|mixed_inproc>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Human-readable lines first (host record, per-layer notes), then as the
// last stdout line one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when any verdict, count or digest check failed, 2 on bad usage.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <iterator>
#include <malloc.h>
#include <sstream>
#include <string>
#include <thread>
#include <time.h>
#include <unistd.h>

#include <sys/resource.h>

#include "common.h"
#include "gf2m/backend.h"

namespace perfbench {

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double heap_mb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

void release_free_memory() { malloc_trim(0); }

CpuTicks read_cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks t;
  for (int i = 0; i < 8; ++i) {
    long long v = 0;
    stat >> v;
    t.total += static_cast<std::uint64_t>(v);
    if (i == 7) t.steal = static_cast<std::uint64_t>(v);
  }
  return t;
}

std::uint64_t context_switches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
}

std::vector<int> task_ids() {
  std::vector<int> ids;
  if (DIR* d = opendir("/proc/self/task")) {
    while (const dirent* e = readdir(d))
      if (e->d_name[0] != '.') ids.push_back(std::atoi(e->d_name));
    closedir(d);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::int64_t task_cpu_ns(int tid) {
  // schedstat's first field is the thread's on-CPU time in ns.
  std::ifstream ss("/proc/self/task/" + std::to_string(tid) + "/schedstat");
  long long ns = -1;
  ss >> ns;
  return ns;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double steal_share(const CpuTicks& before, const CpuTicks& after) {
  return ratio(static_cast<double>(after.steal - before.steal),
               static_cast<double>(after.total - before.total));
}

double steal_adjusted(double rate, double steal) {
  return steal < 1 ? rate / (1 - steal) : rate;
}

void HostSpeed::sample(int times) {
  constexpr int kIterations = 200'000;
  static volatile std::uint64_t sink [[maybe_unused]];
  for (int k = 0; k < times; ++k) {
    const std::int64_t t0 = thread_cpu_ns();
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (int i = 0; i < kIterations; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      x *= 0xD1B54A32D192ED03ULL;
    }
    sink = x;
    ns_.push_back(static_cast<double>(thread_cpu_ns() - t0) / kIterations);
  }
}

double HostSpeed::probe_ns() const { return median(ns_); }

double HostSpeed::speed() const {
  const double ns = probe_ns();
  return ns > 0 ? kReferenceProbeNs / ns : 1;
}

SpanLog*& current_log() {
  thread_local SpanLog* log = nullptr;
  return log;
}

void print_spans(const std::vector<SpanTotals>& totals) {
  static const char* const kNames[] = {
      "shard.drain", "shard.timers",   "shard.flush",   "shard.idle",
      "gateway.live_sample", "net.sendto", "gateway.open", "uplink",
      "downlink",    "judge",          "verifier.flush", "device.start"};
  static_assert(std::size(kNames) == static_cast<std::size_t>(SpanKind::kCount));
  for (std::size_t k = 0; k < totals.size(); ++k)
    if (totals[k].count != 0)
      std::printf("  span %-20s count %10llu  total %10.3f ms  self %10.3f ms\n",
                  kNames[k], static_cast<unsigned long long>(totals[k].count),
                  totals[k].total_ns * 1e-6, totals[k].self_ns * 1e-6);
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"sessions_per_s", "1/s"},
      {"cpu_us_per_session", "us"},
      {"setup_s", "s"},
      {"peak_mem_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"verdict_p50_us", "us"},
      {"verdict_p99_us", "us"},
      {"net.datagrams_in_per_session", "count"},
      {"net.datagrams_out_per_session", "count"},
      {"net.sendto_us", "us"},
      {"net.frontend_busy_frac", "ratio"},
      {"net.not_a_frame", "count"},
      {"net.shed", "count"},
      {"shard.drain_us_per_session", "us"},
      {"shard.timers_us_per_session", "us"},
      {"shard.flush_us_per_session", "us"},
      {"shard.idle_frac", "ratio"},
      {"shard.unattributed_frac", "ratio"},
      {"shard.items_per_tick", "count"},
      {"shard.mailbox_shed", "count"},
      {"mailbox.hop_ns", "ns"},
      {"verifier.batch_size_mean", "count"},
      {"verifier.rlc_fail_frac", "ratio"},
      {"verifier.fallbacks_per_session", "count"},
      {"verifier.flush_us_per_item", "us"},
      {"verifier.inline_flush_frac", "ratio"},
      {"verifier.batch64_us_per_item", "us"},
      {"verifier.single_us", "us"},
      {"verifier.decode_us_per_point", "us"},
      {"gateway.open_us", "us"},
      {"gateway.live_max", "count"},
      {"delivery.retransmits_per_session", "count"},
      {"delivery.decode_failures_per_session", "count"},
      {"transport.encode_ns", "ns"},
      {"transport.decode_ns", "ns"},
      {"protocol.schnorr_us_per_session", "us"},
      {"protocol.ph_us_per_session", "us"},
      {"protocol.mutual_auth_us_per_session", "us"},
      {"protocol.ecies_us_per_session", "us"},
      {"gf2m.mul_ns", "ns"},
      {"gf2m.sqr_ns", "ns"},
      {"gf2m.inv_ns", "ns"},
      {"ecc.ladder_us", "us"},
      {"ecc.comb_ct_us", "us"},
      {"ecc.decode_point_us", "us"},
      {"loadgen.lag_p99_us", "us"},
      {"loadgen.client_busy_frac", "ratio"},
      {"proc.ctx_switches_per_session", "count"},
      {"trace.overhead_frac", "ratio"},
  };
  return specs;
}

std::size_t hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

std::string host_record(const std::string& thread_plan) {
  using namespace medsec::gf2m;
  std::ostringstream os;
  os << "{\"nproc\": " << hardware_threads() << ", \"thread_plan\": \""
     << thread_plan << "\", \"gf2m_backend\": \""
     << backend_name(active_backend()) << "\", \"lane_backend\": \""
     << lane_backend_name(active_lane_backend()) << "\"}";
  return os.str();
}

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <udp_honest|udp_forged|"
               "mixed_inproc> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

/// Put the measured metrics in the mode's order. End-to-end metrics must
/// all be measured; a per-layer metric the workload does not exercise is
/// reported as 0. Anything else is a benchmark bug and fails the run.
void normalize(perfbench::Result& r, bool trace) {
  const auto& specs = trace ? perfbench::per_layer_metrics()
                            : perfbench::end_to_end_metrics();
  std::vector<perfbench::Metric> out;
  for (const perfbench::MetricSpec& spec : specs) {
    const auto it = std::find_if(
        r.metrics.begin(), r.metrics.end(),
        [&](const perfbench::Metric& m) { return m.name == spec.name; });
    if (it == r.metrics.end()) {
      if (!trace) r.fail(std::string("metric not measured: ") + spec.name);
      out.push_back({spec.name, 0.0, spec.unit});
      continue;
    }
    r.check(it->unit == spec.unit,
            "metric " + it->name + " has unit " + spec.unit);
    out.push_back(*it);
  }
  for (const perfbench::Metric& m : r.metrics)
    r.check(std::any_of(specs.begin(), specs.end(),
                        [&](const perfbench::MetricSpec& s) {
                          return m.name == s.name;
                        }),
            "metric " + m.name + " belongs to the metric set");
  r.metrics = std::move(out);
}

void print_result(const perfbench::Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(val, "0") != 0;
    } else {
      return usage();
    }
  }
  if (!have_workload || argc % 2 == 0 || !(opt.seconds > 0)) return usage();

  const perfbench::CpuTicks ticks0 = perfbench::read_cpu_ticks();
  perfbench::Result r;
  if (opt.workload == "udp_honest")
    r = perfbench::run_udp(opt, /*forged=*/false);
  else if (opt.workload == "udp_forged")
    r = perfbench::run_udp(opt, /*forged=*/true);
  else if (opt.workload == "mixed_inproc")
    r = perfbench::run_mixed_inproc(opt);
  else
    return usage();

  const perfbench::CpuTicks ticks1 = perfbench::read_cpu_ticks();
  // Time the hypervisor gave this VM's CPUs to others: a run with much of
  // it measured a contended host.
  std::printf("host: steal %.2f%% of CPU time during the run\n",
              100.0 * perfbench::steal_share(ticks0, ticks1));
  normalize(r, opt.trace);
  for (const perfbench::Metric& m : r.metrics)
    std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::fflush(stderr);
  print_result(r);
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
