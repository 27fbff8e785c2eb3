// bench_coproc — the streaming co-processor engine's perf surface (PR 5).
//
// Measures the layers the E1/E4/E8/E9 experiments and the eval matrix's
// cycle-accurate cells actually ride:
//
//   * capture_cycle_trace: the reference path (materialize records,
//     second pass with Box–Muller noise) vs the fused sink path — the
//     acceptance axis (fused must be >= 1.5x the reference; gated
//     machine-independently by check_perf_regression.py's ratio gate).
//   * point_mult: a reserved RecordSink vs no sink (E1's energy-only
//     path).
//   * capture_averaged_cycle_trace at 1 thread vs the shared pool — the
//     thread-scaling axis (flat on 1-core hosts; scales in CI).
//   * the SPA feature-extractor sink vs averaging full traces.
//
// Emits BENCH_coproc.json (google-benchmark schema) next to the binary.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bench_util.h"
#include "sidechannel/countermeasures.h"
#include "sidechannel/spa.h"
#include "sidechannel/trace_sim.h"

namespace {

using namespace medsec;
namespace sc = sidechannel;

const ecc::Curve& curve() { return ecc::Curve::k163(); }

ecc::Scalar bench_key() {
  rng::Xoshiro256 rng(29);
  return rng.uniform_nonzero(curve().order());
}

/// Returns false when the executed cycle count drifts from the compiled
/// closed form — main() then fails the run.
bool print_table() {
  bench::banner("coproc: streaming engine vs the reference capture path",
                "the cycle-accurate model behind E1/E4/E8/E9 + eval matrix");
  const ecc::Scalar k = bench_key();

  hw::Coprocessor cop{};
  const auto bits = sidechannel::coproc_key_bits(curve(), k);
  const std::size_t closed = cop.point_mult_cycles(bits.size(), {});
  const auto r = cop.point_mult(bits, curve().base_point().x, {}, nullptr);
  std::printf("cycles per ECPM: closed-form %zu, executed %zu (%s)\n",
              closed, r.exec.cycles,
              closed == r.exec.cycles ? "agree" : "MISMATCH");
  std::printf("compiled schedule: ladder step %zu cycles, affine "
              "conversion %zu cycles\n",
              cop.point_mult_cycles(2, {}) - cop.point_mult_cycles(1, {}),
              cop.compile(hw::microcode::affine_conversion()).cycles);

  std::printf("\nsink map: E1 -> energy sink; E4/E9 SPA -> feature sink;\n"
              "capture_cycle_trace -> fused leakage sink (+ records on\n"
              "demand); eval matrix SPA cells -> pooled feature captures.\n");
  return closed == r.exec.cycles;
}

void BM_CaptureCycleTraceReference(benchmark::State& state) {
  const ecc::Scalar k = bench_key();
  sc::CycleSimConfig cfg;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    cfg.seed = seed++;
    auto t = sc::capture_cycle_trace_reference(curve(), k,
                                               curve().base_point(), cfg);
    benchmark::DoNotOptimize(t.samples.data());
  }
  state.SetLabel("reference path: record vector + two-pass Box-Muller fold");
}
BENCHMARK(BM_CaptureCycleTraceReference)->Unit(benchmark::kMillisecond);

void BM_CaptureCycleTraceFused(benchmark::State& state) {
  const ecc::Scalar k = bench_key();
  sc::CycleSimConfig cfg;
  cfg.keep_records = false;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    cfg.seed = seed++;
    auto t = sc::capture_cycle_trace(curve(), k, curve().base_point(), cfg);
    benchmark::DoNotOptimize(t.samples.data());
  }
  state.SetLabel("fused leakage sink, no records");
}
BENCHMARK(BM_CaptureCycleTraceFused)->Unit(benchmark::kMillisecond);

void BM_CaptureCycleTraceWithRecords(benchmark::State& state) {
  const ecc::Scalar k = bench_key();
  sc::CycleSimConfig cfg;  // keep_records defaults on
  std::uint64_t seed = 1;
  for (auto _ : state) {
    cfg.seed = seed++;
    auto t = sc::capture_cycle_trace(curve(), k, curve().base_point(), cfg);
    benchmark::DoNotOptimize(t.records.data());
  }
  state.SetLabel("fused sink + materialized records (profiling path)");
}
BENCHMARK(BM_CaptureCycleTraceWithRecords)->Unit(benchmark::kMillisecond);

void BM_PointMultEnergyOnly(benchmark::State& state) {
  const ecc::Scalar k = bench_key();
  hw::Coprocessor cop;
  const auto bits = sidechannel::coproc_key_bits(curve(), k);
  for (auto _ : state) {
    auto r = cop.point_mult(bits, curve().base_point().x, {}, nullptr);
    benchmark::DoNotOptimize(r.energy_j);
  }
  state.SetLabel("E1's path: cycles + weighted toggles, no sink");
}
BENCHMARK(BM_PointMultEnergyOnly)->Unit(benchmark::kMillisecond);

void BM_PointMultRecorded(benchmark::State& state) {
  const ecc::Scalar k = bench_key();
  hw::Coprocessor cop;
  const auto bits = sidechannel::coproc_key_bits(curve(), k);
  for (auto _ : state) {
    std::vector<hw::CycleRecord> records;
    records.reserve(cop.point_mult_cycles(bits.size(), {}));
    hw::RecordSink sink(records);
    cop.point_mult(bits, curve().base_point().x, {}, &sink);
    benchmark::DoNotOptimize(records.data());
  }
  state.SetLabel("record sink, reserved from the compiled cycle total");
}
BENCHMARK(BM_PointMultRecorded)->Unit(benchmark::kMillisecond);

void BM_AveragedCaptureThreads(benchmark::State& state) {
  const ecc::Scalar k = bench_key();
  sc::CycleSimConfig cfg;
  cfg.keep_records = false;
  cfg.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto t = sc::capture_averaged_cycle_trace(curve(), k,
                                              curve().base_point(), cfg, 8);
    benchmark::DoNotOptimize(t.samples.data());
  }
  state.SetLabel(state.range(0) == 1 ? "8 captures, calling thread only"
                                     : "8 captures, shared pool");
}
BENCHMARK(BM_AveragedCaptureThreads)->Arg(1)->Arg(0)
    ->Unit(benchmark::kMillisecond);

void BM_SpaFeatureCaptureAveraged(benchmark::State& state) {
  const ecc::Scalar k = bench_key();
  sc::CycleSimConfig prof;
  prof.coproc.secure.uniform_clock_gating = false;
  prof.coproc.secure.balanced_mux_encoding = false;
  prof.leakage.noise_sigma = 100.0;
  rng::Xoshiro256 rng(31);
  const auto schedule = sc::profile_schedule(sc::capture_cycle_trace(
      curve(), rng.uniform_nonzero(curve().order()), curve().base_point(),
      prof));
  for (auto _ : state) {
    auto f = sc::capture_averaged_spa_features(
        curve(), k, curve().base_point(), prof, schedule, 8);
    benchmark::DoNotOptimize(f.selset_amplitudes.data());
  }
  state.SetLabel("8 averaged captures -> 163 POI amplitudes, no traces");
}
BENCHMARK(BM_SpaFeatureCaptureAveraged)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  if (!print_table()) {
    std::fprintf(stderr,
                 "bench_coproc: the closed-form cycle count no longer "
                 "matches the executed engine\n");
    return 1;
  }
  return medsec::bench::run_benchmarks_with_json(argc, argv,
                                                 "BENCH_coproc.json");
}
