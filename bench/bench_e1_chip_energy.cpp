// E1 — the §6 chip measurements.
//
// Paper: "At the operating frequency of 847.5 kHz and core voltage
// Vdd = 1 V, the processor consumes 50.4 uW and uses only 5.1 uJ for one
// point multiplication. At this frequency, the throughput is 9.8 point
// multiplications per second."
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/secure_processor.h"
#include "sidechannel/countermeasures.h"

namespace {

using namespace medsec;

void print_table() {
  bench::banner("E1: chip energy / power / throughput",
                "Section 6 measured numbers (50.4 uW, 5.1 uJ, 9.8 PM/s)");

  const ecc::Curve& curve = ecc::Curve::k163();
  core::SecureEccProcessor proc(
      curve, core::CountermeasureConfig::protected_default());
  rng::Xoshiro256 rng(1);

  // Average a few runs (RPC randomizers vary the switching activity).
  double energy = 0, power = 0, seconds = 0;
  std::size_t cycles = 0;
  constexpr int kRuns = 5;
  for (int i = 0; i < kRuns; ++i) {
    const auto out =
        proc.point_mult(rng.uniform_nonzero(curve.order()), curve.base_point());
    energy += out.energy_j;
    power += out.avg_power_w;
    seconds += out.seconds;
    cycles = out.cycles;
  }
  energy /= kRuns;
  power /= kRuns;
  seconds /= kRuns;

  std::printf("%-34s %14s %14s %9s\n", "quantity", "paper", "model",
              "ratio");
  auto row = [](const char* q, double paper, double model, const char* u) {
    std::printf("%-34s %11.2f %s %11.2f %s %8.3f\n", q, paper, u, model, u,
                model / paper);
  };
  row("average power", 50.4, power * 1e6, "uW");
  row("energy per point mult", 5.1, energy * 1e6, "uJ");
  row("throughput", 9.8, 1.0 / seconds, "/s");
  row("clock frequency", 847.5, hw::Technology::umc130().clock_hz / 1e3,
      "kHz");
  row("core area (ECC core, [10])", 12.0, proc.area_ge() / 1e3, "kGE");
  std::printf("(model cycle count per ECPM: %zu)\n", cycles);
  std::printf("\nCalibration note: one constant pair (toggle energy, activity\n"
              "weights) is fitted once against the 5.1 uJ point; power and\n"
              "throughput then FOLLOW from the cycle-accurate model. See\n"
              "hw/technology.h and EXPERIMENTS.md.\n");
}

// --- timers ---------------------------------------------------------------------

void BM_CoprocessorPointMult(benchmark::State& state) {
  const ecc::Curve& curve = ecc::Curve::k163();
  hw::Coprocessor cop;
  rng::Xoshiro256 rng(2);
  const auto bits =
      sidechannel::coproc_key_bits(curve, rng.uniform_nonzero(curve.order()));
  for (auto _ : state) {
    auto r = cop.point_mult(bits, curve.base_point().x, {}, nullptr);
    benchmark::DoNotOptimize(r.x_affine);
  }
  state.SetLabel("cycle-accurate model of one 86.9k-cycle ECPM");
}
BENCHMARK(BM_CoprocessorPointMult)->Unit(benchmark::kMillisecond);

void BM_SoftwareLadderPointMult(benchmark::State& state) {
  const ecc::Curve& curve = ecc::Curve::k163();
  rng::Xoshiro256 rng(3);
  const auto k = rng.uniform_nonzero(curve.order());
  for (auto _ : state) {
    auto p = ecc::montgomery_ladder(curve, k, curve.base_point());
    benchmark::DoNotOptimize(p);
  }
  state.SetLabel("plain software ladder (no hardware model)");
}
BENCHMARK(BM_SoftwareLadderPointMult)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
