// E2 — the §5 architecture-level trade-off.
//
// Paper: "The choice of the digit-size determines the power needed for
// the computation, as well as the latency and area. By using a digit
// serial multiplication with a 163x4 modular multiplier we achieve the
// optimal area-energy product within the given latency constraints.
// Moreover, the execution time is independent of the key length."
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "hw/coprocessor.h"
#include "hw/digit_serial.h"
#include "sidechannel/countermeasures.h"

namespace {

using namespace medsec;

void print_table() {
  bench::banner("E2: digit-serial multiplier size sweep",
                "Section 5 area-power-latency trade-off (d = 4 optimum)");

  const auto tech = hw::Technology::umc130();
  const auto sweep = hw::digit_size_sweep(tech);

  std::printf("%3s %8s %10s %12s %12s %16s %8s\n", "d", "cycles",
              "area[GE]", "power[uW]", "E/mult[nJ]", "area*energy", "");
  double best = 1e300;
  std::size_t best_d = 0;
  for (const auto& p : sweep) {
    if (p.area_energy_product < best) {
      best = p.area_energy_product;
      best_d = p.digit_size;
    }
  }
  for (const auto& p : sweep)
    std::printf("%3zu %8zu %10.0f %12.2f %12.3f %16.3e %8s\n", p.digit_size,
                p.cycles_per_mult, p.area_ge, p.avg_power_w * 1e6,
                p.energy_per_mult_j * 1e9, p.area_energy_product,
                p.digit_size == best_d ? "<- best" : "");
  std::printf("\nmodel optimum: d = %zu; paper picks d = 4. Latency falls\n"
              "as 1/d, area rises with d, glitch depth grows with d — the\n"
              "interior optimum is the paper's design point.\n", best_d);

  // Second claim: execution time independent of the key (value).
  const ecc::Curve& curve = ecc::Curve::k163();
  hw::Coprocessor cop;
  rng::Xoshiro256 rng(7);
  std::size_t cyc = 0;
  bool constant = true;
  for (int i = 0; i < 5; ++i) {
    const auto bits =
        sidechannel::coproc_key_bits(curve, rng.uniform_nonzero(curve.order()));
    const auto r = cop.point_mult(bits, curve.base_point().x, {}, nullptr);
    if (cyc == 0) cyc = r.exec.cycles;
    constant = constant && (r.exec.cycles == cyc);
  }
  std::printf("execution time across 5 random keys: %zu cycles each -> %s\n",
              cyc, constant ? "constant (as claimed)" : "VARIES (bug!)");
}

void BM_MaluMultiply(benchmark::State& state) {
  const hw::DigitSerialMultiplier malu(
      static_cast<std::size_t>(state.range(0)));
  rng::Xoshiro256 rng(4);
  bigint::U192 va, vb;
  for (std::size_t i = 0; i < 3; ++i) {
    va.set_limb(i, rng.next_u64());
    vb.set_limb(i, rng.next_u64());
  }
  const auto a = gf2m::Gf163::from_bits(va);
  const auto b = gf2m::Gf163::from_bits(vb);
  for (auto _ : state) {
    auto r = malu.multiply(a, b);
    benchmark::DoNotOptimize(r.product);
  }
}
BENCHMARK(BM_MaluMultiply)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
