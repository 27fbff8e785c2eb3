// E9 — per-countermeasure ablation at circuit level (§6).
//
// Paper §6 lists four circuit practices (balance critical signals, avoid
// data-dependent clock gating, isolate datapath inputs, avoid glitches)
// plus the dual-rail logic styles (SABL, WDDL). This bench switches each
// one off in isolation and reports a leakage metric:
//   * TVLA max |t| on fixed-vs-random-input cycle traces (input isolation,
//     logic styles),
//   * SPA key-bit recovery (mux encoding, clock gating),
//   * DPA bit accuracy (projective randomization, for reference),
// together with the area/power price of each fix — the "extra design
// dimension" in one table.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "sidechannel/dpa.h"
#include "sidechannel/spa.h"
#include "sidechannel/tvla.h"

namespace {

using namespace medsec;
namespace sc = sidechannel;

/// TVLA on cycle traces: fixed base point vs random base points, RPC off
/// so the input actually drives the intermediates. Truncated to the first
/// `window` cycles (the ladder's head) for runtime.
sc::TvlaReport tvla_run(const ecc::Curve& curve,
                        const hw::SecureConfig& secure, sc::LogicStyle style,
                        std::size_t window) {
  rng::Xoshiro256 rng(17);
  const ecc::Scalar k = rng.uniform_nonzero(curve.order());

  auto capture = [&](const ecc::Point& p, std::uint64_t seed) {
    sc::CycleSimConfig cfg;
    cfg.coproc.secure = secure;
    cfg.countermeasures = sc::CountermeasureConfig::none();
    cfg.leakage.style = style;
    cfg.leakage.noise_sigma = 200.0;
    cfg.seed = seed;
    cfg.keep_records = false;  // TVLA consumes samples only
    auto t = sc::capture_cycle_trace(curve, k, p, cfg);
    t.samples.resize(window);
    return t.samples;
  };

  sc::TraceSet fixed, random;
  constexpr int kPerGroup = 16;
  for (int i = 0; i < kPerGroup; ++i)
    fixed.traces.push_back(capture(curve.base_point(), 100 + i));
  for (int i = 0; i < kPerGroup; ++i) {
    const auto r = rng.uniform_nonzero(curve.order());
    const auto p = ecc::montgomery_ladder(curve, r, curve.base_point());
    random.traces.push_back(capture(p, 200 + i));
  }
  return sc::tvla_fixed_vs_random(fixed, random);
}

void print_tvla_row(const char* label, const sc::TvlaReport& rep,
                    const char* extra = "") {
  std::printf("  %-44s max|t| %6.1f, leaking points %5.1f%%%s\n", label,
              rep.max_abs_t,
              100.0 * static_cast<double>(rep.points_over_threshold) /
                  static_cast<double>(rep.t_values.size()),
              extra);
}

/// Input-isolation metric: the data-dependent signal variance an attacker
/// can harvest at the operand-handling cycles (bus fetches, writebacks).
/// Isolation does not hide the active unit's own bus — it stops the data
/// from rippling into every *idle* unit, which multiplies the exploitable
/// amplitude. Measured noise-free over random inputs: a DPA SNR proxy.
double bus_cycle_signal_variance(const ecc::Curve& curve,
                                 const hw::SecureConfig& secure,
                                 std::size_t traces) {
  rng::Xoshiro256 rng(19);
  const ecc::Scalar k = rng.uniform_nonzero(curve.order());
  std::vector<sc::Trace> set;
  std::vector<hw::CycleRecord> klass;
  for (std::size_t i = 0; i < traces; ++i) {
    const auto r = rng.uniform_nonzero(curve.order());
    const auto p = ecc::montgomery_ladder(curve, r, curve.base_point());
    sc::CycleSimConfig cfg;
    cfg.coproc.secure = secure;
    cfg.countermeasures = sc::CountermeasureConfig::none();
    cfg.leakage.noise_sigma = 0.0;
    cfg.seed = 300 + i;
    cfg.keep_records = klass.empty();  // one record capture keys the scan
    auto t = sc::capture_cycle_trace(curve, k, p, cfg);
    if (klass.empty()) klass = t.records;
    set.push_back(std::move(t.samples));
  }
  double var_sum = 0;
  std::size_t cycles_counted = 0;
  for (std::size_t cyc = 0; cyc < klass.size(); ++cyc) {
    if (klass[cyc].bus_toggles == 0)
      continue;  // only operand-bus cycles; MALU-internal cycles (which
                 // also write the accumulator) are isolation-independent
    sc::RunningStats s;
    for (const auto& tr : set) s.add(tr[cyc]);
    var_sum += s.variance();
    ++cycles_counted;
  }
  return cycles_counted ? var_sum / static_cast<double>(cycles_counted) : 0;
}

void print_table() {
  bench::banner("E9: circuit-level countermeasure ablation",
                "Section 6 guidelines, each switched off in isolation");

  const ecc::Curve& curve = ecc::Curve::k163();
  constexpr std::size_t kWindow = 4000;

  hw::SecureConfig all_on;
  hw::SecureConfig no_isolation = all_on;
  no_isolation.isolate_datapath_inputs = false;

  std::printf("input isolation (exploitable signal variance at operand-\n"
              "handling cycles, noise-free, 16 random-input traces):\n");
  const double v_on = bus_cycle_signal_variance(curve, all_on, 16);
  const double v_off = bus_cycle_signal_variance(curve, no_isolation, 16);
  std::printf("  %-44s %10.0f GE^2\n", "isolation ON  (paper practice)",
              v_on);
  std::printf("  %-44s %10.0f GE^2  (%.1fx more signal for DPA)\n",
              "isolation OFF (spurious propagation)", v_off, v_off / v_on);

  std::printf("\nfixed-vs-random TVLA over first %zu cycles (RPC off, "
              "threshold 4.5):\n", kWindow);
  print_tvla_row("CMOS baseline (countermeasures on, RPC off)",
                 tvla_run(curve, all_on, sc::LogicStyle::kCmos, kWindow));

  std::printf("\nlogic style (same TVLA, isolation on):\n");
  for (const auto style : {sc::LogicStyle::kCmos, sc::LogicStyle::kWddl,
                           sc::LogicStyle::kSabl}) {
    char extra[48];
    std::snprintf(extra, sizeof extra, "   (area x%.1f)",
                  style == sc::LogicStyle::kCmos
                      ? 1.0
                      : (style == sc::LogicStyle::kWddl
                             ? hw::LogicStyleOverhead::kWddl
                             : hw::LogicStyleOverhead::kSabl));
    print_tvla_row(sc::logic_style_name(style),
                   tvla_run(curve, all_on, style, kWindow), extra);
  }
  std::printf("  (CMOS leaks across the trace; WDDL/SABL suppress the data\n"
              "   component down to layout imbalance — the paper's residual\n"
              "   SPA leak. A true dual-rail chip would also rebalance the\n"
              "   register-file writes this model keeps visible.)\n");

  // Mux / gating ablation: SPA bits recovered (from bench_e4's machinery).
  rng::Xoshiro256 rng(18);
  const ecc::Scalar secret = rng.uniform_nonzero(curve.order());
  sc::CycleSimConfig prof;
  prof.coproc.secure.uniform_clock_gating = false;
  prof.leakage.noise_sigma = 100.0;
  const auto schedule = sc::profile_schedule(sc::capture_cycle_trace(
      curve, rng.uniform_nonzero(curve.order()), curve.base_point(), prof));

  auto spa_bits = [&](bool balanced, bool uniform) {
    sc::CycleSimConfig cfg;
    cfg.coproc.secure.balanced_mux_encoding = balanced;
    cfg.coproc.secure.uniform_clock_gating = uniform;
    cfg.leakage.noise_sigma = 100.0;
    // Averaged victim through the SPA feature-extractor sink (POI
    // amplitudes only — no materialized cycle traces).
    const auto victim = sc::capture_averaged_spa_features(
        curve, secret, curve.base_point(), cfg, schedule, 48);
    return std::make_pair(sc::mux_control_spa(victim).accuracy,
                          sc::clock_gating_spa(victim).accuracy);
  };
  std::printf("\nmux encoding / clock gating (SPA key bits, 163 total):\n");
  const auto [m_off, g_off] = spa_bits(false, false);
  const auto [m_on, g_on] = spa_bits(true, true);
  std::printf("  %-44s mux %5.1f, gating %5.1f\n",
              "both OFF (naive circuit)", m_off * 163, g_off * 163);
  std::printf("  %-44s mux %5.1f, gating %5.1f\n",
              "both ON  (Fig. 3 + uniform gating)", m_on * 163, g_on * 163);

  // RPC ablation (algorithm level, for completeness of the matrix).
  sc::DpaConfig dc;
  dc.bits_to_attack = 12;
  const auto off = sc::dpa_trace_count_sweep(
      curve, secret, sc::RpcScenario::kDisabled, {300}, dc);
  const auto on = sc::dpa_trace_count_sweep(
      curve, secret, sc::RpcScenario::kEnabledSecretRandomness, {300}, dc);
  std::printf("\nprojective randomization (DPA, 300 traces, 12 bits):\n");
  std::printf("  %-44s %4.1f/12 bits\n", "RPC OFF", off[0].accuracy * 12);
  std::printf("  %-44s %4.1f/12 bits\n", "RPC ON", on[0].accuracy * 12);
}

void BM_TvlaWindow(benchmark::State& state) {
  const ecc::Curve& curve = ecc::Curve::k163();
  for (auto _ : state) {
    const auto rep =
        tvla_run(curve, hw::SecureConfig{}, sc::LogicStyle::kCmos, 1000);
    benchmark::DoNotOptimize(rep.max_abs_t);
  }
  state.SetLabel("32-trace TVLA over 1000 cycles");
}
BENCHMARK(BM_TvlaWindow)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
