// Gateway chaos campaign — the resilience-layer scenario family: completion
// rate, retransmit cost and completion-latency percentiles of the sharded
// device↔gateway fleet as the channel degrades (loss × corruption sweep),
// plus the PR acceptance drill printed up front:
//
//   * >= 1k sessions at 20% loss / 5% corruption with reordering and
//     duplication on reach 100% completion with ZERO corrupted frames
//     accepted and zero stuck sessions;
//   * the campaign digest equals its pinned value at 1, 2 and 4 shards,
//     serial and parallel (the determinism contract extended over the
//     failure model);
//   * a mid-protocol full-fleet failover (snapshot every session, kill the
//     node, restore onto a fresh one) changes none of that.
//
// No paper table: the paper's channel is an idealized 1:1 link. This bench
// opens the deployment axis — what serving the protocols over a real
// (lossy) channel costs. Emits BENCH_gateway.json (google-benchmark JSON
// schema) for the perf trajectory unless --benchmark_out is given.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "engine/shard.h"
#include "engine/transport.h"

namespace {

using namespace medsec;

// Pinned digests of the acceptance drill, without and with failover.
constexpr std::uint64_t kDrillDigest = 0xfa1b52d04bb3babbULL;
constexpr std::uint64_t kFailoverDrillDigest = 0x1d3a1207c9e98956ULL;

/// The campaign over one shard world per 64 sessions.
engine::ShardedCampaignConfig campaign_config(std::size_t sessions,
                                              double loss, double corrupt) {
  engine::ShardedCampaignConfig sc;
  sc.chaos.sessions = sessions;
  sc.chaos.seed = 0xC4A05CA7;
  sc.chaos.uplink.drop = loss;
  sc.chaos.uplink.corrupt = corrupt;
  sc.chaos.uplink.reorder = 0.10;
  sc.chaos.uplink.duplicate = 0.05;
  sc.chaos.downlink = sc.chaos.uplink;
  sc.shards = (sessions + 63) / 64;
  return sc;
}

// --- the headline numbers, printed before the timers -------------------------

bool print_table() {
  bench::banner(
      "Gateway resilience: chaos campaign over the framed transport",
      "deployment-layer scenario (the paper's link, made lossy)");

  // Degradation sweep: completion and latency as the channel worsens.
  std::printf(
      "\n  %-28s %10s %12s %10s %10s %10s\n", "channel (fleet=256)",
      "complete", "retx/sess", "p50", "p99", "max");
  for (const double corrupt : {0.0, 0.05}) {
    for (const double loss : {0.0, 0.05, 0.10, 0.20, 0.30}) {
      const auto r =
          engine::run_sharded_campaign(campaign_config(256, loss, corrupt))
              .chaos;
      char label[64];
      std::snprintf(label, sizeof(label), "%2.0f%% loss / %2.0f%% corrupt",
                    loss * 100, corrupt * 100);
      std::printf("  %-28s %9.1f%% %12.2f %10llu %10llu %10llu\n", label,
                  100.0 * static_cast<double>(r.completed) /
                      static_cast<double>(r.sessions),
                  static_cast<double>(r.retransmits) /
                      static_cast<double>(r.sessions),
                  static_cast<unsigned long long>(r.latency_p50),
                  static_cast<unsigned long long>(r.latency_p99),
                  static_cast<unsigned long long>(r.latency_max));
    }
  }

  // The acceptance drill: 1k+ sessions under the headline fault mix, plus
  // a mid-protocol full-fleet failover, each at 1, 2 and 4 shards, serial
  // and parallel, against its pinned digest.
  auto cfg = campaign_config(1024, 0.20, 0.05);
  std::printf("\n  acceptance drill (%zu sessions, 20%% loss, 5%% corrupt,"
              " reorder+dup on):\n", cfg.chaos.sessions);
  bool digests_ok = true;
  engine::ChaosCampaignResult drill, failover;
  for (const core::Cycle failover_at : {core::Cycle{0}, core::Cycle{200}}) {
    const std::uint64_t pinned =
        failover_at == 0 ? kDrillDigest : kFailoverDrillDigest;
    cfg.chaos.failover_at = failover_at;
    for (const std::size_t shards : {1u, 2u, 4u}) {
      for (const bool parallel : {false, true}) {
        cfg.shards = shards;
        cfg.parallel = parallel;
        const auto r = engine::run_sharded_campaign(cfg).chaos;
        digests_ok = digests_ok && r.digest == pinned;
        std::printf("    failover@%-3llu %zu shard(s) %-8s digest=%016llx"
                    "  (%s)\n",
                    static_cast<unsigned long long>(failover_at), shards,
                    parallel ? "parallel" : "serial",
                    static_cast<unsigned long long>(r.digest),
                    r.digest == pinned ? "pinned" : "MISMATCH");
        (failover_at == 0 ? drill : failover) = r;
      }
    }
  }
  std::printf("    completed %zu/%zu   stuck %zu   corrupt frames accepted"
              " %llu\n", drill.completed, drill.sessions, drill.stuck,
              static_cast<unsigned long long>(drill.corrupt_accepted));
  std::printf("    frames: %llu sent, %llu dropped, %llu corrupted, %llu"
              " retransmits\n",
              static_cast<unsigned long long>(drill.frames_sent),
              static_cast<unsigned long long>(drill.frames_dropped),
              static_cast<unsigned long long>(drill.frames_corrupted),
              static_cast<unsigned long long>(drill.retransmits));
  std::printf("    failover@200: completed %zu/%zu, restored %llu,"
              " corrupt accepted %llu\n", failover.completed,
              failover.sessions,
              static_cast<unsigned long long>(failover.gateway.restored),
              static_cast<unsigned long long>(failover.corrupt_accepted));

  const bool ok = drill.completed == drill.sessions && drill.stuck == 0 &&
                  drill.corrupt_accepted == 0 && digests_ok &&
                  failover.completed == failover.sessions &&
                  failover.corrupt_accepted == 0;
  std::printf("    verdict: %s\n", ok ? "PASS" : "FAIL");
  return ok;
}

// --- timers ------------------------------------------------------------------

/// Wall time of a full chaos campaign at a given fleet size and loss rate
/// (corruption pinned at a quarter of the loss rate, reorder/dup on).
void BM_ChaosCampaign(benchmark::State& state) {
  const auto sessions = static_cast<std::size_t>(state.range(0));
  const double loss = static_cast<double>(state.range(1)) / 100.0;
  auto cfg = campaign_config(sessions, loss, loss / 4.0);
  std::size_t completed = 0;
  for (auto _ : state) {
    const auto r = engine::run_sharded_campaign(cfg).chaos;
    completed += r.completed;
    benchmark::DoNotOptimize(r.digest);
  }
  if (completed !=
      sessions * static_cast<std::size_t>(state.iterations()))
    state.SkipWithError("chaos campaign left sessions incomplete");
  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
  state.counters["sessions_per_s"] = benchmark::Counter(
      static_cast<double>(completed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ChaosCampaign)
    ->ArgsProduct({{64, 256}, {0, 20}})
    ->ArgNames({"sessions", "loss_pct"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

/// The transport hot path: encode + strict decode of one protocol-sized
/// frame (48-byte payload — the telemetry blob).
void BM_FrameCodec(benchmark::State& state) {
  engine::Frame f;
  f.session = 7;
  f.seq = 3;
  f.label = "telemetry";
  f.payload.assign(48, 0xA5);
  for (auto _ : state) {
    const auto bytes = engine::encode_frame(f);
    auto back = engine::decode_frame(bytes);
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrameCodec);

}  // namespace

int main(int argc, char** argv) {
  // The drill is a hard gate, not a report: CI runs this binary and a
  // FAIL verdict must fail the job.
  if (!print_table()) return 1;
  return medsec::bench::run_benchmarks_with_json(argc, argv,
                                                 "BENCH_gateway.json");
}
