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
// (lossy) channel costs. The timers also cover the per-session byte kernels
// (frame codec, AES-128 block, SHA-256 compression) and the ARQ timer
// queue. Emits BENCH_gateway.json (google-benchmark JSON schema) for the
// perf trajectory unless --benchmark_out is given.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>

#include "bench_util.h"
#include "ciphers/aes128.h"
#include "core/event_queue.h"
#include "engine/shard.h"
#include "engine/transport.h"
#include "hash/sha256.h"
#include "protocol/wire.h"
#include "rng/xoshiro.h"

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
  f.label = protocol::kLabelEciesBlob;
  f.payload.assign(48, 0xA5);
  for (auto _ : state) {
    const auto bytes = engine::encode_frame(f);
    auto back = engine::decode_frame(bytes);
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrameCodec);

/// The other session byte kernels on each of their paths: one AES-128 block
/// encryption and one SHA-256 compression per iteration, each fed its own
/// output. A hardware row skips where CPUID lacks the instructions; the
/// portable / hardware ratio of each pair is gated.
void BM_Aes128Encrypt(benchmark::State& state,
                      const ciphers::detail::Aes128Kernel* kernel) {
  if (kernel == nullptr) {
    state.SkipWithError("AES-NI unavailable on this CPU");
    return;
  }
  std::array<std::uint8_t, 16> key{}, block{};
  rng::Xoshiro256 rng(0xAE5);
  rng.fill(key);
  rng.fill(block);
  ciphers::Aes128::RoundKeys rk{};
  kernel->expand_key(key.data(), rk);
  for (auto _ : state) {
    kernel->encrypt_block(rk, block.data(), block.data());
    benchmark::DoNotOptimize(block.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_Aes128Encrypt, portable,
                  &ciphers::detail::aes128_portable());
BENCHMARK_CAPTURE(BM_Aes128Encrypt, aesni, ciphers::detail::aes128_aesni());

void BM_Sha256Compress(benchmark::State& state,
                       hash::detail::Sha256Compress compress) {
  if (compress == nullptr) {
    state.SkipWithError("SHA-NI unavailable on this CPU");
    return;
  }
  std::array<std::uint8_t, hash::Sha256::kBlockSize> block{};
  rng::Xoshiro256 rng(0x5A256);
  rng.fill(block);
  hash::Sha256::State chain{};
  for (auto _ : state) {
    compress(chain, block.data(), 1);
    benchmark::DoNotOptimize(chain.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_Sha256Compress, portable,
                  &hash::detail::sha256_compress_portable);
BENCHMARK_CAPTURE(BM_Sha256Compress, shani,
                  hash::detail::sha256_compress_shani());

/// The ARQ timer pattern at a given RTO: each step arms a retransmit timer
/// at the RTO plus seeded jitter in [0, RTO/4), cancels the timer armed 64
/// steps earlier (its ack) and advances the clock one cycle. An ack is a
/// cancel, so the cost per step must not grow with the RTO; the ratio of
/// the two rows is gated.
void BM_TimerAckChurn(benchmark::State& state) {
  const auto rto = static_cast<core::Cycle>(state.range(0));
  constexpr std::size_t kInFlight = 64;
  core::EventQueue q;
  std::array<core::EventId, kInFlight> armed{};
  std::uint64_t fired = 0;
  std::uint64_t jitter = 0x7135;
  std::size_t step = 0;
  const auto ack_and_arm = [&] {
    core::EventId& timer = armed[step++ % kInFlight];
    q.cancel(timer);
    timer = q.schedule(rto + rng::splitmix64(jitter) % (rto / 4),
                       [&fired] { ++fired; });
    q.run_until(q.now() + 1);
  };
  // Steady state: every timer cancelled so far has passed its deadline.
  for (core::Cycle i = 0; i < rto * 5 / 4; ++i) ack_and_arm();
  for (auto _ : state) {
    ack_and_arm();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimerAckChurn)->Arg(256)->Arg(65536)->ArgName("rto");

}  // namespace

int main(int argc, char** argv) {
  // The drill is a hard gate, not a report: CI runs this binary and a
  // FAIL verdict must fail the job.
  if (!print_table()) return 1;
  return medsec::bench::run_benchmarks_with_json(argc, argv,
                                                 "BENCH_gateway.json");
}
