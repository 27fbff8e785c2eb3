// bench_loadgen.cpp — 100k-session load generator for the sharded gateway.
//
// Exercises the full socket path: UDP datagrams -> epoll front end ->
// lock-free shard mailboxes -> per-shard gateways -> deferred Schnorr
// transcripts -> per-shard batch verifiers, with downlinks flowing back
// over the same socket.
//
// The client is deliberately lightweight so the SERVER is the measured
// bottleneck: every session reuses one precomputed commitment (k, R), so
// a session costs the client one modular multiply-add while the server
// pays the full decode + batch-verify price. (Commitment reuse is a
// load-test liberty — a real prover draws fresh k per session; the
// verifier-side work is identical either way.)
//
// Two modes:
//   * acceptance drill (stdout table, pass/fail): N sessions ALL held
//     mid-protocol simultaneously (commitments sent, responses withheld),
//     then completed — proving the fleet really holds N concurrent
//     sessions. Forged responses and corrupted datagrams ride along and
//     must all be rejected: corrupt-accepted == 0.
//   * google-benchmark rows (BENCH_loadgen.json): windowed streaming —
//     a fixed live window over N sessions, reporting sessions/s and
//     p50/p95/p99 completion latency, at 1 shard and 4 shards. The 4-vs-1
//     ratio is the machine-independent perf gate.
#include "bench_util.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "ecc/curve.h"
#include "ecc/fixed_base.h"
#include "engine/campaign_fixtures.h"
#include "engine/delivery.h"
#include "engine/net.h"
#include "engine/shard.h"
#include "protocol/schnorr.h"
#include "protocol/wire.h"
#include "rng/xoshiro.h"

namespace {

using namespace medsec;
using bench::LatencyHistogram;
using engine::campaign::mix_seed;

constexpr std::uint64_t kSeed = 0x10AD6E4F;
/// 1 virtual cycle = 100µs: DeliveryConfig's default rto_initial of 64
/// cycles becomes a 6.4ms first retransmit — sane for loopback RTTs.
constexpr double kCyclesPerUs = 0.01;

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// Server side: an N-shard fleet + UDP front end where every session is a
/// deferred-mode SchnorrVerifier against one fleet-wide public key.
struct ServerHarness {
  engine::ShardFleet fleet;
  engine::UdpFrontEnd front;

  ServerHarness(const ecc::Curve& curve, const ecc::Point& X,
                std::size_t shards)
      : fleet(curve, fleet_config(shards), factory(curve, X),
              /*producers=*/1),
        front(fleet, /*port=*/0) {
    front.start();
    fleet.start(front);
  }

  ~ServerHarness() {
    front.stop();
    fleet.stop(/*force=*/true);
  }

  static engine::ShardFleetConfig fleet_config(std::size_t shards) {
    engine::ShardFleetConfig cfg;
    cfg.shards = shards;
    cfg.verify_batch = 64;
    cfg.mailbox_capacity = 1 << 15;
    cfg.seed = kSeed;
    cfg.cycles_per_us = kCyclesPerUs;
    return cfg;
  }

  static engine::SessionFactory factory(const ecc::Curve& curve,
                                        const ecc::Point& X) {
    return [&curve, X](std::uint64_t id) {
      engine::SessionSetup s;
      auto rng = std::make_unique<rng::Xoshiro256>(mix_seed(kSeed, id));
      s.machine = std::make_unique<protocol::SchnorrVerifier>(
          curve, X, *rng, protocol::SchnorrVerifier::Mode::kDeferred);
      s.rng = std::move(rng);
      return s;
    };
  }

  /// Poll fleet totals until `n` verdicts landed (or timeout). The shard
  /// ticks flush the batch verifiers, so this converges on its own.
  bool wait_for_verdicts(std::size_t n, std::chrono::seconds timeout) {
    const auto t0 = std::chrono::steady_clock::now();
    while (fleet.totals().completed < n) {
      if (std::chrono::steady_clock::now() - t0 > timeout) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }
};

struct LoadResult {
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t peak_live = 0;
  double wall_s = 0;
  LatencyHistogram latency_us;
};

/// The lightweight client: one UDP socket, one virtual-clock world, one
/// ReliableEndpoint per session, one shared precomputed commitment.
class LoadClient {
 public:
  LoadClient(const ecc::Curve& curve, std::uint16_t server_port,
             std::uint64_t id_base)
      : curve_(curve), id_base_(id_base), t0_(std::chrono::steady_clock::now()) {
    rng::Xoshiro256 rng(mix_seed(kSeed, 0xC11E7));
    key_ = protocol::schnorr_keygen(curve, rng);
    k_ = rng.uniform_nonzero(curve.order());
    commitment_wire_ =
        protocol::encode_point(curve, ecc::generator_comb(curve).mult_ct(k_));
    server_ = engine::Peer{/*ip=*/0x7F000001, server_port};
    // Under full load the server's queueing delay is seconds, not the
    // loopback RTT: a 6.4ms first retransmit would amplify every message
    // several-fold into an already-full mailbox. Patience is cheap.
    delivery_.rto_initial = 5'000;   // 500ms at kCyclesPerUs
    delivery_.rto_max = 20'000;      // 2s ceiling
  }

  const ecc::Point& public_key() const { return key_.X; }

  /// Streaming mode: keep `window` sessions live until `total` complete.
  LoadResult run_windowed(std::size_t total, std::size_t window) {
    prepare(total, /*forged=*/0);
    streaming_ = true;
    const auto start = std::chrono::steady_clock::now();
    std::size_t opened = 0;
    while (completed_ + failed_ < total &&
           std::chrono::steady_clock::now() - start <
               std::chrono::seconds(120)) {
      while (opened < total && live() < window) open(opened++);
      if (pump() == 0) std::this_thread::sleep_for(
          std::chrono::microseconds(50));
      reap();
    }
    return finish(start);
  }

  /// Staged mode: every session mid-protocol at once. `forged` extra
  /// sessions answer with a wrong response; `corrupt` mangled datagrams
  /// and `garbage` non-frames are injected during the response phase.
  LoadResult run_staged(std::size_t total, std::size_t forged,
                        std::size_t corrupt, std::size_t garbage) {
    prepare(total + forged, forged);
    const auto start = std::chrono::steady_clock::now();
    const auto deadline = [&] {
      return std::chrono::steady_clock::now() - start >
             std::chrono::seconds(600);
    };
    // Pacing budget: never more than this many messages queued at the
    // server side without an answer. Well under the mailbox lane capacity
    // so backpressure shedding never fires on honest traffic; the open
    // rate self-clocks to the server's actual service rate.
    constexpr std::size_t kInflight = 4096;
    // Phase 1: commit everywhere, withhold every response. At the end of
    // this phase all `total+forged` sessions are simultaneously open and
    // mid-protocol on the server.
    std::size_t next = 0;
    while (challenges_ < sessions_.size() && !deadline()) {
      std::size_t burst = 0;
      while (next < sessions_.size() &&
             opened_ - challenges_ < kInflight && burst < 256) {
        open(next++);
        ++burst;
      }
      if (pump() == 0 && burst == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    // Phase 2: inject the adversarial traffic, then answer everything —
    // again paced by completions, so responses queue shallowly.
    inject(corrupt, garbage);
    next = 0;
    while (completed_ + failed_ < sessions_.size() && !deadline()) {
      std::size_t burst = 0;
      while (next < sessions_.size() &&
             responded_ - completed_ - failed_ < kInflight &&
             burst < 256) {
        respond(next++);
        ++burst;
      }
      if (pump() == 0 && burst == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      reap();
    }
    return finish(start);
  }

 private:
  struct Sess {
    std::unique_ptr<engine::ReliableEndpoint> ep;
    std::uint64_t start_us = 0;
    ecc::Scalar challenge;
    bool have_challenge = false;
    bool responded = false;
    bool completed = false;
    bool failed = false;
    bool forged = false;
  };

  std::size_t live() const { return opened_ - completed_ - failed_; }

  void prepare(std::size_t n, std::size_t forged) {
    sessions_.clear();
    sessions_.resize(n);
    for (std::size_t i = n - forged; i < n; ++i) sessions_[i].forged = true;
    opened_ = completed_ = failed_ = challenges_ = 0;
    peak_live_ = 0;
  }

  void open(std::size_t i) {
    Sess& s = sessions_[i];
    const std::uint64_t id = id_base_ + i;
    s.ep = std::make_unique<engine::ReliableEndpoint>(
        q_, id, mix_seed(kSeed, id ^ 0xC11E7), delivery_);
    s.ep->set_frame_sink([this](std::vector<std::uint8_t> bytes) {
      sock_.send_to(server_, bytes);
      engine::FramePool::release(std::move(bytes));
    });
    s.ep->set_message_sink([this, i](const engine::Frame& f) {
      Sess& s = sessions_[i];
      if (std::strcmp(f.label, "challenge e") != 0 || s.have_challenge)
        return;
      s.challenge = protocol::decode_scalar(f.payload);
      s.have_challenge = true;
      ++challenges_;
      if (streaming_) respond(i);
    });
    s.ep->set_failure_sink([this, i] {
      Sess& s = sessions_[i];
      if (!s.completed && !s.failed) {
        s.failed = true;
        ++failed_;
      }
    });
    s.start_us = elapsed_us(t0_);
    s.ep->send_message("commitment R", commitment_wire_);
    ++opened_;
    if (live() > peak_live_) peak_live_ = live();
  }

  void respond(std::size_t i) {
    Sess& s = sessions_[i];
    if (!s.have_challenge || s.responded || s.failed) return;
    const auto& ring = curve_.scalar_ring();
    ecc::Scalar resp = ring.add(k_, ring.mul(s.challenge, key_.x));
    if (s.forged) resp = ring.add(resp, resp);  // wrong, but a valid scalar
    s.ep->send_message("response s", protocol::encode_scalar(resp));
    s.responded = true;
    ++responded_;
    reap_list_.push_back(i);
  }

  /// Drain the socket into the endpoints and run the virtual clock up to
  /// wall time (retransmit timers for anything the kernel dropped).
  /// Returns datagrams received — 0 lets callers sleep instead of
  /// spinning the server's cores away.
  std::size_t pump() {
    engine::Peer from;
    std::size_t received = 0;
    for (;;) {
      std::vector<std::uint8_t> bytes = engine::FramePool::acquire();
      if (!sock_.recv_from(bytes, from)) {
        engine::FramePool::release(std::move(bytes));
        break;
      }
      ++received;
      const auto sid = engine::peek_frame_session(bytes);
      if (sid && *sid >= id_base_) {
        const std::size_t i = static_cast<std::size_t>(*sid - id_base_);
        if (i < sessions_.size() && sessions_[i].ep)
          sessions_[i].ep->on_bytes(std::move(bytes));
      }
    }
    const auto vnow =
        static_cast<core::Cycle>(elapsed_us(t0_) * kCyclesPerUs);
    if (vnow > q_.now()) q_.run_until(vnow);
    return received;
  }

  /// A session is complete once its response is acked: the server has
  /// the full transcript (its verdict lands in the batch verifier).
  void reap() {
    std::size_t w = 0;
    for (const std::size_t i : reap_list_) {
      Sess& s = sessions_[i];
      if (s.completed || s.failed) continue;
      if (s.ep->idle()) {
        s.completed = true;
        ++completed_;
        latency_us_.record(elapsed_us(t0_) - s.start_us);
      } else {
        reap_list_[w++] = i;
      }
    }
    reap_list_.resize(w);
  }

  void inject(std::size_t corrupt, std::size_t garbage) {
    engine::Frame f;
    f.type = engine::FrameType::kData;
    f.session = id_base_;  // a real, open session
    f.label = "commitment R";
    f.payload = commitment_wire_;
    for (std::size_t i = 0; i < corrupt; ++i) {
      std::vector<std::uint8_t> bytes = engine::encode_frame(f);
      bytes[bytes.size() - 6] ^= 0xFF;  // payload bit-flip; CRC now wrong
      sock_.send_to(server_, bytes);
      engine::FramePool::release(std::move(bytes));
    }
    const std::vector<std::uint8_t> junk = {0xDE, 0xAD, 0xBE, 0xEF};
    for (std::size_t i = 0; i < garbage; ++i) sock_.send_to(server_, junk);
  }

  LoadResult finish(std::chrono::steady_clock::time_point start) {
    LoadResult r;
    r.completed = completed_;
    r.failed = failed_;
    r.peak_live = peak_live_;
    r.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    r.latency_us = latency_us_;
    return r;
  }

  bool streaming_ = false;
  const ecc::Curve& curve_;
  protocol::SchnorrKeyPair key_;
  ecc::Scalar k_;
  std::vector<std::uint8_t> commitment_wire_;
  engine::UdpSocket sock_;
  engine::Peer server_;
  std::uint64_t id_base_;
  std::chrono::steady_clock::time_point t0_;
  core::EventQueue q_;
  engine::DeliveryConfig delivery_;
  std::vector<Sess> sessions_;
  std::vector<std::size_t> reap_list_;
  LatencyHistogram latency_us_;
  std::size_t opened_ = 0, completed_ = 0, failed_ = 0, challenges_ = 0;
  std::size_t responded_ = 0;
  std::size_t peak_live_ = 0;
};

// --- acceptance drill --------------------------------------------------------

bool acceptance_drill() {
  medsec::bench::banner(
      "loadgen acceptance drill",
      "sharded gateway holds 100k concurrent UDP sessions, 0 corrupt "
      "accepted");
  std::size_t n = 100'000;
  if (const char* env = std::getenv("MEDSEC_LOADGEN_DRILL"))
    n = static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
  constexpr std::size_t kForged = 64;
  constexpr std::size_t kCorrupt = 256;
  constexpr std::size_t kGarbage = 64;
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t shards = hw >= 4 ? 4 : (hw >= 2 ? 2 : 1);

  const ecc::Curve& curve = ecc::Curve::k163();
  LoadClient client(curve, 0, 1);  // key material first; port set below
  // (Re-create with the real port: the harness needs the client's X.)
  ServerHarness server(curve, client.public_key(), shards);
  LoadClient wired(curve, server.front.local_port(), 1);
  const LoadResult r = wired.run_staged(n, kForged, kCorrupt, kGarbage);
  const bool verdicts_in =
      server.wait_for_verdicts(n + kForged, std::chrono::seconds(60));
  const engine::ShardStats t = server.fleet.totals();
  const engine::UdpFrontEndStats fs = server.front.stats();

  const bool all_completed = r.completed == n + kForged && r.failed == 0;
  const bool concurrent = r.peak_live >= n;
  const bool honest_accepted = t.accepted == n;
  const bool forged_rejected = t.rejected == kForged;
  // Every honest session accepted, every forged one rejected, nothing
  // else: no corrupted or garbage datagram ever produced a verdict.
  const bool corrupt_accepted_zero =
      honest_accepted && forged_rejected && t.completed == n + kForged;
  const double sps = r.wall_s > 0 ? static_cast<double>(r.completed) / r.wall_s
                                  : 0.0;

  std::printf("  sessions            : %zu (+%zu forged)\n", n, kForged);
  std::printf("  shards              : %zu   (hw threads: %u)\n", shards, hw);
  std::printf("  peak concurrent     : %zu   [%s]\n", r.peak_live,
              concurrent ? "ok" : "FAIL");
  std::printf("  completed / failed  : %zu / %zu   [%s]\n", r.completed,
              r.failed, all_completed ? "ok" : "FAIL");
  std::printf("  verdicts (acc/rej)  : %llu / %llu   [%s]\n",
              static_cast<unsigned long long>(t.accepted),
              static_cast<unsigned long long>(t.rejected),
              honest_accepted && forged_rejected && verdicts_in ? "ok"
                                                                : "FAIL");
  std::printf("  corrupt accepted    : %s\n",
              corrupt_accepted_zero ? "0   [ok]" : "NONZERO   [FAIL]");
  std::printf("  injected corrupt/junk: %zu / %zu (front end dropped %llu "
              "non-frames)\n",
              kCorrupt, kGarbage,
              static_cast<unsigned long long>(fs.not_a_frame));
  std::printf("  mailbox shed        : %llu\n",
              static_cast<unsigned long long>(t.mailbox_shed));
  std::printf("  throughput          : %.0f sessions/s (%.2fs wall)\n", sps,
              r.wall_s);
  std::printf("  datagrams in/out    : %llu / %llu\n",
              static_cast<unsigned long long>(fs.datagrams_in),
              static_cast<unsigned long long>(fs.datagrams_out));
  const bool pass = all_completed && concurrent && verdicts_in &&
                    honest_accepted && forged_rejected &&
                    corrupt_accepted_zero;
  std::printf("  drill               : %s\n", pass ? "PASS" : "FAIL");
  return pass;
}

// --- benchmark rows ----------------------------------------------------------

void BM_Loadgen(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  if (shards > 1 && std::thread::hardware_concurrency() < shards) {
    state.SkipWithError("needs >= `shards` hardware threads");
    return;
  }
  constexpr std::size_t kSessions = 2048;
  constexpr std::size_t kWindow = 256;
  const ecc::Curve& curve = ecc::Curve::k163();
  LatencyHistogram merged;
  std::size_t total = 0;
  for (auto _ : state) {
    LoadClient keys(curve, 0, 1);
    ServerHarness server(curve, keys.public_key(), shards);
    LoadClient client(curve, server.front.local_port(), 1);
    const LoadResult r = client.run_windowed(kSessions, kWindow);
    server.wait_for_verdicts(r.completed, std::chrono::seconds(30));
    if (r.completed != kSessions) {
      state.SkipWithError("load run did not complete");
      return;
    }
    total += r.completed;
    merged.merge(r.latency_us);
  }
  state.counters["sessions_per_s"] = benchmark::Counter(
      static_cast<double>(total), benchmark::Counter::kIsRate);
  state.counters["p50_us"] =
      static_cast<double>(merged.percentile(0.50));
  state.counters["p95_us"] =
      static_cast<double>(merged.percentile(0.95));
  state.counters["p99_us"] =
      static_cast<double>(merged.percentile(0.99));
}
BENCHMARK(BM_Loadgen)
    ->ArgName("shards")
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  if (!acceptance_drill()) return 1;
  return medsec::bench::run_benchmarks_with_json(argc, argv,
                                                 "BENCH_loadgen.json");
}
