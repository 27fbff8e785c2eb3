// udp_workload.cpp — udp_honest and udp_forged: Schnorr sessions over
// loopback UDP into UdpFrontEnd -> ShardFleet, verdicts deferred to the
// per-shard batch verifiers.
//
// Thread plan: the calling thread is the load generator, UdpFrontEnd owns
// one readiness thread, and the fleet runs nproc - 2 shard threads, so the
// process never asks for more threads than the host has.
//
// A run first serves a time-bounded closed loop on a throwaway stack (the
// host warm-up, discarded). A pass then runs kRounds rounds, each on a
// freshly built stack (the gateway never forgets a session, so fresh
// stacks keep memory bounded):
//   1. fill      closed loop, discarded;
//   2. saturate  closed loop holding kWindow sessions without a verdict
//                (the window closes on the shards' verdict counter, not
//                on the client's acks) -> sessions_per_s as the median
//                verdict rate over kRateWindowNs windows, each scaled by
//                the host's steal in it (steal_adjusted), cpu per session
//                (both, and setup_s, at the reference host speed: HostSpeed,
//                probed at the end of each round once the stack stopped);
//   3. open      sessions due on a fixed schedule at kOpenRate, each timed
//                from when it was due to its verdict -> verdict p50 and
//                p99, as medians over windows of kLatencyWindowsPerRound
//                consecutive slices per round. Reported by the traced run
//                only: on a VM the host steals from, wake-up delays of
//                sleeping threads move them by multiples between runs.
// A verdict's time is the owning shard's settle stamp (ShardEngine::
// records(), read after the shards stop). The stamp counts virtual cycles
// (1 per microsecond) from the shard thread's start, which is aligned to
// the generator's clock as the later of (a) the moment ShardFleet::start
// was called and (b) the 99th percentile over open-loop sessions of the
// response send time minus the stamp; both bound the true start from
// below, so latencies read low by at most the fastest response pickup.
//
// The untraced run (--trace 0) makes one pass with ShardFleet::start. The
// traced run (--trace 1) makes one such pass for the counters and a second
// pass in which the benchmark drives each shard loop itself through
// ShardEngine::drain_mailbox / advance_to / flush_verifier, recording a
// span around each call and around the downlink sendto and session open.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>

#include "common.h"
#include "ecc/fixed_base.h"
#include "engine/campaign_fixtures.h"
#include "engine/delivery.h"
#include "engine/net.h"
#include "engine/shard.h"
#include "layers.h"
#include "protocol/schnorr.h"
#include "protocol/wire.h"
#include "rng/xoshiro.h"

namespace perfbench {

namespace {

namespace ecc = medsec::ecc;
namespace engine = medsec::engine;
namespace protocol = medsec::protocol;
namespace rng = medsec::rng;
using engine::campaign::mix_seed;

constexpr std::size_t kVerifyBatch = 64;
/// Sessions without a verdict the closed loop keeps in flight: deep
/// enough that every shard tick drains a full chunk, so the verifier sees
/// full batches and the shards never wait for the generator.
constexpr std::size_t kWindow = 4096;
/// Saturating-phase sessions per second of --seconds. The phase serves a
/// fixed count (capped at 60% of the run), so memory and per-session
/// figures do not depend on how fast the build under test is.
constexpr double kSatPerRunSecondHonest = 12000;
constexpr double kSatPerRunSecondForged = 6000;
/// Fresh serving stacks the saturating phase is split over.
constexpr std::size_t kRounds = 4;
/// Throughput is the median of the verdict rates over windows this long.
constexpr std::int64_t kRateWindowNs = 100'000'000;
/// Open-loop offered rate, well below saturation on a 2-shard host.
constexpr double kOpenRate = 4000;
/// Each round's open-loop segment is cut into this many consecutive
/// windows; p50 and p99 are medians over all windows' p50s and p99s, so a
/// host stall moves the windows it hits, not the whole figure.
constexpr std::size_t kLatencyWindowsPerRound = 8;
constexpr double kForgedFrac = 0.02;
constexpr double kCorruptFrac = 0.03;
constexpr double kGarbageFrac = 0.01;
/// Commitments the generator cycles through (precomputed, so a session
/// costs the client one scalar multiply-add, not a point multiplication).
constexpr std::size_t kCommitments = 256;
/// Transcripts and frames kept for the per-layer timings.
constexpr std::size_t kKeepTranscripts = 1024;
constexpr std::size_t kKeepFrames = 256;
/// A generator that sends later than this at p99 fell behind: the run's
/// latencies are reported but marked invalid.
constexpr double kMaxLagP99Us = 2000;
/// Shard wall time the traced spans may leave unattributed.
constexpr double kMaxUnattributed = 0.05;
constexpr int kSetups = 25;

/// Bernoulli draw that is a pure function of (seed, session, lane).
bool draw(std::uint64_t seed, std::uint64_t id, std::uint64_t lane,
          double p) {
  const std::uint64_t w = mix_seed(seed ^ (lane * 0x9E37), id);
  return static_cast<double>(w >> 11) * 0x1.0p-53 < p;
}

struct Commitment {
  ecc::Scalar k;
  ecc::Point R;
  std::vector<std::uint8_t> wire;
};

/// Everything the generator draws from --seed.
struct Inputs {
  protocol::SchnorrKeyPair key;
  std::vector<Commitment> pool;
};

Inputs make_inputs(const ecc::Curve& curve, std::uint64_t seed) {
  rng::Xoshiro256 r(mix_seed(seed, 0xC11E7));
  Inputs in;
  in.key = protocol::schnorr_keygen(curve, r);
  const auto& comb = ecc::generator_comb(curve);
  for (std::size_t i = 0; i < kCommitments; ++i) {
    Commitment c;
    c.k = r.uniform_nonzero(curve.order());
    c.R = comb.mult_ct(c.k);
    c.wire = protocol::encode_point(curve, c.R);
    in.pool.push_back(std::move(c));
  }
  return in;
}

/// The serving stack under test: fleet + bound front end. Stops the
/// shard threads before the front end they send through goes away.
struct Stack {
  Stack(const ecc::Curve& curve, const engine::ShardFleetConfig& cfg,
        engine::SessionFactory factory)
      : fleet(curve, cfg, std::move(factory), /*producers=*/1),
        front(fleet, 0) {}
  ~Stack() {
    fleet.stop(/*force=*/true);
    front.stop();
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  engine::ShardFleet fleet;
  engine::UdpFrontEnd front;
};

engine::ShardFleetConfig fleet_config(std::size_t shards,
                                      std::uint64_t seed) {
  engine::ShardFleetConfig cfg;
  cfg.shards = shards;
  cfg.verify_batch = kVerifyBatch;
  cfg.mailbox_capacity = 1 << 14;
  cfg.seed = mix_seed(seed, 0x5EC0);
  cfg.cycles_per_us = 1.0;
  // 1 cycle = 1 µs: a 1 s first retransmit is far above loopback RTT plus
  // queueing at kWindow, so a retransmit here means overload.
  cfg.gateway.delivery.rto_initial = 1'000'000;
  cfg.gateway.delivery.rto_max = 4'000'000;
  return cfg;
}

/// Build the stack `times` times (curve, fresh comb, fleet, bound socket)
/// and keep the last; returns the median build time.
double build_stack(const ecc::Curve& curve, const ecc::Point& X,
                   std::size_t shards, std::uint64_t seed, int times,
                   std::unique_ptr<Stack>& out) {
  std::vector<double> secs;
  for (int i = 0; i < times; ++i) {
    out.reset();
    const std::int64_t t0 = now_ns();
    const ecc::Curve& c = ecc::Curve::k163();
    const ecc::FixedBaseComb comb(c, c.base_point());
    const std::uint64_t fseed = mix_seed(seed, 0xFAC7);
    engine::SessionFactory factory = [&curve, X, fseed](std::uint64_t id) {
      Span span(SpanKind::kSessionOpen, id);
      engine::SessionSetup s;
      auto r = std::make_unique<rng::Xoshiro256>(mix_seed(fseed, id));
      s.machine = std::make_unique<protocol::SchnorrVerifier>(
          curve, X, *r, protocol::SchnorrVerifier::Mode::kDeferred);
      s.deferred_schnorr = true;
      s.rng = std::move(r);
      return s;
    };
    out = std::make_unique<Stack>(c, fleet_config(shards, seed),
                                  std::move(factory));
    secs.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return median(secs);
}

/// Downlink wrapper for the traced pass: a span around each sendto.
class TracedTransport final : public engine::Transport {
 public:
  explicit TracedTransport(engine::UdpFrontEnd& inner) : inner_(&inner) {}
  void send_downlink(std::uint64_t session, const engine::Peer& peer,
                     std::vector<std::uint8_t> bytes) override {
    Span span(SpanKind::kSendto, session);
    inner_->send_downlink(session, peer, std::move(bytes));
  }

 private:
  engine::UdpFrontEnd* inner_;
};

/// What one benchmark-driven shard loop measured.
struct LoopStats {
  std::int64_t wall_ns = 0;
  std::uint64_t ticks = 0;
  std::size_t live_max = 0;
  std::uint64_t verified_in_drain = 0;
  std::uint64_t verified_in_flush = 0;
};

std::uint64_t verified(engine::ShardEngine& eng) {
  const engine::BatchVerifierStats s = eng.verifier().stats();
  return s.accepted + s.rejected;
}

/// The traced shard loop: ShardFleet's tick, spelled out with spans.
void traced_loop(engine::ShardEngine& eng, SpanLog& log,
                 const std::atomic<bool>& stop, std::int64_t t0,
                 std::size_t drain_chunk, LoopStats& out) {
  const SpanScope scope(&log);
  const std::int64_t start = now_ns();
  std::int64_t next_sample = start;
  for (;;) {
    const std::int64_t t = now_ns();
    const auto vnow = static_cast<medsec::core::Cycle>((t - t0) / 1000);
    std::size_t drained = 0;
    {
      Span span(SpanKind::kShardDrain);
      const std::uint64_t v0 = verified(eng);
      drained = eng.drain_mailbox(drain_chunk);
      out.verified_in_drain += verified(eng) - v0;
    }
    {
      Span span(SpanKind::kShardTimers);
      eng.advance_to(std::max(vnow, eng.queue().now()));
    }
    {
      Span span(SpanKind::kShardFlush);
      const std::uint64_t v0 = verified(eng);
      eng.flush_verifier();
      out.verified_in_flush += verified(eng) - v0;
    }
    ++out.ticks;
    if (t >= next_sample) {
      Span span(SpanKind::kLiveSample);
      out.live_max = std::max(out.live_max, eng.gateway().live_sessions());
      next_sample = t + 20'000'000;
    }
    if (stop.load(std::memory_order_acquire)) break;
    if (drained == 0) {
      Span span(SpanKind::kShardIdle);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  out.wall_ns = now_ns() - start;
}

/// Figures one closed-loop saturating phase produced.
struct SatPhase {
  double seconds = 0;
  std::uint64_t verdicts = 0;
  /// Steal-adjusted verdicts/s over kRateWindowNs windows.
  std::vector<double> rates;
  std::int64_t process_cpu_ns = 0;
  std::int64_t client_cpu_ns = 0;
  std::int64_t frontend_cpu_ns = 0;
  std::uint64_t ctx_switches = 0;

  SatPhase& operator+=(const SatPhase& o) {
    seconds += o.seconds;
    verdicts += o.verdicts;
    rates.insert(rates.end(), o.rates.begin(), o.rates.end());
    process_cpu_ns += o.process_cpu_ns;
    client_cpu_ns += o.client_cpu_ns;
    frontend_cpu_ns += o.frontend_cpu_ns;
    ctx_switches += o.ctx_switches;
    return *this;
  }
  /// Median window rate: steadier than the mean when the host stalls the
  /// VM.
  double rate() const {
    return rates.empty() ? ratio(static_cast<double>(verdicts), seconds)
                         : median(rates);
  }
};

/// The load generator: one UDP socket, one virtual-clock world, one
/// ReliableEndpoint per session in flight.
class LoadGen {
 public:
  LoadGen(const ecc::Curve& curve, const Inputs& in, std::uint16_t port,
          std::uint64_t seed, bool adversarial)
      : curve_(curve),
        in_(in),
        seed_(seed),
        adversarial_(adversarial),
        t0_(now_ns()) {
    server_ = engine::Peer{0x7F000001, port};
    // Patience: 2 s first retransmit, far above any loopback RTT.
    delivery_.rto_initial = 2'000'000;
    delivery_.rto_max = 8'000'000;
  }

  struct Sess {
    std::unique_ptr<engine::ReliableEndpoint> ep;
    std::int64_t due_ns = 0;
    std::int64_t resp_ns = 0;
    ecc::Scalar challenge;
    std::uint32_t commit = 0;
    bool forged = false;
    bool corrupt = false;
    bool open_loop = false;
    bool have_challenge = false;
    bool responded = false;
    bool failed = false;
  };

  std::vector<Sess>& sessions() { return sessions_; }
  void reserve(std::size_t n) { sessions_.reserve(n); }

  /// Closed loop until `count` more sessions are opened or `cap_s` passes.
  /// The window counts sessions opened minus verdicts the fleet landed.
  SatPhase closed_loop(engine::ShardFleet& fleet, std::size_t count,
                       double cap_s, int frontend_tid) {
    const std::int64_t start = now_ns();
    const std::int64_t cap = start + static_cast<std::int64_t>(cap_s * 1e9);
    const std::uint64_t v0 = fleet.totals().completed;
    const std::int64_t pcpu0 = process_cpu_ns();
    const std::int64_t ccpu0 = thread_cpu_ns();
    const std::int64_t fcpu0 = task_cpu_ns(frontend_tid);
    const std::uint64_t cs0 = context_switches();
    std::size_t opened = 0;
    std::int64_t t = start;
    std::int64_t window_t = start;
    std::uint64_t window_v = v0;
    CpuTicks window_ticks = read_cpu_ticks();
    SatPhase p;
    while (opened < count && t < cap) {
      const std::uint64_t verdicts = fleet.totals().completed;
      const std::uint64_t done = verdicts + failed_;
      while (opened < count && sessions_.size() < done + kWindow) {
        open(now_ns(), /*open_loop=*/false);
        ++opened;
      }
      if (pump() == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      t = now_ns();
      if (t - window_t >= kRateWindowNs) {
        const CpuTicks ticks = read_cpu_ticks();
        p.rates.push_back(steal_adjusted(
            static_cast<double>(verdicts - window_v) * 1e9 /
                static_cast<double>(t - window_t),
            steal_share(window_ticks, ticks)));
        window_t = t;
        window_v = verdicts;
        window_ticks = ticks;
      }
    }
    p.seconds = static_cast<double>(t - start) * 1e-9;
    p.verdicts = fleet.totals().completed - v0;
    p.process_cpu_ns = process_cpu_ns() - pcpu0;
    p.client_cpu_ns = thread_cpu_ns() - ccpu0;
    p.frontend_cpu_ns = task_cpu_ns(frontend_tid) - fcpu0;
    p.ctx_switches = context_switches() - cs0;
    return p;
  }

  /// Open loop: session k is due at start + k / rate. Appends the send
  /// lag of every session (µs after it was due) to `lag_us`.
  void open_loop(double rate, double seconds, std::vector<double>& lag_us) {
    const auto n = static_cast<std::size_t>(rate * seconds);
    const double interval_ns = 1e9 / rate;
    const std::int64_t start = now_ns() + 1'000'000;
    std::size_t k = 0;
    while (k < n) {
      const std::int64_t due =
          start + static_cast<std::int64_t>(static_cast<double>(k) *
                                            interval_ns);
      const std::int64_t t = now_ns();
      if (t >= due) {
        open(due, /*open_loop=*/true);
        lag_us.push_back(static_cast<double>(t - due) * 1e-3);
        ++k;
        continue;
      }
      // Poll the socket while waiting; nap only when the next send is far.
      if (pump() == 0 && due - now_ns() > 200'000)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  /// Keep serving the socket until every session has a verdict or has
  /// failed, or `timeout_s` passes.
  bool settle(engine::ShardFleet& fleet, double timeout_s) {
    const std::int64_t end = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
    while (now_ns() < end) {
      if (fleet.totals().completed + failed_ >= sessions_.size() &&
          unacked_.empty())
        return true;
      if (pump() == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return false;
  }

  std::uint64_t garbage_sent() const { return garbage_; }
  std::uint64_t corrupt_sent() const { return corrupt_; }
  const engine::DeliveryStats& client_delivery() const { return delivery_sum_; }
  LayerOperands& operands() { return ops_; }

 private:
  void open(std::int64_t due, bool open_loop) {
    const std::size_t idx = sessions_.size();
    const std::uint64_t id = idx + 1;
    sessions_.emplace_back();
    Sess& s = sessions_.back();
    s.due_ns = due;
    s.open_loop = open_loop;
    s.commit = static_cast<std::uint32_t>(mix_seed(seed_, id) % kCommitments);
    s.forged = adversarial_ && draw(seed_, id, 1, kForgedFrac);
    s.corrupt = adversarial_ && draw(seed_, id, 2, kCorruptFrac);
    const bool garbage = adversarial_ && draw(seed_, id, 3, kGarbageFrac);
    s.ep = std::make_unique<engine::ReliableEndpoint>(
        q_, id, mix_seed(seed_, id ^ 0xC11E7), delivery_);
    s.ep->set_frame_sink([this, idx](std::vector<std::uint8_t> bytes) {
      sock_.send_to(server_, bytes);
      if (ops_.frames.size() < kKeepFrames) ops_.frames.push_back(bytes);
      Sess& me = sessions_[idx];
      if (me.corrupt) {
        // A CRC-corrupted copy of the session's first frame: the shard
        // must count a decode failure and never step the machine on it.
        me.corrupt = false;
        ++corrupt_;
        bytes[bytes.size() - 6] ^= 0x5A;
        sock_.send_to(server_, bytes);
      }
      engine::FramePool::release(std::move(bytes));
    });
    s.ep->set_message_sink([this, idx](const engine::Frame& f) {
      Sess& me = sessions_[idx];
      if (std::strcmp(f.label, "challenge e") != 0 || me.have_challenge)
        return;
      me.challenge = protocol::decode_scalar(f.payload);
      me.have_challenge = true;
      respond(idx);
    });
    s.ep->set_failure_sink([this, idx] {
      Sess& me = sessions_[idx];
      if (!me.failed) {
        me.failed = true;
        ++failed_;
      }
    });
    s.ep->send_message("commitment R", in_.pool[s.commit].wire);
    if (garbage) {
      // Not a frame: 4..11 seeded bytes that fail the header peek.
      std::vector<std::uint8_t> junk(4 + mix_seed(seed_, id ^ 0x6A4B) % 8);
      rng::Xoshiro256 r(mix_seed(seed_, id ^ 0x9A4B));
      r.fill(junk);
      junk[0] = 0xDE;
      sock_.send_to(server_, junk);
      ++garbage_;
    }
  }

  void respond(std::size_t idx) {
    Sess& s = sessions_[idx];
    const auto& ring = curve_.scalar_ring();
    const Commitment& c = in_.pool[s.commit];
    ecc::Scalar resp = ring.add(c.k, ring.mul(s.challenge, in_.key.x));
    if (s.forged) resp = ring.add(resp, resp);  // wrong, but a valid scalar
    s.ep->send_message("response s", protocol::encode_scalar(resp));
    s.resp_ns = now_ns();
    s.responded = true;
    unacked_.push_back(idx);
    if (ops_.transcripts.size() < kKeepTranscripts) {
      ops_.transcripts.push_back({c.R, s.challenge, resp});
      ops_.keys.push_back(in_.key.X);
    }
  }

  /// Drain the socket into the endpoints, run the client's timers, and
  /// retire sessions whose response was acked. Returns datagrams read.
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
      if (ops_.frames.size() < kKeepFrames) ops_.frames.push_back(bytes);
      const auto sid = engine::peek_frame_session(bytes);
      if (sid && *sid >= 1 && *sid <= sessions_.size() &&
          sessions_[*sid - 1].ep)
        sessions_[*sid - 1].ep->on_bytes(std::move(bytes));
    }
    const std::int64_t t = now_ns();
    const auto vnow = static_cast<medsec::core::Cycle>((t - t0_) / 1000);
    if (vnow > q_.now()) q_.run_until(vnow);
    std::size_t w = 0;
    for (const std::size_t idx : unacked_) {
      Sess& s = sessions_[idx];
      if (s.failed || s.ep->idle()) {
        const engine::DeliveryStats& d = s.ep->stats();
        delivery_sum_.retransmits += d.retransmits;
        delivery_sum_.decode_failures += d.decode_failures;
        s.ep.reset();
      } else {
        unacked_[w++] = idx;
      }
    }
    unacked_.resize(w);
    return received;
  }

  const ecc::Curve& curve_;
  const Inputs& in_;
  std::uint64_t seed_;
  bool adversarial_;
  std::int64_t t0_;
  engine::UdpSocket sock_;
  engine::Peer server_;
  medsec::core::EventQueue q_;
  engine::DeliveryConfig delivery_;
  std::vector<Sess> sessions_;
  std::vector<std::size_t> unacked_;
  std::uint64_t failed_ = 0;
  std::uint64_t garbage_ = 0;
  std::uint64_t corrupt_ = 0;
  engine::DeliveryStats delivery_sum_;
  LayerOperands ops_;
};

/// Phase sizes derived from the run length. The measurement is split over
/// `rounds` fresh stacks, so the sessions a stack never forgets stay few
/// enough to keep memory small, and a host stall hits one round's figures.
struct Plan {
  std::size_t rounds = 1;
  std::size_t fill = 0;       ///< closed-loop sessions before timing
  std::size_t sat_count = 0;  ///< saturating-phase sessions per round
  double sat_cap_s = 0;       ///< per round
  double open_s = 0;          ///< per round
};

Plan make_plan(double seconds, bool adversarial) {
  Plan p;
  p.rounds = kRounds;
  p.fill = 2 * kWindow;
  p.sat_cap_s = 0.6 * seconds / kRounds;
  p.sat_count = static_cast<std::size_t>(
      (adversarial ? kSatPerRunSecondForged : kSatPerRunSecondHonest) *
      seconds / kRounds);
  p.open_s = 0.3 * seconds / kRounds;
  return p;
}

/// Per-window p50 and p99 of one round's open-loop latencies (in due
/// order), appended to `p50s` / `p99s`.
void window_quantiles(const std::vector<double>& latency_us,
                      std::vector<double>& p50s, std::vector<double>& p99s) {
  const std::size_t per = latency_us.size() / kLatencyWindowsPerRound;
  for (std::size_t w = 0; per != 0 && w < kLatencyWindowsPerRound; ++w) {
    const std::vector<double> slice(latency_us.begin() + w * per,
                                    latency_us.begin() + (w + 1) * per);
    p50s.push_back(quantile(slice, 0.50));
    p99s.push_back(quantile(slice, 0.99));
  }
}

/// The program's own counters this benchmark reads, summed over shards.
enum Counter : std::size_t {
  kIngress,       // ShardStats
  kMailboxShed,
  kTicks,
  kDatagramsIn,   // UdpFrontEndStats
  kDatagramsOut,
  kNotAFrame,
  kShed,
  kItems,         // BatchVerifierStats
  kBatches,
  kRlcFailures,
  kFallbacks,
  kCounters
};
using Counters = std::array<std::uint64_t, kCounters>;

Counters read_counters(engine::ShardFleet& fleet,
                       const engine::UdpFrontEnd& front) {
  const engine::ShardStats sh = fleet.totals();
  const engine::UdpFrontEndStats fe = front.stats();
  Counters c = {sh.ingress,         sh.mailbox_shed, sh.ticks,
                fe.datagrams_in,    fe.datagrams_out, fe.not_a_frame,
                fe.shed,            0, 0, 0, 0};
  for (std::size_t i = 0; i < fleet.shards(); ++i) {
    const engine::BatchVerifierStats v = fleet.shard(i).verifier().stats();
    c[kItems] += v.items;
    c[kBatches] += v.batches;
    c[kRlcFailures] += v.rlc_failures;
    c[kFallbacks] += v.single_fallbacks;
  }
  return c;
}

Counters& operator+=(Counters& a, const Counters& d) {
  for (std::size_t i = 0; i < kCounters; ++i) a[i] += d[i];
  return a;
}

/// Counter increments between two readings.
Counters operator-(Counters b, const Counters& a) {
  for (std::size_t i = 0; i < kCounters; ++i) b[i] -= a[i];
  return b;
}

/// Everything one pass (all its rounds) measured.
struct Pass {
  SatPhase sat;
  Counters sat_counters{};  ///< increments during the saturating phase
  Counters total{};         ///< whole pass
  std::vector<double> lag_us;
  std::vector<double> p50s, p99s;  ///< per latency window
  std::size_t timed_sessions = 0;  ///< open-loop sessions with a latency
  double setup_s = 0;
  /// Largest heap held at the end of a round, when the stack holds every
  /// session it served (the gateway never forgets one). Samples taken
  /// while sessions are in flight swing with timing; this one does not.
  double heap_peak_mb = 0;
  HostSpeed host;  ///< probed at the end of each round, stack stopped
  std::uint64_t sessions = 0;
  std::uint64_t failed = 0;       ///< sessions without their correct verdict
  std::uint64_t retransmits = 0;
  std::uint64_t decode_failures = 0;
  // traced pass only: one log and loop record per shard per round
  std::deque<SpanLog> logs;
  std::deque<LoopStats> loops;
  double traced_seconds = 0;
  LayerOperands ops;
};

/// One round: build a stack, serve the closed loop and the open loop,
/// check every verdict, fold the figures into `out`.
void run_round(const ecc::Curve& curve, const Inputs& in,
               const RunOptions& opt, bool adversarial, std::size_t shards,
               const Plan& plan, bool traced, Pass& out, Result& r) {
  std::unique_ptr<Stack> stack;
  const double setup_s = build_stack(curve, in.key.X, shards, opt.seed,
                                     out.setup_s == 0 ? kSetups : 1, stack);
  if (out.setup_s == 0) out.setup_s = setup_s;
  engine::ShardFleet& fleet = stack->fleet;
  engine::UdpFrontEnd& front = stack->front;

  const std::vector<int> tids_before = task_ids();
  front.start();
  int frontend_tid = -1;
  for (const int tid : task_ids())
    if (!std::binary_search(tids_before.begin(), tids_before.end(), tid))
      frontend_tid = tid;

  std::atomic<bool> stop{false};
  std::vector<std::thread> loops;
  TracedTransport traced_transport(front);
  // Joins the benchmark-driven shard loops on every exit path.
  struct Joiner {
    std::atomic<bool>& stop;
    std::vector<std::thread>& threads;
    ~Joiner() {
      stop.store(true, std::memory_order_release);
      for (std::thread& t : threads)
        if (t.joinable()) t.join();
    }
  } joiner{stop, loops};
  const std::int64_t shards_started = now_ns();
  if (traced) {
    for (std::size_t i = 0; i < shards; ++i) {
      SpanLog& log = out.logs.emplace_back();
      LoopStats& stats = out.loops.emplace_back();
      fleet.shard(i).set_transport(&traced_transport);
      loops.emplace_back([&fleet, &stop, &log, &stats, i, shards_started] {
        traced_loop(fleet.shard(i), log, stop, shards_started,
                    engine::ShardFleetConfig{}.drain_chunk, stats);
      });
    }
  } else {
    fleet.start(front);
  }

  LoadGen gen(curve, in, front.local_port(), opt.seed, adversarial);
  gen.reserve(std::min<std::size_t>(
      plan.fill + plan.sat_count +
          static_cast<std::size_t>(kOpenRate * plan.open_s),
      1 << 18));
  gen.closed_loop(fleet, plan.fill, plan.sat_cap_s, frontend_tid);
  const Counters before = read_counters(fleet, front);
  out.sat += gen.closed_loop(fleet, plan.sat_count, plan.sat_cap_s,
                             frontend_tid);
  out.sat_counters += read_counters(fleet, front) - before;
  r.check(gen.settle(fleet, 20), "saturating phase settles");
  gen.open_loop(kOpenRate, plan.open_s, out.lag_us);
  r.check(gen.settle(fleet, 20), "open-loop phase settles");
  out.heap_peak_mb = std::max(out.heap_peak_mb, heap_mb());

  front.stop();
  if (traced) {
    stop.store(true, std::memory_order_release);
    for (std::thread& t : loops) t.join();
    out.traced_seconds +=
        static_cast<double>(now_ns() - shards_started) * 1e-9;
  } else {
    fleet.stop(/*force=*/true);
  }
  out.host.sample();  // every thread of the stack has stopped

  // --- verdict check: every session has exactly its correct verdict.
  auto& sessions = gen.sessions();
  out.sessions += sessions.size();
  std::vector<std::vector<double>> offsets(shards);
  std::uint64_t wrong = 0, lost = 0;
  for (std::size_t idx = 0; idx < sessions.size(); ++idx) {
    const auto& s = sessions[idx];
    const std::uint64_t id = idx + 1;
    const std::size_t sh = fleet.shard_index(id);
    const auto& recs = fleet.shard(sh).records();
    const auto it = recs.find(id);
    if (s.failed || it == recs.end() || !it->second.completed) {
      ++lost;
      continue;
    }
    if (it->second.accepted == s.forged) ++wrong;
    if (s.open_loop && s.responded)
      offsets[sh].push_back(static_cast<double>(
          s.resp_ns - static_cast<std::int64_t>(it->second.settled) * 1000));
  }
  // Shard clock origin: each offset is a lower bound of it (the verdict
  // cannot be stamped before the response was sent) except when the shard
  // thread was preempted between reading the clock and draining; the 99th
  // percentile drops those. The traced loops' origin is known exactly.
  std::vector<std::int64_t> t0(shards, shards_started);
  for (std::size_t i = 0; i < shards && !traced; ++i)
    t0[i] = std::max(t0[i], static_cast<std::int64_t>(
                                quantile(offsets[i], 0.99)));
  std::size_t records = 0;
  for (std::size_t i = 0; i < shards; ++i)
    records += fleet.shard(i).records().size();
  out.failed += lost + wrong;
  r.check(wrong == 0, std::to_string(wrong) +
                          " sessions got the wrong verdict (honest "
                          "rejected or forged accepted)");
  r.check(lost == 0, std::to_string(lost) + " sessions lost or failed");
  r.check(records == sessions.size() - lost,
          "verdicts only for sessions the generator opened");

  std::vector<double> latency_us;
  for (std::size_t idx = 0; idx < sessions.size(); ++idx) {
    const auto& s = sessions[idx];
    if (!s.open_loop || s.failed) continue;
    const std::uint64_t id = idx + 1;
    const std::size_t sh = fleet.shard_index(id);
    const auto it = fleet.shard(sh).records().find(id);
    if (it == fleet.shard(sh).records().end()) continue;
    const std::int64_t verdict =
        t0[sh] + static_cast<std::int64_t>(it->second.settled) * 1000;
    latency_us.push_back(static_cast<double>(verdict - s.due_ns) * 1e-3);
  }
  out.timed_sessions += latency_us.size();
  window_quantiles(latency_us, out.p50s, out.p99s);

  // --- counters
  const Counters total = read_counters(fleet, front);
  out.total += total;
  std::uint64_t decode_failures = 0;
  for (std::size_t i = 0; i < shards; ++i) {
    engine::GatewayServer& gw = fleet.shard(i).gateway();
    for (const std::uint64_t id : gw.session_ids())
      if (const engine::DeliveryStats* d = gw.delivery_stats(id)) {
        out.retransmits += d->retransmits;
        decode_failures += d->decode_failures;
      }
  }
  out.decode_failures += decode_failures;
  out.retransmits += gen.client_delivery().retransmits;
  r.check(total[kNotAFrame] == gen.garbage_sent(),
          "every injected non-frame dropped by the front end (" +
              std::to_string(total[kNotAFrame]) + " of " +
              std::to_string(gen.garbage_sent()) + ")");
  r.check(decode_failures == gen.corrupt_sent(),
          "every injected corrupted frame rejected by the CRC (" +
              std::to_string(decode_failures) + " of " +
              std::to_string(gen.corrupt_sent()) + ")");
  if (out.ops.transcripts.empty()) {
    out.ops = std::move(gen.operands());
    for (const Commitment& c : in.pool) {
      out.ops.points.push_back(c.R);
      out.ops.point_wires.push_back(c.wire);
      out.ops.scalars.push_back(c.k);
    }
    out.ops.points.push_back(in.key.X);
  }
}

void run_pass(const ecc::Curve& curve, const Inputs& in,
              const RunOptions& opt, bool adversarial, std::size_t shards,
              const Plan& plan, bool traced, Pass& out, Result& r) {
  for (std::size_t k = 0; k < plan.rounds; ++k) {
    run_round(curve, in, opt, adversarial, shards, plan, traced, out, r);
    release_free_memory();
  }
}

}  // namespace

Result run_udp(const RunOptions& opt, bool adversarial) {
  Result r;
  const std::size_t nproc = hardware_threads();
  const std::size_t shards = nproc > 2 ? nproc - 2 : 1;
  std::printf("host: %s\n",
              host_record("client 1 + frontend 1 + shards " +
                          std::to_string(shards))
                  .c_str());
  const ecc::Curve& curve = ecc::Curve::k163();
  const Inputs in = make_inputs(curve, opt.seed);

  // Host warm-up: a throwaway stack serves a time-bounded closed loop.
  {
    Plan warm;
    warm.sat_count = SIZE_MAX;  // time-bounded only
    warm.sat_cap_s = kHostWarmupS;
    Pass discard;
    run_pass(curve, in, opt, adversarial, shards, warm, /*traced=*/false,
             discard, r);
    r.attempted += discard.sessions;
    r.failed += discard.failed;
  }
  release_free_memory();

  const double pass_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const Plan plan = make_plan(pass_s, adversarial);
  Pass base;
  run_pass(curve, in, opt, adversarial, shards, plan, /*traced=*/false, base,
           r);
  r.attempted += base.sessions;
  r.failed += base.failed;

  const double sps = base.sat.rate();
  const double lag_p99 = quantile(base.lag_us, 0.99);
  std::printf("udp: sessions %llu, saturating %.0f sessions/s over %.2f s, "
              "open loop %zu sessions at %.0f/s, lag p99 %.1f us, "
              "failed_frac %.6f\n",
              static_cast<unsigned long long>(base.sessions), sps,
              base.sat.seconds, base.timed_sessions, kOpenRate, lag_p99,
              ratio(static_cast<double>(base.failed),
                    static_cast<double>(base.sessions)));
  std::printf("host: speed probe %.4f ns (reference %.2f ns): timings scaled "
              "by %.4f\n",
              base.host.probe_ns(), kReferenceProbeNs, base.host.speed());
  if (lag_p99 > kMaxLagP99Us)
    std::printf("udp: run INVALID for latency: the open-loop generator fell "
                "behind its schedule (lag p99 %.1f us > %.0f us)\n",
                lag_p99, kMaxLagP99Us);

  if (!opt.trace) {
    const double speed = base.host.speed();
    r.add("sessions_per_s", sps / speed, "1/s");
    r.add("cpu_us_per_session",
          ratio(static_cast<double>(base.sat.process_cpu_ns) * 1e-3,
                static_cast<double>(base.sat.verdicts)) *
              speed,
          "us");
    r.add("setup_s", base.setup_s * speed, "s");
    r.add("peak_mem_mb", base.heap_peak_mb, "MB");
    return r;
  }

  Pass tr;
  run_pass(curve, in, opt, adversarial, shards, plan, /*traced=*/true, tr, r);
  r.attempted += tr.sessions;
  r.failed += tr.failed;
  const double traced_sps = tr.sat.rate();

  // Counts come from the untraced pass (its saturating phase where the
  // figure is per session or per tick), spans from the traced pass.
  const Counters& sat = base.sat_counters;
  const auto sat_n = static_cast<double>(base.sat.verdicts);
  const auto n = static_cast<double>(base.sessions);
  const auto tn = static_cast<double>(tr.sessions);
  std::vector<const SpanLog*> logs;
  for (const SpanLog& l : tr.logs) logs.push_back(&l);
  const auto spans = span_totals(logs);
  double wall_ns = 0;
  std::uint64_t ticks = 0, in_drain = 0, in_flush = 0;
  std::size_t live_max = 0;
  for (const LoopStats& l : tr.loops) {
    wall_ns += static_cast<double>(l.wall_ns);
    ticks += l.ticks;
    in_drain += l.verified_in_drain;
    in_flush += l.verified_in_flush;
    live_max = std::max(live_max, l.live_max);
  }
  double top_ns = 0;
  for (const SpanKind k : {SpanKind::kShardDrain, SpanKind::kShardTimers,
                           SpanKind::kShardFlush, SpanKind::kShardIdle,
                           SpanKind::kLiveSample})
    top_ns += at(spans, k).total_ns;
  const double unattributed = 1.0 - ratio(top_ns, wall_ns);
  r.check(unattributed <= kMaxUnattributed,
          "shard spans cover the shard threads' wall time (unattributed " +
              std::to_string(unattributed) + ")");
  std::printf("trace: %llu spans over %zu shard loops, %llu ticks, "
              "%.3f s traced, unattributed %.4f\n",
              static_cast<unsigned long long>([&] {
                std::uint64_t c = 0;
                for (const SpanTotals& t : spans) c += t.count;
                return c;
              }()),
              tr.loops.size(), static_cast<unsigned long long>(ticks),
              tr.traced_seconds, unattributed);
  print_spans(spans);

  const double us = 1e-3;
  r.add("verdict_p50_us", median(base.p50s), "us");
  r.add("verdict_p99_us", median(base.p99s), "us");
  r.add("net.datagrams_in_per_session",
        ratio(static_cast<double>(sat[kDatagramsIn]), sat_n), "count");
  r.add("net.datagrams_out_per_session",
        ratio(static_cast<double>(sat[kDatagramsOut]), sat_n), "count");
  r.add("net.sendto_us",
        ratio(at(spans, SpanKind::kSendto).total_ns * us,
              static_cast<double>(at(spans, SpanKind::kSendto).count)),
        "us");
  r.add("net.frontend_busy_frac",
        ratio(static_cast<double>(base.sat.frontend_cpu_ns),
              base.sat.seconds * 1e9),
        "ratio");
  r.add("net.not_a_frame", static_cast<double>(base.total[kNotAFrame]),
        "count");
  r.add("net.shed", static_cast<double>(base.total[kShed]), "count");

  r.add("shard.drain_us_per_session",
        at(spans, SpanKind::kShardDrain).self_ns * us / tn, "us");
  r.add("shard.timers_us_per_session",
        at(spans, SpanKind::kShardTimers).self_ns * us / tn, "us");
  r.add("shard.flush_us_per_session",
        at(spans, SpanKind::kShardFlush).self_ns * us / tn, "us");
  r.add("shard.idle_frac",
        ratio(at(spans, SpanKind::kShardIdle).total_ns, wall_ns), "ratio");
  r.add("shard.unattributed_frac", unattributed, "ratio");
  r.add("shard.items_per_tick",
        ratio(static_cast<double>(sat[kIngress]),
              static_cast<double>(sat[kTicks])),
        "count");
  r.add("shard.mailbox_shed", static_cast<double>(base.total[kMailboxShed]),
        "count");

  r.add("verifier.batch_size_mean",
        ratio(static_cast<double>(sat[kItems]),
              static_cast<double>(sat[kBatches])),
        "count");
  r.add("verifier.rlc_fail_frac",
        ratio(static_cast<double>(sat[kRlcFailures]),
              static_cast<double>(sat[kBatches])),
        "ratio");
  r.add("verifier.fallbacks_per_session",
        ratio(static_cast<double>(sat[kFallbacks]), sat_n),
        "count");
  r.add("verifier.flush_us_per_item",
        ratio(at(spans, SpanKind::kShardFlush).total_ns * us,
              static_cast<double>(in_flush)),
        "us");
  r.add("verifier.inline_flush_frac",
        ratio(static_cast<double>(in_drain),
              static_cast<double>(in_drain + in_flush)),
        "ratio");

  r.add("gateway.open_us",
        ratio(at(spans, SpanKind::kSessionOpen).total_ns * us,
              static_cast<double>(at(spans, SpanKind::kSessionOpen).count)),
        "us");
  r.add("gateway.live_max", static_cast<double>(live_max), "count");
  r.add("delivery.retransmits_per_session",
        ratio(static_cast<double>(base.retransmits), n), "count");
  r.add("delivery.decode_failures_per_session",
        ratio(static_cast<double>(base.decode_failures), n), "count");
  add_layer_metrics(curve, base.ops, opt.seed, r);

  r.add("loadgen.lag_p99_us", lag_p99, "us");
  r.add("loadgen.client_busy_frac",
        ratio(static_cast<double>(base.sat.client_cpu_ns),
              base.sat.seconds * 1e9),
        "ratio");
  r.add("proc.ctx_switches_per_session",
        ratio(static_cast<double>(base.sat.ctx_switches),
              static_cast<double>(base.sat.verdicts)),
        "count");
  r.add("trace.overhead_frac", 1.0 - ratio(traced_sps, sps), "ratio");
  return r;
}

}  // namespace perfbench
