// gateway.h — the resilient serving layer: protocol sessions over a lossy
// channel, with graceful degradation and mid-protocol failover.
//
// Composition of the three layers below it:
//
//   protocol machines      what to say        (session.h)
//   delivery.h             say it until heard (ARQ windows, backoff)
//   transport.h            framing + faults   (CRC, LossyLink)
//
// A GatewayServer owns the server half of many sessions inside ONE shard's
// virtual world (one EventQueue, single-threaded). Its resilience policies:
//
//   * admission control — at max_live_sessions, new sessions are REFUSED
//     with an explicit kReject verdict (shed-new before degrade-existing);
//   * per-session deadlines and idle eviction on the virtual clock;
//   * poison-session quarantine — a machine that throws out of on_message
//     is isolated (session rejected, machine never stepped again) instead
//     of taking the process down;
//   * snapshot/restore — any session can be serialized mid-protocol and
//     resumed on a fresh GatewayServer, surviving node death with nothing
//     but a retransmit visible to the device.
//
// A session's verdict lives here: an inline judge decides it when the
// machine finishes, a deferred one (batched Schnorr) lands it later via
// land_verdict() — possibly from inside the judge, when its transcript
// fills a batch. accepted(), stats() and snapshots report both alike.
//
// shard.h runs one GatewayServer per shard loop, and its
// run_sharded_campaign() is the proof harness for these policies.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/counters.h"
#include "core/event_queue.h"
#include "engine/delivery.h"
#include "engine/transport.h"
#include "protocol/session.h"
#include "rng/xoshiro.h"

namespace medsec::engine {

struct GatewayConfig {
  DeliveryConfig delivery;
  /// 0 = unlimited; otherwise open_session() refuses new sessions while
  /// this many are live (load shedding, the reject-new policy).
  std::size_t max_live_sessions = 0;
  /// 0 = none; a session still live this many cycles after opening is
  /// evicted as failed.
  core::Cycle session_deadline = 0;
  /// 0 = none; a session with no uplink activity for this many cycles is
  /// evicted as failed.
  core::Cycle idle_timeout = 0;
};

enum class GatewaySessionStatus : std::uint8_t {
  kActive = 0,
  kCompleted = 1,       ///< machine reached kDone; `accepted` holds verdict
  kFailed = 2,          ///< machine reached kFailed, or delivery gave up
  kQuarantined = 3,     ///< machine threw; isolated, never stepped again
  kDeadlineEvicted = 4,
  kIdleEvicted = 5,
};

struct GatewayStats {
  std::uint64_t opened = 0;
  std::uint64_t shed = 0;  ///< refused at admission
  std::uint64_t completed = 0;
  std::uint64_t accepted = 0;
  std::uint64_t failed = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t deadline_evicted = 0;
  std::uint64_t idle_evicted = 0;
  std::uint64_t restored = 0;  ///< sessions resumed from a snapshot
};
inline GatewayStats& operator+=(GatewayStats& a, const GatewayStats& b) {
  return core::add_counters(a, b);
}

class GatewayServer {
 public:
  /// Extracts the verdict from a finished machine; empty = kDone is
  /// accepted. A deferred judge returns false and lands the real verdict
  /// later through land_verdict().
  using Judge = std::function<bool(const protocol::SessionMachine&)>;
  /// Raw encoded frames headed for this session's device.
  using Downlink = std::function<void(std::vector<std::uint8_t>)>;

  GatewayServer(core::EventQueue& queue, std::uint64_t seed,
                const GatewayConfig& config = {});
  ~GatewayServer();

  GatewayServer(const GatewayServer&) = delete;
  GatewayServer& operator=(const GatewayServer&) = delete;

  /// Admit one session (server-side responder machine). Returns false —
  /// and emits one kReject frame on `downlink` — when admission control
  /// refuses it. `rng` (optional) is the machine's private randomness,
  /// kept alive and included in snapshots.
  bool open_session(std::uint64_t id,
                    std::unique_ptr<protocol::SessionMachine> machine,
                    Downlink downlink, Judge judge = {},
                    std::unique_ptr<rng::Xoshiro256> rng = nullptr);

  /// Feed raw bytes that arrived from a device. Unknown ids are dropped.
  void on_uplink(std::uint64_t id, std::vector<std::uint8_t> raw);

  bool has_session(std::uint64_t id) const {
    return sessions_.count(id) != 0;
  }
  GatewaySessionStatus status(std::uint64_t id) const;
  bool accepted(std::uint64_t id) const;
  /// Virtual cycle at which the session left kActive (0 if still active).
  core::Cycle settled_at(std::uint64_t id) const;
  /// Sessions still kActive — a running count, O(1) for admission control.
  std::size_t live_sessions() const { return live_; }
  const DeliveryStats* delivery_stats(std::uint64_t id) const;

  /// A verdict arrives: an accept marks the kCompleted session accepted
  /// and counts it; anything else changes nothing.
  void land_verdict(std::uint64_t id, bool accepted);
  const GatewayStats& stats() const { return stats_; }
  std::vector<std::uint64_t> session_ids() const;

  /// Serialize one session — status, verdict, machine state, delivery
  /// state, rng state — for failover. Works on settled sessions too (their
  /// delivery layer may still owe the device retransmits).
  std::vector<std::uint8_t> snapshot_session(std::uint64_t id) const;

  /// Resurrect a snapshot onto this server. `machine` must be freshly
  /// constructed with the same constructor arguments as the original;
  /// `rng` likewise (its state is overwritten from the snapshot). Throws
  /// protocol::SnapshotError on malformed input.
  void restore_session(std::uint64_t id,
                       std::unique_ptr<protocol::SessionMachine> machine,
                       Downlink downlink, std::span<const std::uint8_t> snap,
                       Judge judge = {},
                       std::unique_ptr<rng::Xoshiro256> rng = nullptr);

 private:
  struct Sess {
    std::unique_ptr<protocol::SessionMachine> machine;
    std::unique_ptr<ReliableEndpoint> endpoint;
    std::unique_ptr<rng::Xoshiro256> rng;
    Judge judge;
    GatewaySessionStatus status = GatewaySessionStatus::kActive;
    bool accepted = false;
    core::Cycle settled_at = 0;
    core::Cycle last_activity = 0;
    core::EventId deadline_timer = core::kInvalidEvent;
    core::EventId idle_timer = core::kInvalidEvent;
  };

  void wire_endpoint(std::uint64_t id, Sess& s, Downlink downlink);
  void on_delivered(std::uint64_t id, const Frame& f);
  void settle(Sess& s, GatewaySessionStatus status);
  void arm_policy_timers(std::uint64_t id, Sess& s);
  void idle_check(std::uint64_t id);

  core::EventQueue* queue_;
  std::uint64_t seed_;
  GatewayConfig config_;
  /// std::map: session sweeps (failover, stats) iterate in id order —
  /// part of the determinism contract.
  std::map<std::uint64_t, Sess> sessions_;
  std::size_t live_ = 0;
  GatewayStats stats_;
};

/// Device half of one gateway session: the initiator machine plus its
/// reliable endpoint. The campaign owns the machine; the endpoint routes
/// its messages through the link.
class DeviceEndpoint {
 public:
  DeviceEndpoint(core::EventQueue& queue, std::uint64_t id,
                 std::uint64_t seed, protocol::SessionMachine& machine,
                 const DeliveryConfig& config = {});

  void set_uplink(ReliableEndpoint::FrameSink sink) {
    endpoint_.set_frame_sink(std::move(sink));
  }

  /// Pump the machine's opening move(s) into the channel.
  void start();
  void on_downlink(std::vector<std::uint8_t> raw);

  bool done() const {
    return machine_->state() == protocol::SessionState::kDone;
  }
  bool failed() const {
    return failed_ ||
           machine_->state() == protocol::SessionState::kFailed;
  }
  /// Virtual cycle the machine reached kDone (0 until then).
  core::Cycle done_at() const { return done_at_; }
  const DeliveryStats& stats() const { return endpoint_.stats(); }
  ReliableEndpoint& endpoint() { return endpoint_; }

 private:
  void on_delivered(const Frame& f);
  void pump(protocol::StepResult r);

  core::EventQueue* queue_;
  protocol::SessionMachine* machine_;
  ReliableEndpoint endpoint_;
  bool failed_ = false;
  core::Cycle done_at_ = 0;
};

}  // namespace medsec::engine
