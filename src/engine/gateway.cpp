#include "engine/gateway.h"

#include <stdexcept>
#include <utility>

#include "engine/campaign_fixtures.h"
#include "protocol/snapshot.h"

namespace medsec::engine {

namespace {

using protocol::Message;
using protocol::SessionState;
using protocol::SnapshotError;
using protocol::SnapshotReader;
using protocol::SnapshotWriter;
using protocol::StepResult;

constexpr std::uint32_t kSessionSnapshotMagic = 0x47534E32;  // "GSN2"

using campaign::mix_seed;

}  // namespace

// --- GatewayServer -----------------------------------------------------------

GatewayServer::GatewayServer(core::EventQueue& queue, std::uint64_t seed,
                             const GatewayConfig& config)
    : queue_(&queue), seed_(seed), config_(config) {}

GatewayServer::~GatewayServer() {
  // Endpoint destructors cancel their own retransmit timers; the policy
  // timers capture `this` and must die with it.
  for (auto& [id, s] : sessions_) {
    queue_->cancel(s.deadline_timer);
    queue_->cancel(s.idle_timer);
  }
}

bool GatewayServer::open_session(
    std::uint64_t id, std::unique_ptr<protocol::SessionMachine> machine,
    Downlink downlink, Judge judge, std::unique_ptr<rng::Xoshiro256> rng) {
  if (sessions_.count(id))
    throw std::invalid_argument("GatewayServer: duplicate session id");
  if (config_.max_live_sessions != 0 && live_ >= config_.max_live_sessions) {
    // Shed-new before degrade-existing: the refusal is an explicit
    // verdict frame, not silence — the device fails fast instead of
    // retransmitting into a black hole.
    ++stats_.shed;
    if (downlink) downlink(encode_reject(id));
    return false;
  }
  Sess s;
  s.machine = std::move(machine);
  s.rng = std::move(rng);
  s.judge = std::move(judge);
  s.last_activity = queue_->now();
  wire_endpoint(id, s, std::move(downlink));
  auto [it, ok] = sessions_.emplace(id, std::move(s));
  arm_policy_timers(id, it->second);
  ++live_;
  ++stats_.opened;
  return true;
}

void GatewayServer::wire_endpoint(std::uint64_t id, Sess& s,
                                  Downlink downlink) {
  s.endpoint = std::make_unique<ReliableEndpoint>(
      *queue_, id, mix_seed(seed_, id), config_.delivery);
  s.endpoint->set_frame_sink(std::move(downlink));
  s.endpoint->set_message_sink(
      [this, id](const Frame& f) { on_delivered(id, f); });
  s.endpoint->set_failure_sink([this, id] {
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    if (it->second.status == GatewaySessionStatus::kActive)
      settle(it->second, GatewaySessionStatus::kFailed);
  });
}

void GatewayServer::arm_policy_timers(std::uint64_t id, Sess& s) {
  if (config_.session_deadline != 0) {
    s.deadline_timer =
        queue_->schedule(config_.session_deadline, [this, id] {
          const auto it = sessions_.find(id);
          if (it == sessions_.end()) return;
          Sess& sess = it->second;
          sess.deadline_timer = core::kInvalidEvent;
          if (sess.status != GatewaySessionStatus::kActive) return;
          settle(sess, GatewaySessionStatus::kDeadlineEvicted);
          sess.endpoint->send_reject();
        });
  }
  if (config_.idle_timeout != 0) {
    s.idle_timer = queue_->schedule(config_.idle_timeout,
                                    [this, id] { idle_check(id); });
  }
}

void GatewayServer::idle_check(std::uint64_t id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  Sess& s = it->second;
  s.idle_timer = core::kInvalidEvent;
  if (s.status != GatewaySessionStatus::kActive) return;
  const core::Cycle idle_for = queue_->now() - s.last_activity;
  if (idle_for >= config_.idle_timeout) {
    settle(s, GatewaySessionStatus::kIdleEvicted);
    s.endpoint->send_reject();
    return;
  }
  // Activity happened since the timer was armed — sleep out the rest.
  s.idle_timer = queue_->schedule(config_.idle_timeout - idle_for,
                                  [this, id] { idle_check(id); });
}

void GatewayServer::on_uplink(std::uint64_t id,
                              std::vector<std::uint8_t> raw) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return;  // unknown/forgotten session
  it->second.last_activity = queue_->now();
  it->second.endpoint->on_bytes(std::move(raw));
}

void GatewayServer::on_delivered(std::uint64_t id, const Frame& f) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  Sess& s = it->second;
  // A settled session's endpoint keeps acking duplicates (the peer may
  // still be retransmitting a frame whose ack was lost), but the machine
  // is never stepped again.
  if (s.status != GatewaySessionStatus::kActive) return;
  if (!s.machine || s.machine->state() != SessionState::kAwait) return;

  StepResult r;
  try {
    r = s.machine->on_message(Message{f.label, f.payload});
  } catch (const std::exception&) {
    // Poison session: the machine threw instead of rejecting. Isolate it
    // — verdict refused, machine never stepped again, everyone else
    // unaffected.
    settle(s, GatewaySessionStatus::kQuarantined);
    s.endpoint->send_reject();
    return;
  }
  for (auto& out : r.out)
    s.endpoint->send_message(out.label, std::move(out.payload));
  if (r.state == SessionState::kDone) {
    // Settle before judging: a deferred judge can fill its verifier's
    // batch and land this very session's verdict before it returns.
    settle(s, GatewaySessionStatus::kCompleted);
    land_verdict(id, s.judge ? s.judge(*s.machine) : s.machine->accepted());
  } else if (r.state == SessionState::kFailed) {
    settle(s, GatewaySessionStatus::kFailed);
    s.endpoint->send_reject();
  }
}

void GatewayServer::settle(Sess& s, GatewaySessionStatus status) {
  s.status = status;
  s.settled_at = queue_->now();
  --live_;
  queue_->cancel(s.deadline_timer);
  queue_->cancel(s.idle_timer);
  s.deadline_timer = core::kInvalidEvent;
  s.idle_timer = core::kInvalidEvent;
  switch (status) {
    case GatewaySessionStatus::kCompleted:
      ++stats_.completed;
      break;
    case GatewaySessionStatus::kFailed:
      ++stats_.failed;
      break;
    case GatewaySessionStatus::kQuarantined:
      ++stats_.quarantined;
      break;
    case GatewaySessionStatus::kDeadlineEvicted:
      ++stats_.deadline_evicted;
      break;
    case GatewaySessionStatus::kIdleEvicted:
      ++stats_.idle_evicted;
      break;
    case GatewaySessionStatus::kActive:
      break;  // unreachable
  }
}

void GatewayServer::land_verdict(std::uint64_t id, bool accepted) {
  const auto it = sessions_.find(id);
  if (!accepted || it == sessions_.end()) return;
  Sess& s = it->second;
  if (s.status != GatewaySessionStatus::kCompleted || s.accepted) return;
  s.accepted = true;
  ++stats_.accepted;
}

GatewaySessionStatus GatewayServer::status(std::uint64_t id) const {
  const auto it = sessions_.find(id);
  if (it == sessions_.end())
    throw std::out_of_range("GatewayServer::status: unknown session");
  return it->second.status;
}

bool GatewayServer::accepted(std::uint64_t id) const {
  const auto it = sessions_.find(id);
  return it != sessions_.end() && it->second.accepted;
}

core::Cycle GatewayServer::settled_at(std::uint64_t id) const {
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? 0 : it->second.settled_at;
}

const DeliveryStats* GatewayServer::delivery_stats(std::uint64_t id) const {
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second.endpoint->stats();
}

std::vector<std::uint64_t> GatewayServer::session_ids() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(sessions_.size());
  for (const auto& [id, s] : sessions_) ids.push_back(id);
  return ids;
}

std::vector<std::uint8_t> GatewayServer::snapshot_session(
    std::uint64_t id) const {
  const auto it = sessions_.find(id);
  if (it == sessions_.end())
    throw std::out_of_range("GatewayServer::snapshot_session: unknown id");
  const Sess& s = it->second;
  SnapshotWriter w;
  w.u32(kSessionSnapshotMagic);
  w.u8(static_cast<std::uint8_t>(s.status));
  w.boolean(s.accepted);
  w.u64(s.settled_at);
  w.boolean(s.rng != nullptr);
  if (s.rng) {
    const rng::Xoshiro256::State st = s.rng->save_state();
    for (const std::uint64_t limb : st.s) w.u64(limb);
    w.boolean(st.have_spare);
    w.f64(st.spare);
  }
  s.machine->snapshot(w);
  s.endpoint->snapshot(w);
  return w.take();
}

void GatewayServer::restore_session(
    std::uint64_t id, std::unique_ptr<protocol::SessionMachine> machine,
    Downlink downlink, std::span<const std::uint8_t> snap, Judge judge,
    std::unique_ptr<rng::Xoshiro256> rng) {
  if (sessions_.count(id))
    throw std::invalid_argument(
        "GatewayServer::restore_session: id already live");
  SnapshotReader r(snap);
  if (r.u32() != kSessionSnapshotMagic)
    throw SnapshotError("gateway: bad session magic");
  const std::uint8_t status_byte = r.u8();
  if (status_byte > static_cast<std::uint8_t>(
                        GatewaySessionStatus::kIdleEvicted))
    throw SnapshotError("gateway: bad session status");

  Sess s;
  s.status = static_cast<GatewaySessionStatus>(status_byte);
  s.accepted = r.boolean();
  s.settled_at = r.u64();
  const bool has_rng = r.boolean();
  if (has_rng != (rng != nullptr))
    throw SnapshotError("gateway: rng presence mismatch");
  if (has_rng) {
    rng::Xoshiro256::State st;
    for (std::uint64_t& limb : st.s) limb = r.u64();
    st.have_spare = r.boolean();
    st.spare = r.f64();
    rng->load_state(st);
  }
  machine->restore(r);
  s.machine = std::move(machine);
  s.rng = std::move(rng);
  s.judge = std::move(judge);
  s.last_activity = queue_->now();
  wire_endpoint(id, s, std::move(downlink));
  s.endpoint->restore(r);
  if (!r.exhausted()) throw SnapshotError("gateway: trailing bytes");
  auto [it, ok] = sessions_.emplace(id, std::move(s));
  // Policy clocks restart from the restore point: the replacement node
  // grants a fresh deadline rather than inheriting a dead node's.
  if (it->second.status == GatewaySessionStatus::kActive) {
    arm_policy_timers(id, it->second);
    ++live_;
  }
  ++stats_.restored;
}

// --- DeviceEndpoint ----------------------------------------------------------

DeviceEndpoint::DeviceEndpoint(core::EventQueue& queue, std::uint64_t id,
                               std::uint64_t seed,
                               protocol::SessionMachine& machine,
                               const DeliveryConfig& config)
    : queue_(&queue),
      machine_(&machine),
      endpoint_(queue, id, mix_seed(seed, id ^ 0xDE71CEULL), config) {
  endpoint_.set_message_sink([this](const Frame& f) { on_delivered(f); });
  endpoint_.set_failure_sink([this] { failed_ = true; });
}

void DeviceEndpoint::start() { pump(machine_->start()); }

void DeviceEndpoint::on_downlink(std::vector<std::uint8_t> raw) {
  endpoint_.on_bytes(std::move(raw));
}

void DeviceEndpoint::on_delivered(const Frame& f) {
  if (machine_->state() != SessionState::kAwait) return;
  try {
    pump(machine_->on_message(Message{f.label, f.payload}));
  } catch (const std::exception&) {
    failed_ = true;
  }
}

void DeviceEndpoint::pump(StepResult r) {
  for (auto& out : r.out)
    endpoint_.send_message(out.label, std::move(out.payload));
  if (r.state == SessionState::kDone && done_at_ == 0)
    done_at_ = queue_->now();
}

}  // namespace medsec::engine
