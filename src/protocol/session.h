// session.h — resumable, message-driven protocol session state machines.
//
// Every protocol in this directory used to execute both endpoints inline
// inside a blocking run_* function — fine for reproducing §4's energy
// tables, useless for serving many devices at once. Each endpoint is now a
// SessionMachine: it is kicked off with start(), fed the peer's wire
// messages one at a time through on_message(), and hands back the messages
// it wants transmitted plus its new state. Machines own their per-session
// state (nonces, ledgers, half-built transcripts), so thousands of them can
// be suspended mid-protocol and resumed on any thread — the substrate the
// engine/ layer multiplexes over a worker pool.
//
// The historical run_* entry points survive unchanged as thin drivers
// (drive_session) pumping a tag machine against a reader machine in one
// call, so the §4 energy-accounting benches and tests keep their exact
// behavior.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "protocol/wire.h"

namespace medsec::protocol {

enum class SessionState {
  kAwait,   ///< healthy, waiting for the peer's next message
  kDone,    ///< this endpoint finished its role successfully
  kFailed,  ///< aborted: malformed message, failed check, or protocol error
};

/// Outcome of one state-machine step: the endpoint's new state plus any
/// messages it wants on the air.
struct StepResult {
  SessionState state = SessionState::kAwait;
  std::vector<Message> out;

  static StepResult wait() { return {}; }
  static StepResult wait(Message m) {
    StepResult r;
    r.out.push_back(std::move(m));
    return r;
  }
  static StepResult done() { return {SessionState::kDone, {}}; }
  static StepResult done(Message m) {
    StepResult r;
    r.state = SessionState::kDone;
    r.out.push_back(std::move(m));
    return r;
  }
  static StepResult failed() { return {SessionState::kFailed, {}}; }
};

/// Who decides a server machine's verdict. kInline: the machine itself,
/// on the last message, and accepted() reports it. kDeferred: the machine
/// finishes the exchange without deciding and leaves the check to its host
/// through deferred() — a Schnorr verifier its claim, a PH reader or an
/// ECIES receiver its key multiplication — so the host can batch it with
/// other sessions' checks. Both modes send the same messages and draw the
/// same randomness.
enum class VerdictMode { kInline, kDeferred };

/// The multiplication by a long-term server key that a deferred PH reader
/// or ECIES receiver leaves to its host, so the host can run many
/// sessions' jobs as one lane batch (ecc::ladder_x_many). `finish` is the
/// rest of the verdict — the code the inline path runs after its own
/// ecc::ladder_x — applied to x(k·q), nullopt when k·q = O. The job is
/// self-contained: `finish` holds its own copy of the transcript and
/// refers only to the process-lifetime environment the machine was built
/// with, so it may run after the machine is gone (failover).
struct LadderJob {
  ecc::Scalar k;  ///< the server's secret key
  ecc::Point q;   ///< the peer's point, decoded and subgroup-gated
  std::function<bool(const std::optional<ecc::Fe>& x)> finish;
};

/// The check a deferred Schnorr verifier leaves to its host: accept iff
/// s·P − e·X == R_c. R_c is still wire-encoded, so the host decodes a
/// whole batch of commitments with one shared inversion.
struct SchnorrClaim {
  ecc::Point X;                               ///< the prover's public key
  std::vector<std::uint8_t> commitment_wire;  ///< compressed R_c
  ecc::Scalar challenge;                      ///< e
  ecc::Scalar response;                       ///< s
};

/// The check a finished kDeferred machine leaves to its host.
using DeferredWork = std::variant<LadderJob, SchnorrClaim>;

class SnapshotWriter;
class SnapshotReader;

/// One protocol endpoint as a resumable state machine.
class SessionMachine {
 public:
  virtual ~SessionMachine() = default;

  /// Messages this endpoint sends before hearing anything. Responder-role
  /// machines return wait() (the default).
  virtual StepResult start() { return StepResult::wait(); }

  /// Deliver one peer message. Must only be called while state() is
  /// kAwait; a finished or failed machine has nothing more to say.
  virtual StepResult on_message(const Message& m) = 0;

  SessionState state() const { return state_; }

  /// The verdict of a machine that decided it itself. By default,
  /// reaching kDone; a server machine overrides it with its own check. A
  /// kDeferred machine answers false, so a host that ignores deferred()
  /// fails closed.
  virtual bool accepted() const { return state_ == SessionState::kDone; }

  /// The check a finished kDeferred machine left for its host; nullopt
  /// when accepted() is the verdict (inline mode, or a point that failed
  /// its gate). Not part of the snapshot: the host takes the check as the
  /// machine finishes.
  virtual std::optional<DeferredWork> deferred() const {
    return std::nullopt;
  }

  /// Serialize the machine's owned per-session state (failover support;
  /// see snapshot.h). Contract: construct a replacement machine with the
  /// SAME constructor arguments (curve, keys, rng, factories — the
  /// referenced, process-lifetime environment), call restore() on it, and
  /// the replacement is indistinguishable from the original — every
  /// subsequent on_message() yields bit-identical output. Subclasses
  /// override both, calling the base first (it carries the state flag).
  /// restore() throws SnapshotError on malformed input.
  virtual void snapshot(SnapshotWriter& w) const;
  virtual void restore(SnapshotReader& r);

 protected:
  /// Record the step's resulting state before returning it.
  StepResult step(StepResult r) {
    state_ = r.state;
    return r;
  }

 private:
  SessionState state_ = SessionState::kAwait;
};

/// What a fault-injection tap decided to do with one in-flight message.
/// kDeliver is the default; kDrop models message loss (the endpoint never
/// hears it); kDuplicate delivers the message twice back to back (radio
/// retransmission with a lost ack). Truncation and tampering are expressed
/// through the mutator hooks — resize or rewrite the payload in place.
enum class TapFate {
  kDeliver,
  kDrop,
  kDuplicate,
};

/// In-flight fault hooks (tests, benches, the privacy game's adversarial
/// reader). For each direction two hooks run — when set — on every message
/// before delivery: the mutator may rewrite the payload (tamper, truncate,
/// extend), then the fate hook decides whether the (possibly mutated)
/// message is delivered, dropped, or duplicated. The transcript records
/// the adversary's view: mutated payloads, duplicates twice, drops not at
/// all.
struct SessionTap {
  std::function<void(Message&)> tag_to_reader;
  std::function<void(Message&)> reader_to_tag;
  std::function<TapFate(const Message&)> tag_to_reader_fate;
  std::function<TapFate(const Message&)> reader_to_tag_fate;
};

/// Pump messages between a tag-side and a reader-side machine until both
/// settle or neither has anything left to say. Every delivered message is
/// appended to `transcript` (post-tamper — the adversary's view of the air
/// interface). Messages addressed to a machine that already finished or
/// failed are dropped, modeling a dead endpoint. Returns true iff both
/// sides reached kDone.
bool drive_session(SessionMachine& tag, SessionMachine& reader,
                   Transcript& transcript, const SessionTap& tap = {});

}  // namespace medsec::protocol
