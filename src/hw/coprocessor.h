// coprocessor.h — cycle-accurate model of the paper's programmable ECC
// co-processor (the "secure zone" of §5).
//
// Microarchitecture, following §4–§6 and Lee et al. [10]:
//   * six 163-bit working registers (X1, Z1, X2, Z2, T, XP) — the paper's
//     "six 163-bit registers for the whole point multiplication";
//   * one digit-serial F_2^163 MALU (digit size d, default 4) that executes
//     both MUL and SQR (area-frugal: no dedicated squarer);
//   * a 163-bit XOR array for ADD (one-cycle datapath);
//   * a micro-coded sequencer with a constant cycle count per instruction
//     (the architecture-level timing countermeasure: "all instructions
//     should execute with a constant number of cycles").
//
// The ladder's conditional swap is implemented as *operand routing*, not as
// physical register swaps: the key bit drives the select lines of the
// register-file read/write multiplexers (the 164-fanout control signals of
// §6 / Figure 3). What leaks, and which circuit-level countermeasure
// suppresses it, is recorded per cycle in CycleRecord and interpreted by
// the side-channel layer (sidechannel/leakage.h).
//
// Execution model: the per-iteration microcode fragments are compiled
// once per co-processor into flat CompiledProgram streams (the latency of
// every instruction is an architecture constant, so a compiled fragment
// knows its exact cycle cost before it runs). execute() and point_mult()
// have one output path: each executed cycle streams into the caller's
// CycleSink, and the energy summary (cycles + weighted toggles)
// accumulates whether or not a sink is attached, so energy-only callers
// pass nullptr and pay for no records at all. A caller that wants raw
// records attaches a RecordSink (pinned record digests in tests).
//
// Every point multiplication is cross-checked in tests against the
// algorithmic ladder in ecc/ladder.h.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gf2m/gf2_163.h"
#include "hw/digit_serial.h"
#include "hw/technology.h"

namespace medsec::hw {

/// Architectural registers. XP holds the (public) base-point x coordinate;
/// X1/Z1/X2/Z2 are the ladder accumulators; T is the scratch register.
enum class Reg : std::uint8_t { kX1 = 0, kZ1, kX2, kZ2, kT, kXP };
constexpr std::size_t kNumRegs = 6;

const char* reg_name(Reg r);

/// Micro-instruction opcodes. Latencies (model cycles) are constants of
/// the architecture, independent of operand values *and* of the key:
///   MUL/SQR : ceil(163/d) + 6   (issue, two operand fetches, fill/drain,
///                                writeback)
///   ADD     : 3                 (issue, XOR array, writeback)
///   MOV     : 2
///   LDI     : 2                 (load immediate 0/1/x into a register)
///   SELSET  : 1                 (update the ladder routing select lines)
enum class Op : std::uint8_t { kMul, kSqr, kAdd, kMov, kLdi, kSelSet };

struct Instruction {
  Op op;
  Reg rd;           ///< destination (ignored for kSelSet)
  Reg ra;           ///< first source
  Reg rb;           ///< second source (kMul/kAdd)
  gf2m::Gf163 imm;  ///< kLdi payload
  int select;       ///< kSelSet: new value of the routing select (0/1)
};

/// What one clock cycle did, in raw switching events. The side-channel
/// layer converts these to power samples; the energy model to joules.
struct CycleRecord {
  /// Register-file write port: Hamming distance of the written register.
  std::uint16_t reg_write_toggles = 0;
  /// Combinational events in the active unit (MALU / XOR array).
  std::uint16_t logic_toggles = 0;
  /// Operand-bus lines that changed vs. the previous cycle.
  std::uint16_t bus_toggles = 0;
  /// Multiplexer select-line network toggles (the §6 / Fig. 3 signals).
  std::uint16_t mux_control_toggles = 0;
  /// Which clock-tree branches fired this cycle (bit i = register i).
  /// With uniform gating this is all-ones every cycle.
  std::uint8_t clocked_reg_mask = 0;
  /// Ground truth for the side-channel experiments (never used by the
  /// "attacker" code paths as an input — only to score recovered keys).
  std::int8_t key_bit = -1;       ///< ladder select during this cycle
  std::uint16_t iteration = 0xffff;  ///< ladder iteration, if any
  Op op = Op::kSelSet;
};

/// Streaming consumer of executed model cycles — the co-processor's only
/// per-cycle output path. on_cycle runs once per cycle, in execution
/// order, with the finalized record (ground-truth key bit / iteration and
/// the clock-gating mask already applied) and the cycle's weighted
/// GE-toggle total.
class CycleSink {
 public:
  virtual ~CycleSink() = default;
  virtual void on_cycle(const CycleRecord& rec, double ge_toggles) = 0;
};

/// The record-materializing sink: appends every cycle to a caller-owned
/// vector, which the caller reserves exactly from point_mult_cycles().
/// For consumers that genuinely need raw records (profiling, E9's
/// record-keyed scans, the reference capture); everything else should
/// fold the stream instead.
class RecordSink final : public CycleSink {
 public:
  explicit RecordSink(std::vector<CycleRecord>& out) : out_(&out) {}
  void on_cycle(const CycleRecord& rec, double) override {
    out_->push_back(rec);
  }

 private:
  std::vector<CycleRecord>* out_;
};

/// Circuit/architecture countermeasure switches (§5–§6). Defaults are the
/// protected configuration of the prototype chip; the ablation benches
/// switch them off one at a time.
struct SecureConfig {
  /// Encode the 164-fanout mux selects as a complementary (dual-rail)
  /// pair so their total Hamming difference per update is constant
  /// (Figure 3). Off: the select net toggles only when the key bit
  /// changes — an SPA target.
  bool balanced_mux_encoding = true;
  /// Clock every register branch every cycle. Off: only written registers
  /// are clocked, and the per-branch load differences show in the trace.
  bool uniform_clock_gating = true;
  /// AND-gate isolation of idle datapath inputs. Off: register updates
  /// ripple spurious, data-correlated toggles into inactive units.
  bool isolate_datapath_inputs = true;
};

struct CoprocessorConfig {
  std::size_t digit_size = 4;   ///< the paper's chosen MALU width
  SecureConfig secure;
  Technology tech = Technology::umc130();
};

/// A microcode fragment compiled against one co-processor configuration:
/// the flat instruction stream plus its fixed cycle cost. Latencies are
/// architecture constants (the §5 timing countermeasure), so the cost is
/// known before execution — which is also what lets callers reserve
/// record/sample storage exactly.
struct CompiledProgram {
  std::vector<Instruction> code;
  std::size_t cycles = 0;  ///< sum of per-instruction latencies
};

/// Energy summary of one micro-program execution (the per-cycle records
/// went to the caller's sink).
struct ExecResult {
  std::size_t cycles = 0;
  double ge_toggles = 0.0;  ///< weighted total (see activity.h)
};

/// Result of a full x-only point multiplication.
struct PointMultResult {
  gf2m::Gf163 x1, z1, x2, z2;  ///< projective ladder outputs
  gf2m::Gf163 x_affine;        ///< X1/Z1, computed on-chip (Itoh–Tsujii)
  bool result_is_infinity = false;
  ExecResult exec;
  double energy_j = 0.0;
  double avg_power_w = 0.0;
  double seconds = 0.0;
};

/// Options for one point multiplication.
struct PointMultOptions {
  /// Randomized projective coordinates (§7's DPA countermeasure): two
  /// nonzero field elements from the device RNG. nullopt = countermeasure
  /// disabled (initial Z values are 1 and x^2, fully predictable).
  std::optional<std::pair<gf2m::Gf163, gf2m::Gf163>> z_randomizers;

  /// Start from the neutral ladder state (O, P) = ((1 : 0), (x : 1)) and
  /// process *every* entry of key_bits, leading zeros included. Required
  /// for blinded scalars k + r·n, whose bit length varies with the blind
  /// while the iteration count must stay a configuration constant.
  bool neutral_init = false;

  /// One unit of schedule jitter (the SPA-shuffle countermeasure): a
  /// SELSET with an RNG-chosen select plus one ADD on the scratch
  /// register, inserted at the iteration boundary `before_iteration`
  /// (0..iterations; `iterations` = after the last one). The *number* of
  /// units is a constant-time budget; only their placement and selects
  /// are random per execution, so a profiled cycle schedule no longer
  /// names fixed key bits.
  struct DummyOp {
    std::uint16_t before_iteration;
    std::uint8_t select;
  };
  std::vector<DummyOp> dummy_ops;
};

// --- fault model -------------------------------------------------------------

/// What a glitch adversary does to ONE execution (a clock/voltage glitch
/// on the sequencer, a laser shot on a register cell). Exactly one fault
/// is armed at a time; fault_fired() reports whether it actually changed
/// the execution.
enum class FaultKind : std::uint8_t {
  kNone = 0,
  /// The slot-th executed instruction is fetched but never issued: zero
  /// cycles, no writeback (sequencer clock glitch). The executed cycle
  /// count drops below the compiled constant — exactly the signal the
  /// coherence-check countermeasure watches.
  kSkipInstruction,
  /// The slot-th SELSET-bearing schedule unit (real ladder steps and
  /// jitter units, counted in execution order) has its SELSET suppressed:
  /// the routing muxes keep the STALE select, so the unit computes under
  /// the previous unit's register roles. The safe-error primitive — the
  /// glitch is computationally absorbed iff the routing would not have
  /// changed, and whether the released result is still correct leaks one
  /// key-bit transition per shot.
  kSelectGlitch,
  /// One bit of one register flips after the chosen executed cycle
  /// (single-event upset).
  kBitFlip,
  /// One register cell is stuck at a level for the whole run: forced on
  /// every read and every writeback. Stuck bits on XP move the base point
  /// off the curve — the invalid-point injection primitive.
  kStuckAt,
};

struct FaultSpec {
  FaultKind kind = FaultKind::kNone;
  /// kSkipInstruction / kSelectGlitch: 0-based target unit index.
  std::size_t slot = 0;
  /// kBitFlip: fires after this many cycles have executed (1-based count).
  std::size_t cycle = 0;
  Reg reg = Reg::kX1;       ///< kBitFlip / kStuckAt target register
  std::uint8_t bit = 0;     ///< target bit, 0..162
  bool stuck_value = true;  ///< kStuckAt: the level the cell is stuck at
};

/// The co-processor model.
class Coprocessor {
 public:
  explicit Coprocessor(const CoprocessorConfig& config = {});

  const CoprocessorConfig& config() const { return config_; }
  const DigitSerialMultiplier& malu() const { return malu_; }
  double area_ge() const { return area_ge_; }

  /// Latency constants (model cycles).
  std::size_t latency(Op op) const;

  /// Compile a microcode stream against this configuration: flat code
  /// plus the exact cycle cost it will execute in.
  CompiledProgram compile(std::vector<Instruction> program) const;

  /// Execute a raw micro-program against the current register file,
  /// streaming every cycle into `sink` (nullptr = energy summary only).
  ExecResult execute(const std::vector<Instruction>& program,
                     CycleSink* sink);

  /// Exact cycle count of one point multiplication over `num_key_bits`
  /// scalar bits under `options` — a closed-form configuration constant
  /// (the §5 constant-time argument, mechanized): init + iterations ×
  /// ladder step + jitter units + affine conversion. The affine cycles
  /// are included; the degenerate result-at-infinity case (impossible for
  /// validated subgroup inputs) skips them and executes fewer.
  std::size_t point_mult_cycles(std::size_t num_key_bits,
                                const PointMultOptions& options) const;

  /// Full x-only Montgomery-ladder point multiplication, streaming every
  /// cycle into `sink` (nullptr = energy summary only).
  ///
  /// key_bits: the *padded* scalar, MSB first, key_bits.front() == 1
  /// (see ecc::constant_length_scalar). x: affine x of the base point,
  /// nonzero. Runs key_bits.size()-1 ladder iterations — a constant for a
  /// given curve — then converts to affine on-chip. With
  /// options.neutral_init the leading-1 requirement disappears and all
  /// key_bits.size() iterations run from the neutral (O, P) start.
  PointMultResult point_mult(const std::vector<int>& key_bits,
                             const gf2m::Gf163& x,
                             const PointMultOptions& options,
                             CycleSink* sink);

  /// Clear the working registers through the cached zeroize microcode
  /// (energy-only: the controller discards the telemetry of this step).
  /// See microcode::zeroize for the §5 rationale.
  ExecResult zeroize(bool keep_result = true);

  /// Direct register access (test/bench instrumentation; the modeled ISA
  /// itself has no key-export path — see core/isa_audit.h).
  const gf2m::Gf163& reg(Reg r) const;
  void set_reg(Reg r, const gf2m::Gf163& v);

  /// Arm one fault for subsequent execution. The armed fault persists
  /// (stuck-at keeps pressing its bit run after run) until disarm_fault()
  /// or a re-arm; the match counters reset at every point_mult()/
  /// execute() entry so `slot` and `cycle` are always relative to the run.
  void arm_fault(const FaultSpec& fault);
  void disarm_fault();
  /// Did the armed fault actually perturb an execution since arming?
  bool fault_fired() const { return fault_fired_; }

 private:
  /// The cycle cost of a microcode stream (the sum of latencies).
  std::size_t program_cycles(const std::vector<Instruction>& program) const;
  void run_program(const CompiledProgram& program, ExecResult& out,
                   CycleSink* sink, std::size_t first_instruction = 0);
  void run_instruction(const Instruction& ins, ExecResult& out,
                       CycleSink* sink);
  void emit(CycleRecord& rec, ExecResult& out, CycleSink* sink);
  /// Register read with the stuck-at fault (if armed) pressed in.
  gf2m::Gf163 operand(Reg r);
  /// Force the stuck-at bit into a value about to be written to `r`.
  gf2m::Gf163 apply_stuck(Reg r, gf2m::Gf163 v);
  void reset_fault_counters();

  CoprocessorConfig config_;
  DigitSerialMultiplier malu_;
  double area_ge_;
  /// Per-cycle clock-tree cost (precomputed once; see activity.h).
  double clock_tree_ge_;
  /// The compiled per-iteration schedule fragments: built once in the
  /// constructor, replayed every point multiplication — no per-iteration
  /// microcode regeneration.
  struct Schedules {
    CompiledProgram step[2];     ///< ladder_step(0/1)
    CompiledProgram dummy[2];    ///< dummy_unit(0/1)
    CompiledProgram affine;      ///< affine_conversion()
    CompiledProgram zeroize[2];  ///< zeroize(keep_result = false/true)
    /// Init cycle costs by [neutral_init][randomized] (the init code
    /// itself carries per-call immediates and is rebuilt per run; its
    /// cost is shape-constant).
    std::size_t init_cycles[2][2] = {};
  };
  Schedules sched_;
  std::array<gf2m::Gf163, kNumRegs> regs_{};
  gf2m::Gf163 bus_a_, bus_b_;  ///< operand-bus state (for bus_toggles)
  int select_ = 0;             ///< ladder routing select state
  std::int8_t current_key_bit_ = -1;
  std::uint16_t current_iteration_ = 0xffff;
  // Armed fault + its match counters (reset per run).
  FaultSpec fault_{};
  bool fault_fired_ = false;
  std::size_t fault_instr_seen_ = 0;   ///< executed instructions this run
  std::size_t fault_cycles_seen_ = 0;  ///< executed cycles this run
  std::size_t fault_units_seen_ = 0;   ///< SELSET-bearing units this run
};

/// Microcode builders (exposed for tests and the ISA audit).
namespace microcode {

/// One ladder iteration for key bit `bit` on curve b = 1 (K-163):
/// 5 MUL + 5 SQR + 3 ADD + 1 MOV, preceded by a SELSET updating the
/// routing select lines. Register roles follow the select value.
std::vector<Instruction> ladder_step(int bit);

/// Ladder initialisation from XP (assumes b = 1):
///   X1 = x, Z1 = 1, Z2 = x^2, X2 = x^4 + 1
/// plus, if randomizers are given, the §7 projective randomization
/// (X1, Z1) *= l1, (X2, Z2) *= l2.
std::vector<Instruction> ladder_init(
    const std::optional<std::pair<gf2m::Gf163, gf2m::Gf163>>& randomizers);

/// Neutral-state initialisation (the blinded ladder's start):
///   X1 = 1, Z1 = 0, X2 = x, Z2 = 1
/// randomized to (l1 : 0) and (x·l2 : l2) when randomizers are given.
std::vector<Instruction> ladder_init_neutral(
    const std::optional<std::pair<gf2m::Gf163, gf2m::Gf163>>& randomizers);

/// One schedule-jitter unit (see PointMultOptions::DummyOp): SELSET with
/// the given select, then ADD T <- T + XP on the scratch register.
std::vector<Instruction> dummy_unit(int select);

/// Itoh–Tsujii inversion of Z1 (9 MUL + 162 SQR), then X1 <- X1 * Z1^-1:
/// leaves affine x in X1. Clobbers X2, Z2, T.
std::vector<Instruction> affine_conversion();

/// Clear every working register except the result register X1. Run after
/// the controller has read its outputs: no key-derived intermediate may
/// survive in the register file between operations (§5 "sensitive data
/// should appear only on the internal data-bus").
std::vector<Instruction> zeroize(bool keep_result = true);

}  // namespace microcode

}  // namespace medsec::hw
