#include "hw/coprocessor.h"

#include <bit>
#include <stdexcept>

#include "hw/activity.h"

namespace medsec::hw {

namespace {

using gf2m::Gf163;

int popcount(const Gf163& v) {
  return detail::popcount3(v.limb(0), v.limb(1), v.limb(2));
}

int hamming_distance(const Gf163& a, const Gf163& b) { return popcount(a + b); }

/// Fanout of the ladder routing select network: the paper counts 164
/// multiplexers driven by these control signals (§6).
constexpr int kMuxFanout = 164;

/// Decode/issue network toggles per instruction issue (opcode + register
/// addresses changing in the sequencer) — small, data-independent.
constexpr int kIssueToggles = 24;

/// Single-bit field-element mask for bit b (0..162).
Gf163 bit_mask(unsigned b) {
  std::uint64_t l[3] = {0, 0, 0};
  l[b / 64] = 1ULL << (b % 64);
  return Gf163{l[0], l[1], l[2]};
}

}  // namespace

const char* reg_name(Reg r) {
  switch (r) {
    case Reg::kX1: return "X1";
    case Reg::kZ1: return "Z1";
    case Reg::kX2: return "X2";
    case Reg::kZ2: return "Z2";
    case Reg::kT: return "T";
    case Reg::kXP: return "XP";
  }
  return "?";
}

Coprocessor::Coprocessor(const CoprocessorConfig& config)
    : config_(config),
      malu_(config.digit_size),
      area_ge_(ecc_coprocessor_ge(Gf163::kBits, config.digit_size)),
      clock_tree_ge_(ActivityWeights::clock_tree_per_cycle(area_ge_)) {
  // Compile the schedule fragments once: every point multiplication
  // replays these flat streams instead of regenerating microcode vectors
  // per ladder iteration.
  sched_.step[0] = compile(microcode::ladder_step(0));
  sched_.step[1] = compile(microcode::ladder_step(1));
  sched_.dummy[0] = compile(microcode::dummy_unit(0));
  sched_.dummy[1] = compile(microcode::dummy_unit(1));
  sched_.affine = compile(microcode::affine_conversion());
  sched_.zeroize[0] = compile(microcode::zeroize(false));
  sched_.zeroize[1] = compile(microcode::zeroize(true));
  // Init cost is shape-constant (immediates do not change latency):
  // cost both shapes of both variants with placeholder randomizers.
  const auto rand_pair = std::make_pair(Gf163::one(), Gf163::one());
  sched_.init_cycles[0][0] = program_cycles(microcode::ladder_init(std::nullopt));
  sched_.init_cycles[0][1] = program_cycles(microcode::ladder_init(rand_pair));
  sched_.init_cycles[1][0] =
      program_cycles(microcode::ladder_init_neutral(std::nullopt));
  sched_.init_cycles[1][1] =
      program_cycles(microcode::ladder_init_neutral(rand_pair));
}

std::size_t Coprocessor::latency(Op op) const {
  switch (op) {
    case Op::kMul:
    case Op::kSqr:
      // issue + 2 operand loads + pipeline fill/drain + writeback.
      return malu_.cycles_per_mult() + 6;
    case Op::kAdd:
      return 3;  // issue + XOR array + writeback
    case Op::kMov:
    case Op::kLdi:
      return 2;  // issue + writeback
    case Op::kSelSet:
      return 1;
  }
  return 1;
}

std::size_t Coprocessor::program_cycles(
    const std::vector<Instruction>& program) const {
  std::size_t cycles = 0;
  for (const Instruction& ins : program) cycles += latency(ins.op);
  return cycles;
}

CompiledProgram Coprocessor::compile(std::vector<Instruction> program) const {
  CompiledProgram p;
  p.code = std::move(program);
  p.cycles = program_cycles(p.code);
  return p;
}

const Gf163& Coprocessor::reg(Reg r) const {
  return regs_[static_cast<std::size_t>(r)];
}

void Coprocessor::set_reg(Reg r, const Gf163& v) {
  regs_[static_cast<std::size_t>(r)] = v;
}

void Coprocessor::arm_fault(const FaultSpec& fault) {
  if (fault.bit >= Gf163::kBits)
    throw std::invalid_argument("Coprocessor::arm_fault: bit out of range");
  fault_ = fault;
  fault_fired_ = false;
  reset_fault_counters();
}

void Coprocessor::disarm_fault() {
  fault_ = FaultSpec{};
  fault_fired_ = false;
  reset_fault_counters();
}

void Coprocessor::reset_fault_counters() {
  fault_instr_seen_ = 0;
  fault_cycles_seen_ = 0;
  fault_units_seen_ = 0;
}

Gf163 Coprocessor::apply_stuck(Reg r, Gf163 v) {
  if (fault_.kind != FaultKind::kStuckAt || r != fault_.reg) return v;
  if (v.bit(fault_.bit) != fault_.stuck_value) {
    v += bit_mask(fault_.bit);
    fault_fired_ = true;
  }
  return v;
}

Gf163 Coprocessor::operand(Reg r) {
  return apply_stuck(r, regs_[static_cast<std::size_t>(r)]);
}

void Coprocessor::emit(CycleRecord& rec, ExecResult& out, CycleSink* sink) {
  out.cycles += 1;
  rec.key_bit = current_key_bit_;
  rec.iteration = current_iteration_;
  double clock_ge;
  if (config_.secure.uniform_clock_gating) {
    // All six branches fire: popcount/6 is exactly 1.
    rec.clocked_reg_mask = 0x3F;
    clock_ge = clock_tree_ge_;
  } else {
    clock_ge = clock_tree_ge_ * (std::popcount(rec.clocked_reg_mask) / 6.0);
  }
  const double ge =
      ActivityWeights::kRegisterBit * rec.reg_write_toggles +
      ActivityWeights::kLogicNode * (rec.logic_toggles + rec.bus_toggles +
                                     rec.mux_control_toggles) +
      clock_ge;
  out.ge_toggles += ge;
  if (sink) sink->on_cycle(rec, ge);
  // Single-event upset: after the chosen executed cycle, one register bit
  // flips in place — the write port never sees it, so no toggle telemetry
  // betrays the fault (the attacker's ideal glitch).
  if (fault_.kind == FaultKind::kBitFlip && !fault_fired_ &&
      ++fault_cycles_seen_ == fault_.cycle) {
    regs_[static_cast<std::size_t>(fault_.reg)] += bit_mask(fault_.bit);
    fault_fired_ = true;
  }
}

void Coprocessor::run_instruction(const Instruction& ins, ExecResult& out,
                                  CycleSink* sink) {
  // Sequencer clock glitch: the slot-th instruction is fetched but never
  // issued — zero cycles, no writeback. The run's executed cycle count
  // drops below the compiled constant.
  if (fault_.kind == FaultKind::kSkipInstruction && !fault_fired_ &&
      fault_instr_seen_++ == fault_.slot) {
    fault_fired_ = true;
    return;
  }
  const bool isolated = config_.secure.isolate_datapath_inputs;

  auto fetch_cycle = [&](const Gf163& operand, Gf163& bus) {
    CycleRecord rec;
    rec.op = ins.op;
    rec.bus_toggles =
        static_cast<std::uint16_t>(hamming_distance(bus, operand));
    // Without input isolation the new bus value ripples into every unit
    // hanging off the bus, not just the active one: data-correlated
    // spurious switching (§6 "isolate the inputs to the data-paths").
    if (!isolated)
      rec.logic_toggles = static_cast<std::uint16_t>(2 * rec.bus_toggles);
    bus = operand;
    emit(rec, out, sink);
  };

  auto writeback_cycle = [&](Reg rd, const Gf163& value,
                             std::uint16_t extra_logic = 0) {
    CycleRecord rec;
    rec.op = ins.op;
    const Gf163 stored = apply_stuck(rd, value);
    Gf163& dst = regs_[static_cast<std::size_t>(rd)];
    rec.reg_write_toggles =
        static_cast<std::uint16_t>(hamming_distance(dst, stored));
    rec.logic_toggles = extra_logic;
    if (!isolated)
      rec.logic_toggles = static_cast<std::uint16_t>(
          rec.logic_toggles + 2 * rec.reg_write_toggles);
    if (!config_.secure.uniform_clock_gating)
      rec.clocked_reg_mask =
          static_cast<std::uint8_t>(1u << static_cast<unsigned>(rd));
    dst = stored;
    emit(rec, out, sink);
  };

  auto issue_cycle = [&] {
    CycleRecord rec;
    rec.op = ins.op;
    rec.mux_control_toggles = kIssueToggles;
    emit(rec, out, sink);
  };

  switch (ins.op) {
    case Op::kMul:
    case Op::kSqr: {
      const Gf163 a = operand(ins.ra);
      const Gf163 b = ins.op == Op::kSqr ? a : operand(ins.rb);
      issue_cycle();
      fetch_cycle(a, bus_a_);
      fetch_cycle(b, bus_b_);
      // The MALU pass streams its activity straight into the sink: the
      // per-cycle records appear in execution order with no intermediate
      // MaluResult materialization.
      const Gf163 product = malu_.multiply_stream(
          a, b, [&](std::uint32_t acc_toggles, std::uint32_t logic_toggles) {
            CycleRecord rec;
            rec.op = ins.op;
            rec.reg_write_toggles = static_cast<std::uint16_t>(acc_toggles);
            rec.logic_toggles = static_cast<std::uint16_t>(logic_toggles);
            emit(rec, out, sink);
          });
      // Pipeline fill/drain: two light cycles.
      for (int i = 0; i < 2; ++i) {
        CycleRecord rec;
        rec.op = ins.op;
        emit(rec, out, sink);
      }
      writeback_cycle(ins.rd, product);
      break;
    }
    case Op::kAdd: {
      const Gf163 a = operand(ins.ra);
      const Gf163 b = operand(ins.rb);
      issue_cycle();
      fetch_cycle(a, bus_a_);
      const Gf163 r = a + b;
      writeback_cycle(ins.rd, r,
                      static_cast<std::uint16_t>(popcount(r)));
      break;
    }
    case Op::kMov: {
      issue_cycle();
      writeback_cycle(ins.rd, operand(ins.ra));
      break;
    }
    case Op::kLdi: {
      issue_cycle();
      writeback_cycle(ins.rd, ins.imm);
      break;
    }
    case Op::kSelSet: {
      CycleRecord rec;
      rec.op = ins.op;
      if (config_.secure.balanced_mux_encoding) {
        // Dual-rail (s, s_bar) encoding: every update toggles exactly one
        // of the two rails across the whole 164-mux fanout — constant
        // Hamming difference (Figure 3).
        rec.mux_control_toggles = kMuxFanout;
      } else {
        // Single-rail: the net only toggles when the select changes —
        // i.e. when consecutive key bits differ. SPA-visible.
        rec.mux_control_toggles =
            ins.select != select_ ? static_cast<std::uint16_t>(kMuxFanout)
                                  : std::uint16_t{0};
      }
      select_ = ins.select;
      emit(rec, out, sink);
      break;
    }
  }
}

void Coprocessor::run_program(const CompiledProgram& program, ExecResult& out,
                              CycleSink* sink, std::size_t first_instruction) {
  for (std::size_t i = first_instruction; i < program.code.size(); ++i)
    run_instruction(program.code[i], out, sink);
}

ExecResult Coprocessor::execute(const std::vector<Instruction>& program,
                                CycleSink* sink) {
  reset_fault_counters();
  ExecResult out;
  for (const Instruction& ins : program) run_instruction(ins, out, sink);
  return out;
}

ExecResult Coprocessor::zeroize(bool keep_result) {
  ExecResult out;
  run_program(sched_.zeroize[keep_result ? 1 : 0], out, nullptr);
  return out;
}

namespace microcode {

namespace {
Instruction mul(Reg rd, Reg ra, Reg rb) {
  return Instruction{Op::kMul, rd, ra, rb, {}, 0};
}
Instruction sqr(Reg rd, Reg ra) {
  return Instruction{Op::kSqr, rd, ra, ra, {}, 0};
}
Instruction add(Reg rd, Reg ra, Reg rb) {
  return Instruction{Op::kAdd, rd, ra, rb, {}, 0};
}
Instruction mov(Reg rd, Reg ra) {
  return Instruction{Op::kMov, rd, ra, ra, {}, 0};
}
Instruction ldi(Reg rd, const Gf163& v) {
  return Instruction{Op::kLdi, rd, rd, rd, v, 0};
}
Instruction selset(int s) {
  return Instruction{Op::kSelSet, Reg::kT, Reg::kT, Reg::kT, {}, s};
}
}  // namespace

std::vector<Instruction> ladder_step(int bit) {
  // Routing: A = the pair that is doubled, B = the pair that receives the
  // differential addition. For bit == 1 the roles of the physical register
  // pairs are exchanged — by the mux network, not by moving data.
  const Reg xa = bit ? Reg::kX2 : Reg::kX1;
  const Reg za = bit ? Reg::kZ2 : Reg::kZ1;
  const Reg xb = bit ? Reg::kX1 : Reg::kX2;
  const Reg zb = bit ? Reg::kZ1 : Reg::kZ2;
  const Reg t = Reg::kT, xp = Reg::kXP;
  return {
      selset(bit),
      // differential addition into B (LD x-only formulas):
      mul(t, xa, zb),    // T  = XA·ZB
      mul(xb, xb, za),   // XB = XB·ZA
      add(zb, t, xb),    // ZB = XA·ZB + XB·ZA
      sqr(zb, zb),       // ZB' = (XA·ZB + XB·ZA)^2
      mul(xb, xb, t),    // XB = (XA·ZB)(XB·ZA)
      mul(t, xp, zb),    // T  = x · ZB'
      add(xb, xb, t),    // XB' = x·ZB' + (XA·ZB)(XB·ZA)
      // doubling of A in place (b = 1 on K-163: X' = X^4 + Z^4):
      sqr(xa, xa),       // XA^2
      sqr(za, za),       // ZA^2
      mul(t, xa, za),    // T  = XA^2·ZA^2 = ZA'
      sqr(xa, xa),       // XA^4
      sqr(za, za),       // ZA^4
      add(xa, xa, za),   // XA' = XA^4 + ZA^4
      mov(za, t),        // ZA' <- T
  };
}

std::vector<Instruction> ladder_init(
    const std::optional<std::pair<Gf163, Gf163>>& randomizers) {
  std::vector<Instruction> p;
  // X2 = x^4 + 1, Z2 = x^2 (b = 1).
  p.push_back(sqr(Reg::kZ2, Reg::kXP));
  p.push_back(sqr(Reg::kX2, Reg::kZ2));
  p.push_back(ldi(Reg::kT, Gf163::one()));
  p.push_back(add(Reg::kX2, Reg::kX2, Reg::kT));
  if (randomizers) {
    // §7: "the chip randomizes the internal points representation by using
    // a random Z coordinate in each execution."
    p.push_back(ldi(Reg::kT, randomizers->first));
    p.push_back(mul(Reg::kX1, Reg::kXP, Reg::kT));  // X1 = x·l1
    p.push_back(mov(Reg::kZ1, Reg::kT));            // Z1 = l1
    p.push_back(ldi(Reg::kT, randomizers->second));
    p.push_back(mul(Reg::kX2, Reg::kX2, Reg::kT));
    p.push_back(mul(Reg::kZ2, Reg::kZ2, Reg::kT));
  } else {
    p.push_back(mov(Reg::kX1, Reg::kXP));  // X1 = x, Z1 = 1
    p.push_back(ldi(Reg::kZ1, Gf163::one()));
  }
  return p;
}

std::vector<Instruction> ladder_init_neutral(
    const std::optional<std::pair<Gf163, Gf163>>& randomizers) {
  std::vector<Instruction> p;
  p.push_back(ldi(Reg::kZ1, Gf163::zero()));  // lo = O = (l1 : 0)
  if (randomizers) {
    p.push_back(ldi(Reg::kX1, randomizers->first));
    p.push_back(ldi(Reg::kT, randomizers->second));
    p.push_back(mul(Reg::kX2, Reg::kXP, Reg::kT));  // hi = (x·l2 : l2)
    p.push_back(mov(Reg::kZ2, Reg::kT));
  } else {
    p.push_back(ldi(Reg::kX1, Gf163::one()));
    p.push_back(mov(Reg::kX2, Reg::kXP));  // hi = P = (x : 1)
    p.push_back(ldi(Reg::kZ2, Gf163::one()));
  }
  return p;
}

std::vector<Instruction> dummy_unit(int select) {
  // A decoy SELSET (jitters both the select-net spike train and the real
  // spikes' positions) plus one scratch-register ADD (jitters the gated-
  // write schedule). T is dead between iterations — ladder_step and
  // affine_conversion both write it before reading.
  return {selset(select), add(Reg::kT, Reg::kT, Reg::kXP)};
}

std::vector<Instruction> affine_conversion() {
  // Itoh–Tsujii inversion of Z1 (addition chain 1,2,4,5,10,20,40,80,81,162:
  // 9 MUL + 162 SQR), then X1 <- X1 · Z1^{-1}.
  // beta_1 lives in X2; the accumulator in Z2; T saves the pre-squaring
  // value for self-referential chain steps.
  std::vector<Instruction> p;
  const Reg b1 = Reg::kX2, acc = Reg::kZ2, t = Reg::kT;
  p.push_back(mov(b1, Reg::kZ1));
  p.push_back(mov(acc, Reg::kZ1));
  auto self_step = [&](unsigned n) {
    p.push_back(mov(t, acc));
    for (unsigned i = 0; i < n; ++i) p.push_back(sqr(acc, acc));
    p.push_back(mul(acc, acc, t));
  };
  auto b1_step = [&](unsigned n) {
    for (unsigned i = 0; i < n; ++i) p.push_back(sqr(acc, acc));
    p.push_back(mul(acc, acc, b1));
  };
  self_step(1);   // beta_2
  self_step(2);   // beta_4
  b1_step(1);     // beta_5
  self_step(5);   // beta_10
  self_step(10);  // beta_20
  self_step(20);  // beta_40
  self_step(40);  // beta_80
  b1_step(1);     // beta_81
  self_step(81);  // beta_162
  p.push_back(sqr(acc, acc));             // Z1^{-1} = beta_162^2
  p.push_back(mul(Reg::kX1, Reg::kX1, acc));
  return p;
}

std::vector<Instruction> zeroize(bool keep_result) {
  std::vector<Instruction> p;
  for (const Reg r : {Reg::kX1, Reg::kZ1, Reg::kX2, Reg::kZ2, Reg::kT,
                      Reg::kXP}) {
    if (keep_result && r == Reg::kX1) continue;
    p.push_back(ldi(r, Gf163::zero()));
  }
  return p;
}

}  // namespace microcode

std::size_t Coprocessor::point_mult_cycles(
    std::size_t num_key_bits, const PointMultOptions& options) const {
  const std::size_t iterations =
      num_key_bits - (options.neutral_init ? 0 : 1);
  const std::size_t init =
      sched_.init_cycles[options.neutral_init ? 1 : 0]
                        [options.z_randomizers ? 1 : 0];
  return init + iterations * sched_.step[0].cycles +
         options.dummy_ops.size() * sched_.dummy[0].cycles +
         sched_.affine.cycles;
}

PointMultResult Coprocessor::point_mult(const std::vector<int>& key_bits,
                                        const gf2m::Gf163& x,
                                        const PointMultOptions& options,
                                        CycleSink* sink) {
  if (!options.neutral_init && (key_bits.size() < 2 || key_bits.front() != 1))
    throw std::invalid_argument(
        "Coprocessor::point_mult: key_bits must be a padded scalar with a "
        "leading 1 (see ecc::constant_length_scalar)");
  if (options.neutral_init && key_bits.empty())
    throw std::invalid_argument("Coprocessor::point_mult: empty key");
  if (x.is_zero())
    throw std::invalid_argument("Coprocessor::point_mult: x(P) = 0");
  if (options.z_randomizers &&
      (options.z_randomizers->first.is_zero() ||
       options.z_randomizers->second.is_zero()))
    throw std::invalid_argument("Coprocessor::point_mult: zero randomizer");

  // Pre-bucket the schedule-jitter units by iteration boundary. The
  // boundary range is [0, iterations] — trailing units run between the
  // last iteration and the affine conversion.
  const std::size_t first_idx = options.neutral_init ? 0 : 1;
  const std::size_t iterations = key_bits.size() - first_idx;
  std::vector<std::vector<int>> jitter(iterations + 1);
  for (const PointMultOptions::DummyOp& d : options.dummy_ops) {
    if (d.before_iteration > iterations)
      throw std::invalid_argument(
          "Coprocessor::point_mult: dummy op beyond the schedule");
    jitter[d.before_iteration].push_back(d.select & 1);
  }
  // Safe-error select glitch: each SELSET-bearing unit — jitter dummies
  // and real ladder steps alike, in execution order — consumes one slot.
  // The glitched unit's SELSET is suppressed, so it runs under the STALE
  // routing select (skipping the compiled fragment's leading SELSET and
  // replaying the stale-select variant of the unit).
  auto glitched_unit = [&]() {
    if (fault_.kind != FaultKind::kSelectGlitch || fault_fired_) return false;
    return fault_units_seen_++ == fault_.slot;
  };
  auto run_jitter = [&](std::size_t boundary, ExecResult& total) {
    for (const int sel : jitter[boundary]) {
      if (glitched_unit()) {
        fault_fired_ = true;
        // The scratch ADD runs either way; only the select update is
        // lost, so a dummy-unit glitch is always computationally absorbed.
        run_program(sched_.dummy[sel], total, sink, 1);
      } else {
        run_program(sched_.dummy[sel], total, sink);
      }
    }
  };

  PointMultResult r;
  regs_ = {};
  bus_a_ = Gf163{};
  bus_b_ = Gf163{};
  select_ = 0;
  current_key_bit_ = -1;
  current_iteration_ = 0xffff;
  reset_fault_counters();

  set_reg(Reg::kXP, x);
  ExecResult total;

  // Load + init phase (per-call immediates; cost is shape-constant).
  for (const auto& ins :
       options.neutral_init
           ? microcode::ladder_init_neutral(options.z_randomizers)
           : microcode::ladder_init(options.z_randomizers))
    run_instruction(ins, total, sink);

  // Ladder: one compiled step fragment per remaining key bit, MSB first.
  // Jitter units (ground truth iteration = 0xffff: they are not ladder
  // iterations) interleave at their drawn boundaries.
  for (std::size_t i = first_idx; i < key_bits.size(); ++i) {
    run_jitter(i - first_idx, total);
    current_key_bit_ = static_cast<std::int8_t>(key_bits[i]);
    current_iteration_ = static_cast<std::uint16_t>(i - first_idx);
    if (glitched_unit()) {
      fault_fired_ = true;
      // SELSET suppressed: the muxes keep the stale select, so the whole
      // step computes under the PREVIOUS routing, whatever key_bits[i]
      // says. Absorbed iff key_bits[i] already equals the stale select —
      // one key-bit transition leaks per shot.
      run_program(sched_.step[select_ & 1], total, sink, 1);
    } else {
      run_program(sched_.step[key_bits[i] ? 1 : 0], total, sink);
    }
    current_key_bit_ = -1;
    current_iteration_ = 0xffff;
  }
  run_jitter(iterations, total);

  // Projective outputs, read by the controller before conversion (the
  // key-independent y-recovery runs in the insecure zone, §5).
  r.x1 = reg(Reg::kX1);
  r.z1 = reg(Reg::kZ1);
  r.x2 = reg(Reg::kX2);
  r.z2 = reg(Reg::kZ2);

  if (r.z1.is_zero()) {
    r.result_is_infinity = true;
  } else {
    run_program(sched_.affine, total, sink);
    r.x_affine = reg(Reg::kX1);
  }

  r.exec = total;
  // Dynamic energy from the weighted toggle total, static from leakage
  // over the whole run.
  r.energy_j = r.exec.ge_toggles * config_.tech.energy_per_ge_toggle_j +
               config_.tech.leakage_w_per_ge * area_ge_ *
                   static_cast<double>(r.exec.cycles) / config_.tech.clock_hz;
  r.seconds = static_cast<double>(r.exec.cycles) / config_.tech.clock_hz;
  r.avg_power_w = r.seconds > 0 ? r.energy_j / r.seconds : 0.0;
  return r;
}

}  // namespace medsec::hw
