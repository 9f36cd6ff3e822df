#include "sim/processor.hh"

#include <algorithm>
#include <limits>

#include "support/logging.hh"

namespace fb::sim
{

using isa::Instruction;
using isa::Opcode;

namespace
{

/**
 * ADD, SUB, MUL, DIV and the immediate forms, shared by both
 * executors. Registers are 64-bit two's complement, so results wrap
 * modulo 2^64: computed in unsigned arithmetic, where overflow is
 * defined, and cast back. The one overflowing quotient, INT64_MIN /
 * -1, wraps to INT64_MIN (the RISC-V rule). Division by zero is the
 * caller's to reject.
 */
inline std::int64_t
arith(Opcode op, std::int64_t a, std::int64_t b)
{
    const auto ua = static_cast<std::uint64_t>(a);
    const auto ub = static_cast<std::uint64_t>(b);
    switch (op) {
      case Opcode::SUB:
        return static_cast<std::int64_t>(ua - ub);
      case Opcode::MUL:
      case Opcode::MULI:
        return static_cast<std::int64_t>(ua * ub);
      case Opcode::DIV:
        return b == -1 ? static_cast<std::int64_t>(0 - ua) : a / b;
      default:  // ADD, ADDI
        return static_cast<std::int64_t>(ua + ub);
    }
}

} // namespace

Processor::Processor(int id, const isa::Program &program,
                     barrier::BarrierUnit &unit, MemoryPort &mem,
                     int pipeline_depth, StallModel stall,
                     RandomSource jitter, double jitter_mean,
                     std::uint64_t interrupt_period,
                     std::int64_t isr_entry, int issue_width)
    : _id(id), _program(program), _unit(unit), _mem(mem),
      _pipelineDepth(pipeline_depth), _stall(stall), _jitter(jitter),
      _jitterMean(jitter_mean), _interruptPeriod(interrupt_period),
      _isrEntry(isr_entry), _issueWidth(issue_width),
      _nextInterrupt(interrupt_period)
{
    FB_ASSERT(pipeline_depth >= 1, "pipeline depth must be >= 1");
    FB_ASSERT(issue_width >= 1, "issue width must be >= 1");
    FB_ASSERT(program.finalized(), "program must be finalized");
    FB_ASSERT(interrupt_period == 0 || isr_entry >= 0,
              "interrupts enabled but no ISR entry point");
}

void
Processor::reset(int pipeline_depth, StallModel stall,
                 RandomSource jitter, double jitter_mean,
                 std::uint64_t interrupt_period, std::int64_t isr_entry,
                 int issue_width)
{
    FB_ASSERT(pipeline_depth >= 1, "pipeline depth must be >= 1");
    FB_ASSERT(issue_width >= 1, "issue width must be >= 1");
    FB_ASSERT(_program.finalized(), "program must be finalized");
    FB_ASSERT(interrupt_period == 0 || isr_entry >= 0,
              "interrupts enabled but no ISR entry point");
    _pipelineDepth = pipeline_depth;
    _stall = stall;
    _jitter = jitter;
    _jitterMean = jitter_mean;
    _interruptPeriod = interrupt_period;
    _isrEntry = isr_entry;
    _issueWidth = issue_width;
    _observer = nullptr;
    _regs.fill(0);
    _pc = 0;
    _halted = false;
    _state = CoreState::Running;
    _busyCycles = 0;
    _markerRegion = false;
    _callStack.clear();
    _issueEffRegion = false;
    _lastIssueCost = 0;
    _inIsr = false;
    _savedPc = 0;
    _nextInterrupt = interrupt_period;
    _forceInterrupt = false;
    _arrivePending = false;
    _arriveCycle = 0;
    _lastNonRegionComplete = 0;
    _instructions = 0;
    _barrierWaitCycles = 0;
    _contextSwitchCycles = 0;
    _contextSwitches = 0;
    _interruptsTaken = 0;
}

bool
Processor::bundleable(const isa::Instruction &instr)
{
    switch (instr.op) {
      case Opcode::ADD:
      case Opcode::SUB:
      case Opcode::MUL:
      case Opcode::DIV:
      case Opcode::AND:
      case Opcode::OR:
      case Opcode::XOR:
      case Opcode::SLT:
      case Opcode::SHL:
      case Opcode::SHR:
      case Opcode::ADDI:
      case Opcode::MULI:
      case Opcode::SLTI:
      case Opcode::LI:
      case Opcode::MOV:
      case Opcode::NOP:
      case Opcode::BEQ:
      case Opcode::BNE:
      case Opcode::BLT:
      case Opcode::BGE:
      case Opcode::JMP:
        return true;
      default:
        // Memory ops (single port), barrier control, linkage, and
        // HALT issue alone.
        return false;
    }
}

bool
Processor::maybeInterrupt(std::uint64_t now)
{
    if (_inIsr)
        return false;
    bool periodic = _interruptPeriod != 0 && now >= _nextInterrupt;
    if (!periodic && !_forceInterrupt)
        return false;
    if (_isrEntry < 0 ||
        static_cast<std::size_t>(_isrEntry) >= _program.size()) {
        _forceInterrupt = false;  // nowhere to vector: drop it
        return false;
    }
    // Vector to the service routine. The ISR runs outside the barrier
    // region structure: no arrivals, no crossing checks, and the
    // barrier unit's state is left untouched until IRET.
    _savedPc = _pc;
    _pc = static_cast<std::size_t>(_isrEntry);
    _inIsr = true;
    if (periodic)
        _nextInterrupt += _interruptPeriod;
    _forceInterrupt = false;
    ++_interruptsTaken;
    return true;
}

std::int64_t
Processor::reg(int idx) const
{
    FB_ASSERT(idx >= 0 && idx < isa::numRegisters, "bad register");
    return idx == 0 ? 0 : _regs[static_cast<std::size_t>(idx)];
}

void
Processor::setReg(int idx, std::int64_t value)
{
    FB_ASSERT(idx > 0 && idx < isa::numRegisters, "bad register");
    _regs[static_cast<std::size_t>(idx)] = value;
}

void
Processor::maybeArrive(std::uint64_t now)
{
    if (_arrivePending && now >= _arriveCycle) {
        _arrivePending = false;
        _unit.arrive();
        if (_observer)
            _observer->onArrive(_id, now);
    }
}

TickResult
Processor::tick(std::uint64_t now)
{
    if (_halted)
        return TickResult::Halted;

    maybeArrive(now);

    switch (_state) {
      case CoreState::Running:
        if (_busyCycles > 0) {
            --_busyCycles;
            return TickResult::Progress;
        }
        maybeInterrupt(now);
        return issueBundle(now);

      case CoreState::DrainWait:
        // Waiting for the pipeline to drain so readiness fires; the
        // arrival then leads to the normal stall path. This is a
        // bounded wait on the core's own pipeline — report Progress,
        // not BarrierWait, or the machine would misdiagnose deadlock
        // while the drain clock is still running.
        if (!_arrivePending) {
            _state = CoreState::Running;
            return issue(now);
        }
        ++_barrierWaitCycles;
        return TickResult::Progress;

      case CoreState::HwStalled:
        if (_unit.mayCross()) {
            _state = CoreState::Running;
            return issue(now);
        }
        // A stalled processor can still service interrupts — useful
        // work overlapping the wait (section 9). After IRET the
        // crossing check naturally re-evaluates.
        if (maybeInterrupt(now)) {
            _state = CoreState::Running;
            return issue(now);
        }
        _unit.tickStalled();
        ++_barrierWaitCycles;
        return TickResult::BarrierWait;

      case CoreState::SwSaving:
        ++_barrierWaitCycles;
        ++_contextSwitchCycles;
        if (_busyCycles > 0) {
            --_busyCycles;
            return TickResult::Progress;
        }
        _state = CoreState::SwSuspended;
        [[fallthrough]];

      case CoreState::SwSuspended:
        if (_unit.mayCross()) {
            _state = CoreState::SwRestoring;
            _busyCycles = _stall.restoreCycles;
            ++_barrierWaitCycles;
            ++_contextSwitchCycles;
            return TickResult::Progress;
        }
        _unit.tickStalled();
        ++_barrierWaitCycles;
        return TickResult::BarrierWait;

      case CoreState::SwRestoring:
        if (_busyCycles > 0) {
            --_busyCycles;
            ++_barrierWaitCycles;
            ++_contextSwitchCycles;
            return TickResult::Progress;
        }
        _state = CoreState::Running;
        return issue(now);
    }
    panic("unreachable core state");
}

std::uint64_t
Processor::nextEventCycle(std::uint64_t now) const
{
    constexpr std::uint64_t never =
        std::numeric_limits<std::uint64_t>::max();
    // A halted core's next tick reports Halted, which drops it from
    // the machine's active pool and may complete the all-halted
    // termination check — an event, not a wait (skipping past it
    // would let a run that is about to finish sail on into future
    // fault events the legacy loop never reaches).
    if (_halted)
        return now + 1;

    std::uint64_t next = never;
    // A pending arrival fires in maybeArrive() at the top of any
    // tick, changing the unit state (and thus the network AND) even
    // while the core is mid-countdown.
    if (_arrivePending)
        next = std::min(next, std::max(_arriveCycle, now + 1));

    switch (_state) {
      case CoreState::Running:
      case CoreState::SwSaving:
      case CoreState::SwRestoring:
        // Countdown ticks are pure accounting; the tick after the
        // countdown issues (Running/SwRestoring) or falls through to
        // SwSuspended (SwSaving).
        next = std::min(next, now + _busyCycles + 1);
        break;

      case CoreState::DrainWait:
        if (!_arrivePending)
            next = now + 1;  // transitions back to Running and issues
        break;

      case CoreState::HwStalled:
        // Synchronization already delivered (the network's pending
        // delivery no longer covers this) or a forced interrupt:
        // the very next tick acts.
        if (_unit.mayCross() || _forceInterrupt)
            return now + 1;
        // A stalled core services periodic timer interrupts.
        if (_interruptPeriod != 0 && !_inIsr)
            next = std::min(next, std::max(_nextInterrupt, now + 1));
        break;

      case CoreState::SwSuspended:
        // No interrupt servicing while switched out; only delivery
        // (an external event) wakes the task.
        if (_unit.mayCross())
            return now + 1;
        break;
    }
    return next;
}

bool
Processor::isPrivateTick(std::uint64_t now) const
{
    // Halting (drops the core from the active pool), firing a pending
    // arrival, and every non-Running state (drain waits, stalls and
    // context switches all read or mutate the barrier unit) are
    // machine-visible.
    if (_halted || _arrivePending || _state != CoreState::Running)
        return false;

    // A busy countdown is pure local accounting.
    if (_busyCycles > 0)
        return true;

    // The tick would issue. Mirror maybeInterrupt(): a due interrupt
    // with a valid ISR entry vectors (a private PC/flag update) and
    // the issue happens at the ISR entry with the barrier structure
    // bypassed; an invalid entry drops the force bit and issues at
    // _pc as usual.
    std::size_t pc = _pc;
    bool in_isr = _inIsr;
    if (!_inIsr &&
        ((_interruptPeriod != 0 && now >= _nextInterrupt) ||
         _forceInterrupt)) {
        if (_isrEntry >= 0 &&
            static_cast<std::size_t>(_isrEntry) < _program.size()) {
            pc = static_cast<std::size_t>(_isrEntry);
            in_isr = true;
        }
    }

    // Running off the end halts — machine-visible.
    if (pc >= _program.size())
        return false;

    const Instruction &instr = _program.at(pc);
    switch (instr.op) {
      case Opcode::LD:
      case Opcode::ST:
      case Opcode::FAA:     // memory port (bus, caches, counters)
      case Opcode::SETTAG:
      case Opcode::SETMASK: // barrier-unit mutation
      case Opcode::HALT:
        return false;
      default:
        break;
    }
    // Later bundle slots only accept ALU/branch ops and never change
    // the effective region, so checking the leading slot suffices.

    if (in_isr)
        return true;  // ISRs bypass the barrier structure entirely
    if (!_unit.participating())
        return true;  // tag 0: no barrier interaction at all

    const bool inherited = !_callStack.empty() && _callStack.back();
    const bool effective_region =
        instr.inRegion || _markerRegion ||
        instr.op == Opcode::BRENTER || inherited;
    if (effective_region) {
        // Region instructions only touch the unit when they arm the
        // arrival, which needs the NonBarrier state; once armed (or
        // once the pulse is up) region execution is the fuzzy
        // barrier's free overlap and is private.
        return _unit.state() != barrier::BarrierState::NonBarrier;
    }
    // A non-region instruction with the unit mid-episode crosses,
    // stalls or drains — all unit interactions. Only the idle unit
    // lets it issue privately.
    return _unit.state() == barrier::BarrierState::NonBarrier;
}

std::uint64_t
Processor::runPrivate(std::uint64_t next, std::uint64_t stop)
{
    while (next < stop && isPrivateTick(next)) {
        // A private tick implies Running, so the decoded loop's entry
        // conditions are met whenever a decoded program is installed.
        // Multi-issue cores keep the generic path: isPrivateTick only
        // vouches for the leading bundle slot.
        if (_decoded != nullptr && _issueWidth == 1) {
            const std::uint64_t advanced = runDecoded(next, stop);
            FB_ASSERT(advanced > next,
                      "decoded loop diverged from isPrivateTick on cpu "
                          << _id << " at cycle " << next);
            next = advanced;
            continue;
        }
        if (_busyCycles > 0) {
            const std::uint64_t k = std::min<std::uint64_t>(
                _busyCycles, stop - next);
            advanceWait(k);
            next += k;
            continue;
        }
        tick(next);
        ++next;
    }
    return next;
}

/*
 * Threaded-code dispatch for the decoded private loop. With GNU
 * labels-as-values each pre-decoded opcode jumps straight to its
 * handler through a flat label table; elsewhere the same handler
 * bodies compile as a dense switch.
 */
#if defined(__GNUC__) || defined(__clang__)
#define FB_THREADED_DISPATCH 1
#define FB_OP(name) op_##name:
#define FB_DONE goto op_issued
#else
#define FB_THREADED_DISPATCH 0
#define FB_OP(name) case Opcode::name:
#define FB_DONE break
#endif

std::uint64_t
Processor::runDecoded(std::uint64_t next, std::uint64_t stop)
{
    const DecodedInsn *const code = _decoded->code.data();
    const std::size_t code_size = _decoded->code.size();

#if FB_THREADED_DISPATCH
    // Indexed by Opcode value; the excluded (non-private) opcodes
    // share a panicking handler — they can never reach the dispatch.
    const void *const labels[] = {
        &&op_ADD, &&op_SUB, &&op_MUL, &&op_DIV, &&op_AND, &&op_OR,
        &&op_XOR, &&op_SLT, &&op_SHL, &&op_SHR, &&op_ADDI, &&op_MULI,
        &&op_SLTI, &&op_LI, &&op_MOV, &&op_LD, &&op_ST, &&op_FAA,
        &&op_BEQ, &&op_BNE, &&op_BLT, &&op_BGE, &&op_JMP, &&op_CALL,
        &&op_RET, &&op_IRET, &&op_SETTAG, &&op_SETMASK, &&op_BRENTER,
        &&op_BREXIT, &&op_NOP, &&op_HALT};
#endif

    // Loop constants. During a private stretch the unit's tag and the
    // NonBarrier/armed distinction can only be changed by this core's
    // own excluded actions (SETTAG/SETMASK end the stretch) — a
    // concurrent delivery moves Ready to Synced without crossing the
    // NonBarrier boundary (see isPrivateTick) — so participation and
    // the NonBarrier test hold for the whole call.
    const bool participating = _unit.participating();
    const bool non_barrier =
        _unit.state() == barrier::BarrierState::NonBarrier;
    const std::uint64_t drain =
        static_cast<std::uint64_t>(_pipelineDepth) - 1;

    while (next < stop) {
        if (_busyCycles > 0) {
            // Busy countdowns are pure accounting (advanceWait's
            // Running branch), bulk-applied.
            const std::uint64_t k = std::min<std::uint64_t>(
                _busyCycles, stop - next);
            _busyCycles -= static_cast<std::uint32_t>(k);
            next += k;
            continue;
        }

        // Mirror maybeInterrupt() without committing: whether this
        // tick is private is decided first, mutations follow.
        std::size_t pc = _pc;
        bool in_isr = _inIsr;
        bool vector = false;
        bool drop_force = false;
        bool periodic = false;
        if (!_inIsr) {
            periodic = _interruptPeriod != 0 && next >= _nextInterrupt;
            if (periodic || _forceInterrupt) {
                if (_isrEntry >= 0 &&
                    static_cast<std::size_t>(_isrEntry) < code_size) {
                    pc = static_cast<std::size_t>(_isrEntry);
                    in_isr = true;
                    vector = true;
                } else {
                    drop_force = true;  // nowhere to vector: drop it
                }
            }
        }

        if (pc >= code_size)
            break;  // running off the end halts — machine-visible
        const DecodedInsn &di = code[pc];
        if (!di.privateOp)
            break;  // memory / barrier-control / HALT: coordinator's

        bool effective_region = false;
        if (!in_isr) {
            const bool inherited =
                !_callStack.empty() && _callStack.back();
            effective_region =
                di.staticRegion || _markerRegion || inherited;
            // Not private iff the issue would touch the unit: arming
            // (region while NonBarrier) or crossing/stalling
            // (non-region while armed).
            if (participating && effective_region == non_barrier)
                break;
        }

        // Committed: this tick is private. Apply the interrupt
        // decision (the deferred maybeInterrupt mutations), then
        // issue. The barrier block of issue() is a no-op on every
        // private tick, so execution reduces to the dispatch below.
        if (vector) {
            _savedPc = _pc;
            _pc = pc;
            _inIsr = true;
            if (periodic)
                _nextInterrupt += _interruptPeriod;
            _forceInterrupt = false;
            ++_interruptsTaken;
        } else if (drop_force) {
            _forceInterrupt = false;
        }
        _issueEffRegion = effective_region;

        std::uint32_t cost = di.cost;
        std::size_t next_pc = pc + 1;

// Direct register-file access: r0 reads as 0 because nothing ever
// writes _regs[0] (FB_WR guards rd != 0, mirroring executeAt).
#define FB_R(idx) _regs[static_cast<std::size_t>(idx)]
#define FB_WR(v)                                                       \
    do {                                                               \
        if (di.rd != 0)                                                \
            FB_R(di.rd) = (v);                                         \
    } while (0)

#if FB_THREADED_DISPATCH
        goto *labels[static_cast<std::size_t>(di.op)];
#else
        switch (di.op) {
#endif
        FB_OP(ADD) FB_WR(arith(Opcode::ADD, FB_R(di.rs1), FB_R(di.rs2)));
        FB_DONE;
        FB_OP(SUB) FB_WR(arith(Opcode::SUB, FB_R(di.rs1), FB_R(di.rs2)));
        FB_DONE;
        FB_OP(MUL) FB_WR(arith(Opcode::MUL, FB_R(di.rs1), FB_R(di.rs2)));
        FB_DONE;
        FB_OP(DIV) {
            FB_ASSERT(FB_R(di.rs2) != 0, "division by zero at pc "
                                             << pc << " on cpu " << _id);
            FB_WR(arith(Opcode::DIV, FB_R(di.rs1), FB_R(di.rs2)));
            FB_DONE;
        }
        FB_OP(AND) FB_WR(FB_R(di.rs1) & FB_R(di.rs2)); FB_DONE;
        FB_OP(OR) FB_WR(FB_R(di.rs1) | FB_R(di.rs2)); FB_DONE;
        FB_OP(XOR) FB_WR(FB_R(di.rs1) ^ FB_R(di.rs2)); FB_DONE;
        FB_OP(SLT) FB_WR(FB_R(di.rs1) < FB_R(di.rs2) ? 1 : 0); FB_DONE;
        FB_OP(SHL) FB_WR(FB_R(di.rs1) << (FB_R(di.rs2) & 63)); FB_DONE;
        FB_OP(SHR) FB_WR(FB_R(di.rs1) >> (FB_R(di.rs2) & 63)); FB_DONE;
        FB_OP(ADDI) FB_WR(arith(Opcode::ADDI, FB_R(di.rs1), di.imm));
        FB_DONE;
        FB_OP(MULI) FB_WR(arith(Opcode::MULI, FB_R(di.rs1), di.imm));
        FB_DONE;
        FB_OP(SLTI) FB_WR(FB_R(di.rs1) < di.imm ? 1 : 0); FB_DONE;
        FB_OP(LI) FB_WR(di.imm); FB_DONE;
        FB_OP(MOV) FB_WR(FB_R(di.rs1)); FB_DONE;
        FB_OP(BEQ) {
            if (FB_R(di.rs1) == FB_R(di.rs2))
                next_pc = static_cast<std::size_t>(di.imm);
            FB_DONE;
        }
        FB_OP(BNE) {
            if (FB_R(di.rs1) != FB_R(di.rs2))
                next_pc = static_cast<std::size_t>(di.imm);
            FB_DONE;
        }
        FB_OP(BLT) {
            if (FB_R(di.rs1) < FB_R(di.rs2))
                next_pc = static_cast<std::size_t>(di.imm);
            FB_DONE;
        }
        FB_OP(BGE) {
            if (FB_R(di.rs1) >= FB_R(di.rs2))
                next_pc = static_cast<std::size_t>(di.imm);
            FB_DONE;
        }
        FB_OP(JMP) next_pc = static_cast<std::size_t>(di.imm); FB_DONE;
        FB_OP(CALL) {
            FB_ASSERT(_callStack.size() < 4096,
                      "call stack overflow on cpu " << _id);
            FB_WR(static_cast<std::int64_t>(pc + 1));
            _callStack.push_back(_issueEffRegion);
            next_pc = static_cast<std::size_t>(di.imm);
            FB_DONE;
        }
        FB_OP(RET) {
            FB_ASSERT(!_callStack.empty(),
                      "RET without matching CALL on cpu " << _id);
            _callStack.pop_back();
            next_pc = static_cast<std::size_t>(FB_R(di.rs1));
            FB_DONE;
        }
        FB_OP(IRET) {
            FB_ASSERT(_inIsr, "IRET outside an interrupt service routine");
            _inIsr = false;
            next_pc = _savedPc;
            FB_DONE;
        }
        FB_OP(BRENTER) {
            FB_ASSERT(!_inIsr,
                      "region markers are not allowed inside ISRs");
            _markerRegion = true;
            FB_DONE;
        }
        FB_OP(BREXIT) {
            FB_ASSERT(!_inIsr,
                      "region markers are not allowed inside ISRs");
            _markerRegion = false;
            FB_DONE;
        }
        FB_OP(NOP) FB_DONE;
        FB_OP(LD)
        FB_OP(ST)
        FB_OP(FAA)
        FB_OP(SETTAG)
        FB_OP(SETMASK)
        FB_OP(HALT)
        panic("non-private opcode reached the decoded dispatch");
#if !FB_THREADED_DISPATCH
        }
#endif

#if FB_THREADED_DISPATCH
    op_issued:
#endif
#undef FB_R
#undef FB_WR

        if (_jitterMean > 0.0)
            cost += static_cast<std::uint32_t>(
                _jitter.nextJitter(_jitterMean));
        _pc = next_pc;
        _lastIssueCost = cost;
        ++_instructions;
        _busyCycles = cost > 0 ? cost - 1 : 0;
        if (!effective_region) {
            _lastNonRegionComplete = next + cost - 1 + drain;
        }
        ++next;
    }
    return next;
}

#undef FB_OP
#undef FB_DONE
#undef FB_THREADED_DISPATCH

void
Processor::advanceWait(std::uint64_t cycles)
{
    if (_halted || cycles == 0)
        return;
    switch (_state) {
      case CoreState::Running:
        FB_ASSERT(cycles <= _busyCycles,
                  "fast-forward skipped past an issue on cpu " << _id);
        _busyCycles -= static_cast<std::uint32_t>(cycles);
        break;

      case CoreState::DrainWait:
        _barrierWaitCycles += cycles;
        break;

      case CoreState::HwStalled:
        _unit.tickStalledFor(cycles);
        _barrierWaitCycles += cycles;
        break;

      case CoreState::SwSaving:
      case CoreState::SwRestoring:
        FB_ASSERT(cycles <= _busyCycles,
                  "fast-forward skipped past a context switch on cpu "
                      << _id);
        _busyCycles -= static_cast<std::uint32_t>(cycles);
        _barrierWaitCycles += cycles;
        _contextSwitchCycles += cycles;
        break;

      case CoreState::SwSuspended:
        _unit.tickStalledFor(cycles);
        _barrierWaitCycles += cycles;
        break;
    }
}

TickResult
Processor::beginStall(std::uint64_t now)
{
    _unit.noteStalled();
    if (_stall.kind == StallKind::Hardware) {
        _state = CoreState::HwStalled;
        _unit.tickStalled();
        ++_barrierWaitCycles;
        return TickResult::BarrierWait;
    }
    // Software: the task's context is saved so the OS can run
    // something else; after synchronization it must be restored.
    ++_contextSwitches;
    _state = CoreState::SwSaving;
    _busyCycles = _stall.saveCycles;
    ++_barrierWaitCycles;
    ++_contextSwitchCycles;
    (void)now;
    return TickResult::Progress;
}

TickResult
Processor::issueBundle(std::uint64_t now)
{
    if (_issueWidth == 1)
        return issue(now);

    // VLIW-style multi-issue: grab up to issueWidth consecutive
    // instructions with no intra-bundle register dependences, all in
    // the same region, at most one control transfer (which closes the
    // bundle). The bundle occupies the core for the longest slot.
    std::uint32_t bundle_cost = 0;
    bool wrote[isa::numRegisters] = {};
    TickResult result = TickResult::Progress;

    for (int slot = 0; slot < _issueWidth; ++slot) {
        if (_halted || _pc >= _program.size()) {
            if (slot == 0)
                return issue(now);  // reports Halted properly
            break;
        }
        const Instruction &next = _program.at(_pc);
        if (slot > 0) {
            if (!bundleable(next))
                break;
            const Instruction &first_like = next;
            // A bundle never spans a region boundary.
            if (first_like.inRegion != _issueEffRegion)
                break;
            // Register hazards against earlier slots.
            bool hazard = false;
            auto touches = [&](int r) {
                return r != 0 && wrote[static_cast<std::size_t>(r)];
            };
            switch (isa::operandKind(next.op)) {
              case isa::OperandKind::RRR:
                hazard = touches(next.rs1) || touches(next.rs2) ||
                         touches(next.rd);
                break;
              case isa::OperandKind::RRI:
              case isa::OperandKind::RR:
                hazard = touches(next.rs1) || touches(next.rd);
                break;
              case isa::OperandKind::RI:
                hazard = touches(next.rd);
                break;
              case isa::OperandKind::BranchRR:
                hazard = touches(next.rs1) || touches(next.rs2);
                break;
              case isa::OperandKind::BranchNone:
                hazard = false;
                break;
              default:
                hazard = true;  // not bundleable anyway
                break;
            }
            if (hazard)
                break;
        }

        std::size_t expected_next = _pc + 1;
        bool was_branch = isa::isBranch(next.op);
        int dest = next.rd;

        result = issue(now);
        if (result != TickResult::Progress)
            return result;  // stall/halt; earlier slots already ran
        bundle_cost = std::max(bundle_cost, _lastIssueCost);
        if (dest != 0 && !was_branch)
            wrote[static_cast<std::size_t>(dest)] = true;
        // A taken control transfer closes the bundle.
        if (_pc != expected_next)
            break;
        // Marker/linkage/memory effects never occur past slot 0 by
        // construction; slot 0 with such an op still closes here.
        if (slot == 0 && !bundleable(next))
            break;
    }

    _busyCycles = bundle_cost > 0 ? bundle_cost - 1 : 0;
    return result;
}

TickResult
Processor::issue(std::uint64_t now)
{
    if (_pc >= _program.size()) {
        _halted = true;
        return TickResult::Halted;
    }

    const Instruction &instr = _program.at(_pc);
    const bool inherited = !_callStack.empty() && _callStack.back();
    const bool effective_region =
        !_inIsr && (instr.inRegion || _markerRegion ||
                    instr.op == Opcode::BRENTER || inherited);
    _issueEffRegion = effective_region;

    if (_inIsr) {
        // Service routines bypass the barrier structure entirely.
    } else if (effective_region) {
        // Entering (or continuing in) a barrier region.
        if (_unit.participating() &&
            _unit.state() == barrier::BarrierState::NonBarrier &&
            !_arrivePending) {
            // Readiness fires when the preceding non-barrier region
            // has drained from the pipeline (section 2: entering the
            // region is not the same as exiting the preceding one).
            _arrivePending = true;
            _arriveCycle = std::max(now, _lastNonRegionComplete);
            maybeArrive(now);
        }
    } else {
        // About to execute a non-region instruction. If an episode is
        // armed (or arming), the barrier must have synchronized first.
        // (Never reached while in an ISR.)
        if (_arrivePending) {
            _state = CoreState::DrainWait;
            ++_barrierWaitCycles;
            return TickResult::Progress;
        }
        if (_unit.participating()) {
            auto st = _unit.state();
            if (st == barrier::BarrierState::Ready ||
                st == barrier::BarrierState::Stalled) {
                return beginStall(now);
            }
            if (st == barrier::BarrierState::Synced) {
                _unit.cross();
                if (_observer)
                    _observer->onCross(_id, now);
            }
        }
    }

    std::uint32_t cost = executeAt(now);
    _lastIssueCost = cost;
    ++_instructions;
    _busyCycles = cost > 0 ? cost - 1 : 0;

    // Track when this instruction leaves the pipeline, for readiness:
    // the last execute cycle is now + cost - 1, and the instruction
    // drains pipelineDepth - 1 cycles later.
    if (!effective_region) {
        _lastNonRegionComplete =
            now + cost - 1 + static_cast<std::uint64_t>(_pipelineDepth) - 1;
    }
    return TickResult::Progress;
}

std::uint32_t
Processor::executeAt(std::uint64_t now)
{
    const Instruction &instr = _program.at(_pc);
    std::uint32_t cost = static_cast<std::uint32_t>(baseLatency(instr.op));
    std::size_t next_pc = _pc + 1;

    auto rs1 = [&] { return reg(instr.rs1); };
    auto rs2 = [&] { return reg(instr.rs2); };
    auto write_rd = [&](std::int64_t v) {
        if (instr.rd != 0)
            _regs[static_cast<std::size_t>(instr.rd)] = v;
    };

    switch (instr.op) {
      case Opcode::ADD: write_rd(arith(Opcode::ADD, rs1(), rs2())); break;
      case Opcode::SUB: write_rd(arith(Opcode::SUB, rs1(), rs2())); break;
      case Opcode::MUL: write_rd(arith(Opcode::MUL, rs1(), rs2())); break;
      case Opcode::DIV: {
        FB_ASSERT(rs2() != 0, "division by zero at pc " << _pc
                                                        << " on cpu " << _id);
        write_rd(arith(Opcode::DIV, rs1(), rs2()));
        break;
      }
      case Opcode::AND: write_rd(rs1() & rs2()); break;
      case Opcode::OR: write_rd(rs1() | rs2()); break;
      case Opcode::XOR: write_rd(rs1() ^ rs2()); break;
      case Opcode::SLT: write_rd(rs1() < rs2() ? 1 : 0); break;
      case Opcode::SHL: write_rd(rs1() << (rs2() & 63)); break;
      case Opcode::SHR: write_rd(rs1() >> (rs2() & 63)); break;
      case Opcode::ADDI:
        write_rd(arith(Opcode::ADDI, rs1(), instr.imm));
        break;
      case Opcode::MULI:
        write_rd(arith(Opcode::MULI, rs1(), instr.imm));
        break;
      case Opcode::SLTI: write_rd(rs1() < instr.imm ? 1 : 0); break;
      case Opcode::LI: write_rd(instr.imm); break;
      case Opcode::MOV: write_rd(rs1()); break;

      case Opcode::LD: {
        std::size_t addr = static_cast<std::size_t>(rs1() + instr.imm);
        std::uint32_t mem_cycles = 0;
        write_rd(_mem.read(addr, now, mem_cycles));
        cost += mem_cycles;
        break;
      }
      case Opcode::ST: {
        std::size_t addr = static_cast<std::size_t>(rs1() + instr.imm);
        std::uint32_t mem_cycles = 0;
        _mem.write(addr, rs2(), now, mem_cycles);
        cost += mem_cycles;
        break;
      }
      case Opcode::FAA: {
        // Atomic within a cycle: processors are ticked sequentially,
        // so the read-modify-write cannot interleave.
        std::size_t addr = static_cast<std::size_t>(rs1() + instr.imm);
        std::uint32_t read_cycles = 0;
        std::int64_t old = _mem.read(addr, now, read_cycles);
        std::uint32_t write_cycles = 0;
        _mem.write(addr, old + rs2(), now, write_cycles);
        write_rd(old);
        cost += read_cycles;
        break;
      }

      case Opcode::BEQ:
        if (rs1() == rs2())
            next_pc = static_cast<std::size_t>(instr.imm);
        break;
      case Opcode::BNE:
        if (rs1() != rs2())
            next_pc = static_cast<std::size_t>(instr.imm);
        break;
      case Opcode::BLT:
        if (rs1() < rs2())
            next_pc = static_cast<std::size_t>(instr.imm);
        break;
      case Opcode::BGE:
        if (rs1() >= rs2())
            next_pc = static_cast<std::size_t>(instr.imm);
        break;
      case Opcode::JMP:
        next_pc = static_cast<std::size_t>(instr.imm);
        break;
      case Opcode::CALL:
        FB_ASSERT(_callStack.size() < 4096,
                  "call stack overflow on cpu " << _id);
        write_rd(static_cast<std::int64_t>(_pc + 1));
        _callStack.push_back(_issueEffRegion);
        next_pc = static_cast<std::size_t>(instr.imm);
        break;
      case Opcode::RET:
        FB_ASSERT(!_callStack.empty(),
                  "RET without matching CALL on cpu " << _id);
        _callStack.pop_back();
        next_pc = static_cast<std::size_t>(rs1());
        break;
      case Opcode::IRET:
        FB_ASSERT(_inIsr, "IRET outside an interrupt service routine");
        _inIsr = false;
        next_pc = _savedPc;
        break;

      case Opcode::SETTAG:
        _unit.setTag(static_cast<std::uint32_t>(instr.imm));
        break;
      case Opcode::SETMASK:
        // imm -1 is the wide form: every processor in the machine
        // (the 64-bit literal mask cannot name processors >= 63).
        if (instr.imm == -1)
            _unit.setMaskAll();
        else
            _unit.setMask(static_cast<std::uint64_t>(instr.imm));
        break;
      case Opcode::BRENTER:
        FB_ASSERT(!_inIsr, "region markers are not allowed inside ISRs");
        _markerRegion = true;
        break;
      case Opcode::BREXIT:
        FB_ASSERT(!_inIsr, "region markers are not allowed inside ISRs");
        _markerRegion = false;
        break;

      case Opcode::NOP:
        break;
      case Opcode::HALT:
        _halted = true;
        break;
    }

    if (_jitterMean > 0.0)
        cost += static_cast<std::uint32_t>(_jitter.nextJitter(_jitterMean));

    _pc = next_pc;
    return cost;
}

void
Processor::encodeState(snapshot::Encoder &e) const
{
    for (std::int64_t r : _regs)
        e.i64(r);
    e.u64(_pc);
    e.b(_halted);
    e.u8(static_cast<std::uint8_t>(_state));
    e.u32(_busyCycles);
    e.b(_markerRegion);
    e.boolVec(_callStack);
    e.b(_issueEffRegion);
    e.u32(_lastIssueCost);
    e.b(_inIsr);
    e.u64(_savedPc);
    e.u64(_nextInterrupt);
    e.b(_forceInterrupt);
    e.b(_arrivePending);
    e.u64(_arriveCycle);
    e.u64(_lastNonRegionComplete);
    e.u64(_instructions);
    e.u64(_barrierWaitCycles);
    e.u64(_contextSwitchCycles);
    e.u64(_contextSwitches);
    e.u64(_interruptsTaken);
    for (std::uint64_t s : _jitter.state())
        e.u64(s);
}

bool
Processor::decodeState(snapshot::Decoder &d)
{
    for (std::int64_t &r : _regs)
        r = d.i64();
    _pc = static_cast<std::size_t>(d.u64());
    _halted = d.b();
    const std::uint8_t state = d.u8();
    _state = static_cast<CoreState>(state);
    _busyCycles = d.u32();
    _markerRegion = d.b();
    d.boolVec(_callStack);
    _issueEffRegion = d.b();
    _lastIssueCost = d.u32();
    _inIsr = d.b();
    _savedPc = static_cast<std::size_t>(d.u64());
    _nextInterrupt = d.u64();
    _forceInterrupt = d.b();
    _arrivePending = d.b();
    _arriveCycle = d.u64();
    _lastNonRegionComplete = d.u64();
    _instructions = d.u64();
    _barrierWaitCycles = d.u64();
    _contextSwitchCycles = d.u64();
    _contextSwitches = d.u64();
    _interruptsTaken = d.u64();
    std::array<std::uint64_t, 4> jitter_state{};
    for (std::uint64_t &s : jitter_state)
        s = d.u64();
    _jitter.setState(jitter_state);
    return d.ok() && _pc <= _program.size() &&
           state <= static_cast<std::uint8_t>(CoreState::SwRestoring);
}

} // namespace fb::sim
