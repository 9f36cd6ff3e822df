/**
 * @file
 * The simulated in-order processor core.
 */

#ifndef FB_SIM_PROCESSOR_HH
#define FB_SIM_PROCESSOR_HH

#include <array>
#include <cstdint>
#include <vector>

#include "barrier/unit.hh"
#include "isa/program.hh"
#include "sim/config.hh"
#include "sim/decoded.hh"
#include "snapshot/codec.hh"
#include "support/random.hh"

namespace fb::sim
{

/**
 * Timing interface to the memory hierarchy (cache + bus + DRAM),
 * implemented by the Machine.
 */
class MemoryPort
{
  public:
    virtual ~MemoryPort() = default;

    /** Load a word; @p cycles receives the access latency. */
    virtual std::int64_t read(std::size_t addr, std::uint64_t now,
                              std::uint32_t &cycles) = 0;

    /** Store a word; @p cycles receives the access latency. */
    virtual void write(std::size_t addr, std::int64_t value,
                       std::uint64_t now, std::uint32_t &cycles) = 0;
};

/** Observer for barrier-related execution events (safety oracle). */
class ExecutionObserver
{
  public:
    virtual ~ExecutionObserver() = default;

    /** Processor @p p asserted readiness at @p cycle. */
    virtual void onArrive(int p, std::uint64_t cycle) = 0;

    /** Processor @p p crossed the barrier (first post-region
     * non-barrier instruction) at @p cycle. */
    virtual void onCross(int p, std::uint64_t cycle) = 0;
};

/** What a core did during one tick. */
enum class TickResult
{
    Halted,      ///< the stream has ended
    Progress,    ///< executing (busy or issued an instruction)
    BarrierWait, ///< blocked waiting for barrier synchronization
};

/**
 * A scalar in-order core executing one Program.
 *
 * Timing model: each instruction occupies the core for its base
 * latency plus memory-hierarchy latency plus optional random jitter.
 * The fuzzy-barrier rules from section 2 of the paper are enforced at
 * issue: a region instruction arms the barrier unit (readiness is
 * delayed by pipeline drain when pipelineDepth > 1), and a non-region
 * instruction after an armed region may only issue once the unit has
 * synchronized — otherwise the core stalls under the configured
 * StallModel.
 */
class Processor
{
  public:
    /**
     * @param id processor index
     * @param program finalized instruction stream
     * @param unit this processor's barrier hardware
     * @param mem timing port to the memory hierarchy
     * @param pipeline_depth in-order pipeline depth (>= 1)
     * @param stall stall cost model
     * @param jitter per-instruction jitter source
     * @param jitter_mean mean jitter cycles (0 = none)
     */
    Processor(int id, const isa::Program &program,
              barrier::BarrierUnit &unit, MemoryPort &mem,
              int pipeline_depth, StallModel stall, RandomSource jitter,
              double jitter_mean, std::uint64_t interrupt_period = 0,
              std::int64_t isr_entry = -1, int issue_width = 1);

    /** Install the (optional) execution observer. */
    void setObserver(ExecutionObserver *observer) { _observer = observer; }

    /**
     * Return every mutable field (registers, PC, FSM, pipeline and
     * interrupt machinery, counters) to its construction-time value
     * and take fresh timing parameters — equivalent to re-running the
     * constructor against the same program reference and barrier
     * unit. Machine reuse: the Machine resets the referenced program
     * slot and unit separately, then calls this.
     */
    void reset(int pipeline_depth, StallModel stall, RandomSource jitter,
               double jitter_mean, std::uint64_t interrupt_period = 0,
               std::int64_t isr_entry = -1, int issue_width = 1);

    /** Advance one cycle. */
    TickResult tick(std::uint64_t now);

    /**
     * Earliest cycle after @p now at which tick() does anything other
     * than the fixed per-cycle wait accounting of the current state
     * (UINT64_MAX = never: blocked on an external event such as
     * barrier delivery). A busy execute wakes when the countdown
     * ends; a pending arrival fires at its drain cycle; a stalled
     * core wakes at its next timer interrupt or when the unit has
     * already synchronized. The fast-forward core jumps to the
     * minimum of these across processors (plus network / injector /
     * watchdog events) and calls advanceWait() for the gap.
     */
    std::uint64_t nextEventCycle(std::uint64_t now) const;

    /**
     * Bulk-apply @p cycles consecutive pure-wait ticks of the current
     * state: exactly the counter updates (busy countdown, barrier
     * wait, stall, context-switch cycles) that @p cycles calls to
     * tick() would have made, given that no event fires in between —
     * the caller guarantees this by never skipping past
     * nextEventCycle(). Keeps every RunResult counter bit-identical
     * to the per-cycle loop.
     */
    void advanceWait(std::uint64_t cycles);

    /**
     * What tick() reports on a pure-wait cycle of the current state:
     * true for Progress (busy countdowns, pipeline drains, context
     * save/restore), false for BarrierWait (hardware stall, suspended
     * task) or Halted. The fast-forward core needs this to evaluate
     * the legacy loop's deadlock condition for cycles it would skip:
     * a machine whose waiters all report BarrierWait deadlocks on the
     * very next cycle, so no skip may jump past it.
     */
    bool progressWhileWaiting() const
    {
        if (_halted)
            return false;
        switch (_state) {
          case CoreState::Running:
          case CoreState::DrainWait:
          case CoreState::SwSaving:
          case CoreState::SwRestoring:
            return true;
          case CoreState::HwStalled:
          case CoreState::SwSuspended:
            return false;
        }
        return false;
    }

    /**
     * True when tick(@p now) would touch only this processor's own
     * state: no memory-port access, no barrier-unit mutation, no halt
     * and no observer callback. Such a tick may be executed by a
     * shard thread ahead of the global clock (section 17): its effect
     * is invariant under any interleaving with other processors'
     * actions, and the predicate itself is skew-invariant — every
     * input it reads is either processor-private or (for the unit's
     * participating tag and the NonBarrier/armed distinction) can
     * only be changed by this processor's own excluded actions, never
     * by a concurrent delivery, which moves Ready to Synced without
     * crossing the NonBarrier boundary.
     *
     * Conservative: may return false for some ticks that would in
     * fact be private (costing speedup, never correctness).
     */
    bool isPrivateTick(std::uint64_t now) const;

    /**
     * Run consecutive private ticks from cycle @p next up to
     * (excluding) @p stop, returning the first cycle not executed —
     * either @p stop or the first cycle whose tick is not private.
     * Busy countdowns are bulk-applied via advanceWait(), which is
     * bit-identical to ticking them one by one. With a decoded
     * program installed (and scalar issue), the stretch runs through
     * the threaded-code loop instead of per-cycle tick() calls —
     * same state transitions, same counters, same PRNG draws.
     */
    std::uint64_t runPrivate(std::uint64_t next, std::uint64_t stop);

    /**
     * Install (or clear, with nullptr) the pre-decoded twin of the
     * bound program. The caller owns the DecodedProgram's lifetime
     * (the Machine keeps a shared_ptr per slot) and guarantees it was
     * decoded from the exact program this core executes.
     */
    void setDecoded(const DecodedProgram *decoded) { _decoded = decoded; }

    /** True if @p instr may occupy a non-leading bundle slot. */
    static bool bundleable(const isa::Instruction &instr);

    /** True once HALT executed or the stream ran off the end. */
    bool halted() const { return _halted; }

    /** Processor index. */
    int id() const { return _id; }

    /** Register file inspection (r0 is always 0). */
    std::int64_t reg(int idx) const;

    /** Set a register before the run starts (argument passing). */
    void setReg(int idx, std::int64_t value);

    /** Dynamic instructions executed. */
    std::uint64_t instructions() const { return _instructions; }

    /** Cycles blocked on barrier synchronization (incl. save/restore). */
    std::uint64_t barrierWaitCycles() const { return _barrierWaitCycles; }

    /** Cycles spent on context save/restore (software stall model). */
    std::uint64_t contextSwitchCycles() const
    {
        return _contextSwitchCycles;
    }

    /** Number of context save/restore pairs performed. */
    std::uint64_t contextSwitches() const { return _contextSwitches; }

    /** Interrupts taken. */
    std::uint64_t interruptsTaken() const { return _interruptsTaken; }

    /** Current procedure call depth. */
    std::size_t callDepth() const { return _callStack.size(); }

    /** True while executing an interrupt service routine. */
    bool inIsr() const { return _inIsr; }

    /** Current program counter (for debugging / deadlock reports). */
    std::size_t pc() const { return _pc; }

    /**
     * Fault injection: fail-stop the core immediately. The barrier
     * unit's state is left latched exactly as the dying hardware
     * would leave it — a processor killed while Ready keeps
     * broadcasting its pulse, which is precisely the hazard the
     * watchdog + epoch recovery protocol exists to clear.
     */
    void kill() { _halted = true; }

    /**
     * Fault injection: request an interrupt regardless of the timer
     * period. Taken at the next issue opportunity if an ISR entry is
     * configured (silently dropped otherwise); does not disturb the
     * periodic schedule.
     */
    void forceInterrupt() { _forceInterrupt = true; }

    /**
     * Serialize the full mutable core state (registers, PC, FSM,
     * pipeline countdowns, interrupt machinery, jitter PRNG state and
     * counters). The Program itself is not captured — restore requires
     * the host to have loaded identical programs, which the snapshot
     * header's config fingerprint enforces.
     */
    void encodeState(snapshot::Encoder &e) const;

    /** Restore state captured with encodeState(). */
    bool decodeState(snapshot::Decoder &d);

  private:
    enum class CoreState
    {
        Running,      ///< normal execution
        DrainWait,    ///< pipelined: waiting for readiness drain
        HwStalled,    ///< hardware stall at region exit
        SwSaving,     ///< software stall: context save in progress
        SwSuspended,  ///< software stall: task switched out
        SwRestoring,  ///< software stall: context restore in progress
                      ///< (last: decodeState rejects larger bytes)
    };

    /** Fire a pending (pipeline-delayed) arrival if due. */
    void maybeArrive(std::uint64_t now);

    /** Vector to the ISR if a timer interrupt is due. */
    bool maybeInterrupt(std::uint64_t now);

    /** Issue and execute the instruction at _pc. */
    TickResult issue(std::uint64_t now);

    /** Issue up to issueWidth independent instructions this cycle. */
    TickResult issueBundle(std::uint64_t now);

    /**
     * The threaded-code core of runPrivate(): execute consecutive
     * private ticks from @p next (whose tick the caller has verified
     * is private, with the core Running) to @p stop through the
     * decoded dispatch loop. Returns the first cycle not executed;
     * always makes progress.
     */
    std::uint64_t runDecoded(std::uint64_t next, std::uint64_t stop);

    /** Begin a barrier-exit stall under the configured model. */
    TickResult beginStall(std::uint64_t now);

    /** Per-instruction cost beyond the busy countdown already paid. */
    std::uint32_t executeAt(std::uint64_t now);

    int _id;
    const isa::Program &_program;
    /** Pre-decoded twin of _program (optional; owned by the Machine). */
    const DecodedProgram *_decoded = nullptr;
    barrier::BarrierUnit &_unit;
    MemoryPort &_mem;
    int _pipelineDepth;
    StallModel _stall;
    RandomSource _jitter;
    double _jitterMean;
    std::uint64_t _interruptPeriod;
    std::int64_t _isrEntry;
    int _issueWidth;
    ExecutionObserver *_observer = nullptr;

    std::array<std::int64_t, isa::numRegisters> _regs{};
    std::size_t _pc = 0;
    bool _halted = false;
    CoreState _state = CoreState::Running;
    std::uint32_t _busyCycles = 0;

    /** Marker-encoding region flag (BRENTER/BREXIT). */
    bool _markerRegion = false;

    /**
     * Region status inherited by procedures: each CALL pushes the
     * call site's effective region flag; instructions execute
     * in-region while the top of the stack is true (section 9).
     */
    std::vector<bool> _callStack;

    /** Effective region flag of the instruction being executed. */
    bool _issueEffRegion = false;

    /** Cost of the most recently issued instruction (bundling). */
    std::uint32_t _lastIssueCost = 0;

    /** Interrupt state. */
    bool _inIsr = false;
    std::size_t _savedPc = 0;
    std::uint64_t _nextInterrupt = 0;
    bool _forceInterrupt = false;

    /** Pipelined readiness: cycle at which arrive() fires. */
    bool _arrivePending = false;
    std::uint64_t _arriveCycle = 0;

    /** Completion cycle of the last issued non-region instruction. */
    std::uint64_t _lastNonRegionComplete = 0;

    std::uint64_t _instructions = 0;
    std::uint64_t _barrierWaitCycles = 0;
    std::uint64_t _contextSwitchCycles = 0;
    std::uint64_t _contextSwitches = 0;
    std::uint64_t _interruptsTaken = 0;
};

} // namespace fb::sim

#endif // FB_SIM_PROCESSOR_HH
