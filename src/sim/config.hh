/**
 * @file
 * Configuration for the simulated multiprocessor.
 */

#ifndef FB_SIM_CONFIG_HH
#define FB_SIM_CONFIG_HH

#include <cstddef>
#include <cstdint>

#include "barrier/topology.hh"
#include "fault/plan.hh"
#include "fault/watchdog.hh"
#include "sim/bus.hh"

namespace fb::sim
{

/**
 * What happens when a processor exhausts its barrier region before
 * synchronization has occurred.
 */
enum class StallKind
{
    /**
     * The proposed hardware mechanism: the processor simply idles;
     * each stalled cycle costs exactly one cycle.
     */
    Hardware,

    /**
     * The Encore-style software implementation (paper section 8): a
     * stalled task suffers a context save, and after synchronization a
     * context restore, before it can continue. "The cost of barrier
     * synchronization is mainly due to context saves and restores for
     * the tasks that must be stalled."
     */
    Software,
};

/** Stall cost model. */
struct StallModel
{
    StallKind kind = StallKind::Hardware;
    /** Cycles to save a stalled task's context (Software only). */
    std::uint32_t saveCycles = 0;
    /** Cycles to restore the task after synchronization (Software). */
    std::uint32_t restoreCycles = 0;

    /** The free hardware stall. */
    static StallModel hardware() { return {}; }

    /** Software stall with symmetric save/restore cost. */
    static StallModel
    software(std::uint32_t save, std::uint32_t restore)
    {
        return {StallKind::Software, save, restore};
    }
};

/** Per-processor data cache parameters. */
struct CacheConfig
{
    bool enabled = true;
    /** Number of direct-mapped lines. */
    std::size_t numLines = 256;
    /** Words per line. */
    std::size_t lineWords = 4;
    /** Cycles added by a miss (before bus queueing). */
    std::uint32_t missPenalty = 20;
};

/** Whole-machine parameters. */
struct MachineConfig
{
    int numProcessors = 4;

    /**
     * Issue width: the maximum number of consecutive, mutually
     * independent instructions issued per cycle (section 9: the
     * prototype "will be used for executing code in VLIW mode").
     * Width 1 is the scalar machine. Later slots accept only
     * single-issue-safe operations (ALU; a branch may close the
     * bundle); memory, linkage, and barrier-control operations issue
     * alone, and a bundle never spans a region boundary.
     */
    int issueWidth = 1;

    /**
     * In-order pipeline depth. 1 models the non-pipelined machine
     * where "a processor enters a region at the same time it exits
     * the preceding region". Depths > 1 delay the readiness signal
     * until the last non-barrier instruction drains from the pipe
     * (paper section 2/6 distinction between entering the barrier
     * region and exiting the non-barrier region).
     */
    int pipelineDepth = 1;

    /** Shared memory size in 64-bit words. */
    std::size_t memWords = 1u << 20;

    CacheConfig cache;

    /** Bus service time per cache miss (contention source). */
    std::uint32_t busServiceCycles = 4;

    /** Interconnect contention model (shared bus vs banked). */
    BusKind busKind = BusKind::Shared;

    /**
     * Propagation delay of the barrier broadcast network in cycles:
     * synchronization is observed this many cycles after the last
     * participant becomes ready. Models the growing interconnect of
     * larger machines (section 6's extensibility caveat).
     */
    std::uint32_t syncLatency = 0;

    /**
     * Shape of the barrier broadcast wires (section 6's extensibility
     * caveat, made concrete): a flat network pays @ref syncLatency
     * alone; tree:A and cluster:S shapes add 2 * span * level_latency
     * cycles for the subtree a group spans. This changes *reported*
     * latencies (never episode ordering or register results — the
     * simultaneous-delivery guarantee is topology-independent), so it
     * participates in the config fingerprint.
     */
    barrier::Topology topology;

    StallModel stall;

    /**
     * Mean of random per-instruction execution jitter in cycles
     * (models TLB misses, DRAM refresh, and other drift sources the
     * paper cites). 0 disables jitter.
     */
    double jitterMean = 0.0;

    /** Seed for all stochastic behaviour. */
    std::uint64_t seed = 1;

    /**
     * Timer interrupt period in cycles (0 disables interrupts). When
     * an interrupt fires, the processor saves its PC and vectors to
     * @ref isrEntry; the service routine runs outside the barrier
     * region structure (no arrivals, no crossing checks) and returns
     * with IRET. Interrupts are also delivered while a processor is
     * stalled at a barrier — the stalled processor does useful
     * interrupt work while it waits (section 9 future work).
     */
    std::uint64_t interruptPeriod = 0;

    /** Instruction index of the interrupt service routine. */
    std::int64_t isrEntry = -1;

    /** Abort the run after this many cycles (runaway guard). */
    std::uint64_t maxCycles = 200'000'000;

    /**
     * Cap on the retained sync-record trail (0 = unbounded). Every
     * delivery is recorded for the safety oracle, so a very long run
     * grows the record vector — and with it every checkpoint's core
     * section — without bound; with a window only the newest this-many
     * completed records survive, rotating the rest out
     * (RunResult::syncRecordsDropped counts them). Records still open,
     * or already pinned by the current delta-checkpoint epoch, are
     * never rotated out, so delta patching stays exact. Unlike the
     * operational knobs below this changes what the run reports, so it
     * participates in the config fingerprint.
     */
    std::size_t syncRecordWindow = 0;

    /**
     * Fault schedule to inject (not owned; nullptr or an empty plan
     * disables injection entirely — the machine then builds no
     * injector and the run loop is byte-identical to the pre-fault
     * simulator).
     */
    const fault::FaultPlan *faultPlan = nullptr;

    /**
     * Barrier watchdog configuration. Disabled by default; enable it
     * to detect dead participants and trigger the epoch/mask-shrink
     * recovery protocol.
     */
    fault::WatchdogConfig watchdog;

    /** Record per-cycle barrier states for the timeline renderer
     * (costs memory proportional to cycles x processors). Works in
     * every execution mode and with checkpoint/restore. */
    bool traceBarrierStates = false;

    /**
     * Selects Machine::run's event-and-window loop: each iteration
     * may run processors ahead through private ticks in a window (see
     * predecode and shardQuantum; with neither, the window dispatches
     * nothing) and then jumps time directly to the next event
     * (execute completion, barrier delivery, interrupt, fault action,
     * watchdog deadline), bulk-accounting the skipped wait cycles.
     * Off selects the per-cycle reference loop. All RunResult
     * counters stay bit-identical between the two; the differential
     * verifier and the equivalence corpus cross-check them.
     */
    bool fastForward = true;

    /**
     * Take a state snapshot every this many cycles (0 disables
     * checkpointing). The capture is handed to the sink installed
     * with Machine::setStagedCheckpointSink(). A non-zero period also
     * clamps fast-forward skips to checkpoint boundaries so the clock
     * lands exactly on every multiple — by the advanceWait() invariant
     * this never changes results, and it is excluded from the config
     * fingerprint for the same reason.
     */
    std::uint64_t checkpointEveryCycles = 0;

    /**
     * With a checkpoint sink installed, every Nth capture is a full
     * snapshot that re-bases the delta chain; the captures in between
     * are dirty-page deltas against their predecessor. 1 disables
     * deltas entirely: every capture is full and no delta epoch is
     * opened, so no dirty state is tracked. Like
     * checkpointEveryCycles this is an operational knob — it changes
     * what is persisted, never what is computed — and is excluded
     * from the config fingerprint.
     */
    std::uint32_t checkpointRebaseEvery = 8;

    /**
     * Host-thread shards for exec::ShardedMachine (section 17). The
     * processors are partitioned into this many contiguous shards,
     * each advanced by one host thread through provably
     * processor-private cycles; every globally visible action still
     * executes on the coordinating thread in (cycle, proc-id) order,
     * so results are byte-identical at any shard count. sim::Machine
     * itself never spawns threads: run() ignores these fields unless
     * a window driver is installed, and both are excluded from the
     * config fingerprint and the pool's structural key — like
     * checkpointEveryCycles, they change only how the clock advances,
     * never what it computes.
     */
    int shardCount = 1;

    /**
     * Maximum cycles a shard may run ahead of the global clock
     * between rendezvous (the fuzzy-barrier skew bound, quantum-style
     * like Sniper's barrier-synchronized cores). 0 disables sharding
     * entirely — the sequential core is unchanged.
     */
    std::uint64_t shardQuantum = 0;

    /**
     * Pre-decoded threaded-code execution backend: decode each loaded
     * program once into a flat DecodedProgram and run straight-line,
     * non-barrier, non-observable stretches through a computed-goto
     * dispatch loop. In the sequential core it also makes the
     * event-and-window loop (fastForward) dispatch its windows inline
     * at a fixed quantum, so those stretches are macro-stepped a
     * whole window per call; with it off, and no shard driver, the
     * windows dispatch nothing (plain fast-forward). Every counter,
     * register, PRNG draw, trace record and snapshot byte stays
     * bit-identical to the per-cycle loop — the equivalence corpus
     * pins this — so the flag is excluded from the config fingerprint
     * and the pool's structural key, like the other how-not-what
     * knobs above.
     */
    bool predecode = true;
};

} // namespace fb::sim

#endif // FB_SIM_CONFIG_HH
