/**
 * @file
 * The simulated multiprocessor: processors, caches, bus, shared
 * memory, and the fuzzy-barrier network, advanced on a common clock.
 */

#ifndef FB_SIM_MACHINE_HH
#define FB_SIM_MACHINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "barrier/network.hh"
#include "fault/injector.hh"
#include "fault/watchdog.hh"
#include "isa/program.hh"
#include "sim/bus.hh"
#include "sim/cache.hh"
#include "sim/config.hh"
#include "sim/memory.hh"
#include "sim/processor.hh"
#include "sim/trace.hh"
#include "snapshot/format.hh"
#include "support/hibitset.hh"

namespace fb::sim
{

/** Everything measured about one simulated processor. */
struct ProcessorStats
{
    std::uint64_t instructions = 0;
    std::uint64_t barrierWaitCycles = 0;
    std::uint64_t contextSwitchCycles = 0;
    std::uint64_t contextSwitches = 0;
    std::uint64_t interruptsTaken = 0;
    std::uint64_t barrierEpisodes = 0;
    std::uint64_t stalledEpisodes = 0;
    std::uint64_t stallCycles = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
};

/**
 * One application of the epoch/mask-shrink recovery protocol: the
 * watchdog declared @ref deadProc dead at @ref cycle, and every
 * survivor still synchronizing with it dropped its mask bit and
 * advanced to the next epoch.
 */
struct RecoveryEvent
{
    std::uint64_t cycle = 0;
    int deadProc = -1;
    std::vector<int> survivors;
};

/** Result of a whole-machine run. */
struct RunResult
{
    std::uint64_t cycles = 0;          ///< total cycles simulated
    bool deadlocked = false;           ///< run ended in barrier deadlock
    bool timedOut = false;             ///< hit the maxCycles guard
    std::string deadlockInfo;          ///< per-processor state dump
    std::vector<ProcessorStats> perProcessor;
    std::uint64_t syncEvents = 0;      ///< completed barrier episodes
    /** Sync records rotated out by MachineConfig::syncRecordWindow. */
    std::uint64_t syncRecordsDropped = 0;
    std::uint64_t busRequests = 0;
    std::uint64_t busQueueDelay = 0;
    std::uint64_t memAccesses = 0;
    std::uint64_t hotSpotAccesses = 0;

    // Write-through coherence filter (see Machine::Port::write):
    // invalidations actually delivered to caches holding the line,
    // and the broadcast invalidations the sharer mask avoided.
    std::uint64_t invalidationsSent = 0;
    std::uint64_t invalidationsAvoided = 0;

    // Fault injection / recovery (all zero on fault-free runs).
    std::vector<RecoveryEvent> recoveries;
    std::vector<int> deadDeclared;     ///< processors fenced off
    fault::InjectorStats faultStats;
    fault::WatchdogStats watchdogStats;
    std::uint64_t correctedFaults = 0; ///< ECC scrub corrections
    /** First fault-safety (membership) violation, or empty. */
    std::string membershipViolation;

    // Checkpoint accounting (all zero unless a checkpoint sink was
    // installed). Deliberately excluded from the resume-equivalence
    // comparison: checkpointing must never change what a run computes,
    // only how its state is persisted.
    std::uint64_t checkpointsFull = 0;  ///< full captures taken
    std::uint64_t checkpointsDelta = 0; ///< delta captures taken
    std::uint64_t checkpointDegradations = 0; ///< sink degradation events
    /** Last degradation note reported by the staged sink, or empty. */
    std::string checkpointDegradation;

    /** True if @p p was fenced off by the recovery protocol. */
    bool isDead(int p) const
    {
        for (int d : deadDeclared)
            if (d == p)
                return true;
        return false;
    }

    /** Sum of barrierWaitCycles over all processors. */
    std::uint64_t totalBarrierWait() const;

    /** Max barrierWaitCycles of any processor. */
    std::uint64_t maxBarrierWait() const;
};

/**
 * A record of one completed synchronization: used by the safety
 * oracle to verify the paper's correctness condition (section 2):
 * crossing may only happen after every member has arrived.
 */
struct SyncRecord
{
    std::uint64_t cycle;                 ///< cycle sync was delivered
    std::vector<int> members;            ///< processors that synced
    std::vector<std::uint64_t> arrivals; ///< per-member arrival cycles
    std::vector<std::uint64_t> crossings;///< per-member crossing cycles
                                         ///< (UINT64_MAX = never crossed)
};

/**
 * Shard rendezvous hook for exec::ShardedMachine (INTERNALS section
 * 17). With a driver installed, the event-and-window loop of run()
 * hands each window to the driver instead of running it inline:
 * advanceWindow(stop) must make every shard call
 * advanceShardRange(first, last, stop) for its processor range
 * (disjoint ranges, any threading) and return only when all shards
 * are done. The machine itself never spawns threads.
 */
class ShardWindowDriver
{
  public:
    virtual ~ShardWindowDriver() = default;

    /** Advance all shards through private ticks up to @p stop. */
    virtual void advanceWindow(std::uint64_t stop) = 0;
};

/**
 * The whole machine. Construct, load one Program per processor,
 * optionally poke memory / registers, then run().
 */
class Machine : public ExecutionObserver
{
  public:
    explicit Machine(const MachineConfig &config);
    ~Machine() override;

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /**
     * Structural shape key of a config: the inputs that size the
     * machine's long-lived arrays (processor count, memory size,
     * cache model and geometry). Two configs with equal keys can
     * share one Machine via reset(); everything else (seed, timing,
     * stall model, fault plan, ...) is a reset-time parameter.
     */
    static std::uint64_t structuralKey(const MachineConfig &config);

    /**
     * Reinitialize for @p config — observably equivalent to
     * destroying this machine and constructing Machine(config), but
     * reusing every large allocation (memory slabs, cache arrays,
     * sharer masks, scratch vectors). Requires structuralKey(config)
     * == structuralKey of the current config. Cost is proportional
     * to the state the previous run actually touched, not to the
     * machine size. Programs revert to empty; the checkpoint sink
     * and any observer/trace state are cleared per @p config.
     */
    void reset(const MachineConfig &config);

    /**
     * Load @p program into processor @p p. Must precede run(). With
     * MachineConfig::predecode the program's threaded-code twin is
     * installed too: pass a shared @p decoded block to reuse a cached
     * decode (it must be the decode of this exact program:
     * DecodedProgram::matches is asserted), or leave it null to decode
     * here. With predecode off @p decoded is ignored and the per-cycle
     * interpreter runs.
     */
    void loadProgram(int p, isa::Program program,
                     std::shared_ptr<const DecodedProgram> decoded =
                         nullptr);

    /** Load the same program into every processor (one shared decode). */
    void loadAllPrograms(const isa::Program &program);

    /** The threaded-code block installed for processor @p p (null
     * when predecode is off or no program is loaded). Exposed so
     * tests can verify cached blocks are shared, not re-decoded. */
    std::shared_ptr<const DecodedProgram> decodedProgram(int p) const;

    /** Access shared memory for setup/inspection. */
    SharedMemory &memory() { return *_memory; }

    /** Access processor @p p (register setup, inspection). */
    Processor &processor(int p);

    /** Access the barrier network (mask/tag setup from the host). */
    barrier::BarrierNetwork &network() { return *_network; }

    /** Number of processors. */
    int numProcessors() const { return _config.numProcessors; }

    /** The configuration this machine currently runs under. */
    const MachineConfig &config() const { return _config; }

    /**
     * Run until every processor halts, a deadlock is detected, or the
     * cycle guard trips. Two paths, byte-identical in every result:
     * the per-cycle reference loop (MachineConfig::fastForward off)
     * and the event-and-window loop. In the latter, each iteration
     * opens a window in which processors run ahead of the global
     * clock through provably private ticks — on the @p driver's
     * shard threads (exec::ShardedMachine, bounded by
     * MachineConfig::shardQuantum), inline with
     * MachineConfig::predecode, or not at all (plain fast-forward) —
     * then jumps the clock to the next interesting cycle.
     */
    RunResult run(ShardWindowDriver *driver = nullptr);

    /**
     * Shard worker entry: advance processors [@p first, @p last)
     * through consecutive private ticks up to (excluding) cycle
     * @p stop. Called from ShardWindowDriver::advanceWindow() on
     * disjoint ranges, or by run() itself over every processor when
     * no driver is installed; touches nothing outside the range's
     * processors and their skew cursors.
     */
    void advanceShardRange(int first, int last, std::uint64_t stop);

    /** Barrier-state trace (non-null only when traceBarrierStates). */
    const BarrierTrace *trace() const { return _trace.get(); }

    /** Sync records collected during run() (if enabled in config). */
    const std::vector<SyncRecord> &syncRecords() const
    {
        return _syncRecords;
    }

    /**
     * Verify the fuzzy-barrier safety condition over the collected
     * sync records: every member's crossing cycle is strictly greater
     * than every member's arrival cycle. Returns a description of the
     * first violation or an empty string when the property holds.
     */
    std::string checkSafetyProperty() const;

    // ExecutionObserver interface
    void onArrive(int p, std::uint64_t cycle) override;
    void onCross(int p, std::uint64_t cycle) override;

    /**
     * Staged-checkpoint handshake: the sink's verdict on a capture it
     * was handed, returned synchronously while the capture may still
     * be queued for background persistence.
     */
    struct CheckpointAck
    {
        /** false: uninstall the sink, take no further checkpoints. */
        bool keep = true;
        /**
         * true: the next capture must be a full re-base. An
         * asynchronous writer sets this after it failed to persist an
         * earlier capture — the on-disk chain head is then stale, and
         * a delta against the in-memory predecessor would name a
         * snapshot that never reached the store.
         */
        bool forceFull = false;
        /** false: stop producing deltas; every later capture is full
         *  (degradation ladder, INTERNALS section 18). */
        bool deltasOk = true;
        /** Non-empty: a degradation to record in RunResult. */
        std::string degradation;
    };

    /**
     * Receives each periodic capture as unassembled sections plus the
     * chain-linked header (generation/baseFull/prev filled in). The
     * sink owns both values — it may hand them to a background writer
     * and return immediately; the machine never touches them again.
     */
    using StagedCheckpointSink = std::function<CheckpointAck(
        snapshot::SnapshotHeader header,
        std::vector<snapshot::Section> sections)>;

    /**
     * Install the checkpoint sink (see MachineConfig::
     * checkpointEveryCycles), or uninstall it with nullptr, and reset
     * the chain bookkeeping: the first capture is full, then deltas
     * until MachineConfig::checkpointRebaseEvery forces a re-base. At
     * a re-base period of 1 every capture is a full snapshot and no
     * dirty state is tracked; a sink that assembles each capture and
     * saves it inline is then a synchronous full-snapshot checkpointer
     * (fbsim --checkpoint-sync). Must precede run().
     */
    void setStagedCheckpointSink(StagedCheckpointSink sink);

    /**
     * FNV-1a fingerprint over every result-relevant configuration
     * input: the MachineConfig fields (fastForward included) except
     * checkpointEveryCycles, checkpointRebaseEvery, shardCount,
     * shardQuantum, predecode and traceBarrierStates, which change how
     * a run executes, persists or is observed, never what it computes;
     * the fault plan, the watchdog parameters, and every loaded
     * program's instructions and barrier ids. A snapshot only
     * restores into a machine with an identical fingerprint, so state
     * can never silently meet the wrong config or the wrong code.
     *
     * Hashing the loaded code costs time linear in its length, so the
     * value is computed on first use and kept for every later capture
     * and restore check. The constructor, reset() and loadProgram()
     * are the only writers of the config and the programs; the last
     * two drop the kept value. The fault plan is read through
     * MachineConfig::faultPlan and must not change while it is
     * installed. Not safe to call from two threads at once.
     */
    std::uint64_t configFingerprint() const;

    /**
     * Capture the complete mutable machine state as a validated
     * snapshot byte stream (see src/snapshot/). @p generation is
     * embedded in the header for the store's stale-snapshot check.
     * The barrier-state trace is not part of the snapshot.
     */
    std::vector<std::uint8_t>
    saveState(std::uint64_t generation = 0) const;

    /**
     * Restore state captured by saveState() on an identically
     * configured machine with identical programs loaded (enforced via
     * the config fingerprint). On success the machine continues from
     * the captured cycle: run() produces exactly the cycles, stats and
     * verdict the uninterrupted run would have produced. On failure
     * returns false with a diagnostic in @p error; the machine must
     * then be discarded (state may be partially overwritten).
     */
    bool restoreState(const std::vector<std::uint8_t> &bytes,
                      std::string &error);

    /**
     * Apply one delta snapshot on top of the current state, which must
     * be exactly the state the delta was captured against (its prev
     * link). Same fingerprint rules as restoreState(); on failure the
     * machine must be discarded.
     */
    bool applyDeltaState(const std::vector<std::uint8_t> &bytes,
                         std::string &error);

    /**
     * Restore a full chain as returned by SnapshotStore::
     * loadLatestChain(): chain[0] must be a full snapshot, every later
     * element a delta against its predecessor.
     */
    bool restoreChainState(
        const std::vector<std::vector<std::uint8_t>> &chain,
        std::string &error);

  private:
    class Port;

    std::string describeState() const;

    /**
     * Skip target of the event-and-window loop: the earliest cycle
     * after _now at which the loop body does anything beyond fixed
     * wait accounting — the minimum over every active processor's
     * skew cursor (if it ran ahead) or nextEventCycle(), the
     * network's pending delivery, the injector's next action, and the
     * watchdog's next deadline. UINT64_MAX means no future event is
     * scheduled (the next cycle decides deadlock / completion, so the
     * caller must single-step, never skip).
     */
    std::uint64_t nextInterestingCycle() const;

    /** Fence the dead processors and run mask-shrink on survivors. */
    void applyRecovery(const std::vector<int> &dead, std::uint64_t now);

    /**
     * Fault-safety (membership) oracle, evaluated at delivery time:
     * every live, same-tag, same-epoch processor in a member's mask
     * must itself be part of the delivered group. Returns a
     * description of the first violation or empty. Marks the group in
     * _memberScratch, so each mask is tested a word at a time and only
     * its bits outside the group are looked at one by one.
     */
    std::string checkMembership(const std::vector<int> &members,
                                std::uint64_t now);

    MachineConfig _config;
    std::unique_ptr<SharedMemory> _memory;
    std::unique_ptr<SharedBus> _bus;
    std::unique_ptr<barrier::BarrierNetwork> _network;
    std::vector<std::unique_ptr<DataCache>> _caches;
    std::vector<std::unique_ptr<Port>> _ports;
    std::vector<isa::Program> _programs;
    /** Threaded-code twins of _programs (null slots when predecode is
     * off; shareable across machines via exec::ProgramCache). */
    std::vector<std::shared_ptr<const DecodedProgram>> _decodedPrograms;
    std::vector<std::unique_ptr<Processor>> _processors;
    std::uint64_t _now = 0;
    std::unique_ptr<BarrierTrace> _trace;

    // Fault injection and recovery (null when no faults configured).
    std::unique_ptr<fault::FaultInjector> _injector;
    std::unique_ptr<fault::BarrierWatchdog> _watchdog;
    /** Processors fenced off by the recovery protocol. */
    std::vector<bool> _fenced;
    std::vector<RecoveryEvent> _recoveries;
    std::vector<int> _deadDeclared;
    /** First membership violation observed (survives save/restore). */
    std::string _membershipViolation;

    /** Build the section list of a full snapshot, or with @p delta
     * of a delta against the open epoch. */
    std::vector<snapshot::Section> buildSections(bool delta) const;

    /** Body of restoreState() and, with @p delta, applyDeltaState(). */
    bool decodeSnapshot(const std::vector<std::uint8_t> &bytes,
                        bool delta, std::string &error);

    /** Open (or roll over) the delta epoch on every component. */
    void beginDeltaEpoch();

    /** Close the delta epoch on every component. */
    void endDeltaEpoch();

    /** Capture and hand one checkpoint to the staged sink. */
    void takeStagedCheckpoint(std::uint64_t generation);

    /** Epoch hook for the per-line sharer masks (Port mutations). */
    void markSharerEpoch(std::size_t line)
    {
        if (_epochCoreTracking && !_epochSharerDirty[line]) {
            _epochSharerDirty[line] = true;
            _epochSharerLines.push_back(line);
        }
    }

    /** Periodic checkpoint consumer (null = checkpointing off). */
    StagedCheckpointSink _stagedSink;

    // Delta-chain bookkeeping for the staged sink (reset at install).
    bool _deltasDisabled = false;  ///< ladder: full snapshots only
    bool _forceFullNext = false;   ///< sink requested a re-base
    std::uint64_t _checkpointSeq = 0;     ///< captures since install
    std::uint64_t _chainBaseGen = 0;      ///< open chain's anchor
    std::uint64_t _lastCheckpointGen = 0; ///< prev link for deltas
    std::uint64_t _restoredChainGen = 0;  ///< last restored generation
    std::uint64_t _checkpointsFull = 0;
    std::uint64_t _checkpointsDelta = 0;
    std::uint64_t _checkpointDegradations = 0;
    std::string _checkpointDegradation;

    // Core delta-epoch bookkeeping (not serialized): sharer lines
    // mutated since the last capture, and the index of the first sync
    // record that was still open (mutable) when the epoch began —
    // records before it are immutable, so a delta only re-encodes
    // [_epochSyncPatchFrom, end).
    bool _epochCoreTracking = false;  ///< a capture opened an epoch
    std::vector<bool> _epochSharerDirty;
    std::vector<std::size_t> _epochSharerLines;
    std::size_t _epochSyncPatchFrom = 0;

    // Oracle bookkeeping. With MachineConfig::syncRecordWindow the
    // record trail is a rotating window: _syncRecords holds the
    // retained suffix and _syncRecordsDropped counts the rotated-out
    // prefix, so _openSyncRecord / _epochSyncPatchFrom keep using
    // absolute indices (vector position = absolute - dropped).
    std::vector<std::uint64_t> _lastArrival;
    std::vector<std::size_t> _openSyncRecord;
    std::vector<SyncRecord> _syncRecords;
    std::uint64_t _syncRecordsDropped = 0;

    /** Rotate records beyond the window out of _syncRecords, never
     * touching open records or the current delta epoch's patch tail. */
    void pruneSyncRecords();

    // Run-loop scratch (hoisted per-cycle heap allocations).
    /** Processors still ticking: not fenced, tick() != Halted. Kept
     * in ascending order — tick order is architectural (FAA
     * atomicity, bus request ordering). */
    std::vector<int> _active;
    /** (tag, processor) pairs of one delivery, for episode grouping. */
    std::vector<std::pair<std::uint32_t, int>> _groupScratch;
    /** The group checkMembership() is testing; empty between calls. */
    HiBitset _memberScratch;
    /**
     * Skew cursors: _procNext[p] is the next global cycle whose tick
     * processor p still owes. A processor with _procNext[p] > _now ran
     * ahead through private ticks in a window; the coordinator counts
     * it as alive-and-progressing and skips its tick. Maintained in
     * every mode (never ahead without a window dispatch); not part of
     * snapshots — windows never span a checkpoint boundary, so every
     * processor is aligned whenever state is captured.
     */
    std::vector<std::uint64_t> _procNext;
    std::vector<barrier::BarrierState> _traceStates;
    std::vector<bool> _traceHalted;
    /** Per-processor halted-or-fenced flags handed to the watchdog.
     * Maintained incrementally (halt edges, kills, recovery fences)
     * so the per-cycle watchdog block is O(active), not O(n). */
    std::vector<bool> _wdHalted;

    // Per-line sharer masks for the write-through coherence filter
    // (bit p = processor p's cache may hold the line; conservative
    // superset, reset to the writer on every store). Empty when the
    // cache model is disabled.
    std::vector<std::uint64_t> _lineSharers;
    std::uint64_t _invalidationsSent = 0;
    std::uint64_t _invalidationsAvoided = 0;

    /**
     * reset() normally bounds the sharer-mask zeroing by the memory
     * pages the run touched (every sharer-setting access also lands
     * in the access stats). A restoreState() that fails partway can
     * leave sharers whose pages the current stats no longer cover;
     * this flag forces the next reset() to take the full O(lines)
     * clear instead.
     */
    bool _sharersUnbounded = false;

    /** configFingerprint() of the current config and programs, once
     * computed; reset() and loadProgram() clear it. */
    mutable std::optional<std::uint64_t> _fingerprint;
};

} // namespace fb::sim

#endif // FB_SIM_MACHINE_HH
