/**
 * @file
 * The broadcast synchronization network connecting all barrier units.
 */

#ifndef FB_BARRIER_NETWORK_HH
#define FB_BARRIER_NETWORK_HH

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "barrier/topology.hh"
#include "barrier/unit.hh"
#include "snapshot/codec.hh"
#include "support/hibitset.hh"
#include "support/stats.hh"

namespace fb::barrier
{

/**
 * Hook that can hide a processor's broadcast ready pulse from the
 * AND network for a cycle (fault injection lives in fb::fault, which
 * depends on this library, so the network only sees the abstract
 * interface). A suppressed pulse is invisible to *every* AND input,
 * including the owning processor's own group logic — the wire itself
 * is glitched, so all observers agree, preserving the simultaneous-
 * delivery property even under faults.
 */
class ReadyPulseFilter
{
  public:
    virtual ~ReadyPulseFilter() = default;

    /** True if processor @p p's ready pulse is hidden at cycle @p now. */
    virtual bool suppress(int p, std::uint64_t now) const = 0;
};

/**
 * Diagnosis of a wedged barrier network: which processors are stuck
 * waiting, their FSM state, tag and epoch, and which mask members
 * keep each AND unsatisfied.
 */
struct DeadlockReport
{
    struct Entry
    {
        int proc = -1;
        BarrierState state = BarrierState::NonBarrier;
        std::uint32_t tag = 0;
        std::uint32_t epoch = 0;
        /** Mask members whose signal/tag/epoch keeps the AND false. */
        std::vector<int> unsatisfied;
    };

    bool deadlocked = false;
    std::vector<Entry> stuck;

    /** Multi-line human-readable rendering (empty if not deadlocked). */
    std::string toString() const;
};

/**
 * Models the dedicated wires of the hardware fuzzy barrier: every
 * processor broadcasts its readiness signal and tag; identical
 * combinational logic in every processor evaluates whether its
 * synchronization group is complete. Because all processors share a
 * common clock, all members of a group observe the completed AND in
 * the same cycle and "simultaneously discover the occurrence of
 * synchronization" (paper section 6).
 *
 * The network may be organized hierarchically (Topology): completion
 * is still the same combinational AND, but delivery pays an extra
 * 2 * span * level_latency cycles for the subtree the group spans.
 * A flat topology is bit-identical to the paper's single-level model.
 *
 * Per-cycle cost is O(active), not O(processors): the network tracks
 * the set of ready units, pending deliveries and dirty registers in
 * hierarchical bitsets maintained on unit state edges, so evaluate()
 * touches only units that are actually participating this cycle.
 *
 * Synchronization never touches shared memory, so the network also
 * serves experiment E8: it counts sync events so the benches can show
 * zero hot-spot memory traffic for the hardware mechanism.
 */
class BarrierNetwork : public UnitEventListener
{
  public:
    /**
     * Create @p num_processors barrier units.
     *
     * @param sync_latency cycles between a group's AND becoming true
     *        and the members observing synchronization — the
     *        propagation delay of the broadcast wires. Section 6
     *        notes the interconnect grows with the processor count;
     *        larger machines would pay more here. All members still
     *        observe the delivery in the same cycle.
     * @param topology shape of the synchronization wires; non-flat
     *        shapes add per-level propagation latency on top of
     *        @p sync_latency.
     */
    explicit BarrierNetwork(int num_processors,
                            std::uint32_t sync_latency = 0,
                            Topology topology = {});

    /** Number of processors. */
    int numProcessors() const { return static_cast<int>(_units.size()); }

    /** The network's topology. */
    const Topology &topology() const { return _topology; }

    /** Access processor @p p's unit. */
    BarrierUnit &unit(int p);
    const BarrierUnit &unit(int p) const;

    /**
     * Evaluate the combinational sync logic for cycle @p now.
     * For every participating, ready processor p, synchronization is
     * delivered iff every processor q in p's mask is ready with a
     * matching tag — the group's propagation latency after the AND
     * first became true. The evaluation is two-phase (signals are
     * latched, then sync is delivered), so all members of a group
     * synchronize in the same call, exactly like the common-clock
     * hardware.
     *
     * @return number of processors that synchronized this cycle.
     */
    int evaluate(std::uint64_t now = 0);

    /** True if some group's sync is in flight (latency not elapsed).
     * The machine counts this as progress for deadlock detection. */
    bool deliveryPending() const { return !_pendingSet.empty(); }

    /** True if processor @p p specifically has a sync in flight. */
    bool deliveryPendingFor(int p) const;

    /**
     * Earliest cycle at which an in-flight synchronization delivers
     * (UINT64_MAX when none is pending). Lower bound used by the
     * fast-forward core; delivery still happens only via evaluate().
     */
    std::uint64_t nextDeliveryCycle() const;

    /**
     * Processors delivered synchronization by the most recent
     * evaluate() call, in ascending processor order. Each delivery
     * increments the unit's episode counter, so this is exactly the
     * set whose episodes() advanced this cycle.
     */
    const std::vector<int> &delivered() const { return _delivered; }

    /**
     * Units currently asserting their ready signal (Ready or Stalled),
     * maintained on state edges. The watchdog iterates this instead
     * of scanning every unit per cycle.
     */
    const HiBitset &readySet() const { return _readySet; }

    /** Completed group synchronizations (each group counts once). */
    std::uint64_t syncEvents() const { return _syncEvents; }

    /**
     * Install (or clear, with nullptr) the ready-pulse filter. The
     * filter is consulted on every AND evaluation; it is not owned.
     */
    void setPulseFilter(const ReadyPulseFilter *filter)
    {
        _filter = filter;
    }

    /**
     * Processor @p p's readiness signal as seen on the broadcast
     * wires at cycle @p now: asserted by the unit and not suppressed
     * by the pulse filter.
     */
    bool signalVisible(int p, std::uint64_t now) const;

    /** Register corruptions corrected by the per-cycle ECC scrub. */
    std::uint64_t correctedFaults() const { return _correctedFaults; }

    /**
     * True if every participating non-crossed processor is stalled or
     * ready and none can make progress — used with processor halt
     * status for deadlock detection (the Fig. 2 scenario).
     */
    bool wouldDeadlock(const std::vector<bool> &halted,
                       std::uint64_t now = 0) const;

    /**
     * Like wouldDeadlock() but with a full diagnosis: every stuck
     * processor's FSM state, tag, epoch and the mask members that
     * keep its AND unsatisfied.
     */
    DeadlockReport analyzeDeadlock(const std::vector<bool> &halted,
                                   std::uint64_t now = 0) const;

    /**
     * Return the network and every unit to its construction-time
     * state under a (possibly different) propagation delay and
     * topology — machine reuse. The processor count is structural and
     * stays fixed. Any installed pulse filter is cleared.
     */
    void reset(std::uint32_t sync_latency, Topology topology = {});

    /**
     * Serialize all unit state plus in-flight deliveries and counters.
     * Per-call scratch (the phase-1 latch and the delivered list) is
     * not captured: it is rebuilt by the next evaluate(); the sparse
     * ready/pending/scrub sets are derived state, rebuilt on decode.
     */
    void encodeState(snapshot::Encoder &e) const;

    /** Restore state captured with encodeState(). */
    bool decodeState(snapshot::Decoder &d);

    // UnitEventListener — called by the units on state edges.
    void readySignalChanged(int self, bool ready) override;
    void unitDirtied(int self) override;

  private:
    /** Derived per-unit values keyed on the unit's mask version. */
    struct UnitCache
    {
        std::uint64_t version = std::numeric_limits<std::uint64_t>::max();
        std::uint64_t memberHash = 0;  ///< hash of (mask | self)
        std::uint64_t latency = 0;     ///< completion-to-delivery cycles
        std::size_t lo = 0;            ///< lowest group member
        std::size_t hi = 0;            ///< highest group member
    };

    bool groupComplete(int p, std::uint64_t now) const;
    const UnitCache &cacheFor(int p);
    bool sameMemberSet(int p, int q) const;
    void rebuildSets();

    std::vector<BarrierUnit> _units;
    std::uint32_t _syncLatency;
    Topology _topology;
    /** Cycle at which processor p's pending sync delivers
     * (UINT64_MAX = none). */
    std::vector<std::uint64_t> _deliverAt;
    /** Units asserting readySignal(), maintained on state edges. */
    HiBitset _readySet;
    /** Units with a corrupted (dirty) register awaiting scrub. */
    HiBitset _scrubSet;
    /** Units with _deliverAt != none (the in-flight deliveries). */
    HiBitset _pendingSet;
    /** Scratch: this cycle's visible wires (ready minus suppressed). */
    HiBitset _visibleSet;
    /** Scratch: units whose group AND latched true this cycle. */
    HiBitset _completeSet;
    /** Scratch: phase-2 worklist (pending | complete). */
    HiBitset _phase2Set;
    std::vector<UnitCache> _unitCache;
    /** Processors delivered by the latest evaluate(), ascending. */
    std::vector<int> _delivered;
    std::uint64_t _syncEvents = 0;
    std::uint64_t _correctedFaults = 0;
    const ReadyPulseFilter *_filter = nullptr;
};

} // namespace fb::barrier

#endif // FB_BARRIER_NETWORK_HH
