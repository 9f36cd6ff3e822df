/**
 * @file
 * Per-processor fuzzy-barrier hardware: state machine plus the
 * internal register holding the current tag and participation mask.
 */

#ifndef FB_BARRIER_UNIT_HH
#define FB_BARRIER_UNIT_HH

#include <cstdint>

#include "barrier/state.hh"
#include "snapshot/codec.hh"
#include "support/bitvector.hh"
#include "support/stats.hh"

namespace fb::barrier
{

/**
 * Observer for the unit events the network tracks sparsely: ready
 * signal edges (maintaining the ready set that replaces the per-cycle
 * all-units scan) and register corruption (maintaining the scrub
 * set). The network installs itself; the indirection only exists
 * because unit.hh cannot depend on network.hh.
 */
class UnitEventListener
{
  public:
    virtual ~UnitEventListener() = default;

    /** Processor @p self's broadcast ready signal changed edges. */
    virtual void readySignalChanged(int self, bool ready) = 0;

    /** Processor @p self's tag/mask register was corrupted. */
    virtual void unitDirtied(int self) = 0;
};

/**
 * The barrier hardware replicated in each processor (paper section 6).
 *
 * The unit is driven by two parties: the processor core, which reports
 * region entry/exit events derived from the instruction stream, and
 * the BarrierNetwork, which evaluates the broadcast AND once per cycle
 * and delivers synchronization. "No explicit reset is required as the
 * state machine returns to the start state when a processor is ready
 * to synchronize again."
 */
class BarrierUnit
{
  public:
    /**
     * @param num_processors total processors in the system (mask width)
     * @param self this processor's index
     */
    BarrierUnit(int num_processors, int self);

    /** This processor's index. */
    int self() const { return _self; }

    /** Current FSM state. */
    BarrierState state() const { return _state; }

    /**
     * Set the barrier tag. Tag 0 means "not participating in barrier
     * synchronization"; with an m-bit tag the system supports 2^m - 1
     * logical barriers.
     */
    void setTag(std::uint32_t tag) { _tag = _shadowTag = tag; }

    /** Current tag. */
    std::uint32_t tag() const { return _tag; }

    /**
     * Synchronization epoch. All units start at epoch 0; the recovery
     * protocol bumps every *surviving* unit after fencing a dead
     * participant, so the dead unit's latched ready-pulse (stale
     * epoch) can never again satisfy a survivor's AND, and the
     * survivors' pulses can never complete the dead unit's group.
     */
    std::uint32_t epoch() const { return _epoch; }

    /** Advance to the next synchronization epoch (recovery). */
    void bumpEpoch() { ++_epoch; }

    /**
     * True if this unit takes part in barrier synchronization. Reads
     * the ECC shadow tag: a corrupted live tag is scrubbed before the
     * network next compares tags, so a corrected flip must not decide
     * whether the core arms an arrival in the tick it lands in (tag 1
     * read as 0 would skip the barrier episode).
     */
    bool participating() const { return _shadowTag != 0; }

    /** Set the participation mask from a bit-per-processor word. */
    void setMask(std::uint64_t bits);

    /** Set every mask bit (except self) — the all-processors group.
     * Unlike the word form this scales past 64 processors. */
    void setMaskAll();

    /** Set one mask bit. */
    void setMaskBit(int processor, bool value = true);

    /** The participation mask (bit q = synchronize with processor q). */
    const BitVector &mask() const { return _mask; }

    /**
     * Monotonic counter bumped on every mask mutation (architectural
     * writes, corruption, scrub restores, reset, decode). The network
     * keys its per-unit derived caches — topology span, delivery
     * latency, member-set hash — on it.
     */
    std::uint64_t maskVersion() const { return _maskVersion; }

    /** Install (or clear) the network's event listener. */
    void setListener(UnitEventListener *listener)
    {
        _listener = listener;
    }

    /**
     * The core is ready to synchronize: it has exited the non-barrier
     * region preceding a barrier region. Legal from NonBarrier (new
     * episode). A non-participating unit stays in NonBarrier.
     */
    void arrive();

    /**
     * True if the core may execute a non-barrier instruction after a
     * region, i.e. synchronization has occurred (or the unit is not
     * participating / was never armed).
     */
    bool mayCross() const;

    /**
     * The core executed the first non-barrier instruction after the
     * region. Legal only when mayCross(); returns the FSM to
     * NonBarrier.
     */
    void cross();

    /**
     * The core wants to leave the region but synchronization has not
     * occurred; records the stall state.
     */
    void noteStalled();

    /** Asserted readiness signal broadcast to the other processors. */
    bool readySignal() const
    {
        return _state == BarrierState::Ready ||
               _state == BarrierState::Stalled;
    }

    /** Called by the network when the group AND is satisfied. */
    void deliverSync();

    /** Number of completed barrier episodes. */
    std::uint64_t episodes() const { return _episodes; }

    /** Number of episodes in which this processor had to stall. */
    std::uint64_t stalledEpisodes() const { return _stalledEpisodes; }

    /** Total cycles spent in the Stalled state. */
    std::uint64_t stallCycles() const { return _stallCycles; }

    /** Account one cycle spent stalled (called by the core). */
    void tickStalled() { ++_stallCycles; }

    /**
     * Account @p cycles consecutive stalled cycles at once — the
     * fast-forward core's bulk equivalent of tickStalled().
     */
    void tickStalledFor(std::uint64_t cycles) { _stallCycles += cycles; }

    /**
     * Fault injection: flip one bit of the live tag register. The
     * shadow copy is untouched, so the next scrub() restores the tag
     * and reports the correction (modelling an ECC-protected
     * register file).
     */
    void corruptTagBit(int bit);

    /** Fault injection: flip one bit of the live mask register. */
    void corruptMaskBit(int processor);

    /**
     * Compare live tag/mask against their shadow copies and restore
     * any divergence.
     *
     * @return number of corrupted registers corrected (0, 1 or 2)
     */
    int scrub();

    /**
     * Return every architected and statistics register to its
     * construction-time value (machine reuse). The processor count
     * and self index are structural and stay fixed.
     */
    void reset();

    /** Serialize the full unit state for checkpointing. */
    void encodeState(snapshot::Encoder &e) const;

    /** Restore state captured with encodeState(). */
    bool decodeState(snapshot::Decoder &d);

  private:
    /** Report a ready-signal edge to the listener (if any). */
    void notifyReady(bool ready)
    {
        if (_listener != nullptr)
            _listener->readySignalChanged(_self, ready);
    }

    int _numProcessors;
    int _self;
    UnitEventListener *_listener = nullptr;
    std::uint64_t _maskVersion = 0;
    BarrierState _state = BarrierState::NonBarrier;
    std::uint32_t _tag = 0;
    std::uint32_t _epoch = 0;
    BitVector _mask;

    // ECC shadow copies of the architected tag/mask registers. The
    // software interface (setTag/setMask/setMaskBit) writes both; a
    // fault injector corrupts only the live copy, and scrub()
    // restores it. _dirty short-circuits the common no-fault case.
    std::uint32_t _shadowTag = 0;
    BitVector _shadowMask;
    bool _dirty = false;

    std::uint64_t _episodes = 0;
    std::uint64_t _stalledEpisodes = 0;
    std::uint64_t _stallCycles = 0;
    bool _stalledThisEpisode = false;
};

} // namespace fb::barrier

#endif // FB_BARRIER_UNIT_HH
