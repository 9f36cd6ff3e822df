/**
 * @file
 * The four states of the per-processor fuzzy-barrier state machine.
 *
 * Paper section 6: "A processor's state machine can be in one of the
 * following states: (i) the processor is executing instructions from a
 * non-barrier region; (ii) the processor is in the barrier region and
 * has not synchronized; (iii) the processor is in the barrier region
 * and has synchronized; and (iv) synchronization has not taken place
 * and the processor is stalled as it has completed the execution of
 * instructions from the barrier region."
 */

#ifndef FB_BARRIER_STATE_HH
#define FB_BARRIER_STATE_HH

namespace fb::barrier
{

/** State of one processor's barrier hardware. */
enum class BarrierState
{
    NonBarrier,  ///< (i) executing non-barrier instructions
    Ready,       ///< (ii) in barrier region, not yet synchronized
    Synced,      ///< (iii) in barrier region, synchronized
    Stalled,     ///< (iv) region exhausted, waiting for synchronization
                 ///< (last: BarrierUnit::decodeState rejects larger bytes)
};

/** Readable name for a state. */
inline const char *
barrierStateName(BarrierState s)
{
    switch (s) {
      case BarrierState::NonBarrier: return "NonBarrier";
      case BarrierState::Ready: return "Ready";
      case BarrierState::Synced: return "Synced";
      case BarrierState::Stalled: return "Stalled";
    }
    return "?";
}

} // namespace fb::barrier

#endif // FB_BARRIER_STATE_HH
