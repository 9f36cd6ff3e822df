/**
 * @file
 * Barrier-state execution trace and ASCII timeline renderer.
 *
 * Records each processor's barrier FSM state every cycle and renders
 * a Gantt-style timeline — the fastest way to *see* the fuzzy barrier
 * working: ready processors keep running inside their regions ('r'),
 * only occasionally degenerating to a stall ('#').
 */

#ifndef FB_SIM_TRACE_HH
#define FB_SIM_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "barrier/state.hh"

namespace fb::sim
{

/**
 * A compact per-cycle record of every processor's barrier state.
 *
 * The run loop records only the cycles it visits; a cycle it skips
 * (fast-forward, or a window of private ticks) repeats the previous
 * cycle's symbols. That is exact, because barrier states, halts and
 * deliveries change only on cycles the loop body visits, so every
 * execution mode yields the same rows as the per-cycle loop.
 */
class BarrierTrace
{
  public:
    /** Symbols used in the rendered timeline. */
    static constexpr char symNonBarrier = '.';
    static constexpr char symReady = 'r';
    static constexpr char symSynced = 's';
    static constexpr char symStalled = '#';
    static constexpr char symHalted = ' ';

    explicit BarrierTrace(int num_processors)
        : _numProcessors(num_processors)
    {
    }

    /**
     * Record the states at @p cycle, first repeating each row's last
     * symbol over the cycles since the previous record. @p halted
     * flags dead processors; @p sync_delivered marks cycles where a
     * group synchronized. The first record fixes the trace's first
     * cycle (non-zero for a run resumed from a snapshot); a record at
     * an already recorded cycle rewinds the trace to it.
     */
    void record(std::uint64_t cycle,
                const std::vector<barrier::BarrierState> &states,
                const std::vector<bool> &halted, bool sync_delivered);

    /** Repeat each row's last symbol up to (excluding) cycle @p end. */
    void extendTo(std::uint64_t end);

    /** Number of recorded cycles. */
    std::size_t cycles() const { return _syncMarks.size(); }

    /**
     * Render the timeline: one row per processor plus a sync-marker
     * row ('|' where a group synchronized). If the trace is longer
     * than @p max_width cycles, it is downsampled by taking the
     * "worst" state in each bucket (stall > ready > synced > rest),
     * so stalls never disappear from the picture.
     */
    std::string render(std::size_t max_width = 100) const;

  private:
    static char symbolFor(barrier::BarrierState state, bool halted);

    /** Pick the most severe of two symbols for downsampling. */
    static char worst(char a, char b);

    int _numProcessors;
    /** Cycle of the first record. */
    std::uint64_t _first = 0;
    /** _rows[p][cycle - _first] = symbol. */
    std::vector<std::string> _rows;
    std::vector<bool> _syncMarks;
};

} // namespace fb::sim

#endif // FB_SIM_TRACE_HH
