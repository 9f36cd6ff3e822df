/**
 * @file
 * Resume-equivalence oracle: restore-at-cycle-K must be invisible.
 *
 * The checkpoint system's correctness condition is exactness: a run
 * that snapshots at cycle K, is discarded, and is resumed from the
 * snapshot on a fresh machine must produce a RunResult — every
 * counter, every verdict, every per-processor statistic — and final
 * architectural state bit-identical to the run that was never
 * interrupted. This oracle checks it three ways per scenario:
 *
 *   A  the uninterrupted reference run;
 *   B  the same run with checkpointing enabled at a randomized period
 *      K in [1, A.cycles] — proves that taking a snapshot (and the
 *      fast-forward clamp to checkpoint boundaries) perturbs nothing;
 *   C  a fresh machine restored from B's first snapshot and run to
 *      completion — proves the snapshot captured the whole state.
 *
 * B and C are each compared field-by-field against A, including the
 * full register files, the safety-oracle verdict, and the scenario's
 * watched memory words.
 */

#ifndef FB_VERIFY_RESUME_HH
#define FB_VERIFY_RESUME_HH

#include <cstdint>
#include <string>

#include "verify/scenario.hh"

namespace fb::exec
{
class MachinePool;
class ProgramCache;
} // namespace fb::exec

namespace fb::verify
{

/** Outcome of one resume-equivalence check. */
struct ResumeReport
{
    bool ok = true;
    /** Description of the first divergence (empty when ok). */
    std::string failure;
    /** The randomized checkpoint period/cycle K that was exercised. */
    std::uint64_t checkpointCycle = 0;
    /** Cycle count of the uninterrupted reference run. */
    std::uint64_t referenceCycles = 0;
    /** False when the run ended before any snapshot was taken (the
     * check then degenerates to A-vs-B equivalence). */
    bool snapshotTaken = false;

    // Delta-chain sweep only (checkChainResumeEquivalence).
    std::uint64_t checkpointsTaken = 0; ///< captures B produced
    std::uint64_t chainLength = 0;      ///< links C restored through
};

/**
 * Run the A/B/C check described above for @p sc under the baseline
 * machine model (depth 1, width 1, no jitter, hardware stall, seed 1
 * — the differ's reference variant), with @p sc's fault plan and
 * watchdog active if present. @p k_seed randomizes K; @p fast_forward
 * selects the event-driven or the legacy per-cycle loop for all three
 * runs.
 *
 * When @p pool is non-null the A/B/C machines are leased from it
 * (three concurrent leases of the same structural shape) instead of
 * constructed fresh. The scenario's assembly is interned in
 * @p programs when it is non-null, in a private cache otherwise. Both
 * hooks must outlive the call; the pool must belong to the calling
 * worker.
 */
ResumeReport checkResumeEquivalence(const Scenario &sc,
                                    std::uint64_t k_seed,
                                    bool fast_forward,
                                    std::uint64_t max_cycles = 5'000'000,
                                    exec::MachinePool *pool = nullptr,
                                    exec::ProgramCache *programs = nullptr);

/**
 * Delta-chain variant of the A/B/C check: B runs with a *staged*
 * checkpoint sink at a randomized cadence chosen so several captures
 * fire (full snapshots re-basing every @p rebase_every captures,
 * dirty-page deltas in between), all captures are retained in memory,
 * and C restores a seeded head capture through its entire delta chain
 * (Machine::restoreChainState) before running to completion. Both B
 * and C must match A bit-for-bit, proving that delta capture, the
 * epoch bookkeeping, and chain re-application perturb nothing and
 * lose nothing. The report's chainLength says how many links C
 * actually replayed (1 = the head was a full snapshot).
 */
ResumeReport checkChainResumeEquivalence(
    const Scenario &sc, std::uint64_t k_seed, bool fast_forward,
    std::uint32_t rebase_every = 4,
    std::uint64_t max_cycles = 5'000'000,
    exec::MachinePool *pool = nullptr,
    exec::ProgramCache *programs = nullptr);

} // namespace fb::verify

#endif // FB_VERIFY_RESUME_HH
