/**
 * @file
 * Resume-equivalence oracle: restoring a checkpoint must be invisible.
 *
 * The checkpoint system's correctness condition is exactness: a run
 * that snapshots, is discarded, and is resumed from the snapshot on a
 * fresh machine must produce a RunResult — every counter, every
 * verdict, every per-processor statistic — and final architectural
 * state bit-identical to the run that was never interrupted. This
 * oracle checks it three ways per scenario, all on the differential
 * matrix's baseline machine (verify::baselineConfig):
 *
 *   A  the uninterrupted reference run;
 *   B  the same run with staged checkpointing at a seeded period K of
 *      about A.cycles / (4..11), every capture kept in memory — proves
 *      that taking snapshots (and the fast-forward clamp to checkpoint
 *      boundaries) perturbs nothing;
 *   C  a fresh machine restored through a seeded head capture's whole
 *      chain, base first, and run to completion — proves the capture
 *      chain holds the whole state.
 *
 * B and C are each compared field-by-field against A, including the
 * full register files, the safety-oracle verdict, and the scenario's
 * watched memory words.
 */

#ifndef FB_VERIFY_RESUME_HH
#define FB_VERIFY_RESUME_HH

#include <cstdint>
#include <string>

#include "verify/differ.hh"
#include "verify/scenario.hh"

namespace fb::verify
{

/** Outcome of one resume-equivalence check. */
struct ResumeReport
{
    bool ok = true;
    /** Description of the first divergence (empty when ok). */
    std::string failure;
    /** The seeded checkpoint period K that was exercised. */
    std::uint64_t checkpointCycle = 0;
    /** Cycle count of the uninterrupted reference run. */
    std::uint64_t referenceCycles = 0;
    /** Captures B produced; 0 when the run timed out before cycle K
     * (the check then degenerates to A-vs-B equivalence). */
    std::uint64_t checkpointsTaken = 0;
    /** Cycle of B's newest capture (0 = none). */
    std::uint64_t lastCaptureCycle = 0;
    /** Links C restored through (1 = the head was a full snapshot). */
    std::uint64_t chainLength = 0;
};

/**
 * Run the A/B/C check described above for @p sc on
 * baselineConfig(sc, opt) with fastForward set to @p fast_forward
 * (the event-and-window or the per-cycle loop for all three runs).
 * @p k_seed draws K and the head capture. Every @p rebase_every-th
 * capture is a full snapshot and the ones between are dirty-page
 * deltas against their predecessor; 1 makes every capture full, so C
 * restores a single full snapshot.
 *
 * The A/B/C machines are leased from opt.machinePool when it is set
 * (three concurrent leases of the same structural shape) and
 * constructed fresh otherwise; the scenario's assembly is interned in
 * opt.programCache when it is set, in a private cache otherwise. Both
 * must outlive the call; the pool must belong to the calling worker.
 */
ResumeReport checkResumeEquivalence(const Scenario &sc,
                                    std::uint64_t k_seed,
                                    const DiffOptions &opt = {},
                                    std::uint32_t rebase_every = 4,
                                    bool fast_forward = true);

} // namespace fb::verify

#endif // FB_VERIFY_RESUME_HH
