/**
 * @file
 * Differential executors and oracles for fuzzy-barrier scenarios.
 *
 * One Scenario is executed under a matrix of models that the paper
 * claims are result-equivalent — region-bit vs marker encoding,
 * pipeline depths, hardware vs software (Encore, section 8) stall
 * models, execution jitter, and VLIW multi-issue — and every run is
 * checked against the structural oracles (liveness, per-processor
 * episode counts, the section-2 safety condition) and diffed against
 * the baseline fingerprint (registers, watched memory). The same
 * episode schedule is also cross-checked against the real-thread
 * swbarrier reference implementations.
 */

#ifndef FB_VERIFY_DIFFER_HH
#define FB_VERIFY_DIFFER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "barrier/topology.hh"
#include "sim/config.hh"
#include "swbarrier/factory.hh"
#include "verify/scenario.hh"

namespace fb::exec
{
class MachinePool;
class ProgramCache;
} // namespace fb::exec

namespace fb::verify
{

/** Everything diffed about one execution of a scenario. */
struct Fingerprint
{
    bool deadlocked = false;
    bool timedOut = false;
    std::string safety;                  ///< "" = safety oracle holds
    std::uint64_t syncEvents = 0;
    std::vector<std::uint64_t> episodes; ///< per-processor episode count
    std::vector<std::int64_t> regs;      ///< diffed registers per proc
    std::vector<std::int64_t> mem;       ///< watched memory words
    std::vector<int> deadDeclared;       ///< fenced by recovery (sorted)
    std::string membership;              ///< "" = fault-safety holds

    /** FNV-1a hash over all fields, for compact replay output. */
    std::uint64_t hash() const;

    /** One-line summary (deterministic). */
    std::string summary() const;
};

/**
 * Which executors to run beyond the depth-1 baseline, and the machine
 * they all start from (baselineConfig). Every scenario always runs the
 * other encoding, pipeline depths 2 and 4, the software (Encore) stall
 * model, execution jitter, VLIW width 4, the per-cycle loop, the
 * legacy interpreter (unless @ref predecode is off) and the
 * delta-chain checkpoint oracle (verify::checkResumeEquivalence); the
 * fields below add or shape the rest.
 */
struct DiffOptions
{
    /**
     * Topology-sweep cross-check: re-run the baseline model under a
     * tree and a cluster synchronization network. The topology only
     * moves delivery cycles, so episodes, registers and watched
     * memory must match the flat baseline bit-for-bit (INTERNALS
     * section 21).
     */
    bool topologySweep = true;
    /**
     * Synchronization-network shape for the baseline, every
     * non-sweep variant and the checkpoint oracle (the fbfuzz
     * --topology flag). The sweep skips a shape equal to this one — it
     * would duplicate the baseline.
     */
    barrier::Topology topology;
    bool swBarrierReference = true;     ///< real-thread cross-check
    std::uint64_t maxCycles = 5'000'000;
    std::size_t memWords = 4096;

    /**
     * When >= 2, adds a sequential-vs-sharded executor: the baseline
     * machine re-run under exec::ShardedMachine with this many host
     * threads and @ref shardQuantum cycles of permitted skew
     * (INTERNALS section 17). 0 or 1 = off — the default, so
     * single-scenario fuzzing stays cheap and thread-free.
     */
    int shards = 0;
    /** Skew quantum for the sharded executor (cycles). */
    std::uint64_t shardQuantum = 1024;

    /**
     * Master switch for the pre-decoded threaded-code backend: when
     * false every executor in the matrix (baseline and checkpoint
     * oracle included) runs the legacy interpreter and the
     * legacy-dispatch cross-check variant is skipped as redundant. The
     * fbfuzz --no-predecode escape hatch.
     */
    bool predecode = true;

    /**
     * Optional campaign-engine hooks. When set, every variant and
     * the checkpoint oracle run on reset machines leased from the pool
     * instead of freshly constructed ones, and program assembly goes
     * through the caller's intern cache instead of a private one. Both
     * must outlive the call; the pool must belong to the calling
     * worker (MachinePool is not thread-safe).
     */
    exec::MachinePool *machinePool = nullptr;
    exec::ProgramCache *programCache = nullptr;
};

/** Outcome of a differential run. */
struct DiffReport
{
    bool ok = true;
    std::string variant;  ///< executor that failed/diverged ("" if ok)
    std::string failure;  ///< description of the first divergence
    Fingerprint baseline;
    int variantsRun = 0;

    /** Multi-line human-readable report (deterministic). */
    std::string describe() const;
};

/**
 * The machine every executor of @p sc starts from: MachineConfig's
 * defaults (depth 1, width 1, no jitter, hardware stall, seed 1, the
 * event-and-window loop) sized and shaped by @p opt (memWords,
 * maxCycles, topology, predecode) and carrying the scenario's timer
 * interrupt, fault plan and watchdog. Each differential variant is an
 * edit to this config, and the checkpoint oracle's reference run is
 * this config unedited. The config points at @p sc's fault plan, so
 * @p sc must outlive every machine built from it.
 */
sim::MachineConfig baselineConfig(const Scenario &sc,
                                  const DiffOptions &opt);

/**
 * Assemble and execute @p sc under the full differential matrix.
 * Stops at the first failing or diverging executor.
 */
DiffReport runDifferential(const Scenario &sc,
                           const DiffOptions &opt = {});

/**
 * Run @p episodes arrive/wait episodes over @p threads real threads
 * on a software barrier of @p kind, asserting the fuzzy-barrier
 * safety condition (wait() may not return before every member's
 * arrive()). Returns "" on success or a failure description.
 */
std::string runSwBarrierReference(sw::BarrierKind kind, int threads,
                                  int episodes);

/**
 * Degraded-membership reference: @p threads real threads run
 * @p episodes episodes, but thread @p victim disappears after episode
 * @p kill_at (0-based; it completes episodes [0, kill_at) only). The
 * survivors detect the loss via waitFor() timeout with retry and
 * rebuild the barrier over the surviving membership — the software
 * analog of the watchdog + mask-shrink protocol. Returns "" on
 * success or a failure description.
 */
std::string runSwBarrierDegradedReference(sw::BarrierKind kind,
                                          int threads, int episodes,
                                          int victim, int kill_at);

} // namespace fb::verify

#endif // FB_VERIFY_DIFFER_HH
