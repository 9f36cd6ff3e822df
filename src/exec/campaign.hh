/**
 * @file
 * Deterministic campaign execution engine: runs a seed-indexed
 * family of scenario tasks on self-scheduling workers with machine
 * reuse, delivering results in seed order.
 */

#ifndef FB_EXEC_CAMPAIGN_HH
#define FB_EXEC_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <string>

#include "exec/machine_pool.hh"
#include "exec/program_cache.hh"

namespace fb::exec
{

/**
 * Per-worker execution context handed to every campaign task. The
 * machine pool is private to the worker (no locking on the hot
 * path); the program cache is shared by all workers, so a scenario's
 * executors assemble and decode each of its sources once. The cache
 * is bounded (ProgramCache::maxEntries), so a long campaign's memory
 * stays flat.
 */
struct WorkerContext
{
    int worker = 0;
    MachinePool &machines;
    ProgramCache &programs;
};

/** Knobs for one campaign. */
struct CampaignOptions
{
    /** Workers; the calling thread is worker 0, so 1 = no threads. */
    int jobs = 1;
    /**
     * Optional externally-owned program cache. When set, interned
     * programs survive across runCampaign calls (a resident service
     * worker keeps one across its leases). Null = a private per-call
     * cache.
     */
    ProgramCache *programs = nullptr;
    /**
     * Optional externally-owned machine pool for worker 0 (the
     * calling thread) at any job count, so its recycled machines
     * survive across calls. Workers 1..jobs-1 get private per-call
     * pools: MachinePool is deliberately not thread-safe.
     */
    MachinePool *machines = nullptr;
};

/**
 * Result of one campaign item. The payload is free-form text the
 * consumer emits (e.g. a FAIL block); determinism of the overall
 * campaign output reduces to the runner being a pure function of the
 * item index.
 */
struct ItemResult
{
    bool failed = false;
    /**
     * Set by the campaign service when the item was isolated after
     * repeatedly killing its worker; the payload is then the
     * quarantine artifact, not the runner's output.
     */
    bool quarantined = false;
    std::string payload;
};

/**
 * Runs item @p index on a worker; must depend only on the index. A
 * runner that throws does not take down the campaign: the exception
 * is caught per task and converted into a failed ItemResult whose
 * payload carries the exception text (counted in
 * CampaignStats::failures).
 */
using ItemRunner =
    std::function<ItemResult(std::uint64_t index, WorkerContext &ctx)>;

/**
 * Receives every result in strictly ascending index order, streamed
 * as the ordered prefix completes (not batched at the end). Calls
 * are serialized; they run on whichever worker filled the gap.
 */
using ItemConsumer =
    std::function<void(std::uint64_t index, const ItemResult &result)>;

/** What a campaign did, for logs and throughput reporting. */
struct CampaignStats
{
    std::uint64_t items = 0;
    std::uint64_t failures = 0;
    std::uint64_t machinesBuilt = 0;
    std::uint64_t machinesReused = 0;
    std::uint64_t programsAssembled = 0;
    std::uint64_t programsInterned = 0;
    /** Always 0: workers claim items from one shared counter, so
     * there is no queue to steal from. Kept for report readers. */
    std::uint64_t tasksStolen = 0;
};

/**
 * Run @p run on item @p index, converting a thrown exception into a
 * failed ItemResult whose payload carries the exception text. This is
 * the per-task guard runCampaign applies; the service worker calls it
 * directly with the *global* item index, so an exception thrown
 * inside a lease reports the same `EXCEPTION item=N` line the
 * in-process engine would — lease-local indices never leak into
 * output.
 */
ItemResult runGuardedItem(const ItemRunner &run, std::uint64_t index,
                          WorkerContext &ctx);

/**
 * Run items [0, count) and deliver each result to @p consume in
 * ascending index order. Workers self-schedule: the calling thread
 * (worker 0) and jobs - 1 helper threads each claim the next index
 * from one shared counter until none is left, so nothing is queued
 * ahead and a slow item delays only its own worker. An ordered
 * emitter holds out-of-order completions until the gap fills.
 * Because the runner is a pure function of the index and delivery
 * order is fixed, the consumer observes a byte-identical stream at
 * any job count.
 */
CampaignStats runCampaign(std::uint64_t count,
                          const CampaignOptions &options,
                          const ItemRunner &run,
                          const ItemConsumer &consume);

} // namespace fb::exec

#endif // FB_EXEC_CAMPAIGN_HH
