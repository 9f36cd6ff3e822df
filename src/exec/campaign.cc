#include "exec/campaign.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "exec/ordered_emitter.hh"
#include "support/logging.hh"

namespace fb::exec
{

/**
 * Run one item with the per-task exception guard: a throwing runner
 * becomes a failed result carrying the exception text instead of an
 * unwound campaign. The payload is deterministic as long as the
 * exception message is (it is part of the ordered output stream).
 * Exposed so the service worker can apply the identical guard with
 * the global item index (its inner campaign only sees lease-local
 * indices).
 */
ItemResult
runGuardedItem(const ItemRunner &run, std::uint64_t index, WorkerContext &ctx)
{
    try {
        return run(index, ctx);
    } catch (const std::exception &e) {
        ItemResult r;
        r.failed = true;
        std::ostringstream oss;
        oss << "EXCEPTION item=" << index << ": " << e.what() << "\n";
        r.payload = oss.str();
        return r;
    } catch (...) {
        ItemResult r;
        r.failed = true;
        std::ostringstream oss;
        oss << "EXCEPTION item=" << index << ": (non-standard exception)\n";
        r.payload = oss.str();
        return r;
    }
}

CampaignStats
runCampaign(std::uint64_t count, const CampaignOptions &options,
            const ItemRunner &run, const ItemConsumer &consume)
{
    FB_ASSERT(options.jobs >= 1, "campaign needs at least one job");
    CampaignStats stats;
    stats.items = count;

    // Campaign-wide interning: private per call unless the caller
    // threads a longer-lived cache through (a service worker keeps
    // one across all its leases).
    ProgramCache localPrograms;
    ProgramCache &programs =
        options.programs != nullptr ? *options.programs : localPrograms;

    // Worker 0 is the calling thread and borrows the caller's machine
    // pool when one is given; every helper thread owns a private one.
    const auto jobs = static_cast<std::size_t>(
        std::min<std::uint64_t>(static_cast<std::uint64_t>(options.jobs),
                                std::max<std::uint64_t>(count, 1)));
    MachinePool localMachines;
    MachinePool &machines0 =
        options.machines != nullptr ? *options.machines : localMachines;
    std::vector<MachinePool> helperMachines(jobs - 1);

    const std::uint64_t builds0 = machines0.builds();
    const std::uint64_t reuses0 = machines0.reuses();
    const std::uint64_t misses0 = programs.misses();
    const std::uint64_t hits0 = programs.hits();

    // Self-scheduling: each worker claims the next index with one
    // fetch-and-add until the range is exhausted.
    std::atomic<std::uint64_t> next{0};
    std::atomic<std::uint64_t> failures{0};
    OrderedEmitter emitter(consume);
    auto work = [&](int worker, MachinePool &machines) {
        WorkerContext ctx{worker, machines, programs};
        for (std::uint64_t i = next++; i < count; i = next++) {
            ItemResult r = runGuardedItem(run, i, ctx);
            if (r.failed)
                failures.fetch_add(1, std::memory_order_relaxed);
            emitter.deliver(i, std::move(r));
        }
    };
    {
        std::vector<std::jthread> helpers;
        for (std::size_t w = 1; w < jobs; ++w)
            helpers.emplace_back([&, w] {
                work(static_cast<int>(w), helperMachines[w - 1]);
            });
        work(0, machines0);
    } // joins the helpers

    stats.failures = failures.load();
    stats.machinesBuilt = machines0.builds() - builds0;
    stats.machinesReused = machines0.reuses() - reuses0;
    for (const MachinePool &p : helperMachines) {
        stats.machinesBuilt += p.builds();
        stats.machinesReused += p.reuses();
    }
    stats.programsAssembled = programs.misses() - misses0;
    stats.programsInterned = programs.hits() - hits0;
    return stats;
}

} // namespace fb::exec
