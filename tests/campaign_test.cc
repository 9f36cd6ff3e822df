/**
 * @file
 * Campaign execution engine tests (INTERNALS section 16): the
 * self-scheduling workers, machine recycling, program interning, and
 * the engine's headline guarantee — a campaign's consumer-visible
 * output is byte-identical at any --jobs count, including campaigns
 * that mix fault plans and checkpoint/restore runs on recycled
 * machines.
 */

#include <atomic>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/campaign.hh"
#include "exec/machine_pool.hh"
#include "exec/ordered_emitter.hh"
#include "exec/program_cache.hh"
#include "fault/plan.hh"
#include "harness.hh"
#include "sim/machine.hh"
#include "verify/differ.hh"
#include "verify/generator.hh"
#include "verify/resume.hh"

namespace
{

using namespace fb;
using harness::attachFaults;

/**
 * One campaign item: a generated scenario through the differential
 * matrix on the worker's pooled machines, every third seed with a
 * fault plan, every fifth seed additionally through the A/B/C
 * checkpoint/restore oracle (three more pooled machines). The payload
 * is a deterministic journal line.
 */
exec::ItemResult
runJournalSeed(std::uint64_t i, exec::WorkerContext &ctx)
{
    const std::uint64_t seed = 1000 + i;
    auto spec = verify::randomSpec(seed);
    if (i % 3 == 0)
        attachFaults(spec, seed * 17 + 3);
    auto sc = verify::render(spec);

    verify::DiffOptions d;
    d.swBarrierReference = false;  // keep the 220-seed sweep fast
    d.machinePool = &ctx.machines;
    d.programCache = &ctx.programs;
    auto rep = verify::runDifferential(sc, d);

    std::ostringstream line;
    line << "seed=" << seed << " ok=" << rep.ok << " fp=" << std::hex
         << rep.baseline.hash() << std::dec;
    if (i % 5 == 0) {
        auto rr = verify::checkResumeEquivalence(sc, seed * 31, d);
        line << " resume=" << rr.ok << " k=" << rr.checkpointCycle
             << " snaps=" << rr.checkpointsTaken;
        if (!rr.ok)
            line << " why=" << rr.failure;
    }
    line << "\n";

    exec::ItemResult r;
    r.failed = !rep.ok;
    r.payload = line.str();
    return r;
}

/** Run a journal campaign of @p seeds items at @p jobs and return the
 * output stream; @p runner defaults to the standard journal item. */
std::string
journalAt(int jobs, std::uint64_t seeds, exec::CampaignStats *stats_out,
          const exec::ItemRunner &runner = runJournalSeed)
{
    exec::CampaignOptions opt;
    opt.jobs = jobs;
    std::string journal;
    std::uint64_t expected = 0;
    auto stats = exec::runCampaign(
        seeds, opt, runner,
        [&](std::uint64_t i, const exec::ItemResult &r) {
            EXPECT_EQ(i, expected) << "consumer saw indices out of order";
            ++expected;
            journal += r.payload;
        });
    EXPECT_EQ(expected, seeds);
    if (stats_out)
        *stats_out = stats;
    return journal;
}

// The tentpole guarantee: 220 generated scenarios — fault plans on
// every third, checkpoint/restore on every fifth — produce the same
// journal bytes at jobs=1 and jobs=4, and no scenario fails.
TEST(Campaign, JournalIdenticalAcrossJobs)
{
    constexpr std::uint64_t seeds = 220;
    exec::CampaignStats s1, s4;
    const std::string j1 = journalAt(1, seeds, &s1);
    const std::string j4 = journalAt(4, seeds, &s4);
    EXPECT_EQ(j1, j4);
    EXPECT_EQ(s1.failures, 0u);
    EXPECT_EQ(s4.failures, 0u);
    // The engine actually recycled machines in both modes — the sweep
    // exercises Machine::reset(), not just fresh construction.
    EXPECT_GT(s1.machinesReused, 0u);
    EXPECT_GT(s4.machinesReused, 0u);
    EXPECT_GT(s4.programsInterned, 0u);
    // Every journal line carries an oracle verdict; none may fail.
    EXPECT_EQ(j1.find("ok=0"), std::string::npos);
    EXPECT_EQ(j1.find("resume=0"), std::string::npos);
}

/**
 * One fbfuzz-style `--faults --cursor` journal item: a fault plan on
 * EVERY seed (not every third), the differential matrix, and a
 * `done <idx> pass|fail fp=<hex>` line — the format the cursor parses
 * to decide where a resumed campaign picks up.
 */
exec::ItemResult
runFaultedCursorSeed(std::uint64_t i, exec::WorkerContext &ctx)
{
    const std::uint64_t seed = 5000 + i;
    auto spec = verify::randomSpec(seed);
    attachFaults(spec, seed * 17 + 3);
    auto sc = verify::render(spec);

    verify::DiffOptions d;
    d.swBarrierReference = false;
    d.machinePool = &ctx.machines;
    d.programCache = &ctx.programs;
    auto rep = verify::runDifferential(sc, d);

    std::ostringstream line;
    line << "done " << i << ' ' << (rep.ok ? "pass" : "fail")
         << " fp=" << std::hex << rep.baseline.hash() << std::dec
         << "\n";
    exec::ItemResult r;
    r.failed = !rep.ok;
    r.payload = line.str();
    return r;
}

// The fbfuzz --faults + --cursor combination at the engine level: an
// all-faults journal is byte-identical at jobs=1 and jobs=4, and a
// mid-journal interruption resumed via the cursor (prefix marked
// done, remainder re-dispatched with offset indices) stitches back
// into exactly the uninterrupted bytes — again at both job counts.
TEST(Campaign, FaultedCursorResumeMatchesUninterrupted)
{
    constexpr std::uint64_t seeds = 48;
    constexpr std::uint64_t cursor = 19; // interrupt mid-journal
    exec::CampaignStats s1, s4;
    const std::string full1 =
        journalAt(1, seeds, &s1, runFaultedCursorSeed);
    const std::string full4 =
        journalAt(4, seeds, &s4, runFaultedCursorSeed);
    EXPECT_EQ(full1, full4);
    EXPECT_EQ(s1.failures, 0u);
    EXPECT_EQ(s4.failures, 0u);
    EXPECT_EQ(full1.find(" fail"), std::string::npos);

    // Interrupted run: only [0, cursor) made it into the journal.
    const std::string prefix =
        journalAt(1, cursor, nullptr, runFaultedCursorSeed);

    // Cursor resume re-dispatches [cursor, seeds) — the runner sees
    // engine indices [0, seeds-cursor) and offsets them, exactly as
    // fbfuzz maps post-cursor work back onto campaign items.
    for (int jobs : {1, 4}) {
        const std::string tail = journalAt(
            jobs, seeds - cursor, nullptr,
            [](std::uint64_t i, exec::WorkerContext &ctx) {
                return runFaultedCursorSeed(i + cursor, ctx);
            });
        EXPECT_EQ(prefix + tail, full1) << "jobs=" << jobs;
    }
}

// A machine leased from the pool must be observably identical to a
// fresh one: the full differential report (baseline fingerprint and
// verdict) matches fresh construction for every seed.
TEST(Campaign, PooledMachineMatchesFresh)
{
    exec::MachinePool pool;
    exec::ProgramCache programs;
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        auto spec = verify::randomSpec(seed);
        if (seed % 4 == 0)
            attachFaults(spec, seed * 13 + 1);
        auto sc = verify::render(spec);

        verify::DiffOptions fresh;
        fresh.swBarrierReference = false;
        auto freshRep = verify::runDifferential(sc, fresh);

        verify::DiffOptions pooled = fresh;
        pooled.machinePool = &pool;
        pooled.programCache = &programs;
        auto pooledRep = verify::runDifferential(sc, pooled);

        EXPECT_EQ(freshRep.ok, pooledRep.ok) << "seed " << seed;
        EXPECT_EQ(freshRep.baseline.hash(), pooledRep.baseline.hash())
            << "seed " << seed;
        EXPECT_EQ(freshRep.variantsRun, pooledRep.variantsRun)
            << "seed " << seed;
    }
    EXPECT_GT(pool.reuses(), 0u);
}

TEST(Campaign, MachinePoolReusesAndResets)
{
    exec::MachinePool pool;
    sim::MachineConfig cfg;
    cfg.numProcessors = 2;
    cfg.memWords = 1024;

    {
        auto a = pool.acquire(cfg);
        ASSERT_TRUE(bool(a));
        EXPECT_EQ(pool.builds(), 1u);
    }
    // Same structural shape: recycled, not rebuilt — even with
    // different timing knobs (reset() reconfigures those).
    sim::MachineConfig retimed = cfg;
    retimed.pipelineDepth = 4;
    retimed.seed = 99;
    {
        auto b = pool.acquire(retimed);
        EXPECT_EQ(pool.builds(), 1u);
        EXPECT_EQ(pool.reuses(), 1u);
    }
    // Different shape: a new machine.
    sim::MachineConfig wider = cfg;
    wider.numProcessors = 4;
    {
        auto c = pool.acquire(wider);
        EXPECT_EQ(pool.builds(), 2u);
    }
    // Concurrent leases of the same shape are distinct machines (the
    // resume oracle holds three at once).
    auto x = pool.acquire(cfg);
    auto y = pool.acquire(cfg);
    auto z = pool.acquire(cfg);
    EXPECT_NE(x.get(), y.get());
    EXPECT_NE(y.get(), z.get());
    EXPECT_NE(x.get(), z.get());
}

TEST(Campaign, ProgramCacheInternsBySource)
{
    exec::ProgramCache cache;
    const std::string src = ".region\nnop\n.endregion\nhalt\n";
    auto a = cache.intern(src);
    auto b = cache.intern(src);
    ASSERT_TRUE(a->ok) << a->error;
    EXPECT_EQ(a.get(), b.get());  // same interned object
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_GT(a->bits.size(), 0u);
    EXPECT_EQ(a->markers.size(), a->bits.size() + 2)
        << "marker encoding brackets each region with bm/em markers";

    // Assembly failures are interned too, so a bad generated program
    // is diagnosed once, not re-assembled per variant.
    auto bad = cache.intern("not-an-instruction r999\n");
    EXPECT_FALSE(bad->ok);
    EXPECT_FALSE(bad->error.empty());
    EXPECT_EQ(cache.intern("not-an-instruction r999\n").get(),
              bad.get());
}

TEST(Campaign, ProgramCacheIsBounded)
{
    // Generated sources almost never recur across scenarios, so the
    // cache clears wholesale at its cap instead of growing with the
    // campaign: after maxEntries other sources the first one is
    // assembled again.
    exec::ProgramCache cache;
    auto source = [](std::size_t i) {
        return "li r1, " + std::to_string(i) + "\nhalt\n";
    };
    ASSERT_TRUE(cache.intern(source(0))->ok);
    for (std::size_t i = 1; i <= exec::ProgramCache::maxEntries; ++i)
        cache.intern(source(i));
    EXPECT_EQ(cache.misses(), exec::ProgramCache::maxEntries + 1);
    cache.intern(source(0));
    EXPECT_EQ(cache.misses(), exec::ProgramCache::maxEntries + 2);
    EXPECT_EQ(cache.hits(), 0u);
}

TEST(Campaign, EveryItemRunsExactlyOnce)
{
    // The emitter drops duplicate deliveries, so the consumer stream
    // alone would hide an item that ran twice: count runner calls per
    // index as well as checking the stream.
    constexpr std::uint64_t items = 1000;
    std::vector<std::atomic<int>> ran(items);
    for (auto &r : ran)
        r.store(0);
    exec::CampaignOptions opt;
    opt.jobs = 4;
    std::uint64_t expected = 0;
    exec::runCampaign(
        items, opt,
        [&](std::uint64_t i, exec::WorkerContext &ctx) {
            EXPECT_GE(ctx.worker, 0);
            EXPECT_LT(ctx.worker, 4);
            ran[i].fetch_add(1);
            return exec::ItemResult{};
        },
        [&](std::uint64_t i, const exec::ItemResult &) {
            EXPECT_EQ(i, expected) << "consumer saw indices out of order";
            ++expected;
        });
    EXPECT_EQ(expected, items);
    for (std::uint64_t i = 0; i < items; ++i)
        EXPECT_EQ(ran[i].load(), 1) << "item " << i;
}

// A runner that throws must surface as a failed item carrying the
// exception text — not tear down the campaign — and the output must
// stay byte-identical across job counts with the failures in place.
TEST(Campaign, ThrowingRunnerBecomesFailedResult)
{
    auto throwy = [](std::uint64_t i,
                     exec::WorkerContext &) -> exec::ItemResult {
        if (i % 11 == 4)
            throw std::runtime_error("bug in item " +
                                     std::to_string(i));
        if (i % 13 == 6)
            throw 42;  // non-standard exception
        exec::ItemResult r;
        r.payload = "ok " + std::to_string(i) + "\n";
        return r;
    };

    constexpr std::uint64_t seeds = 60;
    exec::CampaignStats s1, s4;
    const std::string j1 = journalAt(1, seeds, &s1, throwy);
    const std::string j4 = journalAt(4, seeds, &s4, throwy);
    EXPECT_EQ(j1, j4);
    std::uint64_t expectFails = 0;
    for (std::uint64_t i = 0; i < seeds; ++i)
        if (i % 11 == 4 || i % 13 == 6)
            ++expectFails;
    EXPECT_EQ(s1.failures, expectFails);
    EXPECT_EQ(s4.failures, expectFails);
    EXPECT_NE(j1.find("EXCEPTION item=4: bug in item 4"),
              std::string::npos)
        << j1;
    EXPECT_NE(j1.find("EXCEPTION item=6: (non-standard exception)"),
              std::string::npos)
        << j1;
}

// --- OrderedEmitter --------------------------------------------------

struct EmitterLog
{
    std::string out;
    exec::ItemConsumer consume = [this](std::uint64_t i,
                                        const exec::ItemResult &r) {
        out += std::to_string(i) + ":" + r.payload + ";";
    };
};

exec::ItemResult
payload(const std::string &s, bool failed = false)
{
    exec::ItemResult r;
    r.payload = s;
    r.failed = failed;
    return r;
}

// Adversarial completion orders: whatever order results arrive in,
// consumption is in index order and each index is consumed exactly
// once, with the stream flushed as far as the contiguous prefix.
TEST(OrderedEmitter, ReordersArbitraryCompletionOrders)
{
    const std::vector<std::vector<std::uint64_t>> orders = {
        {0, 1, 2, 3, 4, 5},  // already ordered
        {5, 4, 3, 2, 1, 0},  // fully reversed
        {3, 0, 5, 1, 4, 2},  // interleaved
        {1, 2, 3, 4, 5, 0},  // prefix gated by the very first item
    };
    for (const auto &order : orders) {
        EmitterLog log;
        exec::OrderedEmitter em(log.consume);
        for (std::uint64_t i : order)
            EXPECT_TRUE(em.deliver(i, payload("p" + std::to_string(i))));
        EXPECT_EQ(log.out, "0:p0;1:p1;2:p2;3:p3;4:p4;5:p5;");
        EXPECT_EQ(em.next(), 6u);
        EXPECT_EQ(em.pendingCount(), 0u);
        EXPECT_EQ(em.duplicates(), 0u);
    }
}

TEST(OrderedEmitter, GapGatesTheStreamUntilFilled)
{
    EmitterLog log;
    exec::OrderedEmitter em(log.consume);
    EXPECT_TRUE(em.deliver(1, payload("b")));
    EXPECT_TRUE(em.deliver(3, payload("d")));
    EXPECT_EQ(log.out, "");  // nothing flushes past the hole at 0
    EXPECT_EQ(em.pendingCount(), 2u);
    EXPECT_TRUE(em.seen(1));
    EXPECT_FALSE(em.seen(0));

    // Failed and quarantined gap items release the stream like any
    // other delivery — a failure must not wedge the ordered prefix.
    EXPECT_TRUE(em.deliver(0, payload("FAIL a", true)));
    EXPECT_EQ(log.out, "0:FAIL a;1:b;");
    {
        exec::ItemResult q;
        q.failed = true;
        q.quarantined = true;
        q.payload = "QUARANTINE c";
        EXPECT_TRUE(em.deliver(2, std::move(q)));
    }
    EXPECT_EQ(log.out, "0:FAIL a;1:b;2:QUARANTINE c;3:d;");
    EXPECT_EQ(em.next(), 4u);
}

// At-least-once upstream, exactly-once downstream: duplicates of both
// already-flushed and still-pending indices are dropped and counted.
TEST(OrderedEmitter, DuplicateDeliveriesAreDroppedAndCounted)
{
    EmitterLog log;
    exec::OrderedEmitter em(log.consume);
    EXPECT_TRUE(em.deliver(0, payload("x")));
    EXPECT_FALSE(em.deliver(0, payload("x-again")));  // already flushed
    EXPECT_TRUE(em.deliver(2, payload("z")));
    EXPECT_FALSE(em.deliver(2, payload("z-again")));  // still pending
    EXPECT_TRUE(em.deliver(1, payload("y")));
    EXPECT_EQ(log.out, "0:x;1:y;2:z;");
    EXPECT_EQ(em.duplicates(), 2u);
}

TEST(Campaign, ResumeEquivalenceOnPooledMachines)
{
    exec::MachinePool pool;
    exec::ProgramCache programs;
    verify::DiffOptions opt;
    opt.machinePool = &pool;
    opt.programCache = &programs;
    for (std::uint64_t seed = 300; seed < 315; ++seed) {
        auto spec = verify::randomSpec(seed);
        if (seed % 2 == 0)
            attachFaults(spec, seed + 5);
        auto sc = verify::render(spec);
        auto rep = verify::checkResumeEquivalence(sc, seed * 7 + 1, opt);
        EXPECT_TRUE(rep.ok)
            << "seed " << seed << " K=" << rep.checkpointCycle << ": "
            << rep.failure;
    }
    EXPECT_GT(pool.reuses(), 0u);
}

} // namespace
