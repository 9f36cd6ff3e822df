/**
 * @file
 * Experiment E18 (infrastructure ablation) — campaign engine
 * throughput.
 *
 * Large fuzz/verification campaigns are dominated not by simulated
 * cycles but by per-scenario setup: spawning worker threads per
 * batch, re-assembling generated programs, and constructing a fresh
 * sim::Machine (memory, caches, RNG streams) for every scenario. This
 * bench times one campaign of many small generated scenarios two
 * ways:
 *
 *   legacy — the pre-engine batch loop: every batch of N scenarios
 *            spawns N threads and joins them (a slow scenario stalls
 *            its whole batch), and every scenario re-assembles its
 *            programs and constructs a fresh machine;
 *   engine — exec::runCampaign: self-scheduling workers (one shared
 *            item counter, no batch barrier) with per-worker
 *            machine recycling and shared program interning.
 *
 * Every scenario's result fingerprint (RunResult counters + final
 * registers) must be identical across the legacy loop, the engine at
 * full width, and the engine at jobs=1 — recycled machines and
 * interned programs must be observably invisible; only the wall
 * clock may differ. Machine-parsable tally lines report scenarios/sec
 * for both modes and the speedup for bench/run_all.sh.
 */

#include "common.hh"

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "exec/campaign.hh"
#include "verify/generator.hh"
#include "verify/scenario.hh"

namespace
{

using namespace fb;
using namespace fb::bench;

/** Distinct generated scenarios; the campaign cycles through them so
 * program interning has repeats to pay off on, as a real fuzz sweep's
 * corpus replay or shrink loop does. */
constexpr std::uint64_t kDistinctSeeds = 48;
constexpr std::uint64_t kScenarios = 1536;
constexpr std::uint64_t kMaxCycles = 200'000;

sim::MachineConfig
configFor(const verify::Scenario &sc)
{
    sim::MachineConfig cfg;
    cfg.numProcessors = sc.procs();
    // Campaign-scale machines: a production sweep runs with the full
    // shared memory and the coherent caches on, which is exactly the
    // construction cost (zero-filled memory, per-processor caches,
    // sharer tables) that recycling avoids.
    cfg.memWords = 1 << 18;
    cfg.cache.enabled = true;
    cfg.seed = 1;
    cfg.maxCycles = kMaxCycles;
    cfg.interruptPeriod = sc.interruptPeriod;
    cfg.isrEntry = sc.isrEntry;
    return cfg;
}

/** FNV-1a over everything the campaign observes about one run. */
std::uint64_t
fingerprint(const sim::RunResult &r, sim::Machine &m, int procs)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    mix(r.cycles);
    mix(r.deadlocked ? 1 : 0);
    mix(r.timedOut ? 1 : 0);
    mix(r.syncEvents);
    mix(r.busRequests);
    mix(r.memAccesses);
    for (const auto &p : r.perProcessor) {
        mix(p.instructions);
        mix(p.barrierEpisodes);
        mix(p.barrierWaitCycles);
    }
    for (int p = 0; p < procs; ++p)
        for (int reg = 0; reg < isa::numRegisters; ++reg)
            mix(static_cast<std::uint64_t>(m.processor(p).reg(reg)));
    return h;
}

std::atomic<std::uint64_t> gSimCycles{0};

/** One scenario on a ready machine; returns the result fingerprint. */
std::uint64_t
runScenario(const verify::Scenario &sc,
            const std::vector<isa::Program> &programs, sim::Machine &m)
{
    for (int p = 0; p < sc.procs(); ++p)
        m.loadProgram(p, programs[static_cast<std::size_t>(p)]);
    auto r = m.run();
    gSimCycles.fetch_add(r.cycles, std::memory_order_relaxed);
    return fingerprint(r, m, sc.procs());
}

/** Assemble under the scenario's encoding, aborting on failure
 * (generated programs must assemble; anything else is a harness bug). */
std::vector<isa::Program>
assembleFresh(const verify::Scenario &sc)
{
    std::vector<isa::Program> programs;
    for (int p = 0; p < sc.procs(); ++p) {
        isa::Program prog =
            assembleOrDie(sc.sources[static_cast<std::size_t>(p)]);
        if (sc.encoding == verify::Encoding::Markers)
            prog = prog.toMarkerEncoding();
        programs.push_back(std::move(prog));
    }
    return programs;
}

/** The pre-engine design: batches of @p jobs scenarios, one freshly
 * spawned thread per scenario, a join barrier per batch, and fresh
 * assembly + machine construction every time. */
double
runLegacy(const std::vector<verify::Scenario> &scenarios, int jobs,
          std::vector<std::uint64_t> &fingerprints)
{
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t batch = 0; batch < scenarios.size();
         batch += static_cast<std::size_t>(jobs)) {
        const std::size_t end = std::min(
            batch + static_cast<std::size_t>(jobs), scenarios.size());
        std::vector<std::thread> threads;
        threads.reserve(end - batch);
        for (std::size_t i = batch; i < end; ++i) {
            threads.emplace_back([&, i] {
                const auto &sc = scenarios[i];
                auto programs = assembleFresh(sc);
                sim::Machine m(configFor(sc));
                fingerprints[i] = runScenario(sc, programs, m);
            });
        }
        for (auto &t : threads)
            t.join();
    }
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
}

/** The campaign engine: self-scheduling workers, per-worker machine
 * recycling, shared program interning, seed-ordered delivery. */
double
runEngine(const std::vector<verify::Scenario> &scenarios, int jobs,
          std::vector<std::uint64_t> &fingerprints,
          exec::CampaignStats *stats_out)
{
    exec::CampaignOptions opt;
    opt.jobs = jobs;
    const auto start = std::chrono::steady_clock::now();
    auto stats = exec::runCampaign(
        scenarios.size(), opt,
        [&](std::uint64_t i, exec::WorkerContext &ctx) {
            const auto &sc = scenarios[i];
            std::vector<isa::Program> programs;
            for (int p = 0; p < sc.procs(); ++p) {
                auto interned = ctx.programs.intern(
                    sc.sources[static_cast<std::size_t>(p)]);
                if (!interned->ok) {
                    std::fprintf(stderr, "E18 assembly failed: %s\n",
                                 interned->error.c_str());
                    std::exit(1);
                }
                programs.push_back(
                    sc.encoding == verify::Encoding::Markers
                        ? interned->markers
                        : interned->bits);
            }
            auto lease = ctx.machines.acquire(configFor(sc));
            exec::ItemResult r;
            fingerprints[i] = runScenario(sc, programs, *lease);
            return r;
        },
        [](std::uint64_t, const exec::ItemResult &) {});
    const auto stop = std::chrono::steady_clock::now();
    if (stats_out)
        *stats_out = stats;
    return std::chrono::duration<double>(stop - start).count();
}

} // namespace

int
main(int argc, char **argv)
{
    int jobs =
        static_cast<int>(std::thread::hardware_concurrency());
    if (jobs < 1)
        jobs = 1;
    for (int i = 1; i < argc - 1; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0)
            jobs = std::atoi(argv[i + 1]);
    }
    if (jobs < 1) {
        std::fprintf(stderr, "E18: bad --jobs\n");
        return 2;
    }

    // Generate the campaign's scenarios up front: generation cost is
    // identical for both modes, so it stays outside the timed loops.
    std::vector<verify::Scenario> scenarios;
    scenarios.reserve(kScenarios);
    for (std::uint64_t i = 0; i < kScenarios; ++i)
        scenarios.push_back(
            verify::render(verify::randomSpec(1 + i % kDistinctSeeds)));

    std::vector<std::uint64_t> legacyFps(kScenarios, 0);
    std::vector<std::uint64_t> engineFps(kScenarios, 0);
    std::vector<std::uint64_t> serialFps(kScenarios, 0);

    const double legacySecs = runLegacy(scenarios, jobs, legacyFps);
    exec::CampaignStats stats;
    const double engineSecs =
        runEngine(scenarios, jobs, engineFps, &stats);
    // jobs=1 must observe the identical campaign — the ordered-output
    // guarantee the engine's consumers (fbfuzz --jobs) rely on.
    const double serialSecs = runEngine(scenarios, 1, serialFps, nullptr);

    for (std::uint64_t i = 0; i < kScenarios; ++i) {
        if (legacyFps[i] != engineFps[i] ||
            engineFps[i] != serialFps[i]) {
            std::fprintf(
                stderr,
                "E18: fingerprint mismatch at scenario %llu "
                "(legacy=%llx engine=%llx jobs1=%llx)\n",
                static_cast<unsigned long long>(i),
                static_cast<unsigned long long>(legacyFps[i]),
                static_cast<unsigned long long>(engineFps[i]),
                static_cast<unsigned long long>(serialFps[i]));
            return 1;
        }
    }

    const double legacyRate = kScenarios / legacySecs;
    const double engineRate = kScenarios / engineSecs;

    fb::Table table("E18 (infrastructure ablation): campaign engine vs "
                    "legacy batch loop (" +
                    std::to_string(kScenarios) + " scenarios, " +
                    std::to_string(jobs) + " jobs)");
    table.setHeader({"mode", "wall s", "scenarios/sec", "machines built",
                     "machines reused", "programs assembled"});
    table.row()
        .cell("legacy batch loop")
        .cell(legacySecs, 3)
        .cell(legacyRate, 0)
        .cell(kScenarios)
        .cell(static_cast<std::uint64_t>(0))
        .cell(kScenarios);
    table.row()
        .cell("campaign engine")
        .cell(engineSecs, 3)
        .cell(engineRate, 0)
        .cell(stats.machinesBuilt)
        .cell(stats.machinesReused)
        .cell(stats.programsAssembled);
    table.row()
        .cell("campaign engine (jobs=1)")
        .cell(serialSecs, 3)
        .cell(kScenarios / serialSecs, 0)
        .cell("-")
        .cell("-")
        .cell("-");
    table.print(std::cout);

    std::printf("campaign-scenarios-per-sec-engine: %.0f\n", engineRate);
    std::printf("campaign-scenarios-per-sec-legacy: %.0f\n", legacyRate);
    std::printf("campaign-speedup: %.2f\n", legacySecs / engineSecs);
    std::printf("total-sim-cycles: %llu\n",
                static_cast<unsigned long long>(gSimCycles.load()));
    printClaim("campaign throughput on small scenarios is setup-bound, "
               "not simulation-bound: recycling fully-constructed "
               "machines, interning generated programs, and replacing "
               "the per-batch join barrier with self-scheduling "
               "workers (one shared item counter) multiplies "
               "scenarios/sec without changing any scenario's result "
               "fingerprint");
    return 0;
}
