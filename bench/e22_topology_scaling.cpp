/**
 * @file
 * Experiment E22 — hierarchical barrier topologies and O(active)
 * simulation at 16..4096 processors.
 *
 * Two claims, both rooted in section 6's observation that the
 * broadcast interconnect grows with the machine:
 *
 *  A. Simulated sync cost. A flat single-level network spanning n
 *     processors pays a propagation delay that grows with n (modeled
 *     here as sync_latency = max(1, n/16)); a hierarchical network
 *     pays a constant local latency plus 2 * span * level_latency for
 *     the subtree a group spans, which grows only logarithmically
 *     (tree) or stays constant (cluster + root). Sweeping an
 *     all-processor barrier loop from 16 to 4096 processors, the
 *     tree/cluster runs must finish in fewer simulated cycles than
 *     flat from 256 processors up — while episodes and registers stay
 *     identical across all three shapes (the topology moves delivery
 *     cycles, never results).
 *
 *  B. Simulator cost. The machine's per-cycle bookkeeping and the
 *     barrier network's evaluation are O(active), not O(processors):
 *     with 16 participants and the rest of the machine halted, the
 *     wall-clock simulation rate (cycles/sec) at 1024 processors must
 *     hold at least half the 16-processor rate. The 4096-processor
 *     rate (the HiBitset ceiling) is reported, not gated.
 */

#include "common.hh"
#include "barrier/topology.hh"

#include <chrono>
#include <cstring>
#include <vector>

namespace
{

using namespace fb;
using namespace fb::bench;

constexpr int kSizes[] = {16, 64, 256, 1024, 4096};

barrier::Topology
parseTopo(const char *spec)
{
    barrier::Topology t;
    if (!barrier::Topology::parse(spec, t)) {
        std::fprintf(stderr, "E22: bad topology spec %s\n", spec);
        std::exit(1);
    }
    return t;
}

/** Results the topology must never change: per-processor episode
 * counts and the full register file. */
struct ResultPrint
{
    std::vector<std::int64_t> values;

    bool operator==(const ResultPrint &o) const
    {
        return values == o.values;
    }
};

struct TopoRun
{
    std::uint64_t cycles = 0;
    ResultPrint results;
};

/**
 * All-n barrier loop under @p topo. The flat shape pays the
 * size-scaled broadcast latency; hierarchical shapes pay a unit local
 * latency plus their per-level cost.
 */
TopoRun
runAllProcs(int n, const barrier::Topology &topo)
{
    sim::MachineConfig cfg;
    cfg.numProcessors = n;
    cfg.memWords = 1 << 12;
    cfg.maxCycles = 50'000'000;
    cfg.syncLatency =
        topo.flat() ? static_cast<std::uint32_t>(std::max(1, n / 16)) : 1;
    cfg.topology = topo;
    applyEnvOverrides(cfg);
    sim::Machine machine(cfg);
    for (int p = 0; p < n; ++p)
        machine.loadProgram(
            p, core::buildBarrierLoop(core::SimBarrierKind::HardwareFuzzy,
                                      n, p, /*episodes=*/4,
                                      /*work_instrs=*/16,
                                      /*region_instrs=*/4));
    auto r = runTallied(machine);
    if (r.deadlocked || r.timedOut) {
        std::fprintf(stderr, "E22 part A failed at n=%d topo=%s\n", n,
                     topo.toString().c_str());
        std::exit(1);
    }
    TopoRun out;
    out.cycles = r.cycles;
    for (const auto &p : r.perProcessor)
        out.results.values.push_back(
            static_cast<std::int64_t>(p.barrierEpisodes));
    for (int p = 0; p < n; ++p)
        for (int i = 0; i < isa::numRegisters; ++i)
            out.results.values.push_back(machine.processor(p).reg(i));
    return out;
}

/**
 * 16 participants in a machine of @p n processors; the other n-16
 * halt on cycle one. Measures the run()'s wall-clock simulation rate:
 * O(active) bookkeeping means the rate must not collapse as n grows.
 */
double
runSixteenActive(int n)
{
    constexpr int kParticipants = 16;
    sim::MachineConfig cfg;
    cfg.numProcessors = n;
    cfg.memWords = 1 << 12;
    cfg.maxCycles = 50'000'000;
    cfg.syncLatency = 1;
    applyEnvOverrides(cfg);
    sim::Machine machine(cfg);
    for (int p = 0; p < n; ++p) {
        if (p < kParticipants)
            machine.loadProgram(
                p, core::buildBarrierLoop(
                       core::SimBarrierKind::HardwareFuzzy,
                       kParticipants, p, /*episodes=*/300,
                       /*work_instrs=*/200, /*region_instrs=*/8));
        else
            machine.loadProgram(p, assembleOrDie("halt\n"));
    }
    const auto start = std::chrono::steady_clock::now();
    auto r = runTallied(machine);
    const auto end = std::chrono::steady_clock::now();
    if (r.deadlocked || r.timedOut) {
        std::fprintf(stderr, "E22 part B failed at n=%d\n", n);
        std::exit(1);
    }
    const double wall =
        std::chrono::duration<double>(end - start).count();
    return wall > 0 ? static_cast<double>(r.cycles) / wall : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    (void)argc;
    (void)argv;

    const barrier::Topology flat;
    const barrier::Topology tree = parseTopo("tree:4");
    const barrier::Topology cluster = parseTopo("cluster:16");

    bool ok = true;

    // Part A: simulated cycles of an all-processor barrier loop.
    fb::Table ta("E22a: simulated cycles, all-processor barrier loop "
                 "(flat latency n/16 vs tree:4 / cluster:16, level "
                 "latency 1)");
    ta.setHeader({"procs", "flat", "tree:4", "cluster:16", "identical"});
    for (int n : kSizes) {
        const TopoRun f = runAllProcs(n, flat);
        const TopoRun t = runAllProcs(n, tree);
        const TopoRun c = runAllProcs(n, cluster);
        const bool identical =
            f.results == t.results && f.results == c.results;
        ta.row()
            .cell(static_cast<std::int64_t>(n))
            .cell(static_cast<std::int64_t>(f.cycles))
            .cell(static_cast<std::int64_t>(t.cycles))
            .cell(static_cast<std::int64_t>(c.cycles))
            .cell(std::string(identical ? "yes" : "NO"));
        if (!identical) {
            ok = false;
            std::fprintf(stderr,
                         "E22 FAIL: results differ across topologies "
                         "at n=%d\n",
                         n);
        }
        if (n >= 256 && (t.cycles >= f.cycles || c.cycles >= f.cycles)) {
            ok = false;
            std::fprintf(stderr,
                         "E22 FAIL: hierarchical topology not faster "
                         "than flat at n=%d (flat=%llu tree=%llu "
                         "cluster=%llu)\n",
                         n, static_cast<unsigned long long>(f.cycles),
                         static_cast<unsigned long long>(t.cycles),
                         static_cast<unsigned long long>(c.cycles));
        }
        if (n == 1024)
            std::printf("topology-sync-advantage-1024: %.2f\n",
                        t.cycles > 0 ? static_cast<double>(f.cycles) /
                                           static_cast<double>(t.cycles)
                                     : 0.0);
    }
    ta.print(std::cout);

    // Part B: wall-clock simulation rate with 16 active processors.
    fb::Table tb("E22b: simulation rate, 16 participants, rest halted "
                 "(O(active) bookkeeping)");
    tb.setHeader({"procs", "cycles/sec", "vs-16"});
    double rate16 = 0.0;
    double ratio1024 = 0.0;
    double ratio4096 = 0.0;
    for (int n : kSizes) {
        const double rate = runSixteenActive(n);
        if (n == 16)
            rate16 = rate;
        const double ratio = rate16 > 0 ? rate / rate16 : 0.0;
        if (n == 1024)
            ratio1024 = ratio;
        if (n == 4096)
            ratio4096 = ratio;
        tb.row()
            .cell(static_cast<std::int64_t>(n))
            .cell(rate, 0)
            .cell(ratio, 2);
    }
    tb.print(std::cout);

    std::printf("topology-oactive-ratio: %.2f\n", ratio1024);
    std::printf("oactive-ratio-4096 (report only): %.2f\n", ratio4096);
    std::printf("topology-config: %s,%s,%s\n", flat.toString().c_str(),
                tree.toString().c_str(), cluster.toString().c_str());
    if (ratio1024 < 0.5) {
        ok = false;
        std::fprintf(stderr,
                     "E22 FAIL: 1024-processor rate fell below half "
                     "the 16-processor rate (ratio %.2f)\n",
                     ratio1024);
    }

    printClaim("section 6 scaled up: a hierarchical synchronization "
               "network keeps the delivery latency logarithmic where a "
               "flat broadcast's grows with the machine, and O(active) "
               "simulation holds the cycles/sec rate as the processor "
               "count grows 64x");
    return ok ? 0 : 1;
}
