/**
 * @file
 * Shared helpers for the experiment harnesses (bench/e*). Each bench
 * binary reproduces one table/figure-level claim of the paper; see
 * DESIGN.md section 3 for the experiment index and EXPERIMENTS.md for
 * paper-vs-measured results.
 */

#ifndef FB_BENCH_COMMON_HH
#define FB_BENCH_COMMON_HH

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include <fcntl.h>
#include <unistd.h>

#include "core/fuzzy_barrier.hh"
#include "core/barrierprogs.hh"
#include "sim/machine.hh"
#include "support/table.hh"

namespace fb::bench
{

/** Running total of simulated cycles over every run in this bench
 * process. Printed at exit as a machine-parsable tally line so
 * bench/run_all.sh can turn wall-clock time into cycles/sec. */
inline std::uint64_t &
simCycleTally()
{
    static std::uint64_t tally = 0;
    return tally;
}

/** Environment knobs honoured by every bench: FB_NO_FAST_FORWARD=1
 * forces the legacy per-cycle loop (MachineConfig::fastForward off)
 * so run_all.sh can measure the fast-forward speedup on identical
 * workloads, and FB_NO_PREDECODE=1 forces the legacy instruction
 * interpreter (MachineConfig::predecode off) so the pre-decoded
 * backend can be excluded the same way. */
inline void
applyEnvOverrides(sim::MachineConfig &cfg)
{
    const char *v = std::getenv("FB_NO_FAST_FORWARD");
    if (v != nullptr && v[0] == '1')
        cfg.fastForward = false;
    v = std::getenv("FB_NO_PREDECODE");
    if (v != nullptr && v[0] == '1')
        cfg.predecode = false;
}

/** Fold one run's cycle count into the process tally; the first call
 * arms the atexit tally line. */
inline void
tallyCycles(const sim::RunResult &r)
{
    static const bool armed = [] {
        std::atexit([] {
            std::printf("total-sim-cycles: %llu\n",
                        static_cast<unsigned long long>(simCycleTally()));
        });
        return true;
    }();
    (void)armed;
    simCycleTally() += r.cycles;
}

/** Run the machine and tally its cycles. All bench executions that
 * own their Machine go through here; benches that run via a core::
 * helper call tallyCycles() on the returned result instead. */
inline sim::RunResult
runTallied(sim::Machine &machine)
{
    auto r = machine.run();
    tallyCycles(r);
    return r;
}

/**
 * Steady-state measurement loop. The first execution of @p workload
 * prints its tables as usual and is the bench's visible output; the
 * remaining repetitions re-run the identical workload with stdout
 * muted, so the process spends its wall-clock time in the simulator
 * instead of in process startup and the cycle tally — and with it
 * run_all.sh's cycles/sec — reports sustained simulation throughput
 * rather than exec/ld.so noise (the figure-scale workloads simulate
 * only a few thousand cycles each). FB_BENCH_REPS overrides the
 * bench's default repetition count; 1 restores the single-run
 * behaviour. Results are unaffected by construction: every rep is a
 * fresh machine over the same programs, and the tally sums cycles
 * across reps while the wall clock covers them all.
 */
inline void
runSteadyState(int default_reps, const std::function<void()> &workload)
{
    int reps = default_reps;
    if (const char *v = std::getenv("FB_BENCH_REPS");
        v != nullptr && v[0] != '\0') {
        reps = std::atoi(v);
        if (reps < 1)
            reps = 1;
    }
    workload();
    if (reps <= 1)
        return;
    std::cout.flush();
    std::fflush(stdout);
    const int saved = ::dup(STDOUT_FILENO);
    const int sink = ::open("/dev/null", O_WRONLY);
    if (saved < 0 || sink < 0) {
        // No muting available: better a single honest run than a
        // repeated flood of tables.
        if (saved >= 0)
            ::close(saved);
        if (sink >= 0)
            ::close(sink);
        return;
    }
    ::dup2(sink, STDOUT_FILENO);
    ::close(sink);
    for (int i = 1; i < reps; ++i)
        workload();
    std::cout.flush();
    std::fflush(stdout);
    ::dup2(saved, STDOUT_FILENO);
    ::close(saved);
}

/** Assemble or abort: bench programs are generated, so failure is a
 * harness bug. Results are memoized by source text — under the
 * steady-state rep loop each repetition re-generates identical
 * sources, and re-parsing them would make the benches measure the
 * assembler instead of the simulator. Thread-safe: E18's legacy loop
 * assembles from one thread per scenario. The memo holds programs
 * only; Machine::loadProgram decodes each load itself. */
inline isa::Program
assembleOrDie(const std::string &src)
{
    static std::mutex mu;
    static std::map<std::string, isa::Program> cache;
    {
        std::lock_guard<std::mutex> lk(mu);
        if (auto it = cache.find(src); it != cache.end())
            return it->second;
    }
    isa::Program prog;
    std::string err;
    if (!isa::Assembler::assemble(src, prog, err)) {
        std::fprintf(stderr, "bench assembly failed: %s\n", err.c_str());
        std::exit(1);
    }
    std::lock_guard<std::mutex> lk(mu);
    return cache.emplace(src, std::move(prog)).first->second;
}

/** Simulated clock period used when reporting microseconds: the
 * Encore Multimax's NS32032 processors ran at 10 MHz, so one cycle is
 * 0.1 us. Only E1 reports in microseconds; everything else uses raw
 * cycles. */
constexpr double usPerCycle = 0.1;

/** Sum of stalled episodes over all processors. */
inline std::uint64_t
totalStalledEpisodes(const sim::RunResult &r)
{
    std::uint64_t total = 0;
    for (const auto &p : r.perProcessor)
        total += p.stalledEpisodes;
    return total;
}

/** Sum of context switches over all processors. */
inline std::uint64_t
totalContextSwitches(const sim::RunResult &r)
{
    std::uint64_t total = 0;
    for (const auto &p : r.perProcessor)
        total += p.contextSwitches;
    return total;
}

/** Print the standard bench footer naming the claim reproduced. */
inline void
printClaim(const char *claim)
{
    std::printf("\npaper claim: %s\n", claim);
}

} // namespace fb::bench

#endif // FB_BENCH_COMMON_HH
