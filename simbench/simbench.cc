/**
 * @file
 * Simulator benchmark binary: four seeded closed-loop workloads run
 * against the simulator's public API (see README.md next to this file).
 *
 *   simbench --workload NAME --seed N --seconds S --trace 0|1
 *            --workdir DIR [--trace-out FILE] [--reference]
 *            [--reference-only]
 *
 * Prints human-readable notes, then one JSON object on the last line:
 * attempted/failed op counts, the op fingerprint, the metrics, and the
 * host fingerprint. run.py builds this binary, compares the fingerprint
 * with the golden file and prints the benchmark's result line.
 *
 * --trace 0 reports the end-to-end metrics with tracing off.
 * --trace 1 times the first half of the run untraced and the second half
 * traced, derives the per-layer metrics from the spans, and reports the
 * tracing overhead as the difference of the two op_ms_p50.
 * --reference also runs the machine workloads once on the per-cycle
 * reference loop (fast-forward and predecode off) after timing and
 * reports that fingerprint; --reference-only does only that.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include <cpuid.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include "barrier/topology.hh"
#include "core/barrierprogs.hh"
#include "exec/campaign.hh"
#include "isa/assembler.hh"
#include "sim/machine.hh"
#include "snapshot/store.hh"
#include "snapshot/writer.hh"
#include "verify/differ.hh"
#include "verify/generator.hh"

namespace
{

using namespace fb;
using Clock = std::chrono::steady_clock;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

[[noreturn]] void
die(const std::string &why)
{
    std::fprintf(stderr, "simbench: %s\n", why.c_str());
    std::exit(2);
}

// ---------------------------------------------------------------------
// Spans. Kept in memory while tracing is on and written out at the end.

struct Span
{
    const char *name = "";
    std::int64_t start = 0;
    std::int64_t end = -1;
    std::int64_t parent = -1;
    std::int64_t op = -1; ///< -1 = set-up phase
    int thread = 0;
};

struct Tracer
{
    /** Flipped only while no worker thread runs. */
    bool enabled = false;
    std::mutex mu;
    std::vector<Span> spans;
};

Tracer tracer;
std::atomic<int> threadCount{0};
thread_local const int threadId = threadCount++;
thread_local std::vector<std::int64_t> openSpans;
thread_local std::int64_t currentOp = -1;

constexpr std::int64_t inheritParent = -2;

/** One span around a public call; a no-op while tracing is off. */
class Scope
{
  public:
    explicit Scope(const char *name, std::int64_t parent = inheritParent)
    {
        if (!tracer.enabled)
            return;
        if (parent == inheritParent)
            parent = openSpans.empty() ? -1 : openSpans.back();
        Span s;
        s.name = name;
        s.parent = parent;
        s.op = currentOp;
        s.thread = threadId;
        s.start = nowNs();
        {
            std::lock_guard<std::mutex> g(tracer.mu);
            _id = static_cast<std::int64_t>(tracer.spans.size());
            tracer.spans.push_back(s);
        }
        openSpans.push_back(_id);
    }

    ~Scope()
    {
        if (_id < 0)
            return;
        openSpans.pop_back();
        const std::int64_t end = nowNs();
        std::lock_guard<std::mutex> g(tracer.mu);
        tracer.spans[static_cast<std::size_t>(_id)].end = end;
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::int64_t id() const { return _id; }

  private:
    std::int64_t _id = -1;
};

/** Self time of every span: its duration minus the union of its
 * children's intervals (children may overlap when they ran on
 * different worker threads). */
std::vector<std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent >= 0)
            children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        for (std::size_t c : children[i])
            iv.emplace_back(std::max(spans[c].start, spans[i].start),
                            std::min(spans[c].end, spans[i].end));
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t reach = spans[i].start;
        for (auto [a, b] : iv) {
            a = std::max(a, reach);
            if (b > a) {
                covered += b - a;
                reach = b;
            }
        }
        self[i] = spans[i].end - spans[i].start - covered;
    }
    return self;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

void
writeTrace(const std::string &path, const std::vector<Span> &spans,
           const std::vector<std::int64_t> &self)
{
    std::ofstream out(path);
    if (!out)
        die("cannot write trace file " + path);
    out << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << "{\"id\": " << i << ", \"name\": \"" << s.name
            << "\", \"start_ns\": " << s.start << ", \"end_ns\": " << s.end
            << ", \"self_ns\": " << self[i] << ", \"parent\": " << s.parent
            << ", \"op\": " << s.op << ", \"thread\": " << s.thread << "}"
            << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << "]}\n";
}

// ---------------------------------------------------------------------
// Statistics and metric output.

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** The highest percentile with at least ten samples beyond it. */
struct Tail
{
    double value = 0.0;
    double percentile = 100.0;
    std::size_t samples = 0;
};

Tail
tailOf(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    if (v.size() <= 10) {
        t.value = v.back();
        return t;
    }
    const std::size_t k = v.size() - 11;
    t.value = v[k];
    t.percentile = 100.0 * static_cast<double>(k + 1) /
                   static_cast<double>(v.size());
    return t;
}

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Report
{
    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, std::string>> notes;
    std::vector<std::pair<std::string, std::string>> notApplicable;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    void na(const std::string &name, const std::string &unit,
            const std::string &why)
    {
        add(name, 0.0, unit);
        notApplicable.emplace_back(name, why);
    }

    void note(const std::string &key, const std::string &text)
    {
        notes.emplace_back(key, text);
    }
};

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
cpuModel()
{
    unsigned int regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u)
        return "unknown";
    for (unsigned int i = 0; i < 3; ++i)
        __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
    std::string s(reinterpret_cast<const char *>(regs), sizeof regs);
    s = s.c_str();
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
}

int
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return CPU_COUNT(&set);
    return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

std::string
hostJson()
{
#if defined(__OPTIMIZE__)
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
#if defined(NDEBUG)
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    std::ostringstream o;
    o << "{\"nproc\": " << usableCpus() << ", \"cpu\": \""
      << jsonEscape(cpuModel()) << "\", \"compiler\": \"gcc "
      << jsonEscape(__VERSION__) << "\", \"optimized\": "
      << (optimized ? "true" : "false")
      << ", \"ndebug\": " << (ndebug ? "true" : "false") << "}";
    return o.str();
}

// ---------------------------------------------------------------------
// Fingerprints of simulated results.

struct Fnv
{
    std::uint64_t h = 1469598103934665603ull;

    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    }

    void add(const std::string &s)
    {
        add(s.size());
        for (char c : s) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ull;
        }
    }
};

/** RunResult counters plus every register. The staged-checkpoint
 * fields are left out: checkpointing never changes what a run
 * computes, and the reference run takes no checkpoints. */
void
addRun(Fnv &f, const sim::RunResult &r, sim::Machine &m)
{
    f.add(r.cycles);
    f.add(r.deadlocked);
    f.add(r.timedOut);
    f.add(r.syncEvents);
    f.add(r.syncRecordsDropped);
    f.add(r.busRequests);
    f.add(r.busQueueDelay);
    f.add(r.memAccesses);
    f.add(r.hotSpotAccesses);
    f.add(r.invalidationsSent);
    f.add(r.invalidationsAvoided);
    f.add(r.membershipViolation);
    for (const auto &p : r.perProcessor) {
        for (std::uint64_t v :
             {p.instructions, p.barrierWaitCycles, p.contextSwitchCycles,
              p.contextSwitches, p.interruptsTaken, p.barrierEpisodes,
              p.stalledEpisodes, p.stallCycles, p.cacheHits, p.cacheMisses})
            f.add(v);
    }
    for (int p = 0; p < m.numProcessors(); ++p)
        for (int i = 0; i < isa::numRegisters; ++i)
            f.add(static_cast<std::uint64_t>(m.processor(p).reg(i)));
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/** Seeded generator for workload inputs (splitmix64). */
struct Rng
{
    std::uint64_t state;

    std::uint64_t next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    int below(int n) { return static_cast<int>(next() % static_cast<unsigned>(n)); }
};

/**
 * Per-processor offsets to a workload's work length: a seeded
 * permutation of a fixed multiset of -2..+2. The seed changes which
 * processor is slow, never how slow the slowest is, so simulated time
 * moves little from seed to seed.
 */
std::vector<int>
workOffsets(int procs, Rng &rng)
{
    std::vector<int> d(static_cast<std::size_t>(procs));
    for (int p = 0; p < procs; ++p)
        d[static_cast<std::size_t>(p)] = p % 5 - 2;
    for (int i = procs - 1; i > 0; --i)
        std::swap(d[static_cast<std::size_t>(i)],
                  d[static_cast<std::size_t>(rng.below(i + 1))]);
    return d;
}

// ---------------------------------------------------------------------
// Machine workloads: each op resets, reloads and runs a fixed set of
// machines built during set-up.

constexpr int denseProcs = 64;
constexpr int denseEpisodes = 300;
constexpr int denseWork = 20;
constexpr int denseRegion = 4;

constexpr int privateProcs = 64;
constexpr int privateEpisodes = 25;
constexpr int privateWork = 2400;
constexpr int privateRegion = 8;
constexpr std::uint64_t privateCheckpointEvery = 5000;

constexpr int wideProcs = 1024;
constexpr int wideEpisodes = 2;
constexpr int wideWork = 16;
constexpr int wideRegion = 4;

struct MachineRun
{
    std::string name;
    sim::MachineConfig cfg;
    std::vector<isa::Program> programs;
    std::unique_ptr<sim::Machine> machine;
    std::vector<std::shared_ptr<const sim::DecodedProgram>> decoded;
};

/** Simulated totals of one op (summed over its machine runs). */
struct OpCounts
{
    std::uint64_t cycles = 0;
    std::uint64_t procCycles = 0; ///< cycles x processors
    std::uint64_t instructions = 0;
    std::uint64_t barrierWait = 0;
    std::uint64_t stallCycles = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t busRequests = 0;
    std::uint64_t busQueueDelay = 0;
    std::uint64_t memAccesses = 0;
    std::uint64_t hotSpotAccesses = 0;
    std::uint64_t invalidationsSent = 0;
    std::uint64_t invalidationsAvoided = 0;
    std::uint64_t syncEvents = 0;
    std::uint64_t syncMembers = 0;  ///< summed over sync records
    std::uint64_t syncRecords = 0;
    std::uint64_t checkpointsFull = 0;
    std::uint64_t checkpointsDelta = 0;
    std::uint64_t checkpointDegradations = 0;

    void addRun(const sim::RunResult &r, int procs)
    {
        cycles += r.cycles;
        procCycles += r.cycles * static_cast<std::uint64_t>(procs);
        for (const auto &p : r.perProcessor) {
            instructions += p.instructions;
            barrierWait += p.barrierWaitCycles;
            stallCycles += p.stallCycles;
            cacheHits += p.cacheHits;
            cacheMisses += p.cacheMisses;
        }
        busRequests += r.busRequests;
        busQueueDelay += r.busQueueDelay;
        memAccesses += r.memAccesses;
        hotSpotAccesses += r.hotSpotAccesses;
        invalidationsSent += r.invalidationsSent;
        invalidationsAvoided += r.invalidationsAvoided;
        syncEvents += r.syncEvents;
        checkpointsFull += r.checkpointsFull;
        checkpointsDelta += r.checkpointsDelta;
        checkpointDegradations += r.checkpointDegradations;
    }
};

struct OpOutcome
{
    std::uint64_t fingerprint = 0;
    std::string failure; ///< empty = op passed every check
    OpCounts counts;
};

/**
 * Checkpoint plumbing of private_compute, as fbsim --checkpoint sets it
 * up: a SnapshotStore in a fresh directory behind an
 * AsyncSnapshotWriter, installed as the staged sink (delta + async).
 */
struct Checkpointing
{
    std::unique_ptr<snapshot::SnapshotStore> store;
    std::unique_ptr<snapshot::AsyncSnapshotWriter> writer;
    std::uint64_t bytesSubmitted = 0;
    std::int64_t sinkNs = 0;
};

isa::Program
assembleOrDie(const std::string &src)
{
    Scope s("isa.assemble");
    isa::Program prog;
    std::string err;
    if (!isa::Assembler::assemble(src, prog, err))
        die("generated program failed to assemble: " + err);
    return prog;
}

/** Processor @p p's private_compute program: a hw-fuzzy loop whose
 * work mixes ALU ops with loads of the processor's own words. */
std::string
privateComputeSource(int p, int work, Rng &rng)
{
    std::ostringstream o;
    o << "settag 1\nsetmask -1\n";
    o << "li r1, 0\nli r2, " << privateEpisodes << "\n";
    o << "li r8, " << 4096 + 64 * p << "\n";
    for (int r = 9; r <= 15; ++r)
        o << "li r" << r << ", " << 1 + rng.below(1000) << "\n";
    o << "loop:\n";
    static const char *alu[] = {"add", "sub", "xor", "and", "or"};
    auto reg = [&rng] {
        const int r = 3 + rng.below(10); // r3..r12, skipping r8
        return r >= 8 ? r + 1 : r;
    };
    for (int k = 0; k < work; ++k) {
        // Every 16th instruction is a load, so the number of loads (and
        // with it each processor's cycles per episode) is the same on
        // every seed.
        const int kind = k % 16 == 0 ? 0 : 1 + rng.below(31);
        if (kind == 0)
            o << "ld r" << reg() << ", " << rng.below(32) << "(r8)\n";
        else if (kind < 12)
            o << "addi r" << reg() << ", r" << reg() << ", "
              << rng.below(64) << "\n";
        else
            o << alu[rng.below(5)] << " r" << reg() << ", r" << reg()
              << ", r" << reg() << "\n";
    }
    o << ".region 1\n";
    for (int k = 0; k < privateRegion - 2; ++k)
        o << "addi r4, r4, 1\n";
    o << "addi r1, r1, 1\nbne r1, r2, loop\n.endregion\nhalt\n";
    return o.str();
}

std::vector<isa::Program>
barrierLoops(core::SimBarrierKind kind, int procs, int episodes, int work,
             int region, const std::vector<int> &offsets)
{
    std::vector<isa::Program> progs;
    for (int p = 0; p < procs; ++p) {
        Scope s("core.build");
        progs.push_back(core::buildBarrierLoop(
            kind, procs, p, episodes,
            work + offsets[static_cast<std::size_t>(p)], region));
    }
    return progs;
}

/** Machine specs (configs + programs) of a machine workload. */
std::vector<MachineRun>
machineSpecs(const std::string &workload, std::uint64_t seed)
{
    Fnv salt;
    salt.add(workload);
    salt.add(seed);
    Rng rng{salt.h};
    std::vector<MachineRun> runs;
    if (workload == "barrier_dense") {
        const auto offsets = workOffsets(denseProcs, rng);
        for (auto kind : {core::SimBarrierKind::Centralized,
                          core::SimBarrierKind::Dissemination,
                          core::SimBarrierKind::HardwarePoint,
                          core::SimBarrierKind::HardwareFuzzy}) {
            MachineRun r;
            r.name = core::simBarrierKindName(kind);
            r.cfg.numProcessors = denseProcs;
            r.cfg.memWords = 1 << 14;
            r.cfg.maxCycles = 500'000'000;
            r.cfg.busKind = sim::BusKind::Banked;
            r.programs = barrierLoops(kind, denseProcs, denseEpisodes,
                                      denseWork, denseRegion, offsets);
            runs.push_back(std::move(r));
        }
    } else if (workload == "private_compute") {
        const auto offsets = workOffsets(privateProcs, rng);
        MachineRun r;
        r.name = "hw-fuzzy";
        r.cfg.numProcessors = privateProcs;
        r.cfg.checkpointEveryCycles = privateCheckpointEvery;
        for (int p = 0; p < privateProcs; ++p) {
            std::string src;
            {
                Scope s("bench.generate");
                src = privateComputeSource(
                    p, privateWork + 8 * offsets[static_cast<std::size_t>(p)],
                    rng);
            }
            r.programs.push_back(assembleOrDie(src));
        }
        runs.push_back(std::move(r));
    } else if (workload == "wide_machine") {
        const auto offsets = workOffsets(wideProcs, rng);
        MachineRun r;
        r.name = "hw-fuzzy";
        r.cfg.numProcessors = wideProcs;
        r.cfg.memWords = 1 << 12;
        r.cfg.maxCycles = 50'000'000;
        r.cfg.syncLatency = 1;
        if (!barrier::Topology::parse("tree:4", r.cfg.topology))
            die("bad topology spec");
        r.programs =
            barrierLoops(core::SimBarrierKind::HardwareFuzzy, wideProcs,
                         wideEpisodes, wideWork, wideRegion, offsets);
        runs.push_back(std::move(r));
    } else {
        die("unknown machine workload " + workload);
    }
    return runs;
}

class MachineWorkload
{
  public:
    /** Set-up: generate programs, construct machines, load (decode),
     * create the checkpoint store and writer. */
    MachineWorkload(const std::string &workload, std::uint64_t seed,
                    const std::string &workdir, bool reference)
        : _runs(machineSpecs(workload, seed))
    {
        for (auto &r : _runs) {
            if (reference) {
                r.cfg.fastForward = false;
                r.cfg.predecode = false;
                r.cfg.checkpointEveryCycles = 0;
            }
            {
                Scope s("sim.construct");
                r.machine = std::make_unique<sim::Machine>(r.cfg);
            }
            for (int p = 0; p < r.cfg.numProcessors; ++p) {
                Scope s("sim.load");
                r.machine->loadProgram(
                    p, r.programs[static_cast<std::size_t>(p)]);
                r.decoded.push_back(r.machine->decodedProgram(p));
            }
            if (r.cfg.checkpointEveryCycles > 0) {
                Scope s("snapshot.open");
                std::filesystem::remove_all(workdir);
                _ck.store = std::make_unique<snapshot::SnapshotStore>(workdir);
                _ck.writer =
                    std::make_unique<snapshot::AsyncSnapshotWriter>(*_ck.store);
            }
        }
    }

    const Checkpointing &checkpointing() const { return _ck; }

    /** Host ns spent inside Machine::run with at least one sync
     * delivered, and those deliveries, over the ops since the last
     * call (the barrier-network cost measure). */
    std::pair<std::int64_t, std::uint64_t> takeSyncRunTotals()
    {
        auto t = std::make_pair(_syncRunNs, _syncRunEvents);
        _syncRunNs = 0;
        _syncRunEvents = 0;
        return t;
    }

    OpOutcome op()
    {
        OpOutcome out;
        Fnv f;
        for (auto &r : _runs) {
            sim::Machine &m = *r.machine;
            {
                Scope s("sim.reset");
                m.reset(r.cfg);
            }
            {
                Scope s("sim.reload");
                for (int p = 0; p < r.cfg.numProcessors; ++p) {
                    const auto sp = static_cast<std::size_t>(p);
                    m.loadProgram(p, r.programs[sp], r.decoded[sp]);
                }
            }
            if (_ck.writer)
                installSink(m);
            sim::RunResult res;
            const std::int64_t t0 = nowNs();
            {
                Scope s("sim.run");
                res = m.run();
            }
            const std::int64_t t1 = nowNs();
            if (res.syncEvents > 0) {
                _syncRunNs += t1 - t0;
                _syncRunEvents += res.syncEvents;
            }
            if (_ck.writer) {
                Scope s("snapshot.drain");
                _ck.writer->drain();
            }
            std::string safety;
            {
                Scope s("sim.safety_check");
                safety = m.checkSafetyProperty();
            }
            for (const auto &rec : m.syncRecords()) {
                out.counts.syncMembers += rec.members.size();
                ++out.counts.syncRecords;
            }
            if (out.failure.empty()) {
                if (res.deadlocked)
                    out.failure = r.name + ": deadlocked";
                else if (res.timedOut)
                    out.failure = r.name + ": timed out";
                else if (!safety.empty())
                    out.failure = r.name + ": safety: " + safety;
                else if (!res.membershipViolation.empty())
                    out.failure =
                        r.name + ": membership: " + res.membershipViolation;
            }
            out.counts.addRun(res, r.cfg.numProcessors);
            addRun(f, res, m);
        }
        out.fingerprint = f.h;
        return out;
    }

  private:
    void installSink(sim::Machine &m)
    {
        m.setStagedCheckpointSink(
            [this](snapshot::SnapshotHeader header,
                   std::vector<snapshot::Section> sections) {
                Scope s("snapshot.submit");
                const std::int64_t t0 = nowNs();
                for (const auto &sec : sections)
                    _ck.bytesSubmitted += sec.payload.size();
                auto verdict = _ck.writer->submit(std::move(header),
                                                  std::move(sections));
                _ck.sinkNs += nowNs() - t0;
                sim::Machine::CheckpointAck ack;
                ack.keep = verdict.keep;
                ack.forceFull = verdict.forceFull;
                ack.deltasOk = verdict.deltasOk;
                ack.degradation = std::move(verdict.degradation);
                return ack;
            });
    }

    std::vector<MachineRun> _runs;
    Checkpointing _ck;
    std::int64_t _syncRunNs = 0;
    std::uint64_t _syncRunEvents = 0;
};

struct TimedOps
{
    std::vector<double> opMs;
    std::uint64_t failed = 0;
    std::string firstFailure;
    OpCounts counts; ///< of the last op
};

/** Closed loop: run ops back to back for @p seconds (at least one). */
TimedOps
timeMachineOps(MachineWorkload &w, double seconds,
               std::uint64_t expected, std::int64_t firstOp)
{
    TimedOps t;
    const std::int64_t start = nowNs();
    const auto budget = static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t opId = firstOp;
    do {
        currentOp = opId++;
        const std::int64_t t0 = nowNs();
        OpOutcome o = w.op();
        const std::int64_t t1 = nowNs();
        currentOp = -1;
        t.opMs.push_back(static_cast<double>(t1 - t0) / 1e6);
        if (o.failure.empty() && o.fingerprint != expected)
            o.failure = "fingerprint " + hex(o.fingerprint) +
                        " differs from the set-up run's " + hex(expected);
        if (!o.failure.empty()) {
            ++t.failed;
            if (t.firstFailure.empty())
                t.firstFailure = o.failure;
        }
        t.counts = o.counts;
    } while (nowNs() - start < budget);
    return t;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool reference = false;
    bool referenceOnly = false;
    std::string workdir;
    std::string traceOut;
};

/** Set-ups timed before and again after the timed ops. */
constexpr int setupsPerSide = 3;

/** Time setupsPerSide set-ups; the last one is returned for use. Runs
 * repeat this before and after timing and report the median of both,
 * so setup_s samples the host over the whole run as op_ms_p50 does. */
template <typename W, typename Make>
std::pair<std::unique_ptr<W>, std::vector<double>>
repeatedSetup(const Make &make)
{
    std::vector<double> times;
    std::unique_ptr<W> w;
    for (int i = 0; i < setupsPerSide; ++i) {
        const bool last = i + 1 == setupsPerSide;
        w.reset();
        const std::int64_t t0 = nowNs();
        w = make(last);
        times.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    return {std::move(w), times};
}

template <typename W, typename Make>
double
setupSeconds(std::vector<double> before, const Make &make)
{
    const auto after = repeatedSetup<W>(make).second;
    before.insert(before.end(), after.begin(), after.end());
    return median(before);
}

/** Per-name aggregates of the traced spans. */
struct SpanStats
{
    std::map<std::string, std::int64_t> setupSelfNs; ///< op == -1
    std::map<std::string, std::uint64_t> setupCount;
    /** Per-op self time sums, by name (only ops that had the span). */
    std::map<std::string, std::map<std::int64_t, std::int64_t>> opSelfNs;
    /** Duration of every op-phase span, by name. */
    std::map<std::string, std::vector<double>> spanMs;

    std::vector<double> durationsMs(const std::string &n) const
    {
        auto it = spanMs.find(n);
        return it == spanMs.end() ? std::vector<double>{} : it->second;
    }

    double setupMs(const std::string &n) const
    {
        auto it = setupSelfNs.find(n);
        return it == setupSelfNs.end() ? 0.0
                                       : static_cast<double>(it->second) / 1e6;
    }

    double opMedianMs(const std::string &n) const
    {
        auto it = opSelfNs.find(n);
        if (it == opSelfNs.end())
            return 0.0;
        std::vector<double> v;
        for (const auto &[op, ns] : it->second)
            v.push_back(static_cast<double>(ns) / 1e6);
        return median(v);
    }

    double opTotalMs(const std::string &n) const
    {
        auto it = opSelfNs.find(n);
        if (it == opSelfNs.end())
            return 0.0;
        std::int64_t total = 0;
        for (const auto &[op, ns] : it->second)
            total += ns;
        return static_cast<double>(total) / 1e6;
    }
};

SpanStats
finishTrace(const Args &a)
{
    std::vector<Span> spans;
    {
        std::lock_guard<std::mutex> g(tracer.mu);
        spans = tracer.spans;
    }
    const auto self = selfTimes(spans);
    if (!a.traceOut.empty())
        writeTrace(a.traceOut, spans, self);
    SpanStats st;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::string name = spans[i].name;
        if (spans[i].op < 0) {
            st.setupSelfNs[name] += self[i];
            ++st.setupCount[name];
        } else {
            st.opSelfNs[name][spans[i].op] += self[i];
            st.spanMs[name].push_back(
                static_cast<double>(spans[i].end - spans[i].start) / 1e6);
        }
    }
    return st;
}

void
addSimCounts(Report &rep, const OpCounts &c, double perOp)
{
    rep.add("sim.instructions", static_cast<double>(c.instructions) * perOp, "count");
    rep.add("sim.barrier_wait_cycles", static_cast<double>(c.barrierWait) * perOp, "cycles");
    rep.add("sim.stall_cycles", static_cast<double>(c.stallCycles) * perOp, "cycles");
    rep.add("sim.cache_hits", static_cast<double>(c.cacheHits) * perOp, "count");
    rep.add("sim.cache_misses", static_cast<double>(c.cacheMisses) * perOp, "count");
    rep.add("sim.bus_requests", static_cast<double>(c.busRequests) * perOp, "count");
    rep.add("sim.bus_queue_delay", static_cast<double>(c.busQueueDelay) * perOp, "cycles");
    rep.add("sim.mem_accesses", static_cast<double>(c.memAccesses) * perOp, "count");
    rep.add("sim.hot_spot_accesses", static_cast<double>(c.hotSpotAccesses) * perOp, "count");
    rep.add("sim.invalidations_sent", static_cast<double>(c.invalidationsSent) * perOp, "count");
    rep.add("sim.invalidations_avoided", static_cast<double>(c.invalidationsAvoided) * perOp, "count");
}

const char *const execMetrics[][2] = {
    {"exec.campaign_ms", "ms"},        {"exec.machines_built", "count"},
    {"exec.machine_reuse_frac", "frac"}, {"exec.programs_assembled", "count"},
    {"exec.program_hit_frac", "frac"}, {"exec.tasks_stolen", "count"},
    {"exec.worker_busy_frac", "frac"}, {"exec.emit_wait_ms_p50", "ms"},
};
const char *const verifyMetrics[][2] = {
    {"verify.generate_ms", "ms"},
    {"verify.differential_ms_p50", "ms"},
    {"verify.variants_per_scenario", "count"},
    {"verify.ms_per_variant", "ms"},
};
const char *const snapshotMetrics[][2] = {
    {"snapshot.captures_full", "count"},  {"snapshot.captures_delta", "count"},
    {"snapshot.degradations", "count"},   {"snapshot.bytes_submitted", "bytes"},
    {"snapshot.sink_ms", "ms"},           {"snapshot.drain_ms", "ms"},
    {"snapshot.ms_per_capture", "ms"},
};

void
addEndToEnd(Report &rep, double setupS, const std::vector<double> &opMs,
            double tailMs, double opsPerS, double cyclesPerOp,
            double instrPerOp, double stallFrac)
{
    rep.add("setup_s", setupS, "s");
    rep.add("op_ms_p50", median(opMs), "ms");
    rep.add("op_ms_tail", tailMs, "ms");
    rep.add("sim_cycles_per_s", cyclesPerOp * opsPerS, "cycles/s");
    rep.add("sim_instr_per_s", instrPerOp * opsPerS, "instr/s");
    rep.add("scenarios_per_s", opsPerS, "1/s");
    rep.add("peak_rss_mb", peakRssMb(), "MB");
    rep.add("sim_cycles", cyclesPerOp, "cycles");
    rep.add("sim_stall_frac", stallFrac, "frac");
}

/** Tracing overhead: traced minus untraced op_ms_p50 of one run. */
void
addTraceOverhead(Report &rep, const std::vector<double> &plain,
                 const std::vector<double> &traced)
{
    const double plainP50 = median(plain);
    const double tracedP50 = median(traced);
    rep.add("trace.overhead_ms", tracedP50 - plainP50, "ms");
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "untraced op_ms_p50 %.4f over %zu ops, traced %.4f over "
                  "%zu ops",
                  plainP50, plain.size(), tracedP50, traced.size());
    rep.note("trace.overhead_ms", buf);
}

struct Outcome
{
    Report report;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string firstFailure;
    std::string fingerprint;
    std::string referenceFingerprint;
};

Outcome
runMachineWorkload(const Args &a)
{
    Outcome out;
    const std::string ckDir = a.workdir + "/checkpoints";
    auto make = [&](bool reference) {
        return std::make_unique<MachineWorkload>(a.workload, a.seed, ckDir,
                                                 reference);
    };
    auto referenceFingerprint = [&] {
        auto ref = make(true);
        const OpOutcome o = ref->op();
        return o.failure.empty() ? hex(o.fingerprint) : "failed: " + o.failure;
    };
    if (a.referenceOnly) {
        out.referenceFingerprint = referenceFingerprint();
        return out;
    }

    std::uint64_t expected = 0;
    auto setupOnce = [&](bool last) {
        if (last && a.trace)
            tracer.enabled = true;
        auto m = make(false);
        // Warm-up op: first-touch costs land in set-up, and its
        // fingerprint is what every timed op must reproduce.
        const OpOutcome o = m->op();
        expected = o.fingerprint;
        if (!o.failure.empty())
            die("warm-up op failed: " + o.failure);
        tracer.enabled = false;
        return m;
    };
    auto [w, setupTimes] =
        repeatedSetup<MachineWorkload>(setupOnce);
    out.fingerprint = hex(expected);

    Report &rep = out.report;
    if (!a.trace) {
        const TimedOps t = timeMachineOps(*w, a.seconds, expected, 0);
        w.reset();
        const double setupS =
            setupSeconds<MachineWorkload>(setupTimes, setupOnce);
        out.attempted = t.opMs.size();
        out.failed = t.failed;
        out.firstFailure = t.firstFailure;
        // Rates come from the median op, so a transient host stall
        // moves them no more than it moves op_ms_p50.
        const double opsPerS = 1e3 / median(t.opMs);
        const OpCounts &c = t.counts;
        const Tail tail = tailOf(t.opMs);
        char buf[96];
        std::snprintf(buf, sizeof buf, "p%.1f of %zu ops", tail.percentile,
                      tail.samples);
        rep.note("op_ms_tail", buf);
        addEndToEnd(rep, setupS, t.opMs, tail.value, opsPerS,
                    static_cast<double>(c.cycles),
                    static_cast<double>(c.instructions),
                    static_cast<double>(c.barrierWait) /
                        static_cast<double>(c.procCycles));
    } else {
        const TimedOps plain =
            timeMachineOps(*w, a.seconds / 2, expected, 0);
        const std::uint64_t bytes0 = w->checkpointing().bytesSubmitted;
        const std::int64_t sink0 = w->checkpointing().sinkNs;
        w->takeSyncRunTotals();
        tracer.enabled = true;
        const TimedOps traced = timeMachineOps(
            *w, a.seconds / 2, expected,
            static_cast<std::int64_t>(plain.opMs.size()));
        tracer.enabled = false;
        const auto [syncNs, syncEvents] = w->takeSyncRunTotals();
        out.attempted = plain.opMs.size() + traced.opMs.size();
        out.failed = plain.failed + traced.failed;
        out.firstFailure =
            plain.firstFailure.empty() ? traced.firstFailure : plain.firstFailure;
        const SpanStats st = finishTrace(a);
        const OpCounts &c = traced.counts;
        const double nOps = static_cast<double>(traced.opMs.size());

        if (st.setupCount.count("core.build"))
            rep.add("core.build_ms", st.setupMs("core.build"), "ms");
        else
            rep.na("core.build_ms", "ms",
                   "this workload generates its programs in the benchmark "
                   "(bench.generate), not through core");
        if (st.setupCount.count("isa.assemble")) {
            rep.add("isa.assemble_ms", st.setupMs("isa.assemble"), "ms");
            rep.add("isa.assemble_calls",
                    static_cast<double>(st.setupCount.at("isa.assemble")),
                    "count");
        } else {
            rep.na("isa.assemble_ms", "ms",
                   "assembly happens inside core::buildBarrierLoop and is "
                   "part of core.build_ms");
            rep.na("isa.assemble_calls", "count",
                   "assembly happens inside core::buildBarrierLoop");
        }
        rep.add("sim.construct_ms", st.setupMs("sim.construct"), "ms");
        rep.add("sim.load_ms", st.setupMs("sim.load"), "ms");
        rep.add("sim.reset_ms", st.opMedianMs("sim.reset"), "ms");
        rep.add("sim.reload_ms", st.opMedianMs("sim.reload"), "ms");
        rep.add("sim.run_ms", st.opMedianMs("sim.run"), "ms");
        const double runNs = st.opTotalMs("sim.run") * 1e6;
        rep.add("sim.host_ns_per_cycle",
                runNs / (nOps * static_cast<double>(c.cycles)), "ns");
        rep.add("sim.host_ns_per_instr",
                runNs / (nOps * static_cast<double>(c.instructions)), "ns");
        rep.add("sim.host_ns_per_active_proc_cycle",
                runNs / (nOps * static_cast<double>(c.procCycles)), "ns");
        rep.add("sim.safety_check_ms", st.opMedianMs("sim.safety_check"),
                "ms");
        addSimCounts(rep, c, 1.0);
        rep.add("barrier.sync_events", static_cast<double>(c.syncEvents),
                "count");
        rep.add("barrier.group_size_mean",
                c.syncRecords ? static_cast<double>(c.syncMembers) /
                                    static_cast<double>(c.syncRecords)
                              : 0.0,
                "procs");
        rep.add("barrier.host_us_per_sync",
                syncEvents ? static_cast<double>(syncNs) / 1e3 /
                                 static_cast<double>(syncEvents)
                           : 0.0,
                "us");
        if (w->checkpointing().writer) {
            const double captures =
                static_cast<double>(c.checkpointsFull + c.checkpointsDelta);
            const double sinkMs =
                static_cast<double>(w->checkpointing().sinkNs - sink0) / 1e6 /
                nOps;
            const double drainMs = st.opMedianMs("snapshot.drain");
            rep.add("snapshot.captures_full",
                    static_cast<double>(c.checkpointsFull), "count");
            rep.add("snapshot.captures_delta",
                    static_cast<double>(c.checkpointsDelta), "count");
            rep.add("snapshot.degradations",
                    static_cast<double>(c.checkpointDegradations), "count");
            rep.add("snapshot.bytes_submitted",
                    static_cast<double>(w->checkpointing().bytesSubmitted -
                                        bytes0) /
                        nOps,
                    "bytes");
            rep.add("snapshot.sink_ms", sinkMs, "ms");
            rep.add("snapshot.drain_ms", drainMs, "ms");
            rep.add("snapshot.ms_per_capture", (sinkMs + drainMs) / captures,
                    "ms");
        } else {
            for (const auto &m : snapshotMetrics)
                rep.na(m[0], m[1], "checkpointing is off on this workload");
        }
        for (const auto &m : execMetrics)
            rep.na(m[0], m[1], "machine workload: no campaign engine");
        for (const auto &m : verifyMetrics)
            rep.na(m[0], m[1], "machine workload: no differential verifier");
        addTraceOverhead(rep, plain.opMs, traced.opMs);
    }
    w.reset();
    if (a.reference)
        out.referenceFingerprint = referenceFingerprint();
    return out;
}

// ---------------------------------------------------------------------
// fuzz_campaign: one op is one generated scenario through the
// differential matrix, driven by exec::runCampaign in fixed batches.

constexpr int fuzzJobs = 2;
constexpr std::uint64_t fuzzBatch = 512;
/** Scenario seeds of a run start at seed * fuzzSeedStride; warm-up
 * uses seeds past the timed range. Each batch is one runCampaign call
 * with its own machine pools and program cache (as one fbfuzz --jobs
 * campaign of fuzzBatch seeds), so memory does not grow with run
 * length and warm-up never turns timed scenarios into cache hits. */
constexpr std::uint64_t fuzzSeedStride = 1'000'000;
constexpr std::uint64_t fuzzWarmupOffset = 900'000;

struct ScenarioRecord
{
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int64_t delivered = 0;
    std::uint64_t baselineHash = 0;
    int variants = 0;
    bool ok = false;
};

struct BatchResult
{
    std::vector<ScenarioRecord> recs;
    exec::CampaignStats stats;
    std::int64_t wallNs = 0;
    std::string firstFailure;
};

verify::DiffOptions
fuzzDiffOptions()
{
    verify::DiffOptions d; // fbfuzz's default matrix
    d.swBarrierReference = false;
    return d;
}

class FuzzWorkload
{
  public:
    explicit FuzzWorkload(std::uint64_t seed) : _base(seed * fuzzSeedStride)
    {
        runBatch(_base + fuzzWarmupOffset, false);
    }

    /** One runCampaign call over fuzzBatch seeds from @p firstSeed;
     * spans of a @p timed batch carry the scenario index as op id. */
    BatchResult runBatch(std::uint64_t firstSeed, bool timed)
    {
        BatchResult b;
        b.recs.resize(fuzzBatch);
        exec::CampaignOptions opt;
        opt.jobs = fuzzJobs;
        const std::int64_t t0 = nowNs();
        const auto opBase =
            timed ? static_cast<std::int64_t>(firstSeed - _base) : -1;
        currentOp = opBase;
        Scope campaign("exec.campaign");
        currentOp = -1;
        const std::int64_t parent = campaign.id();
        auto runner = [&](std::uint64_t i, exec::WorkerContext &ctx) {
            ScenarioRecord &rec = b.recs[i];
            currentOp = timed ? opBase + static_cast<std::int64_t>(i) : -1;
            rec.start = nowNs();
            exec::ItemResult r;
            {
                Scope item("exec.item", parent);
                verify::Scenario sc;
                {
                    Scope s("verify.generate");
                    sc = verify::render(verify::randomSpec(firstSeed + i));
                }
                auto d = fuzzDiffOptions();
                d.machinePool = &ctx.machines;
                d.programCache = &ctx.programs;
                verify::DiffReport rep;
                {
                    Scope s("verify.differential");
                    rep = verify::runDifferential(sc, d);
                }
                rec.ok = rep.ok;
                rec.baselineHash = rep.baseline.hash();
                rec.variants = rep.variantsRun;
                if (!rep.ok) {
                    r.failed = true;
                    r.payload = "seed " + std::to_string(firstSeed + i) +
                                ": " + rep.variant + ": " + rep.failure;
                }
            }
            rec.end = nowNs();
            currentOp = -1;
            return r;
        };
        auto consume = [&](std::uint64_t i, const exec::ItemResult &r) {
            b.recs[i].delivered = nowNs();
            if (r.failed && b.firstFailure.empty())
                b.firstFailure = r.payload;
        };
        b.stats = exec::runCampaign(fuzzBatch, opt, runner, consume);
        b.wallNs = nowNs() - t0;
        return b;
    }

    std::uint64_t base() const { return _base; }

  private:
    std::uint64_t _base;
};

/**
 * Re-run one scenario's baseline executor on a fresh machine outside
 * the timed region and add its simulated totals to @p into
 * (runDifferential does not return its RunResult). Returns a failure
 * when the re-run does not reproduce the differential's baseline.
 */
std::string
rerunBaseline(std::uint64_t specSeed, std::uint64_t expectedHash,
              OpCounts &into)
{
    const verify::Scenario sc = verify::render(verify::randomSpec(specSeed));
    const verify::DiffOptions d = fuzzDiffOptions();
    sim::MachineConfig cfg;
    cfg.numProcessors = sc.procs();
    cfg.memWords = d.memWords;
    cfg.maxCycles = d.maxCycles;
    cfg.topology = d.topology;
    cfg.interruptPeriod = sc.interruptPeriod;
    cfg.isrEntry = sc.isrEntry;
    sim::Machine m(cfg);
    for (int p = 0; p < sc.procs(); ++p) {
        isa::Program prog;
        std::string err;
        if (!isa::Assembler::assemble(sc.sources[static_cast<std::size_t>(p)],
                                      prog, err))
            die("scenario failed to assemble: " + err);
        if (sc.encoding == verify::Encoding::Markers)
            prog = prog.toMarkerEncoding();
        m.loadProgram(p, std::move(prog));
    }
    const sim::RunResult r = m.run();
    into.addRun(r, sc.procs());
    // The re-run must be the differential's baseline: same sync count
    // and per-processor episodes, else the simulated totals lie.
    verify::Fingerprint fp;
    fp.deadlocked = r.deadlocked;
    fp.timedOut = r.timedOut;
    fp.safety = m.checkSafetyProperty();
    fp.syncEvents = r.syncEvents;
    fp.membership = r.membershipViolation;
    for (int p = 0; p < sc.procs(); ++p) {
        fp.episodes.push_back(
            r.perProcessor[static_cast<std::size_t>(p)].barrierEpisodes);
        for (int reg : {1, 2, 3, 4, 5, 6, 25})
            fp.regs.push_back(m.processor(p).reg(reg));
    }
    for (auto addr : sc.watchAddrs)
        fp.mem.push_back(m.memory().peek(addr));
    if (fp.hash() != expectedHash)
        return "baseline re-run of seed " + std::to_string(specSeed) +
               " does not reproduce the differential baseline";
    return "";
}

struct FuzzTimed
{
    std::vector<double> opMs;
    std::vector<BatchResult> batches;
    std::uint64_t failed = 0;
    std::string firstFailure;
};

FuzzTimed
timeFuzz(FuzzWorkload &w, double seconds, std::uint64_t firstBatch)
{
    FuzzTimed t;
    const std::int64_t start = nowNs();
    const auto budget = static_cast<std::int64_t>(seconds * 1e9);
    std::uint64_t batch = firstBatch;
    do {
        BatchResult b = w.runBatch(w.base() + batch * fuzzBatch, true);
        ++batch;
        for (const auto &rec : b.recs) {
            t.opMs.push_back(static_cast<double>(rec.end - rec.start) / 1e6);
            if (!rec.ok)
                ++t.failed;
        }
        if (t.firstFailure.empty())
            t.firstFailure = b.firstFailure;
        t.batches.push_back(std::move(b));
    } while (nowNs() - start < budget);
    return t;
}

Outcome
runFuzzWorkload(const Args &a)
{
    Outcome out;
    if (a.referenceOnly) {
        // The golden value is the seed-ordered baseline hash of the
        // first batch, exactly as a timed run computes it.
        FuzzWorkload w(a.seed);
        const BatchResult b = w.runBatch(w.base(), true);
        Fnv f;
        for (const auto &rec : b.recs)
            f.add(rec.baselineHash);
        out.referenceFingerprint =
            b.firstFailure.empty() ? hex(f.h) : "failed: " + b.firstFailure;
        return out;
    }
    auto setupOnce = [&](bool last) {
        if (last && a.trace)
            tracer.enabled = true;
        auto f = std::make_unique<FuzzWorkload>(a.seed);
        tracer.enabled = false;
        return f;
    };
    auto [w, setupTimes] = repeatedSetup<FuzzWorkload>(setupOnce);

    FuzzTimed plain;
    FuzzTimed traced;
    if (!a.trace) {
        plain = timeFuzz(*w, a.seconds, 0);
    } else {
        plain = timeFuzz(*w, a.seconds / 2, 0);
        tracer.enabled = true;
        traced = timeFuzz(*w, a.seconds / 2, plain.batches.size());
        tracer.enabled = false;
    }
    out.attempted = plain.opMs.size() + traced.opMs.size();
    out.failed = plain.failed + traced.failed;
    out.firstFailure =
        plain.firstFailure.empty() ? traced.firstFailure : plain.firstFailure;

    // Golden fingerprint and simulated totals: the first batch of the
    // run, whose seeds depend only on --seed.
    Fnv f;
    OpCounts first;
    const BatchResult &b0 = plain.batches.front();
    for (std::uint64_t i = 0; i < fuzzBatch; ++i) {
        f.add(b0.recs[i].baselineHash);
        const std::string why =
            rerunBaseline(w->base() + i, b0.recs[i].baselineHash, first);
        if (!why.empty()) {
            ++out.failed;
            if (out.firstFailure.empty())
                out.firstFailure = why;
        }
    }
    out.fingerprint = hex(f.h);
    const double perScenario = 1.0 / static_cast<double>(fuzzBatch);

    Report &rep = out.report;
    if (!a.trace) {
        std::vector<double> batchRates;
        for (const auto &b : plain.batches)
            batchRates.push_back(static_cast<double>(fuzzBatch) * 1e9 /
                                 static_cast<double>(b.wallNs));
        const double scenariosPerS = median(batchRates);
        const double setupS =
            setupSeconds<FuzzWorkload>(setupTimes, setupOnce);
        // The tail is taken per batch, so it is the same percentile on
        // every run whatever the host speed, and a host hiccup moves
        // only the batches it lands in.
        std::vector<double> batchTails;
        Tail tail;
        for (const auto &b : plain.batches) {
            std::vector<double> ms;
            for (const auto &rec : b.recs)
                ms.push_back(static_cast<double>(rec.end - rec.start) / 1e6);
            tail = tailOf(ms);
            batchTails.push_back(tail.value);
        }
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "median over %zu batches of each batch's p%.1f of "
                      "%zu scenarios",
                      batchTails.size(), tail.percentile, tail.samples);
        rep.note("op_ms_tail", buf);
        addEndToEnd(rep, setupS, plain.opMs, median(batchTails), scenariosPerS,
                    static_cast<double>(first.cycles) * perScenario,
                    static_cast<double>(first.instructions) * perScenario,
                    static_cast<double>(first.barrierWait) /
                        static_cast<double>(first.procCycles));
        std::snprintf(buf, sizeof buf,
                      "mean of the baseline executor over the run's first "
                      "%" PRIu64 " scenarios",
                      fuzzBatch);
        rep.note("sim_cycles", buf);
        return out;
    }

    const SpanStats st = finishTrace(a);
    const std::string inside =
        "runs inside verify::runDifferential; splitting it needs "
        "in-program spans";
    rep.na("core.build_ms", "ms", "fuzz scenarios come from verify, not core");
    rep.na("isa.assemble_ms", "ms", inside);
    std::uint64_t assembled = 0;
    std::uint64_t interned = 0;
    std::uint64_t built = 0;
    std::uint64_t reused = 0;
    std::uint64_t stolen = 0;
    std::int64_t batchNs = 0;
    std::int64_t busyNs = 0;
    std::vector<double> emitWait;
    for (const auto &b : traced.batches) {
        assembled += b.stats.programsAssembled;
        interned += b.stats.programsInterned;
        built += b.stats.machinesBuilt;
        reused += b.stats.machinesReused;
        stolen += b.stats.tasksStolen;
        batchNs += b.wallNs;
        for (const auto &rec : b.recs) {
            busyNs += rec.end - rec.start;
            emitWait.push_back(
                static_cast<double>(rec.delivered - rec.end) / 1e6);
        }
    }
    const double nBatches = static_cast<double>(traced.batches.size());
    // Each program-cache miss is one assembler call (both encodings
    // come from it).
    rep.add("isa.assemble_calls", static_cast<double>(assembled) / nBatches,
            "count");
    for (const char *n : {"sim.construct_ms", "sim.load_ms", "sim.reset_ms",
                          "sim.reload_ms", "sim.run_ms"})
        rep.na(n, "ms", inside);
    for (const char *n :
         {"sim.host_ns_per_cycle", "sim.host_ns_per_instr",
          "sim.host_ns_per_active_proc_cycle"})
        rep.na(n, "ns", inside);
    rep.na("sim.safety_check_ms", "ms", inside);
    addSimCounts(rep, first, perScenario);
    rep.add("barrier.sync_events",
            static_cast<double>(first.syncEvents) * perScenario, "count");
    rep.na("barrier.group_size_mean", "procs", inside);
    rep.na("barrier.host_us_per_sync", "us", inside);
    for (const auto &m : snapshotMetrics)
        rep.na(m[0], m[1],
               "the chain-resume oracle checkpoints in memory inside "
               "verify::runDifferential");
    rep.add("exec.campaign_ms", st.opMedianMs("exec.campaign"), "ms");
    rep.add("exec.machines_built", static_cast<double>(built) / nBatches,
            "count");
    rep.add("exec.machine_reuse_frac",
            static_cast<double>(reused) / static_cast<double>(built + reused),
            "frac");
    rep.add("exec.programs_assembled",
            static_cast<double>(assembled) / nBatches, "count");
    rep.add("exec.program_hit_frac",
            static_cast<double>(interned) /
                static_cast<double>(assembled + interned),
            "frac");
    rep.add("exec.tasks_stolen", static_cast<double>(stolen) / nBatches,
            "count");
    rep.add("exec.worker_busy_frac",
            static_cast<double>(busyNs) /
                (fuzzJobs * static_cast<double>(batchNs)),
            "frac");
    rep.add("exec.emit_wait_ms_p50", median(emitWait), "ms");
    std::uint64_t variants = 0;
    for (const auto &b : traced.batches)
        for (const auto &rec : b.recs)
            variants += static_cast<std::uint64_t>(rec.variants);
    const auto diffMs = st.durationsMs("verify.differential");
    double diffTotal = 0.0;
    for (double v : diffMs)
        diffTotal += v;
    rep.add("verify.generate_ms", median(st.durationsMs("verify.generate")),
            "ms");
    rep.add("verify.differential_ms_p50", median(diffMs), "ms");
    rep.add("verify.variants_per_scenario",
            static_cast<double>(variants) /
                static_cast<double>(traced.opMs.size()),
            "count");
    rep.add("verify.ms_per_variant", diffTotal / static_cast<double>(variants),
            "ms");
    addTraceOverhead(rep, plain.opMs, traced.opMs);
    rep.note("exec.*", "counts are per batch of " + std::to_string(fuzzBatch) +
                           " scenarios on " + std::to_string(fuzzJobs) +
                           " workers");
    return out;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                die(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            a.workload = next();
        else if (arg == "--seed")
            a.seed = std::stoull(next());
        else if (arg == "--seconds")
            a.seconds = std::stod(next());
        else if (arg == "--trace")
            a.trace = next() == "1";
        else if (arg == "--workdir")
            a.workdir = next();
        else if (arg == "--trace-out")
            a.traceOut = next();
        else if (arg == "--reference")
            a.reference = true;
        else if (arg == "--reference-only")
            a.referenceOnly = true;
        else
            die("unknown argument " + arg);
    }
    if (a.workload.empty() || a.workdir.empty())
        die("--workload and --workdir are required");
    if (!(a.seconds > 0))
        die("--seconds must be positive");
    return a;
}

void
printOutcome(const Args &a, const Outcome &o)
{
    const Report &rep = o.report;
    for (const auto &m : rep.metrics)
        std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const auto &[k, v] : rep.notes)
        std::printf("note %s: %s\n", k.c_str(), v.c_str());
    for (const auto &[k, v] : rep.notApplicable)
        std::printf("n/a  %s: %s\n", k.c_str(), v.c_str());
    std::ostringstream j;
    j.precision(17);
    j << "{\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
      << ", \"attempted\": " << o.attempted << ", \"failed\": " << o.failed
      << ", \"first_failure\": \"" << jsonEscape(o.firstFailure)
      << "\", \"fingerprint\": \"" << o.fingerprint
      << "\", \"reference_fingerprint\": \""
      << jsonEscape(o.referenceFingerprint) << "\", \"host\": " << hostJson()
      << ", \"metrics\": {";
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
        const auto &m = rep.metrics[i];
        j << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
          << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
          << m.unit << "\"}";
    }
    j << "}, \"notes\": {";
    for (std::size_t i = 0; i < rep.notes.size(); ++i)
        j << (i ? ", " : "") << "\"" << rep.notes[i].first << "\": \""
          << jsonEscape(rep.notes[i].second) << "\"";
    j << "}, \"not_applicable\": {";
    for (std::size_t i = 0; i < rep.notApplicable.size(); ++i)
        j << (i ? ", " : "") << "\"" << rep.notApplicable[i].first
          << "\": \"" << jsonEscape(rep.notApplicable[i].second) << "\"";
    j << "}}";
    std::printf("%s\n", j.str().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    std::filesystem::create_directories(a.workdir);
    Outcome o;
    if (a.workload == "fuzz_campaign")
        o = runFuzzWorkload(a);
    else
        o = runMachineWorkload(a);
    std::filesystem::remove_all(a.workdir + "/checkpoints");
    printOutcome(a, o);
    return 0;
}
