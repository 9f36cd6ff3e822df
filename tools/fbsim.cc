/**
 * @file
 * fbsim — command-line driver for the simulated fuzzy-barrier
 * multiprocessor.
 *
 * Assembles one program per processor (or replicates one program with
 * --procs), runs the machine, and reports synchronization statistics,
 * optionally with the barrier-state timeline.
 *
 * Usage:
 *   fbsim [options] prog0.fbasm [prog1.fbasm ...]
 *
 * Options:
 *   --procs N            replicate a single program on N processors
 *   --jitter MEAN        per-instruction drift (cycles, default 0)
 *   --seed S             PRNG seed (default 1)
 *   --pipeline D         in-order pipeline depth (default 1)
 *   --stall hw           hardware stall model (default)
 *   --stall sw:SAVE:REST software stall: context save/restore cycles
 *   --bus shared|banked  interconnect contention model
 *   --topology SPEC      synchronization network shape: flat (default),
 *                        tree:ARITY[:LVL] or cluster:SIZE[:LVL] where
 *                        LVL is the per-level propagation latency
 *                        (default 1). Hierarchical shapes only add
 *                        delivery latency; results stay equivalent
 *   --interrupt P:LABEL  timer interrupt every P cycles, ISR at LABEL
 *   --marker             convert programs to BRENTER/BREXIT encoding
 *   --trace [WIDTH]      print the barrier timeline (default width 100);
 *                        composes with every execution mode,
 *                        --checkpoint and --restore (a restored
 *                        run's timeline starts at the restored cycle)
 *   --dump ADDR:COUNT    dump memory words after the run
 *   --reg P:R:VALUE      preset register R of processor P
 *   --fault SPEC         inject faults: comma-separated kind@cycle:proc[:arg]
 *                        (kinds: droppulse, fliptag, flipmask, kill,
 *                        freeze, irqstorm); repeatable
 *   --fault-seed S       additionally inject a random seeded fault plan
 *   --watchdog T[:A]     barrier watchdog: timeout cycles and re-arm
 *                        attempts (default attempts 3)
 *   --max-cycles N       runaway guard (default 200M)
 *   --no-fast-forward    run the per-cycle reference loop instead of
 *                        the event-and-window loop (results are
 *                        identical; useful for timing comparisons
 *                        and as a differential cross-check)
 *   --no-predecode       force the legacy instruction-by-instruction
 *                        interpreter instead of the pre-decoded
 *                        threaded-code backend (results are
 *                        identical); without --shards the
 *                        event-and-window loop then runs no private
 *                        ticks ahead (plain fast-forward). Composes
 *                        with --no-fast-forward and --shards: every
 *                        combination is valid and byte-identical
 *   --shards N[:QUANTUM] run the event-and-window loop's private
 *                        ticks on N host threads with QUANTUM cycles
 *                        of permitted skew (default 1024); results
 *                        are byte-identical to --shards 1 at any N.
 *                        Falls back to the sequential core under
 *                        --no-fast-forward
 *   --checkpoint DIR:EVERY[:KEEP]
 *                        durably snapshot the machine into DIR every
 *                        EVERY cycles, retaining the newest KEEP
 *                        generations (default 3). With --shards,
 *                        EVERY must be a multiple of the shard
 *                        quantum (anything else would silently clamp
 *                        every skew window).
 *                        Captures are dirty-page deltas persisted by a
 *                        background writer thread; a full snapshot
 *                        re-bases the chain periodically
 *   --checkpoint-rebase N
 *                        take a full (re-basing) snapshot every Nth
 *                        capture (default 8; 1 = full snapshots only)
 *   --checkpoint-sync    re-base on every capture and persist each
 *                        full snapshot inline, on the simulation
 *                        thread (overrides --checkpoint-rebase)
 *   --io-fault SPEC      inject I/O faults into the checkpoint store:
 *                        comma-separated failwrite:N / shortwrite:N /
 *                        failfsync:N (1-based Nth call), plus an
 *                        optional 'persistent' element to keep
 *                        failing from the Nth call on
 *   --restore DIR        resume from the newest restorable snapshot
 *                        chain in DIR (walking back past torn/corrupt
 *                        generations and broken chains); requires the
 *                        same programs and flags the snapshot was
 *                        taken with
 *   --check              only run the static region-branch check
 *
 * Exit codes:
 *   0  run completed cleanly
 *   1  input error (assembler failure, bad ISR label, failed restore)
 *   2  usage error (bad flags or malformed --fault spec)
 *   3  the run ended in barrier deadlock
 *   4  the run hit the --max-cycles guard
 *   5  the fault-safety (membership) oracle was violated
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "barrier/topology.hh"
#include "core/fuzzy_barrier.hh"
#include "exec/sharded_machine.hh"
#include "fault/plan.hh"
#include "fault/watchdog.hh"
#include "snapshot/format.hh"
#include "snapshot/store.hh"
#include "snapshot/writer.hh"
#include "support/strutil.hh"

namespace
{

using namespace fb;

[[noreturn]] void
usage(const char *msg = nullptr)
{
    if (msg)
        std::fprintf(stderr, "fbsim: %s\n", msg);
    std::fprintf(stderr,
                 "usage: fbsim [options] prog0.fbasm [prog1.fbasm ...]\n"
                 "       (see the header of tools/fbsim.cc for the "
                 "option list)\n");
    std::exit(2);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        usage(("cannot open " + path).c_str());
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

struct Options
{
    int procs = 0;  // 0 = one per program file
    double jitter = 0.0;
    std::uint64_t seed = 1;
    int pipeline = 1;
    sim::StallModel stall;
    sim::BusKind bus = sim::BusKind::Shared;
    barrier::Topology topology;
    std::uint64_t interruptPeriod = 0;
    std::string isrLabel;
    bool marker = false;
    bool trace = false;
    std::size_t traceWidth = 100;
    bool checkOnly = false;
    bool fastForward = true;
    bool predecode = true;
    int shards = 1;
    std::uint64_t shardQuantum = 1024;
    std::uint64_t maxCycles = 200'000'000;
    std::string faultSpec;
    std::uint64_t faultSeed = 0;
    fb::fault::WatchdogConfig watchdog;
    std::string checkpointDir;
    std::uint64_t checkpointEvery = 0;
    std::size_t checkpointKeep = 3;
    std::uint32_t checkpointRebase = 8;
    bool checkpointSync = false;
    bool ioFault = false;
    fb::snapshot::IoFaultShim ioShim;
    std::string restoreDir;
    std::vector<std::string> files;
    struct RegPreset
    {
        int proc;
        int reg;
        std::int64_t value;
    };
    std::vector<RegPreset> regs;
    struct Dump
    {
        std::size_t addr;
        std::size_t count;
    };
    std::vector<Dump> dumps;
};

std::int64_t
parseIntOrDie(const std::string &s, const char *what)
{
    std::int64_t v;
    if (!parseInt(s, v))
        usage((std::string("bad ") + what + ": " + s).c_str());
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                usage(("missing value after " + arg).c_str());
            return argv[i];
        };
        if (arg == "--procs") {
            opt.procs = static_cast<int>(parseIntOrDie(next(), "--procs"));
        } else if (arg == "--jitter") {
            opt.jitter = std::atof(next().c_str());
        } else if (arg == "--seed") {
            opt.seed =
                static_cast<std::uint64_t>(parseIntOrDie(next(), "--seed"));
        } else if (arg == "--pipeline") {
            opt.pipeline =
                static_cast<int>(parseIntOrDie(next(), "--pipeline"));
        } else if (arg == "--stall") {
            std::string v = next();
            if (v == "hw") {
                opt.stall = sim::StallModel::hardware();
            } else if (startsWith(v, "sw:")) {
                auto parts = split(v.substr(3), ':');
                if (parts.size() != 2)
                    usage("--stall sw:SAVE:RESTORE");
                opt.stall = sim::StallModel::software(
                    static_cast<std::uint32_t>(
                        parseIntOrDie(parts[0], "save")),
                    static_cast<std::uint32_t>(
                        parseIntOrDie(parts[1], "restore")));
            } else {
                usage("--stall expects 'hw' or 'sw:SAVE:RESTORE'");
            }
        } else if (arg == "--bus") {
            std::string v = next();
            if (v == "shared")
                opt.bus = sim::BusKind::Shared;
            else if (v == "banked")
                opt.bus = sim::BusKind::Banked;
            else
                usage("--bus expects 'shared' or 'banked'");
        } else if (arg == "--topology") {
            std::string v = next();
            if (!barrier::Topology::parse(v, opt.topology))
                usage("--topology expects flat, tree:ARITY[:LVL] or "
                      "cluster:SIZE[:LVL]");
        } else if (arg == "--interrupt") {
            auto parts = split(next(), ':');
            if (parts.size() != 2)
                usage("--interrupt PERIOD:LABEL");
            opt.interruptPeriod = static_cast<std::uint64_t>(
                parseIntOrDie(parts[0], "interrupt period"));
            opt.isrLabel = parts[1];
        } else if (arg == "--marker") {
            opt.marker = true;
        } else if (arg == "--trace") {
            opt.trace = true;
            if (i + 1 < argc) {
                std::int64_t w;
                if (parseInt(argv[i + 1], w) && w > 0) {
                    opt.traceWidth = static_cast<std::size_t>(w);
                    ++i;
                }
            }
        } else if (arg == "--dump") {
            auto parts = split(next(), ':');
            if (parts.size() != 2)
                usage("--dump ADDR:COUNT");
            opt.dumps.push_back(
                {static_cast<std::size_t>(
                     parseIntOrDie(parts[0], "dump addr")),
                 static_cast<std::size_t>(
                     parseIntOrDie(parts[1], "dump count"))});
        } else if (arg == "--reg") {
            auto parts = split(next(), ':');
            if (parts.size() != 3)
                usage("--reg PROC:REG:VALUE");
            opt.regs.push_back(
                {static_cast<int>(parseIntOrDie(parts[0], "proc")),
                 static_cast<int>(parseIntOrDie(parts[1], "reg")),
                 parseIntOrDie(parts[2], "value")});
        } else if (arg == "--fault") {
            std::string spec = next();
            if (!opt.faultSpec.empty())
                opt.faultSpec += ",";
            opt.faultSpec += spec;
        } else if (arg == "--fault-seed") {
            opt.faultSeed = static_cast<std::uint64_t>(
                parseIntOrDie(next(), "--fault-seed"));
        } else if (arg == "--watchdog") {
            auto parts = split(next(), ':');
            if (parts.empty() || parts.size() > 2)
                usage("--watchdog TIMEOUT[:ATTEMPTS]");
            opt.watchdog.enabled = true;
            opt.watchdog.timeoutCycles = static_cast<std::uint64_t>(
                parseIntOrDie(parts[0], "watchdog timeout"));
            if (parts.size() == 2)
                opt.watchdog.maxAttempts = static_cast<int>(
                    parseIntOrDie(parts[1], "watchdog attempts"));
            if (opt.watchdog.timeoutCycles == 0 ||
                opt.watchdog.maxAttempts < 1)
                usage("--watchdog needs timeout >= 1 and attempts >= 1");
        } else if (arg == "--max-cycles") {
            opt.maxCycles = static_cast<std::uint64_t>(
                parseIntOrDie(next(), "--max-cycles"));
        } else if (arg == "--no-fast-forward") {
            opt.fastForward = false;
        } else if (arg == "--no-predecode") {
            opt.predecode = false;
        } else if (arg == "--shards") {
            auto parts = split(next(), ':');
            if (parts.empty() || parts.size() > 2)
                usage("--shards N[:QUANTUM]");
            opt.shards =
                static_cast<int>(parseIntOrDie(parts[0], "--shards"));
            if (parts.size() == 2)
                opt.shardQuantum = static_cast<std::uint64_t>(
                    parseIntOrDie(parts[1], "shard quantum"));
            if (opt.shards < 1 || opt.shardQuantum == 0)
                usage("--shards needs N >= 1 and QUANTUM >= 1");
        } else if (arg == "--checkpoint") {
            auto parts = split(next(), ':');
            if (parts.size() < 2 || parts.size() > 3)
                usage("--checkpoint DIR:EVERY[:KEEP]");
            opt.checkpointDir = parts[0];
            opt.checkpointEvery = static_cast<std::uint64_t>(
                parseIntOrDie(parts[1], "checkpoint period"));
            if (parts.size() == 3)
                opt.checkpointKeep = static_cast<std::size_t>(
                    parseIntOrDie(parts[2], "checkpoint keep"));
            if (opt.checkpointDir.empty() || opt.checkpointEvery == 0 ||
                opt.checkpointKeep == 0)
                usage("--checkpoint needs a directory, period >= 1 and "
                      "keep >= 1");
        } else if (arg == "--checkpoint-rebase") {
            opt.checkpointRebase = static_cast<std::uint32_t>(
                parseIntOrDie(next(), "--checkpoint-rebase"));
            if (opt.checkpointRebase == 0)
                usage("--checkpoint-rebase needs N >= 1");
        } else if (arg == "--checkpoint-sync") {
            opt.checkpointSync = true;
        } else if (arg == "--io-fault") {
            opt.ioFault = true;
            for (const auto &item : split(next(), ',')) {
                if (item == "persistent") {
                    opt.ioShim.persistent = true;
                    continue;
                }
                auto parts = split(item, ':');
                if (parts.size() != 2)
                    usage("--io-fault expects failwrite:N, shortwrite:N,"
                          " failfsync:N or persistent");
                const std::uint64_t n = static_cast<std::uint64_t>(
                    parseIntOrDie(parts[1], "--io-fault ordinal"));
                if (parts[0] == "failwrite")
                    opt.ioShim.failNthWrite = n;
                else if (parts[0] == "shortwrite")
                    opt.ioShim.shortNthWrite = n;
                else if (parts[0] == "failfsync")
                    opt.ioShim.failNthFsync = n;
                else
                    usage("--io-fault expects failwrite:N, shortwrite:N,"
                          " failfsync:N or persistent");
            }
        } else if (arg == "--restore") {
            opt.restoreDir = next();
        } else if (arg == "--check") {
            opt.checkOnly = true;
        } else if (startsWith(arg, "--")) {
            usage(("unknown option " + arg).c_str());
        } else {
            opt.files.push_back(arg);
        }
    }
    if (opt.files.empty())
        usage("no program files given");
    if (opt.procs != 0 && opt.files.size() != 1)
        usage("--procs requires exactly one program file");
    if (!opt.checkpointDir.empty() && opt.shards > 1 &&
        opt.checkpointEvery % opt.shardQuantum != 0)
        usage(("--checkpoint EVERY must be a multiple of the shard "
               "quantum (" +
               std::to_string(opt.shardQuantum) +
               "): anything else silently clamps every skew window to "
               "the checkpoint cadence")
                  .c_str());
    if (opt.ioFault && opt.checkpointDir.empty())
        usage("--io-fault targets the checkpoint store; it requires "
              "--checkpoint");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);

    // Assemble.
    std::vector<isa::Program> programs;
    for (const auto &file : opt.files) {
        isa::Program prog;
        std::string err;
        if (!isa::Assembler::assemble(readFile(file), prog, err)) {
            std::fprintf(stderr, "fbsim: %s: %s\n", file.c_str(),
                         err.c_str());
            return 1;
        }
        if (auto violation = prog.checkRegionBranches()) {
            std::fprintf(stderr, "fbsim: %s: %s\n", file.c_str(),
                         violation->c_str());
            return 1;
        }
        if (opt.marker)
            prog = prog.toMarkerEncoding();
        programs.push_back(std::move(prog));
    }
    if (opt.checkOnly) {
        std::printf("all programs pass the region-branch check\n");
        return 0;
    }

    const int procs = opt.procs != 0 ? opt.procs
                                     : static_cast<int>(programs.size());

    fault::FaultPlan plan;
    if (!opt.faultSpec.empty()) {
        std::string err;
        if (!fault::FaultPlan::parse(opt.faultSpec, procs, plan, err)) {
            std::fprintf(stderr, "fbsim: --fault: %s\n", err.c_str());
            return 2;
        }
    }
    if (opt.faultSeed != 0) {
        auto random = fault::randomFaultPlan(
            opt.faultSeed, procs, {procs});
        plan.events.insert(plan.events.end(), random.events.begin(),
                           random.events.end());
        plan.normalize();
    }
    for (const auto &ev : plan.events) {
        if (ev.proc < 0 || ev.proc >= procs) {
            std::fprintf(stderr,
                         "fbsim: fault targets cpu%d of %d\n", ev.proc,
                         procs);
            return 2;
        }
    }

    sim::MachineConfig cfg;
    cfg.numProcessors = procs;
    cfg.jitterMean = opt.jitter;
    cfg.seed = opt.seed;
    cfg.pipelineDepth = opt.pipeline;
    cfg.stall = opt.stall;
    cfg.busKind = opt.bus;
    cfg.topology = opt.topology;
    cfg.maxCycles = opt.maxCycles;
    cfg.fastForward = opt.fastForward;
    cfg.predecode = opt.predecode;
    cfg.shardCount = opt.shards;
    cfg.shardQuantum = opt.shards > 1 ? opt.shardQuantum : 0;
    cfg.traceBarrierStates = opt.trace;
    if (opt.interruptPeriod > 0) {
        auto entry = programs[0].labelIndex(opt.isrLabel);
        if (!entry) {
            std::fprintf(stderr, "fbsim: ISR label '%s' not found\n",
                         opt.isrLabel.c_str());
            return 1;
        }
        cfg.interruptPeriod = opt.interruptPeriod;
        cfg.isrEntry = static_cast<std::int64_t>(*entry);
    }
    if (!plan.empty())
        cfg.faultPlan = &plan;
    cfg.watchdog = opt.watchdog;
    cfg.checkpointEveryCycles = opt.checkpointEvery;
    cfg.checkpointRebaseEvery =
        opt.checkpointSync ? 1 : opt.checkpointRebase;

    // Machine construction is a lambda so the restore walk-back can
    // rebuild a pristine machine after a failed restoreState (which
    // may have partially overwritten state before reporting failure).
    auto buildMachine = [&]() {
        auto m = std::make_unique<sim::Machine>(cfg);
        for (int p = 0; p < procs; ++p)
            m->loadProgram(
                p, programs[static_cast<std::size_t>(
                       opt.procs != 0 ? 0 : p)]);
        for (const auto &preset : opt.regs) {
            if (preset.proc < 0 || preset.proc >= procs)
                usage("--reg processor index out of range");
            m->processor(preset.proc).setReg(preset.reg, preset.value);
        }
        return m;
    };
    auto machinePtr = buildMachine();

    if (!opt.restoreDir.empty()) {
        snapshot::SnapshotStore restoreStore(opt.restoreDir);
        bool restored = false;

        // Preferred path: the newest generation whose whole delta
        // chain validates, replayed base-first.
        {
            std::vector<std::vector<std::uint8_t>> chain;
            std::uint64_t generation = 0;
            std::vector<std::string> diags;
            std::string err;
            if (restoreStore.loadLatestChain(chain, generation, diags)) {
                for (const auto &d : diags)
                    std::fprintf(stderr, "fbsim: skipping %s\n",
                                 d.c_str());
                if (machinePtr->restoreChainState(chain, err)) {
                    snapshot::SnapshotHeader head;
                    std::string perr;
                    std::uint64_t cycle = 0;
                    if (snapshot::peekHeader(chain.back(), head, perr))
                        cycle = head.cycle;
                    std::fprintf(
                        stderr,
                        "fbsim: restored generation %llu (cycle %llu, "
                        "chain of %zu) from %s\n",
                        static_cast<unsigned long long>(generation),
                        static_cast<unsigned long long>(cycle),
                        chain.size(),
                        restoreStore.pathFor(generation).c_str());
                    restored = true;
                } else {
                    std::fprintf(stderr,
                                 "fbsim: skipping generation %llu: "
                                 "chain restore failed: %s\n",
                                 static_cast<unsigned long long>(
                                     generation),
                                 err.c_str());
                    machinePtr = buildMachine();
                }
            } else {
                for (const auto &d : diags)
                    std::fprintf(stderr, "fbsim: skipping %s\n",
                                 d.c_str());
            }
        }

        // Fallback: per-file walk-back over full snapshots, for
        // machine-level restore failures the store cannot see (a
        // newer chain taken under incompatible flags, say, with an
        // older intact full snapshot behind it).
        auto entries = restoreStore.list();
        for (auto it = entries.rbegin();
             !restored && it != entries.rend(); ++it) {
            std::vector<std::uint8_t> bytes;
            std::string err;
            if (!snapshot::readFile(it->second, bytes, err)) {
                std::fprintf(stderr, "fbsim: skipping %s: %s\n",
                             it->second.c_str(), err.c_str());
                continue;
            }
            snapshot::SnapshotHeader header;
            if (!snapshot::peekHeader(bytes, header, err)) {
                std::fprintf(stderr, "fbsim: skipping %s: %s\n",
                             it->second.c_str(), err.c_str());
                continue;
            }
            if (header.generation != it->first) {
                std::fprintf(stderr,
                             "fbsim: skipping %s: embedded generation "
                             "%llu does not match filename\n",
                             it->second.c_str(),
                             static_cast<unsigned long long>(
                                 header.generation));
                continue;
            }
            if (header.isDelta())
                continue; // chains were already tried above
            if (!machinePtr->restoreState(bytes, err)) {
                std::fprintf(stderr, "fbsim: skipping %s: %s\n",
                             it->second.c_str(), err.c_str());
                machinePtr = buildMachine();
                continue;
            }
            std::fprintf(stderr,
                         "fbsim: restored generation %llu (cycle %llu) "
                         "from %s\n",
                         static_cast<unsigned long long>(
                             header.generation),
                         static_cast<unsigned long long>(header.cycle),
                         it->second.c_str());
            restored = true;
            break;
        }
        if (!restored) {
            std::fprintf(stderr,
                         "fbsim: no usable snapshot found in %s\n",
                         opt.restoreDir.c_str());
            return 1;
        }
    }

    std::unique_ptr<snapshot::SnapshotStore> checkpointStore;
    std::unique_ptr<snapshot::AsyncSnapshotWriter> checkpointWriter;
    if (!opt.checkpointDir.empty()) {
        checkpointStore = std::make_unique<snapshot::SnapshotStore>(
            opt.checkpointDir, opt.checkpointKeep);
        if (opt.ioFault)
            checkpointStore->setIoFaultShim(&opt.ioShim);
        if (!opt.checkpointSync) {
            checkpointWriter =
                std::make_unique<snapshot::AsyncSnapshotWriter>(
                    *checkpointStore);
            machinePtr->setStagedCheckpointSink(
                [&writer = *checkpointWriter](
                    snapshot::SnapshotHeader header,
                    std::vector<snapshot::Section> sections) {
                    auto verdict = writer.submit(std::move(header),
                                                 std::move(sections));
                    sim::Machine::CheckpointAck ack;
                    ack.keep = verdict.keep;
                    ack.forceFull = verdict.forceFull;
                    ack.deltasOk = verdict.deltasOk;
                    ack.degradation = std::move(verdict.degradation);
                    return ack;
                });
        } else {
            machinePtr->setStagedCheckpointSink(
                [&store = *checkpointStore](
                    snapshot::SnapshotHeader header,
                    std::vector<snapshot::Section> sections) {
                    sim::Machine::CheckpointAck ack;
                    std::string err;
                    if (!store.save(header.generation,
                                    snapshot::assemble(header, sections),
                                    err)) {
                        std::fprintf(
                            stderr,
                            "fbsim: checkpoint at cycle %llu "
                            "failed: %s (disabling checkpoints)\n",
                            static_cast<unsigned long long>(
                                header.cycle),
                            err.c_str());
                        ack.keep = false;
                    }
                    return ack;
                });
        }
    }

    sim::Machine &machine = *machinePtr;
    exec::ShardedMachine shardedMachine(machine);
    if (opt.shards > 1 && shardedMachine.shards() != opt.shards)
        std::fprintf(stderr,
                     "fbsim: note: running on %d shard(s) instead of "
                     "the requested %d (clamped to the processor count "
                     "or sharding does not apply here)\n",
                     shardedMachine.shards(), opt.shards);
    auto result = shardedMachine.run();

    // The run is over but captures may still sit in the writer's
    // queue; block until the store is quiescent before reporting (and
    // before the process can exit and orphan a .tmp file).
    if (checkpointWriter)
        checkpointWriter->drain();

    std::printf("cycles:       %llu%s%s\n",
                static_cast<unsigned long long>(result.cycles),
                result.deadlocked ? "  [DEADLOCK]" : "",
                result.timedOut ? "  [TIMEOUT]" : "");
    if (result.deadlocked)
        std::printf("%s", result.deadlockInfo.c_str());
    std::printf("sync events:  %llu\n",
                static_cast<unsigned long long>(result.syncEvents));
    std::printf("mem accesses: %llu (hottest word %llu), bus queue "
                "delay %llu\n",
                static_cast<unsigned long long>(result.memAccesses),
                static_cast<unsigned long long>(result.hotSpotAccesses),
                static_cast<unsigned long long>(result.busQueueDelay));
    for (int p = 0; p < procs; ++p) {
        const auto &ps = result.perProcessor[static_cast<std::size_t>(p)];
        std::printf("cpu%-2d instrs=%-8llu episodes=%-5llu stalled=%-5llu"
                    " wait=%-7llu ctxsw=%-4llu irq=%llu\n",
                    p, static_cast<unsigned long long>(ps.instructions),
                    static_cast<unsigned long long>(ps.barrierEpisodes),
                    static_cast<unsigned long long>(ps.stalledEpisodes),
                    static_cast<unsigned long long>(ps.barrierWaitCycles),
                    static_cast<unsigned long long>(ps.contextSwitches),
                    static_cast<unsigned long long>(ps.interruptsTaken));
    }

    std::string safety = machine.checkSafetyProperty();
    std::printf("safety:       %s\n",
                safety.empty() ? "OK" : safety.c_str());

    if (!plan.empty()) {
        const auto &fs = result.faultStats;
        std::printf("faults:       plan=%s\n", plan.toSpec().c_str());
        std::printf("              pulse-drop cycles=%llu, bits "
                    "flipped=%llu (corrected %llu), kills=%llu, "
                    "freezes=%llu, forced irqs=%llu\n",
                    static_cast<unsigned long long>(fs.pulseDropCycles),
                    static_cast<unsigned long long>(fs.bitsFlipped),
                    static_cast<unsigned long long>(result.correctedFaults),
                    static_cast<unsigned long long>(fs.kills),
                    static_cast<unsigned long long>(fs.freezes),
                    static_cast<unsigned long long>(fs.forcedInterrupts));
        std::printf("membership:   %s\n",
                    result.membershipViolation.empty()
                        ? "OK"
                        : result.membershipViolation.c_str());
    }
    if (opt.watchdog.enabled) {
        const auto &ws = result.watchdogStats;
        std::printf("watchdog:     timeouts=%llu rearms=%llu "
                    "dead-declared=%llu\n",
                    static_cast<unsigned long long>(ws.timeouts),
                    static_cast<unsigned long long>(ws.rearms),
                    static_cast<unsigned long long>(ws.deadDeclared));
        for (const auto &rec : result.recoveries) {
            std::printf("recovery:     cpu%d declared dead at cycle %llu;"
                        " %zu survivor(s) shrank masks\n",
                        rec.deadProc,
                        static_cast<unsigned long long>(rec.cycle),
                        rec.survivors.size());
        }
    }

    if (checkpointWriter) {
        const auto ws = checkpointWriter->stats();
        std::printf("checkpoints:  full=%llu delta=%llu persisted=%llu "
                    "(async %llu, sync %llu) dropped=%llu retries=%llu "
                    "mode=%s\n",
                    static_cast<unsigned long long>(
                        result.checkpointsFull),
                    static_cast<unsigned long long>(
                        result.checkpointsDelta),
                    static_cast<unsigned long long>(ws.persisted),
                    static_cast<unsigned long long>(ws.asyncPersisted),
                    static_cast<unsigned long long>(ws.syncPersisted),
                    static_cast<unsigned long long>(ws.dropped),
                    static_cast<unsigned long long>(ws.retries),
                    snapshot::writerModeName(ws.mode));
        if (!result.checkpointDegradation.empty())
            std::printf("              degraded: %s\n",
                        result.checkpointDegradation.c_str());
    }
    if (opt.ioFault)
        std::printf("io-faults:    writes=%llu fsyncs=%llu "
                    "injected=%llu\n",
                    static_cast<unsigned long long>(
                        opt.ioShim.writeCalls),
                    static_cast<unsigned long long>(
                        opt.ioShim.fsyncCalls),
                    static_cast<unsigned long long>(opt.ioShim.injected));

    if (opt.trace && machine.trace())
        std::printf("\n%s", machine.trace()->render(opt.traceWidth).c_str());

    for (const auto &dump : opt.dumps) {
        std::printf("\nmemory[%zu..%zu]:", dump.addr,
                    dump.addr + dump.count - 1);
        for (std::size_t k = 0; k < dump.count; ++k)
            std::printf(" %lld",
                        static_cast<long long>(
                            machine.memory().peek(dump.addr + k)));
        std::printf("\n");
    }
    if (result.deadlocked)
        return 3;
    if (result.timedOut)
        return 4;
    if (!result.membershipViolation.empty())
        return 5;
    return 0;
}
