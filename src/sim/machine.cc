#include "sim/machine.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <sstream>

#include "snapshot/codec.hh"
#include "snapshot/format.hh"
#include "support/logging.hh"

namespace fb::sim
{

std::uint64_t
RunResult::totalBarrierWait() const
{
    std::uint64_t total = 0;
    for (const auto &p : perProcessor)
        total += p.barrierWaitCycles;
    return total;
}

std::uint64_t
RunResult::maxBarrierWait() const
{
    std::uint64_t best = 0;
    for (const auto &p : perProcessor)
        best = std::max(best, p.barrierWaitCycles);
    return best;
}

/**
 * Per-processor memory port: timing comes from the private cache plus
 * the shared bus; data always comes from shared memory. Stores
 * invalidate the line in the other caches that may hold it
 * (write-through coherence): a per-line sharer mask — a conservative
 * superset of the caches holding the line, reset to the writer on
 * every store — replaces the old O(P) broadcast. Invalidating a
 * cache that merely *might* hold the line is a tag-mismatch no-op,
 * so the filter never changes behaviour, only the work done.
 */
class Machine::Port : public MemoryPort
{
  public:
    Port(Machine &machine, int cpu) : _machine(machine), _cpu(cpu) {}

    std::int64_t
    read(std::size_t addr, std::uint64_t now, std::uint32_t &cycles)
        override
    {
        cycles = latency(addr, now);
        return _machine._memory->read(addr);
    }

    void
    write(std::size_t addr, std::int64_t value, std::uint64_t now,
          std::uint32_t &cycles) override
    {
        cycles = latency(addr, now);
        _machine._memory->write(addr, value);
        std::size_t line = lineOf(addr);
        if (line >= _machine._lineSharers.size())
            return;  // cache model disabled
        const int n = _machine.numProcessors();
        std::uint64_t &sharers = _machine._lineSharers[line];
        const std::uint64_t self = 1ull << (_cpu & 63);
        if (n <= 64) {
            std::uint64_t others = sharers & ~self;
            _machine._invalidationsAvoided +=
                static_cast<std::uint64_t>(n - 1) -
                static_cast<std::uint64_t>(std::popcount(others));
            while (others != 0) {
                int p = std::countr_zero(others);
                others &= others - 1;
                _machine._caches[static_cast<std::size_t>(p)]
                    ->invalidate(addr);
                ++_machine._invalidationsSent;
            }
        } else {
            // Beyond 64 processors the sharer word is a bucketed
            // mask: bit b stands for every processor congruent to b
            // mod 64. Invalidating an aliased non-holder is a
            // tag-mismatch no-op, so the mask stays a conservative
            // superset exactly like the narrow form.
            std::uint64_t buckets = sharers;
            std::uint64_t sent = 0;
            while (buckets != 0) {
                const int bit = std::countr_zero(buckets);
                buckets &= buckets - 1;
                for (int p = bit; p < n; p += 64) {
                    if (p == _cpu)
                        continue;
                    _machine._caches[static_cast<std::size_t>(p)]
                        ->invalidate(addr);
                    ++sent;
                }
            }
            _machine._invalidationsSent += sent;
            _machine._invalidationsAvoided +=
                static_cast<std::uint64_t>(n - 1) - sent;
        }
        sharers = self;
        _machine.markSharerEpoch(line);
    }

  private:
    std::size_t
    lineOf(std::size_t addr) const
    {
        return addr / std::max<std::size_t>(
                          1, _machine._config.cache.lineWords);
    }

    std::uint32_t
    latency(std::size_t addr, std::uint64_t now)
    {
        auto result =
            _machine._caches[static_cast<std::size_t>(_cpu)]->access(addr);
        // access() write-allocates, so after any access this cache
        // may hold the line: record it in the sharer mask (bucketed
        // by cpu mod 64 when the machine is wider than one word).
        std::size_t line = lineOf(addr);
        if (line < _machine._lineSharers.size()) {
            _machine._lineSharers[line] |= 1ull << (_cpu & 63);
            _machine.markSharerEpoch(line);
        }
        if (result.hit)
            return result.cycles;
        std::uint64_t queue = _machine._bus->request(now, addr);
        return result.cycles + static_cast<std::uint32_t>(queue);
    }

    Machine &_machine;
    int _cpu;
};

Machine::Machine(const MachineConfig &config) : _config(config)
{
    FB_ASSERT(config.numProcessors > 0 &&
                  static_cast<std::size_t>(config.numProcessors) <=
                      HiBitset::maxCapacity,
              "processor count must be in [1, "
                  << HiBitset::maxCapacity << "]");
    _memory = std::make_unique<SharedMemory>(config.memWords);
    _bus = std::make_unique<SharedBus>(config.busServiceCycles,
                                       config.busKind);
    _network = std::make_unique<barrier::BarrierNetwork>(
        config.numProcessors, config.syncLatency, config.topology);

    _programs.resize(static_cast<std::size_t>(config.numProcessors));
    for (auto &prog : _programs)
        prog.finalize();
    _decodedPrograms.resize(
        static_cast<std::size_t>(config.numProcessors));

    RandomSource master(config.seed);
    for (int p = 0; p < config.numProcessors; ++p) {
        _caches.push_back(std::make_unique<DataCache>(config.cache));
        _ports.push_back(std::make_unique<Port>(*this, p));
        _processors.push_back(std::make_unique<Processor>(
            p, _programs[static_cast<std::size_t>(p)], _network->unit(p),
            *_ports.back(), config.pipelineDepth, config.stall,
            master.split(), config.jitterMean, config.interruptPeriod,
            config.isrEntry, config.issueWidth));
        _processors.back()->setObserver(this);
    }
    if (config.traceBarrierStates) {
        _trace = std::make_unique<BarrierTrace>(config.numProcessors);
    }
    _lastArrival.assign(static_cast<std::size_t>(config.numProcessors), 0);
    _openSyncRecord.assign(static_cast<std::size_t>(config.numProcessors),
                           std::numeric_limits<std::size_t>::max());
    _fenced.assign(static_cast<std::size_t>(config.numProcessors), false);

    if (config.cache.enabled) {
        std::size_t line_words =
            std::max<std::size_t>(1, config.cache.lineWords);
        _lineSharers.assign(config.memWords / line_words + 1, 0);
    }
    _active.reserve(static_cast<std::size_t>(config.numProcessors));
    _groupScratch.reserve(static_cast<std::size_t>(config.numProcessors));
    _memberScratch.resize(static_cast<std::size_t>(config.numProcessors));
    _traceStates.reserve(static_cast<std::size_t>(config.numProcessors));
    _traceHalted.reserve(static_cast<std::size_t>(config.numProcessors));
    _wdHalted.resize(static_cast<std::size_t>(config.numProcessors));

    if (config.faultPlan != nullptr && !config.faultPlan->empty()) {
        _injector = std::make_unique<fault::FaultInjector>(
            *config.faultPlan, config.numProcessors);
        _network->setPulseFilter(_injector.get());
    }
    if (config.watchdog.enabled) {
        _watchdog = std::make_unique<fault::BarrierWatchdog>(
            config.watchdog, config.numProcessors);
    }
}

Machine::~Machine() = default;

// Debug-only reset verification: after every Machine::reset, snapshot
// the recycled machine and a freshly constructed twin and require the
// byte streams to be identical. Always on in Debug builds; sanitizer
// builds (which may compile with NDEBUG, e.g. TSan's RelWithDebInfo)
// opt in explicitly via FB_CHECK_MACHINE_RESET from CMake.
#if !defined(NDEBUG) || defined(FB_CHECK_MACHINE_RESET)
#define FB_RESET_CHECKS 1
#else
#define FB_RESET_CHECKS 0
#endif

std::uint64_t
Machine::structuralKey(const MachineConfig &config)
{
    snapshot::Fnv1a h;
    h.mix(static_cast<std::uint64_t>(config.numProcessors));
    h.mix(config.memWords);
    h.mix(config.cache.enabled ? 1 : 0);
    h.mix(config.cache.numLines);
    h.mix(config.cache.lineWords);
    return h.value();
}

void
Machine::reset(const MachineConfig &config)
{
    FB_ASSERT(config.numProcessors > 0 &&
                  static_cast<std::size_t>(config.numProcessors) <=
                      HiBitset::maxCapacity,
              "processor count must be in [1, "
                  << HiBitset::maxCapacity << "]");
    FB_ASSERT(structuralKey(config) == structuralKey(_config),
              "Machine::reset across structural shapes (use a new "
              "Machine instead)");

    // Zero the sharer masks before the memory forgets which pages the
    // previous run touched: every access that can set a sharer bit
    // also lands in the page's access stats, so the touched-page list
    // bounds the nonzero lines (restores included — a snapshot's
    // sharers are covered by its decoded stats pages).
    if (!_lineSharers.empty()) {
        if (_sharersUnbounded) {
            std::fill(_lineSharers.begin(), _lineSharers.end(), 0);
        } else {
            const std::size_t line_words =
                std::max<std::size_t>(1, _config.cache.lineWords);
            for (std::size_t page : _memory->touchedPages()) {
                const std::size_t first =
                    page * SharedMemory::pageWords / line_words;
                const std::size_t last = std::min(
                    _lineSharers.size(),
                    ((page + 1) * SharedMemory::pageWords - 1) /
                            line_words +
                        1);
                if (first < last)
                    std::fill(_lineSharers.begin() +
                                  static_cast<std::ptrdiff_t>(first),
                              _lineSharers.begin() +
                                  static_cast<std::ptrdiff_t>(last),
                              0);
            }
        }
    }
    _sharersUnbounded = false;

    _config = config;
    _fingerprint.reset();
    _memory->resetStats();
    _memory->resetContents();
    _bus->reset(config.busServiceCycles, config.busKind);
    _network->reset(config.syncLatency, config.topology);

    for (auto &prog : _programs) {
        prog = isa::Program();
        prog.finalize();
    }
    for (int p = 0; p < config.numProcessors; ++p) {
        _decodedPrograms[static_cast<std::size_t>(p)] = nullptr;
        _processors[static_cast<std::size_t>(p)]->setDecoded(nullptr);
    }

    // Same seeding protocol as the constructor: one master stream,
    // split per processor in ascending order, so a recycled machine's
    // jitter sequences are bit-identical to a fresh one's.
    RandomSource master(config.seed);
    for (int p = 0; p < config.numProcessors; ++p) {
        const auto idx = static_cast<std::size_t>(p);
        _caches[idx]->reset(config.cache);
        _processors[idx]->reset(config.pipelineDepth, config.stall,
                                master.split(), config.jitterMean,
                                config.interruptPeriod, config.isrEntry,
                                config.issueWidth);
        _processors[idx]->setObserver(this);
    }
    _trace = config.traceBarrierStates
                 ? std::make_unique<BarrierTrace>(config.numProcessors)
                 : nullptr;

    _now = 0;
    std::fill(_lastArrival.begin(), _lastArrival.end(), 0);
    std::fill(_openSyncRecord.begin(), _openSyncRecord.end(),
              std::numeric_limits<std::size_t>::max());
    std::fill(_fenced.begin(), _fenced.end(), false);
    _recoveries.clear();
    _deadDeclared.clear();
    _membershipViolation.clear();
    setStagedCheckpointSink(nullptr);
    _restoredChainGen = 0;
    _syncRecords.clear();
    _syncRecordsDropped = 0;
    _invalidationsSent = 0;
    _invalidationsAvoided = 0;

    _injector.reset();
    if (config.faultPlan != nullptr && !config.faultPlan->empty()) {
        _injector = std::make_unique<fault::FaultInjector>(
            *config.faultPlan, config.numProcessors);
        _network->setPulseFilter(_injector.get());
    }
    _watchdog.reset();
    if (config.watchdog.enabled) {
        _watchdog = std::make_unique<fault::BarrierWatchdog>(
            config.watchdog, config.numProcessors);
    }

#if FB_RESET_CHECKS
    // The recycled machine must be observably indistinguishable from
    // a fresh one — the whole machine-reuse invariant in one check.
    // Snapshots encode only touched state, so a correctly reset
    // machine produces a byte-identical stream.
    Machine fresh(config);
    FB_ASSERT(saveState(0) == fresh.saveState(0),
              "Machine::reset left reused state behind (snapshot "
              "differs from a freshly constructed machine)");
#endif
}

void
Machine::loadProgram(int p, isa::Program program,
                     std::shared_ptr<const DecodedProgram> decoded)
{
    FB_ASSERT(p >= 0 && p < numProcessors(), "bad processor index");
    FB_ASSERT(program.finalized(), "program must be finalized");
    FB_ASSERT(_now == 0, "cannot load programs after run()");
    const auto sp = static_cast<std::size_t>(p);
    if (!_config.predecode) {
        decoded = nullptr;  // escape hatch: legacy per-cycle loop only
    } else if (decoded != nullptr) {
        // A shared decode (ProgramCache) must be the twin of this
        // exact program, or the threaded loop would execute different
        // code than the interpreter.
        FB_ASSERT(decoded->matches(program),
                  "decoded block does not match the loaded program on "
                  "cpu " << p);
    } else if (program.size() > 0) {
        decoded = decodeProgram(program);
    }
    _programs[sp] = std::move(program);
    _fingerprint.reset();
    _decodedPrograms[sp] = std::move(decoded);
    _processors[sp]->setDecoded(_decodedPrograms[sp].get());
}

void
Machine::loadAllPrograms(const isa::Program &program)
{
    // Decode once, share the block across every processor.
    std::shared_ptr<const DecodedProgram> decoded;
    if (_config.predecode && program.size() > 0)
        decoded = decodeProgram(program);
    for (int p = 0; p < numProcessors(); ++p)
        loadProgram(p, program, decoded);
}

std::shared_ptr<const DecodedProgram>
Machine::decodedProgram(int p) const
{
    FB_ASSERT(p >= 0 && p < numProcessors(), "bad processor index");
    return _decodedPrograms[static_cast<std::size_t>(p)];
}

Processor &
Machine::processor(int p)
{
    FB_ASSERT(p >= 0 && p < numProcessors(), "bad processor index");
    return *_processors[static_cast<std::size_t>(p)];
}

void
Machine::onArrive(int p, std::uint64_t cycle)
{
    _lastArrival[static_cast<std::size_t>(p)] = cycle;
}

void
Machine::onCross(int p, std::uint64_t cycle)
{
    std::size_t rec = _openSyncRecord[static_cast<std::size_t>(p)];
    if (rec == std::numeric_limits<std::size_t>::max())
        return;
    // Members are ascending: delivery builds them that way, and
    // restore rejects records that are not.
    SyncRecord &record = _syncRecords[rec];
    const auto it =
        std::lower_bound(record.members.begin(), record.members.end(), p);
    if (it != record.members.end() && *it == p)
        record.crossings[static_cast<std::size_t>(
            it - record.members.begin())] = cycle;
    _openSyncRecord[static_cast<std::size_t>(p)] =
        std::numeric_limits<std::size_t>::max();
}

RunResult
Machine::run(ShardWindowDriver *driver)
{
    RunResult result;
    const int n = numProcessors();
    result.perProcessor.reserve(static_cast<std::size_t>(n));
    constexpr std::uint64_t never =
        std::numeric_limits<std::uint64_t>::max();

    // One body serves two loops. With fast-forward off it is the
    // per-cycle reference loop: the oracle every other mode is checked
    // against. Otherwise the block at the bottom of the body makes it
    // the event-and-window loop (INTERNALS section 14).
    const bool fast_forward = _config.fastForward;

    // Who runs a window's private ticks: the driver's shard threads at
    // the configured skew quantum (section 17), or, with the
    // pre-decoded backend, this thread over every processor at a fixed
    // quantum (section 19), so straight-line private stretches run
    // through the threaded-code loop in one call. Results are
    // identical at any quantum (the sharded suite pins this), so the
    // fixed value is purely a batching knob. With neither, a window
    // dispatches nothing and the block is plain fast-forward.
    const bool sharded =
        driver != nullptr && fast_forward && _config.shardQuantum != 0;
    const bool dispatch_windows = sharded || _config.predecode;
    constexpr std::uint64_t macroQuantum = 4096;
    const std::uint64_t quantum =
        sharded ? _config.shardQuantum : macroQuantum;
    _procNext.assign(static_cast<std::size_t>(n), 0);

    _active.clear();
    for (int p = 0; p < n; ++p)
        _active.push_back(p);

    // Seed the watchdog's halted-or-fenced view once; from here it is
    // maintained on the edges that change it (halt, kill, recovery
    // fence) so the per-cycle watchdog block never scans all n cores.
    for (int p = 0; p < n; ++p) {
        _wdHalted[static_cast<std::size_t>(p)] =
            _fenced[static_cast<std::size_t>(p)] ||
            _processors[static_cast<std::size_t>(p)]->halted();
    }

    for (;;) {
        if (_injector) {
            _injector->beginCycle(_now, *_network);
            for (int d : _injector->killsDue(_now)) {
                if (!_fenced[static_cast<std::size_t>(d)]) {
                    std::ostringstream oss;
                    oss << "fault: killing cpu" << d << " at cycle "
                        << _now;
                    warn(oss.str());
                    _processors[static_cast<std::size_t>(d)]->kill();
                    _wdHalted[static_cast<std::size_t>(d)] = true;
                }
            }
            for (int p : _active) {
                auto &proc = *_processors[static_cast<std::size_t>(p)];
                if (!_fenced[static_cast<std::size_t>(p)] &&
                    !proc.halted() && _injector->stormActive(p, _now)) {
                    proc.forceInterrupt();
                    ++_injector->stats().forcedInterrupts;
                }
            }
        }

        bool all_halted = true;
        bool any_progress = false;

        // Tick the still-active processors in ascending order (tick
        // order is architectural: FAA atomicity and bus request
        // ordering depend on it), compacting out the ones that leave
        // the pool. A fenced processor was declared dead by the
        // watchdog: it no longer ticks and counts as halted. A frozen
        // processor skips its tick; unless frozen forever, it will
        // resume, so the run must not terminate on it.
        std::size_t out = 0;
        for (std::size_t idx = 0; idx < _active.size(); ++idx) {
            int p = _active[idx];
            if (_fenced[static_cast<std::size_t>(p)])
                continue;  // drop from the active pool
            if (_injector && _injector->frozen(p, _now)) {
                if (!_injector->frozenForever(p, _now))
                    all_halted = false;
                _active[out++] = p;
                continue;
            }
            if (_procNext[static_cast<std::size_t>(p)] > _now) {
                // Ran ahead through private ticks inside an earlier
                // window: each of those ticks reported Progress and
                // could not halt, so the sequential loop would have
                // seen a live, progressing core at this cycle.
                _active[out++] = p;
                all_halted = false;
                any_progress = true;
                continue;
            }
            TickResult tr =
                _processors[static_cast<std::size_t>(p)]->tick(_now);
            _procNext[static_cast<std::size_t>(p)] = _now + 1;
            if (tr == TickResult::Halted) {
                _wdHalted[static_cast<std::size_t>(p)] = true;
                continue;  // halted for good: drop from the pool
            }
            _active[out++] = p;
            all_halted = false;
            if (tr == TickResult::Progress)
                any_progress = true;
        }
        _active.resize(out);

        int delivered = _network->evaluate(_now);
        if (delivered > 0 || _network->deliveryPending())
            any_progress = true;

        if (delivered > 0) {
            // Group the newly synchronized processors by tag; each
            // group is one completed barrier episode. delivered() is
            // exactly the set whose episode counters advanced, in
            // ascending processor order; a stable sort by tag yields
            // the ascending-tag, ascending-member order the old
            // std::map grouping produced, without the per-delivery
            // allocations.
            _groupScratch.clear();
            for (int p : _network->delivered())
                _groupScratch.emplace_back(_network->unit(p).tag(), p);
            std::stable_sort(_groupScratch.begin(), _groupScratch.end(),
                             [](const auto &a, const auto &b) {
                                 return a.first < b.first;
                             });
            for (std::size_t i = 0; i < _groupScratch.size();) {
                std::size_t j = i;
                while (j < _groupScratch.size() &&
                       _groupScratch[j].first == _groupScratch[i].first)
                    ++j;
                SyncRecord record;
                record.cycle = _now;
                for (std::size_t k = i; k < j; ++k)
                    record.members.push_back(_groupScratch[k].second);
                if (_membershipViolation.empty()) {
                    _membershipViolation =
                        checkMembership(record.members, _now);
                }
                for (int m : record.members) {
                    record.arrivals.push_back(
                        _lastArrival[static_cast<std::size_t>(m)]);
                    record.crossings.push_back(
                        std::numeric_limits<std::uint64_t>::max());
                }
                _syncRecords.push_back(std::move(record));
                for (std::size_t k = i; k < j; ++k) {
                    _openSyncRecord[static_cast<std::size_t>(
                        _groupScratch[k].second)] =
                        _syncRecords.size() - 1;
                }
                i = j;
            }
            if (_config.syncRecordWindow != 0)
                pruneSyncRecords();
        }

        if (_trace) {
            _traceStates.clear();
            _traceHalted.clear();
            for (int p = 0; p < n; ++p) {
                _traceStates.push_back(_network->unit(p).state());
                _traceHalted.push_back(
                    _processors[static_cast<std::size_t>(p)]->halted());
            }
            // Skipped cycles repeat these symbols (BarrierTrace).
            _trace->record(_now, _traceStates, _traceHalted,
                           delivered > 0);
        }

        if (_watchdog) {
            // The watchdog only gets processor *halt* status — a
            // frozen core looks alive from the outside, which is
            // exactly the straggler-vs-dead ambiguity the backoff
            // path must resolve. _wdHalted is maintained on halt /
            // kill / fence edges, so no per-cycle scan happens here.
            std::vector<int> dead =
                _watchdog->tick(*_network, _wdHalted, _now);
            if (!dead.empty()) {
                applyRecovery(dead, _now);
                any_progress = true;
            }
        }

        if (all_halted)
            break;

        if (!any_progress &&
            (!_injector || !_injector->pendingActivity(_now)) &&
            (!_watchdog || !_watchdog->armed())) {
            result.deadlocked = true;
            result.deadlockInfo = describeState();
            break;
        }

        if (fast_forward) {
            // One bound caps both the window and the skip: no core may
            // run ahead into, and the clock may not jump past, a cycle
            // where a global action could affect a core — the end of
            // the run, a checkpoint capture (which needs every core
            // aligned, at the cycles the per-cycle loop takes it), a
            // fault event or thaw, or a watchdog recovery (which can
            // fence a live straggler). Barrier pulse deliveries
            // deliberately do NOT bound the window: a private tick
            // never reads anything a delivery changes (Ready vs Synced
            // both sit on the far side of the NonBarrier test in
            // isPrivateTick), which is exactly the fuzzy barrier's
            // license to keep computing while the sync propagates.
            std::uint64_t bound = _config.maxCycles;
            if (_config.checkpointEveryCycles != 0) {
                const std::uint64_t every =
                    _config.checkpointEveryCycles;
                bound = std::min(bound, (_now / every + 1) * every);
            }
            if (_injector)
                bound = std::min(bound,
                                 _injector->nextActivityCycle(_now));
            if (_watchdog && _watchdog->armed())
                bound = std::min(
                    bound, std::max(_watchdog->nextDeadline(), _now + 1));

            // Dispatch a window only when some core can actually use
            // it: a shard rendezvous costs synchronization.
            const std::uint64_t window =
                std::min(_now + 1 + quantum, bound);
            bool dispatch = false;
            if (dispatch_windows && window > _now + 1) {
                for (int p : _active) {
                    const auto sp = static_cast<std::size_t>(p);
                    if (_injector && _injector->frozen(p, _now))
                        continue;
                    if (_procNext[sp] < window &&
                        _processors[sp]->isPrivateTick(_procNext[sp])) {
                        dispatch = true;
                        break;
                    }
                }
            }
            if (dispatch) {
                if (sharded)
                    driver->advanceWindow(window);
                else
                    advanceShardRange(0, n, window);
            }

            // Skip: every cycle from _now + 1 up to (excluding) the
            // next interesting cycle is pure wait for the cores that
            // did not run ahead — each skipped body would only apply
            // the fixed per-state accounting, evaluate() and the fault
            // machinery would be no-ops, and the termination checks
            // could not fire — with one exception. The per-cycle loop
            // declares deadlock as soon as a cycle makes no progress,
            // even if a stalled core's timer interrupt is still
            // scheduled; reproduce that by never skipping when the
            // waiters' ticks would all report BarrierWait and neither
            // injector nor watchdog is live. A core that ran ahead
            // made progress on every cycle the skip would cover.
            const std::uint64_t target = nextInterestingCycle();
            if (target != never && target > _now + 1) {
                bool wait_progress = _network->deliveryPending();
                for (int p : _active) {
                    if (wait_progress)
                        break;
                    if (_injector && _injector->frozen(p, _now))
                        continue;
                    const auto sp = static_cast<std::size_t>(p);
                    wait_progress =
                        _procNext[sp] > _now + 1 ||
                        _processors[sp]->progressWhileWaiting();
                }
                const bool would_deadlock =
                    !wait_progress &&
                    (!_injector || !_injector->pendingActivity(_now)) &&
                    (!_watchdog || !_watchdog->armed());
                const std::uint64_t stop = std::min(target, bound);
                if (!would_deadlock && stop > _now + 1) {
                    // advanceWait() makes the split bit-identical, so
                    // where the bound pauses time never changes
                    // results.
                    const std::uint64_t skipped = stop - _now - 1;
                    for (int p : _active) {
                        const auto sp = static_cast<std::size_t>(p);
                        if (_injector && _injector->frozen(p, _now))
                            continue;
                        if (_procNext[sp] > _now + 1)
                            continue;  // these cycles already ran
                        _processors[sp]->advanceWait(skipped);
                    }
                    _now += skipped;
                }
            }
        }

        ++_now;
        if (_now >= _config.maxCycles) {
            result.timedOut = true;
            break;
        }

        if (_config.checkpointEveryCycles != 0 && _stagedSink &&
            _now % _config.checkpointEveryCycles == 0) {
            // Loop bottom is the one cut point at which re-entering
            // run() at the loop top replays the remainder exactly:
            // the restored machine re-derives _active and proceeds
            // from cycle _now as if nothing had happened.
            takeStagedCheckpoint(_now / _config.checkpointEveryCycles);
        }
    }

    // A timed-out run's last cycles may have been skipped.
    if (_trace)
        _trace->extendTo(_now);

    // Epoch bookkeeping must not outlive the run: state mutated after
    // the last capture belongs to no checkpoint.
    if (_epochCoreTracking)
        endDeltaEpoch();

    result.cycles = _now;
    result.syncEvents = _network->syncEvents();
    result.syncRecordsDropped = _syncRecordsDropped;
    result.busRequests = _bus->requests();
    result.busQueueDelay = _bus->totalQueueDelay();
    result.memAccesses = _memory->totalAccesses();
    result.hotSpotAccesses = _memory->hotSpotAccesses();
    result.invalidationsSent = _invalidationsSent;
    result.invalidationsAvoided = _invalidationsAvoided;
    result.recoveries = _recoveries;
    result.deadDeclared = _deadDeclared;
    result.correctedFaults = _network->correctedFaults();
    result.membershipViolation = _membershipViolation;
    result.checkpointsFull = _checkpointsFull;
    result.checkpointsDelta = _checkpointsDelta;
    result.checkpointDegradations = _checkpointDegradations;
    result.checkpointDegradation = _checkpointDegradation;
    if (_injector)
        result.faultStats = _injector->stats();
    if (_watchdog)
        result.watchdogStats = _watchdog->stats();

    for (int p = 0; p < n; ++p) {
        const auto &proc = *_processors[static_cast<std::size_t>(p)];
        const auto &unit = _network->unit(p);
        const auto &cache = *_caches[static_cast<std::size_t>(p)];
        ProcessorStats ps;
        ps.instructions = proc.instructions();
        ps.barrierWaitCycles = proc.barrierWaitCycles();
        ps.contextSwitchCycles = proc.contextSwitchCycles();
        ps.contextSwitches = proc.contextSwitches();
        ps.interruptsTaken = proc.interruptsTaken();
        ps.barrierEpisodes = unit.episodes();
        ps.stalledEpisodes = unit.stalledEpisodes();
        ps.stallCycles = unit.stallCycles();
        ps.cacheHits = cache.hits();
        ps.cacheMisses = cache.misses();
        result.perProcessor.push_back(ps);
    }
    return result;
}

void
Machine::advanceShardRange(int first, int last, std::uint64_t stop)
{
    for (int p = first; p < last; ++p) {
        const auto sp = static_cast<std::size_t>(p);
        if (_fenced[sp])
            continue;
        Processor &proc = *_processors[sp];
        if (proc.halted())
            continue;
        // Freeze boundaries are injector events and the window never
        // crosses one, so frozen status is constant across the whole
        // window — a frozen core simply sits out, exactly as the
        // per-cycle loop would leave it.
        if (_injector && _injector->frozen(p, _now))
            continue;
        if (_procNext[sp] >= stop)
            continue;
        FB_ASSERT(_procNext[sp] > _now,
                  "shard window started behind the global clock on cpu "
                      << p);
        _procNext[sp] = proc.runPrivate(_procNext[sp], stop);
    }
}

std::uint64_t
Machine::nextInterestingCycle() const
{
    constexpr std::uint64_t never =
        std::numeric_limits<std::uint64_t>::max();
    std::uint64_t next = never;

    for (int p : _active) {
        // A frozen processor does not tick; it is woken by the thaw,
        // which the injector reports below. (Freeze boundaries are
        // injector events, so frozen status is constant across any
        // window this function allows to be skipped.)
        if (_injector && _injector->frozen(p, _now))
            continue;
        // A core that ran ahead needs no coordinator attention before
        // its skew cursor; everyone else wakes at nextEventCycle().
        const auto sp = static_cast<std::size_t>(p);
        next = std::min(next, _procNext[sp] > _now + 1
                                  ? _procNext[sp]
                                  : _processors[sp]->nextEventCycle(_now));
        if (next <= _now + 1)
            return _now + 1;
    }

    std::uint64_t delivery = _network->nextDeliveryCycle();
    if (delivery != never)
        next = std::min(next, std::max(delivery, _now + 1));

    if (_injector)
        next = std::min(next, _injector->nextActivityCycle(_now));

    if (_watchdog && _watchdog->armed())
        next = std::min(next,
                        std::max(_watchdog->nextDeadline(), _now + 1));

    return next;
}

void
Machine::pruneSyncRecords()
{
    const std::size_t window = _config.syncRecordWindow;
    if (window == 0 || _syncRecords.size() <= window)
        return;
    std::size_t k = _syncRecords.size() - window;
    // Records the open delta-checkpoint epoch still patches are
    // pinned: the next CoreDelta re-encodes everything from
    // _epochSyncPatchFrom, so rotating past it would leave the patch
    // point dangling. (Prunes below it decrement it in lockstep, so
    // it keeps naming the same record.)
    if (_epochCoreTracking)
        k = std::min(k, _epochSyncPatchFrom);
    // Open records are pinned too — onCross() patches crossings into
    // them by index. A processor killed inside a region leaves its
    // record open forever, capping how far rotation can advance; that
    // is bounded by the processor count and is the conservative
    // choice (the un-crossed record is exactly the interesting one).
    for (std::size_t open : _openSyncRecord) {
        if (open != std::numeric_limits<std::size_t>::max())
            k = std::min(k, open);
    }
    if (k == 0)
        return;
    _syncRecords.erase(
        _syncRecords.begin(),
        _syncRecords.begin() + static_cast<std::ptrdiff_t>(k));
    _syncRecordsDropped += k;
    for (std::size_t &open : _openSyncRecord) {
        if (open != std::numeric_limits<std::size_t>::max())
            open -= k;
    }
    if (_epochCoreTracking)
        _epochSyncPatchFrom -= k;
}

std::string
Machine::checkSafetyProperty() const
{
    for (std::size_t r = 0; r < _syncRecords.size(); ++r) {
        const SyncRecord &record = _syncRecords[r];
        std::uint64_t latest_arrival = 0;
        for (auto a : record.arrivals)
            latest_arrival = std::max(latest_arrival, a);
        for (std::size_t i = 0; i < record.members.size(); ++i) {
            std::uint64_t crossing = record.crossings[i];
            if (crossing == std::numeric_limits<std::uint64_t>::max())
                continue;  // never crossed (halted inside the region)
            if (crossing <= latest_arrival) {
                std::ostringstream oss;
                oss << "safety violation in sync record " << r
                    << ": processor " << record.members[i]
                    << " crossed at cycle " << crossing
                    << " but the latest arrival was at cycle "
                    << latest_arrival;
                return oss.str();
            }
        }
    }
    return "";
}

void
Machine::applyRecovery(const std::vector<int> &dead, std::uint64_t now)
{
    for (int d : dead) {
        if (_fenced[static_cast<std::size_t>(d)])
            continue;
        _fenced[static_cast<std::size_t>(d)] = true;
        _wdHalted[static_cast<std::size_t>(d)] = true;
        _deadDeclared.push_back(d);

        RecoveryEvent event;
        event.cycle = now;
        event.deadProc = d;
        // Mask-shrink: every live processor still synchronizing with
        // the dead one drops its mask bit and bumps its epoch. The
        // dead unit itself is left untouched — its stale epoch is
        // exactly what discards its latched ready-pulse from the
        // survivors' AND, and the survivors' new epoch keeps their
        // pulses from ever completing the dead unit's group.
        for (int p = 0; p < numProcessors(); ++p) {
            if (p == d || _fenced[static_cast<std::size_t>(p)])
                continue;
            auto &u = _network->unit(p);
            if (!u.mask().test(static_cast<std::size_t>(d)))
                continue;
            u.setMaskBit(d, false);
            u.bumpEpoch();
            event.survivors.push_back(p);
        }

        std::ostringstream oss;
        oss << "watchdog: cpu" << d << " declared dead at cycle " << now
            << "; " << event.survivors.size()
            << " survivor(s) shrink masks and enter epoch ";
        if (!event.survivors.empty())
            oss << _network->unit(event.survivors.front()).epoch();
        else
            oss << "(none)";
        warn(oss.str());
        _recoveries.push_back(std::move(event));
    }
}

std::string
Machine::checkMembership(const std::vector<int> &members,
                         std::uint64_t now)
{
    for (int m : members)
        _memberScratch.set(static_cast<std::size_t>(m));
    // The lowest live same-tag same-epoch processor in @p u's mask that
    // is outside the group, or the mask size when there is none. Bits
    // inside the group can never be violations, so each mask word is
    // filtered against the group before any bit is looked at.
    auto missedMember = [this](const barrier::BarrierUnit &u) {
        const BitVector &mask = u.mask();
        for (std::size_t i = 0; i < mask.wordCount(); ++i) {
            for (std::uint64_t w = mask.word(i) & ~_memberScratch.word(i);
                 w != 0; w &= w - 1) {
                const std::size_t q =
                    i * HiBitset::bitsPerWord +
                    static_cast<std::size_t>(std::countr_zero(w));
                if (_fenced[q])
                    continue;  // legitimately excluded by recovery
                const auto &other = _network->unit(static_cast<int>(q));
                if (other.tag() == u.tag() && other.epoch() == u.epoch())
                    return q;
            }
        }
        return mask.size();
    };
    // Members ascending, then mask bits ascending: the first violation
    // is the one a bit-by-bit walk over every mask would report.
    std::string violation;
    for (int m : members) {
        const auto &u = _network->unit(m);
        const std::size_t q = missedMember(u);
        if (q == u.mask().size())
            continue;
        std::ostringstream oss;
        oss << "fault-safety violation at cycle " << now << ": cpu" << m
            << " synchronized on tag " << u.tag() << " epoch " << u.epoch()
            << " without live member cpu" << q;
        violation = oss.str();
        break;
    }
    _memberScratch.clearAll();
    return violation;
}

std::uint64_t
Machine::configFingerprint() const
{
    if (_fingerprint)
        return *_fingerprint;
    snapshot::Fnv1a h;
    h.mix(static_cast<std::uint64_t>(_config.numProcessors));
    h.mix(static_cast<std::uint64_t>(_config.issueWidth));
    h.mix(static_cast<std::uint64_t>(_config.pipelineDepth));
    h.mix(_config.memWords);
    h.mix(_config.cache.enabled ? 1 : 0);
    h.mix(_config.cache.numLines);
    h.mix(_config.cache.lineWords);
    h.mix(_config.cache.missPenalty);
    h.mix(_config.busServiceCycles);
    h.mix(static_cast<std::uint64_t>(_config.busKind));
    h.mix(_config.syncLatency);
    // The topology changes reported latencies (delivery cycles, wait
    // counters), so it is as result-relevant as syncLatency itself.
    h.mix(static_cast<std::uint64_t>(_config.topology.kind));
    h.mix(static_cast<std::uint64_t>(_config.topology.param));
    h.mix(_config.topology.levelLatency);
    h.mix(static_cast<std::uint64_t>(_config.stall.kind));
    h.mix(_config.stall.saveCycles);
    h.mix(_config.stall.restoreCycles);
    h.mix(std::bit_cast<std::uint64_t>(_config.jitterMean));
    h.mix(_config.seed);
    h.mix(_config.interruptPeriod);
    h.mix(static_cast<std::uint64_t>(_config.isrEntry));
    h.mix(_config.maxCycles);
    // Sync events are always recorded; the constant stands where a
    // record-or-not flag was mixed, so fingerprints (and the headers
    // of stores already written) keep their values.
    h.mix(1);
    // The record window changes what the run retains (and the wire
    // bytes of every checkpoint), so unlike the knobs excluded below
    // it participates.
    h.mix(_config.syncRecordWindow);
    h.mix(_config.fastForward ? 1 : 0);
    // checkpointEveryCycles, checkpointRebaseEvery, shardCount,
    // shardQuantum, predecode and traceBarrierStates are deliberately
    // excluded: none of them changes results, so snapshots taken at
    // different cadences — or under a different shard layout,
    // execution backend or tracing — are mutually restorable.
    h.mixString(_config.faultPlan != nullptr ? _config.faultPlan->toSpec()
                                             : std::string());
    h.mix(_config.watchdog.enabled ? 1 : 0);
    h.mix(_config.watchdog.timeoutCycles);
    h.mix(static_cast<std::uint64_t>(_config.watchdog.maxAttempts));

    // The loaded code is as much an input as the config: restoring
    // state into different programs would replay garbage.
    h.mix(_programs.size());
    for (const auto &prog : _programs) {
        h.mix(prog.size());
        for (std::size_t i = 0; i < prog.size(); ++i) {
            const isa::Instruction &instr = prog.at(i);
            h.mix(static_cast<std::uint64_t>(instr.op));
            h.mix(static_cast<std::uint64_t>(instr.rd));
            h.mix(static_cast<std::uint64_t>(instr.rs1));
            h.mix(static_cast<std::uint64_t>(instr.rs2));
            h.mix(static_cast<std::uint64_t>(instr.imm));
            h.mix(instr.inRegion ? 1 : 0);
            h.mix(static_cast<std::uint64_t>(prog.barrierId(i)));
        }
    }
    _fingerprint = h.value();
    return *_fingerprint;
}

namespace
{

constexpr std::uint64_t neverCrossed =
    std::numeric_limits<std::uint64_t>::max();

/**
 * Sync records dominate snapshot payloads (a busy epoch appends
 * hundreds), so they get a packed wire form. Arrivals precede the
 * record's delivery cycle and crossings follow it, so both compress
 * to 32-bit offsets from the cycle; members fit a byte. A record any
 * of that doesn't hold for (huge stalls, >256 processors) falls back
 * to the full-width layout behind a per-record flag — the packing is
 * lossless by construction, never by assumption.
 */
void
encodeSyncRecord(snapshot::Encoder &e, const SyncRecord &r)
{
    const std::size_t n = r.members.size();
    bool narrow = n <= 0xff && r.arrivals.size() == n &&
                  r.crossings.size() == n;
    for (std::size_t i = 0; narrow && i < n; ++i)
        narrow = r.members[i] >= 0 && r.members[i] <= 0xff &&
                 r.arrivals[i] <= r.cycle &&
                 r.cycle - r.arrivals[i] < 0xffffffffu &&
                 (r.crossings[i] == neverCrossed ||
                  (r.crossings[i] >= r.cycle &&
                   r.crossings[i] - r.cycle < 0xffffffffu));
    e.u64(r.cycle);
    e.u8(narrow ? 1 : 0);
    if (narrow) {
        e.u8(static_cast<std::uint8_t>(n));
        for (int m : r.members)
            e.u8(static_cast<std::uint8_t>(m));
        for (std::size_t i = 0; i < n; ++i)
            e.u32(static_cast<std::uint32_t>(r.cycle - r.arrivals[i]));
        for (std::size_t i = 0; i < n; ++i)
            e.u32(r.crossings[i] == neverCrossed
                      ? 0xffffffffu
                      : static_cast<std::uint32_t>(r.crossings[i] -
                                                   r.cycle));
    } else {
        e.u64(n);
        for (int m : r.members)
            e.i64(m);
        e.u64Vec(r.arrivals);
        e.u64Vec(r.crossings);
    }
}

void
decodeSyncRecord(snapshot::Decoder &d, SyncRecord &r)
{
    r.cycle = d.u64();
    if (d.u8() != 0) {
        const std::size_t n = d.u8();
        r.members.reserve(n);
        r.arrivals.reserve(n);
        r.crossings.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            r.members.push_back(static_cast<int>(d.u8()));
        for (std::size_t i = 0; i < n; ++i)
            r.arrivals.push_back(r.cycle - d.u32());
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t off = d.u32();
            r.crossings.push_back(off == 0xffffffffu ? neverCrossed
                                                     : r.cycle + off);
        }
    } else {
        const std::uint64_t n = d.u64();
        for (std::uint64_t i = 0; i < n && d.ok(); ++i)
            r.members.push_back(static_cast<int>(d.i64()));
        d.u64Vec(r.arrivals);
        d.u64Vec(r.crossings);
    }
}

/**
 * The invariants onCross() indexes with, checked on every restore: each
 * record's members lie in [0, @p n) in strictly ascending order (the
 * binary search needs it) with one arrival and one crossing each, and
 * each open-record entry is the none sentinel or names a record.
 */
bool
syncTrailWellFormed(const std::vector<SyncRecord> &records,
                    const std::vector<std::size_t> &open, std::size_t n)
{
    for (const SyncRecord &r : records) {
        if (r.arrivals.size() != r.members.size() ||
            r.crossings.size() != r.members.size())
            return false;
        int prev = -1;
        for (int m : r.members) {
            if (m <= prev || static_cast<std::size_t>(m) >= n)
                return false;
            prev = m;
        }
    }
    for (std::size_t rec : open) {
        if (rec != std::numeric_limits<std::size_t>::max() &&
            rec >= records.size())
            return false;
    }
    return true;
}

/**
 * What sets the two snapshot kinds apart on the wire: the ids of the
 * four sections whose payload differs between a full snapshot and a
 * delta, the names their corruption diagnostics use, and the noun the
 * kind's other diagnostics use. Each kind's decoder rejects the other
 * kind's ids as unknown.
 */
struct SnapshotKind
{
    snapshot::SectionId core, memory, bus, caches;
    const char *coreName, *memoryName, *busName, *cachesName;
    const char *noun;
};

constexpr SnapshotKind fullKind{
    snapshot::SectionId::MachineCore, snapshot::SectionId::Memory,
    snapshot::SectionId::Bus,         snapshot::SectionId::Caches,
    "machine-core", "memory", "bus", "caches", "snapshot"};

constexpr SnapshotKind deltaKind{
    snapshot::SectionId::CoreDelta, snapshot::SectionId::MemoryDelta,
    snapshot::SectionId::BusDelta,  snapshot::SectionId::CacheDelta,
    "core-delta", "memory-delta", "bus-delta", "cache-delta",
    "delta snapshot"};

} // namespace

std::vector<snapshot::Section>
Machine::buildSections(bool delta) const
{
    const SnapshotKind &kind = delta ? deltaKind : fullKind;
    std::vector<snapshot::Section> sections;
    auto add = [&sections](snapshot::SectionId id,
                           snapshot::Encoder &&e) {
        snapshot::Section s;
        s.id = static_cast<std::uint32_t>(id);
        s.payload = std::move(e).take();
        sections.push_back(std::move(s));
    };
    // Memory, bus and caches have a delta codec that writes only what
    // the open epoch dirtied; every other component is re-encoded
    // absolutely in both kinds (the network's state is a handful of
    // words per processor — no delta form pays for itself).
    auto encode = [delta](const auto &component, snapshot::Encoder &e) {
        if (delta)
            component.encodeDeltaState(e);
        else
            component.encodeState(e);
    };

    {
        // The scalars and small per-processor vectors are cheap enough
        // to re-encode absolutely; the two unbounded collections —
        // sync records and sharer masks — are encoded incrementally in
        // a delta. Records before _epochSyncPatchFrom were closed
        // (immutable) when the epoch began; apply truncates to the
        // patch point and re-appends the rest.
        const std::size_t patch_from = delta ? _epochSyncPatchFrom : 0;
        snapshot::Encoder e;
        // The record tail dominates the payload; pre-size for it so
        // the encode is one allocation instead of a realloc ladder.
        std::size_t record_bytes = 0;
        for (std::size_t k = patch_from; k < _syncRecords.size(); ++k)
            record_bytes += 16 + 10 * _syncRecords[k].members.size();
        e.reserve(record_bytes + 512);
        e.u64(_now);
        e.boolVec(_fenced);
        e.u64(_deadDeclared.size());
        for (int d : _deadDeclared)
            e.i64(d);
        e.u64(_recoveries.size());
        for (const RecoveryEvent &r : _recoveries) {
            e.u64(r.cycle);
            e.i64(r.deadProc);
            e.u64(r.survivors.size());
            for (int s : r.survivors)
                e.i64(s);
        }
        e.u64Vec(_lastArrival);
        e.u64(_openSyncRecord.size());
        for (std::size_t v : _openSyncRecord)
            e.u64(v);
        e.u64(_syncRecordsDropped);
        if (delta)
            e.u64(patch_from);
        e.u64(_syncRecords.size());
        for (std::size_t k = patch_from; k < _syncRecords.size(); ++k)
            encodeSyncRecord(e, _syncRecords[k]);
        e.str(_membershipViolation);
        e.u64(_invalidationsSent);
        e.u64(_invalidationsAvoided);
        // Sharer masks, sparse: a full capture lists every nonzero
        // line (most are never touched), a delta the absolute masks of
        // the lines mutated this epoch (a mask never returns to zero
        // during a run, so that patch set is complete).
        std::vector<std::size_t> lines;
        if (delta) {
            lines = _epochSharerLines;
            std::sort(lines.begin(), lines.end());
        } else {
            for (std::size_t i = 0; i < _lineSharers.size(); ++i)
                if (_lineSharers[i] != 0)
                    lines.push_back(i);
        }
        e.u64(_lineSharers.size());
        e.u64(lines.size());
        for (std::size_t line : lines) {
            e.u64(line);
            e.u64(_lineSharers[line]);
        }
        add(kind.core, std::move(e));
    }
    {
        snapshot::Encoder e;
        encode(*_memory, e);
        add(kind.memory, std::move(e));
    }
    {
        snapshot::Encoder e;
        encode(*_bus, e);
        add(kind.bus, std::move(e));
    }
    {
        snapshot::Encoder e;
        _network->encodeState(e);
        add(snapshot::SectionId::Network, std::move(e));
    }
    {
        snapshot::Encoder e;
        e.u64(_caches.size());
        for (const auto &cache : _caches)
            encode(*cache, e);
        add(kind.caches, std::move(e));
    }
    {
        snapshot::Encoder e;
        e.u64(_processors.size());
        for (const auto &proc : _processors)
            proc->encodeState(e);
        add(snapshot::SectionId::Processors, std::move(e));
    }
    if (_injector) {
        snapshot::Encoder e;
        _injector->encodeState(e);
        add(snapshot::SectionId::Injector, std::move(e));
    }
    if (_watchdog) {
        snapshot::Encoder e;
        _watchdog->encodeState(e);
        add(snapshot::SectionId::Watchdog, std::move(e));
    }
    return sections;
}

void
Machine::beginDeltaEpoch()
{
    _memory->beginDeltaEpoch();
    _bus->beginDeltaEpoch();
    for (auto &cache : _caches)
        cache->beginDeltaEpoch();
    for (std::size_t line : _epochSharerLines)
        _epochSharerDirty[line] = false;
    _epochSharerLines.clear();
    _epochSharerDirty.resize(_lineSharers.size(), false);
    _epochSyncPatchFrom = _syncRecords.size();
    for (std::size_t open : _openSyncRecord) {
        if (open != std::numeric_limits<std::size_t>::max())
            _epochSyncPatchFrom = std::min(_epochSyncPatchFrom, open);
    }
    _epochCoreTracking = true;
}

void
Machine::endDeltaEpoch()
{
    _memory->endDeltaEpoch();
    _bus->endDeltaEpoch();
    for (auto &cache : _caches)
        cache->endDeltaEpoch();
    for (std::size_t line : _epochSharerLines)
        _epochSharerDirty[line] = false;
    _epochSharerLines.clear();
    _epochSyncPatchFrom = 0;
    _epochCoreTracking = false;
}

void
Machine::setStagedCheckpointSink(StagedCheckpointSink sink)
{
    _stagedSink = std::move(sink);
    endDeltaEpoch();
    _deltasDisabled = false;
    _forceFullNext = false;
    _checkpointSeq = 0;
    _chainBaseGen = 0;
    _lastCheckpointGen = 0;
    _checkpointsFull = 0;
    _checkpointsDelta = 0;
    _checkpointDegradations = 0;
    _checkpointDegradation.clear();
}

void
Machine::takeStagedCheckpoint(std::uint64_t generation)
{
    const std::uint32_t rebase =
        std::max<std::uint32_t>(1, _config.checkpointRebaseEvery);
    const bool delta = _epochCoreTracking && !_deltasDisabled &&
                       !_forceFullNext &&
                       _checkpointSeq % rebase != 0;

    snapshot::SnapshotHeader header;
    header.configFingerprint = configFingerprint();
    header.cycle = _now;
    header.generation = generation;
    if (delta) {
        header.baseFull = _chainBaseGen;
        header.prev = _lastCheckpointGen;
    } else {
        header.baseFull = generation;
        header.prev = generation;
    }
    std::vector<snapshot::Section> sections = buildSections(delta);

    // Roll the epoch over *after* capturing: the next delta describes
    // everything mutated from this capture on. Every capture re-bases
    // at a period of 1, so no delta ever needs the dirty sets.
    if (rebase > 1)
        beginDeltaEpoch();
    ++_checkpointSeq;
    if (delta) {
        ++_checkpointsDelta;
    } else {
        ++_checkpointsFull;
        _chainBaseGen = generation;
    }
    _lastCheckpointGen = generation;
    _forceFullNext = false;

    CheckpointAck ack =
        _stagedSink(std::move(header), std::move(sections));
    if (!ack.degradation.empty()) {
        _checkpointDegradation = ack.degradation;
        ++_checkpointDegradations;
    }
    if (ack.forceFull)
        _forceFullNext = true;
    if (!ack.deltasOk)
        _deltasDisabled = true;
    if (!ack.keep) {
        _stagedSink = nullptr;
        endDeltaEpoch();
    }
}

std::vector<std::uint8_t>
Machine::saveState(std::uint64_t generation) const
{
    snapshot::SnapshotHeader header;
    header.configFingerprint = configFingerprint();
    header.cycle = _now;
    header.generation = generation;
    header.baseFull = generation;
    header.prev = generation;
    return snapshot::assemble(header, buildSections(false));
}

bool
Machine::restoreState(const std::vector<std::uint8_t> &bytes,
                      std::string &error)
{
    return decodeSnapshot(bytes, false, error);
}

bool
Machine::applyDeltaState(const std::vector<std::uint8_t> &bytes,
                         std::string &error)
{
    return decodeSnapshot(bytes, true, error);
}

bool
Machine::decodeSnapshot(const std::vector<std::uint8_t> &bytes,
                        bool delta, std::string &error)
{
    // A partial restore can leave sharer masks the access stats no
    // longer cover; make the next reset() take the full clear unless
    // this restore completes.
    _sharersUnbounded = true;
    // Whatever epoch was open described the pre-restore state.
    endDeltaEpoch();

    snapshot::SnapshotHeader header;
    std::vector<snapshot::Section> sections;
    if (!snapshot::disassemble(bytes, header, sections, error))
        return false;
    if (!delta && header.isDelta()) {
        std::ostringstream oss;
        oss << "snapshot generation " << header.generation
            << " is a delta (base " << header.baseFull
            << "); restore its chain instead";
        error = oss.str();
        return false;
    }
    if (delta && !header.isDelta()) {
        std::ostringstream oss;
        oss << "snapshot generation " << header.generation
            << " is a full snapshot, not a delta";
        error = oss.str();
        return false;
    }
    if (delta && header.prev != _restoredChainGen) {
        // Defense in depth below the store's chain walk: a delta only
        // patches the exact state its predecessor left behind, so an
        // out-of-order (or chainless) apply must fail loudly rather
        // than silently merge onto the wrong base.
        std::ostringstream oss;
        oss << "delta generation " << header.generation
            << " continues generation " << header.prev
            << ", but the last restored generation is "
            << _restoredChainGen << " (out-of-order chain)";
        error = oss.str();
        return false;
    }
    if (header.configFingerprint != configFingerprint()) {
        std::ostringstream oss;
        oss << "config fingerprint mismatch: snapshot "
            << header.configFingerprint << ", this machine "
            << configFingerprint()
            << " (different config, programs or fault plan)";
        error = oss.str();
        return false;
    }

    const SnapshotKind &kind = delta ? deltaKind : fullKind;
    auto fail = [&error](const char *what) {
        error = std::string("corrupt ") + what + " section";
        return false;
    };
    auto decode = [delta](auto &component, snapshot::Decoder &d) {
        return delta ? component.decodeDeltaState(d)
                     : component.decodeState(d);
    };

    bool saw_core = false, saw_memory = false, saw_bus = false;
    bool saw_network = false, saw_caches = false, saw_procs = false;
    for (const snapshot::Section &s : sections) {
        snapshot::Decoder d(s.payload);
        const auto id = static_cast<snapshot::SectionId>(s.id);
        if (id == kind.core) {
            _now = d.u64();
            d.boolVec(_fenced);
            _deadDeclared.clear();
            const std::uint64_t dead = d.u64();
            for (std::uint64_t k = 0; k < dead && d.ok(); ++k)
                _deadDeclared.push_back(static_cast<int>(d.i64()));
            _recoveries.clear();
            const std::uint64_t recoveries = d.u64();
            for (std::uint64_t k = 0; k < recoveries && d.ok(); ++k) {
                RecoveryEvent r;
                r.cycle = d.u64();
                r.deadProc = static_cast<int>(d.i64());
                const std::uint64_t survivors = d.u64();
                for (std::uint64_t i = 0; i < survivors && d.ok(); ++i)
                    r.survivors.push_back(static_cast<int>(d.i64()));
                _recoveries.push_back(std::move(r));
            }
            d.u64Vec(_lastArrival);
            _openSyncRecord.clear();
            const std::uint64_t open = d.u64();
            for (std::uint64_t k = 0; k < open && d.ok(); ++k)
                _openSyncRecord.push_back(
                    static_cast<std::size_t>(d.u64()));
            // A full snapshot carries the whole record trail. A delta
            // patches it: rotation first — the source may have pruned
            // old records since its predecessor was captured, so drop
            // the same count from the front and the vector indices
            // line up — then truncate to the first record that was
            // still open when the delta's epoch began and re-append
            // everything from there.
            std::uint64_t patch_from = 0;
            const std::uint64_t dropped = d.u64();
            if (delta) {
                if (!d.ok() || dropped < _syncRecordsDropped ||
                    dropped - _syncRecordsDropped > _syncRecords.size())
                    return fail(kind.coreName);
                _syncRecords.erase(
                    _syncRecords.begin(),
                    _syncRecords.begin() +
                        static_cast<std::ptrdiff_t>(
                            dropped - _syncRecordsDropped));
                patch_from = d.u64();
            }
            _syncRecordsDropped = dropped;
            const std::uint64_t records = d.u64();
            if (!d.ok() || patch_from > _syncRecords.size() ||
                patch_from > records)
                return fail(kind.coreName);
            _syncRecords.resize(static_cast<std::size_t>(patch_from));
            for (std::uint64_t k = patch_from; k < records && d.ok();
                 ++k) {
                SyncRecord r;
                decodeSyncRecord(d, r);
                _syncRecords.push_back(std::move(r));
            }
            if (_syncRecords.size() != records)
                return fail(kind.coreName);
            _membershipViolation = d.str();
            _invalidationsSent = d.u64();
            _invalidationsAvoided = d.u64();
            const std::uint64_t sharer_lines = d.u64();
            if (!d.ok() || sharer_lines != _lineSharers.size())
                return fail(kind.coreName);
            // A full snapshot lists every nonzero mask; a delta only
            // the masks its epoch changed.
            if (!delta)
                std::fill(_lineSharers.begin(), _lineSharers.end(), 0);
            const std::uint64_t listed = d.u64();
            for (std::uint64_t k = 0; k < listed && d.ok(); ++k) {
                const std::uint64_t idx = d.u64();
                const std::uint64_t mask = d.u64();
                if (idx >= _lineSharers.size())
                    return fail(kind.coreName);
                _lineSharers[static_cast<std::size_t>(idx)] = mask;
            }
            const std::size_t n =
                static_cast<std::size_t>(numProcessors());
            if (!d.done() || _fenced.size() != n ||
                _lastArrival.size() != n || _openSyncRecord.size() != n ||
                !syncTrailWellFormed(_syncRecords, _openSyncRecord, n))
                return fail(kind.coreName);
            saw_core = true;
        } else if (id == kind.memory) {
            if (!decode(*_memory, d) || !d.done())
                return fail(kind.memoryName);
            saw_memory = true;
        } else if (id == kind.bus) {
            if (!decode(*_bus, d) || !d.done())
                return fail(kind.busName);
            saw_bus = true;
        } else if (id == snapshot::SectionId::Network) {
            if (!_network->decodeState(d) || !d.done())
                return fail("network");
            saw_network = true;
        } else if (id == kind.caches) {
            if (d.u64() != _caches.size())
                return fail(kind.cachesName);
            for (auto &cache : _caches)
                if (!decode(*cache, d))
                    return fail(kind.cachesName);
            if (!d.done())
                return fail(kind.cachesName);
            saw_caches = true;
        } else if (id == snapshot::SectionId::Processors) {
            if (d.u64() != _processors.size())
                return fail("processors");
            for (auto &proc : _processors)
                if (!proc->decodeState(d))
                    return fail("processors");
            if (!d.done())
                return fail("processors");
            saw_procs = true;
        } else if (id == snapshot::SectionId::Injector) {
            if (!_injector)
                return fail("injector (machine has no fault plan)");
            if (!_injector->decodeState(d) || !d.done())
                return fail("injector");
        } else if (id == snapshot::SectionId::Watchdog) {
            if (!_watchdog)
                return fail("watchdog (machine has no watchdog)");
            if (!_watchdog->decodeState(d) || !d.done())
                return fail("watchdog");
        } else {
            std::ostringstream oss;
            oss << "unknown " << kind.noun << " section id " << s.id;
            error = oss.str();
            return false;
        }
    }
    if (!saw_core || !saw_memory || !saw_bus || !saw_network ||
        !saw_caches || !saw_procs) {
        error = std::string(kind.noun) +
                " is missing a required section";
        return false;
    }
    if (_now != header.cycle) {
        error = delta ? "delta header cycle disagrees with machine core"
                      : "snapshot header cycle disagrees with machine "
                        "core";
        return false;
    }
    _sharersUnbounded = false;
    _restoredChainGen = header.generation;
    return true;
}

bool
Machine::restoreChainState(
    const std::vector<std::vector<std::uint8_t>> &chain,
    std::string &error)
{
    if (chain.empty()) {
        error = "empty snapshot chain";
        return false;
    }
    if (!restoreState(chain.front(), error))
        return false;
    for (std::size_t i = 1; i < chain.size(); ++i) {
        if (!applyDeltaState(chain[i], error)) {
            std::ostringstream oss;
            oss << "chain link " << i << ": " << error;
            error = oss.str();
            return false;
        }
    }
    return true;
}

std::string
Machine::describeState() const
{
    std::ostringstream oss;
    for (int p = 0; p < numProcessors(); ++p) {
        const auto &proc = *_processors[static_cast<std::size_t>(p)];
        const auto &unit = _network->unit(p);
        oss << "cpu" << p << ": pc=" << proc.pc()
            << " halted=" << (proc.halted() ? "yes" : "no");
        if (_fenced[static_cast<std::size_t>(p)])
            oss << " (fenced)";
        oss << " barrier=" << barrier::barrierStateName(unit.state())
            << " tag=" << unit.tag() << " epoch=" << unit.epoch()
            << " mask=" << unit.mask().toString() << "\n";
    }

    std::vector<bool> halted(
        static_cast<std::size_t>(numProcessors()));
    for (int p = 0; p < numProcessors(); ++p) {
        halted[static_cast<std::size_t>(p)] =
            _fenced[static_cast<std::size_t>(p)] ||
            _processors[static_cast<std::size_t>(p)]->halted();
    }
    barrier::DeadlockReport report =
        _network->analyzeDeadlock(halted, _now);
    if (report.deadlocked)
        oss << report.toString();
    return oss.str();
}

} // namespace fb::sim
