#include "exec/sharded_machine.hh"

#include <algorithm>

#include "support/logging.hh"
#include "swbarrier/factory.hh"

namespace fb::exec
{

ShardedMachine::ShardedMachine(sim::Machine &machine)
    : _machine(machine)
{
    const sim::MachineConfig &cfg = machine.config();
    int shards = std::clamp(cfg.shardCount, 1, cfg.numProcessors);
    // Windows ride on fast-forward; a zero quantum is the documented
    // "off" switch.
    if (cfg.shardQuantum == 0 || !cfg.fastForward)
        shards = 1;
    _shards = shards;
    if (_shards <= 1)
        return;

    // Contiguous ranges, remainder spread over the leading shards.
    const int n = cfg.numProcessors;
    const int base = n / _shards;
    const int extra = n % _shards;
    int next = 0;
    for (int s = 0; s < _shards; ++s) {
        const int len = base + (s < extra ? 1 : 0);
        _ranges.emplace_back(next, next + len);
        next += len;
    }
    FB_ASSERT(next == n, "shard ranges must cover every processor");

    _release = sw::makeBarrier(sw::BarrierKind::Centralized, _shards);
    _join = sw::makeBarrier(sw::BarrierKind::Centralized, _shards);
}

ShardedMachine::~ShardedMachine()
{
    // run() always joins its workers before returning; a destructor
    // with live workers means run() never ran to completion, which
    // only happens on the panic/abort path.
    FB_ASSERT(_workers.empty(),
              "ShardedMachine destroyed with live workers");
}

sim::RunResult
ShardedMachine::run()
{
    if (_shards <= 1)
        return _machine.run();

    _shutdown = false;
    _workers.reserve(static_cast<std::size_t>(_shards - 1));
    for (int s = 1; s < _shards; ++s)
        _workers.emplace_back([this, s] { workerLoop(s); });

    sim::RunResult result = _machine.run(this);

    // Final rendezvous: the shutdown flag is published exactly like a
    // window bound; workers observe it after the release barrier and
    // exit without touching the join barrier.
    _shutdown = true;
    _release->synchronize(0);
    for (auto &w : _workers)
        w.join();
    _workers.clear();
    return result;
}

void
ShardedMachine::advanceWindow(std::uint64_t stop)
{
    // Publish the bound, release the shard threads, advance our own
    // shard (the coordinator doubles as shard 0 — one fewer thread
    // and the cache-warm half of the machine stays on this core),
    // then wait for the others. The split barriers carry the
    // happens-before edges: the release arrive orders _windowStop
    // before any worker reads it, and the join wait orders every
    // worker's processor mutations before the coordinator resumes
    // the global loop.
    _windowStop = stop;
    _release->synchronize(0);
    _machine.advanceShardRange(_ranges[0].first, _ranges[0].second,
                               stop);
    _join->synchronize(0);
}

void
ShardedMachine::workerLoop(int shard)
{
    const auto range = _ranges[static_cast<std::size_t>(shard)];
    for (;;) {
        _release->synchronize(shard);
        if (_shutdown)
            return;
        _machine.advanceShardRange(range.first, range.second,
                                   _windowStop);
        _join->synchronize(shard);
    }
}

} // namespace fb::exec
