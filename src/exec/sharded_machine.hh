/**
 * @file
 * Host-thread sharding of one sim::Machine under a quantum-bounded
 * skew barrier (INTERNALS section 17).
 *
 * The machine's processors are partitioned into contiguous shards,
 * each advanced by one host thread through provably processor-private
 * cycles, while every globally visible action — memory and bus
 * traffic, barrier pulses, fault injections, watchdog deadlines,
 * checkpoints — still executes on the coordinating thread in exact
 * (cycle, proc-id) order. Results are therefore byte-identical to the
 * sequential core at any shard count; the differential suite in
 * tests/sharded_test.cc holds it to that.
 *
 * The rendezvous between coordinator and shard threads reuses the
 * split barriers from src/swbarrier/ — the paper's mechanism applied
 * to the simulation of itself: shards drift apart inside a window
 * (the "region") and synchronize only at its edges.
 */

#ifndef FB_EXEC_SHARDED_MACHINE_HH
#define FB_EXEC_SHARDED_MACHINE_HH

#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "sim/machine.hh"
#include "swbarrier/split_barrier.hh"

namespace fb::exec
{

/**
 * Runs one sim::Machine under MachineConfig::shardCount host threads
 * with MachineConfig::shardQuantum cycles of permitted skew.
 *
 * Falls back to the plain sequential run() — spawning no threads at
 * all — whenever sharding cannot apply: shardCount <= 1, shardQuantum
 * == 0, more shards than processors are requested (the excess would
 * idle; the count is clamped), or fast-forward is off. The fallback
 * produces the same bytes, so callers never need to care which path
 * ran.
 *
 * The object is cheap and per-run: construct around a configured
 * machine (pooled machines work — shard fields are excluded from the
 * pool's structural key, so leases are shard-aware), call run(), let
 * it go out of scope. Worker threads live only for the duration of
 * run().
 */
class ShardedMachine final : public sim::ShardWindowDriver
{
  public:
    explicit ShardedMachine(sim::Machine &machine);
    ~ShardedMachine() override;

    ShardedMachine(const ShardedMachine &) = delete;
    ShardedMachine &operator=(const ShardedMachine &) = delete;

    /** Effective shard count after clamping (1 = sequential). */
    int shards() const { return _shards; }

    /** Run the machine to completion (threaded or fallback). */
    sim::RunResult run();

    // sim::ShardWindowDriver — called back by Machine::run().
    void advanceWindow(std::uint64_t stop) override;

  private:
    void workerLoop(int shard);

    sim::Machine &_machine;
    int _shards = 1;
    /** Per-shard [first, last) processor ranges. */
    std::vector<std::pair<int, int>> _ranges;

    // Two split-barrier rendezvous per window: "release" publishes
    // _windowStop to the shard threads, "join" hands their finished
    // processor state back to the coordinator. Both carry the
    // happens-before edges that make the handoff race-free.
    std::unique_ptr<sw::SplitBarrier> _release;
    std::unique_ptr<sw::SplitBarrier> _join;
    std::vector<std::thread> _workers;

    /** Window bound, written by the coordinator strictly before the
     * release rendezvous and read by workers strictly after it. */
    std::uint64_t _windowStop = 0;
    /** Set (under the same publication discipline) to end the run. */
    bool _shutdown = false;
};

} // namespace fb::exec

#endif // FB_EXEC_SHARDED_MACHINE_HH
