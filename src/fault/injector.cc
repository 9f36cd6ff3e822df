#include "fault/injector.hh"

#include <algorithm>
#include <limits>
#include <sstream>

#include "support/logging.hh"

namespace fb::fault
{

FaultInjector::FaultInjector(const FaultPlan &plan, int num_procs)
    : _plan(plan), _numProcs(num_procs),
      _killReported(plan.events.size(), false),
      _flipApplied(plan.events.size(), false)
{
    FB_ASSERT(num_procs > 0, "need at least one processor");
    _plan.normalize();
    for (const auto &ev : _plan.events) {
        FB_ASSERT(ev.proc >= 0 && ev.proc < num_procs,
                  "fault event targets processor " << ev.proc
                      << " of " << num_procs);
    }
}

std::uint64_t
FaultInjector::windowEnd(const FaultEvent &ev)
{
    switch (ev.kind) {
      case FaultKind::DropPulse:
      case FaultKind::IrqStorm:
        return ev.cycle + std::max<std::uint64_t>(1, ev.arg);
      case FaultKind::Freeze:
        if (ev.arg == 0)
            return std::numeric_limits<std::uint64_t>::max();
        return ev.cycle + ev.arg;
      case FaultKind::FlipTagBit:
      case FaultKind::FlipMaskBit:
      case FaultKind::Kill:
        return ev.cycle + 1;
    }
    panic("unknown fault kind");
}

void
FaultInjector::beginCycle(std::uint64_t now,
                          barrier::BarrierNetwork &net)
{
    for (std::size_t i = 0; i < _plan.events.size(); ++i) {
        const FaultEvent &ev = _plan.events[i];
        switch (ev.kind) {
          case FaultKind::FlipTagBit:
          case FaultKind::FlipMaskBit:
            if (now >= ev.cycle && !_flipApplied[i]) {
                _flipApplied[i] = true;
                ++_stats.bitsFlipped;
                if (ev.kind == FaultKind::FlipTagBit)
                    net.unit(ev.proc).corruptTagBit(
                        static_cast<int>(ev.arg));
                else
                    net.unit(ev.proc).corruptMaskBit(
                        static_cast<int>(ev.arg) % _numProcs);
            }
            break;
          case FaultKind::DropPulse:
            if (now >= ev.cycle && now < windowEnd(ev)) {
                ++_stats.pulseDropCycles;
                // One line per window, when it opens: a count shared
                // across runs would make which line prints depend on
                // how concurrent campaign workers interleave.
                if (now == ev.cycle) {
                    std::ostringstream oss;
                    oss << "fault: dropping ready pulse of cpu" << ev.proc
                        << " for cycles [" << ev.cycle << ", "
                        << windowEnd(ev) << ")";
                    warn(oss.str());
                }
            }
            break;
          case FaultKind::Freeze:
            if (now == ev.cycle)
                ++_stats.freezes;
            break;
          case FaultKind::Kill:
          case FaultKind::IrqStorm:
            break;
        }
    }
}

std::vector<int>
FaultInjector::killsDue(std::uint64_t now)
{
    std::vector<int> due;
    for (std::size_t i = 0; i < _plan.events.size(); ++i) {
        const FaultEvent &ev = _plan.events[i];
        if (ev.kind == FaultKind::Kill && now >= ev.cycle &&
            !_killReported[i]) {
            _killReported[i] = true;
            ++_stats.kills;
            due.push_back(ev.proc);
        }
    }
    return due;
}

bool
FaultInjector::frozen(int p, std::uint64_t now) const
{
    for (const auto &ev : _plan.events) {
        if (ev.kind == FaultKind::Freeze && ev.proc == p &&
            now >= ev.cycle && now < windowEnd(ev))
            return true;
    }
    return false;
}

bool
FaultInjector::frozenForever(int p, std::uint64_t now) const
{
    for (const auto &ev : _plan.events) {
        if (ev.kind == FaultKind::Freeze && ev.proc == p &&
            ev.arg == 0 && now >= ev.cycle)
            return true;
    }
    return false;
}

bool
FaultInjector::stormActive(int p, std::uint64_t now) const
{
    for (const auto &ev : _plan.events) {
        if (ev.kind == FaultKind::IrqStorm && ev.proc == p &&
            now >= ev.cycle && now < windowEnd(ev))
            return true;
    }
    return false;
}

bool
FaultInjector::suppress(int p, std::uint64_t now) const
{
    for (const auto &ev : _plan.events) {
        if (ev.kind == FaultKind::DropPulse && ev.proc == p &&
            now >= ev.cycle && now < windowEnd(ev))
            return true;
    }
    return false;
}

bool
FaultInjector::pendingActivity(std::uint64_t now) const
{
    for (const auto &ev : _plan.events) {
        if (now < ev.cycle)
            return true;  // not fired yet
        // An open transient window still changes machine behaviour; a
        // fatal event that has fired never will again, so it must not
        // suppress deadlock detection (a forever-frozen blocker with
        // no watchdog IS a deadlock, and should be reported as one).
        if (!ev.fatal() && now < windowEnd(ev))
            return true;
    }
    return false;
}

std::uint64_t
FaultInjector::nextActivityCycle(std::uint64_t now) const
{
    constexpr std::uint64_t never =
        std::numeric_limits<std::uint64_t>::max();
    std::uint64_t next = never;
    for (std::size_t i = 0; i < _plan.events.size(); ++i) {
        const FaultEvent &ev = _plan.events[i];
        if (now < ev.cycle) {
            // Not fired yet: the scheduled cycle is the event.
            next = std::min(next, ev.cycle);
            continue;
        }
        switch (ev.kind) {
          case FaultKind::DropPulse:
          case FaultKind::IrqStorm:
            // Open windows act every cycle (dropped-pulse stats,
            // forced interrupts) — nothing may be skipped.
            if (now < windowEnd(ev))
                return now + 1;
            break;
          case FaultKind::Freeze:
            // A frozen processor next changes behaviour when it
            // thaws; a fatal freeze (windowEnd = max) never does.
            if (now < windowEnd(ev))
                next = std::min(next, windowEnd(ev));
            break;
          case FaultKind::FlipTagBit:
          case FaultKind::FlipMaskBit:
            if (!_flipApplied[i])
                return now + 1;
            break;
          case FaultKind::Kill:
            if (!_killReported[i])
                return now + 1;
            break;
        }
    }
    return next;
}

void
FaultInjector::encodeState(snapshot::Encoder &e) const
{
    e.boolVec(_killReported);
    e.boolVec(_flipApplied);
    e.u64(_stats.pulseDropCycles);
    e.u64(_stats.bitsFlipped);
    e.u64(_stats.kills);
    e.u64(_stats.freezes);
    e.u64(_stats.forcedInterrupts);
}

bool
FaultInjector::decodeState(snapshot::Decoder &d)
{
    const std::size_t kills = _killReported.size();
    const std::size_t flips = _flipApplied.size();
    d.boolVec(_killReported);
    d.boolVec(_flipApplied);
    _stats.pulseDropCycles = d.u64();
    _stats.bitsFlipped = d.u64();
    _stats.kills = d.u64();
    _stats.freezes = d.u64();
    _stats.forcedInterrupts = d.u64();
    return d.ok() && _killReported.size() == kills &&
           _flipApplied.size() == flips;
}

} // namespace fb::fault
