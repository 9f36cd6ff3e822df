#include "barrier/network.hh"

#include <algorithm>
#include <limits>
#include <sstream>

#include "snapshot/format.hh"
#include "support/logging.hh"

namespace fb::barrier
{

namespace
{
constexpr std::uint64_t kNone = std::numeric_limits<std::uint64_t>::max();
} // namespace

std::string
DeadlockReport::toString() const
{
    if (!deadlocked)
        return {};
    std::ostringstream oss;
    oss << "barrier deadlock: " << stuck.size()
        << " processor(s) stuck\n";
    for (const Entry &e : stuck) {
        oss << "  cpu" << e.proc << ": state="
            << barrierStateName(e.state) << " tag=" << e.tag
            << " epoch=" << e.epoch << " waiting-on={";
        for (std::size_t i = 0; i < e.unsatisfied.size(); ++i) {
            if (i)
                oss << ",";
            oss << "cpu" << e.unsatisfied[i];
        }
        oss << "}\n";
    }
    return oss.str();
}

BarrierNetwork::BarrierNetwork(int num_processors,
                               std::uint32_t sync_latency,
                               Topology topology)
    : _syncLatency(sync_latency), _topology(topology),
      _deliverAt(static_cast<std::size_t>(num_processors), kNone),
      _readySet(static_cast<std::size_t>(num_processors)),
      _scrubSet(static_cast<std::size_t>(num_processors)),
      _pendingSet(static_cast<std::size_t>(num_processors)),
      _visibleSet(static_cast<std::size_t>(num_processors)),
      _completeSet(static_cast<std::size_t>(num_processors)),
      _phase2Set(static_cast<std::size_t>(num_processors)),
      _unitCache(static_cast<std::size_t>(num_processors))
{
    FB_ASSERT(num_processors > 0, "need at least one processor");
    _delivered.reserve(static_cast<std::size_t>(num_processors));
    _units.reserve(static_cast<std::size_t>(num_processors));
    for (int p = 0; p < num_processors; ++p)
        _units.emplace_back(num_processors, p);
    // The unit vector is sized once and never reallocates, so the
    // listener back-pointers stay valid for the network's lifetime.
    for (BarrierUnit &u : _units)
        u.setListener(this);
}

void
BarrierNetwork::reset(std::uint32_t sync_latency, Topology topology)
{
    _syncLatency = sync_latency;
    _topology = topology;
    for (BarrierUnit &u : _units)
        u.reset();
    std::fill(_deliverAt.begin(), _deliverAt.end(), kNone);
    for (UnitCache &c : _unitCache)
        c = UnitCache{};
    rebuildSets();
    _completeSet.clearAll();
    _delivered.clear();
    _syncEvents = 0;
    _correctedFaults = 0;
    _filter = nullptr;
}

void
BarrierNetwork::readySignalChanged(int self, bool ready)
{
    if (ready)
        _readySet.set(static_cast<std::size_t>(self));
    else
        _readySet.clear(static_cast<std::size_t>(self));
}

void
BarrierNetwork::unitDirtied(int self)
{
    _scrubSet.set(static_cast<std::size_t>(self));
}

void
BarrierNetwork::rebuildSets()
{
    _readySet.clearAll();
    _scrubSet.clearAll();
    _pendingSet.clearAll();
    for (std::size_t p = 0; p < _units.size(); ++p) {
        if (_units[p].readySignal())
            _readySet.set(p);
        if (_deliverAt[p] != kNone)
            _pendingSet.set(p);
    }
    // Dirty registers are not serialized as a set; conservatively
    // scrub every unit once after a rebuild. scrub() is a no-op on
    // clean units and the dirty flag itself IS serialized, so this
    // reproduces the old every-unit scrub exactly for the first
    // post-restore evaluation.
    for (std::size_t p = 0; p < _units.size(); ++p)
        _scrubSet.set(p);
}

BarrierUnit &
BarrierNetwork::unit(int p)
{
    FB_ASSERT(p >= 0 && p < numProcessors(), "processor index " << p
                                                                << " bad");
    return _units[static_cast<std::size_t>(p)];
}

const BarrierUnit &
BarrierNetwork::unit(int p) const
{
    FB_ASSERT(p >= 0 && p < numProcessors(), "processor index " << p
                                                                << " bad");
    return _units[static_cast<std::size_t>(p)];
}

bool
BarrierNetwork::signalVisible(int p, std::uint64_t now) const
{
    const BarrierUnit &u = _units[static_cast<std::size_t>(p)];
    if (!u.readySignal())
        return false;
    return _filter == nullptr || !_filter->suppress(p, now);
}

bool
BarrierNetwork::groupComplete(int p, std::uint64_t now) const
{
    const BarrierUnit &u = _units[static_cast<std::size_t>(p)];
    // A suppressed pulse vanishes from the wire itself, so the owner's
    // own AND input goes dark too — every observer sees the same
    // signal and the group stays un-synchronized as a whole.
    if (!signalVisible(p, now))
        return false;
    bool complete = true;
    u.mask().forEachSet([&](std::size_t q) {
        if (!complete)
            return;
        const BarrierUnit &other = _units[q];
        if (!signalVisible(static_cast<int>(q), now) ||
            other.tag() != u.tag() || other.epoch() != u.epoch())
            complete = false;
    });
    return complete;
}

const BarrierNetwork::UnitCache &
BarrierNetwork::cacheFor(int p)
{
    const auto sp = static_cast<std::size_t>(p);
    UnitCache &c = _unitCache[sp];
    const BarrierUnit &u = _units[sp];
    if (c.version == u.maskVersion())
        return c;

    const BitVector &mask = u.mask();
    const std::size_t first = mask.firstSet();
    const std::size_t last = mask.lastSet();
    c.lo = std::min(first, sp);  // firstSet() == size when empty
    c.hi = last == mask.size() ? sp : std::max(last, sp);
    c.latency = _syncLatency + _topology.extraLatency(c.lo, c.hi);

    // Hash the member set (mask | self) so phase 1 can cheaply test
    // whether two units watch the same group; equality is confirmed
    // with a full word compare before it is relied upon.
    snapshot::Fnv1a h;
    const std::size_t self_word = sp / 64;
    const std::uint64_t self_bit = std::uint64_t{1} << (sp % 64);
    for (std::size_t i = 0; i < mask.wordCount(); ++i) {
        std::uint64_t w = mask.word(i);
        if (i == self_word)
            w |= self_bit;
        h.mix(w);
    }
    c.memberHash = h.value();
    c.version = u.maskVersion();
    return c;
}

bool
BarrierNetwork::sameMemberSet(int p, int q) const
{
    const BitVector &mp = _units[static_cast<std::size_t>(p)].mask();
    const BitVector &mq = _units[static_cast<std::size_t>(q)].mask();
    const auto sp = static_cast<std::size_t>(p);
    const auto sq = static_cast<std::size_t>(q);
    for (std::size_t i = 0; i < mp.wordCount(); ++i) {
        std::uint64_t wp = mp.word(i);
        std::uint64_t wq = mq.word(i);
        if (i == sp / 64)
            wp |= std::uint64_t{1} << (sp % 64);
        if (i == sq / 64)
            wq |= std::uint64_t{1} << (sq % 64);
        if (wp != wq)
            return false;
    }
    return true;
}

int
BarrierNetwork::evaluate(std::uint64_t now)
{
    // ECC scrub: restore any tag/mask register a fault corrupted
    // since the last evaluation. Corruption events register the unit
    // in the scrub set, so the fault-free path never touches a unit.
    if (!_scrubSet.empty()) {
        _scrubSet.forEach([&](std::size_t p) {
            _correctedFaults +=
                static_cast<std::uint64_t>(_units[p].scrub());
        });
        _scrubSet.clearAll();
    }

    // Phase 0: latch every broadcast wire once. The ready set already
    // tracks which units assert their signal; the filter can only
    // take wires away, so visible = ready minus suppressed. All
    // observers' AND terms read the same latched wires.
    _visibleSet.assignFrom(_readySet);
    if (_filter != nullptr) {
        _readySet.forEach([&](std::size_t p) {
            if (_filter->suppress(static_cast<int>(p), now))
                _visibleSet.clear(p);
        });
    }

    if (_visibleSet.empty()) {
        // Dark wires: no group's AND can be true, so phase 1 latches
        // false everywhere and phase 2 reduces to cancelling any
        // in-flight delivery whose term glitched dark (fault paths).
        // This is the common case whenever every processor is off
        // computing between barrier episodes.
        if (!_pendingSet.empty()) {
            _pendingSet.forEach(
                [&](std::size_t p) { _deliverAt[p] = kNone; });
            _pendingSet.clearAll();
        }
        _completeSet.clearAll();
        _delivered.clear();
        return 0;
    }

    // Phase 1: latch which processors see a complete group, based on
    // this cycle's latched wires, and start the propagation clock for
    // groups that just completed. Only visible units can possibly be
    // complete; each candidate's member set is first checked a word
    // at a time against the visible wires, then per member for
    // matching tag and epoch. When a group completes, every member
    // with the identical member set shares the verdict (symmetric
    // groups complete in one scan instead of one scan per member).
    _completeSet.clearAll();
    _visibleSet.forEach([&](std::size_t p) {
        if (_completeSet.test(p))
            return;  // already latched via a symmetric member
        const BarrierUnit &u = _units[p];
        const BitVector &mask = u.mask();

        // Word-level subset test: every mask member's wire visible.
        for (std::size_t i = 0; i < mask.wordCount(); ++i) {
            if ((mask.word(i) & ~_visibleSet.word(i)) != 0)
                return;
        }

        // Per-member tag/epoch agreement.
        const std::uint32_t tag = u.tag();
        const std::uint32_t epoch = u.epoch();
        for (std::size_t i = 0; i < mask.wordCount(); ++i) {
            std::uint64_t w = mask.word(i);
            while (w != 0) {
                const auto q = i * 64 + static_cast<std::size_t>(
                                            std::countr_zero(w));
                w &= w - 1;
                const BarrierUnit &other = _units[q];
                if (other.tag() != tag || other.epoch() != epoch)
                    return;
            }
        }

        const std::uint64_t hash = cacheFor(static_cast<int>(p))
                                       .memberHash;
        const auto latch = [&](std::size_t m) {
            _completeSet.set(m);
            auto &at = _deliverAt[m];
            if (at == kNone) {
                at = now + cacheFor(static_cast<int>(m)).latency;
                _pendingSet.set(m);
            }
        };
        latch(p);
        mask.forEachSet([&](std::size_t q) {
            if (_completeSet.test(q))
                return;
            if (cacheFor(static_cast<int>(q)).memberHash != hash ||
                !sameMemberSet(static_cast<int>(p),
                               static_cast<int>(q)))
                return;
            latch(q);
        });
    });

    // Phase 2: deliver synchronization simultaneously once the
    // broadcast has propagated. An in-flight delivery whose AND has
    // gone false again (a suppressed pulse or recovery re-masking mid
    // propagation) is cancelled: the hardware AND is combinational,
    // so a glitched term restarts the propagation clock. Without
    // faults the AND is stable once true and this never fires. Only
    // units that are pending or freshly complete can change state.
    int delivered = 0;
    bool any_event = false;
    _delivered.clear();
    _phase2Set.assignUnion(_pendingSet, _completeSet);
    _phase2Set.forEach([&](std::size_t p) {
        auto &at = _deliverAt[p];
        if (!_completeSet.test(p)) {
            at = kNone;
            _pendingSet.clear(p);
            return;
        }
        if (at != kNone && now >= at) {
            _units[p].deliverSync();
            at = kNone;
            _pendingSet.clear(p);
            ++delivered;
            _delivered.push_back(static_cast<int>(p));
            any_event = true;
        }
    });
    if (any_event)
        ++_syncEvents;
    return delivered;
}

std::uint64_t
BarrierNetwork::nextDeliveryCycle() const
{
    std::uint64_t next = kNone;
    _pendingSet.forEach([&](std::size_t p) {
        next = std::min(next, _deliverAt[p]);
    });
    return next;
}

bool
BarrierNetwork::deliveryPendingFor(int p) const
{
    FB_ASSERT(p >= 0 && p < numProcessors(), "processor index " << p
                                                                << " bad");
    return _deliverAt[static_cast<std::size_t>(p)] != kNone;
}

bool
BarrierNetwork::wouldDeadlock(const std::vector<bool> &halted,
                              std::uint64_t now) const
{
    // Deadlock: at least one processor is waiting (ready or stalled),
    // every non-halted processor is waiting, and no waiting group is
    // complete. Halted partners can never arrive, and mutual waits
    // with mismatched tags (Fig. 2) never resolve.
    //
    // Latch the visible wires once (the phase-0 latch of evaluate())
    // instead of re-deriving them per (waiter, member) pair: the old
    // O(n^2) member rescans made every watchdog-armed no-progress
    // check quadratic in the processor count.
    bool any_waiting = false;
    HiBitset visible(_readySet.size());
    visible.assignFrom(_readySet);
    if (_filter != nullptr) {
        _readySet.forEach([&](std::size_t p) {
            if (_filter->suppress(static_cast<int>(p), now))
                visible.clear(p);
        });
    }

    const int n = numProcessors();
    for (int p = 0; p < n; ++p) {
        const auto sp = static_cast<std::size_t>(p);
        if (halted[sp])
            continue;
        if (!_units[sp].readySignal())
            return false;  // someone can still make progress
        any_waiting = true;
        if (!visible.test(sp))
            continue;  // suppressed wire: this group cannot complete
        const BarrierUnit &u = _units[sp];
        const BitVector &mask = u.mask();
        bool complete = true;
        for (std::size_t i = 0; complete && i < mask.wordCount(); ++i) {
            if ((mask.word(i) & ~visible.word(i)) != 0) {
                complete = false;
                break;
            }
            std::uint64_t w = mask.word(i);
            while (w != 0) {
                const auto q = i * 64 + static_cast<std::size_t>(
                                            std::countr_zero(w));
                w &= w - 1;
                if (_units[q].tag() != u.tag() ||
                    _units[q].epoch() != u.epoch()) {
                    complete = false;
                    break;
                }
            }
        }
        if (complete)
            return false;  // sync will be delivered
    }
    return any_waiting;
}

DeadlockReport
BarrierNetwork::analyzeDeadlock(const std::vector<bool> &halted,
                                std::uint64_t now) const
{
    DeadlockReport report;
    if (!wouldDeadlock(halted, now))
        return report;

    // Genuinely wedged: build the per-processor diagnosis. This pass
    // is diagnostic-only (one call per failed run), so the member
    // walk below optimizes for completeness, not speed.
    for (int p = 0; p < numProcessors(); ++p) {
        const BarrierUnit &u = _units[static_cast<std::size_t>(p)];
        if (halted[static_cast<std::size_t>(p)])
            continue;

        DeadlockReport::Entry entry;
        entry.proc = p;
        entry.state = u.state();
        entry.tag = u.tag();
        entry.epoch = u.epoch();
        u.mask().forEachSet([&](std::size_t q) {
            const BarrierUnit &other = _units[q];
            if (!signalVisible(static_cast<int>(q), now) ||
                other.tag() != u.tag() || other.epoch() != u.epoch())
                entry.unsatisfied.push_back(static_cast<int>(q));
        });
        report.stuck.push_back(std::move(entry));
    }
    report.deadlocked = !report.stuck.empty();
    return report;
}

void
BarrierNetwork::encodeState(snapshot::Encoder &e) const
{
    e.u32(static_cast<std::uint32_t>(_units.size()));
    for (const BarrierUnit &u : _units)
        u.encodeState(e);
    e.u64Vec(_deliverAt);
    e.u64(_syncEvents);
    e.u64(_correctedFaults);
}

bool
BarrierNetwork::decodeState(snapshot::Decoder &d)
{
    const std::uint32_t count = d.u32();
    if (count != _units.size())
        return false;
    for (BarrierUnit &u : _units)
        if (!u.decodeState(d))
            return false;
    d.u64Vec(_deliverAt);
    _syncEvents = d.u64();
    _correctedFaults = d.u64();
    _delivered.clear();
    if (!d.ok() || _deliverAt.size() != _units.size())
        return false;
    rebuildSets();
    return true;
}

} // namespace fb::barrier
