#include "barrier/unit.hh"

#include <bit>

#include "support/logging.hh"

namespace fb::barrier
{

BarrierUnit::BarrierUnit(int num_processors, int self)
    : _numProcessors(num_processors), _self(self),
      _mask(static_cast<std::size_t>(num_processors)),
      _shadowMask(static_cast<std::size_t>(num_processors))
{
    FB_ASSERT(num_processors > 0, "need at least one processor");
    FB_ASSERT(self >= 0 && self < num_processors,
              "self index out of range");
}

void
BarrierUnit::setMask(std::uint64_t bits)
{
    // A 64-bit immediate can only name processors 0..63; in a larger
    // machine the word form addresses that prefix and clears the rest
    // (the wide all-processors form is setMaskAll()).
    if (_numProcessors < 64)
        bits &= (std::uint64_t{1} << _numProcessors) - 1;
    if (_self < 64)
        bits &= ~(std::uint64_t{1} << _self);
    _mask.clearAll();
    for (; bits != 0; bits &= bits - 1)
        _mask.set(static_cast<std::size_t>(std::countr_zero(bits)));
    _shadowMask = _mask;
    ++_maskVersion;
}

void
BarrierUnit::setMaskAll()
{
    _mask.setAll();
    _mask.clear(static_cast<std::size_t>(_self));
    _shadowMask = _mask;
    ++_maskVersion;
}

void
BarrierUnit::setMaskBit(int processor, bool value)
{
    FB_ASSERT(processor >= 0 && processor < _numProcessors,
              "mask bit out of range");
    if (processor == _self)
        return;  // a processor never synchronizes with itself
    _mask.set(static_cast<std::size_t>(processor), value);
    _shadowMask.set(static_cast<std::size_t>(processor), value);
    ++_maskVersion;
}

void
BarrierUnit::corruptTagBit(int bit)
{
    FB_ASSERT(bit >= 0 && bit < 32, "tag bit out of range");
    _tag ^= std::uint32_t{1} << bit;
    _dirty = true;
    if (_listener != nullptr)
        _listener->unitDirtied(_self);
}

void
BarrierUnit::corruptMaskBit(int processor)
{
    FB_ASSERT(processor >= 0 && processor < _numProcessors,
              "mask bit out of range");
    _mask.set(static_cast<std::size_t>(processor),
              !_mask.test(static_cast<std::size_t>(processor)));
    _dirty = true;
    ++_maskVersion;
    if (_listener != nullptr)
        _listener->unitDirtied(_self);
}

int
BarrierUnit::scrub()
{
    if (!_dirty)
        return 0;
    int corrected = 0;
    if (_tag != _shadowTag) {
        _tag = _shadowTag;
        ++corrected;
    }
    if (!(_mask == _shadowMask)) {
        _mask = _shadowMask;
        ++corrected;  // count the mask register once, not per bit
        ++_maskVersion;
    }
    _dirty = false;
    return corrected;
}

void
BarrierUnit::arrive()
{
    if (!participating())
        return;
    FB_ASSERT(_state == BarrierState::NonBarrier,
              "arrive() in state " << barrierStateName(_state));
    _state = BarrierState::Ready;
    _stalledThisEpisode = false;
    notifyReady(true);
}

bool
BarrierUnit::mayCross() const
{
    if (!participating())
        return true;
    // A core that never armed this episode (no region instructions
    // executed, e.g. it branched around the region) is simply in
    // NonBarrier and may continue.
    return _state == BarrierState::NonBarrier ||
           _state == BarrierState::Synced;
}

void
BarrierUnit::cross()
{
    if (!participating())
        return;
    if (_state == BarrierState::NonBarrier)
        return;
    FB_ASSERT(_state == BarrierState::Synced,
              "cross() in state " << barrierStateName(_state));
    _state = BarrierState::NonBarrier;
}

void
BarrierUnit::noteStalled()
{
    FB_ASSERT(participating(), "stall without participation");
    FB_ASSERT(_state == BarrierState::Ready ||
                  _state == BarrierState::Stalled,
              "noteStalled() in state " << barrierStateName(_state));
    if (_state == BarrierState::Ready) {
        _state = BarrierState::Stalled;
        if (!_stalledThisEpisode) {
            _stalledThisEpisode = true;
            ++_stalledEpisodes;
        }
    }
}

void
BarrierUnit::deliverSync()
{
    FB_ASSERT(_state == BarrierState::Ready ||
                  _state == BarrierState::Stalled,
              "deliverSync() in state " << barrierStateName(_state));
    _state = BarrierState::Synced;
    ++_episodes;
    notifyReady(false);
}

void
BarrierUnit::reset()
{
    // The listener (network) rebuilds its sparse sets wholesale on
    // reset/decode, so no edge notification is needed here.
    _state = BarrierState::NonBarrier;
    _tag = 0;
    _epoch = 0;
    _mask.clearAll();
    _shadowTag = 0;
    _shadowMask.clearAll();
    _dirty = false;
    ++_maskVersion;
    _episodes = 0;
    _stalledEpisodes = 0;
    _stallCycles = 0;
    _stalledThisEpisode = false;
}

void
BarrierUnit::encodeState(snapshot::Encoder &e) const
{
    e.u8(static_cast<std::uint8_t>(_state));
    e.u32(_tag);
    e.u32(_epoch);
    e.bits(_mask);
    e.u32(_shadowTag);
    e.bits(_shadowMask);
    e.b(_dirty);
    e.u64(_episodes);
    e.u64(_stalledEpisodes);
    e.u64(_stallCycles);
    e.b(_stalledThisEpisode);
}

bool
BarrierUnit::decodeState(snapshot::Decoder &d)
{
    const std::uint8_t state = d.u8();
    _state = static_cast<BarrierState>(state);
    _tag = d.u32();
    _epoch = d.u32();
    d.bits(_mask);
    _shadowTag = d.u32();
    d.bits(_shadowMask);
    _dirty = d.b();
    _episodes = d.u64();
    _stalledEpisodes = d.u64();
    _stallCycles = d.u64();
    _stalledThisEpisode = d.b();
    ++_maskVersion;
    return d.ok() &&
           state <= static_cast<std::uint8_t>(BarrierState::Stalled) &&
           _mask.size() == static_cast<std::size_t>(_numProcessors) &&
           _shadowMask.size() == static_cast<std::size_t>(_numProcessors);
}

} // namespace fb::barrier
