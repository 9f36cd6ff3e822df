#include "support/bitvector.hh"

#include <bit>

#include "support/logging.hh"

namespace fb
{

BitVector::BitVector(std::size_t size)
    : _size(size), _words((size + bitsPerWord - 1) / bitsPerWord, 0)
{
}

void
BitVector::set(std::size_t idx, bool value)
{
    FB_ASSERT(idx < _size, "BitVector index " << idx << " out of range "
                                              << _size);
    if (value)
        _words[wordOf(idx)] |= maskOf(idx);
    else
        _words[wordOf(idx)] &= ~maskOf(idx);
}

void
BitVector::setAll()
{
    for (auto &w : _words)
        w = ~std::uint64_t{0};
    // Keep the bits past size() clear: count(), all() and equality
    // read whole words.
    if (const std::size_t tail = _size % bitsPerWord; tail != 0)
        _words.back() = (std::uint64_t{1} << tail) - 1;
}

void
BitVector::clearAll()
{
    for (auto &w : _words)
        w = 0;
}

std::size_t
BitVector::count() const
{
    std::size_t total = 0;
    for (auto w : _words)
        total += static_cast<std::size_t>(std::popcount(w));
    return total;
}

std::size_t
BitVector::firstSet() const
{
    for (std::size_t i = 0; i < _words.size(); ++i) {
        if (_words[i] != 0)
            return i * bitsPerWord + static_cast<std::size_t>(
                                         std::countr_zero(_words[i]));
    }
    return _size;
}

std::size_t
BitVector::lastSet() const
{
    for (std::size_t i = _words.size(); i-- > 0;) {
        if (_words[i] != 0)
            return i * bitsPerWord + 63 -
                   static_cast<std::size_t>(std::countl_zero(_words[i]));
    }
    return _size;
}

bool
BitVector::covers(const BitVector &other) const
{
    FB_ASSERT(_size == other._size, "BitVector size mismatch");
    for (std::size_t i = 0; i < _words.size(); ++i) {
        if ((_words[i] & other._words[i]) != other._words[i])
            return false;
    }
    return true;
}

bool
BitVector::intersects(const BitVector &other) const
{
    FB_ASSERT(_size == other._size, "BitVector size mismatch");
    for (std::size_t i = 0; i < _words.size(); ++i) {
        if ((_words[i] & other._words[i]) != 0)
            return true;
    }
    return false;
}

BitVector
BitVector::operator&(const BitVector &other) const
{
    FB_ASSERT(_size == other._size, "BitVector size mismatch");
    BitVector out(_size);
    for (std::size_t i = 0; i < _words.size(); ++i)
        out._words[i] = _words[i] & other._words[i];
    return out;
}

BitVector
BitVector::operator|(const BitVector &other) const
{
    FB_ASSERT(_size == other._size, "BitVector size mismatch");
    BitVector out(_size);
    for (std::size_t i = 0; i < _words.size(); ++i)
        out._words[i] = _words[i] | other._words[i];
    return out;
}

bool
BitVector::operator==(const BitVector &other) const
{
    return _size == other._size && _words == other._words;
}

std::string
BitVector::toString() const
{
    std::string out;
    out.reserve(_size);
    for (std::size_t i = 0; i < _size; ++i)
        out.push_back(test(i) ? '1' : '0');
    return out;
}

} // namespace fb
