#include "exec/program_cache.hh"

#include "isa/assembler.hh"

namespace fb::exec
{

std::shared_ptr<const InternedProgram>
ProgramCache::intern(const std::string &source)
{
    {
        std::lock_guard<std::mutex> lk(_mu);
        auto it = _cache.find(source);
        if (it != _cache.end()) {
            ++_hits;
            return it->second;
        }
    }

    // Assemble outside the lock: distinct sources do not serialize
    // against each other. A racing intern of the same source does the
    // work twice; the first insert wins and both callers see one
    // canonical entry.
    auto entry = std::make_shared<InternedProgram>();
    isa::Program prog;
    std::string err;
    if (!isa::Assembler::assemble(source, prog, err)) {
        entry->error = std::move(err);
    } else {
        entry->ok = true;
        entry->regionViolation = prog.checkRegionBranches();
        entry->markers = prog.toMarkerEncoding();
        entry->bits = std::move(prog);
        if (entry->bits.size() > 0) {
            entry->bitsDecoded = sim::decodeProgram(entry->bits);
            entry->markersDecoded = sim::decodeProgram(entry->markers);
        }
    }

    std::lock_guard<std::mutex> lk(_mu);
    if (_cache.size() >= maxEntries)
        _cache.clear();
    auto [it, inserted] = _cache.emplace(source, std::move(entry));
    ++_misses;
    return it->second;
}

std::uint64_t
ProgramCache::hits() const
{
    std::lock_guard<std::mutex> lk(_mu);
    return _hits;
}

std::uint64_t
ProgramCache::misses() const
{
    std::lock_guard<std::mutex> lk(_mu);
    return _misses;
}

} // namespace fb::exec
