#include "snapshot/store.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <sstream>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "snapshot/format.hh"

namespace fb::snapshot
{

namespace
{

constexpr const char *filePrefix = "snap-";
constexpr const char *fileSuffix = ".fbsnap";
constexpr const char *tmpSuffix = ".tmp";

std::string
errnoString()
{
    return std::strerror(errno);
}

/** Parse "snap-<generation>.fbsnap"; false if the name doesn't match. */
bool
parseGeneration(const std::string &name, std::uint64_t &generation)
{
    const std::size_t prefix_len = std::strlen(filePrefix);
    const std::size_t suffix_len = std::strlen(fileSuffix);
    if (name.size() <= prefix_len + suffix_len)
        return false;
    if (name.compare(0, prefix_len, filePrefix) != 0)
        return false;
    if (name.compare(name.size() - suffix_len, suffix_len, fileSuffix) != 0)
        return false;
    const std::string digits =
        name.substr(prefix_len, name.size() - prefix_len - suffix_len);
    if (digits.empty())
        return false;
    std::uint64_t g = 0;
    for (char c : digits) {
        if (c < '0' || c > '9')
            return false;
        g = g * 10 + static_cast<std::uint64_t>(c - '0');
    }
    generation = g;
    return true;
}

/**
 * Read just enough of @p path to validate its header. Cheap probe for
 * prune-time chain walking — no section payloads are touched.
 */
bool
peekFile(const std::string &path, SnapshotHeader &header,
         std::string &error)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        error = "open: " + errnoString();
        return false;
    }
    std::vector<std::uint8_t> head(256);
    std::size_t got = 0;
    while (got < head.size()) {
        ssize_t n = ::read(fd, head.data() + got, head.size() - got);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            error = "read: " + errnoString();
            ::close(fd);
            return false;
        }
        if (n == 0)
            break;
        got += static_cast<std::size_t>(n);
    }
    ::close(fd);
    head.resize(got);
    return peekHeader(head, header, error);
}

} // namespace

SnapshotStore::SnapshotStore(std::string directory,
                             std::size_t keepGenerations)
    : _dir(std::move(directory)),
      _keep(keepGenerations == 0 ? 1 : keepGenerations)
{
    removeStaleTemporaries();
    // Seed the chain index from whatever a previous writer left
    // behind. A header that won't even peek is indexed as a chainless
    // full: nothing may depend on it, so pruning it early is safe.
    for (const auto &[generation, path] : list()) {
        SnapshotHeader header;
        std::string error;
        ChainLink link;
        if (peekFile(path, header, error)) {
            link.isDelta = header.isDelta();
            link.prev = header.prev;
        } else {
            link.prev = generation;
        }
        _chainIndex.emplace(generation, link);
    }
}

void
SnapshotStore::removeStaleTemporaries() const
{
    // A `.tmp` in the directory at construction time is the debris of
    // a writer that died between open and rename. It was never
    // renamed into place, so no restore path can use it — delete it
    // rather than letting it accumulate forever. (The store assumes
    // single-writer ownership of its directory, as save() always has.)
    DIR *d = ::opendir(_dir.c_str());
    if (d == nullptr)
        return;
    const std::size_t tmp_len = std::strlen(tmpSuffix);
    while (dirent *ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        if (name.size() <= tmp_len ||
            name.compare(name.size() - tmp_len, tmp_len, tmpSuffix) != 0)
            continue;
        std::uint64_t g = 0;
        if (!parseGeneration(name.substr(0, name.size() - tmp_len), g))
            continue;
        ::unlink((_dir + '/' + name).c_str());
    }
    ::closedir(d);
}

std::string
SnapshotStore::pathFor(std::uint64_t generation) const
{
    std::ostringstream oss;
    oss << _dir << '/' << filePrefix << generation << fileSuffix;
    return oss.str();
}

ssize_t
SnapshotStore::shimWrite(int fd, const std::uint8_t *data, std::size_t len)
{
    if (_shim != nullptr) {
        const std::uint64_t n = ++_shim->writeCalls;
        if (_shim->failNthWrite != 0 &&
            (n == _shim->failNthWrite ||
             (_shim->persistent && n > _shim->failNthWrite))) {
            ++_shim->injected;
            errno = _shim->errnoToReport;
            return -1;
        }
        if (_shim->shortNthWrite != 0 && n == _shim->shortNthWrite) {
            // Write only half the bytes but report complete success:
            // the save path will fsync and rename a torn file into
            // place under its final name.
            ++_shim->injected;
            std::size_t half = len / 2;
            std::size_t put = 0;
            while (put < half) {
                ssize_t w = ::write(fd, data + put, half - put);
                if (w < 0) {
                    if (errno == EINTR)
                        continue;
                    break;
                }
                put += static_cast<std::size_t>(w);
            }
            return static_cast<ssize_t>(len);
        }
    }
    return ::write(fd, data, len);
}

int
SnapshotStore::shimFsync(int fd, bool wholeFs)
{
    if (_shim != nullptr) {
        const std::uint64_t n = ++_shim->fsyncCalls;
        if (_shim->failNthFsync != 0 &&
            (n == _shim->failNthFsync ||
             (_shim->persistent && n > _shim->failNthFsync))) {
            ++_shim->injected;
            errno = _shim->errnoToReport;
            return -1;
        }
    }
#ifdef __linux__
    if (wholeFs)
        return ::syncfs(fd);
#else
    (void)wholeFs;
#endif
    return ::fsync(fd);
}

bool
SnapshotStore::save(std::uint64_t generation,
                    const std::vector<std::uint8_t> &bytes,
                    std::string &error)
{
    if (!_dirEnsured) {
        if (::mkdir(_dir.c_str(), 0777) != 0 && errno != EEXIST) {
            error = "mkdir '" + _dir + "': " + errnoString();
            return false;
        }
        _dirEnsured = true;
    }

    const std::string final_path = pathFor(generation);
    const std::string tmp_path = final_path + tmpSuffix;

    int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        error = "open '" + tmp_path + "': " + errnoString();
        return false;
    }
    std::size_t written = 0;
    while (written < bytes.size()) {
        ssize_t n = shimWrite(fd, bytes.data() + written,
                              bytes.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            error = "write '" + tmp_path + "': " + errnoString();
            ::close(fd);
            ::unlink(tmp_path.c_str());
            return false;
        }
        written += static_cast<std::size_t>(n);
    }
    if (_durability == Durability::Strict && shimFsync(fd) != 0) {
        error = "fsync '" + tmp_path + "': " + errnoString();
        ::close(fd);
        ::unlink(tmp_path.c_str());
        return false;
    }
    ::close(fd);

    if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
        error = "rename '" + tmp_path + "' -> '" + final_path +
                "': " + errnoString();
        ::unlink(tmp_path.c_str());
        return false;
    }
    if (_durability == Durability::Strict) {
        // Make the rename itself durable.
        int dirfd = ::open(_dir.c_str(), O_RDONLY);
        if (dirfd < 0) {
            error = "open '" + _dir + "' for fsync: " + errnoString();
            return false;
        }
        if (shimFsync(dirfd) != 0) {
            error = "fsync '" + _dir + "': " + errnoString();
            ::close(dirfd);
            return false;
        }
        ::close(dirfd);
    } else {
        _pendingSync.push_back(final_path);
    }

    // Index the new generation by the linkage its own header declares
    // (peeked from the in-memory bytes — the hot save path never
    // re-reads the disk). Bytes that don't even peek are indexed as a
    // chainless full: nothing may legitimately depend on them.
    {
        SnapshotHeader header;
        std::string peek_error;
        ChainLink link;
        if (peekHeader(bytes, header, peek_error)) {
            link.isDelta = header.isDelta();
            link.prev = header.prev;
        } else {
            link.prev = generation;
        }
        _chainIndex[generation] = link;
    }
    pruneRetired();
    return true;
}

void
SnapshotStore::pruneRetired()
{
    // Prune beyond the retention window — but never a generation that
    // a retained delta chain still links to: deleting a delta's base
    // (or any intermediate link) would orphan every newer delta built
    // on it. Chains are walked through the in-memory index.
    // Best-effort: a failed unlink only leaves an extra old
    // generation behind.
    if (_chainIndex.size() <= _keep)
        return;
    std::set<std::uint64_t> keep_set;
    auto newest = _chainIndex.rbegin();
    for (std::size_t i = 0; i < _keep && newest != _chainIndex.rend();
         ++i, ++newest) {
        std::uint64_t g = newest->first;
        // Follow prev links until a full snapshot, a missing link, or
        // non-decreasing linkage (corrupt — stop rather than loop).
        while (keep_set.insert(g).second) {
            auto it = _chainIndex.find(g);
            if (it == _chainIndex.end())
                break;
            if (!it->second.isDelta || it->second.prev >= g)
                break;
            g = it->second.prev;
        }
    }
    for (auto it = _chainIndex.begin(); it != _chainIndex.end();) {
        if (keep_set.count(it->first) != 0) {
            ++it;
            continue;
        }
        const std::string path = pathFor(it->first);
        ::unlink(path.c_str());
        ::unlink((path + tmpSuffix).c_str());
        // A pruned file has nothing left to make durable.
        _pendingSync.erase(std::remove(_pendingSync.begin(),
                                       _pendingSync.end(), path),
                           _pendingSync.end());
        it = _chainIndex.erase(it);
    }
}

void
SnapshotStore::setDurability(Durability durability)
{
    if (_durability == durability)
        return;
    _durability = durability;
    if (_durability == Durability::Strict && !_pendingSync.empty()) {
        // Tightening the policy must not leave an unsynced backlog
        // behind: everything saved under Deferred becomes durable now.
        // Best-effort — a failure here leaves the paths pending, and
        // the caller can retry through sync().
        std::string error;
        (void)sync(error);
    }
}

bool
SnapshotStore::sync(std::string &error)
{
    if (_pendingSync.empty())
        return true;
#ifdef __linux__
    // One whole-filesystem flush makes every pending write and rename
    // durable in a single journal/device round trip — measurably
    // cheaper than one journal commit per file, which is the entire
    // point of deferring. (It may flush unrelated dirty data sharing
    // the filesystem; a snapshot store directory accepts that trade.)
    {
        int dirfd = ::open(_dir.c_str(), O_RDONLY);
        if (dirfd < 0) {
            error = "open '" + _dir + "' for sync: " + errnoString();
            return false;
        }
        const int rc = shimFsync(dirfd, /*wholeFs=*/true);
        const std::string why = rc != 0 ? errnoString() : std::string();
        ::close(dirfd);
        if (rc != 0) {
            error = "syncfs '" + _dir + "': " + why;
            return false;
        }
        _pendingSync.clear();
        return true;
    }
#else
    // Portable fallback: one fsync per pending file, then one
    // directory fsync covering every rename at once. Flushed paths
    // are dropped from the front as they succeed so a failure keeps
    // exactly the unflushed tail pending for a retry.
    while (!_pendingSync.empty()) {
        const std::string path = _pendingSync.front();
        int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0) {
            if (errno == ENOENT) {
                // Pruned or replaced since the save; nothing to flush.
                _pendingSync.erase(_pendingSync.begin());
                continue;
            }
            error = "open '" + path + "' for sync: " + errnoString();
            return false;
        }
        if (shimFsync(fd) != 0) {
            error = "sync '" + path + "': " + errnoString();
            ::close(fd);
            return false;
        }
        ::close(fd);
        _pendingSync.erase(_pendingSync.begin());
    }
    int dirfd = ::open(_dir.c_str(), O_RDONLY);
    if (dirfd < 0) {
        if (errno == ENOENT)
            return true; // nothing was ever saved
        error = "open '" + _dir + "' for sync: " + errnoString();
        return false;
    }
    if (shimFsync(dirfd) != 0) {
        error = "sync '" + _dir + "': " + errnoString();
        ::close(dirfd);
        return false;
    }
    ::close(dirfd);
    return true;
#endif
}

std::vector<std::pair<std::uint64_t, std::string>>
SnapshotStore::list() const
{
    std::vector<std::pair<std::uint64_t, std::string>> out;
    DIR *d = ::opendir(_dir.c_str());
    if (d == nullptr)
        return out;
    while (dirent *ent = ::readdir(d)) {
        std::uint64_t g = 0;
        if (parseGeneration(ent->d_name, g))
            out.emplace_back(g, _dir + '/' + ent->d_name);
    }
    ::closedir(d);
    std::sort(out.begin(), out.end());
    return out;
}

std::uint64_t
SnapshotStore::newestGeneration() const
{
    auto entries = list();
    return entries.empty() ? 0 : entries.back().first;
}

bool
SnapshotStore::loadLatestChain(std::vector<std::vector<std::uint8_t>> &chain,
                               std::uint64_t &generation,
                               std::vector<std::string> &diagnostics) const
{
    auto entries = list();
    std::map<std::uint64_t, std::string> by_gen(entries.begin(),
                                                entries.end());
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
        // Try a chain headed at this generation: the head itself, then
        // every predecessor its prev links name, down to the full
        // base. Any broken link disqualifies the whole head and the
        // walk-back resumes from the next-older candidate.
        std::vector<std::vector<std::uint8_t>> links;  // head-first
        bool ok = true;
        std::uint64_t g = it->first;
        std::string path = it->second;
        std::uint64_t base_full = 0;
        for (;;) {
            std::vector<std::uint8_t> candidate;
            std::string error;
            if (!readFile(path, candidate, error)) {
                diagnostics.push_back(path + ": " + error);
                ok = false;
                break;
            }
            SnapshotHeader header;
            std::vector<Section> sections;
            if (!disassemble(candidate, header, sections, error)) {
                diagnostics.push_back(path + ": " + error);
                ok = false;
                break;
            }
            if (header.generation != g) {
                std::ostringstream oss;
                oss << path << ": stale snapshot (embedded generation "
                    << header.generation << " != expected " << g << ")";
                diagnostics.push_back(oss.str());
                ok = false;
                break;
            }
            if (links.empty())
                base_full = header.baseFull;
            else if (header.isDelta() && header.baseFull != base_full) {
                std::ostringstream oss;
                oss << path << ": chain manifest mismatch (delta names "
                    << "base " << header.baseFull << ", chain head names "
                    << base_full << ")";
                diagnostics.push_back(oss.str());
                ok = false;
                break;
            }
            links.push_back(std::move(candidate));
            if (!header.isDelta()) {
                if (header.generation != base_full) {
                    std::ostringstream oss;
                    oss << path << ": chain base generation "
                        << header.generation
                        << " disagrees with manifest base " << base_full;
                    diagnostics.push_back(oss.str());
                    ok = false;
                }
                break;
            }
            if (header.prev >= g) {
                std::ostringstream oss;
                oss << path << ": corrupt chain linkage (prev "
                    << header.prev << " >= generation " << g << ")";
                diagnostics.push_back(oss.str());
                ok = false;
                break;
            }
            g = header.prev;
            auto next = by_gen.find(g);
            if (next == by_gen.end()) {
                std::ostringstream oss;
                oss << path << ": chain predecessor generation " << g
                    << " is missing from the store";
                diagnostics.push_back(oss.str());
                ok = false;
                break;
            }
            path = next->second;
        }
        if (!ok)
            continue;
        chain.assign(std::make_move_iterator(links.rbegin()),
                     std::make_move_iterator(links.rend()));
        generation = it->first;
        return true;
    }
    if (entries.empty())
        diagnostics.push_back("no snapshots in '" + _dir + "'");
    else {
        std::ostringstream oss;
        oss << "no intact snapshot chain in '" << _dir << "' ("
            << entries.size() << " candidate(s), all rejected)";
        diagnostics.push_back(oss.str());
    }
    return false;
}

bool
readFile(const std::string &path, std::vector<std::uint8_t> &bytes,
         std::string &error)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        error = "open: " + errnoString();
        return false;
    }
    bytes.clear();
    std::uint8_t buf[65536];
    for (;;) {
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            error = "read: " + errnoString();
            ::close(fd);
            return false;
        }
        if (n == 0)
            break;
        bytes.insert(bytes.end(), buf, buf + n);
    }
    ::close(fd);
    return true;
}

} // namespace fb::snapshot
