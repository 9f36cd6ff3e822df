/**
 * @file
 * Durable, generation-numbered snapshot persistence.
 *
 * Every write goes to a temporary file, is fsync'd, and is then
 * atomically renamed into place (followed by a directory fsync), so a
 * crash at any instant leaves either the previous generation or the
 * new one — never a half-written file under a final name. Under
 * Durability::Deferred the per-save fsyncs are batched into sync()
 * instead — a crash can then tear the not-yet-synced tail, which the
 * CRC-validating load walk-back treats exactly like any other
 * corruption. The store
 * keeps the newest @c keepGenerations snapshots and prunes older ones,
 * but never a generation that a retained delta chain still links to
 * (a delta is worthless without its base). On load it walks
 * generations newest-first, skipping any file that fails
 * magic/version/CRC validation or whose embedded generation disagrees
 * with its filename (a stale or copied-over snapshot), and returns
 * the newest generation whose *entire* chain back to its full base
 * validates — for a store of full snapshots, the newest valid file.
 *
 * An injectable I/O-fault shim covers the syscalls a real disk can
 * betray: a failing write, a short write that the kernel nonetheless
 * reported as complete, and a failing fsync. Tests drive every
 * recovery path deterministically through it.
 */

#ifndef FB_SNAPSHOT_STORE_HH
#define FB_SNAPSHOT_STORE_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace fb::snapshot
{

/**
 * When the store flushes a save to stable storage.
 *
 * Restorability never depends on this choice: every load path
 * validates CRCs and walks back past torn or half-written files, so a
 * crash under Deferred durability costs at most the not-yet-synced
 * tail of the chain — never the store's integrity. What Strict buys
 * is a durability *deadline*: save() returning true means the bytes
 * survive a crash from that instant on.
 */
enum class Durability
{
    /** fsync file + directory inside every save() (the default). */
    Strict,
    /** save() skips both fsyncs; sync() batches them later. */
    Deferred,
};

/**
 * Deterministic I/O-fault injection for SnapshotStore. Ordinals are
 * 1-based and counted across the store's lifetime, so "fail the Nth
 * write" sweeps enumerate every write a campaign will ever issue.
 * `shortNthWrite` is the nastiest case: only half the requested bytes
 * reach the file but the call reports full success, so the save path
 * happily fsyncs and renames a torn file into place under its final
 * name — exactly what the load-time walk-back must catch.
 */
struct IoFaultShim
{
    std::uint64_t failNthWrite = 0;   ///< 1-based; 0 = never
    std::uint64_t shortNthWrite = 0;  ///< 1-based; 0 = never
    std::uint64_t failNthFsync = 0;   ///< 1-based; 0 = never
    int errnoToReport = 28;           ///< ENOSPC by default
    /** Keep failing every call from the Nth on (a full disk stays
     *  full), instead of failing exactly once (a transient error). */
    bool persistent = false;

    // Observability for tests: calls seen and failures injected.
    std::uint64_t writeCalls = 0;
    std::uint64_t fsyncCalls = 0;
    std::uint64_t injected = 0;
};

class SnapshotStore
{
  public:
    /**
     * @param directory  created if missing
     * @param keepGenerations  how many newest snapshots to retain (>= 1)
     *
     * Construction sweeps the directory for stale `.tmp` files left
     * by a previous writer that crashed mid-save and deletes them —
     * they were never renamed into place, so they hold no restorable
     * state and would otherwise linger forever.
     */
    explicit SnapshotStore(std::string directory,
                           std::size_t keepGenerations = 3);

    /**
     * Durably persist @p bytes as generation @p generation
     * (write-temp / fsync / atomic-rename / fsync-directory), then
     * prune generations beyond the retention window. Returns false
     * with a diagnostic in @p error on any I/O failure.
     */
    bool save(std::uint64_t generation,
              const std::vector<std::uint8_t> &bytes, std::string &error);

    /**
     * Load the newest *restorable* state: the newest generation whose
     * full delta chain — the file itself, every predecessor named by
     * its `prev` links, and the full base — passes full validation
     * (magic, version, header CRC, every section CRC, and
     * embedded-generation == filename-generation). On success
     * @p chain holds the raw streams ordered base-first (a full-only
     * store yields a single-element chain) and @p generation the head
     * generation. A corrupt link anywhere disqualifies that head and
     * the walk-back retries from the next-older candidate, appending
     * per-file diagnostics. Returns false when no intact chain exists;
     * @p generation is written only on success.
     */
    bool loadLatestChain(std::vector<std::vector<std::uint8_t>> &chain,
                         std::uint64_t &generation,
                         std::vector<std::string> &diagnostics) const;

    /** All (generation, path) pairs present on disk, ascending. */
    std::vector<std::pair<std::uint64_t, std::string>> list() const;

    /** Newest generation on disk, or 0 when the store is empty. */
    std::uint64_t newestGeneration() const;

    const std::string &directory() const { return _dir; }

    /** Path a given generation is stored under. */
    std::string pathFor(std::uint64_t generation) const;

    /**
     * Install (or clear, with nullptr) the I/O-fault shim. The shim
     * is borrowed, not owned; it must outlive the store or be cleared
     * first. Counters accumulate in the caller's struct.
     */
    void setIoFaultShim(IoFaultShim *shim) { _shim = shim; }

    /**
     * Switch durability policy. Under Durability::Deferred every
     * save() lands the file under its final name without fsync; the
     * backlog becomes durable at the next sync(). Switching back to
     * Strict flushes the backlog immediately.
     */
    void setDurability(Durability durability);

    Durability durability() const { return _durability; }

    /**
     * Make every deferred save durable. On Linux this is one
     * syncfs(): a single journal/device flush covers every pending
     * write and rename, which costs a fraction of one commit per file
     * — the entire point of deferring. Elsewhere it falls back to one
     * fsync per pending file plus a directory fsync. A no-op under
     * Strict or with nothing pending; returns false with a diagnostic
     * in @p error when the flush fails (the backlog stays pending for
     * a retry).
     */
    bool sync(std::string &error);

  private:
    /** Chain linkage of one on-disk generation, as seen at save time. */
    struct ChainLink
    {
        bool isDelta = false;
        std::uint64_t prev = 0;
    };

    ssize_t shimWrite(int fd, const std::uint8_t *data, std::size_t len);
    int shimFsync(int fd, bool wholeFs = false);
    void removeStaleTemporaries() const;
    void pruneRetired();

    std::string _dir;
    std::size_t _keep;
    IoFaultShim *_shim = nullptr;
    Durability _durability = Durability::Strict;
    bool _dirEnsured = false;
    /** Final paths saved but not yet flushed (Deferred only). */
    std::vector<std::string> _pendingSync;
    /**
     * Save-time linkage of every generation the store holds, so the
     * chain-protecting prune never re-reads headers off the disk on
     * the hot save path. Seeded from a one-time directory scan at
     * construction; the store assumes single-writer ownership of its
     * directory (as save() always has), so the index stays exact.
     */
    std::map<std::uint64_t, ChainLink> _chainIndex;
};

/** Read a whole file into @p bytes; false + diagnostic on failure. */
bool readFile(const std::string &path, std::vector<std::uint8_t> &bytes,
              std::string &error);

} // namespace fb::snapshot

#endif // FB_SNAPSHOT_STORE_HH
