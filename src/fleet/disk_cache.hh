/**
 * @file
 * Persistent result cache: one JSON file per config fingerprint in a
 * flat directory, holding the canonical encoding of a
 * service::CachedResult (the derived result plus, for windowed
 * points, the raw stitchable counters). Plugged into an
 * LruMemoCache as its write-through backend (memo.hh setBackend), it
 * makes the coordinator's fingerprint cache survive restarts: the in-memory
 * LRU keeps the hot set, the directory keeps everything, and a miss
 * after a restart is answered from disk instead of re-simulating.
 *
 * Writes are atomic (tmp file + rename in the same directory), so a
 * crash mid-store leaves at worst a stray .tmp file, never a
 * truncated entry; a reader that finds a damaged or foreign file
 * treats it as a miss. Results are pure functions of their
 * fingerprint, so entries never need invalidation -- the same
 * caveat as configFingerprint(): re-recording a different workload
 * over an existing trace path aliases entries. Don't do that.
 *
 * The backend of shotgun-coord --cache-dir, the one persistent
 * result cache; the memo cache itself stays storage-ignorant and only
 * sees the backend callbacks.
 */

#ifndef SHOTGUN_FLEET_DISK_CACHE_HH
#define SHOTGUN_FLEET_DISK_CACHE_HH

#include <cstdint>
#include <string>

#include "service/protocol.hh"

namespace shotgun
{
namespace fleet
{

class DiskResultCache
{
  public:
    /**
     * Create/open the cache directory (parents included). Throws
     * std::runtime_error when the directory cannot be created or is
     * not writable -- a daemon should refuse to start with a broken
     * cache rather than silently run without persistence.
     *
     * `max_bytes` bounds the directory's total entry size; 0 means
     * unbounded (the pre-existing behavior). When a store pushes the
     * total over the bound, oldest entries (by modification time) are
     * deleted first until the total fits again -- a disk-level
     * approximation of the in-memory LRU eviction, biased towards
     * keeping recently (re)written results. The entry just stored is
     * never trimmed, so a single oversized result still persists.
     */
    explicit DiskResultCache(std::string dir,
                             std::uint64_t max_bytes = 0);

    const std::string &dir() const { return dir_; }

    /** Byte bound applied after each store; 0 = unbounded. */
    std::uint64_t maxBytes() const { return maxBytes_; }

    /**
     * Read one entry; false on absent/damaged/foreign files (a
     * damaged entry is a cache miss, never an error). Thread-safe.
     */
    bool load(const std::string &fingerprint,
              service::CachedResult &out) const;

    /**
     * Write one entry atomically. Failures (disk full, permissions)
     * are swallowed: persistence is an optimization, and the value
     * is already in memory. Thread-safe; concurrent stores of the
     * same fingerprint write identical bytes, so the last rename
     * winning is harmless.
     */
    void store(const std::string &fingerprint,
               const service::CachedResult &value) const;

    /** Completed entries on disk right now (for tests/status). */
    std::size_t entryCount() const;

    /** Total bytes of completed entries (for tests/status). */
    std::uint64_t totalBytes() const;

  private:
    std::string entryPath(const std::string &fingerprint) const;

    /**
     * Delete oldest-modified entries until the directory total fits
     * under maxBytes_, sparing `keep` (the freshly stored path).
     * Failures are swallowed like store()'s: the bound is advisory
     * against unbounded growth, not a hard invariant.
     */
    void trimToBudget(const std::string &keep) const;

    std::string dir_;
    std::uint64_t maxBytes_ = 0;
};

} // namespace fleet
} // namespace shotgun

#endif // SHOTGUN_FLEET_DISK_CACHE_HH
