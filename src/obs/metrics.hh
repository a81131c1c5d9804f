/**
 * @file
 * Process-wide metrics registry: named counters, gauges, and
 * fixed-bucket histograms with cheap thread-safe updates and a
 * consistent snapshot API.
 *
 * Counters and gauges are single relaxed atomics -- an update is one
 * `fetch_add`/`store`, cheap enough to live on hot paths (the
 * simulator's per-phase timing counters tick on every grid point and
 * stay inside the CI bench budget). Histograms are a fixed vector of
 * atomic bucket counts chosen at registration; recording is a binary
 * search plus two relaxed adds.
 *
 * Instruments are owned by their Registry and live as long as it
 * does, so callers cache the returned pointers once (registration
 * takes a mutex; updates never do). Names are dotted paths
 * ("serve.cache.hits"); the snapshot is sorted by name so rendered
 * output is deterministic.
 *
 * The registry is also the single source for the cache-statistics
 * blocks in serve/coord status frames: owners publish their
 * MemoCacheStats into gauges (publishCacheStats) and the frames
 * render those gauges back out (cacheStatsJson) with the exact field
 * names and order the pre-registry hand-assembled frames used, so
 * wire bytes do not change.
 */

#ifndef SHOTGUN_OBS_METRICS_HH
#define SHOTGUN_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/memo.hh"

namespace shotgun
{
namespace obs
{

/** Monotone counter; updates are relaxed atomics. */
class Counter
{
  public:
    void add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Point-in-time value; set() overwrites, add() adjusts. */
class Gauge
{
  public:
    void set(std::int64_t v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    void add(std::int64_t n)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::int64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> value_{0};
};

/**
 * Fixed-bucket histogram. `bounds` are inclusive upper bounds in
 * ascending order; one implicit overflow bucket catches everything
 * past the last bound. record() is lock-free.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<std::uint64_t> bounds);

    void record(std::uint64_t value);

    const std::vector<std::uint64_t> &bounds() const
    {
        return bounds_;
    }

    /** Count in bucket i (i == bounds().size() is overflow). */
    std::uint64_t bucketCount(std::size_t i) const
    {
        return buckets_[i].load(std::memory_order_relaxed);
    }

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    std::uint64_t sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

  private:
    std::vector<std::uint64_t> bounds_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
};

/** One instrument's value in a snapshot. */
struct MetricSample
{
    enum class Kind
    {
        Counter,
        Gauge,
        Histogram
    };

    std::string name;
    Kind kind = Kind::Counter;
    std::int64_t value = 0; ///< Counter/gauge value.

    // Histogram-only.
    std::vector<std::uint64_t> bounds;
    std::vector<std::uint64_t> buckets; ///< bounds.size() + 1 counts.
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
};

/**
 * Deterministic quantile estimate from a histogram sample: the
 * inclusive upper bound of the first bucket whose cumulative count
 * reaches ceil(q * count), with the overflow bucket saturating to the
 * last bound (the estimate is a lower bound there). Returns 0 for an
 * empty histogram. Bucket-resolution precision only, but integer
 * arithmetic end to end, so the same counts always render the same
 * percentile -- on any platform, in any thread interleaving.
 */
std::uint64_t histogramQuantile(const MetricSample &sample, double q);

/**
 * The registry. counter()/gauge()/histogram() get-or-create by name
 * under a mutex and return stable pointers; snapshot() walks every
 * instrument (name-sorted) without stopping writers.
 */
class Registry
{
  public:
    Counter *counter(const std::string &name);
    Gauge *gauge(const std::string &name);

    /**
     * Get-or-create; `bounds` applies on first registration only
     * (later callers receive the existing instrument unchanged).
     */
    Histogram *histogram(const std::string &name,
                         std::vector<std::uint64_t> bounds);

    std::vector<MetricSample> snapshot() const;

  private:
    struct Entry
    {
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    mutable std::mutex mutex_;
    std::map<std::string, Entry> entries_;
};

/** The process-wide registry every subsystem shares. */
Registry &metrics();

/**
 * Publish a cache's MemoCacheStats into gauges under `prefix`
 * (`<prefix>.entries`, `.bytes`, `.budget_bytes`, `.hits`,
 * `.misses`, `.evictions`, `.backend_hits`). Status frames call this
 * and then render with cacheStatsJson(), so the registry is the one
 * source the frame reads.
 */
void publishCacheStats(Registry &registry, const std::string &prefix,
                       const MemoCacheStats &stats);

/**
 * Render the gauges published under `prefix` back into the status-
 * frame cache object: entries, bytes, budget_bytes, hits, misses,
 * evictions, and (when `include_backend`) backend_hits -- the exact
 * field names and order the hand-assembled frames used, so the
 * migration is byte-invisible on the wire.
 */
json::Value cacheStatsJson(Registry &registry,
                           const std::string &prefix,
                           bool include_backend);

} // namespace obs
} // namespace shotgun

#endif // SHOTGUN_OBS_METRICS_HH
