/**
 * @file
 * Helpers shared by the modes of shotbench: wall-clock timing,
 * the benchmark's own in-memory span recorder, resident-set readings
 * and the run constants every mode must agree on.
 *
 * Spans are recorded only by the benchmark, around its calls into the
 * library's public API; the library itself records nothing extra.
 * They stay in memory and are written once, when the mode finishes.
 */

#ifndef SHOTGUN_PERFBENCH_BENCH_UTIL_HH
#define SHOTGUN_PERFBENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/simulator.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

inline double
secondsSince(Clock::time_point from)
{
    return secondsBetween(from, Clock::now());
}

/** The fleet workload's shape: one trace, two window plans. */
struct FleetShape
{
    /** Preset the fleet's input trace is recorded from. */
    static constexpr const char *kPreset = "db2";
    /** Sampled plan: base run, windows per scheme, lengths. */
    static constexpr std::uint64_t kSampledBaseWarmup = 1000000;
    static constexpr std::uint64_t kSampledBaseMeasure = 12000000;
    static constexpr unsigned kSampledWindows = 24;
    static constexpr std::uint64_t kSampledLength = 300000;
    static constexpr std::uint64_t kSampledWarmup = 200000;
    /** Contiguous plan (one scheme): base run and window count. */
    static constexpr std::uint64_t kContigWarmup = 1000000;
    static constexpr std::uint64_t kContigMeasure = 2000000;
    static constexpr unsigned kContigWindows = 8;
    static constexpr const char *kContigScheme = "shotgun";
    /** Trace length that covers both plans. */
    static constexpr std::uint64_t kTraceInstructions =
        kSampledBaseWarmup + kSampledBaseMeasure;
    /** Worker processes and simulation slots per worker. */
    static constexpr unsigned kWorkers = 2;
    static constexpr unsigned kSlotsPerWorker = 2;
};

/** The three schemes the fleet's sampled windows cover. */
std::vector<std::string> fleetSampledSchemes();

/**
 * The benchmark's span recorder. Disabled (every call a no-op) until
 * enable(); thread-safe once enabled.
 */
class Spans
{
  public:
    void enable() { enabled_ = true; }
    bool enabled() const { return enabled_; }

    /** Record a closed span. */
    void add(const std::string &name, std::uint64_t parent,
             const std::string &lane, Clock::time_point start,
             Clock::time_point end);

    /** Reserve an id for a span whose end is recorded later. */
    std::uint64_t reserve();

    /** Record a span under an id from reserve(). */
    void addWithId(std::uint64_t id, const std::string &name,
                   std::uint64_t parent, const std::string &lane,
                   Clock::time_point start, Clock::time_point end);

    /** Every span, start/end in microseconds since the first. */
    shotgun::json::Value toJson() const;

  private:
    struct Record
    {
        std::uint64_t id = 0;
        std::uint64_t parent = 0;
        std::string name;
        std::string lane;
        Clock::time_point start;
        Clock::time_point end;
    };

    bool enabled_ = false;
    mutable std::mutex mutex_;
    std::uint64_t nextId_ = 1;
    std::vector<Record> records_;
};

/** The process's span recorder. */
Spans &spans();

/**
 * RAII span on the calling thread's lane "main". Nested ScopedSpans
 * on one thread parent to each other; inert when spans are disabled.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    const char *name_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    Clock::time_point start_;
};

/** Largest resident set of this process and of its reaped children. */
double peakRssMb();

/** FNV-1a fingerprint of a result's canonical encoding. */
std::string resultFingerprint(const shotgun::SimResult &result);

/**
 * Mean microseconds to encode one result frame to a line and to
 * decode it back, over `results` (both 0 for an empty list).
 */
struct CodecCost
{
    double encodeUs = 0.0;
    double decodeUs = 0.0;
};
CodecCost codecCost(const std::vector<shotgun::SimResult> &results);

/** The always-on sim.phase.* registry counters, in microseconds. */
shotgun::json::Value phaseCountersJson();

/** hits/misses of the process-wide checkpoint store. */
shotgun::json::Value checkpointStatsJson();

/** Value of the registry's sim.points counter. */
std::uint64_t simPoints();

/** Deterministic permutation of [0, n) from `seed`. */
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed);

/** Per-structure host timings (micro.cc); see README.md. */
shotgun::json::Value runMicro(const shotgun::WorkloadPreset &preset,
                              const std::string &trace_path,
                              std::uint64_t blocks);

} // namespace perfbench

#endif // SHOTGUN_PERFBENCH_BENCH_UTIL_HH
