/**
 * @file
 * Warmed-state checkpoints: the post-warmup state of a simulation,
 * parked where a later run will restore it.
 *
 * Who parks: a run parks its warmed state only when its caller passes
 * WarmState::Park (sim/simulator.hh), because only the caller knows
 * whether a restore will follow. Only a restorable state is ever
 * parked (warmStateRestorable(): the run warms up and skips no stream
 * prefix; a sampled window's key is bound to its own start, so no
 * other point shares it). The grid runners pass Park to the leader of
 * a cohort of restorable points that has followers
 * (runner/grid_scheduler.hh), and a fleet worker passes it for every
 * restorable point, since it serves later jobs. A direct
 * runSimulation() -- a lone point, a custom runner hook, a
 * cohort-free grid point -- discards its warmed state, so a process
 * keeps no clone that nothing reads back. Every run still looks its
 * key up, and restores whatever an earlier Park run left.
 *
 * A CoreCheckpoint is a deep clone of a warmed Core (caches, U-BTB/
 * C-BTB/RIB and every other scheme structure, TAGE, RAS, FTQ/backend
 * queues, the data-side RNG, cycle and measurement counters -- see
 * Core's clone constructor) plus the exact position of its stream
 * source: a GeneratorCheckpoint for synthetic workloads, a decoded-
 * trace record index for `trace:` workloads. Restoring builds a fresh
 * source, repositions it, and clones the stored Core onto it; the
 * restored run then traverses exactly the cycle sequence the original
 * would have -- the trajectory-invisibility argument is spelled out
 * in src/sim/README.md and death-tested in tests/test_checkpoint.cc.
 *
 * Keys are `workload#<prefix>:<scheme>` where the prefix fingerprints
 * everything scheme-independent about the warmup (workload/program
 * fingerprint, seed and trace binding, warmup length, window skip,
 * core parameters) and the scheme fingerprint covers the full
 * SchemeConfig. The scheme is part of the key because warmed state is
 * scheme-visible: prefetches change cache contents and timing, so
 * sharing a checkpoint across schemes would break the byte-identity
 * contract. Grid points that differ only in measurement window share
 * a key -- the big win for windowed/sampled plans and repeated
 * service jobs -- and a multi-scheme grid warms once per scheme while
 * sharing one trace decode (trace/decoded_trace.hh).
 *
 * Checkpoints live in a process-wide LRU byte-budgeted store
 * (tryGet/put, mirroring how the fleet coordinator feeds its result
 * cache). Raw streaming TraceFileSource runs (decoded store over
 * budget) and zero-warmup runs are simply not checkpointed.
 */

#ifndef SHOTGUN_SIM_CHECKPOINT_HH
#define SHOTGUN_SIM_CHECKPOINT_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/memo.hh"
#include "cpu/core.hh"
#include "sim/simulator.hh"
#include "trace/trace_io.hh"

namespace shotgun
{

/** A warmed Core parked for reuse, with its stream position. */
struct CoreCheckpoint
{
    /** The cloned Core, detached from any source (never stepped). */
    std::shared_ptr<const Core> core;

    /** True when `generator` holds the position (synthetic stream). */
    bool fromGenerator = false;

    /** Generator state at the checkpoint (fromGenerator). */
    GeneratorCheckpoint generator{};

    /** Decoded-trace cursor record index (!fromGenerator). */
    std::uint64_t cursorRecord = 0;

    /** Accounted footprint (Core::approxStateBytes at capture). */
    std::size_t bytes = 0;
};

/** Fingerprint of every SchemeConfig knob (all scheme families). */
std::uint64_t schemeFingerprint(const SchemeConfig &scheme);

/**
 * The scheme-independent key prefix: workload fingerprint, seed,
 * warmup length, window skip, and core parameters. Two configs with
 * equal prefixes consume an identical stream prefix through identical
 * shared front-end hardware during warmup.
 */
std::uint64_t checkpointPrefixFingerprint(const SimConfig &config);

/**
 * The cache key for `config`'s warmed state. `trace` must be the
 * opened trace's header for `trace:` workloads (binding the key to
 * this recording, so a re-recorded file never reuses a stale
 * checkpoint) and nullptr for generator workloads.
 */
std::string checkpointKey(const SimConfig &config,
                          const TraceInfo *trace);

/**
 * Whether `config`'s warmed state can serve another point: it warms
 * up and skips no stream prefix. A window that skips (a sampled one)
 * warms a key that includes its own skip, which no other point of its
 * plan shares, so parking it would only hold memory. The one parking
 * policy: fleet workers and the grid cohort keys both ask it.
 */
bool warmStateRestorable(const SimConfig &config);

/**
 * The LRU byte-budgeted checkpoint store. Producers simulate the
 * warmup themselves and put() (Park runs only); consumers tryGet()
 * -- the same asynchronous-producer shape the fleet result cache
 * uses. Cohort scheduling (runner/grid_scheduler.hh) serializes the
 * first point of each key, so grid followers find the checkpoint
 * populated instead of racing to warm up in parallel.
 */
class CheckpointCache
{
  public:
    /** Default budget of the process-wide store (256 MiB). */
    static constexpr std::size_t kDefaultBudgetBytes =
        256ull * 1024 * 1024;

    explicit CheckpointCache(
        std::size_t budget_bytes = kDefaultBudgetBytes)
        : cache_(budget_bytes,
                 [](const std::string &, const CoreCheckpoint &cp) {
                     return cp.bytes;
                 })
    {
    }

    std::shared_ptr<const CoreCheckpoint>
    tryGet(const std::string &key)
    {
        return cache_.tryGet(key);
    }

    void put(const std::string &key, CoreCheckpoint checkpoint)
    {
        cache_.put(key, std::move(checkpoint));
    }

    /**
     * hits = restored runs, misses = warmups simulated (parked or
     * not), entries = states parked and still held.
     */
    MemoCacheStats stats() const { return cache_.stats(); }

  private:
    LruMemoCache<std::string, CoreCheckpoint> cache_;
};

/** The process-wide store every simulation shares. */
CheckpointCache &checkpointCache();

} // namespace shotgun

#endif // SHOTGUN_SIM_CHECKPOINT_HH
