/**
 * @file
 * The simulated core: a decoupled front end (branch-prediction unit
 * walking the correct path into an FTQ, fetch engine draining it
 * through the L1-I) feeding a retire-width/ROB-occupancy backend
 * model with an L1-D miss component. Redirect penalties model
 * misfetches (decode) and mispredicts (execute) as BPU bubbles.
 *
 * Every measured cycle is charged to exactly one cause (active,
 * icache, pf-wait, btb, redirect, ftq-empty, backend). A BTB miss
 * costs cycles either as a reactive-fill resolve stall or as a
 * misfetch bubble; both are `btb`, and `redirect` holds mispredicts
 * only. The paper's front-end stall cycles (Sec 6.1) are the icache,
 * pf-wait and btb cycles in which the backend is starved of
 * instructions; a prefetcher's coverage is measured against the
 * no-prefetch baseline's count.
 */

#ifndef SHOTGUN_CPU_CORE_HH
#define SHOTGUN_CPU_CORE_HH

#include <memory>

#include "branch/ras.hh"
#include "branch/tage.hh"
#include "cache/hierarchy.hh"
#include "cache/predecoder.hh"
#include "common/random.hh"
#include "common/ring.hh"
#include "cpu/ftq.hh"
#include "cpu/params.hh"
#include "obs/uarch.hh"
#include "prefetch/factory.hh"
#include "trace/generator.hh"

namespace shotgun
{

class Core
{
  public:
    Core(const Program &program, TraceSource &source,
         const CoreParams &core_params,
         const HierarchyParams &hierarchy_params,
         const SchemeConfig &scheme_config);

    /**
     * Deep-copy clone for warmup checkpointing (sim/checkpoint.hh):
     * every piece of microarchitectural and measurement state is
     * copied by value (the scheme via Scheme::clone, rebound onto the
     * copy's own structures) and the stream is rebound to `source`,
     * which the caller must position exactly where `other`'s source
     * stood. `source` may be nullptr for a parked clone that is never
     * stepped -- a stored checkpoint -- since only the BPU touches
     * the source. Cloning is const on `other`: taking a checkpoint
     * cannot perturb the original's trajectory.
     */
    Core(const Core &other, TraceSource *source);

    /**
     * Rough in-memory footprint, for checkpoint-cache LRU accounting
     * (not an exact measurement): the object itself, the scheme's
     * metadata via storageBits(), and a constant standing in for the
     * TAGE/cache/NoC tables of the default parameters.
     */
    std::size_t approxStateBytes() const;

    /**
     * Simulate until `instructions` more have retired. Returns early
     * when a finite trace source runs dry and the pipeline has fully
     * drained (live generation never exhausts); check
     * sourceExhausted() / instructionsRetired() afterwards.
     */
    void run(std::uint64_t instructions);

    /**
     * Simulate until at least `target` instructions have retired
     * since the last resetStats(). A no-op when already past the
     * target. This is the windowed-simulation primitive: stopping at
     * a threshold and resuming later traverses exactly the cycle
     * sequence an uninterrupted run does, so window boundaries are
     * consistent between a monolithic run and per-window sub-runs.
     */
    void runUntilRetired(std::uint64_t target);

    /** True once the trace source returned end-of-stream. */
    bool sourceExhausted() const { return sourceExhausted_; }

    /** Zero all measurement state (call after warm-up). */
    void resetStats();

    // -- Measurement accessors (since the last resetStats) ----------

    Cycle cycles() const { return cyclesSinceReset_; }
    std::uint64_t instructionsRetired() const { return retiredSinceReset_; }

    double
    ipc() const
    {
        return cyclesSinceReset_ == 0
                   ? 0.0
                   : static_cast<double>(retiredSinceReset_) /
                         static_cast<double>(cyclesSinceReset_);
    }

    /** Measured cycles by cause; total() equals cycles(). */
    struct CycleBreakdown
    {
        std::uint64_t active = 0;   ///< Fetch delivered instructions.
        std::uint64_t icache = 0;   ///< Fetch waits on a demand L1-I fill.
        std::uint64_t pfWait = 0;   ///< Fetch waits on a prefetch's fill.
        std::uint64_t btb = 0;      ///< BTB-miss resolve or misfetch bubble.
        std::uint64_t redirect = 0; ///< Mispredict bubble.
        std::uint64_t ftqEmpty = 0; ///< BPU did not keep fetch supplied.
        std::uint64_t backend = 0;  ///< Backend window full.

        std::uint64_t
        total() const
        {
            return active + icache + pfWait + btb + redirect + ftqEmpty +
                   backend;
        }
    };

    const CycleBreakdown &stalls() const { return stalls_; }

    /**
     * The paper's front-end stall cycles: icache, pf-wait and btb
     * cycles in which the backend had nothing to retire and was not
     * waiting on data.
     */
    std::uint64_t frontEndStallCycles() const { return frontEndStalls_; }

    /**
     * Every raw measurement counter at one instant, as accumulated
     * since the last resetStats(). All fields are exact (integral
     * counters, or double sums of integral samples well below 2^53),
     * so the difference of two snapshots is an exact per-window stats
     * delta and deltas of adjacent windows add back to the monolithic
     * totals bit for bit (see sim/stats_delta.hh).
     */
    struct StatsSnapshot
    {
        std::uint64_t instructions = 0;
        std::uint64_t cycles = 0;
        CycleBreakdown stalls{};
        std::uint64_t frontEndStallCycles = 0;
        std::uint64_t btbMisses = 0;
        std::uint64_t mispredicts = 0;
        std::uint64_t misfetches = 0;
        std::uint64_t l1iDemandMisses = 0;
        std::uint64_t prefetchesIssued = 0;
        std::uint64_t usefulPrefetches = 0;
        std::uint64_t lateUsefulPrefetches = 0;
        double l1dFillSum = 0.0;
        std::uint64_t l1dFillCount = 0;

        /**
         * Microarchitectural probe readout; all-zero (enabled false)
         * unless CoreParams::uarchProbes is set. Lifecycle fields
         * are monotonic counters and subtract like the rest;
         * the miss-site tables cover the span since the last
         * clearUarchSites() (see uarchDelta()).
         */
        obs::UarchBreakdown uarch{};
    };

    /** Capture every measurement counter (cheap; no side effects). */
    StatsSnapshot snapshotStats() const;

    /**
     * Reset the miss-site sketches so the tables cover exactly the
     * measurement window about to run (sketches are per-window state,
     * not snapshot-subtractable). Observer-only: touches no
     * simulation state, so calling it never perturbs the trajectory.
     */
    void clearUarchSites();

    std::uint64_t btbMisses() const { return btbMisses_; }
    std::uint64_t mispredicts() const { return mispredicts_; }
    std::uint64_t misfetches() const { return misfetches_; }

    /** BTB misses per kilo-instruction (Table 1's metric). */
    double
    btbMPKI() const
    {
        return retiredSinceReset_ == 0
                   ? 0.0
                   : 1000.0 * static_cast<double>(btbMisses_) /
                         static_cast<double>(retiredSinceReset_);
    }

    /** L1-I demand misses per kilo-instruction. */
    double l1iMPKI() const;

    /** Average cycles to fill an L1-D miss (Fig 11's metric). */
    double avgL1DFillCycles() const { return l1dFill_.mean(); }

    /** Prefetch accuracy (Fig 10's metric). */
    double
    prefetchAccuracy() const
    {
        return mem_.prefetchAccuracy();
    }

    Scheme &scheme() { return *scheme_; }
    const Scheme &scheme() const { return *scheme_; }
    InstrHierarchy &mem() { return mem_; }
    TagePredictor &tage() { return tage_; }
    ReturnAddressStack &ras() { return ras_; }
    const Predecoder &predecoder() const { return predecoder_; }
    const CoreParams &params() const { return params_; }
    Cycle now() const { return now_; }

  private:
    enum class BpuStallKind
    {
        None,
        ICache,
        Resolve,
        Misfetch,
        Mispredict,
    };

    void step();
    void bpuStep();
    void fetchStep();
    void backendStep();

    /**
     * Idle-cycle fast-forward. A cycle is idle when no stage can act:
     * no fill is due, the scheme's tick is a no-op, the BPU waits on
     * a redirect, is stalled or faces a full FTQ, fetch is stalled,
     * has an empty FTQ or a full backend, and the backend is empty
     * or data-stalled (and the source is not exhausted). An idle
     * cycle changes nothing but time, retire credit and one stall
     * counter, and stays idle until the earliest pending event
     * (a stall deadline, an MSHR fill, the scheme's nextTick()).
     * skipIdleCycles() jumps there in one step with the same
     * accounting as stepping each cycle: it is called at the start of
     * step(), so no skipped cycle crosses an instruction-count
     * boundary of runUntilRetired().
     */
    void skipIdleCycles();

    /** One cycle's retire-credit accrual; returns the retire budget. */
    unsigned accrueRetireCredit();

    /**
     * Charge `n` cycles, all in the current state, to their cause in
     * stalls_ (and to frontEndStalls_ when the backend is starved).
     * Read after the stages ran.
     */
    void chargeCycles(Cycle n);

    const Program &program_;
    TraceSource *source_; ///< Null only for a parked checkpoint clone.
    CoreParams params_;

    /**
     * Per-instruction constants of backendStep, derived once from
     * params_: the data-side chance thresholds (Rng::chanceThreshold)
     * and the retire credit earned per cycle and its cap, each the
     * same value the expression over params_ yields.
     */
    const std::uint64_t loadThreshold_ =
        Rng::chanceThreshold(params_.loadFrac);
    const std::uint64_t l1dMissThreshold_ =
        Rng::chanceThreshold(params_.l1dMissRate);
    const std::uint64_t llcDataMissThreshold_ =
        Rng::chanceThreshold(params_.llcDataMissFrac);
    const double retireRate_ =
        params_.retireWidth * params_.issueEfficiency;
    const double retireCap_ = static_cast<double>(params_.retireWidth);

    InstrHierarchy mem_;
    TagePredictor tage_;
    ReturnAddressStack ras_;
    Predecoder predecoder_;
    std::unique_ptr<Scheme> scheme_;

    FTQ ftq_;

    /**
     * Fully fetched basic blocks awaiting retirement. A block enters
     * only while backendInstrs_ < backendEntries and holds at least
     * one instruction, so backendEntries slots always suffice.
     */
    struct BackendItem
    {
        BBRecord record;
        std::uint8_t remaining = 0;
    };
    Ring<BackendItem> backendQ_;
    std::size_t backendInstrs_ = 0;

    Cycle now_ = 0;
    Cycle bpuStallUntil_ = 0;
    BpuStallKind bpuStallKind_ = BpuStallKind::None;
    bool sourceExhausted_ = false;

    /**
     * Redirect modelling: on a mispredict/misfetch the BPU halts at
     * the offending branch (everything younger would be wrong-path).
     * When fetch finishes draining the FTQ up to that branch, the
     * redirect bubble starts: both fetch and the BPU stay idle for
     * the penalty, after which the BPU restarts with an empty FTQ --
     * losing its prefetch lead, exactly as a real flush does.
     */
    bool bpuWaitingRedirect_ = false;
    unsigned pendingRedirectPenalty_ = 0;
    BpuStallKind pendingRedirectKind_ = BpuStallKind::None;

    Cycle fetchStallUntil_ = 0;
    BpuStallKind fetchStallKind_ = BpuStallKind::None;
    Cycle dataStallUntil_ = 0;
    unsigned deliveredThisCycle_ = 0;
    double retireCredit_ = 0.0;

    /**
     * Whether the current ICache fetch stall piggybacked on an
     * in-flight *prefetch* MSHR (pf-wait) rather than a fresh demand
     * miss. Read only by chargeCycles(), never by simulation logic.
     */
    bool fetchStallOnPrefetch_ = false;

    Rng dataRng_;

    // Measurement state.
    Cycle cyclesSinceReset_ = 0;
    std::uint64_t retiredSinceReset_ = 0;
    CycleBreakdown stalls_;
    std::uint64_t btbMisses_ = 0;
    std::uint64_t mispredicts_ = 0;
    std::uint64_t misfetches_ = 0;
    std::uint64_t frontEndStalls_ = 0;
    Average l1dFill_;

    // Microarchitectural probe state (params_.uarchProbes): the two
    // deterministic miss-site sketches (the lifecycle counts are
    // assembled by snapshotStats).
    obs::SpaceSavingSketch btbMissSketch_;
    obs::SpaceSavingSketch l1iMissSketch_;
};

/** Exact equality, and cause-wise accumulation (window stitching). */
bool operator==(const Core::CycleBreakdown &a,
                const Core::CycleBreakdown &b);
Core::CycleBreakdown &operator+=(Core::CycleBreakdown &into,
                                 const Core::CycleBreakdown &d);

} // namespace shotgun

#endif // SHOTGUN_CPU_CORE_HH
