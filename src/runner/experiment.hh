/**
 * @file
 * Experiment orchestration: a declarative grid of simulations
 * (ExperimentSet) executed concurrently across a worker pool
 * (ExperimentRunner). Results come back index-aligned with the grid,
 * and every simulation is a pure function of its SimConfig, so a run
 * with --jobs N is bitwise-identical to a serial run -- parallelism
 * only changes wall-clock time.
 */

#ifndef SHOTGUN_RUNNER_EXPERIMENT_HH
#define SHOTGUN_RUNNER_EXPERIMENT_HH

#include <cstddef>
#include <functional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.hh"
#include "runner/result_sink.hh"
#include "sim/simulator.hh"

namespace shotgun
{
namespace runner
{

/** One grid point: a labelled simulation configuration. */
struct Experiment
{
    std::string workload; ///< Preset name (grouping key for baselines).
    std::string label;    ///< Scheme/variant, e.g. "shotgun@1K".
    SimConfig config;

    /**
     * Read by nothing: every grid point simulates its own config (see
     * runExperiment). The member remains only because the benchmark's
     * measuring program (perfbench/shotbench.cc) aggregate-initializes
     * four members; it goes with that initializer.
     */
    bool viaBaselineCache = false;
};

/**
 * An ordered grid of experiments. add() returns the experiment's
 * index; the runner's result vector uses the same indices.
 */
class ExperimentSet
{
  public:
    /** Append a grid point; returns its index. */
    std::size_t add(const WorkloadPreset &preset, std::string label,
                    SimConfig config);

    /**
     * Append the workload's no-prefetch baseline (label "baseline"),
     * configured exactly as baselineFor() simulates it. Idempotent per
     * workload name: a re-add with the
     * same preset, lengths and seed returns the existing index; one
     * that differs in any of them is fatal (it would otherwise get
     * the first point as its speedup denominator).
     */
    std::size_t addBaseline(const WorkloadPreset &preset,
                            std::uint64_t warmup, std::uint64_t measure,
                            std::uint64_t trace_seed = 1);

    /** Index of the workload's baseline entry, or npos. */
    std::size_t baselineIndex(const std::string &workload) const;

    /**
     * Flip CoreParams::uarchProbes on every experiment added so far
     * (the `--uarch-report` path). Probe-carrying configs fingerprint
     * and checkpoint separately from probe-free ones, so the switch
     * must happen before submission, uniformly for the whole grid.
     */
    void enableUarchProbes();

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    const std::vector<Experiment> &experiments() const { return all_; }
    std::size_t size() const { return all_.size(); }
    bool empty() const { return all_.empty(); }

  private:
    std::vector<Experiment> all_;
    std::unordered_map<std::string, std::size_t> baselines_;
};

/** Default worker count: one per hardware thread, at least 1. */
unsigned hardwareJobs();

struct RunnerOptions
{
    /** Worker threads; 0 means one per hardware thread. */
    unsigned jobs = 0;

    /** Progress/ETA stream; nullptr runs quietly. */
    std::ostream *progress = nullptr;

    /**
     * Optional executor override. When set, the runner calls this
     * instead of runExperiment() for every grid point (and skips
     * cohort gating, which only pays off for real simulations, so no
     * point leads a cohort and none should park its warmed state).
     * Must be thread-safe; called from worker threads with the
     * experiment's grid index.
     */
    std::function<SimResult(std::size_t index, const Experiment &)>
        simulate;

    /**
     * Optional per-result stream, called on the run() caller's thread
     * in strict grid order as soon as each result (and all results
     * before it) completed, while later grid points are still
     * simulating.
     */
    std::function<void(std::size_t index, const Experiment &,
                       const SimResult &)>
        onResult;

    /**
     * Optional per-point observation stream for traced runs (the
     * run() caller installed an obs::TraceContext before calling):
     * fires on the caller's thread right before the point's
     * onResult, in the same strict grid order, with the point's
     * phase timing and recorded spans. Never fires for untraced
     * runs, so installing it costs nothing by default.
     */
    std::function<void(std::size_t index, const obs::PointTiming &,
                       const std::vector<obs::SpanRecord> &)>
        onObservation;
};

/**
 * Execute one experiment the way the runner would. The runner passes
 * WarmState::Park only to a cohort leader that has followers.
 */
SimResult runExperiment(const Experiment &exp,
                        WarmState warm = WarmState::Discard);

class ExperimentRunner
{
  public:
    explicit ExperimentRunner(RunnerOptions options = {});

    /**
     * Execute every experiment, `jobs` at a time. The returned vector
     * is index-aligned with `set.experiments()` and independent of the
     * job count. The first exception thrown by a simulation is
     * rethrown here once in-flight work finishes.
     *
     * When `sink` is non-null, one ResultRow per experiment is
     * appended in grid order; rows whose workload has a baseline entry
     * in the grid carry speedup/stall-coverage against it.
     */
    std::vector<SimResult> run(const ExperimentSet &set,
                               ResultSink *sink = nullptr) const;

    /**
     * Execute a bare grid (no baseline bookkeeping, no sink). Same
     * ordering and determinism guarantees as the ExperimentSet
     * overload.
     */
    std::vector<SimResult> run(const std::vector<Experiment> &grid) const;

    /** The worker count run() will use. */
    unsigned effectiveJobs(std::size_t grid_size) const;

  private:
    RunnerOptions options_;
};

/**
 * Append one ResultRow per experiment to `sink`, in grid order, with
 * speedup/stall-coverage against the workload's baseline entry when
 * the grid has one. Shared by ExperimentRunner::run() and the
 * service client (shotgun-submit), so a grid executed remotely
 * serializes byte-identically to the same grid run in-process.
 * `windows` (when nonzero) marks every row as stitched from that
 * many simulation windows (JSON-only annotation). `timings` (when
 * non-null, index-aligned) attaches each point's phase breakdown to
 * its row (JSON-only as well); all-zero entries are skipped.
 */
void appendResultRows(const ExperimentSet &set,
                      const std::vector<SimResult> &results,
                      ResultSink &sink, std::uint64_t windows = 0,
                      const std::vector<obs::PointTiming> *timings =
                          nullptr);

} // namespace runner
} // namespace shotgun

#endif // SHOTGUN_RUNNER_EXPERIMENT_HH
