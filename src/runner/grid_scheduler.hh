/**
 * @file
 * The single-grid dispatcher that ExperimentRunner::run() and
 * window::runWindowedExperiment() share: a private pool of worker
 * threads simulates one grid's points, dispatched in grid order, and
 * the calling thread receives the results strictly in grid order
 * (index 0, 1, 2, ...) as soon as each result and every result
 * before it exists.
 *
 * Determinism: simulations are pure functions of their config and
 * emission order is fixed, so a grid observes exactly the results a
 * serial run of it yields, whatever the worker count.
 *
 * Failure: the first simulate (or onResult) exception stops dispatch
 * of the remaining points; in-flight points finish (a simulation
 * cannot be torn down midway), and then the exception is rethrown on
 * the calling thread. When several in-flight points fail, the one
 * with the lowest grid index wins, so the reported error does not
 * depend on thread timing.
 */

#ifndef SHOTGUN_RUNNER_GRID_SCHEDULER_HH
#define SHOTGUN_RUNNER_GRID_SCHEDULER_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "obs/trace.hh"
#include "runner/experiment.hh"

namespace shotgun
{
namespace runner
{

/**
 * Per-point tracing payload: the phase timing breakdown and the
 * spans recorded while the point simulated. Only produced for traced
 * grids (a TraceContext with a trace id or collector was installed on
 * the calling thread, or the process tracer is enabled).
 */
struct PointObservation
{
    obs::PointTiming timing;
    std::vector<obs::SpanRecord> spans;
};

struct GridHooks
{
    /** Required; runs on worker threads, concurrently. */
    std::function<SimResult(std::size_t index, const Experiment &)>
        simulate;

    /**
     * Optional; runs on the calling thread in strict grid order.
     * `observation` is null for untraced grids.
     */
    std::function<void(std::size_t index, SimResult &&result,
                       const PointObservation *observation)>
        onResult;

    /**
     * Optional cohort key of a grid point (e.g. its warmup
     * checkpoint key, see sim/checkpoint.hh). Points sharing a
     * non-empty key form a cohort: the first of them in grid order is
     * the cohort's leader, and the rest only become dispatchable
     * after the leader *completed* -- so the leader populates the
     * checkpoint cache and every follower restores instead of
     * re-simulating the shared warmup. An empty key opts the point
     * out. Points of different cohorts (and cohort-free points) still
     * dispatch freely in parallel, and emission stays in grid order,
     * so cohorts change wall-clock shape but never results. Called
     * once per point before dispatch starts.
     */
    std::function<std::string(std::size_t index, const Experiment &)>
        cohortOf;
};

/**
 * Simulate `grid` on `workers` threads (0 = one per hardware thread;
 * never more threads than points) and block until every point was
 * handed to onResult or the first failure was rethrown.
 */
void scheduleGrid(const std::vector<Experiment> &grid, unsigned workers,
                  const GridHooks &hooks);

} // namespace runner
} // namespace shotgun

#endif // SHOTGUN_RUNNER_GRID_SCHEDULER_HH
