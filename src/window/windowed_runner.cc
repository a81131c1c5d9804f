#include "window/windowed_runner.hh"

#include <string>
#include <utility>

#include "common/logging.hh"
#include "runner/grid_scheduler.hh"
#include "sim/checkpoint.hh"

namespace shotgun
{
namespace window
{

std::vector<runner::Experiment>
expandExperiment(const runner::Experiment &exp, const WindowPlan &plan)
{
    const std::vector<SimConfig> configs =
        expandPlan(exp.config, plan);
    std::vector<runner::Experiment> grid;
    grid.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        runner::Experiment sub;
        sub.workload = exp.workload;
        sub.label = exp.label + "#w" + std::to_string(i) + "/" +
                    std::to_string(configs.size());
        sub.config = configs[i];
        grid.push_back(std::move(sub));
    }
    return grid;
}

SimResult
stitchWindows(const std::vector<SimulationDelta> &windows)
{
    fatal_if(windows.empty(), "stitching zero windows");
    const SimulationDelta &first = windows.front();
    StatsDelta merged;
    for (std::size_t i = 0; i < windows.size(); ++i) {
        const SimulationDelta &w = windows[i];
        fatal_if(w.workload != first.workload ||
                     w.scheme != first.scheme ||
                     w.schemeStorageBits != first.schemeStorageBits,
                 "stitching window %zu of a different run (%s/%s vs "
                 "%s/%s)",
                 i, w.workload.c_str(), w.scheme.c_str(),
                 first.workload.c_str(), first.scheme.c_str());
        merge(merged, w.stats);
    }
    return finalizeResult(first.workload, first.scheme,
                          first.schemeStorageBits, merged);
}

WindowedOutcome
runWindowedExperiment(
    const runner::Experiment &exp, const WindowPlan &plan, unsigned jobs,
    const std::function<void(std::size_t window,
                             const SimResult &result)> &on_window)
{
    const std::vector<runner::Experiment> grid =
        expandExperiment(exp, plan);

    // Raw deltas land in per-window slots from worker threads; the
    // dispatcher joins them before returning.
    WindowedOutcome outcome;
    outcome.windows.resize(grid.size());

    runner::GridHooks hooks;
    hooks.simulate = [&outcome](std::size_t index,
                                const runner::Experiment &sub) {
        SimulationDelta delta = runSimulationDelta(sub.config);
        SimResult result =
            finalizeResult(delta.workload, delta.scheme,
                           delta.schemeStorageBits, delta.stats);
        outcome.windows[index] = std::move(delta);
        return result;
    };
    if (on_window) {
        hooks.onResult = [&on_window](std::size_t index,
                                      SimResult &&result,
                                      const runner::PointObservation *) {
            on_window(index, result);
        };
    }
    // Contiguous windows share warmup and skip, hence a checkpoint
    // key: the first window warms the core once and every later
    // window restores it (sampled plans differ in skipInstructions,
    // so their keys split and no gating applies).
    hooks.cohortOf = [](std::size_t, const runner::Experiment &sub) {
        return sub.config.warmupInstructions == 0
                   ? std::string()
                   : checkpointKey(sub.config, nullptr);
    };
    runner::scheduleGrid(grid, jobs, hooks);

    outcome.stitched = stitchWindows(outcome.windows);
    return outcome;
}

} // namespace window
} // namespace shotgun
