#include "runner/experiment.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.hh"
#include "sim/checkpoint.hh"

#include "runner/grid_scheduler.hh"
#include "runner/progress.hh"

namespace shotgun
{
namespace runner
{

std::size_t
ExperimentSet::add(const WorkloadPreset &preset, std::string label,
                   SimConfig config)
{
    Experiment exp;
    exp.workload = preset.name;
    exp.label = std::move(label);
    exp.config = std::move(config);
    all_.push_back(std::move(exp));
    return all_.size() - 1;
}

std::size_t
ExperimentSet::addBaseline(const WorkloadPreset &preset,
                           std::uint64_t warmup, std::uint64_t measure,
                           std::uint64_t trace_seed)
{
    auto it = baselines_.find(preset.name);
    if (it != baselines_.end()) {
        // The entry is the speedup denominator of every row of this
        // workload; a re-add that would have simulated something else
        // must not silently get the first point.
        const SimConfig &have = all_[it->second].config;
        fatal_if(have.warmupInstructions != warmup ||
                     have.measureInstructions != measure ||
                     have.traceSeed != trace_seed ||
                     presetFingerprint(have.workload) !=
                         presetFingerprint(preset),
                 "baseline for workload '%s' re-added with a different "
                 "preset, lengths or seed (warmup %llu, measure %llu, "
                 "seed %llu; first added with %llu, %llu, %llu)",
                 preset.name.c_str(),
                 static_cast<unsigned long long>(warmup),
                 static_cast<unsigned long long>(measure),
                 static_cast<unsigned long long>(trace_seed),
                 static_cast<unsigned long long>(have.warmupInstructions),
                 static_cast<unsigned long long>(
                     have.measureInstructions),
                 static_cast<unsigned long long>(have.traceSeed));
        return it->second;
    }

    SimConfig config = SimConfig::make(preset, SchemeType::Baseline);
    config.warmupInstructions = warmup;
    config.measureInstructions = measure;
    config.traceSeed = trace_seed;
    const std::size_t index = add(preset, "baseline", std::move(config));
    baselines_.emplace(preset.name, index);
    return index;
}

std::size_t
ExperimentSet::baselineIndex(const std::string &workload) const
{
    auto it = baselines_.find(workload);
    return it == baselines_.end() ? npos : it->second;
}

void
ExperimentSet::enableUarchProbes()
{
    for (Experiment &exp : all_)
        exp.config.core.uarchProbes = true;
}

SimResult
runExperiment(const Experiment &exp, WarmState warm)
{
    return runSimulation(exp.config, warm);
}

unsigned
hardwareJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

ExperimentRunner::ExperimentRunner(RunnerOptions options)
    : options_(std::move(options))
{
}

unsigned
ExperimentRunner::effectiveJobs(std::size_t grid_size) const
{
    const unsigned requested =
        options_.jobs == 0 ? hardwareJobs() : options_.jobs;
    if (grid_size == 0)
        return 1;
    return static_cast<unsigned>(
        std::min<std::size_t>(requested, grid_size));
}

std::vector<SimResult>
ExperimentRunner::run(const std::vector<Experiment> &grid) const
{
    if (grid.empty())
        return {};

    ProgressReporter progress(grid.size(), options_.progress);
    GridHooks hooks;
    hooks.simulate = [this, &progress](std::size_t index,
                                       const Experiment &exp,
                                       WarmState warm) {
        const auto start = std::chrono::steady_clock::now();
        SimResult result = options_.simulate
                               ? options_.simulate(index, exp)
                               : runExperiment(exp, warm);
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        progress.completed(exp.workload + "/" + exp.label, seconds);
        return result;
    };
    std::vector<SimResult> results;
    results.reserve(grid.size());
    hooks.onResult = [&](std::size_t index, SimResult &&result,
                         const PointObservation *observation) {
        results.push_back(std::move(result));
        if (observation != nullptr && options_.onObservation)
            options_.onObservation(index, observation->timing,
                                   observation->spans);
        if (options_.onResult)
            options_.onResult(index, grid[index], results.back());
    };
    if (!options_.simulate) {
        // Group grid points by warmed-state checkpoint key so the
        // leader parks its warmed state and every follower restores
        // instead of re-simulating the warmup (see sim/checkpoint.hh);
        // a leader without followers parks nothing. A custom simulate
        // hook may not run runSimulation at all, so only real
        // simulations opt in.
        hooks.cohortOf = [](std::size_t, const Experiment &exp) {
            return exp.config.warmupInstructions == 0
                       ? std::string()
                       : checkpointKey(exp.config, nullptr);
        };
    }
    scheduleGrid(grid, effectiveJobs(grid.size()), hooks);
    return results;
}

std::vector<SimResult>
ExperimentRunner::run(const ExperimentSet &set, ResultSink *sink) const
{
    std::vector<SimResult> results = run(set.experiments());
    if (sink)
        appendResultRows(set, results, *sink);
    return results;
}

void
appendResultRows(const ExperimentSet &set,
                 const std::vector<SimResult> &results,
                 ResultSink &sink, std::uint64_t windows,
                 const std::vector<obs::PointTiming> *timings)
{
    const auto &grid = set.experiments();
    // A short results vector would silently truncate the output
    // files -- the exact failure the byte-identical contract between
    // in-process and service runs exists to catch. Fail loudly.
    fatal_if(results.size() != grid.size(),
             "appendResultRows: %zu results for a %zu-point grid",
             results.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        ResultRow row;
        row.workload = grid[i].workload;
        row.label = grid[i].label;
        row.result = results[i];
        const std::size_t base = set.baselineIndex(row.workload);
        if (base != ExperimentSet::npos) {
            row.hasBaseline = true;
            row.speedup = speedup(results[i], results[base]);
            row.stallCoverage = stallCoverage(results[i], results[base]);
        }
        row.windows = windows;
        if (timings != nullptr && i < timings->size() &&
            (*timings)[i].any()) {
            row.hasTiming = true;
            row.timing = (*timings)[i];
        }
        sink.add(std::move(row));
    }
}

} // namespace runner
} // namespace shotgun
