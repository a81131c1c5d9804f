/**
 * @file
 * Shared plumbing for the paper-reproduction bench binaries: run
 * lengths (overridable with --quick / --instructions / environment
 * variables), workload filtering, parallelism (--jobs) and structured
 * result output, all routed through the src/runner/ experiment
 * orchestration subsystem.
 */

#ifndef SHOTGUN_BENCH_COMMON_HH
#define SHOTGUN_BENCH_COMMON_HH

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "runner/experiment.hh"
#include "sim/simulator.hh"

namespace shotgun
{
namespace bench
{

struct BenchOptions
{
    /** Instructions simulated per (workload, scheme) data point. */
    std::uint64_t measureInstructions = 5000000;

    /** Warm-up instructions before measurement starts. */
    std::uint64_t warmupInstructions = 2000000;

    /** If non-empty, run only this workload. */
    std::string onlyWorkload;

    /** Concurrent simulations; 0 means one per hardware thread. */
    unsigned jobs = 0;

    /** Result-file base path; empty means results/<experiment>. */
    std::string outBase;

    /** --no-out: skip JSON/CSV result files. */
    bool writeFiles = true;

    /** --no-progress: suppress the per-point progress/ETA lines. */
    bool showProgress = true;
};

/**
 * Parse --quick, --instructions N, --warmup N, --workload NAME,
 * --jobs N, --out BASE, --no-out, --no-progress and the
 * SHOTGUN_BENCH_INSTRS / SHOTGUN_BENCH_WARMUP / SHOTGUN_BENCH_JOBS
 * environment variables into `opts`.
 *
 * Numeric values are validated strictly: a malformed or out-of-range
 * value (e.g. "--instructions 10x6" or "--jobs 0") is an error, never
 * a silent fallback to the default. On error, returns false and sets
 * `error`; `opts` is left in an unspecified state.
 */
bool tryParseOptions(int argc, char **argv, BenchOptions &opts,
                     std::string &error);

/** tryParseOptions, but prints usage and exits on error. */
BenchOptions parseOptions(int argc, char **argv);

/**
 * The workloads this bench run sweeps: all six presets, or -- when
 * --workload was given -- the single named preset, which may be a
 * recorded trace via `trace:<path>[:name]` (see trace/trace_io.hh).
 * Every bench iterates this instead of filtering allPresets() so
 * recorded traces flow through every experiment grid.
 */
std::vector<WorkloadPreset> selectedPresets(const BenchOptions &opts);

/**
 * Like selectedPresets(opts), but a bench that defaults to a curated
 * workload subset (e.g. the paper's two OLTP traces) sweeps
 * `defaults` when no --workload filter was given.
 */
std::vector<WorkloadPreset>
selectedPresets(const BenchOptions &opts,
                std::initializer_list<WorkloadId> defaults);

/** Print the bench banner: what is being reproduced and how. */
void printBanner(const BenchOptions &opts, const char *experiment,
                 const char *paper_summary);

/** Geometric mean of a non-empty vector. */
double geomean(const std::vector<double> &values);

/** A SimConfig for (preset, scheme) using the bench run lengths. */
SimConfig configFor(const WorkloadPreset &preset, SchemeType type,
                    const BenchOptions &opts);

/**
 * Run a trace-analysis bench's per-workload tasks: task(i) for every
 * i < tasks, on the --jobs request (or hardware default) of threads
 * clamped to the task count. Rethrows the lowest-index task's
 * exception once every task finished. Also warns once on stderr when
 * --out was requested, since analysis benches emit tables only, no
 * JSON/CSV.
 */
void forEachTask(const BenchOptions &opts, std::size_t tasks,
                 const std::function<void(std::size_t)> &task);

/**
 * Execute the grid through the shared ExperimentRunner with the
 * bench's job count, stream progress to stderr, and (unless --no-out)
 * write results/<slug>.{json,csv} via a ResultSink. The returned
 * vector is index-aligned with the set and independent of --jobs.
 */
std::vector<SimResult> runGrid(const runner::ExperimentSet &set,
                               const BenchOptions &opts,
                               const std::string &slug);

} // namespace bench
} // namespace shotgun

#endif // SHOTGUN_BENCH_COMMON_HH
