#include "bench_common.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <limits>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <thread>

#include "common/logging.hh"
#include "common/parse.hh"

namespace shotgun
{
namespace bench
{

namespace
{

bool
parseCount(const char *flag, const char *text, bool allow_zero,
           std::uint64_t &out, std::string &error)
{
    if (!parseU64(text, out)) {
        error = std::string(flag) + ": expected a decimal count, got '" +
                (text ? text : "") + "'";
        return false;
    }
    if (!allow_zero && out == 0) {
        error = std::string(flag) + ": must be greater than zero";
        return false;
    }
    return true;
}

/** Job counts additionally fit `unsigned` -- no silent truncation. */
bool
parseJobs(const char *flag, const char *text, unsigned &out,
          std::string &error)
{
    std::uint64_t value = 0;
    if (!parseCount(flag, text, false, value, error))
        return false;
    if (value > std::numeric_limits<unsigned>::max()) {
        error = std::string(flag) + ": job count out of range";
        return false;
    }
    out = static_cast<unsigned>(value);
    return true;
}

const char *kUsage =
    "options:\n"
    "  --quick             1M measured / 0.5M warm-up instructions\n"
    "  --instructions N    measured instructions per data point\n"
    "  --warmup N          warm-up instructions per data point\n"
    "  --workload NAME     run a single workload; NAME may be a\n"
    "                      recorded trace: trace:<path>[:name]\n"
    "  --jobs N            concurrent simulations (default: all cores)\n"
    "  --out BASE          write BASE.json/BASE.csv (default:\n"
    "                      results/<experiment>)\n"
    "  --no-out            skip result files\n"
    "  --no-progress       suppress progress/ETA lines\n"
    "environment: SHOTGUN_BENCH_INSTRS, SHOTGUN_BENCH_WARMUP,\n"
    "             SHOTGUN_BENCH_JOBS\n";

} // namespace

std::vector<WorkloadPreset>
selectedPresets(const BenchOptions &opts)
{
    if (!opts.onlyWorkload.empty())
        return {presetByName(opts.onlyWorkload)};
    return allPresets();
}

std::vector<WorkloadPreset>
selectedPresets(const BenchOptions &opts,
                std::initializer_list<WorkloadId> defaults)
{
    if (!opts.onlyWorkload.empty())
        return {presetByName(opts.onlyWorkload)};
    std::vector<WorkloadPreset> presets;
    for (WorkloadId id : defaults)
        presets.push_back(makePreset(id));
    return presets;
}

void
printBanner(const BenchOptions &opts, const char *experiment,
            const char *paper_summary)
{
    std::printf("=== %s ===\n", experiment);
    std::printf("Paper reference: %s\n", paper_summary);
    std::printf("Run: %llu warmup + %llu measured instructions per "
                "data point, %u jobs\n\n",
                static_cast<unsigned long long>(opts.warmupInstructions),
                static_cast<unsigned long long>(
                    opts.measureInstructions),
                opts.jobs == 0 ? runner::hardwareJobs()
                               : opts.jobs);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

bool
tryParseOptions(int argc, char **argv, BenchOptions &opts,
                std::string &error)
{
    opts = BenchOptions{};
    std::uint64_t value = 0;

    if (const char *env = std::getenv("SHOTGUN_BENCH_INSTRS")) {
        if (!parseCount("SHOTGUN_BENCH_INSTRS", env, false, value,
                        error)) {
            return false;
        }
        opts.measureInstructions = value;
    }
    if (const char *env = std::getenv("SHOTGUN_BENCH_WARMUP")) {
        if (!parseCount("SHOTGUN_BENCH_WARMUP", env, true, value,
                        error)) {
            return false;
        }
        opts.warmupInstructions = value;
    }
    if (const char *env = std::getenv("SHOTGUN_BENCH_JOBS")) {
        if (!parseJobs("SHOTGUN_BENCH_JOBS", env, opts.jobs, error))
            return false;
    }

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (std::strcmp(arg, "--quick") == 0) {
            opts.measureInstructions = 1000000;
            opts.warmupInstructions = 500000;
        } else if (std::strcmp(arg, "--instructions") == 0) {
            if (!parseCount("--instructions", next(), false, value,
                            error)) {
                return false;
            }
            opts.measureInstructions = value;
        } else if (std::strcmp(arg, "--warmup") == 0) {
            if (!parseCount("--warmup", next(), true, value, error))
                return false;
            opts.warmupInstructions = value;
        } else if (std::strcmp(arg, "--jobs") == 0) {
            if (!parseJobs("--jobs", next(), opts.jobs, error))
                return false;
        } else if (std::strcmp(arg, "--workload") == 0) {
            const char *name = next();
            if (name == nullptr || *name == '\0') {
                error = "--workload: expected a workload name";
                return false;
            }
            if (isTraceWorkloadSpec(name)) {
                // Syntactic check only; the file itself is opened and
                // validated when the preset is built.
                if (std::strlen(name) <= 6) {
                    error = "--workload: expected trace:<path>[:name]";
                    return false;
                }
            } else {
                bool known = false;
                for (const auto &preset : allPresets())
                    known = known || preset.name == name;
                if (!known) {
                    error =
                        std::string("--workload: unknown workload '") +
                        name +
                        "' (see trace/presets.hh, or use "
                        "trace:<path>[:name])";
                    return false;
                }
            }
            opts.onlyWorkload = name;
        } else if (std::strcmp(arg, "--out") == 0) {
            const char *base = next();
            if (base == nullptr || *base == '\0') {
                error = "--out: expected a file base path";
                return false;
            }
            opts.outBase = base;
        } else if (std::strcmp(arg, "--no-out") == 0) {
            opts.writeFiles = false;
        } else if (std::strcmp(arg, "--no-progress") == 0) {
            opts.showProgress = false;
        } else {
            error = std::string("unknown option '") + arg + "'";
            return false;
        }
    }
    return true;
}

BenchOptions
parseOptions(int argc, char **argv)
{
    BenchOptions opts;
    std::string error;
    if (!tryParseOptions(argc, argv, opts, error)) {
        std::fprintf(stderr, "%s: %s\n%s", argv[0], error.c_str(),
                     kUsage);
        std::exit(2);
    }
    return opts;
}

SimConfig
configFor(const WorkloadPreset &preset, SchemeType type,
          const BenchOptions &opts)
{
    SimConfig config = SimConfig::make(preset, type);
    config.warmupInstructions = opts.warmupInstructions;
    config.measureInstructions = opts.measureInstructions;
    return config;
}

void
forEachTask(const BenchOptions &opts, std::size_t tasks,
            const std::function<void(std::size_t)> &task)
{
    if (!opts.outBase.empty()) {
        std::fprintf(stderr,
                     "note: this bench is a trace analysis and writes "
                     "no JSON/CSV result files; --out ignored\n");
    }
    const unsigned requested =
        opts.jobs == 0 ? runner::hardwareJobs() : opts.jobs;
    const std::size_t workers =
        std::max<std::size_t>(1, std::min<std::size_t>(requested, tasks));
    std::vector<std::exception_ptr> errors(tasks);
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < workers; ++w) {
        threads.emplace_back([&]() {
            for (std::size_t i = next++; i < tasks; i = next++) {
                try {
                    task(i);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

std::vector<SimResult>
runGrid(const runner::ExperimentSet &set, const BenchOptions &opts,
        const std::string &slug)
{
    runner::RunnerOptions runner_opts;
    runner_opts.jobs = opts.jobs;
    runner_opts.progress = opts.showProgress ? &std::cerr : nullptr;

    runner::ExperimentRunner engine(runner_opts);
    runner::ResultSink sink(slug);
    std::vector<SimResult> results;
    try {
        results = engine.run(set, &sink);
    } catch (const std::exception &e) {
        // A damaged trace: report it like any other fatal error.
        fatal("%s", e.what());
    }

    if (opts.writeFiles && !set.empty()) {
        const std::string base =
            opts.outBase.empty() ? "results/" + slug : opts.outBase;
        if (sink.writeFiles(base)) {
            std::fprintf(stderr, "results written to %s.json / %s.csv\n",
                         base.c_str(), base.c_str());
        }
    }
    return results;
}

} // namespace bench
} // namespace shotgun
