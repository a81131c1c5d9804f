/**
 * @file
 * shotgun-submit: client of the shotgun-coord fleet. Builds an
 * experiment grid from the same declarative pieces the benches use
 * (workload presets / trace:<path>[:name] specs, scheme names, run
 * lengths), submits it to the coordinator, streams progress, and
 * writes the same console table and JSON/CSV files an in-process run
 * produces. With `--local` the identical grid runs in-process, which
 * is how the smoke script asserts the fleet path is byte-identical
 * to the runner.
 *
 *   shotgun-submit --coordinator hostA:7400 --workload all \
 *       --schemes baseline,fdip,boomerang,confluence,shotgun \
 *       --out results/speedup
 *   shotgun-submit --coordinator hostA:7400 --fleet-status
 *   shotgun-submit --server hostA:7401 --status
 *   shotgun-submit --server hostA:7401 --shutdown
 *
 * The coordinator spreads the points over its registered workers,
 * requeues those of a worker that dies, and streams results back in
 * grid order, so the output stays byte-identical. `--window-shards N`
 * splits every experiment into N windows that travel the same way and
 * are stitched back. `--server` reaches one worker's control
 * endpoint, which answers only --status, --ping and --shutdown.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "obs/trace.hh"
#include "obs/uarch.hh"
#include "service/codec.hh"
#include "runner/experiment.hh"
#include "runner/result_sink.hh"
#include "service/client.hh"
#include "window/window_plan.hh"
#include "window/windowed_runner.hh"

using namespace shotgun;

namespace
{

const char *kUsage =
    "usage:\n"
    "  shotgun-submit --coordinator ENDPOINT [grid options]\n"
    "                 [output options]\n"
    "  shotgun-submit --local [grid options] [output options]\n"
    "  shotgun-submit --coordinator ENDPOINT --fleet-status\n"
    "  shotgun-submit --coordinator ENDPOINT --cancel JOB\n"
    "  shotgun-submit --server|--coordinator ENDPOINT\n"
    "                 --status|--ping|--shutdown\n"
    "\n"
    "Grid options (mirror the bench command lines):\n"
    "  --experiment NAME    sweep name for tables/files (default\n"
    "                       'service_submit')\n"
    "  --workload LIST      comma-separated preset names, 'all', or\n"
    "                       trace:<path>[:name] specs; repeatable\n"
    "                       (default: all six presets)\n"
    "  --schemes LIST       schemes beside the always-included\n"
    "                       baseline (default: shotgun)\n"
    "  --instructions N     measured instructions (default 5000000)\n"
    "  --warmup N           warm-up instructions (default 2000000)\n"
    "  --quick              1M measured / 0.5M warm-up\n"
    "  --seed N             generator seed (default 1)\n"
    "  --jobs N             in-process worker threads; --local only\n"
    "                       (default: one per hardware thread)\n"
    "\n"
    "Fleet: --coordinator submits the grid to a shotgun-coord\n"
    "control plane, which spreads the points over its registered\n"
    "shotgun-serve workers (work stealing, longest-measured-first)\n"
    "and requeues the in-flight points of a worker that dies or\n"
    "misses heartbeats (a point that loses two workers fails its\n"
    "job). Results stream back in grid order, so the output is\n"
    "byte-identical to --local. On one machine run shotgun-coord\n"
    "plus one shotgun-serve --coordinator, or use --local.\n"
    "--server reaches one worker's control endpoint, which answers\n"
    "only --status, --ping and --shutdown.\n"
    "\n"
    "  --priority N         the coordinator dispatches queued points\n"
    "                       of higher-priority jobs first (default 1)\n"
    "  --fleet-status       render the coordinator's fleet table:\n"
    "                       per-worker throughput, queue depth,\n"
    "                       heartbeat age and cache hit rate\n"
    "\n"
    "  --window-shards N    split every experiment into N contiguous\n"
    "                       measurement windows, submit them as grid\n"
    "                       points and stitch them back into results\n"
    "                       numerically identical to monolithic runs.\n"
    "                       Through a coordinator the windows spread\n"
    "                       over the fleet, and a dead worker's lost\n"
    "                       windows are requeued on survivors. Each\n"
    "                       window re-simulates its prefix as warm-up\n"
    "                       (the price of exact stitching), so this\n"
    "                       buys distribution granularity and fault\n"
    "                       tolerance, not a shorter critical path;\n"
    "                       the sampled-window API (src/window/) is\n"
    "                       the latency lever. Works with --local too\n"
    "                       (the windows run on the in-process pool).\n"
    "\n"
    "Transport options:\n"
    "  --timeout SECONDS    fail when the endpoint sends nothing for\n"
    "                       this long (default 600; 0 waits forever)\n"
    "\n"
    "Output options:\n"
    "  --out BASE           write BASE.json and BASE.csv\n"
    "  --trace-out FILE     write a Chrome trace-event JSON of the\n"
    "                       run (Perfetto-loadable): per-point\n"
    "                       queued/dispatched/decode/warmup/restore/\n"
    "                       measure spans, one cross-process timeline\n"
    "                       when the fleet echoes the trace id; rows\n"
    "                       gain a JSON-only \"timing\"\n"
    "                       object (the CSV is unchanged)\n"
    "  --uarch-report FILE  enable the deterministic uarch probes\n"
    "                       (prefetch lifecycle, miss-site hotspots)\n"
    "                       on every grid point and write them with\n"
    "                       each point's stall cycles as an\n"
    "                       aggregated JSON report to FILE; with\n"
    "                       --trace-out the trace gains per-point\n"
    "                       stall counter tracks. Simulation\n"
    "                       counters are bitwise identical with\n"
    "                       probes on or off; probed configs\n"
    "                       fingerprint separately\n"
    "  --no-progress        no per-point progress lines on stderr\n";

[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr, "shotgun-submit: %s\n%s", message.c_str(),
                 kUsage);
    std::exit(cli::kUsageExitCode);
}

std::vector<std::string>
splitCommas(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        const auto comma = text.find(',', start);
        const auto end =
            comma == std::string::npos ? text.size() : comma;
        if (end > start)
            out.push_back(text.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

struct Options
{
    std::string endpoint; ///< --server / --coordinator.
    bool server = false;  ///< The endpoint is a worker's (--server).
    bool local = false;

    enum class Action
    {
        Submit,
        Status,
        FleetStatus,
        Ping,
        Shutdown,
        Cancel,
    };
    Action action = Action::Submit;
    std::uint64_t cancelJob = 0;

    std::string experiment = "service_submit";
    std::vector<std::string> workloads;
    std::vector<std::string> schemes{"shotgun"};
    std::uint64_t measure = 5000000;
    std::uint64_t warmup = 2000000;
    std::uint64_t seed = 1;
    std::uint64_t jobs = 0;
    bool jobsGiven = false; ///< --jobs appeared (it needs --local).
    std::uint64_t priority = 1;
    std::uint64_t windowShards = 0; ///< 0 = monolithic experiments.
    std::uint64_t timeoutSeconds = service::kDefaultTimeoutSeconds;

    std::string outBase;
    std::string traceOut;
    std::string uarchReport;
    bool showProgress = true;
};

Options
parseOptions(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                usageError(std::string(flag) + ": missing value");
            return argv[++i];
        };
        auto nextU64 = [&](const char *flag) {
            std::uint64_t value = 0;
            const char *text = next(flag);
            if (!parseU64(text, value))
                usageError(std::string(flag) +
                           ": expected a decimal count, got '" + text +
                           "'");
            return value;
        };
        const char *arg = argv[i];
        if (std::strcmp(arg, "--server") == 0) {
            opts.endpoint = next("--server");
            opts.server = true;
        } else if (std::strcmp(arg, "--coordinator") == 0) {
            opts.endpoint = next("--coordinator");
            opts.server = false;
        } else if (std::strcmp(arg, "--local") == 0) {
            opts.local = true;
        } else if (std::strcmp(arg, "--status") == 0) {
            opts.action = Options::Action::Status;
        } else if (std::strcmp(arg, "--fleet-status") == 0) {
            opts.action = Options::Action::FleetStatus;
        } else if (std::strcmp(arg, "--ping") == 0) {
            opts.action = Options::Action::Ping;
        } else if (std::strcmp(arg, "--shutdown") == 0) {
            opts.action = Options::Action::Shutdown;
        } else if (std::strcmp(arg, "--cancel") == 0) {
            opts.action = Options::Action::Cancel;
            opts.cancelJob = nextU64("--cancel");
        } else if (std::strcmp(arg, "--experiment") == 0) {
            opts.experiment = next("--experiment");
        } else if (std::strcmp(arg, "--workload") == 0) {
            // "all" expands in place so repeated --workload flags
            // compose instead of silently replacing one another.
            for (auto &name : splitCommas(next("--workload"))) {
                if (name == "all") {
                    for (const auto &preset : allPresets())
                        opts.workloads.push_back(preset.name);
                } else {
                    opts.workloads.push_back(name);
                }
            }
        } else if (std::strcmp(arg, "--schemes") == 0) {
            opts.schemes = splitCommas(next("--schemes"));
            if (opts.schemes.empty())
                usageError("--schemes: expected a scheme list");
        } else if (std::strcmp(arg, "--instructions") == 0) {
            opts.measure = nextU64("--instructions");
        } else if (std::strcmp(arg, "--warmup") == 0) {
            opts.warmup = nextU64("--warmup");
        } else if (std::strcmp(arg, "--quick") == 0) {
            opts.measure = 1000000;
            opts.warmup = 500000;
        } else if (std::strcmp(arg, "--seed") == 0) {
            opts.seed = nextU64("--seed");
        } else if (std::strcmp(arg, "--jobs") == 0) {
            opts.jobs = nextU64("--jobs");
            opts.jobsGiven = true;
        } else if (std::strcmp(arg, "--priority") == 0) {
            opts.priority = nextU64("--priority");
            if (opts.priority == 0 || opts.priority > 1000000)
                usageError("--priority: expected a priority in "
                           "[1, 1000000]");
        } else if (std::strcmp(arg, "--window-shards") == 0) {
            opts.windowShards = nextU64("--window-shards");
            if (opts.windowShards == 0 || opts.windowShards > 65536)
                usageError("--window-shards: expected a window count "
                           "in [1, 65536]");
        } else if (std::strcmp(arg, "--timeout") == 0) {
            opts.timeoutSeconds = nextU64("--timeout");
            if (opts.timeoutSeconds > 86400)
                usageError("--timeout: expected seconds in "
                           "[0, 86400]");
        } else if (std::strcmp(arg, "--out") == 0) {
            opts.outBase = next("--out");
        } else if (std::strcmp(arg, "--trace-out") == 0) {
            opts.traceOut = next("--trace-out");
        } else if (std::strcmp(arg, "--uarch-report") == 0) {
            opts.uarchReport = next("--uarch-report");
        } else if (std::strcmp(arg, "--no-progress") == 0) {
            opts.showProgress = false;
        } else {
            usageError(std::string("unknown option '") + arg + "'");
        }
    }

    if (opts.local && !opts.endpoint.empty())
        usageError("--local excludes --server/--coordinator");
    if (opts.jobsGiven && !opts.local)
        usageError("--jobs sets in-process worker threads and needs "
                   "--local; a coordinator runs a grid on its workers' "
                   "slots");
    if (!opts.local && opts.endpoint.empty())
        usageError("one of --server, --coordinator or --local is "
                   "required");
    if (opts.action != Options::Action::Submit && opts.local)
        usageError("--status/--fleet-status/--ping/--shutdown/"
                   "--cancel need --server or --coordinator");
    if (opts.server && (opts.action == Options::Action::Submit ||
                        opts.action == Options::Action::Cancel ||
                        opts.action == Options::Action::FleetStatus))
        usageError("--server reaches a worker's control endpoint, "
                   "which answers only --status, --ping and "
                   "--shutdown; submit grids (and --cancel, "
                   "--fleet-status) to --coordinator, or run them "
                   "with --local");
    return opts;
}

/** The grid: per workload, the baseline plus every named scheme. */
runner::ExperimentSet
buildGrid(const Options &opts)
{
    std::vector<WorkloadPreset> presets;
    if (opts.workloads.empty()) {
        presets = allPresets();
    } else {
        for (const auto &name : opts.workloads)
            presets.push_back(presetByName(name));
    }

    runner::ExperimentSet set;
    for (const WorkloadPreset &preset : presets) {
        set.addBaseline(preset, opts.warmup, opts.measure, opts.seed);
        for (const std::string &scheme : opts.schemes) {
            const SchemeType type = schemeTypeByName(scheme);
            if (type == SchemeType::Baseline)
                continue; // Always present via addBaseline.
            SimConfig config = SimConfig::make(preset, type);
            config.warmupInstructions = opts.warmup;
            config.measureInstructions = opts.measure;
            config.traceSeed = opts.seed;
            set.add(preset, schemeTypeName(type), std::move(config));
        }
    }
    return set;
}

/**
 * The aggregated `--uarch-report` document: one entry per grid point
 * (probe readout plus the conservation check of its cycle breakdown
 * against the point's cycle count) and a merged total. Returns false
 * on I/O failure.
 */
bool
writeUarchReport(const std::string &path, const std::string &experiment,
                 const std::vector<runner::Experiment> &grid,
                 const std::vector<SimResult> &results)
{
    json::Value rows = json::Value::array();
    obs::UarchBreakdown total;
    total.enabled = true;
    Core::CycleBreakdown total_stalls;
    bool conserved = true;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SimResult &r = results[i];
        const bool ok = r.stalls.total() == r.cycles;
        conserved = conserved && ok;
        json::Value row = json::Value::object();
        row.set("workload", json::Value::string(grid[i].workload));
        row.set("label", json::Value::string(grid[i].label));
        row.set("cycles", json::Value::number(r.cycles));
        row.set("conserves", json::Value::boolean(ok));
        row.set("uarch",
                service::encodeUarchBreakdown(r.uarch, r.stalls));
        rows.push(std::move(row));
        obs::mergeUarch(total, r.uarch);
        total_stalls += r.stalls;
    }
    json::Value doc = json::Value::object();
    doc.set("experiment", json::Value::string(experiment));
    doc.set("conserves", json::Value::boolean(conserved));
    doc.set("rows", std::move(rows));
    doc.set("total",
            service::encodeUarchBreakdown(total, total_stalls));
    std::ofstream out(path);
    if (!out)
        return false;
    out << doc.dump() << "\n";
    return out.good();
}

int
runSubmit(const Options &opts)
{
    runner::ExperimentSet set = buildGrid(opts);
    if (!opts.uarchReport.empty())
        set.enableUarchProbes();

    // Tracing is strictly additive: it observes wall-clock around
    // the run and never feeds anything back into a simulation, so
    // results (and the CSV) are bitwise identical with or without
    // --trace-out.
    const bool tracing = !opts.traceOut.empty();
    // Counter-track timebase: grid-order samples are laid out from
    // here (1 ms apart), matching the span timestamps' wall-clock µs.
    const std::uint64_t trace_t0 = tracing ? obs::wallClockUs() : 0;
    std::vector<obs::PointTiming> timings(set.size());
    obs::TraceContext trace_ctx;
    std::unique_ptr<obs::ScopedTraceContext> trace_scope;
    std::unique_ptr<obs::Span> root_span;
    if (tracing) {
        obs::tracer().setProcessName("submit");
        obs::tracer().enable(obs::newTraceId());
        trace_ctx.traceId = obs::tracer().defaultTraceId();
        trace_ctx.lane = "main";
        trace_scope.reset(new obs::ScopedTraceContext(&trace_ctx));
        root_span.reset(new obs::Span("submit", "client"));
    }

    service::SubmitRequest request;
    request.experiment = opts.experiment;
    request.priority = opts.priority;
    request.grid = set.experiments();
    if (tracing) {
        request.traceId = obs::tracer().defaultTraceId();
        request.parentSpan = root_span->id();
    }

    const unsigned window_shards =
        static_cast<unsigned>(opts.windowShards);
    std::vector<SimResult> results;
    if (opts.local && window_shards == 0) {
        runner::RunnerOptions ropts;
        ropts.jobs = static_cast<unsigned>(opts.jobs);
        ropts.progress = opts.showProgress ? &std::cerr : nullptr;
        if (tracing) {
            // Spans land in the tracer as they close in-process;
            // only the per-point timing needs harvesting for rows.
            ropts.onObservation =
                [&timings](std::size_t index,
                           const obs::PointTiming &timing,
                           const std::vector<obs::SpanRecord> &) {
                    timings[index] = timing;
                };
        }
        results = runner::ExperimentRunner(ropts).run(set);
    } else if (opts.local) {
        // Windowed in-process: each experiment's windows run
        // concurrently; experiments run in sequence.
        for (const runner::Experiment &exp : set.experiments()) {
            const window::WindowPlan plan =
                window::contiguousPlan(exp.config, window_shards);
            window::WindowedOutcome outcome =
                window::runWindowedExperiment(
                    exp, plan, static_cast<unsigned>(opts.jobs));
            if (opts.showProgress)
                std::fprintf(stderr, "[%zu/%zu] %s/%s stitched from "
                             "%u windows\n",
                             results.size() + 1, set.size(),
                             exp.workload.c_str(), exp.label.c_str(),
                             window_shards);
            results.push_back(std::move(outcome.stitched));
        }
    } else {
        // The coordinator spreads the grid over its fleet. Windows
        // are grid points like any other, so progress ticks per
        // window.
        const std::size_t total_points =
            request.grid.size() * (window_shards == 0 ? 1 : window_shards);
        std::size_t delivered = 0;
        auto on_result = [&](const service::ResultEvent &event) {
            ++delivered;
            if (opts.showProgress)
                std::fprintf(stderr, "[%zu/%zu] points complete\n",
                             delivered, total_points);
            if (!tracing)
                return;
            // Remote spans arrive inside result frames; fold them
            // into the local tracer so one file holds the whole
            // cross-process timeline.
            if (window_shards == 0 && event.hasTiming)
                timings[event.index] = event.timing;
            if (!event.spans.empty())
                obs::tracer().record(event.spans);
        };
        try {
            service::ServiceClient client(
                opts.endpoint,
                static_cast<unsigned>(opts.timeoutSeconds));
            results = window_shards == 0
                          ? client.submit(request, on_result)
                          : service::submitWindowed(client, request,
                                                    window_shards,
                                                    on_result);
        } catch (const std::exception &e) {
            std::fprintf(stderr,
                         "shotgun-submit: submit failed after %zu/%zu "
                         "points: %s\n",
                         delivered, total_points, e.what());
            return 1;
        }
    }

    // Rows, table and files go through the exact machinery
    // ExperimentRunner::run(set, sink) uses, so remote === local
    // results imply byte-identical output artifacts. (Stitched rows
    // carry a JSON-only "windows" marker; the CSV stays comparable.)
    runner::ResultSink sink(opts.experiment);
    runner::appendResultRows(set, results, sink, opts.windowShards,
                             tracing ? &timings : nullptr);
    sink.printTable(std::cout);
    if (!opts.outBase.empty()) {
        if (!sink.writeFiles(opts.outBase))
            return 1;
        std::fprintf(stderr, "results: %s.json %s.csv\n",
                     opts.outBase.c_str(), opts.outBase.c_str());
    }
    if (!opts.uarchReport.empty()) {
        if (!writeUarchReport(opts.uarchReport, opts.experiment,
                              set.experiments(), results)) {
            warn("cannot write uarch report to '%s'",
                 opts.uarchReport.c_str());
            return 1;
        }
        std::fprintf(stderr, "uarch report: %s\n",
                     opts.uarchReport.c_str());
    }
    if (tracing) {
        root_span.reset(); // Close the run-wide root span.
        trace_scope.reset();
        // With probes on, the trace gains a stall-attribution counter
        // track: one sample per grid point, laid out in grid order,
        // so Perfetto renders the stall mix across the sweep as a
        // stacked chart alongside the span lanes.
        std::vector<obs::CounterSample> counters;
        if (!opts.uarchReport.empty()) {
            for (std::size_t i = 0; i < results.size(); ++i) {
                const Core::CycleBreakdown &s = results[i].stalls;
                obs::CounterSample sample;
                sample.process = "submit";
                sample.name = "uarch stall cycles";
                sample.ts = trace_t0 + i * 1000;
                sample.values = {
                    {"icache_miss", s.icache},
                    {"btb_miss", s.btb},
                    {"redirect", s.redirect},
                    {"ftq_empty", s.ftqEmpty},
                    {"backend_pressure", s.backend},
                    {"prefetch_in_flight", s.pfWait},
                };
                counters.push_back(std::move(sample));
            }
        }
        if (!obs::writeChromeTrace(opts.traceOut,
                                   obs::tracer().snapshot(),
                                   counters)) {
            warn("cannot write trace to '%s'",
                 opts.traceOut.c_str());
            return 1;
        }
        std::fprintf(stderr, "trace: %s\n", opts.traceOut.c_str());
    }
    return 0;
}

/** Percent string for a hit/miss pair; "-" before any lookup. */
std::string
hitRate(std::uint64_t hits, std::uint64_t misses)
{
    const std::uint64_t lookups = hits + misses;
    if (lookups == 0)
        return "-";
    char buffer[16];
    std::snprintf(buffer, sizeof(buffer), "%.1f%%",
                  100.0 * static_cast<double>(hits) /
                      static_cast<double>(lookups));
    return buffer;
}

/**
 * Renders a coordinator status frame's fleet table. The raw frame is
 * available via --status; this is the human view of the same data.
 */
int
runFleetStatus(const Options &opts)
{
    service::ServiceClient client(
        opts.endpoint,
        static_cast<unsigned>(opts.timeoutSeconds));
    const json::Value status = client.status();
    const json::Value *fleet = status.find("fleet");
    if (fleet == nullptr)
        fatal("%s is not a coordinator (its status frame has no "
              "`fleet` member); point --coordinator at a shotgun-coord "
              "endpoint",
              opts.endpoint.c_str());

    const json::Value &server = status.at("server");
    const json::Value &cache = server.at("cache");
    std::printf("fleet @ %s\n", opts.endpoint.c_str());
    std::printf("  queue depth %llu, in flight %llu, parked slots "
                "%llu/%llu\n",
                static_cast<unsigned long long>(
                    fleet->at("queue_depth").asU64()),
                static_cast<unsigned long long>(
                    fleet->at("inflight").asU64()),
                static_cast<unsigned long long>(
                    fleet->at("parked_slots").asU64()),
                static_cast<unsigned long long>(
                    fleet->at("total_slots").asU64()));
    std::printf("  coordinator cache: %llu entries, %s hit rate, "
                "%llu disk hits\n",
                static_cast<unsigned long long>(
                    cache.at("entries").asU64()),
                hitRate(cache.at("hits").asU64(),
                        cache.at("misses").asU64())
                    .c_str(),
                static_cast<unsigned long long>(
                    cache.at("backend_hits").asU64()));
    const std::uint64_t cp_hits = fleet->at("checkpoint_hits").asU64();
    const std::uint64_t cp_misses =
        fleet->at("checkpoint_misses").asU64();
    std::printf("  warmup checkpoints: %llu restored, %llu simulated, "
                "%s reuse\n",
                static_cast<unsigned long long>(cp_hits),
                static_cast<unsigned long long>(cp_misses),
                hitRate(cp_hits, cp_misses).c_str());

    // Sorted by worker name (ties by id): the frame lists workers in
    // registration order, which varies run to run; sorting makes the
    // table deterministic for a given fleet.
    std::vector<service::WorkerStatus> workers;
    for (const json::Value &row : fleet->at("workers").items())
        workers.push_back(service::decodeWorkerStatus(row));
    std::sort(workers.begin(), workers.end(),
              [](const service::WorkerStatus &a,
                 const service::WorkerStatus &b) {
                  return a.name != b.name ? a.name < b.name
                                          : a.id < b.id;
              });
    std::printf("\n  %-4s %-16s %5s %8s %9s %9s %9s %9s %9s\n", "id",
                "name", "slots", "inflight", "done", "hb-age",
                "pts/s", "cache-hit", "ckpt-hit");
    for (const service::WorkerStatus &worker : workers) {
        char age[24];
        std::snprintf(age, sizeof(age), "%.1fs",
                      static_cast<double>(worker.heartbeatAgeMs) /
                          1000.0);
        std::printf("  %-4llu %-16s %5llu %8llu %9llu %9s %9.2f "
                    "%9s %9s\n",
                    static_cast<unsigned long long>(worker.id),
                    worker.name.c_str(),
                    static_cast<unsigned long long>(worker.slots),
                    static_cast<unsigned long long>(worker.inflight),
                    static_cast<unsigned long long>(worker.completed),
                    age, worker.throughput,
                    hitRate(worker.counters.cacheHits,
                            worker.counters.cacheMisses)
                        .c_str(),
                    hitRate(worker.counters.checkpointHits,
                            worker.counters.checkpointMisses)
                        .c_str());
    }
    if (workers.empty())
        std::printf("  (no workers registered)\n");

    // Per-phase wall-clock breakdown from the workers' heartbeat
    // phase counters (always on; no tracing needed); the section
    // appears once any worker has simulated something.
    bool any_phase = false;
    for (const service::WorkerStatus &worker : workers) {
        const service::WorkerCounters &c = worker.counters;
        if (c.phaseDecodeUs != 0 || c.phaseWarmupUs != 0 ||
            c.phaseRestoreUs != 0 || c.phaseMeasureUs != 0)
            any_phase = true;
    }
    if (any_phase) {
        auto seconds = [](std::uint64_t us) {
            return static_cast<double>(us) / 1e6;
        };
        // Percentiles are bucket-resolution estimates of per-point
        // measure latency; "-" from workers that have not finished a
        // point.
        auto pct = [](std::uint64_t us) {
            if (us == 0)
                return std::string("-");
            char buf[24];
            std::snprintf(buf, sizeof(buf), "%.0fms",
                          static_cast<double>(us) / 1000.0);
            return std::string(buf);
        };
        std::printf("\n  simulation time by phase (s)\n");
        std::printf("  %-16s %9s %9s %9s %9s %8s %7s %7s %7s\n",
                    "name", "decode", "warmup", "restore", "measure",
                    "points", "p50", "p95", "p99");
        for (const service::WorkerStatus &worker : workers) {
            const service::WorkerCounters &c = worker.counters;
            std::printf(
                "  %-16s %9.2f %9.2f %9.2f %9.2f %8llu %7s %7s %7s\n",
                worker.name.c_str(), seconds(c.phaseDecodeUs),
                seconds(c.phaseWarmupUs), seconds(c.phaseRestoreUs),
                seconds(c.phaseMeasureUs),
                static_cast<unsigned long long>(c.phasePoints),
                pct(c.measureP50Us).c_str(),
                pct(c.measureP95Us).c_str(),
                pct(c.measureP99Us).c_str());
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    int exit_code = 0;
    if (cli::handleStandardFlags(argc, argv, "shotgun-submit", kUsage,
                                 exit_code))
        return exit_code;

    const Options opts = parseOptions(argc, argv);
    try {
        switch (opts.action) {
          case Options::Action::Submit:
            return runSubmit(opts);
          case Options::Action::Status: {
            service::ServiceClient client(
                opts.endpoint,
                static_cast<unsigned>(opts.timeoutSeconds));
            std::cout << client.status().dump() << "\n";
            return 0;
          }
          case Options::Action::FleetStatus:
            return runFleetStatus(opts);
          case Options::Action::Ping: {
            service::ServiceClient client(
                opts.endpoint,
                static_cast<unsigned>(opts.timeoutSeconds));
            if (!client.ping())
                fatal("no pong from %s", opts.endpoint.c_str());
            std::printf("pong from %s\n", opts.endpoint.c_str());
            return 0;
          }
          case Options::Action::Shutdown: {
            service::ServiceClient client(
                opts.endpoint,
                static_cast<unsigned>(opts.timeoutSeconds));
            client.shutdownServer();
            std::printf("server %s shutting down\n",
                        opts.endpoint.c_str());
            return 0;
          }
          case Options::Action::Cancel: {
            service::ServiceClient client(
                opts.endpoint,
                static_cast<unsigned>(opts.timeoutSeconds));
            client.cancel(opts.cancelJob);
            std::printf("job %llu cancelling\n",
                        static_cast<unsigned long long>(
                            opts.cancelJob));
            return 0;
          }
        }
    } catch (const std::exception &e) {
        fatal("%s", e.what());
    }
    return 0;
}
