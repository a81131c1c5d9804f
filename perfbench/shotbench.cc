/**
 * @file
 * shotbench: the benchmark's measuring program. Each invocation is
 * one fresh process that performs one timed sample of a workload and
 * prints one JSON object on stdout; perfbench/run.py starts the
 * processes, checks their outputs and aggregates the metrics.
 *
 *   shotbench point --preset P --scheme S --warmup N --measure N
 *   shotbench grid  --warmup N --measure N --jobs N --order-seed N
 *                   [--presets a,b] [--schemes a,b]
 *   shotbench fleet --dir DIR --bin-dir DIR --order-seed N
 *   shotbench micro --preset P [--trace FILE] --blocks N
 *
 * Common options: --probes turns on the uarch probes of every
 * simulated point; --spans FILE records the benchmark's spans and
 * writes them to FILE when the mode ends.
 *
 * Only public library calls are timed. Set-up (program builds, trace
 * recording and indexing, fleet start) is timed apart from the
 * measured region, which starts at the first simulated instruction.
 */

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "obs/trace.hh"
#include "prefetch/factory.hh"
#include "runner/experiment.hh"
#include "service/client.hh"
#include "service/codec.hh"
#include "trace/trace_io.hh"
#include "window/windowed_runner.hh"

extern char **environ;

using namespace shotgun;
using json::Value;
using perfbench::Clock;
using perfbench::FleetShape;
using perfbench::ScopedSpan;
using perfbench::secondsBetween;
using perfbench::secondsSince;

namespace
{

const Clock::time_point kProcessStart = Clock::now();

const char *kUsage =
    "usage: shotbench point|grid|fleet|micro [options]\n"
    "  (see the file comment of perfbench/shotbench.cc)\n";

/** --key value options; flags without a value map to "1". */
class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 2; i < argc; ++i) {
            const std::string key = argv[i];
            if (key.rfind("--", 0) != 0)
                usage("unexpected argument '" + key + "'");
            if (key == "--probes") {
                values_[key] = "1";
                continue;
            }
            if (i + 1 >= argc)
                usage(key + ": missing value");
            values_[key] = argv[++i];
        }
    }

    std::string str(const std::string &key,
                    const std::string &fallback = "") const
    {
        auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }

    std::string required(const std::string &key) const
    {
        auto it = values_.find(key);
        if (it == values_.end())
            usage(key + " is required");
        return it->second;
    }

    std::uint64_t u64(const std::string &key, std::uint64_t fallback) const
    {
        auto it = values_.find(key);
        if (it == values_.end())
            return fallback;
        std::uint64_t value = 0;
        if (!parseU64(it->second.c_str(), value))
            usage(key + ": expected a decimal count");
        return value;
    }

    bool flag(const std::string &key) const
    {
        return values_.count(key) != 0;
    }

    [[noreturn]] static void usage(const std::string &message)
    {
        std::fprintf(stderr, "shotbench: %s\n%s", message.c_str(),
                     kUsage);
        std::exit(cli::kUsageExitCode);
    }

  private:
    std::map<std::string, std::string> values_;
};

std::vector<std::string>
splitCommas(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? text.size() : comma;
        if (end > start)
            out.push_back(text.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

Value
timingJson(const obs::PointTiming &t)
{
    Value v = Value::object();
    v.set("decode", Value::number(t.decodeUs));
    v.set("warmup", Value::number(t.warmupUs));
    v.set("restore", Value::number(t.restoreUs));
    v.set("measure", Value::number(t.measureUs));
    return v;
}

Value
codecJson(const std::vector<SimResult> &results)
{
    const perfbench::CodecCost cost = perfbench::codecCost(results);
    Value v = Value::object();
    v.set("encode_us", Value::number(cost.encodeUs));
    v.set("decode_us", Value::number(cost.decodeUs));
    return v;
}

/** Print the mode's JSON line and write its spans, if recorded. */
int
finish(Value out, const Args &args,
       const std::vector<SimResult> &results)
{
    const std::string spans_path = args.str("--spans");
    if (!spans_path.empty()) {
        out.set("codec", codecJson(results));
        std::ofstream file(spans_path);
        file << perfbench::spans().toJson().dump() << "\n";
        fatal_if(!file, "cannot write spans to '%s'",
                 spans_path.c_str());
    }
    out.set("rss_mb", Value::number(perfbench::peakRssMb()));
    std::printf("%s\n", out.dump().c_str());
    return 0;
}

SimConfig
pointConfig(const WorkloadPreset &preset, const std::string &scheme,
            std::uint64_t warmup, std::uint64_t measure, bool probes)
{
    SimConfig config = SimConfig::make(preset, schemeTypeByName(scheme));
    config.warmupInstructions = warmup;
    config.measureInstructions = measure;
    config.core.uarchProbes = probes;
    return config;
}

// ------------------------------------------------------------ point

/** One cold simulation: the single-threaded runSimulation path. */
int
runPoint(const Args &args)
{
    const WorkloadPreset preset = presetByName(args.required("--preset"));
    const std::string scheme = args.required("--scheme");
    const SimConfig config = pointConfig(
        preset, scheme, args.u64("--warmup", 2000000),
        args.u64("--measure", 20000000), args.flag("--probes"));

    double build_s = 0.0;
    {
        ScopedSpan span("program_build");
        const Clock::time_point t0 = Clock::now();
        programFor(preset);
        build_s = secondsSince(t0);
    }
    const double setup_s = secondsSince(kProcessStart);

    SimResult result;
    const Clock::time_point t0 = Clock::now();
    {
        ScopedSpan span("simulate");
        result = runSimulation(config);
    }
    const double wall_s = secondsSince(t0);

    Value out = Value::object();
    out.set("mode", Value::string("point"));
    out.set("setup_s", Value::number(setup_s));
    out.set("program_build_s", Value::number(build_s));
    out.set("wall_s", Value::number(wall_s));
    out.set("instructions", Value::number(config.warmupInstructions +
                                          result.instructions));
    out.set("fingerprint",
            Value::string(perfbench::resultFingerprint(result)));
    out.set("result", service::encodeSimResult(result));
    out.set("phase_us", perfbench::phaseCountersJson());
    out.set("checkpoint", perfbench::checkpointStatsJson());
    out.set("sim_points", Value::number(perfbench::simPoints()));
    return finish(std::move(out), args, {result});
}

// ------------------------------------------------------------- grid

/** Per-point observations taken by the runner's simulate hook. */
struct PointRecord
{
    Clock::time_point start;
    Clock::time_point end;
    std::string lane;
    obs::PointTiming timing;
};

/** The paper's grid on one ExperimentRunner, as users run it. */
int
runGrid(const Args &args)
{
    const std::vector<std::string> preset_names =
        splitCommas(args.str("--presets", "nutch,streaming,apache,zeus,"
                                          "oracle,db2"));
    const std::vector<std::string> schemes = splitCommas(args.str(
        "--schemes", "baseline,fdip,boomerang,confluence,shotgun,rdip"));
    const std::uint64_t warmup = args.u64("--warmup", 2000000);
    const std::uint64_t measure = args.u64("--measure", 5000000);
    const bool probes = args.flag("--probes");
    const unsigned jobs =
        static_cast<unsigned>(args.u64("--jobs", 4));
    fatal_if(preset_names.empty() || schemes.empty() || jobs == 0,
             "grid needs presets, schemes and at least one job");

    std::vector<WorkloadPreset> presets;
    for (const std::string &name : preset_names)
        presets.push_back(presetByName(name));

    double build_s = 0.0;
    {
        ScopedSpan span("program_build");
        const Clock::time_point t0 = Clock::now();
        for (const WorkloadPreset &preset : presets)
            programFor(preset);
        build_s = secondsSince(t0);
    }

    // The seed decides only the order points enter the grid, which
    // moves load balance and the tail but no simulated value.
    std::vector<std::pair<std::size_t, std::size_t>> cells;
    for (std::size_t p = 0; p < presets.size(); ++p)
        for (std::size_t s = 0; s < schemes.size(); ++s)
            cells.emplace_back(p, s);
    const std::vector<std::size_t> order = perfbench::permutation(
        cells.size(), args.u64("--order-seed", 1));
    runner::ExperimentSet set;
    for (std::size_t k : order) {
        const WorkloadPreset &preset = presets[cells[k].first];
        const std::string &scheme = schemes[cells[k].second];
        if (scheme == "baseline") {
            set.addBaseline(preset, warmup, measure);
        } else {
            set.add(preset, scheme,
                    pointConfig(preset, scheme, warmup, measure, false));
        }
    }
    if (probes)
        set.enableUarchProbes();
    const double setup_s = secondsSince(kProcessStart);

    std::vector<PointRecord> records(set.size());
    std::mutex lanes_mutex;
    std::map<std::thread::id, std::string> lanes;
    runner::RunnerOptions options;
    options.jobs = jobs;
    const std::uint64_t grid_span = perfbench::spans().reserve();
    options.simulate = [&](std::size_t index,
                           const runner::Experiment &exp) {
        PointRecord &rec = records[index];
        {
            std::lock_guard<std::mutex> lock(lanes_mutex);
            auto it = lanes.find(std::this_thread::get_id());
            if (it == lanes.end()) {
                it = lanes.emplace(std::this_thread::get_id(),
                                   "worker-" +
                                       std::to_string(lanes.size()))
                         .first;
            }
            rec.lane = it->second;
        }
        // A timing-only context: the simulator's always-on phase
        // timers fill it; no span is recorded by the library.
        obs::TraceContext context;
        context.timing = &rec.timing;
        obs::ScopedTraceContext scope(&context);
        rec.start = Clock::now();
        SimResult result = runner::runExperiment(exp);
        rec.end = Clock::now();
        perfbench::spans().add("point:" + exp.workload + "/" + exp.label,
                               grid_span, rec.lane, rec.start, rec.end);
        return result;
    };
    const runner::ExperimentRunner runner(options);

    const Clock::time_point t0 = Clock::now();
    const std::vector<SimResult> results = runner.run(set);
    const Clock::time_point t1 = Clock::now();
    perfbench::spans().addWithId(grid_span, "grid", 0, "main", t0, t1);

    Value points = Value::array();
    for (std::size_t i = 0; i < results.size(); ++i) {
        const runner::Experiment &exp = set.experiments()[i];
        const PointRecord &rec = records[i];
        Value p = Value::object();
        p.set("workload", Value::string(exp.workload));
        p.set("scheme", Value::string(exp.label));
        p.set("instructions",
              Value::number(exp.config.warmupInstructions +
                            results[i].instructions));
        p.set("start_s", Value::number(secondsBetween(t0, rec.start)));
        p.set("end_s", Value::number(secondsBetween(t0, rec.end)));
        p.set("lane", Value::string(rec.lane));
        p.set("phase_us", timingJson(rec.timing));
        p.set("fingerprint",
              Value::string(perfbench::resultFingerprint(results[i])));
        p.set("result", service::encodeSimResult(results[i]));
        points.push(std::move(p));
    }
    Value out = Value::object();
    out.set("mode", Value::string("grid"));
    out.set("setup_s", Value::number(setup_s));
    out.set("program_build_s", Value::number(build_s));
    out.set("wall_s", Value::number(secondsBetween(t0, t1)));
    out.set("jobs", Value::number(std::uint64_t{jobs}));
    out.set("points", std::move(points));
    out.set("phase_us", perfbench::phaseCountersJson());
    out.set("checkpoint", perfbench::checkpointStatsJson());
    out.set("sim_points", Value::number(perfbench::simPoints()));
    return finish(std::move(out), args, results);
}

// ------------------------------------------------------------ fleet

/**
 * A daemon started by the fleet workload. Its stdout is a pipe the
 * ready line is read from. The destructor kills and reaps a child
 * that was not waited for, so no failure path leaves one running.
 */
class Child
{
  public:
    explicit Child(const std::vector<std::string> &argv)
    {
        int fds[2];
        fatal_if(pipe2(fds, O_CLOEXEC) != 0, "pipe: %s",
                 std::strerror(errno));
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
        std::vector<char *> cargv;
        for (const std::string &arg : argv)
            cargv.push_back(const_cast<char *>(arg.c_str()));
        cargv.push_back(nullptr);
        const int rc = posix_spawn(&pid_, cargv[0], &actions, nullptr,
                                   cargv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        close(fds[1]);
        out_ = fds[0];
        fatal_if(rc != 0, "cannot start '%s': %s", cargv[0],
                 std::strerror(rc));
    }

    ~Child()
    {
        if (pid_ > 0) {
            kill(pid_, SIGKILL);
            waitpid(pid_, nullptr, 0);
        }
        if (out_ >= 0)
            close(out_);
    }

    Child(const Child &) = delete;
    Child &operator=(const Child &) = delete;

    /** The next stdout line; throws after `timeout_s` or on EOF. */
    std::string readLine(double timeout_s)
    {
        const Clock::time_point t0 = Clock::now();
        std::string line;
        for (;;) {
            const double left = timeout_s - secondsSince(t0);
            if (left <= 0)
                throw std::runtime_error("daemon did not print a line");
            pollfd pfd{out_, POLLIN, 0};
            if (poll(&pfd, 1, static_cast<int>(left * 1000) + 1) <= 0)
                continue;
            char c = 0;
            if (read(out_, &c, 1) != 1)
                throw std::runtime_error("daemon closed its stdout");
            if (c == '\n')
                return line;
            line.push_back(c);
        }
    }

    /**
     * Reap the child within `timeout_s` (then kill it); returns its
     * peak resident set in MB, or -1 when it had to be killed or
     * exited non-zero.
     */
    double wait(double timeout_s)
    {
        const Clock::time_point t0 = Clock::now();
        int status = 0;
        rusage usage{};
        for (;;) {
            const pid_t done = wait4(pid_, &status, WNOHANG, &usage);
            if (done == pid_)
                break;
            if (secondsSince(t0) > timeout_s) {
                kill(pid_, SIGKILL);
                wait4(pid_, &status, 0, &usage);
                pid_ = -1;
                return -1.0;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        pid_ = -1;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            return -1.0;
        return static_cast<double>(usage.ru_maxrss) / 1024.0;
    }

  private:
    pid_t pid_ = -1;
    int out_ = -1;
};

/** Where a fleet grid point came from. */
struct FleetPiece
{
    std::string scheme;
    bool contiguous = false;
    std::size_t window = 0;
    runner::Experiment exp;
};

std::vector<FleetPiece>
fleetPieces(const WorkloadPreset &trace_preset)
{
    std::vector<FleetPiece> pieces;
    auto append = [&](const std::string &scheme, bool contiguous,
                      const SimConfig &base,
                      const window::WindowPlan &plan) {
        runner::Experiment exp{trace_preset.name, scheme, base, false};
        const std::vector<runner::Experiment> windows =
            window::expandExperiment(exp, plan);
        for (std::size_t w = 0; w < windows.size(); ++w)
            pieces.push_back(FleetPiece{scheme, contiguous, w, windows[w]});
    };
    for (const std::string &scheme : perfbench::fleetSampledSchemes()) {
        const SimConfig base = pointConfig(
            trace_preset, scheme, FleetShape::kSampledBaseWarmup,
            FleetShape::kSampledBaseMeasure, false);
        append(scheme, false, base,
               window::sampledPlan(base, FleetShape::kSampledWindows,
                                   FleetShape::kSampledLength,
                                   FleetShape::kSampledWarmup));
    }
    const SimConfig contig = pointConfig(
        trace_preset, FleetShape::kContigScheme,
        FleetShape::kContigWarmup, FleetShape::kContigMeasure, false);
    append(FleetShape::kContigScheme, true, contig,
           window::contiguousPlan(contig, FleetShape::kContigWindows));
    return pieces;
}

/** Poll the coordinator until every worker slot has registered. */
void
waitForSlots(service::ServiceClient &control, std::uint64_t slots)
{
    const Clock::time_point t0 = Clock::now();
    for (;;) {
        const Value status = control.status();
        std::uint64_t alive = 0;
        for (const Value &w : status.at("fleet").at("workers").items())
            alive += w.at("alive").asBool() ? w.at("slots").asU64() : 0;
        if (alive >= slots)
            return;
        if (secondsSince(t0) > 30)
            throw std::runtime_error("workers did not register");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

/**
 * One client submits a mixed window job to a coordinator with two
 * worker processes, as deployed. Set-up records and indexes the
 * input trace and starts the fleet; the timed region is the submit.
 */
int
runFleet(const Args &args)
{
    const std::string dir = args.required("--dir");
    const std::string bin_dir = args.required("--bin-dir");
    const WorkloadPreset source_preset = presetByName(FleetShape::kPreset);

    Value out = Value::object();
    out.set("mode", Value::string("fleet"));
    const std::string trace_path =
        dir + "/" + FleetShape::kPreset + ".trace";
    {
        ScopedSpan span("program_build");
        const Clock::time_point t0 = Clock::now();
        programFor(source_preset);
        out.set("program_build_s", Value::number(secondsSince(t0)));
    }
    {
        ScopedSpan span("record");
        const Clock::time_point t0 = Clock::now();
        TraceGenerator gen(programFor(source_preset), 1);
        recordTraceInstructions(gen, source_preset, 1, trace_path,
                                FleetShape::kTraceInstructions);
        out.set("record_s", Value::number(secondsSince(t0)));
    }
    {
        ScopedSpan span("index");
        const Clock::time_point t0 = Clock::now();
        writeTraceIndex(traceIndexPath(trace_path),
                        buildTraceIndex(trace_path, 4096));
        out.set("index_s", Value::number(secondsSince(t0)));
    }

    const std::string coord_ep = "unix:" + dir + "/coord.sock";
    std::unique_ptr<Child> coord;
    std::vector<std::unique_ptr<Child>> workers;
    std::vector<std::string> worker_eps;
    {
        ScopedSpan span("fleet_start");
        const Clock::time_point t0 = Clock::now();
        coord.reset(new Child({bin_dir + "/shotgun-coord", "--listen",
                               coord_ep, "--heartbeat-ms", "100",
                               "--quiet"}));
        coord->readLine(30);
        for (unsigned k = 0; k < FleetShape::kWorkers; ++k) {
            const std::string name = "w" + std::to_string(k);
            worker_eps.push_back("unix:" + dir + "/" + name + ".sock");
            workers.emplace_back(new Child(
                {bin_dir + "/shotgun-serve", "--listen", worker_eps.back(),
                 "--coordinator", coord_ep, "--name", name, "--jobs",
                 std::to_string(FleetShape::kSlotsPerWorker),
                 "--heartbeat-ms", "100", "--quiet"}));
        }
        for (auto &worker : workers)
            worker->readLine(30);
        service::ServiceClient control(coord_ep, 60);
        waitForSlots(control,
                     FleetShape::kWorkers * FleetShape::kSlotsPerWorker);
        out.set("fleet_start_s", Value::number(secondsSince(t0)));
    }

    const WorkloadPreset trace_preset = presetByName("trace:" + trace_path);
    const std::vector<FleetPiece> pieces = fleetPieces(trace_preset);
    const std::vector<std::size_t> order = perfbench::permutation(
        pieces.size(), args.u64("--order-seed", 1));
    service::SubmitRequest request;
    request.experiment = "perfbench-fleet";
    // A trace id makes every result frame carry the point's phase
    // timing, the per-point worker time the fleet metrics need.
    request.traceId = obs::newTraceId();
    for (std::size_t k : order)
        request.grid.push_back(pieces[k].exp);
    out.set("setup_s", Value::number(secondsSince(kProcessStart)));

    std::vector<service::ResultEvent> events(request.grid.size());
    service::ServiceClient client(coord_ep, 120);
    const Clock::time_point t0 = Clock::now();
    {
        ScopedSpan span("job");
        client.submit(request, [&events](const service::ResultEvent &e) {
            events.at(e.index) = e;
        });
    }
    out.set("wall_s", Value::number(secondsSince(t0)));

    // Cache counters straight from each daemon's status frame.
    service::ServiceClient control(coord_ep, 60);
    out.set("coord_cache_hits",
            control.status().at("server").at("cache").at("hits"));
    Value worker_stats = Value::array();
    for (const std::string &ep : worker_eps) {
        const Value server = service::ServiceClient(ep, 60).status().at(
            "server");
        Value w = Value::object();
        w.set("cache_hits", server.at("cache").at("hits"));
        w.set("checkpoint_hits", server.at("checkpoint").at("hits"));
        w.set("checkpoint_misses", server.at("checkpoint").at("misses"));
        w.set("trace_bytes", server.at("traces").at("bytes"));
        worker_stats.push(std::move(w));
    }
    out.set("workers", std::move(worker_stats));
    std::vector<double> rtt_ms;
    for (int i = 0; i < 21; ++i) {
        const Clock::time_point p0 = Clock::now();
        fatal_if(!control.ping(), "coordinator did not answer a ping");
        rtt_ms.push_back(secondsSince(p0) * 1e3);
    }
    std::sort(rtt_ms.begin(), rtt_ms.end());
    out.set("rtt_ms", Value::number(rtt_ms[rtt_ms.size() / 2]));

    // Stop the fleet: workers first, so none reconnects.
    for (const std::string &ep : worker_eps)
        service::ServiceClient(ep, 60).shutdownServer();
    control.shutdownServer();
    std::vector<double> daemon_rss;
    for (auto &worker : workers)
        daemon_rss.push_back(worker->wait(30));
    daemon_rss.push_back(coord->wait(30));
    // wait() reports -1 for a daemon that failed or had to be killed.
    const bool daemons_ok =
        *std::min_element(daemon_rss.begin(), daemon_rss.end()) > 0;
    out.set("daemon_rss_mb",
            Value::number(*std::max_element(daemon_rss.begin(),
                                            daemon_rss.end())));

    // Per point: where it came from, its worker time and its output.
    std::map<std::pair<std::string, std::string>, std::uint64_t> lane_end;
    Value points = Value::array();
    std::vector<SimResult> results;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const FleetPiece &piece = pieces[order[i]];
        const service::ResultEvent &e = events[i];
        const SimConfig &config = piece.exp.config;
        // Instructions simulated: a restored window did not simulate
        // its warm-up.
        const std::uint64_t simulated =
            config.window.measureEnd +
            (e.timing.warmupUs > 0 ? config.warmupInstructions : 0);
        Value p = Value::object();
        p.set("scheme", Value::string(piece.scheme));
        p.set("contiguous", Value::boolean(piece.contiguous));
        p.set("window", Value::number(std::uint64_t{piece.window}));
        p.set("cached", Value::boolean(e.cached));
        p.set("has_timing", Value::boolean(e.hasTiming));
        p.set("has_delta", Value::boolean(e.hasDelta));
        p.set("instructions", Value::number(simulated));
        p.set("phase_us", timingJson(e.timing));
        p.set("cycles", Value::number(std::uint64_t{e.result.cycles}));
        p.set("fingerprint",
              Value::string(perfbench::resultFingerprint(e.result)));
        points.push(std::move(p));
        results.push_back(e.result);
        for (const obs::SpanRecord &s : e.spans) {
            auto &end = lane_end[{s.process, s.lane}];
            end = std::max(end, s.startUs + s.durUs);
        }
    }
    out.set("points", std::move(points));
    std::uint64_t first_idle = ~0ull;
    std::uint64_t last_end = 0;
    for (const auto &entry : lane_end) {
        first_idle = std::min(first_idle, entry.second);
        last_end = std::max(last_end, entry.second);
    }
    out.set("tail_s", Value::number(lane_end.empty()
                                        ? 0.0
                                        : (last_end - first_idle) / 1e6));

    // Stitch each scheme's windows client-side, in window order.
    auto deltasOf = [&](const std::string &scheme, bool contiguous) {
        std::vector<std::pair<std::size_t, SimulationDelta>> found;
        for (std::size_t i = 0; i < events.size(); ++i) {
            const FleetPiece &piece = pieces[order[i]];
            if (piece.scheme != scheme || piece.contiguous != contiguous)
                continue;
            SimulationDelta d;
            d.workload = events[i].result.workload;
            d.scheme = events[i].result.scheme;
            d.schemeStorageBits = events[i].result.schemeStorageBits;
            d.stats = events[i].delta;
            found.emplace_back(piece.window, std::move(d));
        }
        std::sort(found.begin(), found.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        std::vector<SimulationDelta> deltas;
        for (auto &entry : found)
            deltas.push_back(std::move(entry.second));
        return deltas;
    };
    const std::vector<SimulationDelta> contig_deltas =
        deltasOf(FleetShape::kContigScheme, true);
    SimResult stitched;
    {
        ScopedSpan span("stitch");
        const Clock::time_point s0 = Clock::now();
        stitched = window::stitchWindows(contig_deltas);
        out.set("stitch_us", Value::number(secondsSince(s0) * 1e6));
    }
    Value sampled = Value::object();
    for (const std::string &scheme : perfbench::fleetSampledSchemes()) {
        sampled.set(scheme, service::encodeSimResult(window::stitchWindows(
                                deltasOf(scheme, false))));
    }
    out.set("sampled_stitched", std::move(sampled));

    // Cross-checks against in-process runs of the same configs.
    Value checks = Value::array();
    {
        ScopedSpan span("crosscheck");
        const SimResult monolithic = runSimulation(pointConfig(
            trace_preset, FleetShape::kContigScheme,
            FleetShape::kContigWarmup, FleetShape::kContigMeasure, false));
        Value c = Value::object();
        c.set("check", Value::string("contiguous stitched == monolithic"));
        c.set("points", Value::number(std::uint64_t{contig_deltas.size()}));
        c.set("ok", Value::boolean(stitched == monolithic));
        checks.push(std::move(c));
        // One sampled window per scheme, chosen by the seed.
        const std::vector<std::size_t> pick = perfbench::permutation(
            events.size(), args.u64("--order-seed", 1) + 1);
        std::map<std::string, bool> done;
        for (std::size_t i : pick) {
            const FleetPiece &piece = pieces[order[i]];
            if (piece.contiguous || done[piece.scheme])
                continue;
            done[piece.scheme] = true;
            Value s = Value::object();
            s.set("check", Value::string("sampled window " + piece.scheme +
                                         "#" + std::to_string(piece.window) +
                                         " == in-process"));
            s.set("points", Value::number(std::uint64_t{1}));
            s.set("ok", Value::boolean(runSimulation(piece.exp.config) ==
                                       events[i].result));
            checks.push(std::move(s));
        }
    }
    out.set("checks", std::move(checks));
    out.set("daemons_ok", Value::boolean(daemons_ok));
    out.set("trace_path", Value::string(trace_path));
    // The shape run.py's guards and replays depend on.
    out.set("preset", Value::string(FleetShape::kPreset));
    out.set("slots", Value::number(std::uint64_t{
                         FleetShape::kWorkers * FleetShape::kSlotsPerWorker}));
    out.set("contiguous_windows",
            Value::number(std::uint64_t{FleetShape::kContigWindows}));
    out.set("contiguous_warmup", Value::number(FleetShape::kContigWarmup));
    out.set("contiguous_measure",
            Value::number(FleetShape::kContigMeasure));
    return finish(std::move(out), args, results);
}

// ------------------------------------------------------------ micro

int
runMicroMode(const Args &args)
{
    const std::string trace = args.str("--trace");
    const WorkloadPreset preset = presetByName(args.required("--preset"));
    Value out = perfbench::runMicro(preset, trace,
                                    args.u64("--blocks", 1000000));
    out.set("mode", Value::string("micro"));
    std::printf("%s\n", out.dump().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        Args::usage("missing mode");
    const std::string mode = argv[1];
    const Args args(argc, argv);
    if (!args.str("--spans").empty())
        perfbench::spans().enable();
    try {
        if (mode == "point")
            return runPoint(args);
        if (mode == "grid")
            return runGrid(args);
        if (mode == "fleet")
            return runFleet(args);
        if (mode == "micro")
            return runMicroMode(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "shotbench %s: %s\n", mode.c_str(), e.what());
        return 1;
    }
    Args::usage("unknown mode '" + mode + "'");
}
