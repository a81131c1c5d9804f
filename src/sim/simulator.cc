#include "sim/simulator.hh"

#include <cstring>
#include <functional>
#include <memory>
#include <tuple>
#include <utility>

#include "common/memo.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/checkpoint.hh"
#include "trace/decoded_trace.hh"
#include "trace/trace_io.hh"

namespace shotgun
{

namespace
{

std::uint64_t
mixIn(std::uint64_t hash, std::uint64_t value)
{
    return mix64(hash ^ mix64(value));
}

std::uint64_t
mixIn(std::uint64_t hash, double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return mixIn(hash, bits);
}

} // namespace

std::uint64_t
programFingerprint(const ProgramParams &p)
{
    std::uint64_t h = mix64(0x5107611);
    for (std::uint64_t v :
         {std::uint64_t(p.numFuncs), std::uint64_t(p.numOsFuncs),
          std::uint64_t(p.numTrapHandlers), std::uint64_t(p.numTopLevel),
          std::uint64_t(p.minBBInstrs), std::uint64_t(p.maxBBInstrs),
          std::uint64_t(p.minBBsPerFunc), std::uint64_t(p.maxBBsPerFunc),
          std::uint64_t(p.largeFuncBBs), std::uint64_t(p.minLoopTrip),
          std::uint64_t(p.maxLoopTrip), std::uint64_t(p.maxCondSkip),
          std::uint64_t(p.maxCallDepth), std::uint64_t(p.maxOsCallDepth),
          p.seed}) {
        h = mixIn(h, v);
    }
    for (double v :
         {p.zipfAlpha, p.osZipfAlpha, p.topZipfAlpha, p.bbGrowProb,
          p.funcGrowProb, p.largeFuncFrac, p.condFrac, p.callFrac,
          p.jumpFrac, p.trapFrac, p.loopFrac, p.patternFrac,
          p.strongFrac, p.mediumFrac, p.strongProb, p.mediumProb,
          p.weakProb, p.takenBiasFrac, p.stickyFrac}) {
        h = mixIn(h, v);
    }
    return h;
}

std::uint64_t
presetFingerprint(const WorkloadPreset &preset)
{
    std::uint64_t h = programFingerprint(preset.program);
    h = mixIn(h, preset.loadFrac);
    h = mixIn(h, preset.l1dMissRate);
    h = mixIn(h, preset.llcDataMissFrac);
    h = mixIn(h, preset.backgroundLoad);
    // A trace-backed workload must never share a memoized baseline
    // with its live-generated twin: the file may be shorter or come
    // from a different recording seed.
    h = mixIn(h, std::hash<std::string>{}(preset.tracePath));
    return h;
}

SimConfig
SimConfig::make(const WorkloadPreset &workload, SchemeType type)
{
    SimConfig config;
    config.workload = workload;
    config.scheme.type = type;
    return config;
}

bool
operator==(const SimWindow &a, const SimWindow &b)
{
    return a.skipInstructions == b.skipInstructions &&
           a.measureStart == b.measureStart &&
           a.measureEnd == b.measureEnd;
}

double
speedup(const SimResult &result, const SimResult &baseline)
{
    if (baseline.ipc == 0.0)
        return 0.0;
    return result.ipc / baseline.ipc;
}

double
stallCoverage(const SimResult &result, const SimResult &baseline)
{
    if (baseline.frontEndStallCycles == 0 || baseline.instructions == 0 ||
        result.instructions == 0) {
        return 0.0;
    }
    // Normalize per instruction: runs may differ in cycle counts.
    const double base = static_cast<double>(baseline.frontEndStallCycles) /
                        static_cast<double>(baseline.instructions);
    const double mine = static_cast<double>(result.frontEndStallCycles) /
                        static_cast<double>(result.instructions);
    return 1.0 - mine / base;
}

const Program &
programFor(const WorkloadPreset &preset)
{
    // Key on (name, fingerprint of every generation parameter):
    // presets sharing a name but differing in any knob get distinct
    // images. The memo computes outside its lock, so two threads
    // building *different* programs proceed in parallel while
    // duplicates wait.
    //
    // Budget 0 is load-bearing: this function returns a reference,
    // not the shared_ptr, so an entry must never be evicted. An
    // unbudgeted cache retains every entry for the process lifetime.
    static LruMemoCache<std::pair<std::string, std::uint64_t>, Program>
        cache(0);
    const auto key = std::make_pair(preset.program.name,
                                    programFingerprint(preset.program));
    return *cache.get(key,
                      [&preset]() { return Program(preset.program); });
}

SimulationDelta
runSimulationDelta(const SimConfig &config, WarmState warm)
{
    const SimWindow &window = config.window;
    fatal_if(window.enabled() &&
                 (window.measureStart >= window.measureEnd ||
                  window.measureEnd > config.measureInstructions),
             "invalid simulation window [%llu, %llu) for a "
             "%llu-instruction measure region",
             static_cast<unsigned long long>(window.measureStart),
             static_cast<unsigned long long>(window.measureEnd),
             static_cast<unsigned long long>(
                 config.measureInstructions));
    fatal_if(!window.enabled() && (window.skipInstructions != 0 ||
                                   window.measureStart != 0),
             "simulation window skip/measureStart without a window "
             "(set measureEnd)");

    // [measure_start, measure_end) of the measure region; the whole
    // region when no window is configured.
    const std::uint64_t measure_start =
        window.enabled() ? window.measureStart : 0;
    const std::uint64_t measure_end =
        window.enabled() ? window.measureEnd
                         : config.measureInstructions;

    const Program &program = programFor(config.workload);

    // Phase accounting: the per-phase PhaseTimers below always feed
    // the sim.phase.* registry counters (two steady-clock reads per
    // phase -- well inside the bench budget); when the thread has a
    // TraceContext they also fill its PointTiming slot, and the
    // Spans (inert otherwise) record the lifecycle tree. None of it
    // feeds back into simulation state, so the trajectory is
    // identical with tracing on or off.
    obs::TraceContext *trace_ctx = obs::currentTraceContext();
    obs::PointTiming *point_timing =
        trace_ctx != nullptr ? trace_ctx->timing : nullptr;

    // A workload either generates its control flow live or replays a
    // recorded trace file; both feed the core through TraceSource.
    // Trace replay prefers the process-wide decoded store (one file
    // decode feeds every concurrent Core); a file whose decode would
    // blow the store budget streams through TraceFileSource instead,
    // producing the identical record sequence.
    std::unique_ptr<TraceSource> source;
    DecodedTraceCursor *cursor = nullptr;
    TraceGenerator *generator = nullptr;
    std::uint64_t control_seed = config.traceSeed;
    TraceInfo trace_info;
    const std::string &trace_path = config.workload.tracePath;
    obs::Span decode_span("decode", "sim");
    obs::PhaseTimer decode_timer(
        "sim.phase.decode_us",
        point_timing != nullptr ? &point_timing->decodeUs : nullptr);
    if (!trace_path.empty()) {
        const WorkloadPreset *recorded = nullptr;
        if (auto decoded = decodedTraces().acquire(trace_path)) {
            trace_info = decoded->info();
            auto view =
                std::make_unique<DecodedTraceCursor>(std::move(decoded));
            cursor = view.get();
            recorded = &cursor->preset();
            source = std::move(view);
        } else {
            auto replay = std::make_unique<TraceFileSource>(trace_path);
            trace_info.preset = replay->preset();
            trace_info.traceSeed = replay->traceSeed();
            trace_info.records = replay->totalRecords();
            trace_info.instructions = replay->totalInstructions();
            recorded = &replay->preset();
            source = std::move(replay);
        }
        if (programFingerprint(recorded->program) !=
            programFingerprint(config.workload.program))
            throw TraceError("trace '" + trace_path +
                             "' was recorded from program '" +
                             recorded->program.name +
                             "', which does not match this workload's "
                             "program parameters");
        const std::uint64_t needed = window.skipInstructions +
                                     config.warmupInstructions +
                                     measure_end;
        if (trace_info.instructions < needed)
            throw TraceError(
                "trace '" + trace_path + "' holds " +
                std::to_string(trace_info.instructions) +
                " instructions but the run needs " +
                std::to_string(needed) + " (" +
                std::to_string(window.skipInstructions) +
                " skipped + " +
                std::to_string(config.warmupInstructions) +
                " warm-up + " + std::to_string(measure_end) +
                " measured); record a longer trace");
        // Use the recorded seed so the data-side model reproduces the
        // run the trace was captured from, bit for bit.
        control_seed = trace_info.traceSeed;
    } else {
        auto live =
            std::make_unique<TraceGenerator>(program, config.traceSeed);
        generator = live.get();
        source = std::move(live);
    }
    decode_timer.stop();
    decode_span.end();

    CoreParams core_params = config.core;
    core_params.loadFrac = config.workload.loadFrac;
    core_params.l1dMissRate = config.workload.l1dMissRate;
    core_params.llcDataMissFrac = config.workload.llcDataMissFrac;
    core_params.dataSeed =
        mix64(control_seed ^ mix64(config.workload.program.seed));

    HierarchyParams hierarchy_params;
    hierarchy_params.mesh.backgroundLoad = config.workload.backgroundLoad;

    // Warmup checkpoint reuse: when a warmed clone for this exact
    // configuration prefix is cached, reposition a fresh source where
    // the original's stood and resume from the clone -- skipping the
    // skip+warmup simulation entirely. Streaming TraceFileSource
    // replay is not checkpointable (no cheap exact reposition), and a
    // zero-warmup run has nothing worth caching. Every checkpointable
    // run looks the key up, so the hit and miss counts stay "runs
    // restored" and "warmups simulated"; only a Park run adds one.
    const bool checkpointable =
        config.warmupInstructions > 0 &&
        (generator != nullptr || cursor != nullptr);
    std::string key;
    std::shared_ptr<const CoreCheckpoint> restored;
    if (checkpointable) {
        key = checkpointKey(config,
                            cursor != nullptr ? &trace_info : nullptr);
        restored = checkpointCache().tryGet(key);
    }

    std::unique_ptr<Core> core;
    if (restored != nullptr) {
        obs::Span restore_span("restore", "sim");
        obs::PhaseTimer restore_timer(
            "sim.phase.restore_us",
            point_timing != nullptr ? &point_timing->restoreUs
                                    : nullptr);
        if (generator != nullptr)
            generator->restore(restored->generator);
        else
            cursor->seekToRecord(restored->cursorRecord);
        core = std::make_unique<Core>(*restored->core, source.get());
    } else {
        obs::Span warmup_span("warmup", "sim");
        obs::PhaseTimer warmup_timer(
            "sim.phase.warmup_us",
            point_timing != nullptr ? &point_timing->warmupUs
                                    : nullptr);
        // Sampled-window mode: drop the stream prefix a short warm-up
        // stands in for. Whole basic blocks are skipped until the
        // threshold is reached, identically with or without a trace
        // window index (the index only accelerates the seek).
        if (window.skipInstructions > 0)
            source->skipInstructions(window.skipInstructions);

        core = std::make_unique<Core>(program, *source, core_params,
                                      hierarchy_params, config.scheme);
        core->run(config.warmupInstructions);
        if (checkpointable && warm == WarmState::Park) {
            // Park a clone; the run continues on the original, so
            // taking the checkpoint cannot perturb its trajectory.
            CoreCheckpoint cp;
            cp.core = std::make_shared<const Core>(*core, nullptr);
            if (generator != nullptr) {
                cp.fromGenerator = true;
                cp.generator = generator->checkpoint();
            } else {
                cp.cursorRecord = cursor->recordsRead();
            }
            cp.bytes = cp.core->approxStateBytes();
            checkpointCache().put(key, std::move(cp));
        }
    }

    obs::Span measure_span("measure", "sim");
    obs::PhaseTimer measure_timer(
        "sim.phase.measure_us",
        point_timing != nullptr ? &point_timing->measureUs : nullptr);
    core->resetStats();
    // Fast-forward to the window, then measure it as the snapshot
    // difference. Both bounds are thresholds relative to the
    // post-warm-up reset ("first cycle in which the N-th measured
    // instruction has retired"), the same points an uninterrupted
    // monolithic run passes through -- which is what makes the
    // windows of a contiguous plan partition its cycles exactly.
    core->runUntilRetired(measure_start);
    // The miss-site sketches are per-window state, not
    // snapshot-subtractable: clear them at the window boundary so the
    // end snapshot's tables cover exactly [measure_start, measure_end)
    // (uarchDelta takes the end tables verbatim). Observer-only.
    core->clearUarchSites();
    const Core::StatsSnapshot begin = core->snapshotStats();
    core->runUntilRetired(measure_end);
    // Only a trace can run dry (the length check above passed, so its
    // header overstates what its records hold): a damaged file, which
    // fails this point like any other damaged payload.
    if (core->sourceExhausted() &&
        core->instructionsRetired() < measure_end)
        throw TraceError("trace '" + trace_path + "' ran dry after " +
                         std::to_string(core->instructionsRetired()) +
                         " of " + std::to_string(measure_end) +
                         " measured instructions");
    const Core::StatsSnapshot end = core->snapshotStats();
    const std::uint64_t measure_us = measure_timer.stop();
    measure_span.end();
    obs::metrics().counter("sim.points")->add(1);
    // Per-point measure-time distribution: the percentile source for
    // metrics snapshots and the fleet heartbeat's p50/p95/p99.
    obs::metrics()
        .histogram("sim.phase.measure_us_hist",
                   {100, 300, 1000, 3000, 10000, 30000, 100000,
                    300000, 1000000, 3000000, 10000000})
        ->record(measure_us);

    SimulationDelta out;
    out.workload = config.workload.name;
    out.scheme = core->scheme().name();
    out.schemeStorageBits = core->scheme().storageBits();
    out.stats = deltaBetween(begin, end);
    return out;
}

SimResult
runSimulation(const SimConfig &config, WarmState warm)
{
    const SimulationDelta delta = runSimulationDelta(config, warm);
    return finalizeResult(delta.workload, delta.scheme,
                          delta.schemeStorageBits, delta.stats);
}

SimResult
baselineFor(const WorkloadPreset &preset, std::uint64_t warmup,
            std::uint64_t measure, std::uint64_t trace_seed)
{
    // Computed outside the cache's lock: baselines for different
    // workloads run concurrently, and only one thread simulates a
    // given (workload, lengths, seed) no matter how many request it.
    static LruMemoCache<std::tuple<std::string, std::uint64_t,
                                   std::uint64_t, std::uint64_t,
                                   std::uint64_t>,
                        SimResult>
        cache(0);
    const auto key = std::make_tuple(preset.name,
                                     presetFingerprint(preset), warmup,
                                     measure, trace_seed);
    return *cache.get(key, [&]() {
        SimConfig config = SimConfig::make(preset, SchemeType::Baseline);
        config.warmupInstructions = warmup;
        config.measureInstructions = measure;
        config.traceSeed = trace_seed;
        return runSimulation(config);
    });
}

bool
operator==(const SimResult &a, const SimResult &b)
{
    return a.workload == b.workload && a.scheme == b.scheme &&
           a.instructions == b.instructions && a.cycles == b.cycles &&
           a.ipc == b.ipc && a.btbMPKI == b.btbMPKI &&
           a.l1iMPKI == b.l1iMPKI &&
           a.mispredictsPerKI == b.mispredictsPerKI &&
           a.stalls == b.stalls &&
           a.frontEndStallCycles == b.frontEndStallCycles &&
           a.prefetchAccuracy == b.prefetchAccuracy &&
           a.avgL1DFillCycles == b.avgL1DFillCycles &&
           a.prefetchesIssued == b.prefetchesIssued &&
           a.schemeStorageBits == b.schemeStorageBits &&
           a.uarch == b.uarch;
}

} // namespace shotgun
