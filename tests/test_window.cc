/**
 * @file
 * Tests for the windowed simulation subsystem (src/window/ plus its
 * sim/trace/service hooks). The load-bearing property: a
 * full-coverage window plan -- contiguous windows, warm-up equal to
 * the preceding prefix -- stitches into a SimResult numerically
 * identical to the monolithic run, for synthetic presets and
 * recorded traces, in-process and through a coordinator (the case
 * with a worker dying mid-run lives in test_fleet.cc).
 * Plus: merge permutation-invariance, strict window-order
 * emission, death tests for malformed plans, and the sampled
 * (approximate) mode's determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "fleet_harness.hh"
#include "obs/uarch.hh"
#include "runner/experiment.hh"
#include "service/client.hh"
#include "sim/simulator.hh"
#include "sim/stats_delta.hh"
#include "trace/generator.hh"
#include "trace/program.hh"
#include "trace/trace_io.hh"
#include "window/window_plan.hh"
#include "window/windowed_runner.hh"

namespace shotgun
{
namespace
{

using window::contiguousPlan;
using window::expandPlan;
using window::runWindowedExperiment;
using window::sampledPlan;
using window::stitchWindows;
using window::validateFullCoverage;
using window::WindowPlan;

constexpr std::uint64_t kWarmup = 20000;
constexpr std::uint64_t kMeasure = 50000;

/** Small but non-trivial synthetic workload: fast to simulate. */
WorkloadPreset
tinyPreset(const std::string &name, std::uint64_t seed)
{
    WorkloadPreset preset;
    preset.name = name;
    preset.program.name = name;
    preset.program.numFuncs = 150;
    preset.program.numOsFuncs = 30;
    preset.program.numTrapHandlers = 4;
    preset.program.numTopLevel = 8;
    preset.program.seed = seed;
    return preset;
}

SimConfig
quickConfig(const WorkloadPreset &preset, SchemeType type)
{
    SimConfig config = SimConfig::make(preset, type);
    config.warmupInstructions = kWarmup;
    config.measureInstructions = kMeasure;
    return config;
}

runner::Experiment
experimentFor(const WorkloadPreset &preset, SchemeType type)
{
    runner::Experiment exp;
    exp.workload = preset.name;
    exp.label = schemeTypeName(type);
    exp.config = quickConfig(preset, type);
    return exp;
}

void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.btbMPKI, b.btbMPKI);
    EXPECT_EQ(a.l1iMPKI, b.l1iMPKI);
    EXPECT_EQ(a.mispredictsPerKI, b.mispredictsPerKI);
    EXPECT_EQ(a.stalls, b.stalls);
    EXPECT_EQ(a.frontEndStallCycles, b.frontEndStallCycles);
    EXPECT_EQ(a.prefetchAccuracy, b.prefetchAccuracy);
    EXPECT_EQ(a.avgL1DFillCycles, b.avgL1DFillCycles);
    EXPECT_EQ(a.prefetchesIssued, b.prefetchesIssued);
    EXPECT_EQ(a.schemeStorageBits, b.schemeStorageBits);
    EXPECT_TRUE(a == b);
}

// --------------------------------------------------------- WindowPlan

TEST(WindowPlanTest, ContiguousPlanPartitionsTheMeasureRegion)
{
    const SimConfig config =
        quickConfig(tinyPreset("plan", 1), SchemeType::Baseline);
    for (unsigned n : {1u, 3u, 7u}) {
        const WindowPlan plan = contiguousPlan(config, n);
        ASSERT_EQ(plan.windows.size(), n);
        EXPECT_TRUE(plan.fullCoverage);
        EXPECT_EQ(plan.warmupInstructions, kWarmup);
        validateFullCoverage(plan, config); // must not die
        std::uint64_t covered = 0;
        for (const SimWindow &w : plan.windows) {
            EXPECT_EQ(w.measureStart, covered);
            covered = w.measureEnd;
        }
        EXPECT_EQ(covered, kMeasure);
    }
}

TEST(WindowPlanTest, ExpandedConfigsCarryDistinctWindows)
{
    const SimConfig config =
        quickConfig(tinyPreset("plan", 2), SchemeType::Shotgun);
    const WindowPlan plan = contiguousPlan(config, 4);
    const std::vector<SimConfig> configs = expandPlan(config, plan);
    ASSERT_EQ(configs.size(), 4u);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_TRUE(configs[i].window.enabled());
        EXPECT_EQ(configs[i].window, plan.windows[i]);
        EXPECT_EQ(configs[i].measureInstructions, kMeasure);
        EXPECT_EQ(configs[i].warmupInstructions, kWarmup);
    }
}

TEST(WindowPlanDeathTest, MalformedPlansDie)
{
    const SimConfig config =
        quickConfig(tinyPreset("bad-plan", 3), SchemeType::Baseline);

    EXPECT_DEATH(contiguousPlan(config, 0), "at least 1 window");

    // Gapped: window 1 starts after window 0 ends.
    WindowPlan gapped = contiguousPlan(config, 2);
    gapped.windows[1].measureStart += 10;
    EXPECT_DEATH(validateFullCoverage(gapped, config),
                 "gapped window plan");

    // Overlapping: window 1 starts before window 0 ends.
    WindowPlan overlapping = contiguousPlan(config, 2);
    overlapping.windows[1].measureStart -= 10;
    EXPECT_DEATH(validateFullCoverage(overlapping, config),
                 "overlapping window plan");

    // Short coverage: the last window stops early.
    WindowPlan short_plan = contiguousPlan(config, 2);
    short_plan.windows[1].measureEnd -= 1;
    EXPECT_DEATH(validateFullCoverage(short_plan, config), "covers");

    // Stream skips are the sampled mode, not full coverage.
    WindowPlan skipping = contiguousPlan(config, 2);
    skipping.windows[0].skipInstructions = 5;
    EXPECT_DEATH(validateFullCoverage(skipping, config),
                 "forbids skips");

    // A shorter warm-up cannot reproduce the monolithic prefix.
    WindowPlan cold = contiguousPlan(config, 2);
    cold.warmupInstructions /= 2;
    EXPECT_DEATH(validateFullCoverage(cold, config), "warm-up");
}

TEST(WindowDeathTest, RunSimulationRejectsInvalidWindows)
{
    SimConfig config =
        quickConfig(tinyPreset("bad-window", 4), SchemeType::Baseline);
    config.window.measureStart = 10;
    config.window.measureEnd = 10;
    EXPECT_DEATH(runSimulation(config), "invalid simulation window");

    SimConfig skip_only =
        quickConfig(tinyPreset("bad-window", 4), SchemeType::Baseline);
    skip_only.window.skipInstructions = 100;
    EXPECT_DEATH(runSimulation(skip_only), "without a window");
}

// ----------------------------------------------------- exact stitching

TEST(WindowStitchTest, FullCoverageMatchesMonolithicAcrossPresets)
{
    // Three real presets (smallest, a web-frontend and an OLTP one)
    // with quick run lengths, through the paper's headline scheme.
    for (const WorkloadId id :
         {WorkloadId::Nutch, WorkloadId::Streaming,
          WorkloadId::Oracle}) {
        const WorkloadPreset preset = makePreset(id);
        const runner::Experiment exp =
            experimentFor(preset, SchemeType::Shotgun);
        const SimResult mono = runSimulation(exp.config);

        const WindowPlan plan = contiguousPlan(exp.config, 4);
        const window::WindowedOutcome outcome =
            runWindowedExperiment(exp, plan, 2);
        expectIdentical(outcome.stitched, mono);
    }
}

TEST(WindowStitchTest, UnevenAndSingleWindowPlansMatchToo)
{
    const WorkloadPreset preset = tinyPreset("uneven", 5);
    const runner::Experiment exp =
        experimentFor(preset, SchemeType::Boomerang);
    const SimResult mono = runSimulation(exp.config);

    // 7 does not divide 50000: earlier windows take the remainder.
    for (unsigned n : {1u, 7u}) {
        const window::WindowedOutcome outcome = runWindowedExperiment(
            exp, contiguousPlan(exp.config, n), 3);
        expectIdentical(outcome.stitched, mono);
    }
}

TEST(WindowStitchTest, FullCoverageMatchesMonolithicForRecordedTrace)
{
    // Record a trace, index it, and window the replayed workload:
    // the stitched result must equal the monolithic replay.
    const WorkloadPreset recorded = tinyPreset("win-trace", 6);
    const std::string path = "/tmp/shotgun_test_window.trace";
    Program prog(recorded.program);
    TraceGenerator gen(prog, 11);
    recordTraceInstructions(gen, recorded, 11, path,
                            kWarmup + kMeasure + 20000);
    writeTraceIndex(traceIndexPath(path),
                    buildTraceIndex(path, 1024));

    const WorkloadPreset preset = presetByName("trace:" + path);
    const runner::Experiment exp =
        experimentFor(preset, SchemeType::Shotgun);
    const SimResult mono = runSimulation(exp.config);

    const window::WindowedOutcome outcome = runWindowedExperiment(
        exp, contiguousPlan(exp.config, 3), 3);
    expectIdentical(outcome.stitched, mono);

    std::remove(traceIndexPath(path).c_str());
    std::remove(path.c_str());
}

TEST(WindowStitchTest, MergeIsPermutationInvariant)
{
    // The property the distributed stitch rests on: whatever order
    // windows come back in (worker interleaving, a requeue after a
    // death), merging their deltas in any permutation gives
    // the monolithic counters.
    const WorkloadPreset preset = tinyPreset("perm", 7);
    SimConfig config = quickConfig(preset, SchemeType::Shotgun);
    const SimulationDelta mono = runSimulationDelta(config);

    const WindowPlan plan = contiguousPlan(config, 4);
    std::vector<SimulationDelta> deltas;
    for (const SimConfig &sub : expandPlan(config, plan))
        deltas.push_back(runSimulationDelta(sub));

    std::vector<std::size_t> order{0, 1, 2, 3};
    int permutations = 0;
    do {
        StatsDelta merged;
        for (const std::size_t i : order)
            merge(merged, deltas[i].stats);
        ASSERT_TRUE(merged == mono.stats)
            << "permutation " << permutations;
        ++permutations;
    } while (std::next_permutation(order.begin(), order.end()));
    EXPECT_EQ(permutations, 24);

    // And the stitched (window-ordered) result equals the finalized
    // monolithic delta.
    expectIdentical(stitchWindows(deltas),
                    finalizeResult(mono.workload, mono.scheme,
                                   mono.schemeStorageBits,
                                   mono.stats));
}

// ------------------------------------------------ uarch probe stitching

TEST(WindowStitchTest, UarchBreakdownStitchesExactlyAcrossSchemes)
{
    // Probes on, all six schemes: the stitched breakdown must equal
    // the monolithic one bit for bit (stall counters subtract and
    // merge exactly; the miss-site sketches run eviction-free at
    // these sizes, so per-window tables merge into the monolithic
    // tables), and every result -- monolithic, stitched, and each
    // window delta -- must satisfy the conservation invariant.
    //
    // The program is kept smaller than tinyPreset: schemes without
    // BTB prefill (baseline/FDIP/RDIP) take a cold BTB miss at every
    // static branch site, and the monolithic run's site population
    // must stay under the sketch's 512 slots for the exact regime
    // the bit-for-bit comparison relies on.
    WorkloadPreset preset = tinyPreset("uarch", 12);
    preset.program.numFuncs = 40;
    preset.program.numOsFuncs = 8;
    for (const SchemeType type :
         {SchemeType::Baseline, SchemeType::FDIP,
          SchemeType::Boomerang, SchemeType::Confluence,
          SchemeType::Shotgun, SchemeType::RDIP}) {
        runner::Experiment exp = experimentFor(preset, type);
        exp.config.core.uarchProbes = true;
        const SimResult mono = runSimulation(exp.config);
        ASSERT_TRUE(mono.uarch.enabled) << exp.label;
        EXPECT_TRUE(mono.stalls.total() == mono.cycles) << exp.label;
        // A probed run actually profiles: the tiny preset misses in
        // the L1-I, so its hot-site table cannot be empty.
        EXPECT_FALSE(mono.uarch.l1iMissSites.empty()) << exp.label;

        const window::WindowedOutcome outcome = runWindowedExperiment(
            exp, contiguousPlan(exp.config, 4), 2);
        EXPECT_TRUE(outcome.stitched.uarch == mono.uarch)
            << exp.label;
        expectIdentical(outcome.stitched, mono);
        EXPECT_TRUE(
            outcome.stitched.stalls.total() == outcome.stitched.cycles)
            << exp.label;
        for (const SimulationDelta &w : outcome.windows)
            EXPECT_TRUE(w.stats.stalls.total() == w.stats.cycles)
                << exp.label;
    }
}

TEST(WindowStitchTest, UarchBreakdownStitchesForRecordedTrace)
{
    // Same property on a recorded trace replay: record, index,
    // replay probed, window it, and compare against the monolithic
    // probed replay.
    const WorkloadPreset recorded = tinyPreset("uarch-trace", 13);
    const std::string path = "/tmp/shotgun_test_uarch_window.trace";
    Program prog(recorded.program);
    TraceGenerator gen(prog, 17);
    recordTraceInstructions(gen, recorded, 17, path,
                            kWarmup + kMeasure + 20000);
    writeTraceIndex(traceIndexPath(path),
                    buildTraceIndex(path, 1024));

    const WorkloadPreset preset = presetByName("trace:" + path);
    runner::Experiment exp =
        experimentFor(preset, SchemeType::Shotgun);
    exp.config.core.uarchProbes = true;
    const SimResult mono = runSimulation(exp.config);
    ASSERT_TRUE(mono.uarch.enabled);
    EXPECT_TRUE(mono.stalls.total() == mono.cycles);

    const window::WindowedOutcome outcome = runWindowedExperiment(
        exp, contiguousPlan(exp.config, 3), 3);
    EXPECT_TRUE(outcome.stitched.uarch == mono.uarch);
    expectIdentical(outcome.stitched, mono);

    std::remove(traceIndexPath(path).c_str());
    std::remove(path.c_str());
}

TEST(WindowStitchTest, ProbesAreTrajectoryInvisible)
{
    // The other half of the contract: enabling the probes must not
    // change a single simulated counter. Compare probed vs probe-free
    // runs of the same config field by field (everything except the
    // uarch member itself must match).
    const WorkloadPreset preset = tinyPreset("uarch-off", 14);
    for (const SchemeType type :
         {SchemeType::Baseline, SchemeType::Shotgun}) {
        SimConfig off = quickConfig(preset, type);
        SimConfig on = off;
        on.core.uarchProbes = true;
        const SimResult r_off = runSimulation(off);
        SimResult r_on = runSimulation(on);
        EXPECT_FALSE(r_off.uarch.enabled);
        EXPECT_TRUE(r_on.uarch.enabled);
        // Blank the probe payload; all simulation counters must then
        // compare bitwise equal.
        r_on.uarch = obs::UarchBreakdown{};
        expectIdentical(r_on, r_off);
    }
}

TEST(WindowStitchDeathTest, RejectsPiecesOfDifferentRuns)
{
    const WorkloadPreset preset = tinyPreset("mixed", 8);
    SimConfig config = quickConfig(preset, SchemeType::Shotgun);
    const WindowPlan plan = contiguousPlan(config, 2);
    std::vector<SimulationDelta> deltas;
    for (const SimConfig &sub : expandPlan(config, plan))
        deltas.push_back(runSimulationDelta(sub));
    deltas[1].scheme = "boomerang"; // a piece of some other run
    EXPECT_DEATH(stitchWindows(deltas), "different run");
    EXPECT_DEATH(stitchWindows({}), "zero windows");
}

// ------------------------------------------------- scheduler plumbing

TEST(WindowedRunnerTest, EmitsWindowsStrictlyInOrder)
{
    const WorkloadPreset preset = tinyPreset("order", 9);
    const runner::Experiment exp =
        experimentFor(preset, SchemeType::Baseline);
    const WindowPlan plan = contiguousPlan(exp.config, 6);

    std::vector<std::size_t> emitted;
    std::uint64_t instructions = 0;
    const window::WindowedOutcome outcome = runWindowedExperiment(
        exp, plan, 4,
        [&](std::size_t index, const SimResult &result) {
            emitted.push_back(index);
            instructions += result.instructions;
        });

    ASSERT_EQ(emitted.size(), 6u);
    for (std::size_t i = 0; i < emitted.size(); ++i)
        EXPECT_EQ(emitted[i], i);
    // The windows partition the measured instructions.
    EXPECT_EQ(instructions, outcome.stitched.instructions);
    ASSERT_EQ(outcome.windows.size(), 6u);
    for (const SimulationDelta &w : outcome.windows)
        EXPECT_GT(w.stats.instructions, 0u);
}

// ----------------------------------------------------- sampled windows

TEST(SampledWindowTest, DeterministicAndCheaperThanFullPrefix)
{
    const WorkloadPreset preset = tinyPreset("sampled", 10);
    SimConfig config = quickConfig(preset, SchemeType::Shotgun);

    const WindowPlan plan = sampledPlan(config, 3, 5000, 5000);
    EXPECT_FALSE(plan.fullCoverage);
    const std::vector<SimConfig> configs = expandPlan(config, plan);
    ASSERT_EQ(configs.size(), 3u);
    // Window 1 skips the stream up to (warmup + stride - warmup').
    EXPECT_EQ(configs[1].window.skipInstructions,
              kWarmup + kMeasure / 3 - 5000);
    EXPECT_EQ(configs[1].warmupInstructions, 5000u);

    // Deterministic: the same sampled window simulates identically.
    const SimResult once = runSimulation(configs[1]);
    const SimResult twice = runSimulation(configs[1]);
    expectIdentical(once, twice);
    // The final cycle may retire a couple of instructions past the
    // threshold (run() stops on whole cycles).
    EXPECT_GE(once.instructions, 5000u);
    EXPECT_LT(once.instructions, 5010u);
}

// ------------------------------------------------- service integration

TEST(WindowShardingTest, MatchesMonolithicThroughACoordinator)
{
    // Two experiments split into three windows each and sent to a
    // coordinator with one worker in one submit: the stitched results
    // equal monolithic in-process runs exactly. (With a worker dying
    // mid-grid: FleetTest.WindowShardsSurviveWorkerDeath.)
    service::SubmitRequest request;
    request.experiment = "window-shard";
    std::vector<SimResult> mono;
    for (const SchemeType type :
         {SchemeType::Baseline, SchemeType::Shotgun}) {
        const runner::Experiment exp =
            experimentFor(tinyPreset("ws", 11), type);
        mono.push_back(runSimulation(exp.config));
        request.grid.push_back(exp);
    }

    fleet::TestCoordinator coord("window-one");
    fleet::TestWorker worker("window-one-w", coord.endpoint());
    service::ServiceClient client(coord.endpoint());
    std::size_t events = 0;
    const std::vector<SimResult> stitched = service::submitWindowed(
        client, request, 3,
        [&](const service::ResultEvent &) { ++events; });

    ASSERT_EQ(stitched.size(), mono.size());
    for (std::size_t i = 0; i < mono.size(); ++i)
        expectIdentical(stitched[i], mono[i]);

    // 2 experiments x 3 windows (submitWindowed throws on a window
    // frame without its delta).
    EXPECT_EQ(events, 6u);

    // Resubmitting hits the coordinator's fingerprint cache (windowed
    // entries keep their deltas) and stitches identically again.
    const std::vector<SimResult> again =
        service::submitWindowed(client, request, 3);
    for (std::size_t i = 0; i < mono.size(); ++i)
        expectIdentical(again[i], mono[i]);
}

TEST(WindowShardingTest, DecodeRejectsDegenerateWindows)
{
    using json::Value;
    // A disabled window (measure_end 0) must not smuggle in a start
    // or a skip; an enabled one must be a non-empty range.
    for (const char *bad :
         {"{\"skip_instructions\":0,\"measure_start\":40000,"
          "\"measure_end\":0}",
          "{\"skip_instructions\":7,\"measure_start\":0,"
          "\"measure_end\":0}",
          "{\"skip_instructions\":0,\"measure_start\":10,"
          "\"measure_end\":10}"}) {
        EXPECT_THROW(service::decodeSimWindow(Value::parse(bad)),
                     service::CodecError)
            << bad;
    }
    const SimWindow ok = service::decodeSimWindow(Value::parse(
        "{\"skip_instructions\":0,\"measure_start\":0,"
        "\"measure_end\":100}"));
    EXPECT_TRUE(ok.enabled());
}

TEST(WindowShardingTest, WindowedFramesRoundTripDeltas)
{
    // Codec-level: a windowed result frame round-trips its delta.
    service::ResultEvent event;
    event.job = 1;
    event.index = 2;
    event.workload = "w";
    event.label = "l#w0/2";
    event.fingerprint = "00ff00ff00ff00ff";
    event.result.workload = "w";
    event.result.scheme = "shotgun";
    event.hasDelta = true;
    event.delta.instructions = 1234;
    event.delta.cycles = 5678;
    event.delta.stalls.icache = 9;
    event.delta.l1dFillSum = 4242.0;
    event.delta.l1dFillCount = 21;

    const service::ResultEvent rt = service::decodeResultEvent(
        json::Value::parse(
            service::encodeResultEvent(event).dump()));
    EXPECT_TRUE(rt.hasDelta);
    EXPECT_TRUE(rt.delta == event.delta);

    // And a windowless frame stays windowless.
    event.hasDelta = false;
    const service::ResultEvent bare = service::decodeResultEvent(
        json::Value::parse(
            service::encodeResultEvent(event).dump()));
    EXPECT_FALSE(bare.hasDelta);
}

} // namespace
} // namespace shotgun
