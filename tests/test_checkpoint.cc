/**
 * @file
 * Warmed-state checkpoints and the shared decoded-trace store: the
 * machinery the one-pass multi-config pipeline rests on. The tests
 * pin the contract down from below (key separation, LRU accounting,
 * cursor/file stream equivalence) and from above (a restored run is
 * bitwise identical to an uninterrupted one; a cohort-batched grid
 * emits exactly the bytes a point-at-a-time loop does; one trace
 * file decodes once no matter how many cores replay it).
 *
 * The checkpoint cache and decoded-trace store are process-wide
 * singletons, so each test uses uniquely named/seeded presets --
 * the hit/miss deltas asserted below are then exact, not merely
 * lower bounds, and tests stay order-independent.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "runner/experiment.hh"
#include "sim/checkpoint.hh"
#include "sim/simulator.hh"
#include "trace/decoded_trace.hh"
#include "trace/generator.hh"
#include "trace/presets.hh"
#include "trace/program.hh"
#include "trace/trace_io.hh"
#include "window/window_plan.hh"
#include "window/windowed_runner.hh"

namespace shotgun
{
namespace
{

constexpr std::uint64_t kWarmup = 20000;
constexpr std::uint64_t kMeasure = 50000;

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

/** The byte-identity oracle: field-exact (doubles compared with ==). */
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

/** The schemes a speedup sweep runs -- Ideal excluded, like fig7. */
const SchemeType kGridSchemes[] = {
    SchemeType::Baseline,   SchemeType::FDIP,
    SchemeType::Boomerang,  SchemeType::Confluence,
    SchemeType::Shotgun,    SchemeType::RDIP,
};

// ------------------------------------------------------------- keys

TEST(CheckpointKeyTest, SchemeWarmupAndSeedSeparateKeys)
{
    const WorkloadPreset preset = tinyPreset("key-base", 3);
    const SimConfig base = quickConfig(preset, SchemeType::Shotgun);

    // Warmed state is scheme-visible (prefetches change cache and
    // timing state), so every scheme knob must split the key.
    SimConfig other_scheme = base;
    other_scheme.scheme = SchemeConfig{};
    other_scheme.scheme.type = SchemeType::Boomerang;
    EXPECT_NE(checkpointKey(base, nullptr),
              checkpointKey(other_scheme, nullptr));

    SimConfig resized = base;
    resized.scheme.shotgun.cbtbEntries *= 2;
    EXPECT_NE(checkpointKey(base, nullptr),
              checkpointKey(resized, nullptr));

    SimConfig longer_warmup = base;
    longer_warmup.warmupInstructions += 1;
    EXPECT_NE(checkpointKey(base, nullptr),
              checkpointKey(longer_warmup, nullptr));

    SimConfig other_seed = base;
    other_seed.traceSeed += 1;
    EXPECT_NE(checkpointKey(base, nullptr),
              checkpointKey(other_seed, nullptr));
}

TEST(CheckpointKeyTest, WindowSubPointsShareTheKey)
{
    // measureStart/measureEnd pick what is *measured after* the
    // warmup; they must not split the key, or windowed plans would
    // re-warm per window. skipInstructions changes what is warmed
    // over and must split it.
    const WorkloadPreset preset = tinyPreset("key-window", 4);
    SimConfig w1 = quickConfig(preset, SchemeType::Shotgun);
    w1.window.measureStart = 0;
    w1.window.measureEnd = kMeasure / 2;
    SimConfig w2 = w1;
    w2.window.measureStart = kMeasure / 2;
    w2.window.measureEnd = kMeasure;
    EXPECT_EQ(checkpointKey(w1, nullptr), checkpointKey(w2, nullptr));

    SimConfig sampled = w1;
    sampled.window.skipInstructions = 1000;
    EXPECT_NE(checkpointKey(w1, nullptr),
              checkpointKey(sampled, nullptr));
}

TEST(CheckpointKeyTest, TraceHeaderBindsTheKey)
{
    // A re-recorded file under the same path must miss: the key
    // covers the header counters, not just the path.
    const WorkloadPreset preset = tinyPreset("key-trace", 5);
    const SimConfig config = quickConfig(preset, SchemeType::Shotgun);
    TraceInfo info;
    info.traceSeed = 7;
    info.records = 1000;
    info.instructions = 9000;
    TraceInfo rerecorded = info;
    rerecorded.records = 1001;
    rerecorded.instructions = 9010;
    EXPECT_NE(checkpointKey(config, &info),
              checkpointKey(config, &rerecorded));
    EXPECT_NE(checkpointKey(config, &info),
              checkpointKey(config, nullptr));
}

// ------------------------------------------------- cache accounting

TEST(CheckpointCacheTest, LruAccountingAndEviction)
{
    // Accounting only: entries carry their byte cost in cp.bytes, so
    // a null core is fine here (real checkpoints are exercised by
    // the end-to-end tests below).
    CheckpointCache cache(100);
    auto entry = [](std::size_t bytes) {
        CoreCheckpoint cp;
        cp.bytes = bytes;
        return cp;
    };

    EXPECT_EQ(cache.tryGet("a"), nullptr);
    EXPECT_EQ(cache.stats().misses, 1u);

    cache.put("a", entry(40));
    cache.put("b", entry(40));
    EXPECT_NE(cache.tryGet("a"), nullptr); // Touch: a is now MRU.
    cache.put("c", entry(40));             // Evicts b, the LRU.

    const MemoCacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_LE(stats.bytes, 100u);
    EXPECT_EQ(cache.tryGet("b"), nullptr);
    EXPECT_NE(cache.tryGet("a"), nullptr);
    EXPECT_NE(cache.tryGet("c"), nullptr);
}

// ------------------------------------------- decoded-trace streams

TEST(DecodedTraceTest, CursorReplaysTheFileStreamExactly)
{
    const WorkloadPreset recorded = tinyPreset("decoded-eq", 17);
    const std::string path = "/tmp/shotgun_test_decoded_eq.trace";
    Program prog(recorded.program);
    TraceGenerator gen(prog, 23);
    recordTraceInstructions(gen, recorded, 23, path, 40000);

    auto decoded = decodedTraces().acquire(path);
    ASSERT_NE(decoded, nullptr);
    DecodedTraceCursor cursor(decoded);
    TraceFileSource file(path);

    BBRecord from_cursor, from_file;
    std::uint64_t records = 0;
    for (;;) {
        const bool more_cursor = cursor.next(from_cursor);
        const bool more_file = file.next(from_file);
        ASSERT_EQ(more_cursor, more_file);
        if (!more_cursor)
            break;
        ASSERT_EQ(from_cursor.startAddr, from_file.startAddr);
        ASSERT_EQ(from_cursor.target, from_file.target);
        ASSERT_EQ(from_cursor.numInstrs, from_file.numInstrs);
        ASSERT_EQ(from_cursor.type, from_file.type);
        ASSERT_EQ(from_cursor.taken, from_file.taken);
        ++records;
    }
    EXPECT_EQ(records, cursor.totalRecords());

    // seekToRecord is the checkpoint-restore reposition: the replay
    // from a mid-stream record must equal a fresh cursor's suffix.
    const std::uint64_t mid = records / 2;
    cursor.seekToRecord(mid);
    DecodedTraceCursor fresh(decoded);
    BBRecord expect;
    for (std::uint64_t i = 0; i < mid; ++i)
        ASSERT_TRUE(fresh.next(expect));
    while (fresh.next(expect)) {
        ASSERT_TRUE(cursor.next(from_cursor));
        ASSERT_EQ(from_cursor.startAddr, expect.startAddr);
    }
    EXPECT_FALSE(cursor.next(from_cursor));

    std::remove(path.c_str());
}

TEST(DecodedTraceTest, SecondAcquireSharesTheDecode)
{
    const WorkloadPreset recorded = tinyPreset("decoded-share", 19);
    const std::string path = "/tmp/shotgun_test_decoded_share.trace";
    Program prog(recorded.program);
    TraceGenerator gen(prog, 29);
    recordTraceInstructions(gen, recorded, 29, path, 30000);

    const std::size_t decodes_before = decodedTraces().stats().decodes;
    auto first = decodedTraces().acquire(path);
    auto second = decodedTraces().acquire(path);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(decodedTraces().stats().decodes, decodes_before + 1);

    std::remove(path.c_str());
}

// ------------------------------------------------------ end to end

TEST(CoreCheckpointTest, RestoredRunMatchesUninterrupted)
{
    // First run warms from scratch and parks a checkpoint; second run
    // restores it. Identical results prove the save/restore round
    // trip is trajectory-invisible -- the property every other reuse
    // in this file builds on.
    const WorkloadPreset preset = tinyPreset("ckpt-restore", 31);
    const SimConfig config = quickConfig(preset, SchemeType::Shotgun);

    const MemoCacheStats before = checkpointCache().stats();
    const SimResult cold = runSimulation(config, WarmState::Park);
    const SimResult warm = runSimulation(config, WarmState::Park);
    const MemoCacheStats after = checkpointCache().stats();

    expectIdentical(cold, warm);
    EXPECT_EQ(after.misses, before.misses + 1);
    EXPECT_EQ(after.hits, before.hits + 1);
}

TEST(CoreCheckpointTest, WindowedRunSharesTheMonolithicCheckpoint)
{
    // A monolithic run and the windows of a contiguous plan share one
    // checkpoint key (same warmup, skip = 0): the monolithic run
    // warms once, every window restores, and the stitched result is
    // still byte-identical to the monolithic one.
    const WorkloadPreset preset = tinyPreset("ckpt-window", 37);
    const runner::Experiment exp =
        experimentFor(preset, SchemeType::Shotgun);

    const MemoCacheStats before = checkpointCache().stats();
    const SimResult mono = runSimulation(exp.config, WarmState::Park);

    const window::WindowedOutcome outcome =
        window::runWindowedExperiment(
            exp, window::contiguousPlan(exp.config, 3), 3);
    const MemoCacheStats after = checkpointCache().stats();

    expectIdentical(outcome.stitched, mono);
    EXPECT_EQ(after.misses, before.misses + 1); // The monolithic run.
    EXPECT_EQ(after.hits, before.hits + 3);     // Every window.
}

TEST(CohortGridTest, BatchedGridMatchesPointAtATime)
{
    // The tentpole contract: a multi-scheme grid run through the
    // cohort-scheduling runner (parallel, leaders warming, followers
    // restoring) emits exactly what a sequential point-at-a-time
    // loop does.
    const WorkloadPreset preset = tinyPreset("cohort-grid", 41);

    std::vector<runner::Experiment> grid;
    std::vector<SimResult> sequential;
    for (SchemeType type : kGridSchemes)
        grid.push_back(experimentFor(preset, type));
    const MemoCacheStats before = checkpointCache().stats();
    for (const runner::Experiment &exp : grid)
        sequential.push_back(runSimulation(exp.config, WarmState::Park));

    runner::RunnerOptions options;
    options.jobs = 3;
    const std::vector<SimResult> batched =
        runner::ExperimentRunner(options).run(grid);
    const MemoCacheStats after = checkpointCache().stats();

    ASSERT_EQ(batched.size(), sequential.size());
    for (std::size_t i = 0; i < batched.size(); ++i)
        expectIdentical(batched[i], sequential[i]);

    // Each scheme has its own key (warmed state is scheme-visible):
    // the sequential pass warmed each once, the batched pass
    // restored each -- zero re-warms.
    const std::size_t schemes = grid.size();
    EXPECT_EQ(after.misses, before.misses + schemes);
    EXPECT_EQ(after.hits, before.hits + schemes);
}

TEST(CohortGridTest, TraceGridDecodesOnceAndMatches)
{
    // trace: variant of the same contract, plus the shared-decode
    // half of the tentpole: 6 schemes x (sequential + batched) = 12
    // replays of one file, exactly one decode.
    const WorkloadPreset recorded = tinyPreset("cohort-trace", 43);
    const std::string path = "/tmp/shotgun_test_cohort.trace";
    Program prog(recorded.program);
    TraceGenerator gen(prog, 47);
    recordTraceInstructions(gen, recorded, 47, path,
                            kWarmup + kMeasure + 20000);
    writeTraceIndex(traceIndexPath(path),
                    buildTraceIndex(path, 1024));

    const WorkloadPreset preset = presetByName("trace:" + path);
    std::vector<runner::Experiment> grid;
    for (SchemeType type : kGridSchemes)
        grid.push_back(experimentFor(preset, type));

    const std::size_t decodes_before = decodedTraces().stats().decodes;
    std::vector<SimResult> sequential;
    for (const runner::Experiment &exp : grid)
        sequential.push_back(runSimulation(exp.config, WarmState::Park));

    runner::RunnerOptions options;
    options.jobs = 3;
    const std::vector<SimResult> batched =
        runner::ExperimentRunner(options).run(grid);

    ASSERT_EQ(batched.size(), sequential.size());
    for (std::size_t i = 0; i < batched.size(); ++i)
        expectIdentical(batched[i], sequential[i]);
    EXPECT_EQ(decodedTraces().stats().decodes, decodes_before + 1);

    std::remove(traceIndexPath(path).c_str());
    std::remove(path.c_str());
}

// ------------------------------------------------- who parks

TEST(CheckpointParkingTest, DirectRunsParkNothing)
{
    // A direct run has no follower to restore its warmed state, so
    // two runs of one key both warm up and neither parks a clone.
    const WorkloadPreset preset = tinyPreset("park-direct", 53);
    const SimConfig config = quickConfig(preset, SchemeType::Shotgun);

    const MemoCacheStats before = checkpointCache().stats();
    const SimResult first = runSimulation(config);
    const SimResult second = runSimulation(config);
    const MemoCacheStats after = checkpointCache().stats();

    expectIdentical(first, second);
    EXPECT_EQ(after.entries, before.entries);
    EXPECT_EQ(after.misses, before.misses + 2);
    EXPECT_EQ(after.hits, before.hits);
}

TEST(CheckpointParkingTest, GridParksOnlyForACohortWithFollowers)
{
    // Five singleton schemes plus a three-point Shotgun cohort (one
    // key, three measure lengths): only the cohort's leader parks,
    // and its two followers restore it.
    const WorkloadPreset preset = tinyPreset("park-grid", 59);
    std::vector<runner::Experiment> grid;
    for (SchemeType type : kGridSchemes) {
        if (type != SchemeType::Shotgun)
            grid.push_back(experimentFor(preset, type));
    }
    const std::size_t singletons = grid.size();
    for (std::uint64_t measure : {kMeasure, kMeasure / 2, kMeasure / 5}) {
        runner::Experiment exp =
            experimentFor(preset, SchemeType::Shotgun);
        exp.config.measureInstructions = measure;
        grid.push_back(exp);
    }

    runner::RunnerOptions options;
    options.jobs = 3;
    const MemoCacheStats before = checkpointCache().stats();
    const std::vector<SimResult> batched =
        runner::ExperimentRunner(options).run(grid);
    const MemoCacheStats after = checkpointCache().stats();

    EXPECT_EQ(after.entries, before.entries + 1);
    EXPECT_EQ(after.misses, before.misses + singletons + 1);
    EXPECT_EQ(after.hits, before.hits + 2);

    ASSERT_EQ(batched.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
        expectIdentical(batched[i], runSimulation(grid[i].config));
}

} // namespace
} // namespace shotgun
