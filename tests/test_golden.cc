/**
 * @file
 * Golden trajectory fingerprints. Each case pins the FNV-1a hash of
 * the canonical SimResult encoding (service::encodeSimResult, the
 * hash perfbench prints) for a short simulation. Any change to the
 * simulated trajectory -- one cycle, one stall charged to a different
 * cause, one retire credit rounded differently -- moves a hash.
 *
 * The values were captured before the host-time optimisations of the
 * core loop (idle-cycle fast-forward, block predecode index, templated
 * fill drain), so they are the reference those optimisations are
 * checked against: there is no second, step-by-step path to compare
 * with at run time. A deliberate model change re-pins them
 * and says so in CHANGES.md.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/json.hh"
#include "core/shotgun.hh"
#include "cpu/core.hh"
#include "prefetch/baseline.hh"
#include "prefetch/factory.hh"
#include "runner/experiment.hh"
#include "service/codec.hh"
#include "sim/simulator.hh"
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

constexpr std::uint64_t kWarmup = 40000;
constexpr std::uint64_t kMeasure = 100000;

std::string
fingerprint(const SimResult &result)
{
    return service::fingerprintHex(
        json::fnv1a64(service::encodeSimResult(result).dump()));
}

SimConfig
shortConfig(WorkloadId workload, SchemeType type, bool probes)
{
    SimConfig config = SimConfig::make(makePreset(workload), type);
    config.warmupInstructions = kWarmup;
    config.measureInstructions = kMeasure;
    config.core.uarchProbes = probes;
    return config;
}

struct Golden
{
    WorkloadId workload;
    SchemeType scheme;
    bool probes;
    const char *fingerprint;
};

// clang-format off
const Golden kGolden[] = {
    {WorkloadId::Nutch, SchemeType::Baseline, false, "05a220e23f6dfd4d"},
    {WorkloadId::Nutch, SchemeType::FDIP, false, "029972ae26d75568"},
    {WorkloadId::Nutch, SchemeType::Boomerang, false, "21e9e1dd16ee5325"},
    {WorkloadId::Nutch, SchemeType::Confluence, false, "5d4ae1598ab87340"},
    {WorkloadId::Nutch, SchemeType::Shotgun, false, "95e82f069d2ea59d"},
    {WorkloadId::Nutch, SchemeType::RDIP, false, "cedae51c345a3b58"},
    {WorkloadId::Nutch, SchemeType::Ideal, false, "1035af48436933a1"},
    {WorkloadId::Nutch, SchemeType::Baseline, true, "dd491f343825f019"},
    {WorkloadId::Nutch, SchemeType::FDIP, true, "ff49901a19b64d3d"},
    {WorkloadId::Nutch, SchemeType::Boomerang, true, "aaaef7dc7ecc6fe3"},
    {WorkloadId::Nutch, SchemeType::Confluence, true, "20104d2ad035e436"},
    {WorkloadId::Nutch, SchemeType::Shotgun, true, "741b3f847cd9caab"},
    {WorkloadId::Nutch, SchemeType::RDIP, true, "6dc07d7a56e44285"},
    {WorkloadId::Nutch, SchemeType::Ideal, true, "d6a79ae07e105aae"},
    {WorkloadId::Oracle, SchemeType::Baseline, false, "b9d912ab362b1a64"},
    {WorkloadId::Oracle, SchemeType::FDIP, false, "39e7c1ed5f4effc7"},
    {WorkloadId::Oracle, SchemeType::Boomerang, false, "b32e605e533836ae"},
    {WorkloadId::Oracle, SchemeType::Confluence, false, "9343aff959d69d16"},
    {WorkloadId::Oracle, SchemeType::Shotgun, false, "2c2a43db4aa64be4"},
    {WorkloadId::Oracle, SchemeType::RDIP, false, "1479b92026166a58"},
    {WorkloadId::Oracle, SchemeType::Ideal, false, "39ae8e754897a9e6"},
    {WorkloadId::Oracle, SchemeType::Baseline, true, "8a442beca0c49299"},
    {WorkloadId::Oracle, SchemeType::FDIP, true, "09077e35a2aa84d4"},
    {WorkloadId::Oracle, SchemeType::Boomerang, true, "048a8416fd00cb07"},
    {WorkloadId::Oracle, SchemeType::Confluence, true, "27e5865775db3785"},
    {WorkloadId::Oracle, SchemeType::Shotgun, true, "79e727a68d6e6f48"},
    {WorkloadId::Oracle, SchemeType::RDIP, true, "8c5f058de3b8f3af"},
    {WorkloadId::Oracle, SchemeType::Ideal, true, "faa2e65adec8b66f"},
};
// clang-format on

TEST(GoldenTrajectoryTest, EverySchemeOnTwoPresetsProbesOffAndOn)
{
    for (const Golden &g : kGolden) {
        const SimResult result =
            runSimulation(shortConfig(g.workload, g.scheme, g.probes));
        EXPECT_EQ(fingerprint(result), g.fingerprint)
            << result.workload << "/" << result.scheme
            << (g.probes ? " probes on" : " probes off");
    }
}

TEST(GoldenTrajectoryTest, LongDataStallsWithoutShortCreditPeriod)
{
    // Every load misses the L1-D and retire credit accrues at a rate
    // whose fractional part has no short period, so long data stalls
    // interleave with irregular retire bursts.
    SimConfig config =
        shortConfig(WorkloadId::Nutch, SchemeType::Shotgun, false);
    config.core.issueEfficiency = 0.37;
    config.workload.l1dMissRate = 1.0;
    EXPECT_EQ(fingerprint(runSimulation(config)), "8822773a8919b823");

    config.core.uarchProbes = true;
    EXPECT_EQ(fingerprint(runSimulation(config)), "4669a57eaf4c3b0a");
}

TEST(GoldenTrajectoryTest, RecordedTraceContiguousWindowsStitched)
{
    WorkloadPreset recorded = makePreset(WorkloadId::Nutch);
    recorded.name = "golden-trace";
    const std::string path =
        testing::TempDir() + "shotgun_golden_windows.trace";
    Program program(recorded.program);
    TraceGenerator gen(program, 5);
    recordTraceInstructions(gen, recorded, 5, path,
                            kWarmup + kMeasure + 20000);
    writeTraceIndex(traceIndexPath(path), buildTraceIndex(path, 1024));

    const WorkloadPreset preset = presetByName("trace:" + path);
    runner::Experiment exp;
    exp.workload = preset.name;
    exp.label = "shotgun";
    exp.config = SimConfig::make(preset, SchemeType::Shotgun);
    exp.config.warmupInstructions = kWarmup;
    exp.config.measureInstructions = kMeasure;
    const window::WindowedOutcome outcome = window::runWindowedExperiment(
        exp, window::contiguousPlan(exp.config, 4), 2);
    EXPECT_EQ(fingerprint(outcome.stitched), "06598a77245176ad");

    std::remove(traceIndexPath(path).c_str());
    std::remove(path.c_str());
}

// Exact instruction and cycle counts of full-length runs (nutch, 500K
// warm-up + 2M measured), where the fingerprints above stop at 140K
// instructions. The six-scheme grid runs the one-pass pipeline
// (shared decode, warmed checkpoints, cohort scheduling) end to end;
// its total counts every point's warm-up as simulated work. Tracing
// and probes are not re-run here: TracingInvisibilityTest
// (test_obs.cc) and the probes-on cases of kGolden pin that they
// cannot move a count.
constexpr std::uint64_t kLongWarmup = 500000;
constexpr std::uint64_t kLongMeasure = 2000000;

SimConfig
longConfig(const WorkloadPreset &preset, SchemeType type)
{
    SimConfig config = SimConfig::make(preset, type);
    config.warmupInstructions = kLongWarmup;
    config.measureInstructions = kLongMeasure;
    return config;
}

TEST(GoldenCountsTest, BaselineAndShotgunAtFullLength)
{
    const WorkloadPreset nutch = makePreset(WorkloadId::Nutch);
    const SimResult baseline =
        runSimulation(longConfig(nutch, SchemeType::Baseline));
    EXPECT_EQ(baseline.instructions, 2000000u);
    EXPECT_EQ(baseline.cycles, 1631596u);

    const SimResult shotgun =
        runSimulation(longConfig(nutch, SchemeType::Shotgun));
    EXPECT_EQ(shotgun.instructions, 2000001u);
    EXPECT_EQ(shotgun.cycles, 1494843u);
}

// Structure operation counts of full-length runs (oracle, 500K
// warm-up + 2M measured, no stats reset in between), read from the
// counters the structures already keep. They pin how much work each
// front-end structure does per simulated instruction, independently
// of host speed: a host-time change that keeps the trajectory must
// leave every count as it is, and one that skips or repeats a
// structure operation moves one.
struct OpCounts
{
    std::uint64_t blocksDecoded = 0;
    std::uint64_t l1iAccesses = 0, l1iFills = 0;
    std::uint64_t llcAccesses = 0, llcFills = 0;
    std::uint64_t prefetchesIssued = 0;
    std::uint64_t btbLookups = 0; ///< Conventional BTB (baseline).
    std::uint64_t bufferInserts = 0, bufferHits = 0, bufferEvictions = 0;
    std::uint64_t cbtbLookups = 0, cbtbPrefills = 0;
    std::uint64_t ubtbLookups = 0, ribLookups = 0;
};

OpCounts
opCounts(SchemeType type)
{
    const WorkloadPreset oracle = makePreset(WorkloadId::Oracle);
    const SimConfig config = longConfig(oracle, type);
    const Program &program = programFor(oracle);
    TraceGenerator gen(program, config.traceSeed);
    CoreParams core_params = config.core;
    core_params.loadFrac = oracle.loadFrac;
    core_params.l1dMissRate = oracle.l1dMissRate;
    core_params.llcDataMissFrac = oracle.llcDataMissFrac;
    core_params.dataSeed =
        mix64(config.traceSeed ^ mix64(oracle.program.seed));
    HierarchyParams hierarchy;
    hierarchy.mesh.backgroundLoad = oracle.backgroundLoad;
    Core core(program, gen, core_params, hierarchy, config.scheme);
    core.run(kLongWarmup + kLongMeasure);

    OpCounts c;
    c.blocksDecoded = core.predecoder().blocksDecoded();
    c.l1iAccesses = core.mem().l1i().accesses();
    c.l1iFills = core.mem().l1i().fills();
    c.llcAccesses = core.mem().llc().accesses();
    c.llcFills = core.mem().llc().fills();
    c.prefetchesIssued = core.mem().prefetchesIssued();
    if (auto *base = dynamic_cast<BaselineScheme *>(&core.scheme()))
        c.btbLookups = base->btb().lookups();
    if (auto *shot = dynamic_cast<ShotgunScheme *>(&core.scheme())) {
        c.bufferInserts = shot->prefetchBuffer().inserts();
        c.bufferHits = shot->prefetchBuffer().hits();
        c.bufferEvictions = shot->prefetchBuffer().evictions();
        c.cbtbLookups = shot->btbs().cbtb().lookups();
        c.cbtbPrefills = shot->btbs().cbtb().prefills();
        c.ubtbLookups = shot->btbs().ubtb().lookups();
        c.ribLookups = shot->btbs().rib().lookups();
    }
    return c;
}

void
expectOpCounts(const OpCounts &got, const OpCounts &want)
{
    EXPECT_EQ(got.blocksDecoded, want.blocksDecoded);
    EXPECT_EQ(got.l1iAccesses, want.l1iAccesses);
    EXPECT_EQ(got.l1iFills, want.l1iFills);
    EXPECT_EQ(got.llcAccesses, want.llcAccesses);
    EXPECT_EQ(got.llcFills, want.llcFills);
    EXPECT_EQ(got.prefetchesIssued, want.prefetchesIssued);
    EXPECT_EQ(got.btbLookups, want.btbLookups);
    EXPECT_EQ(got.bufferInserts, want.bufferInserts);
    EXPECT_EQ(got.bufferHits, want.bufferHits);
    EXPECT_EQ(got.bufferEvictions, want.bufferEvictions);
    EXPECT_EQ(got.cbtbLookups, want.cbtbLookups);
    EXPECT_EQ(got.cbtbPrefills, want.cbtbPrefills);
    EXPECT_EQ(got.ubtbLookups, want.ubtbLookups);
    EXPECT_EQ(got.ribLookups, want.ribLookups);
}

TEST(GoldenOpCountsTest, OracleBaselineAndShotgun)
{
    OpCounts baseline;
    baseline.l1iAccesses = 588822;
    baseline.l1iFills = 102781;
    baseline.llcAccesses = 102781;
    baseline.llcFills = 5281;
    baseline.btbLookups = 362530;
    {
        SCOPED_TRACE("baseline");
        expectOpCounts(opCounts(SchemeType::Baseline), baseline);
    }

    OpCounts shotgun;
    shotgun.blocksDecoded = 284480;
    shotgun.l1iAccesses = 516931;
    shotgun.l1iFills = 117169;
    shotgun.llcAccesses = 117172;
    shotgun.llcFills = 6816;
    shotgun.prefetchesIssued = 114422;
    shotgun.bufferInserts = 230141;
    shotgun.bufferHits = 5870;
    shotgun.bufferEvictions = 133456;
    shotgun.cbtbLookups = 315954;
    shotgun.cbtbPrefills = 393318;
    shotgun.ubtbLookups = 402017;
    shotgun.ribLookups = 350646;
    {
        SCOPED_TRACE("shotgun");
        expectOpCounts(opCounts(SchemeType::Shotgun), shotgun);
    }
}

TEST(GoldenCountsTest, SixSchemeGridOverRecordedTrace)
{
    const WorkloadPreset nutch = makePreset(WorkloadId::Nutch);
    const std::string path =
        testing::TempDir() + "shotgun_golden_grid.trace";
    const std::uint64_t seed =
        longConfig(nutch, SchemeType::Baseline).traceSeed;
    Program program(nutch.program);
    TraceGenerator gen(program, seed);
    recordTraceInstructions(gen, nutch, seed, path,
                            kLongWarmup + kLongMeasure + 10000);
    writeTraceIndex(traceIndexPath(path), buildTraceIndex(path, 4096));

    const WorkloadPreset replay = presetByName("trace:" + path);
    std::vector<runner::Experiment> grid;
    for (const SchemeType type :
         {SchemeType::Baseline, SchemeType::FDIP, SchemeType::Boomerang,
          SchemeType::Confluence, SchemeType::Shotgun,
          SchemeType::RDIP}) {
        runner::Experiment exp;
        exp.workload = replay.name;
        exp.config = longConfig(replay, type);
        exp.label = schemeTypeName(type);
        grid.push_back(std::move(exp));
    }
    std::uint64_t instructions = 0, cycles = 0;
    for (const SimResult &result : runner::ExperimentRunner{}.run(grid)) {
        instructions += kLongWarmup + result.instructions;
        cycles += result.cycles;
    }
    EXPECT_EQ(instructions, 15000005u);
    EXPECT_EQ(cycles, 9094948u);

    std::remove(traceIndexPath(path).c_str());
    std::remove(path.c_str());
}

} // namespace
} // namespace shotgun
