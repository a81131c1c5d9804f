/**
 * @file
 * Integration and property tests of the full simulator: the paper's
 * qualitative results, asserted as invariants over small runs --
 * ideal bounds everything, prefetchers beat the baseline, Shotgun
 * beats Boomerang with the gap growing with BTB pressure, budget
 * monotonicity, and determinism. Parameterized suites sweep the six
 * workloads.
 */

#include <gtest/gtest.h>

#include "sim/simulator.hh"

namespace shotgun
{
namespace
{

constexpr std::uint64_t kWarmup = 300000;
constexpr std::uint64_t kMeasure = 700000;

SimResult
quickRun(const WorkloadPreset &preset, SchemeType type)
{
    SimConfig config = SimConfig::make(preset, type);
    config.warmupInstructions = kWarmup;
    config.measureInstructions = kMeasure;
    return runSimulation(config);
}

class WorkloadSweep : public ::testing::TestWithParam<WorkloadId>
{
};

TEST_P(WorkloadSweep, IdealBoundsEveryScheme)
{
    const auto preset = makePreset(GetParam());
    const SimResult ideal = quickRun(preset, SchemeType::Ideal);
    for (SchemeType type :
         {SchemeType::Baseline, SchemeType::FDIP, SchemeType::Boomerang,
          SchemeType::Confluence, SchemeType::Shotgun}) {
        const SimResult r = quickRun(preset, type);
        EXPECT_LE(r.ipc, ideal.ipc * 1.02)
            << schemeTypeName(type) << " beats ideal";
    }
}

TEST_P(WorkloadSweep, PrefetchersBeatBaseline)
{
    const auto preset = makePreset(GetParam());
    const SimResult base =
        baselineFor(preset, kWarmup, kMeasure);
    for (SchemeType type : {SchemeType::FDIP, SchemeType::Boomerang,
                            SchemeType::Confluence,
                            SchemeType::Shotgun}) {
        const SimResult r = quickRun(preset, type);
        EXPECT_GT(speedup(r, base), 1.0) << schemeTypeName(type);
        EXPECT_GT(stallCoverage(r, base), 0.0) << schemeTypeName(type);
    }
}

TEST_P(WorkloadSweep, ShotgunReducesL1IMisses)
{
    const auto preset = makePreset(GetParam());
    const SimResult base = baselineFor(preset, kWarmup, kMeasure);
    const SimResult shot = quickRun(preset, SchemeType::Shotgun);
    EXPECT_LT(shot.l1iMPKI, base.l1iMPKI);
}

TEST_P(WorkloadSweep, IdealHasNoFrontEndStalls)
{
    const auto preset = makePreset(GetParam());
    const SimResult ideal = quickRun(preset, SchemeType::Ideal);
    EXPECT_EQ(ideal.stalls.icache, 0u);
    EXPECT_EQ(ideal.stalls.pfWait, 0u);
    EXPECT_EQ(ideal.stalls.btb, 0u);
    EXPECT_EQ(ideal.frontEndStallCycles, 0u);
    EXPECT_EQ(ideal.btbMPKI, 0.0);
    EXPECT_EQ(ideal.l1iMPKI, 0.0);
}

TEST_P(WorkloadSweep, DeterministicAcrossRuns)
{
    const auto preset = makePreset(GetParam());
    const SimResult a = quickRun(preset, SchemeType::Shotgun);
    const SimResult b = quickRun(preset, SchemeType::Shotgun);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.frontEndStallCycles, b.frontEndStallCycles);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
}

TEST_P(WorkloadSweep, CycleBreakdownIsConsistent)
{
    const auto preset = makePreset(GetParam());
    const SimResult r = quickRun(preset, SchemeType::Boomerang);
    // Every cycle is charged to exactly one cause, and the front-end
    // stall cycles are the backend-starved part of three of them.
    EXPECT_EQ(r.stalls.total(), r.cycles);
    EXPECT_LE(r.frontEndStallCycles,
              r.stalls.icache + r.stalls.pfWait + r.stalls.btb);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadSweep,
    ::testing::Values(WorkloadId::Nutch, WorkloadId::Streaming,
                      WorkloadId::Apache, WorkloadId::Zeus,
                      WorkloadId::Oracle, WorkloadId::DB2),
    [](const ::testing::TestParamInfo<WorkloadId> &info) {
        return std::string(workloadName(info.param));
    });

// ---------------------------------------------------------------------
// Paper-shape properties on the interesting workloads
// ---------------------------------------------------------------------

TEST(PaperShapeTest, ShotgunBeatsBoomerangOnHighMPKIWorkloads)
{
    // The headline claim (Sec 6.1/6.2): Shotgun's advantage over
    // Boomerang is largest where BTB misses are frequent.
    for (WorkloadId id : {WorkloadId::Oracle, WorkloadId::DB2,
                          WorkloadId::Apache}) {
        const auto preset = makePreset(id);
        const SimResult base = baselineFor(preset, kWarmup, kMeasure);
        const SimResult boom = quickRun(preset, SchemeType::Boomerang);
        const SimResult shot = quickRun(preset, SchemeType::Shotgun);
        EXPECT_GT(speedup(shot, base), speedup(boom, base))
            << workloadName(id);
        EXPECT_GT(stallCoverage(shot, base), stallCoverage(boom, base))
            << workloadName(id);
    }
}

TEST(PaperShapeTest, BoomerangGapGrowsWithBTBMPKI)
{
    // Nutch (2.5 MPKI) should show a much smaller Shotgun-vs-
    // Boomerang gap than Oracle (45 MPKI).
    const auto nutch = makePreset(WorkloadId::Nutch);
    const auto oracle = makePreset(WorkloadId::Oracle);
    const SimResult nutch_base = baselineFor(nutch, kWarmup, kMeasure);
    const SimResult oracle_base = baselineFor(oracle, kWarmup, kMeasure);
    const double nutch_gap =
        speedup(quickRun(nutch, SchemeType::Shotgun), nutch_base) -
        speedup(quickRun(nutch, SchemeType::Boomerang), nutch_base);
    const double oracle_gap =
        speedup(quickRun(oracle, SchemeType::Shotgun), oracle_base) -
        speedup(quickRun(oracle, SchemeType::Boomerang), oracle_base);
    EXPECT_GT(oracle_gap, nutch_gap);
}

TEST(PaperShapeTest, EightBitVectorBeatsNoBitVector)
{
    // Fig 8/9: spatial footprints are the point of the paper.
    const auto preset = makePreset(WorkloadId::DB2);
    const SimResult base = baselineFor(preset, kWarmup, kMeasure);

    auto run_mode = [&](FootprintMode mode) {
        SimConfig config = SimConfig::make(preset, SchemeType::Shotgun);
        config.scheme.shotgun = ShotgunBTBConfig::forMode(mode);
        config.warmupInstructions = kWarmup;
        config.measureInstructions = kMeasure;
        return runSimulation(config);
    };

    const SimResult none = run_mode(FootprintMode::NoBitVector);
    const SimResult bits8 = run_mode(FootprintMode::BitVector8);
    EXPECT_GT(speedup(bits8, base), speedup(none, base));
}

TEST(PaperShapeTest, OverPrefetchingHurtsAccuracy)
{
    // Fig 10: the 8-bit vector is markedly more accurate than both
    // indiscriminate mechanisms.
    const auto preset = makePreset(WorkloadId::Streaming);
    auto run_mode = [&](FootprintMode mode) {
        SimConfig config = SimConfig::make(preset, SchemeType::Shotgun);
        config.scheme.shotgun = ShotgunBTBConfig::forMode(mode);
        config.warmupInstructions = kWarmup;
        config.measureInstructions = kMeasure;
        return runSimulation(config).prefetchAccuracy;
    };
    const double bits8 = run_mode(FootprintMode::BitVector8);
    const double five = run_mode(FootprintMode::FiveBlocks);
    EXPECT_GT(bits8, five);
}

TEST(PaperShapeTest, OverPrefetchingInflatesL1DFills)
{
    // Fig 11: 5-blocks raises the average L1-D fill latency.
    const auto preset = makePreset(WorkloadId::DB2);
    auto run_mode = [&](FootprintMode mode) {
        SimConfig config = SimConfig::make(preset, SchemeType::Shotgun);
        config.scheme.shotgun = ShotgunBTBConfig::forMode(mode);
        config.warmupInstructions = kWarmup;
        config.measureInstructions = kMeasure;
        return runSimulation(config).avgL1DFillCycles;
    };
    EXPECT_GT(run_mode(FootprintMode::FiveBlocks),
              run_mode(FootprintMode::BitVector8));
}

class BudgetSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(BudgetSweep, ShotgunBeatsBoomerangAtEqualBudget)
{
    // Fig 13 on DB2, per budget point.
    const auto preset = makePreset(WorkloadId::DB2);
    const SimResult base = baselineFor(preset, kWarmup, kMeasure);

    SimConfig boom = SimConfig::make(preset, SchemeType::Boomerang);
    boom.scheme.conventionalEntries = GetParam();
    boom.warmupInstructions = kWarmup;
    boom.measureInstructions = kMeasure;

    SimConfig shot = SimConfig::make(preset, SchemeType::Shotgun);
    shot.scheme.shotgun = ShotgunBTBConfig::forBudgetOf(GetParam());
    shot.warmupInstructions = kWarmup;
    shot.measureInstructions = kMeasure;

    EXPECT_GE(speedup(runSimulation(shot), base),
              speedup(runSimulation(boom), base) * 0.995);
}

INSTANTIATE_TEST_SUITE_P(Budgets, BudgetSweep,
                         ::testing::Values(512, 1024, 2048, 4096, 8192));

// ---------------------------------------------------------------------
// Simulator driver plumbing
// ---------------------------------------------------------------------

TEST(SimDriverTest, ProgramCacheReturnsSameInstance)
{
    const auto preset = makePreset(WorkloadId::Nutch);
    const Program &a = programFor(preset);
    const Program &b = programFor(preset);
    EXPECT_EQ(&a, &b);
}

TEST(SimDriverTest, BaselineMemoized)
{
    const auto preset = makePreset(WorkloadId::Nutch);
    const SimResult a = baselineFor(preset, kWarmup, kMeasure);
    const SimResult b = baselineFor(preset, kWarmup, kMeasure);
    EXPECT_EQ(a.cycles, b.cycles);
}

TEST(SimDriverTest, SpeedupAndCoverageMath)
{
    SimResult base;
    base.ipc = 1.0;
    base.frontEndStallCycles = 1000;
    base.instructions = 10000;
    SimResult better;
    better.ipc = 1.25;
    better.frontEndStallCycles = 250;
    better.instructions = 10000;
    EXPECT_DOUBLE_EQ(speedup(better, base), 1.25);
    EXPECT_DOUBLE_EQ(stallCoverage(better, base), 0.75);
}

TEST(SimDriverTest, ResultMetadataFilled)
{
    const auto preset = makePreset(WorkloadId::Nutch);
    const SimResult r = quickRun(preset, SchemeType::Shotgun);
    EXPECT_EQ(r.workload, "nutch");
    EXPECT_EQ(r.scheme, "shotgun");
    EXPECT_GE(r.instructions, kMeasure);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.schemeStorageBits, 0u);
}

} // namespace
} // namespace shotgun
