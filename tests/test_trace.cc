/**
 * @file
 * Tests for the synthetic program model, the trace generator and
 * trace serialization: structural invariants of the program image,
 * stream invariants of the dynamic trace, determinism, and the
 * statistical properties the paper's workloads rely on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "sim/simulator.hh"
#include "trace/decoded_trace.hh"
#include "trace/generator.hh"
#include "trace/presets.hh"
#include "trace/program.hh"
#include "trace/trace_io.hh"

namespace shotgun
{
namespace
{

ProgramParams
smallParams(std::uint64_t seed = 7)
{
    ProgramParams p;
    p.name = "test";
    p.numFuncs = 200;
    p.numOsFuncs = 40;
    p.numTrapHandlers = 8;
    p.numTopLevel = 8;
    p.seed = seed;
    return p;
}

TEST(ProgramTest, BuildsRequestedFunctionCounts)
{
    const auto params = smallParams();
    Program prog(params);
    EXPECT_EQ(prog.numFunctions(),
              params.numTopLevel + params.numFuncs + params.numOsFuncs);
    EXPECT_EQ(prog.topLevelFuncs().size(), params.numTopLevel);
    EXPECT_EQ(prog.trapHandlers().size(), params.numTrapHandlers);
    EXPECT_GT(prog.codeBytes(), 0u);
    EXPECT_GT(prog.numStaticBranches(), 0u);
}

TEST(ProgramTest, FunctionsDoNotOverlap)
{
    Program prog(smallParams());
    std::vector<std::pair<Addr, Addr>> spans;
    for (const auto &fn : prog.functions())
        spans.emplace_back(fn.entry, fn.entry + fn.sizeBytes);
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i)
        EXPECT_LE(spans[i - 1].second, spans[i].first);
}

TEST(ProgramTest, BBsAreContiguousWithinFunction)
{
    Program prog(smallParams());
    for (const auto &fn : prog.functions()) {
        Addr expect = fn.entry;
        for (std::uint32_t i = 0; i < fn.numBBs; ++i) {
            const StaticBB &bb = prog.bb(fn.firstBB + i);
            EXPECT_EQ(bb.startAddr, expect);
            expect += bb.numInstrs * kInstrBytes;
        }
        EXPECT_EQ(expect, fn.entry + fn.sizeBytes);
    }
}

TEST(ProgramTest, LastBBIsReturn)
{
    Program prog(smallParams());
    for (const auto &fn : prog.functions()) {
        const StaticBB &last = prog.bb(fn.firstBB + fn.numBBs - 1);
        if (fn.isHandler)
            EXPECT_EQ(last.type, BranchType::TrapReturn);
        else
            EXPECT_EQ(last.type, BranchType::Return);
    }
}

TEST(ProgramTest, BranchTargetsStayInsideFunction)
{
    Program prog(smallParams());
    for (const auto &fn : prog.functions()) {
        for (std::uint32_t i = 0; i < fn.numBBs; ++i) {
            const StaticBB &bb = prog.bb(fn.firstBB + i);
            if (bb.type == BranchType::Conditional ||
                bb.type == BranchType::Jump) {
                EXPECT_GE(bb.targetBB, fn.firstBB);
                EXPECT_LT(bb.targetBB, fn.firstBB + fn.numBBs);
                EXPECT_GE(bb.targetAddr, fn.entry);
                EXPECT_LT(bb.targetAddr, fn.entry + fn.sizeBytes);
            }
        }
    }
}

TEST(ProgramTest, CallGraphIsAcyclicByLevel)
{
    Program prog(smallParams());
    for (const auto &fn : prog.functions()) {
        for (std::uint32_t i = 0; i < fn.numBBs; ++i) {
            const StaticBB &bb = prog.bb(fn.firstBB + i);
            if (bb.type == BranchType::Call) {
                const Function &callee = prog.function(bb.callee);
                EXPECT_LT(callee.level, fn.level)
                    << "call must target a strictly lower level";
                EXPECT_EQ(callee.isOs, fn.isOs)
                    << "plain calls stay within app or OS code";
            } else if (bb.type == BranchType::Trap) {
                EXPECT_TRUE(prog.function(bb.callee).isHandler);
            }
        }
    }
}

TEST(ProgramTest, OsAndAppInDisjointAddressRegions)
{
    Program prog(smallParams());
    for (const auto &fn : prog.functions()) {
        if (fn.isOs)
            EXPECT_GE(fn.entry, kOsCodeBase);
        else
            EXPECT_LT(fn.entry + fn.sizeBytes, kOsCodeBase);
    }
}

TEST(ProgramTest, AddressLookupsRoundTrip)
{
    Program prog(smallParams());
    for (std::uint32_t f = 0; f < prog.numFunctions(); f += 7) {
        const Function &fn = prog.function(f);
        const StaticBB &bb0 = prog.bb(fn.firstBB);
        EXPECT_EQ(prog.bbIndexAt(bb0.startAddr), fn.firstBB);
    }
    EXPECT_EQ(prog.bbIndexAt(0x1000), UINT32_MAX);
}

TEST(ProgramTest, BlockBranchesOracleMatchesBBs)
{
    Program prog(smallParams());
    // Brute force: group every basic block by its containing cache
    // block, in address order.
    std::map<Addr, std::vector<StaticBBInfo>> expected;
    std::map<Addr, std::set<std::uint32_t>> funcs_in_block;
    for (std::uint32_t f = 0; f < prog.numFunctions(); ++f) {
        const Function &fn = prog.function(f);
        for (std::uint32_t i = 0; i < fn.numBBs; ++i) {
            const StaticBB &bb = prog.bb(fn.firstBB + i);
            expected[blockNumber(bb.startAddr)].push_back(StaticBBInfo{
                bb.startAddr, bb.targetAddr, bb.numInstrs, bb.type});
            funcs_in_block[blockNumber(bb.startAddr)].insert(f);
        }
    }
    for (auto &[block, infos] : expected) {
        std::sort(infos.begin(), infos.end(),
                  [](const StaticBBInfo &a, const StaticBBInfo &b) {
                      return a.startAddr < b.startAddr;
                  });
    }

    // Every block of each region, one before its first to one past
    // its last: exact contents, same order, empty where no basic
    // block starts.
    const auto os_first = expected.lower_bound(blockNumber(kOsCodeBase));
    ASSERT_NE(os_first, expected.begin());
    ASSERT_NE(os_first, expected.end());
    const std::pair<Addr, Addr> regions[] = {
        {expected.begin()->first, std::prev(os_first)->first},
        {os_first->first, expected.rbegin()->first}};
    std::vector<StaticBBInfo> found;
    std::size_t shared = 0, gaps = 0;
    for (const auto &[first, last] : regions) {
        for (Addr block = first - 1; block <= last + 1; ++block) {
            prog.blockBranches(block, found);
            const auto it = expected.find(block);
            if (it == expected.end()) {
                EXPECT_TRUE(found.empty()) << "block " << block;
                gaps += block >= first && block <= last;
                continue;
            }
            shared += funcs_in_block[block].size() > 1;
            ASSERT_EQ(found.size(), it->second.size()) << "block " << block;
            for (std::size_t i = 0; i < found.size(); ++i) {
                EXPECT_EQ(found[i].startAddr, it->second[i].startAddr);
                EXPECT_EQ(found[i].target, it->second[i].target);
                EXPECT_EQ(found[i].numInstrs, it->second[i].numInstrs);
                EXPECT_EQ(found[i].type, it->second[i].type);
            }
        }
    }
    // The walk covered the interesting shapes.
    EXPECT_GT(shared, 0u);
    EXPECT_GT(gaps, 0u);
}

TEST(ProgramTest, BBIndexAtEveryStartAndNoOtherAddress)
{
    Program prog(smallParams());
    for (std::uint32_t i = 0; i < prog.numBBs(); ++i) {
        const StaticBB &bb = prog.bb(i);
        EXPECT_EQ(prog.bbIndexAt(bb.startAddr), i);
        // The second instruction of a block is never a block start.
        if (bb.numInstrs > 1) {
            EXPECT_EQ(prog.bbIndexAt(bb.startAddr + kInstrBytes),
                      UINT32_MAX);
        }
    }
    EXPECT_EQ(prog.bbIndexAt(kAppCodeBase - kInstrBytes), UINT32_MAX);
    EXPECT_EQ(prog.bbIndexAt(kOsCodeBase - kInstrBytes), UINT32_MAX);
}

TEST(ProgramTest, StaticBBAtExactMatchOnly)
{
    Program prog(smallParams());
    const Function &fn = prog.function(0);
    const StaticBB &bb = prog.bb(fn.firstBB);
    StaticBBInfo info;
    EXPECT_TRUE(prog.staticBBAt(bb.startAddr, info));
    EXPECT_EQ(info.startAddr, bb.startAddr);
    if (bb.numInstrs > 1) {
        EXPECT_FALSE(prog.staticBBAt(bb.startAddr + 4, info));
    }
}

TEST(ProgramTest, DeterministicForSameSeed)
{
    Program a(smallParams(99)), b(smallParams(99));
    ASSERT_EQ(a.numBBs(), b.numBBs());
    for (std::uint32_t i = 0; i < a.numBBs(); i += 13) {
        EXPECT_EQ(a.bb(i).startAddr, b.bb(i).startAddr);
        EXPECT_EQ(a.bb(i).type, b.bb(i).type);
        EXPECT_EQ(a.bb(i).targetAddr, b.bb(i).targetAddr);
    }
}

TEST(ProgramTest, DifferentSeedsProduceDifferentLayouts)
{
    Program a(smallParams(1)), b(smallParams(2));
    bool differs = a.numBBs() != b.numBBs();
    for (std::uint32_t i = 0; !differs && i < a.numBBs(); ++i)
        differs = a.bb(i).startAddr != b.bb(i).startAddr ||
                  a.bb(i).type != b.bb(i).type;
    EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------------
// Generator tests
// ---------------------------------------------------------------------

TEST(GeneratorTest, StreamInvariantHolds)
{
    Program prog(smallParams());
    TraceGenerator gen(prog, 1);
    BBRecord prev, cur;
    ASSERT_TRUE(gen.next(prev));
    for (int i = 0; i < 200000; ++i) {
        ASSERT_TRUE(gen.next(cur));
        ASSERT_EQ(cur.startAddr, prev.nextAddr())
            << "at record " << i << " type "
            << branchTypeName(prev.type);
        prev = cur;
    }
}

TEST(GeneratorTest, Deterministic)
{
    Program prog(smallParams());
    TraceGenerator a(prog, 5), b(prog, 5);
    BBRecord ra, rb;
    for (int i = 0; i < 50000; ++i) {
        a.next(ra);
        b.next(rb);
        ASSERT_TRUE(ra == rb);
    }
}

TEST(GeneratorTest, RecordsMatchStaticImage)
{
    Program prog(smallParams());
    TraceGenerator gen(prog, 3);
    BBRecord rec;
    StaticBBInfo info;
    for (int i = 0; i < 100000; ++i) {
        gen.next(rec);
        ASSERT_TRUE(prog.staticBBAt(rec.startAddr, info));
        ASSERT_EQ(info.numInstrs, rec.numInstrs);
        ASSERT_EQ(info.type, rec.type);
        if (rec.type == BranchType::Conditional ||
            rec.type == BranchType::Jump) {
            ASSERT_EQ(info.target, rec.target);
        }
    }
}

TEST(GeneratorTest, CallsAndReturnsBalance)
{
    Program prog(smallParams());
    TraceGenerator gen(prog, 11);
    gen.skip(500000);
    const auto &s = gen.stats();
    EXPECT_GT(s.calls, 0u);
    EXPECT_GT(s.returns, 0u);
    // Returns = calls + traps + one per completed request (top-level
    // returns), so the two sides must be within requests of each
    // other.
    const auto lhs = s.calls + s.traps + s.requests;
    const auto rhs = s.returns;
    const auto diff = lhs > rhs ? lhs - rhs : rhs - lhs;
    EXPECT_LE(diff, gen.stackDepth() + 1);
}

TEST(GeneratorTest, StackStaysBounded)
{
    Program prog(smallParams());
    TraceGenerator gen(prog, 13);
    BBRecord rec;
    std::size_t max_depth = 0;
    for (int i = 0; i < 300000; ++i) {
        gen.next(rec);
        max_depth = std::max(max_depth, gen.stackDepth());
    }
    const auto &p = prog.params();
    EXPECT_LE(max_depth, p.maxCallDepth + p.maxOsCallDepth + 2);
}

TEST(GeneratorTest, LoopTripCountsRespected)
{
    // Find a loop branch and check its taken-run length matches the
    // static trip count.
    Program prog(smallParams());
    std::uint32_t loop_bb = UINT32_MAX;
    for (std::uint32_t i = 0; i < prog.numBBs(); ++i) {
        if (prog.bb(i).bias == BiasClass::Loop &&
            prog.bb(i).type == BranchType::Conditional) {
            loop_bb = i;
            break;
        }
    }
    ASSERT_NE(loop_bb, UINT32_MAX) << "no loop generated";
    const StaticBB &loop = prog.bb(loop_bb);

    TraceGenerator gen(prog, 17);
    BBRecord rec;
    int run = 0;
    std::vector<int> runs;
    for (int i = 0; i < 2000000 && runs.size() < 5; ++i) {
        gen.next(rec);
        if (rec.startAddr != loop.startAddr)
            continue;
        if (rec.taken) {
            ++run;
        } else {
            runs.push_back(run);
            run = 0;
        }
    }
    for (int r : runs)
        EXPECT_EQ(r, loop.loopTrip - 1);
}

TEST(GeneratorTest, BranchDensityIsServerLike)
{
    Program prog(smallParams());
    TraceGenerator gen(prog, 19);
    gen.skip(1000000);
    const auto &s = gen.stats();
    const double branches_per_ki =
        1000.0 * static_cast<double>(s.branches) /
        static_cast<double>(s.instructions);
    // Server code has roughly one branch per 5-8 instructions.
    EXPECT_GT(branches_per_ki, 90.0);
    EXPECT_LT(branches_per_ki, 260.0);
}

TEST(GeneratorTest, UnconditionalShareIsMinority)
{
    // Sec 3.1: conditional branches dominate the dynamic branch
    // stream; the unconditional working set is the small part.
    Program prog(smallParams());
    TraceGenerator gen(prog, 23);
    gen.skip(1000000);
    const auto &s = gen.stats();
    const double cond_frac = static_cast<double>(s.conditionals) /
                             static_cast<double>(s.branches);
    EXPECT_GT(cond_frac, 0.5);
}

TEST(GeneratorTest, VisitsManyFunctions)
{
    Program prog(smallParams());
    TraceGenerator gen(prog, 29);
    BBRecord rec;
    // A call's target is its callee's entry: one address per function.
    std::set<Addr> funcs;
    for (int i = 0; i < 200000; ++i) {
        gen.next(rec);
        if (isCallType(rec.type))
            funcs.insert(rec.target);
    }
    EXPECT_GT(funcs.size(), prog.numFunctions() / 4);
}

// ---------------------------------------------------------------------
// Trace I/O tests
// ---------------------------------------------------------------------

/** A fast-to-simulate workload wrapped around smallParams(). */
WorkloadPreset
tinyPreset(std::uint64_t seed = 7)
{
    WorkloadPreset preset;
    preset.name = "tiny";
    preset.program = smallParams(seed);
    preset.program.name = "tiny";
    return preset;
}

TEST(TraceIOTest, RoundTrip)
{
    const WorkloadPreset preset = tinyPreset();
    Program prog(preset.program);
    TraceGenerator gen(prog, 31);
    const std::string path = "/tmp/shotgun_test_trace.bin";

    TraceGenerator recorder_gen(prog, 31);
    const auto written = recordTrace(recorder_gen, preset, 31, path,
                                     10000);
    EXPECT_EQ(written, 10000u);

    TraceFileSource replay(path);
    EXPECT_EQ(replay.totalRecords(), 10000u);
    EXPECT_EQ(replay.traceSeed(), 31u);
    BBRecord live, replayed;
    std::uint64_t instrs = 0;
    for (int i = 0; i < 10000; ++i) {
        ASSERT_TRUE(gen.next(live));
        ASSERT_TRUE(replay.next(replayed));
        ASSERT_TRUE(live == replayed) << "record " << i;
        instrs += live.numInstrs;
    }
    EXPECT_FALSE(replay.next(replayed));
    EXPECT_EQ(replay.totalInstructions(), instrs);
    std::remove(path.c_str());
}

TEST(TraceIOTest, HeaderRoundTripsPresetAndSeed)
{
    WorkloadPreset preset = tinyPreset(123);
    preset.loadFrac = 0.41;
    preset.l1dMissRate = 0.017;
    preset.llcDataMissFrac = 0.23;
    preset.backgroundLoad = 2.75;
    preset.program.zipfAlpha = 1.4375;
    preset.program.stickyFrac = 0.61;
    Program prog(preset.program);
    TraceGenerator gen(prog, 99);
    const std::string path = "/tmp/shotgun_test_trace_hdr.bin";
    recordTrace(gen, preset, 99, path, 500);

    const TraceInfo info = readTraceInfo(path);
    EXPECT_EQ(info.records, 500u);
    EXPECT_GT(info.instructions, 500u);
    EXPECT_EQ(info.traceSeed, 99u);
    EXPECT_EQ(info.preset.name, "tiny");
    EXPECT_EQ(info.preset.tracePath, path);
    EXPECT_EQ(info.preset.loadFrac, 0.41);
    EXPECT_EQ(info.preset.l1dMissRate, 0.017);
    EXPECT_EQ(info.preset.llcDataMissFrac, 0.23);
    EXPECT_EQ(info.preset.backgroundLoad, 2.75);
    EXPECT_EQ(info.preset.program.name, "tiny");
    EXPECT_EQ(info.preset.program.numFuncs, preset.program.numFuncs);
    EXPECT_EQ(info.preset.program.zipfAlpha, 1.4375);
    EXPECT_EQ(info.preset.program.stickyFrac, 0.61);
    EXPECT_EQ(info.preset.program.seed, 123u);
    std::remove(path.c_str());
}

TEST(TraceIOTest, PresetByNameParsesTraceSpecs)
{
    const WorkloadPreset preset = tinyPreset();
    Program prog(preset.program);
    TraceGenerator gen(prog, 1);
    const std::string path = "/tmp/shotgun_test_trace_spec.bin";
    recordTrace(gen, preset, 1, path, 200);

    const WorkloadPreset by_path = presetByName("trace:" + path);
    EXPECT_EQ(by_path.name, "tiny");
    EXPECT_EQ(by_path.tracePath, path);

    const WorkloadPreset renamed =
        presetByName("trace:" + path + ":web-oltp");
    EXPECT_EQ(renamed.name, "web-oltp");
    EXPECT_EQ(renamed.tracePath, path);
    // The program identity is the recorded one, not the display name.
    EXPECT_EQ(renamed.program.name, "tiny");
    EXPECT_EQ(renamed.program.numFuncs, preset.program.numFuncs);
    std::remove(path.c_str());
}

TEST(TraceIOTest, OpenTraceSourceDispatchesOnTracePath)
{
    WorkloadPreset preset = tinyPreset();
    Program prog(preset.program);
    TraceGenerator gen(prog, 1);
    const std::string path = "/tmp/shotgun_test_trace_open.bin";
    recordTrace(gen, preset, 1, path, 100);

    auto live = openTraceSource(preset, prog, 1);
    EXPECT_NE(dynamic_cast<TraceGenerator *>(live.get()), nullptr);

    preset.tracePath = path;
    auto replay = openTraceSource(preset, prog, 1);
    auto *file = dynamic_cast<TraceFileSource *>(replay.get());
    ASSERT_NE(file, nullptr);
    EXPECT_EQ(file->totalRecords(), 100u);
    std::remove(path.c_str());
}

TEST(TraceIOTest, ReplayedSimulationBitwiseMatchesLiveRun)
{
    const WorkloadPreset preset = tinyPreset();
    const std::uint64_t warmup = 20000, measure = 50000;
    const std::string path = "/tmp/shotgun_test_trace_replay.bin";

    // Record with slack beyond warmup+measure: the decoupled BPU
    // reads ahead of retirement, and the tail must match too.
    TraceGenerator gen(programFor(preset), 1);
    recordTraceInstructions(gen, preset, 1, path,
                            warmup + measure + 8000);

    SimConfig live = SimConfig::make(preset, SchemeType::Shotgun);
    live.warmupInstructions = warmup;
    live.measureInstructions = measure;
    const SimResult live_result = runSimulation(live);

    SimConfig replay = SimConfig::make(presetByName("trace:" + path),
                                       SchemeType::Shotgun);
    replay.warmupInstructions = warmup;
    replay.measureInstructions = measure;
    const SimResult a = runSimulation(replay);
    const SimResult b = runSimulation(replay); // deterministic re-run

    for (const SimResult *r : {&a, &b}) {
        EXPECT_EQ(r->workload, live_result.workload);
        EXPECT_EQ(r->scheme, live_result.scheme);
        EXPECT_EQ(r->instructions, live_result.instructions);
        EXPECT_EQ(r->cycles, live_result.cycles);
        EXPECT_EQ(r->ipc, live_result.ipc);
        EXPECT_EQ(r->btbMPKI, live_result.btbMPKI);
        EXPECT_EQ(r->l1iMPKI, live_result.l1iMPKI);
        EXPECT_EQ(r->mispredictsPerKI, live_result.mispredictsPerKI);
        EXPECT_EQ(r->stalls, live_result.stalls);
        EXPECT_EQ(r->frontEndStallCycles,
                  live_result.frontEndStallCycles);
        EXPECT_EQ(r->prefetchAccuracy, live_result.prefetchAccuracy);
        EXPECT_EQ(r->avgL1DFillCycles, live_result.avgL1DFillCycles);
        EXPECT_EQ(r->prefetchesIssued, live_result.prefetchesIssued);
        EXPECT_EQ(r->schemeStorageBits, live_result.schemeStorageBits);
    }
    std::remove(path.c_str());
}

// --------------------------------------------------------- rejection paths

/** Write raw bytes to a scratch file for header-rejection tests. */
std::string
writeRawFile(const std::string &path,
             const std::vector<unsigned char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return path;
}

void
appendLE32(std::vector<unsigned char> &bytes, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        bytes.push_back(static_cast<unsigned char>(v >> (8 * i)));
}

// ------------------------------------------- windowed-trace support

TEST(GeneratorTest, CheckpointRestoreContinuesIdentically)
{
    const WorkloadPreset preset = tinyPreset();
    Program prog(preset.program);

    TraceGenerator original(prog, 77);
    original.skip(4321);
    const GeneratorCheckpoint checkpoint = original.checkpoint();
    EXPECT_EQ(checkpoint.stats.basicBlocks, 4321u);

    // A differently seeded generator over the same program becomes
    // the checkpointed stream: synthetic workloads window
    // identically without regenerating the prefix.
    TraceGenerator restored(prog, 12345);
    restored.restore(checkpoint);
    BBRecord a, b;
    for (int i = 0; i < 5000; ++i) {
        ASSERT_TRUE(original.next(a));
        ASSERT_TRUE(restored.next(b));
        ASSERT_TRUE(a == b) << "record " << i;
    }
    EXPECT_EQ(original.stats().instructions,
              restored.stats().instructions);
}

TEST(GeneratorDeathTest, CheckpointAcrossProgramsPanics)
{
    const WorkloadPreset preset = tinyPreset();
    Program prog(preset.program);
    ProgramParams other_params = preset.program;
    other_params.numFuncs += 50;
    Program other(other_params);

    TraceGenerator gen(prog, 1);
    const GeneratorCheckpoint checkpoint = gen.checkpoint();
    TraceGenerator foreign(other, 1);
    EXPECT_DEATH(foreign.restore(checkpoint), "different programs");
}

TEST(TraceSourceTest, SkipInstructionsLandsOnThresholdRecord)
{
    const WorkloadPreset preset = tinyPreset();
    Program prog(preset.program);

    // Reference landing point: read records until the threshold.
    TraceGenerator reference(prog, 5);
    BBRecord scratch;
    std::uint64_t consumed = 0;
    std::uint64_t records = 0;
    while (consumed < 33333) {
        ASSERT_TRUE(reference.next(scratch));
        consumed += scratch.numInstrs;
        ++records;
    }

    TraceGenerator skipper(prog, 5);
    EXPECT_EQ(skipper.skipInstructions(33333), consumed);
    EXPECT_EQ(skipper.stats().basicBlocks, records);
    BBRecord a, b;
    ASSERT_TRUE(reference.next(a));
    ASSERT_TRUE(skipper.next(b));
    EXPECT_TRUE(a == b);
}

TEST(TraceIndexTest, IndexedSkipMatchesLinearSkip)
{
    const WorkloadPreset preset = tinyPreset();
    Program prog(preset.program);
    const std::string path = "/tmp/shotgun_test_idx_skip.bin";
    TraceGenerator gen(prog, 21);
    recordTrace(gen, preset, 21, path, 20000);

    // Several thresholds, including checkpoint-exact and
    // past-last-checkpoint ones; the landing record must be
    // identical with and without the index.
    const TraceIndex index = buildTraceIndex(path, 512);
    EXPECT_GE(index.entries.size(), 2u);
    for (const std::uint64_t threshold :
         {std::uint64_t(1), index.entries[1].instructions,
          index.entries[1].instructions + 1, std::uint64_t(50000),
          std::uint64_t(100000)}) {
        TraceFileSource linear(path); // no .idx on disk yet
        const std::uint64_t linear_skipped =
            linear.skipInstructions(threshold);

        writeTraceIndex(traceIndexPath(path), index);
        TraceFileSource seeking(path);
        const std::uint64_t seek_skipped =
            seeking.skipInstructions(threshold);
        std::remove(traceIndexPath(path).c_str());

        EXPECT_EQ(seek_skipped, linear_skipped) << threshold;
        EXPECT_EQ(seeking.recordsRead(), linear.recordsRead())
            << threshold;
        BBRecord a, b;
        ASSERT_TRUE(linear.next(a));
        ASSERT_TRUE(seeking.next(b));
        EXPECT_TRUE(a == b) << threshold;
    }
    std::remove(path.c_str());
}

TEST(TraceIndexTest, StaleOrCorruptIndexIsRejectedNotTrusted)
{
    const WorkloadPreset preset = tinyPreset();
    Program prog(preset.program);
    const std::string path = "/tmp/shotgun_test_idx_stale.bin";
    TraceGenerator gen(prog, 3);
    recordTrace(gen, preset, 3, path, 3000);

    const TraceIndex index = buildTraceIndex(path, 100);
    writeTraceIndex(traceIndexPath(path), index);

    TraceIndex loaded;
    std::string error;
    const TraceInfo info = readTraceInfo(path);
    EXPECT_TRUE(
        tryReadTraceIndex(traceIndexPath(path), info, loaded, error))
        << error;
    EXPECT_EQ(loaded.entries.size(), index.entries.size());

    // Re-record over the trace with a different seed: the sidecar
    // must be detected as stale...
    TraceGenerator regen(prog, 4);
    recordTrace(regen, preset, 4, path, 3000);
    EXPECT_FALSE(tryReadTraceIndex(traceIndexPath(path),
                                   readTraceInfo(path), loaded,
                                   error));
    EXPECT_NE(error.find("stale"), std::string::npos);

    // ...and replay must still work: a stale index falls back to
    // the linear skip instead of seeking into the wrong recording.
    TraceFileSource source(path);
    EXPECT_GT(source.skipInstructions(1000), 0u);

    // Garbage magic is rejected too.
    {
        std::ofstream out(traceIndexPath(path), std::ios::binary);
        out << "not an index";
    }
    EXPECT_FALSE(tryReadTraceIndex(traceIndexPath(path),
                                   readTraceInfo(path), loaded,
                                   error));
    EXPECT_NE(error.find("not a shotgun trace index"),
              std::string::npos);

    std::remove(traceIndexPath(path).c_str());
    std::remove(path.c_str());
}

/** Every byte of `path`. */
std::vector<unsigned char>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                      std::istreambuf_iterator<char>());
}

/** Store `value` little-endian at `bytes[at, at + 8)`, if it fits. */
void
pokeLE64(std::vector<unsigned char> &bytes, std::size_t at,
         std::uint64_t value)
{
    for (std::size_t i = 0; i < 8 && at + i < bytes.size(); ++i)
        bytes[at + i] = static_cast<unsigned char>(value >> (8 * i));
}

/**
 * Open, replay, decode and index a damaged trace the way a fleet
 * worker would meet it. `probe` gates the rest on the worker's
 * up-front header check. Each step must complete or throw
 * TraceError: any other exception fails the test, and a crash or a
 * fatal() ends it.
 */
void
exerciseDamagedTrace(const std::string &path, bool probe)
{
    TraceInfo info;
    std::string error;
    if (probe && !tryReadTraceInfo(path, info, error))
        return; // Rejected before a record is read.
    info = readTraceInfo(path);

    TraceIndex index;
    tryReadTraceIndex(traceIndexPath(path), info, index, error);
    try {
        // Seeks through the sidecar index when it is still usable.
        TraceFileSource source(path);
        source.skipInstructions(info.instructions / 2);
        BBRecord rec;
        while (source.next(rec)) {
        }
    } catch (const TraceError &) {
    }
    try {
        DecodedTrace decoded(path);
        EXPECT_EQ(decoded.records(), info.records);
    } catch (const TraceError &) {
    }
    try {
        buildTraceIndex(path, 128);
    } catch (const TraceError &) {
    }
}

TEST(TraceMutationTest, DamagedTracesAndIndexesCompleteOrThrow)
{
    // Seeded damage to a recorded trace and its sidecar index: byte
    // flips anywhere, truncation at any length, and header counts
    // (the trace's records/instructions, the index's bindings and
    // entry count) overwritten with oversized values.
    const WorkloadPreset preset = tinyPreset();
    Program prog(preset.program);
    const std::string path = "/tmp/shotgun_test_mutation.bin";
    {
        TraceGenerator gen(prog, 11);
        recordTrace(gen, preset, 11, path, 3000);
    }
    writeTraceIndex(traceIndexPath(path), buildTraceIndex(path, 256));
    const std::vector<unsigned char> trace = readBytes(path);
    const std::vector<unsigned char> idx = readBytes(traceIndexPath(path));

    std::mt19937_64 rng(0x5eed);
    auto below = [&rng](std::uint64_t n) {
        return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(rng);
    };
    const std::uint64_t oversized[] = {
        3001, 1ull << 32, 1ull << 40, 1ull << 62, ~0ull, ~0ull / 19};
    for (int trial = 0; trial < 400; ++trial) {
        std::vector<unsigned char> t = trace, x = idx;
        const bool on_index = below(2) == 1;
        std::vector<unsigned char> &victim = on_index ? x : t;
        bool probe = true;
        switch (below(4)) {
          case 0: // Flip 1-4 bytes.
            for (std::uint64_t n = 1 + below(4); n > 0; --n)
                victim[below(victim.size())] ^=
                    static_cast<unsigned char>(1 + below(255));
            break;
          case 1: // Truncate.
            victim.resize(below(victim.size()));
            break;
          case 2: { // An oversized count; the header still parses.
            const std::uint64_t value = oversized[below(6)];
            if (on_index) {
                // records, instructions, seed, interval, entry count.
                pokeLE64(x, 8 + 8 * below(5), value);
            } else {
                pokeLE64(t, 8 + 8 * below(2), value);
                probe = false; // Past the probe, as a direct open is.
            }
            break;
          }
          case 3: { // A trace and an index that agree on a huge count.
            const std::uint64_t value = oversized[below(6)];
            pokeLE64(t, 8, value);
            pokeLE64(x, 8, value);  // The index's record binding.
            pokeLE64(x, 40, value); // Its entry count.
            probe = false;
            break;
          }
        }
        writeRawFile(path, t);
        writeRawFile(traceIndexPath(path), x);
        SCOPED_TRACE("trial " + std::to_string(trial));
        exerciseDamagedTrace(path, probe);
    }
    std::remove(traceIndexPath(path).c_str());
    std::remove(path.c_str());
}

TEST(TraceIndexDeathTest, BuildRejectsZeroInterval)
{
    const WorkloadPreset preset = tinyPreset();
    Program prog(preset.program);
    const std::string path = "/tmp/shotgun_test_idx_zero.bin";
    TraceGenerator gen(prog, 9);
    recordTrace(gen, preset, 9, path, 100);
    EXPECT_DEATH(buildTraceIndex(path, 0), "nonzero");
    std::remove(path.c_str());
}

TEST(PresetsDeathTest, UnknownWorkloadListsEveryAlternative)
{
    // The error is the documentation at point of failure: it must
    // enumerate the built-in presets and the trace:<path> syntax.
    EXPECT_EXIT((void)presetByName("bogus-workload"),
                ::testing::ExitedWithCode(1),
                "unknown workload 'bogus-workload'.*nutch, streaming, "
                "apache, zeus, oracle, db2.*trace:<path>");
}

/** The message of the TraceError `body` throws, or "" if none. */
template <typename Body>
std::string
traceErrorOf(Body &&body)
{
    try {
        body();
    } catch (const TraceError &e) {
        return e.what();
    }
    return "";
}

TEST(TraceIOTest, RejectsBadMagic)
{
    const auto path = writeRawFile(
        "/tmp/shotgun_test_badmagic.bin",
        {'n', 'o', 't', 'a', 't', 'r', 'a', 'c', 'e', '!'});
    EXPECT_NE(traceErrorOf([&]() { TraceFileSource source(path); })
                  .find("not a shotgun trace file"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceIOTest, RejectsForeignEndianMagic)
{
    std::vector<unsigned char> bytes;
    appendLE32(bytes, 0x53485447); // kTraceMagic byte-swapped
    appendLE32(bytes, kTraceVersion);
    const auto path =
        writeRawFile("/tmp/shotgun_test_bigendian.bin", bytes);
    EXPECT_NE(traceErrorOf([&]() { TraceFileSource source(path); })
                  .find("foreign-endian"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceIOTest, RejectsVersion1)
{
    std::vector<unsigned char> bytes;
    appendLE32(bytes, kTraceMagic);
    appendLE32(bytes, 1);
    const auto path = writeRawFile("/tmp/shotgun_test_v1.bin", bytes);
    const std::string error =
        traceErrorOf([&]() { TraceFileSource source(path); });
    EXPECT_NE(error.find("version-1 trace"), std::string::npos);
    EXPECT_NE(error.find("no longer supported"), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceIOTest, RejectsUnknownFutureVersion)
{
    std::vector<unsigned char> bytes;
    appendLE32(bytes, kTraceMagic);
    appendLE32(bytes, 99);
    const auto path =
        writeRawFile("/tmp/shotgun_test_v99.bin", bytes);
    EXPECT_NE(traceErrorOf([&]() { TraceFileSource source(path); })
                  .find("unsupported trace version 99"),
              std::string::npos);
    std::remove(path.c_str());
}

/** Read every record of `path` through a TraceFileSource. */
void
drainTrace(const std::string &path)
{
    TraceFileSource source(path);
    BBRecord rec;
    while (source.next(rec)) {
    }
}

/** Overwrite byte `offset` of `path`. */
void
pokeByte(const std::string &path, std::uint64_t offset,
         unsigned char value)
{
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(static_cast<char>(value));
}

/** Byte offset of byte `field` of record `record` (records are the
 * file's 19-byte tail). */
std::uint64_t
recordByte(const std::string &path, std::uint64_t records,
           std::uint64_t record, unsigned field)
{
    return std::filesystem::file_size(path) -
           (records - record) * kTraceRecordBytes + field;
}

TEST(TraceIOTest, RejectsTruncatedRecords)
{
    const WorkloadPreset preset = tinyPreset();
    Program prog(preset.program);
    TraceGenerator gen(prog, 1);
    const std::string path = "/tmp/shotgun_test_truncated.bin";
    recordTrace(gen, preset, 1, path, 1000);

    // Chop the tail off the last records; the header still claims
    // 1000, so replay must fail loudly rather than end quietly.
    const auto size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size - 30);

    EXPECT_THROW(drainTrace(path), TraceError);
    EXPECT_NE(traceErrorOf([&]() { drainTrace(path); })
                  .find("truncated trace file after 998 of 1000 records"),
              std::string::npos);
    EXPECT_NE(traceErrorOf([&]() { buildTraceIndex(path, 64); })
                  .find("truncated trace file after 998 of 1000 records"),
              std::string::npos);
    // The decoded store sizes itself by the header's count, so it
    // checks that count against the file before reading a record.
    EXPECT_NE(traceErrorOf([&]() { DecodedTrace decoded(path); })
                  .find("header claims 1000 records but the file "
                        "holds 998"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceIOTest, RejectsZeroInstructionRecord)
{
    // A basic block holds at least one instruction; the core's
    // backend queue is sized on that bound.
    const WorkloadPreset preset = tinyPreset();
    Program prog(preset.program);
    TraceGenerator gen(prog, 1);
    const std::string path = "/tmp/shotgun_test_zero_instrs.bin";
    recordTrace(gen, preset, 1, path, 100);

    // Byte 16 of a record is its instruction count. Zero the last
    // record's.
    pokeByte(path, recordByte(path, 100, 99, 16), 0);
    EXPECT_THROW(drainTrace(path), TraceError);
    EXPECT_NE(traceErrorOf([&]() { drainTrace(path); })
                  .find("record 99 (zero instructions)"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceIOTest, BadBranchTypeNamesTheRecordOnEveryReadPath)
{
    // Byte 17 is the branch type. Replay, the decoded store and
    // buildTraceIndex all decode records, and all report the record.
    const WorkloadPreset preset = tinyPreset();
    Program prog(preset.program);
    TraceGenerator gen(prog, 1);
    const std::string path = "/tmp/shotgun_test_bad_type.bin";
    recordTrace(gen, preset, 1, path, 9000);
    pokeByte(path, recordByte(path, 9000, 5001, 17), 0xEE);

    const std::string expected = "corrupt record 5001 (bad branch type 238)";
    EXPECT_NE(traceErrorOf([&]() { drainTrace(path); }).find(expected),
              std::string::npos);
    EXPECT_NE(traceErrorOf([&]() { DecodedTrace decoded(path); })
                  .find(expected),
              std::string::npos);
    EXPECT_NE(traceErrorOf([&]() { buildTraceIndex(path, 1000); })
                  .find(expected),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceIOTest, ChunkedCodecRoundTripsAcrossChunkBoundaries)
{
    // Enough records for several read and write chunks, replayed
    // against the source that produced them, with an index seek in
    // the middle that must discard the read-ahead.
    const WorkloadPreset preset = tinyPreset();
    Program prog(preset.program);
    const std::string path = "/tmp/shotgun_test_chunks.bin";
    constexpr std::uint64_t kRecords = 10000;
    {
        TraceGenerator gen(prog, 5);
        EXPECT_EQ(recordTrace(gen, preset, 5, path, kRecords), kRecords);
    }
    EXPECT_EQ(TraceFileSource(path).payloadRecords(), kRecords);

    TraceGenerator expect(prog, 5);
    TraceFileSource replay(path);
    BBRecord want, got;
    for (std::uint64_t i = 0; i < kRecords; ++i) {
        ASSERT_TRUE(expect.next(want));
        ASSERT_TRUE(replay.next(got)) << i;
        ASSERT_TRUE(got == want) << i;
    }
    EXPECT_FALSE(replay.next(got));

    TraceFileSource linear(path); // No index on disk: a linear skip.
    const std::uint64_t target = linear.totalInstructions() / 2;
    linear.skipInstructions(target);
    writeTraceIndex(traceIndexPath(path), buildTraceIndex(path, 1000));
    TraceFileSource seeking(path);
    ASSERT_TRUE(seeking.next(got)); // Fill the read-ahead first.
    seeking.skipInstructions(target - got.numInstrs);
    EXPECT_EQ(seeking.recordsRead(), linear.recordsRead());
    while (linear.next(want)) {
        ASSERT_TRUE(seeking.next(got));
        ASSERT_TRUE(got == want);
    }
    EXPECT_FALSE(seeking.next(got));
    std::remove(traceIndexPath(path).c_str());
    std::remove(path.c_str());
}

TEST(TraceIOTest, RejectsTraceShorterThanRun)
{
    const WorkloadPreset preset = tinyPreset();
    TraceGenerator gen(programFor(preset), 1);
    const std::string path = "/tmp/shotgun_test_short.bin";
    recordTraceInstructions(gen, preset, 1, path, 5000);

    SimConfig config = SimConfig::make(presetByName("trace:" + path),
                                       SchemeType::Shotgun);
    config.warmupInstructions = 20000;
    config.measureInstructions = 50000;
    EXPECT_THROW(runSimulation(config), TraceError);
    EXPECT_NE(traceErrorOf([&]() { runSimulation(config); })
                  .find("record a longer trace"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceIOTest, RejectsMismatchedProgram)
{
    const WorkloadPreset preset = tinyPreset();
    TraceGenerator gen(programFor(preset), 1);
    const std::string path = "/tmp/shotgun_test_mismatch.bin";
    recordTraceInstructions(gen, preset, 1, path, 100000);

    // Bind the trace to a workload with different program parameters.
    SimConfig config = SimConfig::make(tinyPreset(8), SchemeType::FDIP);
    config.workload.tracePath = path;
    config.warmupInstructions = 1000;
    config.measureInstructions = 1000;
    EXPECT_THROW(runSimulation(config), TraceError);
    EXPECT_NE(traceErrorOf([&]() { runSimulation(config); })
                  .find("does not match this workload's program"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceIOTest, RejectsMissingTraceFile)
{
    SimConfig config = SimConfig::make(tinyPreset(), SchemeType::FDIP);
    config.workload.tracePath = "/tmp/shotgun_test_no_such.trace";
    std::remove(config.workload.tracePath.c_str());
    config.warmupInstructions = 1000;
    config.measureInstructions = 1000;
    EXPECT_THROW(runSimulation(config), TraceError);
    EXPECT_NE(traceErrorOf([&]() { runSimulation(config); })
                  .find("cannot open trace file"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Preset tests
// ---------------------------------------------------------------------

TEST(PresetTest, AllSixWorkloadsExist)
{
    const auto presets = allPresets();
    ASSERT_EQ(presets.size(), 6u);
    EXPECT_EQ(presets[0].name, "nutch");
    EXPECT_EQ(presets[5].name, "db2");
}

TEST(PresetTest, LookupByName)
{
    EXPECT_EQ(presetByName("Oracle").id, WorkloadId::Oracle);
    EXPECT_EQ(presetByName("db2").id, WorkloadId::DB2);
}

TEST(PresetTest, FootprintOrderingMatchesPaper)
{
    // Oracle and DB2 have the largest code footprints; Nutch the
    // smallest (Table 1 ordering).
    Program nutch(makePreset(WorkloadId::Nutch).program);
    Program oracle(makePreset(WorkloadId::Oracle).program);
    Program db2(makePreset(WorkloadId::DB2).program);
    EXPECT_GT(oracle.codeBytes(), db2.codeBytes() / 2);
    EXPECT_GT(db2.codeBytes(), nutch.codeBytes());
    // Oracle's footprint is multi-MB like the paper's workload.
    EXPECT_GT(oracle.codeBytes(), 3u * 1024 * 1024);
}

} // namespace
} // namespace shotgun
