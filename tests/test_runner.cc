/**
 * @file
 * Tests for the src/runner/ experiment-orchestration subsystem: the
 * thread pool (ordering, results, exception propagation), the
 * experiment set/grid bookkeeping, the result sink's serialization,
 * and -- the load-bearing property -- that a parallel grid run is
 * bitwise-identical to a serial one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "runner/experiment.hh"
#include "runner/grid_scheduler.hh"
#include "runner/progress.hh"
#include "runner/result_sink.hh"
#include "runner/thread_pool.hh"
#include "sim/simulator.hh"

namespace shotgun
{
namespace
{

using runner::ExperimentRunner;
using runner::ExperimentSet;
using runner::GridHooks;
using runner::scheduleGrid;
using runner::ProgressReporter;
using runner::ResultRow;
using runner::ResultSink;
using runner::RunnerOptions;
using runner::ThreadPool;

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 100; ++i) {
        futures.push_back(pool.submit([&counter, i]() {
            ++counter;
            return i;
        }));
    }
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i);
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, FuturesAlignWithSubmissionOrder)
{
    // Futures must return each task's own result regardless of which
    // worker ran it or in what order tasks finished.
    ThreadPool pool(8);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(pool.submit([i]() { return i * i; }));
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPoolTest, ClampsZeroThreadsToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(pool.submit([]() { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, PropagatesExceptions)
{
    ThreadPool pool(2);
    auto ok = pool.submit([]() { return 1; });
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    auto after = pool.submit([]() { return 2; });

    EXPECT_EQ(ok.get(), 1);
    EXPECT_THROW(bad.get(), std::runtime_error);
    // A throwing task must not take down the pool.
    EXPECT_EQ(after.get(), 2);
}

TEST(ThreadPoolTest, DestructorDrainsQueue)
{
    std::atomic<int> counter{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&counter]() { ++counter; });
    } // destructor joins after draining
    EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, UsesMultipleWorkers)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::mutex mutex;
    std::condition_variable cv;
    int waiting = 0;
    std::vector<std::future<void>> futures;
    // Tasks only complete once two of them are in flight at the same
    // time, so the test hangs unless the pool is actually concurrent.
    for (int i = 0; i < 2; ++i) {
        futures.push_back(pool.submit([&]() {
            std::unique_lock<std::mutex> lock(mutex);
            ++waiting;
            cv.notify_all();
            cv.wait(lock, [&]() { return waiting >= 2; });
        }));
    }
    for (auto &future : futures)
        future.get();
    EXPECT_EQ(waiting, 2);
}

// ------------------------------------------------------------ ExperimentSet

TEST(ExperimentSetTest, AddReturnsSequentialIndices)
{
    const WorkloadPreset preset = makePreset(WorkloadId::Nutch);
    ExperimentSet set;
    EXPECT_EQ(set.add(preset, "a",
                      SimConfig::make(preset, SchemeType::Shotgun)),
              0u);
    EXPECT_EQ(set.add(preset, "b",
                      SimConfig::make(preset, SchemeType::Boomerang)),
              1u);
    EXPECT_EQ(set.size(), 2u);
    EXPECT_EQ(set.experiments()[1].label, "b");
}

TEST(ExperimentSetTest, BaselineIsDeduplicated)
{
    const WorkloadPreset preset = makePreset(WorkloadId::Nutch);
    ExperimentSet set;
    const std::size_t first = set.addBaseline(preset, 1000, 2000);
    const std::size_t second = set.addBaseline(preset, 1000, 2000);
    EXPECT_EQ(first, second);
    EXPECT_EQ(set.size(), 1u);
    EXPECT_EQ(set.baselineIndex(preset.name), first);
    EXPECT_EQ(set.baselineIndex("no-such-workload"),
              ExperimentSet::npos);
}

TEST(ExperimentSetDeathTest, MismatchedBaselineReAddIsFatal)
{
    const WorkloadPreset preset = makePreset(WorkloadId::Nutch);
    WorkloadPreset other = preset;
    other.l1dMissRate *= 2;
    ExperimentSet set;
    set.addBaseline(preset, 1000, 2000);
    EXPECT_DEATH(set.addBaseline(preset, 1000, 3000), "re-added");
    EXPECT_DEATH(set.addBaseline(preset, 500, 2000), "re-added");
    EXPECT_DEATH(set.addBaseline(preset, 1000, 2000, 2), "re-added");
    EXPECT_DEATH(set.addBaseline(other, 1000, 2000), "re-added");
    EXPECT_EQ(set.addBaseline(preset, 1000, 2000, 1), 0u);
}

// ------------------------------------------------------------------ Progress

TEST(ProgressTest, CountsAndFormats)
{
    std::ostringstream os;
    ProgressReporter progress(2, &os);
    progress.completed("w/a", 0.5);
    progress.completed("w/b", 0.25);
    EXPECT_EQ(progress.done(), 2u);
    const std::string out = os.str();
    EXPECT_NE(out.find("[1/2] w/a"), std::string::npos);
    EXPECT_NE(out.find("[2/2] w/b"), std::string::npos);
    EXPECT_NE(out.find("total"), std::string::npos);
}

TEST(ProgressTest, NullStreamIsQuiet)
{
    ProgressReporter progress(1, nullptr);
    progress.completed("x", 0.0); // must not crash
    EXPECT_EQ(progress.done(), 1u);
}

TEST(ProgressTest, FormatDuration)
{
    EXPECT_EQ(runner::formatDuration(7.2), "7s");
    EXPECT_EQ(runner::formatDuration(125.0), "2m05s");
    EXPECT_EQ(runner::formatDuration(3723.0), "1h02m");
}

// ---------------------------------------------------------------- ResultSink

TEST(ResultSinkTest, SerializesRows)
{
    ResultSink sink("unit");
    ResultRow row;
    row.workload = "nutch";
    row.label = "shotgun";
    row.result.instructions = 1000;
    row.result.cycles = 2000;
    row.result.ipc = 0.5;
    row.hasBaseline = true;
    row.speedup = 1.25;
    row.stallCoverage = 0.5;
    sink.add(row);

    std::ostringstream json;
    sink.writeJson(json);
    EXPECT_NE(json.str().find("\"experiment\": \"unit\""),
              std::string::npos);
    EXPECT_NE(json.str().find("\"workload\": \"nutch\""),
              std::string::npos);
    EXPECT_NE(json.str().find("\"speedup\": 1.25"), std::string::npos);

    std::ostringstream csv;
    sink.writeCsv(csv);
    EXPECT_NE(csv.str().find("nutch,shotgun,1000,2000,0.5"),
              std::string::npos);

    std::ostringstream table;
    sink.printTable(table);
    EXPECT_NE(table.str().find("nutch"), std::string::npos);
}

TEST(ResultSinkTest, CsvQuotesSpecialCharacters)
{
    // Ad-hoc workload names (trace: specs, studio labels) may contain
    // commas and quotes; RFC 4180 quoting must keep the CSV parseable.
    ResultSink sink("unit");
    ResultRow row;
    row.workload = "trace:/tmp/a,b.trace";
    row.label = "shotgun \"tuned\"";
    sink.add(row);

    std::ostringstream csv;
    sink.writeCsv(csv);
    EXPECT_NE(csv.str().find("\"trace:/tmp/a,b.trace\""),
              std::string::npos);
    EXPECT_NE(csv.str().find("\"shotgun \"\"tuned\"\"\""),
              std::string::npos);

    // Plain names stay unquoted.
    ResultSink plain("unit");
    ResultRow simple;
    simple.workload = "nutch";
    simple.label = "shotgun";
    plain.add(simple);
    std::ostringstream plain_csv;
    plain.writeCsv(plain_csv);
    EXPECT_NE(plain_csv.str().find("\nnutch,shotgun,"),
              std::string::npos);
}

TEST(ResultSinkTest, SerializationDoesNotLeakStreamFormatting)
{
    ResultSink sink("unit");
    ResultRow row;
    row.workload = "w";
    row.label = "l";
    row.result.ipc = 1.0 / 3.0;
    sink.add(row);

    std::ostringstream os;
    const auto precision_before = os.precision();
    sink.writeCsv(os);
    sink.writeJson(os);
    EXPECT_EQ(os.precision(), precision_before);

    // A later plain double write must use default formatting again.
    std::ostringstream tail;
    sink.writeCsv(tail);
    tail << 1.0 / 3.0;
    const std::string text = tail.str();
    ASSERT_GE(text.size(), 8u);
    EXPECT_EQ(text.substr(text.size() - 8), "0.333333");
}

// -------------------------------------------------------------- scheduleGrid

/** A grid of `n` placeholder points; simulate hooks fabricate the
 * results, so these tests pin scheduler behaviour, not simulation. */
std::vector<runner::Experiment>
fakeGrid(std::size_t n, const std::string &tag)
{
    std::vector<runner::Experiment> grid(n);
    for (std::size_t i = 0; i < n; ++i) {
        grid[i].workload = tag;
        grid[i].label = "p" + std::to_string(i);
    }
    return grid;
}

SimResult
fakeResult(std::size_t index)
{
    SimResult result;
    result.instructions = index + 1;
    result.cycles = 1000 + index;
    return result;
}

TEST(ScheduleGridTest, EmitsInGridOrderOnTheCallingThread)
{
    const auto grid = fakeGrid(16, "order");
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> emitted;

    GridHooks hooks;
    hooks.simulate = [](std::size_t index, const runner::Experiment &,
                        WarmState) {
        // Later points finish sooner: emission order must not care.
        std::this_thread::sleep_for(
            std::chrono::microseconds((16 - index) * 100));
        return fakeResult(index);
    };
    hooks.onResult = [&](std::size_t index, SimResult &&result,
                         const runner::PointObservation *observation) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(result.instructions, index + 1);
        EXPECT_EQ(observation, nullptr); // Untraced grid.
        emitted.push_back(index);
    };
    scheduleGrid(grid, 4, hooks);

    ASSERT_EQ(emitted.size(), grid.size());
    for (std::size_t i = 0; i < emitted.size(); ++i)
        EXPECT_EQ(emitted[i], i);
}

TEST(ScheduleGridTest, DispatchesInGridOrderOnWorkerCountThreads)
{
    // One worker: dispatch is exactly grid order. Three workers: at
    // most three points simulate at once.
    std::vector<std::size_t> dispatched;
    GridHooks serial;
    serial.simulate = [&](std::size_t index, const runner::Experiment &,
                          WarmState) {
        dispatched.push_back(index);
        return fakeResult(index);
    };
    scheduleGrid(fakeGrid(8, "serial"), 1, serial);
    ASSERT_EQ(dispatched.size(), 8u);
    for (std::size_t i = 0; i < dispatched.size(); ++i)
        EXPECT_EQ(dispatched[i], i);

    std::atomic<int> in_flight{0}, peak{0};
    GridHooks wide;
    wide.simulate = [&](std::size_t index, const runner::Experiment &,
                        WarmState) {
        const int now = ++in_flight;
        int expected = peak.load();
        while (now > expected &&
               !peak.compare_exchange_weak(expected, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        --in_flight;
        return fakeResult(index);
    };
    scheduleGrid(fakeGrid(12, "wide"), 3, wide);
    EXPECT_LE(peak.load(), 3);
    EXPECT_GE(peak.load(), 1);
}

TEST(ScheduleGridTest, CohortFollowersWaitForTheirLeader)
{
    // Points 0, 2, 4 share a cohort (led by 0), 1 and 3 share
    // another (led by 1), 5 has none. A follower may only start once
    // its leader completed; everything else dispatches freely.
    const auto grid = fakeGrid(6, "cohort");
    std::mutex mutex;
    std::vector<char> done(grid.size(), 0);
    bool gate_held = true;
    GridHooks hooks;
    hooks.cohortOf = [](std::size_t index, const runner::Experiment &) {
        return index == 5 ? std::string()
                          : std::string(index % 2 == 0 ? "even" : "odd");
    };
    hooks.simulate = [&](std::size_t index, const runner::Experiment &,
                         WarmState) {
        {
            std::lock_guard<std::mutex> lock(mutex);
            if (index == 2 || index == 4)
                gate_held = gate_held && done[0];
            if (index == 3)
                gate_held = gate_held && done[1];
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        std::lock_guard<std::mutex> lock(mutex);
        done[index] = 1;
        return fakeResult(index);
    };
    std::vector<std::size_t> emitted;
    hooks.onResult = [&](std::size_t index, SimResult &&,
                         const runner::PointObservation *) {
        emitted.push_back(index);
    };
    scheduleGrid(grid, 4, hooks);
    EXPECT_TRUE(gate_held);
    ASSERT_EQ(emitted.size(), grid.size());
    for (std::size_t i = 0; i < emitted.size(); ++i)
        EXPECT_EQ(emitted[i], i);
}

TEST(ScheduleGridTest, OnlyALeaderWithFollowersIsToldToPark)
{
    // Points 0, 2, 3 form a cohort led by 0; 1 is alone in its
    // cohort and 4 has none. Only 0's warmed state is read back, so
    // only 0 parks.
    const auto grid = fakeGrid(5, "park");
    std::mutex mutex;
    std::vector<WarmState> told(grid.size(), WarmState::Park);
    GridHooks hooks;
    hooks.cohortOf = [](std::size_t index, const runner::Experiment &) {
        const char *keys[] = {"a", "b", "a", "a", ""};
        return std::string(keys[index]);
    };
    hooks.simulate = [&](std::size_t index, const runner::Experiment &,
                         WarmState warm) {
        std::lock_guard<std::mutex> lock(mutex);
        told[index] = warm;
        return fakeResult(index);
    };
    scheduleGrid(grid, 2, hooks);
    EXPECT_EQ(told[0], WarmState::Park);
    for (std::size_t i = 1; i < told.size(); ++i)
        EXPECT_EQ(told[i], WarmState::Discard) << "point " << i;
}

TEST(ScheduleGridTest, FirstExceptionStopsDispatchAndIsRethrown)
{
    // One worker: point 1 throws, so point 0 is emitted, nothing
    // after point 1 is dispatched, and the exception reaches the
    // caller.
    std::atomic<std::size_t> simulated{0};
    std::vector<std::size_t> emitted;
    GridHooks hooks;
    hooks.simulate = [&](std::size_t index, const runner::Experiment &,
                         WarmState) -> SimResult {
        ++simulated;
        if (index == 1)
            throw std::runtime_error("boom at 1");
        return fakeResult(index);
    };
    hooks.onResult = [&](std::size_t index, SimResult &&,
                         const runner::PointObservation *) {
        emitted.push_back(index);
    };
    EXPECT_THROW(scheduleGrid(fakeGrid(8, "bad"), 1, hooks),
                 std::runtime_error);
    EXPECT_EQ(simulated.load(), 2u);
    EXPECT_LE(emitted.size(), 1u);

    // An onResult exception stops the grid the same way.
    GridHooks throwing;
    throwing.simulate = [](std::size_t index, const runner::Experiment &,
                           WarmState) {
        return fakeResult(index);
    };
    throwing.onResult = [](std::size_t, SimResult &&,
                           const runner::PointObservation *) {
        throw std::logic_error("consumer failed");
    };
    EXPECT_THROW(scheduleGrid(fakeGrid(8, "consumer"), 2, throwing),
                 std::logic_error);
}

TEST(ScheduleGridTest, EmptyGridReturnsImmediately)
{
    GridHooks hooks;
    hooks.simulate = [](std::size_t, const runner::Experiment &,
                        WarmState) {
        ADD_FAILURE() << "simulated a point of an empty grid";
        return SimResult{};
    };
    scheduleGrid({}, 2, hooks);
}

// ----------------------------------------------- parallel == serial results

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

ExperimentSet
quickGrid()
{
    const std::uint64_t warmup = 20000, measure = 50000;
    ExperimentSet set;
    for (int w = 0; w < 3; ++w) {
        const WorkloadPreset preset =
            tinyPreset("runner-w" + std::to_string(w),
                       0xabc0 + static_cast<std::uint64_t>(w));
        set.addBaseline(preset, warmup, measure);
        for (SchemeType type :
             {SchemeType::Boomerang, SchemeType::Confluence,
              SchemeType::Shotgun}) {
            SimConfig config = SimConfig::make(preset, type);
            config.warmupInstructions = warmup;
            config.measureInstructions = measure;
            set.add(preset, schemeTypeName(type), config);
        }
    }
    return set;
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
    EXPECT_EQ(a.stalls.icache, b.stalls.icache);
    EXPECT_EQ(a.stalls.btbResolve, b.stalls.btbResolve);
    EXPECT_EQ(a.stalls.misfetch, b.stalls.misfetch);
    EXPECT_EQ(a.stalls.mispredict, b.stalls.mispredict);
    EXPECT_EQ(a.stalls.other, b.stalls.other);
    EXPECT_EQ(a.frontEndStallCycles, b.frontEndStallCycles);
    EXPECT_EQ(a.prefetchAccuracy, b.prefetchAccuracy);
    EXPECT_EQ(a.avgL1DFillCycles, b.avgL1DFillCycles);
    EXPECT_EQ(a.prefetchesIssued, b.prefetchesIssued);
    EXPECT_EQ(a.schemeStorageBits, b.schemeStorageBits);
}

TEST(ExperimentRunnerTest, ParallelRunMatchesSerialBitwise)
{
    const ExperimentSet set = quickGrid();

    RunnerOptions serial_opts;
    serial_opts.jobs = 1;
    const auto serial = ExperimentRunner(serial_opts).run(set);

    RunnerOptions parallel_opts;
    parallel_opts.jobs = 4;
    ResultSink sink("determinism");
    const auto parallel =
        ExperimentRunner(parallel_opts).run(set, &sink);

    ASSERT_EQ(serial.size(), set.size());
    ASSERT_EQ(parallel.size(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i)
        expectIdentical(serial[i], parallel[i]);

    // Sink rows arrive in grid order with baseline-relative metrics.
    const auto rows = sink.rows();
    ASSERT_EQ(rows.size(), set.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].workload, set.experiments()[i].workload);
        EXPECT_EQ(rows[i].label, set.experiments()[i].label);
        EXPECT_TRUE(rows[i].hasBaseline);
    }
    // Baseline rows: speedup exactly 1.
    for (const auto &row : rows) {
        if (row.label == "baseline") {
            EXPECT_EQ(row.speedup, 1.0);
        }
    }
}

TEST(ExperimentRunnerTest, BaselineEntrySimulatesWhatBaselineForDoes)
{
    // A grid's baseline point is an ordinary simulation of its own
    // config; that config must be the one baselineFor() simulates,
    // so ad-hoc baselineFor() callers and grid rows agree bit for bit.
    const WorkloadPreset preset = tinyPreset("runner-base", 0xba5e);
    ExperimentSet set;
    set.addBaseline(preset, 20000, 50000, 3);
    const SimResult grid = ExperimentRunner().run(set).front();
    EXPECT_TRUE(grid == baselineFor(preset, 20000, 50000, 3));
}

TEST(ExperimentRunnerTest, EffectiveJobsClampsToGridSize)
{
    RunnerOptions opts;
    opts.jobs = 16;
    ExperimentRunner engine(opts);
    EXPECT_EQ(engine.effectiveJobs(3), 3u);
    EXPECT_EQ(engine.effectiveJobs(100), 16u);
    EXPECT_EQ(engine.effectiveJobs(0), 1u);
}

TEST(ExperimentRunnerTest, EmptyGridReturnsEmpty)
{
    ExperimentSet set;
    EXPECT_TRUE(ExperimentRunner().run(set).empty());
}

} // namespace
} // namespace shotgun
