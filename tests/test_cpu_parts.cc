/**
 * @file
 * Unit tests for the core's building blocks that the integration
 * tests exercise only indirectly: FTQ bookkeeping, logging macros,
 * and core-level measurement plumbing (stats reset, run length
 * accounting).
 */

#include <gtest/gtest.h>

#include <deque>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/ring.hh"
#include "cpu/core.hh"
#include "cpu/ftq.hh"
#include "sim/simulator.hh"

namespace shotgun
{
namespace
{

TEST(FtqTest, PushPopOrder)
{
    FTQ ftq(4);
    EXPECT_TRUE(ftq.empty());
    BBRecord a;
    a.startAddr = 0x100;
    BBRecord b;
    b.startAddr = 0x200;
    ftq.push(a);
    ftq.push(b);
    EXPECT_EQ(ftq.size(), 2u);
    EXPECT_EQ(ftq.front().record.startAddr, 0x100u);
    ftq.pop();
    EXPECT_EQ(ftq.front().record.startAddr, 0x200u);
}

TEST(FtqTest, FullAndOverflowPanics)
{
    FTQ ftq(2);
    BBRecord r;
    ftq.push(r);
    ftq.push(r);
    EXPECT_TRUE(ftq.full());
    EXPECT_DEATH(ftq.push(r), "FTQ overflow");
}

TEST(FtqTest, EntryTracksFetchProgress)
{
    FTQ ftq(2);
    BBRecord r;
    r.startAddr = 0x1000;
    r.numInstrs = 10;
    ftq.push(r);
    FTQEntry &entry = ftq.front();
    EXPECT_EQ(entry.fetched, 0u);
    entry.fetched = 4;
    EXPECT_EQ(ftq.front().fetched, 4u);
    ftq.clear();
    EXPECT_TRUE(ftq.empty());
}

TEST(RingTest, MatchesDequeOnRandomOperations)
{
    // std::deque is the reference the pipeline queues used before the
    // ring. Pushes only while not full, as the FTQ and backend do, so
    // the ring runs at capacity and wraps around many times.
    for (const std::size_t capacity : {1u, 2u, 3u, 32u, 128u}) {
        SCOPED_TRACE(testing::Message() << "capacity " << capacity);
        Ring<std::uint64_t> ring(capacity);
        std::deque<std::uint64_t> ref;
        Rng rng(capacity);
        for (int op = 0; op < 20000; ++op) {
            const std::uint64_t kind = rng.below(1000);
            if (kind < 500) {
                if (ref.size() < capacity) {
                    const std::uint64_t value = rng.next();
                    ring.push_back(value);
                    ref.push_back(value);
                }
            } else if (kind < 995) {
                if (!ref.empty()) {
                    ASSERT_EQ(ring.front(), ref.front()) << "op " << op;
                    ++ring.front(); // front() is the live slot
                    ++ref.front();
                    ASSERT_EQ(ring.front(), ref.front()) << "op " << op;
                    ring.pop_front();
                    ref.pop_front();
                }
            } else {
                ring.clear();
                ref.clear();
            }
            ASSERT_EQ(ring.size(), ref.size()) << "op " << op;
            ASSERT_EQ(ring.empty(), ref.empty()) << "op " << op;
            ASSERT_EQ(ring.full(), ref.size() == capacity) << "op " << op;
            if (!ref.empty()) {
                ASSERT_EQ(ring.front(), ref.front()) << "op " << op;
            }
        }
    }
}

TEST(RingTest, OverflowPanics)
{
    Ring<int> ring(2);
    ring.push_back(1);
    ring.push_back(2);
    EXPECT_DEATH(ring.push_back(3), "ring buffer overflow");
}

TEST(LoggingTest, PanicAborts)
{
    EXPECT_DEATH(panic("boom %d", 42), "boom 42");
}

TEST(LoggingTest, FatalExits)
{
    EXPECT_EXIT(fatal("bad config %s", "x"),
                ::testing::ExitedWithCode(1), "bad config x");
}

TEST(LoggingTest, PanicIfOnlyFiresWhenTrue)
{
    panic_if(false, "must not fire");
    EXPECT_DEATH(panic_if(1 + 1 == 2, "fires"), "fires");
}

TEST(CoreTest, RunAccountsRequestedInstructions)
{
    const auto preset = makePreset(WorkloadId::Nutch);
    const Program &program = programFor(preset);
    TraceGenerator gen(program, 3);
    CoreParams cp;
    HierarchyParams hp;
    SchemeConfig sc;
    sc.type = SchemeType::FDIP;
    Core core(program, gen, cp, hp, sc);
    core.run(100000);
    EXPECT_GE(core.instructionsRetired(), 100000u);
    // Retirement overshoot is at most one retire group.
    EXPECT_LT(core.instructionsRetired(), 100000u + cp.retireWidth);
    EXPECT_GT(core.cycles(), 0u);
}

TEST(CoreTest, ResetStatsClearsMeasurement)
{
    const auto preset = makePreset(WorkloadId::Nutch);
    const Program &program = programFor(preset);
    TraceGenerator gen(program, 4);
    CoreParams cp;
    HierarchyParams hp;
    SchemeConfig sc;
    sc.type = SchemeType::Baseline;
    Core core(program, gen, cp, hp, sc);
    core.run(50000);
    EXPECT_GT(core.instructionsRetired(), 0u);
    core.resetStats();
    EXPECT_EQ(core.instructionsRetired(), 0u);
    EXPECT_EQ(core.cycles(), 0u);
    EXPECT_EQ(core.stalls().total(), 0u);
    EXPECT_EQ(core.frontEndStallCycles(), 0u);
    core.run(50000);
    EXPECT_GE(core.instructionsRetired(), 50000u);
}

TEST(CoreTest, IpcBoundedByRetireBandwidth)
{
    const auto preset = makePreset(WorkloadId::Nutch);
    const Program &program = programFor(preset);
    TraceGenerator gen(program, 5);
    CoreParams cp;
    HierarchyParams hp;
    SchemeConfig sc;
    sc.type = SchemeType::Ideal;
    Core core(program, gen, cp, hp, sc);
    core.run(200000);
    EXPECT_LE(core.ipc(),
              cp.retireWidth * cp.issueEfficiency + 0.01);
    EXPECT_GT(core.ipc(), 0.5);
}

TEST(CoreTest, SchemeStorageExposed)
{
    const auto preset = makePreset(WorkloadId::Nutch);
    const Program &program = programFor(preset);
    TraceGenerator gen(program, 6);
    CoreParams cp;
    HierarchyParams hp;
    SchemeConfig sc;
    sc.type = SchemeType::Shotgun;
    Core core(program, gen, cp, hp, sc);
    EXPECT_GT(core.scheme().storageBits(), 0u);
    EXPECT_STREQ(core.scheme().name(), "shotgun");
}

} // namespace
} // namespace shotgun
