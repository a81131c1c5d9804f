/**
 * @file
 * Tests for the memory-side substrates: cache content model (with
 * prefetch provenance), MSHR file, predecoder oracle, and the
 * instruction hierarchy's timing/piggybacking behaviour.
 */

#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "cache/mshr.hh"
#include "cache/predecoder.hh"
#include "common/random.hh"
#include "trace/program.hh"

namespace shotgun
{
namespace
{

TEST(CacheTest, HitAfterFill)
{
    Cache cache(CacheParams{"t", 32, 2});
    EXPECT_FALSE(cache.access(100));
    cache.fill(100, false);
    EXPECT_TRUE(cache.access(100));
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(CacheTest, CapacityIs512BlocksFor32KB)
{
    Cache cache(CacheParams{"l1i", 32, 2});
    EXPECT_EQ(cache.numBlocks(), 512u);
}

TEST(CacheTest, PrefetchProvenanceUseful)
{
    Cache cache(CacheParams{"t", 32, 2});
    cache.fill(7, true);
    EXPECT_EQ(cache.prefetchFills(), 1u);
    EXPECT_EQ(cache.usefulPrefetches(), 0u);
    EXPECT_TRUE(cache.access(7)); // first demand use
    EXPECT_EQ(cache.usefulPrefetches(), 1u);
    // Second use does not double count.
    EXPECT_TRUE(cache.access(7));
    EXPECT_EQ(cache.usefulPrefetches(), 1u);
}

TEST(CacheTest, PrefetchProvenanceUseless)
{
    // Single-set sandbox: 64B cache = 1 block.
    Cache cache(CacheParams{"t", 1, 16});
    // 16 ways: fill them all as prefetches, then evict with demand.
    for (Addr b = 0; b < 16; ++b)
        cache.fill(b, true);
    for (Addr b = 100; b < 116; ++b)
        cache.fill(b, false);
    EXPECT_EQ(cache.uselessPrefetches(), 16u);
}

TEST(CacheTest, LruVictimSelection)
{
    Cache cache(CacheParams{"t", 1, 2}); // 64B, degenerate geometry
    // With chooseWays fallback this is a small table; just check LRU
    // semantics via presence after over-fill.
    cache.fill(1, false);
    cache.fill(2, false);
    cache.access(1); // 1 becomes MRU
    cache.fill(3, false);
    EXPECT_TRUE(cache.contains(1) || cache.contains(3));
}

TEST(MshrTest, AllocateFindDrain)
{
    MSHRFile mshrs(4);
    EXPECT_EQ(mshrs.find(10), nullptr);
    auto *entry = mshrs.allocate(10, 50, true);
    ASSERT_NE(entry, nullptr);
    EXPECT_TRUE(mshrs.find(10) != nullptr);

    std::vector<Addr> filled;
    mshrs.drain(49, [&](const MSHRFile::Entry &e) {
        filled.push_back(e.block);
    });
    EXPECT_TRUE(filled.empty());
    mshrs.drain(50, [&](const MSHRFile::Entry &e) {
        filled.push_back(e.block);
        EXPECT_TRUE(e.isPrefetch);
    });
    ASSERT_EQ(filled.size(), 1u);
    EXPECT_EQ(filled[0], 10u);
    EXPECT_EQ(mshrs.find(10), nullptr);
}

TEST(MshrTest, DrainOrderIsReadiness)
{
    MSHRFile mshrs(8);
    mshrs.allocate(1, 30, false);
    mshrs.allocate(2, 10, false);
    mshrs.allocate(3, 20, false);
    std::vector<Addr> order;
    mshrs.drain(100, [&](const MSHRFile::Entry &e) {
        order.push_back(e.block);
    });
    EXPECT_EQ(order, (std::vector<Addr>{2, 3, 1}));
}

TEST(MshrTest, EqualReadinessDrainsInBlockOrder)
{
    MSHRFile mshrs(8);
    mshrs.allocate(7, 20, false);
    mshrs.allocate(3, 20, true);
    mshrs.allocate(5, 20, false);
    mshrs.allocate(1, 25, false);
    std::vector<Addr> order;
    mshrs.drain(100, [&](const MSHRFile::Entry &e) {
        order.push_back(e.block);
    });
    EXPECT_EQ(order, (std::vector<Addr>{3, 5, 7, 1}));
}

TEST(MshrTest, NextReadyIsEarliestInFlightFill)
{
    MSHRFile mshrs(8);
    EXPECT_EQ(mshrs.nextReady(), kNever);
    mshrs.allocate(1, 30, false);
    mshrs.allocate(2, 10, true);
    EXPECT_EQ(mshrs.nextReady(), 10u);
    mshrs.drain(9, [](const MSHRFile::Entry &) {});
    EXPECT_EQ(mshrs.nextReady(), 10u);
    mshrs.drain(10, [](const MSHRFile::Entry &) {});
    EXPECT_EQ(mshrs.nextReady(), 30u);
    mshrs.drain(30, [](const MSHRFile::Entry &) {});
    EXPECT_EQ(mshrs.nextReady(), kNever);
    mshrs.allocate(2, 40, false);
    EXPECT_EQ(mshrs.nextReady(), 40u);
    mshrs.clear();
    EXPECT_EQ(mshrs.nextReady(), kNever);
}

TEST(MshrTest, FullRejectsAllocation)
{
    MSHRFile mshrs(2);
    EXPECT_NE(mshrs.allocate(1, 10, false), nullptr);
    EXPECT_NE(mshrs.allocate(2, 10, false), nullptr);
    EXPECT_TRUE(mshrs.full());
    EXPECT_EQ(mshrs.allocate(3, 10, false), nullptr);
}

TEST(MshrTest, DoubleAllocatePanics)
{
    MSHRFile mshrs(4);
    mshrs.allocate(5, 10, false);
    EXPECT_DEATH(mshrs.allocate(5, 20, false), "double allocation");
}

// Reference for the differential test below: the hash map plus
// min-heap of (readyAt, block) that the flat file replaced.
class RefMSHRFile
{
  public:
    explicit RefMSHRFile(std::size_t entries) : capacity_(entries) {}

    MSHRFile::Entry *
    find(Addr block)
    {
        auto it = entries_.find(block);
        return it == entries_.end() ? nullptr : &it->second;
    }

    MSHRFile::Entry *
    allocate(Addr block, Cycle ready_at, bool is_prefetch)
    {
        if (entries_.size() >= capacity_)
            return nullptr;
        MSHRFile::Entry entry;
        entry.block = block;
        entry.readyAt = ready_at;
        entry.isPrefetch = is_prefetch;
        auto it = entries_.emplace(block, entry).first;
        heap_.emplace(ready_at, block);
        return &it->second;
    }

    template <typename Fn>
    void
    drain(Cycle now, Fn &&fn)
    {
        while (!heap_.empty() && heap_.top().first <= now) {
            const Addr block = heap_.top().second;
            heap_.pop();
            auto it = entries_.find(block);
            if (it == entries_.end() || it->second.readyAt > now)
                continue;
            MSHRFile::Entry entry = it->second;
            entries_.erase(it);
            fn(entry);
        }
    }

    Cycle
    nextReady() const
    {
        return heap_.empty() ? kNever : heap_.top().first;
    }

    bool full() const { return entries_.size() >= capacity_; }
    std::size_t inFlight() const { return entries_.size(); }

    void
    clear()
    {
        entries_.clear();
        heap_ = {};
    }

  private:
    using HeapItem = std::pair<Cycle, Addr>;
    std::size_t capacity_;
    std::unordered_map<Addr, MSHRFile::Entry> entries_;
    std::priority_queue<HeapItem, std::vector<HeapItem>,
                        std::greater<HeapItem>>
        heap_;
};

/** What a drain observed: (block, readyAt, isPrefetch, demandWaiting). */
using DrainLog = std::vector<std::tuple<Addr, Cycle, bool, bool>>;

TEST(MshrTest, MatchesReferenceOnRandomOperations)
{
    for (const std::size_t capacity : {1u, 4u, 16u, 64u}) {
        SCOPED_TRACE(testing::Message() << capacity << " entries");
        MSHRFile mshrs(capacity);
        RefMSHRFile ref(capacity);
        Rng rng(capacity);
        Cycle now = 0;
        // Fills a drain callback allocates, some already due: both
        // files must complete those within the same drain.
        auto drainBoth = [&](Cycle at) {
            DrainLog got, want;
            auto follow_up = [at](auto &file, DrainLog &log) {
                return [&file, &log, at](const MSHRFile::Entry &e) {
                    log.emplace_back(e.block, e.readyAt, e.isPrefetch,
                                     e.demandWaiting);
                    const Addr next = e.block + 1;
                    if (e.block % 5 == 0 && file.find(next) == nullptr)
                        file.allocate(next, at + 5 * (e.block % 2), false);
                };
            };
            mshrs.drain(at, follow_up(mshrs, got));
            ref.drain(at, follow_up(ref, want));
            return std::make_pair(got, want);
        };
        for (int op = 0; op < 20000; ++op) {
            // Few distinct blocks and readiness values, so equal
            // readyAt ties (ordered by block) are common.
            const Addr block = rng.below(4 * capacity + 8);
            const std::uint64_t kind = rng.below(1000);
            if (kind < 450) {
                const MSHRFile::Entry *want = ref.find(block);
                const MSHRFile::Entry *got = mshrs.find(block);
                ASSERT_EQ(got == nullptr, want == nullptr) << "op " << op;
                if (want == nullptr) {
                    const Cycle ready = now + rng.below(40);
                    const bool pf = rng.below(2) == 0;
                    want = ref.allocate(block, ready, pf);
                    got = mshrs.allocate(block, ready, pf);
                    ASSERT_EQ(got == nullptr, want == nullptr)
                        << "allocate, op " << op;
                    if (want) {
                        ASSERT_EQ(got->readyAt, want->readyAt);
                    }
                } else {
                    ASSERT_EQ(got->readyAt, want->readyAt);
                    ASSERT_EQ(got->isPrefetch, want->isPrefetch);
                    ASSERT_EQ(got->demandWaiting, want->demandWaiting);
                }
            } else if (kind < 600) {
                MSHRFile::Entry *want = ref.find(block);
                MSHRFile::Entry *got = mshrs.find(block);
                ASSERT_EQ(got == nullptr, want == nullptr) << "op " << op;
                if (want)
                    want->demandWaiting = got->demandWaiting = true;
            } else if (kind < 999) {
                now += rng.below(8);
                const auto [got, want] = drainBoth(now);
                ASSERT_EQ(got, want) << "drain at " << now << ", op " << op;
            } else {
                mshrs.clear();
                ref.clear();
            }
            ASSERT_EQ(mshrs.nextReady(), ref.nextReady()) << "op " << op;
            ASSERT_EQ(mshrs.inFlight(), ref.inFlight()) << "op " << op;
            ASSERT_EQ(mshrs.full(), ref.full()) << "op " << op;
        }
        const auto [got, want] = drainBoth(kNever - 10);
        EXPECT_EQ(got, want);
        EXPECT_EQ(mshrs.inFlight(), ref.inFlight());
    }
}

// ---------------------------------------------------------------------
// Hierarchy
// ---------------------------------------------------------------------

HierarchyParams
quietParams()
{
    HierarchyParams p;
    p.mesh.backgroundLoad = 0.0; // deterministic latencies
    return p;
}

TEST(HierarchyTest, DemandMissThenHitAfterFill)
{
    InstrHierarchy mem(quietParams());
    const Cycle now = 100;
    auto result = mem.demandFetch(42, now);
    EXPECT_FALSE(result.hit);
    EXPECT_GT(result.readyAt, now);

    mem.drainFills(result.readyAt);
    auto again = mem.demandFetch(42, result.readyAt);
    EXPECT_TRUE(again.hit);
    EXPECT_EQ(mem.demandMisses(), 1u);
}

TEST(HierarchyTest, PrefetchPreventsDemandMiss)
{
    InstrHierarchy mem(quietParams());
    EXPECT_TRUE(mem.issuePrefetch(42, 0));
    const Cycle landing = mem.mesh().baseLlcLatency() +
                          mem.params().memory.accessCycles + 16;
    mem.drainFills(landing);
    auto result = mem.demandFetch(42, landing);
    EXPECT_TRUE(result.hit);
    EXPECT_EQ(mem.l1i().usefulPrefetches(), 1u);
}

TEST(HierarchyTest, DemandPiggybacksOnInflightPrefetch)
{
    InstrHierarchy mem(quietParams());
    EXPECT_TRUE(mem.issuePrefetch(42, 0));
    auto result = mem.demandFetch(42, 1);
    EXPECT_FALSE(result.hit);
    EXPECT_GT(result.readyAt, 1u);
    mem.drainFills(result.readyAt);
    EXPECT_TRUE(mem.l1Contains(42));
    // The piggybacked prefetch counts as late-but-useful.
    EXPECT_EQ(mem.lateUsefulPrefetches(), 1u);
}

TEST(HierarchyTest, DuplicatePrefetchDropped)
{
    InstrHierarchy mem(quietParams());
    EXPECT_TRUE(mem.issuePrefetch(42, 0));
    EXPECT_FALSE(mem.issuePrefetch(42, 0)); // in flight
    mem.drainFills(1000);
    EXPECT_FALSE(mem.issuePrefetch(42, 1000)); // resident
    EXPECT_EQ(mem.prefetchesIssued(), 1u);
}

TEST(HierarchyTest, SecondAccessHitsLlc)
{
    InstrHierarchy mem(quietParams());
    // First touch goes to memory (cold LLC); after eviction from the
    // tiny L1 path it would hit LLC. Model-level check: the LLC
    // records the block after the first fill.
    auto r1 = mem.demandFetch(7, 0);
    EXPECT_FALSE(r1.hit);
    EXPECT_TRUE(mem.llc().contains(7));
}

TEST(HierarchyTest, ProbeForFillUsesL1Latency)
{
    InstrHierarchy mem(quietParams());
    mem.demandFetch(42, 0);
    mem.drainFills(100000);
    const Cycle ready = mem.probeForFill(42, 200000);
    EXPECT_EQ(ready, 200000u + mem.params().l1iHitCycles);
}

TEST(HierarchyTest, PrefetchAccuracyMath)
{
    InstrHierarchy mem(quietParams());
    mem.issuePrefetch(1, 0);
    mem.issuePrefetch(2, 0);
    mem.drainFills(100000);
    mem.demandFetch(1, 100001); // hit, uses prefetch 1
    EXPECT_NEAR(mem.prefetchAccuracy(), 0.5, 1e-9);
}

// ---------------------------------------------------------------------
// Predecoder
// ---------------------------------------------------------------------

TEST(PredecoderTest, MatchesProgramOracle)
{
    ProgramParams params;
    params.numFuncs = 100;
    params.numOsFuncs = 20;
    params.numTrapHandlers = 4;
    params.numTopLevel = 4;
    params.seed = 5;
    Program program(params);
    Predecoder predecoder(program);

    const Function &fn = program.function(10);
    const StaticBB &bb = program.bb(fn.firstBB);
    const auto &decoded =
        predecoder.decodeBlock(blockNumber(bb.startAddr));
    bool found = false;
    for (const BTBEntry &entry : decoded) {
        if (entry.bbStart == bb.startAddr) {
            found = true;
            EXPECT_EQ(entry.type, bb.type);
            EXPECT_EQ(entry.numInstrs, bb.numInstrs);
        }
    }
    EXPECT_TRUE(found);
    EXPECT_GT(predecoder.blocksDecoded(), 0u);

    BTBEntry single;
    EXPECT_TRUE(predecoder.decodeBB(bb.startAddr, single));
    EXPECT_EQ(single.bbStart, bb.startAddr);
    EXPECT_FALSE(predecoder.decodeBB(0xdead000, single));
}

} // namespace
} // namespace shotgun
