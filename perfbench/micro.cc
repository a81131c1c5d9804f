/**
 * @file
 * Per-structure host timings: a block stream recorded from the
 * workload's own preset (or replayed from its recorded trace) is fed
 * through each structure's public calls, and each loop reports host
 * nanoseconds per operation. Complements bench_micro_structures with
 * the structures it lacks: prefetch buffer, C-BTB prefill, RIB, MSHR,
 * Core clone, and the trace cursor and skip.
 *
 * These are costs per operation only. Multiplying them by how often a
 * simulation performs each operation needs counters inside the
 * simulator, which it does not export yet.
 */

#include <algorithm>
#include <memory>

#include "bench_util.hh"
#include "branch/tage.hh"
#include "btb/conventional_btb.hh"
#include "btb/prefetch_buffer.hh"
#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "common/logging.hh"
#include "core/footprint_recorder.hh"
#include "core/shotgun_btb.hh"
#include "cpu/core.hh"
#include "trace/decoded_trace.hh"
#include "window/window_plan.hh"

namespace perfbench
{

using namespace shotgun;
using json::Value;

namespace
{

/** Blocks skipped before recording, past the generator's start-up. */
constexpr std::uint64_t kLeadInBlocks = 200000;

/** Instructions a Core is warmed for before it is cloned. */
constexpr std::uint64_t kCloneWarmup = 500000;
constexpr int kClones = 5;

/** ns per op of `body(i)` over ops [0, n); 0 when n == 0. */
template <typename Body>
double
nsPerOp(std::size_t n, Body &&body)
{
    if (n == 0)
        return 0.0;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i)
        body(i);
    return secondsSince(t0) * 1e9 / static_cast<double>(n);
}

BTBEntry
entryFor(const BBRecord &rec)
{
    BTBEntry entry;
    entry.bbStart = rec.startAddr;
    entry.target = rec.target;
    entry.numInstrs = rec.numInstrs;
    entry.type = rec.type;
    return entry;
}

} // namespace

Value
runMicro(const WorkloadPreset &preset, const std::string &trace_path,
         std::uint64_t blocks)
{
    Value out = Value::object();
    auto put = [&out](const char *name, double value) {
        out.set(name, Value::number(value));
    };
    const Program &program = programFor(preset);

    // The recorded block stream every structure loop below replays.
    std::vector<BBRecord> stream(blocks);
    {
        TraceGenerator gen(program, 1);
        BBRecord skipped;
        for (std::uint64_t i = 0; i < kLeadInBlocks; ++i)
            gen.next(skipped);
        put("trace.gen_ns_per_block", nsPerOp(stream.size(), [&](std::size_t i) {
                gen.next(stream[i]);
            }));
    }
    std::vector<std::size_t> conditional;
    std::vector<std::size_t> returns;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        if (stream[i].type == BranchType::Conditional)
            conditional.push_back(i);
        if (stream[i].type == BranchType::Return ||
            stream[i].type == BranchType::TrapReturn)
            returns.push_back(i);
    }
    std::uint64_t sink = 0;

    {
        TagePredictor tage;
        put("branch.tage_ns_per_branch",
            nsPerOp(conditional.size(), [&](std::size_t i) {
                const BBRecord &rec = stream[conditional[i]];
                sink += tage.predict(rec.branchPC());
                tage.update(rec.branchPC(), rec.taken);
            }));
    }
    {
        ConventionalBTB btb(2048);
        put("btb.conv_lookup_ns", nsPerOp(stream.size(), [&](std::size_t i) {
                if (btb.lookup(stream[i].startAddr) == nullptr)
                    btb.insert(entryFor(stream[i]));
            }));
    }
    {
        BTBPrefetchBuffer buffer;
        put("btb.prefetch_buffer_insert_ns",
            nsPerOp(stream.size(), [&](std::size_t i) {
                buffer.insert(entryFor(stream[i]));
            }));
        sink += buffer.occupancy();
    }
    {
        ShotgunBTB btbs{ShotgunBTBConfig{}};
        put("core.shotgun_btb_lookup_ns",
            nsPerOp(stream.size(), [&](std::size_t i) {
                if (!btbs.lookup(stream[i].startAddr).hit())
                    btbs.insertByType(entryFor(stream[i]));
            }));
        put("core.cbtb_prefill_ns",
            nsPerOp(conditional.size(), [&](std::size_t i) {
                const BBRecord &rec = stream[conditional[i]];
                CBTBEntry entry;
                entry.bbStart = rec.startAddr;
                entry.target = rec.target;
                entry.numInstrs = rec.numInstrs;
                btbs.cbtb().insertPrefill(entry);
            }));
        put("core.rib_lookup_ns", nsPerOp(returns.size(), [&](std::size_t i) {
                const BBRecord &rec = stream[returns[i]];
                if (btbs.rib().lookup(rec.startAddr) == nullptr) {
                    RIBEntry entry;
                    entry.bbStart = rec.startAddr;
                    entry.numInstrs = rec.numInstrs;
                    entry.isTrapReturn =
                        rec.type == BranchType::TrapReturn;
                    btbs.rib().insert(entry);
                }
            }));
    }
    {
        ShotgunBTB btbs{ShotgunBTBConfig{}};
        FootprintRecorder recorder(btbs);
        put("core.footprint_retire_ns",
            nsPerOp(stream.size(), [&](std::size_t i) {
                recorder.retire(stream[i]);
            }));
        sink += recorder.regionsClosed();
    }
    {
        Cache l1i(CacheParams{"l1i", 32, 2});
        std::uint64_t accesses = 0;
        const Clock::time_point t0 = Clock::now();
        for (const BBRecord &rec : stream) {
            for (Addr b = rec.firstBlock(); b <= rec.lastBlock(); ++b) {
                ++accesses;
                if (!l1i.access(b))
                    l1i.fill(b, false);
            }
        }
        put("cache.access_ns",
            accesses == 0 ? 0.0
                          : secondsSince(t0) * 1e9 /
                                static_cast<double>(accesses));
    }
    {
        // One demand per block: find, allocate with a fixed latency,
        // and retire whatever completed by the block's cycle.
        MSHRFile mshrs;
        constexpr Cycle kLatency = 30;
        put("cache.mshr_ns", nsPerOp(stream.size(), [&](std::size_t i) {
                const Cycle now = i;
                const Addr block = stream[i].firstBlock();
                if (mshrs.find(block) == nullptr && !mshrs.full())
                    mshrs.allocate(block, now + kLatency, false);
                mshrs.drain(now, [&sink](const MSHRFile::Entry &e) {
                    sink += e.block;
                });
            }));
    }
    {
        // A warmed Shotgun core, cloned the way a checkpoint capture
        // clones it.
        TraceGenerator gen(program, 1);
        CoreParams core_params;
        core_params.loadFrac = preset.loadFrac;
        core_params.l1dMissRate = preset.l1dMissRate;
        core_params.llcDataMissFrac = preset.llcDataMissFrac;
        HierarchyParams hierarchy;
        hierarchy.mesh.backgroundLoad = preset.backgroundLoad;
        SchemeConfig scheme;
        scheme.type = SchemeType::Shotgun;
        Core core(program, gen, core_params, hierarchy, scheme);
        core.run(kCloneWarmup);
        std::vector<double> clone_ms;
        for (int i = 0; i < kClones; ++i) {
            const Clock::time_point t0 = Clock::now();
            const Core copy(core, nullptr);
            clone_ms.push_back(secondsSince(t0) * 1e3);
            sink += copy.approxStateBytes();
        }
        std::sort(clone_ms.begin(), clone_ms.end());
        put("cpu.clone_ms", clone_ms[clone_ms.size() / 2]);
        put("cpu.state_mb",
            static_cast<double>(core.approxStateBytes()) / 1e6);
    }

    // Trace cursor and skip, when the workload replays a trace.
    double cursor_ns = 0.0;
    double skip_ms = 0.0;
    if (!trace_path.empty()) {
        auto decoded = std::make_shared<const DecodedTrace>(trace_path);
        {
            DecodedTraceCursor cursor(decoded);
            BBRecord rec;
            cursor_ns = nsPerOp(decoded->records(), [&](std::size_t) {
                cursor.next(rec);
                sink += rec.numInstrs;
            });
        }
        // The seeks the fleet's sampled windows perform.
        SimConfig base;
        base.warmupInstructions = FleetShape::kSampledBaseWarmup;
        base.measureInstructions = FleetShape::kSampledBaseMeasure;
        const window::WindowPlan plan = window::sampledPlan(
            base, FleetShape::kSampledWindows, FleetShape::kSampledLength,
            FleetShape::kSampledWarmup);
        const std::size_t schemes = fleetSampledSchemes().size();
        const Clock::time_point t0 = Clock::now();
        for (const SimWindow &w : plan.windows) {
            DecodedTraceCursor cursor(decoded);
            sink += cursor.skipInstructions(w.skipInstructions);
        }
        skip_ms = secondsSince(t0) * 1e3 * static_cast<double>(schemes);
    }
    put("trace.cursor_ns_per_block", cursor_ns);
    put("trace.skip_ms", skip_ms);
    fatal_if(sink == 0, "micro timings observed no work");
    return out;
}

} // namespace perfbench
