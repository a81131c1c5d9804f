/**
 * @file
 * Figure 3: cumulative probability of instruction-cache block
 * accesses versus their distance (in blocks) from the code region's
 * entry point, per workload. A region spans two unconditional
 * branches in dynamic program order (Sec 3.1). Paper shape: ~90% of
 * accesses within 10 blocks of the entry point; small regions
 * dominate.
 *
 * This bench analyses traces rather than timing simulations, so it
 * fans the per-workload walks out over the runner's thread pool
 * directly (one task per preset).
 */

#include <chrono>
#include <iostream>
#include <vector>

#include "bench_common.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "runner/progress.hh"
#include "sim/simulator.hh"
#include "trace/trace_io.hh"

using namespace shotgun;

namespace
{

/** One workload's distance-from-entry CDF. */
Histogram
distanceHistogram(const WorkloadPreset &preset,
                  std::uint64_t instructions)
{
    const Program &program = programFor(preset);
    const auto gen = openTraceSource(preset, program, 1);

    Histogram dist(17); // |distance| 0..16; overflow = >16
    bool region_open = false;
    Addr anchor = 0;
    BBRecord rec;
    std::uint64_t instrs = 0;
    while (instrs < instructions) {
        fatal_if(!gen->next(rec),
                 "workload '%s': trace ran dry after %llu of %llu "
                 "analysis instructions; record a longer trace",
                 preset.name.c_str(),
                 static_cast<unsigned long long>(instrs),
                 static_cast<unsigned long long>(instructions));
        instrs += rec.numInstrs;
        if (region_open) {
            for (Addr b = rec.firstBlock(); b <= rec.lastBlock(); ++b) {
                const std::int64_t d = static_cast<std::int64_t>(b) -
                                       static_cast<std::int64_t>(anchor);
                dist.sample(static_cast<std::size_t>(d < 0 ? -d : d));
            }
        }
        if (endsRegion(rec.type)) {
            region_open = true;
            anchor = blockNumber(rec.target);
        }
    }
    return dist;
}

int
runTool(int argc, char **argv)
{
    const auto opts = bench::parseOptions(argc, argv);
    bench::printBanner(
        opts,
        "Figure 3: block-access distance from region entry (CDF)",
        "~90% of intra-region accesses within 10 blocks of entry; "
        ">16-block tail largest on Oracle/DB2");

    const std::vector<WorkloadPreset> presets =
        bench::selectedPresets(opts);

    runner::ProgressReporter progress(
        presets.size(), opts.showProgress ? &std::cerr : nullptr);
    std::vector<Histogram> dists(presets.size());
    bench::forEachTask(opts, presets.size(), [&](std::size_t i) {
        const auto start = std::chrono::steady_clock::now();
        dists[i] = distanceHistogram(presets[i], opts.measureInstructions);
        progress.completed(
            presets[i].name + "/fig3",
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count());
    });

    TextTable table(
        "Figure 3 (cumulative access probability by distance)");
    table.row().cell("Workload").cell("d=0").cell("<=1").cell("<=2")
        .cell("<=4").cell("<=6").cell("<=10").cell("<=16").cell(">16");

    for (std::size_t i = 0; i < presets.size(); ++i) {
        const Histogram &dist = dists[i];
        table.row().cell(presets[i].name)
            .percentCell(dist.cumulativeFraction(0))
            .percentCell(dist.cumulativeFraction(1))
            .percentCell(dist.cumulativeFraction(2))
            .percentCell(dist.cumulativeFraction(4))
            .percentCell(dist.cumulativeFraction(6))
            .percentCell(dist.cumulativeFraction(10))
            .percentCell(dist.cumulativeFraction(16))
            .percentCell(1.0 - dist.cumulativeFraction(16));
    }
    table.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return cli::exitOnException([&]() { return runTool(argc, argv); });
}
