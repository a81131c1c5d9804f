/**
 * @file
 * Core microarchitecture parameters, defaulted to the paper's Table 3
 * (16-core CMP of 3-way OoO cores resembling ARM Cortex-A57, 128-entry
 * ROB, 32-entry FTQ, 32-entry BTB prefetch buffer, TAGE at 8KB).
 */

#ifndef SHOTGUN_CPU_PARAMS_HH
#define SHOTGUN_CPU_PARAMS_HH

#include <cstdint>

namespace shotgun
{

struct CoreParams
{
    /** Instructions fetched per cycle when the L1-I hits. */
    unsigned fetchWidth = 4;

    /** Retire (commit) width; Table 3's 3-way core. */
    unsigned retireWidth = 3;

    /** Decoupled fetch-target-queue capacity in basic blocks. */
    unsigned ftqEntries = 32;

    /** Backend buffering in instructions (ROB stand-in). */
    unsigned backendEntries = 128;

    /** Basic blocks the branch-prediction unit walks per cycle. */
    unsigned bpuBBPerCycle = 2;

    /**
     * Decode-stage redirect penalty: a BTB miss speculated straight
     * line past an actually-taken branch (baseline/FDIP behaviour).
     */
    unsigned misfetchPenalty = 5;

    /** Execute-stage redirect penalty for direction/RAS mispredicts. */
    unsigned mispredictPenalty = 14;

    /** Predecode latency after a block's bytes are available. */
    unsigned predecodeCycles = 1;

    /**
     * Fraction of peak retire bandwidth the backend sustains when
     * instruction supply is perfect (dependency/execution limits of
     * the 3-way OoO core). Keeps the ideal front end's IPC in a
     * realistic range so speedups are not inflated.
     */
    double issueEfficiency = 0.5;

    /** Return address stack entries. */
    unsigned rasEntries = 32;

    /**
     * Data-side behaviour (from the workload preset): fraction of
     * retired instructions accessing the L1-D, miss rates, and the
     * overlap factor that converts miss latency to retire stall
     * cycles (an MLP proxy for the OoO backend).
     */
    double loadFrac = 0.30;
    double l1dMissRate = 0.02;
    double llcDataMissFrac = 0.2;
    double memLevelParallelism = 2.0;

    /** Seed for the data-side Bernoulli draws. */
    std::uint64_t dataSeed = 0xdada;

    /**
     * Enable the microarchitectural probe layer (src/obs/uarch.hh):
     * prefetch lifecycle tracking and miss-site sketches (stall
     * attribution is always on, see Core::CycleBreakdown).
     * Trajectory-invisible -- every simulation counter is
     * bitwise-identical probes on or off -- but part of the
     * configuration's canonical identity (distinct fingerprints and
     * checkpoint keys), since results carry extra payload.
     */
    bool uarchProbes = false;
};

} // namespace shotgun

#endif // SHOTGUN_CPU_PARAMS_HH
