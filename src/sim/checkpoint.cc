#include "sim/checkpoint.hh"

#include <cstdio>
#include <cstring>

namespace shotgun
{

namespace
{

std::uint64_t
mixIn(std::uint64_t hash, std::uint64_t value)
{
    return mix64(hash ^ mix64(value));
}

std::uint64_t
mixIn(std::uint64_t hash, double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return mixIn(hash, bits);
}

} // namespace

std::uint64_t
schemeFingerprint(const SchemeConfig &scheme)
{
    std::uint64_t h = mix64(0x5c43e1);
    h = mixIn(h, static_cast<std::uint64_t>(scheme.type));
    h = mixIn(h, scheme.conventionalEntries);
    h = mixIn(h, scheme.prefetchBufferEntries);

    const ShotgunBTBConfig &sg = scheme.shotgun;
    for (std::uint64_t v :
         {std::uint64_t(sg.ubtbEntries), std::uint64_t(sg.ubtbWays),
          std::uint64_t(sg.cbtbEntries), std::uint64_t(sg.cbtbWays),
          std::uint64_t(sg.ribEntries), std::uint64_t(sg.ribWays),
          std::uint64_t(static_cast<unsigned>(sg.mode)),
          std::uint64_t(sg.dedicatedRIB ? 1 : 0)}) {
        h = mixIn(h, v);
    }

    const ConfluenceParams &cf = scheme.confluence;
    for (std::uint64_t v :
         {std::uint64_t(cf.btbEntries), std::uint64_t(cf.historyEntries),
          std::uint64_t(cf.indexEntries), std::uint64_t(cf.indexWays),
          std::uint64_t(cf.lookaheadBlocks),
          std::uint64_t(cf.issuePerCycle),
          std::uint64_t(cf.divergenceTolerance),
          std::uint64_t(cf.resyncWindow)}) {
        h = mixIn(h, v);
    }

    const RdipParams &rd = scheme.rdip;
    for (std::uint64_t v :
         {std::uint64_t(rd.btbEntries), std::uint64_t(rd.tableEntries),
          std::uint64_t(rd.tableWays), std::uint64_t(rd.blocksPerEntry),
          std::uint64_t(rd.signatureDepth),
          std::uint64_t(rd.lookahead)}) {
        h = mixIn(h, v);
    }
    return h;
}

std::uint64_t
checkpointPrefixFingerprint(const SimConfig &config)
{
    std::uint64_t h = presetFingerprint(config.workload);
    h = mixIn(h, config.traceSeed);
    h = mixIn(h, config.warmupInstructions);
    h = mixIn(h, config.window.skipInstructions);

    const CoreParams &c = config.core;
    for (std::uint64_t v :
         {std::uint64_t(c.fetchWidth), std::uint64_t(c.retireWidth),
          std::uint64_t(c.ftqEntries), std::uint64_t(c.backendEntries),
          std::uint64_t(c.bpuBBPerCycle),
          std::uint64_t(c.misfetchPenalty),
          std::uint64_t(c.mispredictPenalty),
          std::uint64_t(c.predecodeCycles),
          std::uint64_t(c.rasEntries), c.dataSeed,
          // Probe-on and probe-off runs must not share warmed clones:
          // the clone carries the probe flag, sketches and the
          // pollution victim table.
          std::uint64_t(c.uarchProbes ? 1 : 0)}) {
        h = mixIn(h, v);
    }
    for (double v : {c.issueEfficiency, c.loadFrac, c.l1dMissRate,
                     c.llcDataMissFrac, c.memLevelParallelism}) {
        h = mixIn(h, v);
    }
    return h;
}

std::string
checkpointKey(const SimConfig &config, const TraceInfo *trace)
{
    std::uint64_t prefix = checkpointPrefixFingerprint(config);
    if (trace != nullptr) {
        // Bind the key to this recording, not just the path: a
        // re-recorded file under the same name must miss.
        prefix = mixIn(prefix, trace->traceSeed);
        prefix = mixIn(prefix, trace->records);
        prefix = mixIn(prefix, trace->instructions);
    }
    char suffix[40];
    std::snprintf(suffix, sizeof(suffix), "#%016llx:%016llx",
                  static_cast<unsigned long long>(prefix),
                  static_cast<unsigned long long>(
                      schemeFingerprint(config.scheme)));
    return config.workload.name + suffix;
}

bool
warmStateRestorable(const SimConfig &config)
{
    return config.warmupInstructions > 0 &&
           config.window.skipInstructions == 0;
}

CheckpointCache &
checkpointCache()
{
    static CheckpointCache cache;
    return cache;
}

} // namespace shotgun
