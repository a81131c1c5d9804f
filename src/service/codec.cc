#include "service/codec.hh"

#include <cstdio>
#include <limits>
#include <utility>

#include "prefetch/factory.hh"
#include "trace/presets.hh"

namespace shotgun
{
namespace service
{

namespace
{

using json::Value;

// ----------------------------------------------------- enum <-> name
//
// The *ByName() helpers in factory.cc / presets.cc call fatal() on an
// unknown name, which is right for a command line and wrong for a
// frame decoder; these lookups throw CodecError instead.

const SchemeType kSchemeTypes[] = {
    SchemeType::Baseline,   SchemeType::FDIP,  SchemeType::Boomerang,
    SchemeType::Confluence, SchemeType::Shotgun, SchemeType::RDIP,
    SchemeType::Ideal,
};

SchemeType
schemeTypeFromName(const std::string &name)
{
    for (SchemeType type : kSchemeTypes) {
        if (name == schemeTypeName(type))
            return type;
    }
    throw CodecError("unknown scheme type \"" + name + "\"");
}

const FootprintMode kFootprintModes[] = {
    FootprintMode::NoBitVector,  FootprintMode::BitVector8,
    FootprintMode::BitVector32,  FootprintMode::EntireRegion,
    FootprintMode::FiveBlocks,
};

FootprintMode
footprintModeFromName(const std::string &name)
{
    for (FootprintMode mode : kFootprintModes) {
        if (name == footprintModeName(mode))
            return mode;
    }
    throw CodecError("unknown footprint mode \"" + name + "\"");
}

WorkloadId
workloadIdFromName(const std::string &name)
{
    for (int i = 0; i < static_cast<int>(WorkloadId::NumWorkloads);
         ++i) {
        const auto id = static_cast<WorkloadId>(i);
        if (name == workloadName(id))
            return id;
    }
    throw CodecError("unknown workload id \"" + name + "\"");
}

// The "stalls" member of result and delta frames.
Value
encodeCycleBreakdown(const Core::CycleBreakdown &stalls)
{
    Value v = Value::object();
    v.set("active", Value::number(stalls.active));
    v.set("icache", Value::number(stalls.icache));
    v.set("pf_wait", Value::number(stalls.pfWait));
    v.set("btb", Value::number(stalls.btb));
    v.set("redirect", Value::number(stalls.redirect));
    v.set("ftq_empty", Value::number(stalls.ftqEmpty));
    v.set("backend", Value::number(stalls.backend));
    return v;
}

Core::CycleBreakdown
decodeCycleBreakdown(const Value &v, const char *what)
{
    ObjectReader r(v, what);
    Core::CycleBreakdown stalls;
    stalls.active = r.u64("active");
    stalls.icache = r.u64("icache");
    stalls.pfWait = r.u64("pf_wait");
    stalls.btb = r.u64("btb");
    stalls.redirect = r.u64("redirect");
    stalls.ftqEmpty = r.u64("ftq_empty");
    stalls.backend = r.u64("backend");
    r.finish();
    return stalls;
}

} // namespace

// ------------------------------------------------------ strict reader

ObjectReader::ObjectReader(const Value &v, const char *what)
    : what_(what)
{
    if (!v.isObject())
        throw CodecError(std::string(what) + ": expected an object");
    object_ = &v;
    consumed_.assign(v.members().size(), false);
}

const Value &
ObjectReader::get(const char *key)
{
    if (const Value *v = optional(key))
        return *v;
    throw CodecError(std::string(what_) + ": missing field \"" + key +
                     "\"");
}

const Value *
ObjectReader::optional(const char *key)
{
    const auto &members = object_->members();
    for (std::size_t i = 0; i < members.size(); ++i) {
        if (members[i].first == key) {
            consumed_[i] = true;
            return &members[i].second;
        }
    }
    return nullptr;
}

void
ObjectReader::finish() const
{
    const auto &members = object_->members();
    for (std::size_t i = 0; i < members.size(); ++i) {
        if (!consumed_[i])
            throw CodecError(std::string(what_) + ": unknown field \"" +
                             members[i].first + "\"");
    }
}

// -------------------------------------------------------------- encode

json::Value
encodeProgramParams(const ProgramParams &p)
{
    Value v = Value::object();
    v.set("name", Value::string(p.name));
    v.set("num_funcs", Value::number(std::uint64_t{p.numFuncs}));
    v.set("num_os_funcs", Value::number(std::uint64_t{p.numOsFuncs}));
    v.set("num_trap_handlers",
          Value::number(std::uint64_t{p.numTrapHandlers}));
    v.set("num_top_level", Value::number(std::uint64_t{p.numTopLevel}));
    v.set("zipf_alpha", Value::number(p.zipfAlpha));
    v.set("os_zipf_alpha", Value::number(p.osZipfAlpha));
    v.set("top_zipf_alpha", Value::number(p.topZipfAlpha));
    v.set("bb_grow_prob", Value::number(p.bbGrowProb));
    v.set("min_bb_instrs", Value::number(std::uint64_t{p.minBBInstrs}));
    v.set("max_bb_instrs", Value::number(std::uint64_t{p.maxBBInstrs}));
    v.set("func_grow_prob", Value::number(p.funcGrowProb));
    v.set("min_bbs_per_func",
          Value::number(std::uint64_t{p.minBBsPerFunc}));
    v.set("max_bbs_per_func",
          Value::number(std::uint64_t{p.maxBBsPerFunc}));
    v.set("large_func_frac", Value::number(p.largeFuncFrac));
    v.set("large_func_bbs",
          Value::number(std::uint64_t{p.largeFuncBBs}));
    v.set("cond_frac", Value::number(p.condFrac));
    v.set("call_frac", Value::number(p.callFrac));
    v.set("jump_frac", Value::number(p.jumpFrac));
    v.set("trap_frac", Value::number(p.trapFrac));
    v.set("loop_frac", Value::number(p.loopFrac));
    v.set("pattern_frac", Value::number(p.patternFrac));
    v.set("strong_frac", Value::number(p.strongFrac));
    v.set("medium_frac", Value::number(p.mediumFrac));
    v.set("min_loop_trip", Value::number(std::uint64_t{p.minLoopTrip}));
    v.set("max_loop_trip", Value::number(std::uint64_t{p.maxLoopTrip}));
    v.set("strong_prob", Value::number(p.strongProb));
    v.set("medium_prob", Value::number(p.mediumProb));
    v.set("weak_prob", Value::number(p.weakProb));
    v.set("taken_bias_frac", Value::number(p.takenBiasFrac));
    v.set("sticky_frac", Value::number(p.stickyFrac));
    v.set("max_cond_skip", Value::number(std::uint64_t{p.maxCondSkip}));
    v.set("max_call_depth",
          Value::number(std::uint64_t{p.maxCallDepth}));
    v.set("max_os_call_depth",
          Value::number(std::uint64_t{p.maxOsCallDepth}));
    v.set("seed", Value::number(p.seed));
    return v;
}

json::Value
encodeWorkloadPreset(const WorkloadPreset &preset)
{
    Value v = Value::object();
    v.set("id", Value::string(workloadName(preset.id)));
    v.set("name", Value::string(preset.name));
    v.set("trace_path", Value::string(preset.tracePath));
    v.set("load_frac", Value::number(preset.loadFrac));
    v.set("l1d_miss_rate", Value::number(preset.l1dMissRate));
    v.set("llc_data_miss_frac",
          Value::number(preset.llcDataMissFrac));
    v.set("background_load", Value::number(preset.backgroundLoad));
    v.set("program", encodeProgramParams(preset.program));
    return v;
}

json::Value
encodeCoreParams(const CoreParams &p)
{
    Value v = Value::object();
    v.set("fetch_width", Value::number(std::uint64_t{p.fetchWidth}));
    v.set("retire_width", Value::number(std::uint64_t{p.retireWidth}));
    v.set("ftq_entries", Value::number(std::uint64_t{p.ftqEntries}));
    v.set("backend_entries",
          Value::number(std::uint64_t{p.backendEntries}));
    v.set("bpu_bb_per_cycle",
          Value::number(std::uint64_t{p.bpuBBPerCycle}));
    v.set("misfetch_penalty",
          Value::number(std::uint64_t{p.misfetchPenalty}));
    v.set("mispredict_penalty",
          Value::number(std::uint64_t{p.mispredictPenalty}));
    v.set("predecode_cycles",
          Value::number(std::uint64_t{p.predecodeCycles}));
    v.set("issue_efficiency", Value::number(p.issueEfficiency));
    v.set("ras_entries", Value::number(std::uint64_t{p.rasEntries}));
    v.set("load_frac", Value::number(p.loadFrac));
    v.set("l1d_miss_rate", Value::number(p.l1dMissRate));
    v.set("llc_data_miss_frac", Value::number(p.llcDataMissFrac));
    v.set("mem_level_parallelism",
          Value::number(p.memLevelParallelism));
    v.set("data_seed", Value::number(p.dataSeed));
    v.set("uarch_probes", Value::boolean(p.uarchProbes));
    return v;
}

json::Value
encodeSchemeConfig(const SchemeConfig &config)
{
    Value shotgun_btb = Value::object();
    shotgun_btb.set("ubtb_entries",
                    Value::number(std::uint64_t{config.shotgun.ubtbEntries}));
    shotgun_btb.set("ubtb_ways",
                    Value::number(std::uint64_t{config.shotgun.ubtbWays}));
    shotgun_btb.set("cbtb_entries",
                    Value::number(std::uint64_t{config.shotgun.cbtbEntries}));
    shotgun_btb.set("cbtb_ways",
                    Value::number(std::uint64_t{config.shotgun.cbtbWays}));
    shotgun_btb.set("rib_entries",
                    Value::number(std::uint64_t{config.shotgun.ribEntries}));
    shotgun_btb.set("rib_ways",
                    Value::number(std::uint64_t{config.shotgun.ribWays}));
    shotgun_btb.set("mode", Value::string(footprintModeName(
                                config.shotgun.mode)));
    shotgun_btb.set("dedicated_rib",
                    Value::boolean(config.shotgun.dedicatedRIB));

    Value confluence = Value::object();
    confluence.set("btb_entries",
                   Value::number(std::uint64_t{config.confluence.btbEntries}));
    confluence.set(
        "history_entries",
        Value::number(std::uint64_t{config.confluence.historyEntries}));
    confluence.set(
        "index_entries",
        Value::number(std::uint64_t{config.confluence.indexEntries}));
    confluence.set("index_ways",
                   Value::number(std::uint64_t{config.confluence.indexWays}));
    confluence.set(
        "lookahead_blocks",
        Value::number(std::uint64_t{config.confluence.lookaheadBlocks}));
    confluence.set(
        "issue_per_cycle",
        Value::number(std::uint64_t{config.confluence.issuePerCycle}));
    confluence.set("divergence_tolerance",
                   Value::number(std::uint64_t{
                       config.confluence.divergenceTolerance}));
    confluence.set(
        "resync_window",
        Value::number(std::uint64_t{config.confluence.resyncWindow}));

    Value rdip = Value::object();
    rdip.set("btb_entries",
             Value::number(std::uint64_t{config.rdip.btbEntries}));
    rdip.set("table_entries",
             Value::number(std::uint64_t{config.rdip.tableEntries}));
    rdip.set("table_ways",
             Value::number(std::uint64_t{config.rdip.tableWays}));
    rdip.set("blocks_per_entry",
             Value::number(std::uint64_t{config.rdip.blocksPerEntry}));
    rdip.set("signature_depth",
             Value::number(std::uint64_t{config.rdip.signatureDepth}));
    rdip.set("lookahead",
             Value::number(std::uint64_t{config.rdip.lookahead}));

    Value v = Value::object();
    v.set("type", Value::string(schemeTypeName(config.type)));
    v.set("conventional_entries",
          Value::number(std::uint64_t{config.conventionalEntries}));
    v.set("prefetch_buffer_entries",
          Value::number(std::uint64_t{config.prefetchBufferEntries}));
    v.set("shotgun", std::move(shotgun_btb));
    v.set("confluence", std::move(confluence));
    v.set("rdip", std::move(rdip));
    return v;
}

json::Value
encodeSimWindow(const SimWindow &window)
{
    Value v = Value::object();
    v.set("skip_instructions",
          Value::number(window.skipInstructions));
    v.set("measure_start", Value::number(window.measureStart));
    v.set("measure_end", Value::number(window.measureEnd));
    return v;
}

json::Value
encodeSimConfig(const SimConfig &config)
{
    Value v = Value::object();
    v.set("workload", encodeWorkloadPreset(config.workload));
    v.set("scheme", encodeSchemeConfig(config.scheme));
    v.set("core", encodeCoreParams(config.core));
    v.set("warmup_instructions",
          Value::number(config.warmupInstructions));
    v.set("measure_instructions",
          Value::number(config.measureInstructions));
    v.set("trace_seed", Value::number(config.traceSeed));
    v.set("window", encodeSimWindow(config.window));
    return v;
}

json::Value
encodeUarchBreakdown(const obs::UarchBreakdown &u,
                     const Core::CycleBreakdown &stalls)
{
    Value lifecycle = Value::array();
    for (std::size_t i = 0; i < obs::kNumUarchStructures; ++i) {
        const obs::PrefetchLifecycle &l = u.lifecycle[i];
        Value entry = Value::object();
        entry.set("structure",
                  Value::string(obs::uarchStructureName(
                      static_cast<obs::UarchStructure>(i))));
        entry.set("issued", Value::number(l.issued));
        entry.set("timely", Value::number(l.timely));
        entry.set("late", Value::number(l.late));
        entry.set("unused_evicted", Value::number(l.unusedEvicted));
        entry.set("polluting", Value::number(l.polluting));
        lifecycle.push(std::move(entry));
    }

    const auto encode_sites =
        [](const std::vector<obs::SiteCount> &sites) {
            Value arr = Value::array();
            for (const obs::SiteCount &s : sites) {
                Value site = Value::object();
                site.set("pc", Value::number(std::uint64_t{s.pc}));
                site.set("count", Value::number(s.count));
                site.set("error", Value::number(s.error));
                arr.push(std::move(site));
            }
            return arr;
        };

    Value v = Value::object();
    v.set("enabled", Value::boolean(u.enabled));
    v.set("active_cycles", Value::number(stalls.active));
    v.set("stall_icache_miss", Value::number(stalls.icache));
    v.set("stall_btb_miss", Value::number(stalls.btb));
    v.set("stall_redirect", Value::number(stalls.redirect));
    v.set("stall_ftq_empty", Value::number(stalls.ftqEmpty));
    v.set("stall_backend_pressure", Value::number(stalls.backend));
    v.set("stall_prefetch_in_flight", Value::number(stalls.pfWait));
    v.set("lifecycle", std::move(lifecycle));
    v.set("btb_miss_sites", encode_sites(u.btbMissSites));
    v.set("l1i_miss_sites", encode_sites(u.l1iMissSites));
    return v;
}

obs::UarchBreakdown
decodeUarchBreakdown(const json::Value &v,
                     const Core::CycleBreakdown &stalls)
{
    ObjectReader r(v, "uarch");
    obs::UarchBreakdown u;
    u.enabled = r.boolean("enabled");
    Core::CycleBreakdown repeated;
    repeated.active = r.u64("active_cycles");
    repeated.icache = r.u64("stall_icache_miss");
    repeated.btb = r.u64("stall_btb_miss");
    repeated.redirect = r.u64("stall_redirect");
    repeated.ftqEmpty = r.u64("stall_ftq_empty");
    repeated.backend = r.u64("stall_backend_pressure");
    repeated.pfWait = r.u64("stall_prefetch_in_flight");
    if (!(repeated == stalls))
        throw CodecError("uarch: the stall members disagree with "
                         "\"stalls\"");

    const Value &lifecycle = r.get("lifecycle");
    if (!lifecycle.isArray() ||
        lifecycle.items().size() != obs::kNumUarchStructures)
        throw CodecError("uarch.lifecycle: expected an array of " +
                         std::to_string(obs::kNumUarchStructures) +
                         " structures");
    for (std::size_t i = 0; i < obs::kNumUarchStructures; ++i) {
        ObjectReader lr(lifecycle.items()[i], "uarch.lifecycle");
        const std::string structure = lr.str("structure");
        if (structure !=
            obs::uarchStructureName(
                static_cast<obs::UarchStructure>(i)))
            throw CodecError("uarch.lifecycle: structure \"" +
                             structure + "\" out of order");
        obs::PrefetchLifecycle &l = u.lifecycle[i];
        l.issued = lr.u64("issued");
        l.timely = lr.u64("timely");
        l.late = lr.u64("late");
        l.unusedEvicted = lr.u64("unused_evicted");
        l.polluting = lr.u64("polluting");
        lr.finish();
    }

    const auto decode_sites = [](const Value &arr, const char *what) {
        if (!arr.isArray())
            throw CodecError(std::string(what) +
                             ": expected an array");
        std::vector<obs::SiteCount> sites;
        sites.reserve(arr.items().size());
        for (const Value &e : arr.items()) {
            ObjectReader sr(e, what);
            obs::SiteCount s;
            s.pc = sr.u64("pc");
            s.count = sr.u64("count");
            s.error = sr.u64("error");
            sr.finish();
            sites.push_back(s);
        }
        return sites;
    };
    u.btbMissSites =
        decode_sites(r.get("btb_miss_sites"), "uarch.btb_miss_sites");
    u.l1iMissSites =
        decode_sites(r.get("l1i_miss_sites"), "uarch.l1i_miss_sites");
    r.finish();
    return u;
}

json::Value
encodeSimResult(const SimResult &result)
{
    // Key names match ResultSink's JSON emission where the two
    // overlap, so downstream tooling parses either stream uniformly.
    Value v = Value::object();
    v.set("workload", Value::string(result.workload));
    v.set("scheme", Value::string(result.scheme));
    v.set("instructions", Value::number(result.instructions));
    v.set("cycles", Value::number(std::uint64_t{result.cycles}));
    v.set("ipc", Value::number(result.ipc));
    v.set("btb_mpki", Value::number(result.btbMPKI));
    v.set("l1i_mpki", Value::number(result.l1iMPKI));
    v.set("mispredicts_per_ki",
          Value::number(result.mispredictsPerKI));
    v.set("stalls", encodeCycleBreakdown(result.stalls));
    v.set("fe_stall_cycles", Value::number(result.frontEndStallCycles));
    v.set("prefetch_accuracy", Value::number(result.prefetchAccuracy));
    v.set("avg_l1d_fill_cycles",
          Value::number(result.avgL1DFillCycles));
    v.set("prefetches_issued",
          Value::number(result.prefetchesIssued));
    v.set("storage_bits", Value::number(result.schemeStorageBits));
    // Optional member: emitted only for probed runs so probe-free
    // results keep their historical byte-exact encoding.
    if (result.uarch.enabled)
        v.set("uarch", encodeUarchBreakdown(result.uarch, result.stalls));
    return v;
}

json::Value
encodeStatsDelta(const StatsDelta &delta)
{
    Value v = Value::object();
    v.set("instructions", Value::number(delta.instructions));
    v.set("cycles", Value::number(delta.cycles));
    v.set("stalls", encodeCycleBreakdown(delta.stalls));
    v.set("fe_stall_cycles", Value::number(delta.frontEndStallCycles));
    v.set("btb_misses", Value::number(delta.btbMisses));
    v.set("mispredicts", Value::number(delta.mispredicts));
    v.set("misfetches", Value::number(delta.misfetches));
    v.set("l1i_demand_misses",
          Value::number(delta.l1iDemandMisses));
    v.set("prefetches_issued",
          Value::number(delta.prefetchesIssued));
    v.set("useful_prefetches",
          Value::number(delta.usefulPrefetches));
    v.set("late_useful_prefetches",
          Value::number(delta.lateUsefulPrefetches));
    // An exact integer (sum of Cycle-valued samples); the canonical
    // double formatting round-trips it bit for bit.
    v.set("l1d_fill_sum", Value::number(delta.l1dFillSum));
    v.set("l1d_fill_count", Value::number(delta.l1dFillCount));
    if (delta.uarch.enabled)
        v.set("uarch", encodeUarchBreakdown(delta.uarch, delta.stalls));
    return v;
}

// -------------------------------------------------------------- decode

ProgramParams
decodeProgramParams(const json::Value &v)
{
    ObjectReader r(v, "program");
    ProgramParams p;
    p.name = r.str("name");
    p.numFuncs = r.integer<std::uint32_t>("num_funcs");
    p.numOsFuncs = r.integer<std::uint32_t>("num_os_funcs");
    p.numTrapHandlers = r.integer<std::uint32_t>("num_trap_handlers");
    p.numTopLevel = r.integer<std::uint32_t>("num_top_level");
    p.zipfAlpha = r.number("zipf_alpha");
    p.osZipfAlpha = r.number("os_zipf_alpha");
    p.topZipfAlpha = r.number("top_zipf_alpha");
    p.bbGrowProb = r.number("bb_grow_prob");
    p.minBBInstrs = r.integer<std::uint32_t>("min_bb_instrs");
    p.maxBBInstrs = r.integer<std::uint32_t>("max_bb_instrs");
    p.funcGrowProb = r.number("func_grow_prob");
    p.minBBsPerFunc = r.integer<std::uint32_t>("min_bbs_per_func");
    p.maxBBsPerFunc = r.integer<std::uint32_t>("max_bbs_per_func");
    p.largeFuncFrac = r.number("large_func_frac");
    p.largeFuncBBs = r.integer<std::uint32_t>("large_func_bbs");
    p.condFrac = r.number("cond_frac");
    p.callFrac = r.number("call_frac");
    p.jumpFrac = r.number("jump_frac");
    p.trapFrac = r.number("trap_frac");
    p.loopFrac = r.number("loop_frac");
    p.patternFrac = r.number("pattern_frac");
    p.strongFrac = r.number("strong_frac");
    p.mediumFrac = r.number("medium_frac");
    p.minLoopTrip = r.integer<std::uint32_t>("min_loop_trip");
    p.maxLoopTrip = r.integer<std::uint32_t>("max_loop_trip");
    p.strongProb = r.number("strong_prob");
    p.mediumProb = r.number("medium_prob");
    p.weakProb = r.number("weak_prob");
    p.takenBiasFrac = r.number("taken_bias_frac");
    p.stickyFrac = r.number("sticky_frac");
    p.maxCondSkip = r.integer<std::uint32_t>("max_cond_skip");
    p.maxCallDepth = r.integer<std::uint32_t>("max_call_depth");
    p.maxOsCallDepth = r.integer<std::uint32_t>("max_os_call_depth");
    p.seed = r.u64("seed");
    r.finish();
    return p;
}

WorkloadPreset
decodeWorkloadPreset(const json::Value &v)
{
    ObjectReader r(v, "workload");
    WorkloadPreset preset;
    preset.id = workloadIdFromName(r.str("id"));
    preset.name = r.str("name");
    preset.tracePath = r.str("trace_path");
    preset.loadFrac = r.number("load_frac");
    preset.l1dMissRate = r.number("l1d_miss_rate");
    preset.llcDataMissFrac = r.number("llc_data_miss_frac");
    preset.backgroundLoad = r.number("background_load");
    preset.program = decodeProgramParams(r.get("program"));
    r.finish();
    return preset;
}

CoreParams
decodeCoreParams(const json::Value &v)
{
    ObjectReader r(v, "core");
    CoreParams p;
    p.fetchWidth = r.integer<unsigned>("fetch_width");
    p.retireWidth = r.integer<unsigned>("retire_width");
    p.ftqEntries = r.integer<unsigned>("ftq_entries");
    p.backendEntries = r.integer<unsigned>("backend_entries");
    p.bpuBBPerCycle = r.integer<unsigned>("bpu_bb_per_cycle");
    p.misfetchPenalty = r.integer<unsigned>("misfetch_penalty");
    p.mispredictPenalty = r.integer<unsigned>("mispredict_penalty");
    p.predecodeCycles = r.integer<unsigned>("predecode_cycles");
    p.issueEfficiency = r.number("issue_efficiency");
    p.rasEntries = r.integer<unsigned>("ras_entries");
    p.loadFrac = r.number("load_frac");
    p.l1dMissRate = r.number("l1d_miss_rate");
    p.llcDataMissFrac = r.number("llc_data_miss_frac");
    p.memLevelParallelism = r.number("mem_level_parallelism");
    p.dataSeed = r.u64("data_seed");
    p.uarchProbes = r.boolean("uarch_probes");
    r.finish();
    return p;
}

SchemeConfig
decodeSchemeConfig(const json::Value &v)
{
    ObjectReader r(v, "scheme");
    SchemeConfig config;
    config.type = schemeTypeFromName(r.str("type"));
    config.conventionalEntries =
        r.integer<std::size_t>("conventional_entries");
    config.prefetchBufferEntries =
        r.integer<std::size_t>("prefetch_buffer_entries");

    ObjectReader sg(r.get("shotgun"), "scheme.shotgun");
    config.shotgun.ubtbEntries = sg.integer<std::size_t>("ubtb_entries");
    config.shotgun.ubtbWays = sg.integer<std::size_t>("ubtb_ways");
    config.shotgun.cbtbEntries = sg.integer<std::size_t>("cbtb_entries");
    config.shotgun.cbtbWays = sg.integer<std::size_t>("cbtb_ways");
    config.shotgun.ribEntries = sg.integer<std::size_t>("rib_entries");
    config.shotgun.ribWays = sg.integer<std::size_t>("rib_ways");
    config.shotgun.mode = footprintModeFromName(sg.str("mode"));
    config.shotgun.dedicatedRIB = sg.boolean("dedicated_rib");
    sg.finish();

    ObjectReader cf(r.get("confluence"), "scheme.confluence");
    config.confluence.btbEntries =
        cf.integer<std::size_t>("btb_entries");
    config.confluence.historyEntries =
        cf.integer<std::size_t>("history_entries");
    config.confluence.indexEntries =
        cf.integer<std::size_t>("index_entries");
    config.confluence.indexWays = cf.integer<std::size_t>("index_ways");
    config.confluence.lookaheadBlocks =
        cf.integer<unsigned>("lookahead_blocks");
    config.confluence.issuePerCycle =
        cf.integer<unsigned>("issue_per_cycle");
    config.confluence.divergenceTolerance =
        cf.integer<unsigned>("divergence_tolerance");
    config.confluence.resyncWindow =
        cf.integer<unsigned>("resync_window");
    cf.finish();

    ObjectReader rd(r.get("rdip"), "scheme.rdip");
    config.rdip.btbEntries = rd.integer<std::size_t>("btb_entries");
    config.rdip.tableEntries = rd.integer<std::size_t>("table_entries");
    config.rdip.tableWays = rd.integer<std::size_t>("table_ways");
    config.rdip.blocksPerEntry =
        rd.integer<unsigned>("blocks_per_entry");
    config.rdip.signatureDepth =
        rd.integer<unsigned>("signature_depth");
    config.rdip.lookahead = rd.integer<unsigned>("lookahead");
    rd.finish();

    r.finish();
    return config;
}

SimWindow
decodeSimWindow(const json::Value &v)
{
    ObjectReader r(v, "window");
    SimWindow window;
    window.skipInstructions = r.u64("skip_instructions");
    window.measureStart = r.u64("measure_start");
    window.measureEnd = r.u64("measure_end");
    r.finish();
    // Semantic validation here, at the frame boundary: what would be
    // fatal() inside runSimulation() must reject the frame instead.
    if (window.enabled() && window.measureStart >= window.measureEnd)
        throw CodecError("window: empty measure range [" +
                         std::to_string(window.measureStart) + ", " +
                         std::to_string(window.measureEnd) + ")");
    if (!window.enabled() &&
        (window.skipInstructions != 0 || window.measureStart != 0))
        throw CodecError(
            "window: skip_instructions/measure_start without a "
            "window (set measure_end)");
    return window;
}

SimConfig
decodeSimConfig(const json::Value &v)
{
    ObjectReader r(v, "config");
    SimConfig config;
    config.workload = decodeWorkloadPreset(r.get("workload"));
    config.scheme = decodeSchemeConfig(r.get("scheme"));
    config.core = decodeCoreParams(r.get("core"));
    config.warmupInstructions = r.u64("warmup_instructions");
    config.measureInstructions = r.u64("measure_instructions");
    config.traceSeed = r.u64("trace_seed");
    config.window = decodeSimWindow(r.get("window"));
    if (config.window.enabled() &&
        config.window.measureEnd > config.measureInstructions)
        throw CodecError(
            "window: measure_end " +
            std::to_string(config.window.measureEnd) +
            " exceeds measure_instructions " +
            std::to_string(config.measureInstructions));
    r.finish();
    return config;
}

SimResult
decodeSimResult(const json::Value &v)
{
    ObjectReader r(v, "result");
    SimResult result;
    result.workload = r.str("workload");
    result.scheme = r.str("scheme");
    result.instructions = r.u64("instructions");
    result.cycles = r.u64("cycles");
    result.ipc = r.number("ipc");
    result.btbMPKI = r.number("btb_mpki");
    result.l1iMPKI = r.number("l1i_mpki");
    result.mispredictsPerKI = r.number("mispredicts_per_ki");

    result.stalls = decodeCycleBreakdown(r.get("stalls"), "result.stalls");
    result.frontEndStallCycles = r.u64("fe_stall_cycles");
    result.prefetchAccuracy = r.number("prefetch_accuracy");
    result.avgL1DFillCycles = r.number("avg_l1d_fill_cycles");
    result.prefetchesIssued = r.u64("prefetches_issued");
    result.schemeStorageBits = r.u64("storage_bits");
    if (const Value *uarch = r.optional("uarch"))
        result.uarch = decodeUarchBreakdown(*uarch, result.stalls);
    r.finish();
    return result;
}

StatsDelta
decodeStatsDelta(const json::Value &v)
{
    ObjectReader r(v, "delta");
    StatsDelta delta;
    delta.instructions = r.u64("instructions");
    delta.cycles = r.u64("cycles");

    delta.stalls = decodeCycleBreakdown(r.get("stalls"), "delta.stalls");
    delta.frontEndStallCycles = r.u64("fe_stall_cycles");
    delta.btbMisses = r.u64("btb_misses");
    delta.mispredicts = r.u64("mispredicts");
    delta.misfetches = r.u64("misfetches");
    delta.l1iDemandMisses = r.u64("l1i_demand_misses");
    delta.prefetchesIssued = r.u64("prefetches_issued");
    delta.usefulPrefetches = r.u64("useful_prefetches");
    delta.lateUsefulPrefetches = r.u64("late_useful_prefetches");
    delta.l1dFillSum = r.number("l1d_fill_sum");
    delta.l1dFillCount = r.u64("l1d_fill_count");
    if (const Value *uarch = r.optional("uarch"))
        delta.uarch = decodeUarchBreakdown(*uarch, delta.stalls);
    r.finish();
    return delta;
}

// --------------------------------------------------------- fingerprint

std::string
fingerprintHex(std::uint64_t hash)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

std::string
configFingerprint(const SimConfig &config)
{
    return fingerprintHex(
        json::fnv1a64(encodeSimConfig(config).dump()));
}

} // namespace service
} // namespace shotgun
