/**
 * @file
 * Tests for the canonical SimConfig/SimResult codec (service/codec.hh)
 * and the frame encoders (service/protocol.hh): round-trip equality
 * (including trace-backed workloads and non-default CoreParams),
 * fingerprint stability, strict decoding of every frame type (one
 * table row per type: unknown and missing members are CodecErrors)
 * and a seeded mutation sweep that must never escape JsonError.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "service/codec.hh"
#include "service/protocol.hh"
#include "sim/simulator.hh"
#include "trace/generator.hh"
#include "trace/program.hh"
#include "trace/trace_io.hh"

namespace shotgun
{
namespace service
{
namespace
{

using json::Value;

/**
 * Round-trip identity at the byte level: decode(encode(x)) encodes to
 * the same canonical bytes. Struct-level equality falls out because
 * the encoding covers every field (which the strict decoder enforces:
 * a field added to the struct but not the codec makes decode's
 * finish() pass but the round-trip test here catch the miss only if
 * serialized -- hence both directions are asserted on real presets).
 */
std::string
canonical(const SimConfig &config)
{
    return encodeSimConfig(config).dump();
}

TEST(ServiceCodecTest, SimConfigRoundTripsForAllPresets)
{
    for (const WorkloadPreset &preset : allPresets()) {
        for (SchemeType type :
             {SchemeType::Baseline, SchemeType::Shotgun,
              SchemeType::Confluence, SchemeType::RDIP}) {
            const SimConfig config = SimConfig::make(preset, type);
            const std::string bytes = canonical(config);
            const SimConfig decoded =
                decodeSimConfig(Value::parse(bytes));
            EXPECT_EQ(canonical(decoded), bytes)
                << preset.name << "/" << schemeTypeName(type);
            EXPECT_EQ(decoded.workload.name, preset.name);
            EXPECT_EQ(decoded.scheme.type, type);
        }
    }
}

TEST(ServiceCodecTest, NonDefaultFieldsSurvive)
{
    SimConfig config =
        SimConfig::make(makePreset(WorkloadId::Oracle),
                        SchemeType::Shotgun);
    config.warmupInstructions = 123;
    config.measureInstructions = 456;
    config.traceSeed = 0xfeedface;
    config.core.fetchWidth = 8;
    config.core.issueEfficiency = 0.75;
    config.core.dataSeed = 0x123456789abcdef0ull;
    config.scheme.shotgun.ubtbEntries = 4096;
    config.scheme.shotgun.mode = FootprintMode::EntireRegion;
    config.scheme.shotgun.dedicatedRIB = false;
    config.scheme.confluence.lookaheadBlocks = 99;
    config.scheme.rdip.signatureDepth = 7;
    config.workload.program.zipfAlpha = 1.23456789012345;

    const SimConfig decoded =
        decodeSimConfig(Value::parse(canonical(config)));
    EXPECT_EQ(canonical(decoded), canonical(config));
    EXPECT_EQ(decoded.core.fetchWidth, 8u);
    EXPECT_EQ(decoded.core.dataSeed, 0x123456789abcdef0ull);
    EXPECT_EQ(decoded.scheme.shotgun.mode,
              FootprintMode::EntireRegion);
    EXPECT_FALSE(decoded.scheme.shotgun.dedicatedRIB);
    EXPECT_EQ(decoded.workload.program.zipfAlpha, 1.23456789012345);
}

TEST(ServiceCodecTest, TraceBackedWorkloadRoundTrips)
{
    // Record a tiny trace, make it a first-class workload via the
    // trace: spec, and push it through the codec both ways.
    WorkloadPreset preset;
    preset.name = "codec-tiny";
    preset.program.name = "codec-tiny";
    preset.program.numFuncs = 120;
    preset.program.numOsFuncs = 30;
    preset.program.numTrapHandlers = 4;
    preset.program.numTopLevel = 8;
    preset.program.seed = 0xc0dec;

    const std::string path = "/tmp/shotgun_codec_test.trace";
    Program prog(preset.program);
    TraceGenerator gen(prog, 5);
    recordTrace(gen, preset, 5, path, 2000);

    const WorkloadPreset traced =
        presetByName("trace:" + path + ":codec-tiny");
    EXPECT_EQ(traced.tracePath, path);

    const SimConfig config =
        SimConfig::make(traced, SchemeType::Shotgun);
    const std::string bytes = canonical(config);
    const SimConfig decoded = decodeSimConfig(Value::parse(bytes));
    EXPECT_EQ(canonical(decoded), bytes);
    EXPECT_EQ(decoded.workload.tracePath, path);
    EXPECT_EQ(decoded.workload.program.seed, 0xc0decu);

    // Decoding reads no file: the config still decodes to the same
    // bytes with the trace gone (the simulator rejects it later).
    std::remove(path.c_str());
    EXPECT_EQ(canonical(decodeSimConfig(Value::parse(bytes))), bytes);
}

TEST(ServiceCodecTest, StringWorkloadIsACodecError)
{
    // The workload is the canonical object, nothing else: a preset
    // name or a trace:<path> spec in its place is a kind mismatch,
    // rejected like any other, and never resolved against a file.
    const Value canonical_config = encodeSimConfig(SimConfig::make(
        makePreset(WorkloadId::Oracle), SchemeType::Baseline));
    for (const char *spec : {"oracle", "trace:/tmp/x.trace", ""}) {
        SCOPED_TRACE(spec);
        EXPECT_THROW(decodeWorkloadPreset(Value::string(spec)),
                     CodecError);
        Value config = Value::object();
        for (const Value::Member &m : canonical_config.members())
            config.set(m.first, m.first == "workload"
                                    ? Value::string(spec)
                                    : m.second);
        EXPECT_THROW(decodeSimConfig(config), CodecError);
    }
}

TEST(ServiceCodecTest, SimResultRoundTrips)
{
    SimResult result;
    result.workload = "oracle";
    result.scheme = "shotgun";
    result.instructions = 5000000;
    result.cycles = 7123456;
    result.ipc = 0.7018239847;
    result.btbMPKI = 45.125;
    result.l1iMPKI = 30.5;
    result.mispredictsPerKI = 7.25;
    result.stalls.active = 50;
    result.stalls.icache = 100;
    result.stalls.pfWait = 150;
    result.stalls.btb = 200;
    result.stalls.redirect = 300;
    result.stalls.ftqEmpty = 400;
    result.stalls.backend = 500;
    result.frontEndStallCycles = 600;
    result.prefetchAccuracy = 0.875;
    result.avgL1DFillCycles = 21.5;
    result.prefetchesIssued = 12345;
    result.schemeStorageBits = 1ull << 40;

    const Value encoded = encodeSimResult(result);
    const SimResult decoded =
        decodeSimResult(Value::parse(encoded.dump()));
    EXPECT_TRUE(decoded == result);
}

TEST(ServiceCodecTest, FingerprintIsStableAndDiscriminates)
{
    const SimConfig config = SimConfig::make(
        makePreset(WorkloadId::Nutch), SchemeType::Shotgun);

    // Stable across processes and releases: a change to the
    // canonical encoding (field order, number formatting, a new
    // field) invalidates every cached fingerprint and must be a
    // conscious decision -- this golden value is the tripwire.
    // (Moved deliberately in protocol 2, which added the "window"
    // member to every canonical config, and again when "uarch_probes"
    // joined the canonical core parameters.)
    EXPECT_EQ(configFingerprint(config), "8d5412b9b6d44732");

    // Identical for an encode/decode round trip.
    const SimConfig decoded =
        decodeSimConfig(Value::parse(encodeSimConfig(config).dump()));
    EXPECT_EQ(configFingerprint(decoded), configFingerprint(config));

    // Any field nudge moves it.
    SimConfig nudged = config;
    nudged.traceSeed += 1;
    EXPECT_NE(configFingerprint(nudged), configFingerprint(config));
    nudged = config;
    nudged.core.ftqEntries += 1;
    EXPECT_NE(configFingerprint(nudged), configFingerprint(config));
    nudged = config;
    nudged.scheme.shotgun.ribWays += 1;
    EXPECT_NE(configFingerprint(nudged), configFingerprint(config));

    EXPECT_EQ(fingerprintHex(0x0123456789abcdefull),
              "0123456789abcdef");
}

TEST(ServiceCodecTest, RejectsMalformedConfigs)
{
    const SimConfig config = SimConfig::make(
        makePreset(WorkloadId::Nutch), SchemeType::Shotgun);
    const std::string bytes = encodeSimConfig(config).dump();

    // Not an object.
    EXPECT_THROW(decodeSimConfig(Value::parse("[1,2]")), CodecError);
    EXPECT_THROW(decodeSimConfig(Value::parse("42")), CodecError);

    // Missing field.
    {
        Value v = Value::parse(bytes);
        Value stripped = Value::object();
        for (const auto &member : v.members()) {
            if (member.first != "trace_seed")
                stripped.set(member.first, member.second);
        }
        EXPECT_THROW(decodeSimConfig(stripped), CodecError);
    }

    // Unknown extra field.
    {
        Value v = Value::parse(bytes);
        v.set("surprise", Value::number(std::uint64_t{1}));
        EXPECT_THROW(decodeSimConfig(v), CodecError);
    }

    // Kind mismatch deep inside (core.ftq_entries as a string).
    {
        const Value v = Value::parse(bytes);
        Value core = Value::object();
        for (const auto &member : v.at("core").members()) {
            core.set(member.first,
                     member.first == "ftq_entries"
                         ? Value::string("x")
                         : member.second);
        }
        Value mutated = Value::object();
        for (const auto &member : v.members()) {
            mutated.set(member.first,
                        member.first == "core" ? core : member.second);
        }
        EXPECT_THROW(decodeSimConfig(mutated), json::JsonError);
    }

    // Unknown enum names.
    {
        std::string mutated = bytes;
        const auto pos = mutated.find("\"type\":\"shotgun\"");
        ASSERT_NE(pos, std::string::npos);
        mutated.replace(pos, 16, "\"type\":\"warpgun\"");
        EXPECT_THROW(decodeSimConfig(Value::parse(mutated)),
                     CodecError);
    }
}

// ---------------------------------------------------------- protocol

TEST(ServiceProtocolTest, SubmitFrameRoundTrips)
{
    SubmitRequest request;
    request.experiment = "unit";
    for (SchemeType type : {SchemeType::Baseline, SchemeType::Shotgun}) {
        runner::Experiment exp;
        exp.workload = "nutch";
        exp.label = schemeTypeName(type);
        exp.config =
            SimConfig::make(makePreset(WorkloadId::Nutch), type);
        request.grid.push_back(exp);
    }

    const Value frame = encodeSubmit(request);
    EXPECT_EQ(frameType(frame), "submit");
    const SubmitRequest decoded =
        decodeSubmit(Value::parse(frame.dump()));
    EXPECT_EQ(decoded.experiment, "unit");
    ASSERT_EQ(decoded.grid.size(), 2u);
    EXPECT_EQ(decoded.grid[0].label, "baseline");
    EXPECT_EQ(frame.dump().find("via_baseline"), std::string::npos);
    EXPECT_EQ(configFingerprint(decoded.grid[1].config),
              configFingerprint(request.grid[1].config));
}

TEST(ServiceProtocolTest, SubmitRejectsBadFrames)
{
    // A submit frame complete but for its grid, at `version`.
    const auto submit_at = [](std::uint64_t version) {
        Value v = makeFrame("submit");
        v.set("protocol", Value::number(version));
        v.set("experiment", Value::string("x"));
        v.set("priority", Value::number(std::uint64_t{1}));
        v.set("grid", Value::array());
        return v;
    };
    const auto error_of = [](const Value &frame) -> std::string {
        try {
            decodeSubmit(frame);
        } catch (const CodecError &e) {
            return e.what();
        }
        return "";
    };

    // Any version but this build's is refused outright, the
    // previous one included.
    for (std::uint64_t version : {kProtocolVersion - 1,
                                  std::uint64_t{999}}) {
        EXPECT_NE(error_of(submit_at(version))
                      .find("unsupported protocol version"),
                  std::string::npos)
            << version;
    }

    // Empty grid: a current frame, so the grid check is what fires.
    EXPECT_EQ(error_of(submit_at(kProtocolVersion)),
              "submit: empty grid");

    // Version 4's "jobs" member is gone: the coordinator never read
    // it, and a current frame carrying it is refused.
    SubmitRequest request;
    request.experiment = "x";
    runner::Experiment exp;
    exp.workload = "nutch";
    exp.label = "baseline";
    exp.config = SimConfig::make(makePreset(WorkloadId::Nutch),
                                 SchemeType::Baseline);
    request.grid.push_back(exp);
    Value with_jobs = encodeSubmit(request);
    EXPECT_EQ(error_of(with_jobs), "");
    with_jobs.set("jobs", Value::number(std::uint64_t{2}));
    EXPECT_NE(error_of(with_jobs).find("jobs"), std::string::npos)
        << error_of(with_jobs);

    // Frame type helpers.
    EXPECT_THROW(frameType(Value::parse("[]")), CodecError);
    EXPECT_THROW(frameType(Value::parse("{\"type\":3}")), CodecError);
    EXPECT_EQ(frameType(makeError("boom")), "error");
    EXPECT_EQ(decodeError(makeError("boom")), "boom");
    EXPECT_THROW(decodeSubmit(makeFrame("status")), CodecError);
}

// ------------------------------------------ every frame, table-driven
//
// One row per frame type (and per setting of its conditional
// members). Each row pins the whole strict-decoding contract:
// encode -> decode -> encode is byte-identical, an unknown member
// anywhere in the frame is a CodecError, and so is dropping any
// member except the row's conditional ones.

struct FrameCase
{
    std::string name;
    Value frame;
    /** decode(frame) encoded again. */
    std::function<Value(const Value &)> reencode;
    /** Member names (at any depth) whose absence is meaningful. */
    std::set<std::string> conditional;
};

/** Where an object sits in a frame: member names / array indices. */
using Path = std::vector<std::string>;

void
objectPaths(const Value &v, Path &path, std::vector<Path> &out)
{
    if (v.isObject()) {
        out.push_back(path);
        for (const auto &member : v.members()) {
            path.push_back(member.first);
            objectPaths(member.second, path, out);
            path.pop_back();
        }
    } else if (v.isArray()) {
        for (std::size_t i = 0; i < v.items().size(); ++i) {
            path.push_back(std::to_string(i));
            objectPaths(v.items()[i], path, out);
            path.pop_back();
        }
    }
}

std::vector<Path>
objectPaths(const Value &v)
{
    std::vector<Path> out;
    Path path;
    objectPaths(v, path, out);
    return out;
}

const Value &
valueAt(const Value &v, const Path &path)
{
    const Value *at = &v;
    for (const std::string &step : path)
        at = at->isArray() ? &at->items()[std::stoul(step)]
                           : &at->at(step);
    return *at;
}

/** Copy of `v` with `edit` applied to the value at `path`. */
Value
editAt(const Value &v, const Path &path, std::size_t depth,
       const std::function<Value(const Value &)> &edit)
{
    if (depth == path.size())
        return edit(v);
    if (v.isArray()) {
        Value out = Value::array();
        for (std::size_t i = 0; i < v.items().size(); ++i) {
            out.push(std::to_string(i) == path[depth]
                         ? editAt(v.items()[i], path, depth + 1, edit)
                         : v.items()[i]);
        }
        return out;
    }
    Value out = Value::object();
    for (const auto &member : v.members()) {
        out.set(member.first,
                member.first == path[depth]
                    ? editAt(member.second, path, depth + 1, edit)
                    : member.second);
    }
    return out;
}

Value
without(const Value &object, const std::string &key)
{
    Value out = Value::object();
    for (const auto &member : object.members()) {
        if (member.first != key)
            out.set(member.first, member.second);
    }
    return out;
}

bool
hasMember(const Value &v, const std::string &key)
{
    if (v.isObject()) {
        for (const auto &member : v.members()) {
            if (member.first == key || hasMember(member.second, key))
                return true;
        }
    } else if (v.isArray()) {
        for (const Value &item : v.items()) {
            if (hasMember(item, key))
                return true;
        }
    }
    return false;
}

obs::UarchBreakdown
sampleUarch(std::uint64_t salt)
{
    obs::UarchBreakdown u;
    u.enabled = true;
    for (obs::PrefetchLifecycle &l : u.lifecycle) {
        l.issued = salt + 8;
        l.timely = salt + 9;
        l.late = salt + 10;
        l.unusedEvicted = salt + 11;
        l.polluting = salt + 12;
    }
    u.btbMissSites = {{0x400100, salt + 13, 1}};
    u.l1iMissSites = {{0x400200, salt + 14, 2}};
    return u;
}

SimResult
sampleResult(bool probed)
{
    SimResult r;
    r.workload = "nutch";
    r.scheme = "shotgun";
    r.instructions = 5000000;
    r.cycles = 7123456;
    r.ipc = 0.7018239847;
    r.btbMPKI = 45.125;
    r.l1iMPKI = 30.5;
    r.mispredictsPerKI = 7.25;
    r.stalls.active = 50;
    r.stalls.icache = 100;
    r.stalls.pfWait = 150;
    r.stalls.btb = 200;
    r.stalls.redirect = 300;
    r.stalls.ftqEmpty = 400;
    r.stalls.backend = 500;
    r.frontEndStallCycles = 600;
    r.prefetchAccuracy = 0.875;
    r.avgL1DFillCycles = 21.5;
    r.prefetchesIssued = 12345;
    r.schemeStorageBits = 1ull << 40;
    if (probed)
        r.uarch = sampleUarch(1000);
    return r;
}

StatsDelta
sampleDelta()
{
    StatsDelta d;
    d.instructions = 1000;
    d.cycles = 2000;
    d.stalls.active = 1;
    d.stalls.icache = 2;
    d.stalls.pfWait = 3;
    d.stalls.btb = 4;
    d.stalls.redirect = 5;
    d.stalls.ftqEmpty = 15;
    d.stalls.backend = 16;
    d.frontEndStallCycles = 17;
    d.btbMisses = 6;
    d.mispredicts = 7;
    d.misfetches = 8;
    d.l1iDemandMisses = 9;
    d.prefetchesIssued = 10;
    d.usefulPrefetches = 11;
    d.lateUsefulPrefetches = 12;
    d.l1dFillSum = 13.0;
    d.l1dFillCount = 14;
    d.uarch = sampleUarch(2000);
    return d;
}

std::vector<obs::SpanRecord>
sampleSpans()
{
    obs::SpanRecord span;
    span.traceId = 0xabcdef;
    span.id = 17;
    span.parent = 16;
    span.name = "measure";
    span.category = "sim";
    span.process = "serve:w1";
    span.lane = "slot-3";
    span.startUs = 1754700000000000ull;
    span.durUs = 12345;
    obs::SpanRecord child = span;
    child.id = 18;
    child.parent = 17;
    child.name = "restore";
    return {span, child};
}

obs::PointTiming
sampleTiming()
{
    obs::PointTiming t;
    t.decodeUs = 11;
    t.warmupUs = 22;
    t.restoreUs = 33;
    t.measureUs = 44;
    return t;
}

WorkerCounters
sampleCounters()
{
    WorkerCounters c;
    c.cacheHits = 1;
    c.cacheMisses = 2;
    c.checkpointHits = 4;
    c.checkpointMisses = 5;
    c.phaseDecodeUs = 6;
    c.phaseWarmupUs = 7;
    c.phaseRestoreUs = 8;
    c.phaseMeasureUs = 9;
    c.phasePoints = 10;
    c.measureP50Us = 11;
    c.measureP95Us = 12;
    c.measureP99Us = 13;
    return c;
}

runner::Experiment
sampleExperiment()
{
    runner::Experiment exp;
    exp.workload = "nutch";
    exp.label = "shotgun";
    exp.config = SimConfig::make(makePreset(WorkloadId::Nutch),
                                 SchemeType::Shotgun);
    exp.config.window.measureStart = 100;
    exp.config.window.measureEnd = 200;
    return exp;
}

std::vector<FrameCase>
frameCases()
{
    std::vector<FrameCase> cases;
    for (bool set : {false, true}) {
        const std::string tag = set ? "+conditional" : "-conditional";

        SubmitRequest submit;
        submit.experiment = "table";
        submit.priority = 2;
        submit.grid = {sampleExperiment()};
        if (set) {
            submit.traceId = 0x7ace;
            submit.parentSpan = 5;
        }
        cases.push_back({"submit" + tag, encodeSubmit(submit),
                         [](const Value &f) {
                             return encodeSubmit(decodeSubmit(f));
                         },
                         {"trace"}});

        ResultEvent event;
        event.job = 9;
        event.index = 4;
        event.cached = true;
        event.workload = "nutch";
        event.label = "shotgun";
        event.fingerprint = "00ff00ff00ff00ff";
        event.result = sampleResult(set);
        event.hasDelta = set;
        if (set) {
            event.delta = sampleDelta();
            event.spans = sampleSpans();
            event.hasTiming = true;
            event.timing = sampleTiming();
        }
        cases.push_back(
            {"result" + tag, encodeResultEvent(event),
             [](const Value &f) {
                 return encodeResultEvent(decodeResultEvent(f));
             },
             {"delta", "spans", "timing", "uarch"}});

        DoneEvent done;
        done.job = 9;
        done.status = set ? "error" : "ok";
        done.completed = 4;
        done.cached = 2;
        done.message = set ? "boom" : "";
        cases.push_back({"done" + tag, encodeDone(done),
                         [](const Value &f) {
                             return encodeDone(decodeDone(f));
                         },
                         {"message"}});

        WorkItem work;
        work.task = 77;
        work.experiment = sampleExperiment();
        if (set) {
            work.traceId = 0x7ace;
            work.parentSpan = 6;
        }
        cases.push_back({"work" + tag, encodeWork(work),
                         [](const Value &f) {
                             return encodeWork(decodeWork(f));
                         },
                         {"trace"}});

        WorkResult slot;
        slot.task = 77;
        slot.cached = true;
        slot.fingerprint = "00ff00ff00ff00ff";
        slot.result = sampleResult(set);
        slot.hasDelta = set;
        if (set) {
            slot.delta = sampleDelta();
            slot.spans = sampleSpans();
            slot.hasTiming = true;
            slot.timing = sampleTiming();
        }
        cases.push_back(
            {"slot-result" + tag, encodeWorkResult(slot),
             [](const Value &f) {
                 return encodeWorkResult(decodeWorkResult(f));
             },
             {"delta", "spans", "timing", "uarch"}});
    }

    WorkResult failed;
    failed.task = 78;
    failed.ok = false;
    failed.message = "trace missing on this worker";
    cases.push_back({"slot-result-failed", encodeWorkResult(failed),
                     [](const Value &f) {
                         return encodeWorkResult(decodeWorkResult(f));
                     },
                     {}});

    JobStatus job;
    job.id = 3;
    job.experiment = "table";
    job.state = "running";
    job.total = 10;
    job.completed = 4;
    job.cached = 1;
    cases.push_back({"job-row", encodeJobStatus(job),
                     [](const Value &f) {
                         return encodeJobStatus(decodeJobStatus(f));
                     },
                     {}});

    RegisterRequest reg;
    reg.name = "w1";
    reg.slots = 4;
    cases.push_back({"register", encodeRegister(reg),
                     [](const Value &f) {
                         return encodeRegister(decodeRegister(f));
                     },
                     {}});

    HeartbeatFrame heartbeat;
    heartbeat.worker = 2;
    heartbeat.completed = 30;
    heartbeat.counters = sampleCounters();
    cases.push_back({"heartbeat", encodeHeartbeat(heartbeat),
                     [](const Value &f) {
                         return encodeHeartbeat(decodeHeartbeat(f));
                     },
                     {}});

    WorkerStatus row;
    row.id = 2;
    row.name = "w1";
    row.slots = 4;
    row.inflight = 1;
    row.completed = 30;
    row.alive = false;
    row.heartbeatAgeMs = 1500;
    row.throughput = 2.5;
    row.counters = sampleCounters();
    cases.push_back({"worker-row", encodeWorkerStatus(row),
                     [](const Value &f) {
                         return encodeWorkerStatus(
                             decodeWorkerStatus(f));
                     },
                     {}});

    // The inline frames: {"type":t,key:N} and error.
    for (const char *type : {"cancel", "attach", "ack"}) {
        const char *key = std::string(type) == "cancel" ? "job"
                                                        : "worker";
        Value frame = makeFrame(type);
        frame.set(key, Value::number(std::uint64_t{42}));
        cases.push_back({type, frame,
                         [type, key](const Value &f) {
                             Value out = makeFrame(type);
                             out.set(key, Value::number(
                                              decodeIdFrame(f, type, key)));
                             return out;
                         },
                         {}});
    }
    cases.push_back({"error", makeError("boom"),
                     [](const Value &f) {
                         return makeError(decodeError(f));
                     },
                     {}});
    return cases;
}

TEST(ServiceProtocolTest, EveryFrameRoundTripsAndDecodesStrictly)
{
    for (const FrameCase &c : frameCases()) {
        SCOPED_TRACE(c.name);
        const std::string bytes = c.frame.dump();
        EXPECT_EQ(c.reencode(Value::parse(bytes)).dump(), bytes);

        // The "+conditional" rows carry every conditional member,
        // the others none: both settings are exercised.
        for (const std::string &key : c.conditional) {
            EXPECT_EQ(hasMember(c.frame, key),
                      c.name.find("+conditional") != std::string::npos)
                << key;
        }

        for (const Path &path : objectPaths(c.frame)) {
            const std::string where =
                path.empty() ? "top level" : path.back();
            const Value extra = editAt(c.frame, path, 0, [](const Value &o) {
                Value out = o;
                out.set("surprise", Value::number(std::uint64_t{1}));
                return out;
            });
            EXPECT_THROW(c.reencode(extra), CodecError)
                << "unknown member in " << where;

            for (const auto &member :
                 valueAt(c.frame, path).members()) {
                const Value dropped = editAt(
                    c.frame, path, 0, [&](const Value &o) {
                        return without(o, member.first);
                    });
                if (c.conditional.count(member.first) != 0) {
                    EXPECT_NO_THROW(c.reencode(dropped))
                        << member.first << " in " << where;
                } else {
                    EXPECT_THROW(c.reencode(dropped), CodecError)
                        << member.first << " in " << where;
                }
            }
        }
    }
}

// ------------------------------------------------- mutated frames
//
// Seeded, deterministic damage to one encoded frame of each type:
// every input either decodes or throws json::JsonError (CodecError
// included); anything else escaping, or a crash, fails the test.

/** [begin, end) of every number token outside strings. */
std::vector<std::pair<std::size_t, std::size_t>>
numberTokens(const std::string &text)
{
    std::vector<std::pair<std::size_t, std::size_t>> tokens;
    bool in_string = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
        } else if (c == '"') {
            in_string = true;
        } else if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t end = i;
            while (end < text.size() &&
                   std::strchr("-+.eE0123456789", text[end]) != nullptr)
                ++end;
            tokens.emplace_back(i, end);
            i = end - 1;
        }
    }
    return tokens;
}

std::string
mutate(const std::string &text, std::mt19937_64 &rng)
{
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    std::string out = text;
    switch (pick(5)) {
    case 0: // byte flip
        out[pick(out.size())] ^= static_cast<char>(1 + pick(255));
        return out;
    case 1: // truncation
        return out.substr(0, pick(out.size()));
    case 2:
    case 3: { // a dropped or duplicated member
        const Value frame = Value::parse(text);
        const std::vector<Path> paths = objectPaths(frame);
        const Path &path = paths[pick(paths.size())];
        const Value &object = valueAt(frame, path);
        if (object.members().empty())
            return out;
        const auto &member =
            object.members()[pick(object.members().size())];
        if (pick(2) == 0) {
            return editAt(frame, path, 0, [&](const Value &o) {
                       return without(o, member.first);
                   }).dump();
        }
        const std::string bytes =
            "\"" + member.first + "\":" + member.second.dump();
        const std::size_t at = out.find(bytes);
        return at == std::string::npos
                   ? out
                   : out.insert(at + bytes.size(), "," + bytes);
    }
    default: { // a number swapped for a huge, negative or string value
        const auto tokens = numberTokens(text);
        if (tokens.empty())
            return out;
        const auto token = tokens[pick(tokens.size())];
        static const char *const kSwaps[] = {
            "18446744073709551616", "1e400", "-1", "-1e400",
            "99999999999999999999999999", "\"7\"", "0.5"};
        return out.replace(token.first, token.second - token.first,
                           kSwaps[pick(std::size(kSwaps))]);
    }
    }
}

TEST(ServiceProtocolTest, MutatedFramesDecodeOrThrowJsonError)
{
    std::mt19937_64 rng(0x5407);
    std::size_t decoded = 0, rejected = 0;
    for (const FrameCase &c : frameCases()) {
        const std::string text = c.frame.dump();
        for (int i = 0; i < 200; ++i) {
            const std::string input = mutate(text, rng);
            try {
                c.reencode(Value::parse(input));
                ++decoded;
            } catch (const json::JsonError &) {
                ++rejected;
            }
        }
    }
    // Both outcomes occur: the mutations are neither all fatal nor
    // all harmless.
    EXPECT_GT(decoded, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST(ServiceCodecTest, UarchStallMembersMustAgreeWithStalls)
{
    // A probed frame repeats its cycle breakdown inside "uarch"; a
    // frame whose two copies disagree is damage, not data.
    const auto bump = [](const Value &frame) {
        Value out = Value::object();
        for (const auto &member : frame.members()) {
            if (member.first != "uarch") {
                out.set(member.first, member.second);
                continue;
            }
            Value uarch = Value::object();
            for (const auto &m : member.second.members()) {
                uarch.set(m.first,
                          m.first == "stall_btb_miss"
                              ? Value::number(m.second.asU64() + 1)
                              : m.second);
            }
            out.set("uarch", std::move(uarch));
        }
        return out;
    };
    const Value result = encodeSimResult(sampleResult(true));
    EXPECT_TRUE(decodeSimResult(result) == sampleResult(true));
    EXPECT_THROW(decodeSimResult(bump(result)), CodecError);

    const Value delta = encodeStatsDelta(sampleDelta());
    EXPECT_TRUE(decodeStatsDelta(delta) == sampleDelta());
    EXPECT_THROW(decodeStatsDelta(bump(delta)), CodecError);
}

} // namespace
} // namespace service
} // namespace shotgun
