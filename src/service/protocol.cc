#include "service/protocol.hh"

namespace shotgun
{
namespace service
{

using json::Value;

namespace
{

/** Consume "protocol"; throw unless it is this build's version. */
void
checkProtocol(ObjectReader &frame)
{
    const Value &protocol = frame.get("protocol");
    if (protocol.asU64() != kProtocolVersion)
        throw CodecError("unsupported protocol version " +
                         protocol.numberToken() + " (this build: " +
                         std::to_string(kProtocolVersion) + ")");
}

// --- conditional tracing members: absent unless tracing is active.

/** Append {"trace":{"id":N,"parent":N}} when a trace id is set. */
void
setTraceRef(Value &v, std::uint64_t trace_id,
            std::uint64_t parent_span)
{
    if (trace_id == 0)
        return;
    Value trace = Value::object();
    trace.set("id", Value::number(trace_id));
    trace.set("parent", Value::number(parent_span));
    v.set("trace", std::move(trace));
}

void
getTraceRef(ObjectReader &frame, std::uint64_t &trace_id,
            std::uint64_t &parent_span)
{
    if (const Value *trace = frame.optional("trace")) {
        ObjectReader r(*trace, "trace");
        trace_id = r.u64("id");
        parent_span = r.u64("parent");
        r.finish();
    }
}

void
setSpans(Value &v, const std::vector<obs::SpanRecord> &spans)
{
    if (spans.empty())
        return;
    Value array = Value::array();
    for (const obs::SpanRecord &span : spans)
        array.push(encodeSpan(span));
    v.set("spans", std::move(array));
}

std::vector<obs::SpanRecord>
getSpans(ObjectReader &frame)
{
    std::vector<obs::SpanRecord> spans;
    if (const Value *array = frame.optional("spans")) {
        for (const Value &span : array->items())
            spans.push_back(decodeSpan(span));
    }
    return spans;
}

void
setTiming(Value &v, bool has_timing, const obs::PointTiming &timing)
{
    if (!has_timing)
        return;
    Value t = Value::object();
    t.set("decode_us", Value::number(timing.decodeUs));
    t.set("warmup_us", Value::number(timing.warmupUs));
    t.set("restore_us", Value::number(timing.restoreUs));
    t.set("measure_us", Value::number(timing.measureUs));
    v.set("timing", std::move(t));
}

bool
getTiming(ObjectReader &frame, obs::PointTiming &timing)
{
    const Value *t = frame.optional("timing");
    if (t == nullptr)
        return false;
    ObjectReader r(*t, "timing");
    timing.decodeUs = r.u64("decode_us");
    timing.warmupUs = r.u64("warmup_us");
    timing.restoreUs = r.u64("restore_us");
    timing.measureUs = r.u64("measure_us");
    r.finish();
    return true;
}

// --- the worker counters heartbeats and worker rows share.

void
setWorkerCounters(Value &v, const WorkerCounters &c)
{
    Value cache = Value::object();
    cache.set("hits", Value::number(c.cacheHits));
    cache.set("misses", Value::number(c.cacheMisses));
    cache.set("backend_hits", Value::number(c.backendHits));
    Value checkpoint = Value::object();
    checkpoint.set("hits", Value::number(c.checkpointHits));
    checkpoint.set("misses", Value::number(c.checkpointMisses));
    Value phase = Value::object();
    phase.set("decode_us", Value::number(c.phaseDecodeUs));
    phase.set("warmup_us", Value::number(c.phaseWarmupUs));
    phase.set("restore_us", Value::number(c.phaseRestoreUs));
    phase.set("measure_us", Value::number(c.phaseMeasureUs));
    phase.set("points", Value::number(c.phasePoints));
    Value percentiles = Value::object();
    percentiles.set("measure_p50_us", Value::number(c.measureP50Us));
    percentiles.set("measure_p95_us", Value::number(c.measureP95Us));
    percentiles.set("measure_p99_us", Value::number(c.measureP99Us));
    v.set("cache", std::move(cache));
    v.set("checkpoint", std::move(checkpoint));
    v.set("phase", std::move(phase));
    v.set("percentiles", std::move(percentiles));
}

WorkerCounters
getWorkerCounters(ObjectReader &frame)
{
    WorkerCounters c;
    ObjectReader cache(frame.get("cache"), "cache");
    c.cacheHits = cache.u64("hits");
    c.cacheMisses = cache.u64("misses");
    c.backendHits = cache.u64("backend_hits");
    cache.finish();
    ObjectReader checkpoint(frame.get("checkpoint"), "checkpoint");
    c.checkpointHits = checkpoint.u64("hits");
    c.checkpointMisses = checkpoint.u64("misses");
    checkpoint.finish();
    ObjectReader phase(frame.get("phase"), "phase");
    c.phaseDecodeUs = phase.u64("decode_us");
    c.phaseWarmupUs = phase.u64("warmup_us");
    c.phaseRestoreUs = phase.u64("restore_us");
    c.phaseMeasureUs = phase.u64("measure_us");
    c.phasePoints = phase.u64("points");
    phase.finish();
    ObjectReader pct(frame.get("percentiles"), "percentiles");
    c.measureP50Us = pct.u64("measure_p50_us");
    c.measureP95Us = pct.u64("measure_p95_us");
    c.measureP99Us = pct.u64("measure_p99_us");
    pct.finish();
    return c;
}

} // namespace

json::Value
encodeExperiment(const runner::Experiment &exp)
{
    Value e = Value::object();
    e.set("workload", Value::string(exp.workload));
    e.set("label", Value::string(exp.label));
    e.set("config", encodeSimConfig(exp.config));
    return e;
}

runner::Experiment
decodeExperiment(const json::Value &v)
{
    ObjectReader r(v, "experiment");
    runner::Experiment exp;
    exp.workload = r.str("workload");
    exp.label = r.str("label");
    exp.config = decodeSimConfig(r.get("config"));
    r.finish();
    return exp;
}

json::Value
encodeSpan(const obs::SpanRecord &span)
{
    Value out = Value::object();
    out.set("trace", Value::number(span.traceId));
    out.set("id", Value::number(span.id));
    out.set("parent", Value::number(span.parent));
    out.set("name", Value::string(span.name));
    out.set("cat", Value::string(span.category));
    out.set("proc", Value::string(span.process));
    out.set("lane", Value::string(span.lane));
    out.set("ts", Value::number(span.startUs));
    out.set("dur", Value::number(span.durUs));
    return out;
}

obs::SpanRecord
decodeSpan(const json::Value &v)
{
    ObjectReader r(v, "span");
    obs::SpanRecord span;
    span.traceId = r.u64("trace");
    span.id = r.u64("id");
    span.parent = r.u64("parent");
    span.name = r.str("name");
    span.category = r.str("cat");
    span.process = r.str("proc");
    span.lane = r.str("lane");
    span.startUs = r.u64("ts");
    span.durUs = r.u64("dur");
    r.finish();
    return span;
}

json::Value
encodeSubmit(const SubmitRequest &request)
{
    Value grid = Value::array();
    for (const runner::Experiment &exp : request.grid)
        grid.push(encodeExperiment(exp));
    Value v = Value::object();
    v.set("type", Value::string("submit"));
    v.set("protocol", Value::number(kProtocolVersion));
    v.set("experiment", Value::string(request.experiment));
    v.set("jobs", Value::number(request.jobs));
    v.set("priority", Value::number(request.priority));
    v.set("grid", std::move(grid));
    setTraceRef(v, request.traceId, request.parentSpan);
    return v;
}

SubmitRequest
decodeSubmit(const json::Value &frame)
{
    ObjectReader r = frameReader(frame, "submit");
    checkProtocol(r);
    SubmitRequest request;
    request.experiment = r.str("experiment");
    request.jobs = r.u64("jobs");
    request.priority = r.u64("priority");
    const Value &grid = r.get("grid");
    if (!grid.isArray())
        throw CodecError("submit: \"grid\" must be an array");
    if (grid.items().empty())
        throw CodecError("submit: empty grid");
    for (const Value &e : grid.items())
        request.grid.push_back(decodeExperiment(e));
    getTraceRef(r, request.traceId, request.parentSpan);
    r.finish();
    return request;
}

json::Value
encodeResultEvent(const ResultEvent &event)
{
    Value v = Value::object();
    v.set("type", Value::string("result"));
    v.set("job", Value::number(event.job));
    v.set("index", Value::number(event.index));
    v.set("cached", Value::boolean(event.cached));
    v.set("workload", Value::string(event.workload));
    v.set("label", Value::string(event.label));
    v.set("fingerprint", Value::string(event.fingerprint));
    v.set("result", encodeSimResult(event.result));
    if (event.hasDelta)
        v.set("delta", encodeStatsDelta(event.delta));
    setSpans(v, event.spans);
    setTiming(v, event.hasTiming, event.timing);
    return v;
}

ResultEvent
decodeResultEvent(const json::Value &frame)
{
    ObjectReader r = frameReader(frame, "result");
    ResultEvent event;
    event.job = r.u64("job");
    event.index = r.u64("index");
    event.cached = r.boolean("cached");
    event.workload = r.str("workload");
    event.label = r.str("label");
    event.fingerprint = r.str("fingerprint");
    event.result = decodeSimResult(r.get("result"));
    if (const Value *delta = r.optional("delta")) {
        event.hasDelta = true;
        event.delta = decodeStatsDelta(*delta);
    }
    event.spans = getSpans(r);
    event.hasTiming = getTiming(r, event.timing);
    r.finish();
    return event;
}

std::size_t
resultCacheBytes(const std::string &fingerprint,
                 const CachedResult &cached)
{
    return fingerprint.size() + sizeof(CachedResult) +
           cached.result.workload.size() +
           cached.result.scheme.size();
}

json::Value
encodeDone(const DoneEvent &event)
{
    Value v = Value::object();
    v.set("type", Value::string("done"));
    v.set("job", Value::number(event.job));
    v.set("status", Value::string(event.status));
    v.set("completed", Value::number(event.completed));
    v.set("cached", Value::number(event.cached));
    if (!event.message.empty())
        v.set("message", Value::string(event.message));
    return v;
}

DoneEvent
decodeDone(const json::Value &frame)
{
    ObjectReader r = frameReader(frame, "done");
    DoneEvent event;
    event.job = r.u64("job");
    event.status = r.str("status");
    event.completed = r.u64("completed");
    event.cached = r.u64("cached");
    if (const Value *message = r.optional("message"))
        event.message = message->asString();
    r.finish();
    return event;
}

json::Value
encodeJobStatus(const JobStatus &status)
{
    Value v = Value::object();
    v.set("id", Value::number(status.id));
    v.set("experiment", Value::string(status.experiment));
    v.set("state", Value::string(status.state));
    v.set("total", Value::number(status.total));
    v.set("completed", Value::number(status.completed));
    v.set("cached", Value::number(status.cached));
    v.set("budget", Value::number(status.budget));
    return v;
}

JobStatus
decodeJobStatus(const json::Value &v)
{
    ObjectReader r(v, "job");
    JobStatus status;
    status.id = r.u64("id");
    status.experiment = r.str("experiment");
    status.state = r.str("state");
    status.total = r.u64("total");
    status.completed = r.u64("completed");
    status.cached = r.u64("cached");
    status.budget = r.u64("budget");
    r.finish();
    return status;
}

json::Value
encodeRegister(const RegisterRequest &request)
{
    Value v = Value::object();
    v.set("type", Value::string("register"));
    v.set("protocol", Value::number(kProtocolVersion));
    v.set("name", Value::string(request.name));
    v.set("slots", Value::number(request.slots));
    return v;
}

RegisterRequest
decodeRegister(const json::Value &frame)
{
    ObjectReader r = frameReader(frame, "register");
    checkProtocol(r);
    RegisterRequest request;
    request.name = r.str("name");
    request.slots = r.u64("slots");
    r.finish();
    if (request.slots == 0)
        throw CodecError("register: \"slots\" must be >= 1");
    return request;
}

json::Value
encodeHeartbeat(const HeartbeatFrame &heartbeat)
{
    Value v = Value::object();
    v.set("type", Value::string("heartbeat"));
    v.set("worker", Value::number(heartbeat.worker));
    v.set("completed", Value::number(heartbeat.completed));
    setWorkerCounters(v, heartbeat.counters);
    return v;
}

HeartbeatFrame
decodeHeartbeat(const json::Value &frame)
{
    ObjectReader r = frameReader(frame, "heartbeat");
    HeartbeatFrame heartbeat;
    heartbeat.worker = r.u64("worker");
    heartbeat.completed = r.u64("completed");
    heartbeat.counters = getWorkerCounters(r);
    r.finish();
    return heartbeat;
}

json::Value
encodeWork(const WorkItem &item)
{
    Value v = Value::object();
    v.set("type", Value::string("work"));
    v.set("task", Value::number(item.task));
    v.set("experiment", encodeExperiment(item.experiment));
    setTraceRef(v, item.traceId, item.parentSpan);
    return v;
}

WorkItem
decodeWork(const json::Value &frame)
{
    ObjectReader r = frameReader(frame, "work");
    WorkItem item;
    item.task = r.u64("task");
    item.experiment = decodeExperiment(r.get("experiment"));
    getTraceRef(r, item.traceId, item.parentSpan);
    r.finish();
    return item;
}

json::Value
encodeWorkResult(const WorkResult &result)
{
    Value v = Value::object();
    v.set("type", Value::string("result"));
    v.set("task", Value::number(result.task));
    v.set("ok", Value::boolean(result.ok));
    if (!result.ok) {
        v.set("message", Value::string(result.message));
        return v;
    }
    v.set("cached", Value::boolean(result.cached));
    v.set("fingerprint", Value::string(result.fingerprint));
    v.set("result", encodeSimResult(result.result));
    if (result.hasDelta)
        v.set("delta", encodeStatsDelta(result.delta));
    setSpans(v, result.spans);
    setTiming(v, result.hasTiming, result.timing);
    return v;
}

WorkResult
decodeWorkResult(const json::Value &frame)
{
    ObjectReader r = frameReader(frame, "result");
    WorkResult result;
    result.task = r.u64("task");
    result.ok = r.boolean("ok");
    if (!result.ok) {
        result.message = r.str("message");
    } else {
        result.cached = r.boolean("cached");
        result.fingerprint = r.str("fingerprint");
        result.result = decodeSimResult(r.get("result"));
        if (const Value *delta = r.optional("delta")) {
            result.hasDelta = true;
            result.delta = decodeStatsDelta(*delta);
        }
        result.spans = getSpans(r);
        result.hasTiming = getTiming(r, result.timing);
    }
    r.finish();
    return result;
}

json::Value
encodeWorkerStatus(const WorkerStatus &status)
{
    Value v = Value::object();
    v.set("id", Value::number(status.id));
    v.set("name", Value::string(status.name));
    v.set("slots", Value::number(status.slots));
    v.set("inflight", Value::number(status.inflight));
    v.set("completed", Value::number(status.completed));
    v.set("alive", Value::boolean(status.alive));
    v.set("heartbeat_age_ms", Value::number(status.heartbeatAgeMs));
    v.set("throughput", Value::number(status.throughput));
    setWorkerCounters(v, status.counters);
    return v;
}

WorkerStatus
decodeWorkerStatus(const json::Value &v)
{
    ObjectReader r(v, "worker");
    WorkerStatus status;
    status.id = r.u64("id");
    status.name = r.str("name");
    status.slots = r.u64("slots");
    status.inflight = r.u64("inflight");
    status.completed = r.u64("completed");
    status.alive = r.boolean("alive");
    status.heartbeatAgeMs = r.u64("heartbeat_age_ms");
    status.throughput = r.number("throughput");
    status.counters = getWorkerCounters(r);
    r.finish();
    return status;
}

bool
validateExperimentTrace(const runner::Experiment &exp,
                        TraceProbeCache &probed, std::string &error)
{
    const std::string &path = exp.config.workload.tracePath;
    if (path.empty())
        return true;
    auto it = probed.find(path);
    if (it == probed.end()) {
        std::string probe_error;
        TraceInfo info;
        if (!probeTraceFile(path, 0, probe_error, &info)) {
            error = "experiment \"" + exp.workload + "/" + exp.label +
                    "\": " + probe_error;
            return false;
        }
        it = probed
                 .emplace(path,
                          std::make_pair(
                              info.instructions,
                              encodeProgramParams(info.preset.program)
                                  .dump()))
                 .first;
    }
    // A windowed config fast-forwards to window.measureEnd at most
    // (plus any stream skip); the whole region otherwise.
    const SimWindow &window = exp.config.window;
    const std::uint64_t needed =
        window.skipInstructions + exp.config.warmupInstructions +
        (window.enabled() ? window.measureEnd
                          : exp.config.measureInstructions);
    if (it->second.first < needed) {
        error = "experiment \"" + exp.workload + "/" + exp.label +
                "\": trace '" + path + "' holds " +
                std::to_string(it->second.first) +
                " instructions but the run needs " +
                std::to_string(needed) + "; record a longer trace";
        return false;
    }
    if (it->second.second !=
        encodeProgramParams(exp.config.workload.program).dump()) {
        error = "experiment \"" + exp.workload + "/" + exp.label +
                "\": trace '" + path +
                "' on this server was recorded from different "
                "program parameters than the submitted workload "
                "(stale or re-recorded copy?)";
        return false;
    }
    return true;
}

json::Value
makeFrame(const std::string &type)
{
    Value v = Value::object();
    v.set("type", Value::string(type));
    return v;
}

json::Value
makeError(const std::string &message)
{
    Value v = makeFrame("error");
    v.set("message", Value::string(message));
    return v;
}

std::string
frameType(const json::Value &frame)
{
    if (!frame.isObject())
        throw CodecError("frame is not a JSON object");
    const Value *type = frame.find("type");
    if (type == nullptr || !type->isString())
        throw CodecError("frame has no string \"type\" member");
    return type->asString();
}

ObjectReader
frameReader(const json::Value &frame, const char *type)
{
    ObjectReader r(frame, type);
    const std::string got = r.str("type");
    if (got != type)
        throw CodecError(std::string("expected a `") + type +
                         "` frame, got `" + got + "`");
    return r;
}

std::uint64_t
decodeIdFrame(const json::Value &frame, const char *type,
              const char *key)
{
    ObjectReader r = frameReader(frame, type);
    const std::uint64_t id = r.u64(key);
    r.finish();
    return id;
}

std::string
decodeError(const json::Value &frame)
{
    ObjectReader r = frameReader(frame, "error");
    std::string message = r.str("message");
    r.finish();
    return message;
}

} // namespace service
} // namespace shotgun
