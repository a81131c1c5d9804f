/**
 * @file
 * The service wire protocol, version 5: newline-delimited JSON frames
 * over a stream socket (TCP or Unix). Every frame is one line, one
 * JSON object, with a "type" member. See src/service/README.md for
 * the grammar and an example session, src/fleet/README.md for the
 * coordinator<->worker frames.
 *
 * Client -> coordinator (shotgun-coord):
 *   {"type":"submit","protocol":5,"experiment":...,"priority":N,
 *    "grid":[{"workload":...,"label":...,"config":{...}},...]
 *    [,"trace":{"id":N,"parent":N}]}
 *   {"type":"status"}          {"type":"cancel","job":N}
 *   {"type":"ping"}            {"type":"shutdown"}
 * A worker's control endpoint (shotgun-serve --listen) answers only
 * status, ping and shutdown; any other frame gets an error frame.
 *
 * Coordinator (or worker control endpoint) -> client:
 *   {"type":"accepted","job":N,"total":N,"fingerprints":[...]}
 *   {"type":"result","job":N,"index":N,"cached":b,
 *    "workload":...,"label":...,"fingerprint":...,"result":{...}
 *    [,"delta":{...}][,"spans":[...]][,"timing":{...}]}
 *   {"type":"done","job":N,"status":"ok|cancelled|error",
 *    "completed":N,"cached":N[,"message":...]}
 *   {"type":"status","server":{...}[,"jobs":[...],"fleet":{...}]}
 *   {"type":"pong"}  {"type":"bye"}  {"type":"error","message":...}
 *
 * Worker -> coordinator (control connection):
 *   {"type":"register","protocol":5,"name":...,"slots":N}
 *     -> {"type":"ack","worker":N}
 *   {"type":"heartbeat","worker":N,"completed":N,"cache":{...},
 *    "checkpoint":{...},"phase":{...},"percentiles":{...}}
 *     -> {"type":"ack"}
 *
 * Worker -> coordinator (one connection per slot):
 *   {"type":"attach","worker":N}            -> {"type":"ack"}
 *   {"type":"steal"}                        -> (parked until work)
 *     <- {"type":"work","task":N,"experiment":{...}
 *         [,"trace":{"id":N,"parent":N}]}
 *   {"type":"result","task":N,"ok":true,"cached":b,
 *    "fingerprint":...,"result":{...}[,"delta":{...}]
 *    [,"spans":[...]][,"timing":{...}]}
 *   {"type":"result","task":N,"ok":false,"message":...}
 *
 * Decoding is strict (ObjectReader, service/codec.hh): an unknown
 * member, a missing member, a kind mismatch or a protocol version
 * other than kProtocolVersion throws CodecError. The bracketed
 * members are conditional and their absence carries meaning: "delta"
 * only for windowed points, "trace"/"spans"/"timing" only for traced
 * ones, "message" only for failures, "jobs" and "fleet" only from a
 * coordinator.
 */

#ifndef SHOTGUN_SERVICE_PROTOCOL_HH
#define SHOTGUN_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "obs/trace.hh"
#include "runner/experiment.hh"
#include "service/codec.hh"

namespace shotgun
{
namespace service
{

/**
 * The one protocol version this build speaks. Frames carrying any
 * other (submit, register) are rejected; bumped on any change to a
 * frame's members.
 */
constexpr std::uint64_t kProtocolVersion = 5;

/** A grid submission: the wire form of a runner::ExperimentSet. */
struct SubmitRequest
{
    std::string experiment; ///< Sweep name (result-sink header).

    /**
     * Queue priority: the coordinator dispatches queued points of
     * higher-priority jobs first. 0 is clamped to 1.
     */
    std::uint64_t priority = 1;

    std::vector<runner::Experiment> grid;

    /**
     * Tracing context ("trace" member, absent when 0): the run-wide
     * trace id every process's spans share, and the client-side root
     * span new server spans parent to.
     */
    std::uint64_t traceId = 0;
    std::uint64_t parentSpan = 0;
};

json::Value encodeSubmit(const SubmitRequest &request);
SubmitRequest decodeSubmit(const json::Value &frame);

/** One streamed result, index-aligned with the submitted grid. */
struct ResultEvent
{
    std::uint64_t job = 0;
    std::uint64_t index = 0;
    bool cached = false; ///< Served from the fingerprint cache.
    std::string workload;
    std::string label;
    std::string fingerprint;
    SimResult result;

    /**
     * Raw window counters, present exactly when the grid point's
     * config had a window: what submitWindowed() stitches.
     */
    bool hasDelta = false;
    StatsDelta delta;

    /**
     * Tracing payload ("spans"/"timing" members, absent when the
     * point was untraced): the spans recorded while this point
     * simulated and its per-phase timing breakdown.
     */
    std::vector<obs::SpanRecord> spans;
    bool hasTiming = false;
    obs::PointTiming timing;
};

json::Value encodeResultEvent(const ResultEvent &event);
ResultEvent decodeResultEvent(const json::Value &frame);

/**
 * A cached grid-point outcome, as the coordinator's and the workers'
 * fingerprint caches hold it: the derived result plus, for windowed
 * configs, the raw window counters -- a cache hit must replay the
 * same `delta` member the original `result` frame carried, or a
 * resubmitted window could no longer be stitched.
 */
struct CachedResult
{
    SimResult result;
    bool hasDelta = false;
    StatsDelta delta;
};

/**
 * Accounted size of one cached result for a cache byte budget: the
 * key plus the struct plus its heap strings. Crude (allocator
 * overhead is ignored) but monotone in the real footprint, which is
 * all a budget needs.
 */
std::size_t resultCacheBytes(const std::string &fingerprint,
                             const CachedResult &cached);

/** Terminal job states reported in `done` frames. */
struct DoneEvent
{
    std::uint64_t job = 0;
    std::string status; ///< "ok", "cancelled" or "error".
    std::uint64_t completed = 0;
    std::uint64_t cached = 0;
    std::string message; ///< Failure detail; "message" absent if empty.
};

json::Value encodeDone(const DoneEvent &event);
DoneEvent decodeDone(const json::Value &frame);

/** One job's row in a `status` frame. */
struct JobStatus
{
    std::uint64_t id = 0;
    std::string experiment;
    std::string state; ///< queued/running/ok/cancelled/error.
    std::uint64_t total = 0;
    std::uint64_t completed = 0;
    std::uint64_t cached = 0;
};

json::Value encodeJobStatus(const JobStatus &status);
JobStatus decodeJobStatus(const json::Value &v);

// ---------------------------------------------------- fleet frames

/**
 * Worker enrollment, first frame on a worker's control connection.
 * Carries the protocol version (checked like submit: a mismatched
 * worker is rejected, not silently mis-fed).
 */
struct RegisterRequest
{
    std::string name;         ///< Operator-facing worker name.
    std::uint64_t slots = 1;  ///< Concurrent simulation slots.
};

json::Value encodeRegister(const RegisterRequest &request);
RegisterRequest decodeRegister(const json::Value &frame);

/**
 * A worker's own counters: sent in every heartbeat and relayed
 * verbatim in the coordinator's worker rows, under the same members
 * ("cache", "checkpoint", "phase", "percentiles").
 */
struct WorkerCounters
{
    // The worker's result cache; backendHits were served from disk.
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t backendHits = 0;

    // The worker's warmed-state checkpoint store (sim/checkpoint.hh):
    // hits are restored warmups, misses are warmups simulated.
    std::uint64_t checkpointHits = 0;
    std::uint64_t checkpointMisses = 0;

    // Always-on per-phase wall-clock totals from the worker's
    // sim.phase.* registry counters: what `--fleet-status` renders as
    // the per-phase breakdown. Microseconds; `phasePoints` counts
    // finished points.
    std::uint64_t phaseDecodeUs = 0;
    std::uint64_t phaseWarmupUs = 0;
    std::uint64_t phaseRestoreUs = 0;
    std::uint64_t phaseMeasureUs = 0;
    std::uint64_t phasePoints = 0;

    // Deterministic per-point measure-phase latency percentiles from
    // the worker's sim.phase.measure_us_hist histogram
    // (obs::histogramQuantile; bucket-resolution); zero until the
    // worker has finished a point.
    std::uint64_t measureP50Us = 0;
    std::uint64_t measureP95Us = 0;
    std::uint64_t measureP99Us = 0;
};

/** Periodic liveness proof plus the worker's counters. */
struct HeartbeatFrame
{
    std::uint64_t worker = 0;
    std::uint64_t completed = 0; ///< Points finished since register.
    WorkerCounters counters;
};

json::Value encodeHeartbeat(const HeartbeatFrame &heartbeat);
HeartbeatFrame decodeHeartbeat(const json::Value &frame);

/** One grid point handed to a stealing worker slot. */
struct WorkItem
{
    std::uint64_t task = 0; ///< Coordinator-assigned task id.
    runner::Experiment experiment;

    /**
     * Tracing context relayed from the owning submit ("trace" member,
     * absent when 0): the worker records this point's spans under it
     * and ships them back in the result.
     */
    std::uint64_t traceId = 0;
    std::uint64_t parentSpan = 0;
};

json::Value encodeWork(const WorkItem &item);
WorkItem decodeWork(const json::Value &frame);

/**
 * A slot's finished point. `ok` false reports a failed simulation
 * (bad trace on this worker, ...) with the detail in `message`; the
 * coordinator fails the owning job, as a simulate exception fails an
 * in-process grid.
 */
struct WorkResult
{
    std::uint64_t task = 0;
    bool ok = true;
    std::string message; ///< Failure detail when !ok.
    bool cached = false; ///< Served from the worker's cache.
    std::string fingerprint;
    SimResult result;
    bool hasDelta = false;
    StatsDelta delta;

    /**
     * Tracing payload ("spans"/"timing", absent when the task was
     * untraced): the worker-side spans the coordinator merges into
     * the fleet trace and relays to the client.
     */
    std::vector<obs::SpanRecord> spans;
    bool hasTiming = false;
    obs::PointTiming timing;
};

json::Value encodeWorkResult(const WorkResult &result);
WorkResult decodeWorkResult(const json::Value &frame);

/** One worker's row in a coordinator `status` frame's fleet member. */
struct WorkerStatus
{
    std::uint64_t id = 0;
    std::string name;
    std::uint64_t slots = 0;
    std::uint64_t inflight = 0;  ///< Points dispatched, unreturned.
    std::uint64_t completed = 0; ///< Points returned since register.
    bool alive = true;           ///< False once declared dead.
    std::uint64_t heartbeatAgeMs = 0; ///< Since the last heartbeat.

    /** Points returned per second since registration. */
    double throughput = 0.0;

    WorkerCounters counters; ///< From the worker's last heartbeat.
};

json::Value encodeWorkerStatus(const WorkerStatus &status);
WorkerStatus decodeWorkerStatus(const json::Value &v);

// -------------------------------------------------- shared helpers

/** Wire form of one grid point (shared by submit and work frames). */
json::Value encodeExperiment(const runner::Experiment &exp);
runner::Experiment decodeExperiment(const json::Value &v);

/** One trace span, as "spans" arrays carry it. */
json::Value encodeSpan(const obs::SpanRecord &span);
obs::SpanRecord decodeSpan(const json::Value &v);

/**
 * Per-path probe memo for validateExperimentTrace: path ->
 * (instruction count, canonical program-params encoding).
 */
using TraceProbeCache =
    std::map<std::string, std::pair<std::uint64_t, std::string>>;

/**
 * Validate that a trace-backed experiment can run *here*: readable,
 * untruncated v2 trace, long enough for the requested (possibly
 * windowed) run, recorded from the same program parameters the
 * config describes. One probe per distinct path via `probed`.
 * Returns false with the detail in `error`; never throws or
 * fatal()s -- callers sit on daemon threads. Non-trace experiments
 * trivially pass.
 */
bool validateExperimentTrace(const runner::Experiment &exp,
                             TraceProbeCache &probed,
                             std::string &error);

/** Convenience: {"type":t} or {"type":"error","message":m}. */
json::Value makeFrame(const std::string &type);
json::Value makeError(const std::string &message);

/**
 * Frame "type" member, or throws CodecError when absent/non-object.
 */
std::string frameType(const json::Value &frame);

/**
 * Strict reader over a frame whose "type" must be `type` (consumed
 * here). `frameReader(f, "ping").finish()` validates a bare frame.
 */
ObjectReader frameReader(const json::Value &frame, const char *type);
ObjectReader frameReader(const json::Value &&frame,
                         const char *type) = delete;

/** The N of {"type":type,key:N} frames (cancel, attach, ack). */
std::uint64_t decodeIdFrame(const json::Value &frame, const char *type,
                            const char *key);

/** The message of an {"type":"error","message":m} frame. */
std::string decodeError(const json::Value &frame);

} // namespace service
} // namespace shotgun

#endif // SHOTGUN_SERVICE_PROTOCOL_HH
