#include "fleet/worker.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <utility>

#include "common/cli.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "service/client.hh"
#include "sim/checkpoint.hh"
#include "trace/decoded_trace.hh"

namespace shotgun
{
namespace fleet
{

using json::Value;
using service::LineChannel;

namespace
{

/**
 * Decoded-trace-store counterpart of obs::publishCacheStats /
 * cacheStatsJson: publish into registry gauges under `prefix`, then
 * render the status frame's "traces" object (entries, bytes,
 * decodes, rejected) from those gauges.
 */
Value
traceStoreStatsJson(obs::Registry &registry, const std::string &prefix,
                    const DecodedTraceStoreStats &stats)
{
    registry.gauge(prefix + ".entries")
        ->set(static_cast<std::int64_t>(stats.cache.entries));
    registry.gauge(prefix + ".bytes")
        ->set(static_cast<std::int64_t>(stats.cache.bytes));
    registry.gauge(prefix + ".decodes")
        ->set(static_cast<std::int64_t>(stats.decodes));
    registry.gauge(prefix + ".rejected")
        ->set(static_cast<std::int64_t>(stats.rejected));
    Value v = Value::object();
    for (const char *field : {"entries", "bytes", "decodes", "rejected"})
        v.set(field,
              Value::number(static_cast<std::uint64_t>(
                  registry.gauge(prefix + "." + field)->value())));
    return v;
}

} // namespace

FleetWorker::FleetWorker(WorkerOptions options)
    : options_(std::move(options)),
      coordinator_(service::Endpoint::parse(options_.coordinator)),
      listener_(service::Endpoint::parse(options_.listen)),
      cache_(options_.cacheBytes, service::resultCacheBytes)
{
    if (options_.slots == 0)
        options_.slots = 1;
    if (options_.heartbeatMs == 0)
        options_.heartbeatMs = 1000;
}

FleetWorker::~FleetWorker()
{
    requestShutdown();
}

std::string
FleetWorker::endpoint() const
{
    return listener_.boundEndpoint().str();
}

MemoCacheStats
FleetWorker::cacheStats() const
{
    return cache_.stats();
}

void
FleetWorker::serve()
{
    log("listening on " + endpoint() + " (version " + cli::kVersion +
        ", " + std::to_string(options_.slots) + " slots, coordinator " +
        coordinator_.str() + ")");

    // Fleet threads, plus one reader per control connection. Readers
    // flag themselves done so a long-running daemon reclaims them as
    // it accepts, not only at shutdown.
    std::vector<std::thread> fleet;
    fleet.emplace_back([this]() { controlLoop(); });
    for (unsigned i = 0; i < options_.slots; ++i)
        fleet.emplace_back([this, i]() { slotLoop(i); });

    struct Reader
    {
        std::thread thread;
        std::shared_ptr<std::atomic<bool>> done;
    };
    std::vector<Reader> readers;
    auto reap = [&readers](bool all) {
        for (auto it = readers.begin(); it != readers.end();) {
            if (all || it->done->load()) {
                it->thread.join();
                it = readers.erase(it);
            } else {
                ++it;
            }
        }
    };

    while (!stop_.load()) {
        service::Socket sock = listener_.accept();
        if (!sock.valid()) {
            if (stop_.load())
                break;
            // Persistent accept failure (EMFILE, ...): retry slowly
            // instead of spinning a core.
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            continue;
        }
        reap(false);
        auto channel = adoptChannel(std::move(sock));
        auto done = std::make_shared<std::atomic<bool>>(false);
        readers.push_back({std::thread([this, channel, done]() {
                               handleControl(channel);
                               done->store(true);
                           }),
                           done});
    }

    reap(true);
    for (auto &thread : fleet)
        thread.join();
    log("shut down");
}

void
FleetWorker::requestShutdown()
{
    const bool was_stopped = stop_.exchange(true);
    // shutdown(2) + wake pipe, not close(2): serve() may be blocked
    // in accept() on this fd right now.
    listener_.shutdownListener();
    std::vector<std::shared_ptr<LineChannel>> live;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto &weak : channels_) {
            if (auto channel = weak.lock())
                live.push_back(std::move(channel));
        }
    }
    // shutdown(2) unblocks readers parked in recv; the channel
    // objects stay alive through the shared_ptrs their loops hold.
    for (auto &channel : live)
        channel->socket().shutdownBoth();
    stopCv_.notify_all();
    if (!was_stopped)
        log("shutdown requested");
}

std::shared_ptr<LineChannel>
FleetWorker::adoptChannel(service::Socket sock)
{
    auto channel = std::make_shared<LineChannel>(std::move(sock));
    std::lock_guard<std::mutex> lock(mutex_);
    channels_.erase(
        std::remove_if(channels_.begin(), channels_.end(),
                       [](const std::weak_ptr<LineChannel> &w) {
                           return w.expired();
                       }),
        channels_.end());
    channels_.push_back(channel);
    // A requestShutdown() racing this adoption may have missed the
    // new channel; close it here so the caller's loop exits promptly.
    if (stop_.load())
        channel->socket().shutdownBoth();
    return channel;
}

bool
FleetWorker::sleepMs(unsigned ms)
{
    std::unique_lock<std::mutex> lock(mutex_);
    stopCv_.wait_for(lock, std::chrono::milliseconds(ms),
                     [this]() { return stop_.load(); });
    return !stop_.load();
}

void
FleetWorker::log(const std::string &line)
{
    if (options_.log != nullptr)
        *options_.log << "fleet-worker: " << line << std::endl;
}

void
FleetWorker::handleControl(const std::shared_ptr<LineChannel> &channel)
{
    std::string line;
    while (channel->recvLine(line)) {
        Value reply;
        try {
            const Value frame = Value::parse(line);
            const std::string type = service::frameType(frame);
            if (type == "status") {
                service::frameReader(frame, "status").finish();
                reply = statusFrame();
            } else if (type == "ping") {
                service::frameReader(frame, "ping").finish();
                reply = service::makeFrame("pong");
            } else if (type == "shutdown") {
                service::frameReader(frame, "shutdown").finish();
                channel->sendLine(service::makeFrame("bye").dump());
                requestShutdown();
                break;
            } else if (type == "submit" || type == "attach" ||
                       type == "cancel") {
                reply = service::makeError(
                    "a worker's control endpoint takes no `" + type +
                    "` frames: submit grids to the coordinator at " +
                    coordinator_.str());
            } else {
                reply = service::makeError("unknown frame type \"" +
                                           type + "\"");
            }
        } catch (const std::exception &e) {
            // Malformed frame: reject it, keep the connection.
            reply = service::makeError(e.what());
        }
        if (!channel->sendLine(reply.dump()))
            break;
    }
}

json::Value
FleetWorker::statusFrame()
{
    // Every cache's stats go through the process metrics registry and
    // the frame objects are rendered from it, so the frame and any
    // other registry consumer read the same source.
    obs::Registry &registry = obs::metrics();
    const MemoCacheStats cache_stats = cache_.stats();
    obs::publishCacheStats(registry, "serve.cache", cache_stats);
    obs::publishCacheStats(registry, "serve.checkpoint",
                           checkpointCache().stats());

    Value server = Value::object();
    server.set("version", Value::string(cli::kVersion));
    server.set("protocol", Value::number(service::kProtocolVersion));
    server.set("endpoint", Value::string(endpoint()));
    server.set("role", Value::string("worker"));
    server.set("name", Value::string(options_.name));
    server.set("cache_entries",
               Value::number(std::uint64_t{cache_stats.entries}));
    server.set("cache",
               obs::cacheStatsJson(registry, "serve.cache", true));
    // The warmed-state checkpoint store and the decoded-trace store
    // are process-wide, beside the result cache: the three caches the
    // one-pass grid pipeline rests on.
    server.set("checkpoint",
               obs::cacheStatsJson(registry, "serve.checkpoint", false));
    server.set("traces", traceStoreStatsJson(registry, "serve.traces",
                                             decodedTraces().stats()));

    Value v = service::makeFrame("status");
    v.set("server", std::move(server));
    return v;
}

service::WorkResult
FleetWorker::compute(const service::WorkItem &item, unsigned slot_index,
                     service::TraceProbeCache &probed)
{
    service::WorkResult out;
    out.task = item.task;
    std::string error;
    if (!service::validateExperimentTrace(item.experiment, probed,
                                          error)) {
        out.ok = false;
        out.message = error;
        return out;
    }
    try {
        out.fingerprint =
            service::configFingerprint(item.experiment.config);
        // A trace-carrying work item (or a worker running with
        // --trace-out): record this point's phase spans and timing
        // and ship them back inside the result frame. The simulation
        // runs on this thread, so the thread-local context covers it.
        obs::SpanCollector collector;
        obs::PointTiming timing;
        obs::TraceContext trace_ctx;
        std::unique_ptr<obs::ScopedTraceContext> trace_scope;
        if (item.traceId != 0 || obs::tracer().enabled()) {
            trace_ctx.traceId = item.traceId != 0
                                    ? item.traceId
                                    : obs::tracer().defaultTraceId();
            trace_ctx.parentSpan = item.parentSpan;
            trace_ctx.collector = &collector;
            trace_ctx.timing = &timing;
            trace_ctx.lane = "slot-" + std::to_string(slot_index);
            trace_scope.reset(new obs::ScopedTraceContext(&trace_ctx));
        }
        bool computed = false;
        const runner::Experiment &exp = item.experiment;
        auto value = cache_.get(out.fingerprint, [&exp, &computed]() {
            computed = true;
            // A windowed point keeps its raw counters so the result
            // frame (and any later cache hit) carries the stitchable
            // delta.
            const SimulationDelta delta =
                runSimulationDelta(exp.config);
            service::CachedResult result;
            result.result =
                finalizeResult(delta.workload, delta.scheme,
                               delta.schemeStorageBits, delta.stats);
            result.hasDelta = exp.config.window.enabled();
            if (result.hasDelta)
                result.delta = delta.stats;
            return result;
        });
        trace_scope.reset();
        out.spans = collector.take();
        if (timing.any()) {
            out.hasTiming = true;
            out.timing = timing;
        }
        out.cached = !computed;
        out.result = value->result;
        out.hasDelta = value->hasDelta;
        if (value->hasDelta)
            out.delta = value->delta;
    } catch (const std::exception &e) {
        out.ok = false;
        out.message = e.what();
    }
    return out;
}

void
FleetWorker::controlLoop()
{
    while (!stop_.load()) {
        try {
            auto channel =
                adoptChannel(service::connectTo(coordinator_));
            // Acks are tiny and immediate; a coordinator that stays
            // silent for several heartbeat periods is wedged and
            // the reconnect path should take over.
            channel->socket().setRecvTimeout(
                std::max(2000u, options_.heartbeatMs * 4));

            service::RegisterRequest reg;
            reg.name = options_.name;
            reg.slots = options_.slots;
            if (!channel->sendLine(
                    service::encodeRegister(reg).dump()))
                throw service::SocketError("register send failed");
            std::string line;
            if (!channel->recvLine(line))
                throw service::SocketError("no register ack");
            const Value ack = Value::parse(line);
            if (service::frameType(ack) != "ack")
                throw service::ServiceError(
                    "register rejected: " + line);
            workerId_.store(
                service::decodeIdFrame(ack, "ack", "worker"));
            log("registered as worker " +
                std::to_string(workerId_.load()) + " at " +
                coordinator_.str());

            while (sleepMs(options_.heartbeatMs)) {
                service::HeartbeatFrame hb;
                hb.worker = workerId_.load();
                hb.completed = completed_.load();
                service::WorkerCounters &c = hb.counters;
                const MemoCacheStats stats = cache_.stats();
                c.cacheHits = stats.hits;
                c.cacheMisses = stats.misses;
                c.backendHits = stats.backendHits;
                const MemoCacheStats cp = checkpointCache().stats();
                c.checkpointHits = cp.hits;
                c.checkpointMisses = cp.misses;
                // Per-phase simulation time, process-lifetime totals
                // from the always-on registry counters: the
                // coordinator folds these into --fleet-status's
                // per-phase breakdown table.
                obs::Registry &registry = obs::metrics();
                c.phaseDecodeUs =
                    registry.counter("sim.phase.decode_us")->value();
                c.phaseWarmupUs =
                    registry.counter("sim.phase.warmup_us")->value();
                c.phaseRestoreUs =
                    registry.counter("sim.phase.restore_us")->value();
                c.phaseMeasureUs =
                    registry.counter("sim.phase.measure_us")->value();
                c.phasePoints =
                    registry.counter("sim.points")->value();
                // Measure-latency percentiles from the per-point
                // histogram the simulator records; all zero until
                // the first point finishes.
                for (const obs::MetricSample &s :
                     registry.snapshot()) {
                    if (s.kind != obs::MetricSample::Kind::Histogram ||
                        s.name != "sim.phase.measure_us_hist")
                        continue;
                    c.measureP50Us = obs::histogramQuantile(s, 0.50);
                    c.measureP95Us = obs::histogramQuantile(s, 0.95);
                    c.measureP99Us = obs::histogramQuantile(s, 0.99);
                }
                if (!channel->sendLine(
                        service::encodeHeartbeat(hb).dump()))
                    break;
                if (!channel->recvLine(line))
                    break;
                // The reply is an ack (or an error frame we can only
                // log); either way the connection is alive.
            }
        } catch (const std::exception &e) {
            if (!stop_.load())
                log(std::string("control connection lost: ") +
                    e.what());
        }
        // Stale id: slots attached under it are torn down by the
        // coordinator (their worker died with the control conn), and
        // their loops re-attach once a new id is assigned.
        workerId_.store(0);
        if (!sleepMs(options_.heartbeatMs))
            break;
    }
}

void
FleetWorker::slotLoop(unsigned slot_index)
{
    service::TraceProbeCache probed;
    while (!stop_.load()) {
        const std::uint64_t id = workerId_.load();
        if (id == 0) {
            // Not registered (yet, or between reconnects).
            if (!sleepMs(std::max(50u, options_.heartbeatMs / 4)))
                break;
            continue;
        }
        try {
            auto channel =
                adoptChannel(service::connectTo(coordinator_));
            Value attach = service::makeFrame("attach");
            attach.set("worker", Value::number(id));
            if (!channel->sendLine(attach.dump()))
                throw service::SocketError("attach send failed");
            std::string line;
            if (!channel->recvLine(line))
                throw service::SocketError("no attach ack");
            const Value ack = Value::parse(line);
            if (service::frameType(ack) != "ack")
                throw service::ServiceError("attach rejected: " +
                                            line);
            service::frameReader(ack, "ack").finish();

            // Steal -> work -> result, parked on the coordinator
            // while the queue is empty. No receive deadline: an idle
            // fleet legitimately sits here for hours; shutdown and
            // coordinator death both surface as a closed socket.
            for (;;) {
                if (!channel->sendLine(
                        service::makeFrame("steal").dump()))
                    break;
                if (!channel->recvLine(line))
                    break;
                const Value frame = Value::parse(line);
                if (service::frameType(frame) != "work")
                    continue; // e.g. an error frame; keep stealing.
                const service::WorkResult out = compute(
                    service::decodeWork(frame), slot_index, probed);
                if (!channel->sendLine(
                        service::encodeWorkResult(out).dump()))
                    break;
                if (out.ok)
                    completed_.fetch_add(1);
            }
        } catch (const std::exception &e) {
            if (!stop_.load())
                log("slot " + std::to_string(slot_index) +
                    " connection lost: " + e.what());
        }
        if (!sleepMs(options_.heartbeatMs))
            break;
    }
}

} // namespace fleet
} // namespace shotgun
