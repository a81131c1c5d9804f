#include "fleet/coordinator.hh"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/cli.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace shotgun
{
namespace fleet
{

using json::Value;
using service::CachedResult;
using service::CodecError;
using service::LineChannel;
using service::makeError;
using service::makeFrame;
using Clock = std::chrono::steady_clock;

namespace
{

/**
 * Worker losses a task survives: a point whose slot dies this many
 * times fails its job instead of being requeued again.
 */
constexpr unsigned kMaxLostWorkers = 2;

/**
 * Relative simulated length of one grid point: the queue's
 * longest-measured-first key. Matches the instruction count the
 * trace validator requires, so "cost" and "work" agree.
 */
std::uint64_t
experimentCost(const runner::Experiment &exp)
{
    const SimWindow &window = exp.config.window;
    return window.skipInstructions + exp.config.warmupInstructions +
           (window.enabled() ? window.measureEnd
                             : exp.config.measureInstructions);
}

std::uint64_t
elapsedMs(Clock::time_point since, Clock::time_point now)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            now - since)
            .count());
}

} // namespace

/**
 * One peer connection (client, worker control, or worker slot).
 * Frames are written from several threads (the owning reader plus
 * emitters and the dispatch pump), hence the write mutex.
 */
struct FleetCoordinator::Connection
{
    explicit Connection(service::Socket sock)
        : channel(std::move(sock))
    {
    }

    LineChannel channel;
    std::mutex writeMutex;

    bool sendFrame(const Value &frame)
    {
        return sendRaw(frame.dump());
    }

    bool sendRaw(const std::string &line)
    {
        std::lock_guard<std::mutex> lock(writeMutex);
        return channel.sendLine(line);
    }
};

struct FleetCoordinator::Job
{
    std::uint64_t id = 0;
    std::string experiment;
    std::uint64_t priority = 1;
    std::vector<runner::Experiment> grid;
    std::vector<std::string> fingerprints; ///< Index-aligned.
    std::vector<std::shared_ptr<const CachedResult>> outcomes;
    std::vector<char> ready;      ///< Outcome available, per index.
    std::vector<char> cachedFlag; ///< Served from a cache, per index.
    std::size_t total = 0;
    std::size_t pendingTasks = 0; ///< Tasks not yet Done.
    std::size_t nextEmit = 0;     ///< First unemitted index.
    bool emitting = false;        ///< A thread streams the prefix.
    bool cancelled = false;
    bool failed = false;
    bool doneSent = false;
    std::string message; ///< First failure detail.
    std::uint64_t cachedCount = 0;

    /**
     * Tracing: non-zero when the submit carried a trace id (or the
     * coordinator runs with --trace-out and stamps its own). The
     * per-point vectors hold spans/timing shipped back by workers,
     * relayed to the client in result frames; sized only for traced
     * jobs so untraced jobs pay nothing.
     */
    std::uint64_t traceId = 0;
    std::uint64_t traceParent = 0;
    std::vector<std::vector<obs::SpanRecord>> pointSpans;
    std::vector<obs::PointTiming> pointTimings;
    std::vector<char> pointHasTiming;

    /**
     * The submitting connection. Strong on purpose: during shutdown
     * the final cancelled `done` must still reach the client after
     * its reader thread exited. A client that disconnects mid-job
     * has this cleared by its reader (so a vanished client doesn't
     * pin the socket or pay frame encoding for the rest of a long
     * grid), and pruning the finished job drops the ref anyway.
     */
    std::shared_ptr<Connection> owner;

    /** One per grid point; never resized after admission, so raw
     * Task pointers in the queue/registry stay valid. */
    std::vector<Task> tasks;

    const char *stateName() const
    {
        if (failed)
            return doneSent ? "error" : "running";
        if (doneSent)
            return cancelled && nextEmit < total ? "cancelled" : "ok";
        if (nextEmit > 0 || pendingTasks < total)
            return "running";
        return "queued";
    }
};

struct FleetCoordinator::Task
{
    enum class State
    {
        Queued,
        InFlight,
        Done,
    };

    std::uint64_t id = 0;
    Job *job = nullptr; ///< Parent; outlives every registry pointer.
    std::uint64_t jobId = 0;
    std::size_t index = 0;       ///< Grid index within the job.
    std::uint64_t priority = 1;  ///< Copied from the job (ordering).
    std::uint64_t cost = 0;      ///< experimentCost() of the point.
    State state = State::Done;   ///< Cache-prefilled unless queued.
    Slot *slot = nullptr;        ///< Owning slot while InFlight.
    unsigned lostWorkers = 0;    ///< Slots that died holding it.

    /** Queue-entry timestamps for the "queued" span (traced jobs). */
    std::uint64_t queuedWallUs = 0;
    Clock::time_point queuedAt;
};

struct FleetCoordinator::Worker
{
    std::uint64_t id = 0;
    std::string name;
    std::uint64_t slots = 1; ///< Advertised concurrent slots.
    Clock::time_point registeredAt;
    Clock::time_point lastHeartbeat;
    std::uint64_t completed = 0; ///< Results accepted from it.
    service::WorkerCounters counters; ///< From its last heartbeat.
    bool dead = false;
    std::shared_ptr<Connection> control;
    std::vector<std::shared_ptr<Slot>> attached;
};

struct FleetCoordinator::Slot
{
    std::shared_ptr<Connection> conn;
    std::shared_ptr<Worker> worker;
    Task *inflight = nullptr; ///< Valid while that task is InFlight.
    bool parked = false;      ///< Waiting in parked_ for work.
};

bool
FleetCoordinator::TaskOrder::operator()(const Task *a,
                                        const Task *b) const
{
    if (a->priority != b->priority)
        return a->priority > b->priority;
    if (a->cost != b->cost)
        return a->cost > b->cost;
    return a->id < b->id;
}

FleetCoordinator::FleetCoordinator(const std::string &endpoint_spec,
                                   CoordinatorOptions options)
    : options_(options),
      listener_(service::Endpoint::parse(endpoint_spec)),
      cache_(options.cacheBytes, service::resultCacheBytes)
{
    if (!options_.cacheDir.empty()) {
        disk_.reset(new DiskResultCache(options_.cacheDir,
                                        options_.cacheDirMaxBytes));
        DiskResultCache *disk = disk_.get();
        cache_.setBackend(
            [disk](const std::string &key, CachedResult &out) {
                return disk->load(key, out);
            },
            [disk](const std::string &key,
                   const CachedResult &value) {
                disk->store(key, value);
            });
    }
    monitor_ = std::thread([this]() { monitorLoop(); });
}

FleetCoordinator::~FleetCoordinator()
{
    requestShutdown();
    monitorCv_.notify_all();
    if (monitor_.joinable())
        monitor_.join();
}

std::string
FleetCoordinator::endpoint() const
{
    return listener_.boundEndpoint().str();
}

MemoCacheStats
FleetCoordinator::cacheStats() const
{
    return cache_.stats();
}

std::size_t
FleetCoordinator::liveWorkers() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t live = 0;
    for (const auto &entry : workers_) {
        if (!entry.second->dead)
            ++live;
    }
    return live;
}

std::size_t
FleetCoordinator::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

void
FleetCoordinator::log(const std::string &line)
{
    if (options_.log != nullptr)
        *options_.log << "shotgun-coord: " << line << std::endl;
}

void
FleetCoordinator::serve()
{
    log("listening on " + endpoint() + " (version " + cli::kVersion +
        ", heartbeat " + std::to_string(options_.heartbeatIntervalMs) +
        "ms x" + std::to_string(options_.heartbeatMissLimit) + ")");

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
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
            continue;
        }
        reap(false);
        auto conn = std::make_shared<Connection>(std::move(sock));
        {
            std::lock_guard<std::mutex> lock(mutex_);
            connections_.erase(
                std::remove_if(
                    connections_.begin(), connections_.end(),
                    [](const std::weak_ptr<Connection> &w) {
                        return w.expired();
                    }),
                connections_.end());
            connections_.push_back(conn);
        }
        if (stop_.load())
            conn->channel.socket().shutdownBoth();
        auto done = std::make_shared<std::atomic<bool>>(false);
        readers.push_back(
            {std::thread([this, conn, done]() {
                 handleConnection(conn);
                 done->store(true);
             }),
             done});
    }

    // Join every reader first (no thread can admit work or requeue a
    // task afterwards), then flush a cancelled `done` to any job
    // still open so clients are never left waiting on a vanished
    // coordinator.
    reap(true);
    std::vector<std::shared_ptr<Job>> open;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto &entry : jobs_) {
            if (!entry.second->doneSent)
                open.push_back(entry.second);
        }
        for (auto &job : open) {
            job->cancelled = true;
            dropQueuedLocked(job);
        }
    }
    for (auto &job : open)
        emitJob(job);
    log("shut down");
}

void
FleetCoordinator::requestShutdown()
{
    const bool was_stopped = stop_.exchange(true);
    listener_.shutdownListener();
    std::vector<std::shared_ptr<Connection>> live;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto &weak : connections_) {
            if (auto conn = weak.lock())
                live.push_back(std::move(conn));
        }
    }
    // Read-side only: the blocked readers wake and tear down, but
    // serve()'s final pass can still write a cancelled `done` frame
    // to clients whose jobs were still open.
    for (auto &conn : live)
        conn->channel.socket().shutdownRead();
    monitorCv_.notify_all();
    if (!was_stopped)
        log("shutdown requested");
}

void
FleetCoordinator::handleConnection(std::shared_ptr<Connection> conn)
{
    // The first frame classifies the peer: workers open with
    // `register` (control) or `attach` (slot), anything else is a
    // client connection served with the ordinary protocol loop.
    std::string line;
    if (!conn->channel.recvLine(line))
        return;
    Value first;
    std::string type;
    try {
        first = Value::parse(line);
        type = service::frameType(first);
    } catch (const json::JsonError &e) {
        conn->sendFrame(makeError(e.what()));
        return;
    }
    if (type == "register") {
        runWorkerControl(conn, first);
        return;
    }
    if (type == "attach") {
        runWorkerSlot(conn, first);
        return;
    }

    if (handleClientFrame(conn, first)) {
        while (conn->channel.recvLine(line)) {
            Value frame;
            try {
                frame = Value::parse(line);
            } catch (const json::JsonError &e) {
                if (!conn->sendFrame(makeError(e.what())))
                    break;
                continue;
            }
            if (!handleClientFrame(conn, frame))
                break;
        }
    }
    // Client gone: stop pinning its socket and encoding frames for
    // its jobs (they keep running and warm the cache). During
    // shutdown the owner stays set instead, so serve()'s final pass
    // can still deliver the cancelled `done` frame.
    if (!stop_.load()) {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto &entry : jobs_) {
            if (entry.second->owner == conn)
                entry.second->owner.reset();
        }
    }
}

bool
FleetCoordinator::handleClientFrame(
    const std::shared_ptr<Connection> &conn, const json::Value &frame)
{
    Value reply;
    try {
        const std::string type = service::frameType(frame);
        if (type == "submit") {
            admitJob(conn, frame);
            return true; // admitJob sent `accepted` itself.
        } else if (type == "status") {
            service::frameReader(frame, "status").finish();
            reply = statusFrame();
        } else if (type == "ping") {
            service::frameReader(frame, "ping").finish();
            reply = makeFrame("pong");
        } else if (type == "cancel") {
            const std::uint64_t id =
                service::decodeIdFrame(frame, "cancel", "job");
            std::shared_ptr<Job> job;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                auto it = jobs_.find(id);
                if (it != jobs_.end()) {
                    job = it->second;
                    job->cancelled = true;
                    dropQueuedLocked(job);
                }
            }
            if (job == nullptr) {
                reply = makeError("unknown job " +
                                  std::to_string(id));
            } else {
                // In-flight points finish on their workers; queued
                // ones are gone. The `done` frame reports cancelled
                // once the last in-flight point returns.
                emitJob(job);
                reply = makeFrame("cancelling");
                reply.set("job", Value::number(id));
            }
        } else if (type == "shutdown") {
            service::frameReader(frame, "shutdown").finish();
            conn->sendFrame(makeFrame("bye"));
            requestShutdown();
            return false;
        } else {
            reply =
                makeError("unknown frame type \"" + type + "\"");
        }
    } catch (const json::JsonError &e) {
        reply = makeError(e.what());
    } catch (const std::exception &e) {
        reply = makeError(std::string("internal error: ") + e.what());
    }
    return conn->sendFrame(reply);
}

void
FleetCoordinator::admitJob(
    const std::shared_ptr<Connection> &conn, const json::Value &frame)
{
    service::SubmitRequest request = service::decodeSubmit(frame);
    if (stop_.load())
        throw CodecError("coordinator is shutting down");

    // Traces are NOT validated here: the coordinator need not share
    // a filesystem with its workers. Workers validate each point
    // before simulating and report a failure as an error result,
    // which fails the job where the file lives.
    auto job = std::make_shared<Job>();
    job->experiment = request.experiment;
    job->priority = std::max<std::uint64_t>(1, request.priority);
    job->grid = std::move(request.grid);
    job->total = job->grid.size();
    job->owner = conn;
    job->fingerprints.reserve(job->total);
    for (const runner::Experiment &exp : job->grid)
        job->fingerprints.push_back(
            service::configFingerprint(exp.config));
    job->outcomes.resize(job->total);
    job->ready.assign(job->total, 0);
    job->cachedFlag.assign(job->total, 0);
    job->tasks.resize(job->total);

    // The client's trace id wins; a coordinator running with
    // --trace-out stamps its own onto bare submits so its workers'
    // spans still land in one coherent trace.
    job->traceId = request.traceId != 0
                       ? request.traceId
                       : (obs::tracer().enabled()
                              ? obs::tracer().defaultTraceId()
                              : 0);
    job->traceParent = request.parentSpan;
    if (job->traceId != 0) {
        job->pointSpans.resize(job->total);
        job->pointTimings.resize(job->total);
        job->pointHasTiming.assign(job->total, 0);
    }

    // Cache prefill (memory, then disk): a point seen before is
    // answered without touching any worker. tryGet never runs a
    // simulation, so doing it on the reader thread is cheap.
    std::size_t fresh = 0;
    for (std::size_t i = 0; i < job->total; ++i) {
        if (auto value = cache_.tryGet(job->fingerprints[i])) {
            job->outcomes[i] = std::move(value);
            job->ready[i] = 1;
            job->cachedFlag[i] = 1;
            ++job->cachedCount;
        } else {
            ++fresh;
        }
    }
    job->pendingTasks = fresh;

    Value fingerprints = Value::array();
    for (const std::string &fp : job->fingerprints)
        fingerprints.push(Value::string(fp));
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job->id = nextJobId_++;
        jobs_.emplace(job->id, job);
    }

    // `accepted` goes on the wire before any task can complete (and
    // before the cache-hit prefix is streamed), so the client's
    // submit reply is never a `result` frame.
    Value accepted = makeFrame("accepted");
    accepted.set("job", Value::number(job->id));
    accepted.set("total", Value::number(std::uint64_t{job->total}));
    accepted.set("fingerprints", std::move(fingerprints));
    conn->sendFrame(accepted);
    log("job " + std::to_string(job->id) + " accepted: " +
        job->experiment + ", " + std::to_string(job->total) +
        " points (" + std::to_string(job->total - fresh) +
        " cached), priority " + std::to_string(job->priority));

    SendBatch sends;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (job->cancelled || stop_.load()) {
            // A cancel raced the admission (or shutdown began):
            // nothing is queued; the `done` frame below reports
            // cancelled over whatever the cache prefilled.
            job->cancelled = true;
            job->pendingTasks = 0;
        } else {
            for (std::size_t i = 0; i < job->total; ++i) {
                if (job->ready[i])
                    continue;
                Task &task = job->tasks[i];
                task.id = nextTaskId_++;
                task.job = job.get();
                task.jobId = job->id;
                task.index = i;
                task.priority = job->priority;
                task.cost = experimentCost(job->grid[i]);
                task.state = Task::State::Queued;
                if (job->traceId != 0) {
                    task.queuedWallUs = obs::wallClockUs();
                    task.queuedAt = Clock::now();
                }
                queue_.insert(&task);
                tasksById_.emplace(task.id, &task);
            }
            pumpLocked(sends);
        }
    }
    sendBatch(sends);
    emitJob(job);
}

void
FleetCoordinator::pumpLocked(SendBatch &sends)
{
    while (!queue_.empty() && !parked_.empty()) {
        auto slot = parked_.front();
        parked_.pop_front();
        slot->parked = false;
        Task *task = *queue_.begin();
        queue_.erase(queue_.begin());
        task->state = Task::State::InFlight;
        task->slot = slot.get();
        slot->inflight = task;
        service::WorkItem item;
        item.task = task->id;
        item.experiment = task->job->grid[task->index];
        item.traceId = task->job->traceId;
        item.parentSpan = task->job->traceParent;
        // The coordinator's own contribution to the trace: how long
        // the point sat in the fleet queue before a slot stole it.
        if (task->job->traceId != 0 && obs::tracer().enabled()) {
            obs::SpanRecord span;
            span.traceId = task->job->traceId;
            span.id = obs::tracer().nextSpanId();
            span.parent = task->job->traceParent;
            span.name = "queued";
            span.category = "fleet";
            span.process = obs::tracer().processName();
            span.lane = "queue";
            span.startUs = task->queuedWallUs;
            span.durUs = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    Clock::now() - task->queuedAt)
                    .count());
            obs::tracer().record(std::move(span));
        }
        sends.emplace_back(slot->conn,
                           service::encodeWork(item).dump());
    }
}

void
FleetCoordinator::sendBatch(SendBatch &sends)
{
    // A failed send means the slot's socket died; its reader will
    // hit EOF and requeue the task, so the failure needs no handling
    // here.
    for (auto &send : sends)
        send.first->sendRaw(send.second);
    sends.clear();
}

void
FleetCoordinator::dropQueuedLocked(const std::shared_ptr<Job> &job)
{
    for (auto it = queue_.begin(); it != queue_.end();) {
        Task *task = *it;
        if (task->job != job.get()) {
            ++it;
            continue;
        }
        it = queue_.erase(it);
        tasksById_.erase(task->id);
        task->state = Task::State::Done;
        --job->pendingTasks;
    }
}

void
FleetCoordinator::emitJob(const std::shared_ptr<Job> &job)
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto conn = job->owner; // Copied under the lock; may be null.
    if (job->emitting)
        return; // The active emitter re-carves before it stops.
    job->emitting = true;
    for (;;) {
        const std::size_t from = job->nextEmit;
        std::size_t to = from;
        while (to < job->total && job->ready[to])
            ++to;
        if (to == from)
            break;
        job->nextEmit = to;
        lock.unlock();
        const bool trace_emit =
            job->traceId != 0 && obs::tracer().enabled();
        const std::uint64_t emit_start_us =
            trace_emit ? obs::wallClockUs() : 0;
        const Clock::time_point emit_start = Clock::now();
        if (conn != nullptr) {
            for (std::size_t i = from; i < to; ++i) {
                service::ResultEvent event;
                event.job = job->id;
                event.index = i;
                event.cached = job->cachedFlag[i] != 0;
                event.workload = job->grid[i].workload;
                event.label = job->grid[i].label;
                event.fingerprint = job->fingerprints[i];
                event.result = job->outcomes[i]->result;
                if (job->outcomes[i]->hasDelta) {
                    event.hasDelta = true;
                    event.delta = job->outcomes[i]->delta;
                }
                if (job->traceId != 0) {
                    event.spans = job->pointSpans[i];
                    if (job->pointHasTiming[i]) {
                        event.hasTiming = true;
                        event.timing = job->pointTimings[i];
                    }
                }
                conn->sendFrame(service::encodeResultEvent(event));
            }
        }
        if (trace_emit) {
            obs::SpanRecord span;
            span.traceId = job->traceId;
            span.id = obs::tracer().nextSpanId();
            span.parent = job->traceParent;
            span.name = "emit";
            span.category = "fleet";
            span.process = obs::tracer().processName();
            span.lane = "emit";
            span.startUs = emit_start_us;
            span.durUs = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    Clock::now() - emit_start)
                    .count());
            obs::tracer().record(std::move(span));
        }
        lock.lock();
    }
    job->emitting = false;

    service::DoneEvent done;
    bool send_done = false;
    if (!job->doneSent && job->pendingTasks == 0) {
        job->doneSent = true;
        send_done = true;
        done.job = job->id;
        if (job->failed) {
            done.status = "error";
            done.message = job->message;
        } else if (job->nextEmit == job->total) {
            done.status = "ok";
        } else {
            done.status = "cancelled";
        }
        done.completed = job->nextEmit;
        done.cached = job->cachedCount;
        pruneJobsLocked();
    }
    lock.unlock();
    if (send_done) {
        if (conn != nullptr)
            conn->sendFrame(service::encodeDone(done));
        log("job " + std::to_string(done.job) + " " + done.status +
            " (" + std::to_string(done.completed) + "/" +
            std::to_string(job->total) + " points, " +
            std::to_string(done.cached) + " cached)");
    }
}

void
FleetCoordinator::runWorkerControl(
    const std::shared_ptr<Connection> &conn, const json::Value &frame)
{
    service::RegisterRequest reg;
    try {
        reg = service::decodeRegister(frame);
    } catch (const json::JsonError &e) {
        conn->sendFrame(makeError(e.what()));
        return;
    }

    auto worker = std::make_shared<Worker>();
    worker->name = reg.name;
    worker->slots = reg.slots;
    worker->registeredAt = Clock::now();
    worker->lastHeartbeat = worker->registeredAt;
    worker->control = conn;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        worker->id = nextWorkerId_++;
        workers_.emplace(worker->id, worker);
    }
    Value ack = makeFrame("ack");
    ack.set("worker", Value::number(worker->id));
    conn->sendFrame(ack);
    log("worker " + std::to_string(worker->id) + " (" + worker->name +
        ") registered, " + std::to_string(reg.slots) + " slots");

    std::string line;
    while (conn->channel.recvLine(line)) {
        Value reply = makeFrame("ack");
        try {
            const Value hb_frame = Value::parse(line);
            const std::string type = service::frameType(hb_frame);
            if (type == "heartbeat") {
                const service::HeartbeatFrame hb =
                    service::decodeHeartbeat(hb_frame);
                std::lock_guard<std::mutex> lock(mutex_);
                worker->lastHeartbeat = Clock::now();
                worker->counters = hb.counters;
            } else {
                reply = makeError("unexpected frame type \"" + type +
                                  "\" on a control connection");
            }
        } catch (const json::JsonError &e) {
            reply = makeError(e.what());
        }
        if (!conn->sendFrame(reply))
            break;
    }
    declareDead(worker->id, "control connection closed");
}

void
FleetCoordinator::runWorkerSlot(
    const std::shared_ptr<Connection> &conn, const json::Value &frame)
{
    auto slot = std::make_shared<Slot>();
    slot->conn = conn;
    try {
        const std::uint64_t worker_id =
            service::decodeIdFrame(frame, "attach", "worker");
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = workers_.find(worker_id);
        if (it == workers_.end() || it->second->dead)
            throw CodecError("unknown worker " +
                             std::to_string(worker_id) +
                             " (register first)");
        slot->worker = it->second;
        it->second->attached.push_back(slot);
    } catch (const json::JsonError &e) {
        conn->sendFrame(makeError(e.what()));
        return;
    }
    conn->sendFrame(makeFrame("ack"));

    std::string line;
    while (conn->channel.recvLine(line)) {
        try {
            const Value slot_frame = Value::parse(line);
            const std::string type = service::frameType(slot_frame);
            if (type == "steal") {
                service::frameReader(slot_frame, "steal").finish();
                SendBatch sends;
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    if (!slot->parked && slot->inflight == nullptr) {
                        slot->parked = true;
                        parked_.push_back(slot);
                    }
                    pumpLocked(sends);
                }
                sendBatch(sends);
            } else if (type == "result") {
                handleWorkResult(slot, slot_frame);
            } else {
                conn->sendFrame(makeError(
                    "unexpected frame type \"" + type +
                    "\" on a work connection"));
            }
        } catch (const json::JsonError &e) {
            if (!conn->sendFrame(makeError(e.what())))
                break;
        }
    }

    // Slot teardown: whatever was in flight here lands back in the
    // queue for the survivors -- unless it already completed (late
    // results were accepted above) or the daemon is shutting down.
    std::shared_ptr<Job> open_job;
    SendBatch sends;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto it = parked_.begin(); it != parked_.end(); ++it) {
            if (it->get() == slot.get()) {
                parked_.erase(it);
                break;
            }
        }
        slot->parked = false;
        Task *task = slot->inflight;
        slot->inflight = nullptr;
        if (task != nullptr && task->state == Task::State::InFlight &&
            task->slot == slot.get()) {
            task->slot = nullptr;
            if (stop_.load()) {
                task->state = Task::State::Done;
                tasksById_.erase(task->id);
                --task->job->pendingTasks;
                auto jt = jobs_.find(task->jobId);
                if (jt != jobs_.end())
                    open_job = jt->second;
            } else if (++task->lostWorkers < kMaxLostWorkers) {
                task->state = Task::State::Queued;
                queue_.insert(task);
                log("task " + std::to_string(task->id) +
                    " requeued (worker slot lost)");
            } else {
                // A point that took down every worker it reached may
                // be what kills them (fatal, crash, OOM): fail its job
                // instead of walking it through the whole fleet.
                Job *job = task->job;
                const runner::Experiment &exp = job->grid[task->index];
                task->state = Task::State::Done;
                tasksById_.erase(task->id);
                --job->pendingTasks;
                if (!job->failed) {
                    job->failed = true;
                    job->message =
                        "grid point \"" + exp.workload + "/" +
                        exp.label + "\" (index " +
                        std::to_string(task->index) + ") lost " +
                        std::to_string(task->lostWorkers) +
                        " workers while in flight; not requeued";
                }
                log("task " + std::to_string(task->id) + " failed: " +
                    job->message);
                auto jt = jobs_.find(task->jobId);
                if (jt != jobs_.end()) {
                    open_job = jt->second;
                    dropQueuedLocked(open_job);
                }
            }
        }
        if (slot->worker != nullptr) {
            auto &attached = slot->worker->attached;
            attached.erase(
                std::remove(attached.begin(), attached.end(), slot),
                attached.end());
        }
        pumpLocked(sends);
    }
    sendBatch(sends);
    if (open_job != nullptr)
        emitJob(open_job);
}

void
FleetCoordinator::handleWorkResult(const std::shared_ptr<Slot> &slot,
                                   const json::Value &frame)
{
    service::WorkResult wr = service::decodeWorkResult(frame);
    std::shared_ptr<Job> job;
    std::string cache_key;
    std::shared_ptr<const CachedResult> value;
    std::vector<obs::SpanRecord> tracer_spans;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = tasksById_.find(wr.task);
        if (it == tasksById_.end())
            return; // Late duplicate from a declared-dead worker.
        Task *task = it->second;
        if (task->state != Task::State::InFlight ||
            task->slot != slot.get())
            return; // Requeued elsewhere; this copy is stale.
        task->state = Task::State::Done;
        task->slot = nullptr;
        slot->inflight = nullptr;
        tasksById_.erase(it);
        auto jt = jobs_.find(task->jobId);
        if (jt != jobs_.end())
            job = jt->second;
        --task->job->pendingTasks;
        slot->worker->completed += 1;
        // The worker's fingerprint is another process's claim: a
        // result computed for some other config must neither reach
        // the client nor be cached under this task's key.
        const std::string &expected =
            task->job->fingerprints[task->index];
        if (wr.ok && wr.fingerprint != expected) {
            wr.ok = false;
            wr.message = "worker " + slot->worker->name +
                         " returned a result for fingerprint " +
                         wr.fingerprint + ", expected " + expected;
        }
        if (!wr.ok) {
            if (!task->job->failed) {
                task->job->failed = true;
                task->job->message = wr.message;
            }
            if (job != nullptr)
                dropQueuedLocked(job);
        } else {
            value = std::make_shared<const CachedResult>(
                CachedResult{wr.result, wr.hasDelta, wr.delta});
            task->job->outcomes[task->index] = value;
            task->job->ready[task->index] = 1;
            if (wr.cached) {
                task->job->cachedFlag[task->index] = 1;
                ++task->job->cachedCount;
            }
            cache_key = expected;
            // Worker spans: into the coordinator's own trace file
            // (--trace-out merges the whole fleet into one JSON) and
            // into the job for relay to the client.
            if (obs::tracer().enabled() && !wr.spans.empty())
                tracer_spans = wr.spans;
            if (task->job->traceId != 0) {
                task->job->pointSpans[task->index] =
                    std::move(wr.spans);
                if (wr.hasTiming) {
                    task->job->pointHasTiming[task->index] = 1;
                    task->job->pointTimings[task->index] = wr.timing;
                }
            }
        }
    }
    if (!tracer_spans.empty())
        obs::tracer().record(std::move(tracer_spans));
    if (value != nullptr) {
        // Outside the registry mutex: put() write-throughs to disk.
        cache_.put(cache_key,
                   CachedResult{std::move(wr.result), wr.hasDelta,
                                wr.delta});
    }
    if (job != nullptr)
        emitJob(job);
}

void
FleetCoordinator::declareDead(std::uint64_t worker_id,
                              const std::string &reason)
{
    std::vector<std::shared_ptr<Connection>> conns;
    std::string name;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = workers_.find(worker_id);
        if (it == workers_.end() || it->second->dead)
            return;
        auto worker = it->second;
        worker->dead = true;
        name = worker->name;
        conns.push_back(worker->control);
        for (const auto &slot : worker->attached)
            conns.push_back(slot->conn);
        workers_.erase(it);
    }
    log("worker " + std::to_string(worker_id) + " (" + name +
        ") dead: " + reason);
    // Shutting the sockets down unblocks the slot readers, whose
    // teardown requeues whatever this worker had in flight.
    for (auto &conn : conns)
        conn->channel.socket().shutdownBoth();
}

void
FleetCoordinator::monitorLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    const auto tick = std::chrono::milliseconds(
        std::max(1u, options_.heartbeatIntervalMs / 2));
    while (!stop_.load()) {
        monitorCv_.wait_for(lock, tick,
                            [this]() { return stop_.load(); });
        if (stop_.load())
            break;
        const Clock::time_point now = Clock::now();
        const std::uint64_t limit_ms =
            std::uint64_t{options_.heartbeatIntervalMs} *
            options_.heartbeatMissLimit;
        std::vector<std::uint64_t> expired;
        for (const auto &entry : workers_) {
            if (!entry.second->dead &&
                elapsedMs(entry.second->lastHeartbeat, now) >
                    limit_ms)
                expired.push_back(entry.first);
        }
        if (expired.empty())
            continue;
        lock.unlock();
        for (std::uint64_t id : expired)
            declareDead(id, "missed " +
                                std::to_string(
                                    options_.heartbeatMissLimit) +
                                " heartbeats");
        lock.lock();
    }
}

json::Value
FleetCoordinator::statusFrame()
{
    const Clock::time_point now = Clock::now();
    Value jobs = Value::array();
    Value workers = Value::array();
    std::uint64_t queue_depth = 0;
    std::uint64_t inflight = 0;
    std::uint64_t parked = 0;
    std::uint64_t total_slots = 0;
    std::uint64_t checkpoint_hits = 0;
    std::uint64_t checkpoint_misses = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &entry : jobs_) {
            const Job &job = *entry.second;
            service::JobStatus status;
            status.id = job.id;
            status.experiment = job.experiment;
            status.state = job.stateName();
            status.total = job.total;
            status.completed = job.nextEmit;
            status.cached = job.cachedCount;
            jobs.push(encodeJobStatus(status));
        }
        for (const auto &entry : workers_) {
            const Worker &worker = *entry.second;
            service::WorkerStatus status;
            status.id = worker.id;
            status.name = worker.name;
            status.slots = worker.slots;
            for (const auto &slot : worker.attached) {
                if (slot->inflight != nullptr)
                    ++status.inflight;
            }
            status.completed = worker.completed;
            status.alive = !worker.dead;
            status.heartbeatAgeMs =
                elapsedMs(worker.lastHeartbeat, now);
            const std::uint64_t up_ms =
                elapsedMs(worker.registeredAt, now);
            status.throughput =
                up_ms == 0 ? 0.0
                           : static_cast<double>(worker.completed) *
                                 1000.0 /
                                 static_cast<double>(up_ms);
            status.counters = worker.counters;
            // Heartbeat freshness per worker, published as registry
            // gauges so liveness is inspectable from the same source
            // the frame reads.
            obs::metrics()
                .gauge("fleet.worker." + worker.name +
                       ".heartbeat_age_ms")
                ->set(static_cast<std::int64_t>(
                    status.heartbeatAgeMs));
            checkpoint_hits += worker.counters.checkpointHits;
            checkpoint_misses += worker.counters.checkpointMisses;
            inflight += status.inflight;
            total_slots += worker.slots;
            workers.push(encodeWorkerStatus(status));
        }
        queue_depth = queue_.size();
        parked = parked_.size();
    }

    // Registry-rendered (see obs/metrics.hh): publish the stats,
    // then read the frame object back out of the gauges -- same
    // bytes as the old hand-assembled object.
    const MemoCacheStats cache_stats = cache_.stats();
    obs::publishCacheStats(obs::metrics(), "coord.cache",
                           cache_stats);
    Value cache =
        obs::cacheStatsJson(obs::metrics(), "coord.cache", true);

    Value fleet = Value::object();
    fleet.set("workers", std::move(workers));
    fleet.set("queue_depth", Value::number(queue_depth));
    fleet.set("inflight", Value::number(inflight));
    fleet.set("parked_slots", Value::number(parked));
    fleet.set("total_slots", Value::number(total_slots));
    // Fleet-wide warmed-state checkpoint reuse, summed over the
    // workers' last heartbeats (the coordinator itself never
    // simulates, so it has no local checkpoint store to report).
    fleet.set("checkpoint_hits", Value::number(checkpoint_hits));
    fleet.set("checkpoint_misses", Value::number(checkpoint_misses));

    Value server = Value::object();
    server.set("version", Value::string(cli::kVersion));
    server.set("protocol",
               Value::number(service::kProtocolVersion));
    server.set("endpoint", Value::string(endpoint()));
    server.set("role", Value::string("coordinator"));
    server.set("cache_entries",
               Value::number(std::uint64_t{cache_stats.entries}));
    server.set("cache", std::move(cache));
    server.set("max_jobs", Value::number(total_slots));

    Value v = makeFrame("status");
    v.set("server", std::move(server));
    v.set("jobs", std::move(jobs));
    v.set("fleet", std::move(fleet));
    return v;
}

void
FleetCoordinator::pruneJobsLocked()
{
    constexpr std::size_t kRetainedJobs = 64;
    for (auto it = jobs_.begin();
         it != jobs_.end() && jobs_.size() > kRetainedJobs;) {
        if (it->second->doneSent)
            it = jobs_.erase(it);
        else
            ++it;
    }
}

} // namespace fleet
} // namespace shotgun
