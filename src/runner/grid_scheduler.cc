#include "runner/grid_scheduler.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "runner/thread_pool.hh"

namespace shotgun
{
namespace runner
{

namespace
{

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

using SteadyClock = std::chrono::steady_clock;

std::uint64_t
microsSince(SteadyClock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            SteadyClock::now() - start)
            .count());
}

/** Tracing captured from the calling thread; immutable once built. */
struct GridTrace
{
    bool traced = false;
    std::uint64_t traceId = 0;
    std::uint64_t parent = 0;
    std::uint64_t startUs = 0; ///< Wall clock when the grid queued.
    SteadyClock::time_point start;
};

/** All members guarded by `mutex` except where noted. */
struct GridState
{
    std::mutex mutex;
    std::condition_variable workCv;  ///< Workers: a point may be free.
    std::condition_variable readyCv; ///< Caller: a result is ready.

    /** Per index: its cohort leader's index, or kNone (no gate). */
    std::vector<std::size_t> leader;
    /** Per index: Park for a leader with followers; immutable. */
    std::vector<WarmState> warm;
    std::vector<char> dispatched;
    std::vector<char> ready;
    std::size_t nextDispatch = 0; ///< First undispatched index.
    bool stop = false;
    std::exception_ptr error; ///< Lowest-index simulate failure.
    std::size_t errorIndex = kNone;

    /** Written by the point's worker before `ready` is set; read by
     * the caller only after it saw `ready`. */
    std::vector<SimResult> results;
    std::vector<PointObservation> observations;

    /** Next dispatchable index, or kNone when every undispatched
     * point waits on a cohort leader (or none is left). */
    std::size_t nextEligible() const
    {
        for (std::size_t i = nextDispatch; i < dispatched.size(); ++i) {
            if (!dispatched[i] &&
                (leader[i] == kNone || ready[leader[i]]))
                return i;
        }
        return kNone;
    }
};

SimResult
simulateTraced(const GridHooks &hooks, const Experiment &exp,
               std::size_t index, WarmState warm, const GridTrace &trace,
               const std::string &lane, PointObservation &observation)
{
    // Re-install the grid's tracing context on this pool thread: the
    // point's collector catches the sim spans, the timing slot the
    // phase breakdown, and "queued" + "dispatched" frame the point's
    // lifecycle.
    obs::SpanCollector collector;
    obs::TraceContext ctx;
    ctx.traceId = trace.traceId;
    ctx.parentSpan = trace.parent;
    ctx.collector = &collector;
    ctx.timing = &observation.timing;
    ctx.lane = lane;
    obs::ScopedTraceContext guard(&ctx);

    obs::SpanRecord queued;
    queued.traceId = trace.traceId;
    queued.id = obs::tracer().nextSpanId();
    queued.parent = trace.parent;
    queued.name = "queued";
    queued.category = "sched";
    queued.process = obs::tracer().processName();
    queued.lane = "queue";
    queued.startUs = trace.startUs;
    queued.durUs = microsSince(trace.start);
    collector.add(queued);
    if (obs::tracer().enabled())
        obs::tracer().record(std::move(queued));

    SimResult result;
    {
        obs::Span dispatched("dispatched", "sched");
        result = hooks.simulate(index, exp, warm);
    }
    observation.spans = collector.take();
    return result;
}

void
workerLoop(const std::vector<Experiment> &grid, const GridHooks &hooks,
           const GridTrace &trace, GridState &state, unsigned worker)
{
    const std::string lane = "worker-" + std::to_string(worker);
    std::unique_lock<std::mutex> lock(state.mutex);
    for (;;) {
        std::size_t index = kNone;
        state.workCv.wait(lock, [&]() {
            if (state.stop || state.nextDispatch == grid.size())
                return true;
            index = state.nextEligible();
            return index != kNone;
        });
        if (index == kNone)
            return; // Stopped, or every point is dispatched.
        state.dispatched[index] = 1;
        while (state.nextDispatch < grid.size() &&
               state.dispatched[state.nextDispatch])
            ++state.nextDispatch;
        lock.unlock();

        SimResult result;
        PointObservation observation;
        std::exception_ptr error;
        try {
            const WarmState warm = state.warm[index];
            result = trace.traced
                         ? simulateTraced(hooks, grid[index], index,
                                          warm, trace, lane, observation)
                         : hooks.simulate(index, grid[index], warm);
        } catch (...) {
            error = std::current_exception();
        }

        lock.lock();
        if (error != nullptr) {
            if (index < state.errorIndex) {
                state.error = error;
                state.errorIndex = index;
            }
            state.stop = true;
        } else {
            state.results[index] = std::move(result);
            if (trace.traced)
                state.observations[index] = std::move(observation);
            state.ready[index] = 1;
        }
        // A finished point may open its cohort, and a failure must
        // wake every idle worker so it can exit.
        state.workCv.notify_all();
        state.readyCv.notify_one();
    }
}

} // namespace

void
scheduleGrid(const std::vector<Experiment> &grid, unsigned workers,
             const GridHooks &hooks)
{
    const std::size_t n = grid.size();
    if (n == 0)
        return;

    GridState state;
    state.leader.assign(n, kNone);
    state.warm.assign(n, WarmState::Discard);
    state.dispatched.assign(n, 0);
    state.ready.assign(n, 0);
    state.results.resize(n);
    if (hooks.cohortOf) {
        std::map<std::string, std::size_t> leaders;
        for (std::size_t i = 0; i < n; ++i) {
            std::string key = hooks.cohortOf(i, grid[i]);
            if (key.empty())
                continue;
            auto inserted = leaders.emplace(std::move(key), i);
            if (!inserted.second) {
                state.leader[i] = inserted.first->second;
                state.warm[inserted.first->second] = WarmState::Park;
            }
        }
    }

    // The calling thread's tracing context opts the grid in; without
    // one no tracing work happens anywhere on the grid's path.
    GridTrace trace;
    if (const obs::TraceContext *ctx = obs::currentTraceContext()) {
        trace.traced = ctx->traceId != 0 || ctx->collector != nullptr ||
                       obs::tracer().enabled();
        if (trace.traced) {
            trace.traceId = ctx->traceId != 0
                                ? ctx->traceId
                                : obs::tracer().defaultTraceId();
            trace.parent = ctx->parentSpan;
            trace.startUs = obs::wallClockUs();
            trace.start = SteadyClock::now();
            state.observations.resize(n);
        }
    }

    const unsigned requested =
        workers == 0 ? ThreadPool::hardwareJobs() : workers;
    const unsigned count = static_cast<unsigned>(
        std::max<std::size_t>(1, std::min<std::size_t>(requested, n)));

    std::vector<std::thread> threads;
    std::exception_ptr caller_error;
    try {
        threads.reserve(count);
        for (unsigned w = 0; w < count; ++w)
            threads.emplace_back([&, w]() {
                workerLoop(grid, hooks, trace, state, w);
            });

        // Emit the ready prefix in grid order, on this thread.
        std::size_t next_emit = 0;
        std::unique_lock<std::mutex> lock(state.mutex);
        while (next_emit < n) {
            state.readyCv.wait(lock, [&]() {
                return state.stop || state.ready[next_emit];
            });
            if (state.stop)
                break;
            std::size_t to = next_emit;
            while (to < n && state.ready[to])
                ++to;
            lock.unlock();
            const bool trace_emit = trace.traced && obs::tracer().enabled();
            const std::uint64_t emit_start_us =
                trace_emit ? obs::wallClockUs() : 0;
            const SteadyClock::time_point emit_start = SteadyClock::now();
            if (hooks.onResult) {
                for (std::size_t i = next_emit; i < to; ++i)
                    hooks.onResult(i, std::move(state.results[i]),
                                   trace.traced ? &state.observations[i]
                                                : nullptr);
            }
            if (trace_emit) {
                // One "emit" span per delivered batch closes the
                // lifecycle in the local trace file.
                obs::SpanRecord emit;
                emit.traceId = trace.traceId;
                emit.id = obs::tracer().nextSpanId();
                emit.parent = trace.parent;
                emit.name = "emit";
                emit.category = "sched";
                emit.process = obs::tracer().processName();
                emit.lane = "emit";
                emit.startUs = emit_start_us;
                emit.durUs = microsSince(emit_start);
                obs::tracer().record(std::move(emit));
            }
            next_emit = to;
            lock.lock();
        }
    } catch (...) {
        caller_error = std::current_exception();
    }

    // Stop dispatch (a no-op after a clean run) and let the in-flight
    // points finish before anything they reference goes away.
    {
        std::lock_guard<std::mutex> lock(state.mutex);
        state.stop = true;
    }
    state.workCv.notify_all();
    for (std::thread &thread : threads)
        thread.join();

    if (caller_error != nullptr)
        std::rethrow_exception(caller_error);
    if (state.error != nullptr)
        std::rethrow_exception(state.error);
}

} // namespace runner
} // namespace shotgun
