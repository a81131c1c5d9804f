/**
 * @file
 * The worker side of the fleet: a FleetWorker is the whole of a
 * `shotgun-serve` daemon. It pulls grid points from a
 * FleetCoordinator -- the one place a grid can be submitted -- and
 * answers operators on a small control endpoint.
 *
 * Connections to the coordinator (all outbound -- workers behind NAT
 * or a container network need no reachable address):
 *  - one *control* connection: `register` once, then a heartbeat
 *    every heartbeatMs carrying the worker's cache counters;
 *  - one *work* connection per slot: `attach`, then a steal ->
 *    work -> result loop. A steal with no queued work parks on the
 *    coordinator until work arrives, so idle workers cost nothing.
 *
 * The control endpoint (`--listen`) answers `status` (the worker's
 * result-cache, checkpoint-store and decoded-trace-store counters),
 * `ping` and `shutdown`. A `submit`, `attach` or `cancel` frame gets
 * an error frame pointing at the coordinator.
 *
 * Every pulled point is validated (validateExperimentTrace) before
 * it is simulated -- a missing or stale trace on this machine is
 * reported as an error result, never a fatal() that would kill the
 * daemon -- and computed through the worker's in-memory fingerprint
 * cache (an optional LRU byte budget, common/memo.hh).
 *
 * Failures reconnect with backoff: a coordinator restart, a dropped
 * control connection, or a dead slot socket each just retries; the
 * coordinator requeues whatever this worker had in flight the
 * moment it notices (EOF or missed heartbeats), so a reconnecting
 * worker never strands work.
 */

#ifndef SHOTGUN_FLEET_WORKER_HH
#define SHOTGUN_FLEET_WORKER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/memo.hh"
#include "service/protocol.hh"
#include "service/socket.hh"

namespace shotgun
{
namespace fleet
{

struct WorkerOptions
{
    /** Control endpoint spec ("host:port" or "unix:<path>"). */
    std::string listen;

    /** Coordinator endpoint spec. */
    std::string coordinator;

    /** Operator-facing name shown in --fleet-status. */
    std::string name = "worker";

    /** Concurrent simulation slots offered to the coordinator. */
    unsigned slots = 1;

    /** Heartbeat period; also paces reconnect backoff. */
    unsigned heartbeatMs = 1000;

    /**
     * Byte budget for the in-memory result cache; least-recently-used
     * entries are evicted once the accounted bytes exceed it. 0 keeps
     * the cache unbounded.
     */
    std::size_t cacheBytes = 0;

    /** Log stream; nullptr is quiet. */
    std::ostream *log = nullptr;
};

class FleetWorker
{
  public:
    /**
     * Bind the control endpoint immediately (so the resolved address
     * -- e.g. a kernel-assigned TCP port -- is readable before
     * serve()). Throws SocketError when it cannot be bound. Does not
     * contact the coordinator yet.
     */
    explicit FleetWorker(WorkerOptions options);
    ~FleetWorker();

    FleetWorker(const FleetWorker &) = delete;
    FleetWorker &operator=(const FleetWorker &) = delete;

    /** Resolved control address, e.g. "127.0.0.1:34127". */
    std::string endpoint() const;

    /**
     * Join the fleet and answer control connections until a
     * `shutdown` frame arrives or requestShutdown() is called; then
     * tear every connection down and join every thread, so the
     * caller may destroy the worker afterwards. Call once.
     */
    void serve();

    /**
     * Initiate shutdown from any thread: stop accepting, close the
     * coordinator and control connections (the coordinator requeues
     * whatever was in flight here). Idempotent.
     */
    void requestShutdown();

    /** Result cache counters (entries/bytes/hits/misses/evictions). */
    MemoCacheStats cacheStats() const;

  private:
    void controlLoop();
    void slotLoop(unsigned slot_index);
    void handleControl(const std::shared_ptr<service::LineChannel> &channel);
    json::Value statusFrame();
    service::WorkResult compute(const service::WorkItem &item,
                                unsigned slot_index,
                                service::TraceProbeCache &probed);

    /** Register a live channel so requestShutdown() can close it. */
    std::shared_ptr<service::LineChannel>
    adoptChannel(service::Socket sock);

    /** Interruptible sleep; false when stopping. */
    bool sleepMs(unsigned ms);

    void log(const std::string &line);

    WorkerOptions options_;
    service::Endpoint coordinator_;
    service::Listener listener_;

    std::atomic<bool> stop_{false};

    /** Coordinator-assigned id; 0 until registered. */
    std::atomic<std::uint64_t> workerId_{0};

    std::atomic<std::uint64_t> completed_{0};

    LruMemoCache<std::string, service::CachedResult> cache_;

    std::mutex mutex_; ///< channels_ and the sleep cv.
    std::condition_variable stopCv_;
    std::vector<std::weak_ptr<service::LineChannel>> channels_;
};

} // namespace fleet
} // namespace shotgun

#endif // SHOTGUN_FLEET_WORKER_HH
