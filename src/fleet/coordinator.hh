/**
 * @file
 * The fleet control plane: one `shotgun-coord` daemon that owns a
 * global work-stealing queue of grid points and hands them to
 * registered `shotgun-serve` workers, so clients submit to a single
 * endpoint instead of enumerating workers.
 *
 * Topology (see src/fleet/README.md for the wire spec):
 *
 *   shotgun-submit --coordinator EP          shotgun-serve w1..wN
 *        |  submit/status/cancel                  |  register+heartbeat
 *        v                                        v  (1 control conn)
 *   +---------------------- shotgun-coord ----------------------+
 *   | priority/cost-ordered task queue | worker registry        |
 *   | result cache (LRU + disk)       | heartbeat monitor       |
 *   +------------------------------------------------------------+
 *                  ^ steal -> work -> result (1 conn per slot)
 *
 * Clients speak the service protocol (protocol.hh), and the
 * coordinator is the one place a grid can be submitted: it accepts
 * `submit` and streams `result`/`done` frames in strict grid order,
 * so the output ServiceClient assembles stays byte-identical to an
 * in-process run.
 *
 * Scheduling: queued tasks are ordered by job priority (the submit
 * frame's fair-share weight, descending), then simulated length
 * (descending -- longest-measured-first, the LPT placement that
 * minimizes the straggler tail), then admission order. Any idle
 * worker slot steals the head of that queue; there is no static
 * assignment, so a fast worker simply steals more.
 *
 * Fault tolerance: a worker that closes its connections, or whose
 * heartbeat goes missing for `heartbeatMissLimit` intervals, is
 * declared dead and every point in flight on it is requeued at the
 * head of its job's class for the survivors -- results it already
 * returned are kept, and a late duplicate result from a worker that
 * was wrongly declared dead is dropped, so every grid point lands
 * exactly once. Simulations are pure functions of their config, so
 * re-running a lost point on any worker yields identical bytes. A
 * point whose worker is lost twice is not requeued a third time: it
 * may be what kills workers (a fatal(), a crash, OOM), so its job
 * fails with a message naming the point instead of the point walking
 * through the whole fleet.
 *
 * Results are cached by config fingerprint in an LRU memo cache
 * with an optional persistent directory backend (disk_cache.hh):
 * a resubmitted grid is answered without touching any worker, even
 * across a coordinator restart.
 */

#ifndef SHOTGUN_FLEET_COORDINATOR_HH
#define SHOTGUN_FLEET_COORDINATOR_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/memo.hh"
#include "fleet/disk_cache.hh"
#include "service/protocol.hh"
#include "service/socket.hh"

namespace shotgun
{
namespace fleet
{

struct CoordinatorOptions
{
    /** Byte budget of the in-memory result cache; 0 unbounded. */
    std::size_t cacheBytes = 0;

    /**
     * Persistent cache directory; empty disables persistence. The
     * directory is created if absent and survives restarts.
     */
    std::string cacheDir;

    /**
     * Byte bound on the persistent cache directory; 0 unbounded.
     * Oldest entries are trimmed first (DiskResultCache).
     */
    std::uint64_t cacheDirMaxBytes = 0;

    /** Expected worker heartbeat interval. */
    unsigned heartbeatIntervalMs = 1000;

    /**
     * Heartbeats a worker may miss before it is declared dead and
     * its in-flight points are requeued on the survivors.
     */
    unsigned heartbeatMissLimit = 3;

    /** Log stream for fleet events; nullptr is quiet. */
    std::ostream *log = nullptr;
};

class FleetCoordinator
{
  public:
    /** Bind and listen immediately; throws SocketError on failure. */
    FleetCoordinator(const std::string &endpoint_spec,
                     CoordinatorOptions options = {});
    ~FleetCoordinator();

    FleetCoordinator(const FleetCoordinator &) = delete;
    FleetCoordinator &operator=(const FleetCoordinator &) = delete;

    /** Resolved listen address, e.g. "127.0.0.1:34127". */
    std::string endpoint() const;

    /**
     * Accept and serve clients and workers until a `shutdown` frame
     * arrives or requestShutdown() is called. Unfinished jobs get a
     * cancelled `done` frame before this returns.
     */
    void serve();

    /** Initiate shutdown from any thread. */
    void requestShutdown();

    /** Result-cache counters (backendHits counts disk answers). */
    MemoCacheStats cacheStats() const;

    /** Workers currently registered and not declared dead. */
    std::size_t liveWorkers() const;

    /** Queued (not yet dispatched) tasks right now. */
    std::size_t queueDepth() const;

  private:
    struct Connection;
    struct Worker;
    struct Slot;
    struct Job;
    struct Task;

    /** Queue order: priority desc, cost desc, admission asc. */
    struct TaskOrder
    {
        bool operator()(const Task *a, const Task *b) const;
    };

    /** (connection, encoded frame) pairs sent outside the mutex. */
    using SendBatch = std::vector<
        std::pair<std::shared_ptr<Connection>, std::string>>;

    void handleConnection(std::shared_ptr<Connection> conn);
    bool handleClientFrame(const std::shared_ptr<Connection> &conn,
                           const json::Value &frame);
    void admitJob(const std::shared_ptr<Connection> &conn,
                  const json::Value &frame);
    void runWorkerControl(const std::shared_ptr<Connection> &conn,
                          const json::Value &frame);
    void runWorkerSlot(const std::shared_ptr<Connection> &conn,
                       const json::Value &frame);
    void handleWorkResult(const std::shared_ptr<Slot> &slot,
                          const json::Value &frame);

    /** Match queued tasks to parked slots; fills `sends`. */
    void pumpLocked(SendBatch &sends);

    /** Drop a job's queued tasks (cancel/failure). Lock held. */
    void dropQueuedLocked(const std::shared_ptr<Job> &job);

    /**
     * Stream the job's ready prefix in grid order and, when the job
     * has no pending tasks left, its `done` frame. Safe from any
     * thread; concurrent calls for one job never interleave frames.
     */
    void emitJob(const std::shared_ptr<Job> &job);

    /** Declare a worker dead and tear its connections down. */
    void declareDead(std::uint64_t worker_id,
                     const std::string &reason);

    void monitorLoop();
    json::Value statusFrame();
    void pruneJobsLocked();
    void sendBatch(SendBatch &sends);
    void log(const std::string &line);

    CoordinatorOptions options_;
    service::Listener listener_;
    std::atomic<bool> stop_{false};

    mutable std::mutex mutex_; ///< Registry, queue, jobs, workers.
    std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;
    std::map<std::uint64_t, std::shared_ptr<Worker>> workers_;
    std::map<std::uint64_t, Task *> tasksById_; ///< Undone tasks.
    std::set<Task *, TaskOrder> queue_;         ///< Queued tasks.
    std::deque<std::shared_ptr<Slot>> parked_;  ///< Idle steals.
    std::vector<std::weak_ptr<Connection>> connections_;
    std::uint64_t nextJobId_ = 1;
    std::uint64_t nextWorkerId_ = 1;
    std::uint64_t nextTaskId_ = 1;

    std::condition_variable monitorCv_;
    std::thread monitor_;

    std::unique_ptr<DiskResultCache> disk_;
    LruMemoCache<std::string, service::CachedResult> cache_;
};

} // namespace fleet
} // namespace shotgun

#endif // SHOTGUN_FLEET_COORDINATOR_HH
