/**
 * @file
 * In-process fleet for the end-to-end tests: a real FleetCoordinator
 * and real FleetWorkers on Unix sockets under /tmp, each serving on
 * its own thread and stopped by RAII.
 */

#ifndef SHOTGUN_TESTS_FLEET_HARNESS_HH
#define SHOTGUN_TESTS_FLEET_HARNESS_HH

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "fleet/coordinator.hh"
#include "fleet/worker.hh"

namespace shotgun
{
namespace fleet
{

/** A serve()ing FleetCoordinator on a Unix socket, RAII-stopped. */
class TestCoordinator
{
  public:
    explicit TestCoordinator(const std::string &tag,
                             CoordinatorOptions options = {})
        : coordinator_("unix:/tmp/shotgun_fleet_c_" + tag + ".sock",
                       options),
          thread_([this]() { coordinator_.serve(); })
    {
    }

    ~TestCoordinator() { shutdown(); }

    void shutdown()
    {
        if (thread_.joinable()) {
            coordinator_.requestShutdown();
            thread_.join();
        }
    }

    std::string endpoint() const { return coordinator_.endpoint(); }
    FleetCoordinator &coordinator() { return coordinator_; }

  private:
    FleetCoordinator coordinator_;
    std::thread thread_;
};

/** A serve()ing FleetWorker joined to a coordinator, RAII-stopped. */
class TestWorker
{
  public:
    TestWorker(const std::string &tag, const std::string &coordinator,
               unsigned slots = 1, unsigned heartbeat_ms = 100,
               std::size_t cache_bytes = 0)
        : worker_(options(tag, coordinator, slots, heartbeat_ms,
                          cache_bytes)),
          thread_([this]() { worker_.serve(); })
    {
    }

    ~TestWorker() { stop(); }

    /**
     * Stop the worker as a crash would look to the coordinator: its
     * connections close, so whatever it held in flight is requeued.
     * Idempotent.
     */
    void stop()
    {
        if (thread_.joinable()) {
            worker_.requestShutdown();
            thread_.join();
        }
    }

    /** Wait for serve() to return on its own (a shutdown frame). */
    void join()
    {
        if (thread_.joinable())
            thread_.join();
    }

    std::string endpoint() const { return worker_.endpoint(); }
    FleetWorker &worker() { return worker_; }

  private:
    static WorkerOptions options(const std::string &tag,
                                 const std::string &coordinator,
                                 unsigned slots, unsigned heartbeat_ms,
                                 std::size_t cache_bytes)
    {
        WorkerOptions o;
        o.listen = "unix:/tmp/shotgun_fleet_w_" + tag + ".sock";
        o.coordinator = coordinator;
        o.name = tag;
        o.slots = slots;
        o.heartbeatMs = heartbeat_ms;
        o.cacheBytes = cache_bytes;
        return o;
    }

    FleetWorker worker_;
    std::thread thread_;
};

/** Poll until the coordinator sees `count` live workers. */
inline void
awaitWorkers(FleetCoordinator &coordinator, std::size_t count,
             unsigned timeout_ms = 10000)
{
    for (unsigned waited = 0; waited < timeout_ms; ++waited) {
        if (coordinator.liveWorkers() == count)
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FAIL() << "never saw " << count << " live workers";
}

} // namespace fleet
} // namespace shotgun

#endif // SHOTGUN_TESTS_FLEET_HARNESS_HH
