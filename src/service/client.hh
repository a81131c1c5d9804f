/**
 * @file
 * Client side of the simulation service: submit an experiment grid to
 * a shotgun-coord fleet and stream its results back index-aligned
 * with the grid, so the assembled vector is bitwise-identical to
 * running the grid in one process. The same client reads a worker's
 * control endpoint (status, ping, shutdown). Every receive is bounded by a socket deadline: a wedged
 * server fails the call with a clear timeout error instead of hanging
 * the client forever. Worker death is the coordinator's to handle
 * (it requeues the dead worker's in-flight points); the client sees
 * one ordinary stream either way.
 */

#ifndef SHOTGUN_SERVICE_CLIENT_HH
#define SHOTGUN_SERVICE_CLIENT_HH

#include <functional>
#include <string>
#include <vector>

#include "runner/experiment.hh"
#include "service/protocol.hh"
#include "service/socket.hh"

namespace shotgun
{
namespace service
{

/**
 * Server-reported failure: an error frame, a job that ended in error
 * or was cancelled, or an unexpected disconnect.
 */
struct ServiceError : std::runtime_error
{
    explicit ServiceError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * Default receive deadline: generous because a single grid point is
 * legitimately minutes of simulation with no frame traffic, but
 * finite so a wedged daemon cannot hang a client forever.
 */
constexpr unsigned kDefaultTimeoutSeconds = 600;

class ServiceClient
{
  public:
    /**
     * Connect; throws SocketError when the server is unreachable.
     * `timeout_seconds` bounds every receive: when the server sends
     * nothing for that long the pending call throws SocketError
     * with a timeout message (0 disables the deadline).
     */
    explicit ServiceClient(
        const std::string &endpoint_spec,
        unsigned timeout_seconds = kDefaultTimeoutSeconds);

    const std::string &endpoint() const { return endpoint_; }

    /**
     * Submit a grid and block until its `done` frame. Returns the
     * results index-aligned with `request.grid`; `on_result` (when
     * set) observes each streamed point as it arrives, in grid
     * order. Throws ServiceError when the server rejects the submit,
     * reports a failed job, or disconnects mid-stream, and
     * SocketError on transport failure or receive timeout.
     */
    std::vector<SimResult>
    submit(const SubmitRequest &request,
           const std::function<void(const ResultEvent &)> &on_result =
               {});

    /** The server's `status` frame (decoded JSON). */
    json::Value status();

    /** True when the server answered the ping. */
    bool ping();

    /** Ask a job to cancel (best-effort). */
    void cancel(std::uint64_t job);

    /** Send `shutdown`; returns once the server acknowledged. */
    void shutdownServer();

  private:
    json::Value request(const json::Value &frame);
    std::string recvLineOrThrow();

    std::string endpoint_;
    unsigned timeoutSeconds_ = 0;
    LineChannel channel_;
};

/**
 * Run a grid with each experiment split into `window_shards`
 * full-coverage windows (window::contiguousPlan). The expanded grid
 * goes to the coordinator in one submit(): it spreads the windows
 * over its fleet and requeues those of a worker that dies. Each
 * window's raw delta is collected from its result frame and the
 * windows are stitched back, so the returned vector (index-aligned
 * with `request.grid`) equals running each experiment
 * monolithically.
 *
 * `on_result` observes every window's event (`index` is the
 * expanded-grid index). Throws like ServiceClient::submit(), and
 * ServiceError when a window arrives without its delta; fatal() on
 * window_shards == 0, an already-windowed grid point, or one too
 * short to split.
 */
std::vector<SimResult> submitWindowed(
    ServiceClient &client, const SubmitRequest &request,
    unsigned window_shards,
    const std::function<void(const ResultEvent &)> &on_result = {});

} // namespace service
} // namespace shotgun

#endif // SHOTGUN_SERVICE_CLIENT_HH
