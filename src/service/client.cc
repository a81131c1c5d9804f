#include "service/client.hh"

#include "common/logging.hh"
#include "window/window_plan.hh"
#include "window/windowed_runner.hh"

namespace shotgun
{
namespace service
{

using json::Value;

ServiceClient::ServiceClient(const std::string &endpoint_spec,
                             unsigned timeout_seconds)
    : endpoint_(endpoint_spec),
      timeoutSeconds_(timeout_seconds),
      channel_(connectTo(Endpoint::parse(endpoint_spec)))
{
    if (timeoutSeconds_ != 0)
        channel_.socket().setRecvTimeout(timeoutSeconds_ * 1000u);
}

std::string
ServiceClient::recvLineOrThrow()
{
    std::string line;
    if (channel_.recvLine(line))
        return line;
    if (channel_.timedOut())
        throw SocketError(
            "server " + endpoint_ + " sent nothing for " +
            std::to_string(timeoutSeconds_) +
            "s (stalled or wedged?); raise --timeout for very long "
            "grid points");
    throw SocketError("server " + endpoint_ +
                      " closed the connection");
}

json::Value
ServiceClient::request(const json::Value &frame)
{
    if (!channel_.sendLine(frame.dump()))
        throw SocketError("send to " + endpoint_ + " failed");
    Value reply = Value::parse(recvLineOrThrow());
    if (frameType(reply) == "error")
        throw ServiceError(endpoint_ + ": " + decodeError(reply));
    return reply;
}

std::vector<SimResult>
ServiceClient::submit(
    const SubmitRequest &request_data,
    const std::function<void(const ResultEvent &)> &on_result)
{
    const Value reply = request(encodeSubmit(request_data));
    ObjectReader accepted = frameReader(reply, "accepted");
    const std::uint64_t job = accepted.u64("job");
    const std::uint64_t total = accepted.u64("total");
    if (total != request_data.grid.size() ||
        accepted.get("fingerprints").size() != total)
        throw ServiceError(endpoint_ +
                           ": server accepted a different grid size");
    accepted.finish();

    std::vector<SimResult> results(request_data.grid.size());
    std::vector<char> seen(request_data.grid.size(), 0);
    std::uint64_t received = 0;

    while (true) {
        const Value frame = Value::parse(recvLineOrThrow());
        const std::string type = frameType(frame);
        if (type == "result") {
            ResultEvent event = decodeResultEvent(frame);
            if (event.job != job)
                continue; // Another interleaved job's stream.
            if (event.index >= results.size() || seen[event.index])
                throw ServiceError(endpoint_ +
                                   ": bad result index " +
                                   std::to_string(event.index));
            results[event.index] = event.result;
            seen[event.index] = 1;
            ++received;
            if (on_result)
                on_result(event);
        } else if (type == "done") {
            const DoneEvent done = decodeDone(frame);
            if (done.job != job)
                continue;
            if (done.status != "ok")
                throw ServiceError(
                    endpoint_ + ": job " + std::to_string(job) + " " +
                    done.status +
                    (done.message.empty() ? "" : ": " + done.message));
            if (received != results.size())
                throw ServiceError(endpoint_ + ": job " +
                                   std::to_string(job) +
                                   " done after " +
                                   std::to_string(received) + "/" +
                                   std::to_string(results.size()) +
                                   " results");
            return results;
        } else if (type == "error") {
            throw ServiceError(endpoint_ + ": " + decodeError(frame));
        } else {
            throw ServiceError(endpoint_ + ": unexpected `" + type +
                               "` frame in job " +
                               std::to_string(job) + "'s stream");
        }
    }
}

json::Value
ServiceClient::status()
{
    Value reply = request(makeFrame("status"));
    if (frameType(reply) != "status")
        throw ServiceError(endpoint_ + ": expected `status` reply");
    return reply;
}

bool
ServiceClient::ping()
{
    return frameType(request(makeFrame("ping"))) == "pong";
}

void
ServiceClient::cancel(std::uint64_t job)
{
    Value frame = makeFrame("cancel");
    frame.set("job", Value::number(job));
    (void)request(frame);
}

void
ServiceClient::shutdownServer()
{
    Value reply = request(makeFrame("shutdown"));
    if (frameType(reply) != "bye")
        throw ServiceError(endpoint_ + ": expected `bye` reply");
}

std::vector<SimResult>
submitWindowed(ServiceClient &client, const SubmitRequest &request,
               unsigned window_shards,
               const std::function<void(const ResultEvent &)> &on_result)
{
    fatal_if(window_shards == 0,
             "window sharding needs at least 1 window");

    // Expand each experiment into its full-coverage windows; the
    // expanded grid is an ordinary submission.
    SubmitRequest expanded = request;
    expanded.grid.clear();
    std::vector<std::size_t> owner; // expanded index -> grid index
    for (std::size_t i = 0; i < request.grid.size(); ++i) {
        const runner::Experiment &exp = request.grid[i];
        fatal_if(exp.config.window.enabled(),
                 "experiment %s/%s already has a window; window "
                 "sharding splits whole runs",
                 exp.workload.c_str(), exp.label.c_str());
        const window::WindowPlan plan =
            window::contiguousPlan(exp.config, window_shards);
        for (runner::Experiment &sub :
             window::expandExperiment(exp, plan)) {
            owner.push_back(i);
            expanded.grid.push_back(std::move(sub));
        }
    }

    // The stitcher needs each window's raw counters, not the derived
    // result: collect the delta every windowed result frame carries.
    std::vector<SimulationDelta> deltas(expanded.grid.size());
    client.submit(expanded, [&](const ResultEvent &event) {
        if (!event.hasDelta)
            throw ServiceError(
                "window " + expanded.grid[event.index].label +
                " of \"" + expanded.grid[event.index].workload +
                "\" came back without its raw delta");
        SimulationDelta &delta = deltas[event.index];
        delta.workload = event.result.workload;
        delta.scheme = event.result.scheme;
        delta.schemeStorageBits = event.result.schemeStorageBits;
        delta.stats = event.delta;
        if (on_result)
            on_result(event);
    });

    // Stitch each experiment's windows, in window order.
    std::vector<SimResult> results(request.grid.size());
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < request.grid.size(); ++i) {
        std::vector<SimulationDelta> windows;
        while (cursor < owner.size() && owner[cursor] == i)
            windows.push_back(std::move(deltas[cursor++]));
        results[i] = window::stitchWindows(windows);
    }
    return results;
}

} // namespace service
} // namespace shotgun
