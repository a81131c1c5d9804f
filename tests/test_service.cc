/**
 * @file
 * End-to-end tests of the service layer around the fleet's
 * scheduling: a worker's control endpoint (status, ping and shutdown
 * only), strict frame handling on both daemons, and the client's
 * transport contract (timeouts, unknown frames, endpoint parsing).
 * Grid submission and its byte-identical results are
 * tests/test_fleet.cc.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "fleet_harness.hh"
#include "runner/experiment.hh"
#include "service/client.hh"

namespace shotgun
{
namespace service
{
namespace
{

using fleet::TestCoordinator;
using fleet::TestWorker;

/** Small but non-trivial synthetic workload: fast to simulate. */
WorkloadPreset
tinyPreset(const std::string &name, std::uint64_t seed)
{
    WorkloadPreset preset;
    preset.name = name;
    preset.program.name = name;
    preset.program.numFuncs = 150;
    preset.program.numOsFuncs = 30;
    preset.program.numTrapHandlers = 4;
    preset.program.numTopLevel = 8;
    preset.program.seed = seed;
    return preset;
}

/** Send one line and decode the reply frame. */
json::Value
roundTrip(LineChannel &channel, const std::string &line)
{
    std::string reply;
    EXPECT_TRUE(channel.sendLine(line));
    EXPECT_TRUE(channel.recvLine(reply));
    return json::Value::parse(reply);
}

TEST(WorkerControlTest, JobFramesGetAnErrorAndTheWorkerStillAnswers)
{
    // A worker's control endpoint is not a job frontend: submit,
    // attach and cancel frames -- all well-formed -- are answered
    // with an error pointing at the coordinator, on a connection
    // that stays usable, and nothing is simulated.
    TestCoordinator coord("control");
    TestWorker worker("control-w", coord.endpoint());
    LineChannel channel(connectTo(Endpoint::parse(worker.endpoint())));

    const WorkloadPreset preset = tinyPreset("svc-control", 0xc0);
    SubmitRequest request;
    request.experiment = "control";
    runner::Experiment exp;
    exp.workload = preset.name;
    exp.label = "shotgun";
    exp.config = SimConfig::make(preset, SchemeType::Shotgun);
    request.grid.push_back(exp);
    json::Value attach = makeFrame("attach");
    attach.set("worker", json::Value::number(std::uint64_t{1}));
    json::Value cancel = makeFrame("cancel");
    cancel.set("job", json::Value::number(std::uint64_t{1}));

    for (const json::Value &frame :
         {encodeSubmit(request), attach, cancel}) {
        const json::Value reply = roundTrip(channel, frame.dump());
        ASSERT_EQ(frameType(reply), "error") << frame.dump();
        EXPECT_NE(decodeError(reply).find(
                      "submit grids to the coordinator at " +
                      coord.endpoint()),
                  std::string::npos)
            << decodeError(reply);
    }
    EXPECT_EQ(frameType(roundTrip(channel, "{\"type\":\"ping\"}")),
              "pong");
    EXPECT_EQ(worker.worker().cacheStats().misses, 0u);

    // Status keeps the members (and their shape) that operators and
    // the benchmark's cold-run guard read; a worker has no job rows.
    ServiceClient client(worker.endpoint());
    const json::Value status = client.status();
    EXPECT_EQ(status.find("jobs"), nullptr);
    const json::Value &server = status.at("server");
    EXPECT_EQ(server.at("role").asString(), "worker");
    EXPECT_EQ(server.at("name").asString(), "control-w");
    EXPECT_EQ(server.at("protocol").asU64(), kProtocolVersion);
    EXPECT_EQ(server.at("cache").at("entries").asU64(), 0u);
    EXPECT_EQ(server.at("cache").at("hits").asU64(), 0u);
    EXPECT_NO_THROW(server.at("checkpoint").at("hits").asU64());
    EXPECT_NO_THROW(server.at("checkpoint").at("misses").asU64());
    EXPECT_NO_THROW(server.at("traces").at("bytes").asU64());

    // And a shutdown frame still stops it.
    client.shutdownServer();
    worker.join();
}

TEST(ServiceTest, MalformedFramesAreRejectedNotFatal)
{
    TestCoordinator coord("malformed");
    TestWorker worker("malformed-w", coord.endpoint());
    for (const std::string &endpoint :
         {coord.endpoint(), worker.endpoint()}) {
        LineChannel channel(connectTo(Endpoint::parse(endpoint)));
        // The coordinator classifies a connection by its first frame
        // (client, worker control or worker slot), so open as a
        // client.
        EXPECT_EQ(frameType(roundTrip(channel, "{\"type\":\"ping\"}")),
                  "pong")
            << endpoint;
        // Garbage, valid-JSON-wrong-shape, unknown type, stale
        // protocol: all answered with an error frame on a connection
        // that stays usable.
        for (const char *line :
             {"this is not json", "[1,2,3]", "{\"no_type\":1}",
              "{\"type\":\"warp\"}",
              "{\"type\":\"submit\",\"protocol\":1}"})
            EXPECT_EQ(frameType(roundTrip(channel, line)), "error")
                << endpoint << ": " << line;
        EXPECT_EQ(frameType(roundTrip(channel, "{\"type\":\"ping\"}")),
                  "pong")
            << endpoint;
    }
}

TEST(ServiceTest, LegacyBaselineMemoFlagCannotAliasAConfig)
{
    // Older clients sent a per-point flag that routed the point
    // through the in-process baseline memo. That memo is keyed on
    // the workload, lengths and seed only, so a server trusting the
    // flag answered a shotgun config with baseline numbers and cached
    // them under the shotgun fingerprint. A frame still carrying it
    // is otherwise complete and current, and the coordinator must
    // reject it with an error naming the retired member.
    // The member name is spelled in two pieces so a grep for it
    // finds only code that would read or write it.
    const std::string retired = std::string("via_baseline") + "_cache";

    const WorkloadPreset preset = tinyPreset("svc-legacy", 0x1e6);
    runner::Experiment exp;
    exp.workload = preset.name;
    exp.label = "shotgun";
    exp.config = SimConfig::make(preset, SchemeType::Shotgun);
    exp.config.warmupInstructions = 20000;
    exp.config.measureInstructions = 50000;

    // The frame as such a client sent it, built by hand.
    json::Value point = json::Value::object();
    point.set("workload", json::Value::string(exp.workload));
    point.set("label", json::Value::string(exp.label));
    point.set(retired, json::Value::boolean(true));
    point.set("config", encodeSimConfig(exp.config));
    json::Value grid = json::Value::array();
    grid.push(std::move(point));
    json::Value submit = makeFrame("submit");
    submit.set("protocol", json::Value::number(kProtocolVersion));
    submit.set("experiment", json::Value::string("legacy-flag"));
    submit.set("jobs", json::Value::number(std::uint64_t{1}));
    submit.set("priority", json::Value::number(std::uint64_t{1}));
    submit.set("grid", std::move(grid));

    fleet::TestCoordinator coord("legacy");
    LineChannel channel(connectTo(Endpoint::parse(coord.endpoint())));
    ASSERT_TRUE(channel.sendLine(submit.dump()));
    std::string reply;
    ASSERT_TRUE(channel.recvLine(reply));
    const json::Value frame = json::Value::parse(reply);
    ASSERT_EQ(frameType(frame), "error") << reply;
    EXPECT_NE(decodeError(frame).find("unknown field \"" + retired),
              std::string::npos)
        << reply;

    // The same frame without the retired member is accepted.
    const std::string member = ",\"" + retired + "\":true";
    std::string fixed = submit.dump();
    fixed.erase(fixed.find(member), member.size());
    ASSERT_TRUE(channel.sendLine(fixed));
    ASSERT_TRUE(channel.recvLine(reply));
    EXPECT_EQ(frameType(json::Value::parse(reply)), "accepted") << reply;
}

TEST(WorkerControlTest, ShutdownInterruptsAcceptWithIdleClientConnected)
{
    // Regression: a connected-but-idle client must not wedge
    // shutdown -- the wake pipe interrupts the blocked accept() and
    // the idle connection is shut down and drained.
    TestCoordinator coord("idle");
    TestWorker worker("idle-w", coord.endpoint());

    // An idle client: connects, then sends nothing at all.
    LineChannel idle(connectTo(Endpoint::parse(worker.endpoint())));
    ASSERT_TRUE(idle.valid());

    // Shutdown arrives over a second connection.
    ServiceClient control(worker.endpoint());
    control.shutdownServer();
    worker.join(); // Hangs here if accept/readers were not woken.

    // The idle client's connection was shut down by the worker.
    std::string line;
    EXPECT_FALSE(idle.recvLine(line));
}

TEST(ServiceTest, ClientTimesOutOnWedgedServer)
{
    // A listener that accepts the TCP/Unix handshake but never
    // answers a frame: the client must fail with a clear timeout
    // error instead of blocking forever.
    Listener wedged(
        Endpoint::parse("unix:/tmp/shotgun_svc_wedged.sock"));

    ServiceClient client("unix:/tmp/shotgun_svc_wedged.sock",
                         /*timeout_seconds=*/1);
    try {
        client.ping();
        FAIL() << "ping returned despite a wedged server";
    } catch (const SocketError &e) {
        EXPECT_NE(std::string(e.what()).find("sent nothing for 1s"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ServiceTest, UnknownFrameTypeInAJobStreamFailsTheSubmit)
{
    // There is one protocol version, so a frame type the client does
    // not know comes from a broken server, not a newer one to skip.
    const std::string endpoint = "unix:/tmp/shotgun_svc_unknown.sock";
    Listener fake(Endpoint::parse(endpoint));
    std::thread server([&]() {
        LineChannel conn(fake.accept());
        std::string line;
        if (!conn.recvLine(line))
            return;
        json::Value accepted = makeFrame("accepted");
        accepted.set("job", json::Value::number(std::uint64_t{1}));
        accepted.set("total", json::Value::number(std::uint64_t{1}));
        json::Value fingerprints = json::Value::array();
        fingerprints.push(json::Value::string("0123456789abcdef"));
        accepted.set("fingerprints", std::move(fingerprints));
        conn.sendLine(accepted.dump());
        conn.sendLine(makeFrame("progress").dump());
        conn.recvLine(line); // Until the client hangs up.
    });

    SubmitRequest request;
    request.experiment = "unknown-frame";
    runner::Experiment exp;
    exp.workload = "nutch";
    exp.label = "baseline";
    exp.config = SimConfig::make(makePreset(WorkloadId::Nutch),
                                 SchemeType::Baseline);
    request.grid.push_back(exp);
    {
        ServiceClient client(endpoint, /*timeout_seconds=*/5);
        try {
            client.submit(request);
            ADD_FAILURE() << "submit skipped an unknown frame";
        } catch (const ServiceError &e) {
            EXPECT_NE(std::string(e.what()).find("`progress`"),
                      std::string::npos)
                << e.what();
        }
    }
    server.join();
}

TEST(ServiceEndpointTest, ParseAndFormat)
{
    const Endpoint unix_ep = Endpoint::parse("unix:/tmp/x.sock");
    EXPECT_EQ(unix_ep.kind, Endpoint::Kind::Unix);
    EXPECT_EQ(unix_ep.path, "/tmp/x.sock");
    EXPECT_EQ(unix_ep.str(), "unix:/tmp/x.sock");

    const Endpoint tcp = Endpoint::parse("localhost:7401");
    EXPECT_EQ(tcp.kind, Endpoint::Kind::Tcp);
    EXPECT_EQ(tcp.host, "localhost");
    EXPECT_EQ(tcp.port, 7401);

    EXPECT_THROW(Endpoint::parse("unix:"), SocketError);
    EXPECT_THROW(Endpoint::parse("no-port"), SocketError);
    EXPECT_THROW(Endpoint::parse("host:"), SocketError);
    EXPECT_THROW(Endpoint::parse("host:99999"), SocketError);
    EXPECT_THROW(Endpoint::parse("host:12ab"), SocketError);
}

} // namespace
} // namespace service
} // namespace shotgun
