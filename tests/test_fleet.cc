/**
 * @file
 * End-to-end tests for the fleet control plane: a real
 * FleetCoordinator on a Unix socket in this process, with real
 * FleetWorkers attached to it (tests/fleet_harness.hh). The load-bearing
 * assertions are determinism and exactly-once delivery: a grid
 * submitted to the coordinator -- including one whose worker is
 * killed or stops heartbeating mid-grid -- returns results bitwise
 * identical to the same grid run in-process, and a persistent cache
 * directory answers a resubmitted grid across a coordinator restart
 * without any worker at all.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include <utime.h>

#include "fleet/disk_cache.hh"
#include "fleet_harness.hh"
#include "runner/experiment.hh"
#include "runner/result_sink.hh"
#include "service/client.hh"
#include "trace/generator.hh"
#include "trace/program.hh"
#include "trace/trace_io.hh"

namespace shotgun
{
namespace fleet
{
namespace
{

using service::CachedResult;
using service::LineChannel;
using service::ResultEvent;
using service::ServiceClient;
using service::SubmitRequest;

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

runner::ExperimentSet
quickGrid(int workloads = 2)
{
    const std::uint64_t warmup = 20000, measure = 50000;
    runner::ExperimentSet set;
    for (int w = 0; w < workloads; ++w) {
        const WorkloadPreset preset =
            tinyPreset("fleet-w" + std::to_string(w),
                       0xf1ee7 + static_cast<std::uint64_t>(w));
        set.addBaseline(preset, warmup, measure);
        for (SchemeType type :
             {SchemeType::Boomerang, SchemeType::Shotgun}) {
            SimConfig config = SimConfig::make(preset, type);
            config.warmupInstructions = warmup;
            config.measureInstructions = measure;
            set.add(preset, schemeTypeName(type), config);
        }
    }
    return set;
}

SubmitRequest
requestFor(const runner::ExperimentSet &set, const std::string &name)
{
    SubmitRequest request;
    request.experiment = name;
    request.jobs = 1;
    request.grid = set.experiments();
    return request;
}

std::string
freshDir(const std::string &tag)
{
    const std::string dir = "/tmp/shotgun_fleet_" + tag + "_cache";
    std::system(("rm -rf " + dir).c_str());
    return dir;
}

/**
 * A raw-socket worker: registered, one slot attached and parked on a
 * steal. It never heartbeats, so the tests using it finish well
 * inside the coordinator's default miss limit.
 */
class FakeWorker
{
  public:
    FakeWorker(const std::string &endpoint, const std::string &name)
        : control_(service::connectTo(service::Endpoint::parse(endpoint))),
          slot_(service::connectTo(service::Endpoint::parse(endpoint)))
    {
        service::RegisterRequest reg;
        reg.name = name;
        std::string line;
        EXPECT_TRUE(
            control_.sendLine(service::encodeRegister(reg).dump()));
        EXPECT_TRUE(control_.recvLine(line));
        json::Value attach = service::makeFrame("attach");
        attach.set("worker", json::Value::parse(line).at("worker"));
        EXPECT_TRUE(slot_.sendLine(attach.dump()));
        EXPECT_TRUE(slot_.recvLine(line));
        EXPECT_TRUE(slot_.sendLine(service::makeFrame("steal").dump()));
    }

    ~FakeWorker() { crash(); }

    /** Block until the coordinator hands the slot a task. */
    service::WorkItem awaitWork()
    {
        std::string line;
        EXPECT_TRUE(slot_.recvLine(line));
        return service::decodeWork(json::Value::parse(line));
    }

    /** Close both connections, as a crashed process would. */
    void crash()
    {
        control_.socket().shutdownBoth();
        slot_.socket().shutdownBoth();
    }

  private:
    LineChannel control_;
    LineChannel slot_;
};

TEST(FleetDiskCacheTest, RoundTripDamageAndForeignKeys)
{
    const std::string dir = freshDir("disk");
    DiskResultCache cache(dir);
    EXPECT_EQ(cache.entryCount(), 0u);

    CachedResult value;
    value.result.workload = "w";
    value.result.scheme = "shotgun";
    value.result.instructions = 50000;
    value.result.cycles = 123456;
    value.result.ipc = 0.405;
    value.hasDelta = true;
    value.delta.instructions = 50000;
    value.delta.cycles = 123456;
    cache.store("ab12cd34", value);
    EXPECT_EQ(cache.entryCount(), 1u);

    CachedResult loaded;
    ASSERT_TRUE(cache.load("ab12cd34", loaded));
    EXPECT_TRUE(loaded.result == value.result);
    ASSERT_TRUE(loaded.hasDelta);
    EXPECT_TRUE(loaded.delta == value.delta);

    // A second instance over the same directory sees the entry: this
    // is the restart-persistence contract.
    DiskResultCache reopened(dir);
    CachedResult again;
    ASSERT_TRUE(reopened.load("ab12cd34", again));
    EXPECT_TRUE(again.result == value.result);

    // Unknown fingerprints and non-hex (path-traversal-shaped) keys
    // miss; store with such a key is swallowed, not written.
    EXPECT_FALSE(cache.load("feedbeef", loaded));
    EXPECT_FALSE(cache.load("../evil", loaded));
    cache.store("../evil", value);
    EXPECT_EQ(cache.entryCount(), 1u);

    // A damaged file is a miss, never a crash or a garbage result.
    {
        std::ofstream out(dir + "/ab12cd34.json",
                          std::ios::binary | std::ios::trunc);
        out << "{\"fingerprint\": truncated";
    }
    EXPECT_FALSE(cache.load("ab12cd34", loaded));

    // A file whose embedded fingerprint disagrees with its name
    // (e.g. a stray copy) is rejected too.
    cache.store("00ff00ff", value);
    std::rename((dir + "/00ff00ff.json").c_str(),
                (dir + "/11ee11ee.json").c_str());
    EXPECT_FALSE(cache.load("11ee11ee", loaded));
}

TEST(FleetDiskCacheTest, ByteBoundTrimsOldestFirst)
{
    const std::string dir = freshDir("trim");
    CachedResult value;
    value.result.workload = "w";
    value.result.scheme = "shotgun";
    value.result.instructions = 50000;
    value.result.cycles = 123456;

    // Measure one entry's on-disk size with an unbounded instance;
    // identical values under same-length fingerprints give every
    // entry the same size, so budgets become entry counts.
    DiskResultCache probe(dir);
    probe.store("aaaaaaaaaaaaaaaa", value);
    const std::uint64_t entry_bytes = probe.totalBytes();
    ASSERT_GT(entry_bytes, 0u);

    // Age the first entry so mtime ordering is unambiguous (stat
    // mtime has one-second granularity).
    auto ageFile = [&dir](const std::string &name, long seconds) {
        struct utimbuf times;
        times.actime = times.modtime = ::time(nullptr) - seconds;
        ASSERT_EQ(::utime((dir + "/" + name + ".json").c_str(),
                          &times),
                  0);
    };
    ageFile("aaaaaaaaaaaaaaaa", 100);

    // Room for exactly two entries.
    DiskResultCache cache(dir, 2 * entry_bytes);
    EXPECT_EQ(cache.maxBytes(), 2 * entry_bytes);
    cache.store("bbbbbbbbbbbbbbbb", value);
    EXPECT_EQ(cache.entryCount(), 2u); // Still within the bound.
    ageFile("bbbbbbbbbbbbbbbb", 50);

    cache.store("cccccccccccccccc", value); // Over: trims oldest.
    EXPECT_EQ(cache.entryCount(), 2u);
    CachedResult loaded;
    EXPECT_FALSE(cache.load("aaaaaaaaaaaaaaaa", loaded));
    EXPECT_TRUE(cache.load("bbbbbbbbbbbbbbbb", loaded));
    EXPECT_TRUE(cache.load("cccccccccccccccc", loaded));

    // A bound below a single entry still keeps the entry just
    // stored: the freshest result always persists.
    const std::string tiny_dir = freshDir("trim_tiny");
    DiskResultCache tiny(tiny_dir, 1);
    tiny.store("dddddddddddddddd", value);
    EXPECT_EQ(tiny.entryCount(), 1u);
    EXPECT_TRUE(tiny.load("dddddddddddddddd", loaded));
}

TEST(FleetTest, CoordinatorMatchesInProcessBitwise)
{
    const runner::ExperimentSet set = quickGrid(2);
    const auto local = runner::ExperimentRunner().run(set);

    TestCoordinator coord("bitwise");
    TestWorker w1("bw-1", coord.endpoint());
    TestWorker w2("bw-2", coord.endpoint());
    TestWorker w3("bw-3", coord.endpoint());
    awaitWorkers(coord.coordinator(), 3);

    ServiceClient client(coord.endpoint());
    EXPECT_TRUE(client.ping());
    std::vector<ResultEvent> events;
    const auto remote = client.submit(
        requestFor(set, "fleet-bitwise"),
        [&](const ResultEvent &event) { events.push_back(event); });

    ASSERT_EQ(remote.size(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i)
        EXPECT_TRUE(remote[i] == local[i]) << "index " << i;

    // Streamed strictly in grid order, like a single server.
    ASSERT_EQ(events.size(), set.size());
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].index, i);

    // The serialized artifacts are byte-identical too.
    runner::ResultSink local_sink("fleet-bitwise");
    runner::appendResultRows(set, local, local_sink);
    runner::ResultSink remote_sink("fleet-bitwise");
    runner::appendResultRows(set, remote, remote_sink);
    std::ostringstream local_json, remote_json, local_csv, remote_csv;
    local_sink.writeJson(local_json);
    remote_sink.writeJson(remote_json);
    local_sink.writeCsv(local_csv);
    remote_sink.writeCsv(remote_csv);
    EXPECT_EQ(local_json.str(), remote_json.str());
    EXPECT_EQ(local_csv.str(), remote_csv.str());

    // The fleet did the work collectively: every point landed
    // exactly once (the per-index duplicate check lives in
    // ServiceClient::submit) and nothing is left queued.
    EXPECT_EQ(coord.coordinator().queueDepth(), 0u);
}

TEST(FleetTest, WorkerKilledMidGridLandsEveryPointExactlyOnce)
{
    // Three workers, one killed after the first delivered point: its
    // in-flight tasks must be requeued on the survivors and the
    // stitched stream must stay complete, duplicate-free and bitwise
    // identical to the in-process run.
    const runner::ExperimentSet set = quickGrid(3);
    const auto local = runner::ExperimentRunner().run(set);

    TestCoordinator coord("kill");
    TestWorker w1("kill-1", coord.endpoint());
    TestWorker w2("kill-2", coord.endpoint());
    auto victim =
        std::make_unique<TestWorker>("kill-3", coord.endpoint());
    awaitWorkers(coord.coordinator(), 3);

    ServiceClient client(coord.endpoint());
    std::atomic<bool> killed{false};
    std::vector<ResultEvent> events;
    const auto remote = client.submit(
        requestFor(set, "fleet-kill"),
        [&](const ResultEvent &event) {
            events.push_back(event);
            // First result anywhere: shoot worker 3. Closing its
            // sockets makes the coordinator requeue whatever it had
            // in flight without waiting for the heartbeat monitor.
            if (!killed.exchange(true))
                victim->stop();
        });

    ASSERT_EQ(remote.size(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i)
        EXPECT_TRUE(remote[i] == local[i]) << "index " << i;
    ASSERT_EQ(events.size(), set.size());
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].index, i);

    EXPECT_EQ(coord.coordinator().queueDepth(), 0u);
    EXPECT_EQ(coord.coordinator().liveWorkers(), 2u);
    victim.reset();
}

TEST(FleetTest, DeterministicJobFailureFailsTheJobNotTheFleet)
{
    // A grid point whose trace file does not exist fails on any
    // worker. The worker reports it as an error result; the
    // coordinator fails the job (it does not requeue the point or
    // declare the worker dead), and the client sees the worker's
    // message. The fleet stays whole and serves the next job.
    const runner::ExperimentSet set = quickGrid(1);
    const auto local = runner::ExperimentRunner().run(set);

    TestCoordinator coord("jobfail");
    TestWorker w1("jobfail-1", coord.endpoint());
    TestWorker w2("jobfail-2", coord.endpoint());
    awaitWorkers(coord.coordinator(), 2);

    SubmitRequest bad = requestFor(set, "fleet-jobfail");
    runner::Experiment broken = bad.grid.back();
    broken.workload = "fleet-missing";
    broken.config.workload.tracePath =
        "/tmp/shotgun_fleet_no_such_file.trace";
    bad.grid.push_back(broken);

    ServiceClient client(coord.endpoint());
    try {
        client.submit(bad);
        FAIL() << "a job with a missing trace completed";
    } catch (const service::ServiceError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(" error: experiment \"fleet-missing/"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("shotgun_fleet_no_such_file"),
                  std::string::npos)
            << what;
    }
    EXPECT_EQ(coord.coordinator().liveWorkers(), 2u);

    const auto good = client.submit(requestFor(set, "fleet-after"));
    ASSERT_EQ(good.size(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i)
        EXPECT_TRUE(good[i] == local[i]) << "index " << i;
    EXPECT_EQ(coord.coordinator().liveWorkers(), 2u);
    EXPECT_EQ(coord.coordinator().queueDepth(), 0u);
}

TEST(FleetTest, WindowShardsSurviveWorkerDeath)
{
    // Every experiment split into three windows, spread over three
    // workers; one worker is stopped after the first window lands.
    // The coordinator requeues its in-flight windows on the
    // survivors, and the stitched results equal the monolithic
    // in-process runs exactly.
    const runner::ExperimentSet set = quickGrid(1);
    const auto local = runner::ExperimentRunner().run(set);

    TestCoordinator coord("windows");
    TestWorker w1("windows-1", coord.endpoint());
    TestWorker w2("windows-2", coord.endpoint());
    auto victim =
        std::make_unique<TestWorker>("windows-3", coord.endpoint());
    awaitWorkers(coord.coordinator(), 3);

    ServiceClient client(coord.endpoint());
    std::size_t windows = 0;
    const auto stitched = service::submitWindowed(
        client, requestFor(set, "fleet-windows"), 3,
        [&](const ResultEvent &) {
            if (windows++ == 0)
                victim->stop();
        });

    EXPECT_EQ(windows, 3 * set.size());
    ASSERT_EQ(stitched.size(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i)
        EXPECT_TRUE(stitched[i] == local[i]) << "index " << i;
    EXPECT_EQ(coord.coordinator().liveWorkers(), 2u);
    EXPECT_EQ(coord.coordinator().queueDepth(), 0u);
    victim.reset();
}

TEST(FleetTest, PointThatLosesTwoWorkersFailsItsJob)
{
    // A point that kills every worker it reaches (a fatal(), a
    // crash, OOM) must not walk through the whole fleet: the
    // coordinator requeues it after the first lost worker and fails
    // its job, naming the point, after the second.
    const runner::ExperimentSet set = quickGrid(1);
    const auto local = runner::ExperimentRunner().run(set);
    SubmitRequest poison = requestFor(set, "fleet-poison");
    poison.grid.resize(1);
    const std::string point =
        poison.grid[0].workload + "/" + poison.grid[0].label;

    TestCoordinator coord("poison");
    ServiceClient client(coord.endpoint());
    FakeWorker first(coord.endpoint(), "victim-1");
    std::string failure;
    std::thread submitter([&]() {
        try {
            client.submit(poison);
            failure = "the job completed";
        } catch (const service::ServiceError &e) {
            failure = e.what();
        }
    });
    EXPECT_EQ(first.awaitWork().experiment.label, poison.grid[0].label);
    first.crash();
    FakeWorker second(coord.endpoint(), "victim-2");
    EXPECT_EQ(second.awaitWork().experiment.label,
              poison.grid[0].label);
    second.crash();
    submitter.join();

    EXPECT_NE(failure.find("grid point \"" + point + "\""),
              std::string::npos)
        << failure;
    EXPECT_NE(failure.find("lost 2 workers"), std::string::npos)
        << failure;
    EXPECT_EQ(coord.coordinator().queueDepth(), 0u);

    // A real worker joins; the next job is bitwise equal to the
    // in-process run.
    TestWorker worker("poison-w", coord.endpoint());
    const auto good = client.submit(requestFor(set, "fleet-healed"));
    ASSERT_EQ(good.size(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i)
        EXPECT_TRUE(good[i] == local[i]) << "index " << i;
    EXPECT_EQ(coord.coordinator().queueDepth(), 0u);
}

TEST(FleetTest, BadTraceFilesFailTheJobNotTheWorker)
{
    // A file that is not a trace, and a real trace recorded from a
    // different program than the submitted config describes (the
    // distributed stale-copy case): the worker's pre-simulation
    // probe turns each into an error result that fails its job,
    // where a mid-run fatal() would have killed the worker. (A
    // missing file is DeterministicJobFailureFailsTheJobNotTheFleet.)
    const WorkloadPreset preset = tinyPreset("fleet-trace", 1);
    SubmitRequest request;
    request.experiment = "bad-trace";
    runner::Experiment exp;
    exp.workload = "fleet-trace";
    exp.label = "shotgun";
    exp.config = SimConfig::make(preset, SchemeType::Shotgun);
    request.grid.push_back(exp);

    TestCoordinator coord("badtrace");
    TestWorker worker("badtrace-w", coord.endpoint());
    awaitWorkers(coord.coordinator(), 1);
    ServiceClient client(coord.endpoint());

    const std::string garbage = "/tmp/shotgun_fleet_garbage.trace";
    {
        std::ofstream out(garbage, std::ios::binary);
        out << "definitely not a shotgun trace, but quite long";
    }
    request.grid[0].config.workload.tracePath = garbage;
    EXPECT_THROW(client.submit(request), service::ServiceError);
    EXPECT_TRUE(client.ping());
    std::remove(garbage.c_str());

    const std::string trace = "/tmp/shotgun_fleet_stale.trace";
    {
        Program prog(preset.program);
        TraceGenerator gen(prog, 1);
        recordTrace(gen, preset, 1, trace, 5000);
    }
    request.grid[0].config.workload.tracePath = trace;
    request.grid[0].config.workload.program.numFuncs += 1;
    request.grid[0].config.warmupInstructions = 10;
    request.grid[0].config.measureInstructions = 10;
    try {
        client.submit(request);
        ADD_FAILURE() << "stale trace accepted";
    } catch (const service::ServiceError &e) {
        EXPECT_NE(std::string(e.what())
                      .find("different program parameters"),
                  std::string::npos)
            << e.what();
    }
    std::remove(trace.c_str());
    EXPECT_TRUE(client.ping());
    EXPECT_EQ(coord.coordinator().liveWorkers(), 1u);
}

TEST(FleetTest, CacheEvictionRespectsByteBudget)
{
    // Byte budgets of roughly one result on both the coordinator's
    // cache and the worker's: a 6-point grid must evict while it
    // runs, and recomputed results are identical to the first run
    // and to in-process -- eviction never serves a stale entry.
    const runner::ExperimentSet set = quickGrid(2);
    constexpr std::size_t kBudget = 400;
    CoordinatorOptions options;
    options.cacheBytes = kBudget;
    TestCoordinator coord("evict", options);
    TestWorker worker("evict-w", coord.endpoint(), /*slots=*/2,
                      /*heartbeat_ms=*/100, kBudget);
    awaitWorkers(coord.coordinator(), 1);

    ServiceClient client(coord.endpoint());
    const auto first = client.submit(requestFor(set, "evict"));
    for (const MemoCacheStats &stats :
         {coord.coordinator().cacheStats(),
          worker.worker().cacheStats()}) {
        EXPECT_LE(stats.bytes, kBudget);
        EXPECT_GT(stats.evictions, 0u);
        EXPECT_LT(stats.entries, set.size());
    }

    const auto second = client.submit(requestFor(set, "evict"));
    const auto local = runner::ExperimentRunner().run(set);
    ASSERT_EQ(second.size(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i) {
        EXPECT_TRUE(first[i] == second[i]) << "index " << i;
        EXPECT_TRUE(second[i] == local[i]) << "index " << i;
    }
    EXPECT_LE(coord.coordinator().cacheStats().bytes, kBudget);
}

TEST(FleetTest, CancelDropsAQueuedJob)
{
    // With no worker registered the job's points stay queued; a
    // cancel from a second connection drops them, the submitter gets
    // an honest `cancelled` done frame, and an unknown job id is an
    // error.
    const runner::ExperimentSet set = quickGrid(1);
    TestCoordinator coord("cancel");
    ServiceClient control(coord.endpoint());
    EXPECT_THROW(control.cancel(12345), service::ServiceError);

    std::string failure;
    std::thread submitter([&]() {
        ServiceClient client(coord.endpoint());
        try {
            client.submit(requestFor(set, "fleet-cancel"));
            failure = "submit returned ok despite cancel";
        } catch (const service::ServiceError &e) {
            if (std::string(e.what()).find("cancelled") ==
                std::string::npos)
                failure = std::string("unexpected error: ") + e.what();
        }
    });
    std::uint64_t job = 0;
    for (int waited = 0; job == 0 && waited < 10000; ++waited) {
        const json::Value status = control.status();
        if (status.at("jobs").size() == 1)
            job = service::decodeJobStatus(status.at("jobs").items()[0])
                      .id;
        else
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_NE(job, 0u);
    control.cancel(job);
    submitter.join();
    EXPECT_TRUE(failure.empty()) << failure;
    EXPECT_EQ(coord.coordinator().queueDepth(), 0u);
    const service::JobStatus row = service::decodeJobStatus(
        control.status().at("jobs").items()[0]);
    EXPECT_EQ(row.state, "cancelled");
    EXPECT_EQ(row.completed, 0u);
}

TEST(FleetTest, SilentWorkerIsDeclaredDeadAndItsTaskRequeued)
{
    // A raw-socket "worker" that registers, attaches one slot,
    // steals a task and then goes silent -- it neither returns the
    // result nor heartbeats. The heartbeat monitor must declare it
    // dead after missLimit intervals and requeue its task on the one
    // real worker, and the job must still finish byte-identical.
    const runner::ExperimentSet set = quickGrid(2);
    const auto local = runner::ExperimentRunner().run(set);

    CoordinatorOptions options;
    options.heartbeatIntervalMs = 50;
    options.heartbeatMissLimit = 2;
    TestCoordinator coord("silent", options);

    // The fake worker: a control connection that heartbeats every
    // 20ms until its slot receives a work frame, then stops cold.
    std::atomic<bool> got_work{false};
    std::atomic<bool> fake_stop{false};
    LineChannel control(service::connectTo(
        service::Endpoint::parse(coord.endpoint())));
    service::RegisterRequest reg;
    reg.name = "fake";
    reg.slots = 1;
    ASSERT_TRUE(
        control.sendLine(service::encodeRegister(reg).dump()));
    std::string line;
    ASSERT_TRUE(control.recvLine(line));
    const std::uint64_t fake_id =
        json::Value::parse(line).at("worker").asU64();

    std::thread fake_heart([&]() {
        while (!got_work.load() && !fake_stop.load()) {
            service::HeartbeatFrame hb;
            hb.worker = fake_id;
            if (!control.sendLine(
                    service::encodeHeartbeat(hb).dump()))
                return;
            std::string reply;
            if (!control.recvLine(reply))
                return;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
    });
    LineChannel slot(service::connectTo(
        service::Endpoint::parse(coord.endpoint())));
    json::Value attach = service::makeFrame("attach");
    attach.set("worker", json::Value::number(fake_id));
    ASSERT_TRUE(slot.sendLine(attach.dump()));
    ASSERT_TRUE(slot.recvLine(line));
    std::thread fake_slot([&]() {
        std::string work_line;
        if (!slot.sendLine(service::makeFrame("steal").dump()))
            return;
        if (!slot.recvLine(work_line))
            return;
        // Swallow the work frame and go silent.
        got_work.store(true);
    });

    // The real worker heartbeats well inside the 100 ms miss limit:
    // were it declared dead too while holding the fake's requeued
    // task, that task's second lost worker would fail the job.
    TestWorker real("silent-real", coord.endpoint(), /*slots=*/1,
                    /*heartbeat_ms=*/20);
    awaitWorkers(coord.coordinator(), 2);

    ServiceClient client(coord.endpoint());
    std::vector<ResultEvent> events;
    const auto remote = client.submit(
        requestFor(set, "fleet-silent"),
        [&](const ResultEvent &event) { events.push_back(event); });

    // The fake held one task hostage; finishing the grid proves the
    // monitor requeued it. Every index landed exactly once, bitwise
    // identical to in-process.
    EXPECT_TRUE(got_work.load());
    ASSERT_EQ(remote.size(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i)
        EXPECT_TRUE(remote[i] == local[i]) << "index " << i;
    ASSERT_EQ(events.size(), set.size());
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].index, i);
    EXPECT_EQ(coord.coordinator().liveWorkers(), 1u);
    EXPECT_EQ(coord.coordinator().queueDepth(), 0u);

    fake_stop.store(true);
    control.socket().shutdownBoth();
    slot.socket().shutdownBoth();
    fake_heart.join();
    fake_slot.join();
}

TEST(FleetTest, ResultForAnotherFingerprintFailsTheJobUncached)
{
    // The fingerprint on a worker's result frame is another
    // process's claim. A raw-socket "worker" answers its task with a
    // result stamped with some other config's fingerprint: the
    // coordinator must fail the job with a message naming both
    // fingerprints, and cache nothing.
    SubmitRequest request = requestFor(quickGrid(1), "fleet-forged");
    request.grid.resize(1);
    const std::string expected =
        service::configFingerprint(request.grid[0].config);
    const std::string forged = "0123456789abcdef";

    TestCoordinator coord("forged");
    LineChannel control(service::connectTo(
        service::Endpoint::parse(coord.endpoint())));
    service::RegisterRequest reg;
    reg.name = "forger";
    ASSERT_TRUE(
        control.sendLine(service::encodeRegister(reg).dump()));
    std::string line;
    ASSERT_TRUE(control.recvLine(line));
    LineChannel slot(service::connectTo(
        service::Endpoint::parse(coord.endpoint())));
    json::Value attach = service::makeFrame("attach");
    attach.set("worker", json::Value::parse(line).at("worker"));
    ASSERT_TRUE(slot.sendLine(attach.dump()));
    ASSERT_TRUE(slot.recvLine(line));
    // Parked before the submit: the task goes straight to the fake.
    ASSERT_TRUE(slot.sendLine(service::makeFrame("steal").dump()));
    std::thread forger([&]() {
        std::string work_line;
        if (!slot.recvLine(work_line))
            return;
        service::WorkResult out;
        out.task = service::decodeWork(json::Value::parse(work_line))
                       .task;
        out.fingerprint = forged;
        out.result.workload = "forged";
        slot.sendLine(service::encodeWorkResult(out).dump());
    });

    const std::size_t cached = coord.coordinator().cacheStats().entries;
    ServiceClient client(coord.endpoint());
    try {
        client.submit(request);
        ADD_FAILURE() << "a job answered for another fingerprint "
                         "completed";
    } catch (const service::ServiceError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(forged), std::string::npos) << what;
        EXPECT_NE(what.find(expected), std::string::npos) << what;
    }
    forger.join();
    EXPECT_EQ(coord.coordinator().cacheStats().entries, cached);

    control.socket().shutdownBoth();
    slot.socket().shutdownBoth();
}

TEST(FleetTest, PersistentCacheAnswersAcrossRestartWithoutWorkers)
{
    const runner::ExperimentSet set = quickGrid(1);
    const auto local = runner::ExperimentRunner().run(set);
    const std::string dir = freshDir("restart");

    // First life: one worker computes the grid; every result is
    // written through to the cache directory.
    {
        CoordinatorOptions options;
        options.cacheDir = dir;
        TestCoordinator coord("restart-a", options);
        TestWorker worker("restart-w", coord.endpoint());
        awaitWorkers(coord.coordinator(), 1);
        ServiceClient client(coord.endpoint());
        const auto first =
            client.submit(requestFor(set, "fleet-restart"));
        ASSERT_EQ(first.size(), set.size());
        for (std::size_t i = 0; i < set.size(); ++i)
            EXPECT_TRUE(first[i] == local[i]) << "index " << i;
    }

    // Second life: a fresh coordinator over the same directory, and
    // deliberately no workers at all -- the whole grid must be
    // served from disk, marked cached, in grid order.
    CoordinatorOptions options;
    options.cacheDir = dir;
    TestCoordinator coord("restart-b", options);
    ServiceClient client(coord.endpoint());
    std::size_t cached = 0;
    const auto second = client.submit(
        requestFor(set, "fleet-restart"),
        [&](const ResultEvent &event) { cached += event.cached; });
    ASSERT_EQ(second.size(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i)
        EXPECT_TRUE(second[i] == local[i]) << "index " << i;
    EXPECT_EQ(cached, set.size());
    EXPECT_GT(coord.coordinator().cacheStats().backendHits, 0u);
}

TEST(FleetTest, StatusFrameReportsFleetAndWorkers)
{
    const runner::ExperimentSet set = quickGrid(1);

    TestCoordinator coord("status");
    TestWorker worker("status-w", coord.endpoint(), /*slots=*/2);
    awaitWorkers(coord.coordinator(), 1);

    ServiceClient client(coord.endpoint());
    client.submit(requestFor(set, "fleet-status"));
    // Give the worker a couple of heartbeats to report the cache
    // counters the simulations just bumped.
    std::this_thread::sleep_for(std::chrono::milliseconds(250));

    const json::Value status = client.status();
    EXPECT_EQ(status.at("server").at("role").asString(),
              "coordinator");
    EXPECT_EQ(status.at("server").at("protocol").asU64(),
              service::kProtocolVersion);
    ASSERT_EQ(status.at("jobs").size(), 1u);
    const service::JobStatus job =
        service::decodeJobStatus(status.at("jobs").items()[0]);
    EXPECT_EQ(job.experiment, "fleet-status");
    EXPECT_EQ(job.state, "ok");
    EXPECT_EQ(job.total, set.size());
    EXPECT_EQ(job.completed, set.size());

    const json::Value &fleet = status.at("fleet");
    EXPECT_EQ(fleet.at("queue_depth").asU64(), 0u);
    EXPECT_EQ(fleet.at("inflight").asU64(), 0u);
    EXPECT_EQ(fleet.at("total_slots").asU64(), 2u);
    ASSERT_EQ(fleet.at("workers").size(), 1u);
    const service::WorkerStatus row = service::decodeWorkerStatus(
        fleet.at("workers").items()[0]);
    EXPECT_EQ(row.name, "status-w");
    EXPECT_EQ(row.slots, 2u);
    EXPECT_TRUE(row.alive);
    EXPECT_EQ(row.completed, set.size());
    EXPECT_GT(row.throughput, 0.0);
    EXPECT_LT(row.heartbeatAgeMs, 5000u);
    // The worker simulated the whole grid: its heartbeat carried one
    // cache miss per point and no hits.
    EXPECT_EQ(row.counters.cacheMisses, set.size());

    // The coordinator cache holds every fingerprint; a resubmit is
    // answered from it without touching the worker.
    const json::Value &cache = status.at("server").at("cache");
    EXPECT_EQ(cache.at("entries").asU64(), set.size());
    std::size_t cached = 0;
    client.submit(requestFor(set, "fleet-status-again"),
                  [&](const ResultEvent &event) {
                      cached += event.cached;
                  });
    EXPECT_EQ(cached, set.size());
}

TEST(FleetTest, SubmitWithNoWorkersWaitsThenCompletes)
{
    // A grid submitted to an empty fleet must queue (not fail), and
    // complete as soon as the first worker registers.
    const runner::ExperimentSet set = quickGrid(1);
    const auto local = runner::ExperimentRunner().run(set);

    TestCoordinator coord("late");
    ServiceClient client(coord.endpoint());

    std::vector<SimResult> remote;
    std::thread submitter([&]() {
        remote = client.submit(requestFor(set, "fleet-late"));
    });
    // Wait until the job's tasks are actually queued, then bring up
    // the first worker.
    for (int waited = 0;
         coord.coordinator().queueDepth() == 0 && waited < 10000;
         ++waited)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GT(coord.coordinator().queueDepth(), 0u);

    TestWorker worker("late-w", coord.endpoint());
    submitter.join();
    ASSERT_EQ(remote.size(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i)
        EXPECT_TRUE(remote[i] == local[i]) << "index " << i;
}

TEST(FleetTest, ShutdownCancelsUnfinishedJobs)
{
    // A job waiting on an empty fleet when the coordinator shuts
    // down gets an honest `cancelled` done frame, not a hang.
    const runner::ExperimentSet set = quickGrid(1);

    auto coord = std::make_unique<TestCoordinator>("shutdown");
    ServiceClient client(coord->endpoint());

    std::string failure;
    std::thread submitter([&]() {
        try {
            client.submit(requestFor(set, "fleet-shutdown"));
            failure = "submit succeeded with no workers";
        } catch (const service::ServiceError &e) {
            if (std::string(e.what()).find("cancelled") ==
                std::string::npos)
                failure = std::string("unexpected error: ") +
                          e.what();
        } catch (const std::exception &e) {
            failure =
                std::string("unexpected exception: ") + e.what();
        }
    });
    for (int waited = 0;
         coord->coordinator().queueDepth() == 0 && waited < 10000;
         ++waited)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    coord->shutdown();
    submitter.join();
    EXPECT_TRUE(failure.empty()) << failure;
}

} // namespace
} // namespace fleet
} // namespace shotgun
