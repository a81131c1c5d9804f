/**
 * @file
 * shotgun-serve: a simulation worker of a shotgun-coord fleet. Wraps
 * the in-library FleetWorker (src/fleet/worker.hh): registers with
 * the coordinator, steals grid points from its queue, simulates them
 * through an in-memory fingerprint-keyed result cache, and answers
 * status/ping/shutdown on a small control endpoint. Grids are
 * submitted to the coordinator, never to a worker.
 *
 *   shotgun-serve --listen unix:/run/w1.sock --coordinator unix:/run/coord.sock
 *   shotgun-serve --listen 0.0.0.0:7401 --coordinator hostA:7400 --jobs 8
 *
 * The daemon prints `listening on <endpoint>` on stdout once its
 * control endpoint is bound (scripts wait for that line), then works
 * until a `shutdown` frame arrives on that endpoint (e.g.
 * `shotgun-submit --server ... --shutdown`).
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include <unistd.h>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "fleet/worker.hh"
#include "obs/trace.hh"
#include "runner/experiment.hh"

using namespace shotgun;

namespace
{

const char *kUsage =
    "usage: shotgun-serve --listen ENDPOINT --coordinator ENDPOINT\n"
    "                     [--jobs N] [--cache-bytes N[K|M|G]]\n"
    "                     [--name NAME] [--heartbeat-ms N] [--quiet]\n"
    "\n"
    "Simulation worker of a shotgun-coord fleet: registers with the\n"
    "coordinator, steals grid points from its queue (one slot per\n"
    "--jobs worker) and simulates them, serving repeated\n"
    "configurations from an in-memory fingerprint-keyed result\n"
    "cache. Grids are submitted to the coordinator\n"
    "(shotgun-submit --coordinator); the worker's own endpoint only\n"
    "answers status, ping and shutdown (see src/service/README.md).\n"
    "On a single machine run one shotgun-coord plus one\n"
    "shotgun-serve, or shotgun-submit --local.\n"
    "\n"
    "  --listen ENDPOINT   control endpoint: unix:<path> or\n"
    "                      <host>:<port> (TCP port 0 asks the kernel\n"
    "                      for a free port; the resolved endpoint is\n"
    "                      printed on stdout)\n"
    "  --coordinator EP    the shotgun-coord endpoint to join\n"
    "                      (required)\n"
    "  --jobs N            concurrent simulation slots offered to the\n"
    "                      coordinator (default: one per hardware\n"
    "                      thread)\n"
    "  --cache-bytes N     byte budget for the result cache;\n"
    "                      least-recently-used results are evicted\n"
    "                      beyond it (suffix K/M/G; default:\n"
    "                      unbounded)\n"
    "  --name NAME         worker name shown in --fleet-status\n"
    "                      (default: serve-<pid>)\n"
    "  --heartbeat-ms N    fleet heartbeat period (default 1000)\n"
    "  --trace-out FILE    write a Chrome trace-event JSON of every\n"
    "                      span this daemon recorded when it shuts\n"
    "                      down; Perfetto-loadable\n"
    "  --quiet             no connection log lines on stderr\n"
    "\n"
    "Stop it with: shotgun-submit --server ENDPOINT --shutdown\n";

[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr, "shotgun-serve: %s\n%s", message.c_str(),
                 kUsage);
    std::exit(cli::kUsageExitCode);
}

/** Positive byte count with optional K/M/G suffix, or usage error. */
std::uint64_t
parseByteSize(const char *flag, std::string text)
{
    std::uint64_t multiplier = 1;
    if (!text.empty()) {
        switch (text.back()) {
          case 'K': multiplier = 1ull << 10; break;
          case 'M': multiplier = 1ull << 20; break;
          case 'G': multiplier = 1ull << 30; break;
          default: break;
        }
        if (multiplier != 1)
            text.pop_back();
    }
    std::uint64_t bytes = 0;
    if (!parseU64(text.c_str(), bytes) || bytes == 0 ||
        bytes > UINT64_MAX / multiplier)
        usageError(std::string(flag) +
                   ": expected a positive byte count (K/M/G suffix "
                   "allowed), got '" + text + "'");
    return bytes * multiplier;
}

} // namespace

int
main(int argc, char **argv)
{
    int exit_code = 0;
    if (cli::handleStandardFlags(argc, argv, "shotgun-serve", kUsage,
                                 exit_code))
        return exit_code;

    std::string trace_out;
    unsigned jobs = 0;
    fleet::WorkerOptions options;
    options.log = &std::cerr;
    options.name = "serve-" + std::to_string(::getpid());

    for (int i = 1; i < argc; ++i) {
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                usageError(std::string(flag) + ": missing value");
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--listen") == 0) {
            options.listen = next("--listen");
        } else if (std::strcmp(argv[i], "--jobs") == 0) {
            std::uint64_t value = 0;
            const char *text = next("--jobs");
            if (!parseU64(text, value) || value == 0 || value > 1024)
                usageError(std::string("--jobs: expected a worker "
                                       "count in [1, 1024], got '") +
                           text + "'");
            jobs = static_cast<unsigned>(value);
        } else if (std::strcmp(argv[i], "--cache-bytes") == 0) {
            options.cacheBytes = static_cast<std::size_t>(
                parseByteSize("--cache-bytes", next("--cache-bytes")));
        } else if (std::strcmp(argv[i], "--coordinator") == 0) {
            options.coordinator = next("--coordinator");
        } else if (std::strcmp(argv[i], "--name") == 0) {
            options.name = next("--name");
        } else if (std::strcmp(argv[i], "--heartbeat-ms") == 0) {
            std::uint64_t ms = 0;
            const char *text = next("--heartbeat-ms");
            if (!parseU64(text, ms) || ms == 0 || ms > 3600000)
                usageError(std::string("--heartbeat-ms: expected an "
                                       "interval in [1, 3600000], "
                                       "got '") +
                           text + "'");
            options.heartbeatMs = static_cast<unsigned>(ms);
        } else if (std::strcmp(argv[i], "--trace-out") == 0) {
            trace_out = next("--trace-out");
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            options.log = nullptr;
        } else {
            usageError(std::string("unknown option '") + argv[i] +
                       "'");
        }
    }
    if (options.listen.empty())
        usageError("--listen ENDPOINT is required");
    if (options.coordinator.empty())
        usageError("--coordinator ENDPOINT is required: shotgun-serve "
                   "is a fleet worker; run shotgun-coord and submit "
                   "grids to it");
    options.slots = jobs != 0 ? jobs : runner::hardwareJobs();

    // The worker name doubles as the span lane group, so spans
    // shipped to a tracing coordinator say which worker ran them
    // even when this daemon itself writes no trace file.
    obs::tracer().setProcessName(options.name);
    if (!trace_out.empty())
        obs::tracer().enable(obs::newTraceId());

    try {
        fleet::FleetWorker worker(options);
        // Ready marker for scripts; resolved so `--listen host:0`
        // callers learn the actual port.
        std::printf("listening on %s\n", worker.endpoint().c_str());
        std::fflush(stdout);
        worker.serve();
        if (!trace_out.empty()) {
            if (!obs::writeChromeTrace(trace_out,
                                       obs::tracer().snapshot()))
                fatal("cannot write trace to '%s'",
                      trace_out.c_str());
            std::fprintf(stderr, "trace: %s\n", trace_out.c_str());
        }
    } catch (const std::exception &e) {
        // SocketError (bad endpoint, bind failure) or anything else
        // escaping serve() (e.g. std::system_error from thread
        // exhaustion): exit 1 with a message, never std::terminate.
        fatal("%s", e.what());
    }
    return 0;
}
