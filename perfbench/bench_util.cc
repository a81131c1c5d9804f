#include "bench_util.hh"

#include <sys/resource.h>

#include <algorithm>

#include "common/logging.hh"
#include "common/random.hh"
#include "obs/metrics.hh"
#include "service/codec.hh"
#include "service/protocol.hh"
#include "sim/checkpoint.hh"

namespace perfbench
{

using shotgun::json::Value;

std::vector<std::string>
fleetSampledSchemes()
{
    return {"baseline", "boomerang", "shotgun"};
}

std::uint64_t
Spans::reserve()
{
    if (!enabled_)
        return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    return nextId_++;
}

void
Spans::addWithId(std::uint64_t id, const std::string &name,
                 std::uint64_t parent, const std::string &lane,
                 Clock::time_point start, Clock::time_point end)
{
    if (!enabled_ || id == 0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(Record{id, parent, name, lane, start, end});
}

void
Spans::add(const std::string &name, std::uint64_t parent,
           const std::string &lane, Clock::time_point start,
           Clock::time_point end)
{
    addWithId(reserve(), name, parent, lane, start, end);
}

Value
Spans::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Value out = Value::array();
    if (records_.empty())
        return out;
    Clock::time_point epoch = records_.front().start;
    for (const Record &r : records_)
        epoch = std::min(epoch, r.start);
    auto us = [epoch](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - epoch)
            .count();
    };
    for (const Record &r : records_) {
        Value span = Value::object();
        span.set("id", Value::number(r.id));
        span.set("parent", Value::number(r.parent));
        span.set("name", Value::string(r.name));
        span.set("lane", Value::string(r.lane));
        span.set("start_us", Value::number(us(r.start)));
        span.set("end_us", Value::number(us(r.end)));
        out.push(std::move(span));
    }
    return out;
}

Spans &
spans()
{
    static Spans instance;
    return instance;
}

namespace
{
thread_local std::uint64_t current_span = 0;
} // namespace

ScopedSpan::ScopedSpan(const char *name) : name_(name)
{
    if (!spans().enabled())
        return;
    id_ = spans().reserve();
    parent_ = current_span;
    current_span = id_;
    start_ = Clock::now();
}

ScopedSpan::~ScopedSpan()
{
    if (id_ == 0)
        return;
    spans().addWithId(id_, name_, parent_, "main", start_, Clock::now());
    current_span = parent_;
}

double
peakRssMb()
{
    rusage self{};
    rusage children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    // ru_maxrss is in KiB on Linux.
    return static_cast<double>(std::max(self.ru_maxrss,
                                        children.ru_maxrss)) /
           1024.0;
}

std::string
resultFingerprint(const shotgun::SimResult &result)
{
    return shotgun::service::fingerprintHex(shotgun::json::fnv1a64(
        shotgun::service::encodeSimResult(result).dump()));
}

CodecCost
codecCost(const std::vector<shotgun::SimResult> &results)
{
    CodecCost cost;
    if (results.empty())
        return cost;
    std::vector<std::string> lines;
    lines.reserve(results.size());
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < results.size(); ++i) {
        shotgun::service::ResultEvent event;
        event.index = i;
        event.workload = results[i].workload;
        event.label = results[i].scheme;
        event.result = results[i];
        lines.push_back(
            shotgun::service::encodeResultEvent(event).dump());
    }
    const Clock::time_point t1 = Clock::now();
    std::uint64_t checksum = 0;
    for (const std::string &line : lines) {
        checksum += shotgun::service::decodeResultEvent(
                        Value::parse(line))
                        .result.cycles;
    }
    const Clock::time_point t2 = Clock::now();
    fatal_if(checksum == 0, "codec round trip lost the cycles");
    const double n = static_cast<double>(results.size());
    cost.encodeUs = secondsBetween(t0, t1) * 1e6 / n;
    cost.decodeUs = secondsBetween(t1, t2) * 1e6 / n;
    return cost;
}

Value
phaseCountersJson()
{
    shotgun::obs::Registry &reg = shotgun::obs::metrics();
    Value out = Value::object();
    for (const char *phase : {"decode", "warmup", "restore", "measure"}) {
        out.set(phase, Value::number(
                           reg.counter(std::string("sim.phase.") +
                                       phase + "_us")
                               ->value()));
    }
    return out;
}

Value
checkpointStatsJson()
{
    const shotgun::MemoCacheStats stats =
        shotgun::checkpointCache().stats();
    Value out = Value::object();
    out.set("hits", Value::number(std::uint64_t{stats.hits}));
    out.set("misses", Value::number(std::uint64_t{stats.misses}));
    return out;
}

std::uint64_t
simPoints()
{
    return shotgun::obs::metrics().counter("sim.points")->value();
}

std::vector<std::size_t>
permutation(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    std::uint64_t state = seed;
    for (std::size_t i = n; i > 1; --i) {
        state = shotgun::mix64(state + 0x9e3779b97f4a7c15ull);
        std::swap(order[i - 1], order[state % i]);
    }
    return order;
}

} // namespace perfbench
