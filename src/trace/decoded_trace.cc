#include "trace/decoded_trace.hh"

#include <algorithm>

#include "common/logging.hh"

namespace shotgun
{

DecodedTrace::DecodedTrace(const std::string &path)
{
    TraceFileSource source(path);
    info_.preset = source.preset();
    info_.traceSeed = source.traceSeed();
    info_.records = source.totalRecords();
    info_.instructions = source.totalInstructions();

    // Checked before anything is sized by the header's count, so an
    // inflated count cannot ask for an absurd allocation.
    if (source.payloadRecords() < info_.records)
        throw TraceError("'" + path + "': header claims " +
                         std::to_string(info_.records) +
                         " records but the file holds " +
                         std::to_string(source.payloadRecords()));
    records_.reserve(static_cast<std::size_t>(info_.records));
    prefix_.reserve(
        static_cast<std::size_t>(info_.records / kPrefixStride) + 1);
    BBRecord record;
    std::uint64_t instrs = 0;
    while (source.next(record)) {
        if (records_.size() % kPrefixStride == 0)
            prefix_.push_back(instrs);
        // decodeRecord() has checked the start address fits.
        records_.push_back(
            {record.startAddr |
                 std::uint64_t(record.numInstrs) << kSizeShift |
                 std::uint64_t(record.type) << kTypeShift |
                 std::uint64_t(record.taken ? 1 : 0) << kTakenShift,
             record.target});
        instrs += record.numInstrs;
    }
    if (records_.size() % kPrefixStride == 0)
        prefix_.push_back(instrs);
    if (instrs != info_.instructions)
        throw TraceError("'" + path + "': header claims " +
                         std::to_string(info_.instructions) +
                         " instructions but the records hold " +
                         std::to_string(instrs) + " (corrupt trace?)");
}

std::uint64_t
DecodedTrace::instructionsBefore(std::uint64_t i) const
{
    std::uint64_t r = i / kPrefixStride * kPrefixStride;
    std::uint64_t instrs = prefix_[i / kPrefixStride];
    for (; r < i; ++r)
        instrs += numInstrs(r);
    return instrs;
}

std::uint64_t
DecodedTrace::recordAtInstruction(std::uint64_t target) const
{
    // First boundary >= target: identical to reading records until
    // the cumulative count reaches the threshold. Boundary 0 holds 0
    // instructions; otherwise start from the last stored boundary
    // below the target, from which the next stored one (>= target)
    // is at most kPrefixStride records away.
    if (target == 0)
        return 0;
    const auto it =
        std::lower_bound(prefix_.begin(), prefix_.end(), target);
    std::uint64_t r =
        static_cast<std::uint64_t>(it - prefix_.begin() - 1) *
        kPrefixStride;
    std::uint64_t instrs = *(it - 1);
    while (r < records() && instrs < target)
        instrs += numInstrs(r++);
    return r;
}

std::size_t
DecodedTrace::bytes() const
{
    return sizeof(DecodedTrace) +
           records_.capacity() * sizeof(PackedRecord) +
           prefix_.capacity() * sizeof(std::uint64_t);
}

std::size_t
DecodedTrace::estimateBytes(std::uint64_t records)
{
    return sizeof(DecodedTrace) +
           static_cast<std::size_t>(records) * sizeof(PackedRecord) +
           static_cast<std::size_t>(records / kPrefixStride + 1) *
               sizeof(std::uint64_t);
}

bool
DecodedTraceCursor::next(BBRecord &out)
{
    if (read_ >= trace_->records())
        return false;
    out = trace_->record(read_++);
    return true;
}

std::uint64_t
DecodedTraceCursor::skipInstructions(std::uint64_t instructions)
{
    const std::uint64_t before = trace_->instructionsBefore(read_);
    read_ = trace_->recordAtInstruction(before + instructions);
    return trace_->instructionsBefore(read_) - before;
}

void
DecodedTraceCursor::seekToRecord(std::uint64_t record)
{
    panic_if(record > trace_->records(),
             "cursor seek past the end of the decoded trace");
    read_ = record;
}

DecodedTraceStore::DecodedTraceStore(std::size_t budget_bytes)
    : budget_(budget_bytes),
      cache_(budget_bytes,
             [](const std::string &,
                const std::shared_ptr<const DecodedTrace> &trace) {
                 return trace->bytes();
             })
{
}

std::shared_ptr<const DecodedTrace>
DecodedTraceStore::acquire(const std::string &path)
{
    // The header read is cheap and serves two purposes: sizing the
    // refusal check without decoding, and binding the cache key to
    // this recording so a re-recorded file never serves stale records.
    const TraceInfo info = readTraceInfo(path);
    if (budget_ != 0 &&
        DecodedTrace::estimateBytes(info.records) > budget_) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++rejected_;
        return nullptr;
    }

    const std::string key =
        path + "#" + std::to_string(info.records) + ":" +
        std::to_string(info.instructions) + ":" +
        std::to_string(info.traceSeed);
    auto entry = cache_.get(key, [this, &path]() {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++decodes_;
        }
        return std::make_shared<const DecodedTrace>(path);
    });
    return *entry;
}

DecodedTraceStoreStats
DecodedTraceStore::stats() const
{
    DecodedTraceStoreStats stats;
    stats.cache = cache_.stats();
    std::lock_guard<std::mutex> lock(mutex_);
    stats.decodes = decodes_;
    stats.rejected = rejected_;
    return stats;
}

DecodedTraceStore &
decodedTraces()
{
    static DecodedTraceStore store;
    return store;
}

} // namespace shotgun
