#include "trace/trace_io.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/logging.hh"

namespace shotgun
{

namespace
{

// Byte offsets of the counters patched by TraceWriter::close().
constexpr std::streamoff kRecordCountOffset = 8;

/** Serialize `value`'s low `bytes` bytes little-endian. */
void
putLE(std::ofstream &out, std::uint64_t value, unsigned bytes)
{
    char buf[8];
    for (unsigned i = 0; i < bytes; ++i)
        buf[i] = static_cast<char>(value >> (8 * i));
    out.write(buf, bytes);
}

/**
 * Deserialize `bytes` little-endian bytes; false on short read so the
 * caller can attach the file/record context to the error.
 */
bool
getLE(std::ifstream &in, std::uint64_t &value, unsigned bytes)
{
    unsigned char buf[8];
    in.read(reinterpret_cast<char *>(buf), bytes);
    if (static_cast<std::size_t>(in.gcount()) != bytes)
        return false;
    value = 0;
    for (unsigned i = 0; i < bytes; ++i)
        value |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
    return true;
}

std::uint32_t
byteSwap32(std::uint32_t v)
{
    return ((v & 0x000000ffu) << 24) | ((v & 0x0000ff00u) << 8) |
           ((v & 0x00ff0000u) >> 8) | ((v & 0xff000000u) >> 24);
}

/** Writing side of the symmetric header field list below. */
struct WriteArchive
{
    std::ofstream &out;

    void u32(std::uint32_t &v) { putLE(out, v, 4); }
    void u64(std::uint64_t &v) { putLE(out, v, 8); }

    void
    f64(double &v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        putLE(out, bits, 8);
    }

    void
    str(std::string &s)
    {
        fatal_if(s.size() > std::numeric_limits<std::uint16_t>::max(),
                 "trace header string too long (%zu bytes)", s.size());
        putLE(out, s.size(), 2);
        out.write(s.data(), static_cast<std::streamsize>(s.size()));
    }

    std::uint8_t
    u8r(std::uint8_t v)
    {
        putLE(out, v, 1);
        return v;
    }
};

/**
 * Records per buffered read or write (~76 KB). Chunks hold whole
 * records, so a record never straddles two of them.
 */
constexpr std::size_t kChunkRecords = 4096;
constexpr std::size_t kChunkBytes = kChunkRecords * kTraceRecordBytes;

/** Encode one record: u64 startAddr, u64 target, u8 numInstrs,
 * u8 type, u8 taken, all little-endian. */
void
encodeRecord(unsigned char *p, const BBRecord &record)
{
    for (unsigned i = 0; i < 8; ++i) {
        p[i] = static_cast<unsigned char>(record.startAddr >> (8 * i));
        p[8 + i] = static_cast<unsigned char>(record.target >> (8 * i));
    }
    p[16] = static_cast<unsigned char>(record.numInstrs);
    p[17] = static_cast<unsigned char>(record.type);
    p[18] = record.taken ? 1 : 0;
}

/** Decode record number `index` of `path`; throws on a corrupt one. */
BBRecord
decodeRecord(const unsigned char *p, const std::string &path,
             std::uint64_t index)
{
    auto le64 = [p](unsigned at) {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(p[at + i]) << (8 * i);
        return v;
    };
    BBRecord out;
    out.startAddr = le64(0);
    if (out.startAddr >> kTraceAddrBits != 0) {
        char addr[24];
        std::snprintf(addr, sizeof(addr), "%#llx",
                      static_cast<unsigned long long>(out.startAddr));
        throw TraceError("'" + path + "': corrupt record " +
                         std::to_string(index) + " (start address " +
                         addr + " exceeds " +
                         std::to_string(kTraceAddrBits) + " bits)");
    }
    out.target = le64(8);
    out.numInstrs = p[16];
    if (out.numInstrs == 0)
        throw TraceError("'" + path + "': corrupt record " +
                         std::to_string(index) + " (zero instructions)");
    if (p[17] >= static_cast<unsigned>(BranchType::NumTypes))
        throw TraceError("'" + path + "': corrupt record " +
                         std::to_string(index) + " (bad branch type " +
                         std::to_string(p[17]) + ")");
    out.type = static_cast<BranchType>(p[17]);
    out.taken = p[18] != 0;
    return out;
}

TraceError
truncatedError(const std::string &path, std::uint64_t read,
               std::uint64_t total)
{
    return TraceError("'" + path + "': truncated trace file after " +
                      std::to_string(read) + " of " +
                      std::to_string(total) + " records");
}

/** Reading side; any short read throws with the file name. */
struct ReadArchive
{
    std::ifstream &in;
    const std::string &path;

    std::uint64_t
    get(unsigned bytes)
    {
        std::uint64_t value = 0;
        if (!getLE(in, value, bytes))
            throw TraceError("'" + path + "': truncated trace header");
        return value;
    }

    void u32(std::uint32_t &v) { v = static_cast<std::uint32_t>(get(4)); }
    void u64(std::uint64_t &v) { v = get(8); }

    void
    f64(double &v)
    {
        const std::uint64_t bits = get(8);
        std::memcpy(&v, &bits, sizeof(v));
    }

    void
    str(std::string &s)
    {
        const auto len = static_cast<std::size_t>(get(2));
        s.resize(len);
        in.read(s.data(), static_cast<std::streamsize>(len));
        if (static_cast<std::size_t>(in.gcount()) != len)
            throw TraceError("'" + path + "': truncated trace header");
    }

    std::uint8_t
    u8r(std::uint8_t v)
    {
        (void)v;
        return static_cast<std::uint8_t>(get(1));
    }
};

/**
 * The one field list both sides share: every WorkloadPreset knob that
 * shapes generation or the data-side model, in fixed order. tracePath
 * is a runtime binding, not file content, so it is not serialized.
 */
template <typename Ar>
void
archivePreset(Ar &ar, WorkloadPreset &p)
{
    p.id = static_cast<WorkloadId>(
        ar.u8r(static_cast<std::uint8_t>(p.id)));
    ar.str(p.name);
    ar.f64(p.loadFrac);
    ar.f64(p.l1dMissRate);
    ar.f64(p.llcDataMissFrac);
    ar.f64(p.backgroundLoad);

    ProgramParams &g = p.program;
    ar.str(g.name);
    ar.u32(g.numFuncs);
    ar.u32(g.numOsFuncs);
    ar.u32(g.numTrapHandlers);
    ar.u32(g.numTopLevel);
    ar.f64(g.zipfAlpha);
    ar.f64(g.osZipfAlpha);
    ar.f64(g.topZipfAlpha);
    ar.f64(g.bbGrowProb);
    ar.u32(g.minBBInstrs);
    ar.u32(g.maxBBInstrs);
    ar.f64(g.funcGrowProb);
    ar.u32(g.minBBsPerFunc);
    ar.u32(g.maxBBsPerFunc);
    ar.f64(g.largeFuncFrac);
    ar.u32(g.largeFuncBBs);
    ar.f64(g.condFrac);
    ar.f64(g.callFrac);
    ar.f64(g.jumpFrac);
    ar.f64(g.trapFrac);
    ar.f64(g.loopFrac);
    ar.f64(g.patternFrac);
    ar.f64(g.strongFrac);
    ar.f64(g.mediumFrac);
    ar.u32(g.minLoopTrip);
    ar.u32(g.maxLoopTrip);
    ar.f64(g.strongProb);
    ar.f64(g.mediumProb);
    ar.f64(g.weakProb);
    ar.f64(g.takenBiasFrac);
    ar.f64(g.stickyFrac);
    ar.u32(g.maxCondSkip);
    ar.u32(g.maxCallDepth);
    ar.u32(g.maxOsCallDepth);
    ar.u64(g.seed);
}

/**
 * Validate magic/version and parse the full header of an open file;
 * throws TraceError on a bad file.
 */
TraceInfo
parseHeader(std::ifstream &in, const std::string &path)
{
    const std::string version_text = std::to_string(kTraceVersion);
    std::uint64_t value = 0;
    if (!getLE(in, value, 4))
        throw TraceError("'" + path + "': truncated trace header");
    const auto magic = static_cast<std::uint32_t>(value);
    if (magic == byteSwap32(kTraceMagic))
        throw TraceError(
            "'" + path +
            "' has byte-swapped magic bytes: this is a "
            "foreign-endian (version-1 era) trace; re-record it -- "
            "version " +
            version_text + " files are explicitly little-endian");
    if (magic != kTraceMagic)
        throw TraceError("'" + path + "' is not a shotgun trace file");

    if (!getLE(in, value, 4))
        throw TraceError("'" + path + "': truncated trace header");
    const auto version = static_cast<std::uint32_t>(value);
    if (version == 1)
        throw TraceError(
            "'" + path +
            "' is a version-1 trace (raw host-endian, no workload "
            "header); that format is no longer supported -- "
            "re-record it with shotgun-trace to get version " +
            version_text);
    if (version != kTraceVersion)
        throw TraceError("'" + path + "' has unsupported trace version " +
                         std::to_string(version) +
                         " (this build reads version " + version_text +
                         ")");

    TraceInfo info;
    ReadArchive ar{in, path};
    ar.u64(info.records);
    ar.u64(info.instructions);
    ar.u64(info.traceSeed);
    archivePreset(ar, info.preset);
    if (info.preset.id >= WorkloadId::NumWorkloads)
        throw TraceError("'" + path +
                         "': corrupt trace header (bad workload id)");
    info.preset.tracePath = path;
    return info;
}

} // namespace

TraceWriter::TraceWriter(const std::string &path,
                         const WorkloadPreset &preset,
                         std::uint64_t trace_seed)
    : out_(path, std::ios::binary | std::ios::trunc), path_(path),
      chunk_(kChunkBytes)
{
    fatal_if(!out_.is_open(), "cannot open trace file '%s' for writing",
             path.c_str());
    putLE(out_, kTraceMagic, 4);
    putLE(out_, kTraceVersion, 4);
    putLE(out_, count_, 8);  // patched in close()
    putLE(out_, instrs_, 8); // patched in close()
    putLE(out_, trace_seed, 8);
    WorkloadPreset copy = preset;
    WriteArchive ar{out_};
    archivePreset(ar, copy);
    fatal_if(!out_, "write error on trace file '%s'", path.c_str());
}

TraceWriter::~TraceWriter()
{
    if (!closed_)
        close();
}

void
TraceWriter::append(const BBRecord &record)
{
    panic_if(closed_, "append to closed TraceWriter");
    if (chunkUsed_ == chunk_.size())
        flushChunk();
    encodeRecord(chunk_.data() + chunkUsed_, record);
    chunkUsed_ += kTraceRecordBytes;
    ++count_;
    instrs_ += record.numInstrs;
}

void
TraceWriter::flushChunk()
{
    out_.write(reinterpret_cast<const char *>(chunk_.data()),
               static_cast<std::streamsize>(chunkUsed_));
    chunkUsed_ = 0;
}

void
TraceWriter::close()
{
    if (closed_)
        return;
    closed_ = true;
    flushChunk();
    out_.seekp(kRecordCountOffset);
    putLE(out_, count_, 8);
    putLE(out_, instrs_, 8);
    out_.flush();
    // A full disk or I/O error anywhere (records or the count patch)
    // must never look like a successfully recorded trace.
    fatal_if(!out_, "write error on trace file '%s' (disk full?)",
             path_.c_str());
    out_.close();
    fatal_if(out_.fail(), "error closing trace file '%s'",
             path_.c_str());
}

TraceFileSource::TraceFileSource(const std::string &path)
    : in_(path, std::ios::binary), path_(path), chunk_(kChunkBytes)
{
    if (!in_.is_open())
        throw TraceError("cannot open trace file '" + path + "'");
    TraceInfo info = parseHeader(in_, path_);
    preset_ = std::move(info.preset);
    traceSeed_ = info.traceSeed;
    total_ = info.records;
    totalInstrs_ = info.instructions;
    payloadStart_ = static_cast<std::uint64_t>(in_.tellg());
    in_.seekg(0, std::ios::end);
    const std::uint64_t end = static_cast<std::uint64_t>(in_.tellg());
    payloadRecords_ =
        end > payloadStart_ ? (end - payloadStart_) / kTraceRecordBytes
                            : 0;
    in_.seekg(static_cast<std::streamoff>(payloadStart_));
}

void
TraceFileSource::refill()
{
    // Whole records, never past the header's count: a read that comes
    // back short of one record is the end of the file.
    const std::uint64_t want =
        std::min<std::uint64_t>(kChunkRecords, total_ - read_);
    in_.read(reinterpret_cast<char *>(chunk_.data()),
             static_cast<std::streamsize>(want * kTraceRecordBytes));
    chunkPos_ = 0;
    chunkEnd_ = static_cast<std::size_t>(in_.gcount());
    if (chunkEnd_ < kTraceRecordBytes)
        throw truncatedError(path_, read_, total_);
}

bool
TraceFileSource::next(BBRecord &out)
{
    if (read_ >= total_)
        return false;
    if (chunkEnd_ - chunkPos_ < kTraceRecordBytes)
        refill();
    out = decodeRecord(chunk_.data() + chunkPos_, path_, read_);
    chunkPos_ += kTraceRecordBytes;
    ++read_;
    instrsRead_ += out.numInstrs;
    return true;
}

std::uint64_t
TraceFileSource::skipInstructions(std::uint64_t instructions)
{
    const std::uint64_t before = instrsRead_;
    const std::uint64_t target = instrsRead_ + instructions;

    if (!indexProbed_) {
        indexProbed_ = true;
        TraceInfo info;
        info.records = total_;
        info.instructions = totalInstrs_;
        info.traceSeed = traceSeed_;
        std::string error;
        if (!tryReadTraceIndex(traceIndexPath(path_), info, index_,
                               error)) {
            // Missing or stale: the linear skip below is always
            // correct, just slower; `shotgun-trace index` rebuilds.
            index_.entries.clear();
        }
        // Records are fixed-size, so every checkpoint's byte offset
        // is derivable from its record number; an entry table whose
        // offsets disagree (partial write, disk fault behind an
        // intact header) must never steer a seek mid-record. Drop
        // such an index rather than trust it.
        for (const TraceIndexEntry &entry : index_.entries) {
            if (entry.byteOffset !=
                payloadStart_ + entry.record * kTraceRecordBytes) {
                index_.entries.clear();
                break;
            }
        }
    }

    // Seek to the last checkpoint at or before the target. The
    // landing record depends only on the absolute instruction
    // threshold (first record boundary >= target), so jumping and
    // reading from the checkpoint lands exactly where a linear skip
    // from the current position would.
    const TraceIndexEntry *best = nullptr;
    for (const TraceIndexEntry &entry : index_.entries) {
        if (entry.instructions <= target &&
            entry.instructions > instrsRead_ &&
            (best == nullptr ||
             entry.instructions > best->instructions)) {
            best = &entry;
        }
    }
    if (best != nullptr) {
        in_.clear();
        in_.seekg(static_cast<std::streamoff>(best->byteOffset));
        if (!in_)
            throw TraceError("'" + path_ +
                             "': seek to window-index offset " +
                             std::to_string(best->byteOffset) +
                             " failed");
        chunkPos_ = chunkEnd_ = 0; // The read-ahead is behind the seek.
        read_ = best->record;
        instrsRead_ = best->instructions;
    }

    BBRecord scratch;
    while (instrsRead_ < target) {
        if (!next(scratch))
            break;
    }
    return instrsRead_ - before;
}

TraceInfo
readTraceInfo(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open())
        throw TraceError("cannot open trace file '" + path + "'");
    TraceInfo info = parseHeader(in, path);
    // The header's record count must be backed by payload bytes, so
    // a truncated file is rejected before anything is sized by it.
    const std::streamoff payload_start = in.tellg();
    in.seekg(0, std::ios::end);
    const std::streamoff file_end = in.tellg();
    if (payload_start < 0 || file_end < payload_start)
        throw TraceError("'" + path +
                         "': cannot determine trace file size");
    const std::uint64_t held =
        static_cast<std::uint64_t>(file_end - payload_start) /
        kTraceRecordBytes;
    if (held < info.records)
        throw TraceError("'" + path +
                         "': truncated trace file (header claims " +
                         std::to_string(info.records) +
                         " records, the file holds " +
                         std::to_string(held) + ")");
    return info;
}

std::uint64_t
recordTrace(TraceSource &source, const WorkloadPreset &preset,
            std::uint64_t trace_seed, const std::string &path,
            std::uint64_t count)
{
    TraceWriter writer(path, preset, trace_seed);
    BBRecord record;
    for (std::uint64_t i = 0; i < count; ++i) {
        if (!source.next(record))
            break;
        writer.append(record);
    }
    writer.close();
    return writer.recordsWritten();
}

std::uint64_t
recordTraceInstructions(TraceSource &source, const WorkloadPreset &preset,
                        std::uint64_t trace_seed, const std::string &path,
                        std::uint64_t instructions)
{
    TraceWriter writer(path, preset, trace_seed);
    BBRecord record;
    while (writer.instructionsWritten() < instructions) {
        if (!source.next(record))
            break;
        writer.append(record);
    }
    writer.close();
    return writer.recordsWritten();
}

std::string
traceIndexPath(const std::string &trace_path)
{
    return trace_path + ".idx";
}

TraceIndex
buildTraceIndex(const std::string &trace_path,
                std::uint64_t every_records)
{
    fatal_if(every_records == 0,
             "trace index checkpoint interval must be nonzero");
    std::ifstream in(trace_path, std::ios::binary);
    fatal_if(!in.is_open(), "cannot open trace file '%s'",
             trace_path.c_str());
    const TraceInfo info = parseHeader(in, trace_path);
    const std::uint64_t payload_start =
        static_cast<std::uint64_t>(in.tellg());

    TraceIndex index;
    index.records = info.records;
    index.instructions = info.instructions;
    index.traceSeed = info.traceSeed;
    index.interval = every_records;

    // Records are fixed-size, so a checkpoint's byte offset follows
    // from its record number; each record is still decoded, so a
    // corrupt one fails the index as it would fail a replay.
    std::vector<unsigned char> chunk(kChunkBytes);
    std::uint64_t instructions = 0;
    std::uint64_t record = 0;
    while (record < info.records) {
        const std::uint64_t want =
            std::min<std::uint64_t>(kChunkRecords, info.records - record);
        in.read(reinterpret_cast<char *>(chunk.data()),
                static_cast<std::streamsize>(want * kTraceRecordBytes));
        const std::uint64_t got =
            static_cast<std::uint64_t>(in.gcount()) / kTraceRecordBytes;
        for (std::uint64_t i = 0; i < got; ++i, ++record) {
            if (record % every_records == 0) {
                TraceIndexEntry entry;
                entry.record = record;
                entry.instructions = instructions;
                entry.byteOffset =
                    payload_start + record * kTraceRecordBytes;
                index.entries.push_back(entry);
            }
            instructions +=
                decodeRecord(chunk.data() + i * kTraceRecordBytes,
                             trace_path, record)
                    .numInstrs;
        }
        if (got < want)
            throw truncatedError(trace_path, record, info.records);
    }
    if (instructions != info.instructions)
        throw TraceError("'" + trace_path + "': header claims " +
                         std::to_string(info.instructions) +
                         " instructions but the records hold " +
                         std::to_string(instructions) +
                         " (corrupt trace?)");
    return index;
}

void
writeTraceIndex(const std::string &idx_path, const TraceIndex &index)
{
    std::ofstream out(idx_path, std::ios::binary | std::ios::trunc);
    fatal_if(!out.is_open(),
             "cannot open trace index '%s' for writing",
             idx_path.c_str());
    putLE(out, kTraceIndexMagic, 4);
    putLE(out, kTraceIndexVersion, 4);
    putLE(out, index.records, 8);
    putLE(out, index.instructions, 8);
    putLE(out, index.traceSeed, 8);
    putLE(out, index.interval, 8);
    putLE(out, index.entries.size(), 8);
    for (const TraceIndexEntry &entry : index.entries) {
        putLE(out, entry.record, 8);
        putLE(out, entry.instructions, 8);
        putLE(out, entry.byteOffset, 8);
    }
    out.flush();
    fatal_if(!out, "write error on trace index '%s' (disk full?)",
             idx_path.c_str());
}

bool
tryReadTraceIndex(const std::string &idx_path, const TraceInfo &info,
                  TraceIndex &out, std::string &error)
{
    std::ifstream in(idx_path, std::ios::binary);
    if (!in.is_open()) {
        error = "cannot open trace index '" + idx_path + "'";
        return false;
    }
    auto get = [&in](std::uint64_t &value, unsigned bytes) {
        return getLE(in, value, bytes);
    };
    std::uint64_t value = 0;
    if (!get(value, 4) ||
        static_cast<std::uint32_t>(value) != kTraceIndexMagic) {
        error = "'" + idx_path + "' is not a shotgun trace index";
        return false;
    }
    if (!get(value, 4) ||
        static_cast<std::uint32_t>(value) != kTraceIndexVersion) {
        error = "'" + idx_path + "' has unsupported index version";
        return false;
    }
    TraceIndex index;
    std::uint64_t count = 0;
    if (!get(index.records, 8) || !get(index.instructions, 8) ||
        !get(index.traceSeed, 8) || !get(index.interval, 8) ||
        !get(count, 8)) {
        error = "'" + idx_path + "': truncated trace index header";
        return false;
    }
    if (index.records != info.records ||
        index.instructions != info.instructions ||
        index.traceSeed != info.traceSeed) {
        error = "'" + idx_path +
                "' is stale: it indexes a different recording "
                "(re-run `shotgun-trace index`)";
        return false;
    }
    if (index.interval == 0 || count > index.records + 1) {
        error = "'" + idx_path + "': corrupt trace index header";
        return false;
    }
    // No reserve(count): the count is bounded only by a header count
    // the trace file itself may overstate; entries grow as they read.
    std::uint64_t prev_record = 0;
    std::uint64_t prev_instructions = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        TraceIndexEntry entry;
        if (!get(entry.record, 8) || !get(entry.instructions, 8) ||
            !get(entry.byteOffset, 8)) {
            error = "'" + idx_path + "': truncated trace index";
            return false;
        }
        // Monotone and in range, or a seek could jump anywhere. A
        // record holds at least one instruction, so the instruction
        // counts grow at least as fast as the record numbers.
        if (entry.record >= info.records ||
            entry.instructions >= std::max<std::uint64_t>(
                                      info.instructions, 1) ||
            entry.instructions < entry.record ||
            (i > 0 && (entry.record <= prev_record ||
                       entry.instructions - prev_instructions <
                           entry.record - prev_record))) {
            error = "'" + idx_path + "': corrupt trace index entry";
            return false;
        }
        prev_record = entry.record;
        prev_instructions = entry.instructions;
        index.entries.push_back(entry);
    }
    out = std::move(index);
    return true;
}

std::unique_ptr<TraceSource>
openTraceSource(const WorkloadPreset &preset, const Program &program,
                std::uint64_t seed)
{
    if (!preset.tracePath.empty())
        return std::make_unique<TraceFileSource>(preset.tracePath);
    return std::make_unique<TraceGenerator>(program, seed);
}

} // namespace shotgun
