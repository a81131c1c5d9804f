/**
 * @file
 * Binary trace serialization. Live generation is the common case, but
 * recorded traces make experiments replayable across tools and let
 * downstream users feed their own control-flow traces (e.g. converted
 * from ChampSim or gem5 output) into the simulator.
 *
 * Format (version 2) -- every integer is serialized explicitly
 * little-endian, so files interchange between hosts of any endianness:
 *
 *   u32  magic "SHTG"
 *   u32  version (2)
 *   u64  record count        (patched on close)
 *   u64  instruction count   (patched on close)
 *   u64  generator seed the trace was recorded with
 *   WorkloadPreset            (the full program-model + data-side
 *                              parameters, so a trace file is a
 *                              self-describing workload)
 *   records: u64 startAddr, u64 target, u8 numInstrs, u8 type, u8 taken
 *
 * Version 1 files were raw host-endian structs without the embedded
 * preset; they are rejected with a clear message (re-record them).
 */

#ifndef SHOTGUN_TRACE_TRACE_IO_HH
#define SHOTGUN_TRACE_TRACE_IO_HH

#include <cstdint>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/generator.hh"
#include "trace/instruction.hh"
#include "trace/presets.hh"

namespace shotgun
{

/** Magic bytes at the start of a trace file. */
constexpr std::uint32_t kTraceMagic = 0x47544853; // "SHTG"

/** Current trace format version. */
constexpr std::uint32_t kTraceVersion = 2;

/** On-disk size of one trace record. */
constexpr std::uint64_t kTraceRecordBytes = 19;

/**
 * A damaged or unusable trace: a file that cannot be opened, a bad
 * header, a truncated file, a corrupt record, header counts its
 * records contradict, or a trace too short for (or recorded from
 * another program than) the run. The message names the file and,
 * for a damaged payload, the record. Thrown rather than fatal() so
 * a long-running process fails only the point that read the file (a
 * fleet worker turns it into an error result); the command-line
 * tools print the message and exit 1.
 */
class TraceError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Streams BBRecords into a binary trace file. Records are encoded
 * into a chunk of whole records and written a chunk at a time.
 */
class TraceWriter
{
  public:
    /**
     * Open `path` for writing a trace of `preset` recorded with
     * generator seed `trace_seed`; fatal() on failure.
     */
    TraceWriter(const std::string &path, const WorkloadPreset &preset,
                std::uint64_t trace_seed);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    void append(const BBRecord &record);

    /**
     * Flush and patch the record/instruction counts into the header;
     * fatal() if any write (including the patch) failed, so a full
     * disk can never masquerade as success.
     */
    void close();

    std::uint64_t recordsWritten() const { return count_; }
    std::uint64_t instructionsWritten() const { return instrs_; }

  private:
    /** Write the encoded records held in chunk_. */
    void flushChunk();

    std::ofstream out_;
    std::string path_;
    std::vector<unsigned char> chunk_;
    std::size_t chunkUsed_ = 0; ///< Encoded bytes not yet written.
    std::uint64_t count_ = 0;
    std::uint64_t instrs_ = 0;
    bool closed_ = false;
};

/** Header summary of a trace file (shotgun-trace info, trace: specs). */
struct TraceInfo
{
    WorkloadPreset preset;
    std::uint64_t traceSeed = 1;
    std::uint64_t records = 0;
    std::uint64_t instructions = 0;
};

// ----------------------------------------------------- window index
//
// Sidecar seek index (`<trace>.idx`) for windowed simulation: evenly
// spaced checkpoints of (record number, cumulative instructions, byte
// offset), so a worker assigned a window deep inside a long trace can
// seek near its start instead of reading every prefix record. Purely
// an accelerator: TraceFileSource::skipInstructions() lands on the
// same record with or without it (asserted in tests/test_trace.cc); a
// missing or stale index only costs time. Layout (all little-endian):
//
//   u32 magic "SHTX"      u32 version (1)
//   u64 records, u64 instructions, u64 trace seed
//       (copied from the trace header; a mismatch marks the index
//        stale -- e.g. the trace was re-recorded -- and it is ignored)
//   u64 checkpoint interval (records)   u64 checkpoint count
//   per checkpoint: u64 record, u64 instructions before it,
//                   u64 absolute byte offset

/** Magic bytes at the start of a trace index file. */
constexpr std::uint32_t kTraceIndexMagic = 0x58544853; // "SHTX"

/** Current trace index format version. */
constexpr std::uint32_t kTraceIndexVersion = 1;

/** One seekable stream position. */
struct TraceIndexEntry
{
    std::uint64_t record = 0;       ///< Records before this point.
    std::uint64_t instructions = 0; ///< Instructions before it.
    std::uint64_t byteOffset = 0;   ///< Absolute file offset.
};

struct TraceIndex
{
    /** Binding to the indexed trace (its header counters + seed). */
    std::uint64_t records = 0;
    std::uint64_t instructions = 0;
    std::uint64_t traceSeed = 0;

    std::uint64_t interval = 0; ///< Records between checkpoints.
    std::vector<TraceIndexEntry> entries;
};

/** The sidecar path for a trace: `<trace_path>.idx`. */
std::string traceIndexPath(const std::string &trace_path);

/**
 * Scan `trace_path` and build an index with a checkpoint every
 * `every_records` records (the first is always record 0). fatal() on
 * an unreadable file, a bad header or every_records == 0; throws
 * TraceError on a truncated or corrupt record or an instruction
 * count the records contradict.
 */
TraceIndex buildTraceIndex(const std::string &trace_path,
                           std::uint64_t every_records);

/** Serialize `index` to `idx_path`; fatal() on I/O failure. */
void writeTraceIndex(const std::string &idx_path,
                     const TraceIndex &index);

/**
 * Read and validate the index at `idx_path` for the trace described
 * by `info`. Non-fatal: returns false with a message in `error` on a
 * missing/corrupt file or one whose binding (record/instruction
 * counts, seed) does not match `info` (stale index).
 */
bool tryReadTraceIndex(const std::string &idx_path,
                       const TraceInfo &info, TraceIndex &out,
                       std::string &error);

/**
 * Replays a binary trace file as a TraceSource, reading a chunk of
 * whole records at a time.
 */
class TraceFileSource : public TraceSource
{
  public:
    /** Open `path`; throws TraceError on failure or a bad header. */
    explicit TraceFileSource(const std::string &path);

    /** Throws TraceError on a truncated file or a corrupt record. */
    bool next(BBRecord &out) override;

    /**
     * Skip whole records until `instructions` are skipped, seeking
     * via the sidecar window index (`<path>.idx`) when a valid one
     * exists -- the landing record is identical either way; the
     * index only replaces linear reading with a seek. A missing or
     * stale index silently falls back to the linear skip.
     */
    std::uint64_t skipInstructions(std::uint64_t instructions) override;

    std::uint64_t totalRecords() const { return total_; }
    std::uint64_t totalInstructions() const { return totalInstrs_; }
    std::uint64_t recordsRead() const { return read_; }

    /**
     * Whole records the file's payload holds at open; fewer than
     * totalRecords() in a truncated file.
     */
    std::uint64_t payloadRecords() const { return payloadRecords_; }

    /** Instructions contained in the records read so far. */
    std::uint64_t instructionsRead() const { return instrsRead_; }

    /**
     * The workload the trace was recorded from, reconstructed from
     * the header (tracePath points back at this file).
     */
    const WorkloadPreset &preset() const { return preset_; }

    /** Generator seed the trace was recorded with. */
    std::uint64_t traceSeed() const { return traceSeed_; }

  private:
    /** Read the next chunk; throws TraceError at a truncated end. */
    void refill();

    std::ifstream in_;
    std::string path_;
    WorkloadPreset preset_;
    std::uint64_t traceSeed_ = 1;
    std::uint64_t total_ = 0;
    std::uint64_t totalInstrs_ = 0;
    std::uint64_t read_ = 0;
    std::uint64_t instrsRead_ = 0;
    std::uint64_t payloadStart_ = 0; ///< First record's byte offset.
    std::uint64_t payloadRecords_ = 0;

    /** Records read ahead of read_: chunk_[chunkPos_, chunkEnd_). */
    std::vector<unsigned char> chunk_;
    std::size_t chunkPos_ = 0;
    std::size_t chunkEnd_ = 0;

    /** Lazily loaded window index; empty entries = none usable. */
    bool indexProbed_ = false;
    TraceIndex index_;
};

/** Read and validate just the header of `path`; throws TraceError. */
TraceInfo readTraceInfo(const std::string &path);

/**
 * Non-throwing variant for the service boundary (a fleet worker
 * validates each point with it): same checks as readTraceInfo()
 * plus a payload-size check -- the file must actually hold the
 * `records` the header claims -- reported through `error`. Lives
 * here so the header layout has exactly one owner.
 */
bool tryReadTraceInfo(const std::string &path, TraceInfo &out,
                      std::string &error);

/**
 * Record up to `count` basic blocks from `source` into `path`.
 * @return number of records written.
 */
std::uint64_t recordTrace(TraceSource &source,
                          const WorkloadPreset &preset,
                          std::uint64_t trace_seed,
                          const std::string &path, std::uint64_t count);

/**
 * Record basic blocks from `source` into `path` until at least
 * `instructions` instructions are captured (or the source runs dry).
 * @return number of records written.
 */
std::uint64_t recordTraceInstructions(TraceSource &source,
                                      const WorkloadPreset &preset,
                                      std::uint64_t trace_seed,
                                      const std::string &path,
                                      std::uint64_t instructions);

/**
 * The TraceSource for a workload: file replay when `preset.tracePath`
 * is set, otherwise a live generator over `program` with `seed`.
 * `program` must be the image built from `preset.program` (see
 * programFor in sim/simulator.hh).
 */
std::unique_ptr<TraceSource> openTraceSource(const WorkloadPreset &preset,
                                             const Program &program,
                                             std::uint64_t seed);

} // namespace shotgun

#endif // SHOTGUN_TRACE_TRACE_IO_HH
