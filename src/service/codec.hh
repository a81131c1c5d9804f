/**
 * @file
 * Canonical text codec for SimConfig and SimResult: every field,
 * always, in a fixed order, as compact single-line JSON. One
 * serialized form serves three masters --
 *
 *  - the wire (service/protocol.hh frames embed these objects),
 *  - the fingerprint (FNV-1a over the canonical bytes identifies a
 *    configuration for result caching and deduplication), and
 *  - the archive (a decoded config re-encodes to the same bytes, so
 *    configs can be logged and replayed years later).
 *
 * Decoding is strict in both directions: a missing field, an unknown
 * field, or a kind mismatch raises CodecError (derived from
 * json::JsonError) -- frames are rejected, the process never dies.
 *
 * Workloads round-trip two ways: the canonical form embeds the full
 * WorkloadPreset (program-model parameters, data-side knobs and the
 * trace path), while decode also accepts a compact string -- a preset
 * name ("oracle") or a `trace:<path>[:name]` spec -- which is
 * resolved through presetByName(), letting hand-written submissions
 * reference a workload the way every bench command line does.
 */

#ifndef SHOTGUN_SERVICE_CODEC_HH
#define SHOTGUN_SERVICE_CODEC_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/json.hh"
#include "obs/uarch.hh"
#include "sim/simulator.hh"
#include "trace/trace_io.hh"

namespace shotgun
{
namespace service
{

/** Strict decode failure: the message names field and problem. */
struct CodecError : json::JsonError
{
    explicit CodecError(const std::string &what) : json::JsonError(what)
    {
    }
};

/**
 * Strict object access, the one reader behind every decoder here and
 * in service/protocol.hh: each member must be consumed exactly once,
 * and finish() rejects members nobody asked for. This is what turns
 * "decode" into "validate": a frame with a typo'd, extra or retired
 * member is an error, not a silently-defaulted value. `what` names
 * the object in error messages and must outlive the reader.
 */
class ObjectReader
{
  public:
    ObjectReader(const json::Value &v, const char *what);
    /** The reader points into `v`: never bind it to a temporary. */
    ObjectReader(const json::Value &&v, const char *what) = delete;

    /** Required member; CodecError when absent. */
    const json::Value &get(const char *key);

    /**
     * Conditional member, consumed when present, nullptr when absent:
     * only for members whose absence itself carries meaning (an
     * untraced point has no "spans", a probe-free run no "uarch").
     */
    const json::Value *optional(const char *key);

    std::string str(const char *key) { return get(key).asString(); }
    bool boolean(const char *key) { return get(key).asBool(); }
    double number(const char *key) { return get(key).asDouble(); }
    std::uint64_t u64(const char *key) { return get(key).asU64(); }

    template <typename T>
    T integer(const char *key)
    {
        const std::uint64_t v = u64(key);
        if (v > std::numeric_limits<T>::max())
            throw CodecError(std::string(what_) + ": field \"" + key +
                             "\" out of range");
        return static_cast<T>(v);
    }

    /** Throws CodecError naming the first unconsumed member. */
    void finish() const;

  private:
    const char *what_;
    const json::Value *object_ = nullptr;
    std::vector<bool> consumed_;
};

// ------------------------------------------------------------- encode

json::Value encodeProgramParams(const ProgramParams &params);
json::Value encodeWorkloadPreset(const WorkloadPreset &preset);
json::Value encodeCoreParams(const CoreParams &params);
json::Value encodeSchemeConfig(const SchemeConfig &config);
json::Value encodeSimWindow(const SimWindow &window);
json::Value encodeSimConfig(const SimConfig &config);
json::Value encodeSimResult(const SimResult &result);

/**
 * Raw per-window counters (sim/stats_delta.hh), shipped in windowed
 * `result` frames so the client stitches from exact integers, never
 * from derived doubles.
 */
json::Value encodeStatsDelta(const StatsDelta &delta);

/**
 * Microarchitectural probe payload (obs/uarch.hh). SimResult and
 * StatsDelta embed it as the *optional* "uarch" member, emitted only
 * when the run had probes enabled, so probe-free payloads are
 * byte-identical to what they were before the probe layer existed.
 */
json::Value encodeUarchBreakdown(const obs::UarchBreakdown &u);

// ------------------------------------------------------------- decode

ProgramParams decodeProgramParams(const json::Value &v);

/**
 * Accepts the canonical object form or a compact string (preset name
 * or `trace:<path>[:name]` spec). A string trace spec requires the
 * trace file to be readable here -- its header is the preset.
 */
WorkloadPreset decodeWorkloadPreset(const json::Value &v);

CoreParams decodeCoreParams(const json::Value &v);
SchemeConfig decodeSchemeConfig(const json::Value &v);

/**
 * Strict decode plus semantic validation (an enabled window must be
 * a non-empty range; a stream skip needs a window): an invalid
 * window is a rejected frame, never a fatal() inside a simulation
 * worker thread of the daemon.
 */
SimWindow decodeSimWindow(const json::Value &v);

SimConfig decodeSimConfig(const json::Value &v);
SimResult decodeSimResult(const json::Value &v);
StatsDelta decodeStatsDelta(const json::Value &v);
obs::UarchBreakdown decodeUarchBreakdown(const json::Value &v);

// ------------------------------------------------- trace validation

/**
 * Non-fatal trace-file sanity probe for the service boundary (the
 * trace reader proper is fatal() on damage -- right for a CLI,
 * lethal for a daemon). Wraps trace_io's tryReadTraceInfo() -- valid
 * v2 header, payload backs the claimed record count -- and
 * additionally requires at least `needed_instructions`. Returns
 * false with a message in `error`; does not throw. `info` (optional)
 * receives the parsed header so callers can cross-check the embedded
 * preset against a submitted config. Damage to record *content* is
 * still only caught by the reader mid-run.
 */
bool probeTraceFile(const std::string &path,
                    std::uint64_t needed_instructions,
                    std::string &error, TraceInfo *info = nullptr);

// -------------------------------------------------------- fingerprint

/**
 * Stable identity of a simulation: 16 lowercase hex digits of the
 * FNV-1a 64 hash over the canonical encoding. Two configs share a
 * fingerprint iff they encode to the same bytes, so the fingerprint
 * is the key of the service's result cache and the client's dedup.
 *
 * Note a trace-backed workload is fingerprinted by its trace *path*
 * plus the header-derived preset, not the file content; re-recording
 * a different workload over the same path on a live server would
 * alias cache entries. Don't do that.
 */
std::string configFingerprint(const SimConfig &config);

/** The 16-hex-digit rendering of an FNV-1a hash (exposed for tests). */
std::string fingerprintHex(std::uint64_t hash);

} // namespace service
} // namespace shotgun

#endif // SHOTGUN_SERVICE_CODEC_HH
