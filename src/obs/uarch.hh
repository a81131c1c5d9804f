/**
 * @file
 * Deterministic microarchitectural probes: the data model for
 * prefetch lifecycle classification and miss-site hotspot profiling
 * (src/obs/README.md, "uarch probes"). Stall attribution is not a
 * probe: the core charges every cycle to a cause on every run
 * (Core::CycleBreakdown). Everything here is plain counters and fixed-capacity
 * tables -- no clocks, no unordered iteration -- so a probed run is
 * bitwise deterministic and the probes themselves are
 * trajectory-invisible: they observe the simulated core without
 * touching any decision it makes.
 *
 * A UarchBreakdown is mergeable exactly like a StatsDelta: every
 * field is a monotonic 64-bit counter (or a site table of such
 * counters), so window deltas subtract and stitch back into the
 * monolithic totals bit for bit.
 */

#ifndef SHOTGUN_OBS_UARCH_HH
#define SHOTGUN_OBS_UARCH_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace shotgun
{
namespace obs
{

/**
 * Front-end structures a prefetch (of instructions or of BTB
 * metadata) can land in. Fixed order: this indexes
 * UarchBreakdown::lifecycle and the codec's array form.
 */
enum class UarchStructure : std::uint8_t
{
    L1I = 0,        ///< Instruction cache blocks.
    PrefetchBuffer, ///< Boomerang/Shotgun BTB prefetch buffer.
    UBTB,           ///< Shotgun U-BTB (retire-trained; never prefilled).
    CBTB,           ///< Shotgun C-BTB (prefilled by predecode).
    RIB,            ///< Shotgun RIB (retire-trained; never prefilled).
    ConvBTB,        ///< Conventional BTB (Confluence prefill).
};

constexpr std::size_t kNumUarchStructures = 6;

const char *uarchStructureName(UarchStructure structure);

/**
 * Issue-to-first-use classification of prefetches into one
 * structure. `issued` is the total; a prefetch is `timely` when its
 * first demand use hit, `late` when demand arrived while it was
 * still in flight, `unusedEvicted` when it was evicted untouched,
 * and `polluting` when installing it evicted a demand-resident
 * entry that subsequently missed. Classes need not partition
 * `issued`: still-resident entries are in none of them yet.
 */
struct PrefetchLifecycle
{
    std::uint64_t issued = 0;
    std::uint64_t timely = 0;
    std::uint64_t late = 0;
    std::uint64_t unusedEvicted = 0;
    std::uint64_t polluting = 0;
};

bool operator==(const PrefetchLifecycle &a, const PrefetchLifecycle &b);

/** One hot miss site from a Space-Saving sketch. */
struct SiteCount
{
    Addr pc = 0;
    std::uint64_t count = 0; ///< Estimate (upper bound).

    /**
     * Over-estimation bound inherited from the evicted slot this
     * entry replaced: true count is within [count - error, count].
     * Zero whenever the sketch never evicted -- then every count is
     * exact.
     */
    std::uint64_t error = 0;
};

bool operator==(const SiteCount &a, const SiteCount &b);

/**
 * The full probe readout for one measurement window. `enabled`
 * mirrors CoreParams::uarchProbes; a disabled breakdown is all
 * zeros and is never serialized, so probes-off output is byte
 * identical to pre-probe builds.
 */
struct UarchBreakdown
{
    bool enabled = false;

    /** Per-structure prefetch lifecycle, indexed by UarchStructure. */
    std::array<PrefetchLifecycle, kNumUarchStructures> lifecycle{};

    /** Hot BTB-miss branch PCs (sorted count desc, then pc asc). */
    std::vector<SiteCount> btbMissSites;

    /** Hot L1-I demand-miss fetch addresses (same order). */
    std::vector<SiteCount> l1iMissSites;

    PrefetchLifecycle &
    at(UarchStructure structure)
    {
        return lifecycle[static_cast<std::size_t>(structure)];
    }

    const PrefetchLifecycle &
    at(UarchStructure structure) const
    {
        return lifecycle[static_cast<std::size_t>(structure)];
    }
};

bool operator==(const UarchBreakdown &a, const UarchBreakdown &b);
inline bool
operator!=(const UarchBreakdown &a, const UarchBreakdown &b)
{
    return !(a == b);
}

/**
 * Counter-wise subtraction (window delta between two snapshots of
 * one run; `begin` no later than `end`). Site tables are per-window
 * state cleared at the window boundary, not snapshot-subtractable:
 * the result carries `end`'s tables verbatim.
 */
UarchBreakdown uarchDelta(const UarchBreakdown &begin,
                          const UarchBreakdown &end);

/**
 * Accumulate `d` into `into`: counters add; site tables combine by
 * pc (counts and error bounds sum -- Space-Saving sketches are
 * mergeable with error bounds adding) and re-sort. Associative and
 * commutative, so window deltas stitch in any order; when no sketch
 * evicted anywhere the merged counts are exact and equal the
 * monolithic run's.
 */
void mergeUarch(UarchBreakdown &into, const UarchBreakdown &d);

/** Deterministic site ordering: count desc, then pc asc. */
void sortSites(std::vector<SiteCount> &sites);

/** Keep only the `n` hottest sites (presentation-side truncation). */
std::vector<SiteCount> topSites(const std::vector<SiteCount> &sites,
                                std::size_t n);

/**
 * Space-Saving heavy-hitter sketch over PCs, fixed capacity, fully
 * deterministic: eviction picks the minimum count with the smallest
 * pc as tie-break, and sites() emits a canonically sorted table.
 * While distinct keys fit the capacity, every count is exact
 * (error 0) -- the regime the exact-stitching tests rely on.
 */
class SpaceSavingSketch
{
  public:
    explicit SpaceSavingSketch(std::size_t capacity = kDefaultCapacity);

    void record(Addr pc);
    void clear();

    std::size_t size() const { return entries_.size(); }
    std::size_t capacity() const { return capacity_; }

    /** Snapshot of every tracked site, sorted count desc, pc asc. */
    std::vector<SiteCount> sites() const;

    /**
     * Default slot count: generously above the distinct miss-site
     * population of the shipped presets' measurement windows, so the
     * sketch typically runs in its exact (eviction-free) regime.
     */
    static constexpr std::size_t kDefaultCapacity = 512;

  private:
    std::size_t capacity_;
    std::vector<SiteCount> entries_;

    /** pc -> index into entries_; lookup only, never iterated. */
    std::unordered_map<Addr, std::size_t> index_;
};

} // namespace obs
} // namespace shotgun

#endif // SHOTGUN_OBS_UARCH_HH
