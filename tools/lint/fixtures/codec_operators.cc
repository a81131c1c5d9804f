// Fixture: codec-coverage over a struct with member operators. Both
// data members reach the encoder, decoder and fingerprint; the
// `operator+=` and `operator==` members are functions, not data
// members named `operator` -> no finding.
#include <cstdint>

namespace fix
{

struct WireStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    WireStats &operator+=(const WireStats &o)
    {
        hits += o.hits;
        misses += o.misses;
        return *this;
    }

    bool operator==(const WireStats &o) const
    {
        return hits == o.hits && misses == o.misses;
    }
};

std::uint64_t
encodeWireStats(const WireStats &s)
{
    return s.hits * 31 + s.misses;
}

WireStats
decodeWireStats(std::uint64_t hits, std::uint64_t misses)
{
    WireStats s;
    s.hits = hits;
    s.misses = misses;
    return s;
}

std::uint64_t
wireStatsFingerprint(const WireStats &s)
{
    return encodeWireStats(s);
}

} // namespace fix
