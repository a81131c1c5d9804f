#include "obs/uarch.hh"

#include <algorithm>
#include <map>

namespace shotgun
{
namespace obs
{

const char *
uarchStructureName(UarchStructure structure)
{
    switch (structure) {
      case UarchStructure::L1I:
        return "l1i";
      case UarchStructure::PrefetchBuffer:
        return "prefetch_buffer";
      case UarchStructure::UBTB:
        return "ubtb";
      case UarchStructure::CBTB:
        return "cbtb";
      case UarchStructure::RIB:
        return "rib";
      case UarchStructure::ConvBTB:
        return "conv_btb";
    }
    return "unknown";
}

bool
operator==(const PrefetchLifecycle &a, const PrefetchLifecycle &b)
{
    return a.issued == b.issued && a.timely == b.timely &&
           a.late == b.late && a.unusedEvicted == b.unusedEvicted &&
           a.polluting == b.polluting;
}

bool
operator==(const SiteCount &a, const SiteCount &b)
{
    return a.pc == b.pc && a.count == b.count && a.error == b.error;
}

bool
operator==(const UarchBreakdown &a, const UarchBreakdown &b)
{
    return a.enabled == b.enabled && a.lifecycle == b.lifecycle &&
           a.btbMissSites == b.btbMissSites &&
           a.l1iMissSites == b.l1iMissSites;
}

UarchBreakdown
uarchDelta(const UarchBreakdown &begin, const UarchBreakdown &end)
{
    UarchBreakdown d;
    d.enabled = end.enabled;
    for (std::size_t i = 0; i < kNumUarchStructures; ++i) {
        d.lifecycle[i].issued =
            end.lifecycle[i].issued - begin.lifecycle[i].issued;
        d.lifecycle[i].timely =
            end.lifecycle[i].timely - begin.lifecycle[i].timely;
        d.lifecycle[i].late =
            end.lifecycle[i].late - begin.lifecycle[i].late;
        d.lifecycle[i].unusedEvicted = end.lifecycle[i].unusedEvicted -
                                       begin.lifecycle[i].unusedEvicted;
        d.lifecycle[i].polluting =
            end.lifecycle[i].polluting - begin.lifecycle[i].polluting;
    }
    // Site tables are window-local (cleared at the window boundary),
    // so the end snapshot's tables already cover exactly this window.
    d.btbMissSites = end.btbMissSites;
    d.l1iMissSites = end.l1iMissSites;
    return d;
}

namespace
{

void
mergeSites(std::vector<SiteCount> &into,
           const std::vector<SiteCount> &other)
{
    if (other.empty())
        return;
    // Ordered by pc: deterministic combine regardless of merge order.
    std::map<Addr, SiteCount> by_pc;
    for (const SiteCount &site : into)
        by_pc[site.pc] = site;
    for (const SiteCount &site : other) {
        auto it = by_pc.find(site.pc);
        if (it == by_pc.end()) {
            by_pc[site.pc] = site;
        } else {
            it->second.count += site.count;
            it->second.error += site.error;
        }
    }
    into.clear();
    into.reserve(by_pc.size());
    for (const auto &entry : by_pc)
        into.push_back(entry.second);
    sortSites(into);
}

} // namespace

void
mergeUarch(UarchBreakdown &into, const UarchBreakdown &d)
{
    into.enabled = into.enabled || d.enabled;
    for (std::size_t i = 0; i < kNumUarchStructures; ++i) {
        into.lifecycle[i].issued += d.lifecycle[i].issued;
        into.lifecycle[i].timely += d.lifecycle[i].timely;
        into.lifecycle[i].late += d.lifecycle[i].late;
        into.lifecycle[i].unusedEvicted += d.lifecycle[i].unusedEvicted;
        into.lifecycle[i].polluting += d.lifecycle[i].polluting;
    }
    mergeSites(into.btbMissSites, d.btbMissSites);
    mergeSites(into.l1iMissSites, d.l1iMissSites);
}

void
sortSites(std::vector<SiteCount> &sites)
{
    std::sort(sites.begin(), sites.end(),
              [](const SiteCount &a, const SiteCount &b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  return a.pc < b.pc;
              });
}

std::vector<SiteCount>
topSites(const std::vector<SiteCount> &sites, std::size_t n)
{
    std::vector<SiteCount> top = sites;
    sortSites(top);
    if (top.size() > n)
        top.resize(n);
    return top;
}

SpaceSavingSketch::SpaceSavingSketch(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity)
{
}

void
SpaceSavingSketch::record(Addr pc)
{
    auto it = index_.find(pc);
    if (it != index_.end()) {
        ++entries_[it->second].count;
        return;
    }
    if (entries_.size() < capacity_) {
        index_.emplace(pc, entries_.size());
        SiteCount site;
        site.pc = pc;
        site.count = 1;
        entries_.push_back(site);
        return;
    }
    // Space-Saving eviction: replace the minimum-count slot (smallest
    // pc breaks ties -- a fixed scan order keeps this deterministic)
    // and absorb its count as the newcomer's over-estimation bound.
    std::size_t victim = 0;
    for (std::size_t i = 1; i < entries_.size(); ++i) {
        if (entries_[i].count < entries_[victim].count ||
            (entries_[i].count == entries_[victim].count &&
             entries_[i].pc < entries_[victim].pc)) {
            victim = i;
        }
    }
    index_.erase(entries_[victim].pc);
    const std::uint64_t floor = entries_[victim].count;
    entries_[victim].pc = pc;
    entries_[victim].count = floor + 1;
    entries_[victim].error = floor;
    index_.emplace(pc, victim);
}

void
SpaceSavingSketch::clear()
{
    entries_.clear();
    index_.clear();
}

std::vector<SiteCount>
SpaceSavingSketch::sites() const
{
    std::vector<SiteCount> out = entries_;
    sortSites(out);
    return out;
}

} // namespace obs
} // namespace shotgun
