#include "runner/result_sink.hh"

#include <filesystem>
#include <fstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "obs/uarch.hh"

namespace shotgun
{
namespace runner
{

namespace
{

/**
 * RFC 4180 CSV field: quote when the value contains a comma, quote or
 * newline (ad-hoc workload names like `trace:` specs or studio labels
 * may), doubling embedded quotes.
 */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\r\n") == std::string::npos)
        return s;
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

/**
 * Round-trippable formatting (shared with the service codec, so a
 * metric serialized by the result sink and by a service frame is the
 * same byte sequence). Writing preformatted text also leaves the
 * caller's stream flags untouched.
 */
std::ostream &
num(std::ostream &os, double v)
{
    return os << json::formatDouble(v);
}

void writeUarchJson(std::ostream &os, const obs::UarchBreakdown &u);

void
writeRowJson(std::ostream &os, const ResultRow &row)
{
    const SimResult &r = row.result;
    os << "    {\"workload\": \"" << json::escape(row.workload)
       << "\", \"label\": \"" << json::escape(row.label) << "\",\n"
       << "     \"instructions\": " << r.instructions
       << ", \"cycles\": " << r.cycles << ", \"ipc\": ";
    num(os, r.ipc) << ",\n     \"btb_mpki\": ";
    num(os, r.btbMPKI) << ", \"l1i_mpki\": ";
    num(os, r.l1iMPKI) << ", \"mispredicts_per_ki\": ";
    num(os, r.mispredictsPerKI) << ",\n     \"fe_stall_cycles\": "
       << r.frontEndStallCycles
       << ",\n     \"active_cycles\": " << r.stalls.active
       << ", \"stall_icache\": " << r.stalls.icache
       << ", \"stall_pf_wait\": " << r.stalls.pfWait
       << ", \"stall_btb\": " << r.stalls.btb
       << ", \"stall_redirect\": " << r.stalls.redirect
       << ", \"stall_ftq_empty\": " << r.stalls.ftqEmpty
       << ", \"stall_backend\": " << r.stalls.backend
       << ",\n     \"prefetch_accuracy\": ";
    num(os, r.prefetchAccuracy) << ", \"avg_l1d_fill_cycles\": ";
    num(os, r.avgL1DFillCycles)
        << ", \"prefetches_issued\": " << r.prefetchesIssued
        << ", \"storage_bits\": " << r.schemeStorageBits;
    if (row.hasBaseline) {
        os << ",\n     \"speedup\": ";
        num(os, row.speedup) << ", \"stall_coverage\": ";
        num(os, row.stallCoverage);
    }
    if (row.windows > 0)
        os << ",\n     \"windows\": " << row.windows;
    if (row.hasTiming) {
        os << ",\n     \"timing\": {\"decode_ms\": ";
        num(os, static_cast<double>(row.timing.decodeUs) / 1000.0)
            << ", \"warmup_ms\": ";
        num(os, static_cast<double>(row.timing.warmupUs) / 1000.0)
            << ", \"restore_ms\": ";
        num(os, static_cast<double>(row.timing.restoreUs) / 1000.0)
            << ", \"measure_ms\": ";
        num(os, static_cast<double>(row.timing.measureUs) / 1000.0)
            << "}";
    }
    if (r.uarch.enabled)
        writeUarchJson(os, r.uarch);
    os << "}";
}

void
writeSitesJson(std::ostream &os, const char *key,
               const std::vector<obs::SiteCount> &sites)
{
    // Presentation truncation only: the full tables travel in frames.
    const auto top = obs::topSites(sites, 8);
    os << "\"" << key << "\": [";
    for (std::size_t i = 0; i < top.size(); ++i) {
        if (i > 0)
            os << ", ";
        os << "{\"pc\": " << top[i].pc << ", \"count\": "
           << top[i].count << ", \"error\": " << top[i].error << "}";
    }
    os << "]";
}

/**
 * Optional, JSON-only microarchitectural block (never in the CSV):
 * rows from probe-free runs are byte-identical to what they were
 * before the probe layer existed.
 */
void
writeUarchJson(std::ostream &os, const obs::UarchBreakdown &u)
{
    os << ",\n     \"uarch\": {\"lifecycle\": {";
    for (std::size_t i = 0; i < obs::kNumUarchStructures; ++i) {
        const obs::PrefetchLifecycle &l = u.lifecycle[i];
        if (i > 0)
            os << ", ";
        os << "\""
           << obs::uarchStructureName(
                  static_cast<obs::UarchStructure>(i))
           << "\": {\"issued\": " << l.issued << ", \"timely\": "
           << l.timely << ", \"late\": " << l.late
           << ", \"unused_evicted\": " << l.unusedEvicted
           << ", \"polluting\": " << l.polluting << "}";
    }
    os << "},\n      ";
    writeSitesJson(os, "btb_miss_sites", u.btbMissSites);
    os << ", ";
    writeSitesJson(os, "l1i_miss_sites", u.l1iMissSites);
    os << "}";
}

} // namespace

ResultSink::ResultSink(std::string experiment)
    : experiment_(std::move(experiment))
{
}

void
ResultSink::add(ResultRow row)
{
    std::lock_guard<std::mutex> lock(mutex_);
    rows_.push_back(std::move(row));
}

std::size_t
ResultSink::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return rows_.size();
}

std::vector<ResultRow>
ResultSink::rows() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return rows_;
}

void
ResultSink::printTable(std::ostream &os) const
{
    TextTable table(experiment_);
    table.row().cell("Workload").cell("Scheme").cell("IPC")
        .cell("Speedup").cell("FE cov").cell("L1-I MPKI")
        .cell("BTB MPKI").cell("PF acc");
    for (const auto &row : rows()) {
        auto &r = table.row().cell(row.workload).cell(row.label)
                      .cell(row.result.ipc, 3);
        if (row.hasBaseline) {
            r.cell(row.speedup, 3).percentCell(row.stallCoverage);
        } else {
            r.cell("-").cell("-");
        }
        r.cell(row.result.l1iMPKI, 1).cell(row.result.btbMPKI, 1)
            .percentCell(row.result.prefetchAccuracy);
    }
    table.print(os);
}

void
ResultSink::writeJson(std::ostream &os) const
{
    os << "{\n  \"experiment\": \"" << json::escape(experiment_)
       << "\",\n  \"rows\": [\n";
    const auto snapshot = rows();
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
        writeRowJson(os, snapshot[i]);
        os << (i + 1 < snapshot.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
}

void
ResultSink::writeCsv(std::ostream &os) const
{
    os << "workload,label,instructions,cycles,ipc,btb_mpki,l1i_mpki,"
          "mispredicts_per_ki,fe_stall_cycles,prefetch_accuracy,"
          "avg_l1d_fill_cycles,prefetches_issued,storage_bits,"
          "speedup,stall_coverage\n";
    for (const auto &row : rows()) {
        const SimResult &r = row.result;
        os << csvField(row.workload) << ',' << csvField(row.label) << ','
           << r.instructions << ',' << r.cycles << ',';
        num(os, r.ipc) << ',';
        num(os, r.btbMPKI) << ',';
        num(os, r.l1iMPKI) << ',';
        num(os, r.mispredictsPerKI) << ',' << r.frontEndStallCycles
           << ',';
        num(os, r.prefetchAccuracy) << ',';
        num(os, r.avgL1DFillCycles) << ',' << r.prefetchesIssued << ','
           << r.schemeStorageBits << ',';
        if (row.hasBaseline) {
            num(os, row.speedup) << ',';
            num(os, row.stallCoverage);
        } else {
            os << ',';
        }
        os << '\n';
    }
}

bool
ResultSink::writeFiles(const std::string &base) const
{
    const std::filesystem::path json_path(base + ".json");
    const std::filesystem::path csv_path(base + ".csv");
    std::error_code ec;
    if (json_path.has_parent_path())
        std::filesystem::create_directories(json_path.parent_path(), ec);

    std::ofstream json(json_path);
    std::ofstream csv(csv_path);
    if (!json || !csv) {
        warn("cannot write results under '%s'", base.c_str());
        return false;
    }
    writeJson(json);
    writeCsv(csv);
    return json.good() && csv.good();
}

} // namespace runner
} // namespace shotgun
