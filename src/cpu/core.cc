#include "cpu/core.hh"

#include <algorithm>

namespace shotgun
{

Core::Core(const Program &program, TraceSource &source,
           const CoreParams &core_params,
           const HierarchyParams &hierarchy_params,
           const SchemeConfig &scheme_config)
    : program_(program), source_(&source), params_(core_params),
      mem_(hierarchy_params), ras_(core_params.rasEntries),
      predecoder_(program, core_params.predecodeCycles),
      ftq_(core_params.ftqEntries),
      backendQ_(core_params.backendEntries), dataRng_(core_params.dataSeed)
{
    SchemeContext ctx;
    ctx.tage = &tage_;
    ctx.ras = &ras_;
    ctx.mem = &mem_;
    ctx.predecoder = &predecoder_;
    ctx.params = &params_;
    scheme_ = makeScheme(scheme_config, ctx);
    // The pollution victim table only observes fills/misses (it never
    // influences replacement), so enabling it with the probes keeps
    // the trajectory bitwise-identical to a probe-free run.
    if (params_.uarchProbes)
        mem_.l1i().enablePollutionTracking();
}

Core::Core(const Core &other, TraceSource *source)
    : program_(other.program_), source_(source),
      params_(other.params_), loadThreshold_(other.loadThreshold_),
      l1dMissThreshold_(other.l1dMissThreshold_),
      llcDataMissThreshold_(other.llcDataMissThreshold_),
      retireRate_(other.retireRate_), retireCap_(other.retireCap_),
      mem_(other.mem_), tage_(other.tage_),
      ras_(other.ras_), predecoder_(other.predecoder_),
      ftq_(other.ftq_), backendQ_(other.backendQ_),
      backendInstrs_(other.backendInstrs_), now_(other.now_),
      bpuStallUntil_(other.bpuStallUntil_),
      bpuStallKind_(other.bpuStallKind_),
      sourceExhausted_(other.sourceExhausted_),
      bpuWaitingRedirect_(other.bpuWaitingRedirect_),
      pendingRedirectPenalty_(other.pendingRedirectPenalty_),
      pendingRedirectKind_(other.pendingRedirectKind_),
      fetchStallUntil_(other.fetchStallUntil_),
      fetchStallKind_(other.fetchStallKind_),
      dataStallUntil_(other.dataStallUntil_),
      deliveredThisCycle_(other.deliveredThisCycle_),
      retireCredit_(other.retireCredit_),
      fetchStallOnPrefetch_(other.fetchStallOnPrefetch_),
      dataRng_(other.dataRng_),
      cyclesSinceReset_(other.cyclesSinceReset_),
      retiredSinceReset_(other.retiredSinceReset_),
      stalls_(other.stalls_), btbMisses_(other.btbMisses_),
      mispredicts_(other.mispredicts_),
      misfetches_(other.misfetches_),
      frontEndStalls_(other.frontEndStalls_), l1dFill_(other.l1dFill_),
      btbMissSketch_(other.btbMissSketch_),
      l1iMissSketch_(other.l1iMissSketch_)
{
    SchemeContext ctx;
    ctx.tage = &tage_;
    ctx.ras = &ras_;
    ctx.mem = &mem_;
    ctx.predecoder = &predecoder_;
    ctx.params = &params_;
    scheme_ = other.scheme_->clone(ctx);
}

std::size_t
Core::approxStateBytes() const
{
    // Accounting estimate only (see the header comment): the fixed
    // constant stands in for the TAGE tables, L1-I/LLC arrays, and
    // NoC state, which dominate and do not vary with the scheme.
    return sizeof(Core) + scheme_->storageBits() / 8 +
           backendQ_.size() * sizeof(BackendItem) + (1u << 21);
}

void
Core::run(std::uint64_t instructions)
{
    runUntilRetired(retiredSinceReset_ + instructions);
}

void
Core::runUntilRetired(std::uint64_t target)
{
    while (retiredSinceReset_ < target) {
        // A drained pipeline with no source left can never retire
        // again; stop instead of spinning (the caller reports it).
        if (sourceExhausted_ && ftq_.empty() && backendQ_.empty())
            break;
        step();
    }
}

Core::StatsSnapshot
Core::snapshotStats() const
{
    StatsSnapshot snap;
    snap.instructions = retiredSinceReset_;
    snap.cycles = cyclesSinceReset_;
    snap.stalls = stalls_;
    snap.frontEndStallCycles = frontEndStalls_;
    snap.btbMisses = btbMisses_;
    snap.mispredicts = mispredicts_;
    snap.misfetches = misfetches_;
    snap.l1iDemandMisses = mem_.demandMisses();
    snap.prefetchesIssued = mem_.prefetchesIssued();
    snap.usefulPrefetches = mem_.l1i().usefulPrefetches();
    snap.lateUsefulPrefetches = mem_.lateUsefulPrefetches();
    snap.l1dFillSum = l1dFill_.sum();
    snap.l1dFillCount = l1dFill_.count();
    if (params_.uarchProbes) {
        snap.uarch.enabled = true;
        obs::PrefetchLifecycle &l1i =
            snap.uarch.at(obs::UarchStructure::L1I);
        l1i.issued = mem_.prefetchesIssued();
        l1i.timely = mem_.l1i().usefulPrefetches();
        l1i.late = mem_.lateUsefulPrefetches();
        l1i.unusedEvicted = mem_.l1i().uselessPrefetches();
        l1i.polluting = mem_.l1i().pollutingPrefetches();
        scheme_->collectUarch(snap.uarch);
        snap.uarch.btbMissSites = btbMissSketch_.sites();
        snap.uarch.l1iMissSites = l1iMissSketch_.sites();
    }
    return snap;
}

void
Core::clearUarchSites()
{
    btbMissSketch_.clear();
    l1iMissSketch_.clear();
}

void
Core::resetStats()
{
    cyclesSinceReset_ = 0;
    retiredSinceReset_ = 0;
    stalls_ = CycleBreakdown{};
    frontEndStalls_ = 0;
    btbMisses_ = 0;
    mispredicts_ = 0;
    misfetches_ = 0;
    l1dFill_.reset();
    mem_.resetStats();
    clearUarchSites();
}

void
Core::step()
{
    skipIdleCycles();

    // Fills land first so fetch/BPU can use them this cycle.
    mem_.drainFills(now_, [this](Addr block, bool was_prefetch) {
        scheme_->onFill(block, was_prefetch, now_);
    });
    scheme_->tick(now_);

    deliveredThisCycle_ = 0;
    bpuStep();
    fetchStep();
    backendStep();
    chargeCycles(1);

    ++now_;
    ++cyclesSinceReset_;
}

void
Core::skipIdleCycles()
{
    const bool data_stalled = dataStallUntil_ > now_;
    if (!backendQ_.empty() && !data_stalled)
        return; // The backend retires.
    if (fetchStallUntil_ <= now_ && !ftq_.empty() &&
        backendInstrs_ < params_.backendEntries)
        return; // Fetch accesses the L1-I.
    if (!bpuWaitingRedirect_ && bpuStallUntil_ <= now_ && !ftq_.full())
        return; // The BPU predicts.
    if (sourceExhausted_)
        return;
    Cycle until = std::min(mem_.mshrs().nextReady(),
                           scheme_->nextTick(now_));
    if (until <= now_)
        return;
    for (const Cycle deadline :
         {fetchStallUntil_, bpuStallUntil_, dataStallUntil_}) {
        if (deadline > now_)
            until = std::min(until, deadline);
    }
    if (until == kNever)
        return; // No pending event to jump to; just step.

    // Replay what stepping the idle cycles [now_, until) would do.
    const Cycle skipped = until - now_;
    if (!bpuWaitingRedirect_ && bpuStallUntil_ <= now_)
        bpuStallKind_ = BpuStallKind::None; // bpuStep, FTQ full.
    deliveredThisCycle_ = 0;
    if (!data_stalled) {
        // An empty, unstalled backend still accrues (and discards)
        // retire credit every cycle. The credit map revisits its
        // start value after a short period (2 at the defaults), so
        // only the skipped cycles modulo that period are replayed.
        const double start = retireCredit_;
        Cycle steps = skipped;
        for (Cycle done = 1; done <= steps; ++done) {
            accrueRetireCredit();
            if (retireCredit_ == start)
                steps = done + (steps - done) % done;
        }
    }
    chargeCycles(skipped);
    now_ = until;
    cyclesSinceReset_ += skipped;
}

void
Core::bpuStep()
{
    if (bpuWaitingRedirect_ || bpuStallUntil_ > now_)
        return;
    bpuStallKind_ = BpuStallKind::None;

    for (unsigned i = 0; i < params_.bpuBBPerCycle; ++i) {
        if (ftq_.full())
            return;
        BBRecord truth;
        if (!source_->next(truth)) {
            sourceExhausted_ = true; // File replay only; see run().
            return;
        }

        BPUResult result;
        scheme_->processBB(truth, now_, result);
        ftq_.push(truth);

        btbMisses_ += result.btbMiss;
        mispredicts_ += result.mispredict;
        misfetches_ += result.misfetch;
        if (params_.uarchProbes && result.btbMiss)
            btbMissSketch_.record(truth.startAddr);

        if (result.resolveStall && result.stallUntil > now_) {
            bpuStallUntil_ = result.stallUntil;
            bpuStallKind_ = BpuStallKind::Resolve;
        }
        if (result.mispredict || result.misfetch) {
            // Halt at the redirecting branch; the bubble begins when
            // fetch drains the FTQ down to it (see fetchStep).
            bpuWaitingRedirect_ = true;
            pendingRedirectPenalty_ = result.mispredict
                                          ? params_.mispredictPenalty
                                          : params_.misfetchPenalty;
            pendingRedirectKind_ = result.mispredict
                                       ? BpuStallKind::Mispredict
                                       : BpuStallKind::Misfetch;
            return;
        }
        if (bpuStallUntil_ > now_)
            return;
    }
}

void
Core::fetchStep()
{
    if (fetchStallUntil_ > now_)
        return;
    unsigned budget = params_.fetchWidth;
    while (budget > 0 && !ftq_.empty() &&
           backendInstrs_ < params_.backendEntries) {
        FTQEntry &entry = ftq_.front();
        const Addr cur_addr =
            entry.record.startAddr + entry.fetched * kInstrBytes;
        const Addr block = blockNumber(cur_addr);

        if (!entry.blockReady || entry.pendingBlock != block) {
            if (scheme_->idealICache()) {
                entry.blockReady = true;
                entry.pendingBlock = block;
            } else {
                const auto result = mem_.demandFetch(block, now_);
                scheme_->onDemandBlock(block, now_);
                if (result.hit) {
                    entry.blockReady = true;
                    entry.pendingBlock = block;
                } else {
                    scheme_->onDemandMiss(block, now_);
                    fetchStallUntil_ = result.readyAt;
                    fetchStallKind_ = BpuStallKind::ICache;
                    fetchStallOnPrefetch_ = result.onPrefetch;
                    if (params_.uarchProbes)
                        l1iMissSketch_.record(cur_addr);
                    return;
                }
            }
        }

        // Deliver instructions up to the block boundary.
        const unsigned remaining = entry.record.numInstrs - entry.fetched;
        const Addr block_end = blockToAddr(block) + kBlockBytes;
        const unsigned in_block =
            static_cast<unsigned>((block_end - cur_addr) / kInstrBytes);
        const unsigned n = std::min({budget, remaining, in_block});
        entry.fetched += static_cast<std::uint8_t>(n);
        budget -= n;
        deliveredThisCycle_ += n;

        if (entry.fetched == entry.record.numInstrs) {
            backendQ_.push_back(
                BackendItem{entry.record, entry.record.numInstrs});
            backendInstrs_ += entry.record.numInstrs;
            ftq_.pop();
            if (bpuWaitingRedirect_ && ftq_.empty()) {
                // The redirecting branch left the pipe: start the
                // flush bubble. The BPU restarts afterwards with an
                // empty FTQ -- its prefetch lead is gone.
                const Cycle until = now_ + pendingRedirectPenalty_;
                fetchStallUntil_ = std::max(fetchStallUntil_, until);
                fetchStallKind_ = pendingRedirectKind_;
                bpuStallUntil_ = std::max(bpuStallUntil_, until);
                bpuStallKind_ = pendingRedirectKind_;
                bpuWaitingRedirect_ = false;
                return;
            }
        } else if (n == 0) {
            return;
        }
        // Otherwise the block boundary was crossed; the loop
        // continues with the next block of the same entry.
    }
}

unsigned
Core::accrueRetireCredit()
{
    // Issue-efficiency model: the backend earns fractional retire
    // credit each cycle (capped so stalls cannot bank a burst).
    retireCredit_ += retireRate_;
    retireCredit_ = std::min(retireCredit_, retireCap_);
    const unsigned budget = static_cast<unsigned>(retireCredit_);
    retireCredit_ -= budget;
    return budget;
}

void
Core::backendStep()
{
    if (dataStallUntil_ > now_)
        return;

    unsigned budget = accrueRetireCredit();
    while (budget > 0 && !backendQ_.empty()) {
        BackendItem &item = backendQ_.front();
        const unsigned n = std::min<unsigned>(budget, item.remaining);
        for (unsigned i = 0; i < n; ++i) {
            // Data-side model: per-instruction load/miss draws.
            if (!dataRng_.chanceBelow(loadThreshold_))
                continue;
            if (!dataRng_.chanceBelow(l1dMissThreshold_))
                continue;
            mem_.mesh().noteRequest(now_);
            const Cycle latency =
                dataRng_.chanceBelow(llcDataMissThreshold_)
                    ? mem_.mesh().memoryLatency(now_)
                    : mem_.mesh().llcLatency(now_);
            l1dFill_.sample(static_cast<double>(latency));
            const Cycle stall = static_cast<Cycle>(
                static_cast<double>(latency) /
                params_.memLevelParallelism);
            dataStallUntil_ = std::max(dataStallUntil_, now_ + stall);
        }
        item.remaining -= static_cast<std::uint8_t>(n);
        budget -= n;
        retiredSinceReset_ += n;
        backendInstrs_ -= n;
        if (item.remaining == 0) {
            scheme_->onRetire(item.record);
            backendQ_.pop_front();
        }
        if (dataStallUntil_ > now_)
            break;
    }
}

void
Core::chargeCycles(Cycle n)
{
    // Active when fetch delivered; otherwise what blocked fetchStep.
    // A stalled BPU always carries a Resolve, Misfetch or Mispredict
    // kind, and a BPU waiting on a redirect still has its branch in
    // the FTQ, so an empty FTQ behind neither is ftq-empty.
    std::uint64_t *cause = &stalls_.ftqEmpty;
    if (deliveredThisCycle_ > 0) {
        cause = &stalls_.active;
    } else if (backendInstrs_ >= params_.backendEntries) {
        cause = &stalls_.backend;
    } else if (fetchStallUntil_ > now_) {
        switch (fetchStallKind_) {
          case BpuStallKind::Misfetch:
            cause = &stalls_.btb;
            break;
          case BpuStallKind::Mispredict:
            cause = &stalls_.redirect;
            break;
          default:
            cause = fetchStallOnPrefetch_ ? &stalls_.pfWait
                                          : &stalls_.icache;
            break;
        }
    } else if (ftq_.empty() && bpuStallUntil_ > now_) {
        cause = bpuStallKind_ == BpuStallKind::Mispredict
                    ? &stalls_.redirect
                    : &stalls_.btb;
    }
    *cause += n;
    // Starved: the backend has nothing to retire and is not held up
    // by data, so the front end alone costs these cycles.
    if ((cause == &stalls_.icache || cause == &stalls_.pfWait ||
         cause == &stalls_.btb) &&
        backendInstrs_ == 0 && dataStallUntil_ <= now_)
        frontEndStalls_ += n;
}

double
Core::l1iMPKI() const
{
    return retiredSinceReset_ == 0
               ? 0.0
               : 1000.0 * static_cast<double>(mem_.demandMisses()) /
                     static_cast<double>(retiredSinceReset_);
}

bool
operator==(const Core::CycleBreakdown &a, const Core::CycleBreakdown &b)
{
    return a.active == b.active && a.icache == b.icache &&
           a.pfWait == b.pfWait && a.btb == b.btb &&
           a.redirect == b.redirect && a.ftqEmpty == b.ftqEmpty &&
           a.backend == b.backend;
}

Core::CycleBreakdown &
operator+=(Core::CycleBreakdown &into, const Core::CycleBreakdown &d)
{
    into.active += d.active;
    into.icache += d.icache;
    into.pfWait += d.pfWait;
    into.btb += d.btb;
    into.redirect += d.redirect;
    into.ftqEmpty += d.ftqEmpty;
    into.backend += d.backend;
    return into;
}

} // namespace shotgun
