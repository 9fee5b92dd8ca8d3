#include "core/controller.hh"

#include <algorithm>

#include "common/logging.hh"

namespace viyojit::core
{

DirtyBudgetController::DirtyBudgetController(PagingBackend &backend,
                                             const ViyojitConfig &config)
    : backend_(backend),
      config_(config),
      budget_(config.dirtyBudgetPages),
      tracker_(backend.pageCount()),
      // The paper's 64-epoch history and 0.75 EWMA weight (the
      // trackers' defaults).
      recency_(backend.pageCount()),
      copyState_(backend.pageCount(), kIdle)
{
    if (budget_ == 0)
        fatal("dirty budget must be at least one page");
    if (config.maxOutstandingIos == 0)
        fatal("need at least one outstanding IO slot");
    recency_.setUseSeqTieBreak(config.updateTimeTieBreak);
    recency_.setLegacyQueue(config.legacyEpochScan);
    recency_.setExtentShift(config.extentShift);
    // Steady-state faults must not heap-allocate (the real runtime
    // enters this path from its SIGSEGV handler): pre-size the
    // budget-bounded fault-path structures to their fixpoint.
    recency_.reserveStaging(config.maxOutstandingIos);
    recency_.reserveDirtyBound(budget_);
    tracker_.reserve(budget_);
    backend_.setPersistClient(*this);
}

bool
DirtyBudgetController::isInFlight(PageNum page) const
{
    return copyState_[page] != kIdle;
}

void
DirtyBudgetController::attachBudgetPool(BudgetPool *pool,
                                        std::uint64_t borrow_batch)
{
    pool_ = pool;
    borrowBatch_ = std::max<std::uint64_t>(borrow_batch, 1);
    // Identity derivation until the owner states the per-shard fair
    // share (2 * batch leaves the batch unclamped); the sharded
    // runtime and the retune paths re-derive with the real share.
    deriveQuotaWatermarks(2 * borrowBatch_);
    // A pooled shard's quota can grow to the whole battery budget
    // via borrows; re-reserve to the pool total so those borrows
    // never push a fault-path insert into a reallocation.
    tracker_.reserve(pool->totalPages());
    recency_.reserveDirtyBound(pool->totalPages());
    updateSpareGauge();
}

void
DirtyBudgetController::deriveQuotaWatermarks(
    std::uint64_t per_shard_share)
{
    const std::uint64_t batch = std::min<std::uint64_t>(
        borrowBatch_,
        std::max<std::uint64_t>(1, per_shard_share / 2));
    quotaLow_ = std::max<std::uint64_t>(1, batch / 2);
    quotaMid_ = std::max(quotaLow_, batch);
    quotaHigh_ = 2 * quotaMid_;
    // The donatable gauge measures spare from quotaMid_, so moved
    // watermarks shift what steal sweeps may see.
    updateSpareGauge();
}

bool
DirtyBudgetController::refillQuota(std::uint64_t min_take)
{
    const std::uint64_t used = tracker_.count();
    const std::uint64_t spare = budget_ > used ? budget_ - used : 0;
    const std::uint64_t want = std::max(
        spare < quotaMid_ ? quotaMid_ - spare : 0, min_take);
    if (want == 0)
        return false;
    const std::uint64_t got = pool_->tryBorrow(want);
    budget_ += got;
    stats_.quotaBorrowedPages += got;
    if (got) {
        ++stats_.watermarkRefills;
        updateSpareGauge();
    }
    return got > 0;
}

bool
DirtyBudgetController::maybeDonateSurplus()
{
    // No donation while an emergency drain runs: every shard is
    // flushing (the budget is about to be redistributed or the
    // region torn down), so parking transient spare in the pool is
    // CAS churn nobody will borrow against.  The post-drain surplus
    // stays local and steal-visible instead — the drain's caller
    // decides what happens to it.
    if (!pool_ || emergencyFlush_)
        return false;
    const std::uint64_t used = tracker_.count();
    const std::uint64_t spare = budget_ > used ? budget_ - used : 0;
    if (spare < quotaHigh_)
        return false;
    // Reaching the high watermark donates immediately — a shard is
    // never left *resting* at the band edge, so the steal sweep's
    // gauge scan finds donors only in the completion-to-donation
    // race window (or after a donation-suppressed drain).  Donate
    // down to the mid target, not to the low watermark: landing
    // mid-band means the next refill needs mid - low more admissions
    // than a donate-to-low would, which is the hysteresis that stops
    // boundary ping-pong.
    const std::uint64_t give = spare - quotaMid_;
    budget_ -= give;
    stats_.quotaReturnedPages += give;
    ++stats_.proactiveDonations;
    pool_->deposit(give);
    updateSpareGauge();
    return true;
}

void
DirtyBudgetController::rebalanceQuota()
{
    if (!pool_)
        return;
    if (maybeDonateSurplus())
        return;
    const std::uint64_t used = tracker_.count();
    const std::uint64_t spare = budget_ > used ? budget_ - used : 0;
    if (spare < quotaLow_)
        refillQuota(0);
}

bool
DirtyBudgetController::makeRoomForAdmission(bool allow_evict)
{
    while (tracker_.count() >= budget_) {
        // Prefer growing the quota over evicting: a burst should
        // consume global battery slack before it costs SSD writes.
        if (pool_ && refillQuota(1))
            continue;
        if (budget_ == 0 || !allow_evict)
            return false; // need external quota before evicting
        evictOneBlocking();
    }
    return true;
}

bool
DirtyBudgetController::onWriteFault(PageNum page, bool allow_evict)
{
    for (;;) {
        if (copyState_[page] != kIdle) {
            // The page is being copied out; its frame is
            // write-protected until the copy is durable (the
            // protect-before-copy rule of section 5.1).  Block until
            // the copy completes, after which the page is clean and
            // we admit the write below.  It may be sitting in the
            // staged run, where no IO exists to wait on yet; submit
            // the run first.
            if (isStaged(page))
                flushPendingRun();
            ++stats_.inFlightWaits;
            backend_.waitForPersist(page);
            VIYOJIT_ASSERT(copyState_[page] == kIdle,
                           "wait did not complete copy");
        }

        if (tracker_.isDirty(page)) {
            // Dirty but protected: the substrate re-protected the
            // page (the runtime's epoch re-protection does this to
            // sample recency).  Record the update and allow the
            // write; the page is already accounted against the
            // budget.
            ++stats_.writeFaults;
            recency_.recordUpdate(page);
            backend_.unprotectPage(page);
            return true;
        }

        // Admitting a new dirty page; make room first (fig. 6 steps
        // 5-7).  A quota-starved shard reports failure *before*
        // counting the fault, so the caller's steal-and-retry shows
        // up as one fault.
        if (!makeRoomForAdmission(allow_evict))
            return false;
        // Making room can wait for a copy to land, and the runtime
        // releases the shard lock while it waits: another thread may
        // have admitted this page meanwhile, and a copy of it may
        // have started.  Releasing the page then would let this
        // write slip past that copy, which would mark the page clean
        // while it stays writable, losing the write.  Start over.
        if (!tracker_.isDirty(page))
            break;
    }
    ++stats_.writeFaults;

    // Fig. 6 step 8: unprotect, count, and list the faulting page.
    backend_.unprotectPage(page);
    tracker_.markDirty(page);
    recency_.recordUpdate(page);
    updateSpareGauge();

    // Hysteretic refill: crossing the low watermark tops spare quota
    // back up to the mid target in one batched borrow, so steady
    // admission never reaches the spare == 0 slow path (and the
    // donor-sweep steal behind it) while the pool has pages.  One
    // branch in the common case; the CAS only fires on a crossing.
    if (pool_ && budget_ - tracker_.count() < quotaLow_)
        refillQuota(0);

    // Crossing the threshold triggers background flushes immediately
    // (section 5.3's trigger is the threshold, not the epoch tick);
    // the epoch boundary merely refreshes recency and the threshold.
    // The just-admitted page is exempt so the faulting write always
    // makes progress; lastAdmitted_ still names the *previous*
    // admission here, keeping both halves of a page-straddling store
    // resident (see chooseVictim).
    if (config_.continuousCopyTrigger)
        pumpProactiveCopies(page);
    lastAdmitted_ = page;
    return true;
}

bool
DirtyBudgetController::onHardwareDirty(PageNum page, bool allow_evict)
{
    VIYOJIT_ASSERT(config_.hardwareAssist,
                   "hardware admission without hardware assist");
    if (copyState_[page] != kIdle || tracker_.isDirty(page))
        return true;
    if (!makeRoomForAdmission(allow_evict))
        return false;
    tracker_.markDirty(page);
    recency_.recordUpdate(page);
    updateSpareGauge();
    if (pool_ && budget_ - tracker_.count() < quotaLow_)
        refillQuota(0);
    if (config_.continuousCopyTrigger)
        pumpProactiveCopies(page);
    lastAdmitted_ = page;
    return true;
}

PageNum
DirtyBudgetController::chooseVictim(PageNum skip,
                                    bool spare_last_admitted)
{
    const PageNum spared =
        spare_last_admitted ? lastAdmitted_ : invalidPage;
    return recency_.pickVictim(
        tracker_, [this, skip, spared](PageNum p) {
            return p == skip || p == spared || copyState_[p] != kIdle;
        });
}

void
DirtyBudgetController::evictOneBlocking()
{
    PageNum victim = chooseVictim();
    if (victim == invalidPage && inFlightCount_ == 0) {
        // Only the guard-window page is left (budget of 1-2 pages):
        // dropping the guard is the lesser evil; forward progress
        // then needs a budget of at least two pages for unaligned
        // writes, which the config documents.
        victim = chooseVictim(invalidPage,
                              /*spare_last_admitted=*/false);
    }
    if (victim == invalidPage) {
        // Every dirty page is already under copy; wait for one to
        // land, which lowers the dirty count.
        VIYOJIT_ASSERT(inFlightCount_ > 0,
                       "budget exceeded with no evictable page");
        // Those copies may all be sitting in the staged run, which
        // has no IO to complete until it is submitted; but while real
        // IOs are outstanding, keep the window staging across waits —
        // flushing here on every pass would cap runs at one page per
        // completion.
        if (backend_.outstandingIos() == 0)
            flushPendingRun();
        ++stats_.inFlightWaits;
        backend_.waitForAnyPersist();
        return;
    }
    // Copier back-pressure shedding: while the async pipe has
    // capacity, hand the victim to it instead of paying a whole
    // synchronous device write on the fault path.  The admission
    // loop comes straight back here (the in-flight page still counts
    // against the budget), so successive passes fill the pipe with
    // more victims until either a completion lands (count drops,
    // admission proceeds) or the cap is hit and the invalidPage
    // branch above waits for the FIRST completion — the faulting
    // thread's stall shrinks from one full write to the head of a
    // batch the copier pool drains in parallel.
    if (config_.shedBlockedEvictions &&
        backend_.outstandingIos() + runPages_ <
            config_.maxOutstandingIos &&
        backend_.canSubmit()) {
        stageCopy(victim, /*proactive=*/false);
        ++stats_.shedEvictions;
        return;
    }
    // Write protect before copying so a concurrent update cannot be
    // lost (section 5.1).
    backend_.protectPage(victim);
    backend_.persistPageBlocking(victim);
    tracker_.markClean(victim);
    if (config_.hardwareAssist) {
        // Clean pages stay writable under the assist; the MMU's
        // dirty counter — not write protection — readmits them.
        backend_.unprotectPage(victim);
    }
    ++stats_.blockedEvictions;
    updateSpareGauge();
}

void
DirtyBudgetController::onEpochBoundary()
{
    ++stats_.epochs;

    // Walk the page table, folding this epoch's hardware dirty bits
    // into the recency histories (section 5.2).
    // With the section-5.4 assist the MMU writes dirty bits through,
    // so the scan reads fresh bits without any TLB flush.
    const bool flush_tlb =
        config_.flushTlbOnScan && !config_.hardwareAssist;
    backend_.scanAndClearDirty(
        flush_tlb, [this](PageNum page, bool was_dirty) {
            if (was_dirty)
                recency_.recordUpdate(page);
        });

    // Update the burst predictor with this epoch's new-dirty count
    // (section 5.3) and roll the histories.
    pressure_.observe(tracker_.newDirtyThisEpoch());
    tracker_.resetEpochCount();
    recency_.advanceEpoch();
    recency_.rebuildVictimQueue(tracker_);

    pumpProactiveCopies();

    // Bounded staging latency: a partial run may linger between
    // pumps, but never across an epoch boundary.
    flushPendingRun();

    // Pooled shards breathe at epoch granularity: quota the burst no
    // longer needs goes back to the global pool (minus one borrow
    // batch of slack against the next burst).
    rebalanceQuota();
}

std::uint64_t
DirtyBudgetController::currentThreshold() const
{
    // Pooled shards size the threshold by their entitlement — the
    // local quota plus whatever the pool could still grant — not the
    // transient quota alone: rebalanceQuota deliberately keeps the
    // quota tight around the dirty count, and a threshold derived
    // from it would proactively copy half the shard's dirty set
    // every epoch no matter how much global budget sits unused.
    // Entitlement restores the intended trigger: proactive copying
    // ramps up as the *global* budget nears exhaustion (pool runs
    // dry), exactly when an unsharded controller would start copying.
    const std::uint64_t reachable =
        pool_ ? budget_ + pool_->available() : budget_;
    return pressure_.threshold(reachable);
}

void
DirtyBudgetController::pumpProactiveCopies(PageNum skip)
{
    // Backends that complete copies inline re-enter through
    // onPersistComplete; the outer loop (which holds the `skip`
    // exemption) does all the work, so nested pumps bail out.
    if (pumping_)
        return;
    pumping_ = true;
    const std::uint64_t threshold = currentThreshold();
    // Staged (not yet submitted) run pages count against the IO cap:
    // they are in flight for budget purposes, just not on the device.
    while (backend_.outstandingIos() + runPages_ <
               config_.maxOutstandingIos &&
           backend_.canSubmit()) {
        const std::uint64_t settled = tracker_.count() - inFlightCount_;
        if (settled <= threshold)
            break;
        const PageNum victim = chooseVictim(skip);
        if (victim == invalidPage)
            break;
        stageCopy(victim);
    }
    // A partial run stays staged across pump invocations: in steady
    // state each IO completion frees one page of credit, and flushing
    // here would degenerate every run to a single page.  Staged pages
    // block nobody — every wait site submits the run first — and the
    // next epoch boundary submits a partial run; with no tick, it
    // waits for a wait on one of its pages or the drain.
    pumping_ = false;
}

void
DirtyBudgetController::stageCopy(PageNum victim, bool proactive)
{
    VIYOJIT_ASSERT(copyState_[victim] == kIdle, "double copy of one page");
    VIYOJIT_ASSERT(tracker_.isDirty(victim), "copying a clean page");
    backend_.protectPage(victim);
    copyState_[victim] = kCopying;
    ++inFlightCount_;
    if (proactive)
        ++stats_.proactiveCopies;
    // The run cap, within the IO cap and the 64-page mask.
    const unsigned window = std::min(
        {std::max(config_.maxRunPages, 1u), config_.maxOutstandingIos, 64u});
    if (runMask_ != 0) {
        if (victim >= runBase_ && victim < runBase_ + window) {
            runMask_ |= 1ULL << (victim - runBase_);
            ++runPages_;
            return;
        }
        flushPendingRun();
    }
    // Open a new window.  With the locality key on, anchor it at the
    // victim's extent base: same-extent victims arrive consecutively
    // but in recency order, so a later pick below the first one must
    // still land inside the window.  Clamp so the victim itself fits
    // when the extent is wider than the window.
    PageNum base = victim;
    if (config_.extentShift != 0) {
        const PageNum extent_base =
            victim >> config_.extentShift << config_.extentShift;
        base = victim - extent_base >= window
                   ? victim - (window - 1)
                   : extent_base;
    }
    runBase_ = base;
    runMask_ = 1ULL << (victim - base);
    runPages_ = 1;
    // A one-page window is full as soon as it opens: submit it now,
    // so a run cap of 1 writes each victim the moment it is picked.
    if (window == 1)
        flushPendingRun();
}

bool
DirtyBudgetController::isStaged(PageNum page) const
{
    return runMask_ != 0 && page >= runBase_ &&
           page - runBase_ < 64 &&
           (runMask_ >> (page - runBase_) & 1) != 0;
}

void
DirtyBudgetController::flushPendingRun()
{
    if (runMask_ == 0)
        return;
    const PageNum base = runBase_;
    std::uint64_t mask = runMask_;
    // Clear before submitting: an inline-completing backend re-enters
    // onPersistComplete (and from there this pump) during the submit.
    // Staged pages are marked in flight, so a nested pump cannot
    // re-pick the pages still queued in the local mask.
    runBase_ = invalidPage;
    runMask_ = 0;
    runPages_ = 0;
    while (mask != 0) {
        const unsigned start =
            static_cast<unsigned>(__builtin_ctzll(mask));
        const std::uint64_t shifted = mask >> start;
        const std::uint64_t holes = ~shifted;
        unsigned len =
            holes == 0
                ? 64u - start
                : static_cast<unsigned>(__builtin_ctzll(holes));
        mask = holes == 0 ? 0
                          : ((shifted & ~((1ULL << len) - 1)) << start);
        // Merge across short gaps of clean, idle pages: an
        // already-durable page's DRAM content matches its durable
        // copy (clean pages stay protected until the next fault), so
        // rewriting it changes nothing — and one saved admission
        // slot buys the extra page transfers many times over on an
        // IOPS-bound device.  Bounded by maxBridgePages per gap; the
        // merged length stays within the window.
        //
        // Never bridge during the emergency flush: on wall power the
        // extra transfers are amortized IOPS savings, but on battery
        // every transferred byte drains the flush window — and the
        // battery was sized for the DIRTY bytes, not dirty + bridge
        // padding.  Runs of genuinely adjacent dirty pages still
        // coalesce; only the clean-page padding stops.
        while (mask != 0 && config_.maxBridgePages != 0 &&
               !emergencyFlush_) {
            const unsigned next =
                static_cast<unsigned>(__builtin_ctzll(mask));
            const unsigned gap = next - (start + len);
            if (gap > config_.maxBridgePages)
                break;
            bool bridgeable = true;
            for (unsigned g = start + len; g < next; ++g) {
                const PageNum p = base + g;
                if (tracker_.isDirty(p) || copyState_[p] != kIdle) {
                    bridgeable = false;
                    break;
                }
            }
            if (!bridgeable)
                break;
            for (unsigned g = start + len; g < next; ++g) {
                const PageNum p = base + g;
                backend_.protectPage(p);
                copyState_[p] = kBridging;
            }
            stats_.runPagesBridged += gap;
            const std::uint64_t shifted2 = mask >> next;
            const std::uint64_t holes2 = ~shifted2;
            const unsigned len2 =
                holes2 == 0
                    ? 64u - next
                    : static_cast<unsigned>(__builtin_ctzll(holes2));
            mask = holes2 == 0
                       ? 0
                       : ((shifted2 & ~((1ULL << len2) - 1)) << next);
            len = next + len2 - start;
        }
        if (len > 1) {
            ++stats_.runSubmits;
            stats_.runPagesCoalesced += len;
        }
        backend_.persistRunAsync(base + start, len);
    }
}

void
DirtyBudgetController::onPersistComplete(PageNum page)
{
    VIYOJIT_ASSERT(copyState_[page] != kIdle, "completion for idle page");
    const bool bridged = copyState_[page] == kBridging;
    copyState_[page] = kIdle;
    if (bridged) {
        // A clean gap-bridging page: it was already durable, so the
        // write changed nothing — just release it.
        if (config_.hardwareAssist)
            backend_.unprotectPage(page);
        return;
    }
    --inFlightCount_;
    tracker_.markClean(page);
    updateSpareGauge();
    // Completions are where spare accumulates mid-epoch; pushing the
    // surplus to the pool HERE (not only at the boundary) means a
    // starving sibling finds it by a lock-free borrow instead of a
    // donor-lock steal.
    maybeDonateSurplus();
    if (config_.hardwareAssist)
        backend_.unprotectPage(page);
    // Keep the pipeline full between epochs.
    if (config_.continuousCopyTrigger)
        pumpProactiveCopies();
}

void
DirtyBudgetController::onPersistAborted(PageNum page)
{
    VIYOJIT_ASSERT(copyState_[page] != kIdle, "abort for idle page");
    const bool bridged = copyState_[page] == kBridging;
    copyState_[page] = kIdle;
    if (bridged) {
        // The bridge write failed, but the page's previous durable
        // copy is intact and the page is still clean — no retry
        // needed, and no aborted-copy accounting (no copy was owed).
        if (config_.hardwareAssist)
            backend_.unprotectPage(page);
        return;
    }
    --inFlightCount_;
    ++stats_.abortedCopies;
    // The page is still dirty and still counted against the budget,
    // so the section-4.1 invariant holds; it is also still protected,
    // so the next write faults into the dirty-but-protected readmit
    // path.  A later pump or emergency flush re-copies it.
    if (config_.continuousCopyTrigger)
        pumpProactiveCopies();
}

void
DirtyBudgetController::setDirtyBudget(std::uint64_t pages)
{
    if (pages == 0)
        fatal("dirty budget must be at least one page");
    if (pool_)
        fatal("a pooled shard's quota is managed by the budget pool; "
              "use releaseQuota/grantQuota or redistributeBudget");
    budget_ = pages;
    // A grown budget raises the fault-path fixpoint; re-reserve off
    // the fault path so faults still never allocate.
    tracker_.reserve(budget_);
    recency_.reserveDirtyBound(budget_);
    // Shrinking below the current dirty count: evict synchronously
    // until we fit (battery fade handling, section 8).
    while (tracker_.count() > budget_)
        evictOneBlocking();
    updateSpareGauge();
}

std::uint64_t
DirtyBudgetController::releaseQuota(std::uint64_t want,
                                    std::uint64_t floor)
{
    if (budget_ <= floor)
        return 0;
    const std::uint64_t give = std::min(want, budget_ - floor);
    budget_ -= give;
    stats_.quotaReturnedPages += give;
    // Evict down to the shrunken quota (battery fade semantics): the
    // released pages are only safe to hand away once this shard's
    // dirty count fits what it keeps.
    while (tracker_.count() > budget_)
        evictOneBlocking();
    updateSpareGauge();
    return give;
}

std::uint64_t
DirtyBudgetController::releaseDonatableQuota()
{
    const std::uint64_t used = tracker_.count();
    const std::uint64_t spare = budget_ > used ? budget_ - used : 0;
    // Only donors at/above the high (donation) watermark give, and
    // they give down to mid — the same movement an epoch-boundary
    // donation would make, just demand-driven.  In-band spare is the
    // donor's working headroom: stealing it would push the donor
    // across its own low watermark and cascade refills.
    if (spare < quotaHigh_)
        return 0;
    const std::uint64_t give = spare - quotaMid_;
    budget_ -= give;
    stats_.quotaReturnedPages += give;
    updateSpareGauge();
    return give;
}

void
DirtyBudgetController::flushPageBlocking(PageNum page)
{
    if (copyState_[page] != kIdle) {
        if (isStaged(page)) // staged, not submitted: no IO to wait on
            flushPendingRun();
        backend_.waitForPersist(page);
        return;
    }
    if (!tracker_.isDirty(page))
        return;
    backend_.protectPage(page);
    backend_.persistPageBlocking(page);
    tracker_.markClean(page);
    updateSpareGauge();
}

std::uint64_t
DirtyBudgetController::flushAllDirty()
{
    std::uint64_t flushed = 0;
    emergencyFlush_ = true;
    // Power is out, so victim order no longer protects hot pages —
    // everything must be durable before the reserve drains.  Sweep
    // the dirty set in page order instead of recency order: recency
    // buckets scatter page-adjacent victims across epochs, while a
    // page-order sweep hands the run stager maximal contiguity.
    // (Heap allocation is fine here: the emergency flush runs on a
    // normal thread, not in the fault signal handler.)
    std::vector<PageNum> order = tracker_.dirtyPages();
    std::sort(order.begin(), order.end());
    std::size_t cursor = 0;
    while (tracker_.count() > 0) {
        // Fill the IO queue from the sweep, then wait.
        bool launched = false;
        while (backend_.outstandingIos() + runPages_ <
                   config_.maxOutstandingIos &&
               backend_.canSubmit() &&
               tracker_.count() - inFlightCount_ > 0) {
            while (cursor < order.size() &&
                   (!tracker_.isDirty(order[cursor]) ||
                    copyState_[order[cursor]] != kIdle))
                ++cursor;
            if (cursor == order.size()) {
                // Aborted copies (and any late admissions) reopen
                // pages behind the cursor; restart the sweep over
                // what remains.  The loop condition guarantees an
                // eligible page exists in the fresh snapshot.
                order = tracker_.dirtyPages();
                std::sort(order.begin(), order.end());
                cursor = 0;
                continue;
            }
            stageCopy(order[cursor++], /*proactive=*/false);
            ++flushed;
            launched = true;
        }
        // Only submit the staged run once no real IO remains —
        // waitForAnyPersist would otherwise block on pages that were
        // never submitted.  While completions are still arriving the
        // window keeps filling across waits; flushing every pass
        // would degenerate the drain to one-page runs (each wait
        // returns after a single completion).
        if (backend_.outstandingIos() == 0)
            flushPendingRun();
        if (tracker_.count() == 0)
            break;
        if (!launched && inFlightCount_ == 0)
            panic("dirty pages remain but nothing can be flushed");
        backend_.waitForAnyPersist();
    }
    emergencyFlush_ = false;
    updateSpareGauge();
    return flushed;
}

} // namespace viyojit::core
