/**
 * @file
 * The dirty-budget controller: Viyojit's central mechanism
 * (paper sections 4-5, figure 6).
 *
 * Responsibilities:
 *  - enforce the dirty budget exactly, in the write-fault path;
 *  - maintain least-recently-updated ordering from epoch dirty-bit
 *    scans;
 *  - proactively copy cold dirty pages to the backing store, keeping
 *    slack equal to the predicted dirty-page pressure;
 *  - flush every dirty page within the battery window on power
 *    failure.
 *
 * The controller is substrate-independent: it talks only to a
 * PagingBackend, so the identical code runs over the simulated MMU
 * and over real memory via mprotect.
 */

#ifndef VIYOJIT_CORE_CONTROLLER_HH
#define VIYOJIT_CORE_CONTROLLER_HH

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "core/budget_pool.hh"
#include "core/config.hh"
#include "core/dirty_tracker.hh"
#include "core/paging_backend.hh"
#include "core/pressure.hh"
#include "core/recency.hh"

namespace viyojit::core
{

/** Lifetime statistics exported by the controller. */
struct ControllerStats
{
    std::uint64_t writeFaults = 0;
    std::uint64_t blockedEvictions = 0;
    std::uint64_t proactiveCopies = 0;
    std::uint64_t inFlightWaits = 0;
    std::uint64_t epochs = 0;

    /** Copies abandoned after the backend exhausted its IO retries. */
    std::uint64_t abortedCopies = 0;

    /** Quota pages borrowed from the attached budget pool. */
    std::uint64_t quotaBorrowedPages = 0;

    /** Quota pages returned to the attached budget pool. */
    std::uint64_t quotaReturnedPages = 0;

    /** Coalesced run IOs submitted (2+ adjacent victims batched). */
    std::uint64_t runSubmits = 0;

    /** Pages carried by those runs. */
    std::uint64_t runPagesCoalesced = 0;

    /** Clean pages written to bridge gaps between merged sub-runs. */
    std::uint64_t runPagesBridged = 0;

    /** Low-watermark batched refills from the budget pool (each one
     *  is a tryBorrow that restored spare quota to the mid target). */
    std::uint64_t watermarkRefills = 0;

    /** High-watermark epoch-boundary donations of surplus spare
     *  quota back to the pool. */
    std::uint64_t proactiveDonations = 0;

    /** Fault-path evictions shed to the async copy pipeline instead
     *  of a synchronous device write (shedBlockedEvictions). */
    std::uint64_t shedEvictions = 0;
};

/**
 * Dirty-budget enforcement engine.
 *
 * Concurrency contract: the controller is EXTERNALLY SYNCHRONIZED —
 * it holds no lock of its own, and every method (including the
 * PersistClient completions) must run under whatever serializes the
 * owning substrate: the shard lock in the mprotect runtime (see
 * NvRegion::Shard, whose controller pointer is PT_GUARDED_BY the
 * shard lock — that annotation carries the machine-checked form of
 * this contract), or the single simulation thread for a
 * ViyojitManager.  Only the attached BudgetPool is itself
 * thread-safe.
 */
class DirtyBudgetController : public PersistClient
{
  public:
    DirtyBudgetController(PagingBackend &backend,
                          const ViyojitConfig &config);

    /**
     * Attach a shared budget pool: `dirtyBudget()` becomes this
     * shard's local quota, grown by borrowing `borrow_batch`-page
     * slices from the pool when admissions hit the quota and shrunk
     * back at epoch boundaries.  The caller still synchronizes the
     * controller externally; only the pool itself is thread-safe.
     */
    void attachBudgetPool(BudgetPool *pool, std::uint64_t borrow_batch);

    BudgetPool *budgetPool() const { return pool_; }

    /**
     * (Re-)derive the spare-quota hysteresis watermarks from this
     * shard's fair share of the current total (DESIGN.md §14).  The
     * migration batch B is the borrow batch clamped to half the
     * share (so a degraded total still leaves a usable band):
     *
     *     low  = max(1, B/2)    refill trigger
     *     mid  = max(low, B)    restore target after either crossing
     *     high = 2 * mid        donation trigger
     *
     * Both triggers restore spare to `mid`, so after any migration
     * the spare sits at least `mid - low` (= high - mid) away from
     * BOTH watermarks — two shards at a boundary cannot ping-pong a
     * batch between them.  Called at attach, and again by retune paths
     * (NvRegion::setDirtyBudget, safe-mode applyBudget) whenever the
     * total — and with it the fair share — moves.
     */
    void deriveQuotaWatermarks(std::uint64_t per_shard_share);

    /**
     * Donatable-quota gauge — spare (quota minus dirty count) ABOVE
     * the mid watermark — readable without the owner's lock: a
     * relaxed atomic the owning thread refreshes whenever quota, the
     * dirty count, or the watermarks move.  Cross-shard steal sweeps
     * use it to skip donors with nothing to give without taking
     * their locks; staleness only costs a skipped donor or a wasted
     * lock, never correctness (the authoritative value is re-read
     * under the donor's lock by releaseDonatableQuota).
     *
     * Gating on the HIGH watermark — not zero spare — is what makes
     * steals rare and cascade-free: spare inside the hysteresis band
     * is the donor's working headroom, and stealing it would push
     * the donor under its own low watermark, whose refill dries the
     * pool for the next shard — the quota-thrash loop hysteresis
     * exists to break.  In-band siblings therefore read 0 here and
     * the thief evicts locally (cheap once evictions shed to the
     * copiers) instead of churning quota.
     */
    std::uint64_t donatableQuotaGauge() const
    {
        return spareGauge_.load(std::memory_order_relaxed);
    }

    /**
     * Handle a write-protection fault on `page` (figure 6 steps 3-8).
     * On success the page is writable and accounted dirty, and the
     * dirty count is within the (local) budget.
     *
     * @param allow_evict permit evicting this shard's own pages to
     *        make room.  A pooled caller passes false on the first
     *        try so a full quota reports failure instead of paying
     *        an SSD write — spare quota idling in a sibling shard is
     *        free, an eviction is not — and retries with true once
     *        no sibling had any to give.
     * @return false only in pooled mode, when the pool is empty and
     *         the quota cannot cover the admission without an
     *         eviction the caller disallowed (or, with allow_evict,
     *         when the quota is zero outright).  Nothing was changed;
     *         the caller must acquire quota (steal via
     *         releaseDonatableQuota/the pool) and retry.  Standalone
     *         controllers (no pool) always return true.
     */
    bool onWriteFault(PageNum page, bool allow_evict = true);

    /**
     * Hardware-assist admission (section 5.4): the MMU set a dirty
     * bit for `page` and bumped its dirty counter; account the page,
     * making room first if the budget is full.  Unlike onWriteFault
     * there is no trap and the page is already writable.  Same
     * return contract as onWriteFault.
     */
    bool onHardwareDirty(PageNum page, bool allow_evict = true);

    /**
     * Epoch boundary (paper: every 1 ms): scan and clear dirty bits,
     * fold them into the recency histories, update the pressure
     * estimate, and pump proactive copies down to the threshold.
     */
    void onEpochBoundary();

    /** Called by the backend when an async page copy completes. */
    void onPersistComplete(PageNum page) override;

    /**
     * Called by the backend when an async page copy is abandoned
     * (IO retries exhausted, device fault).  The page stays dirty —
     * and budget-accounted — so durability is unaffected; it remains
     * write-protected until the next fault readmits it or a later
     * pump/flush copies it again.
     */
    void onPersistAborted(PageNum page) override;

    /**
     * Retune the budget at runtime (battery fade, section 8).  If the
     * new budget is below the current dirty count, pages are evicted
     * synchronously until the count fits.  Standalone mode only: a
     * pooled controller's quota is managed through the pool
     * (releaseQuota/grantQuota/redistributeBudget).
     */
    void setDirtyBudget(std::uint64_t pages);

    /**
     * Give up to `want` pages of quota, never dropping the local
     * budget below `floor`; evicts synchronously while the dirty
     * count exceeds the shrunken quota.  Used for cross-shard quota
     * steals and budget retuning.  The released pages are returned
     * to the caller (not deposited anywhere) — hand them to the pool
     * or to another shard's grantQuota.
     */
    std::uint64_t releaseQuota(std::uint64_t want, std::uint64_t floor);

    /**
     * Give up all spare quota above the mid watermark — a
     * demand-driven early donation, the donor side of a cross-shard
     * steal.  Never evicts; leaves the donor exactly at its restore
     * target, so the steal cannot push it across its own low
     * watermark and trigger a compensating refill (no cascade).
     * Returns 0 when spare is inside the hysteresis band — the
     * caller should then evict locally rather than churn quota.
     */
    std::uint64_t releaseDonatableQuota();

    /** Add quota pages taken from the pool or a sibling shard. */
    void grantQuota(std::uint64_t pages)
    {
        budget_ += pages;
        updateSpareGauge();
    }

    std::uint64_t dirtyBudget() const { return budget_; }

    /**
     * Emergency flush: persist every dirty page (power failure).
     * @return number of pages flushed.
     */
    std::uint64_t flushAllDirty();

    /**
     * Synchronously make one page durable and clean (used by
     * vmunmap).  Waits out an in-flight copy; no-op when clean.
     */
    void flushPageBlocking(PageNum page);

    /** Current proactive-copy threshold. */
    std::uint64_t currentThreshold() const;

    /**
     * Record a measured copy-out compression result (the substrate's
     * flush path calls this with the stored size it actually shipped;
     * bypassed pages pass stored == raw).  Forwards to the tracker,
     * whose ewmaRatio()/floorRatio() — and through them the budget
     * arithmetic — aggregate it.
     */
    void notePageCompression(std::uint64_t stored, std::uint64_t raw)
    {
        tracker_.recordCompressibility(stored, raw);
    }

    const DirtyPageTracker &tracker() const { return tracker_; }
    const EpochRecencyTracker &recency() const { return recency_; }
    const DirtyPagePressure &pressure() const { return pressure_; }
    const ControllerStats &stats() const { return stats_; }
    const ViyojitConfig &config() const { return config_; }

    /** True while an async copy of `page` is outstanding. */
    bool isInFlight(PageNum page) const;

  private:
    /**
     * Pick the least-recently-updated dirty page not under copy.
     * @param skip a page that must not be chosen (or invalidPage).
     * @param spare_last_admitted when true (default), also spare the
     *        most recently admitted page: an unaligned store can
     *        span two pages, and both must stay resident until it
     *        completes or admissions livelock (each admit evicting
     *        the other page of the pair).
     */
    PageNum chooseVictim(PageNum skip = invalidPage,
                         bool spare_last_admitted = true);

    /** Synchronously evict one page (fault path at budget). */
    void evictOneBlocking();

    /**
     * Make room for one admission: loop until the dirty count is
     * under the budget, preferring a pool borrow (burst absorption,
     * no IO) over a local eviction.  Returns false only in pooled
     * mode with zero quota and an empty pool (see onWriteFault).
     */
    bool makeRoomForAdmission(bool allow_evict);

    /**
     * Low-watermark refill: borrow enough from the pool to restore
     * spare quota to the mid target (at least `min_take` pages).
     * The batched grant is what keeps pool CAS traffic off the
     * per-fault path; true if anything was granted.
     */
    bool refillQuota(std::uint64_t min_take);

    /**
     * Donate spare above the high watermark back to the pool,
     * restoring spare to mid; no-op in-band.  Runs at epoch
     * boundaries AND on copy completions — completions are where
     * spare accumulates mid-epoch, and parking it in the pool lets a
     * starving sibling take it with a lock-free borrow instead of a
     * donor-lock steal.  True if anything was donated.
     */
    bool maybeDonateSurplus();

    /**
     * Epoch-boundary hysteresis: donate surplus spare above the high
     * watermark back to the pool (restoring spare to mid), or refill
     * when spare has sagged below the low watermark.  Inside the
     * [low, high] band the quota is left alone — the band is what
     * prevents two shards from ping-ponging a batch at a boundary.
     */
    void rebalanceQuota();

    /** Refresh the lock-free donatable-quota gauge (relaxed store):
     *  what a steal could harvest — spare down to the mid restore
     *  target, but only once spare has reached the high (donation)
     *  watermark; 0 for in-band spare, which is working headroom. */
    void updateSpareGauge()
    {
        const std::uint64_t used = tracker_.count();
        const std::uint64_t spare = budget_ > used ? budget_ - used : 0;
        spareGauge_.store(spare >= quotaHigh_ ? spare - quotaMid_ : 0,
                          std::memory_order_relaxed);
    }

    /**
     * Launch async copies until threshold or IO-cap reached.
     * @param skip page exempt from eviction (the one just admitted,
     *        so the faulting write is guaranteed to make progress).
     */
    void pumpProactiveCopies(PageNum skip = invalidPage);

    /**
     * Launch an asynchronous copy of `victim` — the one launch path:
     * protect it, account it in flight, and accept it into the
     * staged-run window if it lands inside it; otherwise submit the
     * window's stretches and open a new window around the victim.  A
     * one-page window (run cap 1) is submitted at once.
     * @param proactive false for fault-path and emergency-flush
     *        copies, which do not count toward the proactive-copy
     *        statistic.
     */
    void stageCopy(PageNum victim, bool proactive = true);

    /**
     * Submit every contiguous stretch of the staged window, one
     * persistRunAsync each.  Called whenever someone could wait on a
     * staged page — before any backend wait, at the epoch boundary,
     * and in the drain loops — so a latency-sensitive fault never
     * stalls behind an unfilled run.
     */
    void flushPendingRun();

    /** True while `page` sits in the staged, unsubmitted window. */
    bool isStaged(PageNum page) const;

    PagingBackend &backend_;
    ViyojitConfig config_;
    std::uint64_t budget_;

    /** Shared quota pool (sharded runtimes); null when standalone. */
    BudgetPool *pool_ = nullptr;
    std::uint64_t borrowBatch_ = 1;

    /** Spare-quota hysteresis band (deriveQuotaWatermarks). */
    std::uint64_t quotaLow_ = 0;
    std::uint64_t quotaMid_ = 1;
    std::uint64_t quotaHigh_ = 2;

    /** Lock-free spare-quota gauge for donor pre-filtering. */
    std::atomic<std::uint64_t> spareGauge_{0};

    DirtyPageTracker tracker_;
    EpochRecencyTracker recency_;
    DirtyPagePressure pressure_;

    /**
     * Per-page copy state.  kCopying: a dirty page under copy, staged
     * or submitted.  kBridging: a clean page riding along in a
     * submitted run to bridge a gap between dirty sub-runs
     * (config_.maxBridgePages).  Faults wait out both, but only
     * kCopying pages count in inFlightCount_, which tracks dirty
     * pages under copy (inFlightCount_ <= tracker_.count() must
     * hold).
     */
    enum CopyState : std::uint8_t { kIdle, kCopying, kBridging };
    std::vector<std::uint8_t> copyState_;

    std::uint64_t inFlightCount_ = 0;
    bool pumping_ = false;

    /**
     * True while flushAllDirty drains the region on battery power.
     * Gap bridging is suppressed for its duration: bridging trades
     * extra page transfers for admission slots, which is the right
     * trade on wall power but wrong on battery, where transferred
     * bytes ARE the flush window and the battery was sized for the
     * dirty bytes alone.
     */
    bool emergencyFlush_ = false;

    /** Most recently admitted page (the straddling-store guard). */
    PageNum lastAdmitted_ = invalidPage;

    /**
     * Staged-run window: a bitmask of victims over up to 64 pages
     * anchored at `runBase_`.  Victims of one extent arrive in
     * recency order — scrambled within the extent — so an
     * append-at-the-ends run would split on every out-of-order pick;
     * the mask accepts them in any order and flushPendingRun submits
     * the contiguous stretches.  Anchoring at the extent base (when
     * the locality key is on) lets late lower-numbered picks land in
     * the window.  Member scalars (not a buffer) so the fault path
     * stays allocation-free.  runPages_ caches popcount(runMask_)
     * for the in-flight IO credit checks.
     */
    PageNum runBase_ = invalidPage;
    std::uint64_t runMask_ = 0;
    unsigned runPages_ = 0;

    ControllerStats stats_;
};

} // namespace viyojit::core

#endif // VIYOJIT_CORE_CONTROLLER_HH
