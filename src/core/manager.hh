/**
 * @file
 * ViyojitManager: the mmap-like front end over the simulated
 * substrate (paper section 4.3's portability goal).
 *
 * The manager owns the NV address space (a real byte buffer plus the
 * modelled MMU state), wires write faults into the dirty-budget
 * controller, schedules epoch scans on the event queue, and provides
 * power-failure flush and durability verification.
 *
 * With `config.enforceBudget == false` it degrades to the baseline
 * NV-DRAM system the paper compares against: pages map writable, no
 * tracking or copying happens, and a power failure must flush every
 * written page — which is exactly what a full-capacity battery pays
 * for.
 */

#ifndef VIYOJIT_CORE_MANAGER_HH
#define VIYOJIT_CORE_MANAGER_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "core/config.hh"
#include "core/controller.hh"
#include "core/paging_backend.hh"
#include "mmu/mmu.hh"
#include "sim/context.hh"
#include "storage/ssd.hh"

namespace viyojit::core
{

/** Result of an emergency flush. */
struct FlushReport
{
    std::uint64_t dirtyPagesAtFailure = 0;
    std::uint64_t bytesFlushed = 0;
    Tick flushDuration = 0;
};

/**
 * Classified outcome of a checksum-path durability audit
 * (ViyojitManager::verifyDurabilityChecked): instead of one boolean,
 * every written page is verified against the durable image AND the
 * flush-commit sidecar, and mismatches are classified and attributed.
 */
struct DurabilityAuditReport
{
    /** Written pages examined. */
    std::uint64_t pagesChecked = 0;

    /** Pages whose durable image matches live content. */
    std::uint64_t verifiedPages = 0;

    /** Pages whose durable image differs from live content. */
    std::uint64_t mismatchedPages = 0;

    /**
     * Mismatches where the sidecar committed exactly the live
     * content: the flush landed and was verified, the medium has
     * since silently diverged (bit rot, misdirected clobber).
     */
    std::uint64_t silentCorruptPages = 0;

    /**
     * Mismatches with no commit covering the live content: the cut
     * (or an aborted copy) interrupted the write before its commit —
     * a torn page/run tail.
     */
    std::uint64_t tornPages = 0;

    /**
     * Verified pages whose sidecar entry lags the live content
     * (data durable, metadata not yet committed).  Benign; counted
     * so the stale-epoch window stays observable.
     */
    std::uint64_t staleMetaPages = 0;

    /**
     * Mismatches explained by the device's oracle corruption ledger,
     * an aborted copy, or a page legitimately still dirty/in-flight.
     */
    std::uint64_t attributedPages = 0;

    /**
     * Mismatches with no known cause.  Any nonzero value is a real
     * durability bug — data the system believes durable and intact
     * but silently wrong.
     */
    std::uint64_t unattributedPages = 0;

    /** True when the durable image matches everywhere. */
    bool clean() const { return mismatchedPages == 0; }

    /** True when every mismatch has an explanation (no silent
     *  wrong-data acceptance). */
    bool allAttributed() const { return unattributedPages == 0; }
};

/** Outcome of one background scrub pass (ViyojitManager::scrubPass). */
struct ScrubReport
{
    /** Clean, settled pages whose durable image was re-verified. */
    std::uint64_t scanned = 0;

    /** Pages skipped because they were dirty or had IO in flight. */
    std::uint64_t skippedBusy = 0;

    /** Whole-pass skips: dirty set too close to the budget, or the
     *  device queue full (the scrubber must never steal flush
     *  headroom or IO slots from the controller). */
    std::uint64_t skippedBudget = 0;

    /** Durable-image mismatches detected against the clean DRAM copy. */
    std::uint64_t mismatches = 0;

    /** Mismatched pages successfully rewritten from DRAM. */
    std::uint64_t repaired = 0;

    /** Repairs abandoned after bounded retries (page left corrupt). */
    std::uint64_t repairFailures = 0;
};

/**
 * IO fault-handling counters (fault model attached to the SSD).
 * Plain counters: like the rest of the manager they are written and
 * read on the single simulation thread.
 */
struct IoFaultStats
{
    /** Attempts resubmitted after an injected error. */
    std::uint64_t retries = 0;

    /** Attempts abandoned at their per-IO deadline. */
    std::uint64_t timeouts = 0;

    /** Copies given up after maxIoRetries (page left dirty). */
    std::uint64_t abortedCopies = 0;

    /** Completions of abandoned attempts, ignored. */
    std::uint64_t staleCompletions = 0;

    /** Coalesced run IOs submitted (persistRunAsync, 2+ pages). */
    std::uint64_t runSubmits = 0;

    /** Pages carried by those runs (avg run length = pages/submits). */
    std::uint64_t runPagesCoalesced = 0;

    /**
     * Pages that failed their slice of a run and fell back to the
     * per-page retry path (bad-page remap, transient error).
     */
    std::uint64_t runSplits = 0;

    /**
     * Completions acknowledged ok whose durable image failed the
     * read-back checksum verify (silent fault caught at flush time);
     * each one re-enters the retry chain.
     */
    std::uint64_t verifyFailures = 0;
};

/**
 * Simulated NV-DRAM manager with the Viyojit mechanism.
 *
 * Concurrency contract: a manager — like the controller it owns — is
 * externally synchronized and runs on the single simulation thread;
 * nothing here is annotated with a capability because there is no
 * lock to name.  When managers shard one battery
 * (ShardedBudgetDomain, the multi-shard torture), the shared
 * core::BudgetPool is the only thread-safe seam, and its lock
 * contracts live in budget_pool.hh.
 */
class ViyojitManager
{
  public:
    ViyojitManager(sim::SimContext &ctx, storage::Ssd &ssd,
                   const ViyojitConfig &config,
                   const mmu::MmuCostModel &mmu_costs,
                   std::uint64_t capacity_pages,
                   std::uint32_t region_id = 0);

    ~ViyojitManager();

    ViyojitManager(const ViyojitManager &) = delete;
    ViyojitManager &operator=(const ViyojitManager &) = delete;

    /**
     * Allocate a zeroed NV region of at least `bytes` bytes; pages
     * come up write-protected (fig. 6 step 1) unless running as the
     * baseline.  Addresses are page-aligned and never reused.
     */
    Addr vmmap(std::uint64_t bytes);

    /** Flush and unmap a region previously returned by vmmap. */
    void vmunmap(Addr base, std::uint64_t bytes);

    /** Model a read of [addr, addr+len). */
    void read(Addr addr, std::uint64_t len);

    /** Model a write of [addr, addr+len) (content untouched). */
    void write(Addr addr, std::uint64_t len);

    /** Charged write that also copies bytes into the NV buffer. */
    void memWrite(Addr addr, const void *src, std::uint64_t len);

    /** Charged read that copies bytes out of the NV buffer. */
    void memRead(Addr addr, void *dst, std::uint64_t len) const;

    /** Raw pointer into the NV buffer (no cost modelling). */
    char *rawData(Addr addr);
    const char *rawData(Addr addr) const;

    /** Begin epoch scans (no-op for the baseline). */
    void start();

    /** Stop epoch scans. */
    void stop();

    /** Deliver any due events (epochs, IO completions). */
    void processEvents();

    /**
     * Simulate loss of wall power: stop the epoch machinery and flush
     * every dirty page to the SSD on battery.
     */
    FlushReport powerFailureFlush();

    /**
     * True when the SSD image matches the live content version of
     * every page ever written (valid right after a flush).
     */
    bool verifyDurability() const;

    /**
     * Checksum-path durability audit: verify every written page
     * against the durable image and the flush-commit sidecar,
     * classify mismatches (torn vs. silent corruption), and attribute
     * them to known causes (oracle ledger, aborted copies, pages
     * still dirty).  An unattributed mismatch is a genuine bug.
     */
    DurabilityAuditReport verifyDurabilityChecked() const;

    /**
     * One bounded background scrub pass: re-verify up to `max_pages`
     * clean, settled pages against the durable image and repair
     * mismatches from the still-clean DRAM copy.  Budget-aware: the
     * pass yields entirely while the dirty set is near the budget, so
     * scrubbing never competes with the flush path for headroom.
     */
    ScrubReport scrubPass(std::uint64_t max_pages);

    /** Flush-commit sidecar entry for a page (test/audit hook). */
    struct SidecarEntry
    {
        /** CRC32C committed for the page's last verified flush. */
        std::uint64_t crc = 0;

        /** Global commit sequence number (monotonic). */
        std::uint64_t commitSeq = 0;

        /**
         * Stored (compressed) size of the committed image in bytes;
         * 0 means the page landed raw.  The CRC above stays over the
         * RAW page either way — recovery decompresses first, then
         * verifies (DESIGN.md §11).
         */
        std::uint64_t storedLength = 0;

        /** True once the page has had at least one verified commit. */
        bool valid = false;
    };
    const SidecarEntry &sidecarEntry(PageNum page) const;

    /** Bytes that would need flushing if power failed now. */
    std::uint64_t dirtyBytes() const;

    /** Current dirty-page count. */
    std::uint64_t dirtyPageCount() const;

    /** Retune the dirty budget (battery capacity change). */
    void setDirtyBudget(std::uint64_t pages);

    bool isBaseline() const { return !config_.enforceBudget; }

    DirtyBudgetController &controller();
    const DirtyBudgetController &controller() const;
    mmu::Mmu &mmu() { return mmu_; }
    sim::SimContext &ctx() { return ctx_; }
    storage::Ssd &ssd() { return ssd_; }
    const ViyojitConfig &config() const { return config_; }
    std::uint64_t capacityPages() const { return capacityPages_; }
    std::uint64_t mappedPages() const { return nextFreePage_; }

    /** Retry/timeout/abort counters of the simulated backend. */
    const IoFaultStats &ioFaultStats() const
    {
        return backend_.faultStats();
    }

    /** Content version of a page (test/verification hook). */
    std::uint64_t pageVersion(PageNum page) const;

    /** Pages written at least once over the manager's lifetime. */
    std::uint64_t writtenPageCount() const;

    /**
     * CRC32C of the page's live content (common/checksum.hh) — the
     * same checksum the flush path commits to the sidecar, so the
     * audit, the scrubber, and recovery all verify through one code
     * path.
     */
    std::uint64_t pageContentHash(PageNum page) const;

    /**
     * Measured stored size of a page under the pagezip codec
     * (common/pagezip.hh), used by the SSD's transparent-compression
     * model (section 7 extension).  Returns 0 — store raw — when
     * compression is disabled on the SSD or the page trips the
     * incompressible bypass; otherwise the exact compressed byte
     * count (< pageSize).  When compression is enabled the measured
     * ratio is also recorded in the dirty tracker, whose EWMA and
     * floor ratios feed the budget arithmetic.
     */
    std::uint64_t measuredStoredSize(PageNum page);

  private:
    /**
     * PagingBackend implementation over the simulated substrate.
     *
     * Fault handling: each page copy is a chain of submit attempts.
     * An attempt that completes with an error — or outlives its
     * per-IO deadline — is retried after an exponential backoff with
     * jitter, up to ViyojitConfig::maxIoRetries attempts; exhaustion
     * aborts the copy (controller_->onPersistAborted, page stays
     * dirty).  A generation counter per copy makes timed-out
     * stragglers' completions harmless.
     */
    class SimBackend : public PagingBackend
    {
      public:
        explicit SimBackend(ViyojitManager &mgr)
            : mgr_(mgr), jitterRng_(mgr.config_.retrySeed)
        {}

        std::uint64_t pageCount() const override;
        std::uint64_t pageSize() const override;
        void protectPage(PageNum page) override;
        void unprotectPage(PageNum page) override;
        void scanAndClearDirty(
            bool flush_tlb,
            FunctionRef<void(PageNum, bool)> visitor) override;
        void persistRunAsync(PageNum first, unsigned count) override;
        void persistPageBlocking(PageNum page) override;
        void waitForPersist(PageNum page) override;
        void waitForAnyPersist() override;
        unsigned outstandingIos() const override;
        bool canSubmit() const override;

        const IoFaultStats &faultStats() const { return faultStats_; }

        /** True while `page`'s last copy ended in an abort (left
         *  dirty); cleared by a later successful persist. */
        bool wasAborted(PageNum page) const
        {
            return abortedPages_.contains(page);
        }

      private:
        /** One logical page copy (possibly spanning attempts). */
        struct PendingCopy
        {
            /** Next tick at which this copy's state advances. */
            Tick nextEvent = 0;

            /** Device completion tick of the current attempt. */
            Tick completion = 0;

            /** Submit attempts made so far. */
            unsigned attempts = 0;

            /** Invalidates stragglers from abandoned attempts. */
            std::uint64_t generation = 0;

            /**
             * Content hash the current attempt carries to the device.
             * The read-back verify compares the durable image against
             * THIS, not the live page: a page redirtied while its
             * copy is in flight is the tracker's business, not a
             * verify failure.
             */
            std::uint64_t submittedHash = 0;

            /**
             * Stored (compressed) size the current attempt carries;
             * 0 = raw.  Committed to the sidecar alongside the hash
             * so recovery knows how to read the durable image.
             */
            std::uint64_t submittedStored = 0;
        };

        /** Launch the next submit attempt for `page`. */
        void submitAttempt(PageNum page);

        /**
         * Launch the (single) coalesced attempt for a run.  Pages
         * whose slice fails — or times out — leave the run and retry
         * through the per-page attempt chain.
         */
        void submitRunAttempt(PageNum first, unsigned count);

        /** Completion of an attempt (any status). */
        void onAttemptComplete(PageNum page, std::uint64_t generation,
                               storage::IoStatus status,
                               bool from_run = false);

        /** The per-IO deadline fired before the attempt completed. */
        void onAttemptTimeout(PageNum page, std::uint64_t generation);

        /** Schedule a backoff retry, or abort after maxIoRetries. */
        void retryOrAbort(PageNum page);

        /** Exponential backoff with jitter for attempt `n` (1-based). */
        Tick backoffFor(unsigned attempt);

        ViyojitManager &mgr_;
        std::unordered_map<PageNum, PendingCopy> inFlight_;
        std::unordered_set<PageNum> abortedPages_;
        Rng jitterRng_;
        std::uint64_t nextGeneration_ = 0;
        IoFaultStats faultStats_;
    };

    void scheduleNextEpoch();
    storage::StorageKey key(PageNum page) const;

    /** Record a verified flush commit for `page` (checksum `crc`,
     *  stored length `stored_len`; 0 = raw).  Ordered after
     *  durability: called only from completion paths that have
     *  already read the durable image back. */
    void commitSidecar(PageNum page, std::uint64_t crc,
                       std::uint64_t stored_len);

    /** True when `page` is neither dirty nor mid-copy (scrub/audit
     *  may trust its DRAM copy to match the durable image). */
    bool pageSettled(PageNum page) const;

    /**
     * Rewrite one settled page from its clean DRAM copy, verifying
     * the durable image after each attempt; bounded by maxIoRetries.
     * Returns false (page left corrupt) on exhaustion.
     */
    bool repairPageBlocking(PageNum page);

    sim::SimContext &ctx_;
    storage::Ssd &ssd_;
    ViyojitConfig config_;
    std::uint64_t capacityPages_;
    std::uint32_t regionId_;

    mmu::Mmu mmu_;
    SimBackend backend_;
    std::unique_ptr<DirtyBudgetController> controller_;

    /** Baseline-mode dirty set (no faults fire in that mode). */
    std::unique_ptr<DirtyPageTracker> baselineDirty_;

    std::vector<char> data_;
    std::vector<std::uint64_t> versions_;

    /** Per-page flush-commit metadata (the sim's sidecar). */
    std::vector<SidecarEntry> sidecar_;
    std::uint64_t nextCommitSeq_ = 0;

    /** Codec output scratch (pagezipBound(pageSize); reused, never
     *  grown — the copy-out path stays allocation-free). */
    std::vector<std::uint8_t> zipScratch_;

    /** Resume point of the incremental background scrub sweep. */
    PageNum scrubCursor_ = 0;

    PageNum nextFreePage_ = 0;
    bool running_ = false;

    /**
     * The per-IO timeout exists to bound tail latency for foreground
     * service; during the last-gasp power-failure flush there is no
     * foreground, and abandoning attempts could make a device slower
     * than the timeout unable to persist anything.  Timeouts are
     * disarmed while this is set.
     */
    bool lastGaspFlush_ = false;

    std::uint64_t epochGeneration_ = 0;
};

} // namespace viyojit::core

#endif // VIYOJIT_CORE_MANAGER_HH
