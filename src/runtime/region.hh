/**
 * @file
 * Real-memory Viyojit runtime (the paper's 1,500-line shared
 * library, section 5), sharded for multi-threaded applications.
 *
 * An NvRegion is an mmap'd area whose pages start write-protected;
 * a fault signal (SIGBUS under userfaultfd, SIGSEGV under mprotect)
 * delivers first writes to the same DirtyBudgetController the
 * simulator uses; a background epoch thread samples update recency;
 * pages are persisted to a backing file with pwritev/fdatasync, each
 * under a CRC32C commit record in the `<backing>.meta` sidecar that
 * recovery verifies the reloaded image against (DESIGN.md §10).
 *
 * When a persist is durable.  A page turns clean once its pwrite
 * returns, but only a commit barrier (an fdatasync, then the
 * sidecar's COMMITTED records) makes it durable.  One rule covers
 * every persist, single page or multi-page run: no persist syncs on
 * its own.  Each region runs one background write-behind thread that
 * issues a barrier whenever the unsynced set — pages written since
 * the last barrier — reaches the dirty budget; a scrub tick that
 * repaired pages, flushAll() and teardown issue their own.  A cut
 * therefore writes back at most the dirty set plus less than one
 * budget of earlier persists (DESIGN.md §10), and the fault path
 * never reaches an fdatasync.
 *
 * Substitution note: the paper write-protects PTEs and reads and
 * clears their dirty bits through a kernel module.  Userspace cannot
 * do that portably.  Where the kernel grants it, the region
 * write-protects through userfaultfd: protection is the PTE's uffd-wp
 * bit, the region stays one mapping, and with UFFD_FEATURE_SIGBUS a
 * fault arrives as SIGBUS on the faulting thread, so no handler
 * thread is needed.  Where userfaultfd is refused (seccomp, an old
 * kernel, a non-x86-64 build) the region uses mprotect(PROT_READ),
 * and each protection change splits or merges the mapping under the
 * mm write lock.  protection() names the primitive in use.  Either
 * way the epoch scan re-write-protects dirty pages instead of
 * clearing dirty bits — a page that faults again before the next
 * scan was "dirty" in that epoch.  This preserves the recency signal
 * exactly, at the cost of one extra fault per page per epoch of
 * activity, which is the overhead the paper's MMU discussion
 * (section 5.4) also attributes to software-only implementations.
 * The re-protection is one call per shard per epoch, over the span
 * from the shard's first to its last written page, made after the
 * shard lock is released (DESIGN.md §6).
 *
 * A never-written page of a userfaultfd region has no PTE: its first
 * access is a missing-page fault.  A first write is admitted and
 * maps a zeroed writable page; a first read maps a zeroed
 * write-protected page without admitting it.  A system call that
 * reads such a page before the application touched it (write(fd, p,
 * n)) therefore fails with EFAULT, where mprotect gave it zeros.
 *
 * Sharding.  The page space is split into power-of-two-sized
 * contiguous blocks; each shard owns a block with its own controller
 * (dirty tracker, recency buckets, victim selection), its own
 * writable bitmaps, and its own mutex, so threads writing different
 * shards fault, admit, and persist fully in parallel.  An epoch tick
 * holds each shard lock only to fold its written pages into recency
 * and re-protects them after releasing it.  The battery's single
 * dirty budget is held in a core::BudgetPool: shards carry a local
 * quota and borrow/return batches through lock-free pool
 * operations, so the durability invariant — summed dirty pages never
 * exceed the battery budget — holds at every instant while the fault
 * path touches only its shard's lock.  Quota moves between shards
 * only through the pool: a fault at a full quota refills from it or
 * else evicts one of its own shard's pages, in one attempt.
 * `shards = 1` (the default) bypasses the pool entirely and behaves
 * exactly like the pre-sharding runtime.
 *
 * LOCK ORDERING.  Five lock classes exist; deadlock freedom rests on
 * these four rules, the first three encoded as Clang Thread Safety
 * annotations (common/thread_annotations.hh) so a clang build with
 * `-Wthread-safety -Werror` rejects violations — see DESIGN.md §8
 * for the rule-by-rule annotation map.  The fault path takes only
 * its own shard lock, plus the copier queue's leaf lock (rule 3):
 *
 *   1. Shard locks are peers.  No thread acquires a second shard
 *      lock while holding one, with a single exception: the coherent
 *      snapshot (stats()) acquires ALL shard locks in ascending
 *      shard order.  stats() never blocks on IO while holding them,
 *      and since every other thread holds at most one shard lock and
 *      never waits for another, the ascending sweep cannot cycle.
 *      (The dynamic all-shards sweep is beyond the static lock-set
 *      model; stats() is the runtime's one NO_THREAD_SAFETY_ANALYSIS
 *      function, covered by the TSan suites.)  Retunes
 *      (setDirtyBudget()) deliberately do NOT use this exception: a
 *      shrink can wait on copier IO, so it claws quota back one
 *      shard lock at a time under the region retune mutex — taken
 *      before any shard lock, never while holding one, which is
 *      Shard::lock's ACQUIRED_AFTER(owner->retuneLock_).
 *   2. The budget pool is lock-free on the fault path (CAS
 *      borrow/deposit); its retune mutex is taken only by
 *      total-changing operations (grow/confiscate/destroy, each
 *      EXCLUDES(retuneLock_)) and nests inside whatever single
 *      shard lock the caller holds.
 *   3. The copier pool's queue lock is a leaf: submissions happen
 *      under a shard lock (CopierPool::submit EXCLUDES its queue
 *      lock), but copier workers never hold the queue lock while
 *      persisting or completing (completions re-acquire the owning
 *      shard's lock only).
 *   4. The sidecar's barrier lock (MetaSidecar::commitPending) is a
 *      leaf that is never taken with a shard lock held: the
 *      write-behind thread, flushAll() and teardown take it after
 *      releasing every shard lock, and scrubTick() commits its
 *      repairs after its last shard guard closes.  A barrier holds it
 *      across both fdatasyncs and acquires nothing under it.  The
 *      analysis cannot name a shard lock from the sidecar, so this
 *      rule is prose; pathlint's sigsafe contract hard-denies
 *      fdatasync, which keeps the barrier off the fault path.
 *
 * Shard state (controller, backend bitmaps, IO bookkeeping) is
 * GUARDED_BY/PT_GUARDED_BY the shard lock.  Condition waits go
 * through common::CondVar, whose wait() REQUIRES the annotated
 * mutex and internally adopts/releases the native handle — the
 * reason the locks wrap plain std::mutex; the runtime deliberately
 * has no recursive locking.
 */

#ifndef VIYOJIT_RUNTIME_REGION_HH
#define VIYOJIT_RUNTIME_REGION_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.hh"
#include "common/types.hh"
#include "core/budget_pool.hh"
#include "core/config.hh"
#include "core/controller.hh"
#include "core/paging_backend.hh"

struct iovec;

namespace viyojit::runtime
{

class CopierPool;
class MetaSidecar;

/**
 * fdatasync with bounded retry: EINTR/EAGAIN are retried up to
 * `attempts` times; any other errno — or retry exhaustion — is
 * returned to the caller (0 on success).  The runtime escalates a
 * nonzero return to fatal(); tests call this directly to assert the
 * error path.
 */
int fdatasyncWithRetry(int fd, unsigned attempts = 8);

/**
 * pwrite the whole buffer with bounded retry on EINTR/EAGAIN and on
 * short writes.  Returns 0 on success or the last errno (EIO for a
 * persistent short write).
 */
int pwriteFullyWithRetry(int fd, const void *buf, std::uint64_t len,
                         std::uint64_t offset, unsigned attempts = 8);

/**
 * Advance an iovec array past `done` bytes already transferred:
 * fully-consumed leading entries are skipped, and the first partially
 * consumed entry has its base/len adjusted in place.  Returns the
 * index of the first incomplete entry (== `iovcnt` when `done` covers
 * the whole array).  This is the resumption arithmetic of the
 * vectored write path, split out so tests can drive the partial-write
 * cases directly.
 */
unsigned advanceIovecs(struct iovec *iov, unsigned iovcnt,
                       std::uint64_t done);

/**
 * pwritev the whole iovec array with bounded retry on EINTR/EAGAIN
 * and on short writes (resuming mid-array via advanceIovecs), and
 * transparent chunking past the IOV_MAX syscall limit.  The array is
 * clobbered as a side effect of resumption.  Returns 0 on success or
 * the last errno (EIO for a persistent short write) — same contract
 * as pwriteFullyWithRetry.
 */
int pwritevFullyWithRetry(int fd, struct iovec *iov, unsigned iovcnt,
                          std::uint64_t offset, unsigned attempts = 8);

/**
 * pread the whole buffer with bounded retry on EINTR/EAGAIN and on
 * short reads.  Hitting EOF before `len` bytes is an error (EIO):
 * recovery sizes its reads from the file, so a short image means the
 * file shrank or the device lied.  Returns 0 on success or the last
 * errno — the read-side mirror of pwriteFullyWithRetry.
 */
int preadFullyWithRetry(int fd, void *buf, std::uint64_t len,
                        std::uint64_t offset, unsigned attempts = 8);

/**
 * Runtime tunables.  The controller knobs not named here run at the
 * core::ViyojitConfig defaults (the paper's values).
 */
struct RuntimeConfig
{
    /** Dirty budget in pages (required, >= 1). */
    std::uint64_t dirtyBudgetPages = 0;

    /** Epoch length in host microseconds (paper: 1000). */
    std::uint64_t epochMicros = 1000;

    /** Start the background epoch thread in create()/recover(). */
    bool startEpochThread = true;

    /**
     * Page-space shards (a power of two).  1 — the default — is the
     * unsharded runtime: one controller, one lock, no budget pool.
     * Sharded regions need `dirtyBudgetPages >= shards`.
     */
    unsigned shards = 1;

    /**
     * Background copier threads draining per-shard victim queues.
     * 0 — the default — persists pages inline on the submitting
     * thread (deterministic).  With copiers, a budget-limited fault
     * sheds its eviction to the copier pipeline and blocks only
     * until the FIRST completion, instead of paying one synchronous
     * device write (core::ViyojitConfig::shedBlockedEvictions).
     */
    unsigned copierThreads = 0;

    /**
     * Longest run of page-number-adjacent victims one vectored write
     * (pwritev) may carry (core::ViyojitConfig::maxRunPages).  1 —
     * the default — writes one page per IO.  A run's pages wait for
     * the next commit barrier like any other persist.
     */
    unsigned maxRunPages = 1;

    /**
     * log2 pages per extent for locality-aware victim selection
     * (core::ViyojitConfig::extentShift); 0 disables.
     */
    unsigned extentShift = 0;

    /**
     * Pages the background scrubber verifies against the durable
     * image per epoch boundary (epoch thread only; epochTick() never
     * scrubs).  0 — the default — disables scrubbing; tests may also
     * drive scrubTick() directly.
     */
    std::uint64_t scrubPagesPerEpoch = 0;

    /**
     * Compress page images on the copy-out path (common/pagezip):
     * copier threads compress each victim page, ship the smaller
     * stream to the page's slot in the backing file, and record the
     * stored length in the sidecar commit record so recovery
     * decompresses before verifying the RAW-page CRC (DESIGN.md
     * §11).  Incompressible pages bypass to raw automatically.
     *
     * Requires copierThreads > 0: inline persists run on the SIGSEGV
     * admission path, which must never reach the codec (`python3
     * tools/pathlint --contract sigsafe` hard-fails if it does), so
     * create() rejects compressFlush without copiers.  Fault-path
     * blocking persists (synchronous evictions, scrub repairs) still
     * write raw, which is safe: a raw write covers the whole slot and
     * records storedLen = 0.
     */
    bool compressFlush = false;
};

/** Runtime statistics snapshot (coherent across shards). */
struct RegionStats
{
    std::uint64_t writeFaults = 0;
    std::uint64_t blockedEvictions = 0;
    std::uint64_t proactiveCopies = 0;
    std::uint64_t epochs = 0;
    std::uint64_t dirtyPages = 0;
    std::uint64_t bytesPersisted = 0;

    /** Shards in the region (1 = unsharded). */
    std::uint64_t shards = 1;

    /** Quota batches borrowed from / returned to the budget pool. */
    std::uint64_t quotaBorrowedPages = 0;
    std::uint64_t quotaReturnedPages = 0;

    /** Always 0: quota moves only through the pool, so nothing
     *  steals it from a sibling shard.  Kept while the repository
     *  benchmark still reads it (ROADMAP item 8). */
    std::uint64_t quotaSteals = 0;

    /** Hysteretic quota migration, the only way quota moves between
     *  shards: batched refills taken when spare quota crossed the low
     *  watermark, and proactive donations made above the high
     *  watermark at epoch boundaries and copy completions. */
    std::uint64_t watermarkRefills = 0;
    std::uint64_t proactiveDonations = 0;

    /** Budget-limited faults shed to the async copier pipeline
     *  instead of paying a synchronous device write. */
    std::uint64_t shedEvictions = 0;

    /** Always 0: a fault admits on its one attempt, so it never
     *  retries or starves.  Kept while the repository benchmark still
     *  reads them (ROADMAP item 8). */
    std::uint64_t backoffRetries = 0;
    std::uint64_t starvedFaults = 0;

    /** Coalesced run IOs submitted and the pages they carried. */
    std::uint64_t runSubmits = 0;
    std::uint64_t runPagesCoalesced = 0;

    /** Runs degraded to per-page jobs by a backlogged copier ring. */
    std::uint64_t runFallbacks = 0;

    /** Unassigned pages in the budget pool (0 when unsharded). */
    std::uint64_t poolAvailablePages = 0;

    /** Summed per-shard quotas plus the pool (== battery budget). */
    std::uint64_t dirtyBudgetPages = 0;

    /** Scrub progress: durable pages checked against their commit
     *  records, mismatches found, and repairs (re-persisted from the
     *  still-clean DRAM copy). */
    std::uint64_t scrubScanned = 0;
    std::uint64_t scrubSkippedBusy = 0;
    std::uint64_t scrubMismatches = 0;
    std::uint64_t scrubRepaired = 0;

    /** Sidecar commit-record writes that failed on the flush path
     *  (degrades recovery classification, never durability). */
    std::uint64_t metaEntryWriteErrors = 0;

    /** Pages written to the backing file but not yet covered by a
     *  commit barrier: the write-back a cut needs beyond the dirty
     *  set.  The write-behind thread keeps it under about one
     *  budget. */
    std::uint64_t unsyncedPages = 0;

    /** Copy-out compression (compressFlush): pages shipped as a
     *  pagezip stream, pages the codec bypassed to raw, and the
     *  bytes the compressed path actually put on the wire
     *  (bytesPersisted stays in RAW bytes — the ratio between the
     *  two is the achieved compression). */
    std::uint64_t compressedPersists = 0;
    std::uint64_t compressBypasses = 0;
    std::uint64_t storedBytesPersisted = 0;

    /** Per-shard migration counters (empty when unsharded): where
     *  the aggregates above came from, so a skewed workload's hot
     *  shard is visible instead of averaged away. */
    struct ShardCounters
    {
        std::uint64_t watermarkRefills = 0;
        std::uint64_t proactiveDonations = 0;
    };
    std::vector<ShardCounters> perShard;
};

/** What recovery found while reloading and verifying the image. */
struct RuntimeRecoveryReport
{
    /** A valid sidecar header was found and used for verification.
     *  False = no valid `.meta`: contents load unverified and a fresh
     *  sidecar starts. */
    bool sidecarFound = false;

    /** Pages whose content matched their commit record. */
    std::uint64_t verifiedPages = 0;

    /** Pages with no (valid) commit record — nothing to check. */
    std::uint64_t unverifiedPages = 0;

    /** Pages whose content failed their commit record's CRC. */
    std::uint64_t checksumMismatches = 0;

    /** Mismatch classes (see DESIGN.md §10): torn flush tail,
     *  data-ahead-of-sealed-metadata, silent media corruption. */
    std::uint64_t tornRunPages = 0;
    std::uint64_t staleEpochPages = 0;
    std::uint64_t silentCorruptPages = 0;

    /** Sidecar entries whose own CRC failed (torn metadata). */
    std::uint64_t badEntries = 0;

    /** Pages whose durable image was a pagezip stream that decoded
     *  and verified cleanly (a subset of verifiedPages). */
    std::uint64_t compressedPages = 0;

    /**
     * Pages settled as known-bad: unreadable after bounded retries
     * (zero-filled) or failed checksum verification (content kept,
     * but untrustworthy).  The caller must not trust these pages.
     */
    std::vector<PageNum> quarantined;
};

/** How a region write-protects its pages (NvRegion::protection()). */
enum class Protection
{
    /** The PTE's userfaultfd write-protect bit; faults arrive as
     *  SIGBUS and the region stays one mapping. */
    userfaultfd,

    /** mprotect(PROT_READ); faults arrive as SIGSEGV.  The fallback
     *  where the kernel refuses userfaultfd. */
    mprotect,
};

/** A battery-bounded non-volatile memory region over real pages. */
class NvRegion
{
  public:
    /**
     * Create a region of `bytes` backed by `backing_path` (created or
     * truncated).  Memory starts zeroed and clean.
     */
    static std::unique_ptr<NvRegion> create(
        const std::string &backing_path, std::uint64_t bytes,
        const RuntimeConfig &config);

    /**
     * Recover a region from an existing backing file: contents are
     * loaded back into memory and every page starts clean.
     */
    static std::unique_ptr<NvRegion> recover(
        const std::string &backing_path, const RuntimeConfig &config);

    ~NvRegion();

    NvRegion(const NvRegion &) = delete;
    NvRegion &operator=(const NvRegion &) = delete;

    /** Base of the usable memory. */
    void *base() { return mem_; }
    const void *base() const { return mem_; }

    std::uint64_t size() const { return bytes_; }
    std::uint64_t pageCount() const { return pageCount_; }
    std::uint64_t pageSize() const { return pageSize_; }

    /** Shards the page space is split into. */
    unsigned shardCount() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    /** Run one epoch boundary synchronously (tests / manual mode). */
    void epochTick();

    /**
     * Emergency flush: persist every dirty page, then commit every
     * written page (waiting out a background barrier already
     * running) and seal.  Background barriers do not start while it
     * drains.
     * @return pages flushed.
     */
    std::uint64_t flushAll();

    /**
     * Retune the dirty budget at runtime.  Sharded regions need at
     * least one page per shard (fatal() otherwise, with nothing
     * changed), so no shard's quota reaches zero.  They shrink
     * incrementally — one shard lock at a time under the retune
     * mutex, destroying reclaimed quota so the pool total never
     * rises transiently (evicting synchronously where a shard's
     * dirty count no longer fits its shrunken quota), down to a
     * floor of two pages per shard where `pages` covers that and one
     * page otherwise.  On return the pool total equals `pages` and
     * the summed dirty count fits it.
     */
    void setDirtyBudget(std::uint64_t pages) EXCLUDES(retuneLock_);

    /**
     * Coherent snapshot across shards.  Acquires every shard lock in
     * ascending order (lock-ordering rule 1's one exception) — a
     * dynamic lock set the static analysis cannot model, so the
     * implementation is NO_THREAD_SAFETY_ANALYSIS; the TSan CI
     * suites cover it.
     */
    RegionStats stats() const;

    /** The write-protection primitive create()/recover() chose. */
    Protection protection() const
    {
        return uffd_ >= 0 ? Protection::userfaultfd
                          : Protection::mprotect;
    }

    /**
     * Handle a fault at `addr` if it belongs to this region.  `write`
     * says whether the access was a write; a read faults only on a
     * never-populated page of a userfaultfd region, which is then
     * mapped without being admitted.
     */
    bool handleFault(void *addr, bool write);

    /** What recover() found (empty report for create()). */
    const RuntimeRecoveryReport &recoveryReport() const
    {
        return recoveryReport_;
    }

    /**
     * One pass of the background scrubber: verify up to `max_pages`
     * settled (clean, no IO in flight) committed pages against the
     * durable image and re-persist any whose durable copy diverged —
     * repairing silent corruption from the still-clean DRAM copy.
     * Budget-aware: a shard found within two pages of its quota is
     * skipped for the rest of the pass (one scrubSkippedBusy).  The
     * epoch thread drives this when scrubPagesPerEpoch > 0; tests
     * call it directly.
     */
    void scrubTick(std::uint64_t max_pages);

  private:
    class ShardBackend;
    struct Shard;

    NvRegion(const std::string &backing_path, std::uint64_t bytes,
             const RuntimeConfig &config, bool recover_contents);

    void startEpochThread();
    void stopEpochThread();

    /**
     * Write-protect the whole region through userfaultfd: open a
     * descriptor with SIGBUS delivery, register the region for
     * missing-page and write-protect faults, and protect every mapped
     * page.  Returns false, with nothing left registered, if any step
     * is refused; the caller then falls back to mprotect.
     */
    bool armUserfaultfd();

    /**
     * Write-protect (`writable` false) or release global pages
     * [first, first + pages) through the region's primitive, with
     * bounded EINTR/EAGAIN retry; panics on any other failure.
     * Releasing never maps a page: see mapZeroed().
     */
    void protectRange(PageNum first, std::uint64_t pages,
                      bool writable);

    /**
     * Map a zeroed page at global `page` if it was never populated
     * (userfaultfd only; lock-free).  Returns true if this call
     * mapped it, writable or write-protected as asked; false under
     * mprotect, or if the page was already mapped.
     */
    bool mapZeroed(PageNum page, bool writable);

    /**
     * Body of the write-behind thread: every epochMicros, run a
     * commit barrier if the unsynced set has reached the current
     * dirty budget and no flushAll() is draining.  Takes no shard
     * lock; the barrier takes only the sidecar's leaf lock.
     */
    void writeBehindLoop();

    /**
     * Reload the image from the backing file's data extents only
     * (SEEK_DATA/SEEK_HOLE, rounded out to pages): holes stay as the
     * mapping's untouched zero pages.  Each extent is read in chunked
     * bulk reads with bounded retry, falling back page-by-page on
     * failure and quarantining (zero-filling) pages that stay
     * unreadable.
     */
    void loadImage();

    /** Verify the reloaded image against the sidecar and classify
     *  mismatches into recoveryReport_. */
    void verifyImage();

    unsigned shardOf(PageNum page) const
    {
        return static_cast<unsigned>(page >> ppsShift_);
    }

    /**
     * Re-derive every shard's quota watermarks from a retuned pool
     * total (fair share = total / shards).  Called under the retune
     * mutex, locking one shard at a time — no all-shards lock set,
     * no new lock-order edges.
     */
    void rederiveWatermarks(std::uint64_t total_pages);

    RuntimeConfig config_;
    std::uint64_t pageSize_;
    std::uint64_t pageCount_;
    std::uint64_t bytes_;
    char *mem_ = nullptr;
    int fd_ = -1;

    /** userfaultfd descriptor; -1 on the mprotect fallback.  Set in
     *  the constructor before any fault can reach the region. */
    int uffd_ = -1;

    /** Per page, nonzero once mapped under userfaultfd (by mapZeroed
     *  or found mapped); empty under mprotect.  Relaxed atomics: a
     *  stale zero costs one mapping attempt that finds the page. */
    std::vector<std::atomic<std::uint8_t>> populated_;

    /** log2 of pages per shard (shard index = page >> ppsShift_). */
    unsigned ppsShift_ = 0;

    std::vector<std::unique_ptr<Shard>> shards_;

    /** Global battery budget; null when unsharded. */
    std::unique_ptr<core::BudgetPool> pool_;

    /** Background copiers; null when copierThreads == 0. */
    std::unique_ptr<CopierPool> copiers_;

    std::uint64_t quotaBatch_ = 1;

    std::thread epochThread_;
    std::atomic<bool> epochRunning_{false};

    std::atomic<std::uint64_t> bytesPersisted_{0};
    std::atomic<std::uint64_t> runFallbacks_{0};

    /** Compressed copy-out accounting (copier threads only). */
    std::atomic<std::uint64_t> compressedPersists_{0};
    std::atomic<std::uint64_t> compressBypasses_{0};
    std::atomic<std::uint64_t> storedBytesPersisted_{0};

    /** Record one page shipped by the compressed persist path
     *  (stored == 0 means the codec bypassed to raw). */
    void noteCompressedShip(std::uint64_t stored, std::uint64_t raw)
    {
        if (stored != 0) {
            compressedPersists_.fetch_add(
                1, std::memory_order_relaxed);
            storedBytesPersisted_.fetch_add(
                stored, std::memory_order_relaxed);
        } else {
            compressBypasses_.fetch_add(1,
                                        std::memory_order_relaxed);
            storedBytesPersisted_.fetch_add(
                raw, std::memory_order_relaxed);
        }
    }

    /** Durable commit-record sidecar (`<backing>.meta`).  Its
     *  fault-path interface is lock-free, so persist paths use it
     *  without extra synchronization; its commit barrier serializes
     *  on its own leaf lock (lock-ordering rule 4). */
    std::unique_ptr<MetaSidecar> meta_;

    RuntimeRecoveryReport recoveryReport_;

    /** Flush epoch stamped into commit records; advances at each
     *  epoch boundary and seeds from the recovered seal. */
    std::atomic<std::uint64_t> flushEpoch_{1};

    /** Id handed to each persist submission (runs share one). */
    std::atomic<std::uint64_t> nextRunId_{1};

    /** Background scrub state (cursor is epoch-thread-only). */
    PageNum scrubCursor_ = 0;
    std::atomic<std::uint64_t> scrubScanned_{0};
    std::atomic<std::uint64_t> scrubSkippedBusy_{0};
    std::atomic<std::uint64_t> scrubMismatches_{0};
    std::atomic<std::uint64_t> scrubRepaired_{0};

    /**
     * Serializes whole-region retunes (lock-ordering rule 1: taken
     * before any shard lock, never while holding one — each shard's
     * lock declares ACQUIRED_AFTER this mutex).
     */
    common::Mutex retuneLock_;

    /** flushAll() calls draining now; background barriers wait. */
    std::atomic<unsigned> cutsInProgress_{0};

    /** The battery budget in pages (the pool total when sharded),
     *  readable without a shard lock; follows setDirtyBudget(). */
    std::atomic<std::uint64_t> budgetPages_{0};

    /** The write-behind thread (writeBehindLoop), declared after
     *  everything it reads. */
    std::atomic<bool> writeBehindRunning_{false};
    std::thread writeBehindThread_;
};

} // namespace viyojit::runtime

#endif // VIYOJIT_RUNTIME_REGION_HH
