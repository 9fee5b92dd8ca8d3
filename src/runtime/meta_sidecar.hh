/**
 * @file
 * Durable flush-commit metadata for the mprotect runtime: a sidecar
 * file (`<backing>.meta`) holding a per-page CRC32C commit record
 * plus a double-buffered sealed header, so recovery can verify every
 * reloaded page and classify mismatches (torn flush tail vs. silent
 * corruption vs. stale epoch) instead of trusting the image blindly.
 *
 * On-disk layout (little-endian, fixed offsets):
 *
 *   [0, 64)      header slot 0
 *   [512, 576)   header slot 1
 *   [4096, ...)  32-byte per-page entries, indexed by page number
 *
 * Header slots alternate by generation (even -> slot 0, odd -> slot
 * 1); each carries its own CRC32C, and the reader picks the highest
 * valid generation, so a torn header write can never destroy the
 * previous seal.
 *
 * Commit protocol (ordering is the whole point):
 *
 *   1. recordPage()    entry rewritten as PENDING (before the data
 *                      write: a crash from here on is detectable as
 *                      a torn flush, not silent corruption);
 *   2. data pwrite     (the caller's persist path);
 *   3. markWritten()   the page joins the pending-promotion set —
 *                      only AFTER its data write returned — tagged
 *                      with the run id of the persist it completed;
 *   4. commitPending() snapshot the set and each page's written run,
 *                      fdatasync the DATA file, then rewrite as
 *                      COMMITTED every snapshotted entry whose record
 *                      still belongs to that run, and fdatasync the
 *                      sidecar.  An entry can therefore only read
 *                      COMMITTED if its data was durable first; a
 *                      record a newer persist replaced stays PENDING
 *                      until that persist's own barrier.
 *   5. seal()          (off the fault path) stamps the header with
 *                      the epoch/run high-water mark, closing the
 *                      torn-tail classification window.
 *
 * NvRegion runs step 4 from a background write-behind thread whenever
 * the unsynced set (pages past step 3, not yet in a barrier) reaches
 * its dirty budget, after each multi-page run, after a scrub repair,
 * and at the cut and at teardown (DESIGN.md §10).
 *
 * Every step reachable from the SIGSEGV admission path (1-4) is
 * allocation-free and lock-free: fixed preallocated buffers, atomic
 * bitmap words, and a single-promoter claim flag instead of a mutex
 * (a contended commitPending still makes the data durable; its pages
 * simply stay PENDING until the next barrier, which is safe — only
 * COMMITTED claims durability).  Only the cut's barrier
 * (IfPromoting::wait, never in signal context) waits the claim out.
 * `python3 tools/pathlint --contract sigsafe` walks this TU.
 */

#ifndef VIYOJIT_RUNTIME_META_SIDECAR_HH
#define VIYOJIT_RUNTIME_META_SIDECAR_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/types.hh"

namespace viyojit::runtime
{

/** One page's commit record as stored on disk (32 bytes, v2). */
struct MetaEntry
{
    /**
     * CRC32C of the RAW page content the flush carried — never the
     * compressed stream.  Recovery decompresses first (when
     * storedLen != 0), then verifies, so the codec and the checksum
     * stay independent failure domains (DESIGN.md §11).
     */
    std::uint32_t crc = 0;

    /** MetaSidecar::kInvalid / kPending / kCommitted. */
    std::uint32_t flags = 0;

    /** Flush epoch the persist belonged to. */
    std::uint64_t epoch = 0;

    /** Id of the flush submission (shared by a coalesced run). */
    std::uint64_t runId = 0;

    /**
     * Stored length of the durable image in the page's slot: 0 = the
     * full raw page; otherwise the pagezip stream's byte count (the
     * slot's remainder is stale garbage, ignored by recovery).
     */
    std::uint32_t storedLen = 0;

    /** CRC32C of the 28 bytes above; a torn entry write fails it. */
    std::uint32_t entryCrc = 0;
};

static_assert(sizeof(MetaEntry) == 32, "on-disk entry layout");

/** Recovery-time summary of what open() found. */
struct MetaLoadStats
{
    /** Entries whose self-CRC failed (torn/rotted metadata). */
    std::uint64_t badEntries = 0;

    /** Highest valid header generation found (0 = none). */
    std::uint64_t generation = 0;
};

/** The durable sidecar; one instance per NvRegion. */
class MetaSidecar
{
  public:
    static constexpr std::uint64_t kMagic = 0x3154454D4F594956ULL;

    /**
     * v2 added MetaEntry::storedLen (compressed flush images).  v1
     * files fail the header check and recover on the legacy
     * unverified path, exactly like a missing sidecar — acceptable
     * because the sidecar is an integrity cache, not data.
     */
    static constexpr std::uint32_t kVersion = 2;

    /** Entry states (MetaEntry::flags). */
    static constexpr std::uint32_t kInvalid = 0;
    static constexpr std::uint32_t kPending = 1;
    static constexpr std::uint32_t kCommitted = 2;

    static constexpr std::uint64_t kSlotOffset[2] = {0, 512};
    static constexpr std::uint64_t kEntriesOffset = 4096;

    /**
     * Create (or truncate) a sidecar for a fresh region: all entries
     * invalid, header sealed at generation 1 / epoch 0.  Fatal on IO
     * errors — creation is setup, not the fault path.
     */
    static std::unique_ptr<MetaSidecar> create(
        const std::string &path, std::uint64_t page_count,
        std::uint64_t page_size);

    /**
     * Open an existing sidecar for recovery.  Returns nullptr when
     * the file is missing or no header slot validates (legacy image:
     * the caller recovers unverified and starts a fresh sidecar).
     * Entries failing their self-CRC load as kInvalid and are
     * counted in loadStats().
     */
    static std::unique_ptr<MetaSidecar> open(
        const std::string &path, std::uint64_t page_count,
        std::uint64_t page_size);

    ~MetaSidecar();

    MetaSidecar(const MetaSidecar &) = delete;
    MetaSidecar &operator=(const MetaSidecar &) = delete;

    // ---- fault-path interface (allocation/lock-free) ---- //

    /**
     * Step 1: rewrite the page's entry as PENDING with the CRC (of
     * the RAW page) and stored length the flush is about to make
     * durable (`stored_len` 0 = raw).  Call BEFORE the data write —
     * a crash mid-write then reads as torn, never silent.  IO errors
     * are counted (entryWriteErrors()), not raised — the fault path
     * cannot log, and a missing pending record only degrades a
     * future mismatch's classification.
     */
    void recordPage(PageNum page, std::uint32_t crc,
                    std::uint64_t epoch, std::uint64_t run_id,
                    std::uint32_t stored_len = 0);

    /**
     * Step 3: the data pwrite of persist `run_id` (the id its
     * recordPage() carried; nonzero) returned, so the next barrier
     * may promote the page — unless a newer recordPage() has
     * replaced that record by then.
     */
    void markWritten(PageNum page, std::uint64_t run_id);

    /** What commitPending() does while another barrier promotes. */
    enum class IfPromoting
    {
        /** fdatasync only; this call's pages stay PENDING for the
         *  next barrier.  Lock-free and signal-safe. */
        syncOnly,
        /** Yield until the running promotion ends, then promote
         *  everything pending.  Never in signal context. */
        wait,
    };

    /**
     * Step 4, the group durability barrier: fdatasync `data_fd`,
     * then promote every page whose markWritten() preceded this
     * call.  If another barrier is mid-promotion, `if_promoting`
     * decides; the data fdatasync runs either way (that is the
     * caller's contract).  Pages whose data sync or entry write
     * failed stay pending for the next barrier.  Returns 0 or the
     * first errno.
     */
    int commitPending(int data_fd,
                      IfPromoting if_promoting = IfPromoting::syncOnly);

    /**
     * Step 5: seal the header (alternating slot, generation + 1)
     * recording the epoch/run high-water mark.  Not fault-path.
     * Returns 0 or errno.
     */
    int seal(std::uint64_t epoch, std::uint64_t run_id);

    // ---- recovery / inspection ---- //

    /** In-memory view of a page's entry (coherent snapshot). */
    MetaEntry entry(PageNum page) const;

    std::uint64_t pageCount() const { return pageCount_; }

    /** Epoch high-water mark of the last durable seal. */
    std::uint64_t lastSealedEpoch() const { return lastSealedEpoch_; }

    /** Run-id high-water mark of the last durable seal. */
    std::uint64_t lastSealedRunId() const { return lastSealedRunId_; }

    const MetaLoadStats &loadStats() const { return loadStats_; }

    /**
     * Pages whose data write returned but that no barrier has covered
     * yet: the write-back a cut needs beyond the dirty set.  The size
     * of the pending-promotion set, read without a lock; it may run
     * ahead of the set by the markWritten() calls in progress.
     */
    std::uint64_t unsyncedPages() const
    {
        return unsynced_.load(std::memory_order_relaxed);
    }

    /** Pending-entry pwrites that failed on the fault path. */
    std::uint64_t entryWriteErrors() const
    {
        return entryWriteErrors_.load(std::memory_order_relaxed);
    }

  private:
    MetaSidecar(int fd, std::uint64_t page_count,
                std::uint64_t page_size);

    /** Serialize + pwrite one entry at its fixed slot. */
    int writeEntry(PageNum page, std::uint32_t crc,
                   std::uint32_t flags, std::uint64_t epoch,
                   std::uint64_t run_id, std::uint32_t stored_len);

    int fd_ = -1;
    std::uint64_t pageCount_ = 0;
    std::uint64_t pageSize_ = 0;

    /** Shadow of the on-disk entries; per-field atomics so the
     *  scrubber and a promoter can read while persists record. */
    struct Shadow
    {
        std::atomic<std::uint32_t> crc{0};
        std::atomic<std::uint32_t> flags{0};
        std::atomic<std::uint64_t> epoch{0};

        /** Also the record's sequence word: recordPage() zeroes it
         *  while it rewrites the other fields, so a promoter that
         *  reads the same nonzero run before and after them read
         *  one record whole. */
        std::atomic<std::uint64_t> runId{0};

        std::atomic<std::uint32_t> storedLen{0};

        /** Run whose data write markWritten() last reported. */
        std::atomic<std::uint64_t> writtenRun{0};

        /** writtenRun as the claimed promoter snapshotted it
         *  (guarded by promoting_). */
        std::uint64_t promoteRun = 0;
    };
    std::unique_ptr<Shadow[]> shadow_;

    /** Return `bits` of pending_ word `word` to the set after a
     *  failed promotion (claimed promoter only). */
    void handBack(std::uint64_t word, std::uint64_t bits);

    /** Pages written-but-unpromoted, one bit each. */
    std::unique_ptr<std::atomic<std::uint64_t>[]> pending_;

    /** Bits set in pending_ (unsyncedPages()). */
    std::atomic<std::uint64_t> unsynced_{0};

    /** Promotion scratch (guarded by promoting_). */
    std::unique_ptr<std::uint64_t[]> snapshot_;
    std::uint64_t words_ = 0;

    /** Single-promoter claim for commitPending's promotion phase. */
    std::atomic<bool> promoting_{false};

    std::atomic<std::uint64_t> entryWriteErrors_{0};

    std::uint64_t generation_ = 0;
    std::uint64_t lastSealedEpoch_ = 0;
    std::uint64_t lastSealedRunId_ = 0;

    MetaLoadStats loadStats_;
};

} // namespace viyojit::runtime

#endif // VIYOJIT_RUNTIME_META_SIDECAR_HH
