#include "runtime/region.hh"

#include <fcntl.h>
#include <limits.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <utility>

#include "common/checksum.hh"
#include "common/logging.hh"
#include "common/pagezip.hh"
#include "runtime/copier_pool.hh"
#include "runtime/fault_dispatch.hh"
#include "runtime/meta_sidecar.hh"

// userfaultfd write protection tells reads from writes by the x86-64
// page-fault error code (fault_dispatch.cc), so other builds use
// mprotect alone.
#if defined(__x86_64__) && __has_include(<linux/userfaultfd.h>)
#define VIYOJIT_UFFD 1
#include <linux/userfaultfd.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#endif

// ThreadSanitizer cannot see write-protect ordering: a page is always
// write-protected before its image is read for persistence (the
// protect-before-copy rule), so the copier's read of page contents
// can never race an application store — but the synchronization runs
// through the MMU, which TSan does not model.  The persistence read
// is therefore annotated out.
#if defined(__SANITIZE_THREAD__)
#define VIYOJIT_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define VIYOJIT_TSAN 1
#endif
#endif

#ifdef VIYOJIT_TSAN
extern "C" void AnnotateIgnoreReadsBegin(const char *, int);
extern "C" void AnnotateIgnoreReadsEnd(const char *, int);
#define VIYOJIT_IGNORE_READS_BEGIN() \
    AnnotateIgnoreReadsBegin(__FILE__, __LINE__)
#define VIYOJIT_IGNORE_READS_END() \
    AnnotateIgnoreReadsEnd(__FILE__, __LINE__)
#else
#define VIYOJIT_IGNORE_READS_BEGIN() ((void)0)
#define VIYOJIT_IGNORE_READS_END() ((void)0)
#endif

namespace viyojit::runtime
{

namespace
{

/**
 * Run `op`, a system call returning 0 or -1 with errno, retrying
 * EINTR/EAGAIN up to `attempts` times.  Returns 0 or the last errno.
 */
template <typename Op>
int
retryInterrupted(Op op, unsigned attempts = 8)
{
    int error = 0;
    for (unsigned attempt = 0; attempt < attempts; ++attempt) {
        if (op() == 0)
            return 0;
        error = errno;
        if (error != EINTR && error != EAGAIN)
            return error;
    }
    return error;
}

} // namespace

int
fdatasyncWithRetry(int fd, unsigned attempts)
{
    return retryInterrupted([fd]() { return ::fdatasync(fd); }, attempts);
}

int
pwriteFullyWithRetry(int fd, const void *buf, std::uint64_t len,
                     std::uint64_t offset, unsigned attempts)
{
    const char *src = static_cast<const char *>(buf);
    std::uint64_t written = 0;
    unsigned failures = 0;
    while (written < len) {
        const ssize_t n =
            ::pwrite(fd, src + written, len - written,
                     static_cast<off_t>(offset + written));
        if (n > 0) {
            written += static_cast<std::uint64_t>(n);
            continue;
        }
        const int error = n < 0 ? errno : EIO;
        if (error != EINTR && error != EAGAIN && n < 0)
            return error;
        if (++failures >= attempts)
            return error;
    }
    return 0;
}

unsigned
advanceIovecs(struct iovec *iov, unsigned iovcnt, std::uint64_t done)
{
    unsigned idx = 0;
    while (idx < iovcnt && done >= iov[idx].iov_len) {
        done -= iov[idx].iov_len;
        ++idx;
    }
    if (idx < iovcnt && done > 0) {
        iov[idx].iov_base =
            static_cast<char *>(iov[idx].iov_base) + done;
        iov[idx].iov_len -= done;
    }
    return idx;
}

int
pwritevFullyWithRetry(int fd, struct iovec *iov, unsigned iovcnt,
                      std::uint64_t offset, unsigned attempts)
{
    unsigned idx = 0;
    unsigned failures = 0;
    while (idx < iovcnt) {
        const unsigned take = std::min<unsigned>(
            iovcnt - idx, static_cast<unsigned>(IOV_MAX));
        const ssize_t n = ::pwritev(fd, iov + idx,
                                    static_cast<int>(take),
                                    static_cast<off_t>(offset));
        if (n > 0) {
            offset += static_cast<std::uint64_t>(n);
            idx += advanceIovecs(iov + idx, take,
                                 static_cast<std::uint64_t>(n));
            continue;
        }
        const int error = n < 0 ? errno : EIO;
        if (error != EINTR && error != EAGAIN && n < 0)
            return error;
        if (++failures >= attempts)
            return error;
    }
    return 0;
}

int
preadFullyWithRetry(int fd, void *buf, std::uint64_t len,
                    std::uint64_t offset, unsigned attempts)
{
    char *dst = static_cast<char *>(buf);
    std::uint64_t done = 0;
    unsigned failures = 0;
    while (done < len) {
        const ssize_t n =
            ::pread(fd, dst + done, len - done,
                    static_cast<off_t>(offset + done));
        if (n > 0) {
            done += static_cast<std::uint64_t>(n);
            continue;
        }
        // n == 0 is EOF short of `len`: the image is shorter than
        // the caller was promised — persistent, but still bounded by
        // the retry budget so a racing ftruncate cannot loop forever.
        const int error = n < 0 ? errno : EIO;
        if (error != EINTR && error != EAGAIN && n < 0)
            return error;
        if (++failures >= attempts)
            return error;
    }
    return 0;
}

namespace
{

/** The kernel refused a protection change the fault path needs: the
 *  region can no longer track writes. */
[[noreturn]] void
protectionFailed(const char *what, int error)
{
    panic(what, " failed: ", std::strerror(error));
}

#ifdef VIYOJIT_UFFD
/** The source of every userfaultfd page install: one zeroed x86-64
 *  base page. */
alignas(4096) const char kZeroPage[4096] = {};
#endif

/** Global pages [first, first + pages). */
struct PageSpan
{
    PageNum first = 0;
    std::uint64_t pages = 0;
};

} // namespace

/**
 * One page-space shard: a contiguous block of pages with its own
 * controller, writable bitmaps, lock, and IO completion variable.
 * Page numbers inside the backend and controller are SHARD-LOCAL
 * (0 .. pages-1); only protection and pwrite translate to global.
 */
struct NvRegion::Shard
{
    unsigned index = 0;
    PageNum firstPage = 0;
    std::uint64_t pages = 0;

    /** Owning region; set before the lock is first acquired. */
    NvRegion *owner = nullptr;

    /**
     * Guards the controller, the backend bitmaps, and IO state.
     * Lock-ordering rule 1: shard locks are peers and nest inside
     * the region retune mutex — declared so the analysis rejects
     * taking the retune mutex while a shard lock is held.
     */
    mutable common::Mutex lock ACQUIRED_AFTER(owner->retuneLock_);

    /** Signalled when a background copy for this shard completes. */
    common::CondVar ioCv;

    std::unique_ptr<ShardBackend> backend PT_GUARDED_BY(lock);
    std::unique_ptr<core::DirtyBudgetController> controller
        PT_GUARDED_BY(lock);
};

/**
 * PagingBackend over the region's write protection and a slice of
 * the backing file.
 *
 * With no copier pool, page copies are performed inline (pwritev) —
 * the "async" interface degenerates to immediate completion.  With
 * copiers, persistRunAsync enqueues a POD job (this backend is the
 * CopierClient); the copier performs the write without the shard
 * lock (the page is write-protected for the duration) and runs the
 * completion under it.  A single page is a one-page run.  Enqueueing
 * happens on the SIGSEGV admission path, so nothing here may
 * heap-allocate in steady state (`python3 tools/pathlint --contract
 * sigsafe`).
 *
 * The PagingBackend entry points run under the shard lock (the
 * controller is externally synchronized by it), which the REQUIRES
 * annotations below make checkable; the CopierClient entry points
 * run on copier threads and manage the lock themselves.
 */
class NvRegion::ShardBackend : public core::PagingBackend,
                               public CopierClient
{
  public:
    ShardBackend(NvRegion &region, Shard &shard)
        : region_(region),
          shard_(shard),
          writableWords_((shard.pages + 63) / 64, 0),
          summary_((writableWords_.size() + 63) / 64, 0),
          ioPending_(shard.pages, 0)
    {}

    std::uint64_t pageCount() const override { return shard_.pages; }

    void
    protectPage(PageNum page) REQUIRES(shard_.lock) override
    {
        region_.protectRange(shard_.firstPage + page, 1, false);
        setWritableBit(page, false);
    }

    void
    unprotectPage(PageNum page) REQUIRES(shard_.lock) override
    {
        // A never-populated page is mapped writable in place; a
        // none-to-present install needs no TLB shootdown.
        const PageNum global = shard_.firstPage + page;
        if (!region_.mapZeroed(global, true))
            region_.protectRange(global, 1, true);
        setWritableBit(page, true);
    }

    void
    scanAndClearDirty(bool flush_tlb,
                      FunctionRef<void(PageNum, bool)> visitor)
        REQUIRES(shard_.lock) override
    {
        // Userspace dirty-bit emulation: every epoch re-protects the
        // writable (== written-this-epoch) pages, so the next write
        // faults and refreshes recency.  `flush_tlb` is implicit in
        // the re-protect (the kernel shoots down stale TLB entries).
        (void)flush_tlb;
        // Two-level bitmap walk: only words (and summary words) with
        // a writable page in them are touched, so a mostly-clean
        // shard scans in O(dirty), not O(pages).
        PageNum span_start = invalidPage;
        PageNum span_end = 0;
        for (std::uint64_t s = 0; s < summary_.size(); ++s) {
            std::uint64_t sword = summary_[s];
            if (!sword)
                continue;
            summary_[s] = 0;
            while (sword) {
                const std::uint64_t w =
                    s * 64 + static_cast<unsigned>(
                                 std::countr_zero(sword));
                sword &= sword - 1;
                std::uint64_t word = writableWords_[w];
                writableWords_[w] = 0;
                while (word) {
                    const PageNum p =
                        w * 64 + static_cast<unsigned>(
                                     std::countr_zero(word));
                    word &= word - 1;
                    visitor(p, true);
                    if (span_start == invalidPage)
                        span_start = p;
                    span_end = p + 1;
                }
            }
        }
        if (span_start == invalidPage)
            return;
        // One call covers first..last writable page (the rest of that
        // span is already read-only: under the shard lock the bitmap
        // is exactly the read-write set), so the kernel's per-call
        // cost is paid once per tick, not once per run of written
        // pages.  Protecting only adds protection, so epochTick()
        // issues it once the shard lock is released.
        reprotect_ = {shard_.firstPage + span_start,
                      span_end - span_start};
    }

    /**
     * Hand over, and forget, the span the last boundary scan left for
     * epochTick() to re-protect after the shard lock.
     */
    PageSpan
    takeReprotect() REQUIRES(shard_.lock)
    {
        return std::exchange(reprotect_, PageSpan{});
    }

    /**
     * Neither arm syncs: the written pages join the unsynced set,
     * and the region's commit barrier makes them durable (DESIGN.md
     * §10), whatever the run length.
     */
    void
    persistRunAsync(PageNum first, unsigned count)
        REQUIRES(shard_.lock) override
    {
        if (!region_.copiers_) {
            // Inline mode: one vectored write, then the per-page
            // completions.
            writeRun<false>(shard_.firstPage + first, count);
            if (client_)
                for (unsigned i = 0; i < count; ++i)
                    client_->onPersistComplete(first + i);
            return;
        }
        // Called with the shard lock held; the copier queue lock is
        // a leaf (lock-ordering rule 3).  Jobs are POD and the queue
        // a preallocated ring: no allocation on this path.
        for (unsigned i = 0; i < count; ++i)
            ioPending_[first + i] = 1;
        outstanding_ += count;
        if (count > 1 && region_.copiers_->nearCapacity(shard_.index)) {
            // Backlogged ring: a wide run would serialize behind the
            // queued jobs.  Degrade to per-page jobs so
            // latency-sensitive submissions keep flowing.
            region_.runFallbacks_.fetch_add(
                1, std::memory_order_relaxed);
            for (unsigned i = 0; i < count; ++i)
                region_.copiers_->submit(
                    shard_.index, CopierPool::Job{this, first + i, 1});
            return;
        }
        // One ring slot carries the whole run; the controller's
        // outstanding-IO cap counts its pages, so slots-used can
        // never exceed pages-outstanding and the ring cannot
        // overflow.
        region_.copiers_->submit(shard_.index,
                                 CopierPool::Job{this, first, count});
    }

    void
    persistPageBlocking(PageNum page) REQUIRES(shard_.lock) override
    {
        writeRun<false>(shard_.firstPage + page, 1);
    }

    /**
     * Copier phase 1: the device write, no locks held.  This is the
     * ONLY caller of writeRun<true>: copier threads run outside
     * signal context, so the codec stays off the SIGSEGV handler's
     * call graph (`python3 tools/pathlint --contract sigsafe`
     * hard-fails if any pagezip symbol becomes reachable from it).
     */
    void
    copierPersist(PageNum first, unsigned count) override
    {
        if (region_.config_.compressFlush)
            writeRun<true>(shard_.firstPage + first, count);
        else
            writeRun<false>(shard_.firstPage + first, count);
    }

    /** Copier phase 2: bookkeeping under the shard lock. */
    void
    copierComplete(PageNum first, unsigned count)
        EXCLUDES(shard_.lock) override
    {
        common::MutexLock guard(shard_.lock);
        for (unsigned i = 0; i < count; ++i)
            ioPending_[first + i] = 0;
        outstanding_ -= count;
        if (client_)
            for (unsigned i = 0; i < count; ++i)
                client_->onPersistComplete(first + i);
        shard_.ioCv.notify_all();
    }

    void
    waitForPersist(PageNum page) REQUIRES(shard_.lock) override
    {
        if (!ioPending_[page])
            return;
        // The wait releases the caller's shard lock while blocked
        // (CondVar adopts the native handle and hands it back).
        shard_.ioCv.wait(shard_.lock, [&]() REQUIRES(shard_.lock) {
            return !ioPending_[page];
        });
    }

    void
    waitForAnyPersist() REQUIRES(shard_.lock) override
    {
        if (outstanding_ == 0)
            return;
        const unsigned snapshot = outstanding_;
        shard_.ioCv.wait(shard_.lock, [&]() REQUIRES(shard_.lock) {
            return outstanding_ < snapshot;
        });
    }

    unsigned
    outstandingIos() const REQUIRES(shard_.lock) override
    {
        return outstanding_;
    }

  private:
    /**
     * Per-copier-thread codec scratch, sized to pagezipBound(page
     * size) on first use.  thread_local because copier workers from
     * the shared pool can run persists for the same shard
     * concurrently; never touched in signal context.
     */
    std::uint8_t *
    compressScratch()
    {
        static thread_local std::vector<std::uint8_t> scratch;
        const std::size_t bound =
            common::pagezipBound(region_.pageSize_);
        if (scratch.size() < bound)
            scratch.resize(bound);
        return scratch.data();
    }

    /**
     * The one run writer: `count` contiguous pages in vectored
     * submissions (a single page is a one-element run).  Commit
     * protocol step 1: each page's PENDING record — with its stored
     * length — lands before its data write, so a crash between here
     * and the next commit barrier reads back as a torn flush, never
     * as silent corruption.  The pages are write-protected for the
     * whole persist, so the CRC and the write see the same bytes.
     * The iovec block lives on the stack (writeRun<false> is
     * reachable from the SIGSEGV admission path, which must not
     * heap-allocate) and is written out every 64 pages, so
     * arbitrarily wide runs still fit.
     *
     * kCompress (copier threads only) runs each page through the
     * codec.  A page it shrinks breaks the vectored stretch and lands
     * its stream at the page's own slot offset — the slot remainder
     * stays stale, which is fine because recovery reads only
     * storedLen bytes; a page it bypasses (pagezipCompress == 0)
     * stays in the raw stretch, so incompressible data costs only
     * the size probe.
     */
    template <bool kCompress>
    void
    writeRun(PageNum global_first, unsigned count)
    {
        const std::uint64_t ps = region_.pageSize_;
        MetaSidecar &meta = *region_.meta_;
        const std::uint64_t run_id =
            region_.nextRunId_.fetch_add(1, std::memory_order_relaxed);
        const std::uint64_t epoch =
            region_.flushEpoch_.load(std::memory_order_relaxed);
        std::uint8_t *scratch = nullptr;
        if constexpr (kCompress)
            scratch = compressScratch();
        constexpr unsigned kChunk = 64;
        struct iovec iov[kChunk];
        PageNum raw_first = 0;
        unsigned raw_n = 0;
        const auto flush_raw = [&]() {
            if (raw_n == 0)
                return;
            const int error = pwritevFullyWithRetry(
                region_.fd_, iov, raw_n, raw_first * ps);
            if (error != 0)
                fatal("run persist to backing file failed after "
                      "bounded retries: ", std::strerror(error));
            for (unsigned i = 0; i < raw_n; ++i)
                meta.markWritten(raw_first + i, run_id);
            raw_n = 0;
        };
        VIYOJIT_IGNORE_READS_BEGIN();
        for (unsigned i = 0; i < count; ++i) {
            const PageNum g = global_first + i;
            char *const src = region_.mem_ + g * ps;
            std::uint64_t stored = 0;
            if constexpr (kCompress)
                stored = common::pagezipCompress(
                    src, ps, scratch, common::pagezipBound(ps));
            meta.recordPage(g, common::crc32c(src, ps), epoch, run_id,
                            static_cast<std::uint32_t>(stored));
            if constexpr (kCompress) {
                region_.noteCompressedShip(stored, ps);
                if (stored != 0) {
                    flush_raw();
                    if (const int error = pwriteFullyWithRetry(
                            region_.fd_, scratch, stored, g * ps);
                        error != 0)
                        fatal("compressed run persist to backing file "
                              "failed after bounded retries: ",
                              std::strerror(error));
                    meta.markWritten(g, run_id);
                    continue;
                }
            }
            if (raw_n == 0)
                raw_first = g;
            iov[raw_n].iov_base = src;
            iov[raw_n].iov_len = ps;
            if (++raw_n == kChunk)
                flush_raw();
        }
        flush_raw();
        VIYOJIT_IGNORE_READS_END();
        region_.bytesPersisted_.fetch_add(
            static_cast<std::uint64_t>(count) * ps,
            std::memory_order_relaxed);
    }

    void
    setWritableBit(PageNum page, bool v) REQUIRES(shard_.lock)
    {
        const std::uint64_t w = page / 64;
        const std::uint64_t bit = 1ULL << (page % 64);
        if (v) {
            writableWords_[w] |= bit;
            summary_[w / 64] |= 1ULL << (w % 64);
        } else {
            writableWords_[w] &= ~bit;
            if (writableWords_[w] == 0)
                summary_[w / 64] &= ~(1ULL << (w % 64));
        }
    }

    NvRegion &region_;
    Shard &shard_;
    std::vector<std::uint64_t> writableWords_ GUARDED_BY(shard_.lock);
    std::vector<std::uint64_t> summary_ GUARDED_BY(shard_.lock);

    /** The written span awaiting its re-protect. */
    PageSpan reprotect_ GUARDED_BY(shard_.lock);

    /** Nonzero while a background copy of the page is queued. */
    std::vector<std::uint8_t> ioPending_ GUARDED_BY(shard_.lock);
    unsigned outstanding_ GUARDED_BY(shard_.lock) = 0;
};

NvRegion::NvRegion(const std::string &backing_path, std::uint64_t bytes,
                   const RuntimeConfig &config, bool recover_contents)
    : config_(config)
{
    pageSize_ = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
    // Checks that need no file run before the open, so a rejected
    // config leaves nothing behind.
    if (config.dirtyBudgetPages == 0)
        fatal("runtime requires a dirty budget of at least one page");
    if (config.compressFlush && config.copierThreads == 0)
        fatal("compressFlush requires copier threads: inline "
              "persists run on the SIGSEGV admission path, which "
              "must never reach the codec");
    if (!std::has_single_bit(config.shards))
        fatal("shard count must be a power of two");

    const int flags = recover_contents ? O_RDWR : (O_RDWR | O_CREAT |
                                                   O_TRUNC);
    fd_ = ::open(backing_path.c_str(), flags, 0644);
    if (fd_ < 0)
        fatal("cannot open backing file '", backing_path,
              "': ", std::strerror(errno));

    // No destructor runs for a half-built region, so until this
    // constructor returns, a throw releases the fd, the mapping and
    // the fault registration here.  A failed create also removes the
    // files it made (its O_TRUNC already discarded any old contents).
    const std::string meta_path = backing_path + ".meta";
    struct Unwind
    {
        NvRegion &region;
        const std::string &backing;
        const std::string &meta;
        bool created;
        bool armed = true;

        ~Unwind()
        {
            if (!armed)
                return;
            region.stopEpochThread();
            unregisterRegion(&region);
            if (region.mem_ != nullptr)
                ::munmap(region.mem_, region.bytes_);
            if (region.uffd_ >= 0)
                ::close(region.uffd_);
            ::close(region.fd_);
            if (created) {
                ::unlink(backing.c_str());
                ::unlink(meta.c_str());
            }
        }
    } unwind{*this, backing_path, meta_path, !recover_contents};

    if (recover_contents) {
        struct stat st;
        if (::fstat(fd_, &st) != 0)
            fatal("fstat failed: ", std::strerror(errno));
        bytes_ = static_cast<std::uint64_t>(st.st_size);
        if (bytes_ == 0)
            fatal("backing file is empty; nothing to recover");
        // A partial last page would map past the last shard.
        if (bytes_ % pageSize_ != 0)
            fatal("backing file '", backing_path, "' is ", bytes_,
                  " bytes, not a multiple of the ", pageSize_,
                  "-byte page size");
    } else {
        bytes_ = (bytes + pageSize_ - 1) / pageSize_ * pageSize_;
        if (::ftruncate(fd_, static_cast<off_t>(bytes_)) != 0)
            fatal("ftruncate failed: ", std::strerror(errno));
    }
    pageCount_ = bytes_ / pageSize_;

    void *mem = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED)
        fatal("mmap failed: ", std::strerror(errno));
    mem_ = static_cast<char *>(mem);
    populated_ = std::vector<std::atomic<std::uint8_t>>(pageCount_);

    if (!recover_contents) {
        meta_ = MetaSidecar::create(meta_path, pageCount_, pageSize_);
    } else {
        meta_ = MetaSidecar::open(meta_path, pageCount_, pageSize_);
        recoverImage();
        if (meta_) {
            recoveryReport_.sidecarFound = true;
            recoveryReport_.badEntries =
                meta_->loadStats().badEntries;
            // New commits must sort after everything the old
            // incarnation sealed.
            flushEpoch_.store(meta_->lastSealedEpoch() + 1,
                              std::memory_order_relaxed);
            nextRunId_.store(meta_->lastSealedRunId() + 1,
                             std::memory_order_relaxed);
        } else {
            warn("no valid sidecar for '", backing_path,
                 "': contents load unverified");
            meta_ = MetaSidecar::create(meta_path, pageCount_,
                                        pageSize_);
        }
    }

    // Fig. 6 step 1: everything starts write-protected and clean,
    // through userfaultfd wherever the kernel grants it.
    if (!armUserfaultfd() && ::mprotect(mem_, bytes_, PROT_READ) != 0)
        fatal("initial mprotect failed: ", std::strerror(errno));

    // Shard plan: the page space splits into power-of-two-sized
    // contiguous blocks so shardOf() is a shift.  The last shard may
    // be short.
    const std::uint64_t budget = config.dirtyBudgetPages;
    const std::uint64_t desired = config.shards;
    std::uint64_t pps = 1;
    while (pps * desired < pageCount_)
        pps *= 2;
    ppsShift_ = static_cast<unsigned>(std::countr_zero(pps));
    const unsigned shard_count =
        static_cast<unsigned>((pageCount_ + pps - 1) / pps);

    std::uint64_t per_shard_quota = budget;
    if (shard_count > 1) {
        if (budget < shard_count)
            fatal("sharded region needs a dirty budget of at least "
                  "one page per shard");
        // Initial split leaves roughly half the budget in the pool
        // as migration headroom for bursting shards.
        per_shard_quota = std::clamp<std::uint64_t>(
            budget / (2 * shard_count), 1, budget / shard_count);
        pool_ = std::make_unique<core::BudgetPool>(
            budget, budget - per_shard_quota * shard_count);
        quotaBatch_ = std::max<std::uint64_t>(1, per_shard_quota / 4);
    }

    core::ViyojitConfig core_config;
    core_config.pageSize = pageSize_;
    core_config.dirtyBudgetPages = per_shard_quota;
    core_config.maxRunPages = config.maxRunPages;
    core_config.extentShift = config.extentShift;
    // Inline persists make the async shed degenerate to the same
    // blocking write, so shedding is on exactly when copiers are.
    core_config.shedBlockedEvictions = config.copierThreads > 0;

    if (config.copierThreads > 0) {
        // Pages a copier worker claims from one shard per batch.
        constexpr unsigned kCopierBatchPages = 8;
        // Ring capacity = the per-shard outstanding-IO cap the
        // controller enforces, so a queue can never overflow and
        // submission never allocates.
        copiers_ = std::make_unique<CopierPool>(
            config.copierThreads, shard_count, kCopierBatchPages,
            core_config.maxOutstandingIos);
    }

    shards_.reserve(shard_count);
    for (unsigned i = 0; i < shard_count; ++i) {
        auto shard = std::make_unique<Shard>();
        shard->index = i;
        shard->owner = this;
        shard->firstPage = static_cast<PageNum>(i) * pps;
        shard->pages =
            std::min<std::uint64_t>(pps,
                                    pageCount_ - shard->firstPage);
        shard->backend = std::make_unique<ShardBackend>(*this, *shard);
        // The shard is not yet published (no faults can route here
        // before registerRegion below), but the controller pointer
        // is lock-annotated, so honour the contract — the lock is
        // uncontended.
        common::MutexLock guard(shard->lock);
        shard->controller =
            std::make_unique<core::DirtyBudgetController>(
                *shard->backend, core_config);
        if (pool_) {
            shard->controller->attachBudgetPool(pool_.get(),
                                                quotaBatch_);
            // Watermarks hang off the FAIR share (budget / shards),
            // not the deliberately-low initial quota, so a shard
            // that warms up migrates toward its share in batches.
            shard->controller->deriveQuotaWatermarks(
                budget / shard_count);
        }
        shards_.push_back(std::move(shard));
    }

    budgetPages_.store(budget, std::memory_order_relaxed);
    registerRegion(this, mem_, bytes_);
    if (config.startEpochThread)
        startEpochThread();
    // Last, so that no later throw can leave it running; the unwind
    // stops the epoch thread if starting this one throws.
    writeBehindRunning_.store(true, std::memory_order_relaxed);
    writeBehindThread_ = std::thread([this]() { writeBehindLoop(); });
    unwind.armed = false;
}

std::unique_ptr<NvRegion>
NvRegion::create(const std::string &backing_path, std::uint64_t bytes,
                 const RuntimeConfig &config)
{
    return std::unique_ptr<NvRegion>(
        new NvRegion(backing_path, bytes, config, false));
}

std::unique_ptr<NvRegion>
NvRegion::recover(const std::string &backing_path,
                  const RuntimeConfig &config)
{
    return std::unique_ptr<NvRegion>(
        new NvRegion(backing_path, 0, config, true));
}

NvRegion::~NvRegion()
{
    // First: no background barrier may race the teardown.
    writeBehindRunning_.store(false, std::memory_order_relaxed);
    if (writeBehindThread_.joinable())
        writeBehindThread_.join();
    stopEpochThread();
    for (auto &shard : shards_) {
        common::MutexLock guard(shard->lock);
        shard->controller->flushAllDirty();
    }
    // The per-shard flushes waited out every queued copy, so the
    // copier queues are empty; join the workers before tearing down
    // the backends their jobs reference.
    copiers_.reset();
    // Destructor: best effort only — cannot throw, so a sync failure
    // is reported but not escalated.
    if (const int error = meta_->commitPending(fd_); error != 0)
        warn("commit barrier during region teardown failed: ",
             std::strerror(error));
    else if (const int error2 = meta_->seal(
                 flushEpoch_.load(std::memory_order_relaxed),
                 nextRunId_.load(std::memory_order_relaxed));
             error2 != 0)
        warn("sidecar seal during region teardown failed: ",
             std::strerror(error2));
    unregisterRegion(this);
    if (mem_)
        ::munmap(mem_, bytes_);
    // After the unmap, so closing does not first clear the
    // write-protect bit of every mapped page.
    if (uffd_ >= 0)
        ::close(uffd_);
    if (fd_ >= 0)
        ::close(fd_);
}

bool
NvRegion::armUserfaultfd()
{
#ifdef VIYOJIT_UFFD
    if (pageSize_ != sizeof(kZeroPage))
        return false;
    // UFFD_USER_MODE_ONLY lets an unprivileged process open one even
    // where vm.unprivileged_userfaultfd is 0; kernel-mode accesses
    // then get EFAULT instead of a fault signal.
    const int fd = static_cast<int>(::syscall(
        __NR_userfaultfd, O_CLOEXEC | O_NONBLOCK | UFFD_USER_MODE_ONLY));
    if (fd < 0)
        return false;
    struct uffdio_api api = {};
    api.api = UFFD_API;
    api.features = UFFD_FEATURE_SIGBUS;
    struct uffdio_register reg = {};
    reg.range.start = reinterpret_cast<std::uintptr_t>(mem_);
    reg.range.len = bytes_;
    // Never-populated pages have no PTE to carry a write-protect
    // bit, so they arrive as missing-page faults.
    reg.mode = UFFDIO_REGISTER_MODE_MISSING | UFFDIO_REGISTER_MODE_WP;
    struct uffdio_writeprotect wp = {};
    wp.range = reg.range;
    wp.mode = UFFDIO_WRITEPROTECT_MODE_WP;
    if (::ioctl(fd, UFFDIO_API, &api) != 0 ||
        ::ioctl(fd, UFFDIO_REGISTER, &reg) != 0 ||
        ::ioctl(fd, UFFDIO_WRITEPROTECT, &wp) != 0) {
        // Closing the descriptor unregisters the range.
        ::close(fd);
        return false;
    }
    uffd_ = fd;
    return true;
#else
    return false;
#endif
}

void
NvRegion::protectRange(PageNum first, std::uint64_t pages, bool writable)
{
    if (pages == 0)
        return;
    char *const base = mem_ + first * pageSize_;
    const std::uint64_t len = pages * pageSize_;
    const int error = retryInterrupted([&]() {
#ifdef VIYOJIT_UFFD
        if (uffd_ >= 0) {
            struct uffdio_writeprotect wp = {};
            wp.range.start = reinterpret_cast<std::uintptr_t>(base);
            wp.range.len = len;
            // Faults arrive as SIGBUS, so no thread waits on the
            // descriptor for a release to wake.
            wp.mode = writable ? UFFDIO_WRITEPROTECT_MODE_DONTWAKE
                               : UFFDIO_WRITEPROTECT_MODE_WP;
            return ::ioctl(uffd_, UFFDIO_WRITEPROTECT, &wp);
        }
#endif
        return ::mprotect(base, len,
                          writable ? PROT_READ | PROT_WRITE : PROT_READ);
    });
    if (error != 0)
        protectionFailed(uffd_ >= 0 ? "userfaultfd write-protect"
                                    : "mprotect",
                         error);
}

bool
NvRegion::mapZeroed(PageNum page, bool writable)
{
#ifdef VIYOJIT_UFFD
    if (uffd_ < 0 || populated_[page].load(std::memory_order_relaxed))
        return false;
    struct uffdio_copy copy = {};
    copy.dst = reinterpret_cast<std::uintptr_t>(mem_ + page * pageSize_);
    copy.src = reinterpret_cast<std::uintptr_t>(kZeroPage);
    copy.len = pageSize_;
    copy.mode = UFFDIO_COPY_MODE_DONTWAKE |
                (writable ? 0 : UFFDIO_COPY_MODE_WP);
    const int error = retryInterrupted(
        [&]() { return ::ioctl(uffd_, UFFDIO_COPY, &copy); });
    // EEXIST: the page is mapped already — a racing fault mapped it,
    // or recovery read it from a hole without marking it.
    if (error != 0 && error != EEXIST)
        protectionFailed("userfaultfd page install", error);
    populated_[page].store(1, std::memory_order_relaxed);
    return error == 0;
#else
    (void)page;
    (void)writable;
    return false;
#endif
}

bool
NvRegion::handleFault(void *addr, bool write)
{
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    const auto base = reinterpret_cast<std::uintptr_t>(mem_);
    if (a < base || a >= base + bytes_)
        return false;
    const PageNum page = (a - base) / pageSize_;
    if (!write && uffd_ >= 0) {
        // A first read of a never-populated page: map it zeroed and
        // still write-protected, without admitting it, so reads never
        // dirty a page.
        mapZeroed(page, false);
        return true;
    }
    Shard &shard = *shards_[shardOf(page)];
    // One attempt: admission refills from the pool or evicts locally.
    // It could fail only at zero quota with a dry pool, which create()
    // and setDirtyBudget() rule out, and onWriteFault asserts that.
    common::MutexLock guard(shard.lock);
    shard.controller->onWriteFault(page - shard.firstPage);
    return true;
}

void
NvRegion::epochTick()
{
    for (auto &shard : shards_) {
        PageSpan reprotect;
        {
            common::MutexLock guard(shard->lock);
            shard->controller->onEpochBoundary();
            reprotect = shard->backend->takeReprotect();
        }
        // The re-protect runs after the guard has closed, so faults
        // stop waiting out its page-table walk.  It only adds
        // protection, and the only release is the fault path's, under
        // the shard lock, so protect-before-copy and the budget
        // invariant hold.  A page written between the bitmap clear
        // and this call takes one extra recency fault.
        protectRange(reprotect.first, reprotect.pages, false);
    }
    flushEpoch_.fetch_add(1, std::memory_order_relaxed);
}

namespace
{

/** A page-aligned byte range [begin, end) of the backing file. */
struct Extent
{
    std::uint64_t begin;
    std::uint64_t end;
};

/**
 * The first data extent of `fd` at or after the page-aligned `from`,
 * rounded out to whole pages and clipped to `size`; {size, size} when
 * only holes remain.  A filesystem that reports no holes, or an lseek
 * error other than ENXIO, makes everything from `from` on one extent,
 * so the caller reads the rest of the file whole.
 */
Extent
nextDataExtent(int fd, std::uint64_t from, std::uint64_t size,
               std::uint64_t page_size)
{
    const off_t data = ::lseek(fd, static_cast<off_t>(from), SEEK_DATA);
    if (data < 0)
        return errno == ENXIO ? Extent{size, size} : Extent{from, size};
    const std::uint64_t begin =
        static_cast<std::uint64_t>(data) / page_size * page_size;
    const off_t hole = ::lseek(fd, data, SEEK_HOLE);
    if (hole < 0)
        return {begin, size};
    // A hole punched between the two calls could make SEEK_HOLE
    // answer `data` itself; the +1 keeps the walk moving.
    const auto stop =
        static_cast<std::uint64_t>(std::max<off_t>(hole, data + 1));
    return {begin, std::min(size, (stop + page_size - 1) / page_size *
                                      page_size)};
}

/**
 * One unit of recovery work: global pages [first, end).  Pages
 * [load, end) lie in a data extent and are read from the backing
 * file; pages [first, load) lie in the hole before it and are checked
 * against their commit records without being read.
 */
struct RecoveryChunk
{
    PageNum first = 0;
    PageNum load = 0;
    PageNum end = 0;
};

/** What recovery settled about one page. */
enum PageVerdict : std::uint8_t
{
    kUnverified, // no valid commit record: nothing to check
    kVerified,
    kVerifiedCompressed, // a pagezip stream that decoded and verified
    kUnreadable,         // zero-filled after the reads failed
    kTornFlushTail,
    kStaleEpoch,
    kSilentCorruption,
};

/**
 * The state one recovery pass shares between its workers: the chunks,
 * partitioning the page space in order, the cursor they are claimed
 * from, and a verdict per page.  work() runs on every worker at once,
 * and neither it nor verify() throws, logs or allocates.
 */
struct RecoveryPass
{
    int fd = -1;
    char *mem = nullptr;
    std::uint64_t pageSize = 0;
    /** Null when there is no sidecar: the pass only loads. */
    const MetaSidecar *meta = nullptr;
    std::uint64_t sealed = 0;
    /** CRC of a zero page, which a raw page over a hole holds. */
    std::uint32_t zeroCrc = 0;
    std::vector<RecoveryChunk> chunks;
    /** Per chunk: the bulk read failed, so the merge settles it. */
    std::vector<std::uint8_t> readFailed;
    /** Per page (with a sidecar): a PageVerdict. */
    std::vector<std::uint8_t> verdict;
    std::atomic<std::size_t> cursor{0};

    /** Claim chunks until none remain; read each, then verify its
     *  pages while they are cache-hot.  `raw` is this worker's
     *  decode scratch. */
    void
    work(char *raw)
    {
        for (std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
             i < chunks.size();
             i = cursor.fetch_add(1, std::memory_order_relaxed)) {
            const RecoveryChunk &c = chunks[i];
            if (preadFullyWithRetry(fd, mem + c.load * pageSize,
                                    (c.end - c.load) * pageSize,
                                    c.load * pageSize) != 0)
                readFailed[i] = 1;
            else if (meta)
                verify(c, raw);
        }
    }

    /** Check every page of `c` not already settled unreadable against
     *  its commit record. */
    void
    verify(const RecoveryChunk &c, char *raw)
    {
        for (PageNum p = c.first; p < c.end; ++p) {
            if (verdict[p] == kUnreadable)
                continue;
            const MetaEntry e = meta->entry(p);
            if (e.flags == MetaSidecar::kInvalid)
                continue;
            char *const page = mem + p * pageSize;
            bool match;
            if (e.storedLen != 0) {
                // The slot holds a pagezip stream (read into memory
                // verbatim): decode into scratch, then verify the
                // RAW-page CRC.  A codec failure is just another
                // mismatch, classified like an uncompressed page's.
                match = e.storedLen <= pageSize &&
                        common::pagezipDecompress(page, e.storedLen, raw,
                                                  pageSize) &&
                        common::crc32c(raw, pageSize) == e.crc;
                if (match) {
                    std::memcpy(page, raw, pageSize);
                    verdict[p] = kVerifiedCompressed;
                    continue;
                }
            } else {
                match = (p < c.load ? zeroCrc
                                    : common::crc32c(page, pageSize)) ==
                        e.crc;
            }
            if (match)
                verdict[p] = kVerified;
            else if (e.flags == MetaSidecar::kPending || e.epoch > sealed)
                // An unpromoted record, or a commit newer than the last
                // seal: the torn tail of a flush the crash interrupted.
                verdict[p] = kTornFlushTail;
            else if (e.epoch == sealed)
                verdict[p] = kStaleEpoch;
            else
                verdict[p] = kSilentCorruption;
        }
    }
};

/** CPUs in this process's affinity mask; 1 if it cannot be read. */
unsigned
usableCpus()
{
    cpu_set_t set;
    if (::sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return static_cast<unsigned>(std::max(CPU_COUNT(&set), 1));
}

} // namespace

void
NvRegion::recoverImage()
{
    constexpr std::uint64_t kChunk = 1ULL << 20;
    RecoveryPass pass;
    pass.fd = fd_;
    pass.mem = mem_;
    pass.pageSize = pageSize_;
    pass.meta = meta_.get();
    // Cut the data extents into chunks, each also taking the hole
    // before it, so the work divides by data, not by page range.
    PageNum next = 0;
    Extent extent{0, 0};
    while (extent.end < bytes_) {
        extent = nextDataExtent(fd_, extent.end, bytes_, pageSize_);
        for (std::uint64_t off = extent.begin; off < extent.end;
             off += kChunk) {
            const PageNum end =
                std::min(off + kChunk, extent.end) / pageSize_;
            pass.chunks.push_back({next, off / pageSize_, end});
            next = end;
        }
    }
    if (next < pageCount_)
        pass.chunks.push_back({next, pageCount_, pageCount_});
    pass.readFailed.assign(pass.chunks.size(), 0);
    if (meta_) {
        pass.sealed = meta_->lastSealedEpoch();
        pass.verdict.assign(pageCount_, kUnverified);
    }

    // Everything a worker needs is allocated here, and every worker
    // is joined before anything below can throw.  The workers touch
    // the region before it is armed or registered, so they take no
    // fault signal.
    const auto workers = static_cast<unsigned>(
        std::min<std::size_t>(usableCpus(), pass.chunks.size()));
    std::vector<char> scratch(workers * pageSize_);
    pass.zeroCrc = common::crc32c(scratch.data(), pageSize_);
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w) {
        try {
            pool.emplace_back(&RecoveryPass::work, &pass,
                              scratch.data() + w * pageSize_);
        } catch (const std::exception &) {
            break; // the workers already running take its chunks
        }
    }
    pass.work(scratch.data());
    for (std::thread &worker : pool)
        worker.join();

    // Merge on this thread, in page order.  A chunk whose bulk read
    // failed is read again page by page: the pages that stay
    // unreadable are zero-filled and quarantined ahead of any
    // mismatch, and the rest of the chunk is verified here.
    for (std::size_t i = 0; i < pass.chunks.size(); ++i) {
        if (!pass.readFailed[i])
            continue;
        const RecoveryChunk &c = pass.chunks[i];
        for (PageNum p = c.load; p < c.end; ++p) {
            const int error = preadFullyWithRetry(
                fd_, mem_ + p * pageSize_, pageSize_, p * pageSize_);
            if (error == 0)
                continue;
            std::memset(mem_ + p * pageSize_, 0, pageSize_);
            if (meta_)
                pass.verdict[p] = kUnreadable;
            recoveryReport_.quarantined.push_back(p);
            warn("recovery: page ", p, " unreadable (",
                 std::strerror(error), "); zero-filled and quarantined");
        }
        if (meta_)
            pass.verify(c, scratch.data());
    }
    // Every page read in (or zero-filled) is mapped now, so under
    // userfaultfd its first write needs only the release, not an
    // install that fails with EEXIST (about 1 us a page).
    for (const RecoveryChunk &c : pass.chunks)
        for (PageNum p = c.load; p < c.end; ++p)
            populated_[p].store(1, std::memory_order_relaxed);
    if (!meta_)
        return;
    RuntimeRecoveryReport &report = recoveryReport_;
    for (PageNum p = 0; p < pageCount_; ++p) {
        const char *cls;
        switch (pass.verdict[p]) {
        case kUnverified:
            ++report.unverifiedPages;
            continue;
        case kVerifiedCompressed:
            ++report.compressedPages;
            [[fallthrough]];
        case kVerified:
            ++report.verifiedPages;
            continue;
        case kUnreadable:
            continue;
        case kTornFlushTail:
            ++report.tornRunPages;
            cls = "torn flush tail";
            break;
        case kStaleEpoch:
            ++report.staleEpochPages;
            cls = "stale epoch";
            break;
        default:
            ++report.silentCorruptPages;
            cls = "silent corruption";
            break;
        }
        ++report.checksumMismatches;
        report.quarantined.push_back(p);
        warn("recovery: page ", p, " failed checksum verification (",
             cls, "); quarantined");
    }
}

void
NvRegion::scrubTick(std::uint64_t max_pages)
{
    if (max_pages == 0 || pageCount_ == 0)
        return;
    std::vector<char> buf(pageSize_);
    std::vector<char> raw(pageSize_);
    // Shards found under dirty pressure this tick.  Each is skipped
    // whole (one scrubSkippedBusy), like the simulator's scrubPass
    // yields its pass, instead of taking its lock once per page.
    std::vector<bool> pressured(shards_.size(), false);
    std::size_t pressured_count = 0;
    std::uint64_t scanned = 0;
    std::uint64_t repairs = 0;
    for (std::uint64_t step = 0;
         step < pageCount_ && scanned < max_pages; ++step) {
        const PageNum page = scrubCursor_;
        scrubCursor_ = (scrubCursor_ + 1) % pageCount_;
        const unsigned s = shardOf(page);
        // Cheap unlocked pre-filter; re-read authoritatively under
        // the shard lock below.
        if (pressured[s] ||
            meta_->entry(page).flags != MetaSidecar::kCommitted)
            continue;
        Shard &shard = *shards_[s];
        const PageNum local = page - shard.firstPage;
        common::MutexLock guard(shard.lock);
        // Budget-aware: stay out of a shard under dirty pressure,
        // and only check settled pages (clean, no IO in flight) so
        // the commit record is the page's current durable truth.
        if (shard.controller->tracker().count() + 2 >=
            shard.controller->dirtyBudget()) {
            pressured[s] = true;
            scrubSkippedBusy_.fetch_add(1,
                                        std::memory_order_relaxed);
            if (++pressured_count == shards_.size())
                break;
            continue;
        }
        if (shard.controller->tracker().isDirty(local) ||
            shard.controller->isInFlight(local)) {
            scrubSkippedBusy_.fetch_add(1,
                                        std::memory_order_relaxed);
            continue;
        }
        const MetaEntry e = meta_->entry(page);
        if (e.flags != MetaSidecar::kCommitted)
            continue;
        ++scanned;
        scrubScanned_.fetch_add(1, std::memory_order_relaxed);
        bool ok = false;
        if (e.storedLen == 0) {
            ok = preadFullyWithRetry(fd_, buf.data(), pageSize_,
                                     page * pageSize_) == 0 &&
                 common::crc32c(buf.data(), pageSize_) == e.crc;
        } else if (e.storedLen <= pageSize_) {
            // Compressed slot: read only the stream, decode, then
            // check the RAW-page CRC (the slot remainder is stale).
            ok = preadFullyWithRetry(fd_, buf.data(), e.storedLen,
                                     page * pageSize_) == 0 &&
                 common::pagezipDecompress(buf.data(), e.storedLen,
                                           raw.data(), pageSize_) &&
                 common::crc32c(raw.data(), pageSize_) == e.crc;
        }
        if (ok)
            continue;
        scrubMismatches_.fetch_add(1, std::memory_order_relaxed);
        warn("scrub: durable copy of page ", page,
             " diverged from its commit record; repairing from the "
             "DRAM copy");
        // The page is clean, so DRAM still holds exactly what the
        // commit record described: re-persist it, and commit below.
        core::PagingBackend &pb = *shard.backend;
        pb.persistPageBlocking(local);
        ++repairs;
    }
    // One barrier commits the tick's repairs, after every shard guard
    // has closed: no shard lock is ever held across a barrier.
    if (repairs == 0)
        return;
    if (const int error = meta_->commitPending(fd_); error != 0) {
        warn("scrub: repair commit failed: ", std::strerror(error));
        return;
    }
    scrubRepaired_.fetch_add(repairs, std::memory_order_relaxed);
}

std::uint64_t
NvRegion::flushAll()
{
    // Keep background barriers out of the drain: the drain's own
    // persists would trip one, and the cut would wait for it before
    // running its own.
    cutsInProgress_.fetch_add(1, std::memory_order_acq_rel);
    std::uint64_t flushed = 0;
    for (auto &shard : shards_) {
        common::MutexLock guard(shard->lock);
        flushed += shard->controller->flushAllDirty();
    }
    // The barrier waits out one that was already running, so every
    // page written so far — the drained dirty set and the unsynced
    // set alike — is COMMITTED before the seal.
    const int commit_error = meta_->commitPending(fd_);
    cutsInProgress_.fetch_sub(1, std::memory_order_acq_rel);
    if (commit_error != 0)
        fatal("commit barrier failed after bounded retries: ",
              std::strerror(commit_error));
    // Every dirty page is now durably committed: seal the header so
    // recovery classifies older commits as stable.
    if (const int error = meta_->seal(
            flushEpoch_.load(std::memory_order_relaxed),
            nextRunId_.load(std::memory_order_relaxed));
        error != 0)
        fatal("sidecar seal failed: ", std::strerror(error));
    return flushed;
}

void
NvRegion::setDirtyBudget(std::uint64_t pages)
{
    if (!pool_) {
        common::MutexLock guard(shards_[0]->lock);
        shards_[0]->controller->setDirtyBudget(pages);
        budgetPages_.store(pages, std::memory_order_relaxed);
        return;
    }
    // One page per shard keeps every quota above zero, where
    // admission never fails (handleFault).
    const std::uint64_t n = shards_.size();
    if (pages < n)
        fatal("sharded region needs a dirty budget of at least one "
              "page per shard");

    // Whole-region retune, done INCREMENTALLY — one shard lock at a
    // time, never all at once.  A shrink can block on in-flight
    // copier IO (releaseQuota evicts synchronously, and the cv wait
    // releases only the one lock it adopted), so holding the other
    // shard locks across it would let faulting threads race the
    // redistribution books — and TSan rightly calls the re-acquire a
    // lock-order inversion.  Instead, reclaimed quota is destroyed
    // straight out of the donor (destroyReclaimed never lets it
    // touch available()), so the pool total only moves down, and
    // sum(dirty) <= total holds at every intermediate step.
    common::MutexLock retune_guard(retuneLock_);
    const std::uint64_t old_total = pool_->totalPages();
    if (pages >= old_total) {
        pool_->grow(pages - old_total);
        rederiveWatermarks(pages);
        budgetPages_.store(pages, std::memory_order_relaxed);
        return;
    }

    // Keep the two-page straddling floor per shard whenever the new
    // total can honour it (mirrors core::redistributeBudget), and one
    // page otherwise.
    const std::uint64_t floor = pages >= 2 * n ? 2 : 1;

    std::uint64_t to_destroy = old_total - pages;
    to_destroy -= pool_->confiscate(to_destroy);
    while (to_destroy > 0) {
        for (std::size_t i = 0; i < n && to_destroy > 0; ++i) {
            Shard &donor = *shards_[i];
            common::MutexLock guard(donor.lock);
            const std::uint64_t got =
                donor.controller->releaseQuota(to_destroy, floor);
            pool_->destroyReclaimed(got);
            to_destroy -= got;
        }
        // Quota borrowed mid-sweep came out of available(); claw it
        // from there too.  Progress is guaranteed: floors sum to at
        // most `pages`, so while total > pages, some shard sits
        // above its floor or the pool has available quota.
        to_destroy -= pool_->confiscate(to_destroy);
    }
    rederiveWatermarks(pages);
    budgetPages_.store(pages, std::memory_order_relaxed);
}

void
NvRegion::rederiveWatermarks(std::uint64_t total_pages)
{
    // Watermarks scale with the fair share, so a retuned total must
    // re-derive them: stale high watermarks
    // after a shrink would donate a degraded budget away, stale low
    // watermarks after a grow would leave shards refilling in
    // too-small batches.  One shard lock at a time under the retune
    // mutex — same discipline (and same no-new-edges argument) as
    // the quota sweep above.
    const std::uint64_t share =
        std::max<std::uint64_t>(1, total_pages / shards_.size());
    for (auto &shard : shards_) {
        common::MutexLock guard(shard->lock);
        shard->controller->deriveQuotaWatermarks(share);
    }
}

// The ascending sweep over ALL shard locks is a dynamic lock set the
// static analysis cannot express (see the lock-ordering block in
// region.hh, rule 1); the TSan CI suites cover this function.
RegionStats
NvRegion::stats() const NO_THREAD_SAFETY_ANALYSIS
{
    // Coherent snapshot: all shard locks, ascending.
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards_.size());
    for (auto &shard : shards_)
        locks.emplace_back(shard->lock.native());

    RegionStats out;
    out.shards = shards_.size();
    if (pool_)
        out.perShard.resize(shards_.size());
    std::uint64_t quotas = 0;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        const Shard &shard = *shards_[i];
        const core::ControllerStats &cs = shard.controller->stats();
        out.writeFaults += cs.writeFaults;
        out.blockedEvictions += cs.blockedEvictions;
        out.proactiveCopies += cs.proactiveCopies;
        out.quotaBorrowedPages += cs.quotaBorrowedPages;
        out.quotaReturnedPages += cs.quotaReturnedPages;
        out.runSubmits += cs.runSubmits;
        out.runPagesCoalesced += cs.runPagesCoalesced;
        out.watermarkRefills += cs.watermarkRefills;
        out.proactiveDonations += cs.proactiveDonations;
        out.shedEvictions += cs.shedEvictions;
        out.dirtyPages += shard.controller->tracker().count();
        quotas += shard.controller->dirtyBudget();
        if (pool_) {
            RegionStats::ShardCounters &ps = out.perShard[i];
            ps.watermarkRefills = cs.watermarkRefills;
            ps.proactiveDonations = cs.proactiveDonations;
        }
    }
    // Epochs advance in lockstep across shards; report one, not n.
    out.epochs = shards_[0]->controller->stats().epochs;
    out.bytesPersisted =
        bytesPersisted_.load(std::memory_order_relaxed);
    out.runFallbacks = runFallbacks_.load(std::memory_order_relaxed);
    out.scrubScanned = scrubScanned_.load(std::memory_order_relaxed);
    out.scrubSkippedBusy =
        scrubSkippedBusy_.load(std::memory_order_relaxed);
    out.scrubMismatches =
        scrubMismatches_.load(std::memory_order_relaxed);
    out.scrubRepaired =
        scrubRepaired_.load(std::memory_order_relaxed);
    out.metaEntryWriteErrors = meta_->entryWriteErrors();
    out.unsyncedPages = meta_->unsyncedPages();
    out.compressedPersists =
        compressedPersists_.load(std::memory_order_relaxed);
    out.compressBypasses =
        compressBypasses_.load(std::memory_order_relaxed);
    out.storedBytesPersisted =
        storedBytesPersisted_.load(std::memory_order_relaxed);
    if (pool_) {
        out.poolAvailablePages = pool_->available();
        out.dirtyBudgetPages = pool_->totalPages();
    } else {
        out.dirtyBudgetPages = quotas;
    }
    return out;
}

void
NvRegion::startEpochThread()
{
    // acq_rel: the winning exchange must observe a prior stop's
    // teardown and publish this start to a concurrent stop.
    if (epochRunning_.exchange(true, std::memory_order_acq_rel))
        return;
    epochThread_ = std::thread([this]() {
        // The epoch thread takes shard locks and can fault while
        // scrubbing; give it the bounded alt-stack envelope.
        ensureFaultStackForThisThread();
        while (epochRunning_.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(config_.epochMicros));
            if (!epochRunning_.load(std::memory_order_relaxed))
                break;
            epochTick();
            if (config_.scrubPagesPerEpoch > 0)
                scrubTick(config_.scrubPagesPerEpoch);
        }
    });
}

void
NvRegion::stopEpochThread()
{
    if (!epochRunning_.exchange(false, std::memory_order_acq_rel))
        return;
    if (epochThread_.joinable())
        epochThread_.join();
}

void
NvRegion::writeBehindLoop()
{
    // The budget, not the clock, triggers a barrier: one covers about
    // a budget of pages, so a cut finds less than one budget of
    // earlier persists unsynced, at a few barriers a second.
    int last_error = 0;
    for (;;) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(config_.epochMicros));
        if (!writeBehindRunning_.load(std::memory_order_relaxed))
            return;
        if (cutsInProgress_.load(std::memory_order_acquire) != 0 ||
            meta_->unsyncedPages() <
                budgetPages_.load(std::memory_order_relaxed))
            continue;
        // A failed barrier hands its pages back; the next one retries
        // them, and the cut's barrier stays fatal on error.
        const int error = meta_->commitPending(fd_);
        if (error != 0 && error != last_error)
            warn("background commit barrier failed: ",
                 std::strerror(error),
                 "; its pages stay pending for the next barrier");
        last_error = error;
    }
}

} // namespace viyojit::runtime
