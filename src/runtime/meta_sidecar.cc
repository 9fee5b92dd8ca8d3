#include "runtime/meta_sidecar.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <vector>

#include "common/checksum.hh"
#include "common/logging.hh"
#include "runtime/region.hh"

namespace viyojit::runtime
{

namespace
{

/** Sealed header as stored in each slot (64 bytes). */
struct MetaHeader
{
    std::uint64_t magic = 0;
    std::uint32_t version = 0;
    std::uint32_t reserved = 0;
    std::uint64_t generation = 0;
    std::uint64_t lastSealedEpoch = 0;
    std::uint64_t lastSealedRunId = 0;
    std::uint64_t pageCount = 0;
    std::uint64_t pageSize = 0;
    std::uint32_t headerCrc = 0;
    std::uint32_t reserved2 = 0;
};

static_assert(sizeof(MetaHeader) == 64, "on-disk header layout");

constexpr std::size_t kHeaderCrcSpan = offsetof(MetaHeader, headerCrc);
constexpr std::size_t kEntryCrcSpan = offsetof(MetaEntry, entryCrc);

std::uint32_t
headerCrcOf(const MetaHeader &h)
{
    return common::crc32c(&h, kHeaderCrcSpan);
}

std::uint32_t
entryCrcOf(const MetaEntry &e)
{
    return common::crc32c(&e, kEntryCrcSpan);
}

bool
headerValid(const MetaHeader &h, std::uint64_t page_count,
            std::uint64_t page_size)
{
    return h.magic == MetaSidecar::kMagic &&
           h.version == MetaSidecar::kVersion &&
           h.pageCount == page_count && h.pageSize == page_size &&
           h.headerCrc == headerCrcOf(h);
}

} // namespace

MetaSidecar::MetaSidecar(int fd, std::uint64_t page_count,
                         std::uint64_t page_size)
    : fd_(fd),
      pageCount_(page_count),
      pageSize_(page_size),
      shadow_(new Shadow[page_count]),
      pending_(new std::atomic<std::uint64_t>[(page_count + 63) / 64]),
      snapshot_(new std::uint64_t[(page_count + 63) / 64]),
      words_((page_count + 63) / 64)
{
    for (std::uint64_t w = 0; w < words_; ++w)
        pending_[w].store(0, std::memory_order_relaxed);
}

MetaSidecar::~MetaSidecar()
{
    if (fd_ >= 0)
        ::close(fd_);
}

std::unique_ptr<MetaSidecar>
MetaSidecar::create(const std::string &path, std::uint64_t page_count,
                    std::uint64_t page_size)
{
    const int fd =
        ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        fatal("cannot create sidecar '", path,
              "': ", std::strerror(errno));
    const std::uint64_t bytes =
        kEntriesOffset + page_count * sizeof(MetaEntry);
    if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0)
        fatal("sidecar ftruncate failed: ", std::strerror(errno));

    auto sidecar = std::unique_ptr<MetaSidecar>(
        new MetaSidecar(fd, page_count, page_size));
    if (const int error = sidecar->seal(0, 0); error != 0)
        fatal("initial sidecar seal failed: ",
              std::strerror(error));
    return sidecar;
}

std::unique_ptr<MetaSidecar>
MetaSidecar::open(const std::string &path, std::uint64_t page_count,
                  std::uint64_t page_size)
{
    const int fd = ::open(path.c_str(), O_RDWR);
    if (fd < 0)
        return nullptr;

    // Highest valid generation wins; a torn seal leaves the other
    // slot intact.
    MetaHeader best;
    bool found = false;
    for (int slot = 0; slot < 2; ++slot) {
        MetaHeader h;
        if (preadFullyWithRetry(fd, &h, sizeof(h),
                                kSlotOffset[slot]) != 0)
            continue;
        if (!headerValid(h, page_count, page_size))
            continue;
        if (!found || h.generation > best.generation) {
            best = h;
            found = true;
        }
    }
    if (!found) {
        ::close(fd);
        return nullptr;
    }

    auto sidecar = std::unique_ptr<MetaSidecar>(
        new MetaSidecar(fd, page_count, page_size));
    sidecar->generation_ = best.generation;
    sidecar->lastSealedEpoch_ = best.lastSealedEpoch;
    sidecar->lastSealedRunId_ = best.lastSealedRunId;
    sidecar->loadStats_.generation = best.generation;

    std::vector<MetaEntry> entries(page_count);
    if (preadFullyWithRetry(fd, entries.data(),
                            page_count * sizeof(MetaEntry),
                            kEntriesOffset) != 0) {
        // Unreadable entry table: recover as if every entry were
        // torn — pages verify as "no commit record" (unverified).
        sidecar->loadStats_.badEntries = page_count;
        return sidecar;
    }
    for (std::uint64_t p = 0; p < page_count; ++p) {
        const MetaEntry &e = entries[p];
        if (e.flags == kInvalid && e.crc == 0 && e.epoch == 0 &&
            e.runId == 0 && e.storedLen == 0 && e.entryCrc == 0)
            continue; // never written — legitimately invalid
        if (e.entryCrc != entryCrcOf(e) ||
            (e.flags != kPending && e.flags != kCommitted)) {
            ++sidecar->loadStats_.badEntries;
            continue;
        }
        Shadow &s = sidecar->shadow_[p];
        s.crc.store(e.crc, std::memory_order_relaxed);
        s.epoch.store(e.epoch, std::memory_order_relaxed);
        s.runId.store(e.runId, std::memory_order_relaxed);
        s.storedLen.store(e.storedLen, std::memory_order_relaxed);
        s.flags.store(e.flags, std::memory_order_relaxed);
    }
    return sidecar;
}

int
MetaSidecar::writeEntry(PageNum page, std::uint32_t crc,
                        std::uint32_t flags, std::uint64_t epoch,
                        std::uint64_t run_id,
                        std::uint32_t stored_len)
{
    MetaEntry e;
    e.crc = crc;
    e.flags = flags;
    e.epoch = epoch;
    e.runId = run_id;
    e.storedLen = stored_len;
    e.entryCrc = entryCrcOf(e);
    return pwriteFullyWithRetry(
        fd_, &e, sizeof(e), kEntriesOffset + page * sizeof(MetaEntry));
}

void
MetaSidecar::recordPage(PageNum page, std::uint32_t crc,
                        std::uint64_t epoch, std::uint64_t run_id,
                        std::uint32_t stored_len)
{
    Shadow &s = shadow_[page];
    // Seqlock write: a promoter reading between the two runId stores
    // sees the run move and leaves the record alone.
    s.runId.store(0, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    s.crc.store(crc, std::memory_order_relaxed);
    s.epoch.store(epoch, std::memory_order_relaxed);
    s.storedLen.store(stored_len, std::memory_order_relaxed);
    s.flags.store(kPending, std::memory_order_relaxed);
    s.runId.store(run_id, std::memory_order_release);
    if (writeEntry(page, crc, kPending, epoch, run_id, stored_len) !=
        0)
        entryWriteErrors_.fetch_add(1, std::memory_order_relaxed);
}

void
MetaSidecar::markWritten(PageNum page, std::uint64_t run_id)
{
    // Release pairs with the promoter's acquires: a snapshotted bit
    // or run implies the data pwrite that preceded this call is
    // visible to the barrier's fdatasync.
    shadow_[page].writtenRun.store(run_id, std::memory_order_release);
    // Count before setting the bit: a promoter that takes the bit
    // subtracts after this add, so the count never dips below the
    // set it describes.
    unsynced_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t bit = 1ULL << (page % 64);
    if (pending_[page / 64].fetch_or(bit, std::memory_order_release) &
        bit)
        unsynced_.fetch_sub(1, std::memory_order_relaxed);
}

int
MetaSidecar::commitPending(int data_fd)
{
    common::MutexLock guard(barrierLock_);

    // Snapshot BEFORE the data sync, with the run each page's
    // markWritten() reported: that run's data write returned before
    // its markWritten, so the fdatasync below covers it.
    std::uint64_t snapped = 0;
    for (std::uint64_t w = 0; w < words_; ++w) {
        std::uint64_t word =
            pending_[w].exchange(0, std::memory_order_acq_rel);
        snapshot_[w] = word;
        snapped += static_cast<std::uint64_t>(std::popcount(word));
        while (word) {
            Shadow &s = shadow_[w * 64 + static_cast<unsigned>(
                                             std::countr_zero(word))];
            word &= word - 1;
            s.promoteRun = s.writtenRun.load(std::memory_order_acquire);
        }
    }
    unsynced_.fetch_sub(snapped, std::memory_order_relaxed);

    int error = fdatasyncWithRetry(data_fd);
    if (error != 0) {
        // Data durability failed: hand the pages back for the next
        // barrier and report.
        for (std::uint64_t w = 0; w < words_; ++w)
            if (snapshot_[w])
                handBack(w, snapshot_[w]);
        return error;
    }
    if (snapped == 0)
        return 0;

    // Promote: rewrite as COMMITTED each snapshotted entry whose
    // record still belongs to the run our fdatasync covered.  A
    // newer persist that re-recorded the page since then owns the
    // record now; it stays PENDING, and that persist's markWritten
    // queues it for its own barrier.
    for (std::uint64_t w = 0; w < words_; ++w) {
        std::uint64_t word = snapshot_[w];
        while (word) {
            const unsigned bit =
                static_cast<unsigned>(std::countr_zero(word));
            word &= word - 1;
            const PageNum page = w * 64 + bit;
            Shadow &s = shadow_[page];
            const std::uint64_t run = s.promoteRun;
            if (s.runId.load(std::memory_order_acquire) != run)
                continue;
            const std::uint32_t crc =
                s.crc.load(std::memory_order_relaxed);
            const std::uint64_t epoch =
                s.epoch.load(std::memory_order_relaxed);
            const std::uint32_t stored_len =
                s.storedLen.load(std::memory_order_relaxed);
            std::atomic_thread_fence(std::memory_order_acquire);
            if (s.runId.load(std::memory_order_relaxed) != run)
                continue;
            if (const int e = writeEntry(page, crc, kCommitted, epoch,
                                         run, stored_len);
                e != 0) {
                if (error == 0)
                    error = e;
                handBack(w, 1ULL << bit);
                continue;
            }
            if (s.runId.load(std::memory_order_acquire) == run)
                s.flags.store(kCommitted, std::memory_order_release);
        }
    }
    if (const int e = fdatasyncWithRetry(fd_); e != 0 && error == 0)
        error = e;
    return error;
}

void
MetaSidecar::handBack(std::uint64_t word, std::uint64_t bits)
{
    // Only the running barrier hands bits back, and no other thread
    // clears them, so counting after the OR cannot undercount.
    const std::uint64_t added =
        bits & ~pending_[word].fetch_or(bits, std::memory_order_relaxed);
    unsynced_.fetch_add(static_cast<std::uint64_t>(std::popcount(added)),
                        std::memory_order_relaxed);
}

int
MetaSidecar::seal(std::uint64_t epoch, std::uint64_t run_id)
{
    MetaHeader h;
    h.magic = kMagic;
    h.version = kVersion;
    h.generation = generation_ + 1;
    h.lastSealedEpoch = epoch;
    h.lastSealedRunId = run_id;
    h.pageCount = pageCount_;
    h.pageSize = pageSize_;
    h.headerCrc = headerCrcOf(h);

    const std::uint64_t off = kSlotOffset[h.generation % 2];
    if (const int error =
            pwriteFullyWithRetry(fd_, &h, sizeof(h), off);
        error != 0)
        return error;
    if (const int error = fdatasyncWithRetry(fd_); error != 0)
        return error;
    generation_ = h.generation;
    lastSealedEpoch_ = epoch;
    lastSealedRunId_ = run_id;
    return 0;
}

MetaEntry
MetaSidecar::entry(PageNum page) const
{
    const Shadow &s = shadow_[page];
    MetaEntry e;
    e.flags = s.flags.load(std::memory_order_acquire);
    e.crc = s.crc.load(std::memory_order_relaxed);
    e.epoch = s.epoch.load(std::memory_order_relaxed);
    e.runId = s.runId.load(std::memory_order_relaxed);
    e.storedLen = s.storedLen.load(std::memory_order_relaxed);
    return e;
}

} // namespace viyojit::runtime
