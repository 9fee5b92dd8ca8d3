/**
 * @file
 * Tests for the real-memory runtime: write-protect faults (through
 * userfaultfd where the kernel grants it, else mprotect; ctest runs
 * the suite a second time with userfaultfd refused), budget
 * enforcement on live pages, epoch recency, flush durability, and
 * crash/recovery round trips through the backing file.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <unistd.h>

#if defined(__x86_64__) && __has_include(<linux/userfaultfd.h>)
#define VIYOJIT_TEST_UFFD 1
#include <linux/userfaultfd.h>
#endif

#include <algorithm>
#include <array>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/checksum.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "runtime/meta_sidecar.hh"
#include "runtime/region.hh"

namespace viyojit::runtime
{
namespace
{

std::string
tempPath(const std::string &tag)
{
    return "/tmp/viyojit_test_" + tag + "_" +
           std::to_string(::getpid()) + ".img";
}

RuntimeConfig
manualConfig(std::uint64_t budget)
{
    RuntimeConfig cfg;
    cfg.dirtyBudgetPages = budget;
    cfg.startEpochThread = false; // deterministic tests tick manually
    return cfg;
}

/** Lines of /proc/self/maps that overlap [base, base+bytes), or only
 *  the writable ones. */
std::size_t
mappings(const void *base, std::uint64_t bytes, bool writable_only)
{
    const auto lo = reinterpret_cast<std::uintptr_t>(base);
    const std::uintptr_t hi = lo + bytes;
    std::ifstream maps("/proc/self/maps");
    std::size_t count = 0;
    std::string line;
    while (std::getline(maps, line)) {
        std::uintptr_t start = 0;
        std::uintptr_t end = 0;
        char perms[5] = {};
        if (std::sscanf(line.c_str(), "%" SCNxPTR "-%" SCNxPTR " %4s",
                        &start, &end, perms) == 3 &&
            start < hi && end > lo && (!writable_only || perms[1] == 'w'))
            ++count;
    }
    return count;
}

/** Bit 57 of the page's /proc/self/pagemap entry: its PTE carries the
 *  userfaultfd write-protect bit. */
bool
uffdWriteProtected(const void *addr)
{
    const auto page = reinterpret_cast<std::uintptr_t>(addr) /
                      static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
    const int fd = ::open("/proc/self/pagemap", O_RDONLY);
    EXPECT_GE(fd, 0) << std::strerror(errno);
    std::uint64_t entry = 0;
    EXPECT_EQ(::pread(fd, &entry, sizeof(entry),
                      static_cast<off_t>(page * sizeof(entry))),
              static_cast<ssize_t>(sizeof(entry)));
    ::close(fd);
    return (entry >> 57) & 1;
}

/** Whether this process may open a userfaultfd with the flags and
 *  SIGBUS delivery NvRegion asks for (x86-64 builds only, as there). */
bool
userfaultfdGranted()
{
#ifdef VIYOJIT_TEST_UFFD
    const int fd = static_cast<int>(::syscall(
        __NR_userfaultfd, O_CLOEXEC | O_NONBLOCK | UFFD_USER_MODE_ONLY));
    if (fd < 0)
        return false;
    struct uffdio_api api = {};
    api.api = UFFD_API;
    api.features = UFFD_FEATURE_SIGBUS;
    const bool granted = ::ioctl(fd, UFFDIO_API, &api) == 0;
    ::close(fd);
    return granted;
#else
    return false;
#endif
}

struct RegionFixture : public ::testing::Test
{
    void
    TearDown() override
    {
        for (const std::string &path : cleanup)
            ::unlink(path.c_str());
    }

    /** A fresh image path; it and the `.meta` sidecar that
     *  NvRegion::create makes next to it are unlinked at teardown. */
    std::string
    makePath(const std::string &tag)
    {
        const std::string path = tempPath(tag);
        cleanup.push_back(path);
        cleanup.push_back(path + ".meta");
        return path;
    }

    std::vector<std::string> cleanup;
};

TEST_F(RegionFixture, CreateGivesZeroedReadableMemory)
{
    auto region =
        NvRegion::create(makePath("zero"), 64_KiB, manualConfig(4));
    const char *data = static_cast<const char *>(region->base());
    for (std::uint64_t i = 0; i < region->size(); i += 4096)
        EXPECT_EQ(data[i], 0);
    EXPECT_EQ(region->size() % region->pageSize(), 0u);
    // Reads never admit a page, even where the first read of each
    // faults (userfaultfd maps it zeroed and write-protected).
    EXPECT_EQ(region->stats().writeFaults, 0u);
    EXPECT_EQ(region->stats().dirtyPages, 0u);
    static_cast<char *>(region->base())[0] = 'x';
    EXPECT_EQ(region->stats().writeFaults, 1u);
    EXPECT_EQ(region->stats().dirtyPages, 1u);
}

TEST_F(RegionFixture, PicksUserfaultfdWhereGranted)
{
    const Protection want = userfaultfdGranted() ? Protection::userfaultfd
                                                 : Protection::mprotect;
    const std::string path = makePath("primitive");
    {
        auto region = NvRegion::create(path, 64_KiB, manualConfig(4));
        EXPECT_EQ(region->protection(), want);
        static_cast<char *>(region->base())[0] = 'x';
    }
    auto region = NvRegion::recover(path, manualConfig(4));
    EXPECT_EQ(region->protection(), want);
}

TEST_F(RegionFixture, FirstWriteFaultsAndSucceeds)
{
    auto region =
        NvRegion::create(makePath("fw"), 64_KiB, manualConfig(4));
    char *data = static_cast<char *>(region->base());
    data[0] = 'x';
    data[1] = 'y';
    EXPECT_EQ(data[0], 'x');
    EXPECT_EQ(region->stats().writeFaults, 1u);
    EXPECT_EQ(region->stats().dirtyPages, 1u);
}

TEST_F(RegionFixture, SecondPageFaultsSeparately)
{
    auto region =
        NvRegion::create(makePath("p2"), 64_KiB, manualConfig(4));
    char *data = static_cast<char *>(region->base());
    data[0] = 'a';
    data[region->pageSize()] = 'b';
    EXPECT_EQ(region->stats().writeFaults, 2u);
    EXPECT_EQ(region->stats().dirtyPages, 2u);
}

TEST_F(RegionFixture, BudgetEnforcedOnRealPages)
{
    auto region =
        NvRegion::create(makePath("budget"), 256_KiB, manualConfig(3));
    char *data = static_cast<char *>(region->base());
    const std::uint64_t ps = region->pageSize();
    for (std::uint64_t p = 0; p < region->pageCount(); ++p) {
        data[p * ps] = static_cast<char>(p);
        EXPECT_LE(region->stats().dirtyPages, 3u);
    }
    EXPECT_GT(region->stats().blockedEvictions, 0u);
    // All content still readable and correct.
    for (std::uint64_t p = 0; p < region->pageCount(); ++p)
        EXPECT_EQ(data[p * ps], static_cast<char>(p));
}

TEST_F(RegionFixture, FlushAllMakesFileMatchMemory)
{
    const std::string path = makePath("flush");
    auto region = NvRegion::create(path, 64_KiB, manualConfig(8));
    char *data = static_cast<char *>(region->base());
    const std::uint64_t ps = region->pageSize();
    for (std::uint64_t p = 0; p < region->pageCount(); ++p)
        std::memset(data + p * ps, 'A' + static_cast<int>(p % 26), ps);
    region->flushAll();
    EXPECT_EQ(region->stats().dirtyPages, 0u);

    std::ifstream file(path, std::ios::binary);
    std::vector<char> file_bytes(region->size());
    file.read(file_bytes.data(),
              static_cast<std::streamsize>(file_bytes.size()));
    EXPECT_EQ(std::memcmp(file_bytes.data(), data, region->size()), 0);
}

TEST_F(RegionFixture, RecoveryRestoresContents)
{
    const std::string path = makePath("recover");
    {
        auto region = NvRegion::create(path, 64_KiB, manualConfig(8));
        char *data = static_cast<char *>(region->base());
        std::strcpy(data, "survives the power cut");
        std::strcpy(data + region->pageSize() * 3, "page three");
        // Destructor flushes (graceful shutdown).
    }
    auto region = NvRegion::recover(path, manualConfig(8));
    const char *data = static_cast<const char *>(region->base());
    EXPECT_STREQ(data, "survives the power cut");
    EXPECT_STREQ(data + region->pageSize() * 3, "page three");
    EXPECT_EQ(region->stats().dirtyPages, 0u);
}

TEST_F(RegionFixture, RecoveredRegionIsWritable)
{
    const std::string path = makePath("rewrite");
    {
        auto region = NvRegion::create(path, 64_KiB, manualConfig(4));
        static_cast<char *>(region->base())[0] = '1';
    }
    {
        // Page 0 was read in; page 9 lies in a hole, which recovery
        // leaves unmapped.  A first write to either is admitted and
        // persisted.
        auto region = NvRegion::recover(path, manualConfig(4));
        char *data = static_cast<char *>(region->base());
        data[0] = '2';
        EXPECT_EQ(data[0], '2');
        EXPECT_EQ(region->stats().writeFaults, 1u);
        data[9 * region->pageSize()] = 'H';
        EXPECT_EQ(region->stats().writeFaults, 2u);
        region->flushAll();
    }
    auto region = NvRegion::recover(path, manualConfig(4));
    const RuntimeRecoveryReport &report = region->recoveryReport();
    EXPECT_EQ(report.verifiedPages, 2u);
    EXPECT_EQ(report.unverifiedPages, region->pageCount() - 2);
    EXPECT_TRUE(report.quarantined.empty());
    const char *data = static_cast<const char *>(region->base());
    EXPECT_EQ(data[0], '2');
    EXPECT_EQ(data[9 * region->pageSize()], 'H');
}

TEST_F(RegionFixture, EpochTickReprotectsDirtyPages)
{
    {
        auto region =
            NvRegion::create(makePath("epoch"), 64_KiB, manualConfig(8));
        char *data = static_cast<char *>(region->base());
        data[0] = 'a';
        EXPECT_EQ(region->stats().writeFaults, 1u);
        region->epochTick();
        // Still dirty (within budget), but re-protected: the next
        // write faults again, which is how recency is sampled.
        data[1] = 'b';
        EXPECT_EQ(region->stats().writeFaults, 2u);
        EXPECT_EQ(region->stats().dirtyPages, 1u);
    }

    // Many runs of written pages: isolated pages, a run, the first
    // and last page, and a run across the two-shard boundary at 128.
    // Under mprotect only permissions are checked, never the number
    // of mappings: whether re-protected pages merge back into fewer
    // mappings depends on the memory layout.  Under userfaultfd the
    // protection is each PTE's uffd-wp bit and the region stays one
    // mapping.
    static constexpr std::array<std::uint64_t, 11> kWritten = {
        0, 5, 6, 7, 60, 126, 127, 128, 129, 200, 255};
    for (const unsigned shards : {1u, 2u}) {
        SCOPED_TRACE(shards);
        RuntimeConfig cfg = manualConfig(64);
        cfg.shards = shards;
        auto region = NvRegion::create(
            makePath("epoch_runs" + std::to_string(shards)), 1_MiB, cfg);
        ASSERT_EQ(region->pageCount(), 256u);
        char *data = static_cast<char *>(region->base());
        const std::uint64_t ps = region->pageSize();
        for (const std::uint64_t p : kWritten)
            data[p * ps] = 'a';
        const bool uffd = region->protection() == Protection::userfaultfd;
        if (uffd) {
            EXPECT_EQ(mappings(data, region->size(), false), 1u);
            for (const std::uint64_t p : kWritten)
                EXPECT_FALSE(uffdWriteProtected(data + p * ps)) << p;
        } else {
            EXPECT_EQ(mappings(data, region->size(), true), 6u);
        }
        region->epochTick();
        if (uffd) {
            EXPECT_EQ(mappings(data, region->size(), false), 1u);
            for (const std::uint64_t p : kWritten)
                EXPECT_TRUE(uffdWriteProtected(data + p * ps)) << p;
        } else {
            EXPECT_EQ(mappings(data, region->size(), true), 0u);
        }
        const std::uint64_t faults = region->stats().writeFaults;
        for (const std::uint64_t p : kWritten)
            data[p * ps] = 'b';
        EXPECT_EQ(region->stats().writeFaults, faults + kWritten.size());
        EXPECT_EQ(region->stats().dirtyPages, kWritten.size());
        if (uffd) {
            EXPECT_EQ(mappings(data, region->size(), false), 1u);
        }
    }
}

TEST_F(RegionFixture, ScatteredWritesStayOneMapping)
{
    // 40,000 dirty pages, each between two never-written ones.  Under
    // mprotect each is a writable mapping of its own, which exceeds
    // vm.max_map_count (65,530 by default) and panics.
    constexpr std::uint64_t kWritten = 40000;
    const auto ps = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
    auto region = NvRegion::create(makePath("scattered"),
                                   2 * kWritten * ps,
                                   manualConfig(kWritten));
    if (region->protection() != Protection::userfaultfd)
        GTEST_SKIP() << "mprotect fallback: one mapping per written "
                        "page still hits vm.max_map_count (ROADMAP "
                        "item 1, step 1)";
    char *data = static_cast<char *>(region->base());
    for (std::uint64_t i = 0; i < kWritten; ++i)
        data[2 * i * ps] = static_cast<char>(i | 1);
    EXPECT_EQ(region->stats().dirtyPages, kWritten);
    EXPECT_EQ(mappings(data, region->size(), false), 1u);
    EXPECT_EQ(region->flushAll(), kWritten);
    EXPECT_EQ(region->stats().dirtyPages, 0u);
    EXPECT_EQ(mappings(data, region->size(), false), 1u);
    for (std::uint64_t i = 0; i < kWritten; ++i)
        ASSERT_EQ(data[2 * i * ps], static_cast<char>(i | 1)) << i;
}

TEST_F(RegionFixture, ColdPagesGetCopiedProactively)
{
    auto region =
        NvRegion::create(makePath("cold"), 256_KiB, manualConfig(8));
    char *data = static_cast<char *>(region->base());
    const std::uint64_t ps = region->pageSize();
    // Dirty 8 pages (at budget), then keep writing only page 0
    // across epochs; pressure stays positive so the copier drains
    // cold pages below the threshold.
    for (int p = 0; p < 8; ++p)
        data[p * ps] = 'x';
    for (int e = 0; e < 10; ++e) {
        region->epochTick();
        data[0] = static_cast<char>('a' + e);
    }
    EXPECT_GT(region->stats().proactiveCopies, 0u);
    EXPECT_LT(region->stats().dirtyPages, 8u);
}

TEST_F(RegionFixture, SetDirtyBudgetShrinks)
{
    auto region =
        NvRegion::create(makePath("shrink"), 256_KiB, manualConfig(8));
    char *data = static_cast<char *>(region->base());
    const std::uint64_t ps = region->pageSize();
    for (int p = 0; p < 8; ++p)
        data[p * ps] = 'x';
    region->setDirtyBudget(2);
    EXPECT_LE(region->stats().dirtyPages, 2u);
    // And the budget holds for future writes.
    for (std::uint64_t p = 8; p < region->pageCount(); ++p) {
        data[p * ps] = 'y';
        EXPECT_LE(region->stats().dirtyPages, 2u);
    }
}

TEST_F(RegionFixture, EpochThreadRunsUnattended)
{
    RuntimeConfig cfg = manualConfig(8);
    cfg.startEpochThread = true;
    cfg.epochMicros = 200;
    auto region =
        NvRegion::create(makePath("thread"), 64_KiB, cfg);
    char *data = static_cast<char *>(region->base());
    for (int i = 0; i < 50; ++i) {
        data[(i % 8) * region->pageSize()] = static_cast<char>(i);
        ::usleep(100);
    }
    EXPECT_GT(region->stats().epochs, 3u);
}

TEST_F(RegionFixture, RandomWritesSurviveCrashFlush)
{
    const std::string path = makePath("fuzz");
    std::vector<char> expected;
    {
        auto region = NvRegion::create(path, 512_KiB, manualConfig(5));
        char *data = static_cast<char *>(region->base());
        Rng rng(2024);
        for (int i = 0; i < 4000; ++i) {
            const std::uint64_t off =
                rng.nextBounded(region->size() - 8);
            data[off] = static_cast<char>(rng.nextBounded(256));
            if (i % 200 == 0)
                region->epochTick();
        }
        region->flushAll(); // the power-failure flush
        expected.assign(data, data + region->size());
    }
    auto region = NvRegion::recover(path, manualConfig(5));
    EXPECT_EQ(std::memcmp(region->base(), expected.data(),
                          expected.size()),
              0);
}

TEST_F(RegionFixture, ZeroBudgetRejected)
{
    RuntimeConfig cfg;
    cfg.dirtyBudgetPages = 0;
    EXPECT_THROW(NvRegion::create(makePath("zb"), 64_KiB, cfg),
                 FatalError);
}

TEST_F(RegionFixture, RecoverRejectsPartialLastPage)
{
    // A file that ends mid-page (written on a host with a smaller
    // page, or appended to) would map a last page no shard owns.
    const std::string path = makePath("partial");
    const auto ps = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    {
        std::ofstream image(path, std::ios::binary);
        const std::vector<char> bytes(4 * ps + 4, 'v');
        image.write(bytes.data(),
                    static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_THROW(NvRegion::recover(path, manualConfig(4)), FatalError);
}

std::size_t
openFdCount()
{
    std::size_t count = 0;
    for ([[maybe_unused]] const auto &entry :
         std::filesystem::directory_iterator("/proc/self/fd"))
        ++count;
    return count;
}

TEST_F(RegionFixture, FailedCreateOrRecoverReleasesFdAndFiles)
{
    const std::size_t fds = openFdCount();

    // Rejected before any file exists.
    const std::string odd = makePath("odd_shards");
    RuntimeConfig odd_cfg = manualConfig(8);
    odd_cfg.shards = 3;
    EXPECT_THROW(NvRegion::create(odd, 64_KiB, odd_cfg), FatalError);
    EXPECT_EQ(openFdCount(), fds);
    EXPECT_FALSE(std::filesystem::exists(odd));
    EXPECT_FALSE(std::filesystem::exists(odd + ".meta"));

    // Rejected after the open, the mapping and the sidecar: 16 pages
    // in 4 shards cannot split a 2-page budget.
    const std::string thin = makePath("thin_budget");
    RuntimeConfig thin_cfg = manualConfig(2);
    thin_cfg.shards = 4;
    EXPECT_THROW(NvRegion::create(thin, 64_KiB, thin_cfg), FatalError);
    EXPECT_EQ(openFdCount(), fds);
    EXPECT_FALSE(std::filesystem::exists(thin));
    EXPECT_FALSE(std::filesystem::exists(thin + ".meta"));

    // Rejected after the open; the file is the caller's, so it stays.
    const std::string empty = makePath("empty");
    std::ofstream(empty).close();
    EXPECT_THROW(NvRegion::recover(empty, manualConfig(8)), FatalError);
    EXPECT_EQ(openFdCount(), fds);
    EXPECT_TRUE(std::filesystem::exists(empty));
}

TEST_F(RegionFixture, CoalescedFlushMakesFileMatchMemory)
{
    // Sequential dirtying with the coalesced-IO path on: victims are
    // page-number-adjacent, so the flush must go out as vectored run
    // writes — and the file must still match memory byte for byte.
    const std::string path = makePath("coalesce");
    RuntimeConfig cfg = manualConfig(8);
    cfg.maxRunPages = 8;
    cfg.extentShift = 2;
    auto region = NvRegion::create(path, 64_KiB, cfg);
    char *data = static_cast<char *>(region->base());
    const std::uint64_t ps = region->pageSize();
    for (std::uint64_t p = 0; p < region->pageCount(); ++p)
        std::memset(data + p * ps, 'a' + static_cast<int>(p % 26), ps);
    region->flushAll();
    EXPECT_EQ(region->stats().dirtyPages, 0u);

    // Runs actually formed: more pages moved per IO than one.
    const RegionStats stats = region->stats();
    EXPECT_GT(stats.runSubmits, 0u);
    EXPECT_GT(stats.runPagesCoalesced, stats.runSubmits);

    std::ifstream file(path, std::ios::binary);
    std::vector<char> file_bytes(region->size());
    file.read(file_bytes.data(),
              static_cast<std::streamsize>(file_bytes.size()));
    EXPECT_EQ(std::memcmp(file_bytes.data(), data, region->size()), 0);
}

TEST_F(RegionFixture, CoalescedRecoveryRoundTrip)
{
    const std::string path = makePath("coalesce_rec");
    RuntimeConfig cfg = manualConfig(8);
    cfg.maxRunPages = 16;
    cfg.extentShift = 2;
    std::vector<char> expected;
    {
        auto region = NvRegion::create(path, 64_KiB, cfg);
        char *data = static_cast<char *>(region->base());
        Rng rng(0xc0a1e5ce);
        for (std::uint64_t i = 0; i < region->size(); ++i)
            data[i] = static_cast<char>(rng.next());
        expected.assign(data, data + region->size());
        region->flushAll();
    }
    auto region = NvRegion::recover(path, cfg);
    EXPECT_EQ(std::memcmp(region->base(), expected.data(),
                          expected.size()),
              0);
}

TEST_F(RegionFixture, CoalescedWithCopiersMatchesFile)
{
    // The copier-pool run path: one ring slot per run, the worker
    // batch bounded by summed pages.  End state must equal the
    // inline path's.
    const std::string path = makePath("coalesce_cp");
    RuntimeConfig cfg = manualConfig(8);
    cfg.maxRunPages = 8;
    cfg.copierThreads = 2;
    auto region = NvRegion::create(path, 256_KiB, cfg);
    char *data = static_cast<char *>(region->base());
    const std::uint64_t ps = region->pageSize();
    for (int sweep = 0; sweep < 3; ++sweep) {
        for (std::uint64_t p = 0; p < region->pageCount(); ++p)
            std::memset(data + p * ps,
                        'A' + static_cast<int>((p + sweep) % 26), ps);
        region->epochTick();
    }
    region->flushAll();
    EXPECT_EQ(region->stats().dirtyPages, 0u);
    EXPECT_GT(region->stats().runSubmits, 0u);

    std::ifstream file(path, std::ios::binary);
    std::vector<char> file_bytes(region->size());
    file.read(file_bytes.data(),
              static_cast<std::streamsize>(file_bytes.size()));
    EXPECT_EQ(std::memcmp(file_bytes.data(), data, region->size()), 0);
}

TEST_F(RegionFixture, RunPersistsWaitForTheNextBarrier)
{
    // A multi-page run joins the unsynced set exactly as a single
    // page does: no persist syncs on its own, inline or on a copier.
    // Fewer pages than the budget get persisted, so the write-behind
    // barrier never fires, and only the cut's barrier commits them.
    for (const unsigned copiers : {0u, 2u}) {
        SCOPED_TRACE("copierThreads = " + std::to_string(copiers));
        const std::string path =
            makePath("run_unsynced_" + std::to_string(copiers));
        const std::uint64_t budget = 64;
        RuntimeConfig cfg = manualConfig(budget);
        cfg.maxRunPages = 8;
        cfg.extentShift = 2;
        cfg.copierThreads = copiers;
        auto region = NvRegion::create(path, 256 * 4096, cfg);
        char *data = static_cast<char *>(region->base());
        const std::uint64_t ps = region->pageSize();
        PageNum next = 0;
        for (int round = 0; round < 4; ++round) {
            for (int i = 0; i < 24; ++i, ++next)
                std::memset(data + next * ps, round + 1, ps);
            region->epochTick();
        }

        // Every page is written once, so the copies the controller
        // started have all landed once that many pages persisted.  A
        // copier completion can stage a partial run that only the
        // next epoch boundary submits, so the wait ticks as well.
        const auto landed = [ps](const RegionStats &s) {
            return s.bytesPersisted / ps >= s.proactiveCopies +
                                                s.shedEvictions +
                                                s.blockedEvictions;
        };
        RegionStats stats = region->stats();
        for (int i = 0; i < 10000 && !landed(stats); ++i) {
            ::usleep(1000);
            region->epochTick();
            stats = region->stats();
        }
        ASSERT_TRUE(landed(stats));
        const std::uint64_t persisted = stats.bytesPersisted / ps;
        EXPECT_GT(stats.runSubmits, 0u);
        EXPECT_LT(persisted, budget);
        EXPECT_EQ(stats.unsyncedPages, persisted);

        region->flushAll();
        EXPECT_EQ(region->stats().unsyncedPages, 0u);
        auto sidecar =
            MetaSidecar::open(path + ".meta", region->pageCount(), ps);
        ASSERT_NE(sidecar, nullptr);
        for (PageNum p = 0; p < region->pageCount(); ++p)
            EXPECT_NE(sidecar->entry(p).flags, MetaSidecar::kPending)
                << "page " << p;
    }
}

TEST(SyscallRetryTest, FdatasyncReportsNonRetryableErrno)
{
    // EBADF is not transient: the helper must return it to the
    // caller (who escalates) instead of retrying or aborting.
    EXPECT_EQ(fdatasyncWithRetry(-1), EBADF);
}

TEST(SyscallRetryTest, PwriteFullyWritesAndReportsErrors)
{
    const std::string path = tempPath("pwrite");
    const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_TRUNC,
                          0600);
    ASSERT_GE(fd, 0);
    const std::string payload = "durable bytes";
    EXPECT_EQ(pwriteFullyWithRetry(fd, payload.data(), payload.size(),
                                   4096),
              0);

    std::vector<char> back(payload.size());
    ASSERT_EQ(::pread(fd, back.data(), back.size(), 4096),
              static_cast<ssize_t>(back.size()));
    EXPECT_EQ(std::string(back.begin(), back.end()), payload);
    ::close(fd);

    // A closed descriptor is a hard error, returned not retried.
    EXPECT_EQ(pwriteFullyWithRetry(fd, payload.data(), payload.size(),
                                   0),
              EBADF);
    ::unlink(path.c_str());
}

TEST(SyscallRetryTest, AdvanceIovecsResumesMidArray)
{
    char buf[600];
    const auto fresh = [&]() {
        return std::array<struct iovec, 3>{
            {{buf, 100}, {buf + 100, 200}, {buf + 300, 300}}};
    };

    // Nothing transferred: array untouched.
    auto iov = fresh();
    EXPECT_EQ(advanceIovecs(iov.data(), 3, 0), 0u);
    EXPECT_EQ(iov[0].iov_len, 100u);

    // Exactly the first entry: resume at index 1, untouched.
    iov = fresh();
    EXPECT_EQ(advanceIovecs(iov.data(), 3, 100), 1u);
    EXPECT_EQ(iov[1].iov_base, buf + 100);
    EXPECT_EQ(iov[1].iov_len, 200u);

    // Mid-second-entry: its base and length shift by the overlap.
    iov = fresh();
    EXPECT_EQ(advanceIovecs(iov.data(), 3, 150), 1u);
    EXPECT_EQ(iov[1].iov_base, buf + 150);
    EXPECT_EQ(iov[1].iov_len, 150u);
    EXPECT_EQ(iov[2].iov_len, 300u);

    // One byte short of everything: resume inside the last entry.
    iov = fresh();
    EXPECT_EQ(advanceIovecs(iov.data(), 3, 599), 2u);
    EXPECT_EQ(iov[2].iov_base, buf + 599);
    EXPECT_EQ(iov[2].iov_len, 1u);

    // Fully transferred: index == count, nothing left.
    iov = fresh();
    EXPECT_EQ(advanceIovecs(iov.data(), 3, 600), 3u);
}

TEST(SyscallRetryTest, PwritevFullyWritesMultipleIovecsAndReportsErrors)
{
    const std::string path = tempPath("pwritev");
    const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_TRUNC,
                          0600);
    ASSERT_GE(fd, 0);

    std::string a = "torn ", b = "runs ", c = "never persist clean";
    std::array<struct iovec, 3> iov{{{a.data(), a.size()},
                                     {b.data(), b.size()},
                                     {c.data(), c.size()}}};
    EXPECT_EQ(pwritevFullyWithRetry(fd, iov.data(), 3, 8192), 0);

    const std::string expected = "torn runs never persist clean";
    std::vector<char> back(expected.size());
    ASSERT_EQ(::pread(fd, back.data(), back.size(), 8192),
              static_cast<ssize_t>(back.size()));
    EXPECT_EQ(std::string(back.begin(), back.end()), expected);
    ::close(fd);

    // A closed descriptor is a hard error, returned not retried.
    std::array<struct iovec, 1> bad{{{a.data(), a.size()}}};
    EXPECT_EQ(pwritevFullyWithRetry(fd, bad.data(), 1, 0), EBADF);
    ::unlink(path.c_str());
}

TEST(SyscallRetryTest, PreadFullyReadsAndReportsErrors)
{
    const std::string path = tempPath("pread");
    const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_TRUNC,
                          0600);
    ASSERT_GE(fd, 0);
    const std::string payload = "recovered bytes";
    ASSERT_EQ(::pwrite(fd, payload.data(), payload.size(), 4096),
              static_cast<ssize_t>(payload.size()));

    std::vector<char> back(payload.size());
    EXPECT_EQ(preadFullyWithRetry(fd, back.data(), back.size(), 4096),
              0);
    EXPECT_EQ(std::string(back.begin(), back.end()), payload);

    // EOF before the requested length is an error, not a short
    // success: recovery sizes reads from the file, so a short image
    // means the file shrank or the device lied.
    std::vector<char> over(payload.size() + 16);
    EXPECT_EQ(preadFullyWithRetry(fd, over.data(), over.size(), 4096),
              EIO);
    // Reading entirely past the end is the same truncated-image case.
    EXPECT_EQ(preadFullyWithRetry(fd, back.data(), back.size(),
                                  1_MiB),
              EIO);
    ::close(fd);

    // A closed descriptor is a hard error, returned not retried.
    EXPECT_EQ(preadFullyWithRetry(fd, back.data(), back.size(), 4096),
              EBADF);
    ::unlink(path.c_str());
}

// ---------------------------------------------------------------------
// Verified durability: the commit sidecar, recovery classification,
// and the background scrubber (DESIGN.md §10).
// ---------------------------------------------------------------------

TEST_F(RegionFixture, SidecarVerifiesCleanRecovery)
{
    const std::string path = makePath("sidecar");
    const std::uint64_t ps = 4096;
    {
        auto region = NvRegion::create(path, 64_KiB, manualConfig(8));
        char *data = static_cast<char *>(region->base());
        for (std::uint64_t p = 0; p < region->pageCount(); ++p)
            std::memset(data + p * ps, 'A' + static_cast<int>(p), ps);
        region->flushAll();
    }
    auto region = NvRegion::recover(path, manualConfig(8));
    const RuntimeRecoveryReport &report = region->recoveryReport();
    EXPECT_TRUE(report.sidecarFound);
    EXPECT_EQ(report.verifiedPages, region->pageCount());
    EXPECT_EQ(report.checksumMismatches, 0u);
    EXPECT_EQ(report.badEntries, 0u);
    EXPECT_TRUE(report.quarantined.empty());
    const char *data = static_cast<const char *>(region->base());
    for (std::uint64_t p = 0; p < region->pageCount(); ++p)
        EXPECT_EQ(data[p * ps], 'A' + static_cast<int>(p));
}

TEST_F(RegionFixture, CorruptBackingPageIsQuarantinedNotTrusted)
{
    const std::string path = makePath("rot");
    const std::uint64_t ps = 4096;
    {
        auto region = NvRegion::create(path, 64_KiB, manualConfig(8));
        char *data = static_cast<char *>(region->base());
        for (std::uint64_t p = 0; p < region->pageCount(); ++p)
            std::memset(data + p * ps, 'A' + static_cast<int>(p), ps);
        region->flushAll();
    }
    // Rot one byte of page 3 behind the runtime's back.
    {
        const int fd = ::open(path.c_str(), O_RDWR);
        ASSERT_GE(fd, 0);
        char byte;
        ASSERT_EQ(::pread(fd, &byte, 1, 3 * ps + 17), 1);
        byte ^= 0x40;
        ASSERT_EQ(::pwrite(fd, &byte, 1, 3 * ps + 17), 1);
        ::close(fd);
    }
    auto region = NvRegion::recover(path, manualConfig(8));
    const RuntimeRecoveryReport &report = region->recoveryReport();
    EXPECT_TRUE(report.sidecarFound);
    EXPECT_EQ(report.checksumMismatches, 1u);
    EXPECT_EQ(report.tornRunPages + report.staleEpochPages +
                  report.silentCorruptPages,
              1u);
    ASSERT_EQ(report.quarantined.size(), 1u);
    EXPECT_EQ(report.quarantined[0], 3u);
    EXPECT_EQ(report.verifiedPages, region->pageCount() - 1);
}

/** Pages of a region's mapping that mincore reports resident. */
std::uint64_t
residentPages(const NvRegion &region)
{
    std::vector<unsigned char> vec(region.pageCount());
    EXPECT_EQ(::mincore(const_cast<void *>(region.base()), region.size(),
                        vec.data()),
              0);
    return static_cast<std::uint64_t>(
        std::count_if(vec.begin(), vec.end(),
                      [](unsigned char v) { return (v & 1) != 0; }));
}

/** True when anonymous memory gets transparent huge pages unasked:
 *  then touching one page makes its whole 2 MiB block resident. */
bool
hugePagesAlways()
{
    std::ifstream file("/sys/kernel/mm/transparent_hugepage/enabled");
    std::string mode;
    std::getline(file, mode);
    return mode.find("[always]") != std::string::npos;
}

TEST_F(RegionFixture, RecoveryLoadsOnlyWrittenExtents)
{
    const std::string path = makePath("sparse");
    const std::uint64_t ps = 4096;
    const std::uint64_t pages = 1024;
    const std::array<PageNum, 8> written = {0,   3,   130, 257,
                                            511, 512, 900, 1023};
    const PageNum punched = 257;
    auto fill = [](PageNum p) { return static_cast<char>('a' + p % 26); };
    {
        auto region =
            NvRegion::create(path, pages * ps, manualConfig(16));
        char *data = static_cast<char *>(region->base());
        for (const PageNum p : written)
            std::memset(data + p * ps, fill(p), ps);
        region->flushAll();
    }
    {
        const int fd = ::open(path.c_str(), O_RDONLY);
        ASSERT_GE(fd, 0);
        const off_t hole = ::lseek(fd, 0, SEEK_HOLE);
        ::close(fd);
        if (hole < 0 || static_cast<std::uint64_t>(hole) >= pages * ps)
            GTEST_SKIP() << "the filesystem under /tmp reports no holes";
    }
    // Every page reads as written, or as zeros if it never was or is
    // `lost` (pass `pages` for none).
    auto expectContent = [&](const NvRegion &region, PageNum lost) {
        const char *data = static_cast<const char *>(region.base());
        std::vector<char> want(ps);
        for (PageNum p = 0; p < pages; ++p) {
            const bool kept =
                p != lost && std::find(written.begin(), written.end(),
                                       p) != written.end();
            std::memset(want.data(), kept ? fill(p) : 0, ps);
            EXPECT_EQ(std::memcmp(data + p * ps, want.data(), ps), 0)
                << "page " << p;
        }
    };

    {
        auto region = NvRegion::recover(path, manualConfig(16));
        // Only the written extents were read into memory: the holes
        // are still untouched anonymous pages.
        if (!hugePagesAlways()) {
            EXPECT_LE(residentPages(*region), written.size());
        }
        const RuntimeRecoveryReport &report = region->recoveryReport();
        EXPECT_EQ(report.verifiedPages, written.size());
        EXPECT_EQ(report.unverifiedPages, pages - written.size());
        EXPECT_EQ(report.checksumMismatches, 0u);
        EXPECT_TRUE(report.quarantined.empty());
        expectContent(*region, pages);
    }

    // Punch a hole under a committed page: recovery skips it while
    // loading, but verification still checks the page's record.
    {
        const int fd = ::open(path.c_str(), O_RDWR);
        ASSERT_GE(fd, 0);
        ASSERT_EQ(::fallocate(fd, FALLOC_FL_PUNCH_HOLE |
                                      FALLOC_FL_KEEP_SIZE,
                              static_cast<off_t>(punched * ps),
                              static_cast<off_t>(ps)),
                  0)
            << std::strerror(errno);
        ::close(fd);
    }
    auto region = NvRegion::recover(path, manualConfig(16));
    const RuntimeRecoveryReport &report = region->recoveryReport();
    EXPECT_EQ(report.checksumMismatches, 1u);
    EXPECT_EQ(report.tornRunPages + report.staleEpochPages +
                  report.silentCorruptPages,
              1u);
    ASSERT_EQ(report.quarantined.size(), 1u);
    EXPECT_EQ(report.quarantined[0], punched);
    EXPECT_EQ(report.verifiedPages, written.size() - 1);
    expectContent(*region, punched);
}

TEST_F(RegionFixture, TornSidecarEntryLoadsPageUnverified)
{
    const std::string path = makePath("tornmeta");
    const std::string meta_path = path + ".meta";
    const std::uint64_t ps = 4096;
    {
        auto region = NvRegion::create(path, 64_KiB, manualConfig(8));
        char *data = static_cast<char *>(region->base());
        for (std::uint64_t p = 0; p < region->pageCount(); ++p)
            std::memset(data + p * ps, 'A' + static_cast<int>(p), ps);
        region->flushAll();
    }
    // Tear page 2's commit record: its self-CRC must fail, so the
    // page loads unverified (no record to check against) instead of
    // being condemned by garbage metadata.
    {
        const int fd = ::open(meta_path.c_str(), O_RDWR);
        ASSERT_GE(fd, 0);
        const off_t at =
            static_cast<off_t>(MetaSidecar::kEntriesOffset + 2 * 32);
        char byte;
        ASSERT_EQ(::pread(fd, &byte, 1, at), 1);
        byte ^= 0xFF;
        ASSERT_EQ(::pwrite(fd, &byte, 1, at), 1);
        ::close(fd);
    }
    auto region = NvRegion::recover(path, manualConfig(8));
    const RuntimeRecoveryReport &report = region->recoveryReport();
    EXPECT_TRUE(report.sidecarFound);
    EXPECT_EQ(report.badEntries, 1u);
    EXPECT_EQ(report.unverifiedPages, 1u);
    EXPECT_EQ(report.verifiedPages, region->pageCount() - 1);
    EXPECT_EQ(report.checksumMismatches, 0u);
    EXPECT_TRUE(report.quarantined.empty());
    // Content still loads — it just carries no durability claim.
    const char *data = static_cast<const char *>(region->base());
    EXPECT_EQ(data[2 * ps], 'C');
}

TEST_F(RegionFixture, LegacyImageWithoutSidecarLoadsUnverified)
{
    const std::string path = makePath("legacy");
    const std::string meta_path = path + ".meta";
    {
        auto region = NvRegion::create(path, 64_KiB, manualConfig(8));
        char *data = static_cast<char *>(region->base());
        std::strcpy(data, "legacy but intact");
        region->flushAll();
    }
    // An image with no sidecar beside it (written before sidecars
    // existed, or its .meta lost).
    ASSERT_EQ(::unlink(meta_path.c_str()), 0);
    auto region = NvRegion::recover(path, manualConfig(8));
    const RuntimeRecoveryReport &report = region->recoveryReport();
    EXPECT_FALSE(report.sidecarFound);
    EXPECT_EQ(report.verifiedPages, 0u);
    EXPECT_TRUE(report.quarantined.empty());
    // A fresh sidecar starts so future flushes are verified.
    EXPECT_EQ(::access(meta_path.c_str(), F_OK), 0);
    EXPECT_STREQ(static_cast<const char *>(region->base()),
                 "legacy but intact");
}

TEST_F(RegionFixture, ScrubTickRepairsRottedDurableCopy)
{
    const std::string path = makePath("scrub");
    const std::uint64_t ps = 4096;
    auto region = NvRegion::create(path, 64_KiB, manualConfig(8));
    char *data = static_cast<char *>(region->base());
    for (std::uint64_t p = 0; p < region->pageCount(); ++p)
        std::memset(data + p * ps, 'A' + static_cast<int>(p), ps);
    region->flushAll();

    // Rot page 5's durable copy while the region is live; DRAM still
    // holds the committed content.
    {
        const int fd = ::open(path.c_str(), O_RDWR);
        ASSERT_GE(fd, 0);
        char byte;
        ASSERT_EQ(::pread(fd, &byte, 1, 5 * ps + 100), 1);
        byte ^= 0x08;
        ASSERT_EQ(::pwrite(fd, &byte, 1, 5 * ps + 100), 1);
        ::close(fd);
    }

    region->scrubTick(region->pageCount());
    const RegionStats stats = region->stats();
    EXPECT_EQ(stats.scrubMismatches, 1u);
    EXPECT_EQ(stats.scrubRepaired, 1u);
    EXPECT_GT(stats.scrubScanned, 0u);

    // The durable image matches memory again.
    std::ifstream file(path, std::ios::binary);
    std::vector<char> file_bytes(region->size());
    file.read(file_bytes.data(),
              static_cast<std::streamsize>(file_bytes.size()));
    EXPECT_EQ(std::memcmp(file_bytes.data(), data, region->size()),
              0);

    // A second pass finds nothing new to repair.
    region->scrubTick(region->pageCount());
    EXPECT_EQ(region->stats().scrubMismatches, 1u);
}

TEST_F(RegionFixture, EpochThreadScrubRepairsRottedDurableCopy)
{
    // The same repair, driven by the background epoch thread's
    // scrubPagesPerEpoch pass instead of a direct scrubTick().
    const std::string path = makePath("scrub_epoch");
    const std::uint64_t ps = 4096;
    RuntimeConfig cfg = manualConfig(8);
    cfg.startEpochThread = true;
    cfg.epochMicros = 200;
    cfg.scrubPagesPerEpoch = 16;
    auto region = NvRegion::create(path, 64_KiB, cfg);
    char *data = static_cast<char *>(region->base());
    for (std::uint64_t p = 0; p < region->pageCount(); ++p)
        std::memset(data + p * ps, 'A' + static_cast<int>(p), ps);
    region->flushAll();

    {
        const int fd = ::open(path.c_str(), O_RDWR);
        ASSERT_GE(fd, 0);
        char byte;
        ASSERT_EQ(::pread(fd, &byte, 1, 7 * ps + 9), 1);
        byte ^= 0x10;
        ASSERT_EQ(::pwrite(fd, &byte, 1, 7 * ps + 9), 1);
        ::close(fd);
    }

    // Bounded wait: 16 pages an epoch covers the 16-page region in
    // one 200 us epoch; allow ten seconds for a loaded host.
    for (int i = 0; i < 10000 && region->stats().scrubRepaired == 0;
         ++i)
        ::usleep(1000);
    const RegionStats stats = region->stats();
    EXPECT_EQ(stats.scrubRepaired, 1u);
    EXPECT_EQ(stats.scrubMismatches, 1u);
    EXPECT_GT(stats.epochs, 0u);
}

TEST_F(RegionFixture, ScrubSkipsPressuredShardWhole)
{
    // A shard at its dirty budget is skipped once per tick, not
    // locked and counted once for every committed page it holds.
    const std::string path = makePath("scrub_pressure");
    const std::uint64_t ps = 4096;
    auto region = NvRegion::create(path, 256 * ps, manualConfig(8));
    ASSERT_EQ(region->pageCount(), 256u);
    char *data = static_cast<char *>(region->base());
    for (std::uint64_t p = 0; p < region->pageCount(); ++p)
        data[p * ps] = 1;
    region->flushAll();
    for (std::uint64_t p = 0; p < 8; ++p)
        data[p * ps] = 2;
    ASSERT_EQ(region->stats().dirtyPages, 8u);

    const RegionStats before = region->stats();
    region->scrubTick(1);
    const RegionStats pressured = region->stats();
    EXPECT_LE(pressured.scrubSkippedBusy - before.scrubSkippedBusy,
              region->shardCount());
    EXPECT_EQ(pressured.scrubScanned, before.scrubScanned);

    // With the dirty set drained, the next tick scans again.
    region->flushAll();
    region->scrubTick(1);
    EXPECT_GT(region->stats().scrubScanned, pressured.scrubScanned);
}

// ---------------------------------------------------------------------
// Commit barriers: the write-behind thread, the cut's barrier, and
// the promotion of a record replaced after its write (DESIGN.md §10).
// ---------------------------------------------------------------------

/** A sidecar over an empty data file, both removed afterwards. */
struct MetaSidecarTest : public RegionFixture
{
    static constexpr std::uint64_t kPages = 8;
    static constexpr std::uint64_t kPageSize = 4096;

    void
    SetUp() override
    {
        const std::string path = makePath("sidecar_unit");
        metaPath = path + ".meta";
        dataFd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
        ASSERT_GE(dataFd, 0);
        meta = MetaSidecar::create(metaPath, kPages, kPageSize);
    }

    void
    TearDown() override
    {
        meta.reset();
        ::close(dataFd);
        RegionFixture::TearDown();
    }

    /** Page `page`'s entry as a fresh open() reads it from disk. */
    MetaEntry
    onDisk(PageNum page) const
    {
        auto reopened = MetaSidecar::open(metaPath, kPages, kPageSize);
        EXPECT_NE(reopened, nullptr);
        return reopened ? reopened->entry(page) : MetaEntry{};
    }

    std::string metaPath;
    int dataFd = -1;
    std::unique_ptr<MetaSidecar> meta;
};

TEST_F(MetaSidecarTest, BarrierSkipsRecordReplacedAfterWrite)
{
    // Persist A of page 3 wrote its data; persist B re-recorded the
    // page and its data write is still in flight when the barrier
    // runs.  The barrier's fdatasync covered A only, so B's record
    // must stay PENDING — in the shadow and on disk.
    meta->recordPage(3, 0xAAAA, 1, 10);
    meta->markWritten(3, 10);
    EXPECT_EQ(meta->unsyncedPages(), 1u);
    meta->recordPage(3, 0xBBBB, 1, 11);
    ASSERT_EQ(meta->commitPending(dataFd), 0);
    EXPECT_EQ(meta->unsyncedPages(), 0u);

    for (const MetaEntry &e : {meta->entry(3), onDisk(3)}) {
        EXPECT_EQ(e.flags, MetaSidecar::kPending);
        EXPECT_EQ(e.crc, 0xBBBBu);
        EXPECT_EQ(e.runId, 11u);
    }
}

TEST_F(MetaSidecarTest, BarrierCommitsReplacingRecordAfterItsWrite)
{
    // Once B's own data write returns, the next barrier commits it.
    meta->recordPage(3, 0xAAAA, 1, 10);
    meta->markWritten(3, 10);
    meta->recordPage(3, 0xBBBB, 1, 11);
    ASSERT_EQ(meta->commitPending(dataFd), 0);
    meta->markWritten(3, 11);
    EXPECT_EQ(meta->unsyncedPages(), 1u);
    ASSERT_EQ(meta->commitPending(dataFd), 0);
    EXPECT_EQ(meta->unsyncedPages(), 0u);

    for (const MetaEntry &e : {meta->entry(3), onDisk(3)}) {
        EXPECT_EQ(e.flags, MetaSidecar::kCommitted);
        EXPECT_EQ(e.crc, 0xBBBBu);
        EXPECT_EQ(e.runId, 11u);
    }
}

TEST_F(RegionFixture, WriteBehindCommitsWithoutFlushAll)
{
    // Single-page persists, no epoch tick and no flushAll: the
    // write-behind thread alone must commit all but at most one
    // budget of the persisted pages.
    const std::string path = makePath("write_behind");
    const std::uint64_t ps = 4096;
    const std::uint64_t budget = 8;
    const std::uint64_t pages = 64;
    auto region =
        NvRegion::create(path, pages * ps, manualConfig(budget));
    char *data = static_cast<char *>(region->base());
    for (std::uint64_t p = 0; p < pages; ++p)
        data[p * ps] = static_cast<char>(p + 1);
    ASSERT_EQ(region->stats().dirtyPages, budget);
    const std::uint64_t persisted = pages - budget;

    std::uint64_t committed = 0;
    for (int i = 0; i < 10000 && committed + budget < persisted; ++i) {
        ::usleep(1000);
        auto sidecar =
            MetaSidecar::open(path + ".meta", region->pageCount(), ps);
        ASSERT_NE(sidecar, nullptr);
        committed = 0;
        for (std::uint64_t p = 0; p < pages; ++p)
            committed +=
                sidecar->entry(p).flags == MetaSidecar::kCommitted;
    }
    EXPECT_GE(committed + budget, persisted);
    EXPECT_LE(region->stats().unsyncedPages, budget);

    region->flushAll();
    EXPECT_EQ(region->stats().unsyncedPages, 0u);
}

TEST_F(RegionFixture, FlushAllCommitsEveryFlushedPage)
{
    // Each round dirties three budgets of distinct pages, so the
    // evictions trip background barriers, then cuts.  The cut's
    // barrier waits out one already running, so no record may be
    // left PENDING.
    const std::string path = makePath("cut_commits");
    const std::uint64_t ps = 4096;
    const std::uint64_t budget = 8;
    const std::uint64_t pages = 64;
    auto region =
        NvRegion::create(path, pages * ps, manualConfig(budget));
    char *data = static_cast<char *>(region->base());
    for (unsigned round = 0; round < 20; ++round) {
        for (std::uint64_t i = 0; i < 3 * budget; ++i)
            data[(round * 3 * budget + i) % pages * ps] =
                static_cast<char>(round + 1);
        // Land the cut at a different point of the write-behind
        // thread's epoch each round.
        ::usleep(round % 4 * 300);
        region->flushAll();
        auto sidecar =
            MetaSidecar::open(path + ".meta", region->pageCount(), ps);
        ASSERT_NE(sidecar, nullptr);
        for (std::uint64_t p = 0; p < pages; ++p)
            EXPECT_NE(sidecar->entry(p).flags, MetaSidecar::kPending)
                << "round " << round << ", page " << p;
    }
}

// ---------------------------------------------------------------------
// Compressed copy-out path (RuntimeConfig::compressFlush)
// ---------------------------------------------------------------------

RuntimeConfig
compressConfig(std::uint64_t budget)
{
    RuntimeConfig cfg = manualConfig(budget);
    cfg.copierThreads = 2; // the codec runs on copier threads only
    cfg.compressFlush = true;
    return cfg;
}

TEST_F(RegionFixture, CompressFlushRejectsUnsupportedConfigs)
{
    // No copiers: inline persists run on the SIGSEGV admission path,
    // which must never reach the codec.
    RuntimeConfig no_copiers = compressConfig(4);
    no_copiers.copierThreads = 0;
    EXPECT_THROW(
        NvRegion::create(makePath("cz_nc"), 64_KiB, no_copiers),
        FatalError);
}

TEST_F(RegionFixture, CompressedFlushShipsFewerBytesAndRecovers)
{
    const std::string path = makePath("cz_rt");
    const std::uint64_t ps = 4096;
    std::vector<char> expected;
    {
        auto region =
            NvRegion::create(path, 64_KiB, compressConfig(8));
        char *data = static_cast<char *>(region->base());
        for (std::uint64_t p = 0; p < region->pageCount(); ++p)
            std::memset(data + p * ps, 'A' + static_cast<int>(p),
                        ps);
        expected.assign(data, data + region->size());
        region->flushAll();
        const RegionStats stats = region->stats();
        EXPECT_GT(stats.compressedPersists, 0u);
        // Constant-fill pages compress hard: the wire carried far
        // fewer bytes than the raw pages it retired.
        EXPECT_LT(stats.storedBytesPersisted,
                  stats.bytesPersisted / 4);
    }
    // Recovery needs no compressFlush of its own: the stored length
    // rides in the commit record, so a plain config decodes and
    // verifies the compressed image.
    auto region = NvRegion::recover(path, manualConfig(8));
    const RuntimeRecoveryReport &report = region->recoveryReport();
    EXPECT_TRUE(report.sidecarFound);
    EXPECT_GT(report.compressedPages, 0u);
    EXPECT_EQ(report.verifiedPages, region->pageCount());
    EXPECT_EQ(report.checksumMismatches, 0u);
    EXPECT_TRUE(report.quarantined.empty());
    EXPECT_EQ(std::memcmp(region->base(), expected.data(),
                          expected.size()),
              0);
}

TEST_F(RegionFixture, IncompressiblePagesBypassToRawAndRecover)
{
    const std::string path = makePath("cz_rand");
    std::vector<char> expected;
    {
        auto region =
            NvRegion::create(path, 64_KiB, compressConfig(8));
        char *data = static_cast<char *>(region->base());
        Rng rng(0x5eed);
        for (std::uint64_t i = 0; i < region->size(); ++i)
            data[i] = static_cast<char>(rng.next());
        expected.assign(data, data + region->size());
        region->flushAll();
        const RegionStats stats = region->stats();
        // Random pages never clear the codec's ~1.05 gate: every
        // copier persist bypassed to raw.
        EXPECT_GT(stats.compressBypasses, 0u);
        EXPECT_EQ(stats.compressedPersists, 0u);
    }
    auto region = NvRegion::recover(path, manualConfig(8));
    const RuntimeRecoveryReport &report = region->recoveryReport();
    EXPECT_EQ(report.compressedPages, 0u);
    EXPECT_EQ(report.verifiedPages, region->pageCount());
    EXPECT_TRUE(report.quarantined.empty());
    EXPECT_EQ(std::memcmp(region->base(), expected.data(),
                          expected.size()),
              0);
}

TEST_F(RegionFixture, CorruptCompressedSlotIsQuarantined)
{
    const std::string path = makePath("cz_rot");
    const std::uint64_t ps = 4096;
    {
        auto region =
            NvRegion::create(path, 64_KiB, compressConfig(8));
        char *data = static_cast<char *>(region->base());
        for (std::uint64_t p = 0; p < region->pageCount(); ++p)
            std::memset(data + p * ps, 'A' + static_cast<int>(p),
                        ps);
        region->flushAll();
        ASSERT_GT(region->stats().compressedPersists, 0u);
    }
    // Rot a byte INSIDE page 3's stored stream (constant-fill pages
    // encode to well under 64 bytes, so offset 5 is inside it).
    {
        const int fd = ::open(path.c_str(), O_RDWR);
        ASSERT_GE(fd, 0);
        char byte;
        ASSERT_EQ(::pread(fd, &byte, 1, 3 * ps + 5), 1);
        byte ^= 0x40;
        ASSERT_EQ(::pwrite(fd, &byte, 1, 3 * ps + 5), 1);
        ::close(fd);
    }
    auto region = NvRegion::recover(path, manualConfig(8));
    const RuntimeRecoveryReport &report = region->recoveryReport();
    EXPECT_TRUE(report.sidecarFound);
    // Decode failure or raw-CRC mismatch — either way the page is
    // condemned, classified, and quarantined like any other
    // corruption.
    EXPECT_EQ(report.checksumMismatches, 1u);
    EXPECT_EQ(report.tornRunPages + report.staleEpochPages +
                  report.silentCorruptPages,
              1u);
    ASSERT_EQ(report.quarantined.size(), 1u);
    EXPECT_EQ(report.quarantined[0], 3u);
    EXPECT_EQ(report.verifiedPages, region->pageCount() - 1);
}

TEST_F(RegionFixture, MultiChunkRecoveryReportsEveryVerdict)
{
    // An image spanning many of recovery's 1 MiB chunks, with one
    // kind of verdict per chunk (DESIGN.md §10): however recovery
    // splits the work, the report and the quarantine order are the
    // ones a page-by-page pass in page order gives.
    const std::string path = makePath("chunks");
    const std::uint64_t ps = 4096;
    const PageNum chunk = (1ULL << 20) / ps;
    const std::uint64_t pages = 16 * chunk;
    // Chunks 0-1 are flushed and sealed first, so their commits are
    // older than the last seal; chunks 2-3 and 6-9 are written after
    // an epoch boundary and sealed last.  Chunk 6 is constant-fill,
    // which the copiers store compressed; the rest is random, which
    // is stored raw.  Chunks 4-5 and 10-15 are never written.
    const PageNum silent = 1 * chunk + 44;  // rotted after the seal
    const PageNum torn = 2 * chunk + 88;    // a PENDING record only
    const PageNum punched = 3 * chunk + 132; // a hole under its commit
    const auto written = [&](PageNum p) {
        const PageNum c = p / chunk;
        return c <= 3 || (c >= 6 && c <= 9);
    };
    std::vector<char> image(pages * ps, 0);
    for (PageNum p = 0; p < pages; ++p) {
        if (!written(p))
            continue;
        char *const page = image.data() + p * ps;
        if (p / chunk == 6) {
            std::memset(page, 'A' + static_cast<int>(p % 26), ps);
            continue;
        }
        Rng rng(p);
        for (std::uint64_t i = 0; i < ps; i += 8) {
            const std::uint64_t v = rng.next();
            std::memcpy(page + i, &v, sizeof v);
        }
    }
    {
        auto region =
            NvRegion::create(path, pages * ps, compressConfig(2 * chunk));
        char *data = static_cast<char *>(region->base());
        const auto write = [&](std::initializer_list<PageNum> chunks) {
            for (const PageNum c : chunks)
                std::memcpy(data + c * chunk * ps,
                            image.data() + c * chunk * ps, chunk * ps);
        };
        write({0, 1});
        region->flushAll();
        region->epochTick();
        // Alone under a budget that holds it, so no page of it is
        // evicted (an eviction the copiers cannot take is stored raw)
        // and the drain hands all of it to the codec.
        write({6});
        region->flushAll();
        write({2, 3, 7, 8, 9});
        region->flushAll();
    }
    {
        const int fd = ::open(path.c_str(), O_RDWR);
        ASSERT_GE(fd, 0);
        const off_t hole = ::lseek(fd, 0, SEEK_HOLE);
        if (hole < 0 || static_cast<std::uint64_t>(hole) >= pages * ps) {
            ::close(fd);
            GTEST_SKIP() << "the filesystem under /tmp reports no holes";
        }
        char byte;
        ASSERT_EQ(::pread(fd, &byte, 1, silent * ps + 100), 1);
        byte ^= 0x40;
        ASSERT_EQ(::pwrite(fd, &byte, 1, silent * ps + 100), 1);
        image[silent * ps + 100] = byte;
        ASSERT_EQ(::fallocate(fd, FALLOC_FL_PUNCH_HOLE |
                                      FALLOC_FL_KEEP_SIZE,
                              static_cast<off_t>(punched * ps),
                              static_cast<off_t>(ps)),
                  0)
            << std::strerror(errno);
        std::memset(image.data() + punched * ps, 0, ps);
        ::close(fd);
    }
    {
        // A crash between a persist's PENDING record and its data
        // write: the record names content the slot never received.
        auto meta = MetaSidecar::open(path + ".meta", pages, ps);
        ASSERT_NE(meta, nullptr);
        const std::vector<char> other(ps, 0x5A);
        meta->recordPage(torn, common::crc32c(other.data(), ps),
                         meta->lastSealedEpoch(),
                         meta->lastSealedRunId() + 1);
    }

    auto region = NvRegion::recover(path, manualConfig(64));
    const RuntimeRecoveryReport &report = region->recoveryReport();
    EXPECT_TRUE(report.sidecarFound);
    EXPECT_EQ(report.verifiedPages, 8 * chunk - 3);
    EXPECT_EQ(report.unverifiedPages, 8 * chunk);
    EXPECT_EQ(report.checksumMismatches, 3u);
    EXPECT_EQ(report.tornRunPages, 1u);
    EXPECT_EQ(report.staleEpochPages, 1u);
    EXPECT_EQ(report.silentCorruptPages, 1u);
    EXPECT_EQ(report.badEntries, 0u);
    EXPECT_EQ(report.compressedPages, chunk);
    EXPECT_EQ(report.quarantined,
              (std::vector<PageNum>{silent, torn, punched}));
    // Quarantined pages keep what the image holds; nothing else moved.
    EXPECT_EQ(std::memcmp(region->base(), image.data(), image.size()),
              0);
}

TEST_F(RegionFixture, ScrubRepairsRottedCompressedSlot)
{
    const std::string path = makePath("cz_scrub");
    const std::uint64_t ps = 4096;
    auto region = NvRegion::create(path, 64_KiB, compressConfig(8));
    char *data = static_cast<char *>(region->base());
    for (std::uint64_t p = 0; p < region->pageCount(); ++p)
        std::memset(data + p * ps, 'A' + static_cast<int>(p), ps);
    region->flushAll();
    ASSERT_GT(region->stats().compressedPersists, 0u);

    // Rot page 5's stored stream while the region is live.
    {
        const int fd = ::open(path.c_str(), O_RDWR);
        ASSERT_GE(fd, 0);
        char byte;
        ASSERT_EQ(::pread(fd, &byte, 1, 5 * ps + 5), 1);
        byte ^= 0x08;
        ASSERT_EQ(::pwrite(fd, &byte, 1, 5 * ps + 5), 1);
        ::close(fd);
    }

    region->scrubTick(region->pageCount());
    const RegionStats stats = region->stats();
    EXPECT_EQ(stats.scrubMismatches, 1u);
    EXPECT_EQ(stats.scrubRepaired, 1u);

    // A second pass is clean (the repair rewrote the slot raw with a
    // fresh commit record), and recovery round-trips the content.
    region->scrubTick(region->pageCount());
    EXPECT_EQ(region->stats().scrubMismatches, 1u);
    std::vector<char> expected(data, data + region->size());
    region.reset();
    auto recovered = NvRegion::recover(path, manualConfig(8));
    EXPECT_EQ(recovered->recoveryReport().checksumMismatches, 0u);
    EXPECT_TRUE(recovered->recoveryReport().quarantined.empty());
    EXPECT_EQ(std::memcmp(recovered->base(), expected.data(),
                          expected.size()),
              0);
}

} // namespace
} // namespace viyojit::runtime
