/**
 * @file
 * Concurrency tests for the sharded runtime, written to run under
 * ThreadSanitizer (ci.sh builds them with VIYOJIT_SANITIZE=thread).
 *
 * The stress tests run real writer threads against one NvRegion with
 * the epoch thread advancing and the budget machinery evicting under
 * them; writers touch overlapping pages across shard boundaries, and
 * each thread writes a disjoint byte slot within a page so the only
 * sharing TSan sees is the runtime's own.  The directed tests pin
 * down the quota-migration paths: borrowing from the pool, spare
 * quota that reaches a hot shard only through the pool, concurrent
 * retunes and their one-page-per-shard floor, and page-straddling
 * stores across a shard boundary.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/budget_pool.hh"
#include "runtime/region.hh"

namespace viyojit::runtime
{
namespace
{

std::string
tempPath(const std::string &tag)
{
    return "/tmp/viyojit_conc_" + tag + "_" +
           std::to_string(::getpid()) + ".img";
}

struct ConcurrencyFixture : public ::testing::Test
{
    void
    TearDown() override
    {
        for (const std::string &path : cleanup)
            ::unlink(path.c_str());
    }

    /** A fresh image path; it and its `.meta` sidecar are unlinked
     *  at teardown. */
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

/** Sharded config with the epoch thread running. */
RuntimeConfig
shardedConfig(std::uint64_t budget, unsigned shards,
              unsigned copier_threads)
{
    RuntimeConfig cfg;
    cfg.dirtyBudgetPages = budget;
    cfg.shards = shards;
    cfg.copierThreads = copier_threads;
    cfg.epochMicros = 500;
    cfg.startEpochThread = true;
    return cfg;
}

/** Sharded config ticked manually (deterministic directed tests). */
RuntimeConfig
manualSharded(std::uint64_t budget, unsigned shards)
{
    RuntimeConfig cfg = shardedConfig(budget, shards, 0);
    cfg.startEpochThread = false;
    return cfg;
}

TEST_F(ConcurrencyFixture, WritersAcrossShardsRespectBudget)
{
    constexpr unsigned kWriters = 4;
    constexpr std::uint64_t kOpsPerWriter = 12000;
    const RuntimeConfig cfg = shardedConfig(/*budget=*/64,
                                            /*shards=*/4,
                                            /*copier_threads=*/2);
    auto region = NvRegion::create(makePath("stress"), 1_MiB, cfg);
    char *base = static_cast<char *>(region->base());
    const std::uint64_t pages = region->pageCount();
    const std::uint64_t page_size = region->pageSize();

    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> budgetViolations{0};

    // Sampler: coherent whole-region snapshots while writers run.
    std::thread sampler([&]() {
        while (!done.load(std::memory_order_acquire)) {
            const RegionStats s = region->stats();
            if (s.dirtyPages > s.dirtyBudgetPages)
                budgetViolations.fetch_add(1);
            std::this_thread::yield();
        }
    });

    std::vector<std::thread> writers;
    for (unsigned tid = 0; tid < kWriters; ++tid) {
        writers.emplace_back([&, tid]() {
            // Random pages over the whole region: every writer
            // crosses every shard, and all writers share pages
            // (disjoint 8-byte slots keep the app race-free).
            Rng rng(0xc0ffee + tid);
            for (std::uint64_t op = 0; op < kOpsPerWriter; ++op) {
                const std::uint64_t page = rng.nextBounded(pages);
                char *slot =
                    base + page * page_size + tid * 8;
                std::memcpy(slot, &op, sizeof(op));
            }
        });
    }
    for (std::thread &w : writers)
        w.join();
    done.store(true, std::memory_order_release);
    sampler.join();

    EXPECT_EQ(budgetViolations.load(), 0u);

    const RegionStats stats = region->stats();
    EXPECT_EQ(stats.shards, 4u);
    EXPECT_GT(stats.writeFaults, 0u);
    EXPECT_LE(stats.dirtyPages, stats.dirtyBudgetPages);
    EXPECT_EQ(stats.dirtyBudgetPages, 64u);
    // The budget (64) is far below the touched page population
    // (256), so the run must have persisted evicted pages.
    EXPECT_GT(stats.bytesPersisted, 0u);
}

TEST_F(ConcurrencyFixture, OverlappingWritesSurviveFlushAndRecover)
{
    constexpr unsigned kWriters = 4;
    const std::string path = makePath("overlap");
    const RuntimeConfig cfg = shardedConfig(/*budget=*/16,
                                            /*shards=*/4,
                                            /*copier_threads=*/2);
    {
        auto region = NvRegion::create(path, 256_KiB, cfg);
        char *base = static_cast<char *>(region->base());
        const std::uint64_t pages = region->pageCount();
        const std::uint64_t page_size = region->pageSize();

        // Every writer stamps its slot on EVERY page, in a
        // different order, so shard-boundary pages see concurrent
        // faults from several threads.
        std::vector<std::thread> writers;
        for (unsigned tid = 0; tid < kWriters; ++tid) {
            writers.emplace_back([&, tid]() {
                for (std::uint64_t i = 0; i < pages; ++i) {
                    const std::uint64_t page =
                        (i * 17 + tid * 31) % pages;
                    char *slot =
                        base + page * page_size + tid * 8;
                    const std::uint64_t tag =
                        (static_cast<std::uint64_t>(tid) << 56) |
                        page;
                    std::memcpy(slot, &tag, sizeof(tag));
                }
            });
        }
        for (std::thread &w : writers)
            w.join();

        region->flushAll();
        EXPECT_EQ(region->stats().dirtyPages, 0u);
        EXPECT_EQ(region->flushAll(), 0u); // idempotent
    }

    // Recovery sees every slot of every page from the backing file.
    RuntimeConfig recover_cfg = manualSharded(16, 4);
    auto region = NvRegion::recover(path, recover_cfg);
    const char *base = static_cast<const char *>(region->base());
    const std::uint64_t pages = region->pageCount();
    const std::uint64_t page_size = region->pageSize();
    for (std::uint64_t page = 0; page < pages; ++page) {
        for (unsigned tid = 0; tid < kWriters; ++tid) {
            std::uint64_t tag = 0;
            std::memcpy(&tag, base + page * page_size + tid * 8,
                        sizeof(tag));
            EXPECT_EQ(tag, (static_cast<std::uint64_t>(tid) << 56) |
                               page)
                << "page " << page << " slot " << tid;
        }
    }
}

TEST_F(ConcurrencyFixture, HotShardBorrowsQuotaFromPool)
{
    // 4 shards x 64 pages; initial quota is budget/(2*shards) = 8
    // pages per shard, half the budget parked in the pool.  Dirtying
    // 20 pages of shard 0 alone must grow its quota by borrowing.
    auto region = NvRegion::create(makePath("borrow"), 1_MiB,
                                   manualSharded(64, 4));
    char *base = static_cast<char *>(region->base());
    const std::uint64_t page_size = region->pageSize();

    for (std::uint64_t page = 0; page < 20; ++page)
        base[page * page_size] = 'b';

    const RegionStats stats = region->stats();
    EXPECT_EQ(stats.dirtyPages, 20u);
    EXPECT_GT(stats.quotaBorrowedPages, 0u);
    EXPECT_EQ(stats.quotaSteals, 0u);
    EXPECT_LE(stats.dirtyPages, stats.dirtyBudgetPages);
}

TEST_F(ConcurrencyFixture, DrainedSpareReachesHotShardThroughPool)
{
    // Fill all four shards, then shrink the budget to the 2-per-shard
    // floor: the pool is left empty and every shard's quota is tight.
    // Quota moves between shards only through the pool, so shard 0
    // can grow only once a sibling has donated into it.
    auto region = NvRegion::create(makePath("pool"), 1_MiB,
                                   manualSharded(64, 4));
    char *base = static_cast<char *>(region->base());
    const std::uint64_t page_size = region->pageSize();
    const std::uint64_t pages_per_shard = region->pageCount() / 4;

    for (unsigned shard = 0; shard < 4; ++shard) {
        for (std::uint64_t i = 0; i < 12; ++i)
            base[(shard * pages_per_shard + i) * page_size] = 's';
    }
    EXPECT_EQ(region->stats().dirtyPages, 48u);

    region->setDirtyBudget(8); // floor: 2 pages x 4 shards, pool dry
    EXPECT_LE(region->stats().dirtyPages, 8u);
    EXPECT_EQ(region->stats().dirtyBudgetPages, 8u);

    // Flush: every shard now holds 2 pages of quota with zero dirty
    // pages.  The drain suppresses donations, so the pool is still
    // empty; the next epoch boundary donates each shard's spare
    // above its mid watermark (share 2: low = mid = 1, high = 2).
    region->flushAll();
    EXPECT_EQ(region->stats().dirtyPages, 0u);
    EXPECT_EQ(region->stats().poolAvailablePages, 0u);
    region->epochTick();
    const RegionStats before = region->stats();
    EXPECT_EQ(before.poolAvailablePages, 4u);

    // Shard 0 admits three fresh pages against its one-page quota:
    // each admission refills from the pool, none evicts.  The pump
    // may still copy an admitted page out proactively (the boundary
    // sized its threshold from the 12-page fill), which cleans it.
    for (std::uint64_t i = 20; i < 23; ++i)
        base[i * page_size] = 'S';

    const RegionStats stats = region->stats();
    EXPECT_EQ(stats.writeFaults - before.writeFaults, 3u);
    EXPECT_EQ(stats.dirtyPages + stats.proactiveCopies -
                  before.proactiveCopies,
              3u);
    EXPECT_GT(stats.quotaBorrowedPages, before.quotaBorrowedPages);
    EXPECT_EQ(stats.blockedEvictions + stats.shedEvictions,
              before.blockedEvictions + before.shedEvictions);
    EXPECT_EQ(stats.dirtyBudgetPages, 8u);
    EXPECT_LE(stats.dirtyPages, 8u);
}

TEST_F(ConcurrencyFixture, ShardedBudgetBelowOnePagePerShardIsRejected)
{
    // A zero quota is the one case in which admission can fail, so a
    // sharded region refuses any budget below one page per shard, as
    // create() does, and keeps the budget it had.
    auto region = NvRegion::create(makePath("floor"), 1_MiB,
                                   manualSharded(64, 4));
    char *base = static_cast<char *>(region->base());
    const std::uint64_t page_size = region->pageSize();
    for (std::uint64_t page = 0; page < 8; ++page)
        base[page * page_size] = 'f';

    // ASSERT: an accepted budget of 3 would park a shard at zero
    // quota, where the writes below could never be admitted.
    ASSERT_THROW(region->setDirtyBudget(3), FatalError);
    EXPECT_THROW(region->setDirtyBudget(0), FatalError);
    const RegionStats stats = region->stats();
    EXPECT_EQ(stats.dirtyBudgetPages, 64u);
    EXPECT_EQ(stats.dirtyPages, 8u);

    // One page per shard is still accepted, and every shard keeps a
    // page of quota to admit into.
    region->setDirtyBudget(4);
    EXPECT_EQ(region->stats().dirtyBudgetPages, 4u);
    for (std::uint64_t page = 0; page < region->pageCount(); page += 7)
        base[page * page_size] = 'g';
    EXPECT_LE(region->stats().dirtyPages, 4u);
}

TEST_F(ConcurrencyFixture, StoreStraddlingShardBoundary)
{
    // 64 pages, 4 shards -> shard blocks of 16 pages.  An unaligned
    // u64 write across each block boundary faults two pages owned by
    // DIFFERENT controllers on one instruction; both must admit for
    // the store to complete (each shard's straddling guard protects
    // its half).
    auto region = NvRegion::create(makePath("straddle"), 256_KiB,
                                   manualSharded(8, 4));
    char *base = static_cast<char *>(region->base());
    const std::uint64_t page_size = region->pageSize();
    const std::uint64_t pages_per_shard = region->pageCount() / 4;

    for (unsigned boundary = 1; boundary < 4; ++boundary) {
        const std::uint64_t offset =
            boundary * pages_per_shard * page_size - 4;
        const std::uint64_t value = 0x1122334455667788ULL + boundary;
        std::memcpy(base + offset, &value, sizeof(value));
        std::uint64_t readback = 0;
        std::memcpy(&readback, base + offset, sizeof(readback));
        EXPECT_EQ(readback, value);
    }
    const RegionStats stats = region->stats();
    EXPECT_LE(stats.dirtyPages, stats.dirtyBudgetPages);
}

TEST_F(ConcurrencyFixture, ConcurrentRetunesKeepInvariants)
{
    const RuntimeConfig cfg = shardedConfig(/*budget=*/64,
                                            /*shards=*/4,
                                            /*copier_threads=*/2);
    auto region = NvRegion::create(makePath("retune"), 1_MiB, cfg);
    char *base = static_cast<char *>(region->base());
    const std::uint64_t pages = region->pageCount();
    const std::uint64_t page_size = region->pageSize();

    // Fixed-work writers (a time- or flag-bounded loop can finish
    // with zero scheduled iterations on a loaded single-CPU host):
    // each thread performs a set number of writes, and the main
    // thread keeps retuning until all the work is done.
    constexpr std::uint64_t kOpsPerWriter = 4000;
    std::atomic<std::uint64_t> remaining{2 * kOpsPerWriter};
    std::vector<std::thread> writers;
    for (unsigned tid = 0; tid < 2; ++tid) {
        writers.emplace_back([&, tid]() {
            Rng rng(77 + tid);
            for (std::uint64_t op = 0; op < kOpsPerWriter; ++op) {
                const std::uint64_t page = rng.nextBounded(pages);
                base[page * page_size + tid] =
                    static_cast<char>('a' + tid);
                remaining.fetch_sub(1, std::memory_order_relaxed);
            }
        });
    }

    // Main thread retunes the budget under the writers, governor
    // style, and takes coherent snapshots between retunes.  After a
    // shrink returns, the summed dirty count fits the new total
    // (and can only have been driven further down by the writers'
    // evictions until the next grow).
    std::uint64_t round = 0;
    while (remaining.load(std::memory_order_relaxed) > 0) {
        const std::uint64_t budget = (round++ % 2 == 0) ? 16 : 64;
        region->setDirtyBudget(budget);
        const RegionStats stats = region->stats();
        EXPECT_EQ(stats.dirtyBudgetPages, budget);
        EXPECT_LE(stats.dirtyPages, budget);
        std::this_thread::yield();
    }
    for (std::thread &w : writers)
        w.join();
    EXPECT_GT(round, 0u);

    const RegionStats stats = region->stats();
    EXPECT_LE(stats.dirtyPages, stats.dirtyBudgetPages);
    EXPECT_GT(stats.writeFaults, 0u);
}

TEST_F(ConcurrencyFixture, WatermarkHysteresisDoesNotPingPong)
{
    // A shard whose spare quota sits inside the watermark band
    // [low, high) must not migrate quota at epoch boundaries: the
    // refill trigger (spare < low) and the donation trigger
    // (spare >= high) both restore to mid, so a stable shard needs
    // at least half a band of real demand change before either side
    // fires again.  manualSharded(64, 4) derives low=1 mid=2 high=4
    // from the fair share; 5 dirty pages against the initial quota
    // of 8 parks spare at 3 — mid-band.
    auto region = NvRegion::create(makePath("hysteresis"), 1_MiB,
                                   manualSharded(64, 4));
    char *base = static_cast<char *>(region->base());
    const std::uint64_t page_size = region->pageSize();
    const std::uint64_t pages_per_shard = region->pageCount() / 4;

    for (unsigned shard = 0; shard < 4; ++shard) {
        for (std::uint64_t i = 0; i < 5; ++i)
            base[(shard * pages_per_shard + i) * page_size] = 'h';
    }

    const RegionStats before = region->stats();
    EXPECT_EQ(before.dirtyPages, 20u);

    for (int tick = 0; tick < 10; ++tick)
        region->epochTick();

    // Ten boundaries, zero migrations in either direction.
    const RegionStats after = region->stats();
    EXPECT_EQ(after.dirtyPages, before.dirtyPages);
    EXPECT_EQ(after.watermarkRefills, before.watermarkRefills);
    EXPECT_EQ(after.proactiveDonations, before.proactiveDonations);
    EXPECT_EQ(after.quotaBorrowedPages, before.quotaBorrowedPages);
    EXPECT_EQ(after.quotaReturnedPages, before.quotaReturnedPages);
    EXPECT_EQ(after.quotaSteals, before.quotaSteals);
}

TEST(BudgetPoolFuzz, ConcurrentMigrationsPreserveInvariant)
{
    // Four "shards" fuzz the lock-free borrow/deposit paths with
    // watermark-style migrations while a governor thread retunes the
    // total through all three total-changing paths (grow, confiscate,
    // borrow-then-destroyReclaimed).  Every operation conserves
    // pages, so at each phase barrier the §4.1 accounting must hold:
    // sum(shard quotas) + available() <= totalPages(), with equality
    // once quiesced (no grant in transit).
    core::BudgetPool pool(1024, 512);
    constexpr unsigned kWorkers = 4;
    constexpr std::uint64_t kInitialQuota = 128; // 4 x 128 = the 512
    std::vector<std::uint64_t> local(kWorkers, kInitialQuota);

    for (int phase = 0; phase < 3; ++phase) {
        std::vector<std::thread> threads;
        for (unsigned w = 0; w < kWorkers; ++w) {
            threads.emplace_back([&pool, &local, phase, w]() {
                Rng rng(131 * phase + w);
                for (int op = 0; op < 8000; ++op) {
                    switch (rng.nextBounded(4)) {
                    case 0: // batched refill toward mid
                        local[w] +=
                            pool.tryBorrow(1 + rng.nextBounded(8));
                        break;
                    case 1: // proactive donation of surplus
                        if (local[w] > 16) {
                            const std::uint64_t give = local[w] - 16;
                            local[w] -= give;
                            pool.deposit(give);
                        }
                        break;
                    case 2: // completion trickles one page back
                        if (local[w] > 0) {
                            --local[w];
                            pool.deposit(1);
                        }
                        break;
                    default: // churn: borrow and return immediately
                        pool.deposit(pool.tryBorrow(4));
                        break;
                    }
                }
            });
        }
        threads.emplace_back([&pool, phase]() {
            Rng rng(9000 + phase);
            for (int op = 0; op < 1000; ++op) {
                switch (rng.nextBounded(3)) {
                case 0: // battery recovered
                    pool.grow(8);
                    break;
                case 1: // governor destroys unassigned quota
                    pool.confiscate(8);
                    break;
                default: { // claw-back: quota dies without ever
                           // re-entering available()
                    const std::uint64_t got = pool.tryBorrow(8);
                    if (got > 0)
                        pool.destroyReclaimed(got);
                    break;
                }
                }
            }
        });
        for (std::thread &t : threads)
            t.join();

        std::uint64_t assigned = 0;
        for (std::uint64_t quota : local)
            assigned += quota;
        EXPECT_LE(assigned + pool.available(), pool.totalPages());
        EXPECT_EQ(assigned + pool.available(), pool.totalPages());
    }
}

TEST_F(ConcurrencyFixture, EpochThreadAdvancesUnderLoad)
{
    const RuntimeConfig cfg = shardedConfig(/*budget=*/32,
                                            /*shards=*/2,
                                            /*copier_threads=*/1);
    auto region = NvRegion::create(makePath("epochs"), 512_KiB, cfg);
    char *base = static_cast<char *>(region->base());
    const std::uint64_t pages = region->pageCount();
    const std::uint64_t page_size = region->pageSize();

    Rng rng(11);
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(200);
    while (std::chrono::steady_clock::now() < deadline) {
        const std::uint64_t page = rng.nextBounded(pages);
        base[page * page_size] = 'e';
    }

    const RegionStats stats = region->stats();
    EXPECT_GT(stats.epochs, 0u);
    EXPECT_LE(stats.dirtyPages, stats.dirtyBudgetPages);
}

} // namespace
} // namespace viyojit::runtime
