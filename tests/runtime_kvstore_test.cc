/**
 * @file
 * Full-stack integration on REAL memory: the persistent heap and KV
 * store running inside an mprotect-tracked NvRegion, with the dirty
 * budget enforced by actual SIGSEGV faults, crash-flushed to the
 * backing file, and recovered into a warm store — the paper's
 * Redis-on-NV-DRAM scenario end to end, no simulation.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "kvstore/kvstore.hh"
#include "pheap/nv_space.hh"
#include "pheap/pheap.hh"
#include "runtime/region.hh"

namespace viyojit
{
namespace
{

std::string
tempPath(const std::string &tag)
{
    return "/tmp/viyojit_rtkv_" + tag + "_" +
           std::to_string(::getpid()) + ".img";
}

runtime::RuntimeConfig
budgetConfig(std::uint64_t pages, bool epoch_thread = false)
{
    runtime::RuntimeConfig cfg;
    cfg.dirtyBudgetPages = pages;
    cfg.startEpochThread = epoch_thread;
    return cfg;
}

struct RuntimeKvFixture : public ::testing::Test
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

TEST_F(RuntimeKvFixture, StoreRunsUnderTinyBudget)
{
    auto region = runtime::NvRegion::create(makePath("tiny"), 2_MiB,
                                            budgetConfig(16));
    pheap::PlainNvSpace space(static_cast<char *>(region->base()),
                              region->size());
    auto heap = pheap::PersistentHeap::create(space);
    auto store = kvstore::KvStore::create(heap, 257);

    for (int i = 0; i < 300; ++i) {
        ASSERT_TRUE(store.put("key" + std::to_string(i),
                              "value-" + std::to_string(i * 3)));
        ASSERT_LE(region->stats().dirtyPages, 16u);
        if (i % 50 == 0)
            region->epochTick();
    }
    for (int i = 0; i < 300; ++i) {
        EXPECT_EQ(*store.get("key" + std::to_string(i)),
                  "value-" + std::to_string(i * 3));
    }
    EXPECT_GT(region->stats().writeFaults, 0u);
}

TEST_F(RuntimeKvFixture, CrashAndWarmRestart)
{
    const std::string path = makePath("warm");
    {
        auto region = runtime::NvRegion::create(path, 2_MiB,
                                                budgetConfig(24));
        pheap::PlainNvSpace space(static_cast<char *>(region->base()),
                                  region->size());
        auto heap = pheap::PersistentHeap::create(space);
        auto store = kvstore::KvStore::create(heap, 509);
        store.setAllocateOnUpdate(true);
        for (int i = 0; i < 400; ++i)
            ASSERT_TRUE(store.put("user" + std::to_string(i),
                                  "profile" + std::to_string(i)));
        for (int i = 0; i < 100; ++i)
            ASSERT_TRUE(store.put("user" + std::to_string(i),
                                  "updated" + std::to_string(i)));
        region->flushAll(); // the power-failure path
        // Destructor also flushes, but the explicit flush is the
        // semantics under test.
    }

    auto region = runtime::NvRegion::recover(path, budgetConfig(24));
    pheap::PlainNvSpace space(static_cast<char *>(region->base()),
                              region->size());
    auto heap = pheap::PersistentHeap::attach(space);
    auto store = kvstore::KvStore::attach(heap);
    EXPECT_EQ(store.size(), 400u);
    EXPECT_EQ(*store.get("user42"), "updated42");
    EXPECT_EQ(*store.get("user399"), "profile399");
    // The recovered store is fully writable.
    EXPECT_TRUE(store.put("user42", "again"));
    EXPECT_EQ(*store.get("user42"), "again");
}

TEST_F(RuntimeKvFixture, RandomOpsMatchReferenceUnderBudget)
{
    auto region = runtime::NvRegion::create(makePath("fuzz"), 4_MiB,
                                            budgetConfig(12));
    pheap::PlainNvSpace space(static_cast<char *>(region->base()),
                              region->size());
    auto heap = pheap::PersistentHeap::create(space);
    auto store = kvstore::KvStore::create(heap, 127);
    std::map<std::string, std::string> reference;
    Rng rng(31337);

    for (int i = 0; i < 3000; ++i) {
        const std::string key =
            "k" + std::to_string(rng.nextBounded(150));
        if (rng.nextBool(0.6)) {
            const std::string value(
                1 + rng.nextBounded(200),
                static_cast<char>('a' + rng.nextBounded(26)));
            ASSERT_TRUE(store.put(key, value));
            reference[key] = value;
        } else {
            const auto got = store.get(key);
            const auto it = reference.find(key);
            if (it == reference.end())
                ASSERT_FALSE(got.has_value());
            else
                ASSERT_EQ(*got, it->second);
        }
        ASSERT_LE(region->stats().dirtyPages, 12u);
        if (i % 97 == 0)
            region->epochTick();
    }
}

TEST_F(RuntimeKvFixture, ConcurrentWritersUnderEpochThread)
{
    // Two app threads hammer disjoint halves of the region while the
    // epoch thread re-protects and copies in the background: the
    // SIGSEGV path, the recursive lock, and the budget must all hold.
    runtime::RuntimeConfig cfg = budgetConfig(32, true);
    cfg.epochMicros = 300;
    auto region = runtime::NvRegion::create(makePath("mt"), 4_MiB,
                                            cfg);
    char *base = static_cast<char *>(region->base());
    const std::uint64_t ps = region->pageSize();
    const std::uint64_t half_pages = region->pageCount() / 2;

    std::atomic<bool> failed{false};
    auto writer = [&](unsigned id) {
        Rng rng(id);
        for (int i = 0; i < 4000; ++i) {
            const std::uint64_t p =
                id * half_pages + rng.nextBounded(half_pages);
            base[p * ps + (i % ps)] = static_cast<char>(i + id);
            if (region->stats().dirtyPages > 32)
                failed.store(true);
        }
    };
    std::thread t0(writer, 0);
    std::thread t1(writer, 1);
    t0.join();
    t1.join();
    EXPECT_FALSE(failed.load());
    EXPECT_LE(region->stats().dirtyPages, 32u);

    // Everything written is recoverable.
    region->flushAll();
    EXPECT_EQ(region->stats().dirtyPages, 0u);
}

} // namespace
} // namespace viyojit
