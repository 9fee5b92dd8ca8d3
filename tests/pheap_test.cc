/**
 * @file
 * Unit tests for the persistent heap: formatting, allocation classes,
 * free-list reuse, recovery, and accounting against both the plain
 * and the simulated NV spaces.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "pheap/nv_space.hh"
#include "pheap/pheap.hh"

namespace viyojit::pheap
{
namespace
{

struct PheapFixture : public ::testing::Test
{
    PheapFixture()
        : buffer(1_MiB, 0), space(buffer.data(), buffer.size())
    {}

    std::vector<char> buffer;
    PlainNvSpace space;
};

TEST_F(PheapFixture, CreateFormatsHeader)
{
    PersistentHeap heap = PersistentHeap::create(space);
    EXPECT_EQ(heap.root(), nullOffset);
    EXPECT_EQ(heap.stats().liveAllocations, 0u);
}

TEST_F(PheapFixture, AttachToUnformattedFails)
{
    EXPECT_THROW(PersistentHeap::attach(space), FatalError);
}

TEST_F(PheapFixture, AllocReturnsNonNullDistinctOffsets)
{
    PersistentHeap heap = PersistentHeap::create(space);
    std::set<NvOffset> seen;
    for (int i = 0; i < 100; ++i) {
        const NvOffset off = heap.alloc(64);
        ASSERT_NE(off, nullOffset);
        EXPECT_TRUE(seen.insert(off).second);
    }
    EXPECT_EQ(heap.stats().liveAllocations, 100u);
}

TEST_F(PheapFixture, AllocationsAreUsable)
{
    PersistentHeap heap = PersistentHeap::create(space);
    const NvOffset a = heap.alloc(32);
    const NvOffset b = heap.alloc(32);
    heap.store<std::uint64_t>(a, 0xdeadbeef);
    heap.store<std::uint64_t>(b, 0xcafef00d);
    EXPECT_EQ(heap.load<std::uint64_t>(a), 0xdeadbeefu);
    EXPECT_EQ(heap.load<std::uint64_t>(b), 0xcafef00du);
}

TEST_F(PheapFixture, AllocSizeRoundsToClass)
{
    PersistentHeap heap = PersistentHeap::create(space);
    EXPECT_EQ(heap.allocSize(heap.alloc(1)), 16u);
    EXPECT_EQ(heap.allocSize(heap.alloc(16)), 16u);
    EXPECT_EQ(heap.allocSize(heap.alloc(17)), 32u);
    EXPECT_EQ(heap.allocSize(heap.alloc(1000)), 1024u);
    EXPECT_EQ(heap.allocSize(heap.alloc(1025)), 2048u);
}

TEST_F(PheapFixture, FreeThenAllocReusesBlock)
{
    PersistentHeap heap = PersistentHeap::create(space);
    const NvOffset a = heap.alloc(64);
    heap.free(a);
    const NvOffset b = heap.alloc(64);
    EXPECT_EQ(a, b);
    EXPECT_GT(heap.stats().freeListHits, 0u);
}

TEST_F(PheapFixture, FreeListIsPerClass)
{
    PersistentHeap heap = PersistentHeap::create(space);
    const NvOffset small = heap.alloc(16);
    heap.free(small);
    const NvOffset big = heap.alloc(4096);
    EXPECT_NE(small, big);
}

TEST_F(PheapFixture, DoubleFreeDies)
{
    PersistentHeap heap = PersistentHeap::create(space);
    const NvOffset a = heap.alloc(64);
    heap.free(a);
    EXPECT_DEATH(heap.free(a), "double free");
}

TEST_F(PheapFixture, OutOfSpaceReturnsNull)
{
    PersistentHeap heap = PersistentHeap::create(space);
    std::uint64_t allocated = 0;
    while (true) {
        const NvOffset off = heap.alloc(64_KiB);
        if (off == nullOffset)
            break;
        allocated += 64_KiB;
    }
    EXPECT_GT(allocated, 512_KiB);
    // Heap still functional for smaller allocations via free lists.
    const NvOffset small = heap.alloc(16);
    (void)small;
}

TEST_F(PheapFixture, RootPersists)
{
    PersistentHeap heap = PersistentHeap::create(space);
    const NvOffset obj = heap.alloc(128);
    heap.setRoot(obj);
    EXPECT_EQ(heap.root(), obj);
}

TEST_F(PheapFixture, AttachRecoversState)
{
    NvOffset root = nullOffset;
    NvOffset data = nullOffset;
    {
        PersistentHeap heap = PersistentHeap::create(space);
        data = heap.alloc(64);
        heap.store<std::uint64_t>(data, 777);
        heap.setRoot(data);
        root = data;
    }
    // "Reboot": attach to the same bytes.
    PersistentHeap heap = PersistentHeap::attach(space);
    EXPECT_EQ(heap.root(), root);
    EXPECT_EQ(heap.load<std::uint64_t>(root), 777u);
    EXPECT_EQ(heap.stats().liveAllocations, 1u);
    // Allocator still consistent: new allocations do not collide.
    const NvOffset fresh = heap.alloc(64);
    EXPECT_NE(fresh, data);
}

TEST_F(PheapFixture, AttachWithWrongSizeFails)
{
    PersistentHeap::create(space);
    PlainNvSpace half(buffer.data(), buffer.size() / 2);
    EXPECT_THROW(PersistentHeap::attach(half), FatalError);
}

TEST_F(PheapFixture, WriteReadBytes)
{
    PersistentHeap heap = PersistentHeap::create(space);
    const NvOffset off = heap.alloc(256);
    const std::string msg = "persistent payload";
    heap.writeBytes(off, msg.data(), msg.size());
    std::string out(msg.size(), '\0');
    heap.readBytes(off, out.data(), out.size());
    EXPECT_EQ(out, msg);
}

TEST_F(PheapFixture, TooLargeAllocationDies)
{
    PersistentHeap heap = PersistentHeap::create(space);
    EXPECT_DEATH((void)heap.alloc(4_MiB), "too large");
}

/** Property: random alloc/free keeps all live payloads intact. */
TEST_F(PheapFixture, RandomAllocFreeIntegrity)
{
    PersistentHeap heap = PersistentHeap::create(space);
    Rng rng(99);
    struct Live
    {
        NvOffset off;
        std::uint64_t tag;
    };
    std::vector<Live> live;
    for (int i = 0; i < 3000; ++i) {
        if (live.empty() || rng.nextBool(0.6)) {
            const std::uint64_t size = 8 + rng.nextBounded(500);
            const NvOffset off = heap.alloc(size);
            if (off == nullOffset)
                continue;
            const std::uint64_t tag = rng.next();
            heap.store<std::uint64_t>(off, tag);
            live.push_back({off, tag});
        } else {
            const std::size_t pick = rng.nextBounded(live.size());
            EXPECT_EQ(heap.load<std::uint64_t>(live[pick].off),
                      live[pick].tag);
            heap.free(live[pick].off);
            live[pick] = live.back();
            live.pop_back();
        }
    }
    for (const Live &item : live)
        EXPECT_EQ(heap.load<std::uint64_t>(item.off), item.tag);
    EXPECT_EQ(heap.stats().liveAllocations, live.size());
}

// ---------------------------------------------------------------------
// SimNvSpace integration: heap writes are charged and tracked
// ---------------------------------------------------------------------

TEST(SimNvSpaceTest, HeapWritesDirtySimPages)
{
    sim::SimContext ctx;
    storage::Ssd ssd(ctx, storage::SsdConfig{});
    core::ViyojitConfig cfg;
    cfg.dirtyBudgetPages = 8;
    core::ViyojitManager mgr(ctx, ssd, cfg, mmu::MmuCostModel{}, 64);
    const Addr base = mgr.vmmap(32 * defaultPageSize);
    SimNvSpace space(mgr, base, 32 * defaultPageSize);

    PersistentHeap heap = PersistentHeap::create(space);
    const NvOffset off = heap.alloc(64);
    heap.store<std::uint64_t>(off, 42);

    EXPECT_GT(mgr.dirtyPageCount(), 0u);
    EXPECT_GT(mgr.mmu().writeFaults(), 0u);
}

TEST(SimNvSpaceTest, HeapContentsSurviveSimPowerFailure)
{
    sim::SimContext ctx;
    storage::Ssd ssd(ctx, storage::SsdConfig{});
    core::ViyojitConfig cfg;
    cfg.dirtyBudgetPages = 4;
    core::ViyojitManager mgr(ctx, ssd, cfg, mmu::MmuCostModel{}, 64);
    const Addr base = mgr.vmmap(32 * defaultPageSize);
    SimNvSpace space(mgr, base, 32 * defaultPageSize);

    PersistentHeap heap = PersistentHeap::create(space);
    for (int i = 0; i < 50; ++i) {
        const NvOffset off = heap.alloc(100);
        ASSERT_NE(off, nullOffset);
        heap.store<std::uint64_t>(off, i);
    }
    mgr.powerFailureFlush();
    EXPECT_TRUE(mgr.verifyDurability());
}

} // namespace
} // namespace viyojit::pheap
