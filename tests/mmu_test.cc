/**
 * @file
 * Unit tests for the MMU substrate: PTE bits, the radix page table,
 * the TLB, fault delivery, and the epoch dirty-bit scan (including
 * the stale-TLB behaviour behind the paper's section 6.3 ablation).
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.hh"
#include "mmu/mmu.hh"

namespace viyojit::mmu
{
namespace
{

// ---------------------------------------------------------------------
// Pte
// ---------------------------------------------------------------------

TEST(PteTest, FlagRoundTrip)
{
    Pte pte;
    EXPECT_FALSE(pte.present());
    pte.setPresent(true);
    pte.setWritable(true);
    pte.setDirty(true);
    pte.setAccessed(true);
    pte.setShadowDirty(true);
    EXPECT_TRUE(pte.present());
    EXPECT_TRUE(pte.writable());
    EXPECT_TRUE(pte.dirty());
    EXPECT_TRUE(pte.accessed());
    EXPECT_TRUE(pte.shadowDirty());
    pte.setDirty(false);
    EXPECT_FALSE(pte.dirty());
    EXPECT_TRUE(pte.writable());
}

TEST(PteTest, PfnField)
{
    Pte pte;
    pte.setPfn(0x123456);
    pte.setPresent(true);
    EXPECT_EQ(pte.pfn(), 0x123456u);
    EXPECT_TRUE(pte.present()); // flags survive pfn writes
}

// ---------------------------------------------------------------------
// PageTable
// ---------------------------------------------------------------------

TEST(PageTableTest, MapAndFind)
{
    PageTable table;
    table.map(42, Pte::writableBit);
    const Pte *pte = table.find(42);
    ASSERT_NE(pte, nullptr);
    EXPECT_TRUE(pte->present());
    EXPECT_TRUE(pte->writable());
    EXPECT_EQ(pte->pfn(), 42u);
}

TEST(PageTableTest, FindUnmappedReturnsNull)
{
    PageTable table;
    EXPECT_EQ(table.find(42), nullptr);
    table.map(42, 0);
    EXPECT_EQ(table.find(43)->present(), false);
}

TEST(PageTableTest, UnmapClearsEntry)
{
    PageTable table;
    table.map(7, 0);
    EXPECT_TRUE(table.isMapped(7));
    table.unmap(7);
    EXPECT_FALSE(table.isMapped(7));
    EXPECT_EQ(table.mappedCount(), 0u);
}

TEST(PageTableTest, MappedCount)
{
    PageTable table;
    for (PageNum p = 0; p < 100; ++p)
        table.map(p, 0);
    EXPECT_EQ(table.mappedCount(), 100u);
    table.map(50, 0); // re-map is not a new mapping
    EXPECT_EQ(table.mappedCount(), 100u);
}

TEST(PageTableTest, SparseVpnsAcrossLevels)
{
    PageTable table;
    // VPNs that differ in every radix level.
    const std::vector<PageNum> vpns = {0, 511, 512, 1ULL << 18,
                                       1ULL << 27, (1ULL << 30) + 5};
    for (PageNum vpn : vpns)
        table.map(vpn, 0);
    for (PageNum vpn : vpns)
        EXPECT_TRUE(table.isMapped(vpn)) << vpn;
    EXPECT_EQ(table.mappedCount(), vpns.size());
}

TEST(PageTableTest, ForEachPresentVisitsRange)
{
    PageTable table;
    for (PageNum p = 10; p < 20; ++p)
        table.map(p, 0);
    std::vector<PageNum> seen;
    table.forEachPresent(12, 17, [&](PageNum vpn, Pte &) {
        seen.push_back(vpn);
    });
    EXPECT_EQ(seen, (std::vector<PageNum>{12, 13, 14, 15, 16}));
}

TEST(PageTableTest, ForEachPresentSkipsAbsentSubtrees)
{
    PageTable table;
    table.map(5, 0);
    table.map(1ULL << 30, 0);
    std::size_t visits = 0;
    table.forEachPresent(0, PageTable::maxVpn,
                         [&](PageNum, Pte &) { ++visits; });
    EXPECT_EQ(visits, 2u);
}

TEST(PageTableTest, VisitorCanMutate)
{
    PageTable table;
    table.map(3, 0);
    table.forEachPresent(0, 10, [](PageNum, Pte &pte) {
        pte.setDirty(true);
    });
    EXPECT_TRUE(table.find(3)->dirty());
}

TEST(PageTableTest, ForEachDirtyVisitsOnlyDirtyPages)
{
    PageTable table;
    for (PageNum p = 0; p < 100; ++p)
        table.map(p, 0);
    table.noteDirty(17);
    table.noteDirty(63);
    table.noteDirty(64);
    std::vector<PageNum> seen;
    const DirtyScanStats stats = table.forEachDirty(
        0, 100, [&](PageNum vpn, Pte &pte) {
            seen.push_back(vpn);
            pte.setDirty(false);
        });
    EXPECT_EQ(seen, (std::vector<PageNum>{17, 63, 64}));
    EXPECT_EQ(stats.visitedPages, 3u);
    // The scan drained the bits and the summaries with them.
    EXPECT_FALSE(table.anyDirty());
    EXPECT_TRUE(table.dirtySummariesConsistent());
    const DirtyScanStats again = table.forEachDirty(
        0, 100, [&](PageNum, Pte &) { FAIL() << "nothing is dirty"; });
    EXPECT_EQ(again.visitedPages, 0u);
}

TEST(PageTableTest, ForEachDirtyPrunesCleanSubtrees)
{
    PageTable table;
    table.map(5, 0);
    table.map(1ULL << 30, 0); // a second, far-away subtree
    table.noteDirty(5);
    std::vector<PageNum> seen;
    const DirtyScanStats stats = table.forEachDirty(
        0, PageTable::maxVpn, [&](PageNum vpn, Pte &pte) {
            seen.push_back(vpn);
            pte.setDirty(false);
        });
    EXPECT_EQ(seen, (std::vector<PageNum>{5}));
    // The clean subtree was pruned at the root without descending.
    EXPECT_GE(stats.skippedSubtrees, 1u);
    EXPECT_EQ(stats.visitedNodes, 4u); // root + one path down
}

TEST(PageTableTest, ForEachDirtyHonorsRange)
{
    PageTable table;
    for (PageNum p = 10; p < 20; ++p) {
        table.map(p, 0);
        table.noteDirty(p);
    }
    std::vector<PageNum> seen;
    table.forEachDirty(12, 17, [&](PageNum vpn, Pte &pte) {
        seen.push_back(vpn);
        pte.setDirty(false);
    });
    EXPECT_EQ(seen, (std::vector<PageNum>{12, 13, 14, 15, 16}));
    // Pages outside the scanned range keep their dirty bits and the
    // summaries still know about them.
    EXPECT_TRUE(table.find(11)->dirty());
    EXPECT_TRUE(table.anyDirty());
    EXPECT_TRUE(table.dirtySummariesConsistent());
}

/**
 * Fuzz the any-dirty-below summaries: after an arbitrary mix of map,
 * unmap, re-map, dirty, clean, and partial-range scans, every summary
 * bit must be set iff some present descendant PTE is dirty, and the
 * pruned scan must report exactly the reference dirty set.
 */
TEST(PageTableTest, DirtySummaryInvariantUnderRandomOps)
{
    PageTable table;
    Rng rng(0x5eedULL);
    // A sparse universe crossing all four radix levels.
    std::vector<PageNum> universe;
    for (int i = 0; i < 48; ++i)
        universe.push_back(rng.nextBounded(PageTable::maxVpn));
    for (PageNum p = 1000; p < 1032; ++p)
        universe.push_back(p); // plus one dense leaf
    std::set<PageNum> mapped;
    std::set<PageNum> dirty;

    for (int op = 0; op < 5000; ++op) {
        const PageNum vpn =
            universe[rng.nextBounded(universe.size())];
        switch (rng.nextBounded(6)) {
          case 0:
            // (Re-)map wipes any prior dirty state of the slot.
            table.map(vpn, 0);
            mapped.insert(vpn);
            dirty.erase(vpn);
            break;
          case 1:
            table.unmap(vpn);
            mapped.erase(vpn);
            dirty.erase(vpn);
            break;
          case 2:
            if (mapped.count(vpn)) {
                table.noteDirty(vpn);
                dirty.insert(vpn);
            }
            break;
          case 3:
            table.clearDirty(vpn);
            dirty.erase(vpn);
            break;
          default: {
            // Partial-range draining scan, like an epoch boundary
            // over a sub-region.
            const PageNum lo = rng.nextBounded(PageTable::maxVpn);
            const PageNum hi =
                lo + rng.nextBounded(PageTable::maxVpn - lo + 1);
            std::vector<PageNum> seen;
            table.forEachDirty(lo, hi, [&](PageNum p, Pte &pte) {
                seen.push_back(p);
                pte.setDirty(false);
            });
            std::vector<PageNum> expected(
                dirty.lower_bound(lo), dirty.lower_bound(hi));
            ASSERT_EQ(seen, expected)
                << "scan [" << lo << ", " << hi << ") diverged";
            dirty.erase(dirty.lower_bound(lo), dirty.lower_bound(hi));
            break;
          }
        }
        if (op % 97 == 0) {
            ASSERT_TRUE(table.dirtySummariesConsistent())
                << "summaries inconsistent after op " << op;
        }
    }

    ASSERT_TRUE(table.dirtySummariesConsistent());
    std::vector<PageNum> seen;
    table.forEachDirty(0, PageTable::maxVpn + 1,
                       [&](PageNum p, Pte &pte) {
                           seen.push_back(p);
                           pte.setDirty(false);
                       });
    EXPECT_EQ(seen,
              std::vector<PageNum>(dirty.begin(), dirty.end()));
    EXPECT_FALSE(table.anyDirty());
}

// ---------------------------------------------------------------------
// Tlb
// ---------------------------------------------------------------------

TlbConfig
tinyTlb()
{
    TlbConfig cfg;
    cfg.entryCount = 8;
    cfg.associativity = 2;
    return cfg;
}

TEST(TlbTest, MissThenHit)
{
    Tlb tlb(tinyTlb());
    EXPECT_FALSE(tlb.lookup(5).hit);
    tlb.insert(5, true, false);
    const auto view = tlb.lookup(5);
    EXPECT_TRUE(view.hit);
    EXPECT_TRUE(view.writable);
    EXPECT_FALSE(view.dirtyCached);
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(TlbTest, LruEvictionWithinSet)
{
    Tlb tlb(tinyTlb()); // 4 sets, 2 ways
    // Three VPNs in the same set (stride = set count = 4).
    tlb.insert(0, true, false);
    tlb.insert(4, true, false);
    (void)tlb.lookup(0); // make 0 recent; 4 becomes LRU
    tlb.insert(8, true, false);
    EXPECT_TRUE(tlb.lookup(0).hit);
    EXPECT_FALSE(tlb.lookup(4).hit);
    EXPECT_TRUE(tlb.lookup(8).hit);
}

TEST(TlbTest, FlushPage)
{
    Tlb tlb(tinyTlb());
    tlb.insert(3, true, false);
    tlb.flushPage(3);
    EXPECT_FALSE(tlb.lookup(3).hit);
    EXPECT_EQ(tlb.shootdowns(), 1u);
}

TEST(TlbTest, FlushAll)
{
    Tlb tlb(tinyTlb());
    for (PageNum p = 0; p < 8; ++p)
        tlb.insert(p, true, false);
    tlb.flushAll();
    for (PageNum p = 0; p < 8; ++p)
        EXPECT_FALSE(tlb.lookup(p).hit);
    EXPECT_EQ(tlb.flushes(), 1u);
}

TEST(TlbTest, MarkDirtyUpdatesCachedState)
{
    Tlb tlb(tinyTlb());
    tlb.insert(2, true, false);
    tlb.markDirty(2);
    EXPECT_TRUE(tlb.lookup(2).dirtyCached);
}

// ---------------------------------------------------------------------
// Mmu
// ---------------------------------------------------------------------

struct MmuFixture : public ::testing::Test
{
    MmuFixture()
        : mmu(ctx, costs)
    {
        for (PageNum p = 0; p < 16; ++p)
            mmu.mapPage(p, /*writable=*/false);
    }

    sim::SimContext ctx;
    MmuCostModel costs;
    Mmu mmu;
};

TEST_F(MmuFixture, ReadDoesNotFault)
{
    mmu.access(0, false);
    EXPECT_EQ(mmu.writeFaults(), 0u);
    EXPECT_TRUE(mmu.findPte(0)->accessed());
}

TEST_F(MmuFixture, WriteToProtectedPageFaults)
{
    PageNum faulted = invalidPage;
    mmu.setWriteFaultHandler([&](PageNum vpn) {
        faulted = vpn;
        mmu.unprotectPage(vpn);
    });
    mmu.access(3, true);
    EXPECT_EQ(faulted, 3u);
    EXPECT_EQ(mmu.writeFaults(), 1u);
    EXPECT_TRUE(mmu.findPte(3)->dirty());
}

TEST_F(MmuFixture, SecondWriteDoesNotFault)
{
    mmu.setWriteFaultHandler(
        [&](PageNum vpn) { mmu.unprotectPage(vpn); });
    mmu.access(3, true);
    mmu.access(3, true);
    EXPECT_EQ(mmu.writeFaults(), 1u);
}

TEST_F(MmuFixture, TrapCostCharged)
{
    mmu.setWriteFaultHandler(
        [&](PageNum vpn) { mmu.unprotectPage(vpn); });
    const Tick before = ctx.now();
    mmu.access(3, true);
    EXPECT_GE(ctx.now() - before, costs.trapCost);
}

TEST_F(MmuFixture, ProtectReflectedInIsProtected)
{
    mmu.setWriteFaultHandler(
        [&](PageNum vpn) { mmu.unprotectPage(vpn); });
    EXPECT_TRUE(mmu.isProtected(5));
    mmu.access(5, true);
    EXPECT_FALSE(mmu.isProtected(5));
    mmu.protectPage(5);
    EXPECT_TRUE(mmu.isProtected(5));
}

TEST_F(MmuFixture, ProtectShootsDownTlbEntry)
{
    mmu.setWriteFaultHandler(
        [&](PageNum vpn) { mmu.unprotectPage(vpn); });
    mmu.access(4, true); // now cached writable
    mmu.protectPage(4);
    PageNum faulted = invalidPage;
    mmu.setWriteFaultHandler([&](PageNum vpn) {
        faulted = vpn;
        mmu.unprotectPage(vpn);
    });
    mmu.access(4, true); // must fault again, not hit stale TLB
    EXPECT_EQ(faulted, 4u);
}

TEST_F(MmuFixture, ScanReportsAndClearsDirtyBits)
{
    mmu.setWriteFaultHandler(
        [&](PageNum vpn) { mmu.unprotectPage(vpn); });
    mmu.access(1, true);
    mmu.access(2, true);

    std::vector<PageNum> dirty;
    mmu.scanAndClearDirty(0, 16, true, [&](PageNum vpn, bool was) {
        if (was)
            dirty.push_back(vpn);
    });
    EXPECT_EQ(dirty, (std::vector<PageNum>{1, 2}));

    // Bits are cleared now.
    dirty.clear();
    mmu.scanAndClearDirty(0, 16, true, [&](PageNum vpn, bool was) {
        if (was)
            dirty.push_back(vpn);
    });
    EXPECT_TRUE(dirty.empty());
}

TEST_F(MmuFixture, RewriteAfterFlushedScanSetsDirtyAgain)
{
    mmu.setWriteFaultHandler(
        [&](PageNum vpn) { mmu.unprotectPage(vpn); });
    mmu.access(1, true);
    mmu.scanAndClearDirty(0, 16, true, [](PageNum, bool) {});
    mmu.access(1, true); // TLB was flushed -> dirty bit set again
    bool was_dirty = false;
    mmu.scanAndClearDirty(0, 16, true, [&](PageNum vpn, bool was) {
        if (vpn == 1)
            was_dirty = was;
    });
    EXPECT_TRUE(was_dirty);
}

TEST_F(MmuFixture, StaleTlbHidesRewrites)
{
    // The section 6.3 ablation: without the TLB flush, the cached
    // dirty state swallows the PTE dirty-bit update, so the next scan
    // reads stale (clean) bits for re-written pages.
    mmu.setWriteFaultHandler(
        [&](PageNum vpn) { mmu.unprotectPage(vpn); });
    mmu.access(1, true);
    mmu.scanAndClearDirty(0, 16, false, [](PageNum, bool) {});
    mmu.access(1, true); // TLB still caches dirty=1: no PTE update
    bool was_dirty = false;
    mmu.scanAndClearDirty(0, 16, false, [&](PageNum vpn, bool was) {
        if (vpn == 1)
            was_dirty = was;
    });
    EXPECT_FALSE(was_dirty);
}

TEST_F(MmuFixture, LegacyWalkMatchesHierarchicalScan)
{
    mmu.setWriteFaultHandler(
        [&](PageNum vpn) { mmu.unprotectPage(vpn); });
    mmu.access(1, true);
    mmu.access(7, true);
    std::vector<PageNum> hier;
    mmu.scanAndClearDirty(0, 16, true, [&](PageNum vpn, bool was) {
        if (was)
            hier.push_back(vpn);
    });
    EXPECT_EQ(hier, (std::vector<PageNum>{1, 7}));

    // Redirty the same pages and rescan on the legacy full walk: the
    // dirty report is identical, but every present page is visited.
    mmu.access(1, true);
    mmu.access(7, true);
    std::vector<PageNum> legacy;
    std::uint64_t visited = 0;
    const DirtyScanStats stats = mmu.scanAndClearDirty(
        0, 16, true,
        [&](PageNum vpn, bool was) {
            ++visited;
            if (was)
                legacy.push_back(vpn);
        },
        /*legacy_walk=*/true);
    EXPECT_EQ(legacy, hier);
    EXPECT_EQ(visited, 16u);
    EXPECT_EQ(stats.visitedPages, 16u);
    EXPECT_TRUE(mmu.pageTable().dirtySummariesConsistent());
}

TEST_F(MmuFixture, HierarchicalScanCountsSkippedSubtrees)
{
    mmu.mapPage(1ULL << 30, /*writable=*/false); // far-away subtree
    mmu.setWriteFaultHandler(
        [&](PageNum vpn) { mmu.unprotectPage(vpn); });
    mmu.access(1, true);
    const DirtyScanStats stats = mmu.scanAndClearDirty(
        0, (1ULL << 30) + 1, true, [](PageNum, bool) {});
    EXPECT_GE(stats.skippedSubtrees, 1u);
}

TEST_F(MmuFixture, AccessRangeTouchesSpannedPages)
{
    mmu.setWriteFaultHandler(
        [&](PageNum vpn) { mmu.unprotectPage(vpn); });
    // 100 bytes starting 50 bytes before a page boundary.
    mmu.accessRange(defaultPageSize - 50, 100, true);
    EXPECT_TRUE(mmu.findPte(0)->dirty());
    EXPECT_TRUE(mmu.findPte(1)->dirty());
    EXPECT_FALSE(mmu.findPte(2)->dirty());
}

TEST_F(MmuFixture, UnmappedAccessPanics)
{
    EXPECT_DEATH(mmu.access(999, false), "unmapped");
}

TEST_F(MmuFixture, BrokenHandlerPanics)
{
    mmu.setWriteFaultHandler([](PageNum) { /* never unprotects */ });
    EXPECT_DEATH(mmu.access(0, true), "failed to unprotect");
}

} // namespace
} // namespace viyojit::mmu
