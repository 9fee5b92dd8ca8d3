/**
 * @file
 * Tests for the section-5.4 hardware-assisted mode: no traps on
 * first writes, budget still enforced exactly, write-through dirty
 * bits keeping recency fresh without TLB flushes, writeback
 * collisions handled, and durability unchanged.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/failure.hh"
#include "core/manager.hh"

namespace viyojit::core
{
namespace
{

struct HwAssistFixture : public ::testing::Test
{
    static constexpr std::uint64_t capacityPages = 128;

    HwAssistFixture()
        : ssd(ctx, storage::SsdConfig{})
    {}

    std::unique_ptr<ViyojitManager>
    makeManager(std::uint64_t budget)
    {
        ViyojitConfig cfg;
        cfg.dirtyBudgetPages = budget;
        cfg.hardwareAssist = true;
        cfg.epochLength = 100_us;
        return std::make_unique<ViyojitManager>(
            ctx, ssd, cfg, mmu::MmuCostModel{}, capacityPages);
    }

    sim::SimContext ctx;
    storage::Ssd ssd;
};

TEST_F(HwAssistFixture, FirstWritesDoNotTrap)
{
    auto mgr = makeManager(16);
    const Addr base = mgr->vmmap(32 * defaultPageSize);
    for (int p = 0; p < 8; ++p)
        mgr->write(base + p * defaultPageSize, 16);
    EXPECT_EQ(mgr->mmu().writeFaults(), 0u);
    EXPECT_EQ(mgr->dirtyPageCount(), 8u);
}

TEST_F(HwAssistFixture, BudgetStillEnforcedExactly)
{
    auto mgr = makeManager(4);
    const Addr base = mgr->vmmap(64 * defaultPageSize);
    for (int p = 0; p < 48; ++p) {
        mgr->write(base + p * defaultPageSize, 16);
        ASSERT_LE(mgr->dirtyPageCount(), 4u);
    }
    EXPECT_GT(mgr->controller().stats().blockedEvictions, 0u);
}

TEST_F(HwAssistFixture, CleanPagesStayWritable)
{
    auto mgr = makeManager(4);
    const Addr base = mgr->vmmap(16 * defaultPageSize);
    // Fill past the budget so evictions happen.
    for (int p = 0; p < 12; ++p)
        mgr->write(base + p * defaultPageSize, 16);
    const auto faults_before = mgr->mmu().writeFaults();
    // Rewrite an evicted page: under the assist this must NOT trap
    // (the page was unprotected after writeback).
    for (int p = 0; p < 12; ++p)
        mgr->write(base + p * defaultPageSize, 16);
    EXPECT_EQ(mgr->mmu().writeFaults(), faults_before);
}

TEST_F(HwAssistFixture, CheaperThanSoftwareTraps)
{
    // Measure the virtual time of the same write pattern under both
    // modes; the assist must be faster (no per-first-write trap).
    auto run = [](bool hw) {
        sim::SimContext run_ctx;
        storage::Ssd run_ssd(run_ctx, storage::SsdConfig{});
        ViyojitConfig cfg;
        cfg.dirtyBudgetPages = 16;
        cfg.hardwareAssist = hw;
        ViyojitManager mgr(run_ctx, run_ssd, cfg, mmu::MmuCostModel{},
                           128);
        const Addr base = mgr.vmmap(64 * defaultPageSize);
        mgr.start();
        Rng rng(3);
        for (int i = 0; i < 2000; ++i) {
            mgr.write(base + rng.nextBounded(64) * defaultPageSize,
                      32);
            mgr.processEvents();
        }
        return run_ctx.now();
    };
    EXPECT_LT(run(true), run(false));
}

TEST_F(HwAssistFixture, RecencyFreshWithoutTlbFlush)
{
    auto mgr = makeManager(8);
    const Addr base = mgr->vmmap(16 * defaultPageSize);
    mgr->start();

    // Page 0 is written every epoch; page 1 once.  With write-through
    // dirty bits the scans see page 0's repeat writes even though no
    // TLB flush happens, so page 1 is the eviction victim.
    mgr->write(base + defaultPageSize, 16);
    for (int e = 0; e < 20; ++e) {
        mgr->write(base, 16);
        ctx.clock().advance(100_us);
        mgr->processEvents();
    }
    // No full TLB flush ever happened under the assist...
    EXPECT_EQ(mgr->mmu().tlb().flushes(), 0u);
    // ...and recency still ranks the hot page above the cold one.
    const auto &recency = mgr->controller().recency();
    EXPECT_GT(recency.history(0), recency.history(1));
}

TEST_F(HwAssistFixture, WritebackCollisionStillSafe)
{
    auto mgr = makeManager(4);
    const Addr base = mgr->vmmap(32 * defaultPageSize);
    mgr->start();
    Rng rng(9);
    // Hammer a working set larger than the budget; collisions with
    // in-flight writebacks must be absorbed, never lost.
    for (int i = 0; i < 3000; ++i) {
        const PageNum p = rng.nextBounded(12);
        mgr->write(base + p * defaultPageSize, 16);
        mgr->processEvents();
        ASSERT_LE(mgr->dirtyPageCount(), 4u);
    }
    mgr->powerFailureFlush();
    EXPECT_TRUE(mgr->verifyDurability());
}

TEST_F(HwAssistFixture, DurabilityAcrossRandomFailures)
{
    for (int seed = 0; seed < 5; ++seed) {
        sim::SimContext trial_ctx;
        storage::Ssd trial_ssd(trial_ctx, storage::SsdConfig{});
        ViyojitConfig cfg;
        cfg.dirtyBudgetPages = 6;
        cfg.hardwareAssist = true;
        cfg.epochLength = 50_us;
        ViyojitManager mgr(trial_ctx, trial_ssd, cfg,
                           mmu::MmuCostModel{}, 64);
        const Addr base = mgr.vmmap(48 * defaultPageSize);
        mgr.start();
        Rng rng(seed);
        for (int i = 0; i < 30 + seed * 53; ++i) {
            mgr.write(base + rng.nextBounded(48) * defaultPageSize,
                      8 + rng.nextBounded(64));
            mgr.processEvents();
        }
        mgr.powerFailureFlush();
        EXPECT_TRUE(mgr.verifyDurability()) << "seed " << seed;
    }
}

} // namespace
} // namespace viyojit::core
