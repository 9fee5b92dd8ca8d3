/**
 * @file
 * Robustness and edge-case tests that cut across modules: the
 * straddling-store guard, device backpressure, budget retuning under
 * in-flight IO, the scaled-Zipf projection, and victim-ordering
 * configuration.
 */

#include <gtest/gtest.h>

#include <deque>
#include <set>

#include "common/distributions.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/controller.hh"
#include "core/manager.hh"

namespace viyojit::core
{
namespace
{

/** Backend with manual completion and a device submit limit. */
class LimitedBackend : public PagingBackend
{
  public:
    LimitedBackend(std::uint64_t pages, unsigned device_limit)
        : protected_(pages, 1), deviceLimit_(device_limit)
    {}

    std::uint64_t pageCount() const override
    {
        return protected_.size();
    }
    std::uint64_t pageSize() const override { return 4096; }
    void protectPage(PageNum p) override { protected_[p] = 1; }
    void unprotectPage(PageNum p) override { protected_[p] = 0; }

    void
    scanAndClearDirty(bool, FunctionRef<void(PageNum, bool)> fn) override
    {
        for (PageNum p = 0; p < protected_.size(); ++p)
            fn(p, false);
    }

    void
    persistRunAsync(PageNum first, unsigned count) override
    {
        for (unsigned i = 0; i < count; ++i)
            pending.push_back(first + i);
    }

    void persistPageBlocking(PageNum) override { ++blockingWrites; }

    void
    waitForPersist(PageNum p) override
    {
        for (auto it = pending.begin(); it != pending.end(); ++it) {
            if (*it == p) {
                pending.erase(it);
                complete(p);
                return;
            }
        }
    }

    void
    waitForAnyPersist() override
    {
        if (pending.empty())
            return;
        const PageNum p = pending.front();
        pending.pop_front();
        complete(p);
    }

    unsigned outstandingIos() const override
    {
        return static_cast<unsigned>(pending.size());
    }

    bool
    canSubmit() const override
    {
        return pending.size() < deviceLimit_;
    }

    std::vector<std::uint8_t> protected_;
    std::deque<PageNum> pending;
    unsigned deviceLimit_;
    unsigned blockingWrites = 0;

  private:
    void
    complete(PageNum p)
    {
        ASSERT_NE(client_, nullptr);
        client_->onPersistComplete(p);
    }
};

ViyojitConfig
config(std::uint64_t budget)
{
    ViyojitConfig cfg;
    cfg.dirtyBudgetPages = budget;
    cfg.maxOutstandingIos = 16;
    return cfg;
}

TEST(BackpressureTest, PumpRespectsDeviceLimit)
{
    LimitedBackend backend(64, 3);
    ViyojitConfig cfg = config(8);
    DirtyBudgetController controller(backend, cfg);
    for (PageNum p = 0; p < 8; ++p)
        controller.onWriteFault(p);
    controller.onEpochBoundary(); // pump wants up to 16, device caps 3
    EXPECT_LE(backend.outstandingIos(), 3u);
}

TEST(BackpressureTest, CompletionsRefillUnderDeviceLimit)
{
    LimitedBackend backend(64, 2);
    DirtyBudgetController controller(backend, config(8));
    for (PageNum p = 0; p < 8; ++p)
        controller.onWriteFault(p);
    controller.onEpochBoundary();
    const std::uint64_t dirty_before = controller.tracker().count();
    while (backend.outstandingIos() > 0)
        backend.waitForAnyPersist();
    EXPECT_LT(controller.tracker().count(), dirty_before);
    EXPECT_LE(backend.outstandingIos(), 2u);
}

TEST(GuardTest, LastAdmittedPageSurvivesThePump)
{
    // Two pages admitted back-to-back (a straddling store); the pump
    // must not evict the first while the second is being admitted.
    LimitedBackend backend(16, 16);
    ViyojitConfig cfg = config(4);
    DirtyBudgetController controller(backend, cfg);
    // Saturate the budget so the threshold forces evictions.
    for (PageNum p = 0; p < 4; ++p)
        controller.onWriteFault(p);
    controller.onEpochBoundary();
    while (backend.outstandingIos() > 0)
        backend.waitForAnyPersist();

    controller.onWriteFault(10);
    controller.onWriteFault(11); // the second half of the store
    EXPECT_TRUE(controller.tracker().isDirty(10) ||
                !backend.protected_[10]);
    // Page 10 must still be writable: the store would otherwise
    // re-fault on it forever.
    EXPECT_FALSE(backend.protected_[10]);
    EXPECT_FALSE(backend.protected_[11]);
}

TEST(GuardTest, TinyBudgetStillMakesProgress)
{
    // Budget 2 is the minimum for straddling stores; alternating
    // admissions must not deadlock or panic.
    LimitedBackend backend(16, 16);
    DirtyBudgetController controller(backend, config(2));
    for (int round = 0; round < 50; ++round) {
        controller.onWriteFault(round % 5);
        EXPECT_LE(controller.tracker().count(), 2u);
    }
}

TEST(BudgetRetuneTest, ShrinkWithInFlightCopies)
{
    LimitedBackend backend(64, 16);
    DirtyBudgetController controller(backend, config(16));
    for (PageNum p = 0; p < 16; ++p)
        controller.onWriteFault(p);
    controller.onEpochBoundary(); // some copies now in flight
    controller.setDirtyBudget(4);
    EXPECT_LE(controller.tracker().count(), 4u);
    while (backend.outstandingIos() > 0)
        backend.waitForAnyPersist();
    EXPECT_LE(controller.tracker().count(), 4u);
}

TEST(RecencyConfigTest, HistoryOnlyOrderingFallsBackToPageNumber)
{
    DirtyPageTracker tracker(8);
    EpochRecencyTracker recency(8, 64);
    recency.setUseSeqTieBreak(false);
    tracker.markDirty(5);
    tracker.markDirty(2);
    recency.recordUpdate(5); // later seq, but ties on history
    recency.recordUpdate(2);
    recency.advanceEpoch();
    recency.rebuildVictimQueue(tracker);
    // Equal histories: page-number order decides (2 first).
    const PageNum victim =
        recency.pickVictim(tracker, [](PageNum) { return false; });
    EXPECT_EQ(victim, 2u);
}

TEST(RecencyConfigTest, SeqTieBreakOrdersWithinEpoch)
{
    DirtyPageTracker tracker(8);
    EpochRecencyTracker recency(8, 64);
    tracker.markDirty(5);
    tracker.markDirty(2);
    recency.recordUpdate(2); // older update
    recency.recordUpdate(5); // newer update, same epoch
    recency.advanceEpoch();
    recency.rebuildVictimQueue(tracker);
    const PageNum victim =
        recency.pickVictim(tracker, [](PageNum) { return false; });
    EXPECT_EQ(victim, 2u); // least recently updated despite 5 > 2
}

// ---------------------------------------------------------------------
// Scaled Zipf projection
// ---------------------------------------------------------------------

TEST(ScaledZipfTest, StaysInRange)
{
    Rng rng(8);
    ScaledZipfianDistribution dist(1000, 10);
    for (int i = 0; i < 20000; ++i)
        EXPECT_LT(dist.next(rng), 1000u);
}

TEST(ScaledZipfTest, MoreConcentratedThanPlainZipf)
{
    // The projection gives the scaled population the coverage profile
    // of the (n << 10)-item distribution, which is more concentrated
    // than Zipf over n items (the fig-5 effect).
    const std::uint64_t n = 4000;
    const int draws = 200000;
    auto top_decile_mass = [&](IntegerDistribution &dist) {
        Rng rng(9);
        std::vector<std::uint32_t> counts(n, 0);
        for (int i = 0; i < draws; ++i)
            ++counts[dist.next(rng)];
        std::sort(counts.begin(), counts.end(),
                  std::greater<std::uint32_t>());
        std::uint64_t mass = 0;
        for (std::uint64_t i = 0; i < n / 10; ++i)
            mass += counts[i];
        return static_cast<double>(mass) / draws;
    };
    ScrambledZipfianDistribution plain(n);
    ScaledZipfianDistribution scaled(n, 10);
    EXPECT_GT(top_decile_mass(scaled), top_decile_mass(plain) + 0.05);
}

TEST(ScaledZipfTest, GrowsWithInserts)
{
    Rng rng(10);
    ScaledZipfianDistribution dist(100, 10);
    dist.setItemCount(200);
    EXPECT_EQ(dist.itemCount(), 200u);
    bool upper_half = false;
    for (int i = 0; i < 5000; ++i)
        upper_half |= dist.next(rng) >= 100;
    EXPECT_TRUE(upper_half);
}

TEST(ScaledZipfTest, IncrementalZetaMatchesFresh)
{
    // Growing step by step must agree with constructing at the final
    // size (the incremental zeta path vs. the cached path).
    Rng rng_a(11);
    Rng rng_b(11);
    ScaledZipfianDistribution grown(1 << 10, 4);
    for (std::uint64_t n = (1 << 10) + 1; n <= (1 << 10) + 64; ++n)
        grown.setItemCount(n);
    ScaledZipfianDistribution fresh((1 << 10) + 64, 4);
    for (int i = 0; i < 2000; ++i)
        EXPECT_EQ(grown.next(rng_a), fresh.next(rng_b));
}

// ---------------------------------------------------------------------
// Hardware-assist + tie-break interactions through the manager
// ---------------------------------------------------------------------

TEST(ManagerModesTest, AllModeCombinationsStayDurable)
{
    for (bool hw : {false, true}) {
        for (bool continuous : {false, true}) {
            for (bool tie_break : {false, true}) {
                sim::SimContext ctx;
                storage::Ssd ssd(ctx, storage::SsdConfig{});
                ViyojitConfig cfg;
                cfg.dirtyBudgetPages = 8;
                cfg.hardwareAssist = hw;
                cfg.continuousCopyTrigger = continuous;
                cfg.updateTimeTieBreak = tie_break;
                cfg.epochLength = 100_us;
                ViyojitManager mgr(ctx, ssd, cfg,
                                   mmu::MmuCostModel{}, 64);
                const Addr base = mgr.vmmap(48 * defaultPageSize);
                mgr.start();
                Rng rng(hw * 4 + continuous * 2 + tie_break);
                for (int i = 0; i < 600; ++i) {
                    mgr.write(base + rng.nextBounded(48) *
                                         defaultPageSize,
                              16 + rng.nextBounded(64));
                    mgr.processEvents();
                    ASSERT_LE(mgr.dirtyPageCount(), 8u);
                }
                mgr.powerFailureFlush();
                EXPECT_TRUE(mgr.verifyDurability())
                    << "hw=" << hw << " cont=" << continuous
                    << " tie=" << tie_break;
            }
        }
    }
}

} // namespace
} // namespace viyojit::core
