/**
 * @file
 * Unit tests for the paper's core mechanism: dirty tracking, epoch
 * recency, pressure prediction, the dirty-budget controller (against
 * a mock backend), and the simulated manager end to end.
 */

#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <vector>

#include "common/distributions.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/controller.hh"
#include "core/dirty_tracker.hh"
#include "core/failure.hh"
#include "core/manager.hh"
#include "core/pressure.hh"
#include "core/recency.hh"

namespace viyojit::core
{
namespace
{

// ---------------------------------------------------------------------
// DirtyPageTracker
// ---------------------------------------------------------------------

TEST(DirtyTrackerTest, MarkDirtyOnce)
{
    DirtyPageTracker tracker(10);
    EXPECT_TRUE(tracker.markDirty(3));
    EXPECT_FALSE(tracker.markDirty(3));
    EXPECT_EQ(tracker.count(), 1u);
    EXPECT_TRUE(tracker.isDirty(3));
}

TEST(DirtyTrackerTest, MarkCleanRemoves)
{
    DirtyPageTracker tracker(10);
    tracker.markDirty(3);
    EXPECT_TRUE(tracker.markClean(3));
    EXPECT_FALSE(tracker.markClean(3));
    EXPECT_EQ(tracker.count(), 0u);
    EXPECT_FALSE(tracker.isDirty(3));
}

TEST(DirtyTrackerTest, SwapRemoveKeepsSetConsistent)
{
    DirtyPageTracker tracker(10);
    for (PageNum p = 0; p < 5; ++p)
        tracker.markDirty(p);
    tracker.markClean(0); // 4 swaps into slot 0
    std::set<PageNum> dirty;
    tracker.forEachDirty([&](PageNum p) { dirty.insert(p); });
    EXPECT_EQ(dirty, (std::set<PageNum>{1, 2, 3, 4}));
}

TEST(DirtyTrackerTest, HighWatermark)
{
    DirtyPageTracker tracker(10);
    tracker.markDirty(1);
    tracker.markDirty(2);
    tracker.markClean(1);
    tracker.markClean(2);
    EXPECT_EQ(tracker.highWatermark(), 2u);
}

TEST(DirtyTrackerTest, EpochCounter)
{
    DirtyPageTracker tracker(10);
    tracker.markDirty(1);
    tracker.markDirty(2);
    EXPECT_EQ(tracker.newDirtyThisEpoch(), 2u);
    tracker.resetEpochCount();
    EXPECT_EQ(tracker.newDirtyThisEpoch(), 0u);
    tracker.markDirty(3);
    EXPECT_EQ(tracker.newDirtyThisEpoch(), 1u);
}

/** Property test: tracker agrees with a reference std::set. */
TEST(DirtyTrackerTest, MatchesReferenceSetUnderRandomOps)
{
    const std::uint64_t pages = 64;
    DirtyPageTracker tracker(pages);
    std::set<PageNum> reference;
    Rng rng(123);
    for (int i = 0; i < 20000; ++i) {
        const PageNum p = rng.nextBounded(pages);
        if (rng.nextBool(0.5)) {
            EXPECT_EQ(tracker.markDirty(p), reference.insert(p).second);
        } else {
            EXPECT_EQ(tracker.markClean(p), reference.erase(p) == 1);
        }
        EXPECT_EQ(tracker.count(), reference.size());
    }
    std::set<PageNum> dirty;
    tracker.forEachDirty([&](PageNum p) { dirty.insert(p); });
    EXPECT_EQ(dirty, reference);
}

// ---------------------------------------------------------------------
// EpochRecencyTracker
// ---------------------------------------------------------------------

TEST(RecencyTest, HistoryShiftsEachEpoch)
{
    EpochRecencyTracker recency(4, 64);
    recency.recordUpdate(0);
    EXPECT_EQ(recency.history(0), 1ULL << 63);
    recency.advanceEpoch();
    EXPECT_EQ(recency.history(0), 1ULL << 62);
    recency.advanceEpoch();
    EXPECT_EQ(recency.history(0), 1ULL << 61);
}

TEST(RecencyTest, WindowBoundsHistory)
{
    EpochRecencyTracker recency(4, 2);
    recency.recordUpdate(0);
    recency.advanceEpoch();
    recency.advanceEpoch();
    EXPECT_EQ(recency.history(0), 0u);
    EXPECT_TRUE(recency.coldInWindow(0));
}

TEST(RecencyTest, MoreRecentMeansLargerHistory)
{
    EpochRecencyTracker recency(4, 64);
    recency.recordUpdate(0);
    recency.advanceEpoch();
    recency.recordUpdate(1); // page 1 updated more recently
    EXPECT_GT(recency.history(1), recency.history(0));
}

TEST(RecencyTest, VictimIsLeastRecentlyUpdated)
{
    DirtyPageTracker tracker(8);
    EpochRecencyTracker recency(8, 64);
    for (PageNum p = 0; p < 3; ++p)
        tracker.markDirty(p);
    // Page 2 updated now, page 1 one epoch ago, page 0 two epochs ago.
    recency.recordUpdate(0);
    recency.advanceEpoch();
    recency.recordUpdate(1);
    recency.advanceEpoch();
    recency.recordUpdate(2);
    recency.rebuildVictimQueue(tracker);
    const PageNum victim =
        recency.pickVictim(tracker, [](PageNum) { return false; });
    EXPECT_EQ(victim, 0u);
}

TEST(RecencyTest, VictimSkipsExcludedAndClean)
{
    DirtyPageTracker tracker(8);
    EpochRecencyTracker recency(8, 64);
    tracker.markDirty(0);
    tracker.markDirty(1);
    tracker.markDirty(2);
    recency.rebuildVictimQueue(tracker);
    tracker.markClean(0);
    const PageNum victim = recency.pickVictim(
        tracker, [](PageNum p) { return p == 1; });
    EXPECT_EQ(victim, 2u);
}

TEST(RecencyTest, FallbackFindsPagesDirtiedAfterRebuild)
{
    DirtyPageTracker tracker(8);
    EpochRecencyTracker recency(8, 64);
    recency.rebuildVictimQueue(tracker); // empty queue
    tracker.markDirty(5);
    const PageNum victim =
        recency.pickVictim(tracker, [](PageNum) { return false; });
    EXPECT_EQ(victim, 5u);
}

TEST(RecencyTest, NoVictimWhenAllExcluded)
{
    DirtyPageTracker tracker(8);
    EpochRecencyTracker recency(8, 64);
    tracker.markDirty(1);
    recency.rebuildVictimQueue(tracker);
    const PageNum victim =
        recency.pickVictim(tracker, [](PageNum) { return true; });
    EXPECT_EQ(victim, invalidPage);
}

/**
 * The bucketed victim queue must evict in exactly the order of the
 * legacy per-epoch full sort.  Drive two independent universes — one
 * on each path — through the same random mix of faults, re-updates,
 * epoch boundaries, cleans, and boundary victim drains, and demand
 * identical histories and identical pick sequences throughout.
 * (ViyojitConfig::legacyEpochScan documents this test by name.)
 */
TEST(RecencyTest, VictimOrderEquivalence)
{
    constexpr PageNum pages = 256;
    constexpr unsigned window = 16;
    constexpr int ops = 10000;
    Rng rng(0x1c71f5eedULL);

    DirtyPageTracker trackerLegacy(pages);
    DirtyPageTracker trackerFast(pages);
    EpochRecencyTracker legacy(pages, window);
    EpochRecencyTracker fast(pages, window);
    legacy.setLegacyQueue(true);
    legacy.rebuildVictimQueue(trackerLegacy);

    std::uint64_t picks = 0;
    for (int op = 0; op < ops; ++op) {
        const double roll = rng.nextDouble();
        if (roll < 0.70) {
            // Fault / hardware-dirty re-update.
            const PageNum p = rng.nextBounded(pages);
            if (!trackerLegacy.isDirty(p)) {
                trackerLegacy.markDirty(p);
                trackerFast.markDirty(p);
            }
            legacy.recordUpdate(p);
            fast.recordUpdate(p);
        } else if (roll < 0.85) {
            // Proactive-copy completion: clean a random page.
            const PageNum p = rng.nextBounded(pages);
            if (trackerLegacy.isDirty(p)) {
                trackerLegacy.markClean(p);
                trackerFast.markClean(p);
            }
        } else {
            // Epoch boundary, then drain a few victims the way the
            // controller does (pick, protect+copy, mark clean).
            legacy.advanceEpoch();
            fast.advanceEpoch();
            legacy.rebuildVictimQueue(trackerLegacy);
            fast.rebuildVictimQueue(trackerFast);
            for (PageNum p = 0; p < pages; ++p) {
                ASSERT_EQ(legacy.history(p), fast.history(p))
                    << "history diverged for page " << p;
            }
            const int drains = static_cast<int>(rng.nextBounded(4));
            const PageNum excluded = rng.nextBounded(pages);
            for (int d = 0; d < drains; ++d) {
                const auto skip = [excluded](PageNum p) {
                    return p == excluded;
                };
                const PageNum a =
                    legacy.pickVictim(trackerLegacy, skip);
                const PageNum b = fast.pickVictim(trackerFast, skip);
                ASSERT_EQ(a, b) << "eviction order diverged at op "
                                << op << " drain " << d;
                if (a == invalidPage)
                    break;
                trackerLegacy.markClean(a);
                trackerFast.markClean(a);
                ++picks;
            }
        }
    }
    // The run must have actually exercised the queues.
    EXPECT_GT(picks, 100u);
}

/**
 * The extent key is a SECONDARY sort: it may reorder victims only
 * among pages of equal recency standing (same history signature),
 * never across recency buckets.  Drive twin bucketed trackers — one
 * with the extent key, one without — through the same workload and,
 * at full drains, demand position-by-position identical history
 * classes and an identical victim multiset, while the page order
 * itself must differ somewhere (the key actually did something).
 * (EpochRecencyTracker::setExtentShift documents this test by name.)
 */
TEST(RecencyTest, ExtentKeyReordersOnlyWithinBuckets)
{
    constexpr PageNum pages = 256;
    constexpr unsigned window = 8;
    constexpr int ops = 6000;
    Rng rng(0xe71e57ULL);

    DirtyPageTracker trackerPlain(pages);
    DirtyPageTracker trackerExtent(pages);
    EpochRecencyTracker plain(pages, window);
    EpochRecencyTracker extent(pages, window);
    extent.setExtentShift(4); // 16-page extents

    bool reordered = false;
    std::uint64_t drained = 0;
    for (int op = 0; op < ops; ++op) {
        const double roll = rng.nextDouble();
        if (roll < 0.80) {
            const PageNum p = rng.nextBounded(pages);
            if (!trackerPlain.isDirty(p)) {
                trackerPlain.markDirty(p);
                trackerExtent.markDirty(p);
            }
            plain.recordUpdate(p);
            extent.recordUpdate(p);
        } else if (roll < 0.97) {
            plain.advanceEpoch();
            extent.advanceEpoch();
        } else {
            // Full drain: pop every victim from both universes.
            plain.rebuildVictimQueue(trackerPlain);
            extent.rebuildVictimQueue(trackerExtent);
            std::vector<PageNum> seqPlain, seqExtent;
            const auto never = [](PageNum) { return false; };
            for (;;) {
                const PageNum a = plain.pickVictim(trackerPlain, never);
                const PageNum b =
                    extent.pickVictim(trackerExtent, never);
                ASSERT_EQ(a == invalidPage, b == invalidPage)
                    << "drain lengths diverged at op " << op;
                if (a == invalidPage)
                    break;
                // Identical recency class at every position: the
                // extent key only permutes within a class.  The
                // class is the epoch bucket — the history MSB names
                // the page's last-update epoch — not the full
                // history word, whose sub-epoch refinement the
                // locality key deliberately trades away.  (The twins
                // see identical updates, so their per-page histories
                // are identical.)
                const auto bucketOf = [](std::uint64_t h) {
                    return h == 0 ? 0 : 64 - __builtin_clzll(h);
                };
                ASSERT_EQ(bucketOf(plain.history(a)),
                          bucketOf(plain.history(b)))
                    << "extent key crossed a recency bucket at op "
                    << op << ": " << a << " vs " << b;
                seqPlain.push_back(a);
                seqExtent.push_back(b);
                trackerPlain.markClean(a);
                trackerExtent.markClean(b);
                ++drained;
            }
            reordered |= seqPlain != seqExtent;
            std::sort(seqPlain.begin(), seqPlain.end());
            std::sort(seqExtent.begin(), seqExtent.end());
            ASSERT_EQ(seqPlain, seqExtent)
                << "victim multiset diverged at op " << op;
        }
    }
    EXPECT_GT(drained, 200u);
    // The key must have reordered something, or this test proved
    // nothing about its scope.
    EXPECT_TRUE(reordered);
}

// ---------------------------------------------------------------------
// DirtyPagePressure
// ---------------------------------------------------------------------

TEST(PressureTest, EwmaWeights)
{
    DirtyPagePressure pressure(0.75);
    pressure.observe(100);
    EXPECT_DOUBLE_EQ(pressure.predicted(), 75.0);
    pressure.observe(100);
    EXPECT_DOUBLE_EQ(pressure.predicted(), 75.0 * 0.25 + 75.0);
}

TEST(PressureTest, ThresholdIsBudgetMinusPressure)
{
    DirtyPagePressure pressure(0.75);
    // No prediction yet: the whole budget is the threshold.
    EXPECT_EQ(pressure.threshold(100), 100u);
    pressure.observe(40); // predicted 30
    EXPECT_EQ(pressure.threshold(100), 70u);
}

TEST(PressureTest, ThresholdFloorsAtHalfBudget)
{
    // An over-budget burst prediction must not drive the threshold to
    // zero (that would make every fault drain the whole dirty set);
    // half the budget is the robustness floor.
    DirtyPagePressure pressure(1.0);
    pressure.observe(500);
    EXPECT_EQ(pressure.threshold(100), 50u);
}

TEST(PressureTest, ConvergesToSteadyRate)
{
    DirtyPagePressure pressure(0.75);
    for (int i = 0; i < 50; ++i)
        pressure.observe(20);
    EXPECT_NEAR(pressure.predicted(), 20.0, 0.01);
}

// ---------------------------------------------------------------------
// Controller against a mock backend
// ---------------------------------------------------------------------

/** Deterministic in-memory backend with manual IO completion. */
class MockBackend : public PagingBackend
{
  public:
    explicit MockBackend(std::uint64_t pages)
        : protected_(pages, 1)
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
        for (PageNum p = 0; p < protected_.size(); ++p) {
            const bool dirty = hwDirty.count(p) > 0;
            fn(p, dirty);
        }
        hwDirty.clear();
    }

    void
    persistRunAsync(PageNum first, unsigned count) override
    {
        for (unsigned i = 0; i < count; ++i)
            pending.push_back(first + i);
        persistCount += count;
    }

    void
    persistPageBlocking(PageNum p) override
    {
        (void)p;
        ++persistCount;
        ++blockingCount;
    }

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

    /** Complete every pending IO. */
    void
    completeAll()
    {
        while (!pending.empty())
            waitForAnyPersist();
    }

    bool isProtected(PageNum p) const { return protected_[p] != 0; }

    std::vector<std::uint8_t> protected_;
    std::set<PageNum> hwDirty;
    std::deque<PageNum> pending;
    unsigned persistCount = 0;
    unsigned blockingCount = 0;

  private:
    void
    complete(PageNum p)
    {
        ASSERT_NE(client_, nullptr);
        client_->onPersistComplete(p);
    }
};

ViyojitConfig
smallConfig(std::uint64_t budget)
{
    ViyojitConfig cfg;
    cfg.dirtyBudgetPages = budget;
    cfg.maxOutstandingIos = 4;
    return cfg;
}

TEST(ControllerTest, FaultAdmitsAndUnprotects)
{
    MockBackend backend(16);
    DirtyBudgetController ctl(backend, smallConfig(4));
    ctl.onWriteFault(3);
    EXPECT_FALSE(backend.isProtected(3));
    EXPECT_TRUE(ctl.tracker().isDirty(3));
    EXPECT_EQ(ctl.stats().writeFaults, 1u);
}

TEST(ControllerTest, BudgetNeverExceeded)
{
    MockBackend backend(16);
    DirtyBudgetController ctl(backend, smallConfig(4));
    for (PageNum p = 0; p < 10; ++p) {
        ctl.onWriteFault(p);
        EXPECT_LE(ctl.tracker().count(), 4u);
    }
    EXPECT_GT(ctl.stats().blockedEvictions, 0u);
}

TEST(ControllerTest, BlockedEvictionProtectsBeforeCopy)
{
    MockBackend backend(16);
    DirtyBudgetController ctl(backend, smallConfig(2));
    ctl.onWriteFault(0);
    ctl.onWriteFault(1);
    ctl.onWriteFault(2); // evicts one of 0/1
    // The evicted page is protected again (clean pages must trap).
    const bool zero_clean = !ctl.tracker().isDirty(0);
    const PageNum evicted = zero_clean ? 0 : 1;
    EXPECT_TRUE(backend.isProtected(evicted));
    EXPECT_EQ(backend.blockingCount, 1u);
}

TEST(ControllerTest, ZeroBudgetRejected)
{
    MockBackend backend(16);
    EXPECT_THROW(
        { DirtyBudgetController ctl(backend, smallConfig(0)); },
        FatalError);
}

TEST(ControllerTest, EvictionPrefersLeastRecentlyUpdated)
{
    MockBackend backend(16);
    DirtyBudgetController ctl(backend, smallConfig(3));
    ctl.onWriteFault(0);
    ctl.onWriteFault(1);
    ctl.onWriteFault(2);
    // Epoch passes; only pages 1 and 2 keep getting written.
    backend.hwDirty = {1, 2};
    ctl.onEpochBoundary();
    backend.completeAll(); // absorb proactive copies
    // Page 0 is the cold one; a new fault must evict 0 first if it is
    // still dirty.
    if (ctl.tracker().isDirty(0)) {
        ctl.onWriteFault(5);
        EXPECT_FALSE(ctl.tracker().isDirty(0));
    }
}

TEST(ControllerTest, EpochPumpsProactiveCopiesTowardThreshold)
{
    MockBackend backend(64);
    ViyojitConfig cfg = smallConfig(16);
    DirtyBudgetController ctl(backend, cfg);
    for (PageNum p = 0; p < 12; ++p)
        ctl.onWriteFault(p);
    // Burst of 12 new pages -> pressure 9 -> threshold 7.
    ctl.onEpochBoundary();
    EXPECT_GT(ctl.stats().proactiveCopies, 0u);
    backend.completeAll();
    EXPECT_LE(ctl.tracker().count(), ctl.currentThreshold() + 4);
}

TEST(ControllerTest, CompletionRefillsPipeline)
{
    MockBackend backend(64);
    ViyojitConfig cfg = smallConfig(8);
    cfg.maxOutstandingIos = 2;
    DirtyBudgetController ctl(backend, cfg);
    for (PageNum p = 0; p < 8; ++p)
        ctl.onWriteFault(p);
    ctl.onEpochBoundary();
    // Only 2 outstanding at a time, but completions refill.
    EXPECT_LE(backend.outstandingIos(), 2u);
    backend.completeAll();
    // All proactive work landed without exceeding the IO cap.
    EXPECT_EQ(backend.outstandingIos(), 0u);
}

TEST(ControllerTest, FaultOnInFlightPageWaits)
{
    MockBackend backend(16);
    ViyojitConfig cfg = smallConfig(4);
    DirtyBudgetController ctl(backend, cfg);
    for (PageNum p = 0; p < 4; ++p)
        ctl.onWriteFault(p);
    ctl.onEpochBoundary(); // starts proactive copies
    ASSERT_GT(backend.outstandingIos(), 0u);
    const PageNum in_flight = backend.pending.front();
    ctl.onWriteFault(in_flight);
    EXPECT_GT(ctl.stats().inFlightWaits, 0u);
    EXPECT_TRUE(ctl.tracker().isDirty(in_flight));
    EXPECT_FALSE(backend.isProtected(in_flight));
}

TEST(ControllerTest, RuntimeStyleRedirtyOfDirtyProtectedPage)
{
    // The runtime backend re-protects dirty pages each epoch; a fault
    // on a dirty page must not double-count it.
    MockBackend backend(16);
    DirtyBudgetController ctl(backend, smallConfig(4));
    ctl.onWriteFault(1);
    backend.protectPage(1); // epoch re-protection
    ctl.onWriteFault(1);
    EXPECT_EQ(ctl.tracker().count(), 1u);
    EXPECT_FALSE(backend.isProtected(1));
}

TEST(ControllerTest, ShrinkBudgetEvictsDown)
{
    MockBackend backend(16);
    DirtyBudgetController ctl(backend, smallConfig(8));
    for (PageNum p = 0; p < 8; ++p)
        ctl.onWriteFault(p);
    ctl.setDirtyBudget(3);
    EXPECT_LE(ctl.tracker().count(), 3u);
    EXPECT_EQ(ctl.dirtyBudget(), 3u);
}

TEST(ControllerTest, GrowBudgetAllowsMoreDirty)
{
    MockBackend backend(16);
    DirtyBudgetController ctl(backend, smallConfig(2));
    ctl.onWriteFault(0);
    ctl.onWriteFault(1);
    ctl.setDirtyBudget(4);
    ctl.onWriteFault(2);
    ctl.onWriteFault(3);
    EXPECT_EQ(ctl.tracker().count(), 4u);
    EXPECT_EQ(ctl.stats().blockedEvictions, 0u);
}

TEST(ControllerTest, FlushAllDirtyEmptiesTracker)
{
    // Run cap 1 writes page by page; cap 4 batches the ten adjacent
    // pages into runs that reach the backend's persistRunAsync.
    for (const unsigned run_cap : {1u, 4u}) {
        SCOPED_TRACE(run_cap);
        MockBackend backend(32);
        ViyojitConfig cfg = smallConfig(16);
        cfg.maxRunPages = run_cap;
        DirtyBudgetController ctl(backend, cfg);
        for (PageNum p = 0; p < 10; ++p)
            ctl.onWriteFault(p);
        const std::uint64_t flushed = ctl.flushAllDirty();
        EXPECT_EQ(flushed, 10u);
        EXPECT_EQ(ctl.tracker().count(), 0u);
        EXPECT_EQ(backend.persistCount, 10u);
        if (run_cap == 1) {
            EXPECT_EQ(ctl.stats().runSubmits, 0u);
        } else {
            EXPECT_GT(ctl.stats().runSubmits, 0u);
            EXPECT_EQ(ctl.stats().runPagesCoalesced, 10u);
        }
    }
}

TEST(ControllerTest, FlushPageBlockingSinglePage)
{
    MockBackend backend(16);
    DirtyBudgetController ctl(backend, smallConfig(8));
    ctl.onWriteFault(5);
    ctl.flushPageBlocking(5);
    EXPECT_FALSE(ctl.tracker().isDirty(5));
    EXPECT_TRUE(backend.isProtected(5));
    // Clean page: no-op.
    ctl.flushPageBlocking(5);
    EXPECT_EQ(backend.blockingCount, 1u);
}

/**
 * Property sweep: budget invariant holds across budgets, skews and
 * run caps.  The run cap is the third axis, one test body per value,
 * so the one-page points keep their (budget, theta) names; at cap 4
 * randomized admits and completions interleave with the staging
 * window.
 */
class BudgetSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>>
{
  protected:
    void sweep(unsigned run_cap);
};

TEST_P(BudgetSweep, DirtyCountNeverExceedsBudget)
{
    sweep(1);
}

TEST_P(BudgetSweep, DirtyCountNeverExceedsBudgetWithRuns)
{
    sweep(4);
}

void
BudgetSweep::sweep(unsigned run_cap)
{
    const auto [budget, theta] = GetParam();
    MockBackend backend(256);
    ViyojitConfig cfg = smallConfig(budget);
    cfg.maxRunPages = run_cap;
    DirtyBudgetController ctl(backend, cfg);
    Rng rng(7);
    ZipfianDistribution dist(256, theta);
    for (int i = 0; i < 3000; ++i) {
        const PageNum p = dist.next(rng);
        if (backend.isProtected(p))
            ctl.onWriteFault(p);
        else
            backend.hwDirty.insert(p);
        ASSERT_LE(ctl.tracker().count(), budget);
        if (i % 50 == 0) {
            ctl.onEpochBoundary();
            ASSERT_LE(ctl.tracker().count(), budget);
        }
        if (i % 170 == 0)
            backend.completeAll();
    }
    backend.completeAll();
    EXPECT_LE(ctl.tracker().count(), budget);
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, BudgetSweep,
    ::testing::Combine(::testing::Values(1, 2, 8, 32, 128),
                       ::testing::Values(0.5, 0.99)));

// ---------------------------------------------------------------------
// ViyojitManager over the simulated substrate
// ---------------------------------------------------------------------

struct ManagerFixture : public ::testing::Test
{
    static constexpr std::uint64_t capacityPages = 64;

    ManagerFixture()
        : ssd(ctx, storage::SsdConfig{})
    {}

    std::unique_ptr<ViyojitManager>
    makeManager(std::uint64_t budget, bool enforce = true)
    {
        ViyojitConfig cfg;
        cfg.dirtyBudgetPages = budget;
        cfg.enforceBudget = enforce;
        cfg.epochLength = 100_us;
        return std::make_unique<ViyojitManager>(
            ctx, ssd, cfg, mmu::MmuCostModel{}, capacityPages);
    }

    sim::SimContext ctx;
    storage::Ssd ssd;
};

TEST_F(ManagerFixture, VmmapReturnsPageAlignedRegions)
{
    auto mgr = makeManager(8);
    const Addr a = mgr->vmmap(10000);
    const Addr b = mgr->vmmap(1);
    EXPECT_EQ(a % defaultPageSize, 0u);
    EXPECT_EQ(b, a + 3 * defaultPageSize);
}

TEST_F(ManagerFixture, CapacityExhaustionIsFatal)
{
    auto mgr = makeManager(8);
    EXPECT_THROW(mgr->vmmap(65 * defaultPageSize), FatalError);
}

TEST_F(ManagerFixture, WritesTrackedAndBudgetEnforced)
{
    auto mgr = makeManager(4);
    const Addr base = mgr->vmmap(16 * defaultPageSize);
    for (int p = 0; p < 12; ++p) {
        mgr->write(base + p * defaultPageSize, 8);
        EXPECT_LE(mgr->dirtyPageCount(), 4u);
    }
}

TEST_F(ManagerFixture, MemWriteStoresBytes)
{
    auto mgr = makeManager(8);
    const Addr base = mgr->vmmap(defaultPageSize);
    const char msg[] = "hello nvm";
    mgr->memWrite(base, msg, sizeof(msg));
    char out[sizeof(msg)] = {};
    mgr->memRead(base, out, sizeof(msg));
    EXPECT_STREQ(out, "hello nvm");
}

TEST_F(ManagerFixture, PowerFailureFlushMakesEverythingDurable)
{
    auto mgr = makeManager(4);
    const Addr base = mgr->vmmap(16 * defaultPageSize);
    mgr->start();
    for (int p = 0; p < 16; ++p)
        mgr->write(base + p * defaultPageSize, 64);
    EXPECT_FALSE(mgr->verifyDurability());
    const FlushReport report = mgr->powerFailureFlush();
    EXPECT_LE(report.dirtyPagesAtFailure, 4u);
    EXPECT_TRUE(mgr->verifyDurability());
}

TEST_F(ManagerFixture, BridgedRunsWriteThroughCleanGaps)
{
    ViyojitConfig cfg;
    cfg.dirtyBudgetPages = 8;
    cfg.epochLength = 100_us;
    cfg.maxRunPages = 16;
    cfg.maxBridgePages = 4;
    auto mgr = std::make_unique<ViyojitManager>(
        ctx, ssd, cfg, mmu::MmuCostModel{}, capacityPages);
    const Addr base = mgr->vmmap(32 * defaultPageSize);
    mgr->start();
    // Dirty every other page up to the budget: the burst drives
    // pressure past the proactive threshold, so epoch boundaries
    // stage victims into the run window on wall power.  The gaps are
    // clean pages whose DRAM content equals the durable copy, so the
    // drain may write through them to merge stretches into one
    // device IO.
    for (PageNum p : {0, 2, 4, 6, 8, 10, 12, 14})
        mgr->write(base + p * defaultPageSize, 8);
    for (int i = 0; i < 20; ++i) {
        ctx.clock().advance(50_us);
        mgr->processEvents();
    }
    const auto &st = mgr->controller().stats();
    EXPECT_GT(st.runSubmits, 0u);
    EXPECT_GT(st.runPagesBridged, 0u);
    EXPECT_GT(st.runPagesCoalesced, st.runPagesBridged);
    // The proactive pump drains only to the threshold; the emergency
    // flush settles the rest — without adding a single bridged page.
    const std::uint64_t bridged = st.runPagesBridged;
    mgr->powerFailureFlush();
    EXPECT_EQ(mgr->controller().stats().runPagesBridged, bridged);
    EXPECT_TRUE(mgr->verifyDurability());
}

TEST_F(ManagerFixture, EmergencyFlushNeverBridges)
{
    ViyojitConfig cfg;
    cfg.dirtyBudgetPages = 8;
    cfg.epochLength = 100_us;
    cfg.maxRunPages = 16;
    cfg.maxBridgePages = 4;
    auto mgr = std::make_unique<ViyojitManager>(
        ctx, ssd, cfg, mmu::MmuCostModel{}, capacityPages);
    const Addr base = mgr->vmmap(16 * defaultPageSize);
    mgr->start();
    // Same alternating-dirty shape bridging loves — but on battery
    // power every transferred byte drains the flush window the
    // battery was sized for, so the emergency drain must write the
    // four dirty pages alone and leave the clean gaps alone.
    for (PageNum p : {0, 2, 4, 6})
        mgr->write(base + p * defaultPageSize, 8);
    const FlushReport report = mgr->powerFailureFlush();
    EXPECT_EQ(report.dirtyPagesAtFailure, 4u);
    const auto &st = mgr->controller().stats();
    EXPECT_EQ(st.runPagesBridged, 0u);
    EXPECT_EQ(st.runSubmits, 0u);
    EXPECT_EQ(st.runPagesCoalesced, 0u);
    EXPECT_TRUE(mgr->verifyDurability());
}

TEST_F(ManagerFixture, BridgingRespectsGapBound)
{
    ViyojitConfig cfg;
    cfg.dirtyBudgetPages = 8;
    cfg.epochLength = 100_us;
    cfg.maxRunPages = 16;
    cfg.maxBridgePages = 1;
    auto mgr = std::make_unique<ViyojitManager>(
        ctx, ssd, cfg, mmu::MmuCostModel{}, capacityPages);
    const Addr base = mgr->vmmap(16 * defaultPageSize);
    mgr->start();
    // Pages 0,1 then a 3-page gap then 5,6: the gap exceeds the
    // 1-page bridge bound, so the stretches must flush separately.
    for (PageNum p : {0, 1, 5, 6})
        mgr->write(base + p * defaultPageSize, 8);
    mgr->powerFailureFlush();
    const auto &st = mgr->controller().stats();
    EXPECT_EQ(st.runSubmits, 2u);
    EXPECT_EQ(st.runPagesBridged, 0u);
    EXPECT_EQ(st.runPagesCoalesced, 4u);
    EXPECT_TRUE(mgr->verifyDurability());
}

TEST_F(ManagerFixture, BaselineModeHasNoFaults)
{
    auto mgr = makeManager(1, /*enforce=*/false);
    const Addr base = mgr->vmmap(16 * defaultPageSize);
    for (int p = 0; p < 16; ++p)
        mgr->write(base + p * defaultPageSize, 8);
    EXPECT_EQ(mgr->mmu().writeFaults(), 0u);
    EXPECT_EQ(mgr->dirtyPageCount(), 16u);
}

TEST_F(ManagerFixture, BaselineFlushPersistsEverything)
{
    auto mgr = makeManager(1, /*enforce=*/false);
    const Addr base = mgr->vmmap(8 * defaultPageSize);
    for (int p = 0; p < 8; ++p)
        mgr->write(base + p * defaultPageSize, 8);
    const FlushReport report = mgr->powerFailureFlush();
    EXPECT_EQ(report.dirtyPagesAtFailure, 8u);
    EXPECT_TRUE(mgr->verifyDurability());
}

TEST_F(ManagerFixture, EpochsRunWhileProcessingEvents)
{
    auto mgr = makeManager(8);
    mgr->vmmap(8 * defaultPageSize);
    mgr->start();
    // Advance in op-sized steps, as a driver does; epochs fire on
    // their 100 us boundaries.  (A single 1 ms jump coalesces missed
    // timers into one, like a real periodic timer.)
    for (int i = 0; i < 20; ++i) {
        ctx.clock().advance(50_us);
        mgr->processEvents();
    }
    EXPECT_GE(mgr->controller().stats().epochs, 9u);
    mgr->stop();
}

TEST_F(ManagerFixture, VmunmapFlushesRegion)
{
    auto mgr = makeManager(8);
    const Addr base = mgr->vmmap(4 * defaultPageSize);
    mgr->write(base, 4 * defaultPageSize);
    mgr->vmunmap(base, 4 * defaultPageSize);
    EXPECT_TRUE(mgr->verifyDurability());
    EXPECT_EQ(mgr->dirtyPageCount(), 0u);
}

TEST_F(ManagerFixture, SetDirtyBudgetRetunes)
{
    auto mgr = makeManager(8);
    const Addr base = mgr->vmmap(16 * defaultPageSize);
    for (int p = 0; p < 8; ++p)
        mgr->write(base + p * defaultPageSize, 8);
    mgr->setDirtyBudget(2);
    EXPECT_LE(mgr->dirtyPageCount(), 2u);
}

TEST_F(ManagerFixture, ViyojitWritesCostMoreThanBaseline)
{
    // The trap overhead must be visible in virtual time.
    auto viyojit = makeManager(8);
    const Addr base = viyojit->vmmap(8 * defaultPageSize);
    const Tick t0 = ctx.now();
    for (int p = 0; p < 8; ++p)
        viyojit->write(base + p * defaultPageSize, 8);
    const Tick viyojit_cost = ctx.now() - t0;

    sim::SimContext ctx2;
    storage::Ssd ssd2(ctx2, storage::SsdConfig{});
    ViyojitConfig cfg;
    cfg.enforceBudget = false;
    ViyojitManager baseline(ctx2, ssd2, cfg, mmu::MmuCostModel{},
                            capacityPages);
    const Addr base2 = baseline.vmmap(8 * defaultPageSize);
    const Tick t1 = ctx2.now();
    for (int p = 0; p < 8; ++p)
        baseline.write(base2 + p * defaultPageSize, 8);
    const Tick baseline_cost = ctx2.now() - t1;

    EXPECT_GT(viyojit_cost, baseline_cost);
}

// ---------------------------------------------------------------------
// PowerFailureInjector
// ---------------------------------------------------------------------

TEST_F(ManagerFixture, InjectorReportsSurvivalWithAmpleBattery)
{
    auto mgr = makeManager(4);
    const Addr base = mgr->vmmap(16 * defaultPageSize);
    for (int p = 0; p < 16; ++p)
        mgr->write(base + p * defaultPageSize, 32);

    battery::BatteryConfig bat_cfg;
    bat_cfg.nominalJoules = 1.0e6;
    battery::Battery battery(bat_cfg);
    PowerFailureInjector injector(*mgr, battery,
                                  battery::PowerModel{});
    const FailureReport report = injector.inject();
    EXPECT_TRUE(report.survived);
    EXPECT_TRUE(report.contentVerified);
    EXPECT_LE(report.dirtyPages, 4u);
}

TEST_F(ManagerFixture, InjectorDetectsUndersizedBattery)
{
    auto mgr = makeManager(32);
    const Addr base = mgr->vmmap(40 * defaultPageSize);
    for (int p = 0; p < 32; ++p)
        mgr->write(base + p * defaultPageSize, 32);

    battery::BatteryConfig bat_cfg;
    bat_cfg.nominalJoules = 0.001; // absurdly small
    battery::Battery battery(bat_cfg);
    PowerFailureInjector injector(*mgr, battery,
                                  battery::PowerModel{});
    const FailureReport report = injector.inject();
    EXPECT_FALSE(report.survived);
    // The data still lands (the sim flushes), but the energy books
    // say a real system would have died: the whole point of sizing
    // the budget from the battery.
    EXPECT_GT(report.joulesNeeded, report.joulesAvailable);
}

/** Property: durability after failure at random points in a run. */
class FailurePointSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(FailurePointSweep, AlwaysDurable)
{
    sim::SimContext ctx;
    storage::Ssd ssd(ctx, storage::SsdConfig{});
    ViyojitConfig cfg;
    cfg.dirtyBudgetPages = 6;
    cfg.epochLength = 50_us;
    ViyojitManager mgr(ctx, ssd, cfg, mmu::MmuCostModel{}, 64);
    const Addr base = mgr.vmmap(48 * defaultPageSize);
    mgr.start();

    Rng rng(GetParam());
    const int ops_before_failure = 20 + GetParam() * 37;
    for (int i = 0; i < ops_before_failure; ++i) {
        const PageNum p = rng.nextBounded(48);
        mgr.write(base + p * defaultPageSize,
                  8 + rng.nextBounded(100));
    }
    mgr.powerFailureFlush();
    EXPECT_TRUE(mgr.verifyDurability());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailurePointSweep,
                         ::testing::Range(0, 12));

} // namespace
} // namespace viyojit::core
