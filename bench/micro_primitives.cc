/**
 * @file
 * Google-benchmark microbenchmarks of the mechanism's hot paths:
 * dirty-tracker updates, recency maintenance, victim selection, the
 * page-table walk, TLB lookups, the full simulated fault path, and
 * the per-page CRC32C every persist and recovery check pays.
 * These bound the *host* cost of the bookkeeping the paper's shared
 * library does in its fault handler and epoch thread.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common/checksum.hh"
#include "common/distributions.hh"
#include "common/rng.hh"
#include "core/controller.hh"
#include "core/dirty_tracker.hh"
#include "core/manager.hh"
#include "core/recency.hh"
#include "mmu/mmu.hh"

using namespace viyojit;

namespace
{

void
BM_DirtyTrackerMarkCycle(benchmark::State &state)
{
    core::DirtyPageTracker tracker(1 << 16);
    Rng rng(1);
    for (auto _ : state) {
        const PageNum p = rng.nextBounded(1 << 16);
        tracker.markDirty(p);
        tracker.markClean(p);
    }
}
BENCHMARK(BM_DirtyTrackerMarkCycle);

void
BM_RecencyAdvanceEpoch(benchmark::State &state)
{
    const auto pages = static_cast<std::uint64_t>(state.range(0));
    const bool legacy = state.range(1) != 0;
    core::EpochRecencyTracker recency(pages, 64);
    recency.setLegacyQueue(legacy);
    for (auto _ : state)
        recency.advanceEpoch();
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(pages));
    state.SetLabel(legacy ? "legacy eager fold, O(pages)"
                          : "lazy fold, O(1)");
}
BENCHMARK(BM_RecencyAdvanceEpoch)
    ->ArgsProduct({{1 << 10, 1 << 15, 1 << 20}, {0, 1}});

void
BM_VictimQueueRebuild(benchmark::State &state)
{
    // Rebuild is the legacy path's per-epoch sort; the bucketed
    // queue maintains itself incrementally and rebuild is a no-op
    // there (see BM_VictimPickSteadyState for its cost).
    const auto pages = static_cast<std::uint64_t>(state.range(0));
    core::DirtyPageTracker tracker(pages);
    core::EpochRecencyTracker recency(pages, 64);
    recency.setLegacyQueue(true);
    Rng rng(2);
    for (PageNum p = 0; p < pages / 2; ++p)
        tracker.markDirty(rng.nextBounded(pages));
    for (auto _ : state)
        recency.rebuildVictimQueue(tracker);
}
BENCHMARK(BM_VictimQueueRebuild)->Range(1 << 10, 1 << 18);

void
BM_VictimPickSteadyState(benchmark::State &state)
{
    // The bucketed queue under the controller's steady-state rhythm:
    // pick a victim, clean it, readmit another page.
    const auto pages = static_cast<std::uint64_t>(state.range(0));
    core::DirtyPageTracker tracker(pages);
    core::EpochRecencyTracker recency(pages, 64);
    Rng rng(2);
    for (PageNum p = 0; p < pages; ++p) {
        const PageNum d = rng.nextBounded(pages);
        if (tracker.markDirty(d))
            recency.recordUpdate(d);
    }
    const auto never = [](PageNum) { return false; };
    for (auto _ : state) {
        const PageNum admitted = rng.nextBounded(pages);
        if (tracker.markDirty(admitted))
            recency.recordUpdate(admitted);
        const PageNum victim = recency.pickVictim(tracker, never);
        if (victim != invalidPage)
            tracker.markClean(victim);
    }
}
BENCHMARK(BM_VictimPickSteadyState)->Range(1 << 10, 1 << 18);

void
BM_PageTableWalk(benchmark::State &state)
{
    mmu::PageTable table;
    for (PageNum p = 0; p < 4096; ++p)
        table.map(p, mmu::Pte::writableBit);
    Rng rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.find(rng.nextBounded(4096)));
    }
}
BENCHMARK(BM_PageTableWalk);

void
BM_TlbLookup(benchmark::State &state)
{
    mmu::Tlb tlb(mmu::TlbConfig{});
    for (PageNum p = 0; p < 1024; ++p)
        tlb.insert(p, true, false);
    Rng rng(4);
    for (auto _ : state)
        benchmark::DoNotOptimize(tlb.lookup(rng.nextBounded(1024)));
}
BENCHMARK(BM_TlbLookup);

void
BM_SimulatedFaultPath(benchmark::State &state)
{
    sim::SimContext ctx;
    storage::Ssd ssd(ctx, storage::SsdConfig{});
    core::ViyojitConfig cfg;
    cfg.dirtyBudgetPages = 512;
    core::ViyojitManager manager(ctx, ssd, cfg, mmu::MmuCostModel{},
                                 1 << 14);
    const Addr base = manager.vmmap((1ULL << 14) * defaultPageSize);
    manager.start();
    Rng rng(5);
    ZipfianDistribution dist(1 << 14);
    for (auto _ : state) {
        manager.write(base + dist.next(rng) * defaultPageSize, 64);
        manager.processEvents();
    }
    state.SetLabel("includes trap+evict bookkeeping on host");
}
BENCHMARK(BM_SimulatedFaultPath);

void
BM_EpochScan(benchmark::State &state)
{
    const auto pages = static_cast<std::uint64_t>(state.range(0));
    const bool legacy = state.range(1) != 0;
    sim::SimContext ctx;
    mmu::Mmu mmu(ctx, mmu::MmuCostModel{});
    for (PageNum p = 0; p < pages; ++p)
        mmu.mapPage(p, true);
    Rng rng(6);
    const std::uint64_t dirty = std::max<std::uint64_t>(pages / 64, 1);
    for (auto _ : state) {
        state.PauseTiming();
        for (std::uint64_t i = 0; i < dirty; ++i)
            mmu.pageTable().noteDirty(rng.nextBounded(pages));
        state.ResumeTiming();
        mmu.scanAndClearDirty(0, pages, true, [](PageNum, bool) {},
                              legacy);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(pages));
    state.SetLabel(legacy ? "legacy full walk"
                          : "summary-pruned, ~1.6% dirty");
}
BENCHMARK(BM_EpochScan)
    ->ArgsProduct({{1 << 10, 1 << 14, 1 << 18}, {0, 1}});

void
BM_Crc32cPage(benchmark::State &state)
{
    // One page: 4 KiB is the unit every runtime persist, recovery
    // verify and scrub checksums, 2 KiB the simulator's page hash.
    const auto bytes = static_cast<std::size_t>(state.range(0));
    const bool portable = state.range(1) != 0;
    std::vector<unsigned char> page(bytes);
    Rng rng(7);
    for (unsigned char &b : page)
        b = static_cast<unsigned char>(rng.next());
    for (auto _ : state)
        benchmark::DoNotOptimize(
            portable ? common::crc32cPortable(page.data(), page.size())
                     : common::crc32c(page.data(), page.size()));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(page.size()));
    state.SetLabel(portable ? "crc32cPortable: slice-by-4 tables"
                            : "crc32c: three-lane crc32 if SSE4.2");
}
BENCHMARK(BM_Crc32cPage)->ArgsProduct({{2048, 4096}, {1, 0}});

} // namespace

BENCHMARK_MAIN();
