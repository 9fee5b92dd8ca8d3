#include "core/torture.hh"

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "battery/fault_injector.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/failure.hh"
#include "core/manager.hh"
#include "core/safe_mode.hh"
#include "mmu/mmu.hh"
#include "sim/context.hh"
#include "storage/ssd.hh"

namespace viyojit::core
{

namespace
{

/**
 * Size the battery so the healthy-hardware derived budget sits ~30%
 * above the nominal dirty budget: big enough that the governor idles
 * while everything is healthy, small enough that injected battery or
 * SSD degradation genuinely forces safe-mode shrinks.
 */
battery::BatteryConfig
sizeBattery(const TortureConfig &torture, const storage::Ssd &ssd,
            const SafeModeConfig &safe, const battery::PowerModel &power,
            std::uint64_t page_size, bool corruption)
{
    // Silent faults retry through the read-back verify exactly like
    // status-visible errors, so the fault model's expected attempt
    // count amplifies the flush payload for both.
    const double flush_rate = ssd.config().writeBandwidth *
                              safe.bandwidthSafetyFactor /
                              ssd.faultModel()->expectedWriteAttempts();
    const double payload_seconds =
        static_cast<double>(torture.dirtyBudgetPages * page_size) /
        flush_rate;
    // The attempt amplification above covers the MEAN retry payload
    // as amortized bandwidth.  Verify-retries do not amortize: the
    // failed page is split out of its coalesced run and re-serviced
    // alone — serialized behind a retry backoff, paying the per-IO
    // latency its run had amortized away.  Corruption-mode runs
    // therefore carry extra headroom for that serialized retry tail;
    // this is the battery cost of end-to-end verification, paid in
    // provisioning rather than in silently accepted wrong data.
    const double headroom = corruption ? 1.45 : 1.3;
    const double window_seconds =
        ticksToSeconds(safe.flushOverheadReserve) +
        payload_seconds * headroom;

    battery::BatteryConfig config;
    config.nominalJoules = window_seconds * power.flushWatts() /
                           (config.chemistryDerate *
                            config.depthOfDischarge);
    return config;
}

/**
 * Fill `len` bytes of workload payload.  Compressed-flush mode
 * writes record-style data — short random keys padded with a
 * constant filler, the shape the paper's copy-out compression is
 * meant to exploit (~4x) — so the codec path actually engages;
 * otherwise pure random bytes, which the codec bypasses.
 */
void
fillPayload(Rng &rng, std::vector<char> &payload, std::uint64_t len,
            bool compressible)
{
    if (!compressible) {
        for (std::uint64_t i = 0; i < len; ++i)
            payload[i] = static_cast<char>(rng.next());
        return;
    }
    for (std::uint64_t i = 0; i < len; ++i)
        payload[i] = i % 100 < 20
                         ? static_cast<char>(rng.next())
                         : static_cast<char>(0x20);
}

/** The IO fault counters the harness reports, summed over shards. */
IoFaultStats
summedIoFaultStats(const std::vector<ViyojitManager *> &managers)
{
    IoFaultStats sum;
    for (const ViyojitManager *manager : managers) {
        const IoFaultStats &io = manager->ioFaultStats();
        sum.retries += io.retries;
        sum.abortedCopies += io.abortedCopies;
        sum.runSubmits += io.runSubmits;
        sum.runPagesCoalesced += io.runPagesCoalesced;
        sum.runSplits += io.runSplits;
        sum.verifyFailures += io.verifyFailures;
    }
    return sum;
}

} // namespace

TortureResult
runTorture(const TortureConfig &torture)
{
    const std::uint64_t shard_count = torture.shards;
    if (shard_count == 0)
        fatal("torture needs at least one shard");
    if (torture.dirtyBudgetPages < 2 * shard_count)
        fatal("torture needs at least two budget pages per shard");

    Rng rng(torture.seed);
    TortureResult result;
    result.shards = shard_count;
    result.minHeadroomJoules = std::numeric_limits<double>::max();

    sim::SimContext ctx;

    // A deliberately slow SSD: page transfers dominate the battery
    // window, so degradation moves the derived budget gradually
    // instead of snapping straight to write-through.
    storage::SsdConfig ssd_config;
    ssd_config.writeBandwidth = 50.0e6;
    ssd_config.readBandwidth = 100.0e6;
    ssd_config.perIoLatency = 80_us;
    ssd_config.enableCompression = torture.compressFlush;
    storage::Ssd ssd(ctx, ssd_config);

    storage::FaultModelConfig fault_config;
    fault_config.seed = rng.next();
    fault_config.writeErrorProb = torture.writeErrorProb;
    fault_config.readErrorProb = torture.readErrorProb;
    fault_config.tailLatencyProb = torture.tailLatencyProb;
    fault_config.silentBitFlipProb = torture.silentBitFlipProb;
    fault_config.droppedWriteProb = torture.droppedWriteProb;
    fault_config.misdirectedWriteProb = torture.misdirectedWriteProb;
    ssd.setFaultModel(
        std::make_unique<storage::FaultModel>(fault_config));
    const bool corruption = torture.silentBitFlipProb > 0.0 ||
                            torture.droppedWriteProb > 0.0 ||
                            torture.misdirectedWriteProb > 0.0;

    // One shard owns the whole budget.  Several shards split it the
    // way the runtime does: each starts with a small quota, and
    // roughly half the budget waits in one BudgetPool as migration
    // headroom for bursting shards.
    const std::uint64_t budget = torture.dirtyBudgetPages;
    std::uint64_t quota = budget;
    std::unique_ptr<BudgetPool> pool;
    if (shard_count > 1) {
        quota = std::clamp<std::uint64_t>(budget / (2 * shard_count), 2,
                                          budget / shard_count);
        pool = std::make_unique<BudgetPool>(budget,
                                            budget - quota * shard_count);
    }

    ViyojitConfig config;
    config.dirtyBudgetPages = quota;
    config.maxIoRetries = 6;
    config.retryBackoffBase = 10_us;
    config.retryBackoffCap = 200_us;
    // Generous deadline: tight enough to exist, loose enough that a
    // saturated device queue does not cascade into timeout storms.
    config.ioTimeout = 10_ms;
    config.retrySeed = rng.next();
    config.maxRunPages = torture.maxRunPages;
    config.extentShift = torture.extentShift;
    config.maxBridgePages = torture.maxBridgePages;

    // Every shard keeps its own two-page straddling guard.
    SafeModeConfig safe_config;
    safe_config.flushOverheadReserve = 2_ms;
    safe_config.minBudgetPages = 2 * shard_count;
    safe_config.writeThroughFloorPages =
        std::max<std::uint64_t>(4, 2 * shard_count);

    const battery::PowerModel power;
    battery::Battery battery(sizeBattery(torture, ssd, safe_config,
                                         power, config.pageSize,
                                         corruption));

    const std::uint64_t shard_pages = torture.regionPages / shard_count;
    const std::uint64_t shard_bytes = shard_pages * config.pageSize;
    std::deque<ViyojitManager> owned;
    std::vector<ViyojitManager *> managers;
    std::vector<Addr> bases;
    for (std::uint64_t i = 0; i < shard_count; ++i) {
        ViyojitManager &manager = owned.emplace_back(
            ctx, ssd, config, mmu::MmuCostModel{}, shard_pages,
            static_cast<std::uint32_t>(i));
        if (pool)
            manager.controller().attachBudgetPool(
                pool.get(), std::max<std::uint64_t>(1, quota / 4));
        bases.push_back(manager.vmmap(shard_bytes));
        manager.start();
        managers.push_back(&manager);
    }

    // The battery backs the SUM of the shards' dirty sets, so the
    // governor retunes the pool total rather than any one shard.
    std::unique_ptr<BudgetDomain> domain;
    if (pool)
        domain = std::make_unique<ShardedBudgetDomain>(*pool, managers);
    else
        domain = std::make_unique<ManagerBudgetDomain>(*managers.front());
    SafeModeGovernor governor(*domain, battery, power, safe_config);

    battery::BatteryFaultConfig battery_faults;
    battery_faults.seed = rng.next();
    battery_faults.checkInterval = 1_ms;
    battery_faults.cellFailureProb = 0.15;
    battery_faults.cellFailureStep = 0.05;
    battery_faults.maxFailedFraction = 0.4;
    battery_faults.fadeProb = 0.02;
    battery_faults.fadeStepYears = 0.25;
    battery_faults.recoveryProb = 0.2;
    battery::BatteryFaultInjector battery_injector(ctx, battery,
                                                   battery_faults);
    battery_injector.start();

    PowerFailureInjector cutter(managers, battery, power);

    std::vector<char> payload(config.pageSize);

    auto fail = [&](std::uint64_t cut, const auto &...parts) {
        result.passed = false;
        result.failingCut = cut;
        result.failureDetail = detail::composeMessage(parts...);
    };

    // Debug invariant: a settled (clean, idle) written page must match
    // the durable image — anything else would survive a cut wrong.
    // Pages the injector's corruption ledger owns are exempt: their
    // divergence is attributed, and the audit/scrub machinery is what
    // must catch them.
    auto paranoidCheck = [&](std::uint64_t cut, std::uint64_t op) {
        for (std::uint32_t s = 0; s < managers.size(); ++s) {
            const ViyojitManager &manager = *managers[s];
            for (PageNum p = 0; p < manager.mappedPages(); ++p) {
                const storage::StorageKey key{s, p};
                if (manager.pageVersion(p) == 0 ||
                    manager.controller().tracker().isDirty(p) ||
                    manager.controller().isInFlight(p) ||
                    ssd.corruptionKind(key) !=
                        storage::SilentFaultKind::none ||
                    ssd.durableHash(key) == manager.pageContentHash(p))
                    continue;
                fail(cut, "paranoid: settled page ", p, " of shard ", s,
                     " v", manager.pageVersion(p),
                     " does not match the image (cut ", cut, ", op ", op,
                     ")");
                return false;
            }
        }
        return true;
    };

    for (std::uint64_t cut = 1;
         result.passed && cut <= torture.cuts; ++cut) {
        // Random ops, interleaved with partial event-queue drains so
        // IO completions, epochs, and battery events mix with writes.
        const std::uint64_t ops =
            1 + rng.nextBounded(torture.maxOpsPerRound);
        for (std::uint64_t op = 0; op < ops; ++op) {
            // Ops scatter across shards so quota migrates: bursting
            // shards borrow what idle shards returned at their epoch
            // boundaries.  One shard draws nothing, since
            // nextBounded(1) would still consume a draw.
            const std::size_t si =
                shard_count > 1 ? rng.nextBounded(shard_count) : 0;
            ViyojitManager &manager = *managers[si];
            if (rng.nextBool(0.9)) {
                const std::uint64_t len =
                    1 + rng.nextBounded(config.pageSize);
                const Addr addr =
                    bases[si] + rng.nextBounded(shard_bytes - len);
                fillPayload(rng, payload, len, torture.compressFlush);
                manager.memWrite(addr, payload.data(), len);
            } else {
                const std::uint64_t len =
                    1 + rng.nextBounded(config.pageSize);
                manager.read(bases[si] +
                                 rng.nextBounded(shard_bytes - len),
                             len);
            }
            if (rng.nextBool(0.25))
                ctx.events().runSteps(rng.nextBounded(8));
            if (torture.paranoid && !paranoidCheck(cut, op))
                break;
        }
        if (!result.passed)
            break;

        // Runtime degradation: SSD wear redraws and battery pack
        // service, on top of the periodic battery fault events.
        if (rng.nextBool(torture.bandwidthDegradeProb)) {
            const double span = 1.0 - torture.bandwidthDegradeFloor;
            ssd.faultModel()->setBandwidthDegradation(
                torture.bandwidthDegradeFloor +
                span * rng.nextDouble());
            governor.reevaluate();
        }
        if (rng.nextBool(torture.packServiceProb)) {
            battery.setFailedCellFraction(0.0);
            battery.setAgeYears(0.0);
        }
        if (torture.scrubPagesPerRound > 0) {
            for (ViyojitManager *manager : managers) {
                const ScrubReport scrub =
                    manager->scrubPass(torture.scrubPagesPerRound);
                result.scrubScanned += scrub.scanned;
                result.scrubMismatches += scrub.mismatches;
                result.scrubRepairs += scrub.repaired;
                result.scrubRepairFailures += scrub.repairFailures;
            }
        }

        // Land the cut at an arbitrary point in the event stream —
        // possibly mid-transfer or inside a retry backoff.
        ctx.events().runSteps(rng.nextBounded(50));

        if (ssd.outstanding() > 0)
            ++result.cutsMidFlight;
        if (ssd.outstandingRuns() > 0)
            ++result.cutsMidRun;
        if (governor.mode() != SafeMode::normal)
            ++result.cutsInSafeMode;

        // The budget invariant: at the instant of the cut, the SUM of
        // the shards' dirty counts fits the budget the governor has
        // currently applied.
        const std::uint64_t dirty = cutter.dirtyPages();
        const std::uint64_t applied =
            pool ? pool->totalPages()
                 : managers.front()->controller().dirtyBudget();
        result.maxSummedDirtyPages =
            std::max(result.maxSummedDirtyPages, dirty);
        if (dirty > applied) {
            fail(cut, "summed dirty (", dirty,
                 " pages) exceeds the applied budget (", applied,
                 " pages) at cut ", cut);
            break;
        }

        const double headroom = cutter.currentHeadroomJoules();
        result.minHeadroomJoules =
            std::min(result.minHeadroomJoules, headroom);
        if (headroom < 0.0) {
            fail(cut, "negative pre-cut energy headroom (", headroom,
                 " J) at cut ", cut);
            break;
        }

        const IoFaultStats pre_flush = summedIoFaultStats(managers);
        const FailureReport report = cutter.inject();
        if (!report.survived) {
            const IoFaultStats post = summedIoFaultStats(managers);
            fail(cut, "flush exceeded the battery at cut ", cut,
                 ": needed ", report.joulesNeeded, " J, available ",
                 report.joulesAvailable, " J (", report.dirtyPages,
                 " dirty pages across ", shard_count,
                 " shard(s), flush took ",
                 ticksToSeconds(report.flushDuration) * 1e3, " ms)",
                 " [flush deltas: retries ",
                 post.retries - pre_flush.retries, ", verifyFail ",
                 post.verifyFailures - pre_flush.verifyFailures,
                 ", runSubmits ", post.runSubmits - pre_flush.runSubmits,
                 ", runPages ",
                 post.runPagesCoalesced - pre_flush.runPagesCoalesced,
                 ", splits ", post.runSplits - pre_flush.runSplits,
                 ", wear ", ssd.faultModel()->bandwidthFactor(), "]");
            break;
        }
        if (!corruption && !report.contentVerified) {
            std::ostringstream pages;
            for (std::uint32_t s = 0; s < managers.size(); ++s) {
                const ViyojitManager &manager = *managers[s];
                for (PageNum p = 0; p < manager.mappedPages(); ++p) {
                    if (manager.pageVersion(p) == 0 ||
                        ssd.durableHash(storage::StorageKey{s, p}) ==
                            manager.pageContentHash(p))
                        continue;
                    pages << "; shard " << s << " page " << p << " v"
                        << manager.pageVersion(p)
                        << (manager.controller().tracker().isDirty(p)
                                ? " dirty"
                                : " clean")
                        << (manager.controller().isInFlight(p)
                                ? " in-flight"
                                : "");
                }
            }
            fail(cut, "SSD image failed verification after cut ", cut,
                 " outstanding=", ssd.outstanding(),
                 " dirty=", cutter.dirtyPages(), pages.str());
            break;
        }

        // Checked audit after every cut: every settled-image
        // mismatch must be attributed (injector ledger, aborted
        // copy, or unsettled page).  One unattributed mismatch is
        // silent wrong-data acceptance, corruption mode or not.
        DurabilityAuditReport audit;
        for (const ViyojitManager *manager : managers) {
            const DurabilityAuditReport shard =
                manager->verifyDurabilityChecked();
            audit.mismatchedPages += shard.mismatchedPages;
            audit.unattributedPages += shard.unattributedPages;
            audit.tornPages += shard.tornPages;
            audit.silentCorruptPages += shard.silentCorruptPages;
        }
        result.auditMismatches += audit.mismatchedPages;
        result.auditUnattributed += audit.unattributedPages;
        if (audit.unattributedPages > 0) {
            fail(cut, audit.unattributedPages,
                 " unattributed settled-image mismatch(es) after cut ",
                 cut, ": silent wrong-data acceptance (mismatched=",
                 audit.mismatchedPages, " torn=", audit.tornPages,
                 " silent=", audit.silentCorruptPages, ")");
            break;
        }
        ++result.cutsRun;

        // Power restored: resume epochs and keep going.
        for (ViyojitManager *manager : managers)
            manager->start();
    }

    battery_injector.stop();
    governor.stopPeriodic();

    const IoFaultStats io = summedIoFaultStats(managers);
    result.totalRetries = io.retries;
    result.totalAborts = io.abortedCopies;
    result.runSubmits = io.runSubmits;
    result.runPagesCoalesced = io.runPagesCoalesced;
    result.runSplits = io.runSplits;
    result.verifyFailures = io.verifyFailures;
    for (const ViyojitManager *manager : managers) {
        const ControllerStats &cs = manager->controller().stats();
        result.quotaBorrowedPages += cs.quotaBorrowedPages;
        result.quotaReturnedPages += cs.quotaReturnedPages;
    }
    result.injectedWriteErrors =
        ssd.faultModel()->injectedWriteErrors();
    result.injectedSilentFaults =
        ssd.faultModel()->injectedSilentFaults();
    result.safeModeEntries = governor.stats().safeModeEntries;
    result.budgetShrinks = governor.stats().budgetShrinks;
    result.batteryCellFailures =
        battery_injector.stats().cellFailureEvents;
    result.batteryRecoveries =
        battery_injector.stats().recoveryEvents;
    result.budgetPoolPages = pool ? pool->totalPages() : 0;
    result.ssdBytesWritten = ssd.bytesWritten();
    result.ssdLogicalBytesWritten = ssd.logicalBytesWritten();
    return result;
}

} // namespace viyojit::core
