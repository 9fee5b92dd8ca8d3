/**
 * @file
 * Torture-trajectory digest: every TortureResult field for a fixed
 * set of seeded power-cut torture runs.
 *
 * The torture harness is deterministic in its config, so this output
 * is a fingerprint of the simulator's fault, retry, abort, silent-
 * corruption, scrub, safe-mode and budget-pool paths.  A refactor
 * that must not change behaviour leaves it byte-identical
 * (tools/simdiff.py compares it like any other virtual-time bench).
 *
 * One line per run: configuration name, seed, then `field=value`
 * pairs with doubles printed as %.17g, and the failure detail last.
 * Exits nonzero when any run fails.
 */

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "core/torture.hh"

using namespace viyojit;
using namespace viyojit::core;

namespace
{

struct Case
{
    const char *name;
    TortureConfig config;
};

TortureConfig
batched(TortureConfig config)
{
    config.maxRunPages = 16;
    config.extentShift = 2;
    config.maxBridgePages = 4;
    return config;
}

TortureConfig
corrupting(TortureConfig config)
{
    config.silentBitFlipProb = 0.01;
    config.droppedWriteProb = 0.005;
    config.misdirectedWriteProb = 0.002;
    config.scrubPagesPerRound = 32;
    return config;
}

TortureConfig
withCuts(std::uint64_t cuts)
{
    TortureConfig config;
    config.cuts = cuts;
    return config;
}

std::vector<Case>
cases()
{
    std::vector<Case> out;
    out.push_back({"default", withCuts(100)});
    out.push_back({"batched", batched(withCuts(60))});

    TortureConfig compressed = withCuts(60);
    compressed.maxRunPages = 16;
    compressed.extentShift = 2;
    compressed.compressFlush = true;
    out.push_back({"compressed", compressed});

    TortureConfig paranoid = withCuts(20);
    paranoid.paranoid = true;
    out.push_back({"paranoid", paranoid});

    TortureConfig shards4 = withCuts(60);
    shards4.shards = 4;
    out.push_back({"shards4", shards4});

    TortureConfig shards2 = batched(withCuts(60));
    shards2.shards = 2;
    out.push_back({"shards2_batched", shards2});

    out.push_back({"corruption", corrupting(withCuts(60))});
    out.push_back(
        {"corruption_batched", batched(corrupting(withCuts(40)))});

    TortureConfig corrupt_compressed = corrupting(withCuts(40));
    corrupt_compressed.maxRunPages = 16;
    corrupt_compressed.compressFlush = true;
    out.push_back({"corruption_compressed", corrupt_compressed});

    TortureConfig corrupt_shards = corrupting(withCuts(60));
    corrupt_shards.shards = 4;
    out.push_back({"corruption_shards4", corrupt_shards});

    TortureConfig scrub = corrupting(withCuts(40));
    scrub.silentBitFlipProb = 0.03;
    scrub.droppedWriteProb = 0.02;
    scrub.scrubPagesPerRound = 128;
    out.push_back({"heavy_scrub", scrub});
    return out;
}

void
print(const char *name, std::uint64_t seed, const TortureResult &r)
{
    std::printf(
        "%s seed=%" PRIu64 " passed=%d cutsRun=%" PRIu64
        " failingCut=%" PRIu64 " cutsMidFlight=%" PRIu64
        " cutsInSafeMode=%" PRIu64 " totalRetries=%" PRIu64
        " totalAborts=%" PRIu64 " injectedWriteErrors=%" PRIu64
        " safeModeEntries=%" PRIu64 " budgetShrinks=%" PRIu64
        " batteryCellFailures=%" PRIu64 " batteryRecoveries=%" PRIu64
        " runSubmits=%" PRIu64 " runPagesCoalesced=%" PRIu64
        " runSplits=%" PRIu64 " cutsMidRun=%" PRIu64
        " minHeadroomJoules=%.17g shards=%" PRIu64
        " maxSummedDirtyPages=%" PRIu64 " budgetPoolPages=%" PRIu64
        " quotaBorrowedPages=%" PRIu64 " quotaReturnedPages=%" PRIu64
        " injectedSilentFaults=%" PRIu64 " verifyFailures=%" PRIu64
        " auditMismatches=%" PRIu64 " auditUnattributed=%" PRIu64
        " scrubScanned=%" PRIu64 " scrubMismatches=%" PRIu64
        " scrubRepairs=%" PRIu64 " scrubRepairFailures=%" PRIu64
        " ssdBytesWritten=%" PRIu64 " ssdLogicalBytesWritten=%" PRIu64
        " failureDetail=\"%s\"\n",
        name, seed, r.passed ? 1 : 0, r.cutsRun, r.failingCut,
        r.cutsMidFlight, r.cutsInSafeMode, r.totalRetries,
        r.totalAborts, r.injectedWriteErrors, r.safeModeEntries,
        r.budgetShrinks, r.batteryCellFailures, r.batteryRecoveries,
        r.runSubmits, r.runPagesCoalesced, r.runSplits, r.cutsMidRun,
        r.minHeadroomJoules, r.shards, r.maxSummedDirtyPages,
        r.budgetPoolPages, r.quotaBorrowedPages, r.quotaReturnedPages,
        r.injectedSilentFaults, r.verifyFailures, r.auditMismatches,
        r.auditUnattributed, r.scrubScanned, r.scrubMismatches,
        r.scrubRepairs, r.scrubRepairFailures, r.ssdBytesWritten,
        r.ssdLogicalBytesWritten, r.failureDetail.c_str());
}

} // namespace

int
main()
{
    int failures = 0;
    for (const Case &c : cases()) {
        for (std::uint64_t seed : {1ULL, 7ULL, 20170624ULL}) {
            TortureConfig config = c.config;
            config.seed = seed;
            const TortureResult result = runTorture(config);
            print(c.name, seed, result);
            failures += result.passed ? 0 : 1;
        }
    }
    std::fflush(stdout);
    return failures == 0 ? 0 : 1;
}
