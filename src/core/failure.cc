#include "core/failure.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace viyojit::core
{

PowerFailureInjector::PowerFailureInjector(ViyojitManager &manager,
                                           battery::Battery &battery,
                                           battery::PowerModel power)
    : PowerFailureInjector(std::vector<ViyojitManager *>{&manager},
                           battery, power)
{
}

PowerFailureInjector::PowerFailureInjector(
    std::vector<ViyojitManager *> managers, battery::Battery &battery,
    battery::PowerModel power)
    : managers_(std::move(managers)), battery_(battery), power_(power)
{
    if (managers_.empty())
        fatal("power-failure injector needs at least one manager");
}

FailureReport
PowerFailureInjector::inject()
{
    FailureReport report;
    report.joulesAvailable = battery_.effectiveJoules();

    // Power fails for the whole machine at once: every manager's epoch
    // machinery stops first, then the managers flush back to back on
    // the shared (serialized) SSD, so their durations add up.
    for (ViyojitManager *manager : managers_)
        manager->stop();
    for (ViyojitManager *manager : managers_) {
        const FlushReport flush = manager->powerFailureFlush();
        report.dirtyPages += flush.dirtyPagesAtFailure;
        report.bytesFlushed += flush.bytesFlushed;
        report.flushDuration += flush.flushDuration;
    }
    report.joulesNeeded =
        ticksToSeconds(report.flushDuration) * power_.flushWatts();
    report.survived = report.joulesNeeded <= report.joulesAvailable;
    report.contentVerified =
        std::ranges::all_of(managers_, &ViyojitManager::verifyDurability);
    return report;
}

std::uint64_t
PowerFailureInjector::dirtyPages() const
{
    std::uint64_t pages = 0;
    for (const ViyojitManager *manager : managers_)
        pages += manager->dirtyPageCount();
    return pages;
}

double
PowerFailureInjector::currentHeadroomJoules() const
{
    storage::Ssd &ssd = managers_.front()->ssd();
    // Use the wear-degraded bandwidth: headroom against the device we
    // actually have, not the one on the spec sheet.
    const double bandwidth = ssd.effectiveWriteBandwidth();
    // With compressed copy-out, the emergency flush moves stored
    // bytes, not raw bytes.  Credit the same conservative floor the
    // governor budgets with — the worst recently-observed per-page
    // ratio of the worst manager, never the EWMA — so this predictor
    // and the budget arithmetic agree on what "fits the window" means.
    double floor_ratio = 1.0;
    if (ssd.config().enableCompression) {
        double floor = std::numeric_limits<double>::max();
        for (const ViyojitManager *manager : managers_)
            floor = std::min(
                floor, manager->controller().tracker().floorRatio());
        if (floor > 1.0)
            floor_ratio = floor;
    }
    const std::uint64_t page_size = managers_.front()->config().pageSize;
    const double flush_seconds =
        static_cast<double>(dirtyPages() * page_size) / floor_ratio /
        bandwidth;
    const double needed = flush_seconds * power_.flushWatts();
    return battery_.effectiveJoules() - needed;
}

} // namespace viyojit::core
