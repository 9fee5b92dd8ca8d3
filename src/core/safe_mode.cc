#include "core/safe_mode.hh"

#include <algorithm>

#include "common/logging.hh"

namespace viyojit::core
{

// ---------------------------------------------------------------------
// ShardedBudgetDomain
// ---------------------------------------------------------------------

ShardedBudgetDomain::ShardedBudgetDomain(
    BudgetPool &pool, std::vector<ViyojitManager *> shards)
    : pool_(pool), shards_(std::move(shards)),
      nominal_(pool.totalPages())
{
    if (shards_.empty())
        fatal("sharded budget domain needs at least one shard");
    for (ViyojitManager *shard : shards_) {
        if (shard->controller().budgetPool() != &pool_)
            fatal("every shard controller must draw from the "
                  "domain's budget pool");
    }
}

std::uint64_t
ShardedBudgetDomain::pageSize() const
{
    return shards_.front()->config().pageSize;
}

storage::Ssd &
ShardedBudgetDomain::ssd()
{
    return shards_.front()->ssd();
}

sim::SimContext &
ShardedBudgetDomain::ctx()
{
    return shards_.front()->ctx();
}

void
ShardedBudgetDomain::applyBudget(std::uint64_t pages)
{
    std::vector<DirtyBudgetController *> controllers;
    controllers.reserve(shards_.size());
    for (ViyojitManager *shard : shards_)
        controllers.push_back(&shard->controller());
    // Keep each shard's two-page straddling guard whenever the total
    // can honour it (the governor's minBudgetPages for a sharded
    // domain is 2 x shards, so in practice it always can).
    redistributeBudget(pool_, controllers, pages,
                       /*floor_per_shard=*/2);
    // A degraded (or restored) total changes the fair share the
    // hysteresis band and SLO headroom hang off: re-derive per shard
    // so safe-mode shards neither donate a faded budget away against
    // stale high watermarks nor refill in stale oversized batches.
    const std::uint64_t share = std::max<std::uint64_t>(
        1, pages / controllers.size());
    for (DirtyBudgetController *controller : controllers)
        controller->deriveQuotaWatermarks(share);
}

double
ShardedBudgetDomain::compressionFloorRatio() const
{
    double floor = shards_.front()
                       ->controller().tracker().floorRatio();
    for (const ViyojitManager *shard : shards_)
        floor = std::min(floor,
                         shard->controller().tracker().floorRatio());
    return floor;
}

// ---------------------------------------------------------------------
// SafeModeGovernor
// ---------------------------------------------------------------------

SafeModeGovernor::SafeModeGovernor(ViyojitManager &manager,
                                   battery::Battery &battery,
                                   battery::PowerModel power,
                                   const SafeModeConfig &config)
    : ownedDomain_(std::make_unique<ManagerBudgetDomain>(manager)),
      domain_(*ownedDomain_),
      battery_(battery),
      power_(power),
      config_(config),
      nominalPages_(domain_.nominalBudgetPages()),
      derivedPages_(nominalPages_),
      appliedPages_(nominalPages_)
{
    init();
}

SafeModeGovernor::SafeModeGovernor(BudgetDomain &domain,
                                   battery::Battery &battery,
                                   battery::PowerModel power,
                                   const SafeModeConfig &config)
    : domain_(domain),
      battery_(battery),
      power_(power),
      config_(config),
      nominalPages_(domain_.nominalBudgetPages()),
      derivedPages_(nominalPages_),
      appliedPages_(nominalPages_)
{
    init();
}

void
SafeModeGovernor::init()
{
    if (config_.minBudgetPages < 2)
        fatal("safe-mode budget floor below the two-page minimum");
    if (config_.writeThroughFloorPages < config_.minBudgetPages)
        fatal("write-through floor below the budget floor");
    if (config_.bandwidthSafetyFactor <= 0.0 ||
        config_.bandwidthSafetyFactor > 1.0)
        fatal("bandwidth safety factor must be in (0, 1]");
    battery_.addCapacityListener(
        [this](double /*effective_joules*/) { reevaluate(); });
    reevaluate();
}

void
SafeModeGovernor::setMeasuredFlushBandwidth(double bytes_per_sec)
{
    VIYOJIT_ASSERT(bytes_per_sec >= 0,
                   "negative measured flush bandwidth");
    measuredBandwidth_ = bytes_per_sec;
    reevaluate();
}

std::uint64_t
SafeModeGovernor::deriveBudgetPages() const
{
    const double watts = power_.flushWatts();
    const double seconds =
        battery_.effectiveJoules() / watts -
        ticksToSeconds(config_.flushOverheadReserve);
    if (seconds <= 0.0)
        return 0;

    double bandwidth = domain_.ssd().effectiveWriteBandwidth();
    if (measuredBandwidth_ > 0.0) {
        // A measured flush rate replaces the nameplate estimate, but
        // degradation that happens AFTER the measurement must still
        // derate it: rescale by the device's current health factor
        // (effective / nameplate bandwidth, 1.0 when undegraded).
        bandwidth = measuredBandwidth_ *
                    (domain_.ssd().effectiveWriteBandwidth() /
                     domain_.ssd().config().writeBandwidth);
    }
    bandwidth *= config_.bandwidthSafetyFactor;
    // Every injected error costs a full page transfer, so a flush
    // under an error rate p needs 1/(1-p) attempts per page on
    // average; derate the flush rate accordingly.
    if (const auto *fm = domain_.ssd().faultModel())
        bandwidth /= fm->expectedWriteAttempts();

    // Copy-out compression: the channel rate above is stored bytes;
    // each stored byte retires floor-ratio raw bytes.  The FLOOR of
    // the recent window, never the EWMA — the emergency flush must
    // survive its worst recent burst, not its average page.
    const double raw_rate =
        bandwidth * std::max(1.0, domain_.compressionFloorRatio());

    const double bytes = seconds * raw_rate;
    return static_cast<std::uint64_t>(
        bytes / static_cast<double>(domain_.pageSize()));
}

void
SafeModeGovernor::reevaluate()
{
    if (applying_) {
        // Called from inside our own apply() (battery event raised by
        // the eviction IO of a budget shrink): defer to the outer
        // call, which re-derives before returning.
        reevaluatePending_ = true;
        return;
    }

    derivedPages_ = deriveBudgetPages();

    // The nominal cap scales with the compression floor: the battery
    // was sized for nominalPages_ of RAW flush, and a sustained floor
    // ratio r means the same joules cover r times the raw pages — so
    // compression may raise the admitted dirty set above the
    // configured nominal, which is the whole point of compressing the
    // copy-out path.  The cap collapses back to nominalPages_ as soon
    // as incompressible pages drag the floor to 1.
    const auto cap = static_cast<std::uint64_t>(
        static_cast<double>(nominalPages_) *
        std::max(1.0, domain_.compressionFloorRatio()));
    std::uint64_t target = std::min(derivedPages_, cap);
    SafeMode mode = SafeMode::normal;
    if (derivedPages_ <= config_.writeThroughFloorPages) {
        // Too degraded to buffer: pin at the floor so every further
        // write effectively evicts synchronously (write-through).
        target = config_.minBudgetPages;
        mode = SafeMode::writeThrough;
    } else if (target < nominalPages_) {
        target = std::max(target, config_.minBudgetPages);
        mode = SafeMode::degraded;
    }

    apply(target, mode);
}

void
SafeModeGovernor::apply(std::uint64_t pages, SafeMode mode)
{
    if (mode != SafeMode::normal && mode_ == SafeMode::normal)
        ++stats_.safeModeEntries;
    if (mode == SafeMode::writeThrough &&
        mode_ != SafeMode::writeThrough) {
        ++stats_.writeThroughEntries;
        warn("safe mode: degradation past the write-through floor, "
             "budget pinned at ", pages, " pages");
    }
    mode_ = mode;

    if (pages == appliedPages_)
        return;
    if (pages < appliedPages_)
        ++stats_.budgetShrinks;
    else
        ++stats_.budgetGrows;
    appliedPages_ = pages;
    // Shrinking evicts synchronously down to the new budget, so the
    // dirty set fits the degraded battery window as soon as this
    // returns.
    applying_ = true;
    domain_.applyBudget(pages);
    applying_ = false;

    // Battery capacity moved under the apply (its evictions run
    // simulated time): re-derive until the budget settles.
    while (reevaluatePending_) {
        reevaluatePending_ = false;
        reevaluate();
    }
}

void
SafeModeGovernor::startPeriodic(Tick interval)
{
    if (interval == 0)
        fatal("periodic reevaluation needs a nonzero interval");
    periodicRunning_ = true;
    ++periodicGeneration_;
    scheduleNext(interval);
}

void
SafeModeGovernor::stopPeriodic()
{
    periodicRunning_ = false;
    ++periodicGeneration_;
}

void
SafeModeGovernor::scheduleNext(Tick interval)
{
    const std::uint64_t generation = periodicGeneration_;
    auto &ctx = domain_.ctx();
    ctx.events().schedule(
        ctx.now() + interval, [this, generation, interval]() {
            if (!periodicRunning_ || generation != periodicGeneration_)
                return;
            reevaluate();
            scheduleNext(interval);
        });
}

} // namespace viyojit::core
