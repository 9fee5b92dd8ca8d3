#include "battery/fault_injector.hh"

#include <algorithm>

#include "common/logging.hh"

namespace viyojit::battery
{

BatteryFaultInjector::BatteryFaultInjector(
    sim::SimContext &ctx, Battery &battery,
    const BatteryFaultConfig &config)
    : ctx_(ctx), battery_(battery), config_(config), rng_(config.seed)
{
    if (config_.checkInterval == 0)
        fatal("battery fault injector needs a nonzero check interval");
    auto probability = [](double p) { return p >= 0.0 && p <= 1.0; };
    if (!probability(config_.cellFailureProb) ||
        !probability(config_.fadeProb) ||
        !probability(config_.recoveryProb))
        fatal("battery fault probabilities must be in [0, 1]");
    if (config_.maxFailedFraction < 0.0 ||
        config_.maxFailedFraction >= 1.0)
        fatal("max failed-cell fraction must be in [0, 1)");
}

void
BatteryFaultInjector::start()
{
    running_ = true;
    ++generation_;
    scheduleNext();
}

void
BatteryFaultInjector::stop()
{
    running_ = false;
    ++generation_;
}

void
BatteryFaultInjector::scheduleNext()
{
    const std::uint64_t generation = generation_;
    ctx_.events().schedule(ctx_.now() + config_.checkInterval,
                           [this, generation]() {
                               if (!running_ ||
                                   generation != generation_)
                                   return;
                               tick();
                               scheduleNext();
                           });
}

void
BatteryFaultInjector::tick()
{
    // Fixed draw order keeps a seed's event stream stable across
    // config tweaks to unrelated probabilities.
    const bool failCells = rng_.nextBool(config_.cellFailureProb);
    const bool fade = rng_.nextBool(config_.fadeProb);
    const bool recover = rng_.nextBool(config_.recoveryProb);

    if (failCells &&
        battery_.failedCellFraction() < config_.maxFailedFraction) {
        const double fraction =
            std::min(config_.maxFailedFraction,
                     battery_.failedCellFraction() +
                         config_.cellFailureStep);
        ++stats_.cellFailureEvents;
        battery_.setFailedCellFraction(fraction);
    }
    if (fade) {
        ++stats_.fadeEvents;
        battery_.setAgeYears(battery_.ageYears() +
                             config_.fadeStepYears);
    }
    if (recover && battery_.failedCellFraction() > 0.0) {
        ++stats_.recoveryEvents;
        battery_.setFailedCellFraction(
            battery_.failedCellFraction() / 2.0);
    }
}

} // namespace viyojit::battery
