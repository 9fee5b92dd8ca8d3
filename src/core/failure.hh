/**
 * @file
 * Power-failure injection and durability verification.
 *
 * Durability is Viyojit's hard guarantee (section 4.1): at any
 * instant, the energy needed to flush the current dirty set must not
 * exceed what the battery can deliver.  The injector cuts wall power
 * at an arbitrary virtual time, runs the emergency flush, checks the
 * energy books, and verifies that the SSD image now matches every
 * written page.  One battery may back several managers (shards
 * sharing a core::BudgetPool); the injector then cuts them all at
 * once and books their summed flush against the one battery.
 */

#ifndef VIYOJIT_CORE_FAILURE_HH
#define VIYOJIT_CORE_FAILURE_HH

#include <vector>

#include "battery/battery.hh"
#include "core/manager.hh"

namespace viyojit::core
{

/** Outcome of one injected power failure. */
struct FailureReport
{
    /** Pages dirty at the instant power was lost. */
    std::uint64_t dirtyPages = 0;

    /** Bytes flushed on battery. */
    std::uint64_t bytesFlushed = 0;

    /** Modelled wall-clock duration of the flush. */
    Tick flushDuration = 0;

    /** Joules the flush required (power model x duration). */
    double joulesNeeded = 0.0;

    /** Joules the battery could deliver. */
    double joulesAvailable = 0.0;

    /** True when the battery covered the flush. */
    bool survived = false;

    /** True when every written page verified against the SSD. */
    bool contentVerified = false;
};

/** Injects power failures into the simulated managers of one battery. */
class PowerFailureInjector
{
  public:
    PowerFailureInjector(ViyojitManager &manager,
                         battery::Battery &battery,
                         battery::PowerModel power);

    /** Cut every manager in `managers` (all on one SSD). */
    PowerFailureInjector(std::vector<ViyojitManager *> managers,
                         battery::Battery &battery,
                         battery::PowerModel power);

    /**
     * Cut wall power now: stop every manager's epoch machinery, flush
     * them back to back on battery, account the summed energy, verify
     * content.  Call ViyojitManager::start() on each manager to model
     * a recovery/reboot.
     */
    FailureReport inject();

    /**
     * Energy headroom check without failing: joules needed for the
     * current summed dirty set vs. joules available.  Must never be
     * negative for a correctly budgeted system.
     */
    double currentHeadroomJoules() const;

    /** Dirty pages summed over the managers. */
    std::uint64_t dirtyPages() const;

  private:
    std::vector<ViyojitManager *> managers_;
    battery::Battery &battery_;
    battery::PowerModel power_;
};

} // namespace viyojit::core

#endif // VIYOJIT_CORE_FAILURE_HH
