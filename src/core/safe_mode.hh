/**
 * @file
 * Safe-mode governor: keeps the section-4.1 durability invariant
 * true while the hardware degrades underneath it.
 *
 * The dirty budget is only safe relative to an assumed flush rate
 * (battery joules / system watts, SSD bandwidth).  When cells fail,
 * the pack fades, or the SSD wears — or fault injection models any
 * of these — the original budget oversubscribes the battery.  The
 * governor re-derives the budget from the *degraded* flush-time
 * estimate:
 *
 *   usable_seconds = effective_joules / flush_watts
 *                    - overhead_reserve            (latency tails,
 *                                                   one retry chain)
 *   flush_rate     = effective_ssd_bw * safety / expected_attempts
 *   raw_rate       = flush_rate * compression_floor (copy-out codec:
 *                                                   each stored byte
 *                                                   retires floor raw
 *                                                   bytes)
 *   budget_pages   = usable_seconds * raw_rate / page_size
 *
 * and applies it through a BudgetDomain (which synchronously evicts
 * down to the new budget).  Below a floor the governor gives up on
 * buffering entirely and pins the budget at the straddling-store
 * minimum — effectively write-through.
 *
 * A BudgetDomain is whatever owns one battery's worth of dirty
 * budget: a single ViyojitManager (the classic case), or a sharded
 * set of managers drawing quotas from one core::BudgetPool — the
 * battery backs the SUM of the shards' dirty sets, so the governor
 * must retune the total, not any one shard.
 *
 * Battery capacity changes drive the governor through the battery's
 * capacity-listener hook; SSD degradation is picked up on every
 * reevaluate() (call it after changing the fault model, or run the
 * periodic mode).
 */

#ifndef VIYOJIT_CORE_SAFE_MODE_HH
#define VIYOJIT_CORE_SAFE_MODE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "battery/battery.hh"
#include "common/thread_annotations.hh"
#include "core/budget_pool.hh"
#include "core/manager.hh"

namespace viyojit::core
{

/**
 * One battery's worth of governable dirty budget.  The governor
 * derives a safe total from battery/SSD health and applies it here;
 * the domain decides how the total maps onto controllers.
 */
class BudgetDomain
{
  public:
    virtual ~BudgetDomain() = default;

    /** The configured (healthy-hardware) total budget. */
    virtual std::uint64_t nominalBudgetPages() const = 0;

    /** Bytes per page (flush-time arithmetic). */
    virtual std::uint64_t pageSize() const = 0;

    /** The device the emergency flush writes to. */
    virtual storage::Ssd &ssd() = 0;

    /** Simulation context; the governor uses only its event queue
     *  (periodic re-evaluation). */
    virtual sim::SimContext &ctx() = 0;

    /**
     * Apply a new total budget, evicting synchronously wherever a
     * dirty set no longer fits.  On return the domain's summed dirty
     * count is within `pages`.
     */
    virtual void applyBudget(std::uint64_t pages) = 0;

    /**
     * Conservative floor of the copy-out compression ratio achieved
     * over the recent flush window (raw/stored, >= 1; see
     * DirtyPageTracker::floorRatio).  The governor budgets the
     * emergency flush with THIS — never the EWMA — so one burst of
     * incompressible pages cannot oversubscribe the battery.
     * Domains without compression measurements return 1.
     */
    virtual double compressionFloorRatio() const { return 1.0; }
};

/** BudgetDomain over a single manager (the unsharded case). */
class ManagerBudgetDomain : public BudgetDomain
{
  public:
    explicit ManagerBudgetDomain(ViyojitManager &manager)
        : manager_(manager),
          nominal_(manager.controller().dirtyBudget())
    {}

    std::uint64_t nominalBudgetPages() const override
    {
        return nominal_;
    }

    std::uint64_t pageSize() const override
    {
        return manager_.config().pageSize;
    }

    storage::Ssd &ssd() override { return manager_.ssd(); }
    sim::SimContext &ctx() override { return manager_.ctx(); }

    void applyBudget(std::uint64_t pages) override
    {
        manager_.setDirtyBudget(pages);
    }

    double compressionFloorRatio() const override
    {
        return manager_.controller().tracker().floorRatio();
    }

  private:
    ViyojitManager &manager_;
    std::uint64_t nominal_;
};

/**
 * BudgetDomain over a sharded manager set sharing one BudgetPool.
 * Every manager's controller must already be attached to `pool`;
 * applyBudget redistributes the new total across shard quotas and
 * the pool (core::redistributeBudget), keeping at least the two-page
 * straddling-store floor per shard whenever the total allows.
 */
class ShardedBudgetDomain : public BudgetDomain
{
  public:
    ShardedBudgetDomain(BudgetPool &pool,
                        std::vector<ViyojitManager *> shards);

    std::uint64_t nominalBudgetPages() const override
    {
        return nominal_;
    }

    std::uint64_t pageSize() const override;
    storage::Ssd &ssd() override;
    sim::SimContext &ctx() override;

    /**
     * Redistributes through core::redistributeBudget, which takes
     * the pool's retune mutex — so the caller must not hold it
     * (machine-checked: a governor callback fired while a retune is
     * in progress on the same thread would self-deadlock).
     */
    void applyBudget(std::uint64_t pages)
        EXCLUDES(pool_.retuneLock()) override;

    /** Most conservative floor across the shard set: the battery
     *  backs the sum, so the worst shard's burst bounds them all. */
    double compressionFloorRatio() const override;

  private:
    BudgetPool &pool_;
    std::vector<ViyojitManager *> shards_;
    std::uint64_t nominal_;
};

/** Operating mode of a governed domain. */
enum class SafeMode
{
    /** Full configured budget is covered by the battery. */
    normal,

    /** Budget shrunk to match degraded flush capability. */
    degraded,

    /**
     * Degradation too deep for buffering: budget pinned at the
     * two-page minimum, so every further write is effectively
     * written through.
     */
    writeThrough,
};

/** Governor tunables. */
struct SafeModeConfig
{
    /** Derived budgets at or below this enter write-through mode. */
    std::uint64_t writeThroughFloorPages = 8;

    /**
     * Hard minimum applied budget; 2 is the smallest budget at which
     * page-straddling stores make progress.  Sharded domains need
     * 2 x shards — every shard keeps its own straddling guard.
     */
    std::uint64_t minBudgetPages = 2;

    /**
     * Battery time reserved for flush overheads that the bandwidth
     * term does not model: per-IO latency tails, one full
     * retry-backoff chain, the epoch in progress at the cut.
     */
    Tick flushOverheadReserve = 5_ms;

    /** Derate on the (already degraded) SSD bandwidth. */
    double bandwidthSafetyFactor = 0.8;
};

/** Lifetime counters of the governor. */
struct SafeModeStats
{
    /** Transitions out of normal mode. */
    std::uint64_t safeModeEntries = 0;

    /** Budget reductions applied. */
    std::uint64_t budgetShrinks = 0;

    /** Budget increases applied (degradation receded). */
    std::uint64_t budgetGrows = 0;

    /** Transitions into write-through mode. */
    std::uint64_t writeThroughEntries = 0;
};

/**
 * Watches one domain's battery + SSD health and retunes its dirty
 * budget so a power cut is always survivable.  The governor must
 * outlive neither the domain nor the battery it is attached to
 * (it registers a capacity listener on the battery).
 *
 * Concurrency contract: externally synchronized — the governor runs
 * on the single simulation thread (battery events and periodic
 * reevaluations both arrive through the event queue), so no field
 * here is capability-guarded; the applying_/reevaluatePending_ latch
 * below handles same-thread re-entrancy, not cross-thread races.
 * The one multi-thread seam it touches is the domain's BudgetPool,
 * whose lock contracts (and applyBudget's EXCLUDES above) are
 * machine-checked.
 */
class SafeModeGovernor
{
  public:
    /** Govern a single manager (owns the adapter). */
    SafeModeGovernor(ViyojitManager &manager, battery::Battery &battery,
                     battery::PowerModel power,
                     const SafeModeConfig &config = {});

    /** Govern an arbitrary domain (caller keeps it alive). */
    SafeModeGovernor(BudgetDomain &domain, battery::Battery &battery,
                     battery::PowerModel power,
                     const SafeModeConfig &config = {});

    /**
     * Re-derive the budget from the current battery/SSD health and
     * apply it if changed.  Called automatically on battery capacity
     * events; call manually (or via startPeriodic) after SSD health
     * changes.
     */
    void reevaluate();

    /** Reevaluate every `interval` of virtual time. */
    void startPeriodic(Tick interval);

    /** Stop the periodic reevaluation. */
    void stopPeriodic();

    /**
     * Feed the governor a *measured* flush rate (bytes/sec) — what
     * the emergency-flush path actually sustained, e.g. with the
     * coalesced-IO writeback enabled — and re-derive the budget from
     * it.  Subsequent derivations scale the measurement by the SSD's
     * current degradation factor (effective / nameplate bandwidth),
     * so a device that wears AFTER the measurement still derates the
     * budget; the bandwidthSafetyFactor applies on top as usual.
     * Pass 0 to revert to the nameplate model.
     */
    void setMeasuredFlushBandwidth(double bytes_per_sec);

    /** The measured override, or 0 when the nameplate is in use. */
    double measuredFlushBandwidth() const
    {
        return measuredBandwidth_;
    }

    SafeMode mode() const { return mode_; }

    /** Budget the last reevaluation derived (before the nominal cap). */
    std::uint64_t derivedBudgetPages() const { return derivedPages_; }

    /** Budget currently applied to the domain. */
    std::uint64_t appliedBudgetPages() const { return appliedPages_; }

    const SafeModeStats &stats() const { return stats_; }

    const SafeModeConfig &config() const { return config_; }

  private:
    std::uint64_t deriveBudgetPages() const;
    void apply(std::uint64_t pages, SafeMode mode);
    void scheduleNext(Tick interval);
    void init();

    /** Set only by the manager convenience ctor. */
    std::unique_ptr<BudgetDomain> ownedDomain_;

    BudgetDomain &domain_;
    battery::Battery &battery_;
    battery::PowerModel power_;
    SafeModeConfig config_;

    /** The configured (healthy-hardware) budget: never exceeded. */
    std::uint64_t nominalPages_;

    std::uint64_t derivedPages_;
    std::uint64_t appliedPages_;

    /** Measured flush rate override; 0 = use the nameplate model. */
    double measuredBandwidth_ = 0.0;

    SafeMode mode_ = SafeMode::normal;
    SafeModeStats stats_;

    bool periodicRunning_ = false;
    std::uint64_t periodicGeneration_ = 0;

    /**
     * Re-entrancy latch: applying a shrink evicts pages, which runs
     * simulated IO events, which can fire a battery capacity event,
     * whose listener is reevaluate().  A nested redistribute would
     * corrupt the in-progress one's accounting (it reads the pool
     * total at entry), so the nested call just records that the
     * inputs changed and the outer apply() re-derives once it is
     * done with the domain.
     */
    bool applying_ = false;
    bool reevaluatePending_ = false;
};

} // namespace viyojit::core

#endif // VIYOJIT_CORE_SAFE_MODE_HH
