/**
 * @file
 * Exact dirty-page accounting (paper section 4.1).
 *
 * Viyojit must have a synchronous view of which pages are dirty: a
 * running count plus the set of dirty page addresses, updated in the
 * fault path when a page is first written and when a page's copy to
 * the backing store completes.
 */

#ifndef VIYOJIT_CORE_DIRTY_TRACKER_HH
#define VIYOJIT_CORE_DIRTY_TRACKER_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/function_ref.hh"
#include "common/types.hh"

namespace viyojit::core
{

/**
 * Dirty-page set with O(1) insert, remove, and membership, and dense
 * iteration for flush-all.
 */
class DirtyPageTracker
{
  public:
    explicit DirtyPageTracker(std::uint64_t page_count);

    /**
     * Out of line on purpose.  Inlined into the controller's
     * constructor unwind path, it makes gcc emit a standalone
     * vector<PageNum> destructor, which flushAllDirty's unwind path
     * then calls: an operator-delete edge that pathlint's no-alloc
     * contract has no audit entry for.
     */
    ~DirtyPageTracker();

    /**
     * Pre-size the dirty list for a dirty count up to `max_dirty`
     * (clamped to the page count), so steady-state markDirty never
     * heap-allocates — it runs on the fault path, which the real
     * runtime enters from a signal handler (`python3 tools/pathlint
     * --contract sigsafe`).
     * The list reaches this size at fixpoint anyway; reserving only
     * front-loads it.
     */
    void reserve(std::uint64_t max_dirty)
    {
        dirtyList_.reserve(static_cast<std::size_t>(
            std::min<std::uint64_t>(max_dirty, position_.size())));
    }

    /**
     * Record the first write to a page.
     * @return true if the page was clean (count incremented).
     */
    bool markDirty(PageNum page);

    /**
     * Record that a page's content is durable again.
     * @return true if the page was dirty (count decremented).
     */
    bool markClean(PageNum page);

    /** Membership query. */
    bool isDirty(PageNum page) const;

    /** Current dirty-page count. */
    std::uint64_t count() const { return dirtyList_.size(); }

    /** High watermark of the dirty count. */
    std::uint64_t highWatermark() const { return highWatermark_; }

    /** Pages dirtied since the last resetEpochCount(). */
    std::uint64_t newDirtyThisEpoch() const { return newThisEpoch_; }

    /** Reset the per-epoch new-dirty counter (at epoch boundaries). */
    void resetEpochCount() { newThisEpoch_ = 0; }

    /** Visit every dirty page (order unspecified). */
    void forEachDirty(FunctionRef<void(PageNum)> fn) const;

    /** Snapshot of the dirty set. */
    std::vector<PageNum> dirtyPages() const { return dirtyList_; }

    std::uint64_t pageCount() const { return position_.size(); }

    /**
     * Record a measured copy-out compression result: `stored` bytes
     * actually shipped for a `raw`-byte page (bypass callers pass
     * stored == raw).  Feeds the two aggregates the budget arithmetic
     * consumes, ewmaRatio() and floorRatio().  Allocation-free
     * (fault/flush path safe).
     */
    void recordCompressibility(std::uint64_t stored, std::uint64_t raw);

    /**
     * Exponentially-weighted average achieved compression ratio
     * (raw/stored, alpha 1/16) across recorded copy-outs; >= 1.0,
     * exactly 1.0 before any sample.
     */
    double ewmaRatio() const;

    /**
     * Conservative floor of the achieved ratio: the WORST (smallest)
     * ratio over the last kRecentWindow recorded copy-outs, clamped
     * to [1.0, ewmaRatio()].  The emergency path budgets with this,
     * never the EWMA: one burst of incompressible pages must not be
     * flattered by a rosy average (DESIGN.md §11).
     */
    double floorRatio() const;

    /** Copy-out compression samples recorded (lifetime). */
    std::uint64_t compressionSamples() const
    {
        return compressSamples_;
    }

  private:
    /** position_[p] == npos when clean, else index into dirtyList_. */
    static constexpr std::uint32_t npos = ~0u;

    /** Samples the floor ratio looks back over. */
    static constexpr std::size_t kRecentWindow = 64;

    std::vector<std::uint32_t> position_;
    std::vector<PageNum> dirtyList_;
    std::uint64_t highWatermark_ = 0;
    std::uint64_t newThisEpoch_ = 0;

    /** EWMA of the stored fraction (stored/raw) over samples. */
    double ewmaFrac_ = 1.0;

    /** Ring of the most recent scaled fractions (floor window). */
    std::array<std::uint8_t, kRecentWindow> recentFrac_{};
    std::size_t recentHead_ = 0;
    std::uint64_t compressSamples_ = 0;
};

} // namespace viyojit::core

#endif // VIYOJIT_CORE_DIRTY_TRACKER_HH
