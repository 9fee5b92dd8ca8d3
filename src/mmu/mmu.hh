/**
 * @file
 * MMU facade: translates accesses against the page table through the
 * TLB, charges modelled costs to the virtual clock, maintains
 * accessed/dirty bits with hardware semantics, and delivers
 * write-protection faults to a registered handler (Viyojit's fault
 * path, paper figure 6 steps 2-3).
 */

#ifndef VIYOJIT_MMU_MMU_HH
#define VIYOJIT_MMU_MMU_HH

#include <cstdint>
#include <functional>

#include "common/function_ref.hh"
#include "common/types.hh"
#include "mmu/page_table.hh"
#include "mmu/tlb.hh"
#include "sim/context.hh"

namespace viyojit::mmu
{

/**
 * Virtual-time costs of MMU operations.  Defaults are calibrated to
 * the magnitudes the paper reports for its Nehalem-class testbed
 * (user-level trap round trip in the microseconds; PTE manipulation
 * and shootdowns in the hundreds of nanoseconds).
 */
struct MmuCostModel
{
    /** Write-protection fault: trap + handler entry/exit. */
    Tick trapCost = 3_us;

    /** Page-table walk on a TLB miss. */
    Tick walkCost = 60_ns;

    /** Hardware dirty-bit set (write-back of the PTE). */
    Tick dirtySetCost = 30_ns;

    /** Toggling a page's write-protection (PTE update). */
    Tick protectCost = 400_ns;

    /** Single-page TLB shootdown. */
    Tick shootdownCost = 500_ns;

    /** Full TLB flush (instruction only; refills charge walks). */
    Tick fullFlushCost = 2_us;

    /** Per-page cost of the epoch dirty-bit scan walk. */
    Tick dirtyScanPerPage = 15_ns;

    /**
     * Charge the per-page scan time to the main clock.  False by
     * default: the scan runs on a background core in the paper's
     * 20-core testbed, so only its TLB-flush side effect stalls the
     * application.  (True models a single-core machine.)
     */
    bool chargeScanToClock = false;

    /**
     * Model the section-5.4 MMU extension: the hardware writes the
     * dirty/shadow bits through on *every* store (not just the first
     * after a TLB fill), so epoch scans read fresh bits without a
     * TLB flush, and first writes need no write-protection trap.
     */
    bool writeThroughDirty = false;

    /**
     * OS entry cost when the hardware dirty counter crosses the
     * budget threshold (the section-5.4 interrupt) — paid only when
     * eviction work is actually needed, unlike the per-first-write
     * trap of the software implementation.
     */
    Tick assistInterruptCost = 2_us;
};

/** MMU over one NV virtual address space. */
class Mmu
{
  public:
    /**
     * Write-fault handler: invoked with the faulting VPN; must leave
     * the page writable (or the access is retried and faults again).
     */
    using WriteFaultHandler = std::function<void(PageNum)>;

    Mmu(sim::SimContext &ctx, const MmuCostModel &costs,
        const TlbConfig &tlb_config = TlbConfig{});

    /** Map a VPN, write-protected by default (paper fig. 6 step 1). */
    void mapPage(PageNum vpn, bool writable = false);

    /** Remove a mapping. */
    void unmapPage(PageNum vpn);

    /** Install the write-fault handler. */
    void setWriteFaultHandler(WriteFaultHandler handler);

    /**
     * Perform one access to `vpn`.  Charges TLB/walk costs, raises a
     * write fault through the handler when a write hits a protected
     * page, and maintains A/D bits like hardware.
     */
    void access(PageNum vpn, bool is_write);

    /** Access every page overlapped by [addr, addr + len). */
    void accessRange(Addr addr, std::uint64_t len, bool is_write,
                     std::uint64_t page_size = defaultPageSize);

    /** Write-protect a page and shoot down its TLB entry. */
    void protectPage(PageNum vpn);

    /** Make a page writable and shoot down its TLB entry. */
    void unprotectPage(PageNum vpn);

    /** True if the VPN is currently write-protected. */
    bool isProtected(PageNum vpn) const;

    /**
     * Epoch scan: report and clear the hardware dirty bit of pages in
     * [begin, end).  When `flush_tlb` is true the TLB is fully
     * flushed first so the scan observes fresh bits (the paper's
     * default); when false, stale cached-dirty TLB state makes the
     * scan miss updates (the section 6.3 ablation).
     *
     * The default path prunes clean subtrees via the page table's
     * any-dirty-below summary bits and visits only dirty pages
     * (`was_dirty == true` on every visit); scan time is charged per
     * node actually touched.  `legacy_walk` restores the
     * pre-optimization full walk over every present page, charging
     * per present page (for A/B studies; see ViyojitConfig
     * `legacyEpochScan`).
     *
     * @return the walk's DirtyScanStats: pages visited, nodes
     *         descended and subtrees pruned.  The legacy walk fills
     *         only `visitedPages` (every present page in range).
     */
    DirtyScanStats scanAndClearDirty(
        PageNum begin, PageNum end, bool flush_tlb,
        FunctionRef<void(PageNum, bool was_dirty)> visitor,
        bool legacy_walk = false);

    /** Write-protection faults delivered to the handler. */
    std::uint64_t writeFaults() const { return writeFaults_; }

    /** Direct PTE read access for tests and recovery tooling. */
    const Pte *findPte(PageNum vpn) const { return table_.find(vpn); }

    PageTable &pageTable() { return table_; }
    Tlb &tlb() { return tlb_; }

    const MmuCostModel &costs() const { return costs_; }

  private:
    sim::SimContext &ctx_;
    MmuCostModel costs_;
    PageTable table_;
    Tlb tlb_;
    WriteFaultHandler faultHandler_;
    std::uint64_t writeFaults_ = 0;
};

} // namespace viyojit::mmu

#endif // VIYOJIT_MMU_MMU_HH
