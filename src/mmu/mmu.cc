#include "mmu/mmu.hh"

#include <utility>

#include "common/logging.hh"

namespace viyojit::mmu
{

Mmu::Mmu(sim::SimContext &ctx, const MmuCostModel &costs,
         const TlbConfig &tlb_config)
    : ctx_(ctx), costs_(costs), tlb_(tlb_config)
{
}

void
Mmu::mapPage(PageNum vpn, bool writable)
{
    std::uint64_t flags = 0;
    if (writable)
        flags |= Pte::writableBit;
    table_.map(vpn, flags);
}

void
Mmu::unmapPage(PageNum vpn)
{
    table_.unmap(vpn);
    tlb_.flushPage(vpn);
}

void
Mmu::setWriteFaultHandler(WriteFaultHandler handler)
{
    faultHandler_ = std::move(handler);
}

void
Mmu::access(PageNum vpn, bool is_write)
{
    // A faulting write retries after the handler runs; bound the
    // retries so a broken handler cannot livelock the simulation.
    for (int attempt = 0; attempt < 8; ++attempt) {
        TlbEntryView view = tlb_.lookup(vpn);
        if (!view.hit) {
            ctx_.clock().advance(costs_.walkCost);
            Pte *pte = table_.find(vpn);
            VIYOJIT_ASSERT(pte && pte->present(),
                           "access to unmapped NV page ", vpn);
            pte->setAccessed(true);
            view = TlbEntryView{true, pte->writable(), pte->dirty()};
            tlb_.insert(vpn, pte->writable(), pte->dirty());
        }

        if (!is_write)
            return;

        if (!view.writable) {
            // Write-protection violation: deliver the fault.
            ctx_.clock().advance(costs_.trapCost);
            ++writeFaults_;
            VIYOJIT_ASSERT(faultHandler_,
                           "write fault with no handler installed");
            faultHandler_(vpn);
            // The handler is expected to have unprotected the page
            // (and shot down the TLB entry); retry the access.
            continue;
        }

        if (!view.dirtyCached) {
            // First write since the entry was cached: hardware walks
            // to set the dirty bit.
            ctx_.clock().advance(costs_.dirtySetCost);
            Pte *pte = table_.find(vpn);
            VIYOJIT_ASSERT(pte && pte->present(), "lost mapping");
            table_.noteDirty(vpn);
            pte->setShadowDirty(true);
            tlb_.markDirty(vpn);
        } else if (costs_.writeThroughDirty) {
            // Section-5.4 MMU: the dirty/shadow bits are written
            // through on every store, free of charge, so scans never
            // read stale bits and need no TLB flush.
            Pte *pte = table_.find(vpn);
            VIYOJIT_ASSERT(pte && pte->present(), "lost mapping");
            table_.noteDirty(vpn);
            pte->setShadowDirty(true);
        }
        return;
    }
    panic("write fault handler failed to unprotect page ", vpn);
}

void
Mmu::accessRange(Addr addr, std::uint64_t len, bool is_write,
                 std::uint64_t page_size)
{
    if (len == 0)
        return;
    const PageNum first = addr / page_size;
    const PageNum last = (addr + len - 1) / page_size;
    for (PageNum vpn = first; vpn <= last; ++vpn)
        access(vpn, is_write);
}

void
Mmu::protectPage(PageNum vpn)
{
    Pte *pte = table_.find(vpn);
    VIYOJIT_ASSERT(pte && pte->present(), "protecting unmapped page");
    pte->setWritable(false);
    ctx_.clock().advance(costs_.protectCost + costs_.shootdownCost);
    tlb_.flushPage(vpn);
}

void
Mmu::unprotectPage(PageNum vpn)
{
    Pte *pte = table_.find(vpn);
    VIYOJIT_ASSERT(pte && pte->present(), "unprotecting unmapped page");
    pte->setWritable(true);
    ctx_.clock().advance(costs_.protectCost + costs_.shootdownCost);
    tlb_.flushPage(vpn);
}

bool
Mmu::isProtected(PageNum vpn) const
{
    const Pte *pte = table_.find(vpn);
    return pte && pte->present() && !pte->writable();
}

DirtyScanStats
Mmu::scanAndClearDirty(PageNum begin, PageNum end, bool flush_tlb,
                       FunctionRef<void(PageNum, bool was_dirty)> visitor,
                       bool legacy_walk)
{
    if (flush_tlb) {
        // Flushing first means post-scan writes reload PTEs and set
        // the in-memory dirty bit again, so the next scan sees them.
        ctx_.clock().advance(costs_.fullFlushCost);
        tlb_.flushAll();
    }
    // Count the work the scan actually performs: every present page
    // on the legacy walk (which counts no nodes), only touched tree
    // nodes + dirty leaves on the hierarchical one.  The walk costs
    // no virtual time: it runs on a background core in the paper's
    // 20-core testbed, so only its TLB-flush side effect stalls the
    // application.
    DirtyScanStats stats;
    if (legacy_walk) {
        table_.forEachPresent(begin, end, [&](PageNum vpn, Pte &pte) {
            ++stats.visitedPages;
            const bool was_dirty = pte.dirty();
            if (was_dirty)
                table_.clearDirty(vpn);
            visitor(vpn, was_dirty);
        });
    } else {
        stats = table_.forEachDirty(
            begin, end, [&](PageNum vpn, Pte &pte) {
                pte.setDirty(false);
                visitor(vpn, /*was_dirty=*/true);
            });
    }
    return stats;
}

} // namespace viyojit::mmu
