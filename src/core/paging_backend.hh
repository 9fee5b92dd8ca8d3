/**
 * @file
 * Abstraction over the paging substrate.
 *
 * The dirty-budget controller (the paper's contribution) is written
 * against this interface only, so the identical policy code runs on
 * the simulated MMU/SSD (benchmarks) and on real memory via
 * mprotect/SIGSEGV (the runtime library).  The interface is exactly
 * the three primitives the paper's mechanism consumes — protect,
 * unprotect, dirty-bit check-and-clear — plus page persistence, which
 * has one asynchronous entry point: persistRunAsync, where a single
 * page is a one-page run.
 */

#ifndef VIYOJIT_CORE_PAGING_BACKEND_HH
#define VIYOJIT_CORE_PAGING_BACKEND_HH

#include <cstdint>

#include "common/function_ref.hh"
#include "common/types.hh"

namespace viyojit::core
{

/**
 * Receiver of asynchronous persistence outcomes.
 *
 * The controller implements this; backends deliver every
 * persistRunAsync outcome through it, page by page, instead of
 * per-call closures.
 * Keeping the channel a plain virtual interface (not std::function)
 * matters on the runtime substrate: a copy is launched from inside
 * the SIGSEGV admission path, where constructing a capturing closure
 * could heap-allocate — and malloc is not async-signal-safe (see
 * `python3 tools/pathlint --contract sigsafe`).
 */
class PersistClient
{
  public:
    virtual ~PersistClient() = default;

    /** The page's copy is durable. */
    virtual void onPersistComplete(PageNum page) = 0;

    /** The page's copy was abandoned (IO retries exhausted). */
    virtual void onPersistAborted(PageNum page) = 0;
};

/** Paging + persistence primitives consumed by the controller. */
class PagingBackend
{
  public:
    virtual ~PagingBackend() = default;

    /**
     * Attach the receiver for persistRunAsync outcomes.  Called
     * once, by the controller's constructor, before any IO.
     */
    void setPersistClient(PersistClient &client) { client_ = &client; }

    /** Number of pages in the managed NV region. */
    virtual std::uint64_t pageCount() const = 0;

    /** Bytes per page. */
    virtual std::uint64_t pageSize() const = 0;

    /** Write-protect one page (and shoot down its translation). */
    virtual void protectPage(PageNum page) = 0;

    /** Make one page writable (and shoot down its translation). */
    virtual void unprotectPage(PageNum page) = 0;

    /**
     * Report and clear the hardware dirty bit of managed pages.
     * `flush_tlb` requests a full TLB flush first so the scan
     * observes fresh bits.  Substrates may visit every managed page
     * (reporting `was_dirty == false` for clean ones) or only the
     * dirty population — callers must key off the flag, not the
     * visit.  The visitor is a non-owning view: the scan is on the
     * 1 ms epoch path and must not allocate per call.
     */
    virtual void scanAndClearDirty(
        bool flush_tlb,
        FunctionRef<void(PageNum, bool was_dirty)> visitor) = 0;

    /**
     * Start persisting `count` page-number-adjacent pages
     * [first, first + count) as one batched IO (run coalescing: one
     * device admission amortized over the run instead of one per
     * page); a single page is a one-page run.  Outcomes are
     * delivered per page to the attached PersistClient —
     * onPersistComplete when the page is durable, onPersistAborted
     * when the backend gives up — so a backend may split the run: a
     * page whose slice fails retries alone while the rest complete.
     * The caller guarantees 1 <= count <= the run cap
     * (ViyojitConfig::maxRunPages), that every page in the run is
     * write-protected for the duration, and that a client is
     * attached.
     */
    virtual void persistRunAsync(PageNum first, unsigned count) = 0;

    /** Persist a page and wait for durability. */
    virtual void persistPageBlocking(PageNum page) = 0;

    /**
     * Block until the submitted persistRunAsync covering `page`
     * completes for it (used when a write faults on a page under
     * writeback).
     */
    virtual void waitForPersist(PageNum page) = 0;

    /**
     * Block until at least one page of an outstanding
     * persistRunAsync completes.  No-op when none are outstanding.
     */
    virtual void waitForAnyPersist() = 0;

    /** Pages submitted via persistRunAsync and not yet complete. */
    virtual unsigned outstandingIos() const = 0;

    /**
     * True when the device can take another asynchronous copy while
     * still leaving room for a synchronous (blocking) eviction.
     * Substrates without device-side queue limits return true.
     */
    virtual bool canSubmit() const { return true; }

  protected:
    /** Outcome receiver; set before the first async persist. */
    PersistClient *client_ = nullptr;
};

} // namespace viyojit::core

#endif // VIYOJIT_CORE_PAGING_BACKEND_HH
