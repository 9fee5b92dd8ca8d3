/**
 * @file
 * Configuration for the Viyojit dirty-budget machinery.
 */

#ifndef VIYOJIT_CORE_CONFIG_HH
#define VIYOJIT_CORE_CONFIG_HH

#include <cstdint>

#include "common/types.hh"

namespace viyojit::core
{

/** Knobs of the dirty-budget controller (paper sections 4-5). */
struct ViyojitConfig
{
    /** Tracking granularity in bytes. */
    std::uint64_t pageSize = defaultPageSize;

    /**
     * Maximum pages allowed dirty at any instant; derived from the
     * provisioned battery via DirtyBudgetCalculator in deployments.
     */
    std::uint64_t dirtyBudgetPages = 0;

    /**
     * Epoch length for dirty-bit scans (paper: 1 ms).  The controller
     * keeps the paper's 64 epochs of update history per page and its
     * 0.75 EWMA weight on the current epoch's new-dirty count.
     */
    Tick epochLength = 1_ms;

    /** Cap on outstanding proactive-copy IOs (paper: 16). */
    unsigned maxOutstandingIos = 16;

    /**
     * Flush the TLB before each dirty-bit scan so recency is precise
     * (paper default; `false` reproduces the section 6.3 ablation
     * where stale dirty bits halve low-budget throughput).
     */
    bool flushTlbOnScan = true;

    /**
     * When true (default), proactive copies launch as soon as the
     * dirty count crosses the threshold (in the fault path and on IO
     * completion).  When false, copies launch only at epoch
     * boundaries — the burst slack must then absorb a whole epoch of
     * faults, and overflow blocks on the SSD.
     */
    bool continuousCopyTrigger = true;

    /**
     * Order history ties by last-update sequence (default).  False
     * restores a history-only victim sort, which is what makes the
     * section-6.3 stale-dirty-bit ablation collapse like the paper's
     * implementation did.
     */
    bool updateTimeTieBreak = true;

    /**
     * Section-5.4 hardware assist: the MMU counts dirty pages and
     * raises an interrupt at the budget threshold, so first writes
     * need no write-protection trap.  Pages stay writable except
     * while under writeback.  Requires a substrate whose MMU models
     * the assist (the simulator; real x86-64 cannot, which is the
     * paper's point).
     */
    bool hardwareAssist = false;

    /**
     * When false, run as the full-battery NV-DRAM baseline: pages map
     * writable, nothing is tracked or copied, and the battery must
     * cover the entire capacity.
     */
    bool enforceBudget = true;

    /**
     * Maximum submit attempts per page copy before the copy is
     * abandoned (async paths report onPersistAborted and leave the
     * page dirty for a later pass; blocking paths escalate to
     * fatal()).  Only reachable when the SSD has a fault model.
     */
    unsigned maxIoRetries = 8;

    /** First retry backoff; attempt k waits base * 2^(k-1). */
    Tick retryBackoffBase = 50_us;

    /** Ceiling on the exponential backoff. */
    Tick retryBackoffCap = 2_ms;

    /**
     * Per-attempt IO timeout; 0 disables.  An attempt whose service
     * time exceeds the deadline is abandoned at the deadline (its
     * straggling completion is ignored) and the copy is retried —
     * the tail-latency hedge production flushes need.
     */
    Tick ioTimeout = 0;

    /** Seed of the retry-jitter stream (deterministic replay). */
    std::uint64_t retrySeed = 0x7e57ab1e;

    /**
     * Cap on coalesced run length in pages: page-number-adjacent
     * victims batch into run IOs (PagingBackend::persistRunAsync) of
     * up to this many pages.  1 — the default — writes one page per
     * IO, the paper's prototype and the A/B baseline; benches,
     * torture modes, and deployments opt in with a larger cap.  This
     * is also the size of the bounded staging window: victims
     * accumulate in the window across pump passes (each IO completion
     * frees only one page of credit, so submitting per pass would cap
     * runs at one page), and the window is submitted whenever
     * something could wait on a staged page and at every epoch
     * boundary, so a latency-sensitive fault never stalls behind an
     * unfilled run.  The effective cap is min(maxRunPages,
     * maxOutstandingIos, 64); at 1 each victim is submitted as a
     * one-page run the moment it is picked.
     */
    unsigned maxRunPages = 1;

    /**
     * log2 of the extent size (in pages) used as the locality sort
     * key: within a recency bucket, victims sort by extent id so
     * whole extents drain together and scattered working sets still
     * yield sequential IO.  0 disables the key (pure recency order,
     * the pre-coalescing behaviour).
     */
    unsigned extentShift = 0;

    /**
     * Bridge gaps between staged sub-runs by writing up to this many
     * intervening CLEAN pages per gap, merging the sub-runs into one
     * device IO.  A clean page is still write-protected (the
     * protect-before-copy rule keeps it protected after markClean
     * until the next fault), so its DRAM content equals its durable
     * copy and rewriting it is a semantic no-op — but the merge saves
     * an admission slot, which on an IOPS-bound device costs an order
     * of magnitude more than the extra page transfers.  Profitable
     * while gap * perPageTransfer < perIoAdmission.  0 disables
     * bridging.
     */
    unsigned maxBridgePages = 0;

    /**
     * Run the epoch boundary on the pre-optimization O(mapped-pages)
     * paths: eager per-epoch history shifts, a full page-table walk
     * for the dirty-bit scan, and the sort-based victim queue
     * rebuilt each epoch.  The default (false) uses the O(dirty)
     * fast paths — lazy histories, summary-bit-pruned hierarchical
     * scans, and the bucketed victim queue.  Both orders are
     * equivalent (see tests/core_test.cc VictimOrderEquivalence);
     * the switch exists for A/B validation and cost studies
     * (bench/abl_epoch_scan).
     */
    bool legacyEpochScan = false;

    /**
     * Shed fault-path blocking evictions to the async copy pipeline:
     * when the backend has submission capacity, a budget-limited
     * fault starts an async copy of the victim (filling the pipe
     * with more victims on subsequent passes) and blocks only until
     * the FIRST completion lands, instead of paying one full
     * synchronous device write per eviction.  With an inline backend
     * (no copier threads) the async submit degenerates to the same
     * blocking write, so the knob only changes behaviour when copies
     * genuinely overlap.  Off by default: the synchronous path is
     * the paper's prototype and the A/B baseline.  The runtime turns
     * it on exactly when it runs copier threads.
     */
    bool shedBlockedEvictions = false;
};

} // namespace viyojit::core

#endif // VIYOJIT_CORE_CONFIG_HH
