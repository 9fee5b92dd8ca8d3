/**
 * @file
 * Seeded power-cut torture harness.
 *
 * Replays a random workload against a full Viyojit stack — one or
 * more managers on one SSD with an active fault model, one battery
 * with runtime degradation events, a safe-mode governor retuning the
 * budget — and cuts wall power at arbitrary points in the event
 * stream: between two IO completions, mid-transfer, in the middle of
 * a retry backoff.  Every cut asserts the section-4.1 durability
 * invariant: the summed dirty set fits the applied budget, the
 * emergency flush of every manager fits the (degraded) battery
 * window, and the SSD image verifies against every written page.
 * All randomness derives from one seed, so a failing run replays
 * exactly from the printed seed.
 */

#ifndef VIYOJIT_CORE_TORTURE_HH
#define VIYOJIT_CORE_TORTURE_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace viyojit::core
{

/** Torture-run parameters; defaults give a meaningful short run. */
struct TortureConfig
{
    /** Master seed: every random stream in the run derives from it. */
    std::uint64_t seed = 1;

    /** Power cuts to inject. */
    std::uint64_t cuts = 200;

    /** Upper bound on random ops between cuts. */
    std::uint64_t maxOpsPerRound = 120;

    /** NV region size in pages. */
    std::uint64_t regionPages = 256;

    /** Nominal (healthy-hardware) dirty budget in pages. */
    std::uint64_t dirtyBudgetPages = 48;

    /**
     * Managers sharing one battery.  1 gives the single manager the
     * whole budget; above 1 the region splits evenly, each shard runs
     * its own controller with a quota drawn from one BudgetPool, and
     * the governor retunes the pool total.  Every per-cut check runs
     * the same for any count, over every shard.  Needs
     * `dirtyBudgetPages >= 2 * shards`.
     */
    std::uint64_t shards = 1;

    /** SSD fault model: per-attempt write error probability. */
    double writeErrorProb = 0.02;

    /** SSD fault model: per-attempt read error probability. */
    double readErrorProb = 0.01;

    /** SSD fault model: tail-latency spike probability. */
    double tailLatencyProb = 0.01;

    /** Per-round probability of redrawing the SSD wear factor. */
    double bandwidthDegradeProb = 0.10;

    /** Floor of the redrawn wear factor (drawn in [floor, 1]). */
    double bandwidthDegradeFloor = 0.5;

    /** Per-round probability of a pack service (health reset). */
    double packServiceProb = 0.05;

    /**
     * Run-length cap (ViyojitConfig::maxRunPages).  Above 1 this
     * tortures the coalesced-IO flush path: victims batch into
     * vectored run writes, so cuts land mid-run — after the run was
     * submitted, before its single completion event granted
     * durability.  A torn run must never verify as clean; the
     * emergency flush must re-persist every page of it.
     */
    unsigned maxRunPages = 1;

    /**
     * Torture the compressed copy-out path
     * (storage::SsdConfig::enableCompression): the workload writes
     * record-style compressible payloads, every flush ships the
     * codec's measured stored size (cuts land mid-compressed-
     * transfer), and the measured ratios feed the governor's
     * compression-scaled budget.  The audit still verifies RAW
     * content, so a torn or wrong compressed transfer surfaces as
     * an (unattributed) mismatch exactly like a raw one.
     */
    bool compressFlush = false;

    /** Extent shift for locality-aware victim selection (0 = off). */
    unsigned extentShift = 0;

    /**
     * Clean-page gap bridging bound (ViyojitConfig::maxBridgePages):
     * with it on, cuts can land inside a run that carries clean
     * pages, exercising the bridged-completion bookkeeping under
     * torn-run replay.
     */
    unsigned maxBridgePages = 0;

    /**
     * Check the clean-pages-match-the-image invariant on every shard
     * after every op (debugging aid; quadratic, keep off for big
     * runs).
     */
    bool paranoid = false;

    // Corruption torture: silent-fault injection (storage::FaultModel)
    // plus the verified-durability machinery that must catch it.
    // With any of these probabilities nonzero the per-cut check
    // changes shape: instead of demanding a pristine image (silent
    // faults make that impossible by construction), every settled
    // mismatch found by the checked audit MUST be attributed to an
    // injected fault, an aborted copy, or an unsettled page — one
    // unattributed mismatch is silent wrong-data acceptance and fails
    // the run.

    /** Probability an acknowledged write lands with a flipped bit. */
    double silentBitFlipProb = 0.0;

    /** Probability an acknowledged write never reaches the media. */
    double droppedWriteProb = 0.0;

    /** Probability an acknowledged write lands on the wrong page. */
    double misdirectedWriteProb = 0.0;

    /**
     * Pages the background scrubber verifies per round (pre-cut);
     * 0 disables.  With silent faults on, scrubbing repairs rotted
     * durable copies from the still-clean DRAM copy between cuts.
     */
    std::uint64_t scrubPagesPerRound = 0;
};

/** Outcome and exercised-path evidence of one torture run. */
struct TortureResult
{
    /** True when every cut survived and verified. */
    bool passed = true;

    /** Cuts actually injected. */
    std::uint64_t cutsRun = 0;

    /** 1-based index of the failing cut (0 when passed). */
    std::uint64_t failingCut = 0;

    /** Human-readable failure description (empty when passed). */
    std::string failureDetail;

    // Evidence that the run exercised what it claims to.

    /** Cuts landing with page copies still in flight (mid-flush). */
    std::uint64_t cutsMidFlight = 0;

    /** Cuts landing while the governor was out of normal mode. */
    std::uint64_t cutsInSafeMode = 0;

    /** IO attempts retried after injected errors. */
    std::uint64_t totalRetries = 0;

    /** Copies abandoned after retry exhaustion. */
    std::uint64_t totalAborts = 0;

    /** Write errors the SSD fault model injected. */
    std::uint64_t injectedWriteErrors = 0;

    /** Safe-mode entries over the run. */
    std::uint64_t safeModeEntries = 0;

    /** Budget shrinks the governor applied. */
    std::uint64_t budgetShrinks = 0;

    /** Battery cell-failure events injected. */
    std::uint64_t batteryCellFailures = 0;

    /** Battery recovery events injected. */
    std::uint64_t batteryRecoveries = 0;

    // Coalesced-flush evidence (meaningful when config.maxRunPages > 1).

    /** Vectored run IOs the backend submitted. */
    std::uint64_t runSubmits = 0;

    /** Pages those runs carried. */
    std::uint64_t runPagesCoalesced = 0;

    /** Runs split back to per-page retries by injected IO errors. */
    std::uint64_t runSplits = 0;

    /** Cuts landing with at least one run IO still in flight. */
    std::uint64_t cutsMidRun = 0;

    /** Smallest pre-cut energy headroom seen (must stay >= 0). */
    double minHeadroomJoules = 0.0;

    /** Shards the run was configured with. */
    std::uint64_t shards = 1;

    /**
     * Largest dirty count, summed over shards, observed at any cut.
     * Every cut checks it against the budget then applied (the pool
     * total, or the one controller's budget), which compressed
     * copy-out can raise above the nominal dirtyBudgetPages.
     */
    std::uint64_t maxSummedDirtyPages = 0;

    // Budget-pool evidence (meaningful when config.shards > 1).

    /** Pool total at the end of the run (post any governor shrink). */
    std::uint64_t budgetPoolPages = 0;

    /** Quota pages shards borrowed from / returned to the pool. */
    std::uint64_t quotaBorrowedPages = 0;
    std::uint64_t quotaReturnedPages = 0;

    // Corruption-torture evidence (meaningful when a silent-fault
    // probability is nonzero).

    /** Silent faults the SSD model injected (flips/drops/misdirects). */
    std::uint64_t injectedSilentFaults = 0;

    /** Flush completions whose read-back verify caught wrong durable
     *  content and re-entered the retry chain. */
    std::uint64_t verifyFailures = 0;

    /** Settled-image mismatches across all post-cut checked audits. */
    std::uint64_t auditMismatches = 0;

    /**
     * Audit mismatches nothing could explain — not in the injector's
     * corruption ledger, not an aborted copy, not an unsettled page.
     * MUST stay zero: each one is silent wrong-data acceptance.
     */
    std::uint64_t auditUnattributed = 0;

    /** Scrub progress: pages verified, rotted durable copies found,
     *  and repairs from the DRAM copy. */
    std::uint64_t scrubScanned = 0;
    std::uint64_t scrubMismatches = 0;
    std::uint64_t scrubRepairs = 0;
    std::uint64_t scrubRepairFailures = 0;

    // Compressed-flush evidence (meaningful when
    // config.compressFlush): the wire bytes the SSD actually
    // transferred vs the raw bytes those transfers retired.  A run
    // that exercised compression shows wire < raw.
    std::uint64_t ssdBytesWritten = 0;
    std::uint64_t ssdLogicalBytesWritten = 0;
};

/** Run the torture loop; deterministic in `config` (same seed, same
 *  result). */
TortureResult runTorture(const TortureConfig &config);

} // namespace viyojit::core

#endif // VIYOJIT_CORE_TORTURE_HH
