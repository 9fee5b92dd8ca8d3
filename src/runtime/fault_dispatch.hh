/**
 * @file
 * Process-wide SIGSEGV and SIGBUS dispatch for NvRegion faults.
 *
 * One handler serves both signals: mprotect regions fault with
 * SIGSEGV, userfaultfd regions with SIGBUS.  It routes faults whose
 * address falls inside a registered region to that region; anything
 * else goes to the signal's previous action, or is re-raised with the
 * default disposition, so genuine crashes still crash.
 */

#ifndef VIYOJIT_RUNTIME_FAULT_DISPATCH_HH
#define VIYOJIT_RUNTIME_FAULT_DISPATCH_HH

namespace viyojit::runtime
{

class NvRegion;

/**
 * Size of the per-thread alternate signal stack the runtime installs
 * for fault handling (sigaltstack + SA_ONSTACK).
 *
 * This is the worst-case envelope the admission path may consume:
 * tools/pathlint's stack-bound contract computes the deepest
 * frame chain from segvHandler out of `-fstack-usage` data and fails
 * CI when it no longer fits under this constant minus the margin
 * declared in tools/pathlint_contracts.ini (methodology in
 * DESIGN.md §15).  The linter reads the constant from this very
 * initializer, so the gate cannot drift from the installed size.
 *
 * Threads that never call ensureFaultStackForThisThread() take the
 * handler on their regular stack (the kernel falls back when no alt
 * stack is registered); the bound still applies, against a far
 * larger stack.  The alt stack is the minimal guaranteed envelope —
 * and what makes the last-gasp path survive a faulting thread that
 * was itself near stack exhaustion.
 */
inline constexpr unsigned long long kFaultStackBytes = 64ULL * 1024;

/**
 * Install this thread's alternate fault stack (idempotent; respects
 * a pre-existing application sigaltstack).  Called automatically by
 * registerRegion for the registering thread and by the runtime's own
 * threads (epoch, copiers); application threads that fault into
 * regions may call it themselves to get the bounded-stack guarantee.
 */
void ensureFaultStackForThisThread();

/** Install the fault handler (idempotent) and add a region. */
void registerRegion(NvRegion *region, void *base,
                    unsigned long long bytes);

/** Remove a region from dispatch. */
void unregisterRegion(NvRegion *region);

} // namespace viyojit::runtime

#endif // VIYOJIT_RUNTIME_FAULT_DISPATCH_HH
