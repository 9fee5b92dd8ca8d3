#include "runtime/fault_dispatch.hh"

#include <ucontext.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstring>

#include "common/logging.hh"
#include "common/thread_annotations.hh"
#include "runtime/region.hh"

namespace viyojit::runtime
{

namespace
{

/**
 * Lock-free region registry.
 *
 * The fault handler must read the registry without taking a lock
 * (the faulting thread may be anywhere, including inside a region's
 * own locks), so entries live in a fixed array of atomics.  Writers
 * serialize on registryLock; the handler publishes/consumes with
 * release/acquire on the `region` pointer:
 *
 *  - register: store begin/end first, then region (release) — a
 *    handler that sees the pointer sees valid bounds;
 *  - unregister: clear region (release) first — the bounds become
 *    unreachable before the mapping goes away.  A fault racing an
 *    unregister can only miss and crash as default, which is the
 *    pre-existing contract (regions unregister before unmapping).
 */
struct RegionEntry
{
    std::atomic<NvRegion *> region{nullptr};
    std::atomic<std::uintptr_t> begin{0};
    std::atomic<std::uintptr_t> end{0};
};

constexpr unsigned maxRegions = 64;

common::Mutex registryLock;
RegionEntry registry[maxRegions];

/** One past the highest slot ever used; bounds the handler's scan. */
std::atomic<unsigned> registryHigh{0};

/**
 * The actions the handler replaced, one per signal it serves.
 * Written once under registryLock (installHandler) before the first
 * region is live, then read lock-free by the handler.  GUARDED_BY
 * covers every writer; the handler's read is the one deliberate
 * unguarded access and sits inside its NO_THREAD_SAFETY_ANALYSIS —
 * safe because installation strictly precedes any dispatchable
 * fault.
 */
struct sigaction previousSegv GUARDED_BY(registryLock);
struct sigaction previousBus GUARDED_BY(registryLock);
bool handlerInstalled GUARDED_BY(registryLock) = false;

/**
 * Per-thread alternate fault stack (RAII).  The handler runs real
 * admission work — budget control, copier hand-off, condvar
 * throttling — so it must not depend on the faulting thread having
 * stack headroom left.  SA_ONSTACK moves the handler onto this
 * kFaultStackBytes block wherever one is registered; the pathlint
 * stack-bound contract proves the handler's worst-case depth fits
 * it (DESIGN.md §15).
 *
 * Destruction disarms the alt stack before freeing it so a fault
 * during thread teardown cannot land on freed memory (it falls back
 * to the dying thread's regular stack instead).
 */
struct FaultStack
{
    char *mem = nullptr;
    bool installed = false;

    ~FaultStack()
    {
        if (installed) {
            stack_t off;
            std::memset(&off, 0, sizeof(off));
            off.ss_flags = SS_DISABLE;
            sigaltstack(&off, nullptr);
        }
        delete[] mem;
    }
};

thread_local FaultStack faultStack;

/**
 * Whether the faulting access was a write: bit 1 of the x86-64
 * page-fault error code.  Only userfaultfd regions ask, and they
 * exist only on x86-64; under mprotect every fault in a region is a
 * write.
 */
bool
faultIsWrite(const void *ucontext)
{
#if defined(__x86_64__)
    const auto *uc = static_cast<const ucontext_t *>(ucontext);
    return (uc->uc_mcontext.gregs[REG_ERR] & 2) != 0;
#else
    (void)ucontext;
    return true;
#endif
}

/**
 * The one fault handler, for SIGSEGV (mprotect regions) and SIGBUS
 * (userfaultfd regions, which report BUS_ADRERR with the exact
 * address).
 *
 * Async-signal context: must not take registryLock (the faulting
 * thread may already hold it, or any other lock) and must not
 * allocate — the registry is a fixed array of atomics for exactly
 * this reason, which is also why the static lock analysis is off
 * here.  `python3 tools/pathlint --contract sigsafe` audits the
 * handler's transitive call graph for async-signal-unsafe calls.
 */
void
segvHandler(int signo, siginfo_t *info,
            void *ucontext) NO_THREAD_SAFETY_ANALYSIS
{
    const auto addr = reinterpret_cast<std::uintptr_t>(info->si_addr);
    // Any other SIGBUS (a hardware memory error) is not ours: admitting
    // the page would retry the access forever.
    const bool ours = signo == SIGSEGV || info->si_code == BUS_ADRERR;

    const unsigned high =
        ours ? registryHigh.load(std::memory_order_acquire) : 0;
    for (unsigned i = 0; i < high; ++i) {
        NvRegion *region =
            registry[i].region.load(std::memory_order_acquire);
        if (!region)
            continue;
        const std::uintptr_t begin =
            registry[i].begin.load(std::memory_order_relaxed);
        const std::uintptr_t end =
            registry[i].end.load(std::memory_order_relaxed);
        if (addr >= begin && addr < end) {
            if (region->handleFault(info->si_addr,
                                    faultIsWrite(ucontext)))
                return;
        }
    }

    // Not ours: chain to this signal's previous action, or restore
    // the default and re-raise, so genuine faults still crash.
    const struct sigaction &previous =
        signo == SIGBUS ? previousBus : previousSegv;
    if (previous.sa_flags & SA_SIGINFO) {
        if (previous.sa_sigaction) {
            previous.sa_sigaction(signo, info, ucontext);
            return;
        }
    } else if (previous.sa_handler != SIG_DFL &&
               previous.sa_handler != SIG_IGN &&
               previous.sa_handler != nullptr) {
        previous.sa_handler(signo);
        return;
    }
    signal(signo, SIG_DFL);
    raise(signo);
}

void
installHandler() REQUIRES(registryLock)
{
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_sigaction = segvHandler;
    // SA_ONSTACK is a no-op for threads without a registered alt
    // stack (the kernel stays on the current stack), so it is safe
    // to request unconditionally.
    action.sa_flags = SA_SIGINFO | SA_ONSTACK;
    sigemptyset(&action.sa_mask);
    if (sigaction(SIGSEGV, &action, &previousSegv) != 0 ||
        sigaction(SIGBUS, &action, &previousBus) != 0)
        panic("failed to install the fault handler");
    handlerInstalled = true;
}

} // namespace

void
ensureFaultStackForThisThread()
{
    if (faultStack.installed)
        return;
    // Respect an application-installed alt stack: replacing it could
    // shrink an envelope the application sized for its own handlers.
    stack_t current;
    std::memset(&current, 0, sizeof(current));
    if (sigaltstack(nullptr, &current) == 0 &&
        !(current.ss_flags & SS_DISABLE) && current.ss_sp != nullptr)
        return;
    if (kFaultStackBytes <
        static_cast<unsigned long long>(MINSIGSTKSZ))
        panic("kFaultStackBytes below MINSIGSTKSZ");
    faultStack.mem = new char[kFaultStackBytes];
    stack_t ss;
    std::memset(&ss, 0, sizeof(ss));
    ss.ss_sp = faultStack.mem;
    ss.ss_size = kFaultStackBytes;
    if (sigaltstack(&ss, nullptr) != 0)
        panic("failed to install the fault-path sigaltstack");
    faultStack.installed = true;
}

void
registerRegion(NvRegion *region, void *base, unsigned long long bytes)
{
    // The registering thread is about to fault into the region; give
    // it the bounded alt-stack envelope before the first fault can
    // arrive.
    ensureFaultStackForThisThread();
    common::MutexLock guard(registryLock);
    if (!handlerInstalled)
        installHandler();
    const auto begin = reinterpret_cast<std::uintptr_t>(base);
    for (unsigned i = 0; i < maxRegions; ++i) {
        if (registry[i].region.load(std::memory_order_relaxed))
            continue;
        registry[i].begin.store(begin, std::memory_order_relaxed);
        registry[i].end.store(begin + bytes,
                              std::memory_order_relaxed);
        registry[i].region.store(region, std::memory_order_release);
        unsigned high =
            registryHigh.load(std::memory_order_relaxed);
        while (high < i + 1 &&
               !registryHigh.compare_exchange_weak(
                   high, i + 1, std::memory_order_release,
                   std::memory_order_relaxed)) {
        }
        return;
    }
    fatal("too many registered NvRegions (max ", maxRegions, ")");
}

void
unregisterRegion(NvRegion *region)
{
    common::MutexLock guard(registryLock);
    for (unsigned i = 0; i < maxRegions; ++i) {
        if (registry[i].region.load(std::memory_order_relaxed) ==
            region) {
            registry[i].region.store(nullptr,
                                     std::memory_order_release);
            registry[i].begin.store(0, std::memory_order_relaxed);
            registry[i].end.store(0, std::memory_order_relaxed);
            return;
        }
    }
}

} // namespace viyojit::runtime
