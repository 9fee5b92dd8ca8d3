/**
 * @file
 * Quickstart: battery-bounded non-volatile memory on real pages.
 *
 * Creates an NvRegion backed by a file, writes to it (first writes
 * trap transparently), shows the dirty budget holding, simulates a
 * power failure by flushing, and recovers the contents in a second
 * region — the full lifecycle in ~60 lines of application code.
 * Exits 1 unless the recovered region holds every byte it wrote.
 *
 * Run:  ./quickstart [backing-file]
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "runtime/region.hh"

using namespace viyojit;

namespace
{

const char greeting[] = "hello, battery-backed world";

} // namespace

int
main(int argc, char **argv)
{
    const std::string backing =
        argc > 1 ? argv[1] : "/tmp/viyojit_quickstart.img";

    runtime::RuntimeConfig config;
    config.dirtyBudgetPages = 8; // tiny on purpose: watch it enforce
    config.startEpochThread = true;
    config.epochMicros = 1000; // the paper's 1 ms epoch

    {
        auto region = runtime::NvRegion::create(backing, 256_KiB,
                                                config);
        char *mem = static_cast<char *>(region->base());
        std::printf("region: %llu pages of %llu bytes, budget %llu\n",
                    (unsigned long long)region->pageCount(),
                    (unsigned long long)region->pageSize(),
                    (unsigned long long)config.dirtyBudgetPages);

        // Ordinary stores; Viyojit tracks them via write faults.
        std::strcpy(mem, greeting);
        for (std::uint64_t p = 0; p < region->pageCount(); ++p)
            mem[p * region->pageSize() + 64] = static_cast<char>(p);

        const runtime::RegionStats stats = region->stats();
        std::printf("wrote every page: faults=%llu dirty=%llu "
                    "(<= budget), proactive copies=%llu\n",
                    (unsigned long long)stats.writeFaults,
                    (unsigned long long)stats.dirtyPages,
                    (unsigned long long)stats.proactiveCopies);

        // Power is about to fail: flush the dirty set on "battery".
        const std::uint64_t flushed = region->flushAll();
        std::printf("emergency flush wrote %llu pages; battery only "
                    "ever needs to cover %llu\n",
                    (unsigned long long)flushed,
                    (unsigned long long)config.dirtyBudgetPages);
    }

    // Reboot: recover the region from the backing file.
    auto recovered = runtime::NvRegion::recover(backing, config);
    const char *mem = static_cast<const char *>(recovered->base());
    std::printf("recovered: \"%s\"\n", mem);
    std::printf("page 5 tag: %d (expected 5)\n",
                mem[5 * recovered->pageSize() + 64]);
    bool intact = std::strcmp(mem, greeting) == 0;
    for (std::uint64_t p = 0; p < recovered->pageCount(); ++p)
        intact = intact &&
                 mem[p * recovered->pageSize() + 64] ==
                     static_cast<char>(p);
    std::printf("content %s\n", intact ? "verified" : "CORRUPT");
    return intact ? 0 : 1;
}
