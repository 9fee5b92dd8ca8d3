/**
 * @file
 * Concurrency scalability ablation over the real-memory runtime:
 * N application threads run a YCSB-B-like mix (95% read / 5% update,
 * scrambled-zipfian keys) against one NvRegion, each thread owning a
 * contiguous record partition, while the epoch thread samples recency
 * and the budget machinery admits/evicts under it.  Sweeps thread
 * count x shard count and emits BENCH_concurrency.json with wall
 * throughput and the update (fault-path) latency tail.
 *
 * The interesting comparison is shards=1 (the pre-sharding global
 * lock) against sharded configurations: on a many-core host the
 * sharded fault path scales with threads while the global lock
 * serializes them.  `host_cpus` is recorded in every row because the
 * curve is only meaningful given the cores that ran it — on a 1-CPU
 * container every configuration time-slices one core and the sweep
 * degenerates to an overhead (not scaling) measurement.
 *
 * --smoke: two gates, exit 1 on either failing.  (1) Median-of-5
 * single-thread parity — sharded (8 shards) throughput must stay
 * within 5% of the unsharded baseline; deliberately inline
 * persistence (no copier threads) on both sides so it compares the
 * fault path alone.  (2) Multicore scaling — on a host with more
 * than one CPU, 4-thread/4-shard throughput must reach 1.5x the
 * 1-thread/1-shard baseline with p99 no worse than 2x; on a 1-CPU
 * host the scaling gate is SKIPPED with a loud warning, because
 * every configuration time-slices one core and the ratio measures
 * scheduler fairness, not scaling.  This is the gate ci.sh runs.
 *
 * A note on the low p50 at high thread counts (e.g. ~67 ns at 8
 * threads / 1 shard): it is genuine, not a timer bug.  Records are
 * partitioned per thread, so 8 threads draw their zipfian keys from
 * 1024-record partitions — the hot set tightens, most updates land
 * on pages that are already writable (admitted earlier, not yet
 * re-protected by the epoch scan), and a non-faulting update costs
 * only the 100-byte memset plus two steady_clock reads.  Past 50%
 * non-faulting updates, p50 IS that cost.  The timed pattern's
 * minimum measurable cost is calibrated at startup and every run's
 * p50 is sanity-checked against it, so a real histogram/timer bug
 * (mis-binned percentile, dropped samples) fails loudly instead of
 * producing a plausible-looking small number.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/distributions.hh"
#include "common/histogram.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "common/types.hh"
#include "runtime/region.hh"

using namespace viyojit;

namespace
{

constexpr std::uint64_t kRecordSize = 1024;
constexpr std::uint64_t kTotalRecords = 8192;  // 8 MiB region
constexpr std::uint64_t kBudgetPages = 256;
constexpr std::uint64_t kFieldSize = 100;
constexpr double kUpdateFraction = 0.05;  // YCSB-B

/** Defeats dead-code elimination of the read path. */
volatile std::uint64_t g_sink = 0;

struct RunConfig
{
    unsigned threads = 1;
    unsigned shards = 1;
    unsigned copierThreads = 0;
    std::uint64_t opsPerThread = 30000;
    std::uint64_t seed = 42;
};

struct RunOutcome
{
    std::uint64_t totalOps = 0;
    double wallSeconds = 0.0;
    double opsPerSec = 0.0;
    std::uint64_t updateP50Ns = 0;
    std::uint64_t updateP99Ns = 0;
    std::uint64_t writeFaults = 0;
    std::uint64_t blockedEvictions = 0;
    std::uint64_t proactiveCopies = 0;
    std::uint64_t bytesPersisted = 0;
    std::uint64_t epochs = 0;
    std::uint64_t watermarkRefills = 0;
    std::uint64_t proactiveDonations = 0;
    std::uint64_t shedEvictions = 0;
    std::vector<runtime::RegionStats::ShardCounters> perShard;
};

/**
 * Minimum measurable cost of the timed update pattern: one field
 * memset into always-writable scratch bracketed by the same two
 * steady_clock reads the worker uses.  Calibrated once (min of 4096
 * samples — min, not median, because the floor must be a true lower
 * bound for any real update, which does at least this much work).
 */
std::uint64_t
timerFloorNs()
{
    static const std::uint64_t floor_ns = [] {
        alignas(64) static char scratch[kFieldSize];
        std::uint64_t lo = ~0ULL;
        for (int i = 0; i < 4096; ++i) {
            const auto t0 = std::chrono::steady_clock::now();
            std::memset(scratch, static_cast<char>('a' + (i % 26)),
                        kFieldSize);
            const auto ns = std::chrono::duration_cast<
                                std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
            g_sink = g_sink +
                     static_cast<unsigned char>(scratch[i % kFieldSize]);
            lo = std::min(lo, static_cast<std::uint64_t>(ns));
        }
        return lo;
    }();
    return floor_ns;
}

std::string
scratchPath()
{
    static std::atomic<unsigned> counter{0};
    return "/tmp/viyojit_abl_concurrency_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".img";
}

RunOutcome
runOnce(const RunConfig &rc)
{
    runtime::RuntimeConfig cfg;
    cfg.dirtyBudgetPages = kBudgetPages;
    cfg.shards = rc.shards;
    cfg.copierThreads = rc.copierThreads;
    cfg.epochMicros = 1000;
    cfg.startEpochThread = true;

    const std::string path = scratchPath();
    auto region = runtime::NvRegion::create(
        path, kTotalRecords * kRecordSize, cfg);
    char *base = static_cast<char *>(region->base());

    std::atomic<unsigned> ready{0};
    std::atomic<bool> go{false};
    std::mutex mergeLock;
    LogHistogram updateLatency;

    auto worker = [&](unsigned tid) {
        // Contiguous record partition, as DriverConfig::partitions
        // carves it: thread `tid` owns [first, first + count).
        const std::uint64_t per = kTotalRecords / rc.threads;
        const std::uint64_t first = tid * per;
        const std::uint64_t count = tid + 1 == rc.threads
                                        ? kTotalRecords - first
                                        : per;
        ScrambledZipfianDistribution zipf(count);
        Rng rng(rc.seed * 0x9e3779b97f4a7c15ULL + tid + 1);
        LogHistogram local;
        std::uint64_t checksum = 0;

        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire))
            std::this_thread::yield();

        for (std::uint64_t op = 0; op < rc.opsPerThread; ++op) {
            const std::uint64_t key =
                first + std::min<std::uint64_t>(zipf.next(rng),
                                                count - 1);
            char *record = base + key * kRecordSize;
            if (rng.nextDouble() < kUpdateFraction) {
                const std::uint64_t field =
                    rng.nextBounded(kRecordSize / kFieldSize);
                const auto t0 = std::chrono::steady_clock::now();
                std::memset(record + field * kFieldSize,
                            static_cast<char>('a' + (op % 26)),
                            kFieldSize);
                const auto ns =
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
                local.record(static_cast<std::uint64_t>(ns));
            } else {
                // Touch a stride of the record like a field read.
                for (std::uint64_t off = 0; off < kRecordSize;
                     off += kFieldSize)
                    checksum += static_cast<unsigned char>(
                        record[off]);
            }
        }

        g_sink = g_sink + checksum;
        std::lock_guard<std::mutex> lk(mergeLock);
        updateLatency.merge(local);
    };

    std::vector<std::thread> threads;
    threads.reserve(rc.threads);
    for (unsigned t = 0; t < rc.threads; ++t)
        threads.emplace_back(worker, t);
    while (ready.load() < rc.threads)
        std::this_thread::yield();

    const auto start = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (std::thread &t : threads)
        t.join();
    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();

    const runtime::RegionStats stats = region->stats();
    region.reset();
    std::remove(path.c_str());
    std::remove((path + ".meta").c_str());

    RunOutcome out;
    out.totalOps = rc.opsPerThread * rc.threads;
    out.wallSeconds = wall;
    out.opsPerSec =
        wall > 0.0 ? static_cast<double>(out.totalOps) / wall : 0.0;
    out.updateP50Ns = updateLatency.percentile(50.0);
    out.updateP99Ns = updateLatency.percentile(99.0);
    out.writeFaults = stats.writeFaults;
    out.blockedEvictions = stats.blockedEvictions;
    out.proactiveCopies = stats.proactiveCopies;
    out.bytesPersisted = stats.bytesPersisted;
    out.epochs = stats.epochs;
    out.watermarkRefills = stats.watermarkRefills;
    out.proactiveDonations = stats.proactiveDonations;
    out.shedEvictions = stats.shedEvictions;
    out.perShard = stats.perShard;

    // Sanity gate on the latency path: a p50 below the calibrated
    // cost of the bare timed pattern cannot come from real updates —
    // it means the histogram or timer path is broken (mis-binned
    // percentile, dropped samples, wrong clock).  Fail the whole
    // bench rather than emit a plausible-looking wrong number.
    if (updateLatency.count() > 0 &&
        out.updateP50Ns < timerFloorNs()) {
        std::cerr << "FAIL: update_p50_ns " << out.updateP50Ns
                  << " below the calibrated timed-pattern floor of "
                  << timerFloorNs()
                  << " ns — histogram/timer path is broken\n";
        std::exit(1);
    }
    return out;
}

double
median(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    return xs[xs.size() / 2];
}

/** Render one per-shard counter as a JSON array. */
template <typename Get>
std::string
shardArray(const std::vector<runtime::RegionStats::ShardCounters> &ps,
           Get get)
{
    std::string out = "[";
    for (std::size_t i = 0; i < ps.size(); ++i) {
        if (i)
            out += ", ";
        out += std::to_string(get(ps[i]));
    }
    out += "]";
    return out;
}

/**
 * Warn when the container exposes one CPU: every configuration then
 * time-slices a single core, so thread/shard sweeps measure overhead,
 * not scaling.  Returns the CPU count so callers can record it.
 */
unsigned
reportHostCpus(const char *context)
{
    const unsigned host_cpus = std::thread::hardware_concurrency();
    std::cout << context << ": host_cpus " << host_cpus << "\n";
    if (host_cpus == 1)
        std::cout << "warn: host_cpus == 1 — thread/shard sweeps "
                     "time-slice one core; treat results as overhead, "
                     "not scaling, measurements\n";
    return host_cpus;
}

/**
 * Multicore scaling gate: 4 threads over 4 shards (copiers draining)
 * must beat the 1-thread/1-shard baseline by 1.5x in throughput
 * without more than doubling the update p99.  Only meaningful when
 * the host actually has cores to scale onto — on a 1-CPU container
 * every configuration time-slices one core, the ratio measures
 * scheduler fairness, and the gate is skipped NON-FATALLY with a
 * warning loud enough to notice in a CI log.
 */
int
runMulticoreGate(unsigned host_cpus)
{
    if (host_cpus <= 1) {
        std::cout
            << "\n"
            << "=====================================================\n"
            << "WARN: host_cpus == 1 — SKIPPING the multicore scaling\n"
            << "WARN: gate (4t/4s vs 1t/1s needs real cores).  This\n"
            << "WARN: host cannot validate multicore scaling; run the\n"
            << "WARN: gate on a multi-core machine before trusting\n"
            << "WARN: concurrency changes.\n"
            << "=====================================================\n";
        return 0;
    }

    RunConfig baseline;
    baseline.threads = 1;
    baseline.shards = 1;
    baseline.opsPerThread = 30000;

    RunConfig multi;
    multi.threads = 4;
    multi.shards = 4;
    multi.copierThreads = 2;
    multi.opsPerThread = 30000;

    constexpr int kRuns = 3;
    std::vector<double> baseTput, multiTput, baseP99, multiP99;
    for (int i = 0; i < kRuns; ++i) {
        RunConfig a = baseline, b = multi;
        a.seed += static_cast<std::uint64_t>(i);
        b.seed += static_cast<std::uint64_t>(i);
        const RunOutcome oa = runOnce(a);
        const RunOutcome ob = runOnce(b);
        baseTput.push_back(oa.opsPerSec);
        multiTput.push_back(ob.opsPerSec);
        baseP99.push_back(static_cast<double>(oa.updateP99Ns));
        multiP99.push_back(static_cast<double>(ob.updateP99Ns));
    }
    const double speedup = median(baseTput) > 0.0
                               ? median(multiTput) / median(baseTput)
                               : 0.0;
    const double p99_ratio = median(baseP99) > 0.0
                                 ? median(multiP99) / median(baseP99)
                                 : 0.0;

    std::cout << "multicore: 4t/4s vs 1t/1s speedup " << speedup
              << " (need >= 1.5), p99 ratio " << p99_ratio
              << " (need <= 2.0)\n";
    const bool ok = speedup >= 1.5 && p99_ratio <= 2.0;
    std::cout << (ok ? "PASS" : "FAIL")
              << ": multicore scaling gate\n";
    return ok ? 0 : 1;
}

int
runSmoke()
{
    // The 1-thread parity gate is valid on any CPU count (both sides
    // time-slice identically), but record the environment so a CI log
    // reader can judge the absolute numbers.
    const unsigned host_cpus = reportHostCpus("smoke");

    // Fault path alone: inline persistence on both sides.
    RunConfig unsharded;
    unsharded.threads = 1;
    unsharded.shards = 1;
    unsharded.opsPerThread = 30000;

    RunConfig sharded = unsharded;
    sharded.shards = 8;

    // Strictly interleave the two configurations so slow drift in
    // host load (CI neighbours on a shared core) hits both medians
    // alike instead of biasing whichever config ran later.
    constexpr int kRuns = 5;
    std::vector<double> baseRuns, shardRuns;
    for (int i = 0; i < kRuns; ++i) {
        RunConfig a = unsharded, b = sharded;
        a.seed += static_cast<std::uint64_t>(i);
        b.seed += static_cast<std::uint64_t>(i);
        baseRuns.push_back(runOnce(a).opsPerSec);
        shardRuns.push_back(runOnce(b).opsPerSec);
    }
    const double base = median(baseRuns);
    const double shard = median(shardRuns);
    const double ratio = base > 0.0 ? shard / base : 0.0;

    std::cout << "smoke: unsharded " << base << " ops/s, sharded(8) "
              << shard << " ops/s, ratio " << ratio << "\n";
    const bool ok = ratio >= 0.95;
    std::cout << (ok ? "PASS" : "FAIL")
              << ": 1-thread sharded throughput within 5% of the "
                 "unsharded baseline\n";
    if (!ok)
        return 1;
    return runMulticoreGate(host_cpus);
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--smoke")
            return runSmoke();
        // Single configuration (diagnostics / profiling):
        //   --one <threads> <shards> <copiers> <ops-per-thread>
        if (std::string(argv[i]) == "--one" && i + 4 < argc) {
            RunConfig rc;
            rc.threads = static_cast<unsigned>(std::atoi(argv[i + 1]));
            rc.shards = static_cast<unsigned>(std::atoi(argv[i + 2]));
            rc.copierThreads =
                static_cast<unsigned>(std::atoi(argv[i + 3]));
            rc.opsPerThread =
                static_cast<std::uint64_t>(std::atoll(argv[i + 4]));
            const RunOutcome out = runOnce(rc);
            std::cout << "threads " << rc.threads << " shards "
                      << rc.shards << " copiers " << rc.copierThreads
                      << ": " << out.opsPerSec / 1000.0 << " Kops/s, "
                      << "p50 " << out.updateP50Ns / 1000.0
                      << " us, p99 " << out.updateP99Ns / 1000.0
                      << " us, faults " << out.writeFaults
                      << ", evict " << out.blockedEvictions
                      << ", proact " << out.proactiveCopies
                      << ", epochs " << out.epochs << ", refills "
                      << out.watermarkRefills << ", donates "
                      << out.proactiveDonations << ", shed "
                      << out.shedEvictions << "\n";
            return 0;
        }
    }

    const unsigned hostCpus = reportHostCpus("sweep");
    const std::vector<unsigned> threadSweep = {1, 2, 4, 8};
    const std::vector<unsigned> shardSweep = {1, 8};

    Table table("Ablation: YCSB-B scalability, threads x shards "
                "(host cpus: " + std::to_string(hostCpus) + ")");
    table.setHeader({"Threads", "Shards", "Copiers", "Ops",
                     "Kops/s", "Upd p50 (us)", "Upd p99 (us)",
                     "Faults", "Refills", "Donates", "Shed",
                     "Evict", "Proact", "MiB", "Epochs"});

    struct Row
    {
        RunConfig rc;
        RunOutcome out;
    };
    std::vector<Row> rows;

    for (unsigned shards : shardSweep) {
        for (unsigned threads : threadSweep) {
            RunConfig rc;
            rc.threads = threads;
            rc.shards = shards;
            // Background copiers only make sense with shards to
            // drain; the unsharded rows are the pre-PR baseline.
            rc.copierThreads = shards > 1 ? 2 : 0;
            const RunOutcome out = runOnce(rc);
            rows.push_back({rc, out});
            table.addRow(
                {std::to_string(threads), std::to_string(shards),
                 std::to_string(rc.copierThreads),
                 std::to_string(out.totalOps),
                 Table::fmt(out.opsPerSec / 1000.0, 1),
                 Table::fmt(static_cast<double>(out.updateP50Ns) /
                            1000.0, 1),
                 Table::fmt(static_cast<double>(out.updateP99Ns) /
                            1000.0, 1),
                 std::to_string(out.writeFaults),
                 std::to_string(out.watermarkRefills),
                 std::to_string(out.proactiveDonations),
                 std::to_string(out.shedEvictions),
                 std::to_string(out.blockedEvictions),
                 std::to_string(out.proactiveCopies),
                 Table::fmt(static_cast<double>(out.bytesPersisted) /
                            (1024.0 * 1024.0), 1),
                 std::to_string(out.epochs)});
        }
    }
    table.print(std::cout);

    std::ofstream json("BENCH_concurrency.json");
    json << "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        json << "  {\"threads\": " << r.rc.threads
             << ", \"shards\": " << r.rc.shards
             << ", \"copier_threads\": " << r.rc.copierThreads
             << ", \"ops\": " << r.out.totalOps
             << ", \"wall_seconds\": " << r.out.wallSeconds
             << ", \"throughput_ops_per_sec\": " << r.out.opsPerSec
             << ", \"update_p50_ns\": " << r.out.updateP50Ns
             << ", \"update_p99_ns\": " << r.out.updateP99Ns
             << ", \"write_faults\": " << r.out.writeFaults
             << ", \"watermark_refills\": " << r.out.watermarkRefills
             << ", \"proactive_donations\": "
             << r.out.proactiveDonations
             << ", \"shed_evictions\": " << r.out.shedEvictions
             << ", \"per_shard\": {"
             << "\"watermark_refills\": "
             << shardArray(r.out.perShard,
                    [](const auto &s) { return s.watermarkRefills; })
             << ", \"proactive_donations\": "
             << shardArray(r.out.perShard,
                    [](const auto &s) { return s.proactiveDonations; })
             << "}"
             << ", \"host_cpus\": " << hostCpus
             << ", \"single_cpu_warning\": "
             << (hostCpus == 1 ? "true" : "false") << "}"
             << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "]\n";
    std::cout << "\nWrote BENCH_concurrency.json\n";
    return 0;
}
