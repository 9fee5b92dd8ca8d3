/**
 * @file
 * Shared pieces of the repository benchmark: command-line options,
 * the result record every workload fills in, summary statistics, and
 * the in-memory span log of the traced run.
 *
 * The benchmark only calls the library's public functions; spans are
 * recorded here, around those calls, never inside the library.
 */

#ifndef VIYOJIT_PERFBENCH_BENCH_HH
#define VIYOJIT_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.hh"

namespace viyojit::perfbench
{

/** Parsed command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    unsigned seconds = 10;
    bool trace = false;

    /** Where the traced run writes its span log (CSV), if anywhere. */
    std::string spansPath;

    /** Scratch directory for backing files (created, then emptied). */
    std::string dataDir = ".bench_build/perfbench/data";

    /** Stamp fields supplied by the wrapper script. */
    std::string gitSha = "unknown";
};

/** Monotonic wall clock in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline double
nsToSeconds(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/** Median of a sample (0 when empty); the sample is reordered. */
double median(std::vector<double> values);

/** Percentile of a histogram of nanosecond values, in microseconds. */
double percentileUs(const LogHistogram &hist, double p);

/** A latency histogram with enough resolution (1/1024) that medians
 *  of nearby runs differ in their digits instead of snapping to one
 *  bucket bound. */
inline LogHistogram
latencyHistogram()
{
    return LogHistogram(10);
}

/** Peak resident set of this process in MiB. */
double peakRssMib();

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    /** Samples the value summarises (1 for a count or a ratio). */
    std::uint64_t samples = 1;
};

/** Everything one run reports. */
struct Result
{
    /** End-to-end metrics (reported by every run). */
    std::map<std::string, Metric> endToEnd;

    /** Per-layer metrics (traced run only). */
    std::map<std::string, Metric> perLayer;

    /** Information-only figures: printed and saved, never gated. */
    std::map<std::string, double> info;

    /** Workload parameters, for the stamp. */
    std::map<std::string, std::string> params;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** One line per cycle or repetition, printed as run. */
    std::vector<std::string> log;

    /** Human-readable reasons for each kind of failure seen. */
    std::vector<std::string> problems;

    void
    fail(std::uint64_t count, const std::string &why)
    {
        if (count == 0)
            return;
        failed += count;
        problems.push_back(why + " (" + std::to_string(count) + ")");
    }
};

/** Identifiers of the spans the benchmark records. */
enum class SpanName : std::uint32_t
{
    cycle,          ///< one setup -> serve -> cut -> restart cycle
    regionCreate,   ///< runtime::NvRegion::create
    heapCreate,     ///< pheap::PersistentHeap::create + KvStore::create
    load,           ///< dataset load through KvStore::insert
    get,            ///< KvStore::get (count = write faults seen)
    put,            ///< KvStore::put (count = write faults seen)
    epochTick,      ///< runtime::NvRegion::epochTick
    flushAll,       ///< runtime::NvRegion::flushAll (count = pages)
    recover,        ///< runtime::NvRegion::recover
    heapAttach,     ///< pheap::PersistentHeap::attach
    storeAttach,    ///< kvstore::KvStore::attach
    verify,         ///< post-restart check of every acknowledged write
    plainGet,       ///< KvStore::get on plain memory (replay)
    plainPut,       ///< KvStore::put on plain memory (replay)
    simRep,         ///< one simulator repetition
    ycsbLoad,       ///< ycsb::YcsbDriver::load
    ycsbRun,        ///< ycsb::YcsbDriver::run of one operation
    simCut,         ///< core::ViyojitManager::powerFailureFlush
    simVerify,      ///< core::ViyojitManager::verifyDurabilityChecked
};

const char *spanNameString(SpanName name);

/** One closed interval of benchmark code around a library call. */
struct SpanRecord
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Work counted at the same boundary (faults, pages, records). */
    std::uint64_t count = 0;
    SpanName name = SpanName::cycle;
    std::uint32_t thread = 0;
};

/**
 * In-memory span log.  Each thread writes only its own slot, in
 * fixed-size chunks, so recording never locks and never moves
 * earlier records.  Disabled tracers record nothing.
 */
class Tracer
{
  public:
    /** Thread slots: main, two clients, epoch driver, two replayers. */
    static constexpr unsigned maxThreads = 8;

    explicit Tracer(bool enabled);

    /** Fresh span id for `thread` (unique across threads). */
    std::uint64_t
    newId(unsigned thread)
    {
        return (static_cast<std::uint64_t>(thread) << 48) |
               ++slots_[thread].nextId;
    }

    /** Append a finished span (no-op when disabled). */
    void add(unsigned thread, SpanName name, std::uint64_t id,
             std::uint64_t parent, std::int64_t start_ns,
             std::int64_t end_ns, std::uint64_t count = 0);

    /** Append [start, now) under a fresh id. */
    void
    record(unsigned thread, SpanName name, std::uint64_t parent,
           std::int64_t start_ns, std::uint64_t count = 0)
    {
        if (enabled_)
            add(thread, name, newId(thread), parent, start_ns, nowNs(),
                count);
    }

    /** Every recorded span of `name`, in per-thread order. */
    std::vector<SpanRecord> spansNamed(SpanName name) const;

    /** Write every span as CSV; false when the file cannot be written. */
    bool writeCsv(const std::string &path) const;

  private:
    static constexpr std::size_t chunkSpans = 1 << 16;

    struct Slot
    {
        std::vector<std::unique_ptr<SpanRecord[]>> chunks;
        std::size_t usedInLast = chunkSpans;
        std::uint64_t nextId = 0;
    };

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &slot : slots_) {
            for (std::size_t c = 0; c < slot.chunks.size(); ++c) {
                const std::size_t used = c + 1 == slot.chunks.size()
                                             ? slot.usedInLast
                                             : chunkSpans;
                for (std::size_t i = 0; i < used; ++i)
                    fn(slot.chunks[c][i]);
            }
        }
    }

    bool enabled_;
    Slot slots_[maxThreads];
};

/** Run one workload; defined per workload family. */
Result runKvWorkload(const Options &options);
Result runSimWorkload(const Options &options);

} // namespace viyojit::perfbench

#endif // VIYOJIT_PERFBENCH_BENCH_HH
