/**
 * @file
 * KV workloads: closed-loop YCSB clients driving kvstore -> pheap ->
 * runtime::NvRegion on real memory, with a power cut, a restart and a
 * durability check at the end of every cycle.
 *
 * A run has one cycle per `kSecondsPerCycle` of --seconds.  Each
 * cycle sets the store up from nothing (region create, heap format,
 * dataset load), warms up until the dirty set and the device-bytes
 * ratio have levelled off, serves for about `kSecondsPerCycle` (so a
 * cut always follows the same amount of serving), cuts power
 * (NvRegion::flushAll), then restarts from the cut image (recover +
 * attach) `kRestartsPerCut` times, each time checking every
 * acknowledged write against the client's version table.  End-to-end
 * metrics are medians over the timed windows (throughput, latency) or
 * over the cycles (setup, cut, restart, device bytes).  A traced run
 * interleaves traced and untraced cycles, then
 * replays the first traced cycle's operations on plain memory and
 * runs one negative self-check cycle.
 */

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <exception>
#include <filesystem>
#include <latch>
#include <optional>
#include <thread>

#include "common/distributions.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "kvstore/kvstore.hh"
#include "perfbench/bench.hh"
#include "pheap/nv_space.hh"
#include "pheap/pheap.hh"
#include "runtime/region.hh"

namespace viyojit::perfbench
{
namespace
{

namespace fs = std::filesystem;

constexpr std::uint64_t kValueBytes = 900;
constexpr std::uint64_t kKeyBytes = 16; // "user" + 12 digits
constexpr std::uint64_t kRegionBytes = 128_MiB;
constexpr double kBudgetFraction = 0.11;
constexpr unsigned kSecondsPerCycle = 2;
constexpr unsigned kMinCycles = 3;

/** Restarts of each cut image: restart_s is their median. */
constexpr unsigned kRestartsPerCut = 3;

/** Thread slots in the span log. */
constexpr unsigned kMainThread = 0;
constexpr unsigned kClientThread0 = 1;
constexpr unsigned kEpochThread = 3;
constexpr unsigned kReplayThread0 = 4;

/** Warm-up: poll period, polls before a decision, and the cap. */
constexpr std::int64_t kWarmupPollNs = 100'000'000;
constexpr unsigned kWarmupMinPolls = 3;
constexpr unsigned kWarmupMaxPolls = 30;

/** Untraced runs sample the dirty set once per this many ops. */
constexpr std::uint64_t kBudgetSamplePeriod = 1024;

struct KvSpec
{
    double readFraction;
    unsigned clients;
    unsigned shards;
    unsigned copiers;
    std::uint64_t records; // over all clients
};

KvSpec
specFor(const std::string &workload)
{
    if (workload == "kv_update_1c")
        return {0.50, 1, 1, 0, 40000}; // YCSB-A, RuntimeConfig defaults
    if (workload == "kv_read_2c")
        return {0.95, 2, 2, 1, 40000}; // YCSB-B, 2 shards, 1 copier
    fatal("unknown KV workload '", workload, "'");
}

std::uint64_t
mix64(std::uint64_t x)
{
    // SplitMix64 finalizer: decorrelates seeds of sibling streams.
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Zero-filled anonymous memory (the plain-memory baseline). */
class AnonMemory
{
  public:
    explicit AnonMemory(std::uint64_t bytes) : bytes_(bytes)
    {
        void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            fatal("mmap of ", bytes, " plain bytes failed");
        base_ = static_cast<char *>(p);
    }

    ~AnonMemory() { ::munmap(base_, bytes_); }

    AnonMemory(const AnonMemory &) = delete;
    AnonMemory &operator=(const AnonMemory &) = delete;

    char *base() { return base_; }

  private:
    char *base_ = nullptr;
    std::uint64_t bytes_;
};

/**
 * One client's slice of the data set: its keys, the seeded operation
 * stream, and the version table every read and restart is checked
 * against.  Values are a function of (key, version, seed), so the
 * expected bytes of any acknowledged write can be rebuilt.
 */
class ClientData
{
  public:
    ClientData(std::uint64_t first_key, std::uint64_t records,
               std::uint64_t value_seed)
        : valueSeed_(value_seed), versions_(records, 0)
    {
        keys_.reserve(records);
        char buf[24];
        for (std::uint64_t i = 0; i < records; ++i) {
            std::snprintf(buf, sizeof(buf), "user%012llu",
                          static_cast<unsigned long long>(first_key + i));
            keys_.emplace_back(buf);
        }
    }

    std::uint64_t records() const { return keys_.size(); }
    const std::string &key(std::uint64_t i) const { return keys_[i]; }
    std::uint64_t version(std::uint64_t i) const { return versions_[i]; }
    void acknowledge(std::uint64_t i) { ++versions_[i]; }

    /** Forget every acknowledged update (a fresh load follows). */
    void reset() { std::fill(versions_.begin(), versions_.end(), 0); }

    /** Build the value of key `i` at `version` into `out`. */
    void
    fill(std::string &out, std::uint64_t i, std::uint64_t version) const
    {
        out.resize(kValueBytes);
        std::memcpy(out.data(), &i, sizeof(i));
        std::memcpy(out.data() + 8, &version, sizeof(version));
        std::memset(out.data() + 16, fillByte(i, version),
                    kValueBytes - 16);
    }

    /** True when `value` is exactly key `i` at its latest version. */
    bool
    matches(const std::string &value, std::uint64_t i) const
    {
        const std::uint64_t version = versions_[i];
        if (value.size() != kValueBytes ||
            std::memcmp(value.data(), &i, sizeof(i)) != 0 ||
            std::memcmp(value.data() + 8, &version, sizeof(version)) != 0)
            return false;
        const char want = fillByte(i, version);
        return std::all_of(value.begin() + 16, value.end(),
                           [want](char c) { return c == want; });
    }

  private:
    char
    fillByte(std::uint64_t i, std::uint64_t version) const
    {
        return static_cast<char>(mix64(valueSeed_ ^ (i * 31 + version)));
    }

    std::uint64_t valueSeed_;
    std::vector<std::string> keys_;
    std::vector<std::uint64_t> versions_;
};

/** One store over one client's slice of memory. */
struct Shelf
{
    std::unique_ptr<pheap::PlainNvSpace> space;
    std::unique_ptr<pheap::PersistentHeap> heap;
    std::unique_ptr<kvstore::KvStore> store;
};

Shelf
formatShelf(char *base, std::uint64_t bytes, std::uint64_t records)
{
    Shelf shelf;
    shelf.space = std::make_unique<pheap::PlainNvSpace>(base, bytes);
    shelf.heap = std::make_unique<pheap::PersistentHeap>(
        pheap::PersistentHeap::create(*shelf.space));
    shelf.store = std::make_unique<kvstore::KvStore>(
        kvstore::KvStore::create(*shelf.heap, records + records * 3 / 10));
    // Updates are Redis SETs: a fresh value object per update.
    shelf.store->setAllocateOnUpdate(true);
    return shelf;
}

/** Insert every key at version 0; false on a refused insert. */
bool
loadShelf(Shelf &shelf, const ClientData &data)
{
    std::string value;
    for (std::uint64_t i = 0; i < data.records(); ++i) {
        data.fill(value, i, 0);
        if (!shelf.store->insert(data.key(i), value))
            return false;
    }
    return true;
}

/** Serving phases the coordinator steps the clients through. */
enum Phase : int
{
    warmup = 0,
    timed = 1,
    stop = 2,
};

/**
 * Timed serving is measured in windows of this length, and the run's
 * throughput and latency figures are medians over every window of
 * every cycle: many short samples ride out the bursts of host noise
 * that a handful of per-cycle figures cannot.
 */
constexpr std::int64_t kWindowNs = 500'000'000;

/** What the coordinator tells the clients. */
struct ServeControl
{
    std::atomic<int> phase{Phase::warmup};
    /** Start and length of the timed windows (set before `phase`
     *  turns timed). */
    std::atomic<std::int64_t> timedStartNs{0};
    std::atomic<std::int64_t> windowNs{kWindowNs};
};

/** One client's ops in one measurement window. */
struct WindowTally
{
    LogHistogram reads = latencyHistogram();
    LogHistogram writes = latencyHistogram();
    std::uint64_t ops = 0;
};

/** Throughput and latency of one window, over all clients. */
struct ServeFigures
{
    double opsPerS = 0.0;
    double readP50Us = 0.0, readP999Us = 0.0;
    double writeP50Us = 0.0, writeP99Us = 0.0;
};

/** Latency and fault accounting of one op type over a timed phase. */
struct OpTally
{
    LogHistogram latency = latencyHistogram();
    std::uint64_t ops = 0;
    // Traced only: ops that saw a write fault vs ops that did not.
    std::uint64_t faults = 0;
    std::uint64_t faultingOps = 0;
    double faultingNs = 0.0;
    std::uint64_t cleanOps = 0;
    double cleanNs = 0.0;

    void
    merge(const OpTally &o)
    {
        latency.merge(o.latency);
        ops += o.ops;
        faults += o.faults;
        faultingOps += o.faultingOps;
        faultingNs += o.faultingNs;
        cleanOps += o.cleanOps;
        cleanNs += o.cleanNs;
    }
};

/** What one client did in one cycle (owned by its thread). */
struct alignas(64) ClientTally
{
    std::atomic<std::uint64_t> ops{0};
    std::atomic<std::uint64_t> userBytes{0};

    OpTally reads;
    OpTally writes;
    std::vector<WindowTally> windows;
    std::uint64_t warmupOps = 0;
    std::uint64_t timedUserBytes = 0;
    std::int64_t firstTimedNs = 0;
    std::int64_t lastTimedNs = 0;

    std::uint64_t wrongReads = 0;
    std::uint64_t failedPuts = 0;
    std::uint64_t budgetSamples = 0;
    std::uint64_t budgetBreaches = 0;
    std::uint64_t maxDirty = 0;
};

/** Sums of RegionStats deltas over timed phases (traced cycles). */
struct StatsDelta
{
    std::uint64_t writeFaults = 0, blockedEvictions = 0,
                  shedEvictions = 0, backoffRetries = 0,
                  starvedFaults = 0, proactiveCopies = 0,
                  bytesPersisted = 0, runSubmits = 0,
                  runPagesCoalesced = 0, runFallbacks = 0,
                  metaWriteErrors = 0, storedBytes = 0,
                  compressedPages = 0, watermarkRefills = 0,
                  proactiveDonations = 0, quotaSteals = 0;

    void
    add(const runtime::RegionStats &a, const runtime::RegionStats &b)
    {
        writeFaults += b.writeFaults - a.writeFaults;
        blockedEvictions += b.blockedEvictions - a.blockedEvictions;
        shedEvictions += b.shedEvictions - a.shedEvictions;
        backoffRetries += b.backoffRetries - a.backoffRetries;
        starvedFaults += b.starvedFaults - a.starvedFaults;
        proactiveCopies += b.proactiveCopies - a.proactiveCopies;
        bytesPersisted += b.bytesPersisted - a.bytesPersisted;
        runSubmits += b.runSubmits - a.runSubmits;
        runPagesCoalesced += b.runPagesCoalesced - a.runPagesCoalesced;
        runFallbacks += b.runFallbacks - a.runFallbacks;
        metaWriteErrors +=
            b.metaEntryWriteErrors - a.metaEntryWriteErrors;
        storedBytes += b.storedBytesPersisted - a.storedBytesPersisted;
        compressedPages += (b.compressedPersists + b.compressBypasses) -
                           (a.compressedPersists + a.compressBypasses);
        watermarkRefills += b.watermarkRefills - a.watermarkRefills;
        proactiveDonations +=
            b.proactiveDonations - a.proactiveDonations;
        quotaSteals += b.quotaSteals - a.quotaSteals;
    }
};

/** Per-cycle figures the run summarises. */
struct CycleFigures
{
    double setupS = 0.0;
    std::vector<ServeFigures> windows;
    double cutMs = 0.0;
    std::vector<double> restartS;
    double deviceBytesPerUserByte = 0.0;
    std::uint64_t readOps = 0, writeOps = 0;
    std::uint64_t warmupOps = 0;
    std::uint64_t timedOps = 0;
    std::uint64_t cutPages = 0;
    std::uint64_t dirtyAtCut = 0;
};

/** What one restart found. */
struct RestartOutcome
{
    double seconds = 0.0;      ///< recover + attach, until serving
    std::uint64_t checked = 0; ///< acknowledged writes checked
    std::uint64_t lost = 0;    ///< of those, missing or wrong
    runtime::RuntimeRecoveryReport report;
};

/** Op counts of a cycle, so the replay can run the same stream. */
struct ReplayPlan
{
    std::uint64_t streamSeed = 0;
    std::vector<std::uint64_t> warmupOps;
    std::vector<std::uint64_t> timedOps;
};

/** Traced-cycle accumulators behind the per-layer metrics. */
struct LayerTally
{
    StatsDelta delta;
    OpTally reads, writes;
    double timedNs = 0.0;
    std::uint64_t budgetPages = 0;
    std::uint64_t maxDirty = 0;
    std::vector<double> cutPages, dirtyAtCut, verifiedPages;
    double cutNs = 0.0;
    std::uint64_t cutPagesTotal = 0;
    std::uint64_t checksumMismatches = 0, quarantined = 0;
    std::uint64_t misses = 0;
    std::uint64_t freeListHits = 0, allocations = 0;
    double bytesInUse = 0.0, liveBytes = 0.0;
    std::vector<ServeFigures> windows;
};

/** Median over windows of one figure. */
double
medianOf(const std::vector<ServeFigures> &windows,
         double ServeFigures::*field)
{
    std::vector<double> v;
    for (const ServeFigures &w : windows)
        v.push_back(w.*field);
    return median(v);
}

class KvBench
{
  public:
    KvBench(const Options &options, Result &result)
        : options_(options), result_(result),
          spec_(specFor(options.workload)), tracer_(options.trace),
          half_(kRegionBytes / spec_.clients)
    {
        fs::create_directories(options.dataDir);
        path_ = (fs::path(options.dataDir) / "region.img").string();
        copyPath_ = (fs::path(options.dataDir) / "precut.img").string();
        const std::uint64_t per = spec_.records / spec_.clients;
        for (unsigned c = 0; c < spec_.clients; ++c)
            data_.emplace_back(c * per, per, mix64(options.seed) + c);
        sizeBudget();
    }

    ~KvBench()
    {
        for (const std::string &p : {path_, copyPath_}) {
            std::error_code ec;
            fs::remove(p, ec);
            fs::remove(p + ".meta", ec);
        }
    }

    KvBench(const KvBench &) = delete;
    KvBench &operator=(const KvBench &) = delete;

    void run();

    const Tracer &tracer() const { return tracer_; }

  private:
    /** Budget = 11% of the pages a plain-memory load occupies. */
    void sizeBudget();

    runtime::RuntimeConfig
    regionConfig(bool traced) const
    {
        runtime::RuntimeConfig cfg;
        cfg.dirtyBudgetPages = budgetPages_;
        cfg.shards = spec_.shards;
        cfg.copierThreads = spec_.copiers;
        // Traced cycles drive epochs from the benchmark's own thread
        // (same period, same epochTick body) so each tick is timed.
        cfg.startEpochThread = !traced;
        return cfg;
    }

    std::uint64_t
    streamSeed(unsigned cycle) const
    {
        return mix64(options_.seed * 1000003 + cycle);
    }

    CycleFigures runCycle(unsigned cycle, bool traced,
                          bool negative_check, std::int64_t serve_ns,
                          ReplayPlan *plan);

    /** The client loop shared by the store and the plain replay. */
    void serve(unsigned client, Shelf &shelf, runtime::NvRegion *region,
               std::uint64_t stream_seed, const ServeControl &control,
               ClientTally &tally, std::uint64_t warmup_limit,
               std::uint64_t timed_limit, bool traced,
               std::uint64_t parent);

    /** Recover the image at `path`, attach, and check every
     *  acknowledged write. */
    RestartOutcome restartAndVerify(const std::string &path, bool traced,
                                    std::uint64_t parent);

    void replayOnPlainMemory(const ReplayPlan &plan);
    void summarise(const std::vector<CycleFigures> &untraced);

    const Options &options_;
    Result &result_;
    KvSpec spec_;
    Tracer tracer_;
    std::uint64_t half_;
    std::string path_;
    std::string copyPath_;
    std::vector<ClientData> data_;
    std::uint64_t budgetPages_ = 0;
    std::uint64_t heapPages_ = 0;

    LayerTally layers_;
    double plainOpsPerS_ = 0.0;
    double plainReadP50Us_ = 0.0;
    double plainWriteP50Us_ = 0.0;
    std::uint64_t negativeLost_ = 0;
};

void
KvBench::sizeBudget()
{
    std::uint64_t pages = 0;
    for (unsigned c = 0; c < spec_.clients; ++c) {
        AnonMemory mem(half_);
        Shelf shelf = formatShelf(mem.base(), half_, data_[c].records());
        if (!loadShelf(shelf, data_[c]))
            fatal("sizing load did not fit in ", half_, " bytes");
        pages += (shelf.heap->stats().bumpUsed + 4095) / 4096;
    }
    heapPages_ = pages;
    budgetPages_ = std::max<std::uint64_t>(
        2 * spec_.shards,
        static_cast<std::uint64_t>(static_cast<double>(pages) *
                                   kBudgetFraction));
}

void
KvBench::serve(unsigned client, Shelf &shelf, runtime::NvRegion *region,
               std::uint64_t stream_seed, const ServeControl &control,
               ClientTally &tally, std::uint64_t warmup_limit,
               std::uint64_t timed_limit, bool traced,
               std::uint64_t parent)
{
    ClientData &data = data_[client];
    kvstore::KvStore &store = *shelf.store;
    Rng rng(stream_seed ^ mix64(client + 1));
    ScrambledZipfianDistribution zipf(data.records());
    const bool replay = region == nullptr;
    const bool snapshot = traced && !replay;
    const unsigned slot =
        (replay ? kReplayThread0 : kClientThread0) + client;
    std::string value;
    std::uint64_t done = 0;

    while (true) {
        int now_phase = control.phase.load(std::memory_order_acquire);
        if (replay) // the replay follows op counts, not a clock
            now_phase = done < warmup_limit ? Phase::warmup
                                            : Phase::timed;
        if (now_phase == Phase::stop ||
            (replay && done >= warmup_limit + timed_limit))
            break;
        const bool in_timed = now_phase == Phase::timed;
        const bool read = rng.nextDouble() < spec_.readFraction;
        const std::uint64_t k = zipf.next(rng);
        const std::string &key = data.key(k);

        runtime::RegionStats before;
        if (snapshot && in_timed)
            before = region->stats();
        bool ok = true;
        std::int64_t t0 = 0;
        std::int64_t t1 = 0;
        if (read) {
            t0 = nowNs();
            const std::optional<std::string> got = store.get(key);
            t1 = nowNs();
            ok = got.has_value() && data.matches(*got, k);
            if (!ok)
                ++tally.wrongReads;
        } else {
            data.fill(value, k, data.version(k) + 1);
            t0 = nowNs();
            ok = store.put(key, value);
            t1 = nowNs();
            if (ok) {
                data.acknowledge(k);
                tally.userBytes.fetch_add(kValueBytes,
                                          std::memory_order_relaxed);
                if (in_timed)
                    tally.timedUserBytes += kValueBytes;
            } else {
                ++tally.failedPuts;
            }
        }
        ++done;
        tally.ops.fetch_add(1, std::memory_order_relaxed);

        std::uint64_t faults = 0;
        if (snapshot && in_timed) {
            const runtime::RegionStats after = region->stats();
            faults = after.writeFaults - before.writeFaults;
            ++tally.budgetSamples;
            tally.maxDirty = std::max(tally.maxDirty, after.dirtyPages);
            if (after.dirtyPages > after.dirtyBudgetPages)
                ++tally.budgetBreaches;
        } else if (region && done % kBudgetSamplePeriod == 0) {
            const runtime::RegionStats s = region->stats();
            ++tally.budgetSamples;
            if (s.dirtyPages > s.dirtyBudgetPages)
                ++tally.budgetBreaches;
        }

        if (!in_timed) {
            ++tally.warmupOps;
            continue;
        }
        if (tally.firstTimedNs == 0)
            tally.firstTimedNs = t0;
        tally.lastTimedNs = t1;
        OpTally &ot = read ? tally.reads : tally.writes;
        ot.latency.record(static_cast<std::uint64_t>(t1 - t0));
        ++ot.ops;
        const std::int64_t w =
            (t0 - control.timedStartNs.load(std::memory_order_relaxed)) /
            control.windowNs.load(std::memory_order_relaxed);
        if (w >= 0 && w < static_cast<std::int64_t>(tally.windows.size())) {
            WindowTally &wt = tally.windows[static_cast<std::size_t>(w)];
            (read ? wt.reads : wt.writes)
                .record(static_cast<std::uint64_t>(t1 - t0));
            ++wt.ops;
        }
        if (traced) {
            const double ns = static_cast<double>(t1 - t0);
            if (faults > 0) {
                ot.faults += faults;
                ++ot.faultingOps;
                ot.faultingNs += ns;
            } else {
                ++ot.cleanOps;
                ot.cleanNs += ns;
            }
            const SpanName name =
                replay ? (read ? SpanName::plainGet : SpanName::plainPut)
                       : (read ? SpanName::get : SpanName::put);
            tracer_.add(slot, name, tracer_.newId(slot), parent, t0, t1,
                        faults);
        }
    }
}

RestartOutcome
KvBench::restartAndVerify(const std::string &path, bool traced,
                          std::uint64_t parent)
{
    RestartOutcome out;
    const std::int64_t t0 = nowNs();
    std::unique_ptr<runtime::NvRegion> region =
        runtime::NvRegion::recover(path, regionConfig(traced));
    tracer_.record(kMainThread, SpanName::recover, parent, t0);
    char *base = static_cast<char *>(region->base());
    std::vector<Shelf> shelves(spec_.clients);
    for (unsigned c = 0; c < spec_.clients; ++c) {
        Shelf &shelf = shelves[c];
        shelf.space =
            std::make_unique<pheap::PlainNvSpace>(base + c * half_, half_);
        try {
            std::int64_t t = nowNs();
            shelf.heap = std::make_unique<pheap::PersistentHeap>(
                pheap::PersistentHeap::attach(*shelf.space));
            tracer_.record(kMainThread, SpanName::heapAttach, parent, t);
            t = nowNs();
            shelf.store = std::make_unique<kvstore::KvStore>(
                kvstore::KvStore::attach(*shelf.heap));
            tracer_.record(kMainThread, SpanName::storeAttach, parent, t);
        } catch (const FatalError &) {
            // An image the heap cannot attach to has lost everything:
            // the check below counts every write of this client lost.
        }
    }
    out.seconds = nsToSeconds(nowNs() - t0);
    out.report = region->recoveryReport();

    const std::int64_t tv = nowNs();
    for (unsigned c = 0; c < spec_.clients; ++c) {
        const ClientData &data = data_[c];
        out.checked += data.records();
        if (!shelves[c].store) {
            out.lost += data.records();
            continue;
        }
        kvstore::KvStore &store = *shelves[c].store;
        for (std::uint64_t i = 0; i < data.records(); ++i) {
            const std::optional<std::string> got = store.get(data.key(i));
            if (!got || !data.matches(*got, i))
                ++out.lost;
        }
    }
    tracer_.record(kMainThread, SpanName::verify, parent, tv, out.checked);
    shelves.clear();
    region.reset();
    return out;
}

CycleFigures
KvBench::runCycle(unsigned cycle, bool traced, bool negative_check,
                  std::int64_t serve_ns, ReplayPlan *plan)
{
    CycleFigures fig;
    const std::uint64_t parent = tracer_.newId(kMainThread);
    const std::int64_t cycle_start = nowNs();
    const runtime::RuntimeConfig cfg = regionConfig(traced);
    for (ClientData &data : data_)
        data.reset();

    // --- Setup: create, format, load -------------------------------
    const std::int64_t t_setup = nowNs();
    std::unique_ptr<runtime::NvRegion> region =
        runtime::NvRegion::create(path_, kRegionBytes, cfg);
    tracer_.record(kMainThread, SpanName::regionCreate, parent, t_setup);

    ServeControl control;
    std::jthread epoch_driver;
    if (traced) {
        epoch_driver = std::jthread([&](std::stop_token stop) {
            while (!stop.stop_requested()) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(cfg.epochMicros));
                if (stop.stop_requested())
                    break;
                const std::int64_t t = nowNs();
                region->epochTick();
                if (control.phase.load(std::memory_order_relaxed) ==
                    Phase::timed)
                    tracer_.record(kEpochThread, SpanName::epochTick,
                                   parent, t);
            }
        });
    }

    std::vector<Shelf> shelves;
    char *base = static_cast<char *>(region->base());
    const std::int64_t t_format = nowNs();
    for (unsigned c = 0; c < spec_.clients; ++c)
        shelves.push_back(formatShelf(base + c * half_, half_,
                                      data_[c].records()));
    tracer_.record(kMainThread, SpanName::heapCreate, parent, t_format);

    std::vector<ClientTally> tallies(spec_.clients);
    std::latch loaded(spec_.clients);
    std::atomic<bool> load_failed{false};
    std::vector<std::uint64_t> hits_after_load(spec_.clients, 0);
    std::vector<std::exception_ptr> errors(spec_.clients);
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < spec_.clients; ++c) {
        clients.emplace_back([&, c]() {
            bool counted_down = false;
            try {
                const std::int64_t t = nowNs();
                if (!loadShelf(shelves[c], data_[c]))
                    load_failed.store(true);
                tracer_.record(kClientThread0 + c, SpanName::load, parent,
                               t, data_[c].records());
                hits_after_load[c] =
                    shelves[c].heap->stats().freeListHits;
                loaded.count_down();
                counted_down = true;
                if (!load_failed.load())
                    serve(c, shelves[c], region.get(), streamSeed(cycle),
                          control, tallies[c], 0, 0, traced, parent);
            } catch (...) {
                errors[c] = std::current_exception();
                load_failed.store(true);
                if (!counted_down)
                    loaded.count_down();
            }
        });
    }
    loaded.wait();
    fig.setupS = nsToSeconds(nowNs() - t_setup);
    if (load_failed.load())
        control.phase.store(Phase::stop);

    // --- Warm-up: until the dirty set and device bytes level off ----
    auto user_bytes = [&]() {
        std::uint64_t sum = 0;
        for (const ClientTally &t : tallies)
            sum += t.userBytes.load(std::memory_order_relaxed);
        return sum;
    };
    runtime::RegionStats prev = region->stats();
    std::uint64_t prev_user = user_bytes();
    double prev_ratio = -1.0;
    unsigned polls = 0;
    unsigned steady = 0;
    while (control.phase.load() == Phase::warmup && polls < kWarmupMaxPolls) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(kWarmupPollNs));
        ++polls;
        const runtime::RegionStats now = region->stats();
        const std::uint64_t user = user_bytes();
        const double ratio =
            user > prev_user
                ? static_cast<double>(now.bytesPersisted -
                                      prev.bytesPersisted) /
                      static_cast<double>(user - prev_user)
                : 0.0;
        const double budget = static_cast<double>(now.dirtyBudgetPages);
        const bool dirty_full =
            static_cast<double>(now.dirtyPages) >= 0.95 * budget ||
            std::abs(static_cast<double>(now.dirtyPages) -
                     static_cast<double>(prev.dirtyPages)) <=
                0.02 * budget;
        const bool ratio_level =
            prev_ratio >= 0.0 &&
            std::abs(ratio - prev_ratio) <=
                0.15 * std::max({ratio, prev_ratio, 1e-9});
        steady = dirty_full && ratio_level ? steady + 1 : 0;
        prev = now;
        prev_user = user;
        prev_ratio = ratio;
        if (polls >= kWarmupMinPolls && steady >= 2)
            break;
    }
    if (polls >= kWarmupMaxPolls)
        result_.info["warmup_capped_cycles"] += 1.0;

    // --- Timed serving --------------------------------------------
    const std::int64_t window_ns = std::min(kWindowNs, serve_ns);
    for (ClientTally &t : tallies)
        t.windows.resize(static_cast<std::size_t>(serve_ns / window_ns));
    const runtime::RegionStats s0 = region->stats();
    const std::int64_t t_timed = nowNs();
    control.windowNs.store(window_ns, std::memory_order_relaxed);
    control.timedStartNs.store(t_timed, std::memory_order_relaxed);
    if (control.phase.load() != Phase::stop)
        control.phase.store(Phase::timed, std::memory_order_release);
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(t_timed + serve_ns)));
    control.phase.store(Phase::stop);
    for (std::thread &t : clients)
        t.join();
    const std::int64_t t_timed_end = nowNs();
    const runtime::RegionStats s1 = region->stats();
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
    if (load_failed.load())
        result_.fail(1, "dataset load refused an insert");

    OpTally reads, writes;
    std::uint64_t timed_user = 0;
    for (unsigned c = 0; c < spec_.clients; ++c) {
        const ClientTally &t = tallies[c];
        reads.merge(t.reads);
        writes.merge(t.writes);
        timed_user += t.timedUserBytes;
        fig.warmupOps += t.warmupOps;
        result_.attempted += t.ops.load() + t.budgetSamples;
        result_.fail(t.wrongReads, "read returned bytes other than the "
                                   "last acknowledged version");
        result_.fail(t.failedPuts, "put returned false");
        result_.fail(t.budgetBreaches,
                     "sampled dirty pages above the budget");
    }
    fig.readOps = reads.ops;
    fig.writeOps = writes.ops;
    fig.timedOps = reads.ops + writes.ops;
    for (std::size_t w = 0; w < tallies[0].windows.size(); ++w) {
        WindowTally all;
        for (const ClientTally &t : tallies) {
            all.reads.merge(t.windows[w].reads);
            all.writes.merge(t.windows[w].writes);
            all.ops += t.windows[w].ops;
        }
        if (all.ops == 0)
            continue;
        fig.windows.push_back(
            {static_cast<double>(all.ops) / nsToSeconds(window_ns),
             percentileUs(all.reads, 50), percentileUs(all.reads, 99.9),
             percentileUs(all.writes, 50), percentileUs(all.writes, 99)});
    }
    fig.deviceBytesPerUserByte =
        timed_user > 0 ? static_cast<double>(s1.bytesPersisted -
                                             s0.bytesPersisted) /
                             static_cast<double>(timed_user)
                       : 0.0;

    if (plan) {
        plan->streamSeed = streamSeed(cycle);
        for (const ClientTally &t : tallies) {
            plan->warmupOps.push_back(t.warmupOps);
            plan->timedOps.push_back(t.reads.ops + t.writes.ops);
        }
    }

    if (traced) {
        layers_.delta.add(s0, s1);
        layers_.reads.merge(reads);
        layers_.writes.merge(writes);
        layers_.timedNs += static_cast<double>(t_timed_end - t_timed);
        layers_.budgetPages = s1.dirtyBudgetPages;
        layers_.windows.insert(layers_.windows.end(), fig.windows.begin(),
                               fig.windows.end());
        for (unsigned c = 0; c < spec_.clients; ++c) {
            layers_.maxDirty =
                std::max(layers_.maxDirty, tallies[c].maxDirty);
            const kvstore::StoreStats &ss = shelves[c].store->stats();
            const pheap::HeapStats hs = shelves[c].heap->stats();
            layers_.misses += ss.misses;
            layers_.freeListHits += hs.freeListHits - hits_after_load[c];
            layers_.allocations += ss.updates;
            layers_.bytesInUse += static_cast<double>(hs.bytesInUse);
            layers_.liveBytes += static_cast<double>(
                shelves[c].store->size() * (kKeyBytes + kValueBytes));
        }
    }

    // --- Power cut -------------------------------------------------
    fig.dirtyAtCut = region->stats().dirtyPages;
    if (negative_check) {
        // Snapshot the image as it stands before the cut's flush:
        // restarting from it must lose acknowledged writes.
        fs::copy_file(path_, copyPath_,
                      fs::copy_options::overwrite_existing);
        fs::copy_file(path_ + ".meta", copyPath_ + ".meta",
                      fs::copy_options::overwrite_existing);
    }
    const std::int64_t t_cut = nowNs();
    fig.cutPages = region->flushAll();
    const std::int64_t cut_ns = nowNs() - t_cut;
    fig.cutMs = static_cast<double>(cut_ns) * 1e-6;
    tracer_.record(kMainThread, SpanName::flushAll, parent, t_cut,
                   fig.cutPages);
    if (epoch_driver.joinable()) {
        epoch_driver.request_stop();
        epoch_driver.join();
    }
    if (traced) {
        layers_.cutPages.push_back(static_cast<double>(fig.cutPages));
        layers_.dirtyAtCut.push_back(static_cast<double>(fig.dirtyAtCut));
        layers_.cutNs += static_cast<double>(cut_ns);
        layers_.cutPagesTotal += fig.cutPages;
    }
    shelves.clear();
    region.reset();

    // --- Restart and durability check --------------------------------
    for (unsigned r = 0; r < kRestartsPerCut; ++r) {
        const RestartOutcome got = restartAndVerify(path_, traced, parent);
        fig.restartS.push_back(got.seconds);
        result_.attempted += got.checked;
        result_.fail(got.lost, "acknowledged writes missing or wrong "
                               "after restart");
        if (traced && r == 0) {
            layers_.verifiedPages.push_back(
                static_cast<double>(got.report.verifiedPages));
            layers_.checksumMismatches += got.report.checksumMismatches;
            layers_.quarantined += got.report.quarantined.size();
        }
    }
    if (negative_check)
        negativeLost_ = restartAndVerify(copyPath_, false, parent).lost;
    tracer_.add(kMainThread, SpanName::cycle, parent, 0, cycle_start,
                nowNs());
    char line[200];
    std::snprintf(line, sizeof(line),
                  "cycle %u %s setup_s %.4f warmup_ops %llu ops_per_s "
                  "%.0f read_p999_us %.1f write_p99_us %.1f cut_ms %.2f "
                  "restart_s %.4f",
                  cycle, traced ? "traced" : "untraced", fig.setupS,
                  static_cast<unsigned long long>(fig.warmupOps),
                  medianOf(fig.windows, &ServeFigures::opsPerS),
                  medianOf(fig.windows, &ServeFigures::readP999Us),
                  medianOf(fig.windows, &ServeFigures::writeP99Us),
                  fig.cutMs, median(fig.restartS));
    result_.log.push_back(line);
    std::error_code ec;
    fs::remove(path_, ec);
    fs::remove(path_ + ".meta", ec);
    return fig;
}

void
KvBench::replayOnPlainMemory(const ReplayPlan &plan)
{
    // The same seeded operation stream, the same op counts, on plain
    // anonymous memory: the store's own cost without Viyojit.
    for (ClientData &data : data_)
        data.reset();
    AnonMemory mem(kRegionBytes);
    std::vector<Shelf> shelves;
    for (unsigned c = 0; c < spec_.clients; ++c) {
        shelves.push_back(formatShelf(mem.base() + c * half_, half_,
                                      data_[c].records()));
        if (!loadShelf(shelves.back(), data_[c]))
            result_.fail(1, "plain replay load refused an insert");
    }
    std::vector<ClientTally> tallies(spec_.clients);
    ServeControl control; // unused: the replay counts ops
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < spec_.clients; ++c) {
        clients.emplace_back([&, c]() {
            serve(c, shelves[c], nullptr, plan.streamSeed, control,
                  tallies[c], plan.warmupOps[c], plan.timedOps[c], true,
                  0);
        });
    }
    for (std::thread &t : clients)
        t.join();
    OpTally reads, writes;
    std::int64_t first = 0, last = 0;
    for (const ClientTally &t : tallies) {
        reads.merge(t.reads);
        writes.merge(t.writes);
        first = first == 0 ? t.firstTimedNs
                           : std::min(first, t.firstTimedNs);
        last = std::max(last, t.lastTimedNs);
        result_.attempted += t.ops.load();
        result_.fail(t.wrongReads, "plain replay read wrong bytes");
        result_.fail(t.failedPuts, "plain replay put returned false");
    }
    plainOpsPerS_ = last > first
                        ? static_cast<double>(reads.ops + writes.ops) /
                              nsToSeconds(last - first)
                        : 0.0;
    plainReadP50Us_ = percentileUs(reads.latency, 50);
    plainWriteP50Us_ = percentileUs(writes.latency, 50);
}

void
KvBench::run()
{
    result_.params["records"] = std::to_string(spec_.records);
    result_.params["clients"] = std::to_string(spec_.clients);
    result_.params["shards"] = std::to_string(spec_.shards);
    result_.params["copiers"] = std::to_string(spec_.copiers);
    result_.params["read_fraction"] = std::to_string(spec_.readFraction);
    result_.params["value_bytes"] = std::to_string(kValueBytes);
    result_.params["region_mib"] = std::to_string(kRegionBytes >> 20);
    result_.params["heap_pages"] = std::to_string(heapPages_);
    result_.params["budget_pages"] = std::to_string(budgetPages_);
    const unsigned cycles =
        std::max(kMinCycles, options_.seconds / kSecondsPerCycle);
    result_.params["cycles"] = std::to_string(cycles);
    result_.params["restarts_per_cut"] = std::to_string(kRestartsPerCut);

    const std::int64_t serve_ns =
        static_cast<std::int64_t>(options_.seconds) * 1'000'000'000 /
        cycles;
    std::vector<CycleFigures> untraced;
    ReplayPlan plan;
    unsigned cycle = 0;
    for (unsigned i = 0; i < cycles; ++i) {
        untraced.push_back(runCycle(cycle++, false, false, serve_ns,
                                    nullptr));
        if (options_.trace)
            runCycle(cycle++, true, false, serve_ns,
                     i == 0 ? &plan : nullptr);
    }
    if (options_.trace) {
        replayOnPlainMemory(plan);
        // A short extra cycle whose pre-cut image must lose writes.
        runCycle(cycle++, false, true, serve_ns / 4, nullptr);
        if (negativeLost_ == 0)
            result_.fail(1, "negative self-check: restarting from the "
                            "pre-flush image lost no writes");
    }
    summarise(untraced);
}

void
KvBench::summarise(const std::vector<CycleFigures> &untraced)
{
    auto med = [](const std::vector<CycleFigures> &figs,
                  double CycleFigures::*field) {
        std::vector<double> v;
        for (const CycleFigures &f : figs)
            v.push_back(f.*field);
        return median(v);
    };
    std::uint64_t reads = 0, writes = 0, warmup = 0;
    std::vector<double> restarts;
    std::vector<ServeFigures> windows;
    for (const CycleFigures &f : untraced) {
        reads += f.readOps;
        writes += f.writeOps;
        warmup += f.warmupOps;
        restarts.insert(restarts.end(), f.restartS.begin(),
                        f.restartS.end());
        windows.insert(windows.end(), f.windows.begin(), f.windows.end());
    }
    const std::uint64_t n = untraced.size();
    auto &e = result_.endToEnd;
    e["setup_s"] = {med(untraced, &CycleFigures::setupS), "s", n};
    e["ops_per_s"] = {medianOf(windows, &ServeFigures::opsPerS), "1/s",
                      reads + writes};
    e["read_p50_us"] = {medianOf(windows, &ServeFigures::readP50Us), "us",
                        reads};
    e["read_p999_us"] = {medianOf(windows, &ServeFigures::readP999Us),
                         "us",
                        reads};
    e["write_p50_us"] = {medianOf(windows, &ServeFigures::writeP50Us),
                         "us", writes};
    e["write_p99_us"] = {medianOf(windows, &ServeFigures::writeP99Us),
                         "us", writes};
    e["cut_flush_ms"] = {med(untraced, &CycleFigures::cutMs), "ms", n};
    e["restart_s"] = {median(restarts), "s", restarts.size()};
    e["device_bytes_per_user_byte"] = {
        med(untraced, &CycleFigures::deviceBytesPerUserByte), "ratio",
        n};
    e["peak_rss_mib"] = {peakRssMib(), "MiB", 1};
    result_.info["warmup_ops_per_cycle"] =
        static_cast<double>(warmup) / static_cast<double>(n);
    result_.info["windows"] = static_cast<double>(windows.size());

    if (!options_.trace)
        return;
    const LayerTally &L = layers_;
    auto &p = result_.perLayer;
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    auto count = [](std::uint64_t v) {
        return Metric{static_cast<double>(v), "count", 1};
    };

    p["kvstore.plain_ops_per_s"] = {plainOpsPerS_, "1/s", 1};
    p["kvstore.plain_read_p50_us"] = {plainReadP50Us_, "us", 1};
    p["kvstore.plain_write_p50_us"] = {plainWriteP50Us_, "us", 1};
    p["kvstore.misses"] = count(L.misses);
    p["pheap.free_list_hit_ratio"] = {
        ratio(static_cast<double>(L.freeListHits),
              static_cast<double>(L.allocations)),
        "ratio", L.allocations};
    p["pheap.bytes_in_use_per_live_byte"] = {
        ratio(L.bytesInUse, L.liveBytes), "ratio", 1};
    result_.info["viyojit_over_plain_ops_ratio"] =
        ratio(e["ops_per_s"].value, plainOpsPerS_);

    // Fault path.
    const StatsDelta &d = L.delta;
    p["runtime.write_faults"] = count(d.writeFaults);
    p["runtime.faults_per_read"] = {
        ratio(static_cast<double>(L.reads.faults),
              static_cast<double>(L.reads.ops)),
        "faults/op", L.reads.ops};
    p["runtime.faults_per_write"] = {
        ratio(static_cast<double>(L.writes.faults),
              static_cast<double>(L.writes.ops)),
        "faults/op", L.writes.ops};
    // Mean extra latency of a faulting op over a clean op of the same
    // type, per fault, weighted across types by faulting-op count.
    double extra = 0.0;
    std::uint64_t weight = 0;
    for (const OpTally *t : {&L.reads, &L.writes}) {
        if (t->faultingOps == 0 || t->cleanOps == 0)
            continue;
        const double faulting =
            t->faultingNs / static_cast<double>(t->faultingOps);
        const double clean = t->cleanNs / static_cast<double>(t->cleanOps);
        const double faults_per_op = static_cast<double>(t->faults) /
                                     static_cast<double>(t->faultingOps);
        extra += static_cast<double>(t->faultingOps) *
                 (faulting - clean) / faults_per_op;
        weight += t->faultingOps;
    }
    p["runtime.faulting_op_extra_us"] = {
        weight > 0 ? extra / static_cast<double>(weight) * 1e-3 : 0.0,
        "us", weight};
    p["runtime.blocked_evictions"] = count(d.blockedEvictions);
    p["runtime.shed_evictions"] = count(d.shedEvictions);
    p["runtime.backoff_retries"] = count(d.backoffRetries);
    p["runtime.starved_faults"] = count(d.starvedFaults);

    // Epochs (ticks timed on the benchmark's epoch thread).
    std::vector<double> ticks;
    double busy = 0.0;
    for (const SpanRecord &s : tracer_.spansNamed(SpanName::epochTick)) {
        ticks.push_back(static_cast<double>(s.endNs - s.startNs) * 1e-3);
        busy += static_cast<double>(s.endNs - s.startNs);
    }
    std::sort(ticks.begin(), ticks.end());
    auto exact_pct = [](const std::vector<double> &sorted, double q) {
        if (sorted.empty())
            return 0.0;
        const std::size_t i = static_cast<std::size_t>(
            q * static_cast<double>(sorted.size() - 1));
        return sorted[i];
    };
    p["runtime.epochs"] = count(ticks.size());
    p["runtime.epoch_tick_p50_us"] = {exact_pct(ticks, 0.50), "us",
                                      ticks.size()};
    p["runtime.epoch_tick_p99_us"] = {exact_pct(ticks, 0.99), "us",
                                      ticks.size()};
    p["runtime.epoch_busy_frac"] = {ratio(busy, L.timedNs), "ratio", 1};

    // Copy / flush.
    p["runtime.proactive_copies"] = count(d.proactiveCopies);
    p["runtime.bytes_persisted"] = {
        static_cast<double>(d.bytesPersisted), "B", 1};
    p["runtime.run_submits"] = count(d.runSubmits);
    p["runtime.pages_per_run"] = {
        ratio(static_cast<double>(d.runPagesCoalesced),
              static_cast<double>(d.runSubmits)),
        "pages", d.runSubmits};
    p["runtime.run_fallbacks"] = count(d.runFallbacks);
    // Raw persists store every byte they persist.
    p["runtime.stored_bytes_ratio"] = {
        d.compressedPages > 0
            ? ratio(static_cast<double>(d.storedBytes),
                    static_cast<double>(d.bytesPersisted))
            : 1.0,
        "ratio", 1};
    p["runtime.meta_write_errors"] = count(d.metaWriteErrors);
    p["runtime.cut_pages"] = {median(L.cutPages), "pages",
                              L.cutPages.size()};
    p["runtime.cut_us_per_page"] = {
        ratio(L.cutNs * 1e-3, static_cast<double>(L.cutPagesTotal)), "us",
        L.cutPagesTotal};

    // Budget pool.
    p["core.budget_pages"] = {static_cast<double>(L.budgetPages), "pages",
                              1};
    p["core.max_dirty_sampled"] = {static_cast<double>(L.maxDirty),
                                   "pages", 1};
    p["core.dirty_at_cut"] = {median(L.dirtyAtCut), "pages",
                              L.dirtyAtCut.size()};
    p["core.watermark_refills"] = count(d.watermarkRefills);
    p["core.proactive_donations"] = count(d.proactiveDonations);
    p["core.quota_steals"] = count(d.quotaSteals);

    // Recovery.
    auto span_median_s = [&](SpanName name) {
        std::vector<double> v;
        for (const SpanRecord &s : tracer_.spansNamed(name))
            v.push_back(nsToSeconds(s.endNs - s.startNs));
        return Metric{median(v), "s", v.size()};
    };
    p["runtime.recover_s"] = span_median_s(SpanName::recover);
    p["pheap.attach_s"] = span_median_s(SpanName::heapAttach);
    p["kvstore.attach_s"] = span_median_s(SpanName::storeAttach);
    p["runtime.verified_pages"] = {median(L.verifiedPages), "pages",
                                   L.verifiedPages.size()};
    p["runtime.checksum_mismatches"] = count(L.checksumMismatches);
    p["runtime.quarantined_pages"] = count(L.quarantined);

    const double base_rate = e["ops_per_s"].value;
    p["trace.overhead_frac"] = {
        base_rate > 0
            ? 1.0 - medianOf(L.windows, &ServeFigures::opsPerS) / base_rate
            : 0.0,
        "ratio", L.windows.size()};
    p["check.unflushed_lost_writes"] = count(negativeLost_);
}

} // namespace

Result
runKvWorkload(const Options &options)
{
    Result result;
    KvBench bench(options, result);
    bench.run();
    if (!options.spansPath.empty() && options.trace &&
        !bench.tracer().writeCsv(options.spansPath))
        fatal("cannot write spans to ", options.spansPath);
    return result;
}

} // namespace viyojit::perfbench
