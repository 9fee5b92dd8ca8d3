/**
 * @file
 * Simulator workload: the fig07 point (YCSB-A, 2 paper-GB budget,
 * 11% of the 17.5 paper-GB heap) through ycsb -> kvstore -> pheap ->
 * core::ViyojitManager -> mmu / sim / storage.
 *
 * The stack is assembled exactly as bench::runExperiment assembles it,
 * with the same configuration helpers, but the YCSB driver runs one
 * operation per YcsbDriver::run() call so that each client call can
 * be timed in wall-clock time.  The loop body of run() is unchanged
 * by that, so the virtual-time results are those of one run() over
 * every operation; the traced run checks this against
 * bench::runExperiment itself.
 *
 * Repetitions use one fixed operation count, so the virtual results
 * of every repetition must be identical; a repetition that differs
 * fails the run.
 */

#include <algorithm>
#include <cstdint>
#include <optional>

#include "bench/harness.hh"
#include "common/logging.hh"
#include "perfbench/bench.hh"

namespace viyojit::perfbench
{
namespace
{

constexpr double kBudgetPaperGb = 2.0;
constexpr std::uint64_t kOpsPerRep = 250000;
constexpr unsigned kMinReps = 3;
constexpr unsigned kMaxReps = 40;
constexpr std::uint64_t kValueBytes = 900;
constexpr unsigned kMainThread = 0;

/** The results of a repetition that must repeat exactly. */
struct VirtualOutcome
{
    Tick elapsed = 0;
    Tick readP50 = 0, readP99 = 0, writeP50 = 0, writeP99 = 0;
    Tick flushDuration = 0;
    std::uint64_t flushPages = 0;
    std::uint64_t ssdBytes = 0;
    std::uint64_t userBytes = 0;
    core::ControllerStats controller;

    bool
    operator==(const VirtualOutcome &o) const
    {
        const core::ControllerStats &a = controller;
        const core::ControllerStats &b = o.controller;
        return elapsed == o.elapsed && readP50 == o.readP50 &&
               readP99 == o.readP99 && writeP50 == o.writeP50 &&
               writeP99 == o.writeP99 &&
               flushDuration == o.flushDuration &&
               flushPages == o.flushPages && ssdBytes == o.ssdBytes &&
               userBytes == o.userBytes &&
               a.writeFaults == b.writeFaults &&
               a.blockedEvictions == b.blockedEvictions &&
               a.proactiveCopies == b.proactiveCopies &&
               a.inFlightWaits == b.inFlightWaits && a.epochs == b.epochs;
    }
};

struct RepFigures
{
    double setupS = 0.0;
    double loadS = 0.0;
    double runS = 0.0;
    double opsPerS = 0.0;
    double readP50Us = 0.0, readP999Us = 0.0;
    double writeP50Us = 0.0, writeP99Us = 0.0;
    double cutS = 0.0;
    double verifyS = 0.0;
    std::uint64_t reads = 0, writes = 0;
    VirtualOutcome virt;
};

bench::ExperimentConfig
experimentConfig(std::uint64_t seed)
{
    bench::ExperimentConfig cfg;
    cfg.workload = 'A';
    cfg.budgetPaperGb = kBudgetPaperGb;
    cfg.operationCount = kOpsPerRep;
    cfg.seed = seed;
    return cfg;
}

class SimBench
{
  public:
    SimBench(const Options &options, Result &result)
        : options_(options), result_(result), tracer_(options.trace),
          exp_(experimentConfig(options.seed))
    {}

    void run();

    const Tracer &tracer() const { return tracer_; }

  private:
    RepFigures runRep(bool traced);
    void summarise(const std::vector<RepFigures> &untraced,
                   const std::vector<RepFigures> &traced);

    const Options &options_;
    Result &result_;
    Tracer tracer_;
    bench::ExperimentConfig exp_;
    std::optional<VirtualOutcome> first_;
};

RepFigures
SimBench::runRep(bool traced)
{
    // Assembled as bench::runExperiment assembles it.
    RepFigures fig;
    const std::uint64_t parent = tracer_.newId(kMainThread);
    const std::int64_t t_setup = nowNs();
    sim::SimContext ctx;
    storage::Ssd ssd(ctx, exp_.ssd);

    core::ViyojitConfig core_cfg;
    core_cfg.pageSize = bench::PaperScale::pageSize;
    core_cfg.enforceBudget = true;
    core_cfg.dirtyBudgetPages =
        bench::PaperScale::paperGbPages(exp_.budgetPaperGb);
    core_cfg.epochLength = exp_.epochLength;
    core_cfg.maxOutstandingIos = exp_.maxOutstandingIos;
    core_cfg.flushTlbOnScan = exp_.flushTlbOnScan;
    core_cfg.continuousCopyTrigger = exp_.continuousCopyTrigger;
    core_cfg.hardwareAssist = exp_.hardwareAssist;
    core_cfg.updateTimeTieBreak = exp_.updateTimeTieBreak;
    core_cfg.legacyEpochScan = exp_.legacyEpochScan;
    const std::uint64_t capacity_pages =
        bench::PaperScale::paperGbPages(exp_.capacityPaperGb);
    core::ViyojitManager manager(ctx, ssd, core_cfg, exp_.mmuCosts,
                                 capacity_pages);
    const std::uint64_t region_bytes =
        capacity_pages * bench::PaperScale::pageSize;
    const Addr region = manager.vmmap(region_bytes);
    pheap::SimNvSpace space(manager, region, region_bytes);
    pheap::PersistentHeap heap = pheap::PersistentHeap::create(space);
    const std::uint64_t records =
        bench::recordsForHeap(exp_.heapPaperGb);
    kvstore::KvStore store =
        kvstore::KvStore::create(heap, records + records / 3);
    store.setAllocateOnUpdate(true);

    ycsb::WorkloadSpec spec = ycsb::standardWorkload(exp_.workload);
    spec.fieldCount = 10;
    spec.fieldLength = 90;
    ycsb::DriverConfig driver_cfg;
    driver_cfg.recordCount = records;
    driver_cfg.operationCount = 1; // one client call per run()
    driver_cfg.baseOpCost = exp_.baseOpCost;
    driver_cfg.seed = exp_.seed;
    driver_cfg.updateWritesFullValue = true;
    driver_cfg.zipfScaleShift = bench::PaperScale::scaleShift;
    ycsb::YcsbDriver driver(ctx, store, spec, driver_cfg);

    manager.start();
    const std::int64_t t_load = nowNs();
    driver.load();
    tracer_.record(kMainThread, SpanName::ycsbLoad, parent, t_load,
                   records);
    const std::int64_t t_loaded = nowNs();
    fig.loadS = nsToSeconds(t_loaded - t_load);
    fig.setupS = nsToSeconds(t_loaded - t_setup);

    // The load fills the budget, so the run starts in steady state.
    result_.info["dirty_over_budget_after_load"] =
        static_cast<double>(manager.dirtyPageCount()) /
        static_cast<double>(core_cfg.dirtyBudgetPages);

    const std::uint64_t ssd_before = ssd.bytesWritten();
    const core::ControllerStats ctl_before = manager.controller().stats();
    LogHistogram wall_read = latencyHistogram();
    LogHistogram wall_write = latencyHistogram();
    LogHistogram virt_read, virt_write; // YcsbDriver's resolution
    std::uint64_t breaches = 0;
    const std::int64_t t_run = nowNs();
    for (std::uint64_t i = 0; i < kOpsPerRep; ++i) {
        const std::int64_t t0 = nowNs();
        const ycsb::RunResult r = driver.run();
        const std::int64_t t1 = nowNs();
        const bool read = r.readLatency.count() > 0;
        (read ? wall_read : wall_write)
            .record(static_cast<std::uint64_t>(t1 - t0));
        // A one-op run's elapsed time is that op's latency.
        (read ? virt_read : virt_write).record(r.elapsed);
        fig.virt.elapsed += r.elapsed;
        if (manager.dirtyPageCount() > core_cfg.dirtyBudgetPages)
            ++breaches;
        if (traced)
            tracer_.add(kMainThread, SpanName::ycsbRun,
                        tracer_.newId(kMainThread), parent, t0, t1, 1);
    }
    const std::int64_t t_run_end = nowNs();
    fig.runS = nsToSeconds(t_run_end - t_run);
    fig.opsPerS = static_cast<double>(kOpsPerRep) / fig.runS;
    fig.reads = wall_read.count();
    fig.writes = wall_write.count();
    fig.readP50Us = percentileUs(wall_read, 50);
    fig.readP999Us = percentileUs(wall_read, 99.9);
    fig.writeP50Us = percentileUs(wall_write, 50);
    fig.writeP99Us = percentileUs(wall_write, 99);

    VirtualOutcome &v = fig.virt;
    v.readP50 = virt_read.percentile(50);
    v.readP99 = virt_read.percentile(99);
    v.writeP50 = virt_write.percentile(50);
    v.writeP99 = virt_write.percentile(99);
    v.ssdBytes = ssd.bytesWritten() - ssd_before;
    v.userBytes = fig.writes * kValueBytes;
    const core::ControllerStats &now = manager.controller().stats();
    v.controller.writeFaults = now.writeFaults - ctl_before.writeFaults;
    v.controller.blockedEvictions =
        now.blockedEvictions - ctl_before.blockedEvictions;
    v.controller.proactiveCopies =
        now.proactiveCopies - ctl_before.proactiveCopies;
    v.controller.inFlightWaits =
        now.inFlightWaits - ctl_before.inFlightWaits;
    v.controller.epochs = now.epochs - ctl_before.epochs;

    // Power cut, then the durability audit of the image it left.
    const std::int64_t t_cut = nowNs();
    const core::FlushReport flush = manager.powerFailureFlush();
    tracer_.record(kMainThread, SpanName::simCut, parent, t_cut,
                   flush.dirtyPagesAtFailure);
    const std::int64_t t_verify = nowNs();
    fig.cutS = nsToSeconds(t_verify - t_cut);
    const core::DurabilityAuditReport audit =
        manager.verifyDurabilityChecked();
    fig.verifyS = nsToSeconds(nowNs() - t_verify);
    tracer_.record(kMainThread, SpanName::simVerify, parent, t_verify,
                   audit.pagesChecked);
    tracer_.add(kMainThread, SpanName::simRep, parent, 0, t_setup, nowNs());
    v.flushDuration = flush.flushDuration;
    v.flushPages = flush.dirtyPagesAtFailure;

    result_.attempted += kOpsPerRep + audit.pagesChecked;
    result_.fail(breaches, "dirty pages above the budget after an op");
    result_.fail(audit.mismatchedPages,
                 "durable image differs from live content after the cut");
    result_.fail(store.size() == records ? 0 : 1,
                 "store lost records during the run");
    char line[200];
    std::snprintf(line, sizeof(line),
                  "rep %s setup_s %.4f ops_per_s %.0f cut_ms %.3f "
                  "verify_s %.4f",
                  traced ? "traced" : "untraced", fig.setupS, fig.opsPerS,
                  fig.cutS * 1e3, fig.verifyS);
    result_.log.push_back(line);
    if (!first_)
        first_ = v;
    else if (!(*first_ == v))
        result_.fail(1, "virtual-time results differ between "
                        "repetitions of one seed");
    return fig;
}

void
SimBench::run()
{
    result_.params["records"] =
        std::to_string(bench::recordsForHeap(exp_.heapPaperGb));
    result_.params["ops_per_rep"] = std::to_string(kOpsPerRep);
    result_.params["budget_pages"] = std::to_string(
        bench::PaperScale::paperGbPages(exp_.budgetPaperGb));
    result_.params["budget_paper_gb"] = std::to_string(kBudgetPaperGb);
    result_.params["heap_paper_gb"] = std::to_string(exp_.heapPaperGb);
    result_.params["page_bytes"] =
        std::to_string(bench::PaperScale::pageSize);
    result_.params["clients"] = "1";

    // Repeat until the untraced repetitions have run for --seconds.
    std::vector<RepFigures> untraced, traced;
    double measured = 0.0;
    while (untraced.size() < kMaxReps &&
           (untraced.size() < kMinReps || measured < options_.seconds)) {
        untraced.push_back(runRep(false));
        measured += untraced.back().runS;
        if (options_.trace)
            traced.push_back(runRep(true));
    }
    result_.params["reps"] = std::to_string(untraced.size());

    if (options_.trace) {
        // The per-op driving must reproduce fig07's own harness.
        const bench::ExperimentResult ref = bench::runExperiment(exp_);
        const VirtualOutcome &v = *first_;
        const bool same =
            ref.run.elapsed == v.elapsed &&
            ref.run.updateLatency.percentile(99) == v.writeP99 &&
            ref.run.readLatency.percentile(99) == v.readP99 &&
            ref.finalFlush.flushDuration == v.flushDuration &&
            ref.ssdBytesDuringRun == v.ssdBytes && ref.durable;
        result_.attempted += 1;
        result_.fail(same ? 0 : 1, "per-op driving differs from "
                                   "bench::runExperiment");
    }
    summarise(untraced, traced);
}

void
SimBench::summarise(const std::vector<RepFigures> &untraced,
                    const std::vector<RepFigures> &traced)
{
    auto med = [](const std::vector<RepFigures> &figs,
                  double RepFigures::*field) {
        std::vector<double> v;
        for (const RepFigures &f : figs)
            v.push_back(f.*field);
        return median(v);
    };
    std::uint64_t reads = 0, writes = 0;
    for (const RepFigures &f : untraced) {
        reads += f.reads;
        writes += f.writes;
    }
    const std::uint64_t n = untraced.size();
    const VirtualOutcome &v = *first_;
    auto &e = result_.endToEnd;
    e["setup_s"] = {med(untraced, &RepFigures::setupS), "s", n};
    e["ops_per_s"] = {med(untraced, &RepFigures::opsPerS), "1/s",
                      reads + writes};
    e["read_p50_us"] = {med(untraced, &RepFigures::readP50Us), "us",
                        reads};
    e["read_p999_us"] = {med(untraced, &RepFigures::readP999Us), "us",
                        reads};
    e["write_p50_us"] = {med(untraced, &RepFigures::writeP50Us), "us",
                         writes};
    e["write_p99_us"] = {med(untraced, &RepFigures::writeP99Us), "us",
                         writes};
    // The simulator's cut is powerFailureFlush; its "restart" is the
    // audit that proves the flushed image matches live content.
    e["cut_flush_ms"] = {med(untraced, &RepFigures::cutS) * 1e3, "ms", n};
    e["restart_s"] = {med(untraced, &RepFigures::verifyS), "s", n};
    e["device_bytes_per_user_byte"] = {
        static_cast<double>(v.ssdBytes) /
            static_cast<double>(std::max<std::uint64_t>(v.userBytes, 1)),
        "ratio", 1};
    e["peak_rss_mib"] = {peakRssMib(), "MiB", 1};

    // Virtual time: deterministic per seed, identical across reps.
    const double virtual_ops =
        static_cast<double>(kOpsPerRep) / ticksToSeconds(v.elapsed);
    result_.info["virtual_ops_per_s"] = virtual_ops;
    result_.info["virtual_write_p99_us"] =
        ticksToSeconds(v.writeP99) * 1e6;
    result_.info["virtual_cut_flush_ms"] =
        ticksToSeconds(v.flushDuration) * 1e3;

    if (!options_.trace)
        return;
    auto &p = result_.perLayer;
    auto count = [](std::uint64_t value) {
        return Metric{static_cast<double>(value), "count", 1};
    };
    const std::uint64_t t = traced.size();
    p["virtual_ops_per_s"] = {virtual_ops, "1/s", kOpsPerRep};
    p["virtual_write_p99_us"] = {ticksToSeconds(v.writeP99) * 1e6, "us",
                                 v.userBytes / kValueBytes};
    p["virtual_cut_flush_ms"] = {ticksToSeconds(v.flushDuration) * 1e3,
                                 "ms", 1};
    p["ycsb.load_s"] = {med(traced, &RepFigures::loadS), "s", t};
    std::vector<double> run_sums;
    std::uint64_t run_spans = 0;
    {
        // Per-rep sums of the one-op run() spans.
        std::map<std::uint64_t, double> per_rep;
        for (const SpanRecord &s : tracer_.spansNamed(SpanName::ycsbRun)) {
            per_rep[s.parent] += nsToSeconds(s.endNs - s.startNs);
            ++run_spans;
        }
        for (const auto &[rep, sum] : per_rep)
            run_sums.push_back(sum);
    }
    p["ycsb.run_s"] = {median(run_sums), "s", run_spans};
    p["core.sim_write_faults"] = count(v.controller.writeFaults);
    p["core.sim_blocked_evictions"] = count(v.controller.blockedEvictions);
    p["core.sim_proactive_copies"] = count(v.controller.proactiveCopies);
    p["core.sim_in_flight_waits"] = count(v.controller.inFlightWaits);
    p["core.sim_epochs"] = count(v.controller.epochs);
    p["core.sim_cut_s"] = {med(traced, &RepFigures::cutS), "s", t};
    p["core.sim_verify_s"] = {med(traced, &RepFigures::verifyS), "s", t};
    p["storage.bytes_written"] = {static_cast<double>(v.ssdBytes), "B",
                                  1};
    const double base_rate = med(untraced, &RepFigures::opsPerS);
    p["trace.overhead_frac"] = {
        base_rate > 0 ? 1.0 - med(traced, &RepFigures::opsPerS) / base_rate
                      : 0.0,
        "ratio", t};
}

} // namespace

Result
runSimWorkload(const Options &options)
{
    if (options.workload != "sim_update")
        fatal("unknown simulator workload '", options.workload, "'");
    Result result;
    SimBench bench(options, result);
    bench.run();
    if (!options.spansPath.empty() && options.trace &&
        !bench.tracer().writeCsv(options.spansPath))
        fatal("cannot write spans to ", options.spansPath);
    return result;
}

} // namespace viyojit::perfbench
