#include "perfbench/bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>

namespace viyojit::perfbench
{

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    const double upper = values[mid];
    if (values.size() % 2 == 1)
        return upper;
    const double lower =
        *std::max_element(values.begin(), values.begin() + mid);
    return (lower + upper) / 2.0;
}

double
percentileUs(const LogHistogram &hist, double p)
{
    return static_cast<double>(hist.percentile(p)) * 1e-3;
}

double
peakRssMib()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

const char *
spanNameString(SpanName name)
{
    switch (name) {
      case SpanName::cycle: return "bench.cycle";
      case SpanName::regionCreate: return "runtime.create";
      case SpanName::heapCreate: return "pheap.create";
      case SpanName::load: return "kvstore.load";
      case SpanName::get: return "kvstore.get";
      case SpanName::put: return "kvstore.put";
      case SpanName::epochTick: return "runtime.epochTick";
      case SpanName::flushAll: return "runtime.flushAll";
      case SpanName::recover: return "runtime.recover";
      case SpanName::heapAttach: return "pheap.attach";
      case SpanName::storeAttach: return "kvstore.attach";
      case SpanName::verify: return "bench.verify";
      case SpanName::plainGet: return "plain.kvstore.get";
      case SpanName::plainPut: return "plain.kvstore.put";
      case SpanName::simRep: return "bench.sim_rep";
      case SpanName::ycsbLoad: return "ycsb.load";
      case SpanName::ycsbRun: return "ycsb.run";
      case SpanName::simCut: return "core.powerFailureFlush";
      case SpanName::simVerify: return "core.verifyDurabilityChecked";
    }
    return "unknown";
}

Tracer::Tracer(bool enabled) : enabled_(enabled) {}

void
Tracer::add(unsigned thread, SpanName name, std::uint64_t id,
            std::uint64_t parent, std::int64_t start_ns,
            std::int64_t end_ns, std::uint64_t count)
{
    if (!enabled_)
        return;
    Slot &slot = slots_[thread];
    if (slot.usedInLast == chunkSpans) {
        slot.chunks.push_back(std::make_unique<SpanRecord[]>(chunkSpans));
        slot.usedInLast = 0;
    }
    slot.chunks.back()[slot.usedInLast++] =
        SpanRecord{id, parent, start_ns, end_ns, count, name, thread};
}

std::vector<SpanRecord>
Tracer::spansNamed(SpanName name) const
{
    std::vector<SpanRecord> out;
    forEach([&](const SpanRecord &s) {
        if (s.name == name)
            out.push_back(s);
    });
    return out;
}

bool
Tracer::writeCsv(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "thread,id,parent,name,start_ns,end_ns,count\n";
    forEach([&](const SpanRecord &s) {
        out << s.thread << ',' << s.id << ',' << s.parent << ','
            << spanNameString(s.name) << ',' << s.startNs << ',' << s.endNs
            << ',' << s.count << '\n';
    });
    return static_cast<bool>(out);
}

} // namespace viyojit::perfbench
