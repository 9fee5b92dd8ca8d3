/**
 * @file
 * Entry point of the repository benchmark binary.
 *
 *   viyojit_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                     [--spans PATH] [--data-dir DIR] [--git-sha SHA]
 *
 * Prints one line per metric, then, as its last line, one JSON object
 * with the run's stamp, every metric with its unit and sample count,
 * the information-only figures, and the correctness tally.  The
 * wrapper (run.py) turns that record into the benchmark's result
 * line.
 */

#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "common/logging.hh"
#include "perfbench/bench.hh"

using namespace viyojit;
using namespace viyojit::perfbench;

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "viyojit_perfbench: " << why << "\n"
              << "usage: viyojit_perfbench --workload "
                 "kv_update_1c|kv_read_2c|sim_update --seed N "
                 "--seconds S --trace 0|1 [--spans PATH] "
                 "[--data-dir DIR] [--git-sha SHA]\n";
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                o.workload = value;
            else if (flag == "--seed")
                o.seed = std::stoull(value);
            else if (flag == "--seconds")
                o.seconds = static_cast<unsigned>(std::stoul(value));
            else if (flag == "--trace")
                o.trace = std::stoi(value) != 0;
            else if (flag == "--spans")
                o.spansPath = value;
            else if (flag == "--data-dir")
                o.dataDir = value;
            else if (flag == "--git-sha")
                o.gitSha = value;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value '" + value + "' for " + flag);
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (o.seconds == 0 || o.seconds > 600)
        usage("--seconds must be in 1..600");
    return o;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null"; // JSON has no NaN or infinity
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
metricsJson(const std::map<std::string, Metric> &metrics)
{
    std::string out = "{";
    for (const auto &[name, m] : metrics) {
        if (out.size() > 1)
            out += ", ";
        out += quoted(name) + ": {\"value\": " + number(m.value) +
               ", \"unit\": " + quoted(m.unit) +
               ", \"samples\": " + std::to_string(m.samples) + "}";
    }
    return out + "}";
}

void
printMetrics(const char *kind, const std::map<std::string, Metric> &metrics)
{
    for (const auto &[name, m] : metrics)
        std::printf("%s %-36s %16.6f %-10s n=%llu\n", kind, name.c_str(),
                    m.value, m.unit.c_str(),
                    static_cast<unsigned long long>(m.samples));
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parse(argc, argv);
    Result result;
    try {
        if (options.workload.rfind("kv_", 0) == 0)
            result = runKvWorkload(options);
        else
            result = runSimWorkload(options);
    } catch (const std::exception &e) {
        std::cerr << "viyojit_perfbench: " << e.what() << "\n";
        return 1;
    }

    utsname host{};
    ::uname(&host);
    const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
    const double error_rate =
        result.attempted > 0 ? static_cast<double>(result.failed) /
                                   static_cast<double>(result.attempted)
                             : 1.0;

    std::printf("workload %s seed %llu seconds %u trace %d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0);
    std::printf("stamp git %s kernel %s host_cpus %ld\n",
                options.gitSha.c_str(), host.release, cpus);
    for (const auto &[k, v] : result.params)
        std::printf("param %s = %s\n", k.c_str(), v.c_str());
    for (const std::string &line : result.log)
        std::printf("%s\n", line.c_str());
    printMetrics("end_to_end", result.endToEnd);
    printMetrics("per_layer", result.perLayer);
    for (const auto &[k, v] : result.info)
        std::printf("info %-36s %16.6f\n", k.c_str(), v);
    std::printf("check attempted %llu failed %llu error_rate %.9g\n",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                error_rate);
    for (const std::string &p : result.problems)
        std::printf("FAILED: %s\n", p.c_str());

    std::ostringstream json;
    json << "{\"stamp\": {\"git_sha\": " << quoted(options.gitSha)
         << ", \"kernel\": " << quoted(host.release)
         << ", \"host_cpus\": " << cpus
         << ", \"workload\": " << quoted(options.workload)
         << ", \"seed\": " << options.seed
         << ", \"seconds\": " << options.seconds
         << ", \"trace\": " << (options.trace ? 1 : 0) << ", \"params\": {";
    bool first = true;
    for (const auto &[k, v] : result.params) {
        json << (first ? "" : ", ") << quoted(k) << ": " << quoted(v);
        first = false;
    }
    json << "}}, \"correct\": " << (result.failed == 0 ? "true" : "false")
         << ", \"attempted\": " << result.attempted
         << ", \"failed\": " << result.failed
         << ", \"error_rate\": " << number(error_rate)
         << ", \"problems\": [";
    first = true;
    for (const std::string &p : result.problems) {
        json << (first ? "" : ", ") << quoted(p);
        first = false;
    }
    json << "], \"end_to_end\": " << metricsJson(result.endToEnd)
         << ", \"per_layer\": " << metricsJson(result.perLayer)
         << ", \"info\": {";
    first = true;
    for (const auto &[k, v] : result.info) {
        json << (first ? "" : ", ") << quoted(k) << ": " << number(v);
        first = false;
    }
    json << "}}";
    std::printf("%s\n", json.str().c_str());
    return 0;
}
