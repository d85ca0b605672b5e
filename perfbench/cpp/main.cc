/**
 * @file
 * perfbench: host cost of the PDDL simulator, end to end and per
 * layer. One invocation runs one workload (or `all` of them in turn)
 * for about --seconds host seconds, checks every simulated output,
 * prints a table of metrics with units and sample counts, and ends
 * with one JSON line:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 is a separate
 * run on the decorated stack that reports the per-layer metrics.
 * Exit status: 0 when every output was correct, 1 on a mismatch, 2
 * on bad arguments.
 */

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <malloc.h>
#include <set>
#include <string>

#include "common.hh"
#include "layers.hh"

namespace perfbench {
namespace {

struct Workload
{
    const char *name;
    Result (*run)(const RunConfig &, Spans *);
};

const Workload kWorkloads[] = {
    {"array_grid", runArrayGrid},
    {"volume64_cached", runVolume64},
    {"autotune", runAutotune},
    {"layout_search", runLayoutSearch},
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <array_grid|volume64_cached|"
                 "autotune|layout_search|all>\n"
                 "                 --refs <dir> [--seed <n>] [--seconds <s>]"
                 " [--trace 0|1]\n"
                 "                 [--spans <file>] [--write-refs]\n");
    return 2;
}

/** Order the run's metrics by the catalog, zero-filling layers the
 *  workload does not exercise, and reject unknown, missing or
 *  non-finite ones. */
bool
complete(Result &result, bool trace)
{
    const std::vector<LayerMetric> &catalog =
        trace ? layerMetrics() : endToEndMetrics();
    std::vector<Metric> ordered;
    std::set<std::string> seen;
    for (const LayerMetric &entry : catalog) {
        seen.insert(entry.name);
        const Metric *found = nullptr;
        for (const Metric &m : result.metrics) {
            if (m.name == entry.name)
                found = &m;
        }
        if (found != nullptr) {
            ordered.push_back(*found);
        } else if (trace) {
            ordered.push_back({entry.name, 0.0, entry.unit, 0});
        } else {
            std::fprintf(stderr, "[perfbench] metric %s missing\n",
                         entry.name);
            return false;
        }
    }
    for (const Metric &m : result.metrics) {
        if (seen.count(m.name) == 0 || !std::isfinite(m.value)) {
            std::fprintf(stderr, "[perfbench] metric %s unknown or not "
                                 "finite\n",
                         m.name.c_str());
            return false;
        }
    }
    result.metrics = std::move(ordered);
    return true;
}

void
printTable(const char *workload, const Result &result)
{
    std::printf("== %s: %" PRId64 " operations, %" PRId64 " failed\n",
                workload, result.attempted, result.failed);
    for (const Metric &m : result.metrics)
        std::printf("  %-36s %18.6f %-6s n=%" PRId64 "\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.samples);
    for (const Metric &m : result.notes)
        std::printf("  %-36s %18.6f %-6s n=%" PRId64 "  (table only)\n",
                    m.name.c_str(), m.value, m.unit.c_str(), m.samples);
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out;
    for (const Metric &m : metrics) {
        if (!out.empty())
            out += ", ";
        out += "\"" + m.name + "\": {\"value\": " + exact(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    return out;
}

int
run(int argc, char **argv)
{
    RunConfig config;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--write-refs") {
            config.write_refs = true;
        } else if (!has_value) {
            return usage();
        } else if (arg == "--workload") {
            config.workload = argv[++i];
            have_workload = true;
        } else if (arg == "--seed") {
            char *end = nullptr;
            config.seed = std::strtoull(argv[++i], &end, 10);
            if (end == nullptr || *end != '\0')
                return usage();
        } else if (arg == "--seconds") {
            char *end = nullptr;
            config.seconds = std::strtod(argv[++i], &end);
            if (end == nullptr || *end != '\0' || !(config.seconds > 0))
                return usage();
        } else if (arg == "--trace") {
            const std::string value = argv[++i];
            if (value != "0" && value != "1")
                return usage();
            config.trace = value == "1";
        } else if (arg == "--refs") {
            config.refs_dir = argv[++i];
        } else if (arg == "--spans") {
            config.spans_path = argv[++i];
        } else {
            return usage();
        }
    }
    if (!have_workload || config.refs_dir.empty())
        return usage();

    std::vector<const Workload *> selected;
    for (const Workload &w : kWorkloads) {
        if (config.workload == "all" || config.workload == w.name)
            selected.push_back(&w);
    }
    if (selected.empty())
        return usage();

    Result total;
    std::vector<Metric> all_metrics;
    for (const Workload *w : selected) {
        Spans spans;
        RunConfig one = config;
        one.workload = w->name;
        Result result = w->run(one, config.trace ? &spans : nullptr);
        if (!complete(result, config.trace))
            return 1;
        printTable(w->name, result);
        if (config.trace) {
            for (const auto &[name, s] : spans.summarize())
                std::printf("  span %-30s n=%-6" PRId64
                            " total %.6f s  self %.6f s\n",
                            name.c_str(), s.count, s.total_s, s.self_s);
            if (!config.spans_path.empty()) {
                const std::string path = selected.size() == 1
                                             ? config.spans_path
                                             : config.spans_path + "." +
                                                   w->name;
                if (!spans.write(path))
                    std::fprintf(stderr, "[perfbench] cannot write %s\n",
                                 path.c_str());
            }
        }
        total.correct = total.correct && result.correct;
        total.attempted += result.attempted;
        total.failed += result.failed;
        for (Metric m : result.metrics) {
            if (selected.size() > 1)
                m.name = std::string(w->name) + "/" + m.name;
            all_metrics.push_back(m);
        }
    }
    if (total.attempted < 1)
        total.correct = false;

    std::printf("{\"correct\": %s, \"attempted\": %" PRId64
                ", \"failed\": %" PRId64 ", \"metrics\": {%s}}\n",
                total.correct ? "true" : "false", total.attempted,
                total.failed, metricsJson(all_metrics).c_str());
    std::fflush(stdout);
    return total.correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    // A fixed mmap threshold: glibc otherwise raises it the first time
    // a large block is freed, so which allocations go to mmap (and so
    // the process's peak_rss_mb) would depend on the order in which a
    // seed's inputs happened to allocate and free them.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "[perfbench] error: %s\n", e.what());
        return 1;
    }
}
