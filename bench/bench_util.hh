/**
 * @file
 * Shared helpers for the reproduction benchmarks: the paper's
 * evaluated array (Table 2), layout construction, table formatting,
 * and the parallel experiment harness plumbing.
 *
 * Each bench binary regenerates one table or figure of the paper.
 * By default the simulations use a relaxed stopping rule so the whole
 * suite finishes in minutes; set PDDL_BENCH_FULL=1 for the paper's
 * 2%-at-95%-confidence rule.
 *
 * Grid execution is parallel: every (size, layout, clients) point is
 * an independent simulation, dispatched onto the work-stealing
 * runner of src/harness. PDDL_BENCH_THREADS (or --threads) picks the
 * worker count; results are bit-identical for every thread count
 * because each point's RNG seed is derived from its identity, never
 * from scheduling. --json <dir> additionally emits one machine-
 * readable BENCH_<figure>.json per figure. Each bench registers only
 * the bench-wide flags it reads (BenchFlags).
 */

#ifndef PDDL_BENCH_BENCH_UTIL_HH
#define PDDL_BENCH_BENCH_UTIL_HH

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/layout_spec.hh"
#include "core/pddl_layout.hh"
#include "core/scenario_spec.hh"
#include "disk/device_model.hh"
#include "harness/arg_parser.hh"
#include "harness/runner.hh"
#include "harness/thread_pool.hh"
#include "layout/datum.hh"
#include "layout/parity_decluster.hh"
#include "layout/prime.hh"
#include "layout/raid5.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "workload/closed_loop.hh"

namespace pddl {
namespace bench {

/** The paper's client counts ("Concurrency" row of Table 2). */
inline const std::vector<int> kClientCounts = {1, 2, 4, 8, 10, 15, 20, 25};

/** Access sizes in KB from Table 2 (8 KB stripe units). */
inline const std::vector<int> kAccessSizesKb = {8,   24,  48,  72,  96,
                                                120, 144, 168, 192, 216,
                                                240, 288, 336};

/** KB -> stripe units (8 KB units). */
inline int
unitsForKb(int kb)
{
    return kb / 8;
}

/** True when the paper-fidelity stopping rule is requested. */
inline bool
fullFidelity()
{
    const char *env = std::getenv("PDDL_BENCH_FULL");
    return env != nullptr && std::strcmp(env, "0") != 0;
}

/**
 * The closed loop's stopping rule: fast but shape-preserving, or
 * Table 2 exact.
 */
inline ClosedLoopConfig
defaultClosedLoop()
{
    ClosedLoopConfig config;
    if (fullFidelity()) {
        config.relative_tolerance = 0.02;
        config.min_samples = 1000;
        config.max_samples = 200000;
        config.warmup = 500;
    } else {
        config.relative_tolerance = 0.06;
        config.min_samples = 250;
        config.max_samples = 2500;
        config.warmup = 120;
    }
    return config;
}

/** Print a row separator sized to `width` columns of 10 chars. */
inline void
printRule(int width)
{
    for (int i = 0; i < width; ++i)
        std::fputs("----------", stdout);
    std::fputs("\n", stdout);
}

/**
 * Bench-wide flags. Each is registered only by the benches that read
 * it (the BenchCli / parseArgs `flags` argument); everywhere else it
 * is an unknown option and exits 2 instead of being accepted and
 * ignored.
 */
enum BenchFlags : unsigned
{
    kNoBenchFlags = 0,
    /** --device: the bench simulates benchDevice(). */
    kDeviceFlag = 1u << 0,
    /** --layout: the bench evaluates evaluatedLayouts(). */
    kLayoutFlag = 1u << 1,
    /** --json, --threads: the bench runs its grids through runGrid(). */
    kGridFlags = 1u << 2,
    /** --metrics, --trace: every grid point threads its probe. */
    kProbeFlags = 1u << 3,
    /** --sim-threads: the bench's scenarios run the parallel engine. */
    kSimThreadsFlag = 1u << 4,
    /** --scenario: the bench's rows start from a base ScenarioSpec. */
    kScenarioFlag = 1u << 5,
};

/** Command-line options shared by every bench binary. */
struct BenchOptions
{
    /** Directory for BENCH_<figure>.json files; empty disables. */
    std::string json_dir;
    /** Worker override; 0 = PDDL_BENCH_THREADS / hardware. */
    int threads = 0;
    /** Merged metrics JSON file; empty disables metrics. */
    std::string metrics_path;
    /**
     * Intra-scenario worker threads (the parallel engine's lanes,
     * distinct from the grid-point pool above); 0 defers to
     * PDDL_SIM_THREADS / 1. Output is identical at every value.
     */
    int sim_threads = 0;
    /** Chrome trace JSON file; empty disables tracing. */
    std::string trace_path;
    /** The tracer observes only the first figure's first point. */
    bool trace_attached = false;
    /** --device spec; empty selects hp2247 (the paper's drive). */
    std::string device_spec;
    /** --layout spec; empty keeps each bench's evaluated set. */
    std::string layout_spec;
    /**
     * The BenchFlags the bench registered: benchDevice(),
     * evaluatedLayouts() and runGrid() assert theirs, so a bench
     * cannot read a flag it would reject.
     */
    unsigned flags = kNoBenchFlags;
    /**
     * --scenario: a validated ScenarioSpec (path or inline JSON)
     * that the benches registering it use as the base configuration
     * in place of their built-in defaults; empty keeps the defaults.
     */
    std::string scenario;
    /**
     * Zero the informational host-wall fields (wall_time_s, wall_ms,
     * threads) in BENCH_<figure>.json so the file is literally
     * bit-identical across --threads values. Benches whose rows are
     * all simulated rates (bench_scaleout) set this; CI then diffs
     * the raw files without a strip step.
     */
    bool deterministic_json = false;
};

inline BenchOptions &
options()
{
    static BenchOptions instance;
    return instance;
}

/**
 * The evaluated layout set on the 13-disk array of Table 2: the five
 * paper layouts, or just the --layout override when one was given.
 */
inline std::vector<std::unique_ptr<Layout>>
evaluatedLayouts()
{
    assert((options().flags & kLayoutFlag) != 0 &&
           "a bench reading evaluatedLayouts() registers --layout");
    std::vector<std::unique_ptr<Layout>> layouts;
    if (!options().layout_spec.empty()) {
        layouts.push_back(
            pddl::layouts::makeLayout(options().layout_spec, 13));
        return layouts;
    }
    layouts.push_back(std::make_unique<DatumLayout>(13, 4));
    layouts.push_back(std::make_unique<ParityDeclusterLayout>(
        ParityDeclusterLayout::make(13, 4)));
    layouts.push_back(std::make_unique<Raid5Layout>(13));
    layouts.push_back(
        std::make_unique<PddlLayout>(PddlLayout::make(13, 4)));
    layouts.push_back(std::make_unique<PrimeLayout>(13, 4));
    return layouts;
}

/** The drive every bench simulates: --device, or the paper's drive. */
inline const DeviceModel &
benchDevice()
{
    assert((options().flags & kDeviceFlag) != 0 &&
           "a bench reading benchDevice() registers --device");
    static std::shared_ptr<const DeviceModel> owned;
    if (!options().device_spec.empty() && owned == nullptr)
        owned = device::makeDevice(options().device_spec);
    return owned != nullptr ? *owned : device::hp2247();
}

/** The shared flight recorder behind --trace. */
inline obs::Tracer &
benchTracer()
{
    static obs::Tracer instance(1 << 16);
    return instance;
}

/** Metrics merged across every figure the binary runs. */
inline obs::MetricsSnapshot &
suiteMetrics()
{
    static obs::MetricsSnapshot instance;
    return instance;
}

/**
 * The shared bench command line: --help plus the bench-wide flags
 * the binary opts into (BenchFlags), then whatever binary-specific
 * flags it registers before parseOrExit(). This is the single
 * registration point for bench-wide flags and the single owner of
 * the exit policy: --help prints usage and exits 0, unknown flags
 * and missing values print a clear error and exit 2.
 */
class BenchCli
{
  public:
    BenchCli(const char *program, const char *description,
             unsigned flags)
        : parser_(program, description)
    {
        options().flags = flags;
        std::string epilog = "environment:\n"
                             "  PDDL_BENCH_FULL=1     paper-fidelity "
                             "stopping rule (slower)\n";
        if ((flags & kGridFlags) != 0) {
            parser_.addString("json", "dir",
                              "also write machine-readable "
                              "BENCH_<figure>.json files into <dir>");
            parser_.addInt("threads", "n",
                           "worker threads for the experiment grid "
                           "(default: PDDL_BENCH_THREADS or hardware "
                           "concurrency; results are bit-identical "
                           "for any value)",
                           1);
            epilog += "  PDDL_BENCH_THREADS=n  default worker count\n";
        }
        if ((flags & kSimThreadsFlag) != 0) {
            parser_.addInt("sim-threads", "n",
                           "worker threads within one scenario (the "
                           "parallel engine's shard lanes; default: "
                           "PDDL_SIM_THREADS or 1; results are "
                           "bit-identical for any value)",
                           1);
            epilog += "  PDDL_SIM_THREADS=n    default intra-scenario "
                      "worker count\n";
        }
        if ((flags & kProbeFlags) != 0) {
            parser_.addString("metrics", "file",
                              "write the merged metrics snapshot as "
                              "JSON and embed per-point metrics in "
                              "BENCH rows");
            parser_.addString("trace", "file",
                              "record the first grid point as Chrome "
                              "trace_event JSON (load in Perfetto or "
                              "chrome://tracing)");
        }
        if ((flags & kDeviceFlag) != 0) {
            parser_.addString(
                "device", "spec",
                "drive model for every simulated disk (default: "
                "hp2247, the paper's drive; see the spec grammar "
                "below)",
                false, [](const std::string &value) {
                    std::shared_ptr<const DeviceModel> model;
                    std::string error;
                    if (!device::parseDeviceSpec(value, model, error))
                        return error;
                    return std::string();
                });
            epilog += "\nregistered device specs:\n";
            for (const std::string &name : device::deviceSpecNames())
                epilog += "  " + name + "\n";
        }
        if ((flags & kLayoutFlag) != 0) {
            parser_.addString(
                "layout", "spec",
                "replace the bench's evaluated layout set with this "
                "one layout (see the spec grammar below)",
                false, [](const std::string &value) {
                    layouts::ParsedLayoutSpec spec;
                    std::string error;
                    if (!layouts::parseLayoutSpec(value, spec, error))
                        return error;
                    // The evaluated set lives on the 13-disk Table 2
                    // array; a spec that parses but cannot build
                    // there (mirror copies not dividing 13, width >
                    // 13) must fail at the flag, not mid-bench.
                    try {
                        layouts::buildLayout(spec, 13);
                    } catch (const std::exception &e) {
                        return std::string(e.what());
                    }
                    return std::string();
                });
            epilog += "\nregistered layout specs:\n";
            for (const std::string &name : layouts::layoutSpecNames())
                epilog += "  " + name + "\n";
        }
        if ((flags & kScenarioFlag) != 0) {
            parser_.addString(
                "scenario", "file|json",
                "base scenario every row starts from: a ScenarioSpec "
                "JSON file, or the JSON inline; validated at the flag "
                "with field-anchored diagnostics",
                false, [](const std::string &value) {
                    ScenarioSpec spec;
                    std::string error;
                    if (!loadScenario(value, spec, error))
                        return error;
                    return std::string();
                });
        }
        parser_.setEpilog(epilog);
    }

    /** Register binary-specific flags before parseOrExit(). */
    void
    addBool(const std::string &name, const std::string &help)
    {
        parser_.addBool(name, help);
    }

    void
    addInt(const std::string &name, const std::string &value_name,
           const std::string &help, long long min_value)
    {
        parser_.addInt(name, value_name, help, min_value);
    }

    void
    addString(const std::string &name, const std::string &value_name,
              const std::string &help)
    {
        parser_.addString(name, value_name, help);
    }

    /** String flag rejected at parse time when `validator` objects. */
    void
    addString(const std::string &name, const std::string &value_name,
              const std::string &help,
              harness::ArgParser::Validator validator)
    {
        parser_.addString(name, value_name, help, false,
                          std::move(validator));
    }

    /**
     * Parse argv and fill options(). Owns the process-exit contract:
     * --help exits 0 after printing usage, any parse error exits 2.
     * `default_threads` applies when --threads is absent (0 defers to
     * PDDL_BENCH_THREADS / hardware concurrency; host-timing benches
     * pass 1 so rows do not contend).
     */
    void
    parseOrExit(int argc, char **argv, int default_threads = 0)
    {
        if (!parser_.parse(argc, argv)) {
            std::fprintf(stderr, "%s\n%s", parser_.error().c_str(),
                         parser_.usage().c_str());
            std::exit(2);
        }
        if (parser_.helpRequested()) {
            std::fputs(parser_.usage().c_str(), stdout);
            std::exit(0);
        }
        options().json_dir = parser_.getString("json");
        options().threads = static_cast<int>(
            parser_.getInt("threads", default_threads));
        options().sim_threads =
            static_cast<int>(parser_.getInt("sim-threads", 0));
        if (options().sim_threads < 1)
            options().sim_threads = harness::defaultSimThreads();
        options().metrics_path = parser_.getString("metrics");
        options().trace_path = parser_.getString("trace");
        options().device_spec = parser_.getString("device");
        options().layout_spec = parser_.getString("layout");
        options().scenario = parser_.getString("scenario");
    }

    bool has(const std::string &name) const { return parser_.has(name); }

    bool
    getBool(const std::string &name) const
    {
        return parser_.getBool(name);
    }

    long long
    getInt(const std::string &name, long long fallback = 0) const
    {
        return parser_.getInt(name, fallback);
    }

    std::string
    getString(const std::string &name,
              const std::string &fallback = "") const
    {
        return parser_.getString(name, fallback);
    }

  private:
    harness::ArgParser parser_;
};

/**
 * Parse the opted-in bench-wide flags (BenchFlags). Call first in
 * every bench main() that needs no flags of its own; binaries with
 * their own flags construct a BenchCli instead.
 */
inline void
parseArgs(int argc, char **argv, const char *description,
          unsigned flags)
{
    BenchCli(argv[0], description, flags).parseOrExit(argc, argv);
}

/**
 * Whole-binary aggregates, merged across every figure the binary
 * runs (fig10-13 style binaries run several) and reported once at
 * exit.
 */
struct SuiteTotals
{
    Tally counts;
    Welford point_wall_ms;

    ~SuiteTotals()
    {
        if (counts.empty())
            return;
        std::fprintf(stderr,
                     "[suite] %lld grid points, %lld samples, mean "
                     "point wall %.1f ms (max %.1f)\n",
                     static_cast<long long>(counts.get("points")),
                     static_cast<long long>(counts.get("samples")),
                     point_wall_ms.mean(), point_wall_ms.max());
    }
};

inline SuiteTotals &
suiteTotals()
{
    static SuiteTotals instance;
    return instance;
}

/**
 * Run one figure's experiment grid on the parallel runner, print the
 * one-line run summary, and emit BENCH_<figure>.json when --json was
 * given.
 */
inline harness::RunSummary
runGrid(const char *figure, const char *caption,
        const std::vector<harness::Experiment> &experiments)
{
    assert((options().flags & kGridFlags) != 0 &&
           "a bench calling runGrid() registers --json/--threads");
    harness::ExperimentRunner runner(options().threads);
    const bool metrics_on = !options().metrics_path.empty();
    runner.enableMetrics(metrics_on);
    if (!options().trace_path.empty() && !options().trace_attached) {
        // Trace exactly one simulation (the first figure's first
        // point): one run, one coherent timeline.
        runner.setTracer(&benchTracer());
        options().trace_attached = true;
    }
    harness::RunSummary summary = runner.run(experiments);
    suiteTotals().counts.merge(summary.totals);
    suiteTotals().point_wall_ms.merge(summary.point_wall_ms);
    if (!options().json_dir.empty()) {
        std::filesystem::create_directories(options().json_dir);
        harness::RunSummary to_write = summary;
        if (options().deterministic_json) {
            to_write.wall_s = 0.0;
            to_write.threads = 0;
            for (harness::PointResult &point : to_write.points)
                point.wall_ms = 0.0;
        }
        std::string path = harness::writeFigureJson(
            options().json_dir, figure, caption, to_write);
        std::fprintf(stderr, "[%s] wrote %s\n", figure, path.c_str());
    }
    if (metrics_on) {
        // Merge in submission order and rewrite cumulatively: the
        // file is complete whenever the binary stops, and identical
        // for every thread count.
        for (const harness::PointResult &point : summary.points)
            suiteMetrics().merge(point.metrics);
        Json doc = Json::object();
        doc.set("schema", "pddl-metrics-v1")
            .set("metrics", suiteMetrics().toJson());
        std::ofstream out(options().metrics_path, std::ios::trunc);
        if (out) {
            out << doc.dump();
            std::fprintf(stderr, "[%s] wrote %s\n", figure,
                         options().metrics_path.c_str());
        } else {
            std::fprintf(stderr, "[%s] cannot write %s\n", figure,
                         options().metrics_path.c_str());
        }
    }
    if (!options().trace_path.empty()) {
        if (benchTracer().writeChromeJson(options().trace_path)) {
            std::fprintf(stderr, "[%s] wrote %s\n", figure,
                         options().trace_path.c_str());
        } else {
            std::fprintf(stderr, "[%s] cannot write %s\n", figure,
                         options().trace_path.c_str());
        }
    }
    std::fprintf(stderr,
                 "[%s] %zu grid points on %d thread(s) in %.2f s\n",
                 figure, summary.points.size(), summary.threads,
                 summary.wall_s);
    return summary;
}

/**
 * The paper's closed-loop grid point: point.clients clients issuing
 * point.size_kb accesses of point.type against the array in
 * point.mode (disk 0 failed when not fault-free), under the
 * stopping-rule defaults. `array` carries any other array knob a
 * sweep varies.
 */
inline harness::Experiment
paperPoint(harness::GridPoint point, const Layout &layout,
           const DeviceModel &device, ArrayConfig array = {})
{
    ClosedLoopConfig workload = defaultClosedLoop();
    workload.clients = point.clients;
    workload.access_units = unitsForKb(point.size_kb);
    workload.type = point.type;
    array.mode = point.mode;
    array.failed_disk = 0;
    return harness::closedLoopPoint(std::move(point), layout, device,
                                    workload, array);
}

/**
 * Regenerate one response-time figure: for each access size, a panel
 * of mean response time (ms) and achieved throughput (accesses/sec)
 * per layout per client count -- the series the paper plots. All
 * grid points run concurrently before the tables print.
 */
inline void
runResponseTimeFigure(const char *figure, const char *caption,
                      const std::vector<int> &sizes_kb, AccessType type,
                      ArrayMode mode)
{
    auto layouts = evaluatedLayouts();
    const DeviceModel &model = benchDevice();

    auto skip = [&](const Layout &layout) {
        return mode == ArrayMode::PostReconstruction &&
               !layout.hasSparing();
    };

    std::vector<harness::Experiment> experiments;
    for (int kb : sizes_kb) {
        for (const auto &layout : layouts) {
            if (skip(*layout))
                continue;
            for (int clients : kClientCounts) {
                experiments.push_back(paperPoint(
                    {figure, layout->name(), kb, clients, type, mode},
                    *layout, model));
            }
        }
    }
    harness::RunSummary summary = runGrid(figure, caption, experiments);

    std::printf("%s: %s\n", figure, caption);
    std::printf("(workload = achieved accesses/sec, cells = mean "
                "response ms)\n");
    size_t index = 0;
    for (int kb : sizes_kb) {
        std::printf("\n-- %d KB %s, %s --\n", kb,
                    type == AccessType::Read ? "reads" : "writes",
                    mode == ArrayMode::FaultFree ? "fault free"
                    : mode == ArrayMode::Degraded
                        ? "single failure"
                        : "post-reconstruction");
        std::printf("%-20s", "layout \\ clients");
        for (int clients : kClientCounts)
            std::printf("  %6d    ", clients);
        std::printf("\n");
        printRule(2 + static_cast<int>(kClientCounts.size()));
        for (const auto &layout : layouts) {
            if (skip(*layout))
                continue;
            std::printf("%-20s", layout->name().c_str());
            for (size_t c = 0; c < kClientCounts.size(); ++c) {
                const SimResult &r = summary.points[index++].result;
                std::printf("  %6.1f@%-4.0f", r.mean_response_ms,
                            r.throughput_per_s);
            }
            std::printf("\n");
        }
    }
    std::printf("\n");
}

/**
 * Regenerate one seek-count figure: per access size, the per-access
 * averages of non-local seeks, cylinder switches, track switches and
 * no-switch operations (the stacked bars of Figures 4/7/15/16).
 */
inline void
runSeekCountFigure(const char *figure, const char *caption,
                   AccessType type, ArrayMode mode)
{
    auto layouts = evaluatedLayouts();
    const DeviceModel &model = benchDevice();

    std::vector<harness::Experiment> experiments;
    for (const auto &layout : layouts) {
        for (int kb : kAccessSizesKb) {
            // Section 4: counts are almost workload independent; a
            // moderate concurrency keeps queues busy.
            experiments.push_back(paperPoint(
                {figure, layout->name(), kb, 8, type, mode}, *layout,
                model));
        }
    }
    harness::RunSummary summary = runGrid(figure, caption, experiments);

    std::printf("%s: %s\n", figure, caption);
    std::printf("(per logical access: non-local / cylinder switch / "
                "track switch / no-switch)\n");
    size_t index = 0;
    for (const auto &layout : layouts) {
        std::printf("\n-- %s --\n", layout->name().c_str());
        std::printf("%8s  %9s  %9s  %9s  %9s  %9s\n", "size KB",
                    "non-local", "cyl-sw", "trk-sw", "no-sw", "total");
        for (int kb : kAccessSizesKb) {
            const SimResult &r = summary.points[index++].result;
            double total = r.non_local_seeks + r.cylinder_switches +
                           r.track_switches + r.no_switches;
            std::printf("%8d  %9.1f  %9.1f  %9.1f  %9.1f  %9.1f\n", kb,
                        r.non_local_seeks, r.cylinder_switches,
                        r.track_switches, r.no_switches, total);
        }
    }
    std::printf("\n");
}

} // namespace bench
} // namespace pddl

#endif // PDDL_BENCH_BENCH_UTIL_HH
