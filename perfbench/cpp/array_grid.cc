/**
 * @file
 * array_grid: a figure-style grid of single-shard scenarios, run
 * serially through ScenarioSpec -> tune::runScenario on one thread.
 *
 * Why this workload: the per-access path (Layout::map,
 * RequestMapper::expandInto, ArrayController, Disk SSTF,
 * DeviceModel::serviceTime, a small-pending EventQueue) does almost
 * all the work. There is no volume fan-out, no cache and one engine
 * lane, so an engine or cache change should not move it. Reads sit
 * beside RMW writes, full-stripe writes and degraded reconstructs,
 * so a mapper or controller gain on one access shape that costs
 * another shows. Two wide arrays (233 disks, width 8) have map
 * tables larger than a core's L2, so the working set relative to the
 * program's own caches varies across the grid.
 */

#include <cstdio>
#include <stdexcept>

#include "common.hh"
#include "layers.hh"
#include "stack.hh"
#include "util/rng.hh"

namespace perfbench {

using namespace pddl;

namespace {

struct Point
{
    std::string key;
    std::string text; ///< the spec as canonical JSON
    ScenarioSpec spec;
    uint64_t seed = 0;
    /** A sparing layout with a scripted failure rebuilds once. */
    bool rebuilds = false;
};

struct Family
{
    const char *layout;
    int disks;
    /** Client data units per stripe (sizes the full-stripe write). */
    int data_units;
    /** Distributed spare space: a failure triggers a rebuild sweep. */
    bool sparing;
};

/** The 13-disk HP 2247 families, then the wide arrays. */
const Family kFamilies[] = {
    {"pddl:width=4", 13, 3, true},
    {"raid5", 13, 12, false},
    {"parity:width=4", 13, 3, false},
    {"datum:width=4,check=1", 13, 3, false},
    {"prime:width=4", 13, 3, false},
    {"draid:width=4,spares=1", 13, 3, true},
    {"pddl:width=8", 401, 7, true},
    {"draid:width=8,spares=1", 401, 7, true},
};

enum class Shape
{
    Read8,
    Rmw8,
    FullStripe,
    MixedOpen,
};

const char *
shapeName(Shape shape)
{
    switch (shape) {
      case Shape::Read8: return "read8";
      case Shape::Rmw8: return "rmw8";
      case Shape::FullStripe: return "full";
      case Shape::MixedOpen: return "mixed";
    }
    return "?";
}

/** Access budget per point (measured, then warm-up). */
constexpr int64_t kSamples = 3000;
constexpr int64_t kWarmup = 200;

/** Every this many grid points, one checks the set-up stack. */
constexpr size_t kStackCheckStride = 16;

/** Middle load of each shape: the one rebuilding points run at. */
constexpr int kRebuildClients = 4;
constexpr int kRebuildRate = 120;

enum class State
{
    FaultFree,
    Degraded,
    /** A scripted failure mid-run; sparing layouts then rebuild. */
    Rebuilding,
};

const char *
stateName(State state)
{
    switch (state) {
      case State::FaultFree: return "ff";
      case State::Degraded: return "degraded";
      case State::Rebuilding: return "rebuild";
    }
    return "?";
}

Point
makePoint(const Family &family, Shape shape, int load, State state,
          uint64_t seed)
{
    ScenarioSpec spec;
    ScenarioShard shard;
    shard.layout = family.layout;
    shard.disks = family.disks;
    if (state == State::Degraded)
        shard.failed_disk = 0;
    spec.shards = {shard};
    if (state == State::Rebuilding)
        spec.faults = {{50.0, 0, 0}};
    spec.samples = kSamples;
    spec.warmup = kWarmup;
    if (shape == Shape::MixedOpen) {
        spec.client = "open";
        spec.arrival = "poisson";
        spec.arrivals_per_s = load;
        spec.mix = {{8, false, 0.5},
                    {8, true, 0.3},
                    {64, false, 0.1},
                    {64, true, 0.1}};
    } else {
        spec.client = "closed";
        spec.clients = load;
        const int kb = shape == Shape::FullStripe ? 8 * family.data_units
                                                   : 8;
        spec.mix = {{kb, shape != Shape::Read8, 1.0}};
    }
    std::string error;
    if (!spec.normalize(error))
        throw std::runtime_error("grid spec: " + error);
    Point point;
    point.key = std::string(family.layout) + "/n" +
                std::to_string(family.disks) + "/" + shapeName(shape) +
                "/" + std::to_string(load) + "/" + stateName(state);
    point.text = spec.describe();
    point.spec = spec;
    point.seed = seed;
    point.rebuilds = state == State::Rebuilding && family.sparing;
    return point;
}

/**
 * The grid: every 13-disk family x shape x load, fault-free and
 * degraded; every family x shape rebuilding at the middle load; the
 * wide arrays at one load. A rebuild sweeps the whole failed disk
 * (~0.15 s of host time at 13 disks, ~0.45 s at 401), so sweeps
 * are kept to a share of the pass rather than crossed with every
 * load.
 */
std::vector<Point>
buildGrid(uint64_t seed)
{
    std::vector<Point> grid;
    const Shape shapes[] = {Shape::Read8, Shape::Rmw8, Shape::FullStripe,
                            Shape::MixedOpen};
    const auto add = [&](const Family &family, Shape shape, int load,
                         State state) {
        grid.push_back(makePoint(family, shape, load, state,
                                 hashMix64(grid.size(), seed)));
    };
    for (const Family &family : kFamilies) {
        const bool wide = family.disks > 13;
        for (Shape shape : shapes) {
            const bool open = shape == Shape::MixedOpen;
            std::vector<int> loads;
            if (wide)
                loads = {open ? 400 : 32};
            else if (open)
                loads = {40, kRebuildRate};
            else
                loads = {1, kRebuildClients, 16, 32};
            for (int load : loads) {
                add(family, shape, load, State::FaultFree);
                add(family, shape, load, State::Degraded);
            }
            // Two shapes carry the sparing families' rebuild sweeps.
            if (!wide && (!family.sparing || shape == Shape::Read8 ||
                          shape == Shape::Rmw8))
                add(family, shape, open ? kRebuildRate : kRebuildClients,
                    State::Rebuilding);
        }
    }
    add(kFamilies[6], Shape::Read8, 32, State::Rebuilding);
    return grid;
}

/** Parse a point's spec text: the user-visible entry point. */
ScenarioSpec
parsePoint(const Point &point)
{
    return ScenarioSpec::parseOrThrow(point.text);
}

/** Correctness of one point's outcome (digest or invariants). */
bool
pointOk(const Point &point, const tune::ScenarioOutcome &outcome,
        References &refs)
{
    const bool invariants =
        outcomeHolds(point.spec, outcome, point.rebuilds ? 1 : 0, point.key);
    return invariants && refs.match(point.key, outcomeText(outcome));
}

} // namespace

Result
runArrayGrid(const RunConfig &config, Spans *spans)
{
    const int64_t begin = nowNs();
    Result result;
    References refs(config, "array_grid");
    const std::vector<Point> grid = buildGrid(config.seed);

    if (!config.trace) {
        // Set-up is timed on perfbench's Stack, a copy of runScenario's
        // construction; a stride of points checks that the copy runs
        // to runScenario's outcome bit for bit.
        for (size_t i = 0; i < grid.size(); i += kStackCheckStride)
            result.check(stackMatchesRunner(parsePoint(grid[i]),
                                            grid[i].seed, 1, grid[i].key),
                         grid[i].key + " set-up stack");

        // Each point's host time is the median over the passes, so a
        // transient stall of the host moves one sample, not the sum.
        // Every pass first sets up the whole grid (spec text to a
        // system ready for its first event), so set-up samples span
        // the timed phase like the passes do.
        std::vector<std::vector<double>> point_s(grid.size());
        std::vector<double> setups;
        std::vector<double> passes;
        std::vector<double> cycles;
        int64_t accesses = 0;
        do {
            const int64_t cycle_start = nowNs();
            for (const Point &point : grid) {
                const ScenarioSpec spec = parsePoint(point);
                Stack stack(spec, point.seed, 1, false);
            }
            setups.push_back(secondsSince(cycle_start));

            const int64_t pass_start = nowNs();
            accesses = 0;
            for (size_t i = 0; i < grid.size(); ++i) {
                const Point &point = grid[i];
                const int64_t start = nowNs();
                tune::RunScenarioOptions options;
                options.seed = point.seed;
                options.sim_threads = 1;
                const tune::ScenarioOutcome outcome =
                    tune::runScenario(parsePoint(point), options);
                point_s[i].push_back(secondsSince(start));
                accesses += outcome.backend_accesses;
                result.check(pointOk(point, outcome, refs), point.key);
            }
            passes.push_back(secondsSince(pass_start));
            cycles.push_back(secondsSince(cycle_start));
        } while (config.morePasses(begin, cycles, 1));
        logSeconds("array_grid pass", passes);
        logSeconds("array_grid setup", setups);

        std::vector<double> point_ms;
        double wall = 0.0;
        for (const std::vector<double> &times : point_s) {
            point_ms.push_back(median(times) * 1e3);
            wall += median(times);
        }
        const int64_t n = static_cast<int64_t>(passes.size());
        const int64_t points = static_cast<int64_t>(grid.size());
        result.add("wall_s", wall, "s", n);
        result.add("setup_s", median(setups), "s",
                   static_cast<int64_t>(setups.size()));
        result.add("peak_rss_mb", peakRssMb(), "MB", 1);
        result.add("work_per_s", accesses / wall, "1/s", n);
        result.note("sim_accesses_per_s", accesses / wall, "1/s", n);
        result.note("point_p50_ms", quantile(point_ms, 0.50), "ms", points);
        result.note("point_p95_ms", quantile(point_ms, 0.95), "ms", points);
        return result;
    }

    // Traced run: every point on the decorated hand-built stack, its
    // outcome checked against runScenario's for the same spec and
    // seed, then the remaining layers timed on the point's own
    // addresses.
    LayerTotals layers;
    double untraced_s = 0.0;
    double traced_s = 0.0;
    const SpanScope pass(spans, "array_grid.pass");
    for (const Point &point : grid) {
        const SpanScope span(spans, "point", pass.id());
        int64_t start = nowNs();
        tune::ScenarioOutcome reference;
        {
            const SpanScope untraced(spans, "point.untraced", span.id());
            tune::RunScenarioOptions options;
            options.seed = point.seed;
            reference = tune::runScenario(parsePoint(point), options);
        }
        untraced_s += secondsSince(start);

        start = nowNs();
        const ScenarioSpec spec = parsePoint(point);
        std::unique_ptr<Stack> stack;
        {
            const SpanScope setup(spans, "point.setup", span.id());
            stack = std::make_unique<Stack>(spec, point.seed, 1, true);
        }
        tune::ScenarioOutcome outcome;
        {
            const SpanScope run(spans, "point.run", span.id());
            outcome = stack->run();
        }
        traced_s += secondsSince(start);

        const bool same = outcomeText(outcome) == outcomeText(reference);
        if (!same)
            std::fprintf(stderr,
                         "[perfbench] %s: traced outcome differs\n",
                         point.key.c_str());
        result.check(same && pointOk(point, outcome, refs), point.key);
        const SpanScope direct(spans, "point.layers", span.id());
        layers.addStack(*stack, spec);
    }
    layers.report(result);
    result.add("trace.overhead_s", traced_s - untraced_s, "s", 1);
    return result;
}

} // namespace perfbench
