/**
 * @file
 * volume64_cached: one long scenario through runScenario at four
 * sim-threads -- 64 PDDL shards of 13 HP 2247 disks behind the
 * write-back CacheTier on the hub, driven open-loop by MMPP bursts
 * with zipf:0.99 offsets and a write-heavy mix. The tier starts
 * empty; the spec's warm-up accesses are excluded from the simulated
 * statistics.
 *
 * Why this workload: the ParallelEngine window/barrier, the
 * VolumeManager fan-out, the hub CacheTier (destage and stalls) and
 * a large pending set do most of their work here and little in
 * array_grid, so an engine, volume or cache change shows here and
 * should not move array_grid.
 */

#include <cstdio>
#include <memory>

#include "common.hh"
#include "layers.hh"
#include "stack.hh"
#include "util/rng.hh"

namespace perfbench {

using namespace pddl;

namespace {

constexpr int kShards = 64;
constexpr int kSimThreads = 4;

ScenarioSpec
volumeSpec()
{
    ScenarioSpec spec;
    spec.shards.assign(kShards, ScenarioShard{});
    spec.chunk_units = 8;
    spec.dispatch_ms = 2.0;
    spec.client = "open";
    spec.arrivals_per_s = 3200.0;
    spec.offsets = "zipf:0.99";
    spec.arrival = "mmpp:4,1200,400";
    spec.mix = {{8, true, 0.60},
                {32, true, 0.10},
                {8, false, 0.25},
                {32, false, 0.05}};
    spec.cache_enabled = true;
    // A 128 MB tier with one destage stream per four shards: bursts
    // still reach the high watermark and stall writes, but the tier
    // drains between them (a narrower pump wedges the volume).
    spec.cache_kb = 131072;
    spec.cache_width = 256;
    spec.samples = 1000000;
    spec.warmup = 50000;
    std::string error;
    if (!spec.normalize(error))
        throw std::runtime_error("volume spec: " + error);
    return spec;
}

bool
outcomeOk(const ScenarioSpec &spec, const tune::ScenarioOutcome &outcome,
          References &refs, const std::string &key)
{
    const bool invariants = outcomeHolds(spec, outcome, 0, key);
    return invariants && refs.match(key, outcomeText(outcome));
}

tune::ScenarioOutcome
runOnce(const std::string &text, uint64_t seed, int threads)
{
    tune::RunScenarioOptions options;
    options.seed = seed;
    options.sim_threads = threads;
    return tune::runScenario(ScenarioSpec::parseOrThrow(text), options);
}

} // namespace

Result
runVolume64(const RunConfig &config, Spans *spans)
{
    const int64_t begin = nowNs();
    Result result;
    References refs(config, "volume64_cached");
    const ScenarioSpec spec = volumeSpec();
    const std::string text = spec.describe();
    const uint64_t seed = hashMix64(0x766f6cu, config.seed);

    if (!config.trace) {
        // The first run of the scenario in a process is slower (heap
        // growth for the pending set); it is checked but not timed. It
        // runs on perfbench's Stack, whose construction set-up time is
        // measured on, and must equal every runScenario outcome.
        const std::string warm =
            outcomeText(Stack(spec, seed, kSimThreads, false).run());

        // Every pass first sets up the scenario once (spec text to a
        // system ready for its first event), so set-up samples span
        // the timed phase like the passes do.
        std::vector<double> setups;
        std::vector<double> passes;
        std::vector<double> cycles;
        int64_t accesses = 0;
        do {
            const int64_t cycle_start = nowNs();
            {
                const ScenarioSpec parsed = ScenarioSpec::parseOrThrow(text);
                Stack stack(parsed, seed, kSimThreads, false);
                setups.push_back(secondsSince(cycle_start));
            }

            const int64_t start = nowNs();
            const tune::ScenarioOutcome outcome =
                runOnce(text, seed, kSimThreads);
            passes.push_back(secondsSince(start));
            cycles.push_back(secondsSince(cycle_start));
            accesses = spec.warmup + outcome.samples;
            const bool same = outcomeText(outcome) == warm;
            if (!same)
                std::fprintf(stderr, "[perfbench] volume64: set-up stack "
                                     "outcome differs from runScenario\n");
            result.check(same && outcomeOk(spec, outcome, refs, "volume64"),
                         "volume64");
        } while (config.morePasses(begin, cycles, 1));
        logSeconds("volume64_cached pass", passes);
        logSeconds("volume64_cached setup", setups);

        // Every pass completes the same accesses (one seed).
        const double wall = median(passes);
        const int64_t n = static_cast<int64_t>(passes.size());
        result.add("wall_s", wall, "s", n);
        result.add("setup_s", median(setups), "s",
                   static_cast<int64_t>(setups.size()));
        result.add("peak_rss_mb", peakRssMb(), "MB", 1);
        result.add("work_per_s", accesses / wall, "1/s", n);
        result.note("sim_accesses_per_s", accesses / wall, "1/s", n);
        return result;
    }

    // Traced run: runScenario alternately at one and at four
    // sim-threads (the engine's speedup, which ROADMAP item 1 has to
    // move, as a ratio of medians; every outcome must be identical),
    // then the decorated stack (equivalence and tracing overhead).
    const SpanScope pass(spans, "volume64.pass");
    constexpr int kSpeedupRuns = 3;
    std::vector<double> serial_s;
    std::vector<double> parallel_s;
    tune::ScenarioOutcome reference;
    for (int i = 0; i < kSpeedupRuns; ++i) {
        for (int threads : {1, kSimThreads}) {
            const SpanScope span(spans, threads == 1 ? "scenario.serial"
                                                     : "scenario.untraced",
                                 pass.id());
            const int64_t start = nowNs();
            const tune::ScenarioOutcome outcome =
                runOnce(text, seed, threads);
            (threads == 1 ? serial_s : parallel_s)
                .push_back(secondsSince(start));
            if (i == 0 && threads == 1)
                reference = outcome;
            else
                result.check(outcomeText(outcome) == outcomeText(reference),
                             "volume64 identical at 1 and 4 sim-threads");
        }
    }

    const int64_t start = nowNs();
    std::unique_ptr<Stack> stack;
    tune::ScenarioOutcome outcome;
    {
        const SpanScope span(spans, "scenario.traced", pass.id());
        {
            const SpanScope setup(spans, "scenario.setup", span.id());
            stack = std::make_unique<Stack>(spec, seed, kSimThreads, true);
        }
        const SpanScope run(spans, "scenario.run", span.id());
        outcome = stack->run();
    }
    const double traced_s = secondsSince(start);
    const bool same = outcomeText(outcome) == outcomeText(reference);
    if (!same)
        std::fprintf(stderr, "[perfbench] volume64: traced outcome "
                             "differs from runScenario\n");
    result.check(same && outcomeOk(spec, outcome, refs, "volume64"),
                 "volume64 traced");

    LayerTotals layers;
    {
        const SpanScope direct(spans, "layers", pass.id());
        layers.addStack(*stack, spec);
    }
    layers.report(result);
    result.add("sim.speedup_4v1", median(serial_s) / median(parallel_s), "x",
               kSpeedupRuns);
    result.add("trace.overhead_s", traced_s - median(parallel_s), "s", 1);
    return result;
}

} // namespace perfbench
