/**
 * @file
 * autotune: tune::tune() from the autotune bench's training baseline
 * (2 PDDL shards behind a write-back tier, bursty write-heavy zipf
 * traffic), 4 chains on a 1-thread pool at one sim-thread each.
 *
 * One pool thread: tune() output is the same for every thread count,
 * and with 4 threads on a shared 4-vCPU host a call waited for the
 * slowest chain, so its time measured the host's scheduler.
 *
 * Why this workload: most of its time goes to building each
 * candidate's scenario (layout and device registry builds, map
 * tables, volume construction, the offset sampler), to spec
 * normalize/describe memoisation and to the ImbalanceEvaluator
 * surrogate. Those barely register in the other workloads, and this
 * is where work moved into set-up would show.
 */

#include <cmath>
#include <cstdio>

#include "common.hh"
#include "core/imbalance.hh"
#include "core/layout_spec.hh"
#include "layers.hh"
#include "stack.hh"
#include "tune/tuner.hh"
#include "util/rng.hh"

namespace perfbench {

using namespace pddl;

namespace {

/** Mutation attempts per chain: about 20-25 full evaluations a call. */
constexpr int kMoves = 8;
constexpr int kChains = 4;
/** Inputs a run cycles through: a tune() call's cost depends on its
 *  annealing path, so a run averages over many short paths. */
constexpr int kSubSeeds = 24;
/** Baseline set-ups timed before each tune() call. */
constexpr int kSetupsPerPass = 2;

/** bench_autotune's training baseline (its default-fidelity budget). */
ScenarioSpec
baselineSpec()
{
    ScenarioSpec spec;
    spec.shards.assign(2, ScenarioShard{});
    spec.chunk_units = 8;
    spec.dispatch_ms = 2.0;
    spec.arrivals_per_s = 100.0;
    spec.offsets = "zipf:0.99";
    spec.arrival = "mmpp:4,1200,400";
    spec.mix = {{8, true, 0.60},
                {32, true, 0.10},
                {8, false, 0.25},
                {32, false, 0.05}};
    spec.cache_enabled = true;
    spec.cache_kb = 32768;
    spec.cache_high = 0.10;
    spec.cache_low = 0.05;
    spec.samples = 1200;
    spec.warmup = 600;
    std::string error;
    if (!spec.normalize(error))
        throw std::runtime_error("baseline spec: " + error);
    return spec;
}

tune::TuneOptions
tuneOptions(uint64_t seed)
{
    tune::TuneOptions options;
    options.chains = kChains;
    options.moves = kMoves;
    options.seed = hashMix64(0x74756e65u, seed);
    options.threads = 1;
    options.sim_threads = 1;
    options.eval_seeds = {hashMix64(0x6576616cu, seed)};
    return options;
}

/**
 * Correctness of one tune() call: at the reference seed the winner's
 * canonical text and objective match the stored digest; at any seed
 * the winner re-simulates to exactly its recorded objective, meets
 * its sample budget, loses no data and drains every stalled write,
 * and is no worse than the baseline.
 */
bool
tuneOk(const tune::TuneResult &tuned, const tune::TuneOptions &options,
       References &refs, int sub_seed)
{
    tune::RunScenarioOptions run;
    run.seed = options.eval_seeds.front();
    const tune::ScenarioOutcome outcome =
        tune::runScenario(tuned.best, run);
    const double replayed = tune::objectiveOf(outcome, options.objective);
    const bool invariants =
        outcomeHolds(tuned.best, outcome, 0, "autotune winner") &&
        std::isfinite(tuned.best_objective) &&
        replayed == tuned.best_objective &&
        tuned.best_objective <= tuned.baseline_objective;
    if (!invariants)
        std::fprintf(stderr,
                     "[perfbench] autotune: best %.17g replayed %.17g "
                     "baseline %.17g\n",
                     tuned.best_objective, replayed,
                     tuned.baseline_objective);
    return invariants &&
           refs.match("tune." + std::to_string(sub_seed),
                      tuned.best.describe() + " " +
                          exact(tuned.best_objective) + " " +
                          std::to_string(tuned.evaluations));
}

} // namespace

Result
runAutotune(const RunConfig &config, Spans *spans)
{
    const int64_t begin = nowNs();
    Result result;
    References refs(config, "autotune");
    const std::string text = baselineSpec().describe();
    const tune::TuneOptions options = tuneOptions(passSeed(config.seed, 0, kSubSeeds));

    if (!config.trace) {
        // Set-up is timed on perfbench's Stack, a copy of runScenario's
        // construction; check that it runs to runScenario's outcome.
        result.check(stackMatchesRunner(baselineSpec(),
                                        options.eval_seeds.front(), 1,
                                        "autotune baseline"),
                     "autotune set-up stack");

        // Every pass first sets up the baseline scenario (spec text to
        // a system ready for its first event) kSetupsPerPass times, so
        // set-up samples span the timed phase like the passes do.
        std::vector<double> setups;
        std::vector<double> passes;
        std::vector<double> cycles;
        std::vector<int64_t> evaluations(kSubSeeds, 0);
        do {
            const int pass = static_cast<int>(passes.size());
            const int64_t cycle_start = nowNs();
            for (int rep = 0; rep < kSetupsPerPass; ++rep) {
                const int64_t start = nowNs();
                const ScenarioSpec spec = ScenarioSpec::parseOrThrow(text);
                Stack stack(spec, options.eval_seeds.front(), 1, false);
                setups.push_back(secondsSince(start));
            }

            const tune::TuneOptions tuning =
                tuneOptions(passSeed(config.seed, pass, kSubSeeds));
            const int64_t start = nowNs();
            const tune::TuneResult tuned =
                tune::tune(ScenarioSpec::parseOrThrow(text), tuning);
            passes.push_back(secondsSince(start));
            cycles.push_back(secondsSince(cycle_start));
            evaluations[pass % kSubSeeds] = tuned.evaluations;
            result.check(tuneOk(tuned, tuning, refs, pass % kSubSeeds),
                         "tune");
        } while (config.morePasses(begin, cycles, kSubSeeds));
        logSeconds("autotune pass", passes);
        logSeconds("autotune setup", setups);

        // One pass per sub-seed does these evaluations in this time.
        int64_t cycle_evals = 0;
        for (int64_t e : evaluations)
            cycle_evals += e;
        const double wall = cycleSeconds(passes, kSubSeeds);
        const double rate = cycle_evals / (wall * kSubSeeds);
        const int64_t n = static_cast<int64_t>(passes.size());
        result.add("wall_s", wall, "s", n);
        result.add("setup_s", median(setups), "s",
                   static_cast<int64_t>(setups.size()));
        result.add("peak_rss_mb", peakRssMb(), "MB", 1);
        result.add("work_per_s", rate, "1/s", n);
        result.note("tune_evals_per_s", rate, "1/s", cycle_evals);
        return result;
    }

    // Traced run: one tune() call, the surrogate timed directly, then
    // the winner and the baseline simulated once each on the
    // decorated stack (checked against runScenario) for the
    // simulator layers under an evaluation.
    const SpanScope root(spans, "autotune.pass");
    int64_t start = nowNs();
    tune::TuneResult tuned;
    {
        const SpanScope span(spans, "tune", root.id());
        tuned = tune::tune(ScenarioSpec::parseOrThrow(text), options);
    }
    const double tune_s = secondsSince(start);
    result.check(tuneOk(tuned, options, refs, 0), "tune");

    int64_t memo_hits = 0;
    int64_t rejects = 0;
    for (const tune::TuneChain &chain : tuned.chains) {
        memo_hits += chain.memo_hits;
        rejects += chain.surrogate_rejects;
    }
    const int64_t proposed = static_cast<int64_t>(kChains) * kMoves;
    result.add("tune.ms_per_eval", tune_s * 1e3 / tuned.evaluations, "ms",
               tuned.evaluations);
    result.add("tune.evaluations", tuned.evaluations, "count", 1);
    result.add("tune.memo_hits", static_cast<double>(memo_hits), "count", 1);
    result.add("tune.surrogate_rejects", static_cast<double>(rejects),
               "count", 1);
    result.add("tune.sim_share",
               static_cast<double>(tuned.evaluations) / proposed, "ratio",
               proposed);

    {
        const SpanScope span(spans, "surrogate", root.id());
        const ScenarioShard &shard = tuned.best.shards.front();
        constexpr int kReps = 20;
        start = nowNs();
        double worst = 0.0;
        for (int rep = 0; rep < kReps; ++rep) {
            const auto layout = layouts::makeLayout(shard.layout, shard.disks);
            worst += ImbalanceEvaluator::forLayout(*layout).metrics(1).worst;
        }
        result.add("tune.surrogate_ms", secondsSince(start) * 1e3 / kReps,
                   "ms", kReps);
        if (!(worst > 0.0))
            result.check(false, "surrogate worst ratio");
    }

    LayerTotals layers;
    double untraced_s = 0.0;
    double traced_s = 0.0;
    const ScenarioSpec baseline = baselineSpec();
    for (const ScenarioSpec *spec :
         std::vector<const ScenarioSpec *>{&tuned.best, &baseline}) {
        const SpanScope span(spans, "evaluation", root.id());
        tune::RunScenarioOptions run;
        run.seed = options.eval_seeds.front();
        start = nowNs();
        const tune::ScenarioOutcome reference = tune::runScenario(*spec, run);
        untraced_s += secondsSince(start);
        start = nowNs();
        Stack stack(*spec, run.seed, 1, true);
        const tune::ScenarioOutcome outcome = stack.run();
        traced_s += secondsSince(start);
        result.check(outcomeText(outcome) == outcomeText(reference),
                     "autotune traced evaluation equals runScenario");
        layers.addStack(stack, *spec);
    }
    layers.report(result);
    result.add("trace.overhead_s", traced_s - untraced_s, "s", 1);
    return result;
}

} // namespace perfbench
