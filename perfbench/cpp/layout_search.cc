/**
 * @file
 * layout_search: dRAID-scale derandomization (searchDevelopedRows at
 * n = 130 and n = 258, width 8, 2 spares, 4 chains on 4 threads) plus
 * a bounded searchGroupOfSize PDDL hill climb (n = 55, k = 6, p = 2,
 * as in Figure 17).
 *
 * Why this workload: no simulator runs here, only the core search
 * kernels (ImbalanceEvaluator::applySwap, the climber's O(k) deltas,
 * the recompute audits). Merging the local-search kernels is gated
 * on search wall time, and this is what measures it; a simulator
 * change should not move it.
 */

#include <cstdio>
#include <optional>

#include "common.hh"
#include "core/base_permutation.hh"
#include "core/climber.hh"
#include "core/imbalance.hh"
#include "core/layout_search.hh"
#include "core/search.hh"
#include "layout/developed_random.hh"
#include "util/rng.hh"

namespace perfbench {

using namespace pddl;

namespace {

constexpr int kWidth = 8;
constexpr int kSpares = 2;
constexpr int kChains = 4;
constexpr int kSizes[] = {130, 258};
/** Inputs a run cycles through: how soon the climb finds a group
 *  depends on its seed, so a run averages over several. */
constexpr int kSubSeeds = 8;
/** Set-ups timed before each pass. */
constexpr int kSetupsPerPass = 4;

/** Candidate swaps per chain (as bench_layout_scale). */
int64_t
movesFor(int n)
{
    return 24LL * n * n;
}

LayoutSearchOptions
searchOptions(int n, uint64_t seed)
{
    LayoutSearchOptions opt;
    opt.chains = kChains;
    opt.moves = movesFor(n);
    opt.seed = hashMix64(static_cast<uint64_t>(n), seed);
    opt.threads = 4;
    return opt;
}

SearchOptions
climbOptions(uint64_t seed)
{
    SearchOptions opt;
    opt.restarts = 40;
    opt.max_steps = 8000;
    opt.seed = hashMix64(0x636c696du, seed);
    return opt;
}

/** Keeps computed results alive so timed work is not elided. */
volatile int64_t g_sink = 0;

/** Swaps the audit applies and checks against a full recompute. */
constexpr int kAuditSwaps = 4;

/**
 * Correctness of one developed-rows search: at the reference seed
 * its best cost and worst1 match the stored digest; at any seed every
 * chain's cost never rose, the best map re-scores to the recorded
 * cost and worst1, and sampled swap deltas equal the recompute audit.
 */
bool
searchOk(const LayoutSearchResult &found, int n, uint64_t seed,
         References &refs, const std::string &key)
{
    bool ok = true;
    for (const LayoutSearchChain &chain : found.chains)
        ok = ok && chain.final_cost <= chain.initial_cost;
    const LayoutSearchChain &best =
        found.chains[static_cast<size_t>(found.best_chain)];
    ImbalanceEvaluator eval(found.best);
    ok = ok && eval.cost() == best.final_cost &&
         eval.metrics(1).worst == best.final_worst1;
    Rng rng(hashMix64(0x617564u, seed));
    for (int i = 0; i < kAuditSwaps; ++i) {
        const int row = static_cast<int>(rng.below(n));
        const int a = static_cast<int>(rng.below(n));
        const int b = (a + 1 + static_cast<int>(rng.below(n - 1))) % n;
        eval.applySwap(row, a, b);
        ok = ok && eval.cost() == eval.recomputeCost();
    }
    if (!ok)
        std::fprintf(stderr, "[perfbench] %s: search invariants fail\n",
                     key.c_str());
    return ok && refs.match(key, std::to_string(best.final_cost) + " " +
                                     exact(best.final_worst1) + " " +
                                     std::to_string(found.best_raw_cost));
}

/** A found group must be valid and satisfactory (flat tally). */
bool
climbOk(const std::optional<PermutationGroup> &group, References &refs,
        const std::string &key)
{
    std::string text = "none";
    if (group) {
        if (!group->valid() || !isSatisfactory(*group)) {
            std::fprintf(stderr, "[perfbench] %s: bad group\n", key.c_str());
            return false;
        }
        text.clear();
        for (const std::vector<int> &perm : group->perms) {
            for (int v : perm)
                text += std::to_string(v) + ",";
            text += ";";
        }
    }
    return refs.match(key, text);
}

struct PassOutcome
{
    int64_t moves = 0;
    int64_t accepted = 0;
    double search_s = 0.0;
    double climb_s = 0.0;
    DevelopedRows largest;
};

/** One pass: both derandomizations and the climb, all checked. */
PassOutcome
runPass(uint64_t seed, int sub_seed, Result &result, References &refs,
        Spans *spans, int parent)
{
    PassOutcome out;
    for (int n : kSizes) {
        const std::string key =
            "draid" + std::to_string(n) + "." + std::to_string(sub_seed);
        const LayoutSearchOptions opt = searchOptions(n, seed);
        const int64_t start = nowNs();
        LayoutSearchResult found;
        {
            const SpanScope span(spans, "search.draid" + std::to_string(n),
                                 parent);
            found = searchDevelopedRows(n, kWidth, kSpares, n, opt);
        }
        out.search_s += secondsSince(start);
        out.moves += opt.moves * opt.chains;
        for (const LayoutSearchChain &chain : found.chains)
            out.accepted += chain.accepted;
        result.check(searchOk(found, n, seed, refs, key), key);
        out.largest = found.best;
    }
    const int64_t start = nowNs();
    std::optional<PermutationGroup> group;
    {
        const SpanScope span(spans, "search.climb55", parent);
        group = searchGroupOfSize(55, 6, 2, climbOptions(seed));
    }
    out.climb_s = secondsSince(start);
    result.check(climbOk(group, refs, "climb55." + std::to_string(sub_seed)),
                 "climb55");
    return out;
}

/** Set-up: the initial raw maps and their evaluators, every chain. */
double
setupOnce(uint64_t seed)
{
    const int64_t start = nowNs();
    int64_t sink = 0;
    for (int n : kSizes) {
        const LayoutSearchOptions opt = searchOptions(n, seed);
        for (int c = 0; c < opt.chains; ++c) {
            const ImbalanceEvaluator eval(randomDevelopedRows(
                n, kWidth, kSpares, n,
                hashMix64(static_cast<uint64_t>(c), opt.seed)));
            sink += eval.cost();
        }
    }
    Rng rng(climbOptions(seed).seed);
    GroupClimber climber(55, 6, 2, rng);
    climber.randomize();
    sink += climber.cost();
    g_sink = g_sink + sink;
    return secondsSince(start);
}

} // namespace

Result
runLayoutSearch(const RunConfig &config, Spans *spans)
{
    const int64_t begin = nowNs();
    Result result;
    References refs(config, "layout_search");

    if (!config.trace) {
        // Every pass first sets up kSetupsPerPass times, so set-up
        // samples span the timed phase like the passes do.
        std::vector<double> setups;
        std::vector<double> passes;
        std::vector<double> cycles;
        std::vector<std::vector<double>> search_s(kSubSeeds);
        int64_t moves = 0;
        do {
            const int pass = static_cast<int>(passes.size());
            const int64_t cycle_start = nowNs();
            for (int rep = 0; rep < kSetupsPerPass; ++rep)
                setups.push_back(setupOnce(passSeed(
                    config.seed, static_cast<int>(setups.size()), kSubSeeds)));

            const int64_t start = nowNs();
            const PassOutcome out =
                runPass(passSeed(config.seed, pass, kSubSeeds), pass % kSubSeeds,
                        result, refs, nullptr, -1);
            passes.push_back(secondsSince(start));
            cycles.push_back(secondsSince(cycle_start));
            search_s[static_cast<size_t>(pass % kSubSeeds)].push_back(
                out.search_s);
            moves = out.moves;
        } while (config.morePasses(begin, cycles, kSubSeeds));
        logSeconds("layout_search pass", passes);
        logSeconds("layout_search setup", setups);

        // Every pass evaluates the same number of candidate swaps.
        double search_cycle = 0.0;
        for (const std::vector<double> &times : search_s)
            search_cycle += median(times);
        const double rate = moves * kSubSeeds / search_cycle;
        const int64_t n = static_cast<int64_t>(passes.size());
        result.add("wall_s", cycleSeconds(passes, kSubSeeds), "s", n);
        result.add("setup_s", median(setups), "s",
                   static_cast<int64_t>(setups.size()));
        result.add("peak_rss_mb", peakRssMb(), "MB", 1);
        result.add("work_per_s", rate, "1/s", n);
        result.note("search_moves_per_s", rate, "1/s", moves * n);
        return result;
    }

    // Traced run: one untraced pass, one pass under spans (the
    // difference is the tracing overhead), then the kernels timed
    // directly on the largest map the traced pass found.
    const uint64_t seed = passSeed(config.seed, 0, kSubSeeds);
    int64_t start = nowNs();
    runPass(seed, 0, result, refs, nullptr, -1);
    const double untraced_s = secondsSince(start);

    const SpanScope root(spans, "layout_search.pass");
    start = nowNs();
    const PassOutcome out = runPass(seed, 0, result, refs, spans, root.id());
    const double traced_s = secondsSince(start);

    const SpanScope direct(spans, "kernels", root.id());
    ImbalanceEvaluator eval(out.largest);
    const int n = out.largest.n;
    constexpr int64_t kMoves = 2000000;
    Rng rng(hashMix64(0x6b65726eu, seed));
    start = nowNs();
    for (int64_t move = 0; move < kMoves; ++move) {
        const int row = static_cast<int>(rng.below(out.largest.rows.size()));
        const int a = static_cast<int>(rng.below(n));
        const int b = (a + 1 + static_cast<int>(rng.below(n - 1))) % n;
        const int64_t before = eval.cost();
        eval.applySwap(row, a, b);
        if (eval.cost() > before)
            eval.applySwap(row, a, b);
    }
    const double kernel_ns = static_cast<double>(nowNs() - start);
    constexpr int kAudits = 20;
    start = nowNs();
    bool audit_ok = true;
    for (int i = 0; i < kAudits; ++i) {
        if (eval.recomputeCost() != eval.cost())
            audit_ok = false;
    }
    const double audit_ms = secondsSince(start) * 1e3 / kAudits;
    result.check(audit_ok, "recompute audit after the kernel loop");

    start = nowNs();
    const DevelopedRandomLayout built(out.largest, seed);
    g_sink = g_sink + built.map(VirtualAddress{0, 0}).unit;
    result.add("layout.build_ms", secondsSince(start) * 1e3, "ms", 1);
    result.add("search.ns_per_move", kernel_ns / kMoves, "ns", kMoves);
    result.add("search.accept_ratio",
               static_cast<double>(out.accepted) / out.moves, "ratio",
               out.moves);
    result.add("search.climb_s", out.climb_s, "s", 1);
    result.add("search.audit_ms", audit_ms, "ms", kAudits);
    result.add("trace.overhead_s", traced_s - untraced_s, "s", 1);
    return result;
}

} // namespace perfbench
