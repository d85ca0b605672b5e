/**
 * @file
 * Tests for the parallel experiment harness: the work-stealing pool,
 * deterministic per-point seeding, the serial-vs-parallel determinism
 * guarantee, and the BENCH_*.json emitter.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>

#include "harness/runner.hh"
#include "harness/thread_pool.hh"
#include "layout/raid5.hh"
#include "obs/probe.hh"
#include "util/rng.hh"

namespace pddl {
namespace {

using harness::deriveSeed;
using harness::Experiment;
using harness::ExperimentRunner;
using harness::GridPoint;
using harness::RunSummary;
using harness::ThreadPool;

TEST(ThreadPool, ReportsRequestedThreadCount)
{
    EXPECT_EQ(ThreadPool(1).threads(), 1);
    EXPECT_EQ(ThreadPool(4).threads(), 4);
}

TEST(ThreadPool, DefaultThreadsHonorsEnvironment)
{
    ::setenv("PDDL_BENCH_THREADS", "7", 1);
    EXPECT_EQ(harness::defaultThreads(), 7);
    // Nonsense values fall back to hardware concurrency (>= 1).
    ::setenv("PDDL_BENCH_THREADS", "0", 1);
    EXPECT_GE(harness::defaultThreads(), 1);
    ::unsetenv("PDDL_BENCH_THREADS");
    EXPECT_GE(harness::defaultThreads(), 1);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    for (int threads : {1, 2, 4, 8}) {
        ThreadPool pool(threads);
        const size_t count = 500;
        std::vector<std::atomic<int>> hits(count);
        pool.parallelFor(count,
                         [&](size_t i) { hits[i].fetch_add(1); });
        for (size_t i = 0; i < count; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i << " with "
                                         << threads << " threads";
    }
}

TEST(ThreadPool, EmptyBatchIsANoop)
{
    ThreadPool pool(4);
    pool.parallelFor(0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ReusableAcrossBatches)
{
    ThreadPool pool(4);
    std::atomic<int> total{0};
    for (int batch = 0; batch < 5; ++batch)
        pool.parallelFor(100, [&](size_t) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 500);
}

TEST(ThreadPool, PropagatesTaskExceptions)
{
    for (int threads : {1, 4}) {
        ThreadPool pool(threads);
        EXPECT_THROW(pool.parallelFor(64,
                                      [](size_t i) {
                                          if (i == 17)
                                              throw std::runtime_error(
                                                  "boom");
                                      }),
                     std::runtime_error);
        // The pool must stay usable after a failed batch.
        std::atomic<int> ran{0};
        pool.parallelFor(8, [&](size_t) { ran.fetch_add(1); });
        EXPECT_EQ(ran.load(), 8);
    }
}

TEST(DeriveSeed, StableAndFieldSensitive)
{
    GridPoint base{"Figure 5", "PDDL", 24, 8, AccessType::Read,
                   ArrayMode::FaultFree};
    // Pure function of the identity: repeated calls agree.
    EXPECT_EQ(deriveSeed(base), deriveSeed(base));

    // Every identity field feeds the hash.
    std::set<uint64_t> seeds{deriveSeed(base)};
    GridPoint p = base;
    p.figure = "Figure 6";
    EXPECT_TRUE(seeds.insert(deriveSeed(p)).second);
    p = base;
    p.layout = "RAID-5";
    EXPECT_TRUE(seeds.insert(deriveSeed(p)).second);
    p = base;
    p.size_kb = 48;
    EXPECT_TRUE(seeds.insert(deriveSeed(p)).second);
    p = base;
    p.clients = 10;
    EXPECT_TRUE(seeds.insert(deriveSeed(p)).second);
    p = base;
    p.type = AccessType::Write;
    EXPECT_TRUE(seeds.insert(deriveSeed(p)).second);
    p = base;
    p.mode = ArrayMode::Degraded;
    EXPECT_TRUE(seeds.insert(deriveSeed(p)).second);
}

TEST(DeriveSeed, DistinctAcrossAGrid)
{
    std::set<uint64_t> seeds;
    int points = 0;
    for (int kb : {8, 24, 48})
        for (const char *layout : {"PDDL", "RAID-5", "DATUM"})
            for (int clients : {1, 4, 8, 25}) {
                GridPoint point{"Figure 14", layout, kb, clients,
                                AccessType::Read, ArrayMode::FaultFree};
                seeds.insert(deriveSeed(point));
                ++points;
            }
    EXPECT_EQ(static_cast<int>(seeds.size()), points);
}

/** A small but real simulation grid over a 5-disk RAID-5. */
std::vector<Experiment>
smallGrid(const Layout &layout, const DeviceModel &model)
{
    std::vector<Experiment> experiments;
    for (int clients : {1, 4, 8}) {
        for (AccessType type : {AccessType::Read, AccessType::Write}) {
            ClosedLoopConfig workload;
            workload.clients = clients;
            workload.access_units = 2;
            workload.type = type;
            workload.min_samples = 60;
            workload.max_samples = 200;
            workload.warmup = 20;
            experiments.push_back(harness::closedLoopPoint(
                {"Harness test", layout.name(), 16, clients, type,
                 ArrayMode::FaultFree},
                layout, model, workload));
        }
    }
    return experiments;
}

TEST(ExperimentRunner, ParallelRunMatchesSerialBitForBit)
{
    Raid5Layout layout(5);
    const DeviceModel &model = device::hp2247();
    auto experiments = smallGrid(layout, model);

    RunSummary serial = ExperimentRunner(1).run(experiments);
    RunSummary parallel = ExperimentRunner(4).run(experiments);

    EXPECT_EQ(serial.threads, 1);
    EXPECT_EQ(parallel.threads, 4);
    ASSERT_EQ(serial.points.size(), experiments.size());
    ASSERT_EQ(parallel.points.size(), experiments.size());
    for (size_t i = 0; i < experiments.size(); ++i) {
        const SimResult &a = serial.points[i].result;
        const SimResult &b = parallel.points[i].result;
        EXPECT_EQ(serial.points[i].seed, parallel.points[i].seed);
        // Bit-identical, not approximately equal: the parallel
        // schedule must not perturb any simulation.
        EXPECT_EQ(a.mean_response_ms, b.mean_response_ms) << "row " << i;
        EXPECT_EQ(a.ci_half_width_ms, b.ci_half_width_ms) << "row " << i;
        EXPECT_EQ(a.throughput_per_s, b.throughput_per_s) << "row " << i;
        EXPECT_EQ(a.samples, b.samples) << "row " << i;
        EXPECT_EQ(a.non_local_seeks, b.non_local_seeks) << "row " << i;
        EXPECT_EQ(a.cylinder_switches, b.cylinder_switches)
            << "row " << i;
        EXPECT_EQ(a.track_switches, b.track_switches) << "row " << i;
        EXPECT_EQ(a.no_switches, b.no_switches) << "row " << i;
    }
    EXPECT_EQ(serial.totals.get("points"),
              parallel.totals.get("points"));
    EXPECT_EQ(serial.totals.get("samples"),
              parallel.totals.get("samples"));
}

TEST(ExperimentRunner, CustomExperimentsReceiveTheDerivedSeed)
{
    Experiment experiment;
    experiment.point = {"Custom", "analytic", 0, 0, AccessType::Read,
                        ArrayMode::FaultFree};
    experiment.run = [](uint64_t seed, const obs::Probe &,
                        harness::Extras &extras) {
        extras.emplace_back("seed_lo32",
                            static_cast<double>(seed & 0xffffffffu));
        SimResult result;
        result.samples = 1;
        return result;
    };
    RunSummary summary = ExperimentRunner(2).run({experiment});
    ASSERT_EQ(summary.points.size(), 1u);
    const auto &point = summary.points[0];
    EXPECT_EQ(point.seed, deriveSeed(experiment.point));
    ASSERT_EQ(point.extras.size(), 1u);
    EXPECT_EQ(point.extras[0].second,
              static_cast<double>(point.seed & 0xffffffffu));
}

TEST(ExperimentRunner, ClosureMetricsMatchAcrossThreadCounts)
{
    // Closure-only points (no closed loop): each records through the
    // probe the runner hands it, and its snapshot is its own.
    std::vector<Experiment> experiments;
    for (int i = 0; i < 12; ++i) {
        Experiment experiment;
        experiment.point = {"Probe grid", "closure", i, 0,
                            AccessType::Read, ArrayMode::FaultFree};
        experiment.run = [](uint64_t seed, const obs::Probe &probe,
                            harness::Extras &) {
            Rng rng(seed);
            for (int s = 0; s < 200; ++s)
                probe.observe("closure.sample_ms", 50.0 * rng.uniform());
            probe.count("closure.runs");
            SimResult result;
            result.samples = 200;
            return result;
        };
        experiments.push_back(std::move(experiment));
    }

    ExperimentRunner serial(1);
    ExperimentRunner parallel(4);
    serial.enableMetrics(true);
    parallel.enableMetrics(true);
    RunSummary one = serial.run(experiments);
    RunSummary four = parallel.run(experiments);
    ASSERT_EQ(one.points.size(), experiments.size());
    ASSERT_EQ(four.points.size(), experiments.size());
    for (size_t i = 0; i < experiments.size(); ++i) {
        const obs::MetricsSnapshot &a = one.points[i].metrics;
        const obs::MetricsSnapshot &b = four.points[i].metrics;
        EXPECT_EQ(a.toJson().dump(0), b.toJson().dump(0)) << "point " << i;
        if (obs::kObsEnabled) {
            ASSERT_NE(a.histogram("closure.sample_ms"), nullptr);
            EXPECT_EQ(a.histogram("closure.sample_ms")->count, 200);
            EXPECT_EQ(a.counter("closure.runs"), 1.0);
        } else {
            EXPECT_TRUE(a.empty());
        }
    }
}

TEST(FigureSlug, NormalizesCaptionsToFileNames)
{
    EXPECT_EQ(harness::figureSlug("Figure 5"), "figure_5");
    EXPECT_EQ(harness::figureSlug("Figure 14 (top left)"),
              "figure_14_top_left");
    EXPECT_EQ(harness::figureSlug("SSTF ablation"), "sstf_ablation");
    EXPECT_EQ(harness::figureSlug("---"), "unnamed");
}

TEST(Json, DumpsScalarsAndEscapes)
{
    EXPECT_EQ(Json(true).dump(0), "true");
    EXPECT_EQ(Json(42).dump(0), "42");
    // Seeds above INT64_MAX are emitted as their signed bit pattern
    // (documented in the schema).
    EXPECT_EQ(Json(uint64_t{0xffffffffffffffffULL}).dump(0), "-1");
    EXPECT_EQ(Json("a\"b\\c\n\t").dump(0), "\"a\\\"b\\\\c\\n\\t\"");
    EXPECT_EQ(Json(std::string(1, '\x01')).dump(0), "\"\\u0001\"");
    // Non-finite doubles have no JSON rendering; they become null.
    EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(0),
              "null");
}

TEST(Json, NumbersRoundTripAtFullPrecision)
{
    double value = 0.1 + 0.2;
    std::string text = Json(value).dump(0);
    EXPECT_EQ(std::stod(text), value);
}

TEST(Json, ObjectsKeepInsertionOrderAndReplaceKeys)
{
    Json object = Json::object();
    object.set("b", 1).set("a", 2).set("b", 3);
    EXPECT_EQ(object.dump(0), "{\"b\":3,\"a\":2}");

    Json array = Json::array();
    array.push(1).push("two").push(Json::object());
    EXPECT_EQ(array.dump(0), "[1,\"two\",{}]");
}

TEST(WriteFigureJson, EmitsAParsableDocument)
{
    Raid5Layout layout(5);
    const DeviceModel &model = device::hp2247();
    auto experiments = smallGrid(layout, model);
    RunSummary summary = ExperimentRunner(2).run(experiments);

    auto dir = std::filesystem::temp_directory_path() /
               "pddl_harness_test";
    std::filesystem::create_directories(dir);
    std::string path = harness::writeFigureJson(
        dir.string(), "Harness test", "unit test grid", summary);
    EXPECT_EQ(std::filesystem::path(path).filename().string(),
              "BENCH_harness_test.json");

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    EXPECT_NE(text.find("\"schema\": \"pddl-bench-v1\""),
              std::string::npos);
    EXPECT_NE(text.find("\"rows\""), std::string::npos);
    EXPECT_NE(text.find("\"seeks\""), std::string::npos);
    // One row per experiment.
    size_t rows = 0;
    for (size_t at = text.find("\"seed\""); at != std::string::npos;
         at = text.find("\"seed\"", at + 1))
        ++rows;
    EXPECT_EQ(rows, experiments.size());
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace pddl
