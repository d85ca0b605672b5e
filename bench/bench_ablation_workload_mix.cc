/**
 * @file
 * Extension: open-loop mixed workload. The paper's evaluation uses
 * homogeneous closed-loop streams and notes that a more realistic
 * mix would better predict real deployments (section 4); this bench
 * drives all five layouts with a Poisson arrival process and an
 * OLTP-ish profile (70% 8 KB reads, 20% 24 KB writes, 10% 96 KB
 * reads) across offered loads, in fault-free and degraded modes.
 */

#include "bench_util.hh"
#include "workload/open_loop.hh"

int
main(int argc, char **argv)
{
    using namespace pddl;
    bench::parseArgs(argc, argv,
                     "Extension: open-loop OLTP-ish workload mix across offered loads",
                     bench::kLayoutFlag | bench::kGridFlags |
                         bench::kProbeFlags);
    auto layouts = bench::evaluatedLayouts();
    const DeviceModel &model = device::hp2247();
    const bool full = bench::fullFidelity();

    const char *figure = "Ablation workload mix";
    const char *caption =
        "open-loop mixed workload (Poisson arrivals; 70% 8KB reads, "
        "20% 24KB writes, 10% 96KB reads)";
    const std::vector<ArrayMode> modes = {ArrayMode::FaultFree,
                                          ArrayMode::Degraded};
    const std::vector<double> rates = {50.0, 100.0, 200.0, 300.0};

    std::vector<harness::Experiment> experiments;
    for (ArrayMode mode : modes) {
        for (const auto &layout : layouts) {
            for (double rate : rates) {
                harness::Experiment experiment;
                // The offered load goes into the series label so the
                // seed hash distinguishes sweep points.
                experiment.point = {
                    figure,
                    layout->name() + "@" +
                        std::to_string(static_cast<int>(rate)) + "/s",
                    0, 0, AccessType::Read, mode};
                const Layout *l = layout.get();
                experiment.run =
                    [l, &model, mode, rate, full](
                        uint64_t seed, const obs::Probe &probe,
                        harness::Extras &extras) {
                        OpenLoopConfig config;
                        config.arrivals_per_s = rate;
                        config.mix = {
                            AccessMixEntry{1, AccessType::Read, 0.7},
                            AccessMixEntry{3, AccessType::Write, 0.2},
                            AccessMixEntry{12, AccessType::Read, 0.1},
                        };
                        config.samples = full ? 20000 : 2500;
                        config.warmup = full ? 2000 : 250;
                        config.seed = seed;
                        config.probe = probe;
                        ArrayConfig array;
                        array.mode = mode;
                        array.failed_disk = 0;
                        array.probe = probe;
                        OpenLoopClient client(config);
                        OpenLoopResult r =
                            runOnArray(*l, model, array, client);
                        extras.emplace_back("p95_response_ms",
                                            r.p95_response_ms);
                        extras.emplace_back(
                            "max_outstanding",
                            static_cast<double>(r.max_outstanding));
                        SimResult result;
                        result.mean_response_ms = r.mean_response_ms;
                        result.throughput_per_s = r.completed_per_s;
                        result.samples = r.samples;
                        return result;
                    };
                experiments.push_back(std::move(experiment));
            }
        }
    }
    harness::RunSummary summary =
        bench::runGrid(figure, caption, experiments);

    std::printf("Extension: open-loop mixed workload (Poisson "
                "arrivals; 70%% 8KB reads, 20%% 24KB writes,\n"
                "10%% 96KB reads). Cells = mean / p95 response ms.\n");
    size_t index = 0;
    for (ArrayMode mode : modes) {
        std::printf("\n-- %s --\n",
                    mode == ArrayMode::FaultFree ? "fault free"
                                                 : "single failure");
        std::printf("%-20s", "layout \\ load/s");
        for (double rate : rates)
            std::printf("  %8.0f     ", rate);
        std::printf("\n");
        bench::printRule(2 + 4);
        for (const auto &layout : layouts) {
            std::printf("%-20s", layout->name().c_str());
            for (size_t r = 0; r < rates.size(); ++r) {
                const harness::PointResult &point =
                    summary.points[index++];
                std::printf("  %6.1f/%-6.1f",
                            point.result.mean_response_ms,
                            point.extras[0].second);
            }
            std::printf("\n");
        }
    }
    std::printf("\n");
    return 0;
}
