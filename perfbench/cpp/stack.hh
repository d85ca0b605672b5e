/**
 * @file
 * A scenario assembled by hand from the public constructors
 * tune::runScenario uses (ParallelEngine, VolumeManager, CacheTier,
 * FaultScheduler, the open/closed-loop clients), split into set-up
 * and run so set-up time can be measured on its own.
 *
 * In a traced stack every shard's drives run on a forwarding
 * DeviceModel (passed through ShardSpec::device) and timing Targets
 * sit at the client->tier and tier->volume boundaries. Each records a
 * call count plus total host ns; one decorator per shard keeps each
 * engine lane the single writer of its counters. The decorators only
 * forward, so a traced stack's outcome must equal runScenario's bit
 * for bit -- the workloads check that it does.
 */

#ifndef PERFBENCH_STACK_HH
#define PERFBENCH_STACK_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "array/target.hh"
#include "cache/cache_tier.hh"
#include "core/scenario_spec.hh"
#include "disk/device_model.hh"
#include "fault/fault_scheduler.hh"
#include "obs/metrics.hh"
#include "sim/parallel_engine.hh"
#include "tune/scenario_runner.hh"
#include "volume/placement.hh"
#include "volume/volume_manager.hh"
#include "workload/closed_loop.hh"
#include "workload/open_loop.hh"
#include "workload/workload.hh"

namespace perfbench {

/** Forwarding DeviceModel that times serviceTime(). */
class TimedDevice : public pddl::DeviceModel
{
  public:
    explicit TimedDevice(std::shared_ptr<const pddl::DeviceModel> inner)
        : inner_(std::move(inner))
    {
    }

    const char *kind() const override { return inner_->kind(); }
    std::string describe() const override { return inner_->describe(); }
    int64_t totalSectors() const override
    {
        return inner_->totalSectors();
    }
    int sectorBytes() const override { return inner_->sectorBytes(); }
    int seekPosition(int64_t lba) const override
    {
        return inner_->seekPosition(lba);
    }
    pddl::SeekClass classify(const pddl::MechState &state, int64_t lba,
                             bool same_access) const override
    {
        return inner_->classify(state, lba, same_access);
    }
    double serviceTime(double now, int64_t lba, int sectors, bool write,
                       pddl::MechState &state) const override;
    double costUnits() const override { return inner_->costUnits(); }
    const std::vector<double> &latencyBoundsMs() const override
    {
        return inner_->latencyBoundsMs();
    }

    int64_t calls() const { return calls_; }
    int64_t ns() const { return ns_; }

  private:
    std::shared_ptr<const pddl::DeviceModel> inner_;
    mutable int64_t calls_ = 0;
    mutable int64_t ns_ = 0;
};

/** One logical access as a workload issued it. */
struct AccessRecord
{
    int64_t start = 0;
    int count = 0;
    pddl::AccessType type = pddl::AccessType::Read;
};

/**
 * Forwarding Target that times access() (the synchronous part: the
 * layer's own work plus whatever it issues below before returning)
 * and keeps the first accesses it saw, so layer costs can later be
 * timed over the workload's own addresses. A boundary nested in
 * another (tier->volume inside client->tier, both on the hub lane)
 * books the time it spends inside the outer one's calls as the outer
 * one's nested time, so the outer layer's self time can be read.
 */
class TimedTarget : public pddl::Target
{
  public:
    TimedTarget(pddl::Target &inner, size_t keep)
        : inner_(inner), keep_(keep)
    {
    }

    int64_t dataUnits() const override { return inner_.dataUnits(); }
    void access(int64_t start_unit, int count, pddl::AccessType type,
                pddl::InlineCallback done) override;
    pddl::SeekTally aggregateTally() const override
    {
        return inner_.aggregateTally();
    }
    uint64_t accessesIssued() const override
    {
        return inner_.accessesIssued();
    }

    /** Book this boundary's time inside `outer`'s calls there. */
    void nestIn(TimedTarget *outer) { outer_ = outer; }

    int64_t calls() const { return calls_; }
    int64_t ns() const { return ns_; }
    /** Host ns of access() less the nested boundaries' share. */
    int64_t selfNs() const { return ns_ - nested_ns_; }
    const std::vector<AccessRecord> &sample() const { return sample_; }

  private:
    pddl::Target &inner_;
    size_t keep_;
    TimedTarget *outer_ = nullptr;
    int depth_ = 0;
    int64_t calls_ = 0;
    int64_t ns_ = 0;
    int64_t nested_ns_ = 0;
    std::vector<AccessRecord> sample_;
};

/** A built, not yet run, scenario. */
class Stack
{
  public:
    /**
     * Build everything runScenario builds for (spec, seed), warm each
     * shard's map table and start the client, leaving the system
     * ready for its first event; `traced` inserts the decorators.
     * @param spec a normalized spec
     */
    Stack(const pddl::ScenarioSpec &spec, uint64_t seed,
          int sim_threads, bool traced);
    ~Stack();

    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;

    /** Run to drain and collect the outcome. */
    pddl::tune::ScenarioOutcome run();

    pddl::ParallelEngine &engine() { return *engine_; }
    pddl::VolumeManager &volume() { return *volume_; }
    /** The write-back tier, nullptr when the spec has none. */
    const pddl::cache::CacheTier *tier() const { return tier_.get(); }
    /** Per-shard drive decorators (traced stacks only). */
    const std::vector<std::unique_ptr<TimedDevice>> &devices() const
    {
        return devices_;
    }
    /** Client->first-layer boundary (traced stacks only). */
    const TimedTarget *clientBoundary() const { return client_edge_.get(); }
    /** The boundary in front of the volume (traced stacks only). */
    const TimedTarget *volumeBoundary() const
    {
        return tier_ ? volume_edge_.get() : client_edge_.get();
    }
    /** Host ns run() spent inside ParallelEngine::run(). */
    int64_t runNs() const { return run_ns_; }

  private:
    const pddl::ScenarioSpec &spec_;
    // Declaration order is destruction order reversed: everything
    // that refers to the engine, devices or placement comes after.
    std::vector<std::unique_ptr<TimedDevice>> devices_;
    std::unique_ptr<pddl::PlacementPolicy> placement_;
    std::unique_ptr<pddl::ParallelEngine> engine_;
    std::unique_ptr<pddl::VolumeManager> volume_;
    std::vector<std::unique_ptr<pddl::FaultScheduler>> faults_;
    pddl::obs::MetricsRegistry registry_;
    std::unique_ptr<TimedTarget> volume_edge_;
    std::unique_ptr<pddl::cache::CacheTier> tier_;
    std::unique_ptr<TimedTarget> client_edge_;
    std::unique_ptr<pddl::ClosedLoopClient> closed_;
    std::unique_ptr<pddl::OpenLoopClient> open_;
    int64_t run_ns_ = 0;
};

/**
 * The invariants a simulated outcome meets at any seed: the sample
 * budget is met, no data is lost, no stalled write is left undrained
 * and exactly `rebuilds` rebuilds completed. Prints what failed,
 * labelled `key`.
 */
bool outcomeHolds(const pddl::ScenarioSpec &spec,
                  const pddl::tune::ScenarioOutcome &outcome, int rebuilds,
                  const std::string &key);

/**
 * Run (spec, seed) once on an untraced Stack and once through
 * tune::runScenario and compare the outcomes bit for bit: set-up time
 * is measured on the Stack, a copy of runScenario's construction, so
 * a drift between the two fails the run. Prints a mismatch, labelled
 * `key`. @return true when the outcomes are identical.
 */
bool stackMatchesRunner(const pddl::ScenarioSpec &spec, uint64_t seed,
                        int sim_threads, const std::string &key);

/** Every ScenarioOutcome field at %.17g, in declaration order. */
std::string outcomeText(const pddl::tune::ScenarioOutcome &outcome);

} // namespace perfbench

#endif // PERFBENCH_STACK_HH
