#include "stack.hh"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "common.hh"
#include "traffic/arrival.hh"
#include "traffic/offset_dist.hh"
#include "workload/closed_loop.hh"
#include "workload/open_loop.hh"

namespace perfbench {

using namespace pddl;

namespace {

/** How many of the first accesses a boundary keeps for layer timing. */
constexpr size_t kKeptAccesses = 8192;

/** KB -> stripe units, at least one (runScenario's byte-fair rule). */
int64_t
unitsForKb(int64_t kb, int unit_sectors)
{
    const int64_t units = kb * 2 / unit_sectors;
    return units < 1 ? 1 : units;
}

} // namespace

double
TimedDevice::serviceTime(double now, int64_t lba, int sectors,
                         bool write, MechState &state) const
{
    const int64_t start = nowNs();
    const double ms = inner_->serviceTime(now, lba, sectors, write, state);
    ns_ += nowNs() - start;
    ++calls_;
    return ms;
}

void
TimedTarget::access(int64_t start_unit, int count, AccessType type,
                    InlineCallback done)
{
    if (sample_.size() < keep_)
        sample_.push_back({start_unit, count, type});
    ++depth_;
    const int64_t start = nowNs();
    inner_.access(start_unit, count, type, std::move(done));
    const int64_t elapsed = nowNs() - start;
    --depth_;
    ns_ += elapsed;
    ++calls_;
    if (outer_ != nullptr && outer_->depth_ > 0)
        outer_->nested_ns_ += elapsed;
}

Stack::Stack(const ScenarioSpec &spec, uint64_t seed, int sim_threads,
             bool traced)
    : spec_(spec)
{
    const int shard_count = static_cast<int>(spec.shards.size());

    ParallelEngine::Config engine_config;
    engine_config.threads = sim_threads;
    engine_config.lookahead = spec.dispatch_ms;
    engine_ = std::make_unique<ParallelEngine>(shard_count, engine_config);

    std::vector<ShardSpec> shard_specs(spec.shards.size());
    for (size_t s = 0; s < spec.shards.size(); ++s) {
        const ScenarioShard &shard = spec.shards[s];
        ShardSpec &out = shard_specs[s];
        out.layout_spec = shard.layout;
        out.device_spec = shard.device;
        out.disks = shard.disks;
        out.tier = shard.tier;
        out.array.unit_sectors = spec.unit_sectors;
        out.array.sstf_window = spec.sstf_window;
        if (shard.failed_disk >= 0) {
            out.array.mode = ArrayMode::Degraded;
            out.array.failed_disk = shard.failed_disk;
        }
        if (traced) {
            devices_.push_back(std::make_unique<TimedDevice>(
                device::makeDevice(shard.device)));
            out.device = devices_.back().get();
        }
    }

    VolumeConfig vconfig;
    vconfig.chunk_units = spec.chunk_units;
    vconfig.dispatch_ms = spec.dispatch_ms;
    vconfig.allocation = spec.allocation == "tiered"
                             ? VolumeAllocation::Tiered
                             : VolumeAllocation::Striped;
    if (spec.placement == "rotate") {
        placement_ = std::make_unique<RotatedPlacement>();
    } else if (spec.placement.rfind("shuffle:", 0) == 0) {
        placement_ = std::make_unique<ShuffledPlacement>(
            std::stoull(spec.placement.substr(8)));
    } else if (spec.placement != "static") {
        throw std::runtime_error("unknown placement " + spec.placement);
    }
    vconfig.placement = placement_.get();
    volume_ = std::make_unique<VolumeManager>(
        *engine_, std::move(shard_specs), vconfig);

    // Warm every shard's lazily built map table: set-up cost a user
    // pays before the first event, not per access.
    for (int s = 0; s < shard_count; ++s)
        volume_->shard(s).layout().map(VirtualAddress{0, 0});

    for (int s = 0; s < shard_count; ++s) {
        FaultSchedule schedule;
        for (const ScenarioFault &fault : spec.faults) {
            if (fault.shard == s) {
                schedule.events.push_back(
                    {fault.when_ms, FaultEvent::Kind::DiskFailure,
                     fault.disk, 0});
            }
        }
        if (schedule.events.empty())
            continue;
        FaultScheduler::Options foptions;
        foptions.rebuild_parallel = spec.rebuild_parallel;
        auto scheduler = std::make_unique<FaultScheduler>(
            engine_->shardQueue(s), std::move(schedule), foptions);
        scheduler->bindArray(volume_->shard(s));
        scheduler->start();
        faults_.push_back(std::move(scheduler));
    }

    std::vector<const DeviceModel *> models;
    for (int s = 0; s < volume_->shardCount(); ++s)
        models.push_back(&volume_->shardDevice(s));
    registry_.setHistogramBounds(device::latencyBoundsForDevices(models));
    obs::Probe probe(&registry_, nullptr);

    Target *backend = volume_.get();
    if (spec.cache_enabled) {
        if (traced) {
            volume_edge_ =
                std::make_unique<TimedTarget>(*volume_, kKeptAccesses);
            backend = volume_edge_.get();
        }
        cache::CacheConfig cconfig;
        int64_t capacity = unitsForKb(spec.cache_kb, spec.unit_sectors);
        capacity -= capacity % spec.cache_ways;
        if (capacity < spec.cache_ways)
            capacity = spec.cache_ways;
        cconfig.capacity_units = capacity;
        cconfig.ways = spec.cache_ways;
        cconfig.hit_ms = spec.cache_hit_ms;
        cconfig.high_water = spec.cache_high;
        cconfig.low_water = spec.cache_low;
        cconfig.max_run_units = spec.cache_run_units;
        cconfig.destage_width = spec.cache_width;
        cconfig.probe = probe;
        tier_ = std::make_unique<cache::CacheTier>(engine_->hubQueue(),
                                                   *backend, cconfig);
    }
    Target *front = tier_ ? static_cast<Target *>(tier_.get())
                          : static_cast<Target *>(volume_.get());
    if (traced) {
        client_edge_ = std::make_unique<TimedTarget>(*front, kKeptAccesses);
        front = client_edge_.get();
        if (volume_edge_)
            volume_edge_->nestIn(client_edge_.get());
    }

    std::string why;
    if (spec.client == "closed") {
        ClosedLoopConfig config;
        config.clients = spec.clients;
        const ScenarioMix entry =
            spec.mix.empty() ? ScenarioMix{} : spec.mix.front();
        config.access_units =
            static_cast<int>(unitsForKb(entry.kb, spec.unit_sectors));
        config.type = entry.write ? AccessType::Write : AccessType::Read;
        config.think_time_ms = spec.think_ms;
        config.min_samples = spec.samples;
        config.max_samples = spec.samples;
        config.warmup = spec.warmup;
        config.seed = seed;
        if (!traffic::parseOffsetSpec(spec.offsets, config.offsets, why))
            throw std::runtime_error("offsets: " + why);
        config.probe = probe;
        closed_ = std::make_unique<ClosedLoopClient>(config);
    } else {
        OpenLoopConfig config;
        config.arrivals_per_s = spec.arrivals_per_s;
        for (const ScenarioMix &entry : spec.mix) {
            config.mix.push_back(
                {static_cast<int>(unitsForKb(entry.kb, spec.unit_sectors)),
                 entry.write ? AccessType::Write : AccessType::Read,
                 entry.weight});
        }
        config.samples = spec.samples;
        config.warmup = spec.warmup;
        config.seed = seed;
        if (!traffic::parseOffsetSpec(spec.offsets, config.offsets, why))
            throw std::runtime_error("offsets: " + why);
        if (!traffic::parseArrivalSpec(spec.arrival, config.arrival, why))
            throw std::runtime_error("arrival: " + why);
        config.probe = probe;
        open_ = std::make_unique<OpenLoopClient>(config);
    }
    // Starting the client builds its offset sampler over the target's
    // domain and schedules the first arrivals: the last set-up step.
    Workload &client = closed_ ? static_cast<Workload &>(*closed_)
                               : static_cast<Workload &>(*open_);
    startOnHub(client, *engine_, *front);
}

Stack::~Stack() = default;

tune::ScenarioOutcome
Stack::run()
{
    tune::ScenarioOutcome outcome;
    const int64_t start = nowNs();
    engine_->run();
    run_ns_ = nowNs() - start;

    if (closed_) {
        const SimResult result = closed_->result();
        outcome.mean_ms = result.mean_response_ms;
        outcome.throughput_per_s = result.throughput_per_s;
        outcome.samples = result.samples;
        outcome.max_outstanding = spec_.clients;
    } else {
        const OpenLoopResult result = open_->result();
        outcome.mean_ms = result.mean_response_ms;
        outcome.throughput_per_s = result.completed_per_s;
        outcome.samples = result.samples;
        outcome.max_outstanding = result.max_outstanding;
    }

    obs::MetricsSnapshot snapshot = registry_.snapshot();
    if (const obs::HistogramData *latency =
            snapshot.histogram("client.latency_ms")) {
        outcome.p50_ms = latency->quantile(0.50);
        outcome.p95_ms = latency->quantile(0.95);
        outcome.p99_ms = latency->quantile(0.99);
        outcome.p999_ms = latency->quantile(0.999);
    }
    outcome.backend_accesses =
        static_cast<int64_t>(volume_->volumeAccessesIssued());
    outcome.capacity_units = volume_->dataUnits();
    for (int s = 0; s < volume_->shardCount(); ++s) {
        outcome.cost_units += spec_.shards[static_cast<size_t>(s)].disks *
                              volume_->shardDevice(s).costUnits();
        outcome.shard_accesses.push_back(
            static_cast<int64_t>(volume_->shard(s).accessesIssued()));
    }
    if (tier_) {
        const cache::CacheStats &stats = tier_->stats();
        outcome.hit_rate = tier_->hitRate();
        outcome.writes_absorbed = stats.writes_absorbed;
        outcome.write_stalls = stats.write_stalls;
        outcome.destage_runs = stats.destage_runs;
        outcome.destage_units = stats.destage_units;
        outcome.dirty_end = tier_->dirtyUnits();
        outcome.stalled_end = tier_->stalledWrites();
    }
    for (const auto &scheduler : faults_) {
        const FaultStats &stats = scheduler->stats();
        outcome.rebuilds_completed += stats.rebuilds_completed;
        outcome.data_loss = outcome.data_loss || stats.data_loss;
    }
    return outcome;
}

bool
outcomeHolds(const ScenarioSpec &spec, const tune::ScenarioOutcome &outcome,
             int rebuilds, const std::string &key)
{
    const bool holds = outcome.samples >= spec.samples &&
                       !outcome.data_loss && outcome.stalled_end == 0 &&
                       outcome.rebuilds_completed == rebuilds;
    if (!holds)
        std::fprintf(stderr,
                     "[perfbench] %s: samples %" PRId64 " of %" PRId64
                     ", data_loss %d, stalled %" PRId64
                     ", rebuilds %d of %d\n",
                     key.c_str(), outcome.samples, spec.samples,
                     outcome.data_loss, outcome.stalled_end,
                     outcome.rebuilds_completed, rebuilds);
    return holds;
}

bool
stackMatchesRunner(const ScenarioSpec &spec, uint64_t seed, int sim_threads,
                   const std::string &key)
{
    tune::RunScenarioOptions options;
    options.seed = seed;
    options.sim_threads = sim_threads;
    const std::string reference =
        outcomeText(tune::runScenario(spec, options));
    Stack stack(spec, seed, sim_threads, false);
    const std::string built = outcomeText(stack.run());
    if (built != reference)
        std::fprintf(stderr,
                     "[perfbench] %s: set-up stack outcome %s differs from "
                     "runScenario's %s\n",
                     key.c_str(), built.c_str(), reference.c_str());
    return built == reference;
}

std::string
outcomeText(const tune::ScenarioOutcome &o)
{
    std::string text = exact(o.mean_ms) + ' ' + exact(o.p50_ms) + ' ' +
                       exact(o.p95_ms) + ' ' + exact(o.p99_ms) + ' ' +
                       exact(o.p999_ms) + ' ' +
                       exact(o.throughput_per_s) + ' ' +
                       std::to_string(o.samples) + ' ' +
                       std::to_string(o.max_outstanding) + ' ' +
                       std::to_string(o.backend_accesses) + ' ' +
                       exact(o.hit_rate) + ' ' +
                       std::to_string(o.writes_absorbed) + ' ' +
                       std::to_string(o.write_stalls) + ' ' +
                       std::to_string(o.destage_runs) + ' ' +
                       std::to_string(o.destage_units) + ' ' +
                       std::to_string(o.dirty_end) + ' ' +
                       std::to_string(o.stalled_end) + ' ' +
                       std::to_string(o.rebuilds_completed) + ' ' +
                       (o.data_loss ? "1" : "0") + ' ' +
                       exact(o.cost_units) + ' ' +
                       std::to_string(o.capacity_units);
    for (int64_t accesses : o.shard_accesses)
        text += ' ' + std::to_string(accesses);
    return text;
}

} // namespace perfbench
