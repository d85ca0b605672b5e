#include "layers.hh"

#include <algorithm>

#include "array/request_mapper.hh"
#include "core/layout_spec.hh"
#include "traffic/arrival.hh"
#include "traffic/offset_dist.hh"
#include "util/rng.hh"

namespace perfbench {

using namespace pddl;

namespace {

/** Repetitions of each direct timing loop over the kept accesses. */
constexpr int kReps = 4;
/** Offset and arrival draws timed per stack. */
constexpr int kDraws = 4096;

/** Keeps a computed value alive so the timed loop is not elided. */
volatile int64_t g_sink = 0;

} // namespace

const std::vector<LayerMetric> &
layerMetrics()
{
    static const std::vector<LayerMetric> metrics = {
        {"sim.events", "count"},
        {"sim.events_per_access", "ratio"},
        {"sim.ns_per_event", "ns"},
        {"sim.windows", "count"},
        {"sim.events_per_window", "ratio"},
        {"sim.speedup_4v1", "x"},
        {"layout.map_ns", "ns"},
        {"layout.build_ms", "ms"},
        {"array.accesses", "count"},
        {"array.expand_ns", "ns"},
        {"array.ops_per_access", "ratio"},
        {"array.expand_ns.read.ff", "ns"},
        {"array.expand_ns.read.degraded", "ns"},
        {"array.expand_ns.rmw.ff", "ns"},
        {"array.expand_ns.rmw.degraded", "ns"},
        {"array.expand_ns.full.ff", "ns"},
        {"array.expand_ns.full.degraded", "ns"},
        {"array.ops_per_access.read.ff", "ratio"},
        {"array.ops_per_access.read.degraded", "ratio"},
        {"array.ops_per_access.rmw.ff", "ratio"},
        {"array.ops_per_access.rmw.degraded", "ratio"},
        {"array.ops_per_access.full.ff", "ratio"},
        {"array.ops_per_access.full.degraded", "ratio"},
        {"disk.service_ns", "ns"},
        {"disk.services_per_access", "ratio"},
        {"volume.access_ns", "ns"},
        {"volume.sub_per_access", "ratio"},
        {"cache.access_ns", "ns"},
        {"cache.hit_rate", "ratio"},
        {"cache.destage_units", "count"},
        {"cache.write_stalls", "count"},
        {"traffic.draw_ns", "ns"},
        {"tune.ms_per_eval", "ms"},
        {"tune.evaluations", "count"},
        {"tune.memo_hits", "count"},
        {"tune.surrogate_rejects", "count"},
        {"tune.sim_share", "ratio"},
        {"tune.surrogate_ms", "ms"},
        {"search.ns_per_move", "ns"},
        {"search.accept_ratio", "ratio"},
        {"search.climb_s", "s"},
        {"search.audit_ms", "ms"},
        {"trace.overhead_s", "s"},
    };
    return metrics;
}

const std::vector<LayerMetric> &
endToEndMetrics()
{
    static const std::vector<LayerMetric> metrics = {
        {"wall_s", "s"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"work_per_s", "1/s"},
    };
    return metrics;
}

void
LayerTotals::addStack(Stack &stack, const ScenarioSpec &spec)
{
    ParallelEngine &engine = stack.engine();
    VolumeManager &volume = stack.volume();
    events_ += static_cast<int64_t>(engine.eventsFired());
    windows_ += static_cast<int64_t>(engine.windowsRun());
    run_ns_ += stack.runNs();
    const TimedTarget &client = *stack.clientBoundary();
    client_accesses_ += client.calls();
    for (int s = 0; s < volume.shardCount(); ++s)
        array_accesses_ +=
            static_cast<int64_t>(volume.shard(s).accessesIssued());
    volume_accesses_ += static_cast<int64_t>(volume.volumeAccessesIssued());
    sub_accesses_ += static_cast<int64_t>(volume.subAccessesIssued());
    for (const auto &device : stack.devices())
        disk_.add(device->calls(), device->ns());
    const TimedTarget &edge = *stack.volumeBoundary();
    volume_.add(edge.calls(), edge.ns());
    if (const cache::CacheTier *tier = stack.tier()) {
        // The tier's self time: its client-side calls less the
        // volume work they issue synchronously below it.
        cache_.add(client.calls(), client.selfNs());
        const cache::CacheStats &stats = tier->stats();
        cache_hits_ += stats.read_hits + stats.writes_absorbed;
        cache_accesses_ += static_cast<int64_t>(tier->accessesIssued());
        destage_units_ += stats.destage_units;
        write_stalls_ += stats.write_stalls;
    }

    // The workload's own addresses, resolved to (shard, local unit).
    struct Local
    {
        const Layout *layout;
        int shard;
        int64_t unit;
        int count;
        AccessType type;
    };
    std::vector<Local> locals;
    for (const AccessRecord &access : edge.sample()) {
        const VolumeAddress home = volume.route(access.start);
        const int64_t chunk = volume.chunkUnits();
        const int count = static_cast<int>(std::min<int64_t>(
            access.count, chunk - home.unit % chunk));
        locals.push_back({&volume.shard(home.shard).layout(), home.shard,
                          home.unit, count, access.type});
    }

    // Layout::map over every unit those accesses touch.
    std::vector<std::pair<const Layout *, VirtualAddress>> units;
    for (const Local &l : locals) {
        for (int i = 0; i < l.count; ++i)
            units.emplace_back(l.layout, l.layout->virtualOf(l.unit + i));
    }
    int64_t start = nowNs();
    int64_t sum = 0;
    for (int rep = 0; rep < kReps; ++rep) {
        for (const auto &[layout, va] : units)
            sum += layout->map(va).unit;
    }
    map_.add(kReps * static_cast<int64_t>(units.size()), nowNs() - start);

    // RequestMapper::expandInto: the accesses as issued, in each
    // array's final mode, then per access shape in both modes.
    std::vector<PhysOp> ops;
    std::vector<RequestMapper> actual;
    for (int s = 0; s < volume.shardCount(); ++s)
        actual.emplace_back(volume.shard(s).layout(),
                            volume.shard(s).mode(),
                            volume.shard(s).failedDisk());
    start = nowNs();
    int64_t produced = 0;
    for (int rep = 0; rep < kReps; ++rep) {
        for (const Local &l : locals) {
            actual[static_cast<size_t>(l.shard)].expandInto(l.unit, l.count,
                                                            l.type, ops);
            produced += static_cast<int64_t>(ops.size());
        }
    }
    expand_.add(kReps * static_cast<int64_t>(locals.size()),
                nowNs() - start);
    expand_ops_ += produced;

    // Each shard's layout in both modes, the failed disk being disk 0.
    std::vector<RequestMapper> ff;
    std::vector<RequestMapper> degraded;
    for (int s = 0; s < volume.shardCount(); ++s) {
        ff.emplace_back(volume.shard(s).layout());
        degraded.emplace_back(volume.shard(s).layout(), ArrayMode::Degraded,
                              0);
    }
    struct ShapeCase
    {
        const char *name;
        AccessType type;
        bool full;
    };
    const ShapeCase shapes[] = {{"read", AccessType::Read, false},
                                {"rmw", AccessType::Write, false},
                                {"full", AccessType::Write, true}};
    for (const ShapeCase &shape : shapes) {
        for (const std::vector<RequestMapper> *mappers : {&ff, &degraded}) {
            const char *mode = mappers == &ff ? "ff" : "degraded";
            int64_t shape_ops = 0;
            start = nowNs();
            for (int rep = 0; rep < kReps; ++rep) {
                for (const Local &l : locals) {
                    const RequestMapper &mapper =
                        (*mappers)[static_cast<size_t>(l.shard)];
                    if (shape.full) {
                        const int per_stripe = l.layout->dataUnitsPerStripe();
                        mapper.expandInto(l.unit / per_stripe * per_stripe,
                                          per_stripe, shape.type, ops);
                    } else {
                        mapper.expandInto(l.unit, 1, shape.type, ops);
                    }
                    shape_ops += static_cast<int64_t>(ops.size());
                }
            }
            const std::string key = std::string(shape.name) + "." + mode;
            shape_expand_[key].add(
                kReps * static_cast<int64_t>(locals.size()),
                nowNs() - start);
            shape_ops_[key] += shape_ops;
        }
    }

    // Traffic: the offset sampler over the volume and the arrival
    // process the spec names.
    traffic::OffsetSpec offsets;
    std::string why;
    traffic::parseOffsetSpec(spec.offsets, offsets, why);
    const traffic::OffsetSampler sampler(offsets, volume.dataUnits());
    Rng rng(0x7261ffu);
    start = nowNs();
    for (int i = 0; i < kDraws; ++i)
        sum += sampler.sample(rng, volume.dataUnits() - 1);
    int64_t draws = kDraws;
    if (spec.client == "open") {
        traffic::ArrivalSpec arrival;
        traffic::parseArrivalSpec(spec.arrival, arrival, why);
        traffic::ArrivalSampler gaps(arrival, spec.arrivals_per_s);
        double now = 0.0;
        for (int i = 0; i < kDraws; ++i)
            now += gaps.nextGapMs(rng, now);
        sum += static_cast<int64_t>(now);
        draws += kDraws;
    }
    draw_.add(draws, nowNs() - start);

    // Layout build (registry parse, construction, map table), once
    // per distinct (spec, disks) the workload uses.
    for (const ScenarioShard &shard : spec.shards) {
        const std::string key =
            shard.layout + "@" + std::to_string(shard.disks);
        if (built_.count(key) != 0)
            continue;
        built_[key] = true;
        start = nowNs();
        const auto built = layouts::makeLayout(shard.layout, shard.disks);
        sum += built->map(VirtualAddress{0, 0}).unit;
        build_.add(1, nowNs() - start);
    }
    g_sink = g_sink + sum;
}

void
LayerTotals::report(Result &result) const
{
    const auto per = [](int64_t a, int64_t b) {
        return b > 0 ? static_cast<double>(a) / static_cast<double>(b)
                     : 0.0;
    };
    result.add("sim.events", static_cast<double>(events_), "count", 1);
    result.add("sim.events_per_access", per(events_, client_accesses_),
               "ratio", client_accesses_);
    result.add("sim.ns_per_event", per(run_ns_, events_), "ns", events_);
    result.add("sim.windows", static_cast<double>(windows_), "count", 1);
    result.add("sim.events_per_window", per(events_, windows_), "ratio",
               windows_);
    result.add("layout.map_ns", map_.nsPer(), "ns", map_.calls);
    result.add("layout.build_ms", build_.nsPer() * 1e-6, "ms",
               build_.calls);
    result.add("array.accesses", static_cast<double>(array_accesses_),
               "count", 1);
    result.add("array.expand_ns", expand_.nsPer(), "ns", expand_.calls);
    result.add("array.ops_per_access", per(expand_ops_, expand_.calls),
               "ratio", expand_.calls);
    for (const auto &[key, timed] : shape_expand_) {
        result.add("array.expand_ns." + key, timed.nsPer(), "ns",
                   timed.calls);
        result.add("array.ops_per_access." + key,
                   per(shape_ops_.at(key), timed.calls), "ratio",
                   timed.calls);
    }
    result.add("disk.service_ns", disk_.nsPer(), "ns", disk_.calls);
    result.add("disk.services_per_access",
               per(disk_.calls, client_accesses_), "ratio",
               client_accesses_);
    result.add("volume.access_ns", volume_.nsPer(), "ns", volume_.calls);
    result.add("volume.sub_per_access",
               per(sub_accesses_, volume_accesses_), "ratio",
               volume_accesses_);
    result.add("cache.access_ns", cache_.nsPer(), "ns", cache_.calls);
    result.add("cache.hit_rate", per(cache_hits_, cache_accesses_),
               "ratio", cache_accesses_);
    result.add("cache.destage_units", static_cast<double>(destage_units_),
               "count", 1);
    result.add("cache.write_stalls", static_cast<double>(write_stalls_),
               "count", 1);
    result.add("traffic.draw_ns", draw_.nsPer(), "ns", draw_.calls);
}

} // namespace perfbench
