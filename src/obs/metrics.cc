#include "obs/metrics.hh"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <string>
#include <string_view>

namespace pddl {
namespace obs {

const std::vector<double> &
defaultLatencyBoundsMs()
{
    // Log-spaced 1-2-5 decades covering queue waits through whole
    // rebuild-scale latencies; the last slot of counts[] catches
    // everything above 2 s.
    static const std::vector<double> bounds = {
        0.25, 0.5, 1.0,   2.0,   5.0,   10.0,  20.0,
        50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0};
    return bounds;
}

HistogramData
HistogramData::withBounds(const std::vector<double> &upper)
{
    HistogramData histogram;
    histogram.bounds = upper;
    histogram.counts.assign(upper.size() + 1, 0);
    return histogram;
}

void
HistogramData::add(double value_ms)
{
    assert(!bounds.empty() && "a histogram records into fixed buckets");
    const size_t bucket =
        std::upper_bound(bounds.begin(), bounds.end(), value_ms) -
        bounds.begin();
    ++counts[bucket];
    if (count == 0) {
        min = value_ms;
        max = value_ms;
    } else {
        min = std::min(min, value_ms);
        max = std::max(max, value_ms);
    }
    ++count;
    sum += value_ms;
}

void
HistogramData::merge(const HistogramData &other)
{
    if (other.count == 0)
        return;
    if (count == 0) {
        *this = other;
        return;
    }
    assert(bounds == other.bounds && "histograms share fixed buckets");
    for (size_t i = 0; i < counts.size(); ++i)
        counts[i] += other.counts[i];
    count += other.count;
    sum += other.sum;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
}

double
HistogramData::quantile(double q) const
{
    if (count == 0)
        return 0.0;
    q = std::min(std::max(q, 0.0), 1.0);
    // Target cumulative rank in (0, count]; q == 0 pins to min.
    const double rank = q * static_cast<double>(count);
    if (rank <= 0.0)
        return min;
    int64_t cumulative = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0)
            continue;
        const double before = static_cast<double>(cumulative);
        cumulative += counts[i];
        if (static_cast<double>(cumulative) < rank)
            continue;
        // The rank lands in bucket i, which spans (bounds[i-1],
        // bounds[i]] (the overflow bucket reaches max). Interpolate
        // linearly within the bucket, clamped to the observed
        // extremes: samples can only live in [min, max], and the
        // estimate must too.
        double lower = i == 0 ? min : bounds[i - 1];
        double upper = i < bounds.size() ? bounds[i] : max;
        lower = std::max(lower, min);
        upper = std::min(upper, max);
        if (upper < lower)
            upper = lower;
        const double fraction =
            (rank - before) / static_cast<double>(counts[i]);
        return lower + (upper - lower) * fraction;
    }
    return max;
}

Json
HistogramData::toJson() const
{
    Json buckets = Json::array();
    for (int64_t c : counts)
        buckets.push(c);
    Json le = Json::array();
    for (double b : bounds)
        le.push(b);
    Json j = Json::object();
    j.set("count", count)
        .set("sum", sum)
        .set("min", min)
        .set("max", max)
        .set("le", std::move(le))
        .set("buckets", std::move(buckets));
    return j;
}

namespace {

template <typename T>
const T *
find(const std::vector<std::pair<std::string, T>> &entries,
     const std::string &name)
{
    for (const auto &entry : entries) {
        if (entry.first == name)
            return &entry.second;
    }
    return nullptr;
}

template <typename T>
void
mergeSorted(std::vector<std::pair<std::string, T>> &into,
            const std::vector<std::pair<std::string, T>> &from,
            void (*fold)(T &, const T &))
{
    std::map<std::string, T> merged(into.begin(), into.end());
    for (const auto &entry : from) {
        auto [it, inserted] = merged.emplace(entry.first, entry.second);
        if (!inserted)
            fold(it->second, entry.second);
    }
    into.assign(merged.begin(), merged.end());
}

} // namespace

double
MetricsSnapshot::counter(const std::string &name) const
{
    const double *value = find(counters, name);
    return value != nullptr ? *value : 0.0;
}

double
MetricsSnapshot::gauge(const std::string &name) const
{
    const double *value = find(gauges, name);
    return value != nullptr ? *value : 0.0;
}

const HistogramData *
MetricsSnapshot::histogram(const std::string &name) const
{
    return find(histograms, name);
}

void
MetricsSnapshot::merge(const MetricsSnapshot &other)
{
    mergeSorted<double>(counters, other.counters,
                        [](double &a, const double &b) { a += b; });
    mergeSorted<double>(gauges, other.gauges,
                        [](double &a, const double &b) {
                            a = std::max(a, b);
                        });
    mergeSorted<HistogramData>(histograms, other.histograms,
                               [](HistogramData &a,
                                  const HistogramData &b) {
                                   a.merge(b);
                               });
}

Json
MetricsSnapshot::toJson() const
{
    Json counter_obj = Json::object();
    for (const auto &entry : counters)
        counter_obj.set(entry.first, entry.second);
    Json gauge_obj = Json::object();
    for (const auto &entry : gauges)
        gauge_obj.set(entry.first, entry.second);
    Json histogram_obj = Json::object();
    for (const auto &entry : histograms)
        histogram_obj.set(entry.first, entry.second.toJson());
    Json j = Json::object();
    j.set("counters", std::move(counter_obj))
        .set("gauges", std::move(gauge_obj))
        .set("histograms", std::move(histogram_obj));
    return j;
}

namespace {

/** Instance identity that survives address reuse (see localShard). */
std::atomic<uint64_t> next_registry_id{1};

} // namespace

MetricsRegistry::MetricsRegistry() : id_(next_registry_id++) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Shard &
MetricsRegistry::localShard()
{
    // Per-thread cache of (registry identity -> shard). The id check
    // makes a cache hit safe even when a destroyed registry's address
    // is recycled by a later one on the same worker thread.
    struct CacheEntry
    {
        const MetricsRegistry *owner;
        uint64_t id;
        Shard *shard;
    };
    thread_local std::vector<CacheEntry> cache;
    for (const CacheEntry &entry : cache) {
        if (entry.owner == this && entry.id == id_)
            return *entry.shard;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    shards_.push_back(std::make_unique<Shard>());
    Shard *shard = shards_.back().get();
    if (cache.size() >= 16)
        cache.erase(cache.begin());
    cache.push_back({this, id_, shard});
    return *shard;
}

namespace {

/**
 * The entry for `name` in a transparently compared map, created from
 * `init` when absent. Lookup compares the name in place; only a new
 * series pays for its std::string.
 */
template <typename Map>
typename Map::mapped_type &
entry(Map &map, std::string_view name,
      const typename Map::mapped_type &init)
{
    auto it = map.lower_bound(name);
    if (it == map.end() || it->first != name)
        it = map.emplace_hint(it, std::string(name), init);
    return it->second;
}

} // namespace

void
MetricsRegistry::add(const char *name, double delta)
{
    entry(localShard().counters, name, 0.0) += delta;
}

void
MetricsRegistry::gaugeMax(const char *name, double value)
{
    double &gauge = entry(localShard().gauges, name, value);
    gauge = std::max(gauge, value);
}

void
MetricsRegistry::observe(const char *name, double value_ms)
{
    HistogramData &histogram =
        entry(localShard().histograms, name, HistogramData{});
    if (histogram.bounds.empty()) {
        histogram = HistogramData::withBounds(
            histogram_bounds_.empty() ? defaultLatencyBoundsMs()
                                      : histogram_bounds_);
    }
    histogram.add(value_ms);
}

void
MetricsRegistry::setHistogramBounds(std::vector<double> bounds)
{
    assert(std::is_sorted(bounds.begin(), bounds.end()));
    histogram_bounds_ = std::move(bounds);
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot merged;
    for (const auto &shard : shards_) {
        MetricsSnapshot view;
        view.counters.assign(shard->counters.begin(),
                             shard->counters.end());
        view.gauges.assign(shard->gauges.begin(),
                           shard->gauges.end());
        view.histograms.assign(shard->histograms.begin(),
                               shard->histograms.end());
        merged.merge(view);
    }
    return merged;
}

size_t
MetricsRegistry::shardCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return shards_.size();
}

MetricsSnapshot
snapshotAll(const std::vector<const MetricsRegistry *> &registries)
{
    MetricsSnapshot merged;
    for (const MetricsRegistry *registry : registries) {
        if (registry != nullptr)
            merged.merge(registry->snapshot());
    }
    return merged;
}

} // namespace obs
} // namespace pddl
