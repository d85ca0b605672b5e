/**
 * @file
 * Per-layer accounting of traced runs. Counts and host ns come from
 * the decorated stack's boundaries and the engine's own counters;
 * the layers with no boundary on the hot path (Layout::map,
 * RequestMapper::expandInto, the traffic samplers, layout builds)
 * are timed by calling their public functions directly on the
 * addresses the workload itself issued.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <map>
#include <string>

#include "common.hh"
#include "core/scenario_spec.hh"
#include "stack.hh"

namespace perfbench {

/** Every per-layer metric the traced run reports, with its unit. */
struct LayerMetric
{
    const char *name;
    const char *unit;
};
const std::vector<LayerMetric> &layerMetrics();

/** End-to-end metrics of an untraced run, with their units. */
const std::vector<LayerMetric> &endToEndMetrics();

/** A count and the host ns it took. */
struct Timed
{
    int64_t calls = 0;
    int64_t ns = 0;

    void add(int64_t c, int64_t t)
    {
        calls += c;
        ns += t;
    }
    double nsPer() const
    {
        return calls > 0 ? static_cast<double>(ns) / calls : 0.0;
    }
};

/** Layer totals over every stack a traced run assembled. */
class LayerTotals
{
  public:
    /** Fold in a run stack's counters and time its layers directly. */
    void addStack(Stack &stack, const pddl::ScenarioSpec &spec);

    /** Emit the sim/layout/array/disk/volume/cache/traffic metrics. */
    void report(Result &result) const;

  private:
    int64_t events_ = 0;
    int64_t windows_ = 0;
    int64_t run_ns_ = 0;
    int64_t client_accesses_ = 0;
    int64_t array_accesses_ = 0;
    int64_t volume_accesses_ = 0;
    int64_t sub_accesses_ = 0;
    Timed disk_;
    Timed volume_;
    Timed cache_;
    int64_t cache_hits_ = 0;
    int64_t cache_accesses_ = 0;
    int64_t destage_units_ = 0;
    int64_t write_stalls_ = 0;
    Timed map_;
    Timed build_;
    Timed draw_;
    /** Issued accesses re-expanded in each array's final mode. */
    Timed expand_;
    int64_t expand_ops_ = 0;
    /** "<shape>.<mode>" -> expansions and the ops they produced. */
    std::map<std::string, Timed> shape_expand_;
    std::map<std::string, int64_t> shape_ops_;
    /** Layout builds already timed ("spec@disks"). */
    std::map<std::string, bool> built_;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
