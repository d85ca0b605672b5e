/**
 * @file
 * Shared plumbing of the host-cost benchmark: clocks, order
 * statistics, the per-run result (metrics, attempted/failed
 * operations), reference digests and the in-memory span recorder.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Host nanoseconds on the steady clock (arbitrary epoch). */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Seconds elapsed since `start_ns` (a nowNs() reading). */
inline double
secondsSince(int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

/** Quantile with linear interpolation between order statistics. */
double quantile(std::vector<double> values, double q);

inline double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

/** Print a run's samples of `what` to stderr (the spread behind a
 *  median), e.g. "array_grid pass". */
void logSeconds(const char *what, const std::vector<double> &samples);

/** Peak resident set of this process so far, in MB. */
double peakRssMb();

/** %.17g rendering: every bit of a double, round-trippable. */
std::string exact(double value);

/** 64-bit FNV-1a digest of `text`, as 16 hex digits. */
std::string digest(const std::string &text);

/** The seed the stored reference digests were generated with. */
constexpr uint64_t kReferenceSeed = 1;

/**
 * Seed of pass `pass` of a run seeded `seed`, for a workload whose
 * work depends on the seed (autotune, layout_search). Its passes
 * cycle through `sub_seeds` inputs derived from the run's seed, so
 * one run averages over several inputs while every input stays
 * checkable against the stored references.
 */
uint64_t passSeed(uint64_t seed, int pass, int sub_seeds);

/**
 * Pass time of such a workload: the median of each sub-seed's passes
 * (robust to a transient stall of the host), averaged over the
 * sub-seeds. Needs at least `sub_seeds` passes.
 */
double cycleSeconds(const std::vector<double> &passes, int sub_seeds);

/** Options of one benchmark invocation. */
struct RunConfig
{
    std::string workload;
    uint64_t seed = kReferenceSeed;
    /** Target length of the timed phase in host seconds. */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Directory of the reference digest files. */
    std::string refs_dir;
    /** Rewrite the reference file instead of checking against it. */
    bool write_refs = false;
    /** Where a traced run writes its spans (empty: do not write). */
    std::string spans_path;

    /**
     * True while a timed phase that began at `begin_ns` should start
     * another pass: fewer than `min_passes` ran, or the next one
     * (estimated by the median so far) still ends within `seconds`.
     */
    bool morePasses(int64_t begin_ns, const std::vector<double> &passes,
                    int min_passes) const;

};

/** One named measurement with its unit and sample count. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    int64_t samples = 0;
};

/**
 * What one workload run reports. An operation is a scenario point,
 * a tuner evaluation or a search call; it fails when its output
 * fails the correctness check.
 */
struct Result
{
    bool correct = true;
    int64_t attempted = 0;
    int64_t failed = 0;
    /** JSON metrics (end-to-end, or per-layer when traced). */
    std::vector<Metric> metrics;
    /** Human-readable extras printed in the table only. */
    std::vector<Metric> notes;

    void add(const std::string &name, double value,
             const std::string &unit, int64_t samples);
    void note(const std::string &name, double value,
              const std::string &unit, int64_t samples);
    /** Count one operation; a false `ok` marks it failed. */
    void check(bool ok, const std::string &what);
};

/**
 * Reference digests of the simulated outputs at kReferenceSeed, one
 * "key digest" line per output, stored with the benchmark. At any
 * other seed the workloads check invariants instead.
 */
class References
{
  public:
    References(const RunConfig &config, const std::string &workload);
    ~References();

    References(const References &) = delete;
    References &operator=(const References &) = delete;

    /**
     * Compare (or, when rewriting, record) the digest of output
     * `key`. @return false on a mismatch or a missing reference.
     */
    bool match(const std::string &key, const std::string &text);

  private:
    std::string path_;
    bool active_ = false;
    bool writing_ = false;
    std::map<std::string, std::string> stored_;
    std::map<std::string, std::string> recorded_;
};

/**
 * Coarse spans (one per point setup/run, tune() call, search call),
 * kept in memory and written out when the run ends. Self time is a
 * span's duration minus the part of it its children cover.
 */
class Spans
{
  public:
    /** Open a span under `parent` (-1: root). @return its id. */
    int open(const std::string &name, int parent = -1);
    void close(int id);

    /** Total and self host seconds per span name. */
    struct Summary
    {
        int64_t count = 0;
        double total_s = 0.0;
        double self_s = 0.0;
    };
    std::map<std::string, Summary> summarize() const;

    /** Write every span as JSON lines; @return false on I/O error. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        int64_t start_ns = 0;
        int64_t end_ns = 0;
        int parent = -1;
    };
    std::vector<Span> spans_;
};

/** Scoped span: opens on construction, closes on destruction. */
class SpanScope
{
  public:
    SpanScope(Spans *spans, const std::string &name, int parent = -1)
        : spans_(spans),
          id_(spans != nullptr ? spans->open(name, parent) : -1)
    {
    }
    ~SpanScope()
    {
        if (spans_ != nullptr)
            spans_->close(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return id_; }

  private:
    Spans *spans_;
    int id_;
};

/** The four workloads (each fills a Result; spans when traced). */
Result runArrayGrid(const RunConfig &config, Spans *spans);
Result runVolume64(const RunConfig &config, Spans *spans);
Result runAutotune(const RunConfig &config, Spans *spans);
Result runLayoutSearch(const RunConfig &config, Spans *spans);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
