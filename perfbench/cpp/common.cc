#include "common.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/rng.hh"

namespace perfbench {

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

uint64_t
passSeed(uint64_t seed, int pass, int sub_seeds)
{
    return pddl::hashMix64(static_cast<uint64_t>(pass % sub_seeds), seed);
}

double
cycleSeconds(const std::vector<double> &passes, int sub_seeds)
{
    double total = 0.0;
    for (int sub = 0; sub < sub_seeds; ++sub) {
        std::vector<double> mine;
        for (size_t i = static_cast<size_t>(sub); i < passes.size();
             i += static_cast<size_t>(sub_seeds))
            mine.push_back(passes[i]);
        total += median(mine);
    }
    return total / sub_seeds;
}

bool
RunConfig::morePasses(int64_t begin_ns, const std::vector<double> &passes,
                      int min_passes) const
{
    if (passes.size() < static_cast<size_t>(min_passes))
        return true;
    return secondsSince(begin_ns) + median(passes) <= seconds;
}

void
logSeconds(const char *what, const std::vector<double> &samples)
{
    std::fprintf(stderr, "[perfbench] %s seconds:", what);
    for (double s : samples)
        std::fprintf(stderr, " %.4f", s);
    std::fprintf(stderr, "\n");
}

double
peakRssMb()
{
    // VmHWM belongs to this process image; getrusage's ru_maxrss would
    // also count the launching interpreter, whose peak survives exec.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

std::string
exact(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string
digest(const std::string &text)
{
    uint64_t hash = 14695981039346656037ULL;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 1099511628211ULL;
    }
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash);
    return buf;
}

void
Result::add(const std::string &name, double value,
            const std::string &unit, int64_t samples)
{
    metrics.push_back({name, value, unit, samples});
}

void
Result::note(const std::string &name, double value,
             const std::string &unit, int64_t samples)
{
    notes.push_back({name, value, unit, samples});
}

void
Result::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        correct = false;
        std::fprintf(stderr, "[perfbench] FAILED: %s\n", what.c_str());
    }
}

References::References(const RunConfig &config,
                       const std::string &workload)
    : path_(config.refs_dir + "/" + workload + ".txt"),
      active_(config.seed == kReferenceSeed),
      writing_(config.write_refs)
{
    if (!active_ || writing_)
        return;
    std::ifstream in(path_);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string key;
        std::string value;
        if (fields >> key >> value)
            stored_[key] = value;
    }
}

References::~References()
{
    if (!active_ || !writing_)
        return;
    std::ofstream out(path_, std::ios::trunc);
    for (const auto &[key, value] : recorded_)
        out << key << ' ' << value << '\n';
    if (!out)
        std::fprintf(stderr, "[perfbench] cannot write %s\n",
                     path_.c_str());
}

bool
References::match(const std::string &key, const std::string &text)
{
    if (!active_)
        return true;
    const std::string value = digest(text);
    if (writing_) {
        recorded_[key] = value;
        return true;
    }
    const auto it = stored_.find(key);
    if (it == stored_.end()) {
        std::fprintf(stderr, "[perfbench] no reference for %s in %s\n",
                     key.c_str(), path_.c_str());
        return false;
    }
    if (it->second != value) {
        std::fprintf(stderr,
                     "[perfbench] %s: digest %s, reference %s (%s)\n",
                     key.c_str(), value.c_str(), it->second.c_str(),
                     text.c_str());
        return false;
    }
    return true;
}

int
Spans::open(const std::string &name, int parent)
{
    spans_.push_back({name, nowNs(), 0, parent});
    return static_cast<int>(spans_.size()) - 1;
}

void
Spans::close(int id)
{
    spans_[static_cast<size_t>(id)].end_ns = nowNs();
}

std::map<std::string, Spans::Summary>
Spans::summarize() const
{
    // Children of one parent never overlap (every workload is a
    // closed loop with one client), so the covered part of a parent
    // is the sum of its children's durations.
    std::vector<int64_t> covered(spans_.size(), 0);
    for (const Span &span : spans_) {
        if (span.parent >= 0)
            covered[static_cast<size_t>(span.parent)] +=
                span.end_ns - span.start_ns;
    }
    std::map<std::string, Summary> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const int64_t total = spans_[i].end_ns - spans_[i].start_ns;
        Summary &s = out[spans_[i].name];
        ++s.count;
        s.total_s += static_cast<double>(total) * 1e-9;
        s.self_s += static_cast<double>(total - covered[i]) * 1e-9;
    }
    return out;
}

bool
Spans::write(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"id\":" << i << ",\"name\":\"" << s.name
            << "\",\"parent\":" << s.parent
            << ",\"start_ns\":" << (s.start_ns - base)
            << ",\"end_ns\":" << (s.end_ns - base) << "}\n";
    }
    return static_cast<bool>(out);
}

} // namespace perfbench
