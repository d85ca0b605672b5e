#include "array/target.hh"

#include "obs/metrics.hh"

namespace pddl {

Target::~Target() = default;

const std::vector<double> &
Target::latencyBoundsMs() const
{
    return obs::defaultLatencyBoundsMs();
}

} // namespace pddl
