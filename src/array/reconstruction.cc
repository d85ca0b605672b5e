#include "array/reconstruction.hh"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <memory>

namespace pddl {

FailedUnitIndex::FailedUnitIndex(const Layout &layout, int disk,
                                 int64_t stripes)
    : layout_(layout), disk_(disk)
{
    assert(stripes >= 0 && layout_.stripeWidth() <= INT16_MAX);
    if (!layout_.mapIsPeriodic())
        return;
    period_ = layout_.stripesPerPeriod();
    const int64_t rows = std::min(period_, stripes);
    table_.reserve(static_cast<size_t>(rows));
    for (int64_t stripe = 0; stripe < rows; ++stripe)
        table_.push_back(static_cast<int16_t>(scan(stripe)));
}

int
FailedUnitIndex::scan(int64_t stripe) const
{
    for (int pos = 0; pos < layout_.stripeWidth(); ++pos) {
        if (layout_.map({stripe, pos}).disk == disk_)
            return pos;
    }
    return -1;
}

ReconstructionEngine::ReconstructionEngine(EventQueue &events,
                                           ArrayController &array,
                                           int failed_disk,
                                           int64_t stripes,
                                           int max_parallel)
    : events_(events), array_(array), layout_(array.layout()),
      probe_(array.config().probe), failed_disk_(failed_disk),
      stripes_(stripes > 0 ? stripes
                           : array.dataUnits() /
                                 layout_.dataUnitsPerStripe()),
      max_parallel_(max_parallel),
      index_(layout_, failed_disk_, stripes_)
{
    assert(layout_.hasSparing() &&
           "reconstruction targets distributed spare space");
    assert(failed_disk_ >= 0 && failed_disk_ < layout_.numDisks());
    assert(max_parallel_ >= 1);
}

void
ReconstructionEngine::start(std::function<void()> done)
{
    assert(!done_ && "engine can only run once");
    done_ = std::move(done);
    start_time_ = events_.now();
    probe_.lane(obs::kLaneRebuild, "rebuild");
    probe_.asyncBegin("rebuild", "rebuild", obs::kLaneRebuild,
                      static_cast<uint64_t>(failed_disk_),
                      start_time_);
    pump();
}

void
ReconstructionEngine::cancel()
{
    cancelled_ = true;
}

void
ReconstructionEngine::pump()
{
    if (cancelled_)
        return;
    while (in_flight_ < max_parallel_ && next_stripe_ < stripes_)
        rebuildStripe(next_stripe_++);
    if (in_flight_ == 0 && next_stripe_ >= stripes_ && !complete_) {
        complete_ = true;
        finish_time_ = events_.now();
        probe_.asyncEnd("rebuild", "rebuild", obs::kLaneRebuild,
                        static_cast<uint64_t>(failed_disk_),
                        finish_time_);
        probe_.observe("rebuild.duration_ms", durationMs());
        if (done_)
            done_();
    }
}

void
ReconstructionEngine::rebuildStripe(int64_t stripe)
{
    const int width = layout_.stripeWidth();

    // Locate the failed unit; stripes untouched by the failure are
    // skipped without I/O (the sweep just advances).
    const int failed_pos = index_.positionIn(stripe);
    if (failed_pos < 0)
        return;

    PhysAddr lost = layout_.map({stripe, failed_pos});
    PhysAddr home = layout_.relocatedAddress(failed_disk_, lost.unit);

    ++in_flight_;
    const double launch_ms = events_.now();
    auto outstanding = std::make_shared<int>(width - 1);
    for (int pos = 0; pos < width; ++pos) {
        if (pos == failed_pos)
            continue;
        PhysAddr addr = layout_.map({stripe, pos});
        ++reads_issued_;
        probe_.count("rebuild.reads");
        array_.submitUnit(addr.disk, addr.unit, false,
                          [this, outstanding, home, stripe,
                           launch_ms] {
                              if (--*outstanding > 0)
                                  return;
                              // All survivors read: XOR is free,
                              // write the rebuilt unit to its spare
                              // home.
                              array_.submitUnit(
                                  home.disk, home.unit, true,
                                  [this, stripe, launch_ms] {
                                      ++units_rebuilt_;
                                      --in_flight_;
                                      probe_.count(
                                          "rebuild.units_rebuilt");
                                      probe_.complete(
                                          "stripe", "rebuild",
                                          obs::kLaneRebuild,
                                          launch_ms,
                                          events_.now() - launch_ms,
                                          {{"stripe",
                                            static_cast<double>(
                                                stripe)}});
                                      pump();
                                  });
                          });
    }
}

} // namespace pddl
