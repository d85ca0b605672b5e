#include "sim/parallel_engine.hh"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace pddl {

namespace {

/** Spin briefly, then yield: windows are short, sleeps are not. */
struct SpinWait
{
    int spins = 0;

    void
    pause()
    {
        if (++spins < 512) {
#if defined(__x86_64__) || defined(__i386__)
            __builtin_ia32_pause();
#endif
        } else {
            std::this_thread::yield();
        }
    }
};

} // namespace

ParallelEngine::ParallelEngine(int shard_lanes, Config config)
    : config_(config), lanes_(static_cast<size_t>(
                           shard_lanes > 0 ? shard_lanes : 0))
{
    if (shard_lanes < 1)
        throw std::logic_error(
            "ParallelEngine needs at least one shard lane");
    if (!(config_.lookahead > 0.0))
        throw std::logic_error(
            "ParallelEngine lookahead must be > 0");
    if (config_.threads < 1)
        config_.threads = 1;
    if (config_.threads > shard_lanes)
        config_.threads = shard_lanes;
}

ParallelEngine::~ParallelEngine()
{
    // run() joins its workers on the way out; this only matters when
    // an exception unwound the coordinator mid-run.
    if (workers_.empty())
        return;
    stop_.store(true, std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_release);
    for (std::thread &worker : workers_) {
        if (worker.joinable())
            worker.join();
    }
}

void
ParallelEngine::setPostHandler(PostHandler handler, void *context)
{
    post_handler_ = handler;
    post_context_ = context;
}

void
ParallelEngine::post(int from_lane, SimTime when, uint32_t tag)
{
    assert(from_lane >= 0 && from_lane < shardLanes());
    assert(post_handler_ != nullptr && "post() needs a handler");
    lanes_[static_cast<size_t>(from_lane)].mailbox.push_back(
        Post{when, tag});
}

SimTime
ParallelEngine::minNextEventTime() const
{
    SimTime earliest = hub_.nextEventTime();
    for (const Lane &lane : lanes_)
        earliest = std::min(earliest, lane.queue.nextEventTime());
    return earliest;
}

/**
 * Barrier step: replay every mailbox post in (when, lane, seq) order
 * -- a total order fixed by simulation state alone -- interleaved
 * with the hub's own events, then run the hub up to the window edge.
 * Posts execute with the hub clock at their post time, so a fan-out
 * join completing at t observes now() == t exactly as it would on a
 * single shared queue.
 */
void
ParallelEngine::drainBarrier(SimTime window_end)
{
    barrier_order_.clear();
    for (size_t l = 0; l < lanes_.size(); ++l) {
        const std::vector<Post> &mailbox = lanes_[l].mailbox;
        for (size_t i = 0; i < mailbox.size(); ++i) {
            barrier_order_.push_back(
                PostRef{mailbox[i].when, static_cast<int>(l),
                        static_cast<uint32_t>(i)});
        }
    }
    std::sort(barrier_order_.begin(), barrier_order_.end(),
              [](const PostRef &a, const PostRef &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  if (a.lane != b.lane)
                      return a.lane < b.lane;
                  return a.seq < b.seq;
              });
    for (const PostRef &ref : barrier_order_) {
        hub_.runUntil(ref.when);
        post_handler_(post_context_, ref.lane,
                      lanes_[static_cast<size_t>(ref.lane)]
                          .mailbox[ref.seq]
                          .tag);
    }
    posts_drained_ += barrier_order_.size();
    for (Lane &lane : lanes_)
        lane.mailbox.clear();
    hub_.runBefore(window_end);
}

void
ParallelEngine::runWindowSerial(SimTime window_end)
{
    for (Lane &lane : lanes_)
        lane.queue.runBefore(window_end);
}

void
ParallelEngine::workerLoop(int worker)
{
    const int lane_count = shardLanes();
    uint64_t seen = 0;
    for (;;) {
        SpinWait wait;
        uint64_t epoch;
        while ((epoch = epoch_.load(std::memory_order_acquire)) ==
               seen) {
            wait.pause();
        }
        seen = epoch;
        if (stop_.load(std::memory_order_acquire))
            return;
        const SimTime window_end = window_end_;
        for (int lane = worker; lane < lane_count;
             lane += participants_) {
            lanes_[static_cast<size_t>(lane)].queue.runBefore(
                window_end);
        }
        done_.fetch_add(1, std::memory_order_release);
    }
}

void
ParallelEngine::run()
{
    participants_ = config_.threads;
    const bool threaded = participants_ > 1;
    if (threaded) {
        workers_.reserve(static_cast<size_t>(participants_ - 1));
        for (int w = 1; w < participants_; ++w)
            workers_.emplace_back([this, w] { workerLoop(w); });
    }

    const SimTime inf = std::numeric_limits<SimTime>::infinity();
    for (;;) {
        // The window opens at the global next-event time: a pure
        // function of simulation state, so the window sequence (and
        // with it every barrier) is identical for every thread count.
        const SimTime start = minNextEventTime();
        if (start == inf)
            break;
        const SimTime window_end = start + config_.lookahead;
        if (threaded) {
            done_.store(0, std::memory_order_relaxed);
            window_end_ = window_end;
            epoch_.fetch_add(1, std::memory_order_release);
            for (int lane = 0; lane < shardLanes();
                 lane += participants_) {
                lanes_[static_cast<size_t>(lane)].queue.runBefore(
                    window_end);
            }
            SpinWait wait;
            while (done_.load(std::memory_order_acquire) !=
                   participants_ - 1) {
                wait.pause();
            }
        } else {
            runWindowSerial(window_end);
        }
        ++windows_;
        drainBarrier(window_end);
    }

    if (threaded) {
        stop_.store(true, std::memory_order_release);
        epoch_.fetch_add(1, std::memory_order_release);
        for (std::thread &worker : workers_)
            worker.join();
        workers_.clear();
        stop_.store(false, std::memory_order_relaxed);
    }
}

uint64_t
ParallelEngine::eventsFired() const
{
    uint64_t fired = hub_.fired();
    for (const Lane &lane : lanes_)
        fired += lane.queue.fired();
    return fired;
}

SimTime
ParallelEngine::now() const
{
    SimTime latest = hub_.now();
    for (const Lane &lane : lanes_)
        latest = std::max(latest, lane.queue.now());
    return latest;
}

} // namespace pddl
