/**
 * @file
 * Conservative time-window parallel simulation engine.
 *
 * One big scenario (a sharded volume) still runs all S shards on a
 * single EventQueue, so wall-clock cost grows linearly with S even
 * though the shards only couple at the VolumeManager. This engine
 * exploits that structure the classic conservative-PDES way:
 *
 *  - Every shard owns a private "lane": its own EventQueue (event
 *    pool + indexed 4-ary heap), its own controller, disks and fault
 *    machinery. Lane events never touch another lane's state.
 *  - A "hub" lane holds everything cross-shard: workload clients and
 *    the VolumeManager's fan-out joins. Cross-lane interaction only
 *    happens through the hub, and always pays a simulated dispatch
 *    latency (VolumeConfig::dispatch_ms) on the way *into* a shard.
 *  - That dispatch latency is the lookahead: during a time window
 *    [W, W + lookahead) every lane can run independently, because
 *    any hub-side event inside the window can only schedule lane
 *    work at >= W + lookahead -- the *next* window.
 *
 * The run loop is a sequence of synchronous windows:
 *
 *   1. window start = min next-event time over all lanes + hub
 *      (a pure function of simulation state, never of thread count);
 *   2. worker threads run their statically assigned lanes with
 *      EventQueue::runBefore(start + lookahead);
 *   3. barrier: the coordinator drains every lane's mailbox of
 *      posted hub work (shard completion notifications: a (time,
 *      tag) record handed to the registered handler), sorted by
 *      (time, lane, FIFO seq) -- a fixed order no schedule can
 *      perturb -- interleaved with the hub's own events via
 *      runUntil, then runs remaining hub events with runBefore.
 *
 * Lane-to-thread assignment is static (lane l on worker l mod T), a
 * lane's mailbox is appended only by the thread running that lane,
 * and the barrier is the only writer of hub state -- so the tracer
 * stays single-writer per lane and Probe registries can be kept
 * single-writer per lane and merged in fixed shard order. Every
 * quantity that reaches an event callback (window edges, mailbox
 * order, lane clocks) is independent of the thread count, which is
 * what makes 1-, 2- and N-thread runs byte-identical (DESIGN.md §10).
 */

#ifndef PDDL_SIM_PARALLEL_ENGINE_HH
#define PDDL_SIM_PARALLEL_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "sim/event_queue.hh"

namespace pddl {

/** Windowed conservative-lookahead driver over per-shard lanes. */
class ParallelEngine
{
  public:
    struct Config
    {
        /**
         * Worker threads running shard lanes (the calling thread is
         * worker 0). Clamped to [1, lanes]; 1 runs everything inline
         * with no threads spawned and no atomics touched.
         */
        int threads = 1;
        /**
         * Conservative window width in simulated ms. Must not exceed
         * the minimum cross-lane delay (the volume's dispatch_ms) or
         * a window could schedule into a lane's past -- producers
         * check this at construction.
         */
        SimTime lookahead = 0.5;
    };

    ParallelEngine(int shard_lanes, Config config);
    ~ParallelEngine();

    ParallelEngine(const ParallelEngine &) = delete;
    ParallelEngine &operator=(const ParallelEngine &) = delete;

    int shardLanes() const { return static_cast<int>(lanes_.size()); }

    /** The private event queue of shard lane `lane`. */
    EventQueue &shardQueue(int lane) { return lanes_[lane].queue; }

    /** The cross-shard lane (clients, volume joins, global timers). */
    EventQueue &hubQueue() { return hub_; }

    SimTime lookahead() const { return config_.lookahead; }
    int threads() const { return config_.threads; }

    /**
     * Hub handler for mailbox posts: runs at a barrier with the hub
     * clock at the post's time, given the posting lane and its tag.
     */
    using PostHandler = void (*)(void *context, int lane, uint32_t tag);

    /**
     * Register the one consumer of mailbox posts (the producer that
     * posts from the lanes; a parallel VolumeManager registers its
     * join). A later registration replaces an earlier one.
     */
    void setPostHandler(PostHandler handler, void *context);

    /**
     * Post hub work from inside lane `from_lane` at simulated time
     * `when` (>= the lane's clock). The registered handler receives
     * (from_lane, tag) at the next barrier with the hub clock at
     * `when`, after all posts with earlier (when, lane, seq). Only
     * the thread currently running `from_lane` may call this.
     */
    void post(int from_lane, SimTime when, uint32_t tag);

    /** Run windows until every lane and the hub are drained. */
    void run();

    /** Synchronous windows executed so far. */
    uint64_t windowsRun() const { return windows_; }

    /** Events fired across the hub and every lane. */
    uint64_t eventsFired() const;

    /**
     * Events fired on the hub lane (clients, cache, volume fan-out):
     * the serial share of the work, since only lanes run in parallel.
     */
    uint64_t hubEventsFired() const { return hub_.fired(); }

    /** Mailbox posts replayed at barriers so far. */
    uint64_t postsDrained() const { return posts_drained_; }

    /** Latest clock over the hub and every lane. */
    SimTime now() const;

  private:
    /** One mailbox entry: 16 bytes, read back by the hub. */
    struct Post
    {
        SimTime when;
        uint32_t tag;
    };

    /**
     * A shard lane: queue plus its barrier mailbox, cache-line
     * separated so neighboring lanes never false-share.
     */
    struct alignas(64) Lane
    {
        EventQueue queue;
        std::vector<Post> mailbox;
    };

    SimTime minNextEventTime() const;
    void runWindowSerial(SimTime window_end);
    void drainBarrier(SimTime window_end);
    void workerLoop(int worker);

    Config config_;
    std::vector<Lane> lanes_;
    EventQueue hub_;
    uint64_t windows_ = 0;
    uint64_t posts_drained_ = 0;
    PostHandler post_handler_ = nullptr;
    void *post_context_ = nullptr;

    /** Participating workers this run (coordinator included). */
    int participants_ = 1;
    std::vector<std::thread> workers_;
    /** Window edge published to workers by the epoch release. */
    SimTime window_end_ = 0.0;
    std::atomic<uint64_t> epoch_{0};
    std::atomic<int> done_{0};
    std::atomic<bool> stop_{false};

    /** Barrier scratch: (when, lane, seq) references into mailboxes. */
    struct PostRef
    {
        SimTime when;
        int lane;
        uint32_t seq;
    };
    std::vector<PostRef> barrier_order_;
};

} // namespace pddl

#endif // PDDL_SIM_PARALLEL_ENGINE_HH
