/**
 * @file
 * Workload: the one interface synthetic clients implement.
 *
 * A workload issues logical accesses against a Target -- a single
 * ArrayController or a sharded VolumeManager -- on a shared event
 * queue. start() wires the client population up and returns; the
 * caller owns the event loop (runUntilEmpty(), runUntil(), or
 * whatever mission shape the experiment needs) and reads the
 * workload's measured outcome afterwards.
 *
 * Every bench and test drives a single array or a whole volume
 * through this one API. runOnArray() is the one single-array run: it
 * builds the queue and the array, starts the client, drains and
 * returns the client's result.
 */

#ifndef PDDL_WORKLOAD_WORKLOAD_HH
#define PDDL_WORKLOAD_WORKLOAD_HH

#include <type_traits>

#include "array/controller.hh"
#include "array/target.hh"
#include "sim/event_queue.hh"

namespace pddl {

class ParallelEngine;

/** A synthetic client population driving one Target. */
class Workload
{
  public:
    virtual ~Workload();

    Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /**
     * Begin issuing against `target` on `events` and return. Both
     * must outlive the workload's run; a workload starts once.
     *
     * In a parallel scenario `events` MUST be the engine's hub
     * queue (use startOnHub): clients read now() in completion
     * callbacks and schedule think/arrival timers, and only the hub
     * lane runs those at the barrier with the correct clock. A
     * workload started on a shard lane would race the other lanes.
     */
    virtual void start(EventQueue &events, Target &target) = 0;
};

/**
 * Start `workload` against `target` on `engine`'s hub lane -- the
 * one queue of a parallel scenario that client callbacks and timers
 * may legally live on (see Workload::start).
 */
void startOnHub(Workload &workload, ParallelEngine &engine,
                Target &target);

/**
 * Run `client` to drain on one fresh array -- an EventQueue whose
 * probe is `config.probe` and an ArrayController over `layout` and
 * `device` -- and return client.result(). The result is read before
 * the array is torn down, because a closed loop's seek averages come
 * from the array's disks; afterwards only the client's own state
 * (its latency histogram) is valid. A pure function of its inputs
 * and the client's seed.
 */
template <typename Client>
auto
runOnArray(const Layout &layout, const DeviceModel &device,
           const ArrayConfig &config, Client &client)
{
    static_assert(std::is_base_of_v<Workload, Client>,
                  "runOnArray drives a Workload");
    EventQueue events;
    events.setProbe(config.probe);
    ArrayController array(events, layout, device, config);
    client.start(events, array);
    events.runUntilEmpty();
    return client.result();
}

} // namespace pddl

#endif // PDDL_WORKLOAD_WORKLOAD_HH
