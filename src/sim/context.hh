/**
 * @file
 * Shared simulation context: one clock and one event queue.  Every
 * simulated component (MMU, SSD, battery, Viyojit manager) holds a
 * reference to the same SimContext and keeps its own typed counters
 * (e.g. ControllerStats, IoFaultStats, RecoveryStats).
 */

#ifndef VIYOJIT_SIM_CONTEXT_HH
#define VIYOJIT_SIM_CONTEXT_HH

#include "sim/clock.hh"
#include "sim/event_queue.hh"

namespace viyojit::sim
{

/** Bundle of the simulation-wide singletons. */
class SimContext
{
  public:
    SimContext()
        : events_(clock_)
    {}

    SimContext(const SimContext &) = delete;
    SimContext &operator=(const SimContext &) = delete;

    VirtualClock &clock() { return clock_; }
    const VirtualClock &clock() const { return clock_; }

    EventQueue &events() { return events_; }

    /** Current virtual time (convenience). */
    Tick now() const { return clock_.now(); }

  private:
    VirtualClock clock_;
    EventQueue events_;
};

} // namespace viyojit::sim

#endif // VIYOJIT_SIM_CONTEXT_HH
