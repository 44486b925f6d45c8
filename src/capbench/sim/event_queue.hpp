// Slab-backed priority event queue for the discrete-event simulator.
//
// Events are ordered by (time, sequence number) so that simultaneous events
// run in insertion order, which keeps runs deterministic.  The storage is a
// slab of reusable slots; pushing an event takes a slot from the freelist
// (no allocation in steady state) and cancellation is a generation check —
// no per-event shared_ptr control block.
//
// A hierarchical timing wheel (sim/timing_wheel.*) indexes the slab by slot
// index: O(1) amortized push/pop for the dense-timer steady state, and an
// O(1) unlink on cancellation, so a cancelled slot goes straight back to the
// freelist.
//
//  * EventHandle is (queue, slot index, generation).  A slot's generation
//    is bumped whenever its event fires or is cancelled, so stale handles —
//    including handles whose slot has since been reused — are inert
//    (ABA-safe).  Handles must not outlive the queue they came from.
//  * Callbacks are InplaceFunction: captures up to ~96 B live inside the
//    slot, so the steady-state event loop performs zero heap allocations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "capbench/sim/inplace_function.hpp"
#include "capbench/sim/time.hpp"
#include "capbench/sim/timing_wheel.hpp"

namespace capbench::sim {

class EventQueue;

// ---- one-value compatibility names --------------------------------------
// The timing wheel is the only priority structure.  The names below, plus
// RunConfig::event_queue, TestbedConfig::event_queue and
// Simulator(EventQueueBackend), survive only because the benchmark probe
// (benchmark/probe) still spells them; each has exactly one value and
// selects nothing.  Delete them together with their uses there.

enum class EventQueueBackend : std::uint8_t { kWheel };

/// Always "wheel".
[[nodiscard]] const char* to_string(EventQueueBackend backend);

/// Always kWheel; reads no environment variable.
[[nodiscard]] EventQueueBackend event_queue_backend_from_env();

// ---- end of compatibility names ------------------------------------------

/// Handle to a scheduled event; allows cancellation.  Copyable; all copies
/// refer to the same scheduled event.  A default-constructed handle is
/// inert.  Handles must not be used after their EventQueue is destroyed.
class EventHandle {
public:
    EventHandle() = default;

    /// Cancels the event if it has not fired yet.  Safe to call repeatedly,
    /// after the event ran, and after EventQueue::clear().
    void cancel();

    /// True while the event is still scheduled (not fired, not cancelled).
    [[nodiscard]] bool pending() const;

private:
    friend class EventQueue;
    EventHandle(EventQueue* queue, std::uint32_t slot, std::uint64_t generation)
        : queue_(queue), slot_(slot), generation_(generation) {}

    EventQueue* queue_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint64_t generation_ = 0;
};

class EventQueue {
public:
    using Action = InplaceFunction;

    /// Lifetime counters (monotonic; survive clear()).
    struct Stats {
        std::uint64_t pushed = 0;
        std::uint64_t executed = 0;
        std::uint64_t cancelled = 0;
    };

    /// Schedules `action` to run at absolute time `t`.
    EventHandle push(SimTime t, Action action);

    /// True when no live events remain.
    [[nodiscard]] bool empty() const { return wheel_.empty(); }

    /// Number of live (scheduled, not cancelled) events — the queue-depth
    /// signal.
    [[nodiscard]] std::size_t size() const { return wheel_.size(); }

    /// Number of slab slots ever created (capacity high-water mark).
    [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

    /// Time of the earliest live event.  Requires !empty().
    [[nodiscard]] SimTime next_time();

    /// Pops and runs the earliest live event, returning its time.
    /// Requires !empty().
    SimTime pop_and_run();

    /// Drops every pending event and resets the slab and freelist to a
    /// pristine state (capacity is kept).  Outstanding EventHandles become
    /// inert: cancel() and pending() on them are safe no-ops.
    void clear();

    [[nodiscard]] const Stats& stats() const { return stats_; }

private:
    friend class EventHandle;

    static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

    struct Slot {
        Action action;
        std::uint64_t generation = 0;
        std::uint32_t next_free = kNoSlot;
    };

    void cancel(std::uint32_t slot, std::uint64_t generation);
    [[nodiscard]] bool is_pending(std::uint32_t slot, std::uint64_t generation) const;

    std::uint32_t acquire_slot();
    void release_slot(std::uint32_t index);

    std::vector<Slot> slots_;
    TimingWheel wheel_;  // ids are slab slot indices
    std::uint32_t free_head_ = kNoSlot;
    std::uint64_t next_seq_ = 0;
    Stats stats_;
};

inline void EventHandle::cancel() {
    if (queue_ != nullptr) queue_->cancel(slot_, generation_);
}

inline bool EventHandle::pending() const {
    return queue_ != nullptr && queue_->is_pending(slot_, generation_);
}

}  // namespace capbench::sim
