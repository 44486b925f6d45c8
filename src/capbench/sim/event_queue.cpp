#include "capbench/sim/event_queue.hpp"

#include <stdexcept>
#include <utility>

namespace capbench::sim {

const char* to_string(EventQueueBackend /*backend*/) { return "wheel"; }

EventQueueBackend event_queue_backend_from_env() { return EventQueueBackend::kWheel; }

EventHandle EventQueue::push(SimTime t, Action action) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    s.action = std::move(action);
    wheel_.insert(slot, t, next_seq_++);
    ++stats_.pushed;
    return EventHandle{this, slot, s.generation};
}

void EventQueue::cancel(std::uint32_t slot, std::uint64_t generation) {
    if (slot >= slots_.size()) return;
    Slot& s = slots_[slot];
    if (s.generation != generation) return;
    // Bump the generation so every handle to this event goes inert, and
    // destroy the callback now so captured resources are released eagerly.
    ++s.generation;
    s.action.reset();
    ++stats_.cancelled;
    // The wheel unlinks in O(1), so the slot goes straight back to the
    // freelist: no tombstone is left behind.
    wheel_.erase(slot);
    release_slot(slot);
}

bool EventQueue::is_pending(std::uint32_t slot, std::uint64_t generation) const {
    if (slot >= slots_.size()) return false;
    const Slot& s = slots_[slot];
    return s.generation == generation;
}

SimTime EventQueue::next_time() {
    if (wheel_.empty()) throw std::logic_error("EventQueue::next_time on empty queue");
    return wheel_.min_time();
}

SimTime EventQueue::pop_and_run() {
    if (wheel_.empty()) throw std::logic_error("EventQueue::pop_and_run on empty queue");
    SimTime time;
    const std::uint32_t slot = wheel_.pop_min(time);
    Slot& s = slots_[slot];
    // Move the action out and release the slot before running: the action
    // may push new events (which can reuse this slot) and EventHandles to
    // this event must already read "not pending" while it runs.
    Action action = std::move(s.action);
    s.action.reset();
    ++s.generation;
    release_slot(slot);
    ++stats_.executed;
    action();
    return time;
}

void EventQueue::clear() {
    // Bump every slot's generation so outstanding handles are
    // inert, then rebuild a pristine freelist over the whole slab.
    wheel_.clear();
    free_head_ = kNoSlot;
    for (std::size_t i = slots_.size(); i > 0; --i) {
        Slot& s = slots_[i - 1];
        ++s.generation;
        s.action.reset();
        s.next_free = free_head_;
        free_head_ = static_cast<std::uint32_t>(i - 1);
    }
}

std::uint32_t EventQueue::acquire_slot() {
    if (free_head_ == kNoSlot) {
        if (slots_.size() >= kNoSlot)
            throw std::length_error("EventQueue: slot slab exhausted");
        slots_.emplace_back();
        return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNoSlot;
    return slot;
}

void EventQueue::release_slot(std::uint32_t index) {
    Slot& s = slots_[index];
    s.next_free = free_head_;
    free_head_ = index;
}

}  // namespace capbench::sim
