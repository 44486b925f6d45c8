// Stress tests for the slab-backed event queue: slot reuse under heavy
// cancellation (the ABA hazard generation stamps exist to prevent),
// clear() semantics, the live-only size accounting, and the timing wheel's
// (time, seq) total order across every level and its far-future overflow
// list, checked against an independent std::multimap reference model.
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "capbench/sim/event_queue.hpp"
#include "capbench/sim/random.hpp"

namespace sim = capbench::sim;

namespace {

sim::SimTime at(std::int64_t ns) { return sim::SimTime{} + sim::Duration{ns}; }

/// Drives an EventQueue and a reference model side by side: a multimap of
/// the live events ordered by the same (time, push-seq) key.  Every pop
/// must fire exactly the model's minimum, at its time.
class ModelledQueue {
public:
    using Key = std::pair<std::int64_t, std::uint64_t>;  // (time, seq)

    /// Schedules an event at `t`; returns its push index for cancel().
    std::size_t push(std::int64_t t) {
        const std::uint64_t id = handles_.size();
        const Key key{t, id};  // ids are handed out in push order: id == seq
        handles_.emplace_back(q_.push(at(t), [this, id] { fired_ = id; }), key);
        reference_.emplace(key, id);
        return id;
    }

    /// Cancels the event pushed as `index` if it is still pending; a second
    /// cancel through the now-stale handle must be a no-op.
    void cancel(std::size_t index) {
        auto& [handle, key] = handles_[index];
        if (handle.pending()) {
            handle.cancel();
            reference_.erase(key);
        }
        EXPECT_FALSE(handle.pending());
        handle.cancel();
    }

    /// Pops one event and checks it against the model.
    void pop_and_check() {
        ASSERT_FALSE(reference_.empty());
        fired_ = kNone;
        const sim::SimTime t = q_.pop_and_run();
        const auto head = reference_.begin();
        ASSERT_NE(fired_, kNone) << "pop executed nothing";
        EXPECT_EQ(fired_, head->second) << "queue violated the (time, seq) total order";
        EXPECT_EQ(t, at(head->first.first));
        last_popped_ = head->first.first;
        reference_.erase(head);
    }

    void drain_and_check() {
        while (!q_.empty()) pop_and_check();
        EXPECT_TRUE(reference_.empty());
    }

    [[nodiscard]] std::size_t pushed() const { return handles_.size(); }
    [[nodiscard]] std::int64_t last_popped() const { return last_popped_; }
    [[nodiscard]] std::size_t live() const { return reference_.size(); }
    [[nodiscard]] const sim::EventQueue& queue() const { return q_; }

private:
    static constexpr std::uint64_t kNone = ~std::uint64_t{0};

    sim::EventQueue q_;
    std::vector<std::pair<sim::EventHandle, Key>> handles_;
    std::multimap<Key, std::uint64_t> reference_;  // -> id
    std::uint64_t fired_ = kNone;
    std::int64_t last_popped_ = 0;
};

TEST(EventQueueStress, RandomCancelReplayMatchesReferenceModel) {
    // One random push/cancel/pop mix.  The interleaved cancels and drains
    // force heavy slot reuse while stale handles are still alive — the ABA
    // scenario the generation stamps exist for.
    sim::Rng rng(20260806);
    ModelledQueue m;
    std::vector<std::size_t> pending;  // push indices not yet picked for cancel

    for (int round = 0; round < 400; ++round) {
        const int pushes = 1 + static_cast<int>(rng.next_below(8));
        for (int i = 0; i < pushes; ++i)
            pending.push_back(m.push(static_cast<std::int64_t>(rng.next_below(50))));
        const int cancels = static_cast<int>(rng.next_below(6));
        for (int i = 0; i < cancels && !pending.empty(); ++i) {
            const std::size_t pick = static_cast<std::size_t>(rng.next_below(pending.size()));
            m.cancel(pending[pick]);
            pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
        }
        const int pops = static_cast<int>(rng.next_below(5));
        for (int i = 0; i < pops && !m.queue().empty(); ++i) m.pop_and_check();
        EXPECT_EQ(m.queue().size(), m.live());
    }
    m.drain_and_check();

    const auto& stats = m.queue().stats();
    EXPECT_EQ(m.queue().size(), 0u);
    EXPECT_EQ(stats.pushed, m.pushed());
    EXPECT_EQ(stats.pushed, stats.executed + stats.cancelled);
}

TEST(EventQueueStress, DenseTimesWithFarJumpsMatchReferenceModel) {
    // Dense near-term ticks mixed with occasional 2^20..2^49 ns jumps, so
    // pops run through cascades from every wheel level, plus random
    // cancels of any event ever pushed (fired ones included: a no-op).
    // Each far event is pushed twice at the same time: the pair rides the
    // cascades down together and must still pop in push order.  (The dense
    // ticks alone almost never share a tick inside one cascaded bucket.)
    sim::Rng rng(0xC0FFEE);
    ModelledQueue m;

    for (int round = 0; round < 300; ++round) {
        const int pushes = 1 + static_cast<int>(rng.next_below(6));
        for (int i = 0; i < pushes; ++i) {
            std::int64_t t = static_cast<std::int64_t>(rng.next_below(2'000));
            if (rng.next_below(20) == 0) {
                t += std::int64_t{1} << (20 + rng.next_below(30));
                m.push(t);
            }
            m.push(t);
        }
        if (m.pushed() > 0 && rng.next_below(3) == 0)
            m.cancel(static_cast<std::size_t>(rng.next_below(m.pushed())));
        const int pops = static_cast<int>(rng.next_below(4));
        for (int i = 0; i < pops && !m.queue().empty(); ++i) m.pop_and_check();
        ASSERT_EQ(m.queue().size(), m.live());
    }
    m.drain_and_check();
}

TEST(EventQueueStress, OverflowListMatchesReferenceModel) {
    // The wheel's five 1024-bucket levels span 2^50 ns from the cursor's
    // top-level block; anything beyond waits on the overflow list and is
    // re-ingested once the wheels drain.  Push at and past 2^50 and 2^51,
    // cancel overflow entries (head, tail and middle), pop through two
    // re-ingests, push again relative to the moved cursor, then run a
    // random phase whose jumps reach 2^52.
    constexpr std::int64_t k50 = std::int64_t{1} << 50;
    constexpr std::int64_t k51 = std::int64_t{1} << 51;
    ModelledQueue m;

    for (const std::int64_t t : {std::int64_t{0}, std::int64_t{7}, std::int64_t{1} << 30, k50 - 1})
        m.push(t);
    const std::size_t overflow_head = m.push(k50 + 9);
    m.push(k50);
    m.push(k50);  // equal time: must pop in push order
    const std::size_t overflow_mid = m.push(k50 + 1);
    m.push(k51 - 1);
    m.push(k51);
    m.push(k51 + 12'345);
    m.push(k51 + k50);
    m.push(std::int64_t{1} << 62);
    const std::size_t overflow_tail = m.push(k51 + 1);
    m.cancel(overflow_head);
    m.cancel(overflow_mid);
    m.cancel(overflow_tail);
    ASSERT_EQ(m.queue().size(), m.live());

    // Four wheel entries, then the first re-ingest (cursor jumps to 2^50).
    for (int i = 0; i < 6; ++i) m.pop_and_check();
    ASSERT_EQ(m.last_popped(), k50);

    // Push again behind the moved cursor: near it, at an occupied time, and
    // past the new top-level block (back onto the overflow list).
    m.push(k50 + 3);
    m.push(k51 - 1);
    m.push(k51);
    m.push(k51 + k50 + 2);
    const std::size_t doomed = m.push(k51 * 4);
    m.cancel(doomed);

    // Drain through the second re-ingest (everything at or past 2^51).
    for (int i = 0; i < 5; ++i) m.pop_and_check();
    ASSERT_EQ(m.last_popped(), k51);

    sim::Rng rng(0xF4A11);
    for (int round = 0; round < 300; ++round) {
        const int pushes = 1 + static_cast<int>(rng.next_below(4));
        for (int i = 0; i < pushes; ++i) {
            std::int64_t t = m.last_popped() + static_cast<std::int64_t>(rng.next_below(2'000));
            if (rng.next_below(8) == 0) t += std::int64_t{1} << (40 + rng.next_below(13));
            m.push(t);
        }
        if (rng.next_below(3) == 0)
            m.cancel(static_cast<std::size_t>(rng.next_below(m.pushed())));
        const int pops = static_cast<int>(rng.next_below(5));
        for (int i = 0; i < pops && !m.queue().empty(); ++i) m.pop_and_check();
        ASSERT_EQ(m.queue().size(), m.live());
    }
    m.drain_and_check();
}

TEST(EventQueueStress, StaleHandleCannotCancelSlotReuse) {
    // The ABA scenario: a handle to a consumed event must not affect a new
    // event that happens to land in the same slot.
    sim::EventQueue q;
    int first_fired = 0;
    int second_fired = 0;
    auto stale = q.push(at(1), [&first_fired] { ++first_fired; });
    q.pop_and_run();
    EXPECT_EQ(first_fired, 1);
    EXPECT_EQ(q.slot_count(), 1u);

    // Same slot, new generation.
    auto fresh = q.push(at(2), [&second_fired] { ++second_fired; });
    EXPECT_EQ(q.slot_count(), 1u) << "slot was not reused";
    EXPECT_FALSE(stale.pending());
    stale.cancel();  // must not touch the new occupant
    EXPECT_TRUE(fresh.pending());
    q.pop_and_run();
    EXPECT_EQ(second_fired, 1);
}

TEST(EventQueueStress, SizeCountsLiveEventsOnly) {
    sim::EventQueue q;
    auto a = q.push(at(1), [] {});
    auto b = q.push(at(2), [] {});
    auto c = q.push(at(3), [] {});
    EXPECT_EQ(q.size(), 3u);

    b.cancel();
    EXPECT_EQ(q.size(), 2u) << "cancelled events must not count as live";
    EXPECT_FALSE(q.empty());

    a.cancel();
    c.cancel();
    EXPECT_EQ(q.size(), 0u);
    EXPECT_TRUE(q.empty()) << "a queue whose events were all cancelled is empty";
    EXPECT_EQ(q.slot_count(), 3u);
}

TEST(EventQueueStress, CancelAfterClearIsInert) {
    sim::EventQueue q;
    int fired = 0;
    auto before = q.push(at(5), [&fired] { ++fired; });
    auto also_before = q.push(at(6), [&fired] { ++fired; });
    also_before.cancel();
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);

    // New events may land in the very slots the old handles reference.
    int after_fired = 0;
    auto after = q.push(at(1), [&after_fired] { ++after_fired; });
    EXPECT_FALSE(before.pending());
    before.cancel();       // stale: must not cancel the new event
    also_before.cancel();  // stale + previously cancelled: still a no-op
    EXPECT_TRUE(after.pending());
    q.pop_and_run();
    EXPECT_EQ(after_fired, 1);
    EXPECT_EQ(fired, 0);
}

TEST(EventQueueStress, ClearResetsFreelistDeterministically) {
    sim::EventQueue q;
    std::vector<sim::EventHandle> handles;
    for (int i = 0; i < 32; ++i) handles.push_back(q.push(at(i), [] {}));
    for (int i = 0; i < 32; i += 2) handles[static_cast<std::size_t>(i)].cancel();
    q.clear();

    // The slab is retained (no shrink) but everything is free again.
    EXPECT_EQ(q.slot_count(), 32u);
    EXPECT_EQ(q.size(), 0u);
    for (auto& h : handles) EXPECT_FALSE(h.pending());

    int fired = 0;
    for (int i = 0; i < 32; ++i) q.push(at(i), [&fired] { ++fired; });
    EXPECT_EQ(q.slot_count(), 32u) << "clear() must rebuild the freelist, not leak slots";
    while (!q.empty()) q.pop_and_run();
    EXPECT_EQ(fired, 32);
}

TEST(EventQueueStress, RescheduleFromRunningActionReusesOwnSlot) {
    // The steady-state DES shape: the running action pushes its successor.
    // With a single chain the queue must never grow past one slot.
    sim::EventQueue q;
    struct Chain {
        sim::EventQueue* q;
        int* remaining;
        std::int64_t t = 0;
        void operator()() {
            if (--*remaining <= 0) return;
            q->push(at(++t), Chain{*this});
        }
    };
    int remaining = 10'000;
    q.push(at(0), Chain{&q, &remaining});
    while (!q.empty()) q.pop_and_run();
    EXPECT_EQ(remaining, 0);
    EXPECT_EQ(q.slot_count(), 1u) << "self-rescheduling must recycle the slot just freed";
}

TEST(EventQueueStress, CrossWindowAndFarFutureOrdering) {
    // Times spanning every timing-wheel level — same level-0 bucket,
    // adjacent buckets, window-crossing carries (the 0x1FFFF -> 0x25000
    // shape), multi-level jumps, and top-level (level 4) entries around
    // 2^48 and 2^49 ns.  The pops must come out in exact (time, push-order)
    // sequence.  OverflowListMatchesReferenceModel covers times past the
    // wheel's 2^50 ns span.
    const std::int64_t times[] = {
        0x1FFFF,        0x25000,         5,   5, 0x100, 0xFF, 0x10000,  0x123456,
        0x1'0000'0000,  0x30000,         1,   (std::int64_t{1} << 49),  0x123457,
        (std::int64_t{1} << 49) + 1,     0,   0x2FFFF, 300,   0xFFFF,
        (std::int64_t{1} << 48) - 1,     (std::int64_t{1} << 48)};
    ModelledQueue m;
    for (const std::int64_t t : times) m.push(t);
    m.drain_and_check();
}

TEST(EventQueueStress, PeekThenEarlierPushStillPopsInTimeOrder) {
    // Simulator::run peeks next_time() before the loop body; code outside
    // the loop can then push an EARLIER event (chunked run() + re-armed
    // timeouts do exactly this).  The peek advances the wheel cursor, so
    // the earlier event must merge ahead of the staged one.
    sim::EventQueue q;
    std::vector<int> fired;
    q.push(at(1'000), [&fired] { fired.push_back(1); });
    EXPECT_EQ(q.next_time(), at(1'000));
    q.push(at(10), [&fired] { fired.push_back(0); });
    q.push(at(500), [&fired] { fired.push_back(2); });  // between the two
    EXPECT_EQ(q.next_time(), at(10));
    q.pop_and_run();
    q.pop_and_run();
    q.pop_and_run();
    EXPECT_EQ(fired, (std::vector<int>{0, 2, 1}));
}

}  // namespace
