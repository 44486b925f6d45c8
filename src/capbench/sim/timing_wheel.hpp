// Hierarchical timing wheel (Varghese/Lauck) — the O(1) priority structure
// behind the event queue.
//
// The wheel orders externally-owned ids (the event queue's slab slot
// indices) by the exact (time, sequence) key, so simultaneous events pop in
// push order and runs are deterministic.  Five levels of 1024 buckets cover
// 2^50 ns (~13 simulated days) of absolute time; events whose tick falls
// outside the cursor's top-level block live on a far-future overflow list
// that is re-ingested when the wheels drain.
//
// Zero steady-state allocation: per-id link/key state lives in a vector
// indexed by id (grown alongside the event queue's slab, never per event)
// and buckets are intrusive doubly-linked lists threaded through that
// state.  Lists are tail-appended so they stay in push-seq order, which
// lets staging splice a level-0 bucket into the ready list without
// sorting.  Erase (cancellation) is an O(1) unlink — the wheel leaves no
// tombstones behind.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "capbench/sim/time.hpp"

namespace capbench::sim {

class TimingWheel {
public:
    TimingWheel();

    /// Inserts `id` with ordering key (time, seq).  `id` must not already
    /// be inserted; the per-id state grows to cover it.
    void insert(std::uint32_t id, SimTime time, std::uint64_t seq);

    /// Removes `id` (which must currently be inserted) in O(1).
    void erase(std::uint32_t id);

    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::size_t size() const { return size_; }

    // The peek/pop fast paths are inline: once the ready list is staged
    // they are a couple of loads, and they run once per simulated event.

    /// Time of the earliest entry.  Requires !empty().
    [[nodiscard]] SimTime min_time() {
        if (ready_head_ == kNil) stage();
        return nodes_[ready_head_].time;
    }

    /// Removes and returns the id with the smallest (time, seq) key.
    /// Requires !empty().
    std::uint32_t pop_min() {
        if (ready_head_ == kNil) stage();
        return pop_staged_head();
    }

    /// As pop_min(), also reporting the popped entry's time — one staging
    /// pass instead of the min_time()+pop_min() pair.
    std::uint32_t pop_min(SimTime& time) {
        if (ready_head_ == kNil) stage();
        time = nodes_[ready_head_].time;
        return pop_staged_head();
    }

    /// Drops every entry and rewinds the cursor; keeps capacity.
    void clear();

private:
    // 1024-tick level-0 blocks keep the typical short-horizon event (a few
    // hundred ns out) in level 0 directly, so cascades are rare; five
    // levels still cover 2^50 ns.
    static constexpr int kLevelBits = 10;
    static constexpr int kLevels = 5;
    static constexpr std::uint32_t kBucketsPerLevel = 1u << kLevelBits;
    static constexpr std::uint32_t kBucketMask = kBucketsPerLevel - 1;
    static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
    // `home` says which list an id is on: a wheel bucket (level *
    // kBucketsPerLevel + bucket index) or one of the sentinels below.
    static constexpr std::uint32_t kHomeNone = 0xFFFFFFFFu;
    static constexpr std::uint32_t kHomeReady = 0xFFFFFFFEu;
    static constexpr std::uint32_t kHomeOverflow = 0xFFFFFFFDu;

    struct Node {
        SimTime time{};
        std::uint64_t seq = 0;
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
        std::uint32_t home = kHomeNone;
    };

    [[nodiscard]] static std::uint64_t tick_of(SimTime t);
    [[nodiscard]] bool key_less(std::uint32_t a, std::uint32_t b) const;

    void place(std::uint32_t id);
    void bucket_push(int level, std::uint32_t bucket, std::uint32_t id);
    void ready_insert_sorted(std::uint32_t id);

    std::uint32_t pop_staged_head() {
        const std::uint32_t id = ready_head_;
        Node& n = nodes_[id];
        ready_head_ = n.next;
        if (ready_head_ != kNil)
            nodes_[ready_head_].prev = kNil;
        else
            ready_tail_ = kNil;
        n.next = kNil;
        n.home = kHomeNone;
        --ready_count_;
        --size_;
        return id;
    }

    /// Ensures the ready list is non-empty: advances the cursor to the
    /// earliest occupied bucket, cascading higher levels down and
    /// re-ingesting the overflow list when the wheels drain.
    void stage();
    void stage_level0_bucket(std::uint32_t bucket);
    void cascade(int level, std::uint32_t bucket);
    void reingest_overflow();

    /// Index of the first occupied bucket >= `from` at `level`, or -1.
    [[nodiscard]] int scan_occupied(int level, std::uint32_t from) const;

    // Bucket lists are appended at the tail so every list stays in push-seq
    // order by construction (see stage_level0_bucket).  Head and tail share
    // a cache line: a bucket touch is one line, not two distant arrays.
    struct BucketList {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };

    std::vector<Node> nodes_;
    std::array<BucketList, kLevels * kBucketsPerLevel> buckets_{};
    std::array<std::array<std::uint64_t, kBucketsPerLevel / 64>, kLevels> occupied_{};
    std::uint32_t ready_head_ = kNil;
    std::uint32_t ready_tail_ = kNil;
    std::uint32_t overflow_head_ = kNil;
    std::uint32_t overflow_tail_ = kNil;
    std::uint64_t cur_tick_ = 0;
    std::size_t size_ = 0;
    std::size_t ready_count_ = 0;
    std::size_t overflow_count_ = 0;
};

}  // namespace capbench::sim
