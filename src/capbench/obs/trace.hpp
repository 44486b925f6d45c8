// Timeline trace sink (ISSUE 5 tentpole, part 2).
//
// Records CPU slices, IRQ instants and buffer-occupancy counters as a flat
// stream of POD events in slab-allocated chunks, then serializes them as
// Chrome trace-event JSON ("Trace Event Format") that loads directly in
// Perfetto / chrome://tracing.  All timestamps are sim-time nanoseconds;
// the writer converts to the format's microsecond unit with an exact
// decimal rendering (no floating point), so output is byte-stable across
// platforms and `--jobs` values.
//
// Event names and categories are interned `const char*`s: hot-path
// emitters pass string literals (or a pointer previously returned by
// `intern()`), so recording an event never allocates once the current
// chunk has room.  Chunk growth is the ONLY steady-state allocation the
// enabled-tracing alloc-guard budget has to cover.
#pragma once

#include "capbench/sim/time.hpp"

#include <array>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace capbench::obs {

/// Well-known trace "thread" ids within a SUT process.  Real app threads
/// get ids from kThreadTidBase upward in spawn order.
inline constexpr int kKernelTid = 64;   // serialized kernel work (CPU 0)
inline constexpr int kNicTid = 96;      // NIC / IRQ lane
inline constexpr int kSamplerTid = 112; // interval time-series counter lane
inline constexpr int kThreadTidBase = 128;

struct TraceEvent {
    enum class Phase : std::uint8_t {
        kComplete,  // "X": a duration slice [ts, ts+dur)
        kInstant,   // "i": a point event (thread scope)
        kCounter,   // "C": a sampled counter value
    };

    Phase phase;
    std::int32_t pid;
    std::int32_t tid;
    const char* name;  // interned; never null
    const char* cat;   // interned; may be null (omitted)
    std::int64_t ts_ns;
    std::int64_t dur_ns;       // kComplete only
    std::int64_t value;        // kCounter only
};

/// Append-only trace recorder.  Not thread-safe: a TraceSink belongs to
/// exactly one measurement run (the scenario runner hands it to a single
/// sweep point), matching the simulator's single-threaded event loop.
class TraceSink {
public:
    static constexpr std::size_t kChunkEvents = 4096;

    TraceSink();

    /// Interns `s` and returns a stable pointer usable as an event
    /// name/category for the sink's lifetime.  Call at setup time, not on
    /// the hot path.
    const char* intern(std::string_view s);

    // -- emitters (hot path; no allocation unless a chunk fills) ---------
    void complete(int pid, int tid, const char* name, const char* cat,
                  sim::SimTime start, sim::SimTime end) {
        TraceEvent& e = push();
        e.phase = TraceEvent::Phase::kComplete;
        e.pid = pid;
        e.tid = tid;
        e.name = name;
        e.cat = cat;
        e.ts_ns = start.ns();
        e.dur_ns = end.ns() - start.ns();
        e.value = 0;
    }

    void instant(int pid, int tid, const char* name, const char* cat,
                 sim::SimTime at) {
        TraceEvent& e = push();
        e.phase = TraceEvent::Phase::kInstant;
        e.pid = pid;
        e.tid = tid;
        e.name = name;
        e.cat = cat;
        e.ts_ns = at.ns();
        e.dur_ns = 0;
        e.value = 0;
    }

    void counter(int pid, int tid, const char* name, sim::SimTime at,
                 std::int64_t value) {
        TraceEvent& e = push();
        e.phase = TraceEvent::Phase::kCounter;
        e.pid = pid;
        e.tid = tid;
        e.name = name;
        e.cat = nullptr;
        e.ts_ns = at.ns();
        e.dur_ns = 0;
        e.value = value;
    }

    // -- metadata (setup time) -------------------------------------------
    void set_process_name(int pid, std::string_view name);
    void set_thread_name(int pid, int tid, std::string_view name);

    // -- introspection / output ------------------------------------------
    [[nodiscard]] std::size_t event_count() const { return count_; }
    [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }

    /// Visits every recorded event in emission order.
    template <typename Fn>
    void for_each(Fn&& fn) const {
        std::size_t remaining = count_;
        for (const auto& chunk : chunks_) {
            const std::size_t n = remaining < kChunkEvents ? remaining : kChunkEvents;
            for (std::size_t i = 0; i < n; ++i) fn((*chunk)[i]);
            remaining -= n;
        }
    }

    /// Writes `{"traceEvents": [...], "displayTimeUnit": "ms"}`.
    /// Streaming: never materializes the document in memory.
    void write_chrome_json(std::ostream& os) const;

private:
    struct Meta {
        int pid;
        int tid;         // -1 for process metadata
        std::string what;  // "process_name" | "thread_name"
        std::string name;
    };

    TraceEvent& push() {
        if (used_ == kChunkEvents) grow();
        ++count_;
        return (*chunks_.back())[used_++];
    }

    void grow();

    using Chunk = std::array<TraceEvent, kChunkEvents>;
    std::vector<std::unique_ptr<Chunk>> chunks_;
    std::size_t used_ = kChunkEvents;  // forces grow() on first push
    std::size_t count_ = 0;

    std::deque<std::string> strings_;
    std::map<std::string, const char*, std::less<>> interned_;
    std::vector<Meta> metadata_;
};

}  // namespace capbench::obs
