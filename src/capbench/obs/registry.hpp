// Counter registry for the observability layer (ISSUE 5 tentpole, part 3).
//
// Components that want run-level counters — the packet generator, each
// machine's scheduler, the capture stacks — ask the run's Registry for a
// named Counter at SETUP time and keep the returned pointer; the hot path
// then increments through the pointer with a single null check when
// observability is disabled.  Counters are insertion-ordered, so the
// snapshot that lands in the capbench.metrics.v1 document is byte-stable
// across runs and `--jobs` values.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace capbench::obs {

/// A monotonically increasing 64-bit counter.  Address-stable for the
/// registry's lifetime (components cache `Counter*`).
class Counter {
public:
    void inc(std::uint64_t delta = 1) { value_ += delta; }
    [[nodiscard]] std::uint64_t value() const { return value_; }

private:
    std::uint64_t value_ = 0;
};

/// Get-or-create registry of named counters.  One per measurement run
/// (never shared across sweep points), so no synchronization is needed and
/// parallel sweeps stay bit-identical.
class Registry {
public:
    /// Returns the counter registered under `name`, creating it on first
    /// use.  The reference stays valid for the registry's lifetime.
    Counter& counter(const std::string& name);

    [[nodiscard]] std::size_t size() const { return order_.size(); }

    /// (name, value) pairs in registration order.
    [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> snapshot() const;

private:
    std::deque<Counter> counters_;  // deque: stable addresses on growth
    std::vector<std::pair<std::string, Counter*>> order_;
    std::map<std::string, Counter*, std::less<>> index_;
};

}  // namespace capbench::obs
