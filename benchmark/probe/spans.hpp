// In-memory span recorder for the traced run: each span has a name, host
// start/end (steady_clock ns since the recorder was created), its parent
// span and a unit count (packets, runs, records...) that per-unit metrics
// divide by.  Spans are written out once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace probe {

struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  // index into Tracer::spans(), -1 for a root span
    std::uint64_t units = 1;
};

inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

class Tracer {
public:
    /// Opens a span under the innermost open one; closes when it leaves scope.
    class Scope {
    public:
        Scope(Tracer& tracer, std::string name, std::uint64_t units = 1)
            : tracer_(&tracer), index_(tracer.open(std::move(name), units)) {}
        ~Scope() { tracer_->close(index_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

        /// Sets the unit count once it is known (e.g. packets generated).
        void set_units(std::uint64_t units) { tracer_->spans_[index_].units = units; }

    private:
        Tracer* tracer_;
        int index_;
    };

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

private:
    int open(std::string name, std::uint64_t units) {
        spans_.push_back(Span{std::move(name), now_ns() - origin_, 0, open_, units});
        open_ = static_cast<int>(spans_.size()) - 1;
        return open_;
    }
    void close(int index) {
        spans_[index].end_ns = now_ns() - origin_;
        open_ = spans_[index].parent;
    }

    std::int64_t origin_ = now_ns();
    std::vector<Span> spans_;
    int open_ = -1;
};

}  // namespace probe
