// capbench.metrics.v1: the observability companion document to the
// scenario JSON.  Emitted when a run collects lifecycle metrics
// (`capbench_figures --metrics=<file>`); one document per scenario, with
// per-sweep-point drop attribution, latency summaries, cpusage/trimusage
// results and the counter-registry snapshot.  Like every capbench report
// it is byte-stable across `--jobs` values.
#pragma once

#include <string>
#include <vector>

#include "capbench/obs/metrics.hpp"
#include "capbench/obs/timeseries.hpp"
#include "capbench/report/json.hpp"
#include "capbench/scenario/scenario.hpp"
#include "capbench/sim/stats.hpp"

namespace capbench::report {

class MetricsWriter {
public:
    /// Schema identifier of a single scenario metrics document.
    static constexpr const char* kSchema = "capbench.metrics.v1";
    /// Schema identifier of the multi-scenario suite (--metrics output).
    static constexpr const char* kSuiteSchema = "capbench.metrics-suite.v1";

    /// {count,min,max,mean,p50,p95,p99} of a sample set (all 0 when empty).
    [[nodiscard]] static JsonValue summary(const sim::SampleSet::Summary& s);
    /// One capture app: delivered, drop buckets, latency summaries.
    [[nodiscard]] static JsonValue app(const obs::AppMetrics& a);
    /// One SUT: offered/drops, NIC latency, cpusage + in-process trimusage.
    [[nodiscard]] static JsonValue sut(const obs::SutMetrics& s);
    /// One sweep point's RunMetrics (plus its x value).
    [[nodiscard]] static JsonValue point(double x, const obs::RunMetrics& m);
    /// The whole per-scenario metrics document.  Custom (table-only)
    /// scenarios and scenarios without collected metrics yield points: [].
    [[nodiscard]] static JsonValue document(const scenario::ScenarioResult& r);
    /// Wraps per-scenario documents into a suite document.  With a
    /// non-null finalized TimeSeries the suite also carries an
    /// "overload_episodes" block (the detector's coalesced dropping runs
    /// of the designated sampled run).
    [[nodiscard]] static JsonValue suite(std::vector<JsonValue> documents,
                                         const obs::TimeSeries* timeseries = nullptr);

    /// Pretty serialization (2-space indent, trailing newline).
    [[nodiscard]] static std::string serialize(const JsonValue& v);
};

}  // namespace capbench::report
