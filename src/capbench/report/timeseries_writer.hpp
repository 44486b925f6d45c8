// capbench.timeseries.v1: the JSON rendering of a run's interval
// telemetry (obs/timeseries.hpp), emitted by `capbench_figures
// --timeseries=<file>`.  One document per run: raw delta/gauge columns,
// the frozen aggregates they telescope to (so consumers can re-check the
// conservation invariant offline), the per-interval classification and
// the coalesced overload episodes.  Byte-stable across `--jobs` values
// like every capbench report.
#pragma once

#include <string>

#include "capbench/obs/timeseries.hpp"
#include "capbench/report/json.hpp"

namespace capbench::report {

class TimeseriesWriter {
public:
    /// Schema identifier of a time-series document.
    static constexpr const char* kSchema = "capbench.timeseries.v1";

    /// The whole document.  The TimeSeries must be finalized
    /// (finalize_against) so the totals blocks are populated; throws
    /// std::logic_error otherwise.
    [[nodiscard]] static JsonValue document(const obs::TimeSeries& ts, const std::string& id);

    /// Pretty serialization (2-space indent, trailing newline).
    [[nodiscard]] static std::string serialize(const JsonValue& v);
};

/// Gnuplot export: writes <dir>/<id>_timeseries.dat (integer columns:
/// time plus per-SUT ring/buffer occupancy, delivered and overload-loss
/// deltas) and <dir>/<id>_timeseries.gp, a two-panel multiplot script —
/// occupancy-vs-time on top, interval rates below.
void write_timeseries_gnuplot(const std::string& dir, const std::string& id,
                              const obs::TimeSeries& ts);

}  // namespace capbench::report
