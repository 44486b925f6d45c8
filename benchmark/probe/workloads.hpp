// The benchmark's three fixed workloads, expressed as scenario
// descriptors so every one of them runs through scenario::run_scenario
// exactly like a registered figure.  Only the seed varies between runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "capbench/harness/measurement.hpp"
#include "capbench/scenario/runner.hpp"

namespace probe {

/// One sweep point as run_scenario would execute it.
struct Point {
    std::string variant;  // the variant suffix, "" for single-variant workloads
    double x = 0.0;       // offered rate [Mbit/s]
    std::vector<capbench::harness::SutConfig> suts;
    capbench::harness::RunConfig config;
};

struct Workload {
    std::string name;
    capbench::scenario::Scenario scenario;
    std::uint64_t packets = 0;  // generated packets per sweep point

    /// One sweep worker, one rep, no text or gnuplot output.
    [[nodiscard]] capbench::scenario::RunOptions options(std::uint64_t seed,
                                                         bool metrics) const;
    /// Every sweep point in run_scenario order (variants, then x).
    [[nodiscard]] std::vector<Point> points(std::uint64_t seed) const;
};

/// Throws std::invalid_argument for an unknown name.
const Workload& find_workload(const std::string& name);

/// The testbed run_once builds for `p` (same generator, link and SUT set).
capbench::harness::TestbedConfig testbed_config(const Point& p);

}  // namespace probe
