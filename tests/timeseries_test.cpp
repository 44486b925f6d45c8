// Interval time-series telemetry tests (ISSUE 10): Series storage, the
// conservation invariant and its per-column rejection, overload-episode
// alignment with the square-wave workload, and byte-identity of the
// rendered document across job counts and BPF execution tiers.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "capbench/harness/experiment.hpp"
#include "capbench/harness/measurement.hpp"
#include "capbench/obs/timeseries.hpp"
#include "capbench/report/json.hpp"
#include "capbench/report/metrics_writer.hpp"
#include "capbench/report/timeseries_writer.hpp"
#include "capbench/scenario/runner.hpp"

namespace capbench {
namespace {

class ScopedEnv {
public:
    ScopedEnv(std::string name, const char* value) : name_(std::move(name)) {
        if (const char* old = std::getenv(name_.c_str())) {
            had_old_ = true;
            old_ = old;
        }
        if (value == nullptr)
            ::unsetenv(name_.c_str());
        else
            ::setenv(name_.c_str(), value, 1);
    }
    ~ScopedEnv() {
        if (had_old_)
            ::setenv(name_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }
    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;

private:
    std::string name_;
    bool had_old_ = false;
    std::string old_;
};

// ---- Series storage -----------------------------------------------------------

TEST(TimeseriesSeries, PushAtSumMaxAcrossChunks) {
    obs::Series s;
    const std::size_t n = obs::Series::kChunkValues * 2 + 5;
    std::int64_t expect_sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
        s.push(static_cast<std::int64_t>(i) - 3);  // negatives allowed (drain)
        expect_sum += static_cast<std::int64_t>(i) - 3;
    }
    EXPECT_EQ(s.size(), n);
    EXPECT_EQ(s.chunk_count(), 3u);
    EXPECT_EQ(s.at(0), -3);
    EXPECT_EQ(s.at(obs::Series::kChunkValues), static_cast<std::int64_t>(obs::Series::kChunkValues) - 3);
    EXPECT_EQ(s.at(n - 1), static_cast<std::int64_t>(n) - 4);
    EXPECT_EQ(s.sum(), expect_sum);
    EXPECT_EQ(s.max(), static_cast<std::int64_t>(n) - 4);
}

TEST(TimeseriesSeries, EmptySeriesSumsAndMaxesToZero) {
    const obs::Series s;
    EXPECT_EQ(s.size(), 0u);
    EXPECT_EQ(s.chunk_count(), 0u);
    EXPECT_EQ(s.sum(), 0);
    EXPECT_EQ(s.max(), 0);
}

// ---- measurement-cycle integration --------------------------------------------

/// An overloaded square-wave run on the weakest sniffer: the bursts
/// guarantee drops, the base rate guarantees recovery between them.
harness::RunConfig pulse_run(obs::TimeSeries* ts) {
    harness::RunConfig cfg;
    cfg.packets = 12'000;
    cfg.rate_mbps = 150.0;
    cfg.burst_period = sim::milliseconds(20);
    cfg.burst_duration = sim::milliseconds(5);
    cfg.burst_multiplier = 10.0;
    cfg.sample_interval = sim::microseconds(500);
    cfg.timeseries = ts;
    cfg.collect_metrics = true;
    return cfg;
}

TEST(Timeseries, SinkWithoutIntervalThrows) {
    obs::TimeSeries ts;
    harness::RunConfig cfg = pulse_run(&ts);
    cfg.sample_interval = sim::Duration::zero();
    EXPECT_THROW(harness::run_once({harness::standard_sut("swan")}, cfg),
                 std::invalid_argument);
}

TEST(Timeseries, IntervalWithoutSinkIsInert) {
    harness::RunConfig cfg = pulse_run(nullptr);
    const auto result = harness::run_once({harness::standard_sut("swan")}, cfg);
    EXPECT_GT(result.generated, 0u);
}

TEST(Timeseries, ConservationHoldsOnADroppingRun) {
    obs::TimeSeries ts;
    const auto result =
        harness::run_once({harness::standard_sut("swan")}, pulse_run(&ts));
    // finalize_against ran inside run_once and did not throw: every delta
    // column telescoped exactly.  Re-check the headline sums here.
    ASSERT_TRUE(ts.finalized);
    EXPECT_EQ(ts.generated_total, result.generated);
    EXPECT_EQ(static_cast<std::uint64_t>(ts.generated.sum()), result.generated);
    ASSERT_EQ(ts.suts.size(), 1u);
    const obs::SutSeries& s = ts.suts[0];
    ASSERT_EQ(s.apps.size(), 1u);
    const obs::DropLedger& totals = ts.totals[0].apps[0];
    // nic_ring and backlog are mirrored per app, so the 7-bucket app sum
    // IS the whole identity.
    EXPECT_EQ(totals.delivered + totals.drops_total(), result.generated);
    EXPECT_EQ(static_cast<std::uint64_t>(s.apps[0].delivered.sum()), totals.delivered);
    // The run must actually have dropped somewhere for this test to bite.
    EXPECT_GT(totals.drops_total(), 0u);
    // One classification value per sample, all within the enum.
    EXPECT_EQ(s.classification.size(), ts.sample_count());
    for (std::size_t k = 0; k < s.classification.size(); ++k) {
        EXPECT_GE(s.classification.at(k), 0);
        EXPECT_LE(s.classification.at(k), 2);
    }

    // The rendered document carries the same identities: one delta per
    // sample in every counter, each summing to its total, and (one app)
    // delivered + the SUT and app drop buckets == generated.
    const auto doc = report::parse_json(
        report::TimeseriesWriter::serialize(report::TimeseriesWriter::document(ts, "pulse")));
    EXPECT_EQ(doc.at("schema").as_string(), "capbench.timeseries.v1");
    const std::int64_t samples = doc.at("samples").as_int();
    EXPECT_GT(samples, 0);
    EXPECT_EQ(static_cast<std::int64_t>(doc.at("time_ns").as_array().size()), samples);
    const auto check = [&](const report::JsonValue& counter, const std::string& path) {
        const auto& deltas = counter.at("deltas").as_array();
        EXPECT_EQ(static_cast<std::int64_t>(deltas.size()), samples) << path;
        std::int64_t sum = 0;
        for (const auto& d : deltas) sum += d.as_int();
        EXPECT_EQ(sum, counter.at("total").as_int()) << path;
        return counter.at("total").as_int();
    };
    const std::int64_t generated = check(doc.at("generated"), "generated");
    for (const auto& sut : doc.at("suts").as_array()) {
        std::int64_t accounted = 0;
        for (const auto& [name, counter] : sut.at("drops").as_object())
            accounted += check(counter, name);
        const auto& apps = sut.at("apps").as_array();
        ASSERT_EQ(apps.size(), 1u);
        accounted += check(apps[0].at("delivered"), "delivered");
        for (const auto& [name, counter] : apps[0].at("drops").as_object())
            accounted += check(counter, name);
        EXPECT_EQ(accounted, generated);
        EXPECT_EQ(static_cast<std::int64_t>(sut.at("classification").as_array().size()),
                  samples);
    }
}

TEST(Timeseries, EpisodesAlignWithTheBursts) {
    obs::TimeSeries ts;
    harness::RunConfig cfg = pulse_run(&ts);
    harness::run_once({harness::standard_sut("swan")}, cfg);
    const obs::SutSeries& s = ts.suts[0];
    ASSERT_GE(s.episodes.size(), 2u) << "square wave should cause repeated episodes";
    const std::int64_t period = cfg.burst_period.ns();
    const std::int64_t duration = cfg.burst_duration.ns();
    const std::int64_t warmup = cfg.warmup.ns();  // generation (burst phase 0) start
    for (const obs::OverloadEpisode& ep : s.episodes) {
        EXPECT_GT(ep.intervals, 0u);
        EXPECT_GT(ep.dropped, 0u);
        EXPECT_LE(ep.start_ns, ep.end_ns);
        EXPECT_STRNE(ep.dominant_site, "");
        // The episode must start inside a burst window (generous slack:
        // one interval early for the open-boundary sample, 2 ms late for
        // queues that overflow while draining the burst).
        const std::int64_t phase = ((ep.start_ns - warmup) % period + period) % period;
        const bool in_burst = phase <= duration + sim::milliseconds(2).ns() ||
                              phase >= period - cfg.sample_interval.ns();
        EXPECT_TRUE(in_burst) << "episode start " << ep.start_ns << " phase " << phase;
    }
    // The metrics suite document carries the episodes too.
    const auto suite = report::parse_json(
        report::MetricsWriter::serialize(report::MetricsWriter::suite({}, &ts)));
    EXPECT_EQ(suite.at("overload_episodes").as_array().size(), s.episodes.size());
}

TEST(Timeseries, SamplingDoesNotPerturbTheRun) {
    obs::TimeSeries ts;
    const auto sampled =
        harness::run_once({harness::standard_sut("swan")}, pulse_run(&ts));
    harness::RunConfig plain = pulse_run(nullptr);
    plain.sample_interval = sim::Duration::zero();
    const auto bare = harness::run_once({harness::standard_sut("swan")}, plain);
    ASSERT_EQ(sampled.suts.size(), bare.suts.size());
    EXPECT_EQ(sampled.generated, bare.generated);
    for (std::size_t i = 0; i < sampled.suts.size(); ++i) {
        EXPECT_DOUBLE_EQ(sampled.suts[i].capture_avg_pct, bare.suts[i].capture_avg_pct);
        EXPECT_EQ(sampled.suts[i].nic_ring_drops, bare.suts[i].nic_ring_drops);
        EXPECT_EQ(sampled.suts[i].buffer_drops, bare.suts[i].buffer_drops);
    }
}

TEST(Timeseries, RunRepeatedSamplesRepZeroOnly) {
    obs::TimeSeries ts;
    harness::RunConfig cfg = pulse_run(&ts);
    cfg.packets = 4'000;
    harness::run_repeated({harness::standard_sut("swan")}, cfg, 2);
    // One run's worth of samples, finalized against rep 0's metrics.
    EXPECT_TRUE(ts.finalized);
    EXPECT_GT(ts.sample_count(), 0u);
    EXPECT_EQ(static_cast<std::uint64_t>(ts.generated.sum()), ts.generated_total);
}

// ---- conservation rejection -----------------------------------------------------

/// finalize_against must reject a delta column that does not telescope to
/// its aggregate, for every column of the ledger: `delivered` and each
/// kDropSites bucket.
class BrokenColumn : public ::testing::TestWithParam<std::string> {};

std::vector<std::string> ledger_columns() {
    std::vector<std::string> names{"delivered"};
    for (const obs::DropSite& site : obs::kDropSites) names.emplace_back(site.name);
    return names;
}

TEST_P(BrokenColumn, FinalizeAgainstRejectsItNamingTheSite) {
    const std::string& broken = GetParam();
    // One SUT, one app, two intervals; every bucket holds a distinct total.
    obs::RunMetrics metrics;
    metrics.enabled = true;
    metrics.suts.resize(1);
    metrics.suts[0].apps.resize(1);
    obs::AppMetrics& app = metrics.suts[0].apps[0];
    app.delivered = 100;
    for (std::size_t d = 0; d < obs::kDropSites.size(); ++d)
        app.*obs::kDropSites[d].member = 10 + d;
    metrics.generated = app.delivered + app.drops_total();

    // Columns that telescope to the totals, except `perturb` whose second
    // interval is one off.
    const auto build = [&](const std::string& perturb) {
        obs::TimeSeries ts;
        ts.suts.resize(1);
        obs::SutSeries& s = ts.suts[0];
        s.apps.resize(1);
        const auto fill = [&](obs::Series& column, std::uint64_t total, const std::string& name) {
            const auto half = static_cast<std::int64_t>(total / 2);
            column.push(half);
            column.push(static_cast<std::int64_t>(total) - half + (name == perturb ? 1 : 0));
        };
        fill(ts.generated, metrics.generated, "generated");
        fill(s.apps[0].delivered, app.delivered, "delivered");
        for (std::size_t d = 0; d < obs::kDropSites.size(); ++d) {
            const obs::DropSite& site = obs::kDropSites[d];
            obs::Series& column =
                site.scope == obs::DropScope::kSut ? s.drops[d] : s.apps[0].drops[d];
            fill(column, app.*site.member, site.name);
        }
        return ts;
    };

    obs::TimeSeries intact = build("");
    EXPECT_NO_THROW(intact.finalize_against(metrics));
    EXPECT_TRUE(intact.finalized);

    obs::TimeSeries ts = build(broken);
    try {
        ts.finalize_against(metrics);
        FAIL() << "a broken " << broken << " column was accepted";
    } catch (const std::logic_error& e) {
        EXPECT_NE(std::string(e.what()).find("Σ" + broken + " deltas"), std::string::npos)
            << e.what();
    }
    EXPECT_FALSE(ts.finalized);
}

INSTANTIATE_TEST_SUITE_P(EveryLedgerColumn, BrokenColumn, ::testing::ValuesIn(ledger_columns()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                             return info.param;
                         });

// ---- document rendering -------------------------------------------------------

TEST(TimeseriesDoc, WriterRequiresFinalizedSeries) {
    const obs::TimeSeries ts;
    EXPECT_THROW((void)report::TimeseriesWriter::document(ts, "x"), std::logic_error);
}

TEST(TimeseriesDoc, ByteIdenticalAcrossBpfTiers) {
    const auto render_tier = [](const char* tier) {
        const ScopedEnv env{"CAPBENCH_BPF_TIER", tier};
        obs::TimeSeries ts;
        harness::RunConfig cfg = pulse_run(&ts);
        cfg.packets = 4'000;
        harness::SutConfig sut = harness::standard_sut("swan");
        sut.filter_expression = "udp";  // give the tiers a program to run
        harness::run_once({sut}, cfg);
        return report::TimeseriesWriter::serialize(
            report::TimeseriesWriter::document(ts, "pulse"));
    };
    const std::string interp = render_tier("interpreter");
    EXPECT_EQ(interp, render_tier("threaded"));
    EXPECT_EQ(interp, render_tier("jit"));
}

TEST(TimeseriesDoc, ByteIdenticalAcrossJobsViaTheScenarioRunner) {
    const auto render_jobs = [](int jobs) {
        const scenario::Scenario* s = scenario::find_scenario("ext_overload_pulse");
        EXPECT_NE(s, nullptr);
        obs::TimeSeries ts;
        scenario::RunOptions opts;
        opts.jobs = jobs;
        opts.packets = 4'000;
        opts.reps = 1;
        opts.gnuplot_env_fallback = false;
        opts.timeseries = &ts;
        opts.sample_interval = sim::microseconds(500);
        scenario::run_scenario(*s, opts);
        return report::TimeseriesWriter::serialize(
            report::TimeseriesWriter::document(ts, s->id));
    };
    EXPECT_EQ(render_jobs(1), render_jobs(4));
}

}  // namespace
}  // namespace capbench
