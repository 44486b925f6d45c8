// Tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <vector>

#include "capbench/sim/event_queue.hpp"
#include "capbench/sim/random.hpp"
#include "capbench/sim/simulator.hpp"
#include "capbench/sim/stats.hpp"
#include "capbench/sim/time.hpp"

namespace capbench::sim {
namespace {

TEST(SimTime, ArithmeticAndComparison) {
    const SimTime t{1'000};
    const Duration d{500};
    EXPECT_EQ((t + d).ns(), 1'500);
    EXPECT_EQ((t - d).ns(), 500);
    EXPECT_EQ(((t + d) - t).ns(), 500);
    EXPECT_LT(t, t + d);
    EXPECT_EQ(SimTime{}.ns(), 0);
}

TEST(Duration, FactoriesConvert) {
    EXPECT_EQ(microseconds(3).ns(), 3'000);
    EXPECT_EQ(milliseconds(2).ns(), 2'000'000);
    EXPECT_EQ(seconds(1).ns(), 1'000'000'000);
    EXPECT_EQ(from_seconds(0.5).ns(), 500'000'000);
    EXPECT_EQ(from_seconds(1e-9).ns(), 1);
}

TEST(Duration, ArithmeticOperators) {
    EXPECT_EQ((Duration{10} + Duration{5}).ns(), 15);
    EXPECT_EQ((Duration{10} - Duration{5}).ns(), 5);
    EXPECT_EQ((Duration{10} * 3).ns(), 30);
    EXPECT_EQ((Duration{10} / 2).ns(), 5);
    Duration d{1};
    d += Duration{2};
    EXPECT_EQ(d.ns(), 3);
}

TEST(EventQueue, RunsInTimeOrder) {
    EventQueue q;
    std::vector<int> order;
    q.push(SimTime{30}, [&] { order.push_back(3); });
    q.push(SimTime{10}, [&] { order.push_back(1); });
    q.push(SimTime{20}, [&] { order.push_back(2); });
    while (!q.empty()) q.pop_and_run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsRunInInsertionOrder) {
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) q.push(SimTime{100}, [&order, i] { order.push_back(i); });
    while (!q.empty()) q.pop_and_run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelledEventDoesNotRun) {
    EventQueue q;
    bool ran = false;
    auto handle = q.push(SimTime{10}, [&] { ran = true; });
    handle.cancel();
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelIsIdempotentAndSafeAfterRun) {
    EventQueue q;
    auto handle = q.push(SimTime{10}, [] {});
    q.pop_and_run();
    handle.cancel();  // must not crash
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PendingReflectsLifecycle) {
    EventQueue q;
    auto handle = q.push(SimTime{10}, [] {});
    EXPECT_TRUE(handle.pending());
    q.pop_and_run();
    EXPECT_FALSE(handle.pending());
}

TEST(EventQueue, PopOnEmptyThrows) {
    EventQueue q;
    EXPECT_THROW(q.pop_and_run(), std::logic_error);
    EXPECT_THROW((void)q.next_time(), std::logic_error);
}

TEST(EventQueue, EventCanScheduleMoreEvents) {
    EventQueue q;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 5) q.push(SimTime{count * 10}, chain);
    };
    q.push(SimTime{0}, chain);
    while (!q.empty()) q.pop_and_run();
    EXPECT_EQ(count, 5);
}

TEST(Simulator, AdvancesClockAndStopsAtLimit) {
    Simulator sim;
    int fired = 0;
    sim.schedule_in(Duration{100}, [&] { ++fired; });
    sim.schedule_in(Duration{200}, [&] { ++fired; });
    sim.schedule_in(Duration{900}, [&] { ++fired; });
    const auto executed = sim.run(SimTime{500});
    EXPECT_EQ(executed, 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.now().ns(), 500);  // clock parked at the limit
    sim.run();
    EXPECT_EQ(fired, 3);
}

TEST(Simulator, ScheduleInPastThrows) {
    Simulator sim;
    sim.schedule_in(Duration{100}, [] {});
    sim.run();
    EXPECT_THROW(sim.schedule_at(SimTime{50}, [] {}), std::logic_error);
}

TEST(Simulator, ScheduleInNegativeDelayThrows) {
    // A negative delay is a time in the past: it must throw like
    // schedule_at, not queue the event and later wind the clock back.
    Simulator sim;
    sim.schedule_in(Duration{100}, [] {});
    sim.run();
    EXPECT_THROW(sim.schedule_in(Duration{-5}, [] {}), std::logic_error);
    EXPECT_TRUE(sim.queue().empty());
    sim.schedule_in(Duration::zero(), [] {});  // "now" is not the past
    sim.run();
    EXPECT_EQ(sim.now().ns(), 100);
}

TEST(Simulator, StepExecutesSingleEvent) {
    Simulator sim;
    int fired = 0;
    sim.schedule_in(Duration{1}, [&] { ++fired; });
    sim.schedule_in(Duration{2}, [&] { ++fired; });
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(sim.step());
    EXPECT_FALSE(sim.step());
}

TEST(Rng, DeterministicForSameSeed) {
    Rng a{42};
    Rng b{42};
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a{1};
    Rng b{2};
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next_u64() == b.next_u64()) ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInRange) {
    Rng rng{7};
    for (int i = 0; i < 10'000; ++i) EXPECT_LT(rng.next_below(13), 13u);
    EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Rng, NextBelowIsRoughlyUniform) {
    Rng rng{11};
    std::array<int, 8> buckets{};
    constexpr int kDraws = 80'000;
    for (int i = 0; i < kDraws; ++i) ++buckets[rng.next_below(8)];
    for (const int b : buckets) {
        EXPECT_GT(b, kDraws / 8 * 0.9);
        EXPECT_LT(b, kDraws / 8 * 1.1);
    }
}

TEST(Rng, NextInCoversBoundsInclusive) {
    Rng rng{3};
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 10'000; ++i) {
        const auto v = rng.next_in(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
    EXPECT_THROW(rng.next_in(3, 2), std::invalid_argument);
}

TEST(Rng, ExponentialHasRequestedMean) {
    Rng rng{5};
    double sum = 0;
    constexpr int kDraws = 50'000;
    for (int i = 0; i < kDraws; ++i) sum += rng.next_exponential(4.0);
    EXPECT_NEAR(sum / kDraws, 4.0, 0.15);
    EXPECT_THROW(rng.next_exponential(0.0), std::invalid_argument);
}

TEST(Rng, ParetoRespectsScale) {
    Rng rng{5};
    for (int i = 0; i < 1'000; ++i) EXPECT_GE(rng.next_pareto(1.5, 2.0), 2.0);
    EXPECT_THROW(rng.next_pareto(0.0, 1.0), std::invalid_argument);
}

TEST(Rng, DoubleInUnitInterval) {
    Rng rng{9};
    for (int i = 0; i < 10'000; ++i) {
        const double d = rng.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(RunningStats, TracksMoments) {
    RunningStats s;
    for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
    const RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(SampleSet, QuantilesInterpolate) {
    SampleSet s;
    for (int i = 1; i <= 5; ++i) s.add(i);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 3.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.0);
}

TEST(SampleSet, EmptyQuantileIsZeroButMinStillThrows) {
    const SampleSet s;
    EXPECT_THROW((void)s.min(), std::logic_error);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(s.p99(), 0.0);
    const SampleSet::Summary sum = s.summary();
    EXPECT_EQ(sum.count, 0u);
    EXPECT_DOUBLE_EQ(sum.min, 0.0);
    EXPECT_DOUBLE_EQ(sum.p95, 0.0);
}

TEST(SampleSet, SingleSampleIsEveryQuantile) {
    SampleSet s;
    s.add(42.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 42.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 42.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 42.0);
    EXPECT_DOUBLE_EQ(s.p50(), 42.0);
    EXPECT_DOUBLE_EQ(s.p95(), 42.0);
    EXPECT_DOUBLE_EQ(s.p99(), 42.0);
}

TEST(SampleSet, QuantileRangeChecked) {
    SampleSet s;
    s.add(1.0);
    EXPECT_THROW((void)s.quantile(-0.1), std::invalid_argument);
    EXPECT_THROW((void)s.quantile(1.1), std::invalid_argument);
}

TEST(SampleSet, PercentileHelpersAndSummaryAgree) {
    SampleSet s;
    s.reserve(100);
    for (int i = 1; i <= 100; ++i) s.add(i);
    EXPECT_EQ(s.samples().size(), 100u);
    EXPECT_DOUBLE_EQ(s.p50(), s.quantile(0.50));
    EXPECT_DOUBLE_EQ(s.p95(), s.quantile(0.95));
    EXPECT_DOUBLE_EQ(s.p99(), s.quantile(0.99));
    const SampleSet::Summary sum = s.summary();
    EXPECT_EQ(sum.count, 100u);
    EXPECT_DOUBLE_EQ(sum.min, 1.0);
    EXPECT_DOUBLE_EQ(sum.max, 100.0);
    EXPECT_DOUBLE_EQ(sum.mean, 50.5);
    EXPECT_DOUBLE_EQ(sum.p50, s.quantile(0.50));
    EXPECT_DOUBLE_EQ(sum.p95, s.quantile(0.95));
    EXPECT_DOUBLE_EQ(sum.p99, s.quantile(0.99));
}

}  // namespace
}  // namespace capbench::sim
