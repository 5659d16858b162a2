/**
 * @file
 * Unit tests for the deterministic fault-injection framework
 * (common/fault.hh) and the cooperative Deadline token
 * (common/deadline.hh): spec parsing and its error cases, the seeded
 * counter-based schedule (bit-reproducible across re-arms), one-shot
 * points, per-point stats, the zero-cost disarmed path, and deadline
 * expiry semantics.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "common/deadline.hh"
#include "common/fault.hh"

using namespace mirage;

namespace {

/** Every test leaves the process disarmed, whatever happens. */
class FaultTest : public ::testing::Test
{
  protected:
    void SetUp() override { fault::disarm(); }
    void TearDown() override { fault::disarm(); }
};

TEST_F(FaultTest, DisarmedIsSilent)
{
    EXPECT_FALSE(fault::armed());
    EXPECT_FALSE(fault::shouldFail("catalog.load"));
    EXPECT_NO_THROW(fault::maybeThrow("fit.converge"));
    EXPECT_TRUE(fault::stats().empty());
    EXPECT_EQ(fault::injectedCount(), 0u);
    EXPECT_EQ(fault::spec(), "");
}

TEST_F(FaultTest, SpecParseErrors)
{
    EXPECT_THROW(fault::arm(""), std::invalid_argument);
    EXPECT_THROW(fault::arm("seed=42"), std::invalid_argument); // no points
    EXPECT_THROW(fault::arm("novalue"), std::invalid_argument);
    EXPECT_THROW(fault::arm("p="), std::invalid_argument);
    EXPECT_THROW(fault::arm("=1/2"), std::invalid_argument);
    EXPECT_THROW(fault::arm("seed=x,p=1/2"), std::invalid_argument);
    EXPECT_THROW(fault::arm("p=12"), std::invalid_argument);   // no slash
    EXPECT_THROW(fault::arm("p=1/0"), std::invalid_argument);  // D >= 1
    EXPECT_THROW(fault::arm("p=3/2"), std::invalid_argument);  // N <= D
    EXPECT_THROW(fault::arm("p=#0"), std::invalid_argument);   // K >= 1
    EXPECT_THROW(fault::arm("p=#x"), std::invalid_argument);
    EXPECT_THROW(fault::arm("p=1/2,p=1/3"), std::invalid_argument);
    EXPECT_FALSE(fault::armed()); // nothing ever armed
}

TEST_F(FaultTest, BadSpecLeavesPreviousScheduleArmed)
{
    fault::arm("seed=1,p=1/1");
    EXPECT_THROW(fault::arm("garbage"), std::invalid_argument);
    EXPECT_TRUE(fault::armed());
    EXPECT_EQ(fault::spec(), "seed=1,p=1/1");
    EXPECT_TRUE(fault::shouldFail("p"));
}

TEST_F(FaultTest, AlwaysAndNeverRates)
{
    fault::arm("seed=9,always=1/1,never=0/7");
    for (int i = 0; i < 50; ++i) {
        EXPECT_TRUE(fault::shouldFail("always"));
        EXPECT_FALSE(fault::shouldFail("never"));
    }
}

TEST_F(FaultTest, RateScheduleIsSeededAndReproducible)
{
    const char *spec = "seed=11,p=1/3";
    auto sample = [&] {
        fault::arm(spec); // re-arm resets the per-point counters
        std::vector<bool> v;
        for (int i = 0; i < 300; ++i)
            v.push_back(fault::shouldFail("p"));
        return v;
    };
    const auto first = sample();
    const auto second = sample();
    EXPECT_EQ(first, second) << "schedule must be a pure function of "
                                "(seed, point, call index)";

    int fired = 0;
    for (bool b : first)
        fired += b ? 1 : 0;
    // ~100 expected; generous bounds, deterministic in practice.
    EXPECT_GT(fired, 60);
    EXPECT_LT(fired, 140);

    // A different seed must give a different schedule.
    fault::arm("seed=12,p=1/3");
    std::vector<bool> other;
    for (int i = 0; i < 300; ++i)
        other.push_back(fault::shouldFail("p"));
    EXPECT_NE(first, other);
}

TEST_F(FaultTest, OneShotFiresExactlyOnce)
{
    fault::arm("seed=1,p=#3");
    int fired_at = -1;
    for (int call = 1; call <= 10; ++call) {
        if (fault::shouldFail("p")) {
            EXPECT_EQ(fired_at, -1) << "one-shot fired twice";
            fired_at = call;
        }
    }
    EXPECT_EQ(fired_at, 3);
    const auto stats = fault::stats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].point, "p");
    EXPECT_EQ(stats[0].calls, 10u);
    EXPECT_EQ(stats[0].injected, 1u);
    EXPECT_EQ(fault::injectedCount(), 1u);
}

TEST_F(FaultTest, UnscheduledPointsAreCountedButNeverFire)
{
    fault::arm("seed=1,p=1/1");
    EXPECT_FALSE(fault::shouldFail("other.point"));
    EXPECT_FALSE(fault::shouldFail("other.point"));
    bool found = false;
    for (const auto &s : fault::stats()) {
        if (s.point == "other.point") {
            found = true;
            EXPECT_EQ(s.calls, 2u);
            EXPECT_EQ(s.injected, 0u);
        }
    }
    EXPECT_TRUE(found) << "touched points must appear in stats()";
}

TEST_F(FaultTest, MaybeThrowCarriesThePointName)
{
    fault::arm("seed=1,fit.converge=1/1");
    try {
        fault::maybeThrow("fit.converge");
        FAIL() << "expected fault::Injected";
    } catch (const fault::Injected &e) {
        EXPECT_EQ(e.point(), "fit.converge");
        EXPECT_NE(std::string(e.what()).find("fit.converge"),
                  std::string::npos);
    }
}

TEST_F(FaultTest, DisarmClearsEverything)
{
    fault::arm("seed=1,p=1/1");
    (void)fault::shouldFail("p");
    fault::disarm();
    EXPECT_FALSE(fault::armed());
    EXPECT_TRUE(fault::stats().empty());
    EXPECT_EQ(fault::injectedCount(), 0u);
    EXPECT_FALSE(fault::shouldFail("p"));
}

// --- Deadline ---------------------------------------------------------------

TEST(DeadlineTest, InactiveTokenNeverThrows)
{
    Deadline d;
    EXPECT_FALSE(d.active());
    EXPECT_FALSE(d.expired());
    EXPECT_NO_THROW(d.check("anywhere"));
}

TEST(DeadlineTest, ExpiryThrowsWithCheckpointName)
{
    Deadline d = Deadline::afterMs(0.01);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_TRUE(d.expired());
    try {
        d.check("route.stall");
        FAIL() << "expected DeadlineError";
    } catch (const DeadlineError &e) {
        EXPECT_NE(std::string(e.what()).find("route.stall"),
                  std::string::npos);
    }
}

TEST(DeadlineTest, GenerousBudgetDoesNotTrip)
{
    Deadline d = Deadline::afterMs(60000);
    EXPECT_TRUE(d.active());
    EXPECT_FALSE(d.expired());
    EXPECT_NO_THROW(d.check("pipeline.start"));
}

} // namespace
