/**
 * @file
 * Failure-matrix tests for the fault-tolerant dispatcher: every
 * recovery path — child crash, hang past the point timeout, corrupt
 * payload, truncated pipe frame — must converge to output
 * byte-identical to a clean in-process run, and exhausting the retry
 * budget must fail loudly naming the point and the lane.
 *
 * Faults are injected deterministically via $A4_FAULT (attempt 0
 * only), so each test pins one failure exactly once.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include <unistd.h>

#include "harness/dispatch.hh"
#include "sim/log.hh"

using namespace a4;

namespace
{

/** Set an env var for one test, restoring the old value after. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *key, const char *value) : key_(key)
    {
        const char *old = std::getenv(key);
        had_ = old != nullptr;
        old_ = old ? old : "";
        if (value)
            ::setenv(key, value, 1);
        else
            ::unsetenv(key);
    }
    ~ScopedEnv()
    {
        if (had_)
            ::setenv(key_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(key_.c_str());
    }

  private:
    std::string key_, old_;
    bool had_ = false;
};

// ----------------------------------------------------------------
// Local-lane failure model (trivial payload closures)

std::string
trivialPayload(std::size_t i)
{
    return "payload-" + std::to_string(i);
}

std::string
trivialLabel(std::size_t i)
{
    return "pt" + std::to_string(i);
}

DispatchConfig
localConfig(unsigned slots)
{
    DispatchConfig dc;
    dc.bench = "disp_test";
    dc.local_slots = slots;
    return dc;
}

void
expectTrivialResults(const std::vector<std::string> &results,
                     std::size_t n)
{
    ASSERT_EQ(results.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(results[i], trivialPayload(i)) << i;
}

TEST(Dispatch, CleanLocalRunMatchesInProcess)
{
    Dispatcher d(localConfig(3));
    expectTrivialResults(d.run(6, trivialPayload, trivialLabel), 6);
    EXPECT_EQ(d.stats().retries, 0u);
}

TEST(Dispatch, ChildCrashRetriesOnceAndRecovers)
{
    ScopedEnv fault("A4_FAULT", "crash:pt2");
    Dispatcher d(localConfig(3));
    expectTrivialResults(d.run(5, trivialPayload, trivialLabel), 5);
    EXPECT_EQ(d.stats().retries, 1u);
}

TEST(Dispatch, HangIsKilledByPointTimeoutAndRetried)
{
    ScopedEnv fault("A4_FAULT", "hang:pt1");
    DispatchConfig dc = localConfig(2);
    dc.point_timeout_s = 0.5;
    Dispatcher d(std::move(dc));
    expectTrivialResults(d.run(4, trivialPayload, trivialLabel), 4);
    // >= not ==: under heavy parallel-ctest load a legitimate point
    // can also trip the (tight, test-only) timeout; every such retry
    // must still recover to the same bytes.
    EXPECT_GE(d.stats().retries, 1u);
}

TEST(Dispatch, CorruptPayloadIsRejectedByChecksumAndRetried)
{
    ScopedEnv fault("A4_FAULT", "corrupt:pt0");
    Dispatcher d(localConfig(2));
    expectTrivialResults(d.run(3, trivialPayload, trivialLabel), 3);
    EXPECT_EQ(d.stats().retries, 1u);
}

TEST(Dispatch, TruncatedPipeFrameIsRejectedByLengthAndRetried)
{
    ScopedEnv fault("A4_FAULT", "drop:pt0");
    Dispatcher d(localConfig(2));
    expectTrivialResults(d.run(3, trivialPayload, trivialLabel), 3);
    EXPECT_EQ(d.stats().retries, 1u);
}

TEST(Dispatch, MultipleFaultClausesEachFireOnce)
{
    ScopedEnv fault("A4_FAULT", "crash:pt0,corrupt:pt3,drop:pt4");
    Dispatcher d(localConfig(3));
    expectTrivialResults(d.run(6, trivialPayload, trivialLabel), 6);
    EXPECT_EQ(d.stats().retries, 3u);
}

TEST(Dispatch, ExhaustedRetryBudgetNamesPointAndLane)
{
    auto fn = [](std::size_t i) -> std::string {
        if (i == 1)
            fatal("always failing");
        return trivialPayload(i);
    };
    DispatchConfig dc = localConfig(2);
    dc.retry_budget = 1;
    Dispatcher d(std::move(dc));
    try {
        d.run(4, fn, trivialLabel);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'pt1'"), std::string::npos) << what;
        EXPECT_NE(what.find("local pool"), std::string::npos) << what;
        EXPECT_NE(what.find("retry budget exhausted"),
                  std::string::npos) << what;
    }
}

TEST(Dispatch, FaultEnvRejectsMalformedValues)
{
    for (const char *bad : {"explode:pt0", "crash", "crash:", ":pt0"}) {
        ScopedEnv fault("A4_FAULT", bad);
        EXPECT_EQ(faultEnv(), "") << bad;
    }
    ScopedEnv fault("A4_FAULT", "crash:pt0,hang:pt1");
    EXPECT_EQ(faultEnv(), "crash:pt0,hang:pt1");
    EXPECT_EQ(faultFor(faultEnv(), "pt0", 0), FaultKind::Crash);
    EXPECT_EQ(faultFor(faultEnv(), "pt1", 0), FaultKind::Hang);
    EXPECT_EQ(faultFor(faultEnv(), "pt2", 0), FaultKind::None);
    // Attempt 0 only: the retry must run clean.
    EXPECT_EQ(faultFor(faultEnv(), "pt0", 1), FaultKind::None);
}

TEST(Dispatch, EnvKnobParsers)
{
    {
        ScopedEnv t("A4_POINT_TIMEOUT", "2.5");
        ScopedEnv r("A4_POINT_RETRIES", "5");
        EXPECT_DOUBLE_EQ(pointTimeoutFromEnv(), 2.5);
        EXPECT_EQ(retryBudgetFromEnv(), 5u);
    }
    {
        ScopedEnv t("A4_POINT_TIMEOUT", "nope");
        ScopedEnv r("A4_POINT_RETRIES", "-2");
        EXPECT_DOUBLE_EQ(pointTimeoutFromEnv(), 0.0);
        EXPECT_EQ(retryBudgetFromEnv(), 2u);
    }
    for (const char *bad : {"", "4294967296", "99999999999999999999"}) {
        ScopedEnv r("A4_POINT_RETRIES", bad);
        EXPECT_EQ(retryBudgetFromEnv(), 2u) << "'" << bad << "'";
    }
    {
        ScopedEnv r("A4_POINT_RETRIES", "4294967295");
        EXPECT_EQ(retryBudgetFromEnv(), 4294967295u);
    }
    {
        ScopedEnv t("A4_POINT_TIMEOUT", "");
        EXPECT_DOUBLE_EQ(pointTimeoutFromEnv(), 0.0);
        EXPECT_DOUBLE_EQ(pointTimeoutFromEnv(7.5), 7.5);
    }
    // Non-finite timeouts are malformed; a huge finite one is kept,
    // and a run under it clamps its poll wait instead of overflowing.
    for (const char *bad : {"inf", "infinity", "nan"}) {
        ScopedEnv t("A4_POINT_TIMEOUT", bad);
        EXPECT_DOUBLE_EQ(pointTimeoutFromEnv(), 0.0) << bad;
    }
    {
        ScopedEnv t("A4_POINT_TIMEOUT", "1e12");
        EXPECT_DOUBLE_EQ(pointTimeoutFromEnv(), 1e12);
        DispatchConfig dc = localConfig(2);
        dc.point_timeout_s = pointTimeoutFromEnv();
        Dispatcher d(std::move(dc));
        expectTrivialResults(d.run(3, trivialPayload, trivialLabel), 3);
    }

    // One warning per offending value, however often it is parsed.
    auto warnings = [](const char *knob, const std::string &err) {
        std::size_t n = 0;
        for (std::size_t pos = err.find(knob); pos != std::string::npos;
             pos = err.find(knob, pos + 1))
            ++n;
        return n;
    };
    ScopedEnv r("A4_POINT_RETRIES", "3x");
    ScopedEnv t("A4_POINT_TIMEOUT", "-1");
    testing::internal::CaptureStderr();
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(retryBudgetFromEnv(), 2u);
        EXPECT_DOUBLE_EQ(pointTimeoutFromEnv(), 0.0);
    }
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(warnings("A4_POINT_RETRIES", err), 1u) << err;
    EXPECT_EQ(warnings("A4_POINT_TIMEOUT", err), 1u) << err;
}

TEST(Dispatch, ForkedMatchesInProcess)
{
    auto fn = [](std::size_t i) {
        return "payload-" + std::to_string(i * i);
    };
    auto label = [](std::size_t i) { return std::to_string(i); };

    auto a = Dispatcher(localConfig(1)).run(9, fn, label);
    auto b = Dispatcher(localConfig(4)).run(9, fn, label);
    EXPECT_EQ(a, b);
}

TEST(Dispatch, ReassemblesInSubmissionOrder)
{
    // Earlier jobs sleep longer, so with 4 lanes the completion order
    // is roughly the reverse of the submission order.
    auto fn = [](std::size_t i) {
        ::usleep(useconds_t((8 - i) * 20000));
        return "job-" + std::to_string(i);
    };
    auto label = [](std::size_t i) { return std::to_string(i); };
    auto out = Dispatcher(localConfig(4)).run(8, fn, label);
    ASSERT_EQ(out.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(out[i], "job-" + std::to_string(i));
}

TEST(Dispatch, ChildFailurePropagatesWithPointName)
{
    auto fn = [](std::size_t i) -> std::string {
        if (i == 2)
            fatal("injected failure");
        return "ok";
    };
    auto label = [](std::size_t i) {
        return "point-" + std::to_string(i);
    };
    Dispatcher d(localConfig(3));
    try {
        d.run(5, fn, label);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("point-2"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Dispatch, LargePayloadsSurviveThePipe)
{
    // Larger than the 64 KiB pipe buffer: exercises incremental
    // draining in the parent.
    auto fn = [](std::size_t i) {
        return std::string(256 * 1024, char('a' + int(i)));
    };
    auto label = [](std::size_t i) { return std::to_string(i); };
    auto out = Dispatcher(localConfig(2)).run(3, fn, label);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(out[i].size(), 256u * 1024u);
        EXPECT_EQ(out[i][0], char('a' + int(i)));
    }
}

TEST(Dispatch, FaultInjectedCrashMatchesInProcessRun)
{
    auto label = [](std::size_t i) { return "jp" + std::to_string(i); };
    const std::vector<std::string> reference =
        Dispatcher(localConfig(1)).run(5, trivialPayload, label);
    ScopedEnv fault("A4_FAULT", "crash:jp3");
    Dispatcher d(localConfig(3));
    EXPECT_EQ(d.run(5, trivialPayload, label), reference);
    EXPECT_EQ(d.stats().retries, 1u);
}

TEST(Dispatch, FaultInjectionDoesNotApplyInProcess)
{
    // One local slot is the clean reference path: no forks, no
    // frames, no faults — a crash clause for its points must be inert.
    ScopedEnv fault("A4_FAULT", "crash:jp0");
    auto label = [](std::size_t i) { return "jp" + std::to_string(i); };
    Dispatcher d(localConfig(1));
    EXPECT_EQ(d.run(2, trivialPayload, label)[0], trivialPayload(0));
    EXPECT_EQ(d.stats().retries, 0u);
}

} // namespace
