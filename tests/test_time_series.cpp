#include <gtest/gtest.h>

#include "simcore/check.hpp"
#include "simcore/time_series.hpp"

namespace rh::test {
namespace {

using sim::kSecond;

TEST(RateRecorder, RateBetween) {
  sim::RateRecorder r;
  for (int i = 0; i < 100; ++i) r.record(i * (kSecond / 10));  // 10/s for 10 s
  EXPECT_NEAR(r.rate_between(0, 10 * kSecond), 10.0, 0.1);
  EXPECT_DOUBLE_EQ(r.total(), 100.0);
}

TEST(RateRecorder, RateSeriesBins) {
  sim::RateRecorder r;
  r.record(100'000, 5.0);             // 5 events at t=0.1 s
  r.record(1 * kSecond + 1, 2.0);     // 2 events at t=1.000001 s
  const auto series = r.rate_series(0, 2 * kSecond, kSecond);
  ASSERT_EQ(series.size(), std::size_t{2});
  EXPECT_DOUBLE_EQ(series[0].value, 5.0);
  EXPECT_DOUBLE_EQ(series[1].value, 2.0);
}

TEST(RateRecorder, FirstAndLastEventQueries) {
  sim::RateRecorder r;
  r.record(10);
  r.record(20);
  r.record(30);
  EXPECT_EQ(r.first_event_at_or_after(15).value(), 20);
  EXPECT_EQ(r.first_event_at_or_after(20).value(), 20);
  EXPECT_FALSE(r.first_event_at_or_after(31).has_value());
  EXPECT_EQ(r.last_event_before(30).value(), 20);
  EXPECT_FALSE(r.last_event_before(10).has_value());
}

TEST(RateRecorder, EmptyWindowThrows) {
  sim::RateRecorder r;
  EXPECT_THROW((void)r.rate_between(10, 10), InvariantViolation);
}

}  // namespace
}  // namespace rh::test
