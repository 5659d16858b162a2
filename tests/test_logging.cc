/**
 * @file
 * Tests for the logging helpers: a failing MIRAGE_ASSERT must print its
 * formatted message together with the condition text and abort, rather
 * than misreading its own arguments.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"

namespace {

void
failWithValue(int value)
{
    MIRAGE_ASSERT(value != 7, "value %d", value);
}

} // namespace

TEST(LoggingDeathTest, AssertPrintsMessageArgumentsAndCondition)
{
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    EXPECT_DEATH(MIRAGE_ASSERT(false, "value %d", 7),
                 "assertion 'false' failed at .*test_logging\\.cc:[0-9]+: "
                 "value 7");
    EXPECT_DEATH(failWithValue(7), "'value != 7'.*value 7");
    // A message without arguments is still a format string.
    EXPECT_DEATH(MIRAGE_ASSERT(1 + 1 == 3, "arithmetic is broken"),
                 "'1 \\+ 1 == 3' failed.*arithmetic is broken");
}

TEST(Logging, PassingAssertHasNoEffect)
{
    int evaluations = 0;
    MIRAGE_ASSERT(++evaluations == 1, "evaluated %d times", evaluations);
    EXPECT_EQ(evaluations, 1);
}
