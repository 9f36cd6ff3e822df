/**
 * @file
 * Unit tests for the support library.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "support/bitvector.hh"
#include "support/hibitset.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "support/stats.hh"
#include "support/strutil.hh"
#include "support/table.hh"

namespace fb
{
namespace
{

int
countOccurrences(const std::string &haystack, const std::string &needle)
{
    int n = 0;
    for (std::size_t pos = haystack.find(needle);
         pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size()))
        ++n;
    return n;
}

// ---------------------------------------------------------------- BitVector

TEST(BitVector, StartsAllClear)
{
    BitVector bv(10);
    EXPECT_EQ(bv.size(), 10u);
    EXPECT_TRUE(bv.none());
    EXPECT_EQ(bv.count(), 0u);
    for (std::size_t i = 0; i < 10; ++i)
        EXPECT_FALSE(bv.test(i));
}

TEST(BitVector, SetAndClear)
{
    BitVector bv(70);  // crosses a word boundary
    bv.set(0);
    bv.set(65);
    EXPECT_TRUE(bv.test(0));
    EXPECT_TRUE(bv.test(65));
    EXPECT_FALSE(bv.test(64));
    EXPECT_EQ(bv.count(), 2u);
    bv.clear(65);
    EXPECT_FALSE(bv.test(65));
    EXPECT_EQ(bv.count(), 1u);
}

TEST(BitVector, SetAllAndClearAll)
{
    BitVector bv(5);
    bv.setAll();
    EXPECT_TRUE(bv.all());
    EXPECT_EQ(bv.count(), 5u);
    bv.clearAll();
    EXPECT_TRUE(bv.none());
}

TEST(BitVector, Covers)
{
    BitVector a(8), b(8);
    a.set(1);
    a.set(3);
    b.set(1);
    EXPECT_TRUE(a.covers(b));
    EXPECT_FALSE(b.covers(a));
    b.set(5);
    EXPECT_FALSE(a.covers(b));
}

TEST(BitVector, Intersects)
{
    BitVector a(8), b(8);
    a.set(2);
    b.set(3);
    EXPECT_FALSE(a.intersects(b));
    b.set(2);
    EXPECT_TRUE(a.intersects(b));
}

TEST(BitVector, AndOrEquality)
{
    BitVector a(8), b(8);
    a.set(1);
    a.set(2);
    b.set(2);
    b.set(3);
    BitVector both = a & b;
    EXPECT_EQ(both.count(), 1u);
    EXPECT_TRUE(both.test(2));
    BitVector either = a | b;
    EXPECT_EQ(either.count(), 3u);
    EXPECT_TRUE(a == a);
    EXPECT_FALSE(a == b);
}

TEST(BitVector, ToString)
{
    BitVector bv(4);
    bv.set(1);
    EXPECT_EQ(bv.toString(), "0100");
}

TEST(BitVector, ExactWordBoundarySizes)
{
    // Sizes straddling the 64-bit word granularity: the last word is
    // partial for 1, 63, 65 and 129, exactly full for 64 and 128.
    // setAll() must not set phantom bits past size() (they would
    // corrupt count(), all(), and equality), and the last bit must be
    // addressable.
    for (std::size_t n : {1u, 63u, 64u, 65u, 128u, 129u}) {
        BitVector bv(n);
        bv.setAll();
        BitVector bitwise(n);
        for (std::size_t i = 0; i < n; ++i)
            bitwise.set(i);
        EXPECT_TRUE(bv == bitwise) << "size " << n;
        EXPECT_EQ(bv.count(), n) << "size " << n;
        EXPECT_TRUE(bv.all()) << "size " << n;
        bv.clear(n - 1);
        EXPECT_FALSE(bv.all()) << "size " << n;
        EXPECT_EQ(bv.count(), n - 1) << "size " << n;
        bv.set(n - 1);
        EXPECT_TRUE(bv.all()) << "size " << n;
        EXPECT_EQ(bv.toString().size(), n) << "size " << n;
    }
}

TEST(BitVector, SetAlgebraAcrossWordBoundary)
{
    // Bits 63 and 64 land in different storage words; the set-algebra
    // helpers must compose them correctly.
    BitVector a(130), b(130);
    a.set(63);
    a.set(64);
    a.set(129);
    b.set(64);
    EXPECT_TRUE(a.covers(b));
    EXPECT_FALSE(b.covers(a));
    EXPECT_TRUE(a.intersects(b));
    b.clear(64);
    b.set(63);
    EXPECT_TRUE(a.intersects(b));
    b.clear(63);
    EXPECT_FALSE(a.intersects(b));

    BitVector both = a & a;
    EXPECT_TRUE(both == a);
    b.set(128);
    BitVector either = a | b;
    EXPECT_EQ(either.count(), 4u);
    EXPECT_TRUE(either.test(63));
    EXPECT_TRUE(either.test(64));
    EXPECT_TRUE(either.test(128));
    EXPECT_TRUE(either.test(129));
}

TEST(BitVector, EmptyVector)
{
    // The degenerate case every quantifier flips on: no bits means
    // none() and all() are both vacuously true, and an empty vector
    // covers (but never intersects) another empty vector.
    BitVector empty;
    EXPECT_EQ(empty.size(), 0u);
    EXPECT_TRUE(empty.none());
    EXPECT_TRUE(empty.all());
    EXPECT_EQ(empty.toString(), "");
    BitVector other;
    EXPECT_TRUE(empty.covers(other));
    EXPECT_FALSE(empty.intersects(other));
    EXPECT_TRUE(empty == other);
}

TEST(BitVector, ForEachSetAscending)
{
    BitVector bv(200);
    for (std::size_t i : {0u, 63u, 64u, 127u, 199u})
        bv.set(i);
    std::vector<std::size_t> seen;
    bv.forEachSet([&](std::size_t i) { seen.push_back(i); });
    EXPECT_EQ(seen, (std::vector<std::size_t>{0, 63, 64, 127, 199}));
}

// ----------------------------------------------------------------- HiBitset

TEST(HiBitset, StartsEmpty)
{
    HiBitset hs(300);
    EXPECT_EQ(hs.size(), 300u);
    EXPECT_TRUE(hs.empty());
    EXPECT_EQ(hs.count(), 0u);
    EXPECT_EQ(hs.first(), 300u);  // empty: first() == size()
    for (std::size_t i = 0; i < 300; ++i)
        EXPECT_FALSE(hs.test(i));
}

TEST(HiBitset, SetClearAcrossPayloadWords)
{
    // Members in three different payload words, exercising the
    // summary-word maintenance on both set and clear.
    HiBitset hs(300);
    hs.set(0);
    hs.set(63);
    hs.set(64);
    hs.set(255);
    EXPECT_EQ(hs.count(), 4u);
    EXPECT_EQ(hs.first(), 0u);
    EXPECT_TRUE(hs.test(64));
    EXPECT_FALSE(hs.test(65));
    hs.clear(0);
    hs.clear(63);  // word 0 now empty: summary bit must drop
    EXPECT_EQ(hs.first(), 64u);
    EXPECT_EQ(hs.count(), 2u);
    hs.clear(64);
    hs.clear(255);
    EXPECT_TRUE(hs.empty());
    // Clearing an already-clear bit is a no-op, not a corruption.
    hs.clear(128);
    EXPECT_TRUE(hs.empty());
    EXPECT_EQ(hs.count(), 0u);
}

TEST(HiBitset, ForEachAscending)
{
    HiBitset hs(1024);
    const std::vector<std::size_t> members = {3, 63, 64, 500, 1023};
    for (std::size_t i : members)
        hs.set(i);
    std::vector<std::size_t> seen;
    hs.forEach([&](std::size_t i) { seen.push_back(i); });
    EXPECT_EQ(seen, members);
}

TEST(HiBitset, ClearAllAndResize)
{
    HiBitset hs(1024);
    for (std::size_t i = 0; i < 1024; i += 37)
        hs.set(i);
    EXPECT_FALSE(hs.empty());
    hs.clearAll();
    EXPECT_TRUE(hs.empty());
    EXPECT_EQ(hs.count(), 0u);
    hs.set(1000);
    hs.resize(128);  // resize clears, too
    EXPECT_TRUE(hs.empty());
    EXPECT_EQ(hs.size(), 128u);
}

TEST(HiBitset, AssignFromAndUnion)
{
    HiBitset a(256), b(256), out(256);
    a.set(1);
    a.set(70);
    b.set(70);
    b.set(200);
    out.set(5);  // stale content must vanish on assign
    out.assignFrom(a);
    EXPECT_EQ(out.count(), 2u);
    EXPECT_TRUE(out.test(1));
    EXPECT_TRUE(out.test(70));
    EXPECT_FALSE(out.test(5));
    out.assignUnion(a, b);
    EXPECT_EQ(out.count(), 3u);
    EXPECT_TRUE(out.test(1));
    EXPECT_TRUE(out.test(70));
    EXPECT_TRUE(out.test(200));
}

TEST(HiBitset, FullCapacity)
{
    // 4096 bits (64 payload words) is the documented ceiling — the
    // 1024-processor machines sit well inside it.
    HiBitset hs(HiBitset::maxCapacity);
    hs.set(0);
    hs.set(HiBitset::maxCapacity - 1);
    EXPECT_EQ(hs.count(), 2u);
    EXPECT_EQ(hs.first(), 0u);
    hs.clear(0);
    EXPECT_EQ(hs.first(), HiBitset::maxCapacity - 1);
}

// ------------------------------------------------------------- RandomSource

TEST(RandomSource, Deterministic)
{
    RandomSource a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RandomSource, DifferentSeedsDiffer)
{
    RandomSource a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 4);
}

TEST(RandomSource, BoundedStaysInBounds)
{
    RandomSource r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.nextBounded(13), 13u);
}

TEST(RandomSource, BoundedHitsAllValues)
{
    RandomSource r(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(r.nextBounded(5));
    EXPECT_EQ(seen.size(), 5u);
}

TEST(RandomSource, RangeInclusive)
{
    RandomSource r(3);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 500; ++i) {
        std::int64_t v = r.nextRange(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(RandomSource, DoubleInUnitInterval)
{
    RandomSource r(9);
    for (int i = 0; i < 1000; ++i) {
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(RandomSource, BoolRespectsProbability)
{
    RandomSource r(11);
    int trues = 0;
    for (int i = 0; i < 10000; ++i)
        trues += r.nextBool(0.25) ? 1 : 0;
    EXPECT_NEAR(trues / 10000.0, 0.25, 0.03);
}

TEST(RandomSource, JitterMeanApproximate)
{
    RandomSource r(13);
    double total = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        total += static_cast<double>(r.nextJitter(8.0));
    // Floor of an exponential with mean 8 has mean ~7.5.
    EXPECT_NEAR(total / n, 7.5, 0.5);
}

TEST(RandomSource, JitterZeroMeanIsZero)
{
    RandomSource r(13);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r.nextJitter(0.0), 0u);
}

TEST(RandomSource, SplitIndependent)
{
    RandomSource parent(5);
    RandomSource child = parent.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += parent.next() == child.next() ? 1 : 0;
    EXPECT_LT(same, 4);
}

// -------------------------------------------------------------------- Stats

TEST(Counter, IncrementAndReset)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Distribution, Empty)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.mean(), 0.0);
    EXPECT_EQ(d.min(), 0.0);
    EXPECT_EQ(d.max(), 0.0);
    EXPECT_EQ(d.stddev(), 0.0);
}

TEST(Distribution, Moments)
{
    Distribution d;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 8u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 9.0);
    EXPECT_NEAR(d.stddev(), 2.0, 1e-9);
}

TEST(Distribution, Reset)
{
    Distribution d;
    d.sample(3.0);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    d.sample(1.0);
    EXPECT_DOUBLE_EQ(d.mean(), 1.0);
}

TEST(StatGroup, SharedByName)
{
    StatGroup g("test");
    g.counter("x").inc(3);
    EXPECT_EQ(g.counter("x").value(), 3u);
    EXPECT_TRUE(g.hasCounter("x"));
    EXPECT_FALSE(g.hasCounter("y"));
}

TEST(StatGroup, DumpFormat)
{
    StatGroup g("grp");
    g.counter("hits").inc(7);
    g.distribution("lat").sample(2.0);
    std::ostringstream oss;
    g.dump(oss);
    EXPECT_NE(oss.str().find("grp.hits = 7"), std::string::npos);
    EXPECT_NE(oss.str().find("grp.lat"), std::string::npos);
}

TEST(StatGroup, Reset)
{
    StatGroup g("grp");
    g.counter("a").inc(2);
    g.distribution("d").sample(1.0);
    g.reset();
    EXPECT_EQ(g.counter("a").value(), 0u);
    EXPECT_EQ(g.distribution("d").count(), 0u);
}

// ------------------------------------------------------------------ StrUtil

TEST(StrUtil, Trim)
{
    EXPECT_EQ(trim("  abc  "), "abc");
    EXPECT_EQ(trim("abc"), "abc");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("\ta b\n"), "a b");
}

TEST(StrUtil, Split)
{
    auto out = split("a,b,,c", ',');
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], "a");
    EXPECT_EQ(out[1], "b");
    EXPECT_EQ(out[2], "c");
    EXPECT_TRUE(split("", ',').empty());
}

TEST(StrUtil, SplitWhitespace)
{
    auto out = splitWhitespace("  ld  r1,   4(r2) ");
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], "ld");
    EXPECT_EQ(out[1], "r1,");
    EXPECT_EQ(out[2], "4(r2)");
}

TEST(StrUtil, StartsWith)
{
    EXPECT_TRUE(startsWith(".region 1", ".region"));
    EXPECT_FALSE(startsWith(".reg", ".region"));
}

TEST(StrUtil, ToLower)
{
    EXPECT_EQ(toLower("AdDi"), "addi");
}

TEST(StrUtil, ParseInt)
{
    std::int64_t v = 0;
    EXPECT_TRUE(parseInt("42", v));
    EXPECT_EQ(v, 42);
    EXPECT_TRUE(parseInt("-7", v));
    EXPECT_EQ(v, -7);
    EXPECT_TRUE(parseInt("0x10", v));
    EXPECT_EQ(v, 16);
    EXPECT_FALSE(parseInt("", v));
    EXPECT_FALSE(parseInt("12x", v));
    EXPECT_FALSE(parseInt("r3", v));
}

// -------------------------------------------------------------------- Table

TEST(Table, PrintsAlignedRows)
{
    Table t("demo");
    t.setHeader({"name", "value"});
    t.row().cell("alpha").cell(std::int64_t{12});
    t.row().cell("b").cell(3.14159, 2);
    EXPECT_EQ(t.numRows(), 2u);
    std::ostringstream oss;
    t.print(oss);
    std::string s = oss.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("3.14"), std::string::npos);
    EXPECT_NE(s.find("12"), std::string::npos);
}

TEST(Table, UnsignedAndPrecision)
{
    Table t("x");
    t.row().cell(std::uint64_t{18446744073709551615ull});
    t.row().cell(1.23456, 4);
    std::ostringstream oss;
    t.print(oss);
    EXPECT_NE(oss.str().find("18446744073709551615"), std::string::npos);
    EXPECT_NE(oss.str().find("1.2346"), std::string::npos);
}

// Repeat-suppressing warnings share process-global per-key counters,
// so every test below uses its own unique key.

TEST(Logging, WarnOnceReportsOnlyTheFirstOccurrence)
{
    ::testing::internal::CaptureStderr();
    warnOnce("test.once.a", "the first report");
    warnOnce("test.once.a", "the first report");
    warnOnce("test.once.a", "the first report");
    warnOnce("test.once.b", "a different key still reports");
    std::string out = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(countOccurrences(out, "the first report"), 1);
    EXPECT_EQ(countOccurrences(out, "a different key still reports"),
              1);
}

TEST(Logging, WarnRatelimitedReportsEveryNth)
{
    ::testing::internal::CaptureStderr();
    for (int i = 0; i < 25; ++i)
        warnRatelimited("test.rate.a", "noisy condition", 10);
    std::string out = ::testing::internal::GetCapturedStderr();
    // Occurrences 1, 11, and 21 report; the rest are suppressed.
    EXPECT_EQ(countOccurrences(out, "noisy condition"), 3);
    EXPECT_NE(out.find("suppressed"), std::string::npos);
}

TEST(Logging, WarnRatelimitedEveryOneNeverSuppresses)
{
    ::testing::internal::CaptureStderr();
    for (int i = 0; i < 5; ++i)
        warnRatelimited("test.rate.b", "always", 1);
    std::string out = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(countOccurrences(out, "always"), 5);
}

} // namespace
} // namespace fb
