/**
 * @file
 * Unit tests for modular arithmetic, primality, primitive roots, and
 * the exact fixed-divisor and floating-point remainder helpers.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/modmath.hh"
#include "util/rng.hh"

namespace pddl {
namespace {

TEST(FloorMod, HandlesNegatives)
{
    EXPECT_EQ(floorMod(7, 5), 2);
    EXPECT_EQ(floorMod(-1, 5), 4);
    EXPECT_EQ(floorMod(-5, 5), 0);
    EXPECT_EQ(floorMod(0, 3), 0);
    EXPECT_EQ(floorMod(-13, 7), 1);
}

TEST(PowMod, MatchesDirectComputation)
{
    EXPECT_EQ(powMod(3, 0, 7), 1);
    EXPECT_EQ(powMod(3, 1, 7), 3);
    EXPECT_EQ(powMod(3, 2, 7), 2);
    EXPECT_EQ(powMod(3, 3, 7), 6);
    EXPECT_EQ(powMod(3, 4, 7), 4);
    EXPECT_EQ(powMod(3, 5, 7), 5);
    EXPECT_EQ(powMod(2, 10, 1000), 24);
}

TEST(PowMod, LargeExponents)
{
    // Fermat: a^(p-1) = 1 mod p.
    for (int64_t p : {101, 1009, 999983}) {
        for (int64_t a : {2, 3, 5, 7}) {
            EXPECT_EQ(powMod(a, p - 1, p), 1) << a << "^" << p - 1;
        }
    }
}

TEST(Gcd, BasicIdentities)
{
    EXPECT_EQ(gcd(12, 18), 6);
    EXPECT_EQ(gcd(17, 5), 1);
    EXPECT_EQ(gcd(0, 9), 9);
    EXPECT_EQ(gcd(9, 0), 9);
    EXPECT_EQ(gcd(-12, 18), 6);
}

TEST(IsPrime, SmallValues)
{
    EXPECT_FALSE(isPrime(0));
    EXPECT_FALSE(isPrime(1));
    EXPECT_TRUE(isPrime(2));
    EXPECT_TRUE(isPrime(3));
    EXPECT_FALSE(isPrime(4));
    EXPECT_TRUE(isPrime(13));
    EXPECT_FALSE(isPrime(55));
    EXPECT_TRUE(isPrime(101));
    EXPECT_FALSE(isPrime(1001)); // 7 * 11 * 13
}

TEST(IsPrime, AgreesWithSieve)
{
    std::vector<bool> composite(2000, false);
    for (int i = 2; i < 2000; ++i) {
        if (composite[i])
            continue;
        for (int j = 2 * i; j < 2000; j += i)
            composite[j] = true;
    }
    for (int i = 2; i < 2000; ++i)
        EXPECT_EQ(isPrime(i), !composite[i]) << i;
}

TEST(Factorize, RecomposesProduct)
{
    for (int64_t n : {2, 12, 97, 360, 1024, 9973, 720720}) {
        int64_t product = 1;
        for (const auto &[p, e] : factorize(n)) {
            EXPECT_TRUE(isPrime(p));
            for (int i = 0; i < e; ++i)
                product *= p;
        }
        EXPECT_EQ(product, n);
    }
}

TEST(IsPrimePower, DetectsPowers)
{
    int64_t p;
    int e;
    EXPECT_TRUE(isPrimePower(8, &p, &e));
    EXPECT_EQ(p, 2);
    EXPECT_EQ(e, 3);
    EXPECT_TRUE(isPrimePower(27, &p, &e));
    EXPECT_EQ(p, 3);
    EXPECT_EQ(e, 3);
    EXPECT_TRUE(isPrimePower(13, &p, &e));
    EXPECT_EQ(e, 1);
    EXPECT_FALSE(isPrimePower(12));
    EXPECT_FALSE(isPrimePower(1));
}

TEST(PrimitiveRoot, PaperExample)
{
    // Section 3: "3 is a primitive element" of Z_7, and it is also
    // the smallest.
    EXPECT_EQ(primitiveRoot(7), 3);
}

TEST(PrimitiveRoot, HasFullOrder)
{
    for (int64_t p : {5, 7, 11, 13, 31, 61, 101}) {
        int64_t g = primitiveRoot(p);
        ASSERT_GT(g, 0);
        EXPECT_EQ(multiplicativeOrder(g, p), p - 1) << "p=" << p;
    }
}

TEST(PrimitiveRoot, RejectsComposites)
{
    EXPECT_EQ(primitiveRoot(12), -1);
    EXPECT_EQ(primitiveRoot(55), -1);
}

TEST(InvModPrime, Inverts)
{
    for (int64_t p : {7, 13, 101}) {
        for (int64_t a = 1; a < p; ++a)
            EXPECT_EQ(mulMod(a, invModPrime(a, p), p), 1);
    }
}

TEST(FixedDivisor, MatchesHardwareDivision)
{
    const uint64_t max = std::numeric_limits<uint64_t>::max();
    std::vector<uint64_t> divisors = {1, 2, 3, 7, 68, 89, 884, 1157,
                                      (uint64_t{1} << 32) - 1,
                                      uint64_t{1} << 32, max / 3,
                                      uint64_t{1} << 63, max};
    Rng rng(0xd1f150);
    for (int i = 0; i < 64; ++i)
        divisors.push_back(rng() >> rng.below(64));
    for (uint64_t d : divisors) {
        if (d == 0)
            continue;
        const FixedDivisor divisor(d);
        std::vector<uint64_t> numerators = {0, 1, d - 1, d, max,
                                            max - 1, max / d * d,
                                            max / d * d - 1};
        for (uint64_t k : {uint64_t{1}, uint64_t{2}, uint64_t{12345}}) {
            if (d <= max / k) {
                numerators.push_back(k * d);
                numerators.push_back(k * d - 1);
            }
        }
        for (int i = 0; i < 2000; ++i)
            numerators.push_back(rng() >> rng.below(64));
        for (uint64_t n : numerators) {
            uint64_t q = 0, r = 0;
            divisor.divide(n, q, r);
            ASSERT_EQ(q, n / d) << n << " / " << d;
            ASSERT_EQ(r, n % d) << n << " % " << d;
        }
    }
}

/** Bitwise equality: distinguishes -0 from +0, compares NaN payloads. */
void
expectSameBits(double a, double b, double x, double y)
{
    EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b))
        << "fmod(" << x << ", " << y << "): " << a << " vs " << b;
}

TEST(FmodExact, MatchesStdFmodBitForBit)
{
    const double revs[] = {60000.0 / 5400.0, 60000.0 / 7200.0,
                           60000.0 / 15000.0, 1.0, 0.1, 3.0};
    Rng rng(0xf30d);
    for (double y : revs) {
        std::vector<double> xs = {
            0.0, -0.0, y, -y, 0x1p52 * y,
            std::nextafter(0x1p52 * y, 0.0), 1e17, -1e9, INFINITY,
            std::numeric_limits<double>::quiet_NaN(),
            std::numeric_limits<double>::denorm_min()};
        for (int i = 0; i < 20000; ++i) {
            // Exact multiples of y as the simulator forms them, and
            // the doubles either side, where the quotient estimate
            // rounds up and the correction step runs.
            const double multiple =
                static_cast<double>(rng.below(uint64_t{1} << 28)) * y;
            xs.push_back(multiple);
            xs.push_back(std::nextafter(multiple, 0.0));
            xs.push_back(std::nextafter(multiple, INFINITY));
            xs.push_back(rng.uniform() * 1e9);
            xs.push_back(rng.uniform() * 1e3);
        }
        for (double x : xs)
            expectSameBits(fmodExact(x, y), std::fmod(x, y), x, y);
    }
}

class PrimitiveRootEveryPrime : public ::testing::TestWithParam<int>
{
};

TEST_P(PrimitiveRootEveryPrime, GeneratesAllResidues)
{
    int64_t p = GetParam();
    int64_t g = primitiveRoot(p);
    std::vector<bool> seen(p, false);
    int64_t v = 1;
    for (int64_t i = 0; i < p - 1; ++i) {
        EXPECT_FALSE(seen[v]);
        seen[v] = true;
        v = mulMod(v, g, p);
    }
    for (int64_t r = 1; r < p; ++r)
        EXPECT_TRUE(seen[r]) << "residue " << r << " not generated";
}

INSTANTIATE_TEST_SUITE_P(ArraySizedPrimes, PrimitiveRootEveryPrime,
                         ::testing::Values(5, 7, 11, 13, 17, 19, 23, 29,
                                           31, 37, 41, 43, 47, 53, 59,
                                           61, 67, 71, 73, 79, 83, 89,
                                           97, 101));

} // namespace
} // namespace pddl
