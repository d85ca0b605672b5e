/**
 * @file
 * Modular arithmetic, primality, and primitive-root utilities.
 *
 * These are the number-theoretic building blocks for the PDDL base
 * permutation constructions (Bose's construction needs a primitive
 * root of a prime modulus) and for the PRIME layout (multiplier
 * development over Z_n with n prime).
 */

#ifndef PDDL_UTIL_MODMATH_HH
#define PDDL_UTIL_MODMATH_HH

#include <cmath>
#include <cstdint>
#include <vector>

namespace pddl {

/** Non-negative remainder of a mod m (m > 0), correct for negative a. */
inline int64_t
floorMod(int64_t a, int64_t m)
{
    int64_t r = a % m;
    return r < 0 ? r + m : r;
}

/** (a * b) mod m without overflow for m < 2^31. */
inline int64_t
mulMod(int64_t a, int64_t b, int64_t m)
{
    return (a % m) * (b % m) % m;
}

/** (base ^ exp) mod m by binary exponentiation. exp >= 0, m > 0. */
int64_t powMod(int64_t base, int64_t exp, int64_t m);

/** Greatest common divisor (non-negative result). */
int64_t gcd(int64_t a, int64_t b);

/** Deterministic primality test (trial division; n is array-sized). */
bool isPrime(int64_t n);

/** Prime factorization as (prime, multiplicity) pairs, ascending. */
std::vector<std::pair<int64_t, int>> factorize(int64_t n);

/**
 * True iff n = p^e for a prime p and e >= 1; if so, reports p and e.
 *
 * @param n value to test, n >= 2
 * @param prime_out receives p when non-null
 * @param exp_out receives e when non-null
 */
bool isPrimePower(int64_t n, int64_t *prime_out = nullptr,
                  int *exp_out = nullptr);

/**
 * Smallest primitive root modulo a prime p.
 *
 * A primitive root generates the full multiplicative group Z_p^*,
 * which is exactly what Bose's construction distributes round-robin
 * into the stripe blocks.
 *
 * @return the smallest primitive root, or -1 if p is not prime.
 */
int64_t primitiveRoot(int64_t p);

/** Multiplicative order of a modulo m (gcd(a, m) must be 1). */
int64_t multiplicativeOrder(int64_t a, int64_t m);

/** Modular inverse of a mod prime p (a not divisible by p). */
int64_t invModPrime(int64_t a, int64_t p);

/**
 * Unsigned division by a divisor fixed at construction: one
 * multiply-high and one correction step instead of a hardware divide.
 *
 * The reciprocal m = floor((2^64 - 1) / d) satisfies
 * n/d - 1 < n*m / 2^64 <= n/d for every 64-bit n, so the estimate
 * floor(n*m / 2^64) is the true quotient or one below it, and a
 * single remainder comparison settles which. Exact for every n and
 * every d >= 1.
 */
class FixedDivisor
{
  public:
    explicit FixedDivisor(uint64_t divisor = 1)
        : divisor_(divisor), reciprocal_(~uint64_t{0} / divisor)
    {
    }

    /** quotient = n / d and remainder = n % d. */
    void
    divide(uint64_t n, uint64_t &quotient, uint64_t &remainder) const
    {
        uint64_t q = static_cast<uint64_t>(
            (static_cast<unsigned __int128>(n) * reciprocal_) >> 64);
        uint64_t r = n - q * divisor_;
        const bool low = r >= divisor_;
        quotient = q + low;
        remainder = r - (low ? divisor_ : 0);
    }

  private:
    uint64_t divisor_;
    uint64_t reciprocal_;
};

/**
 * std::fmod(x, y) bit for bit, for finite y > 0 with 2^52 * y
 * finite, without glibc's loop over the bits of the quotient (about
 * 100 ns at x/y ~ 1e7).
 *
 * For 0 <= x < 2^52 * y: rounding is monotone, so n = trunc(x / y)
 * is the true quotient N or N + 1. When n = N, x - N*y is the
 * (always representable) fmod result and the fma returns it exactly.
 * When n = N + 1, the true remainder lies within rounding of y, so
 * by Sterbenz's lemma both the fma (remainder - y) and the
 * correction (+ y) are exact. Everything else -- negative x, -0,
 * x >= 2^52 * y, infinities, NaN -- goes to std::fmod.
 */
inline double
fmodExact(double x, double y)
{
    if (std::signbit(x) || !(x < 0x1p52 * y))
        return std::fmod(x, y);
    const double n = std::trunc(x / y);
    double r = std::fma(-n, y, x);
    if (r < 0.0)
        r += y;
    return r;
}

} // namespace pddl

#endif // PDDL_UTIL_MODMATH_HH
