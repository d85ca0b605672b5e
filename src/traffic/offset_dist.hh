/**
 * @file
 * Offset distributions: where in the address space client accesses
 * land.
 *
 * The paper's clients draw start offsets uniformly; production
 * traffic is skewed -- a small set of hot blocks absorbs most of the
 * load, which is exactly what gives a cache tier something to do.
 * This module provides the pluggable distribution both workload
 * drivers sample from:
 *
 *  - Uniform: the paper's workload, byte-for-byte. The uniform
 *    sampler consumes exactly one Rng draw per sample and produces
 *    the identical value sequence the clients drew before this
 *    module existed, so every golden replay and BENCH file is
 *    unchanged by default.
 *  - Zipf: rank-frequency skew with exponent theta in (0, 1) (the
 *    YCSB convention; 0.99 is the classic "zipfian" workload),
 *    sampled with the Gray et al. closed-form generator -- one
 *    uniform draw per sample after the harmonic sum zeta(domain),
 *    read from a process-wide prefix table (zipfZeta below) so only
 *    the first sampler at a theta pays O(domain) and later ones at
 *    most one table stride.
 *    Ranks are scrambled across the address space with a stateless
 *    hash so the hot set is spread over the volume (and over its
 *    shards) instead of clustered at offset zero.
 *  - HotSpot: a contiguous hot region -- `hot_fraction` of the space
 *    receives `hot_weight` of the accesses (two draws per sample).
 *
 * Every sampler is deterministic per seed: sampling uses only the
 * caller's Rng, construction uses none.
 */

#ifndef PDDL_TRAFFIC_OFFSET_DIST_HH
#define PDDL_TRAFFIC_OFFSET_DIST_HH

#include <cstdint>
#include <string>

#include "util/rng.hh"

namespace pddl {
namespace traffic {

/** Which offset distribution a client samples from. */
struct OffsetSpec
{
    enum class Kind
    {
        Uniform,
        Zipf,
        HotSpot
    };

    Kind kind = Kind::Uniform;
    /** Zipf: skew exponent theta, 0 < theta < 1. */
    double theta = 0.99;
    /** HotSpot: fraction of the space that is hot, in (0, 1). */
    double hot_fraction = 0.1;
    /** HotSpot: probability an access targets the hot region. */
    double hot_weight = 0.9;
};

/**
 * Parse a spec string: "uniform", "zipf:<theta>" or
 * "hot:<fraction>,<weight>". @return true on success; on failure
 * `error` explains what was malformed (suitable for an ArgParser
 * validator message).
 */
bool parseOffsetSpec(const std::string &text, OffsetSpec &spec,
                     std::string &error);

/** Canonical spec label ("uniform", "zipf:0.99", "hot:0.1,0.9"). */
std::string offsetSpecName(const OffsetSpec &spec);

/** Terms between two checkpoints of zipfZeta's prefix table. */
constexpr int64_t kZipfZetaStride = 65536;

/**
 * The Gray et al. harmonic sum zeta(n, theta) = sum over i = 1..n of
 * 1 / i^theta, bit-identical to adding the terms in order 1..n.
 *
 * Backed by one process-wide, append-only table per theta holding
 * the exact running sum at every multiple of kZipfZetaStride (8 bytes
 * per stride: about 9 KB for 72.8 M terms). A call resumes the same
 * sequential sum from the checkpoint at or below n, so it adds the
 * same terms in the same order and returns the same double; it costs
 * fewer than kZipfZetaStride pow() calls once any n' >= n has been
 * asked at this theta. Thread-safe (one mutex); results do not
 * depend on which thread asked first.
 */
double zipfZeta(int64_t n, double theta);

/**
 * Seeded sampler of start offsets over a fixed domain of
 * `domain_units` data units. The domain is fixed at construction
 * (the target's dataUnits) so the hot set is stable across access
 * sizes; per-sample the caller passes the valid start span, and
 * skewed draws landing past it are clamped to the edge.
 */
class OffsetSampler
{
  public:
    OffsetSampler(const OffsetSpec &spec, int64_t domain_units);

    /**
     * Draw one start offset in [0, span]. Uniform consumes exactly
     * one draw and equals rng.below(span + 1), preserving the
     * pre-traffic clients' histories bit-for-bit.
     */
    int64_t sample(Rng &rng, int64_t span) const;

    const OffsetSpec &spec() const { return spec_; }

  private:
    int64_t zipfRank(Rng &rng) const;

    OffsetSpec spec_;
    int64_t domain_;
    /** Gray et al. zipfian precompute (valid when kind == Zipf). */
    double zeta_n_ = 0.0;
    double alpha_ = 0.0;
    double eta_ = 0.0;
    double half_pow_theta_ = 0.0;
};

} // namespace traffic
} // namespace pddl

#endif // PDDL_TRAFFIC_OFFSET_DIST_HH
