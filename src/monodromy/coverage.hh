/**
 * @file
 * Monodromy coverage sets: the regions of the Weyl alcove reachable by
 * k applications of a basis gate interleaved with arbitrary single-qubit
 * gates, and their mirror-extended counterparts (paper Section III).
 *
 * The coverage regions are convex polytopes in the alcove with
 * small-integer facet normals (in canonical coordinates). They are
 * derived numerically but snapped exactly: deterministic seeded sampling
 * of interleaved products provides interior points; per-direction support
 * maximization (Nelder-Mead over the interleaver parameters) sharpens
 * each candidate facet; supports are snapped to the rational grid
 * pi/(16 n). Anchor values from the paper (e.g. sqrt(iSWAP) k=2 covers
 * 79.0% of Haar volume, 94.4% with mirrors) validate the construction in
 * the test suite.
 *
 * The numeric construction is a generator, not a start-up cost: its
 * output for CNOT and the 1st..4th roots of iSWAP is committed as
 * halfspace tables (coverage_tables.cc, written by `mirage coverage
 * build`), and the process-wide registry reads only those: it never
 * builds a polytope, so no request can start a numeric build.
 */

#ifndef MIRAGE_MONODROMY_COVERAGE_HH
#define MIRAGE_MONODROMY_COVERAGE_HH

#include <span>
#include <string>
#include <vector>

#include "geometry/polytope.hh"
#include "linalg/matrix.hh"
#include "weyl/coordinates.hh"

namespace mirage::monodromy {

using geometry::Polytope;
using linalg::Mat4;
using weyl::Coord;

/** A two-qubit basis gate with its cost model inputs. */
struct BasisSpec
{
    std::string name;
    Mat4 matrix;
    Coord coords;
    /** Pulse duration in iSWAP units (iSWAP = 1.0). */
    double duration = 1.0;
    /** Snapping grid divisor: facet offsets lie on pi/(16*gridDivisor). */
    int gridDivisor = 1;

    /** The n-th root of iSWAP (duration 1/n). */
    static BasisSpec rootIswap(int n);
    /** CNOT basis (duration conventionally 1.0). */
    static BasisSpec cnot();
};

/** Coverage sets P_1..P_kMax for one basis gate. */
class CoverageSet
{
  public:
    /**
     * Coverage sets from their polytopes P_1..P_kMax (e.g. a committed
     * table); the mirror-extended regions are derived with mirrorImage.
     */
    CoverageSet(BasisSpec basis, std::vector<Polytope> perK);

    /**
     * Build the coverage sets. When `parent` is given with stride s,
     * every j-gate product of the parent basis equals a (j*s)-gate
     * product of this basis (e.g. two 4th-roots make one sqrt), so the
     * parent's polytope vertices are exact lower bounds on the supports
     * of P_{j*s} -- this pins deep corners (SWAP, CNOT) exactly instead
     * of relying on numerical certification alone.
     */
    static CoverageSet build(const BasisSpec &basis,
                             const CoverageSet *parent = nullptr,
                             int parent_stride = 1);

    const BasisSpec &basis() const { return basis_; }
    /** Largest k computed; P_kMax covers the full alcove. */
    int kMax() const { return int(perK_.size()); }
    /** Region reachable with exactly <= k applications (1-based). */
    const Polytope &polytope(int k) const { return perK_[size_t(k - 1)]; }
    /** P_k together with its mirror image (union members). */
    const std::vector<Polytope> &mirrorRegion(int k) const
    {
        return mirror_[size_t(k - 1)];
    }

    /** Smallest k with coords inside P_k (tests both alcove reps). */
    int minK(const Coord &c) const;
    /** Smallest k with coords inside P_k or its mirror inside P_k. */
    int minKMirrored(const Coord &c) const;

    /** Haar-weighted fraction covered at k (cached). */
    double haarFractionAt(int k) const;
    /** Haar-weighted fraction covered at k with mirrors (cached). */
    double mirrorHaarFractionAt(int k) const;

  private:
    BasisSpec basis_;
    std::vector<Polytope> perK_;
    std::vector<std::vector<Polytope>> mirror_;
    mutable std::vector<double> fracCache_;
    mutable std::vector<double> mirrorFracCache_;
};

/**
 * Mirror image of a region: the two affine pieces of Eq. 1 applied to the
 * polytope, clipped to the alcove.
 */
std::vector<Polytope> mirrorImage(const Polytope &region);

/**
 * Process-wide coverage set for the n-th root of iSWAP, n in 1..4 (the
 * committed table, loaded on first use). Throws std::invalid_argument
 * for any other n.
 */
const CoverageSet &coverageForRootIswap(int n);
/** Process-wide coverage set for CNOT (committed table). */
const CoverageSet &coverageForCnot();

/** One basis's committed polytopes: halfspace runs for k = 1..kMax. */
struct CoverageTable
{
    const char *basis; ///< BasisSpec::name
    std::span<const std::span<const geometry::Halfspace>> perK;
};

/** The committed tables (generated coverage_tables.cc). */
std::span<const CoverageTable> committedCoverageTables();

/** Default location of the generated tables, relative to the repo root. */
inline constexpr const char *kCoverageTablesPath =
    "src/monodromy/coverage_tables.cc";

/**
 * Numeric build of the n-th root of iSWAP (any n >= 1) with its divisor
 * parents as exact parents; never reads the tables. The reference the
 * tables are checked against.
 */
CoverageSet buildRootIswapCoverage(int n);

/**
 * Source text of coverage_tables.cc: every tabulated basis (CNOT, then
 * the 1st..4th roots of iSWAP) built numerically, never reading the
 * committed tables, and rendered as hexfloat halfspaces.
 */
std::string generateCoverageTables();

} // namespace mirage::monodromy

#endif // MIRAGE_MONODROMY_COVERAGE_HH
