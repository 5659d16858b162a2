/**
 * @file
 * Monodromy coverage sets: construction of the alcove polytopes
 * reachable by k basis applications and their mirror-extended
 * counterparts (paper Section III), the registry serving the committed
 * tables, and the generator that renders those tables.
 */

#include "monodromy/coverage.hh"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <map>
#include <numeric>
#include <stdexcept>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/serial.hh"
#include "decomp/optimize.hh"
#include "geometry/quadrature.hh"
#include "monodromy/haar_density.hh"
#include "weyl/can.hh"
#include "weyl/catalog.hh"

namespace mirage::monodromy {

using geometry::Halfspace;
using geometry::Vec3;
using linalg::kPi;

BasisSpec
BasisSpec::rootIswap(int n)
{
    MIRAGE_ASSERT(n >= 1, "bad iSWAP root degree");
    BasisSpec b;
    b.name = (n == 1) ? "iswap" : ("riswap-" + std::to_string(n));
    b.matrix = weyl::gateRootISWAP(n);
    b.coords = weyl::coordRootISWAP(n);
    b.duration = 1.0 / n;
    b.gridDivisor = n;
    return b;
}

BasisSpec
BasisSpec::cnot()
{
    BasisSpec b;
    b.name = "cnot";
    b.matrix = weyl::gateCX();
    b.coords = weyl::coordCNOT();
    b.duration = 1.0;
    b.gridDivisor = 1;
    return b;
}

namespace {

/**
 * The numeric construction's fixed budget: random interleaved products
 * per k, Nelder-Mead evaluations per support direction, the largest k
 * built, and the sampler seed. `mirage coverage check` pins the
 * committed tables to exactly these values.
 */
constexpr int kSamplesPerK = 6000;
constexpr int kRefineEvals = 250;
constexpr int kMaxK = 8;
constexpr uint64_t kSamplerSeed = 0x5EEDULL;

/** Candidate facet directions: integer vectors with |component| <= 2,
 * primitive (gcd 1), both orientations kept. */
const std::vector<Vec3> &
candidateDirections()
{
    static const std::vector<Vec3> dirs = [] {
        std::vector<Vec3> out;
        auto gcd3 = [](int a, int b, int c) {
            a = std::abs(a);
            b = std::abs(b);
            c = std::abs(c);
            int g = std::gcd(a, std::gcd(b, c));
            return g == 0 ? 1 : g;
        };
        std::vector<std::array<int, 3>> seen;
        for (int i = -2; i <= 2; ++i) {
            for (int j = -2; j <= 2; ++j) {
                for (int k = -2; k <= 2; ++k) {
                    if (i == 0 && j == 0 && k == 0)
                        continue;
                    int g = gcd3(i, j, k);
                    std::array<int, 3> v = {i / g, j / g, k / g};
                    if (std::find(seen.begin(), seen.end(), v) != seen.end())
                        continue;
                    seen.push_back(v);
                    out.push_back(Vec3{double(v[0]), double(v[1]),
                                       double(v[2])});
                }
            }
        }
        return out;
    }();
    return dirs;
}

/** Product of k basis applications with the given interleaver params. */
Mat4
interleavedProduct(const Mat4 &basis, int k, const std::vector<double> &p)
{
    Mat4 w = basis;
    for (int j = 0; j < k - 1; ++j) {
        const double *q = p.data() + 6 * j;
        Mat4 local = linalg::kron(weyl::gateU3(q[0], q[1], q[2]),
                                  weyl::gateU3(q[3], q[4], q[5]));
        w = basis * (local * w);
    }
    return w;
}

Vec3
signedVec(const weyl::Coord &c)
{
    auto s = weyl::signedRep(c);
    return Vec3{s[0], s[1], s[2]};
}

/**
 * Landmark coordinates (alcove vertices, edge midpoints, centroid) whose
 * reachability is certified by direct numerical fits. Random sampling
 * alone misses the chamber corners because the Haar density vanishes
 * there; a certified landmark pins the supports exactly.
 */
const std::vector<Vec3> &
landmarkPoints()
{
    static const std::vector<Vec3> pts = [] {
        const double q = kPi / 4.0;
        std::vector<Vec3> out = {
            {0, 0, 0},             // identity
            {q, 0, 0},             // CNOT
            {q, q, 0},             // iSWAP
            {q, q, q},             // SWAP
            {q, q, -q},            // SWAP (other boundary sign)
            {q / 2, q / 2, 0},     // sqrt(iSWAP)
            {q / 2, q / 2, q / 2}, // sqrt(SWAP)
            {q / 2, q / 2, -q / 2}, // sqrt(SWAP)^dagger
            {q, q / 2, 0},         // B gate
            {q, q / 2, q / 2},     //
            {q, q / 2, -q / 2},    //
            {q, q, q / 2},         //
            {q, q, -q / 2},        //
            {q / 2, 0, 0},         // sqrt(CNOT) class
            {3 * q / 4, q / 2, q / 4},  // interior points
            {3 * q / 4, q / 2, -q / 4},
        };
        // All landmarks must be genuine signed-chamber points: the
        // supports are enforced on the raw coordinates.
        for (const auto &p : out) {
            MIRAGE_ASSERT(weyl::inSignedChamber({p.x, p.y, p.z}, 1e-9),
                          "landmark outside the signed chamber");
        }
        return out;
    }();
    return pts;
}

/** Point polytope at a coordinate (six axis-aligned halfspaces). */
Polytope
pointPolytope(const weyl::Coord &c)
{
    auto s = weyl::signedRep(c);
    std::vector<Halfspace> hs = {
        {{1, 0, 0}, s[0]},  {{-1, 0, 0}, -s[0]}, {{0, 1, 0}, s[1]},
        {{0, -1, 0}, -s[1]}, {{0, 0, 1}, s[2]},  {{0, 0, -1}, -s[2]},
    };
    return Polytope(std::move(hs));
}

} // namespace

std::vector<Polytope>
mirrorImage(const Polytope &region)
{
    // Eq. 1 in signed-chamber coordinates is piecewise affine with the
    // branch split on the sign of z:
    //   z <= 0:  (x,y,z) -> (pi/4+z, pi/4-y, pi/4-x)
    //   z >= 0:  (x,y,z) -> (pi/4-z, pi/4-y, x-pi/4)
    // and both branches map the chamber into itself.
    const double q = kPi / 4.0;
    Polytope chamber = geometry::signedChamber();

    Polytope lower = region;
    lower.addHalfspace(Halfspace{{0, 0, 1}, 0}); // z <= 0
    Polytope piece1 =
        lower.affineImage({0, 0, 1, 0, -1, 0, -1, 0, 0}, Vec3{q, q, q})
            .intersect(chamber);

    Polytope upper = region;
    upper.addHalfspace(Halfspace{{0, 0, -1}, 0}); // z >= 0
    Polytope piece2 =
        upper.affineImage({0, 0, -1, 0, -1, 0, 1, 0, 0}, Vec3{q, q, -q})
            .intersect(chamber);

    return {piece1, piece2};
}

CoverageSet::CoverageSet(BasisSpec basis, std::vector<Polytope> perK)
    : basis_(std::move(basis)), perK_(std::move(perK))
{
    for (const auto &poly : perK_) {
        auto pieces = mirrorImage(poly);
        pieces.insert(pieces.begin(), poly);
        mirror_.push_back(std::move(pieces));
    }
}

CoverageSet
CoverageSet::build(const BasisSpec &basis, const CoverageSet *parent,
                   int parent_stride)
{
    std::vector<Polytope> perK;

    Rng rng(kSamplerSeed);
    const auto &dirs = candidateDirections();
    const double grid = kPi / (16.0 * basis.gridDivisor);
    const double snap_tol = 0.012;
    const double q4 = kPi / 4.0;

    // k = 1: a single point (up to local gates).
    perK.push_back(
        pointPolytope(basis.coords).intersect(geometry::signedChamber()));

    std::vector<Vec3> prev_vertices = {signedVec(basis.coords)};
    std::vector<bool> certified(landmarkPoints().size(), false);
    Rng fit_rng(kSamplerSeed ^ 0xF17ULL);

    for (int k = 2; k <= kMaxK; ++k) {
        const int nparams = 6 * (k - 1);
        std::vector<double> supports(dirs.size(),
                                     -std::numeric_limits<double>::infinity());
        std::vector<std::vector<double>> argmax(dirs.size());

        // Nesting: P_{k-1} subset P_k, so its vertices lower-bound every
        // support exactly.
        for (size_t d = 0; d < dirs.size(); ++d) {
            for (const auto &v : prev_vertices)
                supports[d] = std::max(supports[d], dirs[d].dot(v));
        }

        // Bulk sampling of interleaved products.
        for (int s = 0; s < kSamplesPerK; ++s) {
            std::vector<double> p(static_cast<size_t>(nparams));
            for (auto &x : p)
                x = rng.uniform(-kPi, kPi);
            weyl::Coord c =
                weyl::weylCoordinates(interleavedProduct(basis.matrix, k, p));
            Vec3 v = signedVec(c);
            for (size_t d = 0; d < dirs.size(); ++d) {
                double h = dirs[d].dot(v);
                if (h > supports[d]) {
                    supports[d] = h;
                    argmax[d] = p;
                }
            }
        }

        // Exact inherited bounds: j parent-basis gates = j*stride gates
        // of this basis, so the parent polytope's vertices belong to
        // P_k for every j with j*stride <= k.
        if (parent && parent_stride >= 1) {
            int j = std::min(k / parent_stride, parent->kMax());
            if (j >= 1) {
                for (const auto &v :
                     parent->polytope(j).vertices()) {
                    for (size_t d = 0; d < dirs.size(); ++d)
                        supports[d] =
                            std::max(supports[d], dirs[d].dot(v));
                }
            }
        }

        // Exact power landmarks: k consecutive basis pulses realize
        // CAN(k*beta, k*beta, 0) with no interleavers, pinning the
        // x+y direction for free.
        for (int j = 1; j <= k; ++j) {
            weyl::Coord pw = weyl::canonicalize(
                j * basis.coords.a, j * basis.coords.b, j * basis.coords.c);
            Vec3 v = signedVec(pw);
            for (size_t d = 0; d < dirs.size(); ++d)
                supports[d] = std::max(supports[d], dirs[d].dot(v));
            // The x == pi/4 face carries both z-sign representatives.
            if (std::fabs(v.x - kPi / 4.0) < 1e-9) {
                Vec3 w{v.x, v.y, -v.z};
                for (size_t d = 0; d < dirs.size(); ++d)
                    supports[d] = std::max(supports[d], dirs[d].dot(w));
            }
        }

        // Landmark certification: direct numerical fits prove membership
        // of chamber corners the random sampling cannot reach.
        {
            decomp::FitOptions fo;
            fo.restarts = 5 + k / 2;
            fo.adamIterations = 350 + 60 * k;
            fo.targetInfidelity = 1e-10;
            const auto &pts = landmarkPoints();
            for (size_t i = 0; i < pts.size(); ++i) {
                if (certified[i])
                    continue;
                Mat4 target = weyl::canonicalGate(pts[i].x, pts[i].y,
                                                  pts[i].z);
                auto fit = decomp::fitAnsatz(target, basis.matrix, k,
                                             fit_rng, fo);
                // Reachable fits converge to ~1e-9 infidelity while
                // unreachable landmarks stall around 1e-3; 1e-6 separates
                // the two regimes with orders of magnitude to spare.
                if (fit.fidelity >= 1.0 - 1e-6)
                    certified[i] = true;
            }
            for (size_t d = 0; d < dirs.size(); ++d) {
                for (size_t i = 0; i < pts.size(); ++i) {
                    if (certified[i])
                        supports[d] =
                            std::max(supports[d], dirs[d].dot(pts[i]));
                }
            }
        }

        // Per-direction support refinement.
        for (size_t d = 0; d < dirs.size(); ++d) {
            if (argmax[d].empty())
                continue;
            decomp::ObjectiveFn obj = [&](const std::vector<double> &p) {
                weyl::Coord c = weyl::weylCoordinates(
                    interleavedProduct(basis.matrix, k, p));
                return -dirs[d].dot(signedVec(c));
            };
            double val = 0;
            decomp::nelderMead(obj, argmax[d], 0.15, kRefineEvals, &val);
            supports[d] = std::max(supports[d], -val);
        }

        // Snap supports onto the rational grid; pad un-snapped values so
        // the polytope never excludes genuinely reachable points.
        std::vector<Halfspace> hs;
        for (size_t d = 0; d < dirs.size(); ++d) {
            double h = supports[d];
            double snapped = std::round(h / grid) * grid;
            if (std::fabs(snapped - h) <= snap_tol)
                h = snapped;
            else
                h += 1e-9;
            hs.push_back(Halfspace{dirs[d], h});
        }
        Polytope poly =
            Polytope(std::move(hs)).intersect(geometry::signedChamber());
        poly.removeRedundancy();

        prev_vertices = poly.vertices();
        perK.push_back(std::move(poly));

        // Full coverage is a geometric fact: the polytope is convex, so
        // it equals the chamber as soon as it contains all four chamber
        // vertices.
        const Vec3 chamber_vertices[4] = {
            {0, 0, 0}, {q4, 0, 0}, {q4, q4, q4}, {q4, q4, -q4}};
        bool full = true;
        for (const auto &v : chamber_vertices) {
            if (!perK.back().contains(v, 1e-9)) {
                full = false;
                break;
            }
        }
        if (full)
            break;
    }
    return CoverageSet(basis, std::move(perK));
}

int
CoverageSet::minK(const Coord &c) const
{
    // The identity class costs nothing (this is what makes the mirror of
    // a SWAP free: SWAP * SWAP = I is pure relabeling).
    if (c.a < 1e-9 && c.b < 1e-9 && c.c < 1e-9)
        return 0;
    auto s = weyl::signedRep(c);
    std::array<Vec3, 2> reps = {Vec3{s[0], s[1], s[2]}};
    size_t num_reps = 1;
    // On the x == pi/4 face the class has both z-sign representatives.
    if (std::fabs(s[0] - kPi / 4.0) < 1e-9 && std::fabs(s[2]) > 1e-12)
        reps[num_reps++] = Vec3{s[0], s[1], -s[2]};
    for (int k = 1; k <= kMax(); ++k) {
        for (size_t r = 0; r < num_reps; ++r) {
            if (perK_[size_t(k - 1)].contains(reps[r], 1e-6))
                return k;
        }
    }
    // Numerical edge: fall back to the full-coverage depth.
    return kMax();
}

int
CoverageSet::minKMirrored(const Coord &c) const
{
    return std::min(minK(c), minK(weyl::mirrorCoord(c)));
}

double
CoverageSet::haarFractionAt(int k) const
{
    if (fracCache_.size() < perK_.size())
        fracCache_.assign(perK_.size(), -1.0);
    double &slot = fracCache_[size_t(k - 1)];
    if (slot < 0)
        slot = haarFraction(perK_[size_t(k - 1)]);
    return slot;
}

double
CoverageSet::mirrorHaarFractionAt(int k) const
{
    if (mirrorFracCache_.size() < mirror_.size())
        mirrorFracCache_.assign(mirror_.size(), -1.0);
    double &slot = mirrorFracCache_[size_t(k - 1)];
    if (slot < 0)
        slot = haarFraction(mirror_[size_t(k - 1)]);
    return slot;
}

namespace {

/** Roots of iSWAP covered by the committed tables (besides CNOT). */
constexpr int kTabulatedRoots = 4;

/**
 * Largest proper divisor of n (0 for n == 1): its coverage set is the
 * tightest exact parent for CoverageSet::build.
 */
int
parentRoot(int n)
{
    for (int m = n / 2; m >= 1; --m) {
        if (n % m == 0)
            return m;
    }
    return 0;
}

/** The committed coverage set for `basis` (which must have a table). */
CoverageSet
tabulatedCoverage(const BasisSpec &basis)
{
    for (const CoverageTable &table : committedCoverageTables()) {
        if (basis.name != table.basis)
            continue;
        std::vector<Polytope> perK;
        for (const auto &hs : table.perK)
            perK.emplace_back(std::vector<Halfspace>(hs.begin(), hs.end()));
        return CoverageSet(basis, std::move(perK));
    }
    panic("no committed coverage table for %s", basis.name.c_str());
}

/** The committed coverage set for root N, loaded on first use. */
template <int N>
const CoverageSet &
tabulatedRoot()
{
    static const CoverageSet cs = tabulatedCoverage(BasisSpec::rootIswap(N));
    return cs;
}

/**
 * Numeric build of root n, memoized in `memo` together with its divisor
 * parents: each is built on the largest proper divisor as exact parent.
 */
const CoverageSet &
rootCoverage(int n, std::map<int, CoverageSet> &memo)
{
    auto it = memo.find(n);
    if (it != memo.end())
        return it->second;
    const int m = parentRoot(n);
    CoverageSet cs = CoverageSet::build(BasisSpec::rootIswap(n),
                                        m ? &rootCoverage(m, memo) : nullptr,
                                        m ? n / m : 1);
    return memo.emplace(n, std::move(cs)).first->second;
}

/** C++ identifier fragment for a basis name ("riswap-2" -> "Riswap2"). */
std::string
tableIdentifier(const std::string &basis)
{
    std::string id;
    for (char c : basis) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            id += id.empty() ? char(std::toupper(c)) : c;
    }
    return id;
}

} // namespace

const CoverageSet &
coverageForRootIswap(int n)
{
    // One function-local static per root: thread-safe initialisation
    // with no lock, and only the roots a process asks for are loaded.
    static_assert(kTabulatedRoots == 4, "one case per tabulated root");
    switch (n) {
    case 1:
        return tabulatedRoot<1>();
    case 2:
        return tabulatedRoot<2>();
    case 3:
        return tabulatedRoot<3>();
    case 4:
        return tabulatedRoot<4>();
    }
    throw std::invalid_argument(
        "no coverage table for the " + std::to_string(n) +
        "-th root of iSWAP (tabulated roots: 1.." +
        std::to_string(kTabulatedRoots) + ")");
}

const CoverageSet &
coverageForCnot()
{
    static const CoverageSet cs = tabulatedCoverage(BasisSpec::cnot());
    return cs;
}

CoverageSet
buildRootIswapCoverage(int n)
{
    std::map<int, CoverageSet> built;
    return rootCoverage(n, built);
}

std::string
generateCoverageTables()
{
    std::vector<CoverageSet> sets = {CoverageSet::build(BasisSpec::cnot())};
    std::map<int, CoverageSet> built;
    for (int n = 1; n <= kTabulatedRoots; ++n)
        sets.push_back(rootCoverage(n, built));

    std::string out =
        "/**\n"
        " * @file\n"
        " * Committed monodromy coverage polytopes: P_1..P_kMax per basis\n"
        " * gate as halfspaces n . x <= d in signed-chamber coordinates,\n"
        " * stored as hexfloat so they reload bit-exactly.\n"
        " *\n"
        " * Generated by `mirage coverage build`, do not edit. `mirage\n"
        " * coverage check` rebuilds them numerically and byte-compares.\n"
        " */\n"
        "\n"
        "#include \"monodromy/coverage.hh\"\n"
        "\n"
        "namespace mirage::monodromy {\n"
        "\n"
        "namespace {\n"
        "\n"
        "using geometry::Halfspace;\n"
        "using Run = std::span<const Halfspace>;\n";
    std::string tables;
    for (const CoverageSet &cs : sets) {
        const std::string id = "k" + tableIdentifier(cs.basis().name);
        std::string runs;
        out += "\n// " + cs.basis().name + "\n";
        for (int k = 1; k <= cs.kMax(); ++k) {
            const std::string run = id + "K" + std::to_string(k);
            out += "constexpr Halfspace " + run + "[] = {\n";
            for (const Halfspace &h : cs.polytope(k).halfspaces())
                out += "    {{" + serial::encodeDouble(h.n.x) + ", " +
                       serial::encodeDouble(h.n.y) + ", " +
                       serial::encodeDouble(h.n.z) + "}, " +
                       serial::encodeDouble(h.d) + "},\n";
            out += "};\n";
            runs += "    " + run + ",\n";
        }
        out += "constexpr Run " + id + "[] = {\n" + runs + "};\n";
        tables += "    {\"" + cs.basis().name + "\", " + id + "},\n";
    }
    out += "\n"
           "constexpr CoverageTable kTables[] = {\n" +
           tables +
           "};\n"
           "\n"
           "} // namespace\n"
           "\n"
           "std::span<const CoverageTable>\n"
           "committedCoverageTables()\n"
           "{\n"
           "    return kTables;\n"
           "}\n"
           "\n"
           "} // namespace mirage::monodromy\n";
    return out;
}

} // namespace mirage::monodromy
