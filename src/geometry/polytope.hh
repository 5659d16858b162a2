/**
 * @file
 * Convex polytopes in 3D via halfspace (H-) representation.
 *
 * The monodromy coverage sets live in the Weyl alcove; their facets have
 * small-integer normals in the canonical coordinates. This kernel supports
 * exactly the operations the coverage machinery needs: membership queries,
 * intersection, vertex enumeration (triples of facet planes), facet
 * extraction, tetrahedralization, and affine images (for the mirror
 * transform, which is piecewise affine).
 */

#ifndef MIRAGE_GEOMETRY_POLYTOPE_HH
#define MIRAGE_GEOMETRY_POLYTOPE_HH

#include <array>
#include <vector>

namespace mirage::geometry {

/** 3-vector. */
struct Vec3
{
    double x = 0, y = 0, z = 0;

    Vec3 operator+(const Vec3 &o) const { return {x + o.x, y + o.y, z + o.z}; }
    Vec3 operator-(const Vec3 &o) const { return {x - o.x, y - o.y, z - o.z}; }
    Vec3 operator*(double s) const { return {x * s, y * s, z * s}; }
    double dot(const Vec3 &o) const { return x * o.x + y * o.y + z * o.z; }
    Vec3 cross(const Vec3 &o) const
    {
        return {y * o.z - z * o.y, z * o.x - x * o.z, x * o.y - y * o.x};
    }
    double norm() const;
};

/** Halfspace n . x <= d. */
struct Halfspace
{
    Vec3 n;
    double d = 0;

    double violation(const Vec3 &p) const { return n.dot(p) - d; }
};

/** Tetrahedron (for quadrature). */
struct Tetra
{
    std::array<Vec3, 4> v;

    double volume() const;
};

/** Convex polytope as an intersection of halfspaces. */
class Polytope
{
  public:
    Polytope() = default;
    explicit Polytope(std::vector<Halfspace> halfspaces)
        : hs_(std::move(halfspaces))
    {}

    const std::vector<Halfspace> &halfspaces() const { return hs_; }
    bool empty() const { return hs_.empty(); }

    bool contains(const Vec3 &p, double tol = 1e-9) const;

    /** Intersection (concatenated halfspace lists). */
    Polytope intersect(const Polytope &o) const;
    void addHalfspace(const Halfspace &h) { hs_.push_back(h); }

    /**
     * Enumerate vertices: intersections of facet-plane triples satisfying
     * all constraints, deduplicated.
     */
    std::vector<Vec3> vertices(double tol = 1e-7) const;

    /**
     * Drop halfspaces that are not tight at any vertex (redundant facets).
     * Requires the polytope to be full-dimensional.
     */
    void removeRedundancy(double tol = 1e-7);

    /**
     * Decompose into tetrahedra (facet fan around the vertex centroid).
     * Returns an empty list for lower-dimensional polytopes.
     */
    std::vector<Tetra> tetrahedralize(double tol = 1e-7) const;

    /** Euclidean volume (sum over tetrahedralization). */
    double volume() const;

    /** Affine image under x -> A x + b (A must be invertible). */
    Polytope affineImage(const std::array<double, 9> &a,
                         const Vec3 &b) const;

  private:
    std::vector<Halfspace> hs_;
};

/** The positive-canonical Weyl alcove as a polytope (radians). */
Polytope weylAlcove();

/**
 * The signed Weyl chamber { pi/4 >= x >= y >= |z| } (radians) -- the
 * domain in which monodromy coverage polytopes are convex.
 */
Polytope signedChamber();

} // namespace mirage::geometry

#endif // MIRAGE_GEOMETRY_POLYTOPE_HH
