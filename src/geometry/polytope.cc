/**
 * @file
 * H-representation polytope kernel: membership, intersection, vertex
 * enumeration from facet-plane triples, and facet geometry, all in
 * doubles with an explicit tolerance (no exact arithmetic).
 */

#include "geometry/polytope.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace mirage::geometry {

namespace {

constexpr double kPi = 3.14159265358979323846;

/** Solve the 3x3 system M x = rhs by Cramer's rule; false if singular. */
bool
solve3(const Vec3 &r0, const Vec3 &r1, const Vec3 &r2, const Vec3 &rhs,
       Vec3 *out)
{
    double det = r0.dot(r1.cross(r2));
    if (std::fabs(det) < 1e-12)
        return false;
    // Despite the name, solve with a small dense Gaussian elimination
    // rather than literal Cramer column replacement -- clearer and just
    // as fast at this size.
    double m[3][4] = {{r0.x, r0.y, r0.z, rhs.x},
                      {r1.x, r1.y, r1.z, rhs.y},
                      {r2.x, r2.y, r2.z, rhs.z}};
    for (int col = 0; col < 3; ++col) {
        int pivot = col;
        for (int r = col + 1; r < 3; ++r)
            if (std::fabs(m[r][col]) > std::fabs(m[pivot][col]))
                pivot = r;
        if (std::fabs(m[pivot][col]) < 1e-12)
            return false;
        if (pivot != col)
            for (int c = 0; c < 4; ++c)
                std::swap(m[pivot][c], m[col][c]);
        for (int r = 0; r < 3; ++r) {
            if (r == col)
                continue;
            double f = m[r][col] / m[col][col];
            for (int c = col; c < 4; ++c)
                m[r][c] -= f * m[col][c];
        }
    }
    out->x = m[0][3] / m[0][0];
    out->y = m[1][3] / m[1][1];
    out->z = m[2][3] / m[2][2];
    return true;
}

} // namespace

double
Vec3::norm() const
{
    return std::sqrt(x * x + y * y + z * z);
}

double
Tetra::volume() const
{
    Vec3 a = v[1] - v[0], b = v[2] - v[0], c = v[3] - v[0];
    return std::fabs(a.dot(b.cross(c))) / 6.0;
}

bool
Polytope::contains(const Vec3 &p, double tol) const
{
    for (const auto &h : hs_) {
        if (h.violation(p) > tol)
            return false;
    }
    return true;
}

Polytope
Polytope::intersect(const Polytope &o) const
{
    std::vector<Halfspace> hs = hs_;
    hs.insert(hs.end(), o.hs_.begin(), o.hs_.end());
    return Polytope(std::move(hs));
}

std::vector<Vec3>
Polytope::vertices(double tol) const
{
    std::vector<Vec3> verts;
    const size_t m = hs_.size();
    for (size_t i = 0; i < m; ++i) {
        for (size_t j = i + 1; j < m; ++j) {
            for (size_t k = j + 1; k < m; ++k) {
                Vec3 p;
                if (!solve3(hs_[i].n, hs_[j].n, hs_[k].n,
                            {hs_[i].d, hs_[j].d, hs_[k].d}, &p))
                    continue;
                if (!contains(p, tol))
                    continue;
                bool dup = false;
                for (const auto &q : verts) {
                    if ((p - q).norm() < 1e-7) {
                        dup = true;
                        break;
                    }
                }
                if (!dup)
                    verts.push_back(p);
            }
        }
    }
    return verts;
}

void
Polytope::removeRedundancy(double tol)
{
    auto verts = vertices(tol);
    if (verts.size() < 4)
        return;
    std::vector<Halfspace> kept;
    for (const auto &h : hs_) {
        int tight = 0;
        for (const auto &v : verts) {
            if (std::fabs(h.violation(v)) < tol * 10)
                ++tight;
        }
        if (tight >= 3)
            kept.push_back(h);
    }
    if (kept.size() >= 4)
        hs_ = std::move(kept);
}

std::vector<Tetra>
Polytope::tetrahedralize(double tol) const
{
    auto verts = vertices(tol);
    if (verts.size() < 4)
        return {};

    Vec3 centroid{0, 0, 0};
    for (const auto &v : verts)
        centroid = centroid + v;
    centroid = centroid * (1.0 / double(verts.size()));

    // Deduplicate facet planes (intersections routinely carry repeated
    // halfspaces; a repeated plane would double-count its face fan).
    std::vector<Halfspace> unique;
    for (const auto &h : hs_) {
        double nn = h.n.norm();
        if (nn < 1e-12)
            continue;
        Vec3 n = h.n * (1.0 / nn);
        double d = h.d / nn;
        bool dup = false;
        for (const auto &u : unique) {
            if ((u.n - n).norm() < 1e-9 && std::fabs(u.d - d) < 1e-9) {
                dup = true;
                break;
            }
        }
        if (!dup)
            unique.push_back(Halfspace{n, d});
    }

    std::vector<Tetra> tets;
    for (const auto &h : unique) {
        // Vertices tight on this facet.
        std::vector<Vec3> face;
        for (const auto &v : verts) {
            if (std::fabs(h.violation(v)) < tol * 10)
                face.push_back(v);
        }
        if (face.size() < 3)
            continue;

        // Order the face polygon by angle around its centroid.
        Vec3 fc{0, 0, 0};
        for (const auto &v : face)
            fc = fc + v;
        fc = fc * (1.0 / double(face.size()));

        Vec3 nrm = h.n;
        double nn = nrm.norm();
        if (nn < 1e-12)
            continue;
        nrm = nrm * (1.0 / nn);
        // In-plane orthonormal basis (u, w).
        Vec3 u = nrm.cross(Vec3{1, 0, 0});
        if (u.norm() < 1e-6)
            u = nrm.cross(Vec3{0, 1, 0});
        u = u * (1.0 / u.norm());
        Vec3 w = nrm.cross(u);

        std::sort(face.begin(), face.end(), [&](const Vec3 &a, const Vec3 &b) {
            Vec3 da = a - fc, db = b - fc;
            return std::atan2(da.dot(w), da.dot(u)) <
                   std::atan2(db.dot(w), db.dot(u));
        });

        for (size_t i = 1; i + 1 < face.size(); ++i) {
            Tetra t{{face[0], face[i], face[i + 1], centroid}};
            if (t.volume() > 1e-14)
                tets.push_back(t);
        }
    }
    return tets;
}

double
Polytope::volume() const
{
    double vol = 0;
    for (const auto &t : tetrahedralize())
        vol += t.volume();
    return vol;
}

Polytope
Polytope::affineImage(const std::array<double, 9> &a, const Vec3 &b) const
{
    // Invert A (row-major 3x3).
    const double *m = a.data();
    double det = m[0] * (m[4] * m[8] - m[5] * m[7]) -
                 m[1] * (m[3] * m[8] - m[5] * m[6]) +
                 m[2] * (m[3] * m[7] - m[4] * m[6]);
    MIRAGE_ASSERT(std::fabs(det) > 1e-12, "affine map is singular");
    double inv[9] = {
        (m[4] * m[8] - m[5] * m[7]) / det, (m[2] * m[7] - m[1] * m[8]) / det,
        (m[1] * m[5] - m[2] * m[4]) / det, (m[5] * m[6] - m[3] * m[8]) / det,
        (m[0] * m[8] - m[2] * m[6]) / det, (m[2] * m[3] - m[0] * m[5]) / det,
        (m[3] * m[7] - m[4] * m[6]) / det, (m[1] * m[6] - m[0] * m[7]) / det,
        (m[0] * m[4] - m[1] * m[3]) / det};

    // n . x <= d with x = A^{-1}(x' - b) becomes (A^{-T} n) . x' <= d +
    // (A^{-T} n) . b.
    std::vector<Halfspace> out;
    out.reserve(hs_.size());
    for (const auto &h : hs_) {
        Vec3 n2{inv[0] * h.n.x + inv[3] * h.n.y + inv[6] * h.n.z,
                inv[1] * h.n.x + inv[4] * h.n.y + inv[7] * h.n.z,
                inv[2] * h.n.x + inv[5] * h.n.y + inv[8] * h.n.z};
        out.push_back(Halfspace{n2, h.d + n2.dot(b)});
    }
    return Polytope(std::move(out));
}

Polytope
weylAlcove()
{
    std::vector<Halfspace> hs = {
        {{-1, 1, 0}, 0},        // b <= a
        {{0, -1, 1}, 0},        // c <= b
        {{0, 0, -1}, 0},        // 0 <= c
        {{1, 1, 0}, kPi / 2.0}, // a + b <= pi/2
    };
    return Polytope(std::move(hs));
}

Polytope
signedChamber()
{
    std::vector<Halfspace> hs = {
        {{1, 0, 0}, kPi / 4.0}, // x <= pi/4
        {{-1, 1, 0}, 0},        // y <= x
        {{0, -1, 1}, 0},        // z <= y
        {{0, -1, -1}, 0},       // -z <= y
    };
    return Polytope(std::move(hs));
}

} // namespace mirage::geometry
