/**
 * @file
 * Numerical decomposition front-end: exact and best-approximation
 * fits of two-qubit targets in k basis applications with seeded
 * optimizer restarts.
 */

#include "decomp/numerical.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "decomp/ansatz.hh"
#include "weyl/can.hh"
#include "weyl/catalog.hh"
#include "weyl/kak.hh"

namespace mirage::decomp {

Decomposition
decomposeWithK(const Mat4 &target, const Mat4 &basis, int k, Rng &rng,
               const FitOptions &opts)
{
    Decomposition d;
    d.k = k;
    AnsatzFit fit = fitAnsatz(target, basis, k, rng, opts);
    d.fidelity = fit.fidelity;
    d.params = fit.params;
    d.evaluations = uint64_t(fit.evaluations);
    return d;
}

namespace {

/** Write the ZYZ angles of `m` into three consecutive U3 parameters. */
void
setU3Params(std::vector<double> &params, size_t base, const linalg::Mat2 &m)
{
    auto ang = weyl::eulerZYZ(m);
    params[base] = ang[0];
    params[base + 1] = ang[1];
    params[base + 2] = ang[2];
}

Mat2
u3Of(const std::vector<double> &params, size_t base)
{
    return weyl::gateU3(params[base], params[base + 1], params[base + 2]);
}

/**
 * Continuation fallback for canonical targets near a degenerate Weyl
 * chamber vertex (identity, iSWAP, SWAP). The fit landscape of CAN(c)
 * degrades as c approaches a vertex -- the QFT's small-angle
 * controlled-phase tail and near-SWAP mirrored blocks routinely stall
 * around 1e-5..1e-7 infidelity -- but it is benign at moderate
 * distance. So walk a geometric distance schedule along the straight
 * line from a well-conditioned pulled-out anchor down to the real
 * target, warm-starting each step from the previous solution. Both the
 * vertex and the target lie in the (convex) k-pulse coverage polytope,
 * so every intermediate point is a valid k-pulse target.
 */
Decomposition
fitCanonicalByContinuation(const weyl::Coord &c, const Mat4 &basis, int k,
                           Rng &rng, const FitOptions &opts)
{
    constexpr double kComfortDistance = 0.125;
    constexpr int kSteps = 6;
    const double quarter_pi = linalg::kPi / 4.0;
    const double vertices[][3] = {
        {0.0, 0.0, 0.0},                      // identity
        {quarter_pi, quarter_pi, 0.0},        // iSWAP
        {quarter_pi, quarter_pi, quarter_pi}, // SWAP
    };

    Decomposition d;
    d.k = k;
    d.fidelity = -1;

    // Nearest degenerate vertex and the offset direction from it.
    double best_dist = -1;
    double dir[3] = {0, 0, 0};
    for (const auto &v : vertices) {
        double da = c.a - v[0], db = c.b - v[1], dc = c.c - v[2];
        double dist = std::sqrt(da * da + db * db + dc * dc);
        if (best_dist < 0 || dist < best_dist) {
            best_dist = dist;
            dir[0] = da;
            dir[1] = db;
            dir[2] = dc;
        }
    }
    if (best_dist <= 0.0 || best_dist >= kComfortDistance)
        return d; // not the stall zone; caller keeps the direct fit
    for (double &x : dir)
        x /= best_dist;
    const double va = c.a - dir[0] * best_dist;
    const double vb = c.b - dir[1] * best_dist;
    const double vc = c.c - dir[2] * best_dist;

    FitOptions step_opts = opts;
    for (int j = 0; j <= kSteps; ++j) {
        double m = kComfortDistance *
                   std::pow(best_dist / kComfortDistance,
                            double(j) / kSteps);
        Mat4 target = weyl::canonicalGate(va + dir[0] * m, vb + dir[1] * m,
                                          vc + dir[2] * m);
        AnsatzFit fit = fitAnsatz(target, basis, k, rng, step_opts);
        d.evaluations += uint64_t(fit.evaluations);
        step_opts.initialGuess = fit.params;
        step_opts.restarts = 1; // track the branch; warm start suffices
        if (j == kSteps) {
            d.fidelity = fit.fidelity;
            d.params = std::move(fit.params);
        }
    }
    return d;
}

} // namespace

Decomposition
decomposeViaCanonical(const Mat4 &target, const Mat4 &basis, int k, Rng &rng,
                      const FitOptions &opts)
{
    weyl::KakDecomposition kak = weyl::kakDecompose(target);
    Mat4 canonical =
        weyl::canonicalGate(kak.coords.a, kak.coords.b, kak.coords.c);
    Decomposition d = decomposeWithK(canonical, basis, k, rng, opts);
    if (k >= 1 && 1.0 - d.fidelity > opts.targetInfidelity) {
        Decomposition cont =
            fitCanonicalByContinuation(kak.coords, basis, k, rng, opts);
        // Evaluations measure work DONE, so the continuation's cost is
        // charged whether or not its branch wins.
        uint64_t total = d.evaluations + cont.evaluations;
        if (cont.fidelity > d.fidelity)
            d = cont;
        d.evaluations = total;
    }

    // target = e^{i phase} (l1 x l2) CAN (r1 x r2): fold the exact local
    // factors into the first (rightmost) and last ansatz layers. Global
    // phases dropped by the ZYZ extraction do not affect fidelity.
    const size_t last = size_t(6 * k);
    if (k == 0) {
        setU3Params(d.params, 0, kak.l1 * u3Of(d.params, 0) * kak.r1);
        setU3Params(d.params, 3, kak.l2 * u3Of(d.params, 3) * kak.r2);
    } else {
        setU3Params(d.params, 0, u3Of(d.params, 0) * kak.r1);
        setU3Params(d.params, 3, u3Of(d.params, 3) * kak.r2);
        setU3Params(d.params, last, kak.l1 * u3Of(d.params, last));
        setU3Params(d.params, last + 3, kak.l2 * u3Of(d.params, last + 3));
    }
    d.fidelity = ansatzFidelity(target, basis, k, d.params, nullptr);
    d.evaluations += 1; // the re-evaluation above
    return d;
}

Decomposition
decomposeMinimal(const Mat4 &target, const Mat4 &basis, int max_k,
                 double min_fidelity, Rng &rng, const FitOptions &opts)
{
    Decomposition best;
    best.fidelity = -1;
    uint64_t total = 0;
    for (int k = 0; k <= max_k; ++k) {
        Decomposition d = decomposeWithK(target, basis, k, rng, opts);
        total += d.evaluations;
        if (d.fidelity > best.fidelity)
            best = d;
        if (d.fidelity >= min_fidelity) {
            d.evaluations = total;
            return d;
        }
    }
    best.evaluations = total;
    return best;
}

void
appendDecomposition(circuit::Circuit &circ, const Decomposition &d,
                    int root_degree, int qa, int qb)
{
    MIRAGE_ASSERT(int(d.params.size()) == ansatzParamCount(d.k),
                  "malformed decomposition");
    auto layer = [&](int i) {
        const double *p = d.params.data() + 6 * i;
        circ.append(circuit::makeUnitary1(
            qa, weyl::gateU3(p[0], p[1], p[2])));
        circ.append(circuit::makeUnitary1(
            qb, weyl::gateU3(p[3], p[4], p[5])));
    };
    layer(0);
    for (int i = 1; i <= d.k; ++i) {
        circ.riswap(root_degree, qa, qb);
        layer(i);
    }
}

} // namespace mirage::decomp
