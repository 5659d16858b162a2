/**
 * @file
 * Optimizers: Adam with analytic gradients for the decomposition
 * ansatz and a generic Nelder-Mead simplex for derivative-free
 * objectives.
 */

#include "decomp/optimize.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "decomp/ansatz.hh"

namespace mirage::decomp {

/** Adam's initial step size (halved every 100 iterations below). */
constexpr double kAdamLearningRate = 0.1;

AnsatzFit
fitAnsatz(const Mat4 &target, const Mat4 &basis, int k, Rng &rng,
          const FitOptions &opts)
{
    const int np = ansatzParamCount(k);
    AnsatzFit best;
    best.params.assign(size_t(np), 0.0);
    best.fidelity = -1;

    int evals = 0;
    for (int restart = 0; restart < opts.restarts; ++restart) {
        std::vector<double> p(static_cast<size_t>(np));
        if (restart == 0 && int(opts.initialGuess.size()) == np) {
            p = opts.initialGuess;
        } else {
            for (auto &x : p)
                x = rng.uniform(-linalg::kPi, linalg::kPi);
        }

        // Adam with analytic gradients (maximize fidelity = minimize -F).
        std::vector<double> m(size_t(np), 0.0), v(size_t(np), 0.0);
        std::vector<double> grad;
        double fid = 0;
        const double b1 = 0.9, b2 = 0.999, eps = 1e-8;
        double lr = kAdamLearningRate;
        for (int it = 1; it <= opts.adamIterations; ++it) {
            fid = ansatzFidelity(target, basis, k, p, &grad);
            ++evals;
            if (1.0 - fid < opts.targetInfidelity)
                break;
            // Light learning-rate decay stabilizes the tail.
            if (it % 100 == 0)
                lr *= 0.5;
            for (int i = 0; i < np; ++i) {
                double gneg = -grad[size_t(i)]; // minimizing -F
                m[size_t(i)] = b1 * m[size_t(i)] + (1 - b1) * gneg;
                v[size_t(i)] = b2 * v[size_t(i)] + (1 - b2) * gneg * gneg;
                double mh = m[size_t(i)] / (1 - std::pow(b1, it));
                double vh = v[size_t(i)] / (1 - std::pow(b2, it));
                p[size_t(i)] -= lr * mh / (std::sqrt(vh) + eps);
            }
        }
        fid = ansatzFidelity(target, basis, k, p, nullptr);
        ++evals;
        if (fid > best.fidelity) {
            best.fidelity = fid;
            best.params = p;
        }
        if (1.0 - best.fidelity < opts.targetInfidelity)
            break;
    }

    if (opts.polish && 1.0 - best.fidelity > opts.targetInfidelity) {
        ObjectiveFn obj = [&](const std::vector<double> &p) {
            ++evals;
            return 1.0 - ansatzFidelity(target, basis, k, p, nullptr);
        };
        double val = 0;
        auto polished = nelderMead(obj, best.params, 0.05, 2000, &val);
        if (1.0 - val > best.fidelity) {
            best.fidelity = 1.0 - val;
            best.params = polished;
        }
    }

    best.evaluations = evals;
    return best;
}

std::vector<double>
nelderMead(const ObjectiveFn &f, std::vector<double> start, double step,
           int max_evals, double *best_value)
{
    const size_t n = start.size();
    MIRAGE_ASSERT(n >= 1, "empty start point");

    struct Point
    {
        std::vector<double> x;
        double v;
    };
    std::vector<Point> simplex;
    simplex.reserve(n + 1);

    int evals = 0;
    auto eval = [&](const std::vector<double> &x) {
        ++evals;
        return f(x);
    };

    simplex.push_back({start, eval(start)});
    for (size_t i = 0; i < n; ++i) {
        auto x = start;
        x[i] += step;
        simplex.push_back({x, eval(x)});
    }

    const double alpha = 1.0, gamma = 2.0, rho = 0.5, sigma = 0.5;
    while (evals < max_evals) {
        std::sort(simplex.begin(), simplex.end(),
                  [](const Point &a, const Point &b) { return a.v < b.v; });
        if (simplex.back().v - simplex.front().v < 1e-14)
            break;

        // Centroid of all but worst.
        std::vector<double> c(n, 0.0);
        for (size_t i = 0; i < n; ++i) {
            for (size_t j = 0; j < n; ++j)
                c[j] += simplex[i].x[j];
        }
        for (auto &x : c)
            x /= double(n);

        auto &worst = simplex.back();
        std::vector<double> xr(n);
        for (size_t j = 0; j < n; ++j)
            xr[j] = c[j] + alpha * (c[j] - worst.x[j]);
        double vr = eval(xr);

        if (vr < simplex.front().v) {
            // Expand.
            std::vector<double> xe(n);
            for (size_t j = 0; j < n; ++j)
                xe[j] = c[j] + gamma * (xr[j] - c[j]);
            double ve = eval(xe);
            worst = (ve < vr) ? Point{xe, ve} : Point{xr, vr};
        } else if (vr < simplex[n - 1].v) {
            worst = {xr, vr};
        } else {
            // Contract.
            std::vector<double> xc(n);
            for (size_t j = 0; j < n; ++j)
                xc[j] = c[j] + rho * (worst.x[j] - c[j]);
            double vc = eval(xc);
            if (vc < worst.v) {
                worst = {xc, vc};
            } else {
                // Shrink toward best.
                for (size_t i = 1; i <= n; ++i) {
                    for (size_t j = 0; j < n; ++j)
                        simplex[i].x[j] = simplex[0].x[j] +
                                          sigma * (simplex[i].x[j] -
                                                   simplex[0].x[j]);
                    simplex[i].v = eval(simplex[i].x);
                }
            }
        }
    }

    std::sort(simplex.begin(), simplex.end(),
              [](const Point &a, const Point &b) { return a.v < b.v; });
    if (best_value)
        *best_value = simplex.front().v;
    return simplex.front().x;
}

} // namespace mirage::decomp
