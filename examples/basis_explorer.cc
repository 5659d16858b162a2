/**
 * @file
 * Domain example: explore a basis gate's computational power. Loads the
 * monodromy coverage sets for a chosen iSWAP fraction, prints coverage
 * per depth with and without mirror gates, Haar scores, and the cost of
 * common gates -- the Section III analysis as a command-line tool.
 *
 *   $ ./examples/basis_explorer [root-degree]
 */

#include <cstdio>
#include <cstdlib>

#include "monodromy/cost_model.hh"
#include "monodromy/scores.hh"
#include "weyl/catalog.hh"

using namespace mirage;
using namespace mirage::monodromy;

int
main(int argc, char **argv)
{
    int n = argc > 1 ? std::atoi(argv[1]) : 2;
    if (n < 1 || n > 4) {
        std::fprintf(stderr, "root degree must be in 1..4 (the roots "
                             "with committed coverage tables)\n");
        return 1;
    }

    const CoverageSet &cs = coverageForRootIswap(n);
    std::printf("basis: %s (duration %.3f iSWAP units)\n",
                cs.basis().name.c_str(), cs.basis().duration);

    std::printf("\ncoverage of the Weyl chamber (Haar-weighted):\n");
    std::printf("%4s %12s %12s\n", "k", "standard", "mirrored");
    for (int k = 1; k <= cs.kMax(); ++k) {
        std::printf("%4d %11.2f%% %11.2f%%\n", k,
                    100.0 * cs.haarFractionAt(k),
                    100.0 * cs.mirrorHaarFractionAt(k));
    }

    HaarScore plain = haarScoreExact(cs, false);
    HaarScore mirror = haarScoreExact(cs, true);
    std::printf("\nHaar score: %.4f (fidelity %.4f); with mirrors %.4f "
                "(%.4f)\n", plain.score, plain.fidelity, mirror.score,
                mirror.fidelity);

    CostModel cm(cs);
    struct Entry
    {
        const char *name;
        weyl::Coord coords;
    };
    const Entry gates[] = {
        {"CNOT", weyl::coordCNOT()},
        {"iSWAP", weyl::coordISWAP()},
        {"SWAP", weyl::coordSWAP()},
        {"B gate", weyl::coordB()},
        {"CP(pi/2)", weyl::coordCP(1.5707963267948966)},
        {"sqrt(SWAP)", weyl::canonicalize(0.3926990816987241,
                                          0.3926990816987241,
                                          0.3926990816987241)},
    };
    std::printf("\ngate costs (pulses x duration), plus mirror costs:\n");
    std::printf("%-12s %8s %8s %12s\n", "gate", "k", "cost", "mirror cost");
    for (const auto &e : gates) {
        std::printf("%-12s %8d %8.2f %12.2f\n", e.name, cm.kFor(e.coords),
                    cm.costOf(e.coords), cm.mirrorCostOf(e.coords));
    }
    return 0;
}
