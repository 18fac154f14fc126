"""Reference k-sample log-likelihoods for ``tests/test_ksample.py``.

Run ``PYTHONPATH=src python tests/data/make_ksample_refs.py`` (needs mpmath)
and paste its output into ``KSAMPLE_REFS`` of ``tests/test_ksample.py`` and
``DEGENERATE_NLL`` of ``tests/test_inference.py``.  For lambda = 1, mu = 0.5
(r = 0.5) and the trees below, it evaluates in 40-digit arithmetic

    log L_k = log k + (1-k) log a + log F(T) + sum log F'(x_i) + log I,
    I = int_0^1 w^{k-1} prod_{i=0}^{k-1} (1 + G_i w)^-2 dw,

with F(t) = 1 + (lambda/r)(e^{rt} - 1), a = 1 - 1/F(T), G_0 = F(T) - 1 and
G_i = F(x_i) - 1, at the exact binary values of the float depths.  I is a
trapezoid sum in s = logit w at step 1/8 over s in [-log G_0 - 80, 80].
It is cross-checked against ``mpmath.quad`` on pieces of width at most 2,
split also at the kinks -log G_i, relative to the largest node (quad's
tolerance is absolute, and I is as small as 1e-91 here).  A relative gap
above 1e-20 is printed beside the value; at this writing there is none.

``DEGENERATE_NLL`` is the summed negative log-likelihood, by the same
trapezoid, of the 80 k:3 trees that ``test_ksample_fit_moves_off_degenerate_rates``
draws at T = 40, at (lambda, mu) = (2, 1), where F(T) = 9.7e17.
"""

import mpmath as mp

mp.mp.dps = 40
LAM, MU = 1.0, 0.5
# Depths as fractions of T: near the tips, across (0, T), and near the root.
SHAPES = {
    3: {"shallow": (0.02, 0.05), "spread": (0.25, 0.7), "deep": (0.96, 0.99)},
    5: {
        "shallow": (0.01, 0.03, 0.05, 0.08),
        "spread": (0.1, 0.35, 0.6, 0.9),
        "deep": (0.955, 0.97, 0.98, 0.995),
    },
}


def reference(k, T, depths, lam=LAM, mu=MU, check=True):
    lam, r = mp.mpf(lam), mp.mpf(lam) - mp.mpf(mu)

    def F(t):
        return 1 + lam / r * mp.expm1(r * mp.mpf(t))

    G = [F(T) - 1] + [F(x) - 1 for x in depths]

    def integrand(s):
        w = 1 / (1 + mp.exp(-s))
        out = w**k * (1 - w)
        for g in G:
            out /= (1 + g * w) ** 2
        return out

    h, lo, hi = mp.mpf(1) / 8, -mp.log(G[0]) - 80, mp.mpf(80)
    nodes = [integrand(lo + j * h) for j in range(int((hi - lo) / h) + 1)]
    trap = h * mp.fsum(nodes)
    top = max(nodes)
    quad = trap
    if check:  # quad on pieces of width at most 2, split at the kinks as well
        points = sorted({*mp.linspace(lo, hi, int((hi - lo) / 2) + 2),
                         *(-mp.log(g) for g in G if lo < -mp.log(g) < hi)})
        quad = top * mp.quad(lambda s: integrand(s) / top, points)
    FT = F(T)
    log_a = mp.log1p(-1 / FT)
    prefactor = mp.log(k) + (1 - k) * log_a + mp.log(FT)
    log_dF = mp.fsum(mp.log(lam) + r * mp.mpf(x) for x in depths)
    return prefactor + log_dF + mp.log(trap), abs(quad / trap - 1)


def main():
    print("KSAMPLE_REFS = [  # (k, T, depths, log-likelihood)")
    for rT in (1, 15, 100):
        T = rT / (LAM - MU)
        for k, shapes in SHAPES.items():
            for name, fractions in shapes.items():
                depths = tuple(round(f * T, 12) for f in fractions)
                value, quad_gap = reference(k, T, depths)
                note = "" if quad_gap < 1e-20 else f"  # quad differs by {mp.nstr(quad_gap, 2)}"
                print(f"    ({k}, {T!r}, {depths!r}, {mp.nstr(value, 17)}),{note}  # {name}")
    print("]")

    from cppgen.cpp import RandomStream
    from cppgen.kernel import ClosedFormTail
    from cppgen.ksample import definetti_sample_many

    _, trees = definetti_sample_many(ClosedFormTail(1.0, 0.5, 40.0), 3, 80, RandomStream(10))
    total = mp.fsum(
        reference(3, 40.0, tuple(x), lam=2.0, mu=1.0, check=False)[0]
        for x in trees.depths.reshape(-1, 2)
    )
    print(f"DEGENERATE_NLL = {mp.nstr(-total, 17)}")


if __name__ == "__main__":
    main()
