"""Monte-Carlo privacy audit: estimate the realized privacy loss empirically.

The auditor runs a mechanism many times on two adjacent inputs, bins the
outputs, and reports the worst absolute log-ratio of bin frequencies.  It
cannot prove privacy, but it falsifies broken implementations: a correct
eps-DP mechanism never shows a qualified bin ratio materially above eps.

This demo audits a correct scalar Laplace mechanism, then a deliberately
broken one that uses half the noise it should.
"""

from gapdp import (
    AuditConfig,
    Laplace,
    QuerySet,
    adjacent_counts,
    estimate_epsilon,
    sample,
)

eps = 0.5
trials = 200_000
d = QuerySet((0.0,))
d_prime = adjacent_counts(d, {0}, +1)
cfg = AuditConfig(trials=trials, bin_width=0.1, min_count=2000, seed=0)


def correct_mechanism(qs, src):
    return (), (qs.values[0] + sample(Laplace(1.0 / eps), src),)


def broken_mechanism(qs, src):
    # Half the required scale: actually 2*eps-DP while claiming eps.
    return (), (qs.values[0] + sample(Laplace(0.5 / eps), src),)


for name, mech in (("correct", correct_mechanism), ("broken", broken_mechanism)):
    report = estimate_epsilon(mech, d, d_prime, cfg, eps_claimed=eps, mechanism=name)
    verdict = "FLAGGED" if report.flagged else "within bound"
    print(f"{name:8s} claimed eps={eps}: estimated {report.eps_hat:.3f} "
          f"(slack {report.slack:.3f}, {report.bins} bins) -> {verdict}")
    print("  json:", report.to_json())

print("\nThe standard suite audits every mechanism in the package on small")
print("worst-case inputs; run it via the CLI (a few seconds at 10^5 trials):")
print("  gapdp audit --eps 1.0 --trials 100000 --format json")
