"""Self-test of the benchmark's checks: each must reject a planted wrong
output and accept the real one.

    python3 perfbench/selftest.py

Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from gapdp import audit as audit_mod  # noqa: E402
from gapdp import cli as cli_mod  # noqa: E402
from gapdp import harness as harness_mod  # noqa: E402
from gapdp import noise as noise_mod  # noqa: E402
from gapdp import queries as queries_mod  # noqa: E402
from gapdp import svt as svt_mod  # noqa: E402
from gapdp import topk as topk_mod  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(label: str, problems: list[str], reject: bool) -> None:
    ok = bool(problems) == reject
    verdict = "rejected" if problems else "accepted"
    print(f"{'PASS' if ok else 'FAIL'}: {label} -> {verdict}")
    if not ok:
        FAILURES.append(label)


def topk_replay() -> None:
    rng = np.random.default_rng(11)
    values = np.sort(rng.integers(0, 500, 40)).astype(float)
    k, eps = 5, 0.7
    u = rng.random(len(values))
    r = topk_mod.gap_topk(queries_mod.QuerySet(tuple(values), monotonic=True), k, eps,
                          "laplace", noise_mod.ReplaySource(u))
    ref = checks.topk_reference(values, k, eps, u)
    expect("top-k replay as released", checks.check_replay("topk", r.indices, r.gaps, *ref), False)
    swapped = list(r.indices)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    expect("top-k result with two indices swapped",
           checks.check_replay("topk", swapped, r.gaps, *ref), True)
    gaps = list(r.gaps)
    gaps[1] *= 1.0 + 1e-6
    expect("gap off by 1e-6 relative", checks.check_replay("topk", r.indices, gaps, *ref), True)


def audits() -> None:
    eps = workloads.AUDIT_EPS
    correct = harness_mod.standard_audit_cases(eps)[0]
    planted = workloads.planted_case(eps)
    for case, is_planted in ((correct, False), (planted, True)):
        cfg = audit_mod.AuditConfig(trials=workloads.AUDIT_TRIALS, bin_width=case.bin_width,
                                    min_count=case.min_count, seed=4)
        report = audit_mod.estimate_epsilon(case.mech, case.d, case.d_prime, cfg,
                                            eps_claimed=case.eps_claimed)
        expect(f"audit of {case.name} as what it is",
               checks.check_audit(case.name, report, case.eps_claimed, cfg.trials,
                                  cfg.min_count, planted=is_planted), False)
        if is_planted:
            expect("half-noise Laplace audit passed off as correct",
                   checks.check_audit(case.name, report, case.eps_claimed, cfg.trials,
                                      cfg.min_count, planted=False), True)


def csv_rows() -> None:
    inv = workloads.paper_invocations()[0]
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        out = Path(tmp) / "topk.csv"
        if cli_mod.main(inv.argv(inv.check_trials, 4, out)) != 0:
            raise RuntimeError(f"gapdp {inv.args[0]} failed")
        text = out.read_text()
    expect(f"{inv.label} CSV as emitted", inv.check(text), False)
    rows = checks.parse_rows(text)
    lines = text.splitlines()
    off = checks.closed_form("mse-reduction-topk", "laplace", workloads.TOPK_KS[1]) + 5.0
    lines[2] = lines[2].replace(rows[1]["empirical"], f"{off:g}", 1)
    expect("CSV row 5 points off its closed form", inv.check("\n".join(lines) + "\n"), True)


def ledgers() -> None:
    eps = 0.7
    cfg = svt_mod.SvtConfig(eps, 3, 50.0, 0.5, monotonic=True)
    q = queries_mod.QuerySet(tuple(float(v) for v in range(100)), monotonic=True)
    r = svt_mod.gap_svt(q, cfg, noise_mod.SeededSource(4))
    expect("SVT ledger as released", checks.check_ledger("gap_svt", r.ledger, eps), False)
    over = SimpleNamespace(allocated=eps, consumed=eps + 1e-6)
    expect("SVT ledger over its allocation", checks.check_ledger("gap_svt", over, eps), True)


def artifacts() -> None:
    record = {"workload": "dataset-release", "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}
    names = {"setup_s"}
    expect("result file of names, durations and counts", checks.scan_artifact(record, names), False)
    leaked = dict(record, spans={"mech.gap_topk": {"count": 1, "gap": 3.5}})
    expect("trace file holding a gap", checks.scan_artifact(leaked, names | checks.SPAN_NAMES), True)


def main() -> int:
    for test in (topk_replay, audits, csv_rows, ledgers, artifacts):
        test()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
