"""The reproduction scorecard: every headline claim in one run.

Each figure benchmark asserts its own claims in detail; this benchmark
runs the compact claim suite (`python -m repro claims`) and requires that
*all* of the paper's headline claims hold simultaneously.
"""

from benchmarks.conftest import run_once
from repro.harness.claims import evaluate_claims


def test_all_headline_claims_hold(benchmark):
    report = run_once(benchmark, evaluate_claims, duration=2.5e-3)
    print()
    print(report.render())
    failing = [v for v in report.verdicts if not v.ok]
    assert not failing, "failing verdicts: " + "; ".join(map(str, failing))
    assert len(report.claims) >= 15
    benchmark.extra_info["claims_passed"] = report.passed
    benchmark.extra_info["claims_total"] = len(report.claims)
