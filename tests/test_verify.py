"""The identity registry: every check passes at its full range and compares
something, and a check that compares nothing fails."""

import dataclasses
import json

import pytest

from srscorr import cli, verify
from srscorr.errors import DomainError
from srscorr.verify import CHECKS, SUITE_NAMES


@pytest.mark.parametrize("identity", [check.identity for check in CHECKS])
def test_registry_check(identity, check_result):
    result, _ = check_result(identity)
    assert result.passed and result.cases > 0, result.detail


def test_registry_is_grouped_by_suite_with_unique_identities():
    assert SUITE_NAMES == ("exactnum", "ppoly", "correlation", "oracle")
    assert len({check.identity for check in CHECKS}) == len(CHECKS) == 35
    assert [check.suite for check in CHECKS] == sorted((c.suite for c in CHECKS), key=SUITE_NAMES.index)


def _verify_rows(capsys, *argv):
    code = cli.run(["verify", *argv])
    return code, [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_a_check_that_compares_nothing_fails(capsys):
    code, rows = _verify_rows(capsys, "--max-k", "0")
    assert code == 3 and len(rows) == len(CHECKS)
    empty = [row for row in rows if row["cases"] == 0]
    assert [row["identity"] for row in empty] == [
        "unit-step-binomial-sum",
        "delta-binomial-sum",
        "gamma-ratio-binomial-sum",
        "weighted-gamma-ratio-sum",
        "affine-fraction-sum-closed-form",
        "gamma-half-integer-closed-form",
        "vanishing-window",
        "leading-coefficients",
        "point-form-remainder-degree",
        "trivial-orders",
        "pair-closed-form",
        "coefficient-sum-identity",
        "alpha-top-column-is-limit",
        "alpha-degree-bound",
        "per-coefficient-convergence",
        "scaled-sequence-boundedness",
        "unit-set-exchangeability",
        "lockstep-rejection",
        "mc-bit-reproducibility",
    ]
    for row in empty:
        assert row["passed"] is False
        assert row["detail"] and "\n" not in row["detail"]
    assert all(row["passed"] for row in rows if row["cases"] > 0)


def test_a_check_that_raises_fails_its_own_row(capsys, monkeypatch):
    def body(r, top):
        r.equal(1, 1, "before the raise")
        raise DomainError("first line\nsecond line")

    raising = [dataclasses.replace(c, body=body) if c.identity == "bernoulli-recurrence" else c for c in CHECKS]
    monkeypatch.setattr(verify, "CHECKS", raising)
    code, rows = _verify_rows(capsys, "--max-k", "2")
    assert code == 3 and [row["identity"] for row in rows] == [check.identity for check in CHECKS]
    failed = [row for row in rows if not row["passed"]]
    assert [(row["identity"], row["cases"], row["detail"]) for row in failed] == [
        ("bernoulli-recurrence", 1, "DomainError: first line second line")
    ]


def test_max_k_caps_every_check(capsys, check_result):
    _, rows = _verify_rows(capsys, "--max-k", "0")
    for row in rows:
        assert row["cases"] < check_result(row["identity"])[0].cases, row["identity"]


def test_coefficient_sum_identity_starts_at_order_two(capsys):
    code, rows = _verify_rows(capsys, "--suite", "correlation", "--max-k", "1")
    by_identity = {row["identity"]: row for row in rows}
    assert code == 3
    assert by_identity["coefficient-sum-identity"]["passed"] is False
    assert by_identity["coefficient-sum-identity"]["cases"] == 0
