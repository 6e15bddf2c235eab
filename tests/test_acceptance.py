"""Acceptance gate: every guarantee checked at its pinned tolerance.

Each test runs one suite end to end and prints its verdict lines, so
``pytest tests/test_acceptance.py -v -s`` doubles as the acceptance report.
The three longest suites are marked ``slow``; ``pytest -m "not slow"`` skips
them for a quick loop.
"""

import pytest

from submax.acceptance import run_acceptance


def run(name):
    result = run_acceptance(name, seed=0)
    print()
    for line in result.lines:
        print(line)
    assert result.passed, f"suite {name} failed:\n" + "\n".join(result.lines)
    return result


@pytest.mark.slow
def test_criterion_01_termination_marginals_lemma2():
    run("lemma2")


@pytest.mark.slow
def test_criterion_02_average_marginal_corollary6():
    run("corollary6")


def test_criterion_03_inclusion_probability_lemma7():
    run("lemma7")


def test_criterion_04_unconstrained_guarantee_lemma4():
    run("lemma4")


def test_criterion_05_downsampling_lemma8():
    run("lemma8")


@pytest.mark.slow
def test_criterion_06_approximation_floor_theorem5():
    result = run("theorem5")
    assert result.metrics["min_ratio"] >= 0.01


def test_criterion_07_optimum_split_order_bound():
    run("appendix")


def test_criterion_08_adaptivity_and_query_accounting():
    result = run("ledgers")
    assert result.metrics["rounds"][400] / result.metrics["rounds"][50] <= 3


def test_criterion_09_benchmark_relationships():
    run("figure1")


def test_criterion_10_submodularity_validation():
    run("submodularity")


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_acceptance("lemma99")
