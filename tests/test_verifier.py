"""Verifier records against hand-worked decompositions of small pairs."""

import pytest

import tensoralg.verify
from tensoralg.catalog import catalog_selectors, resolve_selector
from tensoralg.liealg import LieAlgebra
from tensoralg.pairs import make_pair
from tensoralg.verify import (
    CheckRecord,
    VerificationReport,
    check_names,
    verify_abelian_basis,
    verify_diagram,
    verify_diagonal_descent,
    verify_j2_decomposition,
    verify_ker_pi,
    verify_kunneth,
    verify_pair,
    verify_splitting,
)


def nonabelian2():
    return LieAlgebra.make(2, ("x", "y"), {(0, 1): (0, 1)})


def heisenberg1():
    return LieAlgebra.make(3, ("x", "y", "z"), {(0, 1): (0, 0, 1)})


def full_pair(algebra):
    return make_pair(algebra, [algebra.basis_vector(i) for i in range(algebra.dim)])


def central_pair():
    return make_pair(heisenberg1(), [(0, 0, 1)])


def test_check_record_rejects_unknown_status():
    with pytest.raises(ValueError):
        CheckRecord("p", "c", "a", "maybe", True)


def test_check_record_not_applicable_needs_reason():
    with pytest.raises(ValueError):
        CheckRecord("p", "c", "a", "not-applicable", False)
    r = CheckRecord("p", "c", "a", "not-applicable", False, reason="degenerate pair")
    assert r.reason == "degenerate pair"
    assert not r.failed_assertion


def test_diagram_checks_pass_on_heisenberg_square():
    records = verify_diagram(full_pair(heisenberg1()), "h1")
    assert len(records) == 7
    assert all(r.status == "pass" for r in records)
    assert all(r.asserted for r in records)
    dims = records[0].dims
    assert dims["tensor"] == 6
    assert dims["diagonal"] == 3
    assert dims["exterior"] == 3
    assert dims["j2"] == 5
    assert dims["multiplier"] == 2
    assert dims["commutator"] == 1


def test_diagram_checks_pass_on_central_pair():
    records = verify_diagram(central_pair(), "h1-centre")
    assert all(r.status == "pass" for r in records)
    dims = records[0].dims
    assert dims["tensor"] == 2
    assert dims["diagonal"] == 0
    assert dims["j2"] == 2
    assert dims["multiplier"] == 2
    assert dims["commutator"] == 0


def test_kernel_of_projection_on_solvable_square():
    record = verify_ker_pi(full_pair(nonabelian2()), "r2")
    assert record.status == "pass"
    assert record.asserted
    assert record.dims["tensor"] == 2
    assert record.dims["quotient-tensor"] == 1
    assert record.dims["kernel"] == 1
    assert record.dims["mixed-span"] == 1


def test_kernel_of_projection_on_heisenberg_square():
    record = verify_ker_pi(full_pair(heisenberg1()), "h1")
    assert record.status == "pass"
    assert record.dims["quotient-tensor"] == 4
    assert record.dims["kernel"] == 2


def test_descent_flags_on_central_pair():
    record = verify_diagonal_descent(central_pair(), "h1-centre")
    assert record.status == "pass"
    assert record.asserted
    assert record.flags["clean-intersection"] is False
    assert record.flags["psi-injective"] is False
    assert record.flags["psi-welldefined"] is True
    assert record.flags["diagonal-law"] is False
    assert record.dims["gamma"] == 1
    assert record.dims["psi-rank"] == 0
    assert record.dims["diagonal"] == 0


def test_descent_flags_on_heisenberg_square():
    record = verify_diagonal_descent(full_pair(heisenberg1()), "h1")
    assert record.status == "pass"
    assert record.flags["clean-intersection"] is True
    assert record.flags["psi-injective"] is True
    assert record.flags["diagonal-law"] is True
    assert record.dims["diagonal"] == 3
    assert record.dims["quotient-diagonal"] == 3
    assert record.dims["relative-abelianization"] == 2


def test_splitting_on_solvable_square():
    record = verify_splitting(full_pair(nonabelian2()), "r2")
    assert record.status == "pass"
    assert record.flags["complement-hypothesis"] is True
    assert record.dims == {"tensor": 2, "diagonal": 1, "complement": 1, "exterior": 1}


def test_splitting_on_central_pair_without_hypothesis():
    record = verify_splitting(central_pair(), "h1-centre")
    assert record.status == "pass"
    assert record.flags["complement-hypothesis"] is False
    assert record.dims["complement"] == 2
    assert record.dims["diagonal"] == 0


def test_j2_decomposition_on_heisenberg_square():
    record = verify_j2_decomposition(full_pair(heisenberg1()), "h1")
    assert record.status == "pass"
    assert record.dims == {"j2": 5, "diagonal": 3, "multiplier": 2}


def test_abelian_basis_overshoots_on_plane():
    record = verify_abelian_basis(full_pair(LieAlgebra.abelian(2)), "a2")
    assert record.status == "fail"
    assert not record.asserted
    assert record.dims["claimed"] == 3
    assert record.dims["tensor"] == 4
    assert record.dims["deficit"] == 1
    assert record.flags["algebra-abelian"] is True


def test_abelian_basis_exact_on_line_in_plane():
    record = verify_abelian_basis(make_pair(LieAlgebra.abelian(2), [(1, 0)]), "a2-line")
    assert record.status == "pass"
    assert record.dims["claimed"] == 2
    assert record.dims["tensor"] == 2


def test_abelian_basis_reports_through_quotient():
    record = verify_abelian_basis(full_pair(heisenberg1()), "h1")
    assert record.flags["algebra-abelian"] is False
    # quotient is the abelian plane, same overshoot as above
    assert record.status == "fail"
    assert record.dims["deficit"] == 1


def test_kunneth_on_solvable_and_line():
    records = verify_kunneth(full_pair(nonabelian2()), full_pair(LieAlgebra.abelian(1)), "r2", "a1")
    by_check = {r.check: r for r in records}
    assert all(r.pair_id == "r2+a1" for r in records)
    gamma = by_check["abelianization-square-additivity"]
    assert gamma.status == "pass"
    assert gamma.dims == {"left-abelianization": 1, "right-abelianization": 1, "sum-abelianization": 2}
    kernels = by_check["evaluation-kernel-of-direct-sum"]
    assert kernels.status == "pass"
    assert kernels.dims == {"left": 1, "right": 1, "sum": 4, "cross": 2}
    d1 = by_check["direct-sum-evaluation-kernel"]
    assert d1.status == "pass"
    assert d1.asserted
    assert d1.dims == {"left": 1, "right": 1, "sum": 4, "cross": 2}
    d2 = by_check["direct-sum-diagonal"]
    assert d2.status == "pass"
    assert d2.asserted
    assert d2.dims == {"left": 1, "right": 1, "sum": 3, "cross": 1}
    d3 = by_check["direct-sum-multiplier"]
    assert d3.status == "pass"
    assert d3.dims == {"left": 0, "right": 0, "sum": 1, "cross": 1}
    assert by_check["kernel-multiplier-difference"].status == "pass"


def test_kunneth_gap_pair_is_reported_not_asserted():
    records = verify_kunneth(central_pair(), full_pair(LieAlgebra.abelian(1)), "h1-centre", "a1")
    by_check = {r.check: r for r in records}
    # the tensor-square additivity statements still hold
    assert by_check["abelianization-square-additivity"].status == "pass"
    assert by_check["multiplier-of-direct-sum"].status == "pass"
    assert by_check["evaluation-kernel-of-direct-sum"].status == "pass"
    # the pair direct-sum identities miss, but only as reports
    d1 = by_check["direct-sum-evaluation-kernel"]
    assert d1.status == "fail"
    assert not d1.asserted
    assert d1.flags["left-clean"] is False
    assert d1.dims == {"left": 2, "right": 1, "sum": 6, "cross": 2}
    d2 = by_check["direct-sum-diagonal"]
    assert d2.status == "pass"
    assert not d2.asserted
    assert d2.dims == {"left": 0, "right": 1, "sum": 2, "cross": 1}
    d3 = by_check["direct-sum-multiplier"]
    assert d3.status == "fail"
    assert not d3.asserted
    assert d3.dims == {"left": 2, "right": 0, "sum": 4, "cross": 1}
    report = VerificationReport(tuple(records))
    assert report.ok


def test_verify_pair_bundles_all_checks():
    report = verify_pair(full_pair(nonabelian2()), "r2")
    assert report.ok
    checks = {r.check for r in report.records}
    assert "projection-kernel-is-mixed-commutator-span" in checks
    assert "tensor-splits-as-diagonal-plus-complement" in checks
    assert "diagonal-and-cross-symbols-exhaust-tensor" in checks
    assert len(report.records) == 12


def test_verify_pair_subset_and_unknown_name():
    report = verify_pair(full_pair(nonabelian2()), "r2", checks=["kernel"])
    assert len(report.records) == 1
    with pytest.raises(ValueError):
        verify_pair(full_pair(nonabelian2()), "r2", checks=["spectral"])
    assert check_names() == ("diagram", "kernel", "descent", "splitting", "decomposition", "abelian")


def test_report_merge_and_sorting():
    a = verify_pair(full_pair(nonabelian2()), "b-pair", checks=["kernel"])
    b = verify_pair(central_pair(), "a-pair", checks=["kernel"])
    merged = VerificationReport.merge([a, b])
    assert len(merged.records) == 2
    assert [r.pair_id for r in merged.sorted_records()] == ["a-pair", "b-pair"]
    assert merged.ok


# pair_full(abelian(4)) is left out for time: its tensor alone takes seconds
SHARED_SELECTORS = [s for s in catalog_selectors() if s != "builtin:pair_full(abelian(4))"]


@pytest.mark.parametrize("selector", SHARED_SELECTORS)
def test_verify_pair_matches_each_check_run_alone(selector):
    pair = resolve_selector(selector)
    alone = []
    for check in (
        verify_diagram,
        verify_ker_pi,
        verify_diagonal_descent,
        verify_splitting,
        verify_j2_decomposition,
        verify_abelian_basis,
    ):
        result = check(pair, selector)
        alone.extend(result if isinstance(result, list) else [result])
    assert verify_pair(pair, selector).records == tuple(alone)


@pytest.mark.parametrize("selector", SHARED_SELECTORS)
def test_verify_pair_derives_each_pair_once(selector, monkeypatch):
    pair = resolve_selector(selector)
    calls = {"construct_tensor": 0, "quotient_pair": 0}

    def counting(name):
        real = getattr(tensoralg.verify, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(tensoralg.verify, name, counting(name))
    verify_pair(pair, selector)
    # the pair's tensor and the tensor of its quotient by [N, L]
    assert calls == {"construct_tensor": 2, "quotient_pair": 1}
    calls.update(construct_tensor=0, quotient_pair=0)
    verify_diagram(pair, selector)
    assert calls == {"construct_tensor": 1, "quotient_pair": 0}
