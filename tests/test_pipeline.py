"""End-to-end identity pipeline at the small degrees.

Degrees 4 and 5 run in seconds over both coefficient fields, so the
full story is exercised here: defining identities through the expansion
gate, liftings, per-partition ranks, new-identity extraction, module
comparison and the serialization formats.
"""

import json
import random
from fractions import Fraction

import pytest

from prejordan.errors import InvariantViolation
from prejordan.expansion import xblock_matrix
from prejordan.linalg import RationalEchelon
from prejordan.monomials import format_word, multilinear_basis, parse_word
from prejordan.pipeline import (DegreeReport, Identity, ReportConfig,
                                compare_modules, defining_identities,
                                degree_report, identities_from_json,
                                identities_to_json, kernel_character,
                                kernel_rank, lift, lifted_rank,
                                liftings_to_degree, load_identities, mul,
                                new_identity_vectors, nullspace_identities,
                                permuted_stack_rank, save_identities,
                                squared_lengths)
from prejordan.symrep import dimension, partitions

PJ1_TERMS = {
    (1, "((x1*x2)*(x3*x4))"), (1, "((x1*x3)*(x2*x4))"),
    (1, "((x2*x1)*(x3*x4))"), (1, "((x2*x3)*(x1*x4))"),
    (1, "((x3*x1)*(x2*x4))"), (1, "((x3*x2)*(x1*x4))"),
    (-1, "(x1*((x2*x3)*x4))"), (-1, "(x1*((x3*x2)*x4))"),
    (-1, "(x2*((x1*x3)*x4))"), (-1, "(x2*((x3*x1)*x4))"),
    (-1, "(x3*((x1*x2)*x4))"), (-1, "(x3*((x2*x1)*x4))"),
}

PJ2_TERMS = {
    (1, "(((x1*x3)*x2)*x4)"), (1, "(((x3*x1)*x2)*x4)"),
    (1, "((x2*(x1*x3))*x4)"), (1, "((x2*(x3*x1))*x4)"),
    (-1, "(x1*((x2*x3)*x4))"), (-1, "(x1*((x3*x2)*x4))"),
    (-1, "(x2*((x1*x3)*x4))"), (-1, "(x2*((x3*x1)*x4))"),
    (-1, "(x3*((x1*x2)*x4))"), (-1, "(x3*((x2*x1)*x4))"),
    (1, "(x1*(x2*(x3*x4)))"), (1, "(x3*(x2*(x1*x4)))"),
}

DEGREE4_TABLE = {  # lifted rank, expansion rank, nullity
    (4,): (2, 3, 2), (3, 1): (3, 12, 3), (2, 2): (1, 9, 1),
    (2, 1, 1): (1, 14, 1), (1, 1, 1, 1): (0, 5, 0)}

DEGREE5_TABLE = {  # lifted rank, expansion rank (nullity equals lifted)
    (5,): (7, 7), (4, 1): (21, 35), (3, 2): (20, 50), (3, 1, 1): (22, 62),
    (2, 2, 1): (14, 56), (2, 1, 1, 1): (9, 47), (1, 1, 1, 1, 1): (1, 13)}


class TestDefiningIdentities:
    def test_terms_frozen(self):
        f, g = defining_identities()
        assert {(int(c), format_word(w)) for c, w in f.terms} == PJ1_TERMS
        assert {(int(c), format_word(w)) for c, w in g.terms} == PJ2_TERMS

    def test_expansion_gate(self):
        for f in defining_identities():
            f.check_kernel_membership()  # raises on failure

    def test_gate_rejects_non_identities(self):
        poly = {parse_word("((x1*x2)*x3)"): 1}
        with pytest.raises(InvariantViolation):
            Identity.from_poly(poly, "defining")

    def test_from_poly_canonicalizes(self):
        f, _ = defining_identities()
        scaled = {w: Fraction(c, 6) for c, w in f.terms}
        again = Identity.from_poly(scaled, "defining")
        assert again.terms == f.terms  # common denominator cleared

    def test_relabel_and_vector(self):
        f, _ = defining_identities()
        basis = multilinear_basis(4, 1)
        from prejordan.monomials import basis_index
        vec = f.vector(len(basis), basis_index(4, 1))
        assert sum(1 for e in vec if e) == 12
        swapped = f.relabeled((2, 1, 3, 4))
        assert len(swapped.terms) == 12
        swapped.check_kernel_membership()

    def test_group_algebra_split(self):
        f, _ = defining_identities()
        blocks = f.group_algebra(5)
        assert len(blocks) == 5
        assert sum(len(b) for b in blocks) == 12

    def test_str_shows_unit_coefficients_bare(self):
        f, _ = defining_identities()
        text = str(f)
        assert "1(" not in text.replace("x1(", "")
        assert "((x1*x2)*(x3*x4))" in text


class TestLiftings:
    def test_lift_count_and_degree(self):
        f, _ = defining_identities()
        ups = lift(f)
        assert len(ups) == 6
        assert all(g.degree == 5 for g in ups)
        assert all(g.provenance == "lifted" for g in ups)
        assert all(len(g.terms) == 12 for g in ups)

    def test_liftings_pass_gate(self):
        for g in liftings_to_degree(5, verify=True):
            pass  # verify=True raises if any lifting fails

    @pytest.mark.parametrize("n", [6, 7])
    def test_gate_is_exact_on_sampled_liftings(self, n):
        rng = random.Random(n)
        for f in rng.sample(liftings_to_degree(n), 5):
            sigma = tuple(rng.sample(range(1, n + 1), n))
            terms = f.relabeled(sigma).terms
            k = rng.randrange(len(terms))
            dropped = {w: c for i, (c, w) in enumerate(terms) if i != k}
            with pytest.raises(InvariantViolation):
                Identity.from_poly(dropped, "lifted")
            for scale in (1, 2 ** 70):
                Identity.from_poly({w: scale * c for c, w in terms}, "lifted")
                bumped = {w: scale * c + (i == k)
                          for i, (c, w) in enumerate(terms)}
                with pytest.raises(InvariantViolation):
                    Identity.from_poly(bumped, "lifted")

    def test_counts_by_degree(self):
        assert len(liftings_to_degree(5)) == 12
        assert len(liftings_to_degree(6)) == 84

    def test_retained_subset(self):
        assert len(liftings_to_degree(6, {5: [0, 1, 2]})) == 21

    def test_multiplication_helper(self):
        w = mul(1, mul(2, 3))
        assert format_word(w) == "(x1*(x2*x3))"


class TestDegree4:
    def test_kernel_ranks_both_fields(self):
        for lam, (_, xrank, nullity) in DEGREE4_TABLE.items():
            for field in ('Q', 101):
                rank, null = kernel_rank(4, lam, field)
                assert (rank, null) == (xrank, nullity)

    def test_lifted_ranks(self):
        pair = list(defining_identities())
        for lam, (lrank, _, _) in DEGREE4_TABLE.items():
            rank, grew = lifted_rank(4, lam, pair)
            assert rank == lrank
            assert len(grew) == 2

    def test_report_over_q(self):
        rep = degree_report(ReportConfig(degree=4, field="Q"))
        assert rep.lifting_count == 2
        for row in rep.rows:
            lrank, xrank, nullity = DEGREE4_TABLE[row.partition]
            assert row.lifted_rank == lrank
            assert row.all_rank == xrank
            assert row.nullity == nullity
            assert row.new == 0
            assert not row.skipped

    def test_permuted_stack_saturates(self):
        _, rank = permuted_stack_rank(list(defining_identities()), 4)
        assert rank == 16

    def test_emit_new_when_nothing_is_new(self):
        rep = degree_report(ReportConfig(degree=4, field="Q",
                                         emit_new=True))
        assert all(row.new == 0 and not row.new_vectors
                   for row in rep.rows)


class TestDegree5:
    def test_table_over_both_fields(self):
        reports = {}
        for field in ("Q", "F"):
            rep = degree_report(ReportConfig(degree=5, field=field))
            assert rep.lifting_count == 12
            for row in rep.rows:
                lrank, xrank = DEGREE5_TABLE[row.partition]
                assert row.lifted_rank == lrank
                assert row.all_rank == xrank
                assert row.nullity == lrank
                assert row.new == 0
            reports[field] = rep
        # identical tables over the rationals and the modular field
        strip = lambda rep: [(r.partition, r.lifted_rank, r.all_rank,
                              r.nullity, r.new) for r in rep.rows]
        assert strip(reports["Q"]) == strip(reports["F"])


class TestNewIdentityExtraction:
    def test_deficient_generating_set(self):
        # lifting only the first defining identity leaves a gap at degree
        # 5 for some partition; the extracted vectors must close exactly
        # that gap and be genuine kernel elements
        f, _ = defining_identities()
        partial = lift(f)
        found_gap = False
        for lam in partitions(5):
            lrank, _ = lifted_rank(5, lam, partial)
            _, nullity = kernel_rank(5, lam)
            missing = nullity - lrank
            if missing == 0:
                continue
            found_gap = True
            vectors = new_identity_vectors(5, lam, partial)
            assert len(vectors) == missing
            X = xblock_matrix(5, lam)
            d = dimension(lam)
            for v in vectors:
                prod = [sum(Fraction(v[i]) * X.rows[i][j]
                            for i in range(len(v)))
                        for j in range(X.ncols)]
                assert not any(prod)
            # independent from the lifted span: ranks add up
            state = RationalEchelon(len(vectors[0]))
            from prejordan.pipeline import identity_block
            from prejordan.symrep import RhoCache
            rho = RhoCache(lam, 'Q')
            for g in partial:
                state.add_rows(identity_block(g, lam, rho, 14))
            assert state.rank == lrank
            state.add_rows(vectors)
            assert state.rank == lrank + missing
        assert found_gap


class TestComparison:
    def test_defining_pair_generates_kernel(self):
        pair = list(defining_identities())
        basis = nullspace_identities(4, "lll")
        verdict = compare_modules(pair, basis, 4)
        assert verdict["equivalent"]
        assert verdict["rank_a"] == verdict["rank_b"] == 16

    def test_partition_method_agrees(self):
        pair = list(defining_identities())
        basis = nullspace_identities(4, "rcf")
        verdict = compare_modules(pair, basis, 4, method="partition")
        assert verdict["equivalent"]
        mults = [row["rank_a"]
                 for row in verdict["per_partition"].values()]
        assert mults == [2, 3, 1, 1, 0]

    def test_single_generator_falls_short(self):
        f, _ = defining_identities()
        basis = nullspace_identities(4, "lll")
        verdict = compare_modules([f], basis, 4)
        assert not verdict["equivalent"]
        assert verdict["rank_a"] < 16
        assert verdict["rank_a_then_b"] == 16


class TestNullspaceBases:
    def test_lll_all_minimal(self):
        idents = nullspace_identities(4, "lll")
        assert len(idents) == 16
        assert squared_lengths(idents) == [12] * 16

    def test_hnf_regression(self):
        # pins this implementation's deterministic elimination; any change
        # to the pivoting strategy shows up here first
        idents = nullspace_identities(4, "hnf")
        assert len(idents) == 16
        assert squared_lengths(idents) == [12] * 16

    def test_rcf_spans_same_module(self):
        a = nullspace_identities(4, "rcf")
        b = nullspace_identities(4, "lll")
        assert len(a) == 16
        verdict = compare_modules(a, b, 4)
        assert verdict["equivalent"]

    def test_all_stored_identities_pass_gate(self):
        for method in ("hnf", "lll", "rcf"):
            for f in nullspace_identities(4, method):
                f.check_kernel_membership()

    def test_character_and_multiplicities(self):
        char, mults = kernel_character(4)
        assert tuple(char) == (16, 4, 0, 1, 0)
        assert tuple(mults) == (2, 3, 1, 1, 0)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        idents = list(defining_identities()) + \
            nullspace_identities(4, "lll")[:3]
        path = tmp_path / "idents.json"
        save_identities(idents, str(path))
        back = load_identities(str(path))
        assert [f.terms for f in back] == [f.terms for f in idents]
        assert [f.provenance for f in back] == \
            [f.provenance for f in idents]

    def test_load_applies_gate(self, tmp_path):
        f, _ = defining_identities()
        data = identities_to_json([f])
        data["identities"][0]["terms"][0][0] = 5  # corrupt a coefficient
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InvariantViolation):
            load_identities(str(path))

    def test_json_structure(self):
        f, _ = defining_identities()
        data = identities_to_json([f])
        assert data["format"] == "identity-list"
        assert data["degree"] == 4
        assert len(data["identities"][0]["terms"]) == 12
        assert identities_from_json(data)[0].terms == f.terms


class TestReportConfig:
    def test_field_resolution(self):
        assert ReportConfig(degree=5).resolved_field() == 'Q'
        assert ReportConfig(degree=6).resolved_field() == 101
        assert ReportConfig(degree=6, field="Q").resolved_field() == 'Q'
        assert ReportConfig(degree=6, prime=7).resolved_field() == 7

    def test_degree_bounds(self):
        with pytest.raises(ValueError):
            degree_report(ReportConfig(degree=3))
        with pytest.raises(ValueError):
            degree_report(ReportConfig(degree=9))

    def test_bad_partition_rejected(self):
        with pytest.raises(ValueError):
            degree_report(ReportConfig(degree=4, partitions=((5,),),
                                       field="Q"))

    def test_memory_gate_marks_skipped(self):
        rep = degree_report(ReportConfig(degree=4, field="Q",
                                         memory_budget=0))
        assert all(row.skipped for row in rep.rows)
        assert all(row.lifted_rank is None for row in rep.rows)
        text = rep.to_text()
        assert "skipped" in text


@pytest.fixture(scope="module")
def report():
    return degree_report(ReportConfig(degree=4, field="Q"))


class TestReportFormats:

    def test_json_schema(self, report):
        data = report.to_json()
        assert set(data) >= {"degree", "field", "prime", "chunk", "rows"}
        row = data["rows"][0]
        assert set(row) >= {"partition", "d", "lifted", "all", "new"}
        assert set(row["lifted"]) == {"rows", "cols", "rank"}
        assert set(row["all"]) == {"rows", "cols", "rank", "nullity"}
        json.dumps(data)  # must be serializable as-is

    def test_csv_parses_back(self, report):
        import csv
        import io
        rows = list(csv.DictReader(io.StringIO(report.to_csv())))
        assert len(rows) == 5
        assert rows[0]["partition"] == "4"
        assert rows[0]["new"] == "0"

    def test_text_layout(self, report):
        text = report.to_text()
        assert text.startswith("degree 4")
        assert "partition" in text
        assert text.count("\n") >= 7

    def test_report_roundtrips_through_dataclass(self, report):
        assert isinstance(report, DegreeReport)
        assert report.degree == 4
        assert report.field == 'Q'
