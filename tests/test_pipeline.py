"""End-to-end identity pipeline at the small degrees.

Degrees 4 and 5 run in seconds over both coefficient fields, so the
full story is exercised here: defining identities through the expansion
gate, liftings, per-partition ranks, new-identity extraction, module
comparison and the serialization formats.
"""

import dataclasses
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (group_algebra, lift_reference,
                     new_identity_vectors_reference, prefix_runs)
from prejordan import expansion, monomials, pipeline
from prejordan.cli import main
from prejordan.errors import InvariantViolation
from prejordan.expansion import (pj_normal_form, poly_normal_form,
                                 xblock_matrix)
from prejordan.linalg import ModularEchelon, annihilates, echelon_state
from prejordan.monomials import (assoc_types, classify, format_word,
                                 multilinear_basis, parse_word, relabel)
from prejordan.pipeline import (DegreeReport, Identity,
                                ReportConfig, compare_modules,
                                defining_identities, degree_report,
                                identities_from_json, identities_to_json,
                                identity_block, kernel_character, kernel_rank,
                                lift, lifted_rank, liftings_to_degree,
                                load_identities, mul, new_identity_vectors,
                                nullspace_identities, permuted_stack_rank,
                                relabeling_classes, save_identities,
                                squared_lengths)
from prejordan.symrep import RhoCache, dimension, partitions
from test_acceptance import DEGREE6_ROWS
from test_linalg import CROSS_PRIMES

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
        blocks = group_algebra(f, 5)
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

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_gate_is_exact_on_sampled_liftings(self, n):
        # one coefficient changed by any amount must fail the gate
        rng = random.Random(n)
        for f in rng.sample(liftings_to_degree(n), 12):
            sigma = tuple(rng.sample(range(1, n + 1), n))
            terms = f.relabeled(sigma).terms
            k = rng.randrange(len(terms))
            dropped = {w: c for i, (c, w) in enumerate(terms) if i != k}
            with pytest.raises(InvariantViolation):
                Identity.from_poly(dropped, "lifted")
            delta = rng.choice((-2 ** 40, -3, -1, 1, 2, 7))
            for scale in (1, 2 ** 70):
                Identity.from_poly({w: scale * c for c, w in terms}, "lifted")
                bumped = {w: scale * c + delta * (i == k)
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

    @staticmethod
    def assert_coeffs_as_coeff_array(liftings):
        # _liftings decides int64 or object for all liftings at once; the
        # choice and the values must be coeff_array's for each lifting
        for g in liftings:
            ref = expansion.coeff_array(g.degree, g.types.tolist(),
                                        g.coeffs.tolist())
            assert g.coeffs.dtype == ref.dtype
            assert g.coeffs.tolist() == ref.tolist()

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_coefficient_dtypes_match_coeff_array(self, n):
        liftings = liftings_to_degree(n)
        assert all(g.coeffs.dtype == np.int64 for g in liftings)
        self.assert_coeffs_as_coeff_array(liftings)

    def test_coefficients_near_the_int64_bound(self):
        # a degree-6 source scaled so that its heaviest lifting has
        # sum |c| * weight just below 2**63, then just past it: the float
        # estimate cannot decide either, the exact check must
        f = liftings_to_degree(6)[0]

        def weights(g):
            w = expansion.type_images(7, g.types).weight[g.types].tolist()
            return sum(abs(c) * x for c, x in zip(g.coeffs.tolist(), w))

        heaviest = max(weights(g) for g in lift(f))
        scale = (2 ** 63 - 1) // heaviest
        for k, dtype in ((scale, np.int64), (scale + 1, object)):
            forged = Identity._of_split(6, f.types, f.leaves, f.coeffs * k,
                                        "lifted")
            assert (f.coeffs * k).tolist() == [c * k for c in
                                               f.coeffs.tolist()]
            up = lift(forged)
            assert 2 ** 62 < heaviest * k
            assert {g.coeffs.dtype for g in up
                    if weights(g) == heaviest * k} == {np.dtype(dtype)}
            self.assert_coeffs_as_coeff_array(up)
        # object coefficients stay object, and exact
        big = Identity._of_split(6, f.types, f.leaves,
                                 f.coeffs.astype(object) * 2 ** 70, "lifted")
        up = lift(big)
        assert {g.coeffs.dtype for g in up} == {np.dtype(object)}
        self.assert_coeffs_as_coeff_array(up)


def liftings_reference(n, retained=None):
    """liftings_to_degree by rewriting words (helpers.lift_reference)."""
    current = list(defining_identities())
    for k in range(4, n):
        if retained and k in retained:
            current = [current[i] for i in retained[k]]
        current = [g for f in current for g in lift_reference(f)]
    return current


def assert_split_matches_words(f):
    split = [classify(w, 1) for _, w in f.terms]
    assert f.types.tolist() == [i for i, _ in split]
    assert (f.leaves + 1).tolist() == [list(perm) for _, perm in split]
    assert f.coeffs.tolist() == [c for c, _ in f.terms]


class TestSplit:
    """Every identity holds the (types, leaves, coeffs) split of its
    terms; lifting, relabeling, the gate and block rows use only it."""

    @pytest.mark.parametrize("n, retained", [(5, None), (6, None), (7, None),
                                             (6, {5: [0, 1, 2]})])
    def test_liftings_match_word_reference(self, n, retained):
        got = liftings_to_degree(n, retained)
        want = liftings_reference(n, retained)
        assert len(got) == len(want)
        assert [(f.degree, f.provenance, f.terms) for f in got] == \
            [(f.degree, f.provenance, f.terms) for f in want]
        for f in got:
            assert_split_matches_words(f)
            assert f.leaves.dtype == np.int8 and f.coeffs.dtype == np.int64

    @pytest.mark.parametrize("n", [5, 7])
    def test_relabeled_matches_word_relabeling(self, n):
        rng = random.Random(n)
        for f in rng.sample(liftings_to_degree(n), 4):
            big = Identity(n, tuple((c * 2 ** 70, w) for c, w in f.terms),
                           f.provenance)
            assert big.coeffs.dtype == object
            for g in (f, big):
                for _ in range(3):
                    sigma = tuple(rng.sample(range(1, n + 1), n))
                    got = g.relabeled(sigma)
                    want = Identity.from_poly(
                        {relabel(w, sigma): c for c, w in g.terms},
                        g.provenance, check=False)
                    assert got.terms == want.terms
                    assert got.provenance == g.provenance
                    assert got.coeffs.dtype == g.coeffs.dtype
                    assert_split_matches_words(got)

    def test_non_multilinear_input_is_refused(self):
        f, _ = defining_identities()
        with pytest.raises(ValueError):
            f.relabeled((1, 1, 3, 4))
        with pytest.raises(ValueError):
            f.relabeled((1, 2, 3))
        square = parse_word("((x1*x1)*x2)")
        with pytest.raises(ValueError):
            Identity.from_poly({square: 1, parse_word("(x1*(x1*x2))"): -1},
                               "defining", check=False)
        with pytest.raises(ValueError):
            Identity(3, ((1, square),))
        rho = RhoCache((3, 1), 101)
        with pytest.raises(ValueError):
            rho.raw_of_element({(1, 1, 3, 4): 1})
        with pytest.raises(ValueError):
            rho.raw_of_elements(np.zeros(1, dtype=np.intp), 1,
                                np.array([[0, 0, 2, 3]]),
                                np.ones(1, dtype=np.int64))
        # the normal form itself still takes repeated labels
        assert poly_normal_form({square: 2}) == {
            u: 2 * c for u, c in pj_normal_form(square).items()}

    def test_replace_recomputes_the_split(self):
        # dataclasses.replace builds a new identity from its words; a split
        # carried over from the original would pass the gate and leave the
        # block row unchanged
        f = liftings_to_degree(6)[40]
        c, w = f.terms[0]
        broken = dataclasses.replace(f, terms=((c + 1, w),) + f.terms[1:])
        assert broken.coeffs[0] == c + 1
        with pytest.raises(InvariantViolation):
            broken.check_kernel_membership()
        lam = (4, 2)
        rho = RhoCache(lam, 101)
        t = len(assoc_types(6, 1))
        assert (identity_block(broken, lam, rho, t)
                != identity_block(f, lam, rho, t)).any()

    def test_hot_path_walks_no_words(self, monkeypatch):
        # after the degree-7 type images are built, lifting to degree 7,
        # one lifted rank and the gate of relabeled liftings split no word
        # beyond the 24 terms of the two defining identities
        expansion.type_images(7, range(len(assoc_types(7, 1))))
        calls = []
        real = monomials.split

        def counted(word):
            calls.append(word)
            return real(word)

        for name, module in list(sys.modules.items()):
            if name.startswith("prejordan") and \
                    getattr(module, "split", None) is real:
                monkeypatch.setattr(module, "split", counted)
        liftings = liftings_to_degree(7)
        lifted_rank(7, (6, 1), liftings, 101)
        rng = random.Random(7)
        sigma = tuple(rng.sample(range(1, 8), 7))
        for f in rng.sample(liftings, 10):
            f.relabeled(sigma).check_kernel_membership()
        assert len(calls) == 24


class TestDegree4:
    def test_kernel_ranks_both_fields(self):
        for lam, (_, xrank, nullity) in DEGREE4_TABLE.items():
            for field in ('Q', 101):
                rank, null = kernel_rank(4, lam, field)[:2]
                assert (rank, null) == (xrank, nullity)

    def test_lifted_ranks(self):
        pair = list(defining_identities())
        for lam, (lrank, _, _) in DEGREE4_TABLE.items():
            rank, grew = lifted_rank(4, lam, pair)[:2]
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

    def test_rank_only_states_match_reduced(self, monkeypatch):
        # lifted_rank and kernel_rank keep rank-only Q states, which hold
        # no RCF; a row raises the rank independently of the basis kept,
        # so flags and ranks are those of the reduced state
        built = []

        def recording(ncols, field, reduced=True):
            built.append(reduced)
            return echelon_state(ncols, field, reduced)

        monkeypatch.setattr(pipeline, "echelon_state", recording)
        liftings = liftings_to_degree(5)
        t = len(assoc_types(5, 1))
        for lam in partitions(5):
            rho = RhoCache(lam, 'Q')
            state = echelon_state(t * rho.dim, 'Q')
            grew = []
            for ident in liftings:
                before = state.rank
                state.add_rows(identity_block(ident, lam, rho, t))
                grew.append(state.rank > before)
            assert lifted_rank(5, lam, liftings, 'Q', rho)[:2] \
                == (state.rank, grew)
            reduced = echelon_state(t * rho.dim, 'Q')
            fast = echelon_state(t * rho.dim, 'Q', reduced=False)
            for batch in expansion.xblock_transpose_rows(5, lam, 'Q',
                                                         rho=rho, chunk=50):
                assert fast.add_rows(batch) == reduced.add_rows(batch)
            assert kernel_rank(5, lam, 'Q', rho=rho)[:2] \
                == (reduced.rank, t * rho.dim - reduced.rank)
        # the lifted state, the kernel state and the one kernel_rank
        # reads its batch rule from
        assert built == [False] * 3 * len(partitions(5))


class TestBlockFeed:
    @pytest.mark.parametrize("n, field, lams, per_call", [
        pytest.param(5, 'Q', None, 3, id="5-Q"),
        pytest.param(6, 101, None, 10, id="6-101"),
        pytest.param(7, 101, [(6, 1), (7,)], 33, id="7-101")])
    def test_batched_flags_match_one_identity_at_a_time(
            self, n, field, lams, per_call, monkeypatch):
        # the reference feeds every identity's block in its own add_rows
        # call; the report feeds lifted_rank the first identity of each
        # relabeling class (9, 38 and 152 of 12, 84 and 672), whole blocks
        # batched.  Every other identity is a multiple of a relabeled
        # earlier one, so the leads reach the reference's rank and each
        # raises it exactly where it does in the reference, where no
        # other identity does.  batch_rows(d) // d blocks a call, about
        # t/4 at every d here (t*d columns, ncols // 4 rows a call), the
        # last call taking the rest, counted where they are made
        liftings = liftings_to_degree(n)
        leads = pipeline._leads(liftings)
        assert len(leads) == {5: 9, 6: 38, 7: 152}[n]
        fed = [liftings[i] for i in leads]
        t = len(assoc_types(n, 1))
        batches = []
        block_rows = pipeline._block_rows
        monkeypatch.setattr(pipeline, "_block_rows", lambda idents, *args: (
            batches.append(len(idents)) or block_rows(idents, *args)))
        for lam in lams or partitions(n):
            rho = RhoCache(lam, field)
            state = echelon_state(t * rho.dim, field)
            grew = []
            for ident in liftings:
                before = state.rank
                state.add_rows(identity_block(ident, lam, rho, t))
                grew.append(state.rank > before)
            batches.clear()
            rank, flags, _, _, calls, rows = lifted_rank(n, lam, fed, field,
                                                         rho)
            assert rank == state.rank
            assert flags == [grew[i] for i in leads]
            assert sum(grew) == sum(flags)
            assert rows == state.batch_rows(rho.dim)
            assert rows // rho.dim == per_call
            assert batches == [per_call] * (len(fed) // per_call) \
                + [len(fed) % per_call] * (len(fed) % per_call > 0)
            assert calls == len(batches)

    @pytest.mark.parametrize("p", CROSS_PRIMES)
    def test_rule_equals_one_identity_per_call(self, p, monkeypatch):
        # flags, RCF and pivots of the lifted rows, and the RCF and pivots
        # of the X^T rows, fed by the batch_rows rule and one block of d
        # rows per call, at every degree-6 partition
        liftings = liftings_to_degree(6)
        t = len(assoc_types(6, 1))
        for lam in partitions(6):
            rho = RhoCache(lam, p)
            got = []
            for one in (False, True):
                with monkeypatch.context() as m:
                    if one:
                        m.setattr(ModularEchelon, "batch_rows",
                                  lambda self, d: d)
                    state = echelon_state(t * rho.dim, p)
                    assert one or state.batch_rows(rho.dim) > rho.dim
                    flags = pipeline._feed_identities(state, 6, rho,
                                                      liftings)[0]
                    xstate = kernel_rank(6, lam, p, rho=rho)[4]
                got.append((flags, *state.rcf(), *xstate.rcf()))
            (flags, *arrays), (want, *wants) = got
            assert flags == want, lam
            assert all(a.shape == w.shape and (a == w).all()
                       for a, w in zip(arrays, wants)), lam

    @pytest.mark.parametrize("n", [5, 6])
    def test_report_retains_what_the_pruning_pass_keeps(self, n):
        # degree_report and the pruning pass give lifted_rank only the
        # first lifting of each relabeling class and map the identities
        # that grew a rank back to the full list, which fed whole gives
        # the same union
        liftings = liftings_to_degree(n)
        retained = degree_report(ReportConfig(degree=n)).retained
        assert retained == tuple(pipeline._retained_indices(
            n, liftings, ReportConfig(degree=n + 1)))
        field = 'Q' if n <= 5 else 101
        assert retained == tuple(pipeline._grew_somewhere(
            lifted_rank(n, lam, liftings, field)[1] for lam in partitions(n)))
        assert retained != tuple(range(len(retained)))

    @pytest.mark.parametrize("n, field", [(5, 'Q'), (6, 101)])
    def test_scaled_liftings_keep_rank_and_flags(self, n, field):
        # times 2**70 every block is past the int64 bound of the raw-block
        # builder and travels as exact Python ints; ranks and flags must
        # not move
        liftings = liftings_to_degree(n)
        scaled = [Identity(f.degree, tuple((c * 2 ** 70, w) for c, w in f.terms),
                           f.provenance) for f in liftings]
        t = len(assoc_types(n, 1))
        for lam in partitions(n):
            rho = RhoCache(lam, field)
            assert identity_block(scaled[0], lam, rho, t).dtype == object
            big = lifted_rank(n, lam, scaled, field, rho)
            small = lifted_rank(n, lam, liftings, field, rho)
            assert big[:2] == small[:2] and big[4:] == small[4:]
            assert big[2].tolist() == small[2].tolist()


def scaled_relabeling(f, sigma, c):
    """c * sigma f, an identity with exact coefficients."""
    return Identity.from_poly({w: c * x for x, w in f.relabeled(sigma).terms},
                              f.provenance, check=False)


class TestRelabelingClasses:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([4, 5, 6]),
           st.sampled_from([1, -1, 2, -2, 7, 2 ** 40]),
           st.randoms(use_true_random=False))
    def test_scaled_relabelings_share_the_class(self, n, c, rng):
        f = rng.choice(liftings_to_degree(n))
        g = scaled_relabeling(f, rng.sample(range(1, n + 1), n), c)
        assert g.coeffs.dtype == np.int64
        assert relabeling_classes([f, g]).tolist() == [0, 0]
        # every lifting has coefficients +-1 and relabeling keeps the
        # types, so one coefficient scaled or one term moved to another
        # type leaves the class
        assert set(np.abs(f.coeffs).tolist()) == {1}
        k = rng.randrange(len(g.types))
        coeffs = g.coeffs.copy()
        coeffs[k] *= rng.choice([2, -3, 7])
        types = g.types.copy()
        types[k] = (types[k] + rng.randrange(1, len(assoc_types(n, 1)))) \
            % len(assoc_types(n, 1))
        for h in (Identity._of_split(n, g.types, g.leaves, coeffs, "lifted"),
                  Identity._of_split(n, types, g.leaves, g.coeffs, "lifted")):
            assert relabeling_classes([f, h]).tolist() == [0, 1]

    @pytest.mark.parametrize("n, classes", [(5, 9), (6, 38), (7, 152)])
    def test_classes_of_the_liftings(self, n, classes, monkeypatch):
        # the liftings fall into 9, 38 and 152 classes, found without
        # np.unique, each led by its first member; through degree 6 they
        # are the classes of c * sigma f over all of S_n
        liftings = liftings_to_degree(n)

        def refused(*args, **kwargs):
            raise AssertionError("np.unique called")

        with monkeypatch.context() as patch:
            patch.setattr(np, "unique", refused)
            lead = relabeling_classes(liftings)
        assert len(set(lead.tolist())) == classes
        assert (lead <= np.arange(len(lead))).all()
        assert (lead[lead] == lead).all()
        assert pipeline._leads(liftings).tolist() \
            == sorted(set(lead.tolist()))
        if n == 7:
            return

        def primitive(f):
            sign = int(np.sign(f.coeffs[0])) * math.gcd(*f.coeffs.tolist())
            return (f.types.tobytes(), f.leaves.tobytes(),
                    tuple((f.coeffs // sign).tolist()))

        orbit: dict = {}
        for f in liftings:
            if primitive(f) not in orbit:
                new = len(set(orbit.values()))
                for sigma in itertools.permutations(range(1, n + 1)):
                    orbit[primitive(f.relabeled(sigma))] = new
        ids = [orbit[primitive(f)] for f in liftings]
        firsts: dict = {}
        for i, orbit_id in enumerate(ids):
            firsts.setdefault(orbit_id, i)
        assert lead.tolist() == [firsts[orbit_id] for orbit_id in ids]

    def test_unkeyed_identities_stay_alone(self):
        # object coefficients (past the int64 bound of coeff_array) get no
        # key, so every such identity is a class of its own and is fed
        liftings = liftings_to_degree(5)
        scaled = [scaled_relabeling(f, range(1, 6), 2 ** 70)
                  for f in liftings]
        assert all(f.coeffs.dtype == object for f in scaled)
        lead = relabeling_classes(scaled + liftings)
        assert lead[:12].tolist() == list(range(12))
        assert len(set(lead[12:].tolist())) == 9
        assert pipeline._leads(scaled).tolist() == list(range(12))
        # codes below t * n**n fit in int64 through degree 12 (58786 types);
        # at degree 13 (208012 types) they would not, so no key is formed.
        # Words stop at degree 10, so these are made from arrays
        for n, keyed in ((12, True), (13, False)):
            rng = random.Random(n)
            f = Identity._of_split(
                n, np.array([0, 1, 2]),
                np.array([rng.sample(range(n), n) for _ in range(3)],
                         dtype=np.int8), np.array([1, -2, 3]), "lifted")
            g = f.relabeled(rng.sample(range(1, n + 1), n))
            lead = relabeling_classes([f, Identity._of_split(
                n, g.types, g.leaves, -5 * g.coeffs, "lifted")])
            assert lead.tolist() == ([0, 0] if keyed else [0, 1])


def deficient(n: int) -> list:
    """The liftings to degree n of the first defining identity alone:
    they leave new > 0 in every partition of degrees 5 and 6."""
    f, _ = defining_identities()
    current = [f]
    for _ in range(4, n):
        current = [g for h in current for g in lift(h)]
    return current


class TestNewIdentityExtraction:
    @pytest.mark.parametrize("field", ['Q', 101])
    def test_deficient_generating_set(self, field):
        # lifting only the first defining identity leaves a gap at degree
        # 5 for some partition; the extracted vectors must close exactly
        # that gap and be genuine kernel elements
        partial = deficient(5)
        found_gap = False
        for lam in partitions(5):
            rho = RhoCache(lam, field)
            lrank, _, free, guard, _, _ = lifted_rank(5, lam, partial, field,
                                                      rho)
            _, nullity, _, _, state = kernel_rank(5, lam, field, rho=rho,
                                                  free=free, guard=guard)
            missing = nullity - lrank
            if missing == 0:
                continue
            found_gap = True
            vectors = new_identity_vectors(state, free, 14 * rho.dim)
            assert len(vectors) == missing
            X = xblock_matrix(5, lam, field)
            for v in vectors:
                prod = [sum(v[i] * X.rows[i][j] for i in range(len(v)))
                        for j in range(X.ncols)]
                if field != 'Q':
                    prod = [e % field for e in prod]
                assert not any(prod)
            # independent from the lifted span: ranks add up
            state = echelon_state(len(vectors[0]), field)
            for g in partial:
                state.add_rows(identity_block(g, lam, rho, 14))
            assert state.rank == lrank
            state.add_rows(vectors)
            assert state.rank == lrank + missing
        assert found_gap

    @pytest.mark.parametrize("n, field", [(5, 'Q'), (5, 101), (6, 101)])
    def test_emit_new_equals_the_two_pass_reference(self, n, field,
                                                    monkeypatch):
        # the report's --emit-new vectors, read off its own kernel state,
        # are the rows the two full passes of the reference give, and
        # print the same
        partial = deficient(n)
        monkeypatch.setattr(pipeline, "liftings_to_degree",
                            lambda *args, **kwargs: partial)
        rep = degree_report(ReportConfig(
            degree=n, field="Q" if field == 'Q' else "F", emit_new=True))
        rows = rep.to_json()["rows"]
        # every partition of degrees 5 and 6 misses some identities
        assert all(row.new > 0 for row in rep.rows)
        for row, printed in zip(rep.rows, rows):
            want = new_identity_vectors_reference(n, row.partition, partial,
                                                  field)
            assert len(want) == row.new
            assert (row.new_vectors or []) == want
            assert printed.get("new_vectors", []) \
                == [[str(e) for e in v] for v in want]


def count_xt_rows(monkeypatch) -> list:
    """Rows of each X^T batch kernel_rank reads, through the name it calls
    (as perfbench's tracer counts them)."""
    rows = []
    real = pipeline.xblock_transpose_rows

    def counted(*args, **kwargs):
        for batch in real(*args, **kwargs):
            rows.append(len(batch))
            yield batch
    monkeypatch.setattr(pipeline, "xblock_transpose_rows", counted)
    return rows


class TestKernelStop:
    # given the free columns F_L of the lifted rows and the guard vectors,
    # kernel_rank feeds X^T in the coordinates of the lifted rows at the
    # columns F_L and stops once that rank reaches |F_L| (proof in its
    # docstring)

    @pytest.mark.parametrize("n, field, stops", [
        (4, 'Q', 5), (5, 'Q', 7), (6, 101, 11)])
    def test_stop_matches_full_feed(self, n, field, stops, monkeypatch):
        liftings = liftings_to_degree(n)
        s = len(expansion.expansion_arrays(n).offsets) - 1
        t = len(assoc_types(n, 1))
        rows = count_xt_rows(monkeypatch)
        stopped = 0
        for lam in partitions(n):
            rho = RhoCache(lam, field)
            lrank, _, free, guard, _, _ = lifted_rank(n, lam, liftings,
                                                      field, rho)
            assert len(free) == t * rho.dim - lrank
            rows.clear()
            rank, nullity, fed, calls, state = kernel_rank(
                n, lam, field, rho=rho, free=free, guard=guard)
            assert state.ncols == len(free) == rank
            assert sum(rows) == fed * rho.dim
            assert calls == len(rows) and max(rows) <= echelon_state(
                t * rho.dim, field).batch_rows(rho.dim)
            assert (rank, nullity) == kernel_rank(n, lam, field, rho=rho)[:2]
            assert nullity == lrank
            stopped += fed < s
        assert stopped == stops

    def test_no_stop_while_new_is_positive(self, monkeypatch):
        # the liftings of one defining identity leave new > 0 in every
        # degree-6 partition: the rank at the columns F_L stays below
        # |F_L|, so every X^T row is fed and rank and nullity are those of
        # the full feed
        partial = deficient(6)
        s = len(expansion.expansion_arrays(6).offsets) - 1
        rows = count_xt_rows(monkeypatch)
        for lam in partitions(6):
            rho = RhoCache(lam, 101)
            lrank, _, free, guard, _, _ = lifted_rank(6, lam, partial, 101,
                                                      rho)
            full = kernel_rank(6, lam, 101, rho=rho)[:2]
            rows.clear()
            rank, nullity, fed, _, _ = kernel_rank(6, lam, 101, rho=rho,
                                                   free=free, guard=guard)
            assert nullity > lrank and rank < len(free)
            assert fed == s and sum(rows) == s * rho.dim
            assert (rank, nullity) == full

    def test_non_identity_lifting_fails(self, monkeypatch):
        # one fed lifting perturbed into a non-identity: some X^T row
        # does not annihilate the lifted rows, and the guard finds it in
        # every degree-6 partition
        liftings = liftings_to_degree(6)
        f = liftings[0]
        coeffs = f.coeffs.copy()
        coeffs[0] += 1
        bad = Identity._of_split(6, f.types, f.leaves, coeffs, "lifted")
        with pytest.raises(InvariantViolation):
            bad.check_kernel_membership()
        monkeypatch.setattr(pipeline, "liftings_to_degree",
                            lambda *args, **kwargs: [bad] + liftings[1:])
        with pytest.raises(InvariantViolation, match="not an identity"):
            degree_report(ReportConfig(degree=6, field="F"))
        for lam in partitions(6):
            rho = RhoCache(lam, 101)
            _, _, free, guard, _, _ = lifted_rank(
                6, lam, [bad] + liftings[1:], 101, rho)
            with pytest.raises(InvariantViolation, match="not an identity"):
                kernel_rank(6, lam, 101, rho=rho, free=free, guard=guard)

    @pytest.mark.parametrize("field", ['Q', 101])
    def test_foreign_certificate_fails(self, field):
        # forged guard vectors, not combinations of the lifted rows, fail
        # the check of the first X^T batch
        liftings = liftings_to_degree(5)
        lam = (3, 1, 1)
        rho = RhoCache(lam, field)
        _, _, free, guard, _, _ = lifted_rank(5, lam, liftings, field, rho)
        kernel_rank(5, lam, field, rho=rho, free=free, guard=guard)
        guard = guard.copy()
        guard[:, 0] += 1
        if field != 'Q':
            guard %= field
        with pytest.raises(InvariantViolation, match="after 0 D-types"):
            kernel_rank(5, lam, field, rho=rho, free=free, guard=guard)

    @pytest.mark.parametrize("n, field", [(6, 101), (6, 'Q'), (5, 'Q')])
    def test_kernel_coordinates(self, n, field):
        # random combinations of the raw lifted rows are annihilated by
        # every X^T row with each column block times A(id)**-T, and so
        # are the guard vectors lifted_rank draws (at degree 6 over Q,
        # whose lifted rank is slow, only the first)
        liftings = liftings_to_degree(n)
        t = len(assoc_types(n, 1))
        rng = np.random.default_rng(n)
        for lam in partitions(n):
            rho = RhoCache(lam, field)
            L = pipeline._block_rows(liftings, rho, t)
            u = rng.integers(0, 101, (3, len(L))) @ L
            if field == 'Q':
                u = u.astype(object)
            else:
                u %= field
            checks = [u.T]
            if field != 'Q' or n == 5 or lam == (6,):
                checks.append(lifted_rank(n, lam, liftings, field, rho)[3].T)
            raw = []
            for batch in expansion.xblock_transpose_rows(
                    n, lam, field, rho=rho, chunk=50,
                    dtype=echelon_state(1, field).row_dtype):
                if field != 'Q':
                    raw.append(annihilates(batch % field, u.T, field))
                X = rho.lifted_coordinates(batch)
                assert all(annihilates(X, vectors, field)
                           for vectors in checks)
            # without the change of coordinates they are not, where A(id)
            # is not the identity matrix
            assert not raw or all(raw) == (rho.a_id == np.eye(rho.dim)).all()


class TestKernelPrefix:
    # kernel_rank feeds KERNEL_PREFIX[n] first at degrees 7 and 8; the
    # prefix sets only when the stop comes (proof in its docstring)

    @pytest.mark.parametrize("n, count", [(7, 118), (8, 320)])
    def test_pinned_runs(self, n, count):
        s = len(pipeline._dtypes(n))
        runs = pipeline.KERNEL_PREFIX[n]
        assert all(0 <= a < b <= s for a, b in runs)
        # sorted and disjoint, with a gap between runs
        assert all(b < c for (_, b), (c, _) in zip(runs, runs[1:]))
        assert sum(b - a for a, b in runs) == count
        first, rest = pipeline._kernel_order(n, s)
        assert len(first) == count
        assert sorted(first.tolist() + rest.tolist()) == list(range(s))
        assert rest.tolist() == sorted(rest.tolist())

    def test_other_degrees_keep_canonical_order(self):
        for n in range(4, 7):
            s = len(pipeline._dtypes(n))
            [order] = pipeline._kernel_order(n, s)
            assert order.tolist() == list(range(s))

    @staticmethod
    def stopped_and_canonical(lam, field, monkeypatch, rows):
        """(rank, nullity, D-types fed, calls) of a stopped degree-7
        kernel rank, (rank, nullity) of the canonical full feed and the
        D-types of each batch of the stopped feed."""
        rho = RhoCache(lam, field)
        liftings = liftings_to_degree(7)
        lrank, _, free, guard, _, _ = lifted_rank(
            7, lam, [liftings[i] for i in pipeline._leads(liftings)], field,
            rho)
        rows.clear()
        stopped = kernel_rank(7, lam, field, rho=rho, free=free,
                              guard=guard)[:4]
        batches = [k // rho.dim for k in rows]
        assert sum(batches) == stopped[2]
        with monkeypatch.context() as m:
            m.delitem(pipeline.KERNEL_PREFIX, 7)
            full = kernel_rank(7, lam, field, rho=rho)[:2]
        assert full[1] == lrank
        return stopped, full, batches

    @pytest.mark.parametrize("lam, field", [
        ((7,), 101), ((1,) * 7, 101), ((6, 1), 101), ((2, 1, 1, 1, 1, 1), 101),
        ((7,), 'Q'), ((1,) * 7, 'Q')])
    def test_degree7_stops_at_the_prefix_end(self, lam, field, monkeypatch):
        # every degree-7 partition reaches t*d - r_L within the prefix; the
        # prefix learned over F_101 stops the Q feed there too
        rows = count_xt_rows(monkeypatch)
        stopped, full, batches = self.stopped_and_canonical(
            lam, field, monkeypatch, rows)
        assert stopped[:3] == (*full, 118)
        # the batches are built 132*d wide, and so take batch_rows(d) // d
        # D-types of a state that wide, 132 // 4 = 33 at d = 1 and 6
        # (not of the narrower state they feed, which at 1111111, 94
        # columns and 23 D-types a batch, would stop after 115); the last
        # prefix batch ends at the prefix's end
        per = echelon_state(132 * dimension(lam), field).batch_rows(
            dimension(lam)) // dimension(lam)
        assert per == 33
        assert batches == [per] * (118 // per) + [118 % per]
        assert stopped[3] == len(batches)

    @pytest.mark.parametrize("prefix", [
        pipeline.KERNEL_PREFIX[7][::-1],                  # runs reversed
        tuple((j, j + 1) for j in random.Random(7).sample(
            [j for a, b in pipeline.KERNEL_PREFIX[7] for j in range(a, b)],
            118)),                                        # D-types shuffled
        pipeline.KERNEL_PREFIX[7][:5],                    # truncated
        ((0, 10), (311, 429)),                            # wrong
    ])
    def test_any_prefix_gives_the_same_ranks(self, prefix, monkeypatch):
        rows = count_xt_rows(monkeypatch)
        monkeypatch.setitem(pipeline.KERNEL_PREFIX, 7, prefix)
        for lam in ((6, 1), (2, 1, 1, 1, 1, 1)):
            stopped, full, _ = self.stopped_and_canonical(
                lam, 101, monkeypatch, rows)
            assert stopped[:2] == full


@pytest.mark.release
def test_kernel_prefix_is_derived_again():
    # KERNEL_PREFIX is the union of the canonical rank profiles over F_101
    # of the source partitions its comment names (not the benchmark's 61
    # and 211111); at degree 7 that is also the union over all 15
    sources = {7: ((7,), (1,) * 7, (5, 2), (4, 3), (2, 2, 2, 1),
                   (2, 2, 1, 1, 1), (5, 1, 1), (3, 1, 1, 1, 1)),
               8: ((8,), (7, 1), (2, 1, 1, 1, 1, 1, 1), (1,) * 8)}
    for n, lams in sources.items():
        assert prefix_runs(n, lams) == pipeline.KERNEL_PREFIX[n]
    assert prefix_runs(7, partitions(7)) == pipeline.KERNEL_PREFIX[7]


class TestComparison:
    def test_defining_pair_generates_kernel(self):
        pair = list(defining_identities())
        basis = nullspace_identities(4, "lll")
        verdict = compare_modules(pair, basis, 4)
        assert verdict["equivalent"]
        assert verdict["rank_a"] == verdict["rank_b"] == 16

    def test_defining_pair_generates_kernel_mod_p(self):
        # the monomial method feeds F_p states the same row lists as Q
        pair = list(defining_identities())
        basis = nullspace_identities(4, "lll")
        verdict = compare_modules(pair, basis, 4, field=101)
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

    def test_memory_gate_marks_skipped(self, monkeypatch):
        monkeypatch.setattr(pipeline, "MEMORY_BUDGET", 0)
        rep = degree_report(ReportConfig(degree=4, field="Q"))
        assert all(row.skipped for row in rep.rows)
        assert all(row.lifted_rank is None for row in rep.rows)
        text = rep.to_text()
        assert "skipped" in text


@pytest.mark.parametrize("p", [32003, 1000003])
def test_degree6_table_at_wider_primes(p):
    # the int16 and int32 row stores; a rank mod p never exceeds the rank
    # over Q, so new = 0 at any prime proves there is no new identity
    rep = degree_report(ReportConfig(degree=6, field="F", prime=p))
    assert rep.prime == p
    assert rep.lifting_count == 84
    assert {row.partition: (row.lifted_rank, row.all_rank)
            for row in rep.rows} == DEGREE6_ROWS
    assert all(row.nullity == row.lifted_rank and row.new == 0
               for row in rep.rows)


def test_rank_mod_p_never_exceeds_rank_over_q():
    # an integer block with determinant 101: invertible over Q, singular
    # mod 101.  A rank mod p is at most the rank over Q, for the lifted
    # rows as for X^T, so nullity_p >= nullity_Q and lifted_p <= lifted_Q:
    # new_p >= new_Q, and new = 0 mod p proves new = 0 over Q
    block = np.array([[1, 2], [3, 107]])
    zero = np.zeros_like(block)
    xt = np.block([block, zero])      # rows of X^T, 4 columns
    lifted = np.block([zero, block])  # identities: lifted @ xt.T == 0
    assert not (lifted @ xt.T).any()
    ranks = {}
    for field in ('Q', 101):
        ranks[field] = []
        for rows in (xt, lifted):
            state = echelon_state(4, field)
            state.add_rows(rows)
            ranks[field].append(state.rank)
    assert ranks == {'Q': [2, 2], 101: [1, 1]}
    new = {field: (4 - xrank) - lrank for field, (xrank, lrank)
           in ranks.items()}
    assert new == {'Q': 0, 101: 2}


@pytest.mark.parametrize("argv", [
    ["report", "--prime", "49"], ["report", "--prime", "1"],
    ["kernel", "--field", "p", "--prime", "121"]])
def test_bad_prime_refused(argv, capsys, monkeypatch):
    # a composite modulus gave an "F_49" table: bad input, exit 1, refused
    # before any lifting or elimination starts
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(pipeline, "liftings_to_degree", no_work)
    monkeypatch.setattr(pipeline, "RhoCache", no_work)
    assert main(argv + ["--degree", "6", "--partition", "51"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: bad input: ")
    with pytest.raises(ValueError):
        kernel_rank(6, (5, 1), 49)


@pytest.mark.parametrize("argv", [
    ["lift", "--degree", "4"], ["lift", "--degree", "9"],
    ["kernel", "--degree", "5", "--partition", "31"],
    ["--dump-rep", "31", "2234"]])
def test_bad_input_exits_1(argv, capsys):
    # a degree lift does not cover, a partition of another degree and a
    # leaf order that is no permutation are bad input, not a violated
    # invariant (exit 2)
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: bad input: ")


def test_compare_mixed_degrees_exits_1(tmp_path, capsys):
    # identity files of two degrees are bad input (exit 1), not a violated
    # invariant (exit 2)
    pair = list(defining_identities())
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_identities(pair, str(a))
    save_identities(lift(pair[0]), str(b))
    assert main(["compare", "--a", str(a), "--b", str(b)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: bad input: mixed")


def test_report_progress_lines(capsys):
    # --progress adds one line per finished partition on stderr, with its
    # time and the part of it spent in each rank, both ranks, the
    # liftings and D-types fed and the add_rows calls that fed them, the
    # rows of a lifted call (56 // 4 = 14, cut to 12, three blocks of
    # d = 4) and the peak RSS after both ranks and after the lifted one,
    # and leaves stdout as it was
    assert main(["report", "--degree", "5"]) == 0
    plain = capsys.readouterr()
    assert main(["report", "--degree", "5", "--progress"]) == 0
    got = capsys.readouterr()
    assert got.out == plain.out and not plain.err
    done = [line for line in got.err.splitlines() if "done in" in line]
    assert len(done) == len(partitions(5))
    assert re.fullmatch(r"partition 41 \(d=4\): done in \d+\.\d\d s "
                        r"\(lifted rank \d+\.\d\d s, "
                        r"kernel rank \d+\.\d\d s\), lifted rank 21, fed 9 of 12 liftings "
                        r"in 3 calls of at most 12 rows, X\^T rank 35, X\^T fed "
                        r"18 of 42 D-types in 6 calls, "
                        r"peak RSS \d+ MiB \(\d+ MiB after the lifted rank\)",
                        done[1])


def test_peak_rss_units_and_missing_resource(monkeypatch):
    # ru_maxrss is KiB on Linux and bytes on macOS; without the resource
    # module (Windows) the figure is left out rather than failing import
    import resource

    class Usage:
        ru_maxrss = 3 * 2 ** 20
    monkeypatch.setattr(resource, "getrusage", lambda who: Usage)
    monkeypatch.setattr(sys, "platform", "linux")
    assert pipeline._peak_rss_mib() == 3 * 2 ** 10
    monkeypatch.setattr(sys, "platform", "darwin")
    assert pipeline._peak_rss_mib() == 3
    monkeypatch.setitem(sys.modules, "resource", None)
    assert pipeline._peak_rss_mib() is None


def traced_peak(run) -> int:
    """Bytes allocated at the peak of run() above those allocated when it
    started, as tracemalloc counts them (numpy reports its buffers)."""
    import tracemalloc
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


class TestRowMemory:
    """A rank holds each batch of rows once, in float32 at F_101, and
    beside it one product the size of the batch and one float chunk of
    the store.

    The bounds count the arrays each step holds at once, from the shapes
    of the run: R = batch_rows(d) rows in a batch (C // 4 cut to whole
    blocks of d), C = t*d columns, r stored rows at most (the rank
    reached), H = min(r, max(128, R)) rows in a float chunk of the store
    (_STORE_CHUNK = 128) and B = 4*R*C bytes for one float32 batch M.
    add_rows eliminates M in place; next to it:

    * _forward holds the coefficients of one chunk (R x H), the chunk
      (H x C) and the product (R x C): B + 4*R*H + 4*H*C bytes;
    * _add_block writes the new pivot rows into consumed rows of M.  It
      holds, per mini block of 64 rows, a coefficient block (64 x r) and
      a product (64 x C), and for the update of the earlier pivot rows,
      at most r of them, a coefficient block (r x 64) and a product
      (r x C): at most 4*64*(r + C) + 4*r*C bytes;
    * _back_eliminate holds a chunk, its product and the coefficients,
      int8 and float32 (H x R each): 8*H*C + 5*H*R bytes;
    * _append holds the grown int8 store beside the old one;
    * the int8 store (at most max(r, 256) x C bytes grown by half) lives
      throughout, also while the next batch is built;
    * 64 KiB cover the small arrays: flags, pivots, T**-1 and the
      32 KiB scratch of _mod_inplace.

    An int64 batch (2B) with a float copy beside it fails each bound.
    """

    P = 101

    def setup_rho(self, n, lam):
        # warm every cache first: the table, the liftings and the
        # A-matrices the partition meets
        liftings = liftings_to_degree(n)
        rho = RhoCache(lam, self.P)
        lifted_rank(n, lam, liftings, self.P, rho)
        kernel_rank(n, lam, self.P, rho=rho)
        return [liftings[i] for i in pipeline._leads(liftings)], rho

    @staticmethod
    def shapes(n, rho, r):
        """R, C, B, H and the store bytes of the docstring."""
        t, d = len(assoc_types(n, 1)), rho.dim
        C = t * d
        R = echelon_state(C, TestRowMemory.P).batch_rows(d)
        assert R == C // 4 // d * d
        return R, C, 4 * R * C, min(r, max(128, R)), 1.5 * max(r, 256) * C

    @staticmethod
    def elim(R, C, B, H, r, store):
        return B + max(B + 4 * R * H + 4 * H * C,
                       4 * 64 * (r + C) + 4 * r * C,
                       8 * H * C + 5 * H * R, store) + store

    def test_kernel_rank(self):
        n, lam = 6, (3, 2, 1)
        liftings, rho = self.setup_rho(n, lam)
        d = rho.dim
        r = kernel_rank(n, lam, self.P, rho=rho)[0]
        R, C, B, H, store = self.shapes(n, rho, r)
        assert (R, C) == (160, 672)  # 10 D-types a batch
        elim = self.elim(R, C, B, H, r, store)
        # building a batch: the batch, and for one raw_of_elements call
        # over E table entries the int8 A-matrices, their float32
        # products and the sums written into the batch (1 + 4 + 4 bytes
        # per entry times d*d), plus index arrays over its entries
        table = expansion.expansion_arrays(n)
        s = len(table.offsets) - 1
        E = int(np.diff(table.offsets[np.r_[0:s:R // d, s]]).max())
        assert E * d * d <= expansion.XBLOCK_CALL_ENTRIES  # one call
        build = B + 9 * E * d * d + 8 * (n + 8) * E + store
        bound = max(elim, build) + 2 ** 16
        peak = traced_peak(lambda: kernel_rank(n, lam, self.P, rho=rho))
        assert peak <= bound, (peak, bound, B)

    def test_lifted_rank(self):
        # the 38 liftings the report feeds, one per relabeling class, in
        # four add_rows calls of at most ten blocks; the guard vectors
        # convert a chunk of the store at a time, within the same bounds
        n, lam = 6, (4, 1, 1)
        fed, rho = self.setup_rho(n, lam)
        d = rho.dim
        r = lifted_rank(n, lam, fed, self.P, rho)[0]
        R, C, B, H, store = self.shapes(n, rho, r)
        assert (R, C) == (100, 420)
        elim = self.elim(R, C, B, H, r, store)
        # building: the rows and, per term of the liftings of one batch,
        # one d x d product and at most one d x d sum, plus index arrays
        # over the terms of every lifting
        terms = sum(len(f.types) for f in fed)
        batch_terms = max(sum(len(f.types) for f in fed[a:a + R // d])
                          for a in range(0, len(fed), R // d))
        build = B + 2 * 4 * batch_terms * d * d + 10 * 8 * terms + store
        bound = max(elim, build) + 2 ** 16
        peak = traced_peak(lambda: lifted_rank(n, lam, fed, self.P, rho))
        assert peak <= bound, (peak, bound, B)


@pytest.fixture(scope="module")
def report():
    return degree_report(ReportConfig(degree=4, field="Q"))


class TestReportFormats:

    def test_json_schema(self, report):
        data = report.to_json()
        assert set(data) >= {"degree", "field", "prime", "rows"}
        assert "chunk" not in data
        row = data["rows"][0]
        assert set(row) >= {"partition", "d", "lifted", "all", "new",
                            "batch_rows", "lifted_calls", "kernel_calls"}
        assert set(row["lifted"]) == {"rows", "cols", "rank"}
        assert set(row["all"]) == {"rows", "cols", "rank", "nullity"}
        json.dumps(data)  # must be serializable as-is

    def test_json_timings_and_peak(self, report, monkeypatch):
        # each row carries the seconds of its two ranks and the peak RSS
        # after its lifted rank and after it, as --progress prints them,
        # the first also in the CSV; a skipped row has none
        import csv
        import io
        rows = report.to_json()["rows"]
        for row in rows:
            assert row["lifted_s"] >= 0 and row["kernel_s"] >= 0
            assert 0 < row["lifted_peak_rss_mib"] <= row["peak_rss_mib"]
        assert [float(row["lifted_peak_rss_mib"]) for row in
                csv.DictReader(io.StringIO(report.to_csv()))] \
            == [row["lifted_peak_rss_mib"] for row in rows]
        monkeypatch.setattr(pipeline, "MEMORY_BUDGET", 0)
        skipped = degree_report(ReportConfig(degree=4, field="Q"))
        for row in skipped.to_json()["rows"]:
            assert (row["lifted_s"], row["kernel_s"],
                    row["lifted_peak_rss_mib"], row["peak_rss_mib"],
                    row["kernel_dtypes_fed"], row["batch_rows"],
                    row["lifted_calls"], row["kernel_calls"]) == (None,) * 8

    def test_kernel_dtypes_fed(self, report):
        # the figure --progress prints as "X^T fed K of s D-types", in the
        # JSON rows and the CSV; degree 4 has 14 D-types
        import csv
        import io
        fed = [row["kernel_dtypes_fed"] for row in report.to_json()["rows"]]
        assert all(1 <= k <= 14 for k in fed)
        assert [int(row["kernel_dtypes_fed"]) for row in
                csv.DictReader(io.StringIO(report.to_csv()))] == fed

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


def test_report_does_not_import_numpy_ma():
    # np.setdiff1d and the plain np.unique import numpy.ma, which costs
    # about 10 ms at the first call; a degree-7 F_101 report needs neither
    code = ("import sys\n"
            "from prejordan import pipeline\n"
            "pipeline.degree_report(pipeline.ReportConfig(\n"
            "    degree=7, field='F', partitions=((7,),)))\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(Path(pipeline.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
