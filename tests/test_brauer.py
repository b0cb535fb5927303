import pytest
from hypothesis import given
import hypothesis.strategies as st

from conicring import (
    TRIVIAL_CLASS,
    TRIVIAL_SUBGROUP,
    BrauerClass,
    Place,
    Subgroup,
    TransvectionOp,
    class_add,
    contains,
    join,
    reduce_generators,
    replay,
    span,
    subgroup_leq,
)

from conftest import brauer_classes
from oracles import span_dim, subset_sums

P2, P3, P5 = Place.finite(2), Place.finite(3), Place.finite(5)
INF = Place.real()
S_2INF = BrauerClass([P2, INF])
S_23 = BrauerClass([P2, P3])
S_3INF = BrauerClass([P3, INF])


class TestBrauerClass:
    def test_even_cardinality_enforced(self):
        with pytest.raises(ValueError):
            BrauerClass([P2])

    def test_normalized_order(self):
        assert BrauerClass([INF, P2]) == S_2INF
        assert str(S_2INF) == "{2,inf}"
        assert str(TRIVIAL_CLASS) == "{}"

    def test_add_self_is_trivial(self):
        assert class_add(S_2INF, S_2INF) == TRIVIAL_CLASS

    def test_add_identity(self):
        assert class_add(S_2INF, TRIVIAL_CLASS) == S_2INF

    def test_add_symmetric_difference(self):
        assert class_add(S_2INF, S_23) == S_3INF

    @given(brauer_classes(), brauer_classes())
    def test_parity_preserved(self, x, y):
        assert len(class_add(x, y).places) % 2 == 0


class TestSpan:
    def test_empty(self):
        assert span([]) == TRIVIAL_SUBGROUP
        assert TRIVIAL_SUBGROUP.dim == 0

    def test_duplicates_collapse(self):
        g = span([S_2INF, S_2INF])
        assert g.dim == 1
        assert g.basis == (S_2INF,)

    def test_dependent_triple_has_rank_two(self):
        classes = [S_2INF, S_23, S_3INF]
        assert span_dim(classes) == 2
        assert span(classes).dim == 2

    @given(st.lists(brauer_classes(), max_size=5))
    def test_matches_subset_sum_oracle(self, classes):
        g = span(classes)
        assert 2**g.dim == len(subset_sums(classes))

    @given(st.lists(brauer_classes(), max_size=5), st.randoms())
    def test_order_independent(self, classes, rng):
        shuffled = classes[:]
        rng.shuffle(shuffled)
        assert span(shuffled) == span(classes)


class TestJoin:
    def test_trivial_identity(self):
        g = span([S_2INF])
        assert join(g, TRIVIAL_SUBGROUP) == g

    def test_idempotent(self):
        g = span([S_2INF, S_23])
        assert join(g, g) == g

    def test_independent_classes(self):
        assert join(span([S_2INF]), span([S_23])).dim == 2

    @given(st.lists(brauer_classes(), max_size=3), st.lists(brauer_classes(), max_size=3))
    def test_commutative_and_bounded(self, xs, ys):
        g1, g2 = span(xs), span(ys)
        j = join(g1, g2)
        assert j == join(g2, g1)
        assert max(g1.dim, g2.dim) <= j.dim <= g1.dim + g2.dim

    @given(
        st.lists(brauer_classes(), max_size=2),
        st.lists(brauer_classes(), max_size=2),
        st.lists(brauer_classes(), max_size=2),
    )
    def test_associative(self, xs, ys, zs):
        g1, g2, g3 = span(xs), span(ys), span(zs)
        assert join(join(g1, g2), g3) == join(g1, join(g2, g3))


class TestContains:
    def test_trivial_class_everywhere(self):
        assert contains(TRIVIAL_SUBGROUP, TRIVIAL_CLASS)
        assert contains(span([S_2INF]), TRIVIAL_CLASS)

    def test_trivial_group_contains_nothing_else(self):
        assert not contains(TRIVIAL_SUBGROUP, S_2INF)

    def test_sum_is_contained(self):
        assert contains(span([S_2INF, S_23]), S_3INF)

    @given(st.lists(brauer_classes(), max_size=4), brauer_classes())
    def test_matches_subset_sum_oracle(self, classes, x):
        assert contains(span(classes), x) == (x in subset_sums(classes))


class TestSubgroupLeq:
    def test_trivial_below_everything(self):
        assert subgroup_leq(TRIVIAL_SUBGROUP, span([S_2INF]))

    def test_reflexive(self):
        g = span([S_2INF, S_23])
        assert subgroup_leq(g, g)

    def test_incomparable(self):
        assert not subgroup_leq(span([S_2INF]), span([S_23]))

    @given(st.lists(brauer_classes(), max_size=3), st.lists(brauer_classes(), max_size=3))
    def test_mutual_inclusion_is_equality(self, xs, ys):
        g1, g2 = span(xs), span(ys)
        both = subgroup_leq(g1, g2) and subgroup_leq(g2, g1)
        assert both == (g1 == g2)


class TestSubgroupValidation:
    def test_rejects_zero_class(self):
        with pytest.raises(ValueError):
            Subgroup([TRIVIAL_CLASS])

    def test_rejects_shared_pivot(self):
        with pytest.raises(ValueError):
            Subgroup([S_2INF, S_23])  # both have pivot 2

    def test_rejects_unordered_pivots(self):
        with pytest.raises(ValueError):
            Subgroup([S_3INF, S_2INF])

    def test_accepts_canonical(self):
        assert Subgroup([S_2INF, S_3INF]).dim == 2


class TestTransvections:
    def test_op_requires_distinct_indices(self):
        with pytest.raises(ValueError):
            TransvectionOp(1, 1)

    def test_replay_empty(self):
        e = [S_2INF, S_23]
        assert replay(e, []) == e

    def test_replay_adding_zero_class(self):
        state = replay([S_2INF, TRIVIAL_CLASS], [TransvectionOp(1, 0)])
        assert state == [S_2INF, TRIVIAL_CLASS]

    def test_replay_out_of_range(self):
        with pytest.raises(IndexError):
            replay([S_2INF], [TransvectionOp(0, 1)])

    def test_reduce_canonical_input_needs_no_ops(self):
        ops, basis = reduce_generators([S_2INF, S_3INF])
        assert ops == []
        assert basis.basis == (S_2INF, S_3INF)

    def test_reduce_duplicate_pair(self):
        ops, basis = reduce_generators([S_2INF, S_2INF])
        assert ops == [TransvectionOp(0, 1)]
        assert replay([S_2INF, S_2INF], ops) == [S_2INF, TRIVIAL_CLASS]
        assert basis.basis == (S_2INF,)

    def test_reduce_dependent_triple(self):
        classes = [S_2INF, S_23, S_3INF]
        ops, basis = reduce_generators(classes)
        final = replay(classes, ops)
        assert final == list(basis.basis) + [TRIVIAL_CLASS]
        assert basis == span(classes)

    @given(st.lists(brauer_classes(), max_size=6))
    def test_reduce_reaches_canonical_form(self, classes):
        ops, basis = reduce_generators(classes)
        assert basis == span(classes)
        final = replay(classes, ops)
        padding = [TRIVIAL_CLASS] * (len(classes) - basis.dim)
        assert final == list(basis.basis) + padding

    @given(st.lists(brauer_classes(), max_size=6))
    def test_every_intermediate_state_spans_the_same(self, classes):
        ops, _ = reduce_generators(classes)
        target = span(classes)
        state = list(classes)
        for op in ops:
            state = replay(state, [op])
            assert span(state) == target

    @given(st.lists(brauer_classes(), max_size=8))
    def test_op_budget(self, classes):
        ops, basis = reduce_generators(classes)
        assert len(ops) <= 3 * len(classes) * (basis.dim + 1)


#: Wider than conftest's pool, so reductions cancel more places.
WIDE_POOL = [Place.finite(p) for p in (2, 3, 5, 7, 11, 13)] + [INF]


def rebuilt(group):
    """The same subgroup built through the checked constructors only."""
    return Subgroup(tuple(BrauerClass(c.places) for c in group.basis))


class TestTrustedConstruction:
    """`span`, `join` and `reduce_generators` skip the constructors' checks."""

    @given(st.lists(brauer_classes(WIDE_POOL), max_size=7),
           st.lists(brauer_classes(WIDE_POOL), max_size=4))
    def test_results_pass_the_checked_constructors(self, classes, more):
        g, h = span(classes), span(more)
        _, reduced = reduce_generators(classes)
        for group in (g, join(g, h), reduced):
            assert rebuilt(group) == group
