"""Equivalence classes, incidence lists, hypergraphs, and hard instances."""

import time
from dataclasses import replace

import pytest

from choosability import construction, solver
from choosability.bounds import AdmissibilityViolated
from choosability.construction import (
    ClassSpace,
    InstanceTooLarge,
    augmented_hypergraph,
    hard_instance,
    verify_design,
)
from choosability.gf import FiniteField, OrderUnavailable
from choosability.instances import ColorOutOfRange, ListAssignment
from conftest import (ADMISSIBLE_16, class_of, furedi_hypergraph, reference_class_table,
                      reference_verify_design)


# -- classes -------------------------------------------------------------------

def test_class_counts():
    assert len(ClassSpace(FiniteField(5), 2).reps) == 12  # (25 - 1) / 2
    assert len(ClassSpace(FiniteField(7), 3).reps) == 16  # (49 - 1) / 3
    eight = ClassSpace(FiniteField(3), 1).reps
    assert len(eight) == 8
    # with the trivial subgroup every nonzero pair is its own class
    assert list(eight) == [
        (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]


def test_orbit_structure():
    for q, c in ADMISSIBLE_16:
        fld = FiniteField(q)
        space = ClassSpace(fld, c)
        assert len(space.reps) * c == q * q - 1
        assert len(space.subgroup) == c
        assert 1 in space.subgroup
        assert {fld.mul(s, t) for s in space.subgroup for t in space.subgroup} == space.subgroup


def test_class_space_requires_cap_dividing_group_order():
    with pytest.raises(OrderUnavailable):
        ClassSpace(FiniteField(7), 5)  # 5 does not divide 6


def test_class_of_examples():
    field = FiniteField(5)
    space = ClassSpace(field, 2)
    cls = class_of(space, 1, 2)
    assert space.reps[cls] == (1, 2)
    # (4, 3) = 4 * (1, 2) lies in the same orbit under H = {1, 4}
    assert class_of(ClassSpace(field, 2), 4, 3) == cls
    assert class_of(ClassSpace(FiniteField(3), 1), 2, 1) == class_of(ClassSpace(FiniteField(3), 1), 2, 1)


def test_list_of_class_out_of_range_rejected():
    # ids index a tuple, so an unchecked negative id would alias another class
    space = ClassSpace(FiniteField(5), 2)
    for i in (-1, len(space.reps), 10 ** 6):
        with pytest.raises(ValueError):
            space.list_of_class(i)


def test_ids_follow_representative_order():
    for q, c in [(5, 2), (7, 3), (9, 4)]:
        space = ClassSpace(FiniteField(q), c)
        cls_list = space.reps
        reps = list(cls_list)
        assert reps == sorted(reps)
        assert [class_of(space, a, b) for a, b in cls_list] == list(range(len(cls_list)))


PRIME_POWERS_64 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
                   37, 41, 43, 47, 49, 53, 59, 61, 64]


def test_class_table_matches_orbit_scan():
    # every c dividing q - 1, c = 1 and c = q - 1 included
    for q in PRIME_POWERS_64:
        fld = FiniteField(q)
        for c in range(1, q):
            if (q - 1) % c:
                continue
            space = ClassSpace(fld, c)
            reps, class_id = reference_class_table(fld, c)
            assert space.reps == reps, (q, c)
            assert [i for row in space._rows for i in row] == class_id, (q, c)


# -- incidence lists -------------------------------------------------------------

def _members_from_raw_pair(space, a, b):
    """Incidence membership computed directly from an arbitrary orbit
    member (a, b), without canonicalizing it first."""
    fld = space.field
    return frozenset(
        i for i, (x, y) in enumerate(space.reps)
        if fld.add(fld.mul(a, x), fld.mul(b, y)) in space.subgroup
    )


def test_list_of_class_gf3_example():
    # over GF(3) with H = {1}: members of L<1,0> solve x = 1, so the
    # classes are exactly (1,0), (1,1), (1,2)
    field = FiniteField(3)
    space = ClassSpace(field, 1)
    members = space.list_of_class(class_of(space, 1, 0))
    assert sorted(space.reps[i] for i in members) == [(1, 0), (1, 1), (1, 2)]


def test_list_sizes_are_q():
    for q, c in ADMISSIBLE_16:
        space = ClassSpace(FiniteField(q), c)
        for i in range(len(space.reps)):
            assert len(space.list_of_class(i)) == q


def test_lists_well_defined_across_orbit_members():
    for q, c in ADMISSIBLE_16:
        space = ClassSpace(FiniteField(q), c)
        fld = space.field
        for i, (a, b) in enumerate(space.reps):
            reference = _members_from_raw_pair(space, a, b)
            for t in space.subgroup:
                scaled = _members_from_raw_pair(
                    space, fld.mul(t, a), fld.mul(t, b))
                assert scaled == reference
            assert frozenset(space.list_of_class(i)) == reference


def test_intersection_dichotomy():
    for q, c in [(5, 2), (7, 3), (8, 1), (9, 4), (16, 5)]:
        space = ClassSpace(FiniteField(q), c)
        member_sets = [frozenset(space.list_of_class(i))
                       for i in range(len(space.reps))]
        for i in range(len(member_sets)):
            for j in range(i + 1, len(member_sets)):
                assert len(member_sets[i] & member_sets[j]) in (0, c)


def test_incidence_symmetry_and_regularity():
    for q, c in [(5, 2), (7, 3), (9, 2), (13, 6)]:
        hypergraph = furedi_hypergraph(q, c)
        edge_sets = [set(edge) for edge in hypergraph.lists]
        for u in range(hypergraph.num_colors):
            for v in edge_sets[u]:
                assert u in edge_sets[v]
        degrees = [0] * hypergraph.num_colors
        for edge in hypergraph.lists:
            for v in edge:
                degrees[v] += 1
        assert degrees == [q] * hypergraph.num_colors


# -- origin lines -----------------------------------------------------------------

def test_origin_line_examples():
    field5 = FiniteField(5)
    space5 = ClassSpace(field5, 2)
    line = space5.origin_line(0)
    assert sorted(space5.reps[i] for i in line) == [(1, 0), (2, 0)]
    field3 = FiniteField(3)
    space3 = ClassSpace(field3, 1)
    line = space3.origin_line(1)
    assert sorted(space3.reps[i] for i in line) == [(1, 1), (2, 2)]


def test_origin_line_is_the_classes_of_its_pairs():
    # by orbits, not the class table: class i lies on the line when reps[i]
    # is t*(x, s*x) for some t in H and some x != 0
    for q, c in ADMISSIBLE_16:
        fld = FiniteField(q)
        space = ClassSpace(fld, c)
        for s in range(2 * c):
            line = {(fld.mul(t, x), fld.mul(t, fld.mul(s, x)))
                    for t in space.subgroup for x in range(1, q)}
            assert space.origin_line(s) == tuple(
                i for i, rep in enumerate(space.reps) if rep in line)


def test_origin_line_sizes_disjointness_transversality():
    for q, c in [(5, 2), (7, 3), (9, 4), (8, 1)]:
        space = ClassSpace(FiniteField(q), c)
        lines = [frozenset(space.origin_line(m))
                 for m in range(q)]
        for line in lines:
            assert len(line) == (q - 1) // c
        for i in range(q):
            for j in range(i + 1, q):
                assert not lines[i] & lines[j]
        for i in range(len(space.reps)):
            members = frozenset(space.list_of_class(i))
            for line in lines:
                assert len(line & members) <= 1


# -- augmented hypergraph and hard instance ---------------------------------------

def test_augmented_examples():
    hypergraph = augmented_hypergraph(5, 2)
    assert hypergraph.num_colors == 13
    assert len(hypergraph.lists) == 14
    assert all(len(edge) == 5 for edge in hypergraph.lists)
    small = augmented_hypergraph(3, 1)
    assert small.num_colors == 9
    assert len(small.lists) == 10
    assert all(len(edge) == 3 for edge in small.lists)


def test_bundles_meet_only_in_fresh_vertex():
    for q, c in [(5, 2), (7, 3), (9, 4), (3, 1)]:
        hypergraph = augmented_hypergraph(q, c)
        fresh = hypergraph.num_colors - 1
        bundle1, bundle2 = (set(e) for e in hypergraph.lists[-2:])
        assert fresh in bundle1 and fresh in bundle2
        assert bundle1 & bundle2 == {fresh}


def test_augmented_inadmissible():
    with pytest.raises(AdmissibilityViolated):
        augmented_hypergraph(4, 3)  # c = q - 1
    with pytest.raises(AdmissibilityViolated):
        augmented_hypergraph(7, 4)  # 4 does not divide 6
    with pytest.raises(AdmissibilityViolated):
        hard_instance(6, 1)  # not a prime power
    # (q^2 - 1) / c is the class count; c < 1 must be refused before it
    for c in (0, -2):
        with pytest.raises(AdmissibilityViolated):
            hard_instance(5, c)


def test_augmented_designs_verify():
    for q, c in ADMISSIBLE_16:
        report = verify_design(augmented_hypergraph(q, c), q, c)
        assert report.ok, report.violations


def test_hard_instance_shapes():
    inst = hard_instance(5, 2)
    assert (inst.n, inst.k, inst.num_colors) == (14, 5, 13)
    inst = hard_instance(3, 1)
    assert (inst.n, inst.k, inst.num_colors) == (10, 3, 9)
    assert inst.meta["construction"] == "furedi-augmented"
    assert inst.meta["p"] == 3 and inst.meta["m"] == 1 and inst.meta["modulus"] is None
    inst16 = hard_instance(16, 3)
    assert inst16.meta["modulus"] is not None
    assert len(inst16.meta["modulus"]) == 5  # degree-4 modulus over GF(2)


def test_hypergraphs_are_list_assignments():
    for q, c in ADMISSIBLE_16:
        base, augmented = furedi_hypergraph(q, c), augmented_hypergraph(q, c)
        assert (base.n, base.k, base.c, base.num_colors) == (len(base.lists), q, c, base.n)
        assert (augmented.k, augmented.c, augmented.meta["q"]) == (q, c, q)
        assert augmented.lists[:-2] == base.lists
        assert augmented.num_colors == augmented.n - 1 == base.n + 1


def test_augmented_hypergraph_is_the_hard_instance():
    assert augmented_hypergraph is hard_instance
    for q, c in ADMISSIBLE_16:
        assert hard_instance(q, c) == augmented_hypergraph(q, c)


class _FieldBuilt(Exception):
    pass


def test_instance_cap_is_checked_before_the_field(monkeypatch):
    """At c = 1 the largest field under the 2**22-entry cap is q = 157:
    n*q is 3,870,050 there and 4,330,910 at the next prime, q = 163."""
    def refuse(q):
        raise _FieldBuilt(q)

    monkeypatch.setattr(construction, "FiniteField", refuse)
    with pytest.raises(InstanceTooLarge, match="4194304"):
        hard_instance(163, 1)
    with pytest.raises(_FieldBuilt):
        hard_instance(157, 1)


def test_hard_instance_valid_and_one_color_short():
    for q, c in ADMISSIBLE_16:
        inst = hard_instance(q, c)
        assert inst.n == (q * q - 1) // c + 2
        assert inst.num_colors == inst.n - 1
        assert solver.validate_assignment(inst, q, c).valid


# -- design verification ------------------------------------------------------------

def test_verify_design_passes_on_furedi():
    report = verify_design(furedi_hypergraph(5, 2), 5, 2)
    assert report.ok
    assert report.n_vertices == 12 and report.n_edges == 12
    assert report.max_intersection == 2
    assert report.intersection_sizes == (0, 2)
    assert report.degree_histogram == {5: 12}


def test_verify_design_flags_uniformity_violation():
    base = furedi_hypergraph(5, 2)
    edges = list(base.lists)
    edges[3] = edges[3][:-1]  # plant a defect: drop one vertex
    broken = replace(base, lists=tuple(edges))
    report = verify_design(broken, 5, 2)
    assert not report.ok
    assert any("edge 3" in v and "size 4" in v for v in report.violations)


def test_verify_design_flags_intersection_violation():
    base = furedi_hypergraph(3, 1)
    edges = base.lists + (base.lists[0],)  # duplicate edge overlaps in q > c
    report = verify_design(replace(base, lists=edges), 3, 1)
    assert not report.ok
    assert any("intersect" in v for v in report.violations)


@pytest.mark.parametrize("faults, error, fragment", [
    ({1: (0, 0, 6), 5: (0, 1, 99)}, ValueError, r"lists\[1\] must be strictly increasing"),
    ({2: (6, 3, 0), 4: (1.5, 2, 3)}, ValueError, r"lists\[2\] must be strictly increasing"),
    ({3: (-1, 2, 3), 6: (2, 1, 0)}, ColorOutOfRange, r"lists\[3\] contains -1, outside \[0, 8\)"),
    ({0: (0, 3, 8), 7: (-1, 0, 1)}, ColorOutOfRange, r"lists\[0\] contains 8, outside \[0, 8\)"),
    ({4: (True, 3, 6), 5: (0, 0, 1)}, ColorOutOfRange, r"lists\[4\] contains True, outside"),
    ({2: (0, 1.5, 6), 6: (9, 8, 7)}, ColorOutOfRange, r"lists\[2\] contains 1.5, outside"),
    ({5: ("1", 3, 6), 7: (0, 0, 0)}, ColorOutOfRange, r"lists\[5\] contains '1', outside"),
], ids=["repeat", "out_of_order", "negative", "num_colors", "bool", "float", "str"])
def test_list_assignment_refuses_a_malformed_family(faults, error, fragment):
    # every audit relies on the lists being strictly increasing ints in
    # [0, num_colors), so a family is refused when built or replaced, with
    # its first faulty list named even when a later list is faulty too
    base = furedi_hypergraph(3, 1)
    lists = list(base.lists)
    for v, lst in faults.items():
        lists[v] = lst
    for build in (lambda: ListAssignment(k=3, c=1, num_colors=8, lists=tuple(lists)),
                  lambda: replace(base, lists=tuple(lists))):
        with pytest.raises(error, match=fragment) as refused:
            build()
        assert type(refused.value) is error
    assert ListAssignment(k=0, c=0, num_colors=0, lists=((), ())).lists == ((), ())


def test_verify_design_counts_unheld_vertices_without_visiting_them():
    # two edges over 10**12 vertices: the vertices no edge holds are only counted
    design = ListAssignment(k=2, c=1, num_colors=10 ** 12,
                            lists=((0, 1), (1, 10 ** 12 - 1)))
    start = time.perf_counter()
    report = verify_design(design, 2, 1)
    assert time.perf_counter() - start < 1
    assert report.ok
    assert report.degree_histogram == {0: 10 ** 12 - 3, 1: 2, 2: 1}


def _assert_verify_matches_reference(design, q, c):
    for cap in (c - 1, c, c + 1):
        assert verify_design(design, q, cap) == reference_verify_design(design, q, cap)


def test_verify_design_degree_paths_match_reference():
    # the degrees are one count over all edges, which must match the
    # reference's count edge by edge
    for q, c in [(3, 1), (5, 2), (7, 3), (8, 1), (9, 4), (16, 5)]:
        base = augmented_hypergraph(q, c)
        for design in (base, replace(base, lists=())):  # and the empty design
            _assert_verify_matches_reference(design, q, c)
            _assert_verify_matches_reference(design, q + 1, c)  # every edge the wrong size
    empty = ListAssignment(k=3, c=1, num_colors=0, lists=())
    _assert_verify_matches_reference(empty, 3, 1)
