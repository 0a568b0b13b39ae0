import pytest

from perigon.fixcount import fix_mgons, fix_polygons
from perigon.model import ElementClass, GroupKind, classify, dihedral_group, element_classes
from perigon.oracle import TupleSet, fix_count_direct


def test_fix_polygons_examples():
    assert fix_polygons(4, ElementClass.identity()) == 1
    assert fix_polygons(6, ElementClass.rotation(2)) == 2**3 - 1 - 3 == 4
    assert fix_polygons(13, ElementClass.reflection_odd()) == 2**7 - 3 * 2**3 + 1 == 105


def test_fix_mgons_examples():
    assert fix_mgons(6, 4, ElementClass.rotation(2)) == 3
    assert fix_mgons(6, 3, ElementClass.rotation(2)) == 0
    assert fix_mgons(12, 4, ElementClass.identity()) == 495 - 240 == 255


def test_rejects_inconsistent_class():
    with pytest.raises(ValueError):
        fix_polygons(12, ElementClass.reflection_odd())
    with pytest.raises(ValueError):
        fix_polygons(13, ElementClass.reflection_even_no_fixed_point())
    with pytest.raises(ValueError):
        fix_polygons(13, ElementClass.reflection_even_two_fixed_points())
    with pytest.raises(ValueError):
        fix_polygons(12, ElementClass.rotation(5))
    with pytest.raises(ValueError):
        fix_polygons(2, ElementClass.identity())


def test_rejects_m_out_of_range():
    with pytest.raises(ValueError):
        fix_mgons(8, 2, ElementClass.identity())
    with pytest.raises(ValueError):
        fix_mgons(8, 9, ElementClass.identity())


def test_matches_exhaustive_scan():
    # every element of the symmetry group on up to 16 points, every weight
    for n in range(3, 17):
        for sigma in dihedral_group(n):
            cls = classify(sigma)
            assert fix_polygons(n, cls) == fix_count_direct(n, sigma, TupleSet.GOOD)
            for m in range(3, n + 1):
                assert fix_mgons(n, m, cls) == fix_count_direct(
                    n, sigma, TupleSet.GOOD, weight=m)


def test_column_sums():
    # good tuples partition by weight, so the per-weight counts sum up
    for n in range(3, 41):
        for cls, _ in element_classes(n, GroupKind.DIHEDRAL):
            total = sum(fix_mgons(n, m, cls) for m in range(3, n + 1))
            assert total == fix_polygons(n, cls), (n, str(cls))


def test_class_independence():
    # every element of one class fixes the same number of good tuples
    for n in range(3, 15):
        by_class = {}
        for sigma in dihedral_group(n):
            cls = classify(sigma)
            count = fix_count_direct(n, sigma, TupleSet.GOOD)
            assert by_class.setdefault(cls, count) == count, (n, str(sigma))
