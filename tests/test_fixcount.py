import importlib
import pkgutil

import pytest

import perigon
from perigon import fixcount
from perigon.fixcount import fix_mgons, fix_polygons
from perigon.model import ElementClass, ElementKind, GroupKind, element_classes


def test_fix_polygons_examples():
    assert fix_polygons(4, ElementClass(ElementKind.IDENTITY)) == 1
    assert fix_polygons(6, ElementClass(ElementKind.ROTATION, 2)) == 2**3 - 1 - 3 == 4
    assert fix_polygons(13, ElementClass(ElementKind.REFLECTION_ODD)) == 2**7 - 3 * 2**3 + 1 == 105


def test_fix_mgons_examples():
    assert fix_mgons(6, 4, ElementClass(ElementKind.ROTATION, 2)) == 3
    assert fix_mgons(6, 3, ElementClass(ElementKind.ROTATION, 2)) == 0
    assert fix_mgons(12, 4, ElementClass(ElementKind.IDENTITY)) == 495 - 240 == 255


def test_rejects_inconsistent_class():
    with pytest.raises(ValueError):
        fix_polygons(12, ElementClass(ElementKind.REFLECTION_ODD))
    with pytest.raises(ValueError):
        fix_polygons(13, ElementClass(ElementKind.REFLECTION_EVEN_NO_FIXED_POINT))
    with pytest.raises(ValueError):
        fix_polygons(13, ElementClass(ElementKind.REFLECTION_EVEN_TWO_FIXED_POINTS))
    with pytest.raises(ValueError):
        fix_polygons(12, ElementClass(ElementKind.ROTATION, 5))
    with pytest.raises(ValueError):
        fix_polygons(2, ElementClass(ElementKind.IDENTITY))
    with pytest.raises(ValueError):  # a float order is refused when the class is built
        fix_polygons(6, ElementClass(ElementKind.ROTATION, 2.0))


def test_check_class_accepts_exactly_the_group_classes():
    # every kind, and every order 2..n+1, against the classes of D_n
    for n in range(3, 61):
        present = dict(element_classes(n, GroupKind.DIHEDRAL))
        candidates = [ElementClass(kind) for kind in ElementKind if kind is not ElementKind.ROTATION]
        candidates += [ElementClass(ElementKind.ROTATION, d) for d in range(2, n + 2)]
        for cls in candidates:
            try:
                fixcount._check_class(n, cls)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == (cls in present), (n, str(cls))


def test_no_module_keeps_a_function_cache():
    # a cached function would hold arguments and results for the whole
    # process; __main__ is left out, since importing it runs the command line
    names = [m.name for m in pkgutil.iter_modules(perigon.__path__) if m.name != "__main__"]
    assert "fixcount" in names and "oracle" in names
    for name in names:
        module = importlib.import_module(f"perigon.{name}")
        for attr, value in vars(module).items():
            assert not hasattr(value, "cache_info"), f"perigon.{name}.{attr}"


def test_rejects_m_out_of_range():
    with pytest.raises(ValueError):
        fix_mgons(8, 2, ElementClass(ElementKind.IDENTITY))
    with pytest.raises(ValueError):
        fix_mgons(8, 9, ElementClass(ElementKind.IDENTITY))


def test_column_sums():
    # good tuples partition by weight, so the per-weight counts sum up
    for n in range(3, 41):
        for cls, _ in element_classes(n, GroupKind.DIHEDRAL):
            total = sum(fix_mgons(n, m, cls) for m in range(3, n + 1))
            assert total == fix_polygons(n, cls), (n, str(cls))

