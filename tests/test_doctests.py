import ast
import doctest
import os
import re
from fractions import Fraction

import flipchain.exactpoly
from flipchain import LaurentPoly, is_fm_stable

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def test_exactpoly_doctests():
    failures, _ = doctest.testmod(flipchain.exactpoly)
    assert failures == 0


def test_readme_library_example_gives_its_commented_results():
    with open(README, encoding="utf-8") as fh:
        example = re.search(r"```python\n(.*?)```", fh.read(), re.S).group(1)
    ns, value = {}, {}
    for stmt in ast.parse(example).body:
        code = ast.get_source_segment(example, stmt)
        if isinstance(stmt, ast.Expr):
            value[code.split("(")[0]] = eval(code, ns)
        else:
            exec(code, ns)
    assert ns["cd"].walls == (1, 3)
    one_plus_t = LaurentPoly({0: 1, 1: 1})
    assert value["u2d_poincare"] == one_plus_t**4 * LaurentPoly({0: 1, 2: 1, 3: 4, 4: 1, 6: 1})
    assert value["is_fm_semistable"] is True and not is_fm_stable(ns["m"], Fraction(1))
    hn = value["hn_filtration"]
    assert hn.steps == ("L",) and hn.graded_slopes(Fraction(2)) == (-3, -4)
