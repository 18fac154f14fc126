"""Acceptance suite: one test per release criterion of ``cppgen.validate``.

The checks themselves live in ``validate.FULL``, which ``cppgen validate
--full`` runs too; this module only runs each of them as a test named after
it.  Run ``pytest tests/test_acceptance.py -v -s`` for one
``criterion N: PASS/FAIL - detail`` line per criterion.
"""

from cppgen import validate


def _acceptance_test(check):
    def test():
        _, ok, detail = check()
        number = int(check.__name__.split("_")[1])
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
        assert ok, detail

    return test


for _check in validate.FULL:
    globals()[f"test_{_check.__name__}"] = _acceptance_test(_check)
