"""The test generator of the suite's case tables."""

import inspect

import pytest


def table_test(check, cases: dict):
    """A test that calls ``check(row, **fixtures)`` on every row of each case in ``cases`` (case id -> rows),
    where ``fixtures`` are the pytest fixtures that ``check`` names after its row. Each case is one parameter
    of the test, under its id; a single case without an id takes no parameter."""
    fixtures = [inspect.Parameter(name, inspect.Parameter.KEYWORD_ONLY) for name in
                list(inspect.signature(check).parameters)[1:]]

    def test(rows=cases.get(""), **kwargs):
        for row in rows:
            check(row, **kwargs)
    if list(cases) == [""]:
        test.__signature__ = inspect.Signature(fixtures)
        return test
    test.__signature__ = inspect.Signature([inspect.Parameter("rows", inspect.Parameter.KEYWORD_ONLY), *fixtures])
    return pytest.mark.parametrize("rows", list(cases.values()), ids=list(cases))(test)
