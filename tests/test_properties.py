import pytest

import property_suites as ps


@pytest.mark.parametrize("suite", ps.ALL_SUITES, ids=lambda s: s.__name__)
def test_property_suite(suite, property_suite_runs):
    cases, _ = property_suite_runs[suite.__name__]
    assert cases >= 200
