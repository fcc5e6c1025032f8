from scatterpoly.verify import _MAX_RECORDED_FAILURES, SuiteResult


def test_suite_result_keeps_the_first_failures_and_one_marker():
    rec = SuiteResult("thirty failures")
    rec.check(True, "not recorded")
    for i in range(30):
        rec.check(False, f"fail {i}")
    result = rec.done()
    assert result.checks == 31 and not result.passed and result.seconds >= 0
    assert result.failures == ([f"fail {i}" for i in range(_MAX_RECORDED_FAILURES)]
                               + ["... more failures suppressed"])


def test_suite_result_passes_without_failures():
    rec = SuiteResult("clean")
    rec.check(True, "fine")
    rec.bump("things", 2)
    assert rec.done().passed and rec.failures == [] and rec.metrics == {"things": 2}
