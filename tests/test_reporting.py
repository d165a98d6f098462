from povmlab.reporting import FAIL, INFO, PASS, CheckReport


class TestVerdict:
    """INFO when no item is asserted, FAIL when an asserted item exceeds
    its tolerance, PASS otherwise."""

    def test_no_asserted_item_is_info(self):
        report = CheckReport(name="measurement")
        assert report.verdict == INFO
        report.add("value", 5.0)
        report.add("other", -1.0, tol=None)
        assert report.verdict == INFO and report.passed

    def test_one_asserted_item_decides(self):
        report = CheckReport(name="check")
        report.add("value", 5.0)
        report.add("residual", 0.1, tol=0.5)
        assert report.verdict == PASS
        report.add("residual", 1.0, tol=0.5)
        assert report.verdict == FAIL and not report.passed
