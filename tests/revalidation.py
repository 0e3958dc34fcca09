"""Independent re-validation of a pipeline report, shared by the test files."""

from narrowops import fnorm


def revalidate(report, T1, T2, sigma, epsilon):
    """Lift the ORIGINAL operators through the report's refine map and
    re-apply them to the constructed sign."""
    t1 = T1.refine(report.refine_map, report.space)
    t2 = T2.refine(report.refine_map, report.space)
    assert report.sign.mean_zero
    assert fnorm(t1.target, t1.apply(report.sign.values)) <= sigma + 1e-9
    assert fnorm(t2.target, t2.apply(report.sign.values)) <= epsilon + 1e-9
