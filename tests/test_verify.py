"""Status precedence in claims and reports."""
import pytest

from rainbowsat import verify


@pytest.mark.parametrize(
    "statuses, want",
    [
        (["fail", "indeterminate"], "fail"),
        (["indeterminate", "fail"], "fail"),
        (["pass", "indeterminate"], "indeterminate"),
        (["indeterminate", "xfail"], "indeterminate"),
        (["xfail", "pass"], "pass"),
        ([], "pass"),
    ],
)
def test_status_precedence(statuses, want, monkeypatch):
    claim = verify._claim("x", [{"name": str(i), "status": s} for i, s in enumerate(statuses)])
    assert claim["status"] == want

    def fake(name, status):
        return lambda config: verify._claim(name, [{"name": "only", "status": status}])

    fakes = {f"claim-{i}": fake(f"claim-{i}", s) for i, s in enumerate(statuses)}
    monkeypatch.setattr(verify, "CLAIMS", fakes)
    report = verify.run_report()
    assert [c["status"] for c in report["claims"]] == [
        "pass" if s == "xfail" else s for s in statuses
    ]
    assert report["status"] == want
