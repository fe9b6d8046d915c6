"""The seeded slice of the scaling report (`tests/scaling.py`).

The slice pins no times: it runs every section, so a renamed or broken call
fails here instead of dropping a table from the report.
"""

import scaling


def test_every_section_prints_its_table(capsys):
    assert scaling.report(scaling.SLICE) == []
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("### ")] == [f"### {t}" for t in scaling.SECTIONS]
    assert out.count("total over every import: ") == len(scaling.COMMANDS)
    for head in ("| r | walls | enumerate_walls |", "| n | snapshots |", "| n | records |", "| n | json.loads |"):
        assert head in out
    assert "Traceback" not in out


def test_a_section_that_raises_is_reported_and_the_rest_still_print(capsys, monkeypatch):
    def broken(sizes):
        raise RuntimeError("broken section")

    monkeypatch.setattr(scaling, "SECTIONS", {"Broken": broken, "Walk cost": scaling.walk_cost})
    assert scaling.report(scaling.SLICE) == ["Broken"]
    out = capsys.readouterr().out
    assert "RuntimeError: broken section" in out
    assert out.index("RuntimeError") < out.index("### Walk cost") < out.index("| n | records | whole walk |")
