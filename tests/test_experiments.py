import hashlib
import io
import json

import pytest
from click.testing import CliRunner

from fuzzylink.attacks import ResourceCapError
from fuzzylink.cli import main
from fuzzylink.codes import code_descriptor, generic_code
from fuzzylink.experiments import (
    CSV_COLUMNS,
    ExperimentConfig,
    report_to_dict,
    run_table1,
    write_report,
)
from fuzzylink.fields import field
from fuzzylink.linalg import FieldMatrix


def _run(**overrides):
    base = dict(code="bch:31:5", b_values=(0, 1), trials=40, mode="related", seed=99)
    base.update(overrides)
    return run_table1(ExperimentConfig(**base))


def test_related_linkage_is_exactly_one():
    report = _run(b_values=(0, 1, 2), trials=50)
    for cell in report.cells:
        assert cell.linkage_rate == 1.0
        assert cell.recovery_rate <= cell.linkage_rate


def test_recovery_not_above_linkage_nonrelated():
    report = _run(mode="non-related", b_values=(1, 2), trials=60)
    for cell in report.cells:
        assert 0.0 <= cell.recovery_rate <= cell.linkage_rate <= 1.0


def test_identity_transform_mode():
    report = _run(transform="identity", b_values=(0,), trials=25)
    assert report.cells[0].linkage_rate == 1.0


def test_uniform_ball_sampling():
    report = _run(related_sampling="uniform-ball", b_values=(2,), trials=40)
    assert report.cells[0].linkage_rate == 1.0


def test_hash_mode_recovery_equals_linkage():
    report = _run(with_hash=True, b_values=(0, 1), trials=30)
    for cell in report.cells:
        assert cell.linkage_rate == 1.0
        assert cell.recovered == cell.linked


def test_determinism_across_threads():
    r1 = _run(threads=1, trials=30)
    r4 = _run(threads=4, trials=30)
    assert report_to_dict(r1, include_timing=False) == report_to_dict(r4, include_timing=False)
    buf1, buf4 = io.BytesIO(), io.BytesIO()
    write_report(r1, "json", buf1, include_timing=False)
    write_report(r4, "json", buf4, include_timing=False)
    assert buf1.getvalue() == buf4.getvalue()


def test_seed_changes_results():
    a = _run(seed=1, mode="non-related", b_values=(2,), trials=60)
    b = _run(seed=2, mode="non-related", b_values=(2,), trials=60)
    assert (a.cells[0].linked != b.cells[0].linked
            or a.cells[0].patterns_mean != b.cells[0].patterns_mean)


def test_pattern_budget_guardrail():
    with pytest.raises(ResourceCapError):
        _run(code="bch:255:26", b_values=(5,), trials=1)
    # the guardrail is advisory: force runs the cell
    report = _run(code="bch:63:7", b_values=(0,), trials=2, force=True)
    assert report.cells[0].trials == 2


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(code="bch:31:5", b_values=(0,), trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(code="bch:31:5", b_values=(0,), trials=1, mode="both")
    with pytest.raises(ValueError):
        _run(b_values=(40,))  # beyond block length
    with pytest.raises(ValueError):
        _run(b_values=(1,), sampling_weight=3)  # weight above the scan bound


def test_csv_layout():
    report = _run(b_values=(0, 1), trials=20)
    buf = io.BytesIO()
    write_report(report, "csv", buf)
    lines = buf.getvalue().decode().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    row = lines[1].split(",")
    assert row[0] == "bch:31:5"
    assert row[7] == "1.0000"  # linkage rate, 4 decimal places
    assert row[11] == "99"


def test_csv_header_only_when_no_cells():
    report = _run(b_values=())
    buf = io.BytesIO()
    write_report(report, "csv", buf)
    assert buf.getvalue().decode().splitlines() == [",".join(CSV_COLUMNS)]


def test_json_report_round_trip():
    report = _run(b_values=(0,), trials=15)
    buf = io.BytesIO()
    write_report(report, "json", buf)
    parsed = json.loads(buf.getvalue())
    assert parsed == report_to_dict(report, include_timing=True)
    cell = parsed["cells"][0]
    assert cell["trials"] == 15
    assert "timing_ms" in cell
    assert parsed["config"]["seed"] == 99


def test_json_timing_excluded():
    report = _run(b_values=(0,), trials=10)
    parsed = report_to_dict(report, include_timing=False)
    assert "timing_ms" not in parsed["cells"][0]


def test_unknown_format_rejected():
    report = _run(b_values=(0,), trials=5)
    with pytest.raises(ValueError):
        write_report(report, "xml", io.BytesIO())


# ---------------------------------------------------------------------------
# golden reports: fixed seeds must keep producing the same report bytes
# ---------------------------------------------------------------------------

def test_golden_report_bch_cli():
    res = CliRunner().invoke(main, [
        "experiment", "table1", "--code", "bch:31:5", "--b", "0,1,2", "--trials", "200",
        "--mode", "related", "--with-hash", "--seed", "2024", "--format", "json",
        "--no-timing"])
    assert res.exit_code == 0
    assert (hashlib.sha256(res.stdout_bytes).hexdigest()
            == "4f41ea22ffb8cc758e1c0e53984ee110c73197662285887f877f925bba303ee6")


def test_golden_report_gf32_cell():
    # the cell the CLI would write for the GF(32) (20, 8) Vandermonde code,
    # which only an inline descriptor can name
    g32 = field(2, 5)
    G = FieldMatrix(g32, [[g32.pow(i + 1, j) for j in range(8)] for i in range(20)])
    config = ExperimentConfig(code=code_descriptor(generic_code(G, 13)), b_values=(2,),
                              trials=20, with_hash=True, seed=2024)
    buf = io.BytesIO()
    write_report(run_table1(config), "json", buf, include_timing=False)
    assert (hashlib.sha256(buf.getvalue()).hexdigest()
            == "25de5f97717a887dce67cdaff1c61a6cdb5b937c3e389691b5f63a9822dc023d")


def test_golden_report_gf32_non_affine_field_permutation_cell():
    # random sigma over GF(32) is affine with probability 1/30!, so every
    # trial attacks the raw commitments and maps its candidates back
    # through sigma^-1; the report must not move
    g32 = field(2, 5)
    G = FieldMatrix(g32, [[g32.pow(i + 1, j) for j in range(8)] for i in range(20)])
    config = ExperimentConfig(code=code_descriptor(generic_code(G, 13)), b_values=(1, 2),
                              trials=12, transform="field-permutation", seed=2027)
    buf = io.BytesIO()
    write_report(run_table1(config), "json", buf, include_timing=False)
    assert (hashlib.sha256(buf.getvalue()).hexdigest()
            == "2fe29280c30dd76d945ecc01632a0440f3064162477731aa80e9e8426001705e")


def test_field_permutation_hash_cells_link_and_recover_every_pair():
    # over GF(2) both sigma, x and x + 1, are affine: stripping the shift
    # leaves w + G m, so every related pair links and the digests pick the
    # enrolled pair out of its coset
    report = _run(b_values=(1, 2), trials=60, transform="field-permutation",
                  with_hash=True, seed=7)
    for cell in report.cells:
        assert cell.linkage_rate == 1.0
        assert cell.recovered == cell.linked
