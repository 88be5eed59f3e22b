import io
import re

import numpy as np
import pytest

from pipewave import _csvwriter
from pipewave.output import PROBE_HEADER, SNAPSHOT_HEADER, CsvWriter, write_rows_csv


def per_value_csv(header, rows):
    """The reference formatting: every value through format(float(v), ".17g")."""
    lines = [header] + [",".join(format(float(v), ".17g") for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def awkward_rows(count):
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((count, 6)) * 10.0 ** rng.integers(-300, 300, (count, 6))
    specials = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308,
                1.0, -3.0, 2.0 ** 53, 1e16, 123456789012345680.0,
                0.1, 1 / 3, 2.718281828459045, 1.2345678901234567, 9.999999999999998e22]
    flat = rows.ravel()
    flat[:len(specials)] = specials
    flat[-len(specials):] = specials[::-1]
    return rows


def test_bytes_match_per_value_format(tmp_path):
    rows = awkward_rows(1300)     # more rows than one formatting chunk
    path = tmp_path / "probe.csv"
    write_rows_csv(path, PROBE_HEADER, rows)
    assert path.read_bytes() == per_value_csv(PROBE_HEADER, rows).encode()


def test_lists_and_integers_are_formatted_as_floats(tmp_path):
    rows = [[1, 2.5, -0.0], [3, 4, 5e-324]]
    path = tmp_path / "rows.csv"
    write_rows_csv(path, "a,b,c", rows)
    assert path.read_text() == per_value_csv("a,b,c", rows)
    assert path.read_text().splitlines()[1] == "1,2.5,-0"


def test_header_only_when_no_rows(tmp_path):
    path = tmp_path / "sub" / "empty.csv"
    write_rows_csv(path, PROBE_HEADER, np.empty((0, 6)))
    assert path.read_text() == PROBE_HEADER + "\n"


def test_writer_process_bytes_match_per_value_format(tmp_path):
    cases = {tmp_path / "probe.csv": (PROBE_HEADER, awkward_rows(1300)),
             tmp_path / "rows.csv": ("a,b,c", [[1, 2.5, -0.0], [3, 4, 5e-324]]),
             tmp_path / "sub" / "empty.csv": (PROBE_HEADER, np.empty((0, 6)))}
    with CsvWriter() as writer:
        for path, (header, rows) in cases.items():
            writer.write(path, header, rows)
    assert writer.process.returncode == 0
    for path, (header, rows) in cases.items():
        assert path.read_bytes() == per_value_csv(header, rows).encode()


def test_writer_process_finishes_before_an_exception_propagates(tmp_path):
    rows = awkward_rows(700)
    with pytest.raises(KeyError), CsvWriter() as writer:
        for k in range(3):
            writer.write(tmp_path / f"snap_{k}.csv", SNAPSHOT_HEADER, rows)
        raise KeyError("stop")
    assert writer.process.returncode is not None
    assert writer.process.wait(timeout=10) == 0
    expected = per_value_csv(SNAPSHOT_HEADER, rows).encode()
    assert [(tmp_path / f"snap_{k}.csv").read_bytes() for k in range(3)] == [expected] * 3


def test_writer_process_failure_names_the_file(tmp_path):
    # a directory sitting at the file name: permissions would not stop root
    blocked = tmp_path / "kinetic_snap_00000010.csv"
    blocked.mkdir()
    writer = CsvWriter()
    with pytest.raises(OSError, match=re.escape(str(blocked))):
        writer.write(tmp_path / "kinetic_snap_00000000.csv", SNAPSHOT_HEADER,
                     awkward_rows(5))
        writer.write(blocked, SNAPSHOT_HEADER, awkward_rows(5))
        for _ in range(200):        # the child has exited: the pipe breaks
            writer.write(tmp_path / "later.csv", SNAPSHOT_HEADER, awkward_rows(600))
        writer.close()
    assert writer.process.wait(timeout=10) != 0
    assert (tmp_path / "kinetic_snap_00000000.csv").exists()
    assert not (tmp_path / "later.csv").exists()


@pytest.mark.parametrize("cut", ["header", "body"])
def test_truncated_frame_is_reported(tmp_path, capsys, cut):
    path, header = str(tmp_path / "probe.csv").encode(), PROBE_HEADER.encode()
    data = np.ones((2, 6)).tobytes()
    frame = _csvwriter.FRAME.pack(len(path), len(header), 6, len(data)) + path + header + data
    stream = io.BytesIO(frame[:10] if cut == "header" else frame[:-1])
    assert _csvwriter.main(stream) == 1
    assert capsys.readouterr().err == "truncated frame on the CSV writer's input\n"
    assert not (tmp_path / "probe.csv").exists()
