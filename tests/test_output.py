import numpy as np

from pipewave.output import PROBE_HEADER, write_rows_csv


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

