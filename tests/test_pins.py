"""Pins of the printed output: the sha256 of ``verify --claim all --format
json`` at seven p, and of the value column of ``table --n 100 --format csv``
for every evaluator at three p.

Changes to how errors are bounded move abs_err, never a value, a margin or a
verdict; these pins hold them to the bytes recorded before such a change.  A
change that moves these bytes on purpose updates the pin it moves and says
so, with the reason, in CHANGES.md; ``PYTHONPATH=src python
tests/test_pins.py`` prints both digests, the sha256 of each p's verify
output, which names the p whose bytes moved, and the sha256 of each
function's table values, which names the function.
"""

import contextlib
import hashlib
import io

from ptrig import cli

VERIFY_P = ["1.5", "2", "3", "5", "10", "24", "50"]
TABLE_P = ["1.5", "3", "10"]

VERIFY_SHA256 = "161e326f68805b388d5e1cdec38ef3f4570f9ab848262ffe4f9774f7ddffb9f7"
TABLE_VALUES_SHA256 = "137632ecc9725488e535d33d8906790f9b2daa02fe7fc4ca01c1ad532ed057f0"


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
    return out.getvalue()


def _verify_json(p):
    return _stdout(["verify", "--claim", "all", "--p", p, "--format", "json"]).encode()


def verify_digest():
    sha = hashlib.sha256()
    for p in VERIFY_P:
        sha.update(_verify_json(p))
    return sha.hexdigest()


def _table_values(fn, p):
    rows = _stdout(["table", "--fn", fn, "--n", "100", "--p", p, "--format", "csv"])
    return "".join(row.split(",")[1] + "\n" for row in rows.splitlines()).encode()


def table_values_digest():
    sha = hashlib.sha256()
    for p in TABLE_P:
        for fn in sorted(cli._POINT_FNS):
            sha.update(_table_values(fn, p))
    return sha.hexdigest()


def test_verify_output_is_pinned():
    assert verify_digest() == VERIFY_SHA256


def test_table_values_are_pinned():
    assert table_values_digest() == TABLE_VALUES_SHA256


if __name__ == "__main__":  # the digests to pin
    print("VERIFY_SHA256 =", repr(verify_digest()))
    print("TABLE_VALUES_SHA256 =", repr(table_values_digest()))
    for p in VERIFY_P:
        print(f"verify --p {p}:", hashlib.sha256(_verify_json(p)).hexdigest())
    for fn in sorted(cli._POINT_FNS):
        values = b"".join(_table_values(fn, p) for p in TABLE_P)
        print(f"table --fn {fn}:", hashlib.sha256(values).hexdigest())
