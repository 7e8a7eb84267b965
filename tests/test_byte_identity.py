"""Byte identity of estimator output on a fixed corpus of decimal series.

Every L(k) is printed in full by ``hfd`` JSON, so the summation order of the
means is part of the output.  The corpus series are written as CSV from
short decimal strings made with integer arithmetic: no sine or other
transcendental sampling, whose last bit may differ between numpy builds,
reaches them.  The sha256 digests below were recorded once and must hold
on every supported interpreter and numpy.
"""
import hashlib

import pytest

from fracdim import geometric_hfd, read_csv
from fracdim.cli import main


def _integers(n, seed):
    """n integers in -1000..1000 from a linear congruential generator."""
    x, out = seed, []
    for _ in range(n):
        x = (1103515245 * x + 12345) % 2**31
        out.append(x % 2001 - 1000)
    return out


def _decimals(n, seed):
    """n decimal strings with three places in [-1, 1]."""
    return [f"{v}e-3" for v in _integers(n, seed)]


def _wide(n, seed):
    """n decimal strings with magnitudes from 1e-150 to 1e153."""
    return [f"{v}e{(i * 37 + seed) % 301 - 150}" for i, v in enumerate(_integers(n, seed))]


SERIES = {
    "noise-n101": _decimals(101, 1),
    "noise-n2046": _decimals(2046, 2),
    "wide-n64": _wide(64, 3),
    "alternating-n101": ["0.4" if j % 2 else "0.6" for j in range(101)],
    "periodic-n150": [("1.0", "1.1", "1.3", "1.4", "1.3", "1.4", "1.3", "1.4", "1.3", "1.1")[j % 10] for j in range(150)],
}

# (series, argv after the input file)
COMMANDS = {
    "hfd-detail-noise-n101": ("noise-n101", ["hfd", "--kmax-rule", "half", "--detail"]),
    "hfd-detail-wide-n64": ("wide-n64", ["hfd", "--kmax-rule", "half", "--detail"]),
    "hfd-detail-alternating-n101": ("alternating-n101", ["hfd", "--kmax-rule", "half", "--detail"]),
    "hfd-noise-n2046": ("noise-n2046", ["hfd", "--kmax-rule", "half"]),
    "stability-periodic-n150": ("periodic-n150", ["stability", "--kmax-rule", "half", "--index", "7"]),
    "trace-alternating-n101": (
        "alternating-n101", ["stability", "--kmax-rule", "half", "--eps-grid", "1e-4,1e-6,1e-8,1e-10,1e-12"]
    ),
    "trace-noise-n2046": ("noise-n2046", ["stability", "--kmax", "1023", "--index", "682", "--eps-grid", "1e-3,1e-9"]),
}

DIGESTS = {
    "hfd-detail-alternating-n101": "cff8b7a63d3c9597f357b037e9608787336b66cecd38ab0d81e96cca247e9d6a",
    "hfd-detail-noise-n101": "41cafbe3bc950ac43ba32646f39cf683dc9db2991bcfc1b06228c2b81b4adcb6",
    "hfd-detail-wide-n64": "c7aab57c07b1b4aced021d5c364ebb9a57f1b97332eadf0c82147ff30c4d3c8f",
    "hfd-noise-n2046": "8eff20626a047495a95d2807b409d959c89f19f410f1c44d4ad65c64e41382aa",
    "stability-periodic-n150": "981ab324560b8697464d55d54db4e9b60ebd2b74d6dd41b499f138afc84c429f",
    "trace-alternating-n101": "47e88418f3038bd35e5f6f9ed2e60119b22f57967f6dcebfc8ae36ed1db71015",
    "trace-noise-n2046": "0dddadd0ad34afd51faabbae76c993c2646b10a195e79a59fc34e2dc6b26da0f",
    "geometric-alternating-n101": "fc8f19277aedf9542637fbc2ea762011eec5199b8bd7b0159cf4a7ee1956033f",
    "geometric-noise-n101": "57eb370fbb3bd0a842c14a9b8e3e445c34cf61c02dc4cc0f798ddbf17b6ff28d",
    "geometric-noise-n2046": "53685b1b90d99fe24b662d3940d7bf72bee115c7c7aa96fbf0b1ffd75f97621c",
    "geometric-periodic-n150": "85e12869b7a19c012d3c64eba0ed4351063ca7aebd6221699d00b0dd33021b1e",
    "geometric-wide-n64": "a4340f6dc012a4540858dc415751e8f8aa47dbdc369b08ae6a9f150f911465e2",
}


def _write(tmp_path, name):
    values = SERIES[name]
    n = len(values)
    path = tmp_path / f"{name}.csv"
    path.write_text("j,t,x\n" + "".join(f"{j},{(j - 1) / (n - 1)!r},{x}\n" for j, x in enumerate(values, 1)))
    return path


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(COMMANDS))
def test_cli_output_bytes(case, tmp_path, capsys):
    name, argv = COMMANDS[case]
    assert main([argv[0], "--input", str(_write(tmp_path, name)), *argv[1:]]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert _digest(out) == DIGESTS[case]


@pytest.mark.parametrize("name", sorted(SERIES))
def test_geometric_hfd_bits(name, tmp_path):
    ts = read_csv(_write(tmp_path, name))
    values = [geometric_hfd(ts, k_max).hex() for k_max in (1, 2, ts.n // 3, (ts.n + 1) // 2)]
    assert _digest(",".join(values)) == DIGESTS[f"geometric-{name}"]
