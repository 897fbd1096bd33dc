"""Byte-identity of the CLI's reports: SHA-256 digests of stdout for a fixed
command set, the version in the report's metadata masked.

A change that declares a new report schema records new digests here in the
same change; any other change must leave every digest as it is.
"""

import contextlib
import hashlib
import io

import pytest

from macbeath import __version__
from macbeath.cli import main
from macbeath.numkit import primes_upto

# d > 1 pairs (n, p), p <= 500, d = 3, 2, 4, 3, 5, 2, 6, 2, 8, 9
EXTENSION_PAIRS = ((7, 499), (8, 487), (8, 11), (9, 7), (11, 499), (13, 31), (13, 487),
                   (16, 463), (16, 499), (19, 499))



def small_extension_pairs():
    """Every (n, p) with d > 1 for the n of the extension benchmark, p <= 150."""
    pairs = []
    for n in (7, 8, 9, 11, 13, 16, 19):
        N = n if n % 2 else 2 * n
        pairs += [(n, p) for p in primes_upto(150)[1:] if N % p and p % N not in (1, N - 1)]
    return pairs


COMMANDS = {
    "pattern n=7": [["pattern", "--n", "7", "--bound", "5000", "--format", "json"]],
    "pattern n=11": [["pattern", "--n", "11", "--bound", "5000", "--format", "json"]],
    "sweep n=7": [["sweep", "--n", "7", "--first", "400", "--format", "csv"]],
    "classify": [["classify", "--n", str(n), "--p", str(p), "--format", "json"]
                 for n, p in EXTENSION_PAIRS],
    "oracle": [["oracle", "--n", str(n), "--p", str(p), "--format", "json"]
               for n, p in EXTENSION_PAIRS],
    "classify d>1 p<=150": [["classify", "--n", str(n), "--p", str(p), "--format", "json"]
                            for n, p in small_extension_pairs()],
    "oracle d>1 p<=150": [["oracle", "--n", str(n), "--p", str(p), "--format", "json"]
                          for n, p in small_extension_pairs()],
}

DIGESTS = {
    "classify": "cbdd08e2f2d65db549e4e7ea4353ecf55ffee6f14932eb436b8013f47724105c",
    "classify d>1 p<=150": "0d6b775c52e100f875e36f6b4d22e779b2e8ac7caae46b363cd240d52d4ee343",
    "oracle": "68d4b5b846988da448593cd8495f07ea653f7e513a757fadbfe2b9026e5ba943",
    "oracle d>1 p<=150": "274fb43fe93fb877e614bd695fc1e33f2a5d23b0b52ee65c558fe5503d6c3027",
    "pattern n=11": "0e29b3eb70f0cb80780156669b940fd679eb9d77294ad6e7ad2a8b298296c66b",
    "pattern n=7": "52714cac375fdf894f1cb9ae9f19271d049618b029a7316f30a6689c49d5775b",
    "sweep n=7": "a543f4bcf7e5985c47e55cc02c77bd346a3206725d9f67f66c86f92d3c39bb45",
}


def masked_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv + ["--workers", "1"]) == 0, argv
    return (out.getvalue()
            .replace(f'"version": "{__version__}"', '"version": "*"')
            .replace(f"# macbeath {__version__} ", "# macbeath * "))


def digest(name):
    sha = hashlib.sha256()
    for argv in COMMANDS[name]:
        sha.update(masked_stdout(argv).encode())
    return sha.hexdigest()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_bytes_are_unchanged(name):
    assert digest(name) == DIGESTS[name]
