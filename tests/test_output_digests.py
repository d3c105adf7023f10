"""Output bytes of the command line, pinned by SHA-256.

A small seeded matrix of `chsh` and `sweep` runs goes through `cli.main` in
process, and the digest of every output is compared with the one recorded
here: the chsh JSON (stdout), its summary (stderr), its `--dump-tables` CSV
and a 9-point sweep CSV.  A change that is meant to keep outputs identical
leaves every digest as it is.  A change that alters output bytes on purpose
updates the digests below and says so in CHANGES.md.

The Monte Carlo digests also pin numpy's random streams, which NEP 19 lets
numpy change between versions; a Monte Carlo digest that fails under
another numpy than the one the digests were recorded under says so.
"""

import hashlib
import json

import numpy as np
import pytest

from cohsh.cli import main

#: (mode, semantics, n_max, dark_rate) of each pinned run; every run is at
#: efficiency 0.6, visibility 0.95, 2 repetitions, 2e4 trials and seed 4242.
CASES = [
    ("exact", semantics, n_max, 0.0)
    for n_max in (4, 6)
    for semantics in ("exact_one_one", "threshold")
] + [
    (mode, semantics, 4, 0.0)
    for mode in ("mc_fock", "mc_coherent")
    for semantics in ("exact_one_one", "threshold")
] + [("mc_coherent", semantics, 4, 1e-3) for semantics in ("exact_one_one", "threshold")]

#: The numpy version the digests were recorded under.
DIGEST_NUMPY = "2.4.6"

#: Digests of (chsh JSON, chsh summary, dumped tables, sweep CSV) per case.
DIGESTS = {
    "exact-exact_one_one-4-0": (
        "7fd88a82b4ca0cf89eb84c742e51514a6fea78999c58eabc23ec782440bd1630",
        "29d84185779270d7182532721d3f963a61f2b690c46ffde99ac35875f36cce53",
        "0b91f9348be339d188d79e4663aa808e4211cb0619823f847baea03b49bede37",
        "0456986cbbe84deefb7d30a76849e9c877046c2ea87b4903ec51bff25ba39677",
    ),
    "exact-threshold-4-0": (
        "8d2de1678301e48b44577c2c83aefd94299a33eb4bc7aa12f83ad9a382555ad8",
        "46c37fb8b4ffa4c9e49fa30860c8fc25fc032c7e52b23bf4d5b55a0e2586adf8",
        "c0c9f8936b5557a123cc1825def2ab630002349df235653af698e190b9e96493",
        "ceee38e8ba6076f0ec61fc528cd63e02b0af460c2fad44192932a0a2eb64dafd",
    ),
    "exact-exact_one_one-6-0": (
        "7fd88a82b4ca0cf89eb84c742e51514a6fea78999c58eabc23ec782440bd1630",
        "29d84185779270d7182532721d3f963a61f2b690c46ffde99ac35875f36cce53",
        "0b91f9348be339d188d79e4663aa808e4211cb0619823f847baea03b49bede37",
        "0456986cbbe84deefb7d30a76849e9c877046c2ea87b4903ec51bff25ba39677",
    ),
    "exact-threshold-6-0": (
        "5a2b1e2f510227898f31fb02df0941a6f4e30fdd0e8a8948eb422cd6f31dc072",
        "46c37fb8b4ffa4c9e49fa30860c8fc25fc032c7e52b23bf4d5b55a0e2586adf8",
        "073c847754d2afc53b13ba7fca4a5af37e19c85425fb3f9198c6777cd5494269",
        "fcfda7d5b8f23c725cd6003ec07fce29d1a6ee21968ecc341297512dd6eb5db2",
    ),
    "mc_fock-exact_one_one-4-0": (
        "f75e54a91c5d287faddaa4f8054cb1e8fc6437011f7316302304de67b42498cc",
        "ab3d7e6e026aaf7b05f765b039e615ab66b3dc732e52b8e271792b8ec5ea1788",
        "a0d0a35ff5f56354dc45b82012f5be590ae785747ad6e3d130e722bd904b2025",
        "631175a55c7ea9ddd5dc3bdf17b5280c2855359653e224eee8df74eebded7ca9",
    ),
    "mc_fock-threshold-4-0": (
        "c22dcfc51fc5f593021511e60398e70cb015f13dc8464c74011b962ae23eaf47",
        "87326967056a05076394dc7aecfe6a040a38a85b0017e883f3ea702f74d119c7",
        "41df65d16287af97918342950de1efcdc0ff30e26b2a7c55e3bac5389840efba",
        "f8b585eddf51046ce182f206b28de7fd79f1701002b764aef823328f4e46d671",
    ),
    "mc_coherent-exact_one_one-4-0": (
        "f75e54a91c5d287faddaa4f8054cb1e8fc6437011f7316302304de67b42498cc",
        "d85dc93052baf97b498985dbacb65ded551e4999948ab3b8b7a8a851c4eb55b5",
        "a0d0a35ff5f56354dc45b82012f5be590ae785747ad6e3d130e722bd904b2025",
        "631175a55c7ea9ddd5dc3bdf17b5280c2855359653e224eee8df74eebded7ca9",
    ),
    "mc_coherent-threshold-4-0": (
        "c22dcfc51fc5f593021511e60398e70cb015f13dc8464c74011b962ae23eaf47",
        "c7ac574d5219c3b8120880e7a43e2492d8e3ce3dbb3ef2e20843a84734b8f021",
        "41df65d16287af97918342950de1efcdc0ff30e26b2a7c55e3bac5389840efba",
        "a12679d2e98f9ae31b99f23246d5f1ecfd610cc9c3f53b69b7e86dbfdf8dcba1",
    ),
    "mc_coherent-exact_one_one-4-0.001": (
        "522f5f86dab70a17a5bcf83d8b65d6cd2712553cbe69f75c11a13f83aed0cc17",
        "698173fc266395f017f4a4a611b22f89b2a301bbeadc29d72bfabc02c75f3119",
        "f28ea063e7a6d452c14c90ce5a9dbaf08e9386ba8ed652dd347a6d4a67247082",
        "030814b53c57792bd186084ceee286018dbf2fa3f15665c62db123f510312628",
    ),
    "mc_coherent-threshold-4-0.001": (
        "5c21fab36ad92197ff8e8f85ff5f1f9d52378cd1bc360ea5fda6c5b57509e0d7",
        "8501349900196db7ec232af29f137441e16da4f60d23d5e05746675fefbe0adf",
        "814f8cf2b884896b5f9334b1cd4591fd8f074094dfd8ef54513d87df35581226",
        "344a083d07cb968b2ecd2877bbaa037df14983957b702884c482604dd9bce877",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _outputs(tmp_path, capsys, mode, semantics, n_max, dark) -> tuple[str, ...]:
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "source": {"mu_a": 0.1, "mu_b": 0.08, "n_max": n_max},
                "detector": {
                    "visibility_eta": 0.95,
                    "efficiency": 0.6,
                    "coincidence_semantics": semantics,
                    "dark_rate": dark,
                },
                "mode": mode,
                "trials": 20_000,
                "repetitions": 2,
                "seed": 4242,
                "angles": {"sweep": {"start": 0.0, "stop": 3.141592653589793, "points": 9}},
            }
        ),
        encoding="utf-8",
    )
    tables = tmp_path / "tables.csv"
    capsys.readouterr()
    assert main(["chsh", "--config", str(config), "--dump-tables", str(tables)]) == 0
    chsh = capsys.readouterr()
    assert main(["sweep", "--config", str(config), "--format", "csv"]) == 0
    sweep = capsys.readouterr()
    return chsh.out, chsh.err, tables.read_text(encoding="utf-8"), sweep.out


def _version_note(mode: str, running: str) -> str:
    """Why a digest of ``mode`` may differ under numpy ``running``, or nothing."""
    if mode == "exact" or running == DIGEST_NUMPY:
        return ""
    return (
        f"Monte Carlo digests were recorded under numpy {DIGEST_NUMPY}, this is numpy "
        f"{running}; NEP 19 lets numpy change its random streams between versions"
    )


@pytest.mark.parametrize("mode, semantics, n_max, dark", CASES)
def test_output_bytes_are_pinned(tmp_path, capsys, mode, semantics, n_max, dark):
    outputs = _outputs(tmp_path, capsys, mode, semantics, n_max, dark)
    key = f"{mode}-{semantics}-{n_max}-{dark:g}"
    digests = tuple(_sha(text) for text in outputs)
    assert digests == DIGESTS[key], _version_note(mode, np.__version__)


def test_a_monte_carlo_digest_failure_names_both_numpy_versions():
    note = _version_note("mc_fock", "9.9.9")
    assert DIGEST_NUMPY in note and "9.9.9" in note and "NEP 19" in note
    assert _version_note("mc_coherent", DIGEST_NUMPY) == ""
    assert _version_note("exact", "9.9.9") == ""
