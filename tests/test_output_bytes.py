"""Byte pins on the CLI's output: the sha256 of every byte a command writes,
in each format, so any change to a number, a label, the layout or the
escaping of a cell fails here."""

import hashlib
import json

import pytest

from fedfair.cli import main

FORMATS = ("csv", "json", "table")

SCANS = {
    "rows3000": ["--ns", "7", "--nl-start", "3", "--nl-stop", "3002", "--nl-step", "1",
                 "--mu-e", "12.5", "--sigma-sq", "3.25"],
    # n_l below and equal to n_s; mu_e = 0 leaves c and bound empty.
    "mu_e_zero": ["--ns", "6", "--nl-start", "2", "--nl-stop", "10", "--nl-step", "4",
                  "--mu-e", "0", "--sigma-sq", "1"],
    # Every error is 0: ratio, c and bound empty, both thresholds infinite.
    "both_zero": ["--ns", "6", "--nl-start", "2", "--nl-stop", "10", "--nl-step", "4",
                  "--mu-e", "0", "--sigma-sq", "0"],
    # n_s <= mu_e / (2 sigma_sq): both thresholds infinite.
    "infinite_thresholds": ["--ns", "5", "--nl-start", "1", "--nl-stop", "9",
                            "--nl-step", "2", "--mu-e", "10", "--sigma-sq", "1"],
}

# Two players tie on n (s and b), and the ids need escaping: non-ASCII,
# a quote and a backslash.
AUDIT_PLAYERS = [
    {"id": "s", "n": 6}, {"id": "løv", "n": 20}, {"id": 'q"\\', "n": 2.5},
    {"id": "a", "n": 40}, {"id": "b", "n": 6}, {"id": "σ", "n": 13.75},
]

# Digests of the output of the per-row verdicts, the per-index sweeps and
# the Monte Carlo oracle, with the json format written by
# json.dump(indent=2, allow_nan=False) itself.
PINS = {
    "scan-rows3000-csv": "70cc2cca96c0912822dc2912b1d7f6a764e0a17ddf2dc00d031fb9250ff91c49",
    "scan-rows3000-json": "c8797e4018d13693a7091d4db54f9b4e5a293071e9ad997581e6ec28370dadc8",
    "scan-rows3000-table": "614310a83d5255d260760fe96ddcbe58a8d53335bc8dbbfbfe0a3d8d24be67a7",
    "scan-mu_e_zero-csv": "b17cca3e5ddedf2f3d962dace2de432677b578562169d4e6cea6342c6d96fb6b",
    "scan-mu_e_zero-json": "d5123dd7aa6abbc57bc4fa6be4785b023e5567690ddd3c7c670e0ce509bf8471",
    "scan-mu_e_zero-table": "db2366ac7b945568e12312d18068ffd1cbb100e21d21fe3809238d469ed15cea",
    "scan-both_zero-csv": "1c696dd0c177ddb2705fa4792cae98f08d1cb8bac7170e17509b6799d62db450",
    "scan-both_zero-json": "0c886315d59f2298baf46dc56e6ac68b22498f5264408c922daccb0192cdc3b8",
    "scan-both_zero-table": "fcd3de30c261689242343d26bd3b7ca3c1a46818025294a4575f82355b863f10",
    "scan-infinite_thresholds-csv":
        "0f29867a3d60094b7d9adb7c61dddad8a0773497572674967f772660bd50d77c",
    "scan-infinite_thresholds-json":
        "0718557f61d4a64b2a9d5724887a01e35503369dde79bf42d8148463751632fb",
    "scan-infinite_thresholds-table":
        "013bbd378d38d4b3d841ba271f593e763cf6553765c3d17ec9b329fc1d0a169c",
    "reproduce-csv": "6393060def1c43c9d0e9e00f49364152550572f6a9472a7dc86f2ae817d3ee8c",
    "reproduce-json": "4b3c22ddc5ec295f07defea38a48976b17290f3cb6e4c64aa24fd37c085319b0",
    "reproduce-table": "af50f786a463ca60b7bed9c868977e3ca859066f948f098f98721791f774385a",
    "audit-local-csv": "48dcc18afa91a47cea6c9e3b625e139a80bc5d96eaa4f0728d66902ee6db7a27",
    "audit-local-json": "3394c831f81b74c5e5d555b918948aff8c262d97248c8d2b602b381f13d6900a",
    "audit-local-table": "da7becfa4d5903b810a460796cd1038eecd5ffa54f83dec90f5f471e56c3c3bb",
    "audit-uniform-csv": "4dc563e07e9086b4d8a209c5e041e7c57d00789eb5801452d2366dda80698b20",
    "audit-uniform-json": "812751f5f31e9aabdc7925e8f602ba108fc969c36287cdc3fb2e167c07a81cdc",
    "audit-uniform-table": "cbec179058f1c7d6b6160321d4e4f034304accf66888456fed6bb0d6d2cbcae4",
    "audit-fine_grained-csv":
        "011f7cf1f28ddf5f9861895b5e0b625b22452b3be6fac5327ac396f8e69a8e51",
    "audit-fine_grained-json":
        "acc95859c9f5986f85c87a0b99a1188cdf2e4d66e4a7e09f13aabb9b0520441b",
    "audit-fine_grained-table":
        "32ea038a2232b7b701b6e587934d07fec4f4cd7e8526a38b4bd46271a3f86142",
    "verify-egalitarian-bound-csv":
        "c59bf72c56abed5599d861fb6d61e6512e448a1a46dbbfb7d1c98573e0e9a156",
    "verify-egalitarian-bound-json":
        "f02df1ecd2b665e9e2922d2d1fcf0e152c37d1e912123838325e49d30d653fde",
    "verify-egalitarian-bound-table":
        "2b14d52b5ccd8b30bfe7227f76464ebe79688739d920ef8617b5638aaf8d0749",
    "verify-propstab-csv":
        "2c894e53820c9224a955b3fccff50130f9e94bc65a1db7a2f7e7a741adc5e972",
    "verify-propstab-json":
        "b4374d352b0675cc4ba8ad9c84d0f251d505a03b01cc435a46715810b97b0528",
    "verify-propstab-table":
        "dc85288f2f8854b3b0b4e8f332636f0887368e71c41d636fdfc18e58cd97a845",
    "verify-modularity-csv":
        "63bb75a17565d64fc7661caf18cbb39ca6fe3f30baa7ce2ef3ca715adc7a0707",
    "simulate-local-csv":
        "f2be0bad1188fdab8fdcfda842598c203d5abb8837418fe426a95fef4271ddbf",
    "simulate-local-json":
        "8ff564d5d1e8f7eeedd3ec21e45c8e2004d01746562d7221628c276d7621e1e4",
    "simulate-local-table":
        "ab7b78a66d5af70f3d0c5bd2ddbbf78ffb2e9e3e8794e4a9dad6d20834ec41cb",
    "simulate-uniform-csv":
        "8f1752b6afa1fe3ea3389e3f7f8518742c178a7ae15944381a8fe8c9f3338a64",
    "simulate-uniform-json":
        "020a882d34a238fdf1b4c1803ceb0f78559d2dbede78654dca55ee3876569a1a",
    "simulate-uniform-table":
        "ea7b25ae4d06d67064a89df77b88737be4eb6d6bfcfbd1d1ceaabb1c9b06533d",
    "simulate-fine_grained-csv":
        "752acb9681b05343367969164274f74894210a583342631f96481d91227cc3ee",
    "simulate-fine_grained-json":
        "669177d1dfd598ccad91ab47a022fe0fa2300281aa998a32a9734280c1ea4913",
    "simulate-fine_grained-table":
        "104ed594f5304e59f6901768b1542f5ffbf01d286b2acacdf280579afe7ef48a",
}


def output_sha256(argv, tmp_path):
    out = tmp_path / "out.txt"
    assert main(["--out", str(out), *argv]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", SCANS)
def test_scan(name, fmt, tmp_path):
    argv = ["--format", fmt, "scan", *SCANS[name]]
    assert output_sha256(argv, tmp_path) == PINS[f"scan-{name}-{fmt}"]


@pytest.mark.parametrize("fmt", FORMATS)
def test_reproduce(fmt, tmp_path):
    argv = ["--format", fmt, "reproduce", "motivating"]
    assert output_sha256(argv, tmp_path) == PINS[f"reproduce-{fmt}"]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("method", ["local", "uniform", "fine_grained"])
def test_audit(method, fmt, tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(
            {"mu_e": 10, "sigma_sq": 1, "players": AUDIT_PLAYERS, "method": method}
        ),
        encoding="utf-8",
    )
    argv = ["--format", fmt, "audit", str(scenario)]
    assert output_sha256(argv, tmp_path) == PINS[f"audit-{method}-{fmt}"]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("sweep", ["egalitarian-bound", "propstab"])
def test_sweep(sweep, fmt, tmp_path):
    """2,049 instances: two full blocks and a partial block of one."""
    argv = ["--seed", "42", "--format", fmt, "verify", sweep, "--instances", "2049"]
    assert output_sha256(argv, tmp_path) == PINS[f"verify-{sweep}-{fmt}"]


def test_modularity(tmp_path):
    argv = ["--format", "csv", "verify", "modularity"]
    assert output_sha256(argv, tmp_path) == PINS["verify-modularity-csv"]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("method", ["local", "uniform", "fine_grained"])
def test_simulate(method, fmt, tmp_path):
    """69,633 trials: a full chunk, then a partial chunk that ends in a
    partial noise block of one row."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(
            {"mu_e": 10, "sigma_sq": 1, "players": AUDIT_PLAYERS, "method": method}
        ),
        encoding="utf-8",
    )
    argv = ["--seed", "7", "--format", fmt, "simulate", str(scenario), "--trials", "69633"]
    assert output_sha256(argv, tmp_path) == PINS[f"simulate-{method}-{fmt}"]
