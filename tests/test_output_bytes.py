"""Byte-identity guard: the exact stdout and ``--out`` bytes of every verb,
and the full ``verify`` report, pinned by digest.  Uses only
``srscorr.cli.run``, ``emit_report`` and the check registry, so it runs
unchanged against any revision of the package."""

import hashlib

import pytest

from srscorr import cli
from srscorr.report import emit_report
from srscorr.verify import CHECKS

# sha256 of the stdout (and of the ``--out`` file) of a fixed argv matrix.  A
# change to any emitted byte fails here, and has to be explained.
_PINNED_OUTPUTS = [
    ("corr --k 5 --N 40 --n 13 --format json --precision 12", "2a2751f12ff97228cdaf05ef88da42b741fbd460a5abcba5828413e5c2ea1629"),
    ("corr --k 5 --N 40 --n 13 --format json --precision 30", "49f42fc720fc062d6dc78d70c1b0caf02e616e56b9b5787cce8b55e8b8642b03"),
    ("corr --k 5 --N 40 --n 13 --format json --precision 80", "286ce68cce2ee30ce1204ae52df79083a84b5710914d69f0d11b5957aaf44846"),
    ("corr --k 5 --N 40 --n 13 --format csv --precision 12", "62b17cdc2409da22e8ae37a75cc6df96735a4c4d1daa6cba7326194f209d89e7"),
    ("corr --k 5 --N 40 --n 13 --format csv --precision 30", "9cc867410b711ba63dfeb95f4f309e37919d146bc4b25c5c65f9936c4b1d65c0"),
    ("corr --k 5 --N 40 --n 13 --format csv --precision 80", "7a5bab9b68c2f89c5cfa8c0ba87d6dbb8fa3304844206c0836ea646eb8596203"),
    ("limit --k 7 --f 2/7 --format json --precision 12", "4b6330e85285cc91fa431ae0af66be51753ffaeef670e1a8d052b594b7feb7a7"),
    ("limit --k 7 --f 2/7 --format json --precision 30", "3ed0adefcaea35e38c1988877313cf26a6c920bf79ce6e6209bc69879ca939cf"),
    ("limit --k 7 --f 2/7 --format json --precision 80", "5afeb769b5949dc496393b9fdc48d565364ae68c1bc92b649182c91541520a88"),
    ("limit --k 7 --f 2/7 --format csv --precision 12", "4482e82565e43af335495aa4e256e617681eeaa6557698f5c925c6476415361b"),
    ("limit --k 7 --f 2/7 --format csv --precision 30", "b638d6d675faf60a6cf6fd3c28807296fce65912be3061aa4f8bfe632250f18f"),
    ("limit --k 7 --f 2/7 --format csv --precision 80", "b792c52c96f06a40acf5db2dc8e9e6b742f1a995020d1f65298dbb291d390db4"),
    ("scan --k 4 --f 2/5 --grid 100,200,400 --format json --precision 12", "56a317c109ed5a77b38c143df59e205cf9e3a5af82e34cd6a26eb8aa99ce4b0e"),
    ("scan --k 4 --f 2/5 --grid 100,200,400 --format json --precision 30", "89499f849c43ef069fb5896c45a96c0ce6336165218d4b7e82ed29b990afde70"),
    ("scan --k 4 --f 2/5 --grid 100,200,400 --format json --precision 80", "357bee96244695168cc7c6162793d74324e5dece0f4cabf5dcbdc4550e4c80e7"),
    ("scan --k 4 --f 2/5 --grid 100,200,400 --format csv --precision 12", "986eb52e452a3e7e793010013775bc7548b896ce8f1de71cc68f125c58030c12"),
    ("scan --k 4 --f 2/5 --grid 100,200,400 --format csv --precision 30", "e5c2fdedbb3b7e8710bf25f4a116c86088a085d10ee803cd17ca273381fce729"),
    ("scan --k 4 --f 2/5 --grid 100,200,400 --format csv --precision 80", "70a8b8f8480c05f95d127f9aba0f243a6c031c9a581305df6da21df8e7d1a60b"),
    ("mc --k 3 --N 50 --n 20 --trials 5000 --seed 7", "ba15c4f2febacb956440d956a5d2b6b4774c8cd25b40720a6f0c06d505e60c13"),
    ("ppoly --k 8 --m 3", "6359f33712afc15e992b20abf7b5ddbc613cb4872455cc9af97d02571731197f"),
    ("verify --suite exactnum --max-k 3", "eab43778acac19fd43bf0b527fdd43604aa42e854125ab1f31a6beef45adcff5"),
    ("mc --k 3 --N 50 --n 20 --trials 5000 --seed 7 --format csv", "17b2620364140448a92d82bc8d58bce6488344355d274208db653e3a88765e96"),
    ("ppoly --k 8 --m 3 --format csv", "183448dd9d1cb9290e0803824647c9bfee5f1733f10fd5a139614fd6eb33ee13"),
    ("verify --suite exactnum --max-k 3 --format csv", "b196241f242954cacca20c106ec3454ce90b4fffeba699a083f0003f82df916c"),
    # every check capped, at the smallest cap where each one still compares something
    ("verify --max-k 2", "d5baa8c60f63cbe557017d3fb8b70ce4aee74de317c9310f0de21d259501b47a"),
    # benchmark scale: orders up to 128 at N near 10^7, as in perfbench's exact-scan
    ("corr --k 118 --N 9876543 --n 3950617 --format json --precision 80", "40a42ce7267569b7fe1b1ff199a37a5f0163661262341772a3bf7b0b10c41ffe"),
    ("scan --k 128 --f 37/97 --grid-geom 1234567:3/2:6 --format json --precision 12", "3b2c3da90fc9d1df2b62e73ff56b4712fefdc89325284527fa1f72429e4b7f28"),
    ("scan --k 128 --f 37/97 --grid-geom 1234567:3/2:6 --format csv --precision 12", "539e6fac6fb5ae4ea0ae1779de663b78379855db70a13997996fc3ba9b988530"),
    # benchmark scale for the recursion polynomials: degrees 32 and 38, as in perfbench's poly-tables
    ("ppoly --k 60 --m 16", "eb592d70f8833fbe60853cdc03374c9037a49ee331ac7c662e6f2f6c231bdc55"),
    ("ppoly --k 24 --m 19 --format csv", "e675bede0b9753d96a7b444472ecfcad04e6477a48cfd7e64a9fd9038a9b9ad9"),
    # the lockstep sampler at benchmark shapes: a few lanes at large N, 65536 trials at small N
    # (two batches of 32768 lanes), N = 257 where position 256 needs more than 8 bits, and N just
    # below 2^64
    ("mc --k 3 --N 90000 --n 2000 --trials 180 --seed 5", "0438606e71f68ba1d46b2c8740ef9a3c06297ac4821ebf465b12e0c753e669b7"),
    ("mc --k 5 --N 230 --n 33 --trials 65536", "a399a5d42cde5c8730c68818adf3b6917db5fe013d67faebbeb48df37d3fdeeb"),
    ("mc --k 4 --N 257 --n 256 --trials 3000", "d34582b25eb71d4783feaeebbc11af23505b9f4d711fb582beb5c928bf2d87cd"),
    ("mc --k 2 --N 18446744073709551557 --n 40 --trials 64", "cda51f6eba4b0daef1983ada1bdde2b9394a47e730d8e941377205ed9ea50d9b"),
]


@pytest.mark.parametrize("argv, digest", _PINNED_OUTPUTS, ids=[argv for argv, _ in _PINNED_OUTPUTS])
def test_output_bytes_are_pinned(argv, digest, tmp_path, capsys):
    target = tmp_path / "out"
    code = cli.run(argv.split() + ["--out", str(target)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


def test_scan_with_no_interior_design_writes_no_bytes(tmp_path, capsys):
    # every grid point rounds to n = 0: an error, not a bare CSV header
    target = tmp_path / "out"
    code = cli.run(["scan", "--k", "2", "--f", "1/100", "--grid", "2,3", "--format", "csv", "--out", str(target)])
    assert code == 2 and capsys.readouterr().out == ""
    assert not target.exists()


# sha256 of ``python -m srscorr verify`` stdout: every registry check at its full range.
_VERIFY_DIGESTS = {
    "json": "5801117eeb26ad54d7bc401d4ca632e5ca7339cd6ee6c843f36d5a68b1dafc16",
    "csv": "2efc2f52e439e0e2a5def80f05dbba8fdf91061975b1d981a7397ef31df5dad4",
}


@pytest.mark.parametrize("format", sorted(_VERIFY_DIGESTS))
def test_full_verify_report_bytes_are_pinned(format, check_result):
    # the session-cached results render as the verb does, so no check runs twice
    rows = [check_result(check.identity)[0] for check in CHECKS]
    text = emit_report(rows, format)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == _VERIFY_DIGESTS[format]
