"""Byte-for-byte pins of the command-line outputs on a fixed set of specs.

For each spec the test runs ``check --json``, ``construct --reproducible``
and, when a matrix was built, ``verify`` on it, all in-process through
``cli.main``, and compares the sha256 of each command's exit code, stdout,
stderr and written file with the digest pinned below.  Any change to a
verdict, a partition, a stuck detail, a matrix entry or a verify sum
shows here.  For a set of multisets it pins the exit code and stdout of
``search`` at ``--max-results`` 1 and 16, node counts included, and
one digest of the same over each of two pools of random multisets, one
of integers and one of fractions with denominators up to 12.  A
change that alters output on purpose re-pins the digests and says why;
``PYTHONPATH=src python tests/test_golden_outputs.py DIR`` prints them,
writing its files in DIR.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from spectral_tetris import format_rational
from spectral_tetris.cli import main
from helpers import SEARCH_FAMILIES, random_mixed_spec, square_norm_via_fraction


def _unit_tight(dim: int) -> dict:
    return {"dim": dim, "eigenvalues": [f"{2 * dim - 1}/{dim}"] * dim, "unit": True}


def _spec_payload(spec) -> dict:
    return {
        "dim": spec.dim,
        "eigenvalues": [format_rational(v) for v in spec.eigenvalues],
        "norms_squared": [format_rational(v) for v in spec.norms_sq],
    }


def _decimal_run(seed: int, dim: int, draw_text) -> dict:
    """A spec with decimal ``norms`` read off a random cursor run, as the
    mixed-rational benchmark draws them: each row takes 0-2 singletons
    and, except the last, may close with a 2x2 block whose first-row mass
    is a tenth-multiple below both of its squared norms.  ``draw_text(rng)``
    gives one norm literal; the eigenvalues are its rounded squares."""
    rng = random.Random(seed)

    def draw():
        text = draw_text(rng)
        return text, square_norm_via_fraction(text)[0]

    eigenvalues, norms = [], []
    carry = 0
    for row in range(dim):
        mass = carry
        carry = 0
        for _ in range(rng.randint(0, 2)):
            text, square = draw()
            norms.append(text)
            mass += square
        if row < dim - 1 and (mass == 0 or rng.random() < 0.6):
            (first, a), (second, b) = draw(), draw()
            x = min(a, b) * rng.randint(1, 9) / 10
            norms += [first, second]
            mass += x
            carry = a + b - x
        elif mass == 0:
            text, mass = draw()
            norms.append(text)
        eigenvalues.append(mass)
    return {"dim": dim, "eigenvalues": [format_rational(v) for v in eigenvalues], "norms": norms}


def _decimal(digits: int):
    """A norm literal in (0.1, 2] with ``digits`` fractional digits."""
    scale = 10**digits

    def draw_text(rng: random.Random) -> str:
        units = rng.randint(scale // 10 + 1, 2 * scale)
        return f"{units // scale}.{units % scale:0{digits}d}"

    return draw_text


def _specs() -> dict[str, dict]:
    specs = {f"unit-tight-{n}": _unit_tight(n) for n in (7, 50, 300)}
    rng = random.Random(11)
    for i in range(12):
        specs[f"mixed-{i}"] = _spec_payload(random_mixed_spec(rng))
    # one stuck spec per place the cursor stops, and a trace mismatch
    specs["stuck-trace-mismatch"] = {"dim": 2, "eigenvalues": ["2", "2"], "norms_squared": ["1"] * 3}
    specs["stuck-no-partner"] = {"dim": 2, "eigenvalues": ["3/2"] * 2, "norms_squared": ["1", "2"]}
    specs["stuck-norm-bound"] = {"dim": 2, "eigenvalues": ["5", "2"], "norms_squared": ["3", "3", "1"]}
    specs["stuck-overfilled-row"] = {
        "dim": 4,
        "eigenvalues": ["6", "17/4", "3", "2"],
        "norms_squared": ["61/36"] * 9,
    }
    # decimal norms, squared on the parse path; "1.0001" and "0.7071" square
    # to denominators past 10^6, so they round and warn
    for digits in (1, 2, 3):
        specs[f"decimal-{digits}"] = _decimal_run(digits, 12, _decimal(digits))
    pool = ["1.5", "0.5", "1.25", "2", "0.125"]
    specs["decimal-repeated"] = _decimal_run(4, 15, lambda rng: rng.choice(pool))
    pool = ["1.0001", "0.7071", "1.5", "0.25"]
    specs["decimal-rounded"] = _decimal_run(5, 10, lambda rng: rng.choice(pool))
    specs["decimal-stuck"] = {"dim": 2, "eigenvalues": ["7/2", "2"], "norms": ["1.5", "1.5", "1"]}
    return specs


def _search_specs() -> dict[str, dict]:
    return {
        name: {
            "dim": len(eigenvalues.split()),
            "eigenvalues": eigenvalues.split(),
            "norms_squared": norms.split(),
        }
        for name, (norms, eigenvalues) in SEARCH_FAMILIES.items()
    }


def _run(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _digest(*parts) -> str:
    return hashlib.sha256(json.dumps(parts).encode("utf-8")).hexdigest()


def digests(name: str, payload: dict) -> dict[str, str]:
    """The digest of each command's outputs on one spec, run in the
    current directory."""
    Path(f"{name}.json").write_text(json.dumps(payload), encoding="utf-8")
    out = f"{name}.out.json"
    result = {"check": _digest(*_run("check", f"{name}.json", "--json"))}
    built = _run("construct", f"{name}.json", out, "--reproducible")
    text = Path(out).read_text(encoding="utf-8") if os.path.exists(out) else None
    result["construct"] = _digest(*built, text)
    if text is not None:
        result["verify"] = _digest(*_run("verify", out))
    return result


def search_digests(name: str, payload: dict) -> dict[str, str]:
    """The digest of ``search``'s exit code and stdout on one spec at each
    result limit, run in the current directory."""
    Path(f"{name}.json").write_text(json.dumps(payload), encoding="utf-8")
    return {
        f"max-results-{limit}": _digest(
            *_run("search", f"{name}.json", "--max-results", str(limit))[:2]
        )
        for limit in (1, 16)
    }


def _search_pool():
    """2,000 multisets drawn from ``random.Random(5)``: 5-10 squared norms
    in 1..12, and 3-5 integer eigenvalues that are a random composition
    of the same total."""
    rng = random.Random(5)
    for _ in range(2000):
        norms = [rng.randint(1, 12) for _ in range(rng.randint(5, 10))]
        total = sum(norms)
        cuts = sorted(rng.sample(range(1, total), rng.randint(3, 5) - 1))
        eigenvalues = [high - low for low, high in zip([0, *cuts], [*cuts, total])]
        yield {
            "dim": len(eigenvalues),
            "eigenvalues": list(map(str, eigenvalues)),
            "norms_squared": list(map(str, norms)),
        }


def _fractional_search_pool():
    """500 multisets drawn from ``random.Random(12)``: 5-8 squared norms
    k/d with d in 1..12, and 3-5 eigenvalues that cut the same total at
    multiples of 1/12.  The walk's common denominator is then above 1."""
    rng = random.Random(12)
    for _ in range(500):
        norms = [Fraction(rng.randint(1, 36), rng.randint(1, 12)) for _ in range(rng.randint(5, 8))]
        total = sum(norms)
        twelfths = sorted(rng.sample(range(1, math.ceil(12 * total)), rng.randint(3, 5) - 1))
        cuts = [Fraction(k, 12) for k in twelfths]
        eigenvalues = [high - low for low, high in zip([0, *cuts], [*cuts, total])]
        yield {
            "dim": len(eigenvalues),
            "eigenvalues": list(map(format_rational, eigenvalues)),
            "norms_squared": list(map(format_rational, norms)),
        }


def search_pool_digest(pool=_search_pool) -> str:
    """One digest of ``search``'s exit code and stdout at ``--max-results``
    1 and 16 over every multiset of ``pool()``, run in the current
    directory."""
    parts = []
    for payload in pool():
        Path("pool.json").write_text(json.dumps(payload), encoding="utf-8")
        for limit in (1, 16):
            parts.append(_run("search", "pool.json", "--max-results", str(limit))[:2])
    return _digest(*parts)


GOLDEN = {
    "decimal-1": {
        "check": "8995d336eee18abaabca649bc7ca2f28f4f41635d2c3d010dddd6fb4afdec358",
        "construct": "1b20935ffb5ed0fb4387c3e370148a108a722dec0a60b838b32dc7c8b9488caa",
        "verify": "c3843cc13b99e72c73ff660d77d615d08139a596da40e6b0b7d719741e97f45d",
    },
    "decimal-2": {
        "check": "7919e46b8864ce47bf735f6b7c6cfb969e11eb7a15c1ba2fb07d378c45ba322b",
        "construct": "949e4f7f6c69bb7a60c96001291fb27e7caa0e4ac1586d897375cf4d65eb3353",
        "verify": "1f1a6f124f5c6b917ccaa315d58b9c8c3b7dd8befddaf60610747990c4b6ef83",
    },
    "decimal-3": {
        "check": "1c1bf665051307de77ef186cf3fa429f2c04292520552c998ff123ced7b40a77",
        "construct": "43c1e8f58929b0e122b51449c71a3903474ba73d904ac0da4d8f9db4ab19884f",
        "verify": "00a1c049059685b8b848b50aa18131d4133acf96345383037efee45eed5bf488",
    },
    "decimal-repeated": {
        "check": "e21a277d85ab74599df13a1b221f30ecfce24172b91beb769c4f1b942cd0033a",
        "construct": "01987e714e757de2549fa460aff7e62f09778b5481ea1ea0a140f619bb3e7bc5",
        "verify": "529087e16c381767f1d5ab34b4c6e280759df78a52ddbe3a94cd7e9958ce7e6e",
    },
    "decimal-rounded": {
        "check": "4ab5acad7bb335e94f4d1ce17014658becbc364ba12ab9ee953b89757194d553",
        "construct": "a936d922b67b4a7c76683484b6574287c5ad9c8da85c2b9963a5d6c5294e8b89",
        "verify": "8fc56c5eba46b8bfcc3a1747a366d165c03bc46b3120d60153a1fb79c6ddaa5f",
    },
    "decimal-stuck": {
        "check": "1ea88362d91649602ad3019dda61c81cc8ea4b78c93a9d338cde382086549c71",
        "construct": "05fb337d4b7a3690061a28ed5a0021df226d9ce28295e9b5e6e696a0e4c8ff84",
    },
    "mixed-0": {
        "check": "b92c2db7bd4a02c7d678da98ad8e0ee7916828f49bbd1edf167e868d8cb0d891",
        "construct": "f411d64eda7c8dccfc6cc9adb9bf31c086d1f2914aa068675a0027c656175123",
    },
    "mixed-1": {
        "check": "98392fbd9e44672cb8e8bb471ddc86be4a3177688662e04e1fa7caee40ce11c0",
        "construct": "7fc123f4b3fb4a945217d01f1f04bc4e5d014f596cc7328f5cbd046b244a5adf",
    },
    "mixed-10": {
        "check": "616f456ace611d7bcdce50501f51a99cff7a46a0e2d1c8beed8816789e2e5907",
        "construct": "19579543e73d5a7e351580626ea6eb849b4136978a306babe8720a8a54bec86f",
    },
    "mixed-11": {
        "check": "f8eaec9f3d2962a2d3ddcb255c2260e9b7161210f5cc407fb4953557b3aa3fbf",
        "construct": "c8735de79bf1e909b170ab8bb09ef38ad43a901c768aefd311684f613c067165",
    },
    "mixed-2": {
        "check": "d8657e4298f922ed691f6dde111f1be24e6af0a48fec17c9e3b0752410a71561",
        "construct": "a880044c46c58a4de8c7fd0588abf083d7872cb7ce44054707bbcc92c8a2bfee",
        "verify": "7a1f2ff1699f806f0e45b52248b9a5e70ee9392e494f26c43946ce8c9c7ed3ff",
    },
    "mixed-3": {
        "check": "a4b2949386fbd791e582d013d1aa932421dd6875e6fd638468ea807b6fe0f251",
        "construct": "59a63ea0c5e9403b4e664978eb346c7f206abd7b6bc7534dd6cdf8983a727a2b",
        "verify": "e1c34b63494a2e981af26261a5ea482a53390ab7771a8199c5efec144fc1ab32",
    },
    "mixed-4": {
        "check": "b858fb2a4abc761f9185e863cd858ec9322329b2f05ba82983b4f837a4a05c25",
        "construct": "bd2c3057075efecf44135051646ee4978cdc49222f37b96ad61d09659b5fbcfb",
        "verify": "eb9527e883f58614b2aaebbb5b0d94b1c38228e56efd553d04fb514be69a6f39",
    },
    "mixed-5": {
        "check": "94c63e4f78a94048fbdd6bb8caa1ae1fb833914002a564ac2df6b70383ed9c04",
        "construct": "1bcf33ec7f3167bb36cc3bc9a149ef11c5e22cd8ef67220e28e01d3c5c66930c",
    },
    "mixed-6": {
        "check": "53d8fba99764b4c9d04bb334ee450f331f92ff61a1534ca377ff098388d4d4b9",
        "construct": "19579543e73d5a7e351580626ea6eb849b4136978a306babe8720a8a54bec86f",
    },
    "mixed-7": {
        "check": "cfa774fb718bfa034de384db636fc332c48997ec1f2dd509f8a01d0267fcc2bd",
        "construct": "d38e8499b89cf4acb7095ebd8be72fc632ac6f1fa38282271e46c64820c03178",
    },
    "mixed-8": {
        "check": "88263b7982527cc05b6ffe9caf0ea18f5415270ccc2254d05e9d9fd17eff6abb",
        "construct": "dc807158e787abb41c43ca6330667acf9881b5a21b2c283d03fd1819ac040b47",
        "verify": "e97be09863f8e871f473ebc11f87d1b38b45e30da8c838310f65f31055e9fe94",
    },
    "mixed-9": {
        "check": "c794bfea8083924aac51e29d6a4791fa8e45335b20f4590ec3170c39c1eaa5b3",
        "construct": "4753e2e9390900d57b9730ba8af7fb5f51c805c24aef0700cf395abb09e22004",
    },
    "stuck-no-partner": {
        "check": "6afcac05551db6543f1ff7e1957b392a87ffca7fe3548b882a7e85203bdbe509",
        "construct": "c8735de79bf1e909b170ab8bb09ef38ad43a901c768aefd311684f613c067165",
    },
    "stuck-norm-bound": {
        "check": "c9f20111c3828723208ab16cedab296657508db3c5cc27a36d90355854bbfc37",
        "construct": "65fa4ee3b09ef3a9fc7b0ec477bb8f00e939ec11e7b883bc6603f34eaca9c064",
    },
    "stuck-overfilled-row": {
        "check": "723b53934c57f00c5c57af672b680444c5f87ade9f61f434cf1f7efba40d2ff9",
        "construct": "69a7f31e55e2b1cd064ae71bcd0fa33595c3dbc0690e7e765a3ca8a963296591",
    },
    "stuck-trace-mismatch": {
        "check": "988aa407bd828d4fc536e0bc2d9eb56e90c12a53d5fafccbe4701efca36b87ec",
        "construct": "fb37a95ea98ac0d1cc3b06847fe2dc58f7a2810324426d7d16b4f526d42eb921",
    },
    "unit-tight-300": {
        "check": "7a3d5bde5a2ee43cf1c4cb08a13ad3178b5f0368cba6167375207b0de72ef313",
        "construct": "32849abcd4ae811c420d7476d1cca4a78acf9b2d5009bd599cf7bf3e40a98cd4",
        "verify": "dc88e2a508fa5ec7e64793e4efc2c32e1f8edc5830771ab871ac8925a69cdc8c",
    },
    "unit-tight-50": {
        "check": "b5eafd3f682f45a91bd9ad72ec8ea120d54a81af3309494fb2686b7ff72ce0d4",
        "construct": "05d5396bf01bcc84b49468c20625713b0a86a657ef9fa8957328c1136df5b7c6",
        "verify": "deb1b3f3c23ae28bfc78ebe627621e6ea4b647a79f25dc07dff04ee3c9d5c2a5",
    },
    "unit-tight-7": {
        "check": "a9749b213d263b8315116d446bffe2c890bb31f1393c998fbc1dcc027105c040",
        "construct": "bddfe4da85fbe81dfd77eef009401c3a5fea07d258b5b4eac4d3647c85b337ad",
        "verify": "7edcdb42cd515a389cbe5adef5e4f00aecce99429c5d8fe9de5d058341d9c31b",
    },
}


SEARCH_GOLDEN = {
    "combined": {
        "max-results-1": "a33480deb193250a870263c5ebb7379590b3bd680b80d44504c96885270391ae",
        "max-results-16": "eded2cb9adef3498bb67ecdbbf606af2b6279810dbb5f2573381ed26d10ff840",
    },
    "five-norm-tight": {
        "max-results-1": "a6b2f9b41c42c67e29504447f94eb33f46eff92fc1ed66a9fc58528004bcb2ac",
        "max-results-16": "2e1bc9d5f7bbf9fb009ac809e3d462d3db49574fa33483ed9e86214e45127fd1",
    },
    "largest-catalog-infeasible": {
        "max-results-1": "f5cdfa4dd6393a7f8840d6bf1753b9f939cc6e0f7d2a4428b0af88f8e069dc16",
        "max-results-16": "f5cdfa4dd6393a7f8840d6bf1753b9f939cc6e0f7d2a4428b0af88f8e069dc16",
    },
    "seven-norm-tight": {
        "max-results-1": "c5e6c4ae40adbea4bf2ff5f8ea700d06865aa2ba5192524f08c2edf38006096d",
        "max-results-16": "a5e7d8efb0c4e062f87bb049c47d207418a109195849fb7fccbdcf0dab5e998f",
    },
    "three-eigenvalues": {
        "max-results-1": "8cd65a14cd7b02c3a29f038de06231edcf6391066551b5bd13ebd969b33a4146",
        "max-results-16": "a7a6e226aad27f46181035ec0470dfeba3fff34568ef6ddc88f48d122b9b9272",
    },
    "tight-four": {
        "max-results-1": "926bc10f06388eb5a7030d80a44eb9446a0c0fb2982ff091b9343eb03e2faaa2",
        "max-results-16": "926bc10f06388eb5a7030d80a44eb9446a0c0fb2982ff091b9343eb03e2faaa2",
    },
    "trivial-pair": {
        "max-results-1": "03a39fc14cec4d5d25976e5a0b4858a613868ae12b37ad57adb1595d5c83e7b2",
        "max-results-16": "d3787a7aeebc8bd16e40c564690b1812a7841ff17c04e653572446bccbdebab0",
    },
    "unready-multiset": {
        "max-results-1": "68347aac25821744896f0f2e46e1406da2c14ce3e371342cc12c89714bbaf0ee",
        "max-results-16": "68347aac25821744896f0f2e46e1406da2c14ce3e371342cc12c89714bbaf0ee",
    },
}

SEARCH_POOL_GOLDEN = "fd87d0944e971f9186a26a0d8a23f7e061ce6f7f140716f202ecaf88827cf4cf"
FRACTIONAL_SEARCH_POOL_GOLDEN = "b9b47f86d978e033aed48deb903aeb10bd0b6a45b9814544e9bc9cc05a8b7b80"


@pytest.mark.parametrize("name", sorted(_specs()))
def test_outputs_match_the_pinned_digests(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert digests(name, _specs()[name]) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(_search_specs()))
def test_search_outputs_match_the_pinned_digests(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert search_digests(name, _search_specs()[name]) == SEARCH_GOLDEN[name]


def test_search_pool_matches_the_pinned_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert search_pool_digest() == SEARCH_POOL_GOLDEN


def test_fractional_search_pool_matches_the_pinned_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert search_pool_digest(_fractional_search_pool) == FRACTIONAL_SEARCH_POOL_GOLDEN


if __name__ == "__main__":
    os.chdir(sys.argv[1])
    for case, spec_payload in sorted(_specs().items()):
        print(f"    {case!r}: {digests(case, spec_payload)!r},")
    print("search:")
    for case, spec_payload in sorted(_search_specs().items()):
        print(f"    {case!r}: {search_digests(case, spec_payload)!r},")
    print(f"search pool: {search_pool_digest()!r}")
    print(f"fractional search pool: {search_pool_digest(_fractional_search_pool)!r}")
