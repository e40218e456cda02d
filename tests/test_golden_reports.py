"""Golden `verify` reports: one small grid per theorem, pinned by sha256.

Each grid is run in JSON and CSV, with and without --probe-inapplicable, and
the bytes of the --out file must hash to the recorded digest.  The grids
include NOT-APPLICABLE tuples (sun with beta > alpha, ec2 with a != 1 mod p,
wan with n <= l p), zero sums and trivial bounds, and sc2 with the zero
polynomial.  A refactor that changes any report byte fails here.
"""

import hashlib

import pytest

from congruence_lab.cli import main

GRIDS = {
    "fleck": ["--n", "1..12", "--p", "2,3"],
    "weisman": ["--n", "1..12", "--p", "2,3", "--alpha", "1..3"],
    "wan": ["--n", "1..12", "--p", "2,3", "--l", "0..2"],
    "sun": ["--n", "1..10", "--p", "2,3", "--alpha", "1,2", "--beta", "0..3", "--l", "0,1"],
    "wan-strong": ["--n", "1..12", "--p", "2,3", "--alpha", "1,2", "--l", "0..2"],
    "davis-sun-a": ["--n", "1..12", "--p", "2,3", "--alpha", "1,2", "--l", "0..2"],
    "davis-sun-b": ["--n", "1..12", "--p", "2,3", "--alpha", "1,2", "--l", "0..2"],
    "ec1": ["--n", "1..10", "--p", "2,3", "--alpha", "1,2", "--l", "0..2"],
    "ec2": ["--n", "1..10", "--p", "2,3", "--alpha", "1,2", "--a=-1..4"],
    "sc1": ["--n", "1..10", "--p", "2,3", "--a=-1..2"],
    "sc2": ["--n", "1..10", "--p", "2,3,5", "--a=-1..2",
            "--f", "0", "--f", "1", "--f", "0,0,1", "--f", "0,-1,0,3"],
    "sc3": ["--n", "1..8", "--p", "2,3", "--alpha", "1,2", "--a=-1..2"],
}

# (theorem, format, probe) -> sha256 of the report
DIGESTS = {
    ("fleck", "json", False):
        "24ee92c19911a3c3b97d9ccd3b1f4cf64c128a36c45b0cb281ecd8aa5addbdc4",
    ("fleck", "json", True):
        "24ee92c19911a3c3b97d9ccd3b1f4cf64c128a36c45b0cb281ecd8aa5addbdc4",
    ("fleck", "csv", False):
        "c6d9dee02e5413099bce76fd1d4b4379e203d94f592b1a56d5610e3717362ab9",
    ("fleck", "csv", True):
        "c6d9dee02e5413099bce76fd1d4b4379e203d94f592b1a56d5610e3717362ab9",
    ("weisman", "json", False):
        "bb14970537e705da6c0518c63ee1705bd602019a495491b2884423c81b845b33",
    ("weisman", "json", True):
        "bb14970537e705da6c0518c63ee1705bd602019a495491b2884423c81b845b33",
    ("weisman", "csv", False):
        "9b68d1845d09d5afcefcd6db206a37cb9e8f8e6ef82a3ef9d8430a5dcdf4a81a",
    ("weisman", "csv", True):
        "9b68d1845d09d5afcefcd6db206a37cb9e8f8e6ef82a3ef9d8430a5dcdf4a81a",
    ("wan", "json", False):
        "f8a6f3438ba943153a0ffa43bb4540b1314d2dae6233fc51142d259afd7bc56b",
    ("wan", "json", True):
        "6b1970e06ac94db2b635031daf43dfc474e779bb2c95e28566b8f7bff8ad0984",
    ("wan", "csv", False):
        "4472669ded79476c5d8ed352b135502b9036c7299d3fddfc34302540d28a81a3",
    ("wan", "csv", True):
        "eef4c11a830246c12af41c1e9cc235e88e683a1856083cb39c1e769bd63272b7",
    ("sun", "json", False):
        "a490e32e2466798cb84f4ee8b1fd54686b02a135b56923fd79f58ff15a3d0f8f",
    ("sun", "json", True):
        "727bdd663dec153195451a16dc877a9fd6d21d0130f59ad7fc37321a5a740a21",
    ("sun", "csv", False):
        "aae4ec05ec4eb530b636e510ea01cd598827cf4945f35c2c37e8510476fc7aff",
    ("sun", "csv", True):
        "0a82c4d6d73053084bad30be3d31888f2dab4cd2935b1a75fcf2262added1af3",
    ("wan-strong", "json", False):
        "5d46d5708227f7020bbff83cb23cbd5a702050b18ae1c4c27aff774a61f3717f",
    ("wan-strong", "json", True):
        "5d46d5708227f7020bbff83cb23cbd5a702050b18ae1c4c27aff774a61f3717f",
    ("wan-strong", "csv", False):
        "d25659aba7bfeffd448893445ca4347485e756027de0bd438c49a23b2c402084",
    ("wan-strong", "csv", True):
        "d25659aba7bfeffd448893445ca4347485e756027de0bd438c49a23b2c402084",
    ("davis-sun-a", "json", False):
        "115dcba15beae4c8b8c744ae3e9a5db8016f6f6eb211aba95f85f64d421f706a",
    ("davis-sun-a", "json", True):
        "115dcba15beae4c8b8c744ae3e9a5db8016f6f6eb211aba95f85f64d421f706a",
    ("davis-sun-a", "csv", False):
        "fc2b6ecccae57bda9bcf8dae4bf322095e028278df20ce34eddb3e007516594d",
    ("davis-sun-a", "csv", True):
        "fc2b6ecccae57bda9bcf8dae4bf322095e028278df20ce34eddb3e007516594d",
    ("davis-sun-b", "json", False):
        "9a7fc00d8a7855925ce20a31cfd08b91551ef85b71a532769e09622164a4a9f6",
    ("davis-sun-b", "json", True):
        "9a7fc00d8a7855925ce20a31cfd08b91551ef85b71a532769e09622164a4a9f6",
    ("davis-sun-b", "csv", False):
        "a56c9d80c6b6c58565f493df75f94e782d0840770a1f90b0adb339216b71a1f6",
    ("davis-sun-b", "csv", True):
        "a56c9d80c6b6c58565f493df75f94e782d0840770a1f90b0adb339216b71a1f6",
    ("ec1", "json", False):
        "98d1d53ca8c7e0e038cfeef7fd4b43046f7b389f92618af3305da9ffcbd3471d",
    ("ec1", "json", True):
        "98d1d53ca8c7e0e038cfeef7fd4b43046f7b389f92618af3305da9ffcbd3471d",
    ("ec1", "csv", False):
        "49378839e3661b2fe56782f49a5f13723c49b0331ac8b37e4d6e0fca1bddc341",
    ("ec1", "csv", True):
        "49378839e3661b2fe56782f49a5f13723c49b0331ac8b37e4d6e0fca1bddc341",
    ("ec2", "json", False):
        "88e9265e47dfdb21a3de658b3e7997161a533b8fd48c3bdf72164af8c7f6b0fb",
    ("ec2", "json", True):
        "3beb0d45cbbce13edef1cb90c4037b74a2928934de349f04b875e8cb775d13c9",
    ("ec2", "csv", False):
        "1e6ec5d72b3939e2aa49f0256f1d5f505fac9177e996a165dd431fdc149bf5c5",
    ("ec2", "csv", True):
        "c7128ae8aadd5db8c2fc119b17d9ee903b62638f5fe20320106b6f989f4cc7e0",
    ("sc1", "json", False):
        "61d3c0bec4467529267dfbd5c5b42de22b0c2ee34a6ccd1d2841334a4217bc84",
    ("sc1", "json", True):
        "61d3c0bec4467529267dfbd5c5b42de22b0c2ee34a6ccd1d2841334a4217bc84",
    ("sc1", "csv", False):
        "e2f44c0b83c2a5a600ee7b0f4fa730314fcbf43aa5e4a9c52353c2bd3417cf97",
    ("sc1", "csv", True):
        "e2f44c0b83c2a5a600ee7b0f4fa730314fcbf43aa5e4a9c52353c2bd3417cf97",
    ("sc2", "json", False):
        "c0e6fa3142748d9691c061ad2c7fb0a2d9d3809338c38f88645a883ba50d2eb1",
    ("sc2", "json", True):
        "c0e6fa3142748d9691c061ad2c7fb0a2d9d3809338c38f88645a883ba50d2eb1",
    ("sc2", "csv", False):
        "412a2a372a3dfa7b268e169a9e41ba482e3a869cfc7753a40234760df1bbc01b",
    ("sc2", "csv", True):
        "412a2a372a3dfa7b268e169a9e41ba482e3a869cfc7753a40234760df1bbc01b",
    ("sc3", "json", False):
        "a2008ac15c9ac0fa856070baf1b730a09f47cf6eeefede4841f41e3e0a279478",
    ("sc3", "json", True):
        "a2008ac15c9ac0fa856070baf1b730a09f47cf6eeefede4841f41e3e0a279478",
    ("sc3", "csv", False):
        "c6617a6a040376208aa69cc81ea52b3f02484daf649a249cb23b0930c19518a0",
    ("sc3", "csv", True):
        "c6617a6a040376208aa69cc81ea52b3f02484daf649a249cb23b0930c19518a0",
}


def report_digest(theorem: str, fmt: str, probe: bool, path) -> str:
    argv = ["verify", theorem, *GRIDS[theorem], "--format", fmt, "--no-timestamp",
            "--out", str(path)]
    if probe:
        argv.append("--probe-inapplicable")
    assert main(argv) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("probe", [False, True], ids=["plain", "probe"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("theorem", sorted(GRIDS))
def test_report_bytes_are_pinned(theorem, fmt, probe, tmp_path, capsys):
    digest = report_digest(theorem, fmt, probe, tmp_path / f"report.{fmt}")
    assert digest == DIGESTS[theorem, fmt, probe]
