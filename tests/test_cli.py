"""Command-line surface: generation, build, verify, queries, stats."""

import random

import pytest

import txspanner.oracle as oracle_mod
from txspanner.cli import generate_sites, main
from txspanner.core import load_sites
from txspanner.spanner import SpannerGraph, build_spanner_radius_ratio


def _gen(tmp_path, n=60, model="uniform", seed=5, name="sites.txt"):
    path = tmp_path / name
    rc = main(["generate", "--n", str(n), "--radius-model", model,
               "--seed", str(seed), "--out", str(path)])
    assert rc == 0
    return path


# ---------------------------------------------------------------------------
# generation

def test_generate_deterministic(tmp_path):
    a = _gen(tmp_path, seed=9, name="a.txt")
    b = _gen(tmp_path, seed=9, name="b.txt")
    assert a.read_bytes() == b.read_bytes()
    c = _gen(tmp_path, seed=10, name="c.txt")
    assert a.read_bytes() != c.read_bytes()


def test_generate_respects_n_and_psi(tmp_path):
    path = tmp_path / "s.txt"
    rc = main(["generate", "--n", "75", "--radius-model", "pareto",
               "--psi-cap", "6", "--seed", "3", "--out", str(path)])
    assert rc == 0
    sites = load_sites(path)
    assert len(sites) == 75
    radii = [s.radius for s in sites]
    assert max(radii) / min(radii) <= 6.0 + 1e-9


def test_generate_validates_arguments():
    with pytest.raises(ValueError):
        generate_sites(0)
    with pytest.raises(ValueError):
        generate_sites(5, distribution="hexagonal")
    with pytest.raises(ValueError):
        generate_sites(5, radius_model="cauchy")
    with pytest.raises(ValueError):
        generate_sites(5, psi_cap=0.5)


def test_generate_distributions():
    for dist in ("uniform-square", "clustered", "grid"):
        sites = generate_sites(40, distribution=dist, seed=1)
        assert len(sites) == 40


# ---------------------------------------------------------------------------
# build / verify round trip

@pytest.mark.parametrize("variant", ["spread", "ratio", "general"])
def test_build_verify_roundtrip(tmp_path, variant):
    sites = _gen(tmp_path, n=60, model="pareto")
    out = tmp_path / "h.txt"
    rc = main(["build", str(sites), "--t", "2", "--variant", variant,
               "--out", str(out)])
    assert rc == 0
    rc = main(["verify", str(sites), str(out), "--variant", variant])
    assert rc == 0


def test_build_rejects_bad_stretch(tmp_path):
    sites = _gen(tmp_path)
    rc = main(["build", str(sites), "--t", "1", "--out",
               str(tmp_path / "h.txt")])
    assert rc == 2


@pytest.mark.parametrize("t", ["inf", "nan"])
def test_build_rejects_non_finite_stretch(tmp_path, capsys, t):
    sites = _gen(tmp_path)
    capsys.readouterr()
    rc = main(["build", str(sites), f"--t={t}", "--out",
               str(tmp_path / "h.txt")])
    assert rc == 2
    assert "stretch must be finite and exceed 1" in capsys.readouterr().err


@pytest.mark.parametrize("stretch", ["nan", "inf", "1.0"])
def test_bfs_rejects_bad_stretch_in_spanner_file(tmp_path, capsys, stretch):
    sites = _gen(tmp_path, n=20)
    spanner = tmp_path / "h.txt"
    spanner.write_text(f"20 1 {stretch} 101 68\n0 1 0.1\n")
    capsys.readouterr()
    assert main(["bfs", str(sites), str(spanner), "--root", "0"]) == 2
    assert f"{spanner}:1: stretch must be finite" in capsys.readouterr().err


def test_verify_variant_needs_grid_parameters(tmp_path, capsys):
    # a header with k = 0 carries no (k, c), which --variant needs
    sites = _gen(tmp_path, n=30)
    spanner = tmp_path / "h.txt"
    spanner.write_text("30 0 2.0 0 0\n")
    capsys.readouterr()
    rc = main(["verify", str(sites), str(spanner), "--variant", "ratio"])
    assert rc == 2
    assert "--variant ratio needs the grid parameters" in \
        capsys.readouterr().err


def test_verify_flags_edge_outside_disk(tmp_path, capsys):
    sites = tmp_path / "sites.txt"
    sites.write_text("0 0 1\n0.5 0 1\n5 0 1\n")
    spanner = tmp_path / "h.txt"
    spanner.write_text("3 2 2.0 0 0\n0 1 0.5\n0 2 5.0\n")
    capsys.readouterr()
    assert main(["verify", str(sites), str(spanner)]) == 1
    assert "subgraph check: 1 violations" in capsys.readouterr().out


def test_verify_flags_tampered_spanner(tmp_path):
    sites = _gen(tmp_path, n=50)
    out = tmp_path / "h.txt"
    assert main(["build", str(sites), "--t", "2", "--out", str(out)]) == 0
    H = SpannerGraph.load(out)
    # drop half the edges: stretch or witness checks must fail
    H = SpannerGraph.from_edges(H.n, H.edges[: H.m // 2], H.t, H.params)
    H.save(out)
    assert main(["verify", str(sites), str(out)]) == 1


def test_missing_input_file(tmp_path):
    rc = main(["build", str(tmp_path / "nope.txt"), "--t", "2",
               "--out", str(tmp_path / "h.txt")])
    assert rc == 2


@pytest.mark.parametrize("line", ["nan 0 1", "0 0 inf"])
def test_build_rejects_non_finite_site(tmp_path, capsys, line):
    sites = tmp_path / "sites.txt"
    sites.write_text(f"0 0 1\n{line}\n")
    rc = main(["build", str(sites), "--t", "2", "--variant", "ratio",
               "--out", str(tmp_path / "h.txt")])
    assert rc == 2
    assert f"{sites}:2: site 1: coordinates and radius must be finite" \
        in capsys.readouterr().err


# two close sites plus four far ones whose normalized coordinates pass
# 2^52, where float64 no longer resolves level-0 cells
EXTREME_RANGE = ("0 0 1\n1 0 1\n1e18 0 300\n1000000000000000256 0 300\n"
                 "1000000000000000512 0 300\n1000000000000000512 256 300\n")


@pytest.mark.parametrize("variant", ["spread", "ratio", "general"])
def test_build_rejects_extreme_coordinate_range(tmp_path, capsys, variant):
    sites = tmp_path / "sites.txt"
    sites.write_text(EXTREME_RANGE)
    rc = main(["build", str(sites), "--t", "2", "--variant", variant,
               "--out", str(tmp_path / "h.txt")])
    assert rc == 2
    assert "coordinate range too large" in capsys.readouterr().err


def test_reach_rejects_extreme_coordinate_range(tmp_path, capsys):
    sites = tmp_path / "sites.txt"
    sites.write_text(EXTREME_RANGE)
    rc = main(["reach", str(sites), "--source", "0",
               "--target-x", "0", "--target-y", "0"])
    assert rc == 2
    assert "coordinate range too large" in capsys.readouterr().err


def test_build_large_spread_still_builds(tmp_path):
    sites = tmp_path / "sites.txt"
    sites.write_text("0 0 1\n1 0 1\n1e12 0 1\n")
    out = tmp_path / "h.txt"
    assert main(["build", str(sites), "--t", "2", "--out", str(out)]) == 0
    assert main(["verify", str(sites), str(out), "--variant", "spread"]) == 0


# ---------------------------------------------------------------------------
# queries

def test_bfs_subcommand_output(tmp_path, capsys):
    sites = _gen(tmp_path, n=40)
    out = tmp_path / "h.txt"
    assert main(["build", str(sites), "--t", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["bfs", str(sites), str(out), "--root", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 40
    first = lines[0].split()
    assert first == ["0", "0", "-"]
    for line in lines:
        site, dist, parent = line.split()
        assert site.isdigit()
        assert dist == "inf" or dist.isdigit()


def test_bfs_subcommand_bad_root(tmp_path):
    sites = _gen(tmp_path, n=20)
    out = tmp_path / "h.txt"
    assert main(["build", str(sites), "--t", "2", "--out", str(out)]) == 0
    assert main(["bfs", str(sites), str(out), "--root", "99"]) == 2


@pytest.mark.parametrize("spanner_n", [2, 5, 10 ** 15])
def test_bfs_rejects_spanner_of_other_site_count(tmp_path, capsys,
                                                 spanner_n):
    sites = tmp_path / "sites.txt"
    sites.write_text("0 0 1\n0.5 0 1\n1 0 1\n")
    spanner = tmp_path / "h.txt"
    spanner.write_text(f"{spanner_n} 1 2.0 101 68\n0 1 0.5\n")
    capsys.readouterr()
    assert main(["bfs", str(sites), str(spanner), "--root", "0"]) == 2
    err = capsys.readouterr().err
    assert f"spanner has {spanner_n} sites" in err
    assert "site list has 3" in err


def test_reach_subcommand_many_components(tmp_path, capsys):
    path = tmp_path / "sites.txt"
    path.write_text("".join(f"{10 * i} 0 1\n" for i in range(30))
                    + "5000 0 1\n5000.5 0 0.3\n")
    rc = main(["reach", str(path), "--source", "30",
               "--target-x", "5000.5", "--target-y", "0"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "true"


def test_reach_subcommand(tmp_path, capsys):
    sites_path = _gen(tmp_path, n=50)
    sites = load_sites(sites_path)
    capsys.readouterr()
    rc = main(["reach", str(sites_path), "--source", "0",
               "--target-x", repr(sites[0].x), "--target-y", repr(sites[0].y),
               "--explain"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("true")
    assert "cover set" in out
    rc = main(["reach", str(sites_path), "--source", "0",
               "--target-x", "500", "--target-y", "500"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "false"
    assert main(["reach", str(sites_path), "--source", "-1",
                 "--target-x", "0", "--target-y", "0"]) == 2


@pytest.mark.parametrize("bad_edge", ["-1 0 0.5", "0 20 0.5", "0 1 nan",
                                      "0 1 inf", "0 1 -0.5"])
def test_bfs_rejects_invalid_spanner_file(tmp_path, capsys, bad_edge):
    sites = _gen(tmp_path, n=20)
    spanner = tmp_path / "h.txt"
    spanner.write_text(f"20 2 2.0 101 68\n0 1 0.1\n{bad_edge}\n")
    capsys.readouterr()
    assert main(["bfs", str(sites), str(spanner), "--root", "0"]) == 2
    assert f"{spanner}:3:" in capsys.readouterr().err


@pytest.mark.parametrize("target_x", ["inf", "-inf", "nan"])
def test_reach_rejects_non_finite_target(tmp_path, capsys, target_x):
    sites = _gen(tmp_path, n=50)
    capsys.readouterr()
    rc = main(["reach", str(sites), "--source", "0",
               f"--target-x={target_x}", "--target-y", "0.5"])
    assert rc == 2
    assert "query point must be finite" in capsys.readouterr().err


def test_reach_far_target_is_false(tmp_path, capsys):
    sites = _gen(tmp_path, n=50)
    capsys.readouterr()
    rc = main(["reach", str(sites), "--source", "0",
               "--target-x", "1e18", "--target-y", "0.5", "--explain"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == ["cover set (0): ",
                                                    "false"]


def test_reach_subcommand_past_materialize_cap(tmp_path, capsys,
                                               monkeypatch):
    n = 2500
    assert n > oracle_mod.MATERIALIZE_CAP
    path = tmp_path / "sites.txt"
    assert main(["generate", "--n", str(n), "--radius-model", "pareto",
                 "--psi-cap", "16", "--seed", "117", "--out",
                 str(path)]) == 0
    sites = load_sites(path)
    rng = random.Random(118)
    queries = []
    for _ in range(8):
        q = sites[rng.randrange(n)]
        queries.append((rng.randrange(n), q.x + rng.uniform(-0.05, 0.05),
                        q.y + rng.uniform(-0.05, 0.05)))
        queries.append((rng.randrange(n), rng.uniform(-0.5, 1.5),
                        rng.uniform(-0.5, 1.5)))
    capsys.readouterr()
    got = []
    for s, x, y in queries:
        assert main(["reach", str(path), "--source", str(s),
                     "--target-x", repr(x), "--target-y", repr(y)]) == 0
        got.append(capsys.readouterr().out.strip() == "true")
    # the reference alone may exceed the cap
    monkeypatch.setattr(oracle_mod, "MATERIALIZE_CAP", n)
    g = oracle_mod.materialize(sites)
    want = [oracle_mod.geom_reach_oracle(sites, g, s, (x, y))
            for s, x, y in queries]
    assert got == want
    assert any(want) and not all(want)


# ---------------------------------------------------------------------------
# stats / inspect

def test_stats_fresh_build_and_csv(tmp_path, capsys):
    sites = _gen(tmp_path, n=50)
    csv = tmp_path / "stats.csv"
    rc = main(["stats", str(sites), "--t", "2", "--variant", "ratio",
               "--csv", str(csv)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "m/n" in out and "build-seconds" in out
    content = csv.read_text()
    assert content.startswith("n,50")


def test_stats_per_cone_indegree_histogram(tmp_path, capsys):
    sites = _gen(tmp_path, n=120, model="pareto", seed=11)
    csv = tmp_path / "stats.csv"
    assert main(["stats", str(sites), "--t", "2", "--variant", "ratio",
                 "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    hist = {int(key[len("indegree-"):]): int(val)
            for key, val in (line.split(",")
                             for line in csv.read_text().splitlines())
            if key.startswith("indegree-")}
    assert hist == {1: 3388, 2: 529, 3: 43}
    assert out.splitlines()[-3:] == ["     1  3388", "     2  529",
                                     "     3  43"]
    # every (edge, cone) pair adds one to the in-degree of (cone, target)
    H = build_spanner_radius_ratio(load_sites(sites), 2.0)
    assert sum(deg * count for deg, count in hist.items()) == \
        sum(len(cones) for cones in H.edge_cones.values()) == 4575


def test_stats_from_file_needs_no_t(tmp_path, capsys):
    sites = _gen(tmp_path, n=40)
    out = tmp_path / "h.txt"
    assert main(["build", str(sites), "--t", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["stats", str(sites), str(out)]) == 0
    assert main(["stats", str(sites)]) == 2  # fresh build without --t


def test_inspect_dump(tmp_path, capsys):
    sites = _gen(tmp_path, n=30)
    capsys.readouterr()
    rc = main(["inspect", str(sites), "--variant", "ratio"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines
    assert all(len(line.split()) == 6 for line in lines)
