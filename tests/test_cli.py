import hashlib
import json
import math
import re

import pytest

from cheegerlab import arc_geometry, cli, jsonio
from cheegerlab.arc_geometry import curve_to_dict, transform_curve
from cheegerlab.chamber_lemmas import chain_to_dict, random_chain
from cheegerlab.cheeger import (
    ArcDomain,
    ConvexPolygon,
    cheeger_convex,
    cheeger_domain,
    domain_to_dict,
    hexagon_constant,
    random_class_a_domain,
)
from cheegerlab.cli import render_svg, run
from cheegerlab.cluster import Cluster, cluster_to_dict
from cheegerlab.errors import ValidationError
from cheegerlab.partition_optimizer import asymptotic_report
from conftest import make_domino_cluster

PI = math.pi
SQUARE = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])


def write(path, obj):
    path.write_text(jsonio.dumps(obj))
    return str(path)


def read(path):
    return json.loads(path.read_text())


@pytest.fixture()
def square_file(tmp_path):
    return write(tmp_path / "square.json", {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]})


class TestCheegerCommand:
    def test_unit_square(self, tmp_path, square_file):
        out = tmp_path / "out.json"
        assert run(["cheeger", "--input", square_file, "--output", str(out)]) == 0
        data = read(out)
        assert data["schema"] == 1
        assert data["h"] == pytest.approx(2 + math.sqrt(PI), abs=1e-10)
        assert data["h"] == pytest.approx(3.7724539, abs=1e-6)

    def test_malformed_json_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": [[0,0],')
        out = tmp_path / "out.json"
        assert run(["cheeger", "--input", str(bad), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert re.search(r"line \d+, column \d+", err)

    def test_unknown_keys_rejected(self, tmp_path):
        path = write(tmp_path / "poly.json", {"vertices": [[0, 0], [1, 0], [0, 1]], "frobnicate": 1})
        assert run(["cheeger", "--input", path, "--output", str(tmp_path / "o.json")]) == 1

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "poly.json"
        path.write_text('{"schema": 9, "vertices": [[0,0],[1,0],[0,1]]}\n')
        assert run(["cheeger", "--input", str(path), "--output", str(tmp_path / "o.json")]) == 1


class TestJsonio:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_not_written(self, value):
        with pytest.raises(ValidationError):
            jsonio.dumps({"x": value})

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_token_rejected(self, token):
        with pytest.raises(ValidationError):
            jsonio.loads('{"x": %s}' % token)

    def test_integer_past_the_digit_limit_rejected(self):
        with pytest.raises(ValidationError, match="^malformed JSON: "):
            jsonio.loads('{"x": %s}' % ("1" * 5000))

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(ValidationError, match="^x must fit a float, got 401 integer digits$"):
            jsonio.number(10 ** 400, "x")
        assert jsonio.number(10 ** 300, "x") == 10 ** 300


class TestPipelines:
    def test_honeycomb_then_certificate(self, tmp_path):
        hc = tmp_path / "hc.json"
        cert = tmp_path / "cert.json"
        assert run(["honeycomb", "--l", "2", "--output", str(hc)]) == 0
        assert run(["certificate", "--input", str(hc), "--output", str(cert)]) == 0
        data = read(cert)
        assert data["scaled_objective"] / hexagon_constant() == pytest.approx(1.0, abs=1e-9)
        assert data["holds"] is True

    def test_structure_and_hales_on_emitted_result(self, tmp_path, square_file):
        res = tmp_path / "res.json"
        run(["cheeger", "--input", square_file, "--output", str(res)])
        data = read(res)
        domain = {"boundary": data["boundary"], "roles": data["roles"], "h": data["h"]}
        dom_file = write(tmp_path / "dom.json", domain)
        rep_file = tmp_path / "rep.json"
        assert run(["structure", "--input", dom_file, "--output", str(rep_file)]) == 0
        rep = read(rep_file)
        assert rep["is_class_A"] is True
        assert max(rep["representation_residuals"]) < 1e-10
        hal_file = tmp_path / "hales.json"
        assert run(["hales", "--input", dom_file, "--output", str(hal_file)]) == 0
        hal = read(hal_file)
        assert hal["satisfied"] is True
        assert hal["N"] == 4

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_hales_rejects_non_finite_r_star(self, tmp_path, capsys, value):
        dom_file = write(tmp_path / "dom.json", domain_to_dict(cheeger_domain(SQUARE)))
        assert run(["hales", "--input", dom_file, f"--r-star={value}", "--output", str(tmp_path / "h.json")]) == 1
        assert capsys.readouterr().err == f"error: r_star must be positive and finite, got {float(value)}\n"

    @pytest.mark.parametrize("value", ["1e-300", "1e-160", "1e200"])
    def test_hales_rejects_r_star_whose_square_is_not_normal(self, tmp_path, capsys, value):
        # pi*r_star^2 underflows to 0 at 1e-300, which ended in a
        # ZeroDivisionError traceback; it is subnormal at 1e-160 and inf at 1e200
        dom_file = write(tmp_path / "dom.json", domain_to_dict(cheeger_domain(SQUARE)))
        assert run(["hales", "--input", dom_file, f"--r-star={value}", "--output", str(tmp_path / "h.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: pi*r_star^2 = ") and err.count("\n") == 1
        assert err.endswith(f" for r_star = {float(value)} is not a positive, finite, normal float\n")

    def test_chain_report_and_sweep(self, tmp_path):
        chain = {
            "flavor": "closed",
            "centers": [[0, 0], [2, 0], [1, math.sqrt(3)]],
            "radii": [1, 1, 1],
            "lines": [],
        }
        cfile = write(tmp_path / "chain.json", chain)
        out = tmp_path / "rep.json"
        assert run(["chain", "--input", cfile, "--output", str(out)]) == 0
        rep = read(out)
        assert set(rep) == {"schema", "area", "bound", "holds", "method", "warnings"}
        assert rep["holds"] is True
        assert rep["area"] == pytest.approx(0.5 * (2 * math.sqrt(3) - PI), abs=1e-10)

        sweep = write(tmp_path / "sweep.json", {
            "sweep": {"flavors": ["closed", "sector"], "count": 12, "seed": 4},
        })
        swout = tmp_path / "sweep_out.jsonl"
        assert run(["chain", "--input", str(sweep), "--output", str(swout)]) == 0
        lines = swout.read_text().strip().split("\n")
        assert len(lines) == 24
        assert all(json.loads(line)["holds"] for line in lines)

    def test_optimize_config(self, tmp_path):
        cfg = write(tmp_path / "run.json", {
            "k": 1,
            "container": {"vertices": [[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]]},
            "budget": 40,
            "seed": 0,
            "restarts": 1,
        })
        out = tmp_path / "trace.jsonl"
        assert run(["optimize", "--config", cfg, "--output", str(out)]) == 0
        trace = json.loads(out.read_text().strip())
        area = math.sqrt(3) / 4
        expected = math.sqrt(PI / area) + 1.0 / (1.0 / (2.0 * math.sqrt(3)))
        assert trace["best_objective"] == pytest.approx(expected, rel=1e-6)

    def test_optimize_ks_rows(self, tmp_path):
        # a ks config writes one line per asymptotic_report row, in the order of ks
        triangle = [[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]]
        runs = {"budget": 20, "seed": 0, "restarts": 0}
        cfg = write(tmp_path / "run.json", {"ks": [1, 4], "container": {"vertices": triangle}, **runs})
        out = tmp_path / "rows.jsonl"
        assert run(["optimize", "--config", cfg, "--output", str(out)]) == 0
        rows = [jsonio.loads(line) for line in out.read_text().strip().split("\n")]
        want = asymptotic_report([1, 4], ConvexPolygon(triangle), **runs)
        assert rows == [{"k": w.k, "best_objective": w.best_objective, "scaled": w.scaled,
                         "ratio": w.ratio} for w in want]

    def test_optimize_unknown_key_rejected(self, tmp_path):
        cfg = write(tmp_path / "run.json", {
            "k": 1,
            "container": {"vertices": [[0, 0], [1, 0], [0.5, 0.9]]},
            "budget": 10,
            "seed": 0,
            "bogus": True,
        })
        assert run(["optimize", "--config", cfg, "--output", str(tmp_path / "t.jsonl")]) == 1


class TestConfigTypes:
    """Config values of the wrong JSON type exit 1 instead of being coerced."""

    TRIANGLE = {"vertices": [[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]]}

    @pytest.mark.parametrize("key, value", [
        ("k", True), ("budget", 20.9), ("seed", "3"), ("restarts", 1.5), ("seed", -1),
        ("restarts", -3),
    ])
    def test_optimize_value_rejected(self, tmp_path, key, value):
        config = {"container": self.TRIANGLE, "k": 1, "budget": 20, "seed": 0, "restarts": 1}
        cfg = write(tmp_path / "run.json", {**config, key: value})
        assert run(["optimize", "--config", cfg, "--output", str(tmp_path / "t.jsonl")]) == 1

    @pytest.mark.parametrize("ks", [4, [1, 2.0], ["1"]])
    def test_optimize_ks_rejected(self, tmp_path, ks):
        config = {"container": self.TRIANGLE, "ks": ks, "budget": 20, "seed": 0}
        cfg = write(tmp_path / "run.json", config)
        assert run(["optimize", "--config", cfg, "--output", str(tmp_path / "t.jsonl")]) == 1

    @pytest.mark.parametrize("key, value", [
        ("flavors", "closed"), ("flavors", [1]), ("count", 2.0), ("seed", True),
        ("seed", -1), ("m_values", [3.9]), ("m_values", "34"), ("m_values", []),
        ("count", -5),
    ])
    def test_chain_sweep_value_rejected(self, tmp_path, key, value):
        sweep = {"flavors": ["closed"], "count": 2, "seed": 0}
        path = write(tmp_path / "sweep.json", {"sweep": {**sweep, key: value}})
        assert run(["chain", "--input", path, "--output", str(tmp_path / "o.jsonl")]) == 1

    def test_chain_sweep_small_m_rejected_at_count_zero(self, tmp_path, capsys):
        sweep = {"flavors": ["closed"], "count": 0, "seed": 0, "m_values": [1]}
        path = write(tmp_path / "sweep.json", {"sweep": sweep})
        out = tmp_path / "o.jsonl"
        assert run(["chain", "--input", path, "--output", str(out)]) == 1
        assert "m_values entries must be integers >= 3, got 1" in capsys.readouterr().err
        assert not out.exists()

    def test_chain_sweep_not_an_object(self, tmp_path):
        path = write(tmp_path / "sweep.json", {"sweep": 5})
        assert run(["chain", "--input", path, "--output", str(tmp_path / "o.jsonl")]) == 1

    @pytest.mark.parametrize("coords", [
        "[[0.5,0],[1,0]]", "[[true,0],[0,0]]", '[["0",0]]', "[[NaN,0]]", "[[0,0,5]]",
        "[[1e400,0]]",
    ])
    def test_honeycomb_coords_rejected(self, tmp_path, coords):
        out = tmp_path / "hc.json"
        assert run(["honeycomb", "--coords", coords, "--output", str(out)]) == 1
        assert not out.exists()

    def test_honeycomb_coords_accepted(self, tmp_path):
        out = tmp_path / "hc.json"
        assert run(["honeycomb", "--coords", "[[0,0],[1,0]]", "--output", str(out)]) == 0
        assert len(read(out)["cells"]) == 2


class TestRender:
    def test_unit_circle_single_path_two_arc_commands(self, tmp_path):
        circle = {
            "closed": True,
            "edges": [{"kind": "arc", "cx": 0, "cy": 0, "r": 1, "a0": 0, "sweep": 2 * PI}],
        }
        cfile = write(tmp_path / "circle.json", circle)
        out = tmp_path / "circle.svg"
        assert run(["render", "--input", cfile, "--output", str(out)]) == 0
        svg = out.read_text()
        assert svg.count("<path") == 1
        assert len(re.findall(r"A ", svg)) == 2

    def test_endpoint_angle_arc_rejected(self, tmp_path, capsys):
        circle = {
            "closed": True,
            "edges": [{"kind": "arc", "cx": 0, "cy": 0, "r": 1, "a0": 0, "a1": 2 * PI, "turn": 1}],
        }
        cfile = write(tmp_path / "circle.json", circle)
        assert run(["render", "--input", cfile, "--output", str(tmp_path / "c.svg")]) == 1
        assert capsys.readouterr().err == "error: missing keys: sweep; unknown keys: a1, turn\n"

    def test_honeycomb_outline_counts(self, tmp_path):
        hc = tmp_path / "hc.json"
        run(["honeycomb", "--l", "3", "--output", str(hc)])
        out = tmp_path / "hc.svg"
        assert run(["render", "--input", str(hc), "--output", str(out)]) == 0
        svg = out.read_text()
        # 6 cell outlines plus the container outline
        assert svg.count("<path") == 7

    def test_drawing_command_count_equals_edge_count(self, tmp_path, square_file):
        res = tmp_path / "res.json"
        run(["cheeger", "--input", square_file, "--output", str(res)])
        data = read(res)
        curve_file = write(tmp_path / "curve.json", data["boundary"])
        out = tmp_path / "curve.svg"
        assert run(["render", "--input", str(curve_file), "--output", str(out)]) == 0
        svg = out.read_text()
        commands = len(re.findall(r"[LA] ", svg))
        assert commands == len(data["boundary"]["edges"])  # no full-circle edges here

    def test_chain_render_counts(self, tmp_path):
        chain = {
            "flavor": "closed",
            "centers": [[0, 0], [2, 0], [1, math.sqrt(3)]],
            "radii": [1, 1, 1],
            "lines": [],
        }
        cfile = write(tmp_path / "chain.json", chain)
        out = tmp_path / "chain.svg"
        assert run(["render", "--input", cfile, "--output", str(out)]) == 0
        svg = out.read_text()
        assert svg.count("<circle") == 3
        assert svg.count("<path") == 1  # shaded pocket overlay

    def test_sector_chain_view_box(self):
        # the view box holds the sector's apex and every circle, in SVG's
        # coordinates, where y points down
        for i in range(5):
            chain = random_chain("sector", 3 + i % 3, seed=[5, i])
            svg = render_svg(chain_to_dict(chain))
            x, y, w, h = map(float, re.search(r'viewBox="(\S+) (\S+) (\S+) (\S+)"', svg).groups())
            boxes = [(0.0, 0.0, 0.0, 0.0)] + [(cx - r, cy - r, cx + r, cy + r)
                                               for (cx, cy), r in zip(chain.centers, chain.radii)]
            for x0, y0, x1, y1 in boxes:
                assert x <= x0 and x1 <= x + w and y <= -y1 and -y0 <= y + h, i

    def test_paths_are_written_from_rows(self, monkeypatch):
        # reading a domain checks its boundary's rows once; drawing its path
        # reads the rows and checks nothing again
        d = random_class_a_domain(3)
        obj = domain_to_dict(d)
        checked = []
        check = arc_geometry._check_rows

        def counting(rows, closed):
            checked.append(len(rows))
            return check(rows, closed)

        monkeypatch.setattr(arc_geometry, "_check_rows", counting)
        assert cli._curve_path(d.boundary).startswith("M ")
        assert checked == []
        render_svg(obj)
        assert checked == [len(d.boundary.rows)]

    # sha256 of the SVG bytes.  The view box comes from ArcCurve.bbox: the
    # container's for a cluster, the curve's own (arcs counting their whole
    # circles) for a curve.  The stroke widths are fractions of the view box.
    RENDER_PINS = {
        "domino": "d1688d649606cf3bd9c9a652d263a330be3e3f860ff37c73b82ca4a08e643f0b",
        "cheeger_square": "5f0aeb58063ef7024e8217b66291ce40d48b3945eee5a7e79964290824c5aa37",
    }

    @pytest.mark.parametrize("name", sorted(RENDER_PINS))
    def test_render_bytes_pinned(self, tmp_path, name):
        obj = (cluster_to_dict(make_domino_cluster()) if name == "domino"
               else curve_to_dict(cheeger_convex(SQUARE).cheeger_set_boundary))
        out = tmp_path / f"{name}.svg"
        assert run(["render", "--input", write(tmp_path / f"{name}.json", obj),
                    "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.RENDER_PINS[name]

    def test_stroke_widths_follow_the_view_box(self):
        # each stroke is a fixed fraction of the view box, and the view box is
        # the drawing's box grown by 5 % a side, so a dilated domino neither
        # vanishes under its strokes nor shrinks inside its view box
        ratios = []
        for lam in (1e-12, 1e-4, 1.0, 1e4):
            cl = make_domino_cluster()
            cells = tuple(ArcDomain(transform_curve(c.boundary, scale=lam), c.roles, c.h / lam)
                          for c in cl.cells)
            svg = render_svg(cluster_to_dict(Cluster(
                ConvexPolygon(cl.container.vertices * lam), cells)))
            width = float(re.search(r'viewBox="\S+ \S+ (\S+) \S+"', svg).group(1))
            assert width == pytest.approx(2.2 * lam, rel=1e-12)
            strokes = [float(w) for w in re.findall(r'stroke-width="([^"]+)"', svg)]
            assert len(strokes) == 3  # the container and two cells
            ratios.append([w / width for w in strokes])
        for other in ratios[:2] + ratios[3:]:
            assert other == pytest.approx(ratios[2], rel=1e-12)

    def test_unknown_kind_exit_1(self, tmp_path):
        bad = write(tmp_path / "x.json", {"species": "octahedron"})
        assert run(["render", "--input", bad, "--output", str(tmp_path / "x.svg")]) == 1


class TestDeterminism:
    def test_byte_identical_artifacts(self, tmp_path, square_file):
        outs = []
        for name in ("a", "b"):
            res = tmp_path / f"res_{name}.json"
            hc = tmp_path / f"hc_{name}.json"
            svg = tmp_path / f"hc_{name}.svg"
            assert run(["cheeger", "--input", square_file, "--output", str(res)]) == 0
            assert run(["honeycomb", "--l", "2", "--output", str(hc)]) == 0
            assert run(["render", "--input", str(hc), "--output", str(svg)]) == 0
            outs.append((res.read_bytes(), hc.read_bytes(), svg.read_bytes()))
        assert outs[0] == outs[1]

    def test_chain_sweep_artifact_pinned(self, tmp_path):
        # criterion 8's sweep; the digest pins the exact area path's output bytes
        sweep = write(tmp_path / "sweep.json", {
            "sweep": {"flavors": ["closed"], "count": 20, "seed": 11},
        })
        out = tmp_path / "sweep.jsonl"
        assert run(["chain", "--input", sweep, "--output", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "9f162e2ed6fac198603af0c7f84a82c2b8da66dcda713db99ee512d408c23291"

    def test_round_trip_cluster_json(self, tmp_path):
        cl = make_domino_cluster()
        cfile = write(tmp_path / "cluster.json", cluster_to_dict(cl))
        cert = tmp_path / "cert.json"
        assert run(["certificate", "--input", cfile, "--output", str(cert)]) == 0
        assert read(cert)["applicable"] is True
        svg = tmp_path / "cluster.svg"
        assert run(["render", "--input", cfile, "--output", str(svg)]) == 0


# One artifact per reading subcommand, with the keys that may be left out at
# any level.
_TRIANGLE = {"vertices": [[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]]}
_ARTIFACTS = {
    "cheeger": ({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}, ()),
    "structure": (domain_to_dict(cheeger_domain(SQUARE)), ()),
    "hales": (domain_to_dict(cheeger_domain(SQUARE)), ()),
    "certificate": (cluster_to_dict(make_domino_cluster()), ("container_area",)),
    "chain": (chain_to_dict(random_chain("half_plane", 3, seed=0)), ("lines",)),
    "chain-sweep": ({"sweep": {"flavors": ["closed"], "count": 1, "seed": 0}}, ("m_values",)),
    "optimize": ({"k": 1, "container": _TRIANGLE, "budget": 3, "seed": 0, "restarts": 0},
                 ("k", "ks", "restarts")),
}
_JUNK = (None, True, 1.5, "s", [], {})

#: keys that cluster files carried, with the domino's values, before the
#: canonical graph was read off the cells; no reader knows them now
_RETIRED_CLUSTER_KEYS = {"claimed_optimal": False, "adjacency": [[0, 1, 2, 6]],
                         "border_contacts": [[0, 0], [1, 0]]}


def _kind(value) -> str:
    """The JSON type of a value, integers and floats both being numbers."""
    if isinstance(value, bool):
        return "bool"
    return "number" if isinstance(value, (int, float)) else type(value).__name__


def _object_mutations(label, obj, optional, rebuild):
    """Each key deleted, an unknown key added, each value replaced by junk:
    (label, artifact, whether it must exit 1).  An optional key may be null."""
    for key, value in obj.items():
        rest = {k: v for k, v in obj.items() if k != key}
        yield f"{label}-{key}", rebuild(rest), key not in optional
        for junk in _JUNK:
            typo = _kind(junk) != _kind(value) and not (junk is None and key in optional)
            yield f"{label}.{key}={junk!r}", rebuild({**obj, key: junk}), typo
    yield f"{label}+bogus", rebuild({**obj, "bogus": 1}), True


def _mutations(obj, optional):
    """Mutations at the top level and one level down: in each nested object,
    and in the first entry of each list."""
    yield from _object_mutations("", obj, optional, lambda d: d)
    for key, value in obj.items():
        def put(v, key=key):
            return {**obj, key: v}
        first = value[0] if isinstance(value, list) and value else None
        if isinstance(value, dict):
            yield from _object_mutations(key, value, optional, put)
        elif isinstance(first, dict):
            yield from _object_mutations(f"{key}[0]", first, optional,
                                         lambda d, put=put, value=value: put([d] + value[1:]))
        elif first is not None:
            for junk in _JUNK:
                yield (f"{key}[0]={junk!r}", put([junk] + value[1:]),
                       _kind(junk) != _kind(first))


def _retired_key_mutations(obj, retired):
    """A retired key left out is valid; carried with any junk value, or as a
    list whose first entry is junk, it is an unknown key and exits 1."""
    for key, value in retired.items():
        yield f"-{key}", obj, False
        for junk in _JUNK:
            yield f".{key}={junk!r}", {**obj, key: junk}, True
        for junk in _JUNK if isinstance(value, list) else ():
            yield f"{key}[0]={junk!r}", {**obj, key: [junk] + value[1:]}, True


_CASES = [(command, label, artifact, must_fail)
          for command, (obj, optional) in _ARTIFACTS.items()
          for label, artifact, must_fail in _mutations(obj, optional)]
_CASES += [("certificate", label, artifact, must_fail) for label, artifact, must_fail
           in _retired_key_mutations(_ARTIFACTS["certificate"][0], _RETIRED_CLUSTER_KEYS)]


def _run(tmp_path, command, artifact) -> int:
    path = write(tmp_path / "in.json", artifact)
    flag = "--config" if command == "optimize" else "--input"
    return run([command.split("-")[0], flag, path, "--output", str(tmp_path / "out.json")])


class TestMalformedArtifacts:
    """Every reader checks its keys and value types, nested objects too."""

    @pytest.mark.parametrize("command, obj", [(c, o) for c, (o, _) in _ARTIFACTS.items()])
    def test_artifact_is_valid(self, tmp_path, command, obj):
        assert _run(tmp_path, command, obj) == 0

    @pytest.mark.parametrize("command, label, artifact, must_fail", _CASES,
                             ids=[f"{c}:{label}" for c, label, _, _ in _CASES])
    def test_mutation(self, tmp_path, capsys, command, label, artifact, must_fail):
        # a raised exception would be a traceback: run() returns for every input
        code = _run(tmp_path, command, artifact)
        if must_fail:
            assert code == 1
            assert capsys.readouterr().err.startswith("error: ")
        else:
            assert code in (0, 1, 2)

    @pytest.mark.parametrize("command, change", [
        ("certificate", lambda d: d["cells"][0].update(bogus=1)),
        ("certificate", lambda d: d["container"].update(bogus=1)),
        ("certificate", lambda d: d.update(adjacency={})),
        ("optimize", lambda d: d.update(container={**_TRIANGLE, "bogus": 1})),
        ("chain", lambda d: d.update(lines=None)),
        ("chain", lambda d: d.update(lines=1)),
        ("chain", lambda d: d.update(lines="s")),
        ("chain", lambda d: d.update(lines=[[1, 2, 3]])),
        ("chain", lambda d: d.update(centers=[c + [0.0] for c in d["centers"]])),
        ("chain", lambda d: d.update(centers=[c[:1] for c in d["centers"]])),
    ], ids=["cell-unknown-key", "container-unknown-key", "adjacency-object",
            "optimize-container-unknown-key", "lines-null", "lines-number", "lines-string",
            "lines-integer-rows", "centers-3-columns", "centers-1-column"])
    def test_formerly_accepted_inputs_exit_1(self, tmp_path, command, change):
        obj = json.loads(json.dumps(_ARTIFACTS[command][0]))
        change(obj)
        assert _run(tmp_path, command, obj) == 1

    @pytest.mark.parametrize("change, message", [
        (lambda d: d.update(adjacency=[[0, 1, 99, 6]]), "unknown keys: adjacency"),
        (lambda d: d.update(adjacency=[[0, 1, -1, 6]]), "unknown keys: adjacency"),
        (lambda d: d.update(adjacency=[[0, 1, 2, 8]]), "unknown keys: adjacency"),
        (lambda d: d.update(border_contacts=[[0, -1], [1, 0]]), "unknown keys: border_contacts"),
        (lambda d: d.update(border_contacts=[[0, 9], [1, 0]]), "unknown keys: border_contacts"),
        (lambda d: d.update(border_contacts=[[0, 0], [1, 1]]), "unknown keys: border_contacts"),
        (lambda d: d.update(container_area=-2.0), "container area must be finite and positive, got -2.0"),
        (lambda d: d.update(container_area=0.0), "container area must be finite and positive, got 0.0"),
    ], ids=["edge-past-end", "edge-negative", "edge-b-past-end", "run-negative", "run-past-end",
            "run-b-past-end", "area-negative", "area-zero"])
    def test_cluster_index_out_of_range(self, tmp_path, capsys, change, message):
        # these escaped as an IndexError or a math domain error, or exited 0;
        # adjacency and border contacts are read off the cells now, so a file
        # that still carries them, in range or not, names them as unknown keys
        obj = json.loads(json.dumps(_ARTIFACTS["certificate"][0]))
        change(obj)
        assert _run(tmp_path, "certificate", obj) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_old_cluster_files_exit_1(self, tmp_path, capsys):
        # a cluster file in the earlier form, with its hand-written canonical
        # graph and claimed_optimal, names those keys as unknown
        obj = {**_ARTIFACTS["certificate"][0], **_RETIRED_CLUSTER_KEYS}
        assert _run(tmp_path, "certificate", obj) == 1
        assert capsys.readouterr().err == "error: unknown keys: claimed_optimal, adjacency, border_contacts\n"

    def test_lines_of_another_flavor_rejected(self, tmp_path, capsys):
        obj = dict(_ARTIFACTS["chain"][0], lines=[])
        assert _run(tmp_path, "chain", obj) == 1
        assert capsys.readouterr().err == "error: lines [] are not those of a half_plane chain\n"
