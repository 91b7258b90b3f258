"""The benchmark's workloads: what each writes during set-up, the torpers CLI
calls of one pass, and the checks every pass's outputs must meet.

A workload's `prepare(seed, outdir)` writes its input files and returns
a Plan.  `reference(plan, invoke)` runs untimed calls the checks compare
against (if any).  `check(plan, outputs)` takes one pass's outputs, a list of
(rc, stdout) in call order, and returns one list of problems per call; a call
with any problem counts as failed.
"""

import collections
import json
import os

import inputs

STRETCH = 4
# The bundled fixtures with the field the README runs each one over.
FIXTURE_FIELDS = {"circle_fig": 5, "circle_oneatatime": 3, "sphere": 2}
CENSUS_SHAPES = [
    # GF(5) four lines: two generators at the origin, four relation lines.
    {
        "field": 5,
        "xi0": [[[0, 0], 2]],
        "xi1": [[[0, 3], 1], [[1, 2], 1], [[2, 1], 1], [[3, 0], 1]],
        "families": 1296,
        "orbits": 17,
    },
    # GF(3) mixed generator degrees.
    {
        "field": 3,
        "xi0": [[[0, 1], 1], [[1, 0], 2]],
        "xi1": [[[1, 1], 1], [[1, 2], 1], [[2, 0], 1]],
        "families": 208,
        "orbits": 13,
    },
]


class Call:
    def __init__(self, argv, **expect):
        self.argv = list(argv)
        self.command = argv[0]
        self.expect = expect  # what check() needs to know about this call


class Plan:
    def __init__(self, calls, sizes, files):
        self.calls = calls
        self.sizes = sizes
        self.files = files  # relative path -> text written during set-up
        self.reference = {}


def _write(outdir, name, text):
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _ms(pairs, f=1):
    """A JSON multiset ([[degree, mult], ...]) as a sorted tuple, with every
    degree scaled by f."""
    return tuple(sorted((tuple(f * c for c in d), m) for d, m in pairs))


def _graded(table, f=1):
    """[[index, multiset], ...] as {index: sorted multiset, scaled by f}."""
    return {k: _ms(pairs, f) for k, pairs in table}


def _parse(rc, out):
    """The report of one call, or the problem that makes it unusable."""
    if rc != 0:
        return None, "exit code %r" % (rc,)
    try:
        return json.loads(out), None
    except ValueError as e:
        return None, "stdout is not JSON: %s" % e


def _e1_matches_hypertor(reports, calls):
    """Problems for each e1 call whose hypertor table differs from the
    hypertor call on the same input."""
    tables = {
        c.argv[c.argv.index("--input") + 1]: r["hypertor"]
        for c, r in zip(calls, reports)
        if c.command == "hypertor" and r is not None
    }
    problems = {}
    for k, (c, r) in enumerate(zip(calls, reports)):
        if c.command == "e1" and r is not None:
            path = c.argv[c.argv.index("--input") + 1]
            if r["hypertor"] != tables.get(path):
                problems[k] = "e1 hypertor table differs from the hypertor call"
    return problems


def _generic(calls, outputs):
    """Parse every output; returns (reports, problems per call)."""
    reports, problems = [], []
    for rc, out in outputs:
        rep, why = _parse(rc, out)
        reports.append(rep)
        problems.append([why] if why else [])
    for k, why in _e1_matches_hypertor(reports, calls).items():
        problems[k].append(why)
    return reports, problems


# -- rips ----------------------------------------------------------------------


class Rips:
    name = "rips"
    why = (
        "seeded ring Rips complexes over GF(3): few grid points, large "
        "boundary matrices, so exactla elimination and homology_module dominate"
    )
    field = 3
    # Complexes per pass.  Their costs differ from seed to seed; a pass over
    # several keeps the seed-to-seed spread of run_s inside its bound.
    complexes = 3

    def prepare(self, seed, outdir):
        calls, files, sizes = [], {}, []
        for k in range(self.complexes):
            text, info = inputs.ring_rips(seed * self.complexes + k)
            path = _write(outdir, "rips%d.mfc" % k, text)
            files[path] = text
            common = ["--input", path, "--field", str(self.field)]
            xi0 = _ms(collections.Counter(info["vertex_degrees"]).items())
            calls += [
                Call(["validate"] + common, cells=sum(info["cells"])),
                Call(["xi"] + common + ["--q", "0"], xi0=xi0),
                Call(["xi"] + common + ["--q", "1"]),
                Call(["hypertor"] + common),
                Call(["e1"] + common),
                Call(["d2"] + common + ["--q", "0"]),
            ]
            sizes.append(
                {
                    "cells": sum(info["cells"]),
                    "cells_by_dim": info["cells"],
                    "grid_bound": info["bound"],
                }
            )
        return Plan(calls, sizes, files)

    def reference(self, plan, invoke):
        pass

    def check(self, plan, outputs):
        reports, problems = _generic(plan.calls, outputs)
        for call, rep, probs in zip(plan.calls, reports, problems):
            if rep is None:
                continue
            if call.command == "validate":
                if not rep.get("ok") or rep.get("cells") != call.expect["cells"]:
                    probs.append("validate does not report the generated cells")
            elif call.command == "xi":
                xi = _graded(rep["xi"])
                if "xi0" in call.expect and xi.get(0) != call.expect["xi0"]:
                    probs.append("xi_0(H_0) is not the vertex entry degrees")
                if "xi0" not in call.expect and not xi.get(0):
                    probs.append("H_1 has no generators; the ring did not close")
        return problems


# -- stretch -------------------------------------------------------------------


class Stretch:
    name = "stretch"
    why = (
        "the three bundled fixtures with every degree times 4: tiny complexes "
        "on a mostly empty grid, so per-grid-point overhead dominates"
    )

    def prepare(self, seed, outdir):
        calls, files, sizes = [], {}, {}
        for stem, field in FIXTURE_FIELDS.items():
            fixture = os.path.join("fixtures", stem + ".mfc")
            with open(fixture) as fh:
                text = inputs.stretch_mfc(fh.read(), STRETCH)
            path = _write(outdir, stem + ".mfc", text)
            files[path] = text
            sizes[stem] = inputs.mfc_sizes(text)
            tails = [[], ["--q", "0"], ["--q", "1"]]
            commands = [("validate", 0), ("xi", 1), ("xi", 2), ("resolve", 1)]
            commands += [("hypertor", 0), ("e1", 0), ("d2", 1)]
            if stem == "circle_oneatatime":
                commands.append(("recover", 0))
            for cmd, tail in commands:
                argv = [cmd, "--input", path, "--field", str(field)] + tails[tail]
                ref = [cmd, "--input", fixture, "--field", str(field)] + tails[tail]
                calls.append(Call(argv, reference=ref))
        return Plan(calls, sizes, files)

    def reference(self, plan, invoke):
        """Reports of the same calls on the unstretched fixtures."""
        for call in plan.calls:
            rc, out = invoke(call.expect["reference"])
            rep, why = _parse(rc, out)
            if why:
                raise RuntimeError(
                    "reference call %s failed: %s" % (call.expect["reference"], why)
                )
            plan.reference[tuple(call.argv)] = rep

    def check(self, plan, outputs):
        reports, problems = _generic(plan.calls, outputs)
        f = STRETCH
        for call, rep, probs in zip(plan.calls, reports, problems):
            ref = plan.reference[tuple(call.argv)]
            if rep is None:
                continue
            cmd = call.command
            if cmd == "validate":
                same = rep["ok"] and rep["cells"] == ref["cells"]
                if not same or rep["bound"] != [f * b for b in ref["bound"]]:
                    probs.append("validate differs from the fixture scaled by 4")
            elif cmd == "xi":
                if _graded(rep["xi"]) != _graded(ref["xi"], f):
                    probs.append("xi differs from the fixture's scaled by 4")
            elif cmd == "resolve":
                if _graded(rep["betti"]) != _graded(ref["betti"], f):
                    probs.append("Betti table differs from the fixture's scaled by 4")
            elif cmd in ("hypertor", "e1"):
                if _graded(rep["hypertor"]) != _graded(ref["hypertor"], f):
                    probs.append("hypertor differs from the fixture's scaled by 4")
            elif cmd == "d2":
                if _ms(rep["source"]) != _ms(ref["source"], f) or _ms(
                    rep["target"]
                ) != _ms(ref["target"], f):
                    probs.append("d2 source/target differ from the fixture's x4")
            elif cmd == "recover":
                if rep["match"] is not True or rep["betti"] != ref["betti"]:
                    probs.append("recover does not match the direct Betti numbers")
        return problems


# -- census --------------------------------------------------------------------


class Census:
    name = "census"
    why = (
        "orbit censuses over GF(5) and GF(3): about 1,700 tiny modules, so "
        "orbit BFS, free modules and tor.xi on small matrices dominate"
    )

    def prepare(self, seed, outdir):
        calls = []
        for shape in CENSUS_SHAPES:
            argv = [
                "orbits",
                "--xi0",
                json.dumps(shape["xi0"]),
                "--xi1",
                json.dumps(shape["xi1"]),
                "--field",
                str(shape["field"]),
            ]
            calls.append(
                Call(argv, families=shape["families"], orbits=shape["orbits"])
            )
        sizes = {
            "GF(%d)" % s["field"]: {"families": s["families"], "orbits": s["orbits"]}
            for s in CENSUS_SHAPES
        }
        return Plan(calls, sizes, {})

    def reference(self, plan, invoke):
        pass

    def check(self, plan, outputs):
        reports, problems = _generic(plan.calls, outputs)
        for call, rep, probs in zip(plan.calls, reports, problems):
            if rep is None:
                continue
            want = (call.expect["families"], call.expect["orbits"])
            if (rep["family_count"], rep["orbit_count"]) != want:
                probs.append(
                    "census gives %d families, %d orbits; expected %d, %d"
                    % ((rep["family_count"], rep["orbit_count"]) + want)
                )
        return problems


WORKLOADS = {w.name: w for w in (Rips(), Stretch(), Census())}
