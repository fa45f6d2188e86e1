"""The benchmark's traced probes still see the denotation they time.

``bench/workloads.py`` wraps ewire functions by name where their callers
look them up and reads their positional arguments.  A refactor that
renames, stops calling or changes the arguments of a probed function
silently breaks ``bench/run.py --trace 1``; this test fails instead.  It
only reads ``bench/`` (the repository root is on ``sys.path`` through
the pytest settings in ``pyproject.toml``).
"""

import importlib

import ewire.cli
import ewire.denote
from ewire import algebra
from ewire.denote import Evaluator

from bench import workloads
from bench.tracing import NAME, Tracer


def test_probes_record_denotation_and_uninstall_cleanly():
    # the package rebinds ewire.normalize to the function of that name
    normalize = importlib.import_module("ewire.normalize")
    owners = [workloads, ewire.cli, ewire.denote, normalize, Evaluator]
    before = [dict(vars(o)) for o in owners]
    old_cap = algebra.max_dim()
    tr = Tracer()
    workloads.install_probes(tr)
    try:
        assert ewire.denote.compose_tensored is not before[2]["compose_tensored"]
        workloads.Qft(0).run(2)
    finally:
        tr.uninstall()
        algebra.set_max_dim(old_cap)
    for owner, attrs in zip(owners, before):
        after = vars(owner)
        assert after.keys() == attrs.keys(), owner
        assert all(after[k] is v for k, v in attrs.items()), owner
    spans = {s[NAME] for s in tr.spans}
    assert {"algebra.compose_tensored", "algebra.copower_stack",
            "algebra.factor_permutation", "denote.denote_circuit"} <= spans
    counts = tr.counts[None]
    assert counts["denote.lift_branches"] > 0
    assert counts["algebra.compose_tensored.macs"] > 0


def test_probes_run_on_the_command_line_and_uninstall_cleanly(monkeypatch):
    # the ewire.cli probes are run, not only looked up: one command that
    # elaborates the sugar for the rewriter and one that does not; the
    # mix names its files from the repository root
    monkeypatch.chdir(workloads.ROOT)
    normalize = importlib.import_module("ewire.normalize")
    owners = [workloads, ewire.cli, ewire.denote, normalize, Evaluator]
    before = [dict(vars(o)) for o in owners]
    old_cap = algebra.max_dim()
    cli = workloads.Cli(0, {})
    ops = [i for i, (argv, _) in cli.mix.items()
           if argv in (["normalize", "programs/teleport.ew", "--entry", "teleport", "--trace"],
                       ["run", "programs/flip.ew", "--json"])]
    assert len(ops) == 2
    tr = Tracer()
    workloads.install_probes(tr)
    try:
        results = [cli.run_inprocess(i) for i in ops]
    finally:
        tr.uninstall()
        algebra.set_max_dim(old_cap)
    for owner, attrs in zip(owners, before):
        after = vars(owner)
        assert after.keys() == attrs.keys(), owner
        assert all(after[k] is v for k, v in attrs.items()), owner
    for i, result in zip(ops, results):
        assert cli.check(i, cli.summarize(i, result)[1]) is None, cli.mix[i][0]
    spans = [s[NAME] for s in tr.spans]
    assert spans.count("typecheck.check_program") == 2
    assert spans.count("typecheck.elaborate_sugar") == 1
    assert {"cli.main", "normalize.normalize", "denote.evaluate_program"} <= set(spans)


def test_traced_denotation_equals_untraced():
    # the probes read out.matrix after every step, so the traced run
    # builds every map densely while the untraced run keeps row views
    old_cap = algebra.max_dim()
    try:
        untraced = workloads.Qft(0).run(3).matrix.tobytes()
        tr = Tracer()
        workloads.install_probes(tr)
        try:
            traced = workloads.Qft(0).run(3).matrix.tobytes()
        finally:
            tr.uninstall()
    finally:
        algebra.set_max_dim(old_cap)
    assert tr.counts[None]["algebra.bytes_materialised"] > 0
    assert traced == untraced


def test_probes_count_every_unfolding_and_box_of_compiled_code(monkeypatch, capsys):
    # compiled code still enters through the two Evaluator methods the
    # probes wrap: Hs (-1) at fuel 50 unfolds 50 times, and its boxes,
    # the qrun's and the literal box make 53 denotations
    monkeypatch.chdir(workloads.ROOT)
    old_cap = algebra.max_dim()
    tr = Tracer()
    workloads.install_probes(tr)
    try:
        code = ewire.cli.main(["run", "programs/hs.ew", "--mode", "cpsu", "--fuel", "50",
                               "--json"])
    finally:
        tr.uninstall()
        algebra.set_max_dim(old_cap)
    assert code == 0 and capsys.readouterr().err == ""
    assert tr.counts[None]["denote.fuel_used"] == 50
    assert [s[NAME] for s in tr.spans].count("denote.denote_circuit") == 53


def test_a_second_evaluation_calls_algebra_through_the_module(monkeypatch):
    # after a first evaluation has compiled the program, counting spies
    # rebound in ewire.denote still see every call of the second
    from pathlib import Path

    from ewire.denote import Mode, evaluate_program
    from ewire.parser import parse_program
    from ewire.qlist import monomorphize
    from ewire.typecheck import check_program

    text = (Path(workloads.ROOT) / "programs" / "qft.ew").read_text()
    mono, entry = monomorphize(parse_program(text), 3, "fourier")
    checked = check_program(mono)
    first = evaluate_program(checked, mode=Mode.cpsu())[2][entry].op.matrix.tobytes()
    calls = {}
    for name in ("compose_tensored", "copower_stack", "op_zero", "gate_denotation"):
        def spy(*args, fn=getattr(ewire.denote, name), name=name, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(ewire.denote, name, spy)
    second = evaluate_program(checked, mode=Mode.cpsu())[2][entry].op.matrix.tobytes()
    assert second == first
    assert sorted(calls) == ["compose_tensored", "copower_stack", "gate_denotation", "op_zero"]
