"""What a command imports: a bare ``import fermatsyz`` loads only the package
root, and the check path (verify, certify, tc, deviation) never loads numpy
or the elimination modules.  Each check runs in a fresh interpreter, since
this one has imported everything already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fermatsyz
from fermatsyz import bundle, stability, syzygy
from fermatsyz.cli import main

CONSTRUCTION = ("numpy", "fermatsyz.linalg", "fermatsyz._kernels")

# runs cli.main on the arguments, then prints its exit code and the loaded
# fermatsyz and construction modules as JSON on the last line
CHILD = """
import contextlib, io, json, sys
from fermatsyz import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
names = [m for m in sys.modules if m.startswith("fermatsyz") or m in {construction}]
print(json.dumps({{"code": code, "modules": sorted(names)}}))
""".format(construction=set(CONSTRUCTION))


def run_child(code, *argv, cwd=None):
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """A certificate file and a scan holding certificate, none and skipped records."""
    tmp = tmp_path_factory.mktemp("startup")
    scan = tmp / "scan.jsonl"
    assert main(["scan", "--p", "2,3", "--d", "4..7", "--a", "1", "--e-max", "1",
                 "--out", str(scan)]) == 0
    outcomes = {json.loads(line)["outcome"] for line in scan.read_text().splitlines()}
    assert outcomes == {"certificate", "none", "skipped"}
    cert = tmp / "cert.json"
    record = next(json.loads(x) for x in scan.read_text().splitlines() if '"certificate"' in x)
    cert.write_text(json.dumps(record))
    return tmp


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "cert.json"], 0),
        (["verify", "scan.jsonl"], 0),
        (["certify", "--p", "5", "--a", "2", "--d", "11"], 0),
        (["certify", "--p", "5", "--a", "2", "--d0", "3"], 0),
        (["tc", "--p", "5", "--b", "1", "--e", "2"], 0),
        (["deviation", "--p", "5", "--a", "2", "--e", "2"], 0),
        (["certify", "--p", "5"], 1),
    ],
    ids=["verify-one", "verify-jsonl", "certify-d", "certify-d0", "tc", "deviation", "usage"],
)
def test_check_path_never_imports_numpy(records, argv, code):
    child = run_child(CHILD, *argv, cwd=records)
    assert child["code"] == code
    assert not set(CONSTRUCTION) & set(child["modules"]), child["modules"]
    assert "fermatsyz.bundle" not in child["modules"]


def test_bare_import_loads_only_the_package_root():
    child = run_child(
        "import json, sys; import fermatsyz; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('fermatsyz'))))"
    )
    assert child == ["fermatsyz"]


def test_submodule_resolves_after_a_bare_import():
    child = run_child(
        "import json, sys; import fermatsyz; b = fermatsyz.bundle; "
        "print(json.dumps(b is sys.modules['fermatsyz.bundle']))"
    )
    assert child is True


def test_every_public_name_is_the_object_its_module_defines():
    for name in fermatsyz.__all__:
        value = getattr(fermatsyz, name)
        if name == "__version__":
            continue
        if name == "BACKEND":
            assert value is fermatsyz._kernels.BACKEND
            continue
        assert value.__module__.startswith("fermatsyz."), name
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert bundle.SyzygySpec is syzygy.SyzygySpec is fermatsyz.SyzygySpec
    assert bundle.SectionVector is syzygy.SectionVector is fermatsyz.SectionVector


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fermatsyz import *", namespace)
    for name in fermatsyz.__all__:
        assert namespace[name] is getattr(fermatsyz, name), name


def test_dir_lists_every_public_name_before_any_is_loaded():
    listed = run_child("import json, fermatsyz; print(json.dumps(dir(fermatsyz)))")
    assert set(fermatsyz.__all__) <= set(listed)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fermatsyz.no_such_name
    with pytest.raises(ImportError):
        exec("from fermatsyz import no_such_name", {})
    with pytest.raises(AttributeError, match="no_such_name"):
        stability.no_such_name
    # the two names perfbench wraps on stability resolve to bundle's functions
    assert stability.has_section is bundle.has_section
    assert stability.section_space is bundle.section_space
