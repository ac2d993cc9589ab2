"""Import boundary: the exact and approx paths and the verify suites that
need no sampling or permutation batches run without numpy, and each command
loads only the modules it uses.

Each check runs in a fresh interpreter, since the test session itself has
long imported numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# the public names of collisort/__init__.py; the Monte Carlo and Poisson
# ones (and their two modules) resolve on first access
PUBLIC_NAMES = """
ExponentialLaw PoissonLaw RayleighLaw erfi exponential_sf normal_cdf_imag
poisson_pmf rayleigh_charfn rayleigh_moment rayleigh_sf EstimateReport ProblemSize
collision_sf collision_sf_fraction collision_sf_series optimal_shift pass_cdf
pass_cdf_fraction pass_cdf_series relative_error_common relative_error_shifted
sandwich_bounds scaled_collision_moment scaled_pass_charfn_exact scaled_pass_moment
scaled_pass_variance ApproxStats ExpectedOpDeltas euler_maclaurin_residual
expected_opcount_deltas log_factorial_hp scaled_collision_cdf_approx
scaled_collision_pmf_approx scaled_pass_cdf_approx scaled_pass_charfn_approx
scaled_pass_moment_approx scaled_pass_pmf_approx scaled_pass_stats_approx
scaled_pass_survival scaled_pass_survival_expansion HPReal hp EmpiricalSummary
SeededStream empirical_law empirical_opcounts empirical_pair_matches
exact_law_ks_vs_rayleigh sample_first_collision sample_inversion_table
DissociatedFamily SteinChenReport birthday_family inversion_family
poisson_limit_functionals stein_chen_bound tv_exact_enumerated OpCounts
ResourceBoundError bubble_sort_instrumented enumerate_collision_survival
enumerate_pass_distribution equal_pair_count inversion_table pass_count pass_trace
passes_match_inversion_max permutation_from_inversion_table
montecarlo poisson_approx __version__
""".split()

README_EXACT_APPROX = [
    "exact pass-cdf --n 365 --m 22",
    "exact collision-sf --n 358 --m 22",
    "exact series --n 365 --m 22 --depth 12",
    "exact sandwich --n 365 --m 22",
    "exact relerr --n 365 --m 22",
    "exact optimal-shift --n 365 --m 22",
    "exact moments --n 10000 --k 2",
    "approx stats --n 10000",
    "approx varrho --n 10000 --x 1.0",
    "approx cdf --n 10000 --x 1.0 --z 1.0",
    "approx charfn --n 10000 --t 0.5",
    "approx em-check --n 10000 --epsilon 0.15",
]


def _python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80", "NO_COLOR": "1"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# modules a cold exact/approx command must not load: numpy, and dataclasses with
# the inspect (ast, dis, tokenize) it pulls in, which the value records do without
COLD_ABSENT = ["numpy", "dataclasses", "inspect"]


def test_exact_and_approx_commands_do_not_import_numpy():
    out = _python(f"""
import contextlib, io, json, sys
absent = {COLD_ABSENT!r}
import collisort
loaded = [[m for m in absent if m in sys.modules]]
import collisort.cli
loaded.append([m for m in absent if m in sys.modules])
for argv in {README_EXACT_APPROX!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert collisort.cli.main(argv.split()) == 0, argv
    loaded.append([m for m in absent if m in sys.modules])
print(json.dumps(loaded))
""")
    assert json.loads(out) == [[]] * (2 + len(README_EXACT_APPROX))


def test_exact_and_approx_commands_load_only_their_modules():
    # each kind in its own interpreter, so one kind's imports do not hide the other's
    loaded = {}
    for kind in ("exact", "approx"):
        argvs = [a for a in README_EXACT_APPROX if a.startswith(kind)]
        loaded[kind] = json.loads(_python(f"""
import contextlib, io, json, sys
import collisort.cli
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert collisort.cli.main(argv.split()) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.startswith("collisort."))))
"""))
    assert loaded["exact"] == ["collisort.cli", "collisort.exact", "collisort.hpreal",
                               "collisort.powersums"]
    assert not {"collisort.sorters", "collisort.verification"} & set(loaded["approx"])


NUMPY_FREE_SUITES = ["paper-values", "enumeration", "asymptotic-orders", "optimal-shift"]


def test_numpy_free_verify_suites_do_not_import_numpy():
    out = _python(f"""
import contextlib, io, json, sys
import collisort.cli
codes = []
for suite in {NUMPY_FREE_SUITES!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(collisort.cli.main(["verify", "--suite", suite]))
print(json.dumps([codes, "numpy" in sys.modules]))
""")
    assert json.loads(out) == [[0] * len(NUMPY_FREE_SUITES), False]


def test_cli_and_single_suite_verify_do_not_import_subprocess():
    # run_suite("all") forks its worker lane, so no command imports subprocess
    out = _python("""
import contextlib, io, json, sys
import collisort.cli
loaded = ["subprocess" in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    assert collisort.cli.main(["verify", "--suite", "paper-values"]) == 0
loaded.append("subprocess" in sys.modules)
print(json.dumps(loaded))
""")
    assert json.loads(out) == [False, False]


def test_verify_all_closes_its_pipes_and_reaps_its_worker():
    # -X dev reports an unclosed pipe as a ResourceWarning; two usable CPUs make it fork
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = """
import os, sys
from collisort import cli, verification
verification._usable_cpus = lambda: 2
code = cli.main(["verify", "--suite", "all"])
sys.stdout.flush()
try:
    os.wait()
except ChildProcessError:  # no child left unreaped
    sys.exit(code)
sys.exit("a child was left unreaped")
"""
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                           "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(json.loads(proc.stdout)["rows"]) == 38


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_verify_all_pinned_to_one_cpu_starts_no_child():
    out = _python("""
import contextlib, io, json, os
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

def refuse():
    raise AssertionError("started a child process")

os.fork = refuse
import collisort.cli
with contextlib.redirect_stdout(io.StringIO()) as buf:
    code = collisort.cli.main(["verify", "--suite", "all"])
print(json.dumps([code, len(json.loads(buf.getvalue())["rows"])]))
""")
    assert json.loads(out) == [0, 38]


def test_monte_carlo_name_loads_numpy():
    out = _python("""
import sys
import collisort
before = "numpy" in sys.modules
from collisort import empirical_law
print(before, "numpy" in sys.modules, empirical_law.__module__)
""")
    assert out.split() == ["False", "True", "collisort.montecarlo"]


def test_stein_chen_families_and_bounds_run_without_numpy():
    out = _python("""
import json, sys
from collisort import poisson_approx as pa
steps = ["numpy" in sys.modules]
for family in (pa.birthday_family(365, 22), pa.inversion_family(365, 22)):
    report = pa.stein_chen_bound(family)
    pa.tv_distance_to_poisson({0: 0.5, 1: 0.5}, report.mu)
steps.append("numpy" in sys.modules)
pa.match_count_law("birthday", 4, 3)
steps.append("numpy" in sys.modules)
print(json.dumps(steps))
""")
    assert json.loads(out) == [False, False, False]


def test_every_poisson_approx_function_runs_without_numpy():
    out = _python("""
import json, sys
from collisort import poisson_approx as pa
for kind in ("birthday", "inversion"):
    family = pa.match_family(kind, 6, 4)
    pa.DissociatedFamily(family.supports)
    pa.poisson_limit_functionals(family)
    report = pa.stein_chen_bound(family)
    pa.tv_distance_to_poisson(pa.match_count_law(kind, 6, 4), report.mu)
    pa.tv_exact_enumerated(kind, 6, 4)
print(json.dumps("numpy" in sys.modules))
""")
    assert json.loads(out) is False


def test_public_names_resolve_and_are_listed():
    out = _python(f"""
import json, collisort
names = {PUBLIC_NAMES!r}
listed = dir(collisort)
print(json.dumps({{"unlisted": [n for n in names if n not in listed],
                  "unresolved": [n for n in names if getattr(collisort, n, None) is None]}}))
""")
    assert json.loads(out) == {"unlisted": [], "unresolved": []}


def test_unknown_name_is_attribute_error():
    out = _python("""
import collisort
try:
    collisort.no_such_name
except AttributeError as exc:
    print(exc)
""")
    assert "no_such_name" in out


HELP_TOP = """\
usage: collisort [-h] {exact,approx,simulate,verify} ...

Exact and asymptotic bubble-sort pass / birthday collision laws.

positional arguments:
  {exact,approx,simulate,verify}
    exact               high-precision exact values
    approx              asymptotic approximations
    simulate            seeded Monte Carlo
    verify              named verification suites

options:
  -h, --help            show this help message and exit
"""

HELP_VERIFY = """\
usage: collisort verify [-h]
                        [--suite {asymptotic-orders,enumeration,inversion-lemma,lemma-8-4,montecarlo,opcount-lemmas,optimal-shift,paper-values,rayleigh-ks,stein-chen,all}]
                        [--output {json,csv}] [--output-path OUTPUT_PATH]

options:
  -h, --help            show this help message and exit
  --suite {asymptotic-orders,enumeration,inversion-lemma,lemma-8-4,montecarlo,opcount-lemmas,optimal-shift,paper-values,rayleigh-ks,stein-chen,all}
  --output {json,csv}
  --output-path OUTPUT_PATH
"""

HELP_SIMULATE = """\
usage: collisort simulate [-h] [--kind {pass,collision,birthday,inversion}]
                          --n N [--m M] [--trials TRIALS] [--seed SEED]
                          [--stream-id STREAM_ID] [--randomize] [--assert]
                          [--output {json,csv}] [--output-path OUTPUT_PATH]
                          {law,delta,opcounts}

positional arguments:
  {law,delta,opcounts}

options:
  -h, --help            show this help message and exit
  --kind {pass,collision,birthday,inversion}
  --n N
  --m M
  --trials TRIALS
  --seed SEED
  --stream-id STREAM_ID
  --randomize           replace the fixed default seed with OS entropy
  --assert              exit 1 when the built-in tolerance check fails
  --output {json,csv}
  --output-path OUTPUT_PATH
"""


def test_help_text_unchanged():
    out = _python("""
import contextlib, io, json, sys
from collisort import cli
texts = []
for argv in ([], ["verify"], ["simulate"]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            cli.main(argv + ["--help"])
        except SystemExit:
            pass
    texts.append(buf.getvalue())
print(json.dumps({"texts": texts, "numpy": "numpy" in sys.modules}))
""")
    payload = json.loads(out)
    assert payload["texts"] == [HELP_TOP, HELP_VERIFY, HELP_SIMULATE]
    assert payload["numpy"] is False


def test_expansion_generator_runs_only_on_first_use():
    out = _python("""
import json
import collisort.cli
from collisort import asymptotics, powersums
caches = (asymptotics._exponent, asymptotics._moment, asymptotics._pass_variance,
          asymptotics._floats, powersums.faulhaber_coefficients)
sizes = [cache.cache_info().currsize for cache in caches]
asymptotics.scaled_pass_stats_approx(100)
print(json.dumps([sizes, [cache.cache_info().currsize > 0 for cache in caches]]))
""")
    assert json.loads(out) == [[0] * 5, [True] * 5]
