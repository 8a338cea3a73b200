"""Seeded inputs, operations and output checks of the four workloads.

Every coefficient comes from the benchmark's own ``random.Random``; the
program only ever sees JSON state documents (parsed inside the timed
operation) and SLOCC operators built from integer matrices.

An operation returns the program's result.  After the run each operation's
first result is judged:

* ``ok``: the output passes its check;
* ``failed``: the program signalled that it did not reach the target,
  by raising a ``SloccGeoError`` or by returning a Hilbert profile that
  reports ``matches() == False`` (the known criterion-6 gap);
* ``incorrect``: the output contradicts its check without such a signal,
  or the call crashed with another exception.
"""

import contextlib
import io
import os
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import product
from math import isqrt

QUADRATIC_TARGET = (1, 3, 6, 10, 15)
CUBIC_TARGET = (1, 2, 4, 6, 9, 12)
HILBERT_PRIMES = (7, 11, 13, 17, 19, 23)
ROUNDTRIP_PRIMES = (7, 11, 13)
SURJECTIVE_PRIMES = (13, 17, 19, 23)
KERNEL_PRIMES = (11, 13, 17)

OK, FAILED, INCORRECT = "ok", "failed", "incorrect"


# ---------------------------------------------------------------- inputs


def random_coeffs(rng, n, d, bound=5):
    return [rng.randint(-bound, bound) for _ in range(d**n)]


def plane_cubic_terms(coeffs):
    """The curve of a (3,3) state projected to its first factor, as
    {exponent triple: coefficient}: the determinant of the 3 x 3 matrix of
    linear forms M(x)[k][j] = sum_i T[i][j][k] x_i."""
    forms = [[[coeffs[9 * i + 3 * j + k] for i in range(3)] for j in range(3)] for k in range(3)]
    terms = {}
    for perm, sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                       ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
        for a, b, c in product(range(3), repeat=3):
            mono = [0, 0, 0]
            for v in (a, b, c):
                mono[v] += 1
            coeff = forms[0][perm[0]][a] * forms[1][perm[1]][b] * forms[2][perm[2]][c]
            terms[tuple(mono)] = terms.get(tuple(mono), 0) + sign * coeff
    return terms


def generic_coeffs(rng, sg, n, d):
    """Coefficients of a random state with a smooth curve model.

    Draws whose curve is singular or whose model is rank-deficient are
    redrawn: (4,2) draws with a vanishing Schlaefli hyperdeterminant (about
    0.7%), and (3,3) draws whose projected plane cubic has a vanishing
    discriminant (about 0.2%).  One of them sends an exact-path operation
    into a full prime sweep (~0.6 s instead of ~13 ms), which moved a
    run's throughput by 15%, and breaks checks that assume a smooth curve.
    Singular inputs have their own operations in prime-sweeps.
    """
    while True:
        coeffs = random_coeffs(rng, n, d)
        if (n, d) == (4, 2):
            if sg.schlaefli_hyperdet(sg.Tensor(n, d, coeffs)) != 0:
                return coeffs
        elif (n, d) == (3, 3):
            cubic = sg.TernaryCubic.from_terms(plane_cubic_terms(coeffs))
            if sg.cubic_discriminant(cubic) != 0:
                return coeffs
        else:
            return coeffs


def state_doc(n, d, coeffs):
    """Canonical state document: entries in index order, zeros omitted."""
    entries = [
        '{"idx":[%s],"c":"%d"}' % (",".join(map(str, idx)), c)
        for idx, c in zip(product(range(d), repeat=n), coeffs)
        if c != 0
    ]
    return '{"n":%d,"d":%d,"entries":[%s]}' % (n, d, ",".join(entries))


def sparse_doc(n, d, entries):
    coeffs = [0] * d**n
    for idx, c in entries.items():
        off = 0
        for i in idx:
            off = off * d + i
        coeffs[off] = c
    return state_doc(n, d, coeffs)


def ghz_doc(n, d):
    return sparse_doc(n, d, {(k,) * n: 1 for k in range(d)})


def singlet_bell_doc():
    """singlet (x) Bell: |0100> + |0111> - |1000> - |1011>."""
    return sparse_doc(4, 2, {(0, 1, 0, 0): 1, (0, 1, 1, 1): 1, (1, 0, 0, 0): -1, (1, 0, 1, 1): -1})


def _det(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    size = len(m)
    det = Fraction(1)
    for c in range(size):
        pivot = next((r for r in range(c, size) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, size):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def random_operator(rng, sg, n, d, bound):
    """n invertible integer d x d factors with entries in [-bound, bound]."""
    factors = []
    while len(factors) < n:
        rows = [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(d)]
        if _det(rows) != 0:
            factors.append(sg.Matrix(rows))
    return sg.SloccOperator(factors)


def cayley_formula(a):
    """Cayley's 2x2x2 hyperdeterminant from its closed-form polynomial;
    ``a`` is the coefficient list in row-major order (a[4i+2j+k])."""
    def e(i, j, k):
        return a[4 * i + 2 * j + k]

    sq = (
        e(0, 0, 0) ** 2 * e(1, 1, 1) ** 2 + e(0, 0, 1) ** 2 * e(1, 1, 0) ** 2
        + e(0, 1, 0) ** 2 * e(1, 0, 1) ** 2 + e(1, 0, 0) ** 2 * e(0, 1, 1) ** 2
    )
    pairs = (
        e(0, 0, 0) * e(1, 1, 1) * e(0, 0, 1) * e(1, 1, 0)
        + e(0, 0, 0) * e(1, 1, 1) * e(0, 1, 0) * e(1, 0, 1)
        + e(0, 0, 0) * e(1, 1, 1) * e(1, 0, 0) * e(0, 1, 1)
        + e(0, 0, 1) * e(1, 1, 0) * e(0, 1, 0) * e(1, 0, 1)
        + e(0, 0, 1) * e(1, 1, 0) * e(1, 0, 0) * e(0, 1, 1)
        + e(0, 1, 0) * e(1, 0, 1) * e(1, 0, 0) * e(0, 1, 1)
    )
    quads = (
        e(0, 0, 0) * e(0, 1, 1) * e(1, 0, 1) * e(1, 1, 0)
        + e(1, 1, 1) * e(1, 0, 0) * e(0, 1, 0) * e(0, 0, 1)
    )
    return sq - 2 * pairs + 4 * quads


def hasse_bounds(p):
    b = isqrt(4 * p)
    return p + 1 - b, p + 1 + b


# ------------------------------------------------------------ summaries


def _frac(x):
    return None if x is None else str(Fraction(x))


def _witness(w):
    if w is None:
        return None
    p, pt, rank = w
    return [p, [list(c) for c in pt.coords], rank]


def verdict_summary(v):
    return {
        "status": v.status, "rank": v.rank, "j": _frac(v.j),
        "projections": [_frac(pr.invariants.discriminant) for pr in v.projections],
        "hyperdet": _frac(v.hyperdeterminant), "primes": list(v.primes_used),
        "witness": _witness(v.singular_witness),
    }


def summarize(value):
    """A JSON-able, canonical form of one operation result."""
    kind = type(value).__name__
    if kind == "Verdict":
        return verdict_summary(value)
    if kind == "ComparisonResult":
        return {"outcome": value.outcome, "left": verdict_summary(value.left),
                "right": verdict_summary(value.right)}
    if kind in ("SmoothnessReport", "HilbertProfile", "ProductMapResult"):
        return value.to_json_dict()
    if kind == "CliResult":
        return {"rc": value.rc, "stdout": value.stdout.decode("utf-8")}
    if isinstance(value, (bool, int, Fraction)):
        return str(value)
    raise TypeError(f"no summary for {kind}")


# ------------------------------------------------------------ workloads


class Op:
    """One operation: ``call()`` makes exactly one public-API call (or one
    CLI invocation) on one input; ``check(value)`` judges its result."""

    __slots__ = ("label", "call", "check", "source")

    def __init__(self, label, call, check, source):
        self.label = label
        self.call = call
        self.check = check
        self.source = source    # (doc, coeffs, n, d) of the input, or None


class Workload:
    def __init__(self, sg):
        self.sg = sg
        self.ops = []
        self.results = {}       # label -> first result, for cross-op checks

    def add(self, label, call, check=None, source=None):
        self.ops.append(Op(label, call, check or (lambda v: (OK, "")), source))

    def warm_up(self):
        """Untimed set-up work beyond building the inputs."""

    def in_process_work(self):
        """Work that the traced run also counts: nothing, except for
        cli-cold, whose in-process reference reports are computed here."""

    def close(self):
        pass

    def judge(self, outcomes):
        """outcomes: per op ('ok', value) | ('raised', exc) | ('crashed', exc).
        Returns per op (verdict, detail)."""
        sg = self.sg
        self.results = {
            op.label: value for op, (kind, value) in zip(self.ops, outcomes) if kind == "ok"
        }
        verdicts = []
        for op, (kind, value) in zip(self.ops, outcomes):
            if kind == "raised":
                verdicts.append((FAILED, f"{type(value).__name__}: {value}"))
            elif kind == "crashed":
                verdicts.append((INCORRECT, f"{type(value).__name__}: {value}"))
            else:
                verdicts.append(op.check(value))
        for i, op in enumerate(self.ops):
            if op.source is None or verdicts[i][0] == INCORRECT:
                continue
            doc, coeffs, n, d = op.source
            parsed = sg.parse_state(doc)
            if parsed != sg.Tensor(n, d, coeffs) or sg.state_to_json(parsed) != doc:
                verdicts[i] = (INCORRECT, "parse_state/state_to_json round trip differs")
        return verdicts


def build_exact_curves(sg, rng, blocks):
    """Smooth curve formats through the exact-over-Q path only.

    One block is nine operations: a Cayley hyperdeterminant (~0.3 ms);
    on a (4,2) state the Schlaefli hyperdeterminant, classify, classify
    after SLOCC and compare (~1.4 / 5 / 6.5 / 12 ms); on a (3,3) state
    classify, classify after SLOCC and two compares with two operators
    (~13 / 15 / 27 / 30 ms).  Four operations of a block are cheaper and
    four dearer than the (4,2) compare, so the median latency falls in the
    middle of that one operation's cluster, not on a gap between two.
    """
    w = Workload(sg)

    def same_as_base(v, key):
        base = w.results.get(f"classify.{key}")
        if base is None:
            return FAILED, "base classification unavailable"
        if (v.status, v.j) != (base.status, base.j):
            return INCORRECT, f"status/j changed under SLOCC: {base.status} -> {v.status}"
        return OK, ""

    def compare_ok(v, key, right=None):
        if v.outcome == "DistinctCertified":
            return INCORRECT, "s and g.s certified distinct"
        base, moved = w.results.get(f"classify.{key}"), w.results.get(right or "")
        if base is not None and (v.left.status, v.left.j) != (base.status, base.j):
            return INCORRECT, "compare disagrees with classify on s"
        if moved is not None and (v.right.status, v.right.j) != (moved.status, moved.j):
            return INCORRECT, "compare disagrees with classify on g.s"
        if (v.left.status, v.left.j) != (v.right.status, v.right.j):
            return INCORRECT, "status/j of s and g.s differ"
        return OK, ""

    def hyperdet_ok(value, key):
        base = w.results.get(f"classify.{key}")
        if base is None:
            return FAILED, "base classification unavailable"
        if base.hyperdeterminant != value:
            return INCORRECT, "classify and schlaefli_hyperdet disagree"
        if base.rank < 2:
            singular = True
        else:
            singular = all(pr.invariants.j is None for pr in base.projections)
        if (value == 0) != singular:
            return INCORRECT, "hyperdeterminant vanishing disagrees with projections"
        return OK, ""

    def add_cayley(i):
        c3 = random_coeffs(rng, 3, 2)
        doc3 = state_doc(3, 2, c3)
        expect = cayley_formula(c3)
        w.add(
            f"cayley.{i}",
            lambda: sg.cayley_hyperdet(sg.parse_state(doc3)),
            lambda v: (OK, "") if v == expect
            else (INCORRECT, f"cayley {v} != closed form {expect}"),
            (doc3, c3, 3, 2),
        )

    def add_state(i, n, d, compares):
        coeffs = generic_coeffs(rng, sg, n, d)
        doc = state_doc(n, d, coeffs)
        g = random_operator(rng, sg, n, d, 3)
        key = f"{n}{d}.{i}"
        if (n, d) == (4, 2):
            w.add(f"schlaefli.{key}", lambda: sg.schlaefli_hyperdet(sg.parse_state(doc)),
                  lambda v: hyperdet_ok(v, key))
        w.add(f"classify.{key}", lambda: sg.classify(sg.parse_state(doc)),
              source=(doc, coeffs, n, d))
        w.add(f"classify_slocc.{key}",
              lambda: sg.classify(sg.apply_slocc(sg.parse_state(doc), g)),
              lambda v: same_as_base(v, key))
        for c in range(compares):
            h = g if c == 0 else random_operator(rng, sg, n, d, 3)
            w.add(
                f"compare{c}.{key}",
                lambda h=h: sg.slocc_compare(
                    sg.parse_state(doc), sg.apply_slocc(sg.parse_state(doc), h)),
                lambda v, c=c: compare_ok(v, key, f"classify_slocc.{key}" if c == 0 else None),
            )

    for i in range(blocks):
        add_cayley(i)
        add_state(i, 4, 2, 1)
        add_state(i, 3, 3, 2)
    return w


def build_prime_sweeps(sg, rng, blocks):
    """Finite-field sweeps: generic scans, singular models, (5,2) majority."""
    w = Workload(sg)

    def scan_ok(v):
        if v.verdict != "NoSingularPointFound":
            return INCORRECT, f"generic state swept {v.verdict}"
        for p, count in v.point_counts:
            lo, hi = hasse_bounds(p)
            if not lo <= count <= hi:
                return INCORRECT, f"{count} points at p={p} outside [{lo}, {hi}]"
        return OK, ""

    def witness_ok(v, state):
        p, pt, rank = v.singular_witness
        model = sg.variety_from_state(state)
        recheck = sg.jacobian_rank_at(model, pt)
        if not recheck == rank < model.d:
            return INCORRECT, f"witness at p={p} re-checks to rank {recheck}, reported {rank}"
        return OK, ""

    def singular_ok(v, doc, g=None):
        if v.status != "SingularModel":
            return INCORRECT, f"singular input classified {v.status}"
        if v.singular_witness is None:
            return INCORRECT, "singular model without a witness"
        state = sg.parse_state(doc)
        return witness_ok(v, state if g is None else sg.apply_slocc(state, g))

    def majority_ok(v, doc):
        if v.status == "SmoothGeneric":
            return (OK, "") if v.singular_witness is None else (INCORRECT, "smooth with witness")
        if v.status == "SingularModel" and v.singular_witness is not None:
            return witness_ok(v, sg.parse_state(doc))
        return INCORRECT, f"(5,2) state classified {v.status}"

    def add_scan(label, n, d):
        coeffs = generic_coeffs(rng, sg, n, d)
        doc = state_doc(n, d, coeffs)
        w.add(label, lambda: sg.smoothness_scan(sg.parse_state(doc)), scan_ok,
              (doc, coeffs, n, d))

    def add_singular(label, doc, g=None):
        if g is None:
            call = lambda: sg.classify(sg.parse_state(doc))
        else:
            call = lambda: sg.classify(sg.apply_slocc(sg.parse_state(doc), g))
        w.add(label, call, lambda v: singular_ok(v, doc, g))

    def add_five(label):
        coeffs = random_coeffs(rng, 5, 2)
        doc = state_doc(5, 2, coeffs)
        w.add(label, lambda: sg.classify(sg.parse_state(doc)),
              lambda v: majority_ok(v, doc), (doc, coeffs, 5, 2))

    # One block, by cost: (5,2) classify (~0.7 s); two (3,3) scans and the
    # GHZ(3,3) image (~0.5 s); two (4,2) scans, GHZ(3,3) and the GHZ(4,2)
    # image (~0.3 s); singlet (x) Bell and GHZ(4,2) twice each (~0.2 s).
    # Four operations lie above and four below the ~0.3 s cluster, so the
    # median falls in its middle; the 11th-largest of five blocks falls
    # inside the ~0.5 s cluster, below the five (5,2) operations.
    ghz33 = ghz_doc(3, 3)
    ghz42 = ghz_doc(4, 2)
    sb = singlet_bell_doc()
    for b in range(blocks):
        add_scan(f"scan33.{b}.0", 3, 3)
        add_singular(f"ghz33.{b}", ghz33)
        add_singular(f"singlet_bell.{b}.0", sb)
        add_scan(f"scan42.{b}.0", 4, 2)
        add_singular(f"ghz42.{b}.0", ghz42)
        add_five(f"classify52.{b}")
        add_singular(f"ghz33.slocc.{b}", ghz33, random_operator(rng, sg, 3, 3, 3))
        add_singular(f"ghz42.{b}.1", ghz42)
        add_scan(f"scan33.{b}.1", 3, 3)
        add_singular(f"ghz42.slocc.{b}", ghz42, random_operator(rng, sg, 4, 2, 3))
        add_scan(f"scan42.{b}.1", 4, 2)
        add_singular(f"singlet_bell.{b}.1", sb)
    return w


def build_graded_algebra(sg, rng, blocks):
    """Relation kernels, Hilbert profiles and section products over F_p."""
    w = Workload(sg)

    def hilbert_ok(v, target):
        if v.dims == target:
            return (OK, "") if v.matches() else (INCORRECT, "target met but matches() False")
        if not v.matches() and tuple(v.expected) == target:
            return FAILED, f"criterion 6: dims {v.dims} != {target} at p={v.prime}"
        return INCORRECT, f"dims {v.dims} reported as matching {v.expected}"

    def roundtrip_ok(v):
        return (OK, "") if v is True else (INCORRECT, "roundtrip kernel differs")

    def surjective_ok(v):
        return (OK, "") if v.surjective else (INCORRECT, f"generic kernel {v.kernel_dim}")

    def kernel_ok(v):
        return (OK, "") if v.kernel_dim >= 1 else (INCORRECT, "no kernel on singlet (x) Bell orbit")

    sb = singlet_bell_doc()
    sb_ops = [None] + [random_operator(rng, sg, 4, 2, 2) for _ in range(2)]
    for i in range(blocks):
        for n, d, runner, target in ((3, 3, "quadratic_hilbert", QUADRATIC_TARGET),
                                     (4, 2, "cubic_hilbert", CUBIC_TARGET)):
            coeffs = generic_coeffs(rng, sg, n, d)
            doc = state_doc(n, d, coeffs)
            key = f"{n}{d}.{i}"
            k_max = len(target) - 1
            for j, p in enumerate(HILBERT_PRIMES):
                w.add(
                    f"hilbert.{key}.{p}",
                    lambda doc=doc, p=p, runner=runner, k=k_max: getattr(sg, runner)(
                        sg.parse_state(doc), p, k),
                    lambda v, target=target: hilbert_ok(v, target),
                    (doc, coeffs, n, d) if j == 0 else None,
                )
                if j < len(ROUNDTRIP_PRIMES):
                    rp = ROUNDTRIP_PRIMES[j]
                    w.add(f"roundtrip.{key}.{rp}",
                          lambda doc=doc, p=rp: sg.roundtrip_check(sg.parse_state(doc), p),
                          roundtrip_ok)
                if (n, d) == (4, 2) and j < len(SURJECTIVE_PRIMES):
                    sp = SURJECTIVE_PRIMES[j]
                    w.add(f"surjective.{key}.{sp}",
                          lambda doc=doc, p=sp: sg.multiplication_surjectivity(
                              sg.parse_state(doc), (0, 1), p),
                          surjective_ok)
        g = sb_ops[i % len(sb_ops)]
        for p in KERNEL_PRIMES:
            def call(g=g, p=p):
                t = sg.parse_state(sb)
                if g is not None:
                    t = sg.apply_slocc(t, g)
                return sg.multiplication_surjectivity(t, (0, 1), p)
            w.add(f"kernel.{i}.{p}", call, kernel_ok)
    return w


CliResult = namedtuple("CliResult", "rc stdout")


class CliWorkload(Workload):
    """``python -m sloccgeo.cli`` as one subprocess per operation."""

    def __init__(self, sg, root, run_dir):
        super().__init__(sg)
        self.run_dir = run_dir
        src = os.path.join(root, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env
        self.root = root
        self.src = src
        self.reference = None

    def invoke(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "sloccgeo.cli", *argv],
            env=self.env, cwd=self.root, capture_output=True, timeout=120,
        )
        return CliResult(proc.returncode, proc.stdout)

    def warm_up(self):
        """One untimed invocation, so bytecode caches exist as they do for an
        installed user, and a check that subprocesses import this checkout."""
        probe = subprocess.run(
            [sys.executable, "-c", "import sloccgeo; print(sloccgeo.__file__)"],
            env=self.env, cwd=self.root, capture_output=True, timeout=60, check=True,
        )
        path = os.path.realpath(probe.stdout.decode().strip())
        if not path.startswith(os.path.realpath(self.src) + os.sep):
            raise SystemExit(f"subprocess imports sloccgeo from {path}, not {self.src}")
        self.invoke(["moduli-dim", "--n", "3", "--d", "3"])

    def in_process_work(self):
        """Reference reports from an in-process ``cli.run`` of every argv."""
        from sloccgeo import cli

        reference = {}
        for op in self.ops:
            if op.argv not in reference:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = cli.run(list(op.argv))
                reference[op.argv] = (rc, buf.getvalue().encode("utf-8"))
        self.reference = reference

    def judge(self, outcomes):
        if self.reference is None:
            self.in_process_work()
        return super().judge(outcomes)

    def close(self):
        for name in os.listdir(self.run_dir):
            os.remove(os.path.join(self.run_dir, name))


class CliOp(Op):
    __slots__ = ("argv",)


def build_cli_cold(sg, rng, root, run_dir, blocks, distinct=4):
    """At most ``distinct`` blocks of fresh files, cycled to ``blocks``
    blocks: each distinct command line also costs an in-process reference
    run, which must fit in the run's time limit."""
    w = CliWorkload(sg, root, run_dir)
    commands = []
    for b in range(min(blocks, distinct)):
        paths = {}
        for name, n, d in (("a33", 3, 3), ("b33", 3, 3), ("a42", 4, 2), ("b42", 4, 2)):
            path = os.path.join(run_dir, f"{name}.{b}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(state_doc(n, d, generic_coeffs(rng, sg, n, d)) + "\n")
            paths[name] = path
        # Per block: 3 start-up-bound commands (~0.2 s), 3 calibrated (3,3)
        # commands (~0.45 s) and 3 sweeps (~0.5-1 s), so the median falls in
        # the middle of the (3,3) cluster and the tail rank of a 5-block run
        # inside the (4,2) sweeps.
        commands += [
            ["hyperdet", paths["a42"]],
            ["classify", paths["a33"]],
            ["smoothness", paths["a42"]],
            ["moduli-dim", "--n", "5", "--d", "2"],
            ["equiv", paths["a33"], paths["b33"]],
            ["smoothness", paths["b33"]],
            ["jinv", paths["b42"]],
            ["classify", paths["b33"]],
            ["smoothness", paths["b42"]],
        ]
    per_block = len(commands) // min(blocks, distinct)
    for k in range(blocks * per_block):
        argv = tuple(commands[k % len(commands)])

        def check(v, argv=argv):
            rc, expected = w.reference[argv]
            if v.rc != rc or rc != 0:
                return INCORRECT, f"exit code {v.rc}, in-process {rc}"
            if v.stdout != expected:
                return INCORRECT, "report bytes differ from in-process cli.run"
            return OK, ""

        op = CliOp(f"{k}.{argv[0]}", lambda argv=argv: w.invoke(argv), check, None)
        op.argv = argv
        w.ops.append(op)
    return w


# Nominal seconds of one block of each workload on the reference machine
# (2-core Xeon VM, Python 3.11).  A run builds round(seconds / block)
# blocks of fresh inputs and runs each operation once, so a run does a
# fixed amount of work for a given --seconds: the operation mix and the
# sample count do not depend on how fast this commit happens to be.
BLOCK_SECONDS = {
    "exact-curves": 0.125,
    "prime-sweeps": 3.9,
    "graded-algebra": 1.35,
    "cli-cold": 4.0,
}


def build(name, sg, rng, seconds, root, run_dir):
    blocks = max(1, round(seconds / BLOCK_SECONDS[name]))
    if name == "exact-curves":
        return build_exact_curves(sg, rng, blocks)
    if name == "prime-sweeps":
        return build_prime_sweeps(sg, rng, blocks)
    if name == "graded-algebra":
        return build_graded_algebra(sg, rng, blocks)
    if name == "cli-cold":
        return build_cli_cold(sg, rng, root, run_dir, blocks)
    raise ValueError(f"unknown workload {name!r}")
