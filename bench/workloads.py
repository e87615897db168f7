"""The four workloads: inputs made from the seed, one timed call per item,
and the benchmark's own check of each output.

Each workload object is built from (seed, work directory).  Its items
run in the calling process unless ``in_process`` is false.  ``setup``
is the one-off work timed as ``setup_s``; ``make_input(k)`` builds item
k outside the timed region; ``run`` is the timed call into the library;
``check`` returns None for a correct output or the reason it is wrong.
Items follow a fixed cycle, so any prefix of a run has the same mix of
input kinds and sizes.  Library calls go through ``tpflag.<name>`` at
call time, so that an installed tracer sees them.
"""

import contextlib
import io
import itertools
import json
import math
import subprocess
import sys
from fractions import Fraction

import tpflag
from tpflag.prng import SplitMix64, derive_seed

from source import child_env


def _warm(sizes):
    """Finish the lazy first-call work for each (n, sign): today that is
    the relevant_minor_pairs cache fill.  A membership test on the
    identity triggers it through the public API and exits on the first
    minor."""
    for n, sign in sizes:
        tpflag.is_totally_positive_unitriangular(tpflag.RationalMatrix.identity(n), sign)


def _w0_word(n):
    return tpflag.reduced_word(tpflag.longest_element(range(1, n), n))


def _cell_point(word, params, sign, n):
    """Product of elementary factors along ``word``; unlike
    ``evaluate_params`` it accepts zero and negative parameters."""
    rows = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for i, a in zip(word, params):
        src, dst = (i, i - 1) if sign == "lower" else (i - 1, i)
        for r in range(n):
            rows[r][dst] += a * rows[r][src]
    return tpflag.RationalMatrix.from_rows(rows)


def _spoil(params, sign, how, rng):
    """Make a parameter list leave the totally positive cell.

    A zero drops one letter, so the point lies in a smaller cell and one
    minor vanishes.  A negative parameter is put where extraction peels
    first (last letter on the lower side, first on the upper side); the
    peeled parameter is a ratio of two minors, so one of them is < 0.
    """
    params = list(params)
    if how == "zero":
        params[rng.randint(len(params))] = Fraction(0)
    else:
        at = -1 if sign == "lower" else 0
        params[at] = -params[at]
    return params


def _unitriangular(n, sign, seed, member, how):
    w0 = tpflag.longest_element(range(1, n), n)
    params = tpflag.sample_positive(w0, sign, seed).params
    if not member:
        params = _spoil(params, sign, how, SplitMix64(derive_seed(seed, 9)))
    return _cell_point(_w0_word(n), params, sign, n)


def _non_member_g(n, seed, how):
    """upper * torus * lower as in ``sample_g_positive``, with the lower
    factor spoiled; the Gaussian factors are unique, so g is not
    totally positive."""
    upper = _unitriangular(n, "upper", derive_seed(seed, 0), True, how)
    torus = tpflag.sample_torus_matrix(n, derive_seed(seed, 1))
    lower = _unitriangular(n, "lower", derive_seed(seed, 2), False, how)
    return upper @ torus @ lower


def _leibniz_det(rows):
    """Exact determinant as a sum over permutations, independent of the
    library's elimination."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for r, c in enumerate(perm):
            term *= rows[r][c]
        total += term
    return total


class Campaign:
    """One ``verify_conjecture(4, 1, seed_k)`` instance per item."""

    name = "campaign"
    in_process = True
    cycle = 1
    trace_items = 32
    n = 4

    def __init__(self, seed, workdir):
        self.seed = seed
        self.config = tpflag.SolverConfig()

    def setup(self):
        _warm([(self.n, "lower")])

    def make_input(self, k):
        return derive_seed(self.seed, k)

    def run(self, instance_seed):
        return tpflag.verify_conjecture(self.n, 1, instance_seed)

    def check(self, instance_seed, report):
        record = report.records[0]
        if not record.converged:
            return "did not converge"
        if record.distinct_limits != 1 or record.aux_distinct_limits != 1:
            return (f"limit clusters {record.distinct_limits} and "
                    f"{record.aux_distinct_limits}, expected one each")
        # verify_conjecture records the round-trip error but does not gate it
        if not record.roundtrip_err <= self.config.cluster_threshold:
            return f"round-trip error {record.roundtrip_err:.3g}"
        return None


class Classify:
    """One (g, J) pair per item: zeta_j, perron_line_check and
    check_partition.  Each cycle samples one g at n = 4 and one at n = 5
    and pairs each with every J; items alternate 4, 5, 5 so that every
    prefix has the same size mix."""

    name = "classify"
    in_process = True
    trace_items = 48

    def __init__(self, seed, workdir):
        self.seed = seed
        subsets = {n: [J for r in range(n) for J in itertools.combinations(range(1, n), r)]
                   for n in (4, 5)}
        self.order = []
        for k in range(len(subsets[4])):
            self.order += [(4, subsets[4][k]), (5, subsets[5][2 * k]),
                           (5, subsets[5][2 * k + 1])]
        self.cycle = len(self.order)
        self._samples = (None, {})

    def setup(self):
        _warm([(n, sign) for n in (4, 5) for sign in ("lower", "upper")])

    def make_input(self, k):
        c, r = divmod(k, self.cycle)
        if self._samples[0] != c:
            self._samples = (c, {n: tpflag.sample_g_positive(n, derive_seed(self.seed, 2 * c + n - 4))
                                 for n in (4, 5)})
        n, J = self.order[r]
        return self._samples[1][n], J

    def run(self, item):
        g, J = item
        return (tpflag.zeta_j(g, J), tpflag.perron_line_check(g, J),
                tpflag.check_partition(g, J))

    def check(self, item, out):
        _, perron, partition = out
        if not partition:
            return "check_partition is false"
        if not perron["ok"]:
            return f"perron_line_check deviation {perron['max_deviation']:.3g}"
        return None


class Membership:
    """One exact membership verdict per item, at n = 4, 5, 6.  Each cycle
    has a member and a non-member for each (n, test), and extra items
    that shape the latency distribution; half the items are members.
    Non-members alternate between a zero and a negative Lusztig
    parameter, and the unitriangular test alternates between the lower
    and upper sides.

    Item times fall into clusters by (n, test, verdict).  With one item
    of each kind the median and the 90th percentile both sit on gaps
    between clusters and jump from run to run.  Two g members at n = 6
    (the slowest kind) put the 90th percentile inside their cluster, and
    extra g members at n = 4 and cheap non-members put the median in
    the middle of the cluster around 5 ms."""

    name = "membership"
    in_process = True
    order = [(6, "g", True), (4, "u", False), (5, "g", False), (4, "g", True),
             (4, "u", True), (6, "g", False), (5, "u", False), (4, "g", True),
             (6, "u", False), (6, "g", True), (5, "u", True), (4, "u", False),
             (6, "g", False), (4, "g", False), (5, "u", False), (4, "g", True),
             (5, "g", True), (6, "u", True)]
    cycle = len(order)
    trace_items = 108

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        _warm([(n, sign) for n in (4, 5, 6) for sign in ("lower", "upper")])

    def make_input(self, k):
        c, r = divmod(k, self.cycle)
        n, test, member = self.order[r]
        sign = ("lower", "upper")[c % 2]
        how = ("zero", "negative")[(c // 2) % 2]
        seed = derive_seed(self.seed, k)
        if test == "g":
            m = tpflag.sample_g_positive(n, seed) if member else _non_member_g(n, seed, how)
        else:
            m = _unitriangular(n, sign, seed, member, how)
        return m, test, sign, member

    def run(self, item):
        m, test, sign, _ = item
        if test == "g":
            return tpflag.is_g_positive(m)
        return tpflag.is_totally_positive_unitriangular(m, sign)

    def check(self, item, verdict):
        m, _, _, member = item
        if verdict.member != member:
            return f"verdict {verdict.member}, constructed as {member}"
        if member:
            return None
        w = verdict.witness
        value = _leibniz_det([[m.rows[r - 1][c - 1] for c in w.cols] for r in w.rows])
        if value > 0 or value != w.value:
            return f"witness minor {w.rows}x{w.cols} is {value}, reported {w.value}"
        return None


def _cli_in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tpflag.cli.main(argv)
    return code, out.getvalue()


def _fibre_element(n, seed):
    """(g, u') with g = u' v t u'^-1 in the fibre over the Borel u', the
    torus t chosen so that the implied torus point is in its domain."""
    w0 = tpflag.longest_element(range(1, n), n)
    uprime = tpflag.evaluate_params(tpflag.sample_positive(w0, "lower", derive_seed(seed, 0)),
                                    "lower", n)
    v = tpflag.evaluate_params(tpflag.sample_positive(w0, "upper", derive_seed(seed, 1)),
                               "upper", n)
    wminus = tpflag.gauss_decompose(uprime @ v).lower
    for attempt in range(48):
        rng = SplitMix64(derive_seed(seed, 2 + attempt))
        growth = Fraction(2) ** attempt
        d = [growth ** (n - i) * rng.fraction() for i in range(1, n)]
        d.append(1 / math.prod(d))
        tau = tpflag.TorusPoint(tuple(d[i] / d[i + 1] for i in range(n - 1)))
        if tpflag.torus_set_membership(wminus, uprime, tau).member:
            g = uprime @ v @ tpflag.RationalMatrix.diagonal(d) @ uprime.inverse()
            return g, uprime
    raise RuntimeError("no fibre element found")


class Cli:
    """One ``python -m tpflag`` process per item, run one at a time.

    Every call does little work next to start-up (classify runs at
    n = 3), so item times form one cluster and the 90th percentile does
    not sit in the tail of a single slow kind of call.

    Set-up writes the input files and runs each argument list once
    through ``cli.main`` in this process; an item is correct when its
    exit code and stdout JSON equal that reference.  With
    ``in_process`` the items call ``cli.main`` directly, which is how
    the traced run sees the library layers under the CLI.
    """

    name = "cli"
    cycle = 6
    trace_items = 60

    def __init__(self, seed, workdir, in_process=False):
        self.seed = seed
        self.workdir = workdir
        self.in_process = in_process
        self.calls = []

    def setup(self):
        import tpflag.cli  # noqa: F401  (part of the set-up being timed)
        d = self.workdir
        s = [derive_seed(self.seed, i) for i in range(6)]

        def write(name, matrix):
            path = str(d / name)
            with open(path, "w") as handle:
                json.dump(matrix.to_json_dict(), handle)
            return path

        def sample(kind, n, seed, name):
            path = str(d / name)
            _cli_in_process(["sample", "--kind", kind, "--n", str(n), "--seed", str(seed),
                             "--output", path])
            return path

        g_member = sample("g", 4, s[0], "g4.json")
        g_non = write("g4_non.json", _non_member_g(4, s[1], "zero"))
        g_small = sample("g", 3, s[2], "g3.json")
        g_fibre, borel = _fibre_element(3, s[3])
        g_fibre, borel = write("g_fibre.json", g_fibre), write("borel.json", borel)
        instance = sample("instance", 3, s[4], "instance.json")
        argvs = [["check", g_member, "--kind", "g"],
                 ["check", g_non, "--kind", "g"],
                 ["flag", "classify", g_small, "--J", "1"],
                 ["flag", "sigma", "--g", g_fibre, "--b", borel],
                 ["theta", "solve", "--instance", instance],
                 ["sample", "--kind", "g", "--n", "4", "--seed", str(s[5])]]
        self.calls = []
        for argv in argvs:
            code, stdout = _cli_in_process(argv)
            self.calls.append((argv, code, json.loads(stdout)))
        self.env = child_env()

    def make_input(self, k):
        return self.calls[k % self.cycle]

    def run(self, call):
        argv = call[0]
        if self.in_process:
            return _cli_in_process(argv)
        proc = subprocess.run([sys.executable, "-m", "tpflag", *argv], env=self.env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout

    def check(self, call, out):
        argv, ref_code, ref_payload = call
        code, stdout = out
        if code != ref_code:
            return f"{argv[0]}: exit code {code}, in-process {ref_code}"
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError:
            return f"{argv[0]}: stdout is not JSON"
        if payload != ref_payload:
            return f"{argv[0]}: stdout differs from the in-process result"
        return None


WORKLOADS = {w.name: w for w in (Campaign, Classify, Membership, Cli)}


def make(name, seed, workdir, in_process=False):
    if name == "cli":
        return Cli(seed, workdir, in_process)
    return WORKLOADS[name](seed, workdir)
