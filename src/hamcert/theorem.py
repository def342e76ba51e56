"""Extremal family, hypothesis checks, certification, and proof traces.

The central fact being mechanized: a k-connected graph (k >= 2) whose
chromatic number is at least n - k is Hamiltonian unless it is the one
exceptional shape, a k-clique of universal vertices joined to an
independent k-set plus an (n-2k)-clique.  certify produces a checkable
certificate for either outcome; trace_proof replays the argument step by
step against a concrete graph, asserting every intermediate claim with
exact solvers and reporting the first failure rather than crashing.
"""

from __future__ import annotations

from dataclasses import dataclass

from hamcert.graph6 import parse_graph6, to_graph6
from hamcert.graphs import (
    Graph,
    complete_graph,
    complement,
    disjoint_union,
    edgeless_graph,
    is_clique,
    is_independent_set,
    iter_bits,
    join,
    mask_of,
)
from hamcert.invariants import (
    chromatic_number,
    is_proper_coloring,
    max_clique,
    menger_fan,
    vertex_connectivity,
)
from hamcert.cycles import (
    Cycle,
    extend_case1_rotation,
    extend_offcycle,
    extend_predecessor_chord,
    find_hamiltonian_cycle,
    is_valid_cycle,
    longest_cycle,
    segments,
    successors_set,
    MAX_LONGEST_CYCLE_ORDER,
)


class HypothesisError(ValueError):
    """A required hypothesis flag does not hold; .flag names it."""

    def __init__(self, flag: str, message: str):
        super().__init__(message)
        self.flag = flag


# ---------------------------------------------------------------------------
# the extremal family


@dataclass(frozen=True)
class ExtremalPartition:
    """Vertex classes of the exceptional graph, as bitmasks.

    a: the k universal vertices (a clique joined to everything)
    b: the independent k-set whose neighborhood is exactly a
    c_part: the (n-2k)-clique whose outside neighborhood is exactly a
    """

    a: int
    b: int
    c_part: int


def build_extremal(k: int, n: int) -> Graph:
    """The exceptional graph with layout a = 0..k-1, b = k..2k-1,
    c_part = 2k..n-1."""
    if k < 2:
        raise ValueError("the join part needs k >= 2")
    if n < 2 * k + 1:
        raise ValueError("order must be at least 2k+1")
    return join(complete_graph(k), disjoint_union(edgeless_graph(k), complete_graph(n - 2 * k)))


def validate_extremal_partition(g: Graph, k: int, part: ExtremalPartition) -> list[str]:
    """Check the partition invariants directly against g; empty = valid.

    A valid partition is accepted by its class sizes and rows alone: sizes
    k, k and n - 2k >= 1 over classes that cover V partition it, and then
    a join row is V - v, an independent row is the join part and a clique
    row is the join and clique parts less v.  Only a partition that fails
    is checked again, invariant by invariant, for its problems."""
    n = g.n
    a, b, c_part = part.a, part.b, part.c_part
    full = g.vertex_mask
    if (
        a.bit_count() == k == b.bit_count()
        and c_part.bit_count() == n - 2 * k >= 1
        and a | b | c_part == full
        and g.adj == tuple(
            a if b >> v & 1 else (full if a >> v & 1 else a | c_part) ^ 1 << v for v in range(n)
        )
    ):
        return []
    problems = []
    if a.bit_count() != k:
        problems.append(f"join part has {a.bit_count()} vertices, expected {k}")
    if b.bit_count() != k:
        problems.append(f"independent part has {b.bit_count()} vertices, expected {k}")
    if c_part.bit_count() != n - 2 * k:
        problems.append("clique part has the wrong size")
    if n - 2 * k < 1:
        problems.append("order below 2k+1")
    if (a | b | c_part) != full or (a & b or a & c_part or b & c_part):
        problems.append("classes do not partition the vertex set")
        return problems
    for v in iter_bits(a):
        if g.degree(v) != n - 1:
            problems.append(f"join vertex {v} is not universal")
    if not is_independent_set(g, b):
        problems.append("independent part has an internal edge")
    for v in iter_bits(b):
        if g.adj[v] != a:
            problems.append(f"vertex {v} has neighbors outside the join part")
    if not is_clique(g, c_part):
        problems.append("clique part is not complete")
    for v in iter_bits(c_part):
        if g.adj[v] != (a | c_part) ^ (1 << v):
            problems.append(f"clique vertex {v} has neighbors outside clique+join")
    return problems


def recognize_extremal(g: Graph):
    """(k, partition) when g is exactly the exceptional shape, else None.

    Recognition is by rows, not isomorphism search: the join part A is
    precisely the universal vertices, the independent part the vertices
    whose row is A, the clique part the rest.  At n = 2k+1 the one clique
    vertex has the row A too, and any split of the other vertices into
    k + 1 works; the highest is taken as the one-vertex clique part for
    determinism.  The partition check then holds every row to its class."""
    n = g.n
    if n < 5:
        return None
    full = g.vertex_mask
    a = 0
    for v, row in enumerate(g.adj):
        if row == full ^ 1 << v:
            a |= 1 << v
    k = a.bit_count()
    if k < 2 or n < 2 * k + 1:
        return None
    rest = full ^ a
    if n == 2 * k + 1:
        top = 1 << (rest.bit_length() - 1)
        part = ExtremalPartition(a, rest ^ top, top)
    else:
        b = 0
        for v, row in enumerate(g.adj):
            if row == a:
                b |= 1 << v
        part = ExtremalPartition(a, b, rest ^ b)
    if validate_extremal_partition(g, k, part):
        return None
    return k, part


# ---------------------------------------------------------------------------
# hypothesis


@dataclass(frozen=True)
class HypothesisReport:
    n: int
    k: int
    kappa: int
    chi: int
    k_connected_ok: bool
    chi_ok: bool
    k_ge_2: bool

    @property
    def all_ok(self) -> bool:
        return self.k_connected_ok and self.chi_ok and self.k_ge_2


def _check_hypothesis_input(g: Graph, k: int) -> None:
    if g.n == 0:
        raise ValueError("hypothesis is undefined on the empty graph")
    if k < 0:
        raise ValueError("k must be non-negative")


def check_hypothesis(g: Graph, k: int) -> HypothesisReport:
    _check_hypothesis_input(g, k)
    kappa = vertex_connectivity(g)
    chi, _ = chromatic_number(g)
    return HypothesisReport(
        n=g.n,
        k=k,
        kappa=kappa,
        chi=chi,
        k_connected_ok=kappa >= k,
        chi_ok=chi >= g.n - k,
        k_ge_2=k >= 2,
    )


def _require_hypothesis(g: Graph, k: int) -> HypothesisReport:
    """The report of check_hypothesis, or HypothesisError for the first
    flag that fails; exact chi, the dearest, is computed only once the
    other two hold."""
    _check_hypothesis_input(g, k)
    if k < 2:
        raise HypothesisError("k_ge_2", f"k = {k} is below 2")
    kappa = vertex_connectivity(g)
    if kappa < k:
        raise HypothesisError("k_connected_ok", f"connectivity {kappa} is below k = {k}")
    chi, _ = chromatic_number(g)
    if chi < g.n - k:
        raise HypothesisError(
            "chi_ok",
            f"chromatic number {chi} is below n - k = {g.n - k}",
        )
    return HypothesisReport(
        n=g.n, k=k, kappa=kappa, chi=chi, k_connected_ok=True, chi_ok=True, k_ge_2=True
    )


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class Certificate:
    """Outcome of certify: exactly one payload per kind.

    kind "hamiltonian": cycle covers every vertex.
    kind "extremal": k and the validated partition.
    kind "counterexample": free-text report; must never occur if the
    theorem is true, and the harness treats any occurrence as a failure.
    """

    kind: str
    cycle: Cycle | None = None
    k: int | None = None
    partition: ExtremalPartition | None = None
    report: str | None = None


def certify(g: Graph, k: int) -> Certificate:
    """The extremal certificate when g has the exceptional shape for this
    k, else a Hamiltonian cycle, else an explicit counterexample record.

    An extremal graph is certified by its partition alone, which
    recognize_extremal has validated against g: every separator holds the
    k universal vertices A, and A itself separates, so kappa = k; A with
    the clique part is an (n - k)-clique, and the independent part reuses
    one of its colors, so chi = n - k; and g - A has k + 1 components,
    so g is not Hamiltonian.  The same facts make the shape of any other
    k fail the hypothesis for this one.  Every other graph must pass the
    hypothesis on the exact solvers, exact chi last, before its
    Hamiltonian cycle is searched.
    """
    found = recognize_extremal(g)
    if found is not None and found[0] == k:
        return Certificate(kind="extremal", k=k, partition=found[1])
    rep = _require_hypothesis(g, k)
    cycle = find_hamiltonian_cycle(g) if g.n >= 3 else None
    if cycle is not None:
        return Certificate(kind="hamiltonian", cycle=cycle)
    return Certificate(
        kind="counterexample",
        k=k,
        report=(
            f"graph {to_graph6(g)} with n={g.n} k={k} kappa={rep.kappa} "
            f"chi={rep.chi} is neither Hamiltonian nor extremal"
        ),
    )


def validate_certificate(g: Graph, cert: Certificate) -> list[str]:
    """Independent re-check of a certificate against g; empty = valid."""
    if cert.kind == "hamiltonian":
        problems = []
        if cert.cycle is None:
            return ["missing cycle payload"]
        if not is_valid_cycle(g, cert.cycle):
            problems.append("cycle is not a cycle of the graph")
        if len(cert.cycle) != g.n:
            problems.append("cycle does not cover every vertex")
        return problems
    if cert.kind == "extremal":
        if cert.partition is None or cert.k is None:
            return ["missing partition payload"]
        return validate_extremal_partition(g, cert.k, cert.partition)
    if cert.kind == "counterexample":
        return [] if cert.report else ["missing report payload"]
    return [f"unknown certificate kind {cert.kind!r}"]


def _fmt_set(mask: int) -> str:
    return ",".join(str(v) for v in iter_bits(mask)) or "-"


def _parse_set(text: str, n: int) -> int:
    if text == "-":
        return 0
    vertices = [int(part) for part in text.split(",")]
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} outside 0..{n - 1}")
    return mask_of(vertices)


def format_certificate(g: Graph, cert: Certificate) -> str:
    lines = [f"kind {cert.kind}", f"graph {to_graph6(g)}"]
    if cert.kind == "hamiltonian":
        lines.append("cycle " + ",".join(str(v) for v in cert.cycle.vertices))
    elif cert.kind == "extremal":
        lines.append(f"k {cert.k}")
        lines.append(f"part_a {_fmt_set(cert.partition.a)}")
        lines.append(f"part_b {_fmt_set(cert.partition.b)}")
        lines.append(f"part_c {_fmt_set(cert.partition.c_part)}")
    else:
        lines.append(f"report {cert.report}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> tuple[Graph, Certificate]:
    fields = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, _, value = line.partition(" ")
        fields[key] = value
    if "kind" not in fields or "graph" not in fields:
        raise ValueError("certificate needs kind and graph lines")
    g = parse_graph6(fields["graph"])
    kind = fields["kind"]

    def need(key: str) -> str:
        if key not in fields:
            raise ValueError(f"{kind} certificate needs a {key} line")
        return fields[key]

    if kind == "hamiltonian":
        cycle = Cycle(tuple(int(v) for v in need("cycle").split(",")))
        return g, Certificate(kind=kind, cycle=cycle)
    if kind == "extremal":
        part = ExtremalPartition(
            a=_parse_set(need("part_a"), g.n),
            b=_parse_set(need("part_b"), g.n),
            c_part=_parse_set(need("part_c"), g.n),
        )
        return g, Certificate(kind=kind, k=int(need("k")), partition=part)
    if kind == "counterexample":
        return g, Certificate(kind=kind, report=fields.get("report", ""))
    raise ValueError(f"unknown certificate kind {kind!r}")


# ---------------------------------------------------------------------------
# proof traces


@dataclass(frozen=True)
class TraceStep:
    index: int
    name: str
    description: str
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class ProofTrace:
    steps: tuple[TraceStep, ...]
    conclusion: str

    @property
    def all_passed(self) -> bool:
        return all(step.passed for step in self.steps)


def format_trace(trace: ProofTrace) -> str:
    lines = []
    for step in trace.steps:
        verdict = "PASS" if step.passed else "FAIL"
        tail = f" | {step.witness}" if step.witness else ""
        lines.append(f"step {step.index} {step.name} {verdict} {step.description}{tail}")
    lines.append(f"conclusion {trace.conclusion}")
    return "\n".join(lines) + "\n"


def _cycle_str(c: Cycle) -> str:
    return ",".join(str(v) for v in c.vertices)


class _Inconsistent(Exception):
    """A checked trace step failed, which ends the trace.  Not a
    ValueError, so no handler of a solver's refusal can catch it."""


def trace_proof(g: Graph, k: int) -> ProofTrace:
    """Replay the argument on g with every claim checked exactly.

    A Hamiltonian graph yields the single short-circuit step.  Otherwise
    the trace walks the contradiction argument (_trace_steps): order
    bound, longest cycle, fan, independent successor set, the forced
    equality chain, completeness off the successor set, segment
    decomposition, and the per-case closing argument.  Each claim is a
    step: record appends it, and check appends it and, when it fails,
    ends the trace with conclusion "inconsistent".  On graphs actually
    satisfying the hypothesis that never happens, and the conclusion
    names the extremal shape.
    """
    if g.n > MAX_LONGEST_CYCLE_ORDER:
        raise ValueError(
            "trace needs the exact longest cycle; order above "
            f"{MAX_LONGEST_CYCLE_ORDER} is refused rather than approximated"
        )
    chi = _require_hypothesis(g, k).chi
    steps: list[TraceStep] = []

    def record(name: str, description: str, passed: bool, witness: str = "") -> None:
        steps.append(TraceStep(len(steps) + 1, name, description, bool(passed), witness))

    def check(name: str, description: str, passed: bool, witness: str = "") -> None:
        record(name, description, passed, witness)
        if not passed:
            raise _Inconsistent

    try:
        conclusion = _trace_steps(g, k, chi, record, check)
    except _Inconsistent:
        conclusion = "inconsistent"
    return ProofTrace(tuple(steps), conclusion)


def _trace_steps(g, k, chi, record, check) -> str:
    """The steps of trace_proof on g, whose exact chromatic number is chi;
    returns the conclusion unless a check ends the trace first.  A check
    of a claim that is False on its branch (a solver's refusal, a longer
    cycle that must not exist) records that step and ends the trace."""
    n = g.n
    # the exact longest cycle answers Hamiltonicity too, from one path
    # table: on a Hamiltonian graph it is the lexicographically least
    # Hamiltonian cycle, which find_hamiltonian_cycle also returns
    c0 = longest_cycle(g)
    if len(c0) == n:
        record("hamiltonian", "graph is Hamiltonian; nothing to prove", True, _cycle_str(c0))
        return "hamiltonian"

    # (1) a non-Hamiltonian graph here cannot be this small: minimum
    # degree at least k >= n/2 would force a Hamiltonian cycle
    check("order-bound", f"n = {n} >= 2k+1 = {2 * k + 1}", n >= 2 * k + 1)

    # (2) the longest cycle and the lowest off-cycle vertex
    off0 = [v for v in range(n) if v not in c0]
    check(
        "longest-cycle",
        f"longest cycle has {len(c0)} < n vertices, off-cycle vertex exists",
        len(c0) < n and bool(off0),
        f"cycle={_cycle_str(c0)}",
    )
    x0 = off0[0]

    # (3) fan from x0: at least k internally disjoint paths to the cycle;
    # orientation normalized so the first attachment's successor is its
    # lower-numbered cycle neighbor
    try:
        fan0 = menger_fan(g, x0, c0, k)
    except ValueError as err:
        check("fan", f"fan of {k} disjoint paths from {x0}", False, str(err))
    u1 = fan0.attachments[0]
    c = c0.rotated(u1)
    if c.predecessor(u1) < c.successor(u1):
        c = c.reversed_()
    fan = menger_fan(g, x0, c, k)
    s = len(fan.paths)
    check(
        "fan",
        f"fan from x0={x0} with s={s} >= k={k} paths, attachments in cycle order",
        s >= k,
        "paths=" + ";".join(",".join(str(v) for v in p) for p in fan.paths),
    )

    # (4) the hub plus all attachment successors form an independent set
    t_mask = successors_set(c, fan)
    check(
        "independent-successors",
        "x0 and the attachment successors are pairwise non-adjacent",
        is_independent_set(g, t_mask),
        f"set={_fmt_set(t_mask)}",
    )

    # (5) the counting chain pins every invariant exactly
    gc = complement(g)
    alpha = omega_c = max_clique(gc).bit_count()  # alpha(g) is omega(complement)
    chi_c = chromatic_number(gc)[0]
    check(
        "equality-chain",
        f"chi = n-k = {n - k}, alpha = omega(complement) = chi(complement) = k+1 = {k + 1}",
        chi == n - k and alpha == k + 1 and omega_c == k + 1 and chi_c == k + 1,
        f"chi={chi} alpha={alpha} omega_c={omega_c} chi_c={chi_c}",
    )

    # (6) everything off the (k+1)-element successor set is complete
    s_mask = (1 << x0) | mask_of(c.successor(u) for u in fan.attachments[:k])
    rest_mask = g.vertex_mask ^ s_mask
    check(
        "off-set-complete",
        "the n-k-1 vertices outside {x0, u_i^+} induce a complete graph",
        is_clique(g, rest_mask),
        f"set={_fmt_set(rest_mask)}",
    )

    # (7) segment decomposition over the first k attachments
    try:
        decomp = segments(c, fan, k)
    except ValueError as err:
        check("segments", "segment decomposition of the cycle", False, str(err))
    big = sorted(decomp.big_segment_indices)
    record(
        "segments",
        f"{k} segments, {len(big)} of length >= 2; case {min(len(big), 2)}",
        True,
        "sizes=" + ",".join(str(len(t)) for t in decomp.segments),
    )

    off_rest = [v for v in off0 if v != x0]
    if len(big) < 2 and off_rest:
        # a second off-cycle vertex: the absorb step fails and ends the trace
        _trace_absorb(g, c, fan, x0, off_rest, record, check, f"case{len(big)}")
    if len(big) == 0:
        return _trace_case0(g, k, c, fan, check)
    if len(big) == 1:
        return _trace_case1(g, k, c, fan, decomp, big[0], x0, check)
    # two or more long segments: the chord between their terminal
    # predecessors is forced by completeness, so a longer cycle exists,
    # contradicting the longest cycle; reaching here means inconsistency
    out = extend_predecessor_chord(g, c, fan)
    if out is not None:
        check(
            "case2-chord",
            "forced predecessor chord yields a longer cycle, contradicting maximality",
            False,
            f"longer={_cycle_str(out)}",
        )
    check(
        "case2-chord",
        "completeness guarantees the predecessor chord, but no extension fired",
        False,
    )


def _trace_absorb(g, c, fan, x0, off_rest, record, check, case):
    """With two or more off-cycle vertices the off-cycle part is
    complete, so x0 reaches the cycle through a neighbor z and the
    absorb rule must fire: a longer cycle, which cannot exist.  The
    absorb step fails either way and ends the trace."""
    off_mask = (1 << x0) | mask_of(off_rest)
    record(
        f"{case}-offcycle-complete",
        "vertices off the cycle induce a complete graph",
        is_clique(g, off_mask),
        f"set={_fmt_set(off_mask)}",
    )
    z = off_rest[0]
    out = extend_offcycle(g, c, fan, z)
    if out is not None:
        check(
            f"{case}-absorb",
            "absorbing z produced a longer cycle, contradicting maximality",
            False,
            f"z={z} longer={_cycle_str(out)}",
        )
    check(f"{case}-absorb", "the guaranteed absorb extension did not materialize", False, f"z={z}")


def _trace_close(g, k, check, case, longer, description, conclusion) -> str:
    """The closing steps of cases 0 and 1: no extension rule fires on the
    longest cycle (longer is the witness of one that did, empty if none
    did), and g is recognized as extremal for k, the structure step
    described by description.  Returns conclusion."""
    check(
        f"{case}-extensions-absent",
        "no extension rule fires on the longest cycle",
        not longer,
        longer,
    )
    found = recognize_extremal(g)
    okay = found is not None and found[0] == k
    check(
        f"{case}-structure",
        description,
        okay,
        "" if not okay else (
            f"a={_fmt_set(found[1].a)} b={_fmt_set(found[1].b)} c={_fmt_set(found[1].c_part)}"
        ),
    )
    return conclusion


def _trace_case0(g, k, c, fan, check) -> str:
    n = g.n
    check(
        "case0-order",
        f"cycle covers 2k vertices and only x0 is off, so n = 2k+1 = {2 * k + 1}",
        len(c) == 2 * k and n == 2 * k + 1,
        f"|C|={len(c)}",
    )

    # the k attachments must be universal: each has degree n-1
    att = fan.attachments[:k]
    check(
        "case0-saturation",
        "every attachment is adjacent to all other vertices",
        all(g.degree(u) == n - 1 for u in att),
        "degrees=" + ",".join(str(g.degree(u)) for u in att),
    )

    # no extension applies to the maximal cycle
    chord = extend_predecessor_chord(g, c, fan)
    return _trace_close(
        g, k, check, "case0", "" if chord is None else f"longer={_cycle_str(chord)}",
        "graph is the k-join of an independent (k+1)-set", "extremal (n = 2k+1)",
    )


def _trace_case1(g, k, c, fan, decomp, big_index, x0, check) -> str:
    n = g.n
    seg = decomp.segments[big_index - 1]
    ys = seg[:-1]
    r = len(ys)
    check(
        "case1-order",
        f"one long segment with r = {r} interior vertices, so n = 2k+1+r >= 2k+2",
        r >= 1 and n == 2 * k + 1 + r,
        f"segment={','.join(str(v) for v in seg)}",
    )

    # attachments and successors relative to the long segment being first
    att = fan.attachments[:k]
    rot = big_index - 1
    att_rot = att[rot:] + att[:rot]
    u1_succ = c.successor(att_rot[0])
    other_succ = [c.successor(u) for u in att_rot[1:]]

    # descending chain over the segment interior: at each position the
    # two rewiring edges must be absent (else a longer cycle) and the
    # fallback edge to the first successor forced (else an independent
    # set of size k+2); the rotation rule's inputs are 1-based positions
    # within the segment, and it checks position j+1's backward neighbor j
    for j in range(r, 0, -1):
        y_j = ys[j - 1]
        rewired = g.has_edge(x0, y_j) or any(g.has_edge(w, y_j) for w in other_succ)
        forced = g.has_edge(u1_succ, y_j)
        rule_fired = None if j == r else extend_case1_rotation(g, c, fan, j + 1)
        witness = f"y_{j}={y_j} forced_edge={u1_succ}-{y_j}"
        if rule_fired is not None:
            witness += f" longer={_cycle_str(rule_fired)}"
        if not forced:
            bad = (1 << x0) | mask_of(other_succ) | (1 << y_j) | (1 << u1_succ)
            witness += f" independent_k_plus_2={_fmt_set(bad)}"
        check(
            "case1-propagate",
            f"position {j}: no rewiring edge, successor edge forced",
            not rewired and forced and rule_fired is None,
            witness,
        )

    # hub successor must reach every attachment, else an explicit proper
    # coloring with n-k-1 colors exists, contradicting chi = n-k
    missing = [u for u in att if not g.has_edge(u1_succ, u)]
    if missing:
        coloring = _case1_contradiction_coloring(g, k, x0, u1_succ, other_succ, ys[0], missing[0])
        check(
            "case1-hub-clique",
            "the first successor misses an attachment; the explicit small "
            "coloring certifies the contradiction",
            False,
            f"missing={missing} coloring_valid={coloring is not None}",
        )
    check(
        "case1-hub-clique",
        "the first successor is adjacent to every attachment",
        True,
        f"u1_succ={u1_succ}",
    )

    fired = extend_predecessor_chord(g, c, fan) is not None or any(
        extend_case1_rotation(g, c, fan, y_index) is not None for y_index in range(1, r + 1)
    )
    return _trace_close(
        g, k, check, "case1", "longer cycle found" if fired else "",
        "graph is the extremal join shape with a nontrivial clique part", "extremal (n >= 2k+2)",
    )


def _case1_contradiction_coloring(g, k, x0, u1_succ, other_succ, y1, missed):
    """The explicit coloring used when the first successor u1_succ misses
    the attachment missed, on case 1's rotated view: distinct colors off
    the successor set, u1_succ reuses missed's color, and the hub x0 and
    the other successors other_succ reuse the color of y1, the first
    interior vertex of the long segment.  Returns the assignment when it
    is proper with n-k-1 colors, else None."""
    n = g.n
    shared = [x0, *other_succ]
    own = [v for v in range(n) if v != u1_succ and v not in shared]
    color = {v: i for i, v in enumerate(own)}
    color[u1_succ] = color[missed]
    color.update(dict.fromkeys(shared, color[y1]))
    assignment = tuple(color[v] for v in range(n))
    if len(set(assignment)) == n - k - 1 and is_proper_coloring(g, assignment):
        return assignment
    return None
