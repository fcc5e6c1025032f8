"""The benchmark's workloads: seeded inputs, one decision per (S, t), and the
checks each decision's output must pass.

Every workload splits its inputs into strata (field, term count, verdict) and
draws a fixed number of instances per stratum, so any seed gives the same
fields, the same share of scattered instances and nearly the same cost per
round.  A round holds one instance of every stratum slot; a workload's pool
is its rounds together, and a timed run cycles through the whole pool.

Library calls go through module attributes (``scatter.is_scattered_bruteforce``
and so on), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass

from scatterpoly import cli, criteria, field, scatter, verify
from scatterpoly.errors import WouldBeZero
from scatterpoly.linpoly import normalize, ratio_map

MAX_DRAWS = 20000


@dataclass(frozen=True)
class Item:
    """One decision: polynomial S at index t over the benchmark's own field."""

    stratum: str
    ctx: object
    poly: object
    t: int
    expected: bool
    criterion: bool = False  # a criterion is known to decide this instance
    pp: bool = False  # decided by scattered_via_pp alone


def order_filtered(ctx, bound: int) -> list[int]:
    """Discrete logs of the elements whose order divides ``bound``."""
    d = math.gcd(bound, ctx.order)
    step = ctx.order // d
    return [step * i for i in range(d)]


def poly_from_dlogs(ctx, terms):
    return normalize(ctx, [(r, ctx.element_from_dlog(k)) for r, k in terms])


def witness_failure(ctx, s, t, y, z) -> str | None:
    """Re-check a not-scattered witness with scalar arithmetic only."""
    if ratio_map(ctx, s, t, y) != ratio_map(ctx, s, t, z):
        return f"witness ({y}, {z}) has unequal ratios"
    if ctx.in_base_subfield(ctx.mul(y, ctx.inv(z))):
        return f"witness ({y}, {z}) is F_q-proportional"
    return None


def criterion_failure(verdicts, t, scattered) -> str | None:
    """Every applicable criterion verdict at t must equal the oracle's."""
    for v in verdicts:
        value = v.verdict_for_index(t) if v.applicable else None
        if value is not None and value != scattered:
            return f"criterion {v.source} says {value}, oracle says {scattered}"
    return None


def draw_until(rng, draw, accept, what: str):
    for _ in range(MAX_DRAWS):
        candidate = draw(rng)
        if accept(candidate):
            return candidate
    raise RuntimeError(f"no {what} found in {MAX_DRAWS} draws")


# ---------------------------------------------------------------------------
# check-large: CLI requests on fields of 0.8M-2M elements


def _certified_binomial(ctx, rng):
    """a1 x^(q^r1) + a2 x^(q^r2), |a2| | q^r1 - 1, gcd(r2 - r1, n) = 1."""
    n = ctx.n
    r1, r2 = draw_until(rng, lambda g: sorted(g.sample(range(1, n), 2)),
                        lambda rr: math.gcd(rr[1] - rr[0], n) == 1, "coprime pair")
    a2 = rng.choice(order_filtered(ctx, ctx.q**r1 - 1))
    terms = ((r1, rng.randrange(ctx.order)), (r2, a2))
    return poly_from_dlogs(ctx, terms), rng.choice((r1, r2))


def _rejected_binomial(ctx, rng):
    """As the certified binomial, but gcd(r2 - r1, n) > 1: not scattered."""
    n = ctx.n
    r1, r2 = draw_until(rng, lambda g: sorted(g.sample(range(1, n), 2)),
                        lambda rr: math.gcd(rr[1] - rr[0], n) > 1, "non-coprime pair")
    a2 = rng.choice(order_filtered(ctx, ctx.q**r1 - 1))
    terms = ((r1, rng.randrange(ctx.order)), (r2, a2))
    return poly_from_dlogs(ctx, terms), rng.choice((r1, r2))


def _pseudoregulus(ctx, rng):
    """a x^(q^r) at an index t with gcd(|t - r|, n) = 1: scattered."""
    n = ctx.n
    r, t = draw_until(rng, lambda g: (g.randrange(n), g.randrange(n)),
                      lambda rt: math.gcd(abs(rt[1] - rt[0]), n) == 1, "coprime index")
    return poly_from_dlogs(ctx, ((r, rng.randrange(ctx.order)),)), t


def _planted_trinomial(ctx, rng):
    """A random 3-term S with S(y)/y^(q^t) = S(z)/z^(q^t) for random y, z.

    Two coefficients are random; the third is solved for, so the collision is
    planted and S is not scattered of index t by construction.
    """
    n, order = ctx.n, ctx.order

    def draw(g):
        exps = sorted(g.sample(range(n), 3))
        t = g.randrange(n)
        y = ctx.element_from_dlog(g.randrange(order))
        z = ctx.element_from_dlog(g.randrange(order))
        a = [ctx.element_from_dlog(g.randrange(order)) for _ in range(2)]
        return exps, t, y, z, a

    def coeff_of(x_exp, w_t, x_t, w_exp):  # x^(q^r) w^(q^t) - w^(q^r) x^(q^t)
        return ctx.sub(ctx.mul(x_exp, w_t), ctx.mul(w_exp, x_t))

    while True:
        exps, t, y, z, a = draw(rng)
        if ctx.in_base_subfield(ctx.mul(y, ctx.inv(z))):
            continue
        yt, zt = ctx.frobenius(y, t), ctx.frobenius(z, t)
        c = [coeff_of(ctx.frobenius(y, r), zt, yt, ctx.frobenius(z, r)) for r in exps]
        if c[2].is_zero:
            continue
        partial = ctx.add(ctx.mul(a[0], c[0]), ctx.mul(a[1], c[1]))
        a3 = ctx.neg(ctx.mul(partial, ctx.inv(c[2])))
        if a3.is_zero:
            continue
        s = normalize(ctx, list(zip(exps, (a[0], a[1], a3))))
        if witness_failure(ctx, s, t, y, z) is not None:
            raise RuntimeError(f"planted collision failed for {s} @ {t}")
        return s, t


class Workload:
    """Set-up builds the rounds; ``decide`` makes the timed library calls."""

    name = ""
    # Divide each decision's time by the host's pace (see run.end_to_end).
    # Right for decisions that last about as long as the pace kernel or
    # longer; the least of many repeats serves shorter ones better, and
    # pacing them would mix the kernel's noise into them.
    paced = False

    def setup(self, seed: int) -> list[list[Item]]:
        raise NotImplementedError

    def decide(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, outcome) -> str | None:
        """Failure message, or None when the outcome is correct."""
        raise NotImplementedError

    def counters(self, outcome) -> dict:
        """Counts a traced run adds for this outcome."""
        return {}


class CheckLarge(Workload):
    """`scatterpoly check --mode both --output json` through ``cli.main``."""

    name = "check-large"
    paced = True  # requests take 0.1-1 s and repeat only a few times a run
    pool_rounds = 4
    plan = (
        ((7, 7), (("binomial-certified", _certified_binomial, True, True),
                  ("trinomial-planted", _planted_trinomial, False, False))),
        ((5, 9), (("binomial-certified", _certified_binomial, True, True),
                  ("binomial-rejected", _rejected_binomial, False, True))),
        ((3, 13), (("pseudoregulus", _pseudoregulus, True, True),
                   ("trinomial-planted", _planted_trinomial, False, False))),
    )

    def setup(self, seed: int) -> list[list[Item]]:
        rng = random.Random(seed)
        fields = {pn: field.build_field(pn[0], 1, pn[1]) for pn, _ in self.plan}
        rounds = []
        for _ in range(self.pool_rounds):
            items = []
            for pn, kinds in self.plan:
                ctx = fields[pn]
                for label, make, expected, decided in kinds:
                    s, t = make(ctx, rng)
                    items.append(Item(f"F_{pn[0]}^{pn[1]} {label}", ctx, s, t,
                                      expected, decided))
            rounds.append(items)
        return rounds

    def decide(self, item: Item):
        ctx = item.ctx
        argv = ["check", "--p", str(ctx.p), "--m", str(ctx.m), "--n", str(ctx.n),
                "--poly", str(item.poly), "--index", str(item.t),
                "--mode", "both", "--output", "json", "--jobs", "1"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def counters(self, outcome) -> dict:
        return {"cli.output_bytes": len(outcome[1].encode())}

    def check(self, item: Item, outcome) -> str | None:
        code, out, err = outcome
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        env = json.loads(out)
        ctx = item.ctx
        fp = env["field"]
        if (fp["modulus_encoding"], fp["gamma_encoding"]) != (
                ctx.modulus_encoding, ctx.gamma_encoding):
            return "field fingerprint differs from the benchmark's own field"
        oracle = env["results"]["oracle"]
        if oracle["scattered"] != item.expected:
            return f"oracle says {oracle['scattered']}, expected {item.expected}"
        if oracle["projective_points"] != ctx.subfield_index:
            return f"scanned {oracle['projective_points']} points"
        if env["results"]["agreement"] is False:
            return "criteria and oracle disagree"
        said = {t: v for c in env["results"]["criteria"] for t, v in c["index_verdicts"]}
        if item.criterion and said.get(item.t) != item.expected:
            return f"criterion verdict {said.get(item.t)}, expected {item.expected}"
        witness = oracle["witness"]
        if oracle["scattered"]:
            return None if witness is None else "scattered verdict carries a witness"
        y = ctx.element_from_dlog(witness["y"]["dlog"])
        z = ctx.element_from_dlog(witness["z"]["dlog"])
        return witness_failure(ctx, item.poly, item.t, y, z)


# ---------------------------------------------------------------------------
# desk-sweep: library calls on desk-scale fields


def _pp_poly(ctx, rng, k):
    """k terms above a random t, coefficient orders dividing q^t - 1."""
    n = ctx.n
    t = rng.randrange(1, n - k)
    exps = sorted(rng.sample(range(t + 1, n), k))
    pool = order_filtered(ctx, ctx.q**t - 1)
    return poly_from_dlogs(ctx, ((r, rng.choice(pool)) for r in exps)), t


def _desk_poly(ctx, rng, k):
    """k terms; the second coefficient's order divides q^r1 - 1 (r1 least)."""
    exps = sorted(rng.sample(range(ctx.n), k))
    dlogs = [rng.randrange(ctx.order)]
    if k >= 2:
        dlogs.append(rng.choice(order_filtered(ctx, ctx.q**exps[0] - 1)))
    if k >= 3:
        dlogs.append(rng.randrange(ctx.order))
    return poly_from_dlogs(ctx, zip(exps, dlogs))


class DeskSweep(Workload):
    """Criteria, oracle, reductions and coset checks on fields of 31-781
    points, plus ``scattered_via_pp`` inside its hypotheses."""

    name = "desk-sweep"
    fields = ((3, 1, 4), (3, 1, 5), (3, 1, 6), (5, 1, 3), (5, 1, 4), (5, 1, 5),
              (3, 2, 3))
    # (terms, scattered).  The scattered binomials are the certified family,
    # half at index r1 and half at r2, so each pays the same coset check (one
    # coset per projective point) whatever the seed; the other strata keep
    # the drawn instances whose oracle verdict matches.
    strata = ((1, True), (1, False), (2, True), (2, False), (3, False))
    per_stratum = 8
    # scattered_via_pp: a scattered monomial tries every rho (about q^n
    # rho transforms and permutation scans); a not-scattered binomial stops
    # early.  One of each per field keeps the permutation test a minority
    # of the pass, so the median stays among the other decisions.
    pp_fields = ((3, 5), (3, 6), (5, 4), (5, 5))
    pp_strata = ((1, True), (2, False))

    def setup(self, seed: int) -> list[list[Item]]:
        rng = random.Random(seed)
        items = []
        ctxs = {}
        for p, m, n in self.fields:
            ctx = ctxs[p, m, n] = field.build_field(p, m, n)
            for k, want in self.strata:
                label = f"F_{ctx.q}^{n} {k}-term {'scattered' if want else 'not'}"
                for slot in range(self.per_stratum):
                    if (k, want) == (2, True):
                        s, _ = _certified_binomial(ctx, rng)
                        t = s.terms[slot % 2][0]
                    else:
                        s, t = draw_until(
                            rng, lambda g: (_desk_poly(ctx, g, k), g.randrange(n)),
                            lambda st: scatter.is_scattered_bruteforce(
                                ctx, st[0], st[1]).scattered == want,
                            f"{k}-term instance with verdict {want}")
                    items.append(Item(label, ctx, s, t, want))
        for p, n in self.pp_fields:
            ctx = ctxs[p, 1, n]
            for k, want in self.pp_strata:
                s, t = draw_until(
                    rng, lambda g: _pp_poly(ctx, g, k),
                    lambda st: scatter.is_scattered_bruteforce(
                        ctx, st[0], st[1]).scattered == want,
                    f"{k}-term pp instance with verdict {want}")
                label = f"F_{ctx.q}^{n} pp {k}-term {'scattered' if want else 'not'}"
                items.append(Item(label, ctx, s, t, want, pp=True))
        rng.shuffle(items)
        return [items]

    def decide(self, item: Item):
        ctx, s, t = item.ctx, item.poly, item.t
        if item.pp:
            return scatter.scattered_via_pp(ctx, s, t)
        verdicts = criteria.applicable_criteria(ctx.params, s.dlog_terms(), t)
        report = scatter.is_scattered_bruteforce(ctx, s, t)
        reduced = None
        try:
            red_s, red_t, red = criteria.index_shift_reduction(ctx, s, t)
        except WouldBeZero:
            red = None
        if red is not None and red.applicable:
            reduced = scatter.is_scattered_bruteforce(ctx, red_s, red_t).scattered
        coset_ok = verify.coset_multipliers_consistent(ctx, s) if report.scattered else None
        return verdicts, report, reduced, coset_ok

    def check(self, item: Item, outcome) -> str | None:
        if item.pp:
            if outcome != item.expected:
                return f"scattered_via_pp says {outcome}, oracle said {item.expected}"
            return None
        verdicts, report, reduced, coset_ok = outcome
        if report.scattered != item.expected:
            return f"oracle says {report.scattered}, set-up said {item.expected}"
        failure = criterion_failure(verdicts, item.t, report.scattered)
        if failure:
            return failure
        if reduced is not None and reduced != report.scattered:
            return f"reduction changed the verdict to {reduced}"
        if coset_ok is False:
            return "coset multipliers inconsistent on a scattered instance"
        if not report.scattered:
            return witness_failure(item.ctx, item.poly, item.t, *report.witness)
        return None


WORKLOADS = {w.name: w for w in (CheckLarge, DeskSweep)}
