"""Reference values computed without hodgespec.

Everything here works on plain Python data: a rational number is a reduced
``(num, den)`` pair, a spectrum is a ``{(num, den): mult}`` dict and a class
is a ``{(evs, p, q): mult}`` dict whose ``evs`` is a tuple of residue pairs
in [0, 1).  ``fractions.Fraction`` appears only as a sort key.  The
renderers follow the text format documented in the README, so CLI output
can be compared byte for byte.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm


def rat(num: int, den: int = 1):
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def res(num: int, den: int):
    """Residue of num/den in [0, 1) as a reduced pair."""
    return rat(num % den, den)


def _merge(into: dict, key, mult: int) -> None:
    new = into.get(key, 0) + mult
    if new:
        into[key] = new
    else:
        into.pop(key, None)


# ---------------------------------------------------------------------------
# Rendering (README "Rendering" section).
# ---------------------------------------------------------------------------


def render_rat(r) -> str:
    num, den = r
    return str(num) if den == 1 else f"{num}/{den}"


def render_terms(items, mono) -> str:
    if not items:
        return "0"
    parts = []
    for i, (key, mult) in enumerate(items):
        mag = abs(mult)
        body = mono(key) if mag == 1 else f"{mag}*{mono(key)}"
        if i == 0:
            parts.append(body if mult > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if mult > 0 else f" - {body}")
    return "".join(parts)


def _fkey(r):
    return Fraction(*r)


def render_spectrum(sp: dict) -> str:
    items = sorted(sp.items(), key=lambda kv: _fkey(kv[0]))
    return render_terms(items, lambda r: f"t^({render_rat(r)})")


def _class_sort_key(key):
    evs, p, q = key
    return (tuple(_fkey(e) for e in evs), p, q)


def render_class(cls: dict) -> str:
    items = sorted(cls.items(), key=lambda kv: _class_sort_key(kv[0]))

    def mono(key):
        evs, p, q = key
        return f"({','.join(render_rat(e) for e in evs)};{p},{q})"

    return render_terms(items, mono)


# ---------------------------------------------------------------------------
# Spectra in closed form.
# ---------------------------------------------------------------------------


def join_spectrum(exponents) -> dict:
    """Multiset {sum k_i / a_i : 1 <= k_i < a_i}: the spectrum of
    x_1^a_1 + ... + x_d^a_d."""
    L = lcm(*exponents)
    steps = [L // a for a in exponents]
    counts: dict[int, int] = {0: 1}
    for a, step in zip(exponents, steps):
        nxt: dict[int, int] = {}
        for s, c in counts.items():
            for k in range(1, a):
                v = s + k * step
                nxt[v] = nxt.get(v, 0) + c
        counts = nxt
    return {rat(v, L): c for v, c in counts.items()}


def d_curve_spectrum(N: int) -> dict:
    """Spectrum of the weighted-homogeneous germ x^2 y + y^N.

    Weights w_x = (N-1)/(2N), w_y = 1/N; the Milnor algebra has the monomial
    basis 1, y, ..., y^(N-1), x, and a basis monomial x^i y^j contributes the
    exponent (i+1) w_x + (j+1) w_y.
    """
    out: dict = {}
    for j in range(N):
        _merge(out, rat(N + 1 + 2 * j, 2 * N), 1)
    _merge(out, (1, 1), 1)
    return out


def check_local_invariants(sp: dict, dim: int, milnor: int) -> None:
    """Symmetry about dim/2, support in (0, dim), total multiplicity = mu."""
    for (num, den), mult in sp.items():
        if not 0 < num < dim * den:
            raise AssertionError(f"exponent {num}/{den} outside (0, {dim})")
        if sp.get(rat(dim * den - num, den)) != mult:
            raise AssertionError(f"spectrum not symmetric about {dim}/2 at {num}/{den}")
    if sum(sp.values()) != milnor:
        raise AssertionError(f"total multiplicity {sum(sp.values())} != Milnor number {milnor}")


def spectrum_add(x: dict, y: dict, sign: int = 1) -> dict:
    out = dict(x)
    for k, m in y.items():
        _merge(out, k, sign * m)
    return out


# ---------------------------------------------------------------------------
# Classes: products, torus fibers, truncated zeta expansions.
# ---------------------------------------------------------------------------


def class_mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for (e1, p1, q1), m1 in x.items():
        for (e2, p2, q2), m2 in y.items():
            evs = tuple(res(a[0] * b[1] + b[0] * a[1], a[1] * b[1]) for a, b in zip(e1, e2))
            _merge(out, (evs, p1 + p2, q1 + q2), m1 * m2)
    return out


def class_shift(x: dict, k: int) -> dict:
    """Multiply by L^k."""
    return {(evs, p + k, q + k): m for (evs, p, q), m in x.items()}


def row_fiber_class(row) -> dict:
    """Arity-1 class of the fiber {prod y_j^(a_j) = 1} in (G_m)^k.

    With d = gcd(a) the fiber has d components, each a (k-1)-torus, and the
    monodromy permutes them cyclically: sum over c < d of the eigenvalue
    c/d, times (L - 1)^(k-1).
    """
    d = 0
    for a in row:
        d = gcd(d, a)
    out = {((res(c, d),), 0, 0): 1 for c in range(d)}
    torus = {(((0, 1),), 1, 1): 1, (((0, 1),), 0, 0): -1}
    for _ in range(len(row) - 1):
        out = class_mul(out, torus)
    return out


def square_fiber_eigen(M) -> dict:
    """Eigenvalue multiset of the fiber of an upper-triangular square
    exponent matrix, by characters of Z^m / M^T Z^m.

    The fiber is the finite group M^(-1) Z^m / Z^m; its characters are
    w in Z^m modulo M^T Z^m, a box [0, M_ii) when M is upper triangular,
    and the i-th monodromy eigenvalue of w is (w^T M^(-1))_i mod 1,
    computed through the adjugate.
    """
    m = len(M)
    if m != 2 or M[1][0] != 0:
        raise ValueError("only upper-triangular 2x2 matrices are supported")
    (a, b), (_, c) = M
    det = a * c
    adj = [[c, -b], [0, a]]
    out: dict = {}
    for w in itertools.product(range(a), range(c)):
        evs = tuple(res(sum(w[k] * adj[k][i] for k in range(m)), det) for i in range(m))
        _merge(out, (evs, 0, 0), 1)
    return out


def datum_stratum_classes(data: dict) -> list:
    """(components, arity-1 cover class) for each stratum of a one-function
    datum in its JSON form."""
    ng = {c["id"]: c["Ng"] for c in data["components"]}
    out = []
    for st in data["strata"]:
        comps = st["components"]
        cover = st.get("cover", "split")
        if cover == "split":
            base = {}
            for p, q, mult in st["base_class"]:
                _merge(base, (((0, 1),), p, q), mult)
            cls = class_mul(base, row_fiber_class([ng[c] for c in comps]))
        else:
            cls = {}
            for (num, den), p, q, mult in cover["explicit"]:
                _merge(cls, ((res(num, den),), p, q), mult)
        out.append((comps, cls))
    return out


def zeta_closed_render(data: dict) -> str:
    """Render of the zeta function as a sum of generator products; strata
    with the same generator multiset share one term."""
    comp = {c["id"]: c for c in data["components"]}
    terms: dict = {}
    for comps, cls in datum_stratum_classes(data):
        factors = tuple(sorted((-comp[c]["nu"], comp[c]["Ng"]) for c in comps))
        cur = terms.setdefault(factors, {})
        for k, m in cls.items():
            _merge(cur, k, m)
    parts = []
    for factors, cls in sorted(terms.items()):
        if not cls:
            continue
        gens = "*".join(f"p({e},{j})" for e, j in factors) or "1"
        parts.append(f"({render_class(cls)})*{gens}")
    return " + ".join(parts) if parts else "0"


def zeta_truncated(data: dict, n: int) -> dict:
    """{degree: class} of the zeta function through T^n, by enumerating
    for each stratum the exponent vectors m >= 1 of its generators
    L^(-nu_i m_i) T^(N_i m_i)."""
    comp = {c["id"]: c for c in data["components"]}
    out: dict[int, dict] = {}
    for comps, cls in datum_stratum_classes(data):
        Ns = [comp[c]["Ng"] for c in comps]
        nus = [comp[c]["nu"] for c in comps]
        for ms in _positive_vectors(Ns, n):
            deg = sum(a * b for a, b in zip(Ns, ms))
            shifted = class_shift(cls, -sum(a * b for a, b in zip(nus, ms)))
            cur = out.setdefault(deg, {})
            for k, m in shifted.items():
                _merge(cur, k, m)
    return {d: c for d, c in out.items() if c}


def _positive_vectors(weights, budget):
    """All m >= 1 (componentwise) with sum weights_i m_i <= budget."""
    if not weights:
        yield ()
        return
    w, rest = weights[0], weights[1:]
    floor_rest = sum(rest)
    k = 1
    while w * k + floor_rest <= budget:
        for tail in _positive_vectors(rest, budget - w * k):
            yield (k,) + tail
        k += 1


def render_truncated(poly: dict) -> str:
    if not poly:
        return "0"
    return " + ".join(f"({render_class(poly[d])})*T^{d}" for d in sorted(poly))


def lattice_points(weights, budget) -> int:
    """Number of m >= 1 with sum weights_i m_i <= budget."""
    return sum(1 for _ in _positive_vectors(list(weights), budget))


def minor_gcd(M) -> int:
    """gcd of the maximal minors of a full-row-rank integer matrix, which is
    the product of its elementary divisors."""
    r, m = len(M), len(M[0])
    g = 0
    for cols in itertools.combinations(range(m), r):
        g = gcd(g, _det([[M[i][j] for j in cols] for i in range(r)]))
    return g


def _det(A) -> int:
    n = len(A)
    if n == 1:
        return A[0][0]
    if n == 2:
        return A[0][0] * A[1][1] - A[0][1] * A[1][0]
    return sum(
        (-1) ** j * A[0][j] * _det([row[:j] + row[j + 1:] for row in A[1:]]) for j in range(n)
    )


def pivot_minor(M) -> int:
    """|det| of the submatrix on the leftmost independent columns.

    Exact solutions of M x = e_i with free variables set to 0 have
    denominators dividing it, and so does every elementary divisor; it
    bounds the root order a root-of-unity enumeration needs.
    """
    r, m = len(M), len(M[0])
    cols: list[int] = []
    for j in range(m):
        trial = cols + [j]
        k = len(trial)
        if any(_det([[M[i][c] for c in trial] for i in rows]) for rows in itertools.combinations(range(r), k)):
            cols = trial
        if len(cols) == r:
            break
    if len(cols) < r:
        return 0
    return abs(_det([[M[i][c] for c in cols] for i in range(r)]))


def root_order(M) -> int:
    """Least Q such that Q-th roots of unity carry every torus-fiber
    character and monodromy of a full-rank 1- or 2-row matrix: the lcm of
    the elementary divisors and of the denominators of the solutions of
    M x = e_i on the leftmost independent columns (free variables 0)."""
    r, m = len(M), len(M[0])
    if r == 1:
        return abs(next(a for a in M[0] if a))
    g = 0
    for row in M:
        for a in row:
            g = gcd(g, a)
    j1 = next(j for j in range(m) if M[0][j] or M[1][j])
    j2 = next(j for j in range(j1 + 1, m) if _det([[M[0][j1], M[0][j]], [M[1][j1], M[1][j]]]))
    (b00, b01), (b10, b11) = [[M[i][j1], M[i][j2]] for i in range(2)]
    det = b00 * b11 - b01 * b10
    q = lcm(g, minor_gcd(M) // g)
    for x in (b11, -b10, -b01, b00):
        q = lcm(q, abs(det) // gcd(x, det))
    return q


# ---------------------------------------------------------------------------
# Cones: lattice points of open unimodular cones.
# ---------------------------------------------------------------------------


def unimodular_series(G, ell, nu, n: int) -> dict:
    """{degree: arity-0 class} summing T^(l(k)) L^(-nu(k)) over the lattice
    points k = sum c_g g (all c_g >= 1) of the open cone on the rows G."""
    lg = [sum(a * b for a, b in zip(ell, g)) for g in G]
    ng = [sum(a * b for a, b in zip(nu, g)) for g in G]
    out: dict[int, dict] = {}
    for cs in _positive_vectors(lg, n):
        deg = sum(a * b for a, b in zip(lg, cs))
        s = -sum(a * b for a, b in zip(ng, cs))
        _merge(out.setdefault(deg, {}), ((), s, s), 1)
    return {d: c for d, c in out.items() if c}
