"""Output checks for every op, with reference values computed independently of the program.

The references use plain numpy on dense arrays and never call into
`dirichlet_hardy`: primes come from a boolean sieve, multiplicative functions
from per-prime valuations, pseudomoments from dense strided convolution or a
Moebius sum over all pairs, and the coefficient-functional constants from a
separate minimisation. They run after the timed phase.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import FUZZ_RECORDS_PER_CASE, MC_SAMPLES

MC_SLACK_SIGMA = 5.0  # a correct engine with a different stream must not fail by chance
EXACT_RTOL = 1e-12


def primes_upto(n: int) -> np.ndarray:
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for q in range(2, math.isqrt(n) + 1):
        if is_prime[q]:
            is_prime[q * q :: q] = False
    return np.nonzero(is_prime)[0]


def series_coefficient(e: int, alpha: float) -> float:
    """Coefficient of z^e in (1 - z)^(-alpha)."""
    value = 1.0
    for l in range(1, e + 1):
        value *= (alpha + l - 1) / l
    return value


def prime_power_table(n: int, per_exponent, combine, start: float) -> np.ndarray:
    """out[m] = combine over p^e || m, primes ascending, of per_exponent[e]; out[0] unused."""
    out = np.full(n + 1, start)
    for q in primes_upto(n):
        multiples = np.arange(q, n + 1, q)
        e = np.ones(multiples.size, dtype=np.int64)
        rest = multiples // q
        while True:
            more = rest % q == 0
            if not more.any():
                break
            e += more
            rest = np.where(more, rest // q, rest)
        out[multiples] = combine(out[multiples], np.asarray(per_exponent)[e])
    return out


def divisor_values(n: int, alpha: float) -> np.ndarray:
    """d_alpha(m) for 0 <= m <= n (index 0 unused)."""
    coeffs = [series_coefficient(e, alpha) for e in range(int(math.log2(max(n, 2))) + 2)]
    return prime_power_table(n, coeffs, np.multiply, 1.0)


def mobius_values(n: int) -> np.ndarray:
    return prime_power_table(n, [1.0, -1.0] + [0.0] * int(math.log2(max(n, 2))), np.multiply, 1.0)


def dense_convolve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dirichlet convolution of dense coefficient arrays indexed from 0 (index 0 unused)."""
    X, Y = x.size - 1, y.size - 1
    out = np.zeros(X * Y + 1)
    for d in range(1, X + 1):
        if x[d]:
            out[d : d * Y + 1 : d] += x[d] * y[1:]
    return out


def zeta_coefficients(N: int, alpha: float, d: np.ndarray | None = None) -> np.ndarray:
    """d_alpha(n) n^(-1/2) for n <= N; `d` may hold d_alpha precomputed to at least N."""
    a = np.zeros(N + 1)
    a[1:] = np.arange(1, N + 1, dtype=float) ** -0.5
    if alpha != 1.0:
        a *= (divisor_values(N, alpha) if d is None else d)[: N + 1]
    return a


def psi_dense(N: int, k: int, alpha: float, d: np.ndarray | None = None) -> float:
    """Psi_{k,alpha}(N): sum of squared coefficients of the k-th convolution power."""
    a = zeta_coefficients(N, alpha, d)
    power = a
    for _ in range(k - 1):
        power = dense_convolve(power, a)
    return math.fsum(power[1:] ** 2)


def psi_pairs(N: int, mu: np.ndarray | None = None) -> float:
    """Psi_{2,1}(N) by Moebius inversion over all pairs rather than over max(u, v).

    Psi = sum over coprime (u, v) of H(N / max(u, v))^2 / (uv)
        = sum_e mu(e)/e^2 sum_m H(N / (e m))^2 P(m), with P(m) = H(m)^2 - H(m-1)^2.
    `mu` may hold the Moebius function precomputed to at least N.
    """
    m = np.arange(1, N + 1, dtype=float)
    H = np.zeros(N + 1)
    H[1:] = np.cumsum(1.0 / m)
    P = np.zeros(N + 1)
    P[1:] = (2.0 * H[1:] - 1.0 / m) / m
    mu = (mobius_values(N) if mu is None else mu)[: N + 1]
    es = np.nonzero(mu[1:])[0] + 1
    counts = N // es
    e_rep = np.repeat(es, counts)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    m_rep = np.arange(e_rep.size) - offsets + 1
    terms = mu[e_rep] / e_rep.astype(float) ** 2 * H[N // (e_rep * m_rep)] ** 2 * P[m_rep]
    return math.fsum(terms)


def psi_l2(N: int, alpha: float, d: np.ndarray | None = None) -> float:
    d = (divisor_values(N, alpha) if d is None else d)[1 : N + 1]
    return math.fsum(d * d / np.arange(1, N + 1))


def _dilation_objective(x: float, k: int, p: float) -> float:
    return x ** (-k / 2) * (1 - x) ** (1 / x - 1 / p)


def functional_bound(k: int, p: float) -> float:
    """Upper bound on C(k, p), 0 < p < 1: the smaller of the dilation and binomial bounds."""
    lo, hi = p, 1 - 1e-9
    xs = np.linspace(lo, hi, 8193)
    vals = xs ** (-k / 2) * (1 - xs) ** (1 / xs - 1 / p)
    i = int(np.argmin(vals))
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]
    while b - a > 1e-12:
        third = (b - a) / 3
        if _dilation_objective(a + third, k, p) < _dilation_objective(b - third, k, p):
            b -= third
        else:
            a += third
    minimised = min(_dilation_objective((a + b) / 2, k, p), _dilation_objective(lo, k, p))
    return min(minimised, math.sqrt(series_coefficient(k, math.ceil(2 / p))))


class CnpReference:
    """Running maximum of log C(n, p) / (log n / log log n) over 2 <= n <= X."""

    def __init__(self, X: int, p: float):
        top = int(math.log2(X)) + 1
        closed_form = math.sqrt(2 / p) * (1 - p / 2) ** (1 / p - 0.5)
        log_bound = [0.0, math.log(closed_form)] + [
            math.log(functional_bound(e, p)) for e in range(2, top + 1)
        ]
        log_c = prime_power_table(X, log_bound, np.add, 0.0)
        n = np.arange(3, X + 1, dtype=float)
        ratio = np.full(X + 1, -np.inf)
        ratio[2] = log_c[2] / (math.log(2) / math.log(math.log(2)))
        ratio[3:] = log_c[3:] / (np.log(n) / np.log(np.log(n)))
        self.running_max = np.maximum.accumulate(ratio)

    def value(self, X: int) -> float:
        return float(self.running_max[X])


def relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


class Checker:
    """Checks op outputs; `check` returns None when an output is correct, else the reason."""

    def __init__(self, workload: str, ops):
        self.workload = workload
        self._l2 = {}
        # tables shared by all ops of a run, each sized for the largest op that needs it
        top = {}
        for op in ops:
            size = op.params.get("N", op.params.get("size", 1))
            top[op.kind] = max(top.get(op.kind, 1), size)
        self._divisors = divisor_values(max(top.get("norm", 1), top.get("psi-conv-k2", 1),
                                            top.get("psi-l2", 1)), 1.5)
        self._mu = mobius_values(top["psi-pair"]) if "psi-pair" in top else None
        self._cnp = CnpReference(top["cnp"], 0.5) if "cnp" in top else None

    def check(self, op, exit_code: int | None, text: str | None) -> str | None:
        if exit_code != 0:
            return f"exit code {exit_code}"
        try:
            records = json.loads(text)["records"]
            return getattr(self, "_check_" + self.workload)(op, records)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"malformed output: {exc!r}"

    def _mc_l2_squared(self, generator: str, N: int) -> float:
        key = (generator, N)
        if key not in self._l2:
            n = np.arange(1, N + 1, dtype=float)
            if generator == "zeta":
                sq = 1.0 / n
            elif generator == "zeta-power":
                sq = self._divisors[1 : N + 1] ** 2 / n
            else:  # fractional-primitive, beta = 1
                sq = np.concatenate([[1.0], 1.0 / (n[1:] * np.log(n[1:]) ** 2)])
            self._l2[key] = math.fsum(sq)
        return self._l2[key]

    def _check_mc_dense(self, op, records) -> str | None:
        if len(records) != 1:
            return f"{len(records)} records, expected 1"
        rec = records[0]
        p, N = op.params["p"], op.params["N"]
        if rec["params"]["method"] != "monte_carlo" or rec["params"]["samples"] != MC_SAMPLES:
            return f"unexpected params {rec['params']}"
        if rec["extra"]["support_size"] != N:
            return f"support {rec['extra']['support_size']}, expected {N}"
        power_mean = rec["value"] ** p
        slack = MC_SLACK_SIGMA * rec["std_error"] + 1e-10 * max(1.0, power_mean)
        report = rec["extra"]["hl_report"]
        if p >= 2 and not power_mean <= report["upper_sum"] ** (p / 2) + slack:
            return f"estimate {power_mean} above the upper weighted sum"
        if p <= 2:
            for key in ("lower_sum", "squarefree_sum"):
                if not report[key] ** (p / 2) <= power_mean + slack:
                    return f"estimate {power_mean} below the {key}"
        l2_power = self._mc_l2_squared(op.params["generator"], N) ** (p / 2)
        if p < 2 and not power_mean <= l2_power + slack:
            return f"estimate {power_mean} above the exact l2 bound {l2_power}"
        if p > 2 and not power_mean >= l2_power - slack:
            return f"estimate {power_mean} below the exact l2 bound {l2_power}"
        return None

    def _check_fuzz_sparse(self, op, records) -> str | None:
        expected = FUZZ_RECORDS_PER_CASE * op.params["corpus"] + 1
        if len(records) != expected:
            return f"{len(records)} records, expected {expected}"
        summary = records[-1]["extra"]
        if summary["summary"]["violation"] or summary["violations"]:
            return f"violations: {summary['violations']}"
        return None

    def _check_exact_moments(self, op, records) -> str | None:
        size = op.params["size"]
        if op.kind == "psi-conv-k2":
            reference = psi_dense(size, 2, 1.5, self._divisors)
        elif op.kind == "psi-conv-k3":
            reference = psi_dense(size, 3, 1.0)
        elif op.kind == "psi-pair":
            reference = psi_pairs(size, self._mu)
        elif op.kind == "psi-l2":
            reference = psi_l2(size, 1.5, self._divisors)
        else:
            reference = self._cnp.value(size)
        err = relative_error(records[0]["value"], reference)
        if not err <= EXACT_RTOL:
            return f"value {records[0]['value']} vs reference {reference}: relative error {err:.3e}"
        return None


def records_text(text: str) -> str:
    """The records of a result document, re-serialised for byte comparison."""
    return json.dumps(json.loads(text)["records"], sort_keys=True)
