"""Reference implementations that the tests check the package against.

Nothing in the package calls these.  Each is a route to a value, or a law,
that does not go through the code it is used to check:

* :func:`poisson_cdf`: P(Po(rate) <= k) in floats, term by term, against
  ``exact.poisson_partial_sum`` and the w_j of ``laws.omega``.
* :func:`multinomial` and :func:`component_pair_moment`: the product form of
  E C~_i C~_j from the single-component probabilities, which count
  connected mappings in integers, against ``laws.factorial_moment``, which
  multiplies Poisson-partial-sum intensities.
* :func:`core_size_tail_std`: P(core >= j) of a standard mapping as one
  falling factorial, against sums of ``laws.core_size_pmf``.
* :func:`core_identity_sides`: both sides of the core/derangement identity
  that collapses core-conditioned sums into the closed cycle means.
* :func:`scream_pmf_alternating`: the scream law as one alternating sum
  per k, against ``laws.scream_pmf``, which runs a three-term recurrence
  over k.
* :func:`no_scream_fraction`: P(no screaming pair) summed by Horner's rule
  over 2**J J! (n-1)**(2J), against ``laws.prob_someone_screams``, which
  sums the l-matchings over (n-1)**(2J) by binary splitting.
* :func:`derangement_two_cycle_pmf`, :func:`derangement_cycle_type_pmf` and
  :func:`derangement_mean_cycle_count`: the laws of a uniform random
  derangement, against enumeration and the core-joint route's derangement
  draw, and, mixed over ``laws.core_size_law``, against the toes cycle
  means and the no-repeated-cycle probability.
* :func:`rising_factorial`, :func:`esf_pmf` and :func:`esf_mean_cycle_count`:
  the Ewens sampling formula, against the rejection sampler's ESF(1/2)
  proposals.
* :func:`decompose_image`: a scalar walk of a function's graph, one element
  at a time, against ``samplers.decompose_batch``, which squares the
  successor map and doubles pointers on the core; it also decomposes the
  mappings whose enumeration the brute-force golden digests were pinned on.
"""

import math
from fractions import Fraction
from typing import Iterable

from screamingtoes import laws
from screamingtoes.exact import derangement_number, falling_factorial


def poisson_cdf(rate: float, k: int) -> float:
    """P(Po(rate) <= k) in floating point by scaled term accumulation.

    Terms are built iteratively from t_0 = e**(-rate) via
    t_{l+1} = t_l * rate/(l+1), which never forms rate**l or l! directly.
    For rate > 700 the accumulation runs in log space (streaming
    log-sum-exp), exponentiating only the final result, since e**(-rate)
    underflows double precision.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if k < 0:
        return 0.0
    if rate <= 700:
        term = math.exp(-rate)
        total = term
        for i in range(1, k + 1):
            term *= rate / i
            total += term
        return min(total, 1.0)
    log_rate = math.log(rate)
    log_term = -rate
    best = log_term
    scaled = 1.0
    for i in range(1, k + 1):
        log_term += log_rate - math.log(i)
        if log_term > best:
            scaled = scaled * math.exp(best - log_term) + 1.0
            best = log_term
        else:
            scaled += math.exp(log_term - best)
    return min(math.exp(best + math.log(scaled)), 1.0)


def multinomial(n: int, *groups: int) -> int:
    """n! / (g_1! ... g_k! (n - sum g_i)!); 0 when the groups do not fit in n."""
    if n < 0 or any(g < 0 for g in groups):
        return 0
    rest = n - sum(groups)
    if rest < 0:
        return 0
    out = 1
    for g in groups:
        out *= math.comb(n, g)
        n -= g
    return out


def component_pair_moment(n: int, i: int, j: int) -> Fraction:
    """E C~_i C~_j for i != j (and E C~_i^[2] for i = j) via the product form.

    Choose the two blocks, make each one component, and map the rest among
    themselves.  It reads ``laws.single_component_prob``, never a Poisson
    partial sum, so it is independent of ``laws.factorial_moment``'s route.
    Returns 0 when i + j > n.
    """
    if min(i, j) < 2:
        raise ValueError("sizes must be >= 2 in the toes model")
    if i + j > n:
        return Fraction(0)
    return (
        laws.single_component_prob(i, "toes")
        * laws.single_component_prob(j, "toes")
        * multinomial(n, i, j)
        * Fraction(i - 1, n - 1) ** i
        * Fraction(j - 1, n - 1) ** j
        * (1 - Fraction(i + j, n - 1)) ** (n - i - j)
    )


def core_size_tail_std(n: int, j: int) -> Fraction:
    """P(standard-mapping core has >= j elements) = (n-1)_[j-1] / n**(j-1)."""
    if not 1 <= j <= n:
        raise ValueError("need 1 <= j <= n")
    return Fraction(falling_factorial(n - 1, j - 1), n ** (j - 1))


def core_identity_sides(n: int, m: int) -> tuple[Fraction, Fraction]:
    """Both sides of the core/derangement summation identity, independently.

    Left: (n/(n-1))**n * sum_{r=m}^{n} (r/n)(n_[r]/n**r) D_{r-m}/(r-m)!.
    Right: n_[m]/(n-1)**m.  They are equal for every n >= 2, 1 <= m <= n;
    the identity is what collapses core-conditioned sums into closed forms.
    """
    if n < 2 or not 1 <= m <= n:
        raise ValueError("need n >= 2 and 1 <= m <= n")
    acc = Fraction(0)
    fal = falling_factorial(n, m - 1)
    for r in range(m, n + 1):
        fal *= n - r + 1
        acc += (
            Fraction(r, n)
            * Fraction(fal, n**r)
            * Fraction(derangement_number(r - m), math.factorial(r - m))
        )
    lhs = Fraction(n, n - 1) ** n * acc
    rhs = Fraction(falling_factorial(n, m), (n - 1) ** m)
    return lhs, rhs


def derangement_two_cycle_pmf(n: int, k: int) -> Fraction:
    """P(uniform random permutation of n has no fixed point and exactly k 2-cycles)."""
    if not 0 <= k <= n // 2:
        raise ValueError("need 0 <= k <= n//2")
    total = Fraction(0)
    for l in range(0, n // 2 - k + 1):
        rest = n - 2 * l - 2 * k
        total += (
            Fraction((-1) ** l, 2**l * math.factorial(l))
            * Fraction(derangement_number(rest), math.factorial(rest))
        )
    return total * Fraction(1, 2**k * math.factorial(k))


def scream_pmf_alternating(n: int, k: int) -> Fraction:
    """P(exactly k screaming pairs in a toes mapping of size n), as its own
    alternating sum over the factorial moments n_[2m] / (2 (n-1)**2)**m of
    the number of 2-cycles:
    (1 / (2**k k!)) sum_{l=0}^{n//2-k} (-1)**l n_[2l+2k] / (2**l l! (n-1)**(2l+2k)),
    one O(n) sum for each k."""
    if not 0 <= k <= n // 2:
        raise ValueError("need 0 <= k <= n//2")
    top = n // 2 - k
    fal = falling_factorial(n, 2 * k)
    num = fal
    for l in range(1, top + 1):
        fal *= (n - 2 * l - 2 * k + 2) * (n - 2 * l - 2 * k + 1)
        num = num * (2 * l * (n - 1) ** 2) + (-1) ** l * fal
    denom = 2**top * math.factorial(top) * (n - 1) ** (2 * top)
    return Fraction(num, denom * 2**k * math.factorial(k) * (n - 1) ** (2 * k))


def no_scream_fraction(n: int) -> Fraction:
    """P(no screaming pair in a toes mapping of size n), the alternating
    series sum_{l=0}^{J} (-1)**l n_[2l] / (2**l l! (n-1)**(2l)), J = n//2,
    summed by Horner's rule from l = 0 in integers over its common
    denominator 2**J J! (n-1)**(2J), and reduced by one full gcd."""
    half = n // 2
    fal = num = 1
    for l in range(1, half + 1):
        fal *= (n - 2 * l + 2) * (n - 2 * l + 1)
        num = num * (2 * l * (n - 1) ** 2) + (-1) ** l * fal
    return Fraction(num, 2**half * math.factorial(half) * (n - 1) ** (2 * half))


def derangement_cycle_type_pmf(r: int, sizes: Iterable[int]) -> Fraction:
    """P(uniform random derangement of r has the given cycle-length multiset)."""
    sizes = tuple(sizes)
    if sum(sizes) != r:
        return Fraction(0)
    if any(s < 2 for s in sizes):
        return Fraction(0)
    counts: dict[int, int] = {}
    for s in sizes:
        counts[s] = counts.get(s, 0) + 1
    value = Fraction(math.factorial(r), derangement_number(r))
    for j, a in counts.items():
        value *= Fraction(1, j**a * math.factorial(a))
    return value


def derangement_mean_cycle_count(n: int, j: int) -> Fraction:
    """Expected number of length-j cycles of a uniform random derangement of
    n, 2 <= j <= n.  When n - j = 1 the value is 0 (D_1 = 0: removing the
    chosen cycle cannot strand exactly one non-fixed point)."""
    if not 2 <= j <= n:
        raise ValueError("need 2 <= j <= n")
    return (
        Fraction(1, j)
        * Fraction(math.factorial(n), derangement_number(n))
        * Fraction(derangement_number(n - j), math.factorial(n - j))
    )


def rising_factorial(x: int | Fraction, r: int) -> int | Fraction:
    """x(x+1)...(x+r-1); accepts integers or Fractions (e.g. x = 1/2)."""
    if r < 0:
        raise ValueError("order r must be nonnegative")
    out = x**0
    for i in range(r):
        out = out * (x + i)
    return out


def esf_pmf(n: int, theta: Fraction | int, sizes: Iterable[int]) -> Fraction:
    """Exact cycle-type probability under the Ewens sampling formula.

    P(counts = a) = n!/theta^(n) * prod_j (theta/j)**a_j / a_j!, with
    theta^(n) the rising factorial.  theta = 1 is the uniform random
    permutation; theta = 1/2 is the proposal law of the rejection sampler.
    """
    sizes = tuple(sizes)
    if sum(sizes) != n:
        return Fraction(0)
    theta = Fraction(theta)
    counts: dict[int, int] = {}
    for s in sizes:
        counts[s] = counts.get(s, 0) + 1
    value = Fraction(math.factorial(n)) / rising_factorial(theta, n)
    for j, a in counts.items():
        value *= (theta / j) ** a / math.factorial(a)
    return value


def esf_mean_cycle_count(n: int, theta: Fraction | int, j: int) -> Fraction:
    """E C_j(n) under ESF(theta): (theta/j) n_[j] theta^(n-j) / theta^(n)."""
    if not 1 <= j <= n:
        raise ValueError("need 1 <= j <= n")
    theta = Fraction(theta)
    return (
        theta
        / j
        * falling_factorial(n, j)
        * rising_factorial(theta, n - j)
        / rising_factorial(theta, n)
    )


def decompose_image(image) -> tuple[list[int], list[int], list[bool]]:
    """Component sizes, cycle lengths and cyclic flags for any function on [n].

    Iterative three-state walk (unvisited / on current path / resolved), so
    each element is visited O(1) times and nothing recurses.
    """
    n = len(image)
    state = [0] * n  # 0 unvisited, 1 on current path, 2 resolved
    comp_of = [-1] * n
    cyclic = [False] * n
    comp_sizes: list[int] = []
    cycle_lens: list[int] = []
    for start in range(n):
        if state[start]:
            continue
        path: list[int] = []
        pos: dict[int, int] = {}
        x = start
        while state[x] == 0:
            state[x] = 1
            pos[x] = len(path)
            path.append(x)
            x = image[x]
        if state[x] == 1:
            # closed a new cycle at x; everything from x onward is cyclic
            cid = len(comp_sizes)
            comp_sizes.append(0)
            cycle = path[pos[x]:]
            cycle_lens.append(len(cycle))
            for y in cycle:
                cyclic[y] = True
        else:
            cid = comp_of[x]
        for y in path:
            comp_of[y] = cid
            state[y] = 2
        comp_sizes[cid] += len(path)
    return comp_sizes, cycle_lens, cyclic
