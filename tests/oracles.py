"""Reference implementations that the tests check the package against.

Nothing in the package calls these; each is an independent route to a value
the package computes another way.
"""

import math


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
