"""Reference count estimators and a readout that allocates every
intermediate, used as test oracles.

:func:`estimate_quadratures` returns the estimator pair that
:func:`tmsvlab.homodyne.shots_to_samples` turns into quadratures.  The
rest is the readout of :mod:`tmsvlab.homodyne` before it drew and inverted
in place: each phase draws into fresh arrays (a
:class:`~tmsvlab.states.SqueezedVacuum` source by its former allocating
draw, any other source through its ``draw``), the count inversion builds
each term as a new full-length array, and the redraw rounds invert fancy-
indexed copies of the pending shots.  The library's in-place readout must
give its :class:`~tmsvlab.homodyne.Samples` and
:class:`~tmsvlab.homodyne.Shots` bit for bit, from the same seeds.
"""

import math

import numpy as np

from tmsvlab.homodyne import _MAX_RESAMPLE_ROUNDS, CountBoundsError, Readout, Samples, Shots
from tmsvlab.states import SqueezedVacuum


def estimate_quadratures(shots: Shots, config: Readout) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature difference and sum recovered from each count record.

        difference = (N_A - N_B - s^2 (O~+1^2 - O~-1^2) N_tot / 2) / sqrt(s^2 N_tot)
        sum        = (N_A + N_B - s^2 N_tot) / sqrt(s^2 c^2 N_tot),  c^2 = 1 - s^2
    """
    s2 = config.s2
    n_a, n_b, n_tot = shots.n_a, shots.n_b, shots.n_tot
    diff = (n_a - n_b - s2 * config.rabi_asymmetry * n_tot / 2.0) / np.sqrt(s2 * n_tot)
    total = (n_a + n_b - s2 * n_tot) / np.sqrt(s2 * (1.0 - s2) * n_tot)
    return diff, total


def gaussian_draw(source, theta, n, rng):
    """The n pairs that ``SqueezedVacuum.draw`` fills in, as new arrays."""
    u = np.full(n, theta)
    if source.pair_phase_sigma > 0.0:
        u = u - rng.normal(0.0, source.pair_phase_sigma, n) / 2.0
    v_plus, v_minus = source.pair_variances(u)
    q_sum = rng.standard_normal(n) * np.sqrt(v_plus)
    q_diff = rng.standard_normal(n) * np.sqrt(v_minus)
    return (q_sum + q_diff) / 2.0, (q_sum - q_diff) / 2.0


def draw_group(source, theta, n, noise, rng):
    """n (x_a, x_b) pairs at nominal angle theta with the common-mode sum
    shift applied."""
    if isinstance(source, SqueezedVacuum):
        x_a, x_b = gaussian_draw(source, theta, n, rng)
    else:
        x_a, x_b = np.empty(n), np.empty(n)
        source.draw(theta, rng, x_a, x_b, np.empty(n))
    if noise.sum_variance_shift > 0.0:
        g = rng.normal(0.0, math.sqrt(noise.sum_variance_shift), n)
        x_a = x_a + g / 2.0
        x_b = x_b + g / 2.0
    return x_a, x_b


def invert_counts(x_a, x_b, s2, config):
    """Counts realizing the quadratures at transfer fraction s2, and the
    mask of shots whose counts lie in [0, N_tot]."""
    n_tot = config.n_tot
    sum_real = s2 * n_tot + (x_a + x_b) * np.sqrt(s2 * (1.0 - s2) * n_tot)
    diff_real = (x_a - x_b) * np.sqrt(s2 * n_tot) + s2 * config.rabi_asymmetry * n_tot / 2.0
    np.fmin(np.fmax(sum_real, -1.0, out=sum_real), n_tot + 1.0, out=sum_real)
    np.fmin(np.fmax(diff_real, -(n_tot + 2.0), out=diff_real), n_tot + 2.0, out=diff_real)
    total = np.rint(sum_real).astype(np.int64)
    diff = np.rint(diff_real).astype(np.int64)
    parity_off = (diff - total) % 2 != 0
    step = np.where(diff_real >= diff, 1, -1)
    diff = np.where(parity_off, diff + step, diff)
    n_a = (total + diff) // 2
    n_b = (total - diff) // 2
    return n_a, n_b, (n_a >= 0) & (n_b >= 0) & (n_a + n_b <= n_tot)


def _seed_list(seed):
    return [int(seed)] if isinstance(seed, (int, np.integer)) else [int(s) for s in seed]


def _draw(source, thetas, p_per_theta, noise, seed):
    base = _seed_list(seed)
    rngs = [np.random.default_rng(base + [i]) for i in range(thetas.size)]
    x_a = np.empty((thetas.size, p_per_theta))
    x_b = np.empty_like(x_a)
    for i, (theta, rng) in enumerate(zip(thetas.tolist(), rngs)):
        x_a[i], x_b[i] = draw_group(source, theta, p_per_theta, noise, rng)
    return rngs, x_a, x_b


def sample_quadratures(source, thetas, p_per_theta, noise, seed=0) -> Samples:
    thetas = np.asarray(thetas, dtype=np.float64)
    _, x_a, x_b = _draw(source, thetas, p_per_theta, noise, seed)
    return Samples(np.repeat(thetas, p_per_theta), x_a.ravel(), x_b.ravel())


def simulate_readout(source, config, noise, thetas, p_per_theta, seed=0):
    """The samples and shots of :func:`tmsvlab.homodyne.simulate_readout`."""
    thetas = np.asarray(thetas, dtype=np.float64)
    rngs, x_a, x_b = _draw(source, thetas, p_per_theta, noise, seed)
    base = _seed_list(seed)
    n_tot = config.n_tot
    n_a = np.empty(x_a.shape, dtype=np.int64)
    n_b = np.empty_like(n_a)
    for i, (theta, rng) in enumerate(zip(thetas.tolist(), rngs)):
        if noise.rf_rel_noise > 0.0:
            eps = np.random.default_rng(base + [i, 7]).normal(0.0, noise.rf_rel_noise,
                                                              p_per_theta)
        else:
            eps = np.zeros(p_per_theta)
        s2_act = config.s2 * (1.0 + eps)
        pending = np.arange(p_per_theta)
        for _round in range(_MAX_RESAMPLE_ROUNDS):
            cand_a, cand_b, ok = invert_counts(x_a[i, pending], x_b[i, pending],
                                               s2_act[pending], config)
            n_a[i, pending[ok]] = cand_a[ok]
            n_b[i, pending[ok]] = cand_b[ok]
            pending = pending[~ok]
            if pending.size == 0:
                break
            x_a[i, pending], x_b[i, pending] = draw_group(source, theta, pending.size,
                                                          noise, rng)
        else:
            raise CountBoundsError(
                f"{pending.size} shots at theta={theta:.4f} still outside [0, {n_tot}] "
                f"after {_MAX_RESAMPLE_ROUNDS} redraws")
    return (Samples(np.repeat(thetas, p_per_theta), x_a.ravel(), x_b.ravel()),
            Shots(n_a.ravel(), n_b.ravel(), np.full(n_a.size, n_tot)))
