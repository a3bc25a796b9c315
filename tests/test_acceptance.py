"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import math

import numpy as np
import yaml

from wqed_subradiance import (
    ArrayConfig,
    DriveConfig,
    ansatz_overlap,
    correlation_matrix,
    diagonalize,
    dimerization_score,
    hosvd,
    incoherent_spectrum,
    min_decay_rate,
    most_subradiant_state,
    resonance_grid,
    run_scan,
    sector_decay_rates,
    steady_state,
    to_symmetric_tensor,
    transfer_matrix_amplitudes,
    validate_config,
)
from wqed_subradiance.driven import PEAK_FLOOR
from oracles import core_tensor, dense_min_decay_rate, incoherent_fraction, occupations

D_REF = 0.05
D_FINE = 0.01
LINEAR_RTOL = 1e-2
ORACLE_RTOL = 1e-5


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d} {name}] {status} {detail}")


def _log_slope(xs, rates) -> float:
    """Exponent of the power law through (x, rate), fitted on log-log axes."""
    return float(np.polyfit(np.log(xs), np.log(rates), 1)[0])


def test_criterion_01_scaling_law():
    """The k=1 minimum decay rate falls as N^-3 at d=0.02 and grows as d^2 at N=10."""
    sizes, periods = range(6, 17), np.linspace(0.01, 0.08, 8)
    exponent_n = _log_slope(
        sizes, [min_decay_rate(ArrayConfig.from_period(n, 0.02), 1) for n in sizes]
    )
    exponent_d = _log_slope(
        periods, [min_decay_rate(ArrayConfig.from_period(10, d), 1) for d in periods]
    )
    ok_n = abs(exponent_n - (-3.0)) <= 0.3
    ok_d = abs(exponent_d - 2.0) <= 0.2
    detail = (
        f"exponent_N={exponent_n:+.3f} (want -3.0+-0.3) "
        f"exponent_d={exponent_d:+.3f} (want +2.0+-0.2)"
    )
    _report(1, "scaling-law", ok_n and ok_d, detail)
    assert ok_n and ok_d, detail


def _sum_rule_error(config, k) -> float:
    """Relative error of the antisymmetrized-product (free-orbital) estimate of sector k.

    The estimate, the sum of the k smallest single-excitation rates, is a
    total rate; it is compared with k times the smallest per-excitation rate
    of sector k, symmetrically: |approx - k*exact| / min(approx, k*exact).
    """
    approx = float(np.sort(sector_decay_rates(config, 1))[:k].sum())
    total = k * min_decay_rate(config, k)
    if approx == total:
        return 0.0
    denom = min(approx, total)
    return abs(approx - total) / denom if denom > 0 else math.inf


def test_criterion_02_fermionic_sum_rule():
    """The summed-rate estimate is the dilute-limit asymptote (f = k/N -> 0).

    At fixed k its error falls with N toward that limit; it is below 0.25 at
    k=2, N=10 (f=0.2) and k=3, N=20 (f=0.15), and breaks down above half
    filling.  At N=10 the errors keep their oracle-computed values.
    """
    sizes = range(10, 21, 2)
    errors = {
        k: [_sum_rule_error(ArrayConfig.from_period(n, D_REF), k) for n in sizes]
        for k in (2, 3)
    }
    k6 = _sum_rule_error(ArrayConfig.from_period(10, D_REF), 6)
    dilute = all(all(a > b for a, b in zip(e, e[1:])) for e in errors.values())
    ok_bound = errors[2][0] < 0.25 and errors[3][-1] < 0.25
    ok6 = k6 > 1.0
    ok_frozen = (
        abs(errors[2][0] - 0.2174) <= 2e-3
        and abs(errors[3][0] - 0.6572) <= 2e-3
        and abs(k6 - 40.458) <= 0.1
    )
    detail = (
        " ".join(
            f"rel_error k={k} N={sizes.start}..{sizes.stop - 1}: "
            + ",".join(f"{e:.3f}" for e in errors[k])
            for k in errors
        )
        + f" (strictly decreasing); k=2 N=10: {errors[2][0]:.3f} k=3 N=20: "
        f"{errors[3][-1]:.3f} (<0.25); k=6 N=10: {k6:.3f} (>1.0); at N=10 "
        f"k=2,3,6: {errors[2][0]:.4f},{errors[3][0]:.4f},{k6:.3f} "
        f"(0.2174+-2e-3, 0.6572+-2e-3, 40.458+-0.1)"
    )
    ok = dilute and ok_bound and ok6 and ok_frozen
    _report(2, "fermionic-sum-rule", ok, detail)
    assert ok, detail


def test_criterion_03_half_filling_transition():
    """Dimer rate at k = N/2, a 2*gamma_1d total floor at k = N/2 + 1.

    At half filling the darkest state is a chain of nearest-neighbour dimers,
    each decaying at gamma_1d*(1 - cos(phi)) ~ phi^2/2; one excitation more
    leaves a total rate of 2*gamma_1d.  The ratio is 8/((N + 2)*phi^2), so it
    grows as d^-2 at fixed N; both closed forms hold to O(phi^2).
    """
    sizes = (6, 8, 10)
    tol = {d: (math.tau * d) ** 2 for d in (D_REF, D_FINE)}  # phi^2
    dimer, total, floors, ratios = {}, {}, {}, {}
    for d in tol:
        for n in sizes:
            config = ArrayConfig.from_period(n, d)
            low = min_decay_rate(config, n // 2)
            high = min_decay_rate(config, n // 2 + 1)
            dimer[d, n] = low / (1.0 - math.cos(config.phase))
            total[d, n] = (n // 2 + 1) * high / 2.0
            floors[d, n] = high
            ratios[d, n] = high / low
    ok_dimer = all(abs(v - 1.0) < tol[d] for (d, _), v in dimer.items())
    ok_total = all(abs(v - 1.0) < tol[d] for (d, _), v in total.items())
    ok_floor = all(v > 0.1 for v in floors.values())
    growth = {n: ratios[D_FINE, n] / ratios[D_REF, n] for n in sizes}
    predicted = (D_REF / D_FINE) ** 2
    ok_growth = all(abs(g / predicted - 1.0) < tol[D_REF] for g in growth.values())

    def per_n(values, d, fmt):
        return ",".join(f"{values[d, n]:{fmt}}" for n in sizes)

    detail = f"N={sizes}: " + "; ".join(
        f"d={d}: gamma(N/2)/(gamma_1d(1-cos phi)) {per_n(dimer, d, '.4f')}, "
        f"(N/2+1)gamma(N/2+1)/(2gamma_1d) {per_n(total, d, '.4f')} "
        f"(both 1+-phi^2={tol[d]:.4f}), "
        f"min_gamma(N/2+1) {per_n(floors, d, '.3f')} (>0.1), ratio {per_n(ratios, d, '.2f')}"
        for d in tol
    ) + (
        f"; ratio growth d={D_REF}->{D_FINE}: "
        + ",".join(f"{g:.2f}" for g in growth.values())
        + f" (d^-2: {predicted:.0f}+-{predicted * tol[D_REF]:.1f})"
    )
    ok = ok_dimer and ok_total and ok_floor and ok_growth
    _report(3, "half-filling-transition", ok, detail)
    assert ok, detail


def test_criterion_04_combinatoric_gate():
    """Sector k holds max(0, C(N,k) - C(N,k-1)) dark states at d in {0, 1/2}.

    At phase 0 or pi both output channels are one collective lowering
    operator S (with alternating signs at pi), and a state is dark exactly
    when S annihilates it.  S imposes C(N,k-1) conditions on C(N,k)
    amplitudes and has full rank, so the dark states of sector k span
    max(0, C(N,k) - C(N,k-1)) dimensions: none once k exceeds N/2.
    """
    mismatches, dark_max, bright_min = [], 0.0, math.inf
    for d in (0.0, 0.5):
        for n in range(1, 11):
            config = ArrayConfig.from_period(n, d)
            for k in range(1, n + 1):
                total = k * sector_decay_rates(config, k)
                dark = total < 1e-9
                dark_max = max(dark_max, float(total[dark].max(initial=0.0)))
                bright_min = min(bright_min, float(total[~dark].min(initial=math.inf)))
                expected = max(0, math.comb(n, k) - math.comb(n, k - 1))
                if dark.sum() != expected:
                    mismatches.append((d, n, k, int(dark.sum()), expected))
    ok = not mismatches
    _report(
        4, "combinatoric-gate", ok,
        f"d in (0, 0.5), N<=10, 1<=k<=N: dark states (total rate < 1e-9) "
        f"= max(0, C(N,k) - C(N,k-1)), mismatches: {mismatches}; "
        f"largest dark rate {dark_max:.1e}, smallest bright rate {bright_min:.3f}",
    )
    assert ok, mismatches


def _analysis_states():
    for d in (D_REF, 0.2):
        config = ArrayConfig.from_period(10, d)
        for k in range(1, 6):
            yield config, k, 0
    yield ArrayConfig.from_period(8, D_REF), 3, 2
    yield ArrayConfig.from_period(4, 0.01), 2, 0


def test_criterion_05_hosvd_exactness():
    worst = {"reconstruction": 0.0, "unitarity": 0.0, "quasidiag": 0.0, "weights": 0.0, "schmidt": 0.0}
    for config, k, which in _analysis_states():
        psi = to_symmetric_tensor(diagonalize(config, k)[which])
        result = hosvd(psi)
        n = config.n_atoms
        dense = psi.to_dense()
        core = core_tensor(psi, result)
        rec = core
        for _ in range(k):
            rec = np.tensordot(rec, result.factor.T, axes=([0], [0]))
        worst["reconstruction"] = max(worst["reconstruction"], float(np.linalg.norm(rec - dense)))
        worst["unitarity"] = max(
            worst["unitarity"],
            float(np.abs(result.factor.conj().T @ result.factor - np.eye(n)).max()),
        )
        core_mat = core.reshape(n, -1)
        gram = core_mat @ core_mat.conj().T
        worst["quasidiag"] = max(
            worst["quasidiag"], float(np.abs(gram - np.diag(np.diag(gram))).max())
        )
        worst["weights"] = max(
            worst["weights"], float(abs((result.singular_values**2).sum() - 1.0))
        )
        if k == 2:
            svals = np.linalg.svd(dense, compute_uv=False)
            worst["schmidt"] = max(
                worst["schmidt"], float(np.abs(result.singular_values - svals).max())
            )
    ok = all(v < 1e-10 for v in worst.values())
    detail = " ".join(f"{key}={value:.2e}" for key, value in worst.items()) + " (all <1e-10)"
    _report(5, "hosvd-exactness", ok, detail)
    assert ok, detail


def test_criterion_06_dimer_benchmark():
    config = ArrayConfig.from_period(4, 0.01)
    state = most_subradiant_state(config, 2)
    basis = state.basis
    ansatz = np.zeros(basis.dim, dtype=complex)
    for subset, value in {(0, 2): 0.5, (0, 3): -0.5, (1, 2): -0.5, (1, 3): 0.5}.items():
        ansatz[basis.states.index(subset)] = value
    overlap = abs(np.vdot(ansatz, state.amplitudes)) ** 2
    result = hosvd(to_symmetric_tensor(state))
    lam = result.singular_values
    lam_ok = abs(lam[0] - 1 / math.sqrt(2)) < 0.05 and abs(lam[1] - 1 / math.sqrt(2)) < 0.05
    entropy_ok = abs(result.entropy - math.log(2)) < 0.1
    ok = overlap > 0.95 and lam_ok and entropy_ok
    detail = (
        f"overlap={overlap:.4f} (>0.95) lambda=({lam[0]:.4f},{lam[1]:.4f}) "
        f"(1/sqrt2 +-0.05) S={result.entropy:.4f} (ln2 +-0.1)"
    )
    _report(6, "dimer-benchmark", ok, detail)
    assert ok, detail


def test_criterion_07_dimerization_at_half_filling():
    config = ArrayConfig.from_period(10, D_REF)
    state = most_subradiant_state(config, 5)
    corr = correlation_matrix(state)
    values = corr.values
    diag_dev = float(np.abs(np.diag(values).real - 0.5).max())
    offset = int(np.argmax([dimerization_score(corr, o) for o in (0, 1)]))
    pair_dev = max(
        abs(values[j, j + 1].real + 0.5) for j in range(offset, 9, 2)
    )
    result = hosvd(to_symmetric_tensor(state))
    ferm = ansatz_overlap(result, "fermionic")
    dim = ansatz_overlap(result, "dimerized")
    overlap_ok = all(d > f for d, f in zip(dim, ferm))
    ok = diag_dev < 0.05 and pair_dev < 0.05 and overlap_ok
    detail = (
        f"occupation dev={diag_dev:.3f} (<0.05) pair-coherence dev={pair_dev:.3f} "
        f"(<0.05, offset {offset}) dimerized>fermionic per column: "
        + ",".join(f"{d:.2f}>{f:.2f}" for d, f in zip(dim, ferm))
    )
    _report(7, "half-filling-dimerization", ok, detail)
    assert ok, detail


def test_criterion_08_entropy_map_sanity():
    config = ArrayConfig.from_period(10, D_REF)
    entropies = {}
    for k in range(1, 6):
        entropies[k] = hosvd(to_symmetric_tensor(most_subradiant_state(config, k))).entropy
    values = [entropies[k] for k in range(1, 6)]
    monotone = all(a <= b + 1e-9 for a, b in zip(values, values[1:]))
    ok = monotone and entropies[1] < 0.1 and entropies[5] > entropies[2]
    detail = "S(k)=" + ",".join(f"{v:.3f}" for v in values) + " (non-decreasing, S1<0.1, S5>S2)"
    _report(8, "entropy-map-sanity", ok, detail)
    assert ok, detail


def test_criterion_09_driven_linear_limit():
    """Weak drive: r and t from the transfer matrix, incoherent part I = c*P.

    Incoherent scattering is a two-photon process, so I/P tends to a finite
    coefficient c(delta), enhanced on the subradiant resonances; it is checked
    against the emitted incoherent flux of a separately built generator.
    """
    config = ArrayConfig.from_period(4, D_REF)
    grid = np.linspace(-25.0, 5.0, 401)
    step = grid[1] - grid[0]
    weak, deep = 1e-6, 1e-10
    spectrum = incoherent_spectrum(config, DriveConfig(power=weak, detuning_grid=grid))
    dev_r = dev_t = 0.0
    for i, delta in enumerate(grid):
        r_tm, t_tm = transfer_matrix_amplitudes(config, delta)
        dev_r = max(dev_r, abs(abs(spectrum.reflection[i]) - abs(r_tm)))
        dev_t = max(dev_t, abs(abs(spectrum.transmission[i]) - abs(t_tm)))
    y = spectrum.incoherent
    peaks = [
        grid[i]
        for i in range(1, len(grid) - 1)
        if y[i] > y[i - 1] and y[i] > y[i + 1] and y[i] > PEAK_FLOOR
    ]
    subradiant = sorted(diagonalize(config, 1), key=lambda s: s.gamma)[:2]
    aligned = all(
        any(abs(p - mode.epsilon.real) <= step for p in peaks) for mode in subradiant
    )
    # linear law: the same c(delta) four decades of power lower; the tolerance
    # covers round-off in 1 - |r|^2 - |t|^2 (~1e-16 against I = 1e-13 at P=1e-10
    # where the weak-drive I meets the floor) and the O(P) resonance saturation
    deep_spectrum = incoherent_spectrum(config, DriveConfig(power=deep, detuning_grid=grid))
    above = y > PEAK_FLOOR
    linear_dev = float(
        np.abs((y[above] / weak) / (deep_spectrum.incoherent[above] / deep) - 1.0).max()
    )
    # c(delta) against the flux oracle, on and off the subradiant resonances
    probes = np.sort([-1.0, 0.0] + [mode.epsilon.real for mode in subradiant])
    probed = incoherent_spectrum(config, DriveConfig(power=weak, detuning_grid=probes))
    omega = math.sqrt(weak)
    c_program = probed.incoherent / weak
    c_oracle = np.array(
        [incoherent_fraction(4, config.phase, omega, delta) for delta in probes]
    ) / weak
    oracle_dev = float(np.abs(c_program / c_oracle - 1.0).max())
    ok_rt = dev_r < 1e-4 and dev_t < 1e-4
    ok_linear = linear_dev < LINEAR_RTOL
    ok_oracle = oracle_dev < ORACLE_RTOL
    ok = ok_rt and aligned and ok_linear and ok_oracle
    peak = int(np.argmax(y))
    detail = (
        f"|r| dev={dev_r:.2e} |t| dev={dev_t:.2e} (<1e-4) peaks aligned={aligned}; "
        f"I/P at P={weak:g} vs P={deep:g} over {int(above.sum())} points with I>{PEAK_FLOOR:g}: "
        f"max rel dev={linear_dev:.2e} (<{LINEAR_RTOL:g}), grid peak I/P={y[peak] / weak:.2f} "
        f"at delta={grid[peak]:+.3f}; I/P program/oracle at delta="
        + ",".join(
            f"{delta:+.3f}: {cp:.2f}/{co:.2f}" for delta, cp, co in zip(probes, c_program, c_oracle)
        )
        + f" max rel dev={oracle_dev:.2e} (<{ORACLE_RTOL:g})"
    )
    _report(9, "driven-linear-limit", ok, detail)
    assert ok, detail


def test_criterion_10_power_broadening():
    config = ArrayConfig.from_period(4, D_REF)
    grid = resonance_grid(config, -25.0, 5.0, coarse=201, refine_points=31)
    powers = (0.01, 0.1, 1.0, 10.0)
    widths = []
    for power in powers:
        spectrum = incoherent_spectrum(config, DriveConfig(power=power, detuning_grid=grid))
        widths.append(spectrum.narrowest_fwhm)
    finite = [w for w in widths if w is not None]
    monotone = all(a <= b * (1 + 1e-9) for a, b in zip(finite, finite[1:]))
    no_narrow_survivor = widths[-1] is None or widths[-1] > 1.0
    occupation_max = 0.0
    probe_deltas = [s.epsilon.real for s in diagonalize(config, 1)] + [0.0]
    for power in powers:
        drive = DriveConfig(power=power, detuning_grid=grid)
        for delta in probe_deltas:
            rho = steady_state(config, drive, delta)
            occupation_max = max(occupation_max, float(occupations(rho).max()))
    ok = monotone and no_narrow_survivor and occupation_max <= 0.5 + 1e-6
    width_text = ",".join("none" if w is None else f"{w:.3f}" for w in widths)
    detail = (
        f"narrowest FWHM across P={powers}: {width_text} (non-decreasing; "
        f"last >1) max occupation={occupation_max:.4f} (<=0.5+1e-6)"
    )
    _report(10, "power-broadening", ok, detail)
    assert ok, detail


def _write_cfg(path, payload):
    path.write_text(yaml.safe_dump(payload))
    return path


def test_criterion_11_determinism(tmp_path):
    decay_payload = {
        "mode": "decay-map",
        "array": {"n_atoms": 6},
        "grid": {"d_over_lambda": [0.05, 0.25], "k": [1, 2, 3]},
        "output": {"directory": None},
    }
    driven_payload = {
        "mode": "driven-map",
        "array": {"n_atoms": 2},
        "grid": {"d_over_lambda": [0.05, 0.1]},
        "drive": {"power": [0.05, 0.5], "detuning": {"start": -2.0, "stop": 1.0, "count": 41}},
        "output": {"directory": None},
    }
    outcomes = {}
    for name, payload, data_file in (
        ("decay", decay_payload, "decay_map.csv"),
        ("driven", driven_payload, "driven_map.csv"),
    ):
        blobs = []
        for run, workers in (("a", 1), ("b", 1), ("c", 2)):
            cfg = dict(payload)
            cfg["output"] = {"directory": str(tmp_path / f"{name}_{run}")}
            cfg["workers"] = workers
            manifest = run_scan(validate_config(_write_cfg(tmp_path / f"{name}_{run}.yaml", cfg)))
            assert manifest.success
            blobs.append((tmp_path / f"{name}_{run}" / data_file).read_bytes())
        outcomes[name] = blobs[0] == blobs[1] == blobs[2]
    ok = all(outcomes.values())
    _report(11, "determinism", ok, f"byte-identical repeat+parallel runs: {outcomes}")
    assert ok, outcomes


def test_criterion_12_subradiance_ends_above_half_filling():
    """Above f = 1/2 no state decays slower in total than gamma_1d*(2k - N).

    Sector k is sector N-k relabelled by S -> N\\S, with the diagonal shifted
    by -i*gamma_1d*(2k - N), so its smallest total rate is that of N-k plus
    gamma_1d*(2k - N).  At d = 0 the N-k sector holds dark states and the
    floor is reached; the slack is roundoff only.  ``min_decay_rate`` solves
    k > N/2 through that very identity, so the rates here come from a direct
    dense eigensolve of sector k instead.
    """
    margins = {}
    for d in (0.0, D_REF, 0.13, 0.3):
        for n in range(2, 11):
            config = ArrayConfig.from_period(n, d)
            for k in range(n // 2 + 1, n + 1):
                floor = 2 * k - n
                margins[d, n, k] = (k * dense_min_decay_rate(config, k) - floor) / floor
    worst = min(margins, key=margins.get)
    tight = max(abs(margins[0.0, n, k]) for (d, n, k) in margins if d == 0.0)
    ok = margins[worst] >= -1e-12 and tight < 1e-12
    _report(
        12, "subradiance-ends-above-half-filling", ok,
        f"N=2..10, k>N/2, 4 d: min (k*gamma - gamma_1d(2k-N))/(gamma_1d(2k-N)) "
        f"{margins[worst]:.2e} at (d, N, k)={worst} (>= -1e-12); "
        f"at d=0 the floor is reached to {tight:.1e}",
    )
    assert ok, (worst, margins[worst], tight)
