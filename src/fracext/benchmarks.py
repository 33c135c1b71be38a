"""Built-in named problems so experiments and acceptance checks need no
external data: the eigenfunction benchmark on (0, pi), the kinked-trace-data
benchmark |x|^alpha, exact harmonic combinations, and the sliding-paraboloid
fixtures."""

from __future__ import annotations

import numpy as np

from .extension import (ExtensionMesh, ExtensionProblem, HarmonicCombo, harmonic_mode_profile,
                        solve_extension, transform_to_y, transform_to_z)
from .geometry import MAGeometry, SectionDescriptor, _names_s
from .semigroup import CoefficientField, bessel_extension_profile, ds_constant


def eigen_extension_problem(s, k, Z):
    """Neumann problem whose exact solution is sin(kx) times the Bessel profile.

    Domain (0, pi), a = 1, f = -d_s k^{2s} sin(kx); lateral data vanish
    exactly and the top data come from the closed-form profile.
    """
    coeff = CoefficientField.identity(1)

    def f(x):
        return -ds_constant(s) * k ** (2.0 * s) * np.sin(k * np.asarray(x, float))

    def oracle(x, z):
        return np.sin(k * np.asarray(x, float)) * bessel_extension_profile(k * k, s, z)

    def g_top(x):
        return oracle(x, Z)

    problem = ExtensionProblem(s=s, coeff=coeff, domain=(0.0, np.pi), Z=Z,
                               bottom=("neumann", f), g_lateral=0.0, g_top=g_top)
    return problem, oracle


def kinked_trace_problem(s, alpha, mx, my):
    """Neumann data f(x) = |x|^alpha on S_1: the Schauder decay benchmark.

    f(0) = 0 and a = identity, so the normalization hypotheses hold at the
    origin; the x-mesh is power-graded toward the kink.
    """
    geom = MAGeometry(s)
    coeff = CoefficientField.identity(1)
    domain, mesh = kinked_grid(mx, my)
    Z = geom.q_s  # h(Z) = 1

    def f(x):
        return np.abs(np.asarray(x, float)) ** alpha

    problem = ExtensionProblem(s=s, coeff=coeff, domain=domain, Z=Z,
                               bottom=("neumann", f), g_lateral=0.0, g_top=0.0)
    return problem, mesh


def kinked_grid(mx, my):
    """S_1 = (-sqrt 2, sqrt 2) and the kinked benchmark's mesh on it: 2 mx + 1
    x-nodes power-graded toward x = 0, my y-cells with grading 3."""
    half = np.sqrt(2.0)
    return (-half, half), ExtensionMesh(nx=2 * mx + 1, my=my, grading=3.0, x_grading=2.0)


def harmonic_combo_problem(combo: HarmonicCombo, domain=(-np.sqrt(2.0), np.sqrt(2.0)),
                           Z=None):
    """Zero-Neumann problem at s = combo.s whose exact solution is the
    combination; Z defaults to the height with h(Z) = 1."""
    Z = Z if Z is not None else MAGeometry(combo.s).q_s
    problem = ExtensionProblem(
        s=combo.s, coeff=CoefficientField.identity(1), domain=domain, Z=Z,
        bottom=("neumann", 0.0),
        g_lateral=lambda x, z: combo(x, z),
        g_top=lambda x: combo(x, Z))
    return problem


def harmonic_family_ycap(s):
    """y = sqrt(2 / c_s), the top of the box h(z) <= 1: `positive_harmonic_family`
    keeps its members positive up to it."""
    return np.sqrt(2.0 / MAGeometry(s).c_s)


def positive_harmonic_family(s, size, seed):
    """Nonnegative exact harmonic combinations: 1 + small random cosine modes
    with wave numbers 1 to 3.

    Coefficients are scaled so the mode part stays below 0.9 on the sampling
    box, keeping every member strictly positive.
    """
    rng = np.random.default_rng(seed)
    # the mode profiles grow with y; normalize against their value at the box top
    ycap = harmonic_family_ycap(s)
    top = {}  # each wave number's profile at ycap, from its first use on
    family = []
    for _ in range(size):
        nmodes = int(rng.integers(1, 4))
        ks = rng.integers(1, 4, nmodes)
        phases = rng.uniform(0.0, 2.0 * np.pi, nmodes)
        raw = rng.uniform(0.2, 1.0, nmodes)
        for k in ks:
            if k not in top:
                top[k] = harmonic_mode_profile(s, k, ycap)
        growth = sum(r * top[k] for r, k in zip(raw, ks))
        amps = 0.9 * raw / growth
        family.append(HarmonicCombo(s, const=1.0,
                                    modes=list(zip(amps, ks.astype(float), phases))))
    return family


@_names_s
def sliding_fixture(geom: MAGeometry, kind, nx, nz, opening, seed):
    """Grid fixtures for the contact-set experiment on a rectangle above z=0.

    kind "paraboloid": U is itself a sliding paraboloid (exact touching);
    "convex": U = 2 * opening * delta_Phi(origin-ish) so every touch is a
    unique brute-force minimizer; "harmonic": a positive harmonic combination.
    """
    xs = np.linspace(-1.0, 1.0, nx)
    zs = np.linspace(0.05, 1.2, nz)
    if kind == "paraboloid":
        U = -opening * (geom.delta_phi(0.1, xs)[:, None]
                        + geom.delta_h(0.6, zs)[None, :]) + 1.0
    elif kind == "convex":
        U = 2.0 * opening * (geom.delta_phi(-0.1, xs)[:, None]
                             + geom.delta_h(0.5, zs)[None, :])
    elif kind == "harmonic":
        combo = positive_harmonic_family(geom.s, 1, seed=seed)[0]
        U = np.asarray(combo(xs[:, None], zs[None, :]), dtype=float)
    else:
        raise ValueError(f"unknown sliding fixture {kind!r}")
    return xs, zs, U


def vertex_lattice(xs, zs, stride):
    """Sub-lattice of grid nodes used as the paraboloid vertex set."""
    return [(float(x), float(z)) for x in xs[::stride] for z in zs[::stride]]


def x_derivative_scaling(s, order):
    """Fitted exponent of sup |D_x^k H| / osc H over section pairs.

    One oscillatory harmonic mode per scale r = 2/k^2, k = 1, 2, 4, 8, solved
    on a similarity-scaled 321 x 48 box: the measurement sits at a fixed
    configuration in the scaling-invariant variables, where this family
    saturates the interior derivative estimate; the exponent nears -order/2.
    """
    ratios, rs = [], []
    for kmode in (1.0, 2.0, 4.0, 8.0):
        r = 2.0 / kmode**2
        combo = HarmonicCombo(s, const=0.0, modes=[(1.0, kmode, 0.0)])
        Zk = transform_to_z(3.0 / kmode, s)
        prob = harmonic_combo_problem(combo, domain=(-4.0 / kmode, 4.0 / kmode), Z=Zk)
        st = solve_extension(prob, ExtensionMesh(nx=321, my=48))
        xs = st.x_axes[0]
        inner, outer = (SectionDescriptor((0.0,), 0.0, R, "cylinder", st.geom.c_s * R).contains(
            st.geom, xs[None, :], st.z_nodes[:, None]) for R in (r / 4.0, r))
        D = st.values
        for _ in range(order):
            D = np.gradient(D, xs, axis=1)
        sup = np.max(np.abs(D[inner]))
        block = st.values[outer]
        ratios.append(sup / (block.max() - block.min()))
        rs.append(r)
    return float(np.polyfit(np.log(rs), np.log(ratios), 1)[0])


def z_decay_exponent(s):
    """Fitted z-exponent of sup_x |d_z H| for the solved zero-flux harmonic
    mode cos x on a 129 x 128 mesh.

    The y-grading is chosen so the face ladder reaches z ~ 1e-3; the fit runs
    over faces with z in (2e-3, 0.08) and approaches 1/s - 1.
    """
    Z, nx, my = 1.0, 129, 128
    y_lo = transform_to_y(1e-3, s)
    Y = transform_to_y(Z, s)
    grading = max(1.0, np.log(y_lo / Y) / np.log(1.0 / my))
    combo = HarmonicCombo(s, const=0.0, modes=[(1.0, 1.0, 0.0)])
    prob = harmonic_combo_problem(combo, domain=(-1.0, 1.0), Z=Z)
    st = solve_extension(prob, ExtensionMesh(nx=nx, my=my, grading=grading))
    zf, dz = st.z_derivative_faces()
    interior = slice(nx // 6, -nx // 6)
    supx = np.max(np.abs(dz[:, interior]), axis=1)
    sel = (zf > 2e-3) & (zf < 0.08)
    return float(np.polyfit(np.log(zf[sel]), np.log(supx[sel]), 1)[0])
