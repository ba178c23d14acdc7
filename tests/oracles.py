"""Scalar-loop reference implementations for cross-checking the library.

Everything here walks pixels one at a time with plain Python floats and the
math module. No code is shared with the package, so agreement between the
two routes is evidence rather than tautology. Grids are nested lists or are
indexed element by element; nothing vectorized is allowed in this file,
with one exception: ``phantom_generate`` at the end is the earlier
whole-volume numpy phantom generator, kept verbatim, because the phantom's
contract is bit-identity with it and a scalar loop would round the
transcendental functions differently.
"""
import math

import numpy as np


def mirror(i: int, n: int) -> int:
    # reflect about the border pixel: -1 -> 1, n -> n-2
    if i < 0:
        return -i
    if i >= n:
        return 2 * n - 2 - i
    return i


def grid(field):
    """Copy any 2-D arraylike into nested Python float lists."""
    return [[float(v) for v in row] for row in field]


def zeros(ny, nx):
    return [[0.0] * nx for _ in range(ny)]


def derivative_bundle(u):
    """Central differences with mirrored borders, one pixel at a time."""
    ny, nx = len(u), len(u[0])

    def at(y, x):
        return u[mirror(y, ny)][mirror(x, nx)]

    out = {k: zeros(ny, nx) for k in ("ux", "uy", "uxx", "uyy", "uxy")}
    for y in range(ny):
        for x in range(nx):
            e = at(y, x + 1)
            w = at(y, x - 1)
            s = at(y + 1, x)
            n = at(y - 1, x)
            se = at(y + 1, x + 1)
            sw = at(y + 1, x - 1)
            ne = at(y - 1, x + 1)
            nw = at(y - 1, x - 1)
            c = u[y][x]
            out["ux"][y][x] = 0.5 * (e - w)
            out["uy"][y][x] = 0.5 * (s - n)
            out["uxx"][y][x] = e - 2.0 * c + w
            out["uyy"][y][x] = s - 2.0 * c + n
            out["uxy"][y][x] = 0.25 * ((se - ne) - (sw - nw))
    return out


def eigen_pixel(a, b, c):
    """Eigen pairs of [[a, b], [b, c]] with the degenerate-case conventions:
    zero matrix gives zero vectors, an isotropic matrix gives the axes."""
    half = 0.5 * (a + c)
    disc = math.sqrt(0.25 * ((a - c) * (a - c)) + b * b)
    lam_max = half + disc
    lam_min = half - disc
    if a == 0.0 and b == 0.0 and c == 0.0:
        return lam_max, lam_min, (0.0, 0.0), (0.0, 0.0)
    if disc == 0.0:
        return lam_max, lam_min, (1.0, 0.0), (0.0, 1.0)
    cax, cay = a - lam_min, b
    cbx, cby = b, c - lam_min
    if cax * cax + cay * cay >= cbx * cbx + cby * cby:
        vx, vy = cax, cay
    else:
        vx, vy = cbx, cby
    nrm = math.sqrt(vx * vx + vy * vy)
    e1 = (vx / nrm, vy / nrm)
    e2 = (-e1[1], e1[0])
    return lam_max, lam_min, e1, e2


def quad_form(vx, vy, uxx, uxy, uyy):
    return vx * vx * uxx + 2.0 * vx * vy * uxy + vy * vy * uyy


def pm_g(s, delta, kind):
    r = (s * s) / (delta * delta)
    if kind == "rational":
        return 1.0 / (1.0 + r)
    return math.exp(-r)


def pm_step(u, delta, dt, kind="rational"):
    """Face-flux diffusion step: flux on east/south faces, zero at borders."""
    ny, nx = len(u), len(u[0])
    fe = zeros(ny, nx)
    fs = zeros(ny, nx)
    for y in range(ny):
        for x in range(nx - 1):
            d = u[y][x + 1] - u[y][x]
            fe[y][x] = pm_g(abs(d), delta, kind) * d
    for y in range(ny - 1):
        for x in range(nx):
            d = u[y + 1][x] - u[y][x]
            fs[y][x] = pm_g(abs(d), delta, kind) * d
    out = zeros(ny, nx)
    for y in range(ny):
        for x in range(nx):
            divx = fe[y][x] - (fe[y][x - 1] if x > 0 else 0.0)
            divy = fs[y][x] - (fs[y - 1][x] if y > 0 else 0.0)
            out[y][x] = u[y][x] + dt * (divx + divy)
    return out


def nearest_rank(sorted_vals, q):
    """Nearest-rank quantile: smallest value with rank >= q*n, tolerating
    float round-off in the product."""
    n = len(sorted_vals)
    k = math.ceil(q * n - 1e-9)
    k = min(max(k, 1), n)
    return sorted_vals[k - 1]


def tail_bounds(values, tail_prob):
    s = sorted(values)
    q = tail_prob / 2.0
    return nearest_rank(s, q), nearest_rank(s, 1.0 - q)


def directional_basis(u):
    """Per-pixel (d_eta, d_e1, d_e2, c) grids from scalar loops."""
    ny, nx = len(u), len(u[0])
    b = derivative_bundle(u)
    d_eta = zeros(ny, nx)
    d_e1 = zeros(ny, nx)
    d_e2 = zeros(ny, nx)
    c_map = zeros(ny, nx)
    for y in range(ny):
        for x in range(nx):
            ux = b["ux"][y][x]
            uy = b["uy"][y][x]
            uxx = b["uxx"][y][x]
            uyy = b["uyy"][y][x]
            uxy = b["uxy"][y][x]
            g = math.sqrt(ux * ux + uy * uy)
            if g > 0.0:
                ex, ey = ux / g, uy / g
            else:
                ex, ey = 0.0, 0.0
            d_eta[y][x] = quad_form(ex, ey, uxx, uxy, uyy)
            _, _, e1, e2 = eigen_pixel(uxx, uxy, uyy)
            d_e1[y][x] = quad_form(e1[0], e1[1], uxx, uxy, uyy)
            d_e2[y][x] = quad_form(e2[0], e2[1], uxx, uxy, uyy)
            c_map[y][x] = math.sqrt(uxx * uxx + uyy * uyy)
    return d_eta, d_e1, d_e2, c_map


def directional_step(u, alpha, mode, step, tail_prob=0.05, bounds=None):
    """One adaptive directional step, fully scalar.

    mip mode derives per-direction tail bounds itself when none are given
    and the field has at least 100 pixels; ``bounds`` may be a single
    (lo, hi) pair applied to both gated directions.
    """
    ny, nx = len(u), len(u[0])
    if alpha == 0:
        return [row[:] for row in u]
    d_eta, d_e1, d_e2, c_map = directional_basis(u)
    b_eta = b_e2 = bounds
    if mode == "mip" and bounds is None and ny * nx >= 100:
        b_eta = tail_bounds([v for row in d_eta for v in row], tail_prob)
        b_e2 = tail_bounds([v for row in d_e2 for v in row], tail_prob)

    def mu(c, d, bnd):
        t = math.tanh(0.5 * alpha * c * d)
        if mode == "mip_min":
            return -t
        if bnd is not None and not (bnd[0] < d < bnd[1]):
            return 0.0
        return t

    out = zeros(ny, nx)
    for y in range(ny):
        for x in range(nx):
            c = c_map[y][x]
            upd = mu(c, d_eta[y][x], b_eta) * d_eta[y][x] + mu(c, d_e2[y][x], b_e2) * d_e2[y][x]
            if mode == "mip_min":
                upd = upd + mu(c, d_e1[y][x], None) * d_e1[y][x]
            out[y][x] = u[y][x] + step * upd
    return out


def mip_min_iteration(u, alpha, step, nu):
    """One mip_min iteration of the iterative filter, fully scalar: the
    sharpening sum -tanh(alpha * c * d / 2) * d over all three directions,
    plus forward diffusion nu * (d_eta + d_e2) along the gradient and the
    minimum-curvature direction."""
    ny, nx = len(u), len(u[0])
    if alpha == 0:
        return [row[:] for row in u]
    d_eta, d_e1, d_e2, c_map = directional_basis(u)
    out = zeros(ny, nx)
    for y in range(ny):
        for x in range(nx):
            c = c_map[y][x]
            upd = 0.0
            for d in (d_eta[y][x], d_e1[y][x], d_e2[y][x]):
                upd -= math.tanh(0.5 * alpha * c * d) * d
            upd += nu * (d_eta[y][x] + d_e2[y][x])
            out[y][x] = u[y][x] + step * upd
    return out


def combine_flow(xs, ys, zs, mode):
    ny, nx = len(xs), len(xs[0])
    out = zeros(ny, nx)
    for y in range(ny):
        for x in range(nx):
            a, b, c = xs[y][x], ys[y][x], zs[y][x]
            if mode == "sum":
                out[y][x] = a + b + c
            else:
                out[y][x] = math.sqrt(a * a + b * b + c * c)
    return out


def pa_combine(channels, sigmas=None):
    ny, nx = len(channels[0]), len(channels[0][0])
    if sigmas is None:
        sigmas = [1.0] * len(channels)
    out = zeros(ny, nx)
    for y in range(ny):
        for x in range(nx):
            acc = 0.0
            for ch, s in zip(channels, sigmas):
                v = ch[y][x] / s
                acc += v * v
            out[y][x] = math.sqrt(acc)
    return out


def scale_channels(filtered, numerators, denominator, eps=1e-12):
    """Per-pixel channel rescaling by numerator/denominator update maps;
    pixels with |denominator| below eps pass through unscaled."""
    out = []
    for f, num in zip(filtered, numerators):
        ny, nx = len(f), len(f[0])
        o = zeros(ny, nx)
        for y in range(ny):
            for x in range(nx):
                den = denominator[y][x]
                if abs(den) < eps:
                    o[y][x] = f[y][x]
                else:
                    o[y][x] = f[y][x] * (num[y][x] / den)
        out.append(o)
    return out


def psnr(peak_rows, base_rows, test_rows):
    vals_peak = [v for row in peak_rows for v in row]
    diffs = [
        (t - b)
        for brow, trow in zip(base_rows, test_rows)
        for b, t in zip(brow, trow)
    ]
    mse = sum(d * d for d in diffs) / len(diffs)
    if mse == 0.0:
        return math.inf
    peak = max(vals_peak)
    if peak == 0.0:
        return -math.inf
    return 10.0 * math.log10(peak * peak / mse)


def contrast_ratio(rows):
    vals = [v for row in rows for v in row]
    hi, lo = max(vals), min(vals)
    return (hi - lo) / (hi + lo)


def contrast_per_pixel(rows):
    ny, nx = len(rows), len(rows[0])
    total = 0.0
    for y in range(ny):
        for x in range(nx):
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dx == 0 and dy == 0:
                        continue
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < ny and 0 <= xx < nx:
                        total += abs(rows[y][x] - rows[yy][xx])
    return total / (nx * ny)


# --- whole-volume phantom generator (verbatim numpy reference) -------------


def _coordinate_grids(spec):
    z = np.arange(spec.depth, dtype=np.float64)[:, None, None]
    y = np.arange(spec.height, dtype=np.float64)[None, :, None]
    x = np.arange(spec.width, dtype=np.float64)[None, None, :]
    return x, y, z


def _axis_distance(spec, tube):
    """Distance from every voxel to the tube's polyline axis."""
    x, y, z = _coordinate_grids(spec)
    dist = np.full((spec.depth, spec.height, spec.width), np.inf)
    pts = [np.asarray(p, dtype=np.float64) for p in tube.points]
    for a, b in zip(pts[:-1], pts[1:]):
        ab = b - a
        denom = float(ab @ ab)
        dxa = x - a[0]
        dya = y - a[1]
        dza = z - a[2]
        if denom == 0.0:
            d2 = dxa * dxa + dya * dya + dza * dza
        else:
            t = (dxa * ab[0] + dya * ab[1] + dza * ab[2]) / denom
            t = np.clip(t, 0.0, 1.0)
            ex = dxa - t * ab[0]
            ey = dya - t * ab[1]
            ez = dza - t * ab[2]
            d2 = ex * ex + ey * ey + ez * ez
        dist = np.minimum(dist, np.sqrt(d2))
    return dist


def _baseline(spec, rng):
    base = np.ones((spec.depth, spec.height, spec.width))
    n_terms = 3
    wavelengths = rng.uniform(spec.width / 4.0, spec.width, size=n_terms)
    azimuth = rng.uniform(0.0, 2.0 * math.pi, size=n_terms)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n_terms)
    z_gain = rng.uniform(0.0, 0.5, size=n_terms)
    if spec.baseline_amplitude == 0:
        return base
    x, y, z = _coordinate_grids(spec)
    mix = np.zeros_like(base)
    for lam, az, ph, zg in zip(wavelengths, azimuth, phases, z_gain):
        k = 2.0 * math.pi / lam
        arg = k * (math.cos(az) * x + math.sin(az) * y + zg * z) + ph
        mix += np.sin(arg)
    mix /= n_terms
    return base + spec.baseline_amplitude * mix


def _sensitivity_maps(spec):
    n = len(spec.channels.sigmas)
    cx, cy = (spec.width - 1) / 2.0, (spec.height - 1) / 2.0
    r = 0.35 * min(spec.width, spec.height)
    centers = [
        (cx + r * math.cos(2.0 * math.pi * k / n), cy + r * math.sin(2.0 * math.pi * k / n))
        for k in range(n)
    ]
    width = 0.6 * max(spec.width, spec.height)
    floor = 0.25
    y = np.arange(spec.height, dtype=np.float64)[:, None]
    x = np.arange(spec.width, dtype=np.float64)[None, :]
    maps = []
    for mx, my in centers:
        r2 = (x - mx) ** 2 + (y - my) ** 2
        maps.append(floor + (1.0 - floor) * np.exp(-r2 / (2.0 * width * width)))
    return maps


def phantom_generate(spec):
    """(clean, noisy, truth_mask, channels) of a phantom spec, built with
    whole-volume arrays."""
    rng = np.random.default_rng(spec.seed)
    clean = _baseline(spec, rng)
    mask = np.zeros(clean.shape)
    for tube in spec.tubes:
        d = _axis_distance(spec, tube)
        sigma_r = tube.radius / 2.0
        clean = clean + tube.contrast * np.exp(-(d * d) / (2.0 * sigma_r * sigma_r))
        mask = np.maximum(mask, (d <= tube.radius).astype(np.float64))
    if spec.noise_sigma > 0:
        noisy = clean + rng.normal(0.0, spec.noise_sigma, size=clean.shape)
    else:
        noisy = clean.copy()
    channels = None
    if spec.channels is not None:
        channels = []
        for s_map, sig in zip(_sensitivity_maps(spec), spec.channels.sigmas):
            vol = clean * s_map[None, :, :]
            if sig > 0:
                vol = vol + rng.normal(0.0, sig, size=vol.shape)
            channels.append(vol)
    return clean, noisy, mask, channels
