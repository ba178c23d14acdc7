"""Diffusion filters: Perona-Malik, orthogonal-split, and adaptive directional.

The directional filter steers second-derivative smoothing or sharpening along
the gradient direction and the two principal curvature directions of the
per-pixel Hessian. Its per-direction weight is an odd sigmoid of the product
of structureness and the directional second derivative, so flat background is
left alone while curved structures are pushed: downward in ``mip_min`` mode
(deepens dark vessels before minimum projection), upward in ``mip`` mode.
The downward push alone is backward diffusion, so ``run_filter`` adds, in
``mip_min`` mode, forward diffusion along the gradient and minimum-curvature
directions: noise is smoothed away while the maximum-curvature direction,
the one across a vessel, only sharpens.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .fields import _eigenvalues, _gradient_norm, _gradient_strip, _neighbours, _padded, as_field

__all__ = [
    "PMParams",
    "AdaptiveParams",
    "HysteresisParams",
    "BoundPair",
    "FilterTrace",
    "DEFAULT_ALPHA",
    "MIP_MIN_NU",
    "pm_step",
    "run_pm",
    "run_orthogonal",
    "histogram_bounds",
    "directional_step",
    "run_filter",
    "hysteresis_filter",
    "run_directional_ad",
    "default_delta",
]

# Filter gain default, tuned on the synthetic phantom suite (see tests).
# With six iterations it keeps mip-mode channel scaling (criterion 7) in
# range. In mip_min mode gains of 2 and more can still diverge, because the
# sharpening term then outgrows the smoothing below: on slice 26 of the
# seed-1234 phantom, 30 iterations at gain 2 reach -9.5e3, while gain 1
# stays within [0.951, 1.006].
DEFAULT_ALPHA = 0.5

# Weight nu of the forward diffusion nu * (d_eta + d_e2) that run_filter adds
# to the mip_min sharpening term. Checked on phantom seeds 1234 and 1-4: 0.2
# leaves 54-56% of the background spread (criterion 3 allows 50%), 0.5
# smooths the min projection so far that its PSNR against the noisy input
# falls below the directional baseline's on seed 2 (criterion 4); 0.3 meets
# both on every seed.
MIP_MIN_NU = 0.3

# Pixels per strip of the filter kernels (_sweep): a slice of more pixels
# is split into row strips of _STRIP_PIXELS // nx rows, 64 at 256x256 and
# 32 at 512x512, and each of a strip's eight float64 buffers is then about
# 129 KiB, so a strip's working set stays in a core's L2 cache. Strips this
# long also let the worker thread of such a slice (_Worker) run each ufunc
# call long enough between its hand-overs of the interpreter lock: two
# threads on 8192-pixel strips ran slower than one.
_STRIP_PIXELS = 16384

# Pixels per stack of small slices: those are filtered in stacks of
# _batch(ny, nx) whole slices to a strip (2 at 64x64, 8 at 32x32), so that
# each ufunc call of a step runs on a full strip instead of, at 64x64,
# paying its fixed cost on half of one; each strip buffer, below glibc's
# default 128 KiB mmap threshold, then comes from the heap instead of
# being mapped and page-faulted in.
_STACK_PIXELS = 8192


def _batch(ny: int, nx: int) -> int:
    """Slices per strip, and per stack of ``_stacks``: as many whole
    (ny, nx) slices as hold ``_STACK_PIXELS`` pixels, at least one (so one
    from 65x65 up), and few enough that a strip buffer, pad rows and
    columns included, stays under 2 * ``_STACK_PIXELS`` values, the mmap
    threshold, which only slices of about 8x8 and less reach."""
    return max(1, min(_STACK_PIXELS // (ny * nx),
                      (2 * _STACK_PIXELS - 1) // ((ny + 2) * (nx + 2))))


def _stacks(slices):
    """The 2-D ``slices`` of an iterable, all of one shape, as float64
    stacks of ``_batch(ny, nx)`` whole slices, in order, a new array each;
    the last may hold fewer. Each slice is checked as ``as_field`` checks a
    field and copied into its stack as it arrives, so the slices may be
    views of one reused read buffer."""
    shape, stack, n = None, None, 0
    for sl in slices:
        sl = np.asarray(sl)
        if shape is None:
            shape = sl.shape
            if sl.ndim != 2 or min(shape) < 1:
                raise ValueError(f"expected a 2-D field, got shape {shape}")
        elif sl.shape != shape:
            raise ValueError(f"expected a slice of shape {shape}, got {sl.shape}")
        if stack is None:
            stack, n = np.empty((_batch(*shape), *shape)), 0
        stack[n] = sl
        if not np.isfinite(stack[n]).all():
            raise ValueError("field contains NaN or Inf values")
        n += 1
        if n == len(stack):
            yield stack
            stack = None
    if stack is not None:
        yield stack[:n]


@dataclass(frozen=True)
class PMParams:
    """Settings for the scalar diffusivity filters.

    delta is the edge-stopping contrast scale; dt the explicit step size,
    capped at 0.25. That cap is the stability bound of the 4-neighbour
    Perona-Malik scheme only: ``run_directional_ad``, whose three
    directional terms add up, grows noise at dt = 0.25 while its gradient
    term is on.
    """

    delta: float
    dt: float = 0.25
    iterations: int = 10
    diffusivity_kind: str = "rational"

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if not self.delta * self.delta > 0:  # the weights divide by delta^2
            raise ValueError(f"delta {self.delta!r} is too small: its square underflows to 0")
        if not 0 < self.dt <= 0.25:
            raise ValueError("dt must lie in (0, 0.25] for explicit stability")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.diffusivity_kind not in ("rational", "exponential"):
            raise ValueError(f"unknown diffusivity kind {self.diffusivity_kind!r}")


@dataclass(frozen=True)
class BoundPair:
    """Open interval (ue_min, ue_max) gating the adaptive weight."""

    ue_min: float
    ue_max: float

    def __post_init__(self):
        if math.isnan(self.ue_min) or math.isnan(self.ue_max):
            raise ValueError("bounds must not be NaN")
        if self.ue_min > self.ue_max:
            raise ValueError("ue_min must not exceed ue_max")


@dataclass(frozen=True)
class AdaptiveParams:
    """Settings for the adaptive directional filter.

    mode selects the update sign and gating: ``mip_min`` pushes curved
    structure downward along all three directions, and ``run_filter`` adds
    forward diffusion of weight ``MIP_MIN_NU`` along eta and e2; ``mip``
    pushes upward along eta and e2 only, gated to directional derivatives
    inside histogram-derived bounds. alpha = 0 turns the filter into the
    identity.
    """

    alpha: float = DEFAULT_ALPHA
    mode: str = "mip_min"
    tail_prob: float = 0.05
    tolerance: float = 1e-4
    max_iterations: int = 6
    step: float = 0.2

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError("alpha must be finite and non-negative")
        if self.mode not in ("mip", "mip_min"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0 < self.tail_prob < 0.5:
            raise ValueError("tail_prob must lie in (0, 0.5)")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError("step must be finite and positive")


@dataclass(frozen=True)
class HysteresisParams:
    """Gain pair and structureness threshold for two-pass combination."""

    alpha_low: float = 0.5
    alpha_high: float = 2.0
    c_threshold: float | None = None

    def __post_init__(self):
        for name in ("alpha_low", "alpha_high"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 0 <= self.alpha_low < self.alpha_high:
            raise ValueError("need 0 <= alpha_low < alpha_high")
        if self.c_threshold is not None and not self.c_threshold >= 0:
            raise ValueError("c_threshold must be non-negative when given")


@dataclass
class FilterTrace:
    """Run record of the iterative directional filter.

    basis_sum holds the final iteration's raw per-pixel update before step
    scaling: sum(mu_i * d_i), plus MIP_MIN_NU * (d_eta + d_e2) in mip_min
    mode, so a one-iteration run gives out == in + step * basis_sum. It
    feeds the filter-synthesized channel scaling of multi-coil combination.
    Every trace is built once the run has ended. A slice that stopped
    while others of its stack stepped on holds a copy of its last update;
    the basis_sum of every other slice, a lone slice's included, is a view
    of the run's one update buffer, shared across the stack, which ``pc``
    rescales in place.
    """

    iterations: int
    relative_changes: list
    basis_sum: np.ndarray
    converged: bool


def default_delta(field) -> float:
    """Contrast scale default: 10% of the field's dynamic range (1.0 if flat)."""
    u = as_field(field)
    span = float(u.max() - u.min())
    return 0.1 * span if span > 0 else 1.0


def _pm_weights(s, params: PMParams, out=None, slope=True):
    """``(g, f2)``: the edge-stopping diffusivity g(s) and, when ``slope``,
    the flux slope f''(s) (else None), both from one r = s^2/d^2.

    g is rational 1/(1 + r) or exponential exp(-r). f'' is the slope of the
    flux s*g(s), the second derivative of the smoothing energy: rational
    (1 - r) / (1 + r)^2, exponential (1 - 2r) * exp(-r). It is negative
    beyond s = delta (or delta/sqrt(2)), which is what halts smoothing
    across strong edges in the orthogonal split.

    Written into out = (g, f2, scratch) when given, so a kernel can refill
    one workspace instead of allocating."""
    g_out, f2_out, r_out = out or (None,) * 3
    r = np.multiply(s, s, r_out)
    r = np.divide(r, params.delta * params.delta, r_out)
    if params.diffusivity_kind == "exponential":
        g = np.exp(np.negative(r, g_out), g_out)
        if not slope:
            return g, None
        f2 = np.subtract(1.0, np.multiply(2.0, r, f2_out), f2_out)
        return g, np.multiply(f2, g, f2_out)
    f2 = np.subtract(1.0, r, f2_out) if slope else None
    r = np.add(1.0, r, r_out)
    g = np.divide(1.0, r, g_out)
    if not slope:
        return g, None
    return g, np.divide(f2, np.square(r, r_out), f2_out)


def _weights_finite(params: PMParams, span: float) -> bool:
    """Whether ``_pm_weights`` stays finite, overflowing nowhere, for every
    s <= ``span``. Its one r = s^2/d^2 grows with s, rounding included, and
    so do its largest intermediates, (1 + r)^2 of the rational f'' and 2r
    of the exponential one; r, 1 + r and exp(-r) stay below them. So every
    s <= span is safe exactly when that intermediate is finite at s = span:
    r below about 1.3e154, delta above span / 1.2e77, for the rational
    kind, and r below about 9e307, delta above span / 9.5e153, for the
    exponential one."""
    r = span * span / (params.delta * params.delta)
    top = 2.0 * r if params.diffusivity_kind == "exponential" else (1.0 + r) * (1.0 + r)
    return math.isfinite(top)


def _norm(x) -> float:
    """The L2 norm of the 2-D array ``x``, a sum numpy takes itself, without
    a temporary on a strided view. Unlike ``ndarray.dot``, whose BLAS splits
    long sums over its own threads, it gives the same bits on any number of
    BLAS threads, and starts none to contend with the strip worker."""
    return math.sqrt(np.einsum("ij,ij->", x, x))


def _run(ws, u, step, iterations: int, tolerance: float, update):
    """The one iteration loop of every filter call: up to ``iterations``
    steps u <- u + step * update(u) of the validated (k, ny, nx) stack
    ``u``, where ``update`` returns the raw per-pixel update of the whole
    stack. Each slice stops on its own once its relative L2 change
    (``_norm``) drops below ``tolerance`` (never, when it is 0); a stopped
    slice keeps its value while the others step on, and the loop ends once
    all have stopped. Each step of a slice, the last one included, is
    checked right after it is taken: one that leaves a NaN or Inf is
    refused with the error of such an input. Returns ``(u, traces)``, one
    ``FilterTrace`` per slice with the slice's last update as
    ``basis_sum``. Every slice gets the bits of a run of its own.

    It keeps one iterate, in the ``_Workspace`` ``ws``'s ``it``, so the
    caller's array is never written. ``update(it)`` first copies it into
    the padded buffer, as ``_sweep`` does, which leaves ``it`` free while
    the strips run (the worker keeps strip buffers there); the step and the
    change then read the old iterate in the padded buffer's interior, and
    the change is taken in place there."""
    it = ws.it
    np.copyto(it, u)
    k, ny, nx = it.shape
    old = ws.q[1:-1].reshape(k, ny + 2, nx + 2)[:, 1:-1, 1:-1]
    changes: list[list[float]] = [[] for _ in it]
    kept = {}  # the last update of each slice stopped while others step on
    live = range(k)  # the slices still stepping
    for _ in range(iterations):
        du = update(it)
        base = {i: _norm(old[i]) for i in live}
        np.multiply(step, du, it)
        np.add(old, it, it)
        for i in kept:
            it[i] = old[i]
        np.subtract(it, old, old)
        stop = []
        for i in live:
            diff = _norm(old[i])
            # a finite norm of the change means every pixel is finite
            if not math.isfinite(diff) and not np.isfinite(it[i]).all():
                raise ValueError("field contains NaN or Inf values")
            rel = 0.0 if diff == 0.0 else (math.inf if base[i] == 0.0 else diff / base[i])
            changes[i].append(rel)
            if rel < tolerance:
                stop.append(i)
        live = [i for i in live if i not in stop]
        if not live:
            break
        for i in stop:  # the next step refills the update buffer
            kept[i] = du[i].copy()
    return it, [FilterTrace(len(c), c, kept.get(i, du[i]), converged=i not in live)
                for i, c in enumerate(changes)]


def pm_step(field, params: PMParams) -> np.ndarray:
    """One explicit conservative step of scalar edge-stopping diffusion.

    Fluxes live on half-pixel faces with the diffusivity evaluated from the
    face-normal difference; border faces carry zero flux, so the pixel sum
    is conserved to rounding. It is a one-iteration ``run_pm``.
    """
    return run_pm(field, replace(params, iterations=1))


def _pm_stack(u, params: PMParams) -> np.ndarray:
    """``run_pm`` of each slice of the validated (k, ny, nx) stack ``u``:
    ``_pm_strip`` on each strip of a ``_Workspace`` with one spare row,
    whose padded buffer has a zero border."""
    ny, nx = u.shape[1:]
    with _Workspace(u, spare=1) as ws:
        # per strip, its faces on the slices' borders: the first and last
        # face columns, and the face rows north of the slices' first rows
        # and south of their last, where the strip holds those rows
        border = []
        for _, buf, ((d, r), *_) in ws.strips:
            rows = [j for i, j in ((d.start, r.start), (d.stop, r.stop)) if i % ny == 0]
            border.append([buf[0][:-1, ::nx], *(buf[2][j :: ny + 2] for j in rows)])
        return _run(ws, u, params.dt, params.iterations, 0.0,
                    lambda v: _sweep(ws, v, _pm_strip, params, each=border, zero=True))[0]


def run_pm(field, params: PMParams) -> np.ndarray:
    """Apply ``params.iterations`` explicit scalar diffusion steps; the input
    is validated once, and every step runs in the strip workspace of
    ``_Workspace``."""
    return _pm_stack(as_field(field)[None], params)[0]


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Worker:
    """A thread that runs one function at a time for the thread that made
    it, under that thread's floating-point error state (numpy keeps one per
    thread), so that it warns, raises or keeps quiet as the caller would.

    ``start`` hands it a function; ``wait`` blocks until that has returned
    and re-raises what it raised, if anything; ``close`` stops the thread."""

    def __init__(self):
        self._job = None
        self._error = None
        self._go = threading.Semaphore(0)
        self._done = threading.Semaphore(0)
        self._thread = threading.Thread(target=self._loop, name="mipdiff-strips", daemon=True)
        self._thread.start()

    def _loop(self):
        while True:
            self._go.acquire()
            if self._job is None:
                return
            fn, state = self._job
            try:
                with np.errstate(**state):
                    fn()
            except BaseException as exc:  # re-raised by wait, in the caller's thread
                self._error = exc
            self._done.release()

    def start(self, fn):
        self._job = fn, dict(np.geterr(), call=np.geterrcall())
        self._go.release()

    def wait(self):
        self._done.acquire()
        error, self._error = self._error, None
        if error is not None:
            raise error

    def close(self):
        self._job = None
        self._go.release()
        self._thread.join()


class _Workspace:
    """The arrays of one filter call on the validated field or (k, ny, nx)
    stack ``u``, allocated in this order once per call and freed when it
    returns: ``q``, the padded buffer of ``fields._padded`` (one tall
    field, pad rows between slices); ``it``, the iterate that ``_run``
    steps; ``update``, the contiguous update it steps with; and
    ``strips``, the strips over them.

    A slice of at most ``_STRIP_PIXELS`` pixels lies whole in a strip,
    with up to ``_batch(ny, nx) - 1`` slices after it; a larger one is
    split into strips of ``_STRIP_PIXELS // nx`` rows. Per strip: its
    neighbour views of ``q`` (``fields._neighbours``) over its rows of the
    tall field, pad rows between its slices included; its rows and
    ``spare`` more of eight float64 buffers and one bool mask, each
    nx + 2 wide; and the pairs of rows of the update, read as
    (k * ny, nx), and of the strip that the copy-out takes, one per slice,
    skipping the pad rows.

    A call of two or more strips, on a process allowed more than one CPU,
    gets one worker thread (``_Worker``) while its ``with`` block runs,
    which ``_sweep`` hands every other strip. Those strips have a second
    set of buffers, as many of them as fit held in ``it``, which holds
    nothing while a sweep runs. Used without ``with``, every strip runs in
    the calling thread."""

    def __init__(self, u, spare=0):
        ny, nx = u.shape[-2:]
        k = u.size // (ny * nx)
        self.q = np.empty(k * (ny + 2) * (nx + 2) + 2)
        self.it = np.empty_like(u)
        self.update = np.empty_like(u)
        if ny * nx <= _STRIP_PIXELS:  # whole slices, `per` to a strip
            per = min(k, _batch(ny, nx))
            rows = per * (ny + 2) - 2
            spans = [(i, min(i + per, k), 0, ny) for i in range(0, k, per)]
        else:  # row strips inside each slice
            rows = max(1, _STRIP_PIXELS // nx)
            spans = [(i, i + 1, r0, min(r0 + rows, ny))
                     for i in range(k) for r0 in range(0, ny, rows)]
        shape = (rows + spare, nx + 2)
        sets = [[np.empty(shape) for _ in range(8)] + [np.empty(shape, dtype=bool)]]
        self._threads = len(spans) > 1 and _cpus() > 1
        if self._threads:
            size = shape[0] * shape[1]
            flat = self.it.reshape(-1)
            held = [flat[j * size : (j + 1) * size].reshape(shape)
                    for j in range(min(8, flat.size // size))]
            sets.append(held + [np.empty(shape) for _ in range(8 - len(held))]
                        + [np.empty(shape, dtype=bool)])
        self.strips = []
        for j, (i0, i1, r0, r1) in enumerate(spans):  # slices i0:i1, rows r0:r1 of each
            t0, t1 = i0 * (ny + 2) + r0, (i1 - 1) * (ny + 2) + r1  # rows of the tall field
            bufs = sets[j % len(sets)]
            views = bufs if t1 - t0 == rows else [b[: t1 - t0 + spare] for b in bufs]
            pieces = []
            for i in range(i0, i1):  # each slice's rows, not the pad rows after it
                o = (i - i0) * (ny + 2)
                pieces.append((slice(i * ny + r0, i * ny + r1), slice(o, o + r1 - r0)))
            self.strips.append((_neighbours(self.q, nx, t0, t1), views, pieces))
        self.worker = None

    def __enter__(self):
        if self._threads:
            self.worker = _Worker()
        return self

    def __exit__(self, *exc):
        if self.worker is not None:
            self.worker.close()
            self.worker = None


def _sweep(ws, v, body, *args, each=None, zero=False, outs=None):
    """The one strip loop of the filter kernels: refill the padded buffer
    of the ``_Workspace`` ``ws`` with the fields ``v`` (with a zero border
    for ``zero``, else reflected), run ``body(nb, buf, *args)`` on each
    strip's neighbour views and buffers, and copy the pixel columns of the
    strip map it returns, slice by slice, into the strip's rows of the
    update (a ufunc writing them directly would buffer its strided
    operands). With ``outs``, a tuple of arrays shaped like the update, the
    body returns one strip map per array instead, each copied into its
    own. With ``each``, a list of one value per strip, each body also gets
    its strip's value, last. The workspace's worker, if it has one, runs
    every other strip, from the second on, while this thread runs the
    rest; no strip reads what another writes. Returns the update."""
    _padded(v, ws.q, zero)
    rows = [o.reshape(-1, v.shape[-1]) for o in ((ws.update,) if outs is None else outs)]

    def run(first, stride):
        for j in range(first, len(ws.strips), stride):
            nb, buf, pieces = ws.strips[j]
            m = body(nb, buf, *args) if each is None else body(nb, buf, *args, each[j])
            for d, r in pieces:
                for dst, src in zip(rows, (m,) if outs is None else m):
                    dst[d] = src[r, 1:-1]

    if ws.worker is None:
        run(0, 1)
    else:
        ws.worker.start(lambda: run(1, 2))
        try:
            run(0, 2)
        finally:
            ws.worker.wait()
    return ws.update


def _pm_strip(nb, buf, params: PMParams, border):
    """Raw per-pixel update (fe - fw) + (fs - fn) of ``run_pm`` on one strip
    of a zero-bordered padded buffer, in its buffers read flat. Each face
    d = u[j + 1] - u[j] is taken once: east faces e - u over whole padded
    rows, so a pixel's west face is its neighbour's east face, north faces
    u - n, and in the spare row the last row's south faces. No face mixes
    two slices; the views ``border`` zero the faces that hold a pixel
    value before any flux is taken, as g(0) * 0 = +0 is a border flux."""
    u, e, _, s, n = (v.reshape(-1) for v in nb)
    fe, ge, fs, gs = (b.reshape(-1) for b in buf[:4])
    w, m = nb[0].shape[1], u.size
    np.subtract(e, u, fe[:m])
    np.subtract(u, n, fs[:m])
    np.subtract(s[-w:], u[-w:], fs[m:])
    for f in border:
        f[...] = 0.0
    for f, g in ((fe[:m], ge[:m]), (fs, gs)):
        _pm_weights(f, params, (g, None, g), slope=False)
        np.multiply(g, f, f)
    # fe - fw into ge, fs - fn into gs, and their sum into ge
    np.subtract(fe[1:m], fe[: m - 1], ge[1:m])
    np.subtract(fs[w:], fs[:m], gs[:m])
    np.add(ge[1:m], gs[1:m], ge[1:m])
    return buf[1][:-1]


def _orthogonal_strip(nb, buf, params: PMParams):
    """Raw per-pixel update lam1 * D_o + lam2 * D_p of ``run_orthogonal``
    on one strip, in its buffers."""
    d_par, g4 = _gradient_strip(nb, buf)
    _, d_ortho, uxx, uyy, _, t0, _, _, mask = buf  # D_o takes d's buffer
    np.add(uxx, uyy, d_ortho)
    np.subtract(d_ortho, d_par, d_ortho)
    # mask holds g4 > 0 from _gradient_strip; D_o is 0 where it is false
    np.copyto(d_ortho, 0.0, where=np.logical_not(mask, mask))
    lam1, lam2 = _pm_weights(_gradient_norm(g4), params, (uxx, uyy, t0))
    np.multiply(lam1, d_ortho, d_ortho)
    np.multiply(lam2, d_par, d_par)
    return np.add(d_ortho, d_par, d_ortho)


def run_orthogonal(field, params: PMParams) -> np.ndarray:
    """Apply ``params.iterations`` explicit steps of the gradient/orthogonal
    split of the divergence; the input is validated once.

    The update is lam1 * D_o + lam2 * D_p where D_o and D_p are the second
    derivatives across and along the gradient, lam1 = g(|grad u|) and
    lam2 = f''(|grad u|), the weights of ``_pm_weights``. D_p is the second
    derivative along the unit gradient, ``fields._gradient_strip``, and D_o
    the rest of the Laplacian. Pixels with zero gradient are left
    unchanged. Every step runs in the strip workspace of ``_Workspace``.
    """
    return _orthogonal_stack(as_field(field)[None], params)[0]


def _orthogonal_stack(u, params: PMParams) -> np.ndarray:
    """``run_orthogonal`` of each slice of the validated (k, ny, nx) stack ``u``."""
    with _Workspace(u) as ws:
        return _run(ws, u, params.dt, params.iterations, 0.0,
                    lambda v: _sweep(ws, v, _orthogonal_strip, params))[0]


def _nearest_rank_index(q: float, n: int) -> int:
    # smallest 1-based rank k with k >= q*n, robust to float round-off
    x = q * n
    k = math.floor(x)
    if x - k > 1e-9:
        k += 1
    return min(max(k, 1), n) - 1


def histogram_bounds(d_e, tail_prob: float = 0.05) -> BoundPair:
    """Symmetric nearest-rank tail quantiles of a directional-derivative map.

    Returns the (tail_prob/2, 1 - tail_prob/2) nearest-rank quantiles, so
    Pr(d_e < ue_min) <= tail_prob/2 and Pr(d_e > ue_max) <= tail_prob/2 on
    the sample. Requires at least 100 values.
    """
    if not 0 < tail_prob < 0.5:
        raise ValueError("tail_prob must lie in (0, 0.5)")
    values = np.asarray(d_e, dtype=np.float64).ravel()
    n = values.size
    if n < 100:
        raise ValueError(f"histogram bounds need >= 100 pixels, got {n}")
    q = tail_prob / 2.0
    i = _nearest_rank_index(q, n)
    j = _nearest_rank_index(1.0 - q, n)
    # exact selection: rank i, then rank j among the values above it, found
    # in place in the partitioned copy (j > i, as tail_prob < 0.5 and n >= 100)
    s = np.partition(values, i)
    above = s[i + 1 :]
    above.partition(j - i - 1)
    return BoundPair(float(s[i]), float(above[j - i - 1]))


def _gate(t, d_e, bounds: BoundPair | None):
    """Weight t zeroed where d_e lies outside the open interval ``bounds``."""
    if bounds is None:
        return t
    return np.where((d_e > bounds.ue_min) & (d_e < bounds.ue_max), t, 0.0)


def _curvature_strip(nb, buf):
    """``(d_eta, lam_max, lam_min, c)`` of one strip, from its neighbour
    views ``nb``, written into its buffers ``buf``: the second derivative
    along the unit gradient (0 where the gradient vanishes), the Hessian
    eigenvalues, which are the second derivatives along the maximum- and
    minimum-curvature directions, and the structureness
    sqrt(uxx^2 + uyy^2), all from ``fields._gradient_strip``, exact for
    the range it gives. No eigenvector is built. The mask, buffer 8, holds
    g4 > 0; buffers 2, 3, 4 and 6 are free again afterwards."""
    d_eta, _ = _gradient_strip(nb, buf)
    _, lam_max, uxx, uyy, b2, lam_min, t1, c, _ = buf
    _eigenvalues(uxx, b2, uyy, (lam_max, lam_min, t1))
    np.square(uxx, c)
    np.square(uyy, t1)
    np.add(c, t1, c)
    np.sqrt(c, c)
    return d_eta, lam_max, lam_min, c


def _mip_min_strip(nb, buf, h: float, nu: float):
    """``_update``'s ``mip_min`` sum on one strip, in its buffers."""
    d_eta, d_e1, d_e2, k = _curvature_strip(nb, buf)
    t, t2 = buf[2], buf[3]
    np.multiply(h, k, k)
    for d, w in ((d_eta, t), (d_e2, t2)):  # (nu - tanh(k * d)) * d
        np.multiply(k, d, w)
        np.tanh(w, w)
        np.subtract(nu, w, w)
        np.multiply(w, d, w)
    np.add(t, t2, t)
    np.multiply(k, d_e1, t2)  # tanh(k * d_e1) * d_e1
    np.tanh(t2, t2)
    np.multiply(t2, d_e1, t2)
    return np.subtract(t, t2, t)


def _mip_maps(nb, buf, h: float):
    """``_update``'s ``mip`` maps (d_eta, d_e2, h * c) of one strip, in its buffers."""
    d_eta, _, d_e2, c = _curvature_strip(nb, buf)
    return d_eta, d_e2, np.multiply(h, c, c)


def _update(ws, v, params: AdaptiveParams, nu: float, maps=None):
    """Raw per-pixel update of one directional step of the fields ``v``
    (a (k, ny, nx) stack), computed in the ``_Workspace`` ``ws``
    and returned in its update buffer.

    With t_i = tanh(alpha * c * d_i / 2), whose negative (``mip_min``) or
    gated value (``mip``) is the adaptive weight mu_i of direction i, and
    d_e1, d_e2 the Hessian eigenvalues lam_max, lam_min: ``mip_min``
    gives (nu - t_eta) * d_eta + (nu - t_e2) * d_e2 - t_e1 * d_e1, the
    sharpening sum plus forward diffusion nu * (d_eta + d_e2); ``mip``
    gives t_eta * d_eta + t_e2 * d_e2 with each weight gated to its
    direction's histogram bounds when a slice has at least 100 pixels,
    ungated below that.

    ``mip_min`` mode is one ``_sweep``. ``mip`` mode first sweeps
    ``_mip_maps``, d_eta into the update buffer and d_e2 and
    k = alpha * c / 2 into ``maps``, a (2, k, ny, nx) buffer, takes each
    slice's bounds from its whole maps, then gates and sums each slice's
    rows of each strip over their d_eta. Every pixel
    sees the operations of a whole-slice evaluation in the same order, so
    the result is the same bit for bit.
    """
    h = 0.5 * params.alpha
    if params.mode == "mip_min":
        return _sweep(ws, v, _mip_min_strip, h, nu)
    out = ws.update
    _sweep(ws, v, _mip_maps, h, outs=(out, *maps))
    ny, nx = out.shape[-2:]
    bounds = [(None, None)] * len(out)
    if ny * nx >= 100:
        bounds = [(histogram_bounds(e, params.tail_prob), histogram_bounds(f, params.tail_prob))
                  for e, f in zip(out, maps[0])]
    d_eta, d_e2, k = (m.reshape(-1, nx) for m in (out, *maps))
    for _, _, pieces in ws.strips:
        for s, _ in pieces:
            b_eta, b_e2 = bounds[s.start // ny]
            t_eta = _gate(np.tanh(k[s] * d_eta[s]), d_eta[s], b_eta)
            t_e2 = _gate(np.tanh(k[s] * d_e2[s]), d_e2[s], b_e2)
            np.add(t_eta * d_eta[s], t_e2 * d_e2[s], out=d_eta[s])
    return out


def directional_step(field, params: AdaptiveParams) -> np.ndarray:
    """One explicit sharpening step u <- u + step * sum(mu_i * d_i): a
    one-iteration ``run_filter`` without forward diffusion, in either mode,
    so it too refuses a step that leaves a NaN or Inf.

    mip mode gates each direction to its histogram bounds when the field
    has at least 100 pixels. alpha = 0 returns the input unchanged, bit for
    bit.
    """
    u = as_field(field)[None]
    return _filter_stack(u, replace(params, max_iterations=1), nu=0.0)[0][0]


def run_filter(field, params: AdaptiveParams) -> tuple[np.ndarray, FilterTrace]:
    """Iterate the directional filter until the relative L2 change drops
    below tolerance or max_iterations is reached.

    Each iteration is u <- u + step * update. In ``mip`` mode the update is
    ``directional_step``'s sharpening term; in ``mip_min`` mode it is that
    term plus forward diffusion MIP_MIN_NU * (d_eta + d_e2), both taken from
    one derivative evaluation. alpha = 0 leaves the input unchanged.
    Non-convergence is reported in the trace, not raised."""
    out, (trace,) = _filter_stack(as_field(field)[None], params)
    return out[0], trace


def _filter_stack(u, params: AdaptiveParams, nu: float = MIP_MIN_NU):
    """``run_filter`` of each slice of the validated (k, ny, nx) stack
    ``u``: the filtered stack and one ``FilterTrace`` per slice. ``nu`` is
    the weight of ``mip_min`` mode's forward diffusion."""
    if params.alpha == 0:
        return u.copy(), [FilterTrace(iterations=1, relative_changes=[0.0],
                                      basis_sum=np.zeros_like(sl), converged=True) for sl in u]
    maps = []
    with _Workspace(u) as ws:
        def kernel(v):
            # mip mode's maps come after the loop's buffers, so that freed
            # they leave no hole below the result (+8.4 MiB peak RSS on coils_512)
            if params.mode == "mip" and not maps:
                maps.append(np.empty((2,) + u.shape))
            return _update(ws, v, params, nu, *maps)

        return _run(ws, u, params.step, params.max_iterations, params.tolerance, kernel)


def hysteresis_filter(field, params: AdaptiveParams, hparams: HysteresisParams):
    """Two-pass filtering: run at alpha_low and alpha_high, pick the high
    result where the better run's structureness exceeds the threshold, the
    low result elsewhere.

    The structureness reference comes from whichever run changed the input
    less (larger PSNR against the input), in one strip pass of
    ``_curvature_strip`` in a ``_Workspace``; the default
    threshold is its 90th percentile. Returns (combined, low_result,
    high_result).
    """
    from .metrics import psnr_vs_input

    u = as_field(field)
    low_out, _ = run_filter(u, replace(params, alpha=hparams.alpha_low))
    high_out, _ = run_filter(u, replace(params, alpha=hparams.alpha_high))
    p_low = psnr_vs_input(u, low_out)
    p_high = psnr_vs_input(u, high_out)
    ref = low_out if p_low >= p_high else high_out
    # psnr_vs_input has validated both results
    with _Workspace(ref) as ws:
        c_ref = _sweep(ws, ref, lambda nb, buf: _curvature_strip(nb, buf)[3])
    threshold = hparams.c_threshold
    if threshold is None:
        threshold = float(np.quantile(c_ref, 0.9))
    return np.where(c_ref > threshold, high_out, low_out), low_out, high_out


def _directional_ad_strip(nb, buf, params: PMParams, thresholds):
    """Raw per-pixel update g * d_eta + g_e1 * d_e1 + g * d_e2 of
    ``run_directional_ad`` on one strip, in its buffers, g_e1 being g where
    |grad u| <= the threshold and 0 elsewhere; ``thresholds`` holds one
    (rows, threshold) pair per slice of the strip."""
    d_eta, g4 = _gradient_strip(nb, buf)
    _, d_e1, uxx, uyy, b2, d_e2, t1, _, mask = buf
    _eigenvalues(uxx, b2, uyy, (d_e1, d_e2, t1))
    gnorm = _gradient_norm(g4)
    g, _ = _pm_weights(gnorm, params, (uxx, None, uyy), slope=False)
    for r, threshold in thresholds:  # pad rows, never copied out, keep g4 > 0
        np.less_equal(gnorm[r], threshold, mask[r])
    # g >= 0, so g * False is the +0 that a select would give
    g_e1 = np.multiply(g, mask, b2)
    np.multiply(g, d_eta, d_eta)
    np.multiply(g_e1, d_e1, d_e1)
    np.add(d_eta, d_e1, d_eta)
    np.multiply(g, d_e2, d_e2)
    return np.add(d_eta, d_e2, d_eta)


def run_directional_ad(field, params: PMParams, grad_threshold: float | None = None) -> np.ndarray:
    """Apply ``params.iterations`` steps of gradient-switched directional
    diffusion.

    All three directional terms diffuse with the scalar edge-stopping
    diffusivity; the maximum-curvature term is switched off across strong
    edges (|grad u| > grad_threshold) so contours are not smeared. The
    threshold defaults to the 90th percentile of the input's gradient
    magnitude and stays fixed; inf never switches the term off, and NaN is
    refused. Every step runs in the strip workspace of ``_Workspace``, which
    also gives the default threshold.
    """
    return _directional_ad_stack(as_field(field)[None], params, grad_threshold)[0]


def _directional_ad_stack(u, params: PMParams, grad_threshold: float | None) -> np.ndarray:
    """``run_directional_ad`` of each slice of the validated (k, ny, nx)
    stack ``u``, each with its own default threshold when none is given:
    the 90th percentile of its |grad u|, one strip pass into the update
    buffer, taken in place there, as the run refills that buffer anyway.
    Each strip compares each slice's rows against the slice's own."""
    if grad_threshold is not None and math.isnan(grad_threshold):
        raise ValueError("grad_threshold must not be NaN")
    with _Workspace(u) as ws:
        if grad_threshold is None:
            gnorm = _sweep(ws, u, lambda nb, buf: _gradient_norm(_gradient_strip(nb, buf)[1]))
            thresholds = [float(np.quantile(g, 0.9, overwrite_input=True)) for g in gnorm]
        else:
            thresholds = [grad_threshold] * len(u)
        ny = u.shape[1]
        each = [[(r, thresholds[d.start // ny]) for d, r in pieces] for _, _, pieces in ws.strips]
        return _run(ws, u, params.dt, params.iterations, 0.0,
                    lambda v: _sweep(ws, v, _directional_ad_strip, params, each=each))[0]
