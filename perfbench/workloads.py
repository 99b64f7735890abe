"""The four benchmark workloads.

Each workload turns a seed into a fixed list of item specs (plain data),
runs one item through gradqfi's public API behind a probe, and checks the
item's outputs against reference.py afterwards, outside the item's timed
interval.  The probe is a pass-through in the timed pass and records spans
in the traced pass, so both passes make the same calls.

The amount of work per run is fixed by --seconds alone: `per_second`
rounds of items per second of run length, calibrated so the rounds take
about that long on a 2-core Xeon VM at the commit that defined the
benchmark.  It never depends on how fast the program is, so a parent and a
child commit time exactly the same items.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys

import reference as ref

MC_WEIGHT = 4
MC_TRAJ = 10_000
FAR_OFFSETS = (1e2, 1e4)


def _rounds(seconds, per_second, minimum=1):
    return max(minimum, round(seconds * per_second))


def _params(rng):
    """Random physical parameters, drawn like the acceptance suite draws them."""
    return dict(
        gamma=rng.uniform(0.5, 2.0), b0=rng.uniform(-1.0, 1.0), grad=rng.uniform(-1.0, 1.0),
        t=rng.uniform(0.5, 2.0), gamma_prime=rng.uniform(0.5, 2.0),
        delta_e=rng.uniform(0.5, 1.5), tau_c=rng.uniform(0.5, 2.0),
    )


def _near_chain(rng, n):
    return tuple(rng.uniform(-1.0, 1.0) for _ in range(n)), rng.uniform(-0.5, 0.5)


def _gt(spec):
    return spec["params"]["gamma"] * spec["params"]["t"]


class Workload:
    name = ""
    rss_of_children = False
    per_second = 1.0
    min_rounds = 1

    def __init__(self, gradqfi, root):
        self.g = gradqfi
        self.root = root
        # children import this checkout's package, whatever their working directory
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def rng(self, seed, tag=""):
        return random.Random(f"{self.name}:{tag}:{seed}")

    def make_inputs(self, seed, seconds):
        rng = self.rng(seed)
        specs = []
        for _ in range(_rounds(seconds, self.per_second, self.min_rounds)):
            specs.extend(self.round_specs(rng))
        return specs

    def traced_extra(self, spec, out, probe, checker):
        """Extra in-process calls made only in the traced pass."""

    def close(self):
        pass


class OracleMixed(Workload):
    """qfi_general on every probe family of one random chain (criterion 01's traffic)."""

    name = "oracle-mixed"
    per_second = 0.9
    NS = tuple(range(2, 9))

    def round_specs(self, rng):
        out = []
        for n in self.NS:
            positions, x0 = _near_chain(rng, n)
            out.append(dict(label=f"n{n}", n=n, positions=positions, x0=x0, params=_params(rng)))
        return out

    def warm_specs(self, seed):
        rng = self.rng(seed, "warm")
        return self.round_specs(rng)[:4:3]  # n = 2 and n = 5

    def run_item(self, spec, probe):
        g, n = self.g, spec["n"]
        config = g.make_chain(spec["positions"], spec["x0"])
        params = g.PhysParams(**spec["params"])
        model = g.NoiseModel.from_params(params)

        def named(name, **kw):
            state = probe.call("core.make_named_state", g.make_named_state, name, n, **kw)
            probe.count("core.make_named_state.terms", state.support_size)
            return state

        def closed(fn, *args):
            report = probe.call("qfi.closed_form", fn, config, params, *args)
            return (report[0] if isinstance(report, tuple) else report).value

        product, ghz = named("product"), named("ghz")
        states = {"product": product, "ghz": ghz}
        for k in range(n + 1):
            states[f"odf-{k}"] = named("odf", k=k)
            states[f"dicke-{k}"] = named("dicke", k=k)
            states[f"psi-{k}"] = named("psi-m", m=k)
        report, states["max-entangled"] = probe.call(
            "qfi.closed_form", g.qfi_max_entangled, config, params)
        states["steady"] = probe.call("noise.steady_twirl", g.steady_twirl, product)
        states["dephased"] = probe.call("noise.apply_channel", g.apply_channel, ghz, model, params.t)
        probe.count("noise.apply_channel.support", ghz.support_size)

        out = {"general": {}, "closed": {"max-entangled": report.value}}
        for key, state in states.items():
            out["general"][key] = probe.call("qfi.qfi_general", g.qfi_general, state, config, params).value
            probe.count("qfi.qfi_general.dim_sum", 1 << n)
            # rho, rho_G, d rho_G, the eigenvectors and V^+ d rho_G V: five complex 2^n x 2^n
            probe.count("qfi.qfi_general.dense_bytes", 5 * 16 * 4**n)
        out["closed"]["product"] = closed(g.qfi_max_separable)
        out["closed"]["steady"] = closed(g.qfi_product_steady)
        out["closed"]["dephased"] = closed(g.qfi_noisy_ghz)
        for k in range(n + 1):
            out["closed"][f"odf-{k}"] = closed(g.qfi_dfs_subspace, k)
            out["closed"][f"dicke-{k}"] = closed(g.qfi_dicke, k)
        out["coherence"] = probe.call("noise.coherence_factor", g.coherence_factor, model, params.t, n)
        return out

    def check(self, spec, out, checker):
        n, p, gt = spec["n"], spec["params"], _gt(spec)
        f = ref.profile(spec["positions"], spec["x0"])
        want = {
            "product": ref.product_qfi(gt, f), "ghz": ref.ghz_qfi(gt, f),
            "max-entangled": ref.max_entangled_qfi(gt, f), "steady": ref.steady_product_qfi(gt, f),
            "dephased": ref.dephased_ghz_qfi(gt, f, p["gamma_prime"], p["delta_e"], p["tau_c"], p["t"]),
        }
        for k in range(n + 1):
            want[f"odf-{k}"] = ref.odf_qfi(gt, f, k)
            want[f"dicke-{k}"] = ref.dicke_qfi(gt, f, k)
            want[f"psi-{k}"] = ref.psim_qfi(gt, f, k)
        scale = gt * gt * math.fsum(abs(v) for v in f) ** 2
        for group in ("general", "closed"):
            for key, got in out[group].items():
                checker.close(f"{group}:{key}", got, want[key], scale)
        d = ref.coherence(p["gamma_prime"], p["delta_e"], p["tau_c"], p["t"], n)
        checker.close("coherence", out["coherence"], d, 1.0)


class SparseLarge(Workload):
    """make_named_state -> qfi_pure -> evolve -> parity_distribution -> classical_fisher."""

    name = "sparse-large"
    # three rounds in 20 s: the big chains dominate and each shape needs
    # three repeats for a steady median
    per_second = 0.15
    SHAPES = tuple(("product", n, None) for n in range(12, 18)) + tuple(
        ("dicke", n, k) for n in range(14, 21) for k in (1, 2, n // 2))
    # The k = 1, 2 Dicke chains (at most 190 terms, a few ms) are over half
    # the shapes, so the median item is one of them; three fresh chains per
    # shape and round make that median steady at almost no cost.
    FEW_TERM_REPEATS = 3
    EVOLVE_SAMPLES = 32

    def round_specs(self, rng):
        shapes = list(self.SHAPES)
        # a fixed third of the shapes sits far from x0, alternating 1e2 / 1e4
        far = rng.sample(range(len(shapes)), len(shapes) // 3)
        offsets = {i: FAR_OFFSETS[j % 2] for j, i in enumerate(far)}
        out = []
        for i, (kind, n, k) in enumerate(shapes):
            offset = offsets.get(i, 0.0)
            for _ in range(self.FEW_TERM_REPEATS if k in (1, 2) else 1):
                if offset:
                    x0 = rng.uniform(-0.5, 0.5)
                    positions = tuple(x0 + offset + rng.uniform(0.0, 1.0) for _ in range(n))
                else:
                    positions, x0 = _near_chain(rng, n)
                out.append(dict(label=f"{kind}-n{n}-k{k}", kind=kind, n=n, k=k, offset=offset,
                                positions=positions, x0=x0, params=_params(rng)))
        return out

    def warm_specs(self, seed):
        rng = self.rng(seed, "warm")
        specs = self.round_specs(rng)
        return [s for s in specs if s["label"] in ("product-n12-kNone", "dicke-n14-k7")]

    def run_item(self, spec, probe):
        g = self.g
        config = g.make_chain(spec["positions"], spec["x0"])
        params = g.PhysParams(**spec["params"])
        kw = {} if spec["k"] is None else {"k": spec["k"]}
        state = probe.call("core.make_named_state", g.make_named_state, spec["kind"], spec["n"], **kw)
        terms = state.support_size
        probe.count("core.make_named_state.terms", terms)
        qfi = probe.call("qfi.qfi_pure", g.qfi_pure, state, config, params).value
        probe.count("qfi.qfi_pure.terms", terms)
        if spec["kind"] == "product":
            closed = probe.call("qfi.closed_form", g.qfi_max_separable, config, params).value
        else:
            closed = probe.call("qfi.closed_form", g.qfi_dicke, config, params, spec["k"]).value
        evolved = probe.call("core.evolve", g.evolve, state, config, params)
        probe.count("core.evolve.terms", terms)
        dist = probe.call("measurement.parity_distribution", g.parity_distribution, state, config, params)
        probe.count("measurement.parity_distribution.terms", terms)
        cfi = probe.call("measurement.classical_fisher", g.classical_fisher, dist).value
        return dict(state=state, evolved=evolved, qfi=qfi, closed=closed, cfi=cfi)

    def check(self, spec, out, checker):
        p, gt, kind, k = spec["params"], _gt(spec), spec["kind"], spec["k"]
        f = ref.profile(spec["positions"], spec["x0"])
        # offset-free information scale: a uniform shift of f must not widen the tolerance
        scale = gt * gt * math.fsum(v * v for v in ref.centred(f))
        far = spec["offset"] > 0.0
        if kind == "product":
            want = ref.product_qfi(gt, f)
            value, slope = ref.product_parity(f, p["gamma"], p["b0"], p["grad"], p["t"])
        else:
            want = ref.dicke_qfi(gt, f, k)
            value, slope = ref.dicke_parity(f, k, p["gamma"], p["grad"], p["t"])
        checker.close("qfi_pure", out["qfi"], want, scale, far=far)
        checker.close("closed_form", out["closed"], want, scale, far=far)
        checker.close("parity_cfi", out["cfi"], ref.parity_cfi(value, slope), scale, far=far)
        state, evolved = out["state"], out["evolved"]
        checker.require("evolve:support", evolved.support_size == state.support_size)
        stride = max(1, state.support_size // self.EVOLVE_SAMPLES)
        evolved_amps = dict(evolved.terms[::stride])
        for bits, amp in state.terms[::stride]:
            want_amp = ref.evolved_amplitude(f, bits, amp, p["gamma"], p["b0"], p["grad"], p["t"])
            checker.close("evolve:amplitude", evolved_amps.get(bits, math.nan), want_amp, abs(amp),
                          far=far)


class McDephasing(Workload):
    """Monte Carlo coherence at criterion 09's times plus small trajectory averages."""

    name = "mc-dephasing"
    per_second = 0.5
    MODEL = dict(gamma_prime=0.25, delta_e=1.0, tau_c=1.0)
    # criterion 09's times: geometric from tau_c/100 to 3 tau_c
    TIMES = tuple(0.01 * 300.0 ** (i / 9) for i in range(10))

    def round_specs(self, rng):
        out = [dict(label=f"coherence-t{t:.3g}", kind="coherence", t=t, seed=rng.getrandbits(63))
               for t in self.TIMES]
        for name, n, k in (("ghz", rng.randint(3, 6), None), ("dicke", rng.randint(4, 6), 2)):
            positions, x0 = _near_chain(rng, n)
            params = _params(rng)
            params.update(gamma_prime=rng.uniform(0.1, 0.3), t=rng.uniform(0.1, 0.9) * params["tau_c"])
            out.append(dict(label=f"trajectory-{name}", kind="trajectory", state=name, n=n, k=k,
                            positions=positions, x0=x0,
                            params=params, seed=rng.getrandbits(63)))
        return out

    def warm_specs(self, seed):
        rng = self.rng(seed, "warm")
        specs = self.round_specs(rng)
        return [specs[0], specs[-1]]

    def run_item(self, spec, probe):
        g = self.g
        ens = g.TrajectoryEnsemble(MC_TRAJ, seed=spec["seed"])
        if spec["kind"] == "coherence":
            probe.count("noise.mc_coherence_magnitude.trajectories", MC_TRAJ)
            model = g.NoiseModel(**self.MODEL)
            return probe.call("noise.mc_coherence_magnitude", g.mc_coherence_magnitude,
                              model, spec["t"], MC_WEIGHT, ens)
        config = g.make_chain(spec["positions"], spec["x0"])
        params = g.PhysParams(**spec["params"])
        kw = {} if spec["k"] is None else {"k": spec["k"]}
        state = probe.call("core.make_named_state", g.make_named_state, spec["state"], spec["n"], **kw)
        probe.count("core.make_named_state.terms", state.support_size)
        probe.count("noise.mc_trajectory_average.trajectories", MC_TRAJ)
        averaged = probe.call("noise.mc_trajectory_average", g.mc_trajectory_average,
                              state, config, params, ens)
        channel = probe.call("noise.apply_channel", g.apply_channel, state,
                             g.NoiseModel.from_params(params), params.t)
        probe.count("noise.apply_channel.support", state.support_size)
        exact = probe.call("core.evolve", g.evolve, channel, config, params)
        probe.count("core.evolve.terms", sum(v.support_size for _, v in channel.eigenpairs))
        return dict(state=state, averaged=averaged, exact=exact)

    def check(self, spec, out, checker):
        if spec["kind"] == "coherence":
            m, t = self.MODEL, spec["t"]
            d = ref.coherence(m["gamma_prime"], m["delta_e"], m["tau_c"], t, MC_WEIGHT)
            band = ref.coherence_band(m["gamma_prime"], m["delta_e"], m["tau_c"], t, MC_WEIGHT, MC_TRAJ)
            checker.band("mc_coherence", out, d, band)
            return
        p = spec["params"]
        f = ref.profile(spec["positions"], spec["x0"])
        psi = dict(out["state"].terms)

        def dense(spectral):
            rho = {}
            for w, vec in spectral.eigenpairs:
                for a, x in vec.terms:
                    for b, y in vec.terms:
                        rho[a, b] = rho.get((a, b), 0j) + w * x * y.conjugate()
            return rho

        averaged, exact = dense(out["averaged"]), dense(out["exact"])
        for a, x in psi.items():
            for b, y in psi.items():
                weight = abs(a.count("1") - b.count("1"))
                d = ref.coherence(p["gamma_prime"], p["delta_e"], p["tau_c"], p["t"], weight)
                want = (ref.evolved_amplitude(f, a, x, p["gamma"], p["b0"], p["grad"], p["t"])
                        * ref.evolved_amplitude(f, b, y, p["gamma"], p["b0"], p["grad"], p["t"]).conjugate()
                        * d)
                checker.close("channel", exact.get((a, b), 0j), want, 1.0)
                se = abs(x * y) * math.sqrt(max(1.0 - d * d, 0.0) / MC_TRAJ)
                checker.band("mc_trajectory", averaged.get((a, b), 0j), want, 3.0 * se + 1e-12)


class CliReproduce(Workload):
    """python -m gradqfi children, one at a time, in fresh working directories."""

    name = "cli-reproduce"
    rss_of_children = True
    per_second = 0.2
    min_rounds = 2
    COMMANDS = (
        ("reproduce-fig3", ["reproduce", "fig3"]),
        ("reproduce-fig4", ["reproduce", "fig4"]),
        ("reproduce-fig5a", ["reproduce", "fig5a"]),
        ("reproduce-fig5b", ["reproduce", "fig5b"]),
        ("reproduce-table1", ["reproduce", "table1"]),
        ("validate", ["validate"]),
        ("qfi", ["qfi", "--state", "product", "--n", "20"]),
        ("cfi", ["cfi", "--state", "ghz", "--n", "10", "--observable", "jx"]),
    )

    def __init__(self, gradqfi, root):
        super().__init__(gradqfi, root)
        self.work = os.path.join(root, "perfbench", "results", f"work-{os.getpid()}")
        self.first = {}
        self.serial = 0

    def round_specs(self, rng):
        order = list(self.COMMANDS)
        rng.shuffle(order)
        return [dict(label=name, command=name, argv=argv) for name, argv in order]

    def warm_specs(self, seed):
        return [dict(label="qfi", command="qfi", argv=dict(self.COMMANDS)["qfi"], warm=True)]

    def run_item(self, spec, probe):
        self.serial += 1
        cwd = os.path.join(self.work, str(self.serial))
        os.makedirs(cwd)
        try:
            cp = probe.call(f"cli.{spec['command']}", subprocess.run,
                            [sys.executable, "-m", "gradqfi", *spec["argv"]],
                            cwd=cwd, env=self.env, capture_output=True)
            files = {}
            for name in sorted(os.listdir(cwd)):
                with open(os.path.join(cwd, name), "rb") as fh:
                    files[name] = fh.read()
        finally:
            shutil.rmtree(cwd)
        return dict(returncode=cp.returncode, stdout=cp.stdout, stderr=cp.stderr, files=files)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def check(self, spec, out, checker):
        name = spec["command"]
        checker.require("exit-code", out["returncode"] == 0, out["stderr"][-300:].decode(errors="replace"))
        if out["returncode"] != 0:
            return
        blob = hashlib.sha256(out["stdout"])
        for fname, data in out["files"].items():
            blob.update(fname.encode() + b":" + data)
        if not spec.get("warm"):
            digest = self.first.setdefault(name, blob.hexdigest())
            checker.require("byte-identical-repeat", digest == blob.hexdigest())
        text = out["stdout"].decode()
        if name.startswith("reproduce-"):
            target = name.split("-", 1)[1]
            rows = _csv_rows(out["files"][f"{target}.csv"])
            getattr(self, f"_check_{target}")(rows, checker)
        elif name == "validate":
            checker.require("validate", text.rstrip().endswith("all checks passed"))
        elif name == "qfi":
            f = ref.equidistant(20, 1.0)
            checker.close("qfi", json.loads(text)["value"], ref.product_qfi(1.0, f), 1.0)
        elif name == "cfi":
            f = ref.equidistant(10, 1.0)
            want = ref.ghz_jx_cfi(f, 1.0, 0.0, 0.0, 1.0)
            checker.close("cfi", json.loads(text)["value"], want, ref.ghz_qfi(1.0, f))

    def _check_fig3(self, rows, checker):
        for i in (1, 140, 2000, 20000):
            t, value = rows[i]
            want = ref.fig3_value(t)
            checker.close("fig3", value, want, 1e-300)

    def _check_fig4(self, rows, checker):
        for k in (1, 25, 50, 99):
            want = ref.fig4_row(100, 1.0, k)
            for got, w in zip(rows[k][1:], want):
                checker.close("fig4", got, w, want[0])

    def _check_fig5a(self, rows, checker):
        for n in (2, 3, 500, 1000):
            for got, w in zip(rows[n - 2][1:], ref.fig5a_row(n, 1.0)):
                checker.close("fig5a", got, w, 1e-300)

    def _check_fig5b(self, rows, checker):
        for n in (2, 3, 500, 1000):
            for got, w in zip(rows[n - 2][1:], ref.fig5b_row(n, 1.0)):
                checker.close("fig5b", got, w, 1e-300)

    def _check_table1(self, rows, checker):
        for label, *values in rows:
            checker.close(f"table1:{label}", values[2], ref.TABLE1_EQUIDISTANT[label], 1e-300)

    def traced_extra(self, spec, out, probe, checker):
        """Replay a reproduce/qfi/cfi item in-process with the CLI's own argument resolution."""
        g, name = self.g, spec["command"]
        if name == "validate" or out["returncode"] != 0:
            return
        from gradqfi import cli

        args = cli.build_parser().parse_args(spec["argv"])
        cfg = cli.RunConfig(args.command, getattr(args, "target", None), args)
        if name == "qfi":
            report = probe.call("qfi.closed_form", g.qfi_max_separable, cfg.chain(), cfg.params())
            checker.require("in-process:qfi", report.value == json.loads(out["stdout"])["value"])
            return
        if name == "cfi":
            dist = probe.call("measurement.jx_distribution", g.jx_distribution,
                              cfg.named_state(), cfg.chain(), cfg.params())
            report = probe.call("measurement.classical_fisher", g.classical_fisher, dist)
            checker.require("in-process:cfi", report.value == json.loads(out["stdout"])["value"])
            return
        target = cfg.target
        gt = cfg.gamma * cfg.t
        if target == "fig3":
            result = probe.call("scenarios.sweep_fig3", g.sweep_fig3, cfg.chain(), cfg.params(),
                                points=cfg.points or 20001, t_max=cfg.t_max or 0.02,
                                factor_out_gamma_t=cfg.factor_out_gamma_t)
        elif target == "fig4":
            result = probe.call("scenarios.sweep_fig4", g.sweep_fig4, cfg.n, cfg.length, gt)
        elif target == "table1":
            result = probe.call("scenarios.table1", g.table1, cfg.n, cfg.length, gt)
        else:
            result = probe.call(f"scenarios.sweep_{target}", g.sweep_fig5, range(2, cfg.n_max + 1),
                                cfg.length, target[-1], gt)
        text = probe.call("cli.emit_csv", cli.emit_csv, result.columns, result.rows)
        checker.require(f"in-process:{target}", text.encode() == out["files"][f"{target}.csv"])


def _csv_rows(data):
    lines = data.decode().splitlines()[2:]  # magic line, header
    return [[float(c) if _is_number(c) else c for c in line.split(",")] for line in lines]


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


WORKLOADS = {w.name: w for w in (OracleMixed, SparseLarge, McDephasing, CliReproduce)}
