"""One measured run of one workload, in a process of its own.

run.py starts this file with the BLAS thread count fixed in the
environment and reads the JSON object on its last line of output.  The
set-up clock starts before numpy and qsat are imported.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from qsat import cli, data, deployment, training  # noqa: E402,F401
from qsat.tensor import Tensor  # noqa: E402

T_IMPORTED = time.perf_counter()

import checks as chk  # noqa: E402
from run import declared_metrics  # noqa: E402
from tracing import Samples, Tracer, now, traced_eval, traced_train  # noqa: E402

CONFIGS = HERE / "configs"
TRAIN_CONFIGS = {
    "train-q4-convnet": "q4_convnet.cfg",
    "train-raw-preresnet": "raw_preresnet.cfg",
}
INFER_CONFIG = "q4_convnet.cfg"

SETUP_REPEATS = 3
# infer-fold-q4 evaluates a seeded subset of a fixed validation pool; the
# first REF_IMAGES of the pool are the seed-independent agreement set
POOL_IMAGES = 640
EVAL_IMAGES = 320
REF_IMAGES = 320
CHECK_IMAGES = 32
# each timed pass phase runs at least this many passes
MIN_PASSES = 3
TRACE_EVAL_PASSES = 5


def load_config(name: str, seed: int):
    """The config as ``qsat`` parses it, with the seed overridden like --seed."""
    cfg = training.parse_config_file(CONFIGS / name)
    return dataclasses.replace(cfg, seed=seed)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(samples, name, scale, fn, *args, **kwargs):
    t0 = now()
    out = fn(*args, **kwargs)
    if samples is not None:
        samples.add(name, scale * (now() - t0))
    return out


# -- training workloads -----------------------------------------------------------


class TrainSetup:
    """What ``qsat train`` prepares before its training call, plus warm-up."""

    def __init__(self, cfg, ckpt_dir: Path, samples: Samples | None):
        self.cfg = cfg
        self.train_set, self.val_set = timed(
            samples, "data.load_dataset_s", 1.0, data.load_dataset,
            cfg.dataset, path=cfg.dataset_path, seed=cfg.seed,
            train_size=cfg.train_size, val_size=cfg.val_size,
        )
        self.classes = max(self.train_set.num_classes, self.val_set.num_classes)
        model = self.model = training.build_model_from_config(
            cfg, self.train_set.image_shape, self.classes)
        self.init_state = None
        if cfg.quantized:
            ckpt = timed(samples, "deployment.load_checkpoint_ms", 1e3,
                         deployment.load_checkpoint, ckpt_dir / "fp" / "checkpoint.ckpt")
            self.init_state = ckpt.tensors
            model.load_state(self.init_state)
        digest = training.config_hash(cfg)

        def save_fn(m, path):
            deployment.save_checkpoint(m, path, config_hash=digest)

        self.save_fn = save_fn
        training.evaluate(model, subset(self.val_set, cfg.batch_size), batch_size=cfg.batch_size)
        # warm-up steps on a second copy keep the starting model as loaded
        warm = training.build_model_from_config(cfg, self.train_set.image_shape, self.classes)
        if self.init_state is not None:
            warm.load_state(self.init_state)
        warm_up_steps(warm, self.train_set, cfg)


def subset(dataset, count):
    return data.ArrayDataset(dataset.images[:count], dataset.labels[:count])


def warm_up_steps(model, train_set, cfg, steps: int = 2) -> None:
    opt = training.SGD(model.parameters(), momentum=cfg.momentum, weight_decay=cfg.weight_decay)
    bs = cfg.batch_size
    for b in range(steps):
        opt.zero_grad()
        x = Tensor(train_set.images[b * bs : (b + 1) * bs])
        training.cross_entropy(model.forward(x, training=True),
                               train_set.labels[b * bs : (b + 1) * bs]).backward()
        opt.step(1e-4)


def repeated_setup(make, samples=None):
    """Run the set-up SETUP_REPEATS times; (last result, setup_s).

    setup_s is the imports plus the median set-up.  The first set-up also
    pays the process's first-call costs; the time from before the imports
    to its end is printed, and reported by the traced run as
    ``setup.first_s``.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = now()
        result = make(samples)
        times.append(now() - t0)
        if len(times) == 1:
            first_s = now() - T_START
    print(f"setup: imports {T_IMPORTED - T_START:.4f} s, set-ups "
          f"{', '.join(f'{t:.4f}' for t in times)} s, first set-up done at "
          f"{first_s:.4f} s", file=sys.stderr)
    if samples is not None:
        samples.add("setup.first_s", first_s)
    return result, (T_IMPORTED - T_START) + statistics.median(times)


def train_checks(checks, cfg, setup, result, out_dir):
    losses = [float(row[4]) for row in result.metrics_rows if row[1] == "train"]
    chk.training_outcome_checks(checks, losses, result.final_top1)
    chk.evaluate_count_check(checks, result.model, setup.val_set, cfg.batch_size)
    state = deployment.load_checkpoint(out_dir / "checkpoint.ckpt").tensors
    if cfg.quantized:
        chk.q4_convnet_checks(checks, result.model, cfg, state)
    else:
        chk.gradient_check(checks, cfg, state, setup.val_set.images[:8],
                           setup.val_set.labels[:8], setup.classes)


def run_train(args, checks) -> dict:
    cfg = load_config(TRAIN_CONFIGS[args.workload], args.seed)
    setup, setup_s = repeated_setup(lambda s: TrainSetup(cfg, args.ckpt_dir, s))
    bs = cfg.batch_size
    start = now()
    # evaluation passes on the starting model before the training call and
    # on the trained model after it, so the metric samples both ends of the
    # run; a pass costs the same whatever the weights
    eval_times = passes_for(args.seconds / 4, lambda: training.evaluate(
        setup.model, setup.val_set, batch_size=bs))
    out_dir = args.work_dir / "train"
    t0 = now()
    result = training.train(cfg, out_dir=out_dir, init_state=setup.init_state,
                            save_checkpoint_fn=setup.save_fn)
    train_s = now() - t0
    left = max(args.seconds - (now() - start), args.seconds / 4)
    eval_times += passes_for(left, lambda: training.evaluate(
        result.model, setup.val_set, batch_size=bs))
    steps = cfg.epochs * (len(setup.train_set) // bs)
    metrics = {
        "setup_s": setup_s,
        "images_per_s": steps * bs / train_s,
        "eval_images_per_s": len(setup.val_set) / statistics.median(eval_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    train_checks(checks, cfg, setup, result, out_dir)
    return metrics


def passes_for(seconds: float, one_pass) -> list[float]:
    """Repeat a pass until ``seconds`` have gone by and MIN_PASSES are done."""
    times = []
    start = now()
    while len(times) < MIN_PASSES or now() - start < seconds:
        t0 = now()
        one_pass()
        times.append(now() - t0)
    return times


def trace_train(args, checks) -> Samples:
    cfg = load_config(TRAIN_CONFIGS[args.workload], args.seed)
    samples = Samples()
    samples.add("cli.import_s", T_IMPORTED - T_START)
    setup, _ = repeated_setup(lambda s: TrainSetup(cfg, args.ckpt_dir, s), samples)
    out_dir = args.work_dir / "traced"
    tracer = Tracer()
    result = traced_train(cfg, setup.init_state, out_dir, setup.save_fn, tracer, samples)
    trace_eval(result.model, setup.val_set, cfg.batch_size, tracer, samples)
    for layer, (w_shape, out_shape) in tracer.conv_shapes.items():
        flops = 3 * conv_macs(w_shape, out_shape) * 2
        ms = (samples.median(f"tensor.conv2d.{layer}.fwd_ms")
              + samples.median(f"tensor.conv2d.{layer}.bwd_ms"))
        samples.add(f"tensor.conv2d.{layer}.gflops", flops / (ms * 1e6))
    train_checks(checks, cfg, setup, result, out_dir)
    return samples


def conv_macs(w_shape, out_shape) -> int:
    """Multiply-accumulates of one convolution, from its shapes."""
    n, co, ho, wo = out_shape
    _, ci, k, _ = w_shape
    return n * co * ho * wo * ci * k * k


def trace_eval(model, dataset, batch_size, tracer, samples):
    plain, traced = traced_eval(model, dataset, batch_size, TRACE_EVAL_PASSES, tracer, samples)
    for seconds in plain:
        samples.add("training.evaluate_ms", 1e3 * seconds)
    samples.add("trace.evaluate_overhead_ms",
                1e3 * (statistics.median(traced) - statistics.median(plain)))


# -- folded integer inference ----------------------------------------------------


class InferSetup:
    """What ``qsat fold`` and ``qsat eval`` on the folded file prepare."""

    def __init__(self, args, samples: Samples | None):
        # the model is the checkpoint's; only the choice of images is seeded
        cfg = self.cfg = training.parse_config_file(CONFIGS / INFER_CONFIG)
        train, pool = timed(samples, "data.load_dataset_s", 1.0, data.load_dataset,
                            cfg.dataset, path=cfg.dataset_path, seed=cfg.seed,
                            train_size=10, val_size=POOL_IMAGES)
        pick = np.random.default_rng([args.seed, 0x1F0]).permutation(len(pool))[:EVAL_IMAGES]
        self.eval_set = data.ArrayDataset(pool.images[pick], pool.labels[pick])
        self.ref_images = pool.images[:REF_IMAGES]
        self.model = training.build_model_from_config(
            cfg, train.image_shape, max(train.num_classes, 2))
        timed(samples, "deployment.load_checkpoint_ms", 1e3, deployment.load_model_checkpoint,
              args.ckpt_dir / "q4" / "checkpoint.ckpt", self.model,
              expect_hash=training.config_hash(cfg))
        folded = timed(samples, "deployment.fold_bn_ms", 1e3, deployment.fold_bn, self.model)
        path = args.work_dir / "folded.ckpt"
        timed(samples, "deployment.save_folded_ms", 1e3, deployment.save_folded, folded, path,
              config_hash=training.config_hash(cfg))
        self.folded = timed(samples, "deployment.load_folded_ms", 1e3, deployment.load_folded, path)
        bs = cfg.batch_size
        self.folded.forward_int(self.eval_set.images[:bs])
        training.evaluate(self.model, subset(self.eval_set, bs), batch_size=bs)

    def int_pass(self):
        """forward_int over the eval images in ``qsat eval``'s batches."""
        bs = self.cfg.batch_size
        images = self.eval_set.images
        for start in range(0, len(images), bs):
            self.folded.forward_int(images[start : start + bs]).argmax(axis=1)

    def float_pass(self):
        training.evaluate(self.model, self.eval_set, batch_size=self.cfg.batch_size)


def infer_checks(checks, setup):
    bs = setup.cfg.batch_size
    chk.folded_checks(checks, setup.folded, setup.model, setup.eval_set.images[:CHECK_IMAGES],
                      setup.ref_images, bs)
    chk.evaluate_count_check(checks, setup.model, setup.eval_set, bs)


def run_infer(args, checks) -> dict:
    setup, setup_s = repeated_setup(lambda s: InferSetup(args, s))
    int_times, eval_times = [], []
    start = now()
    # alternate the two paths so slow stretches of the machine hit both
    while len(int_times) < MIN_PASSES or now() - start < args.seconds:
        for fn, times in ((setup.int_pass, int_times), (setup.float_pass, eval_times)):
            t0 = now()
            fn()
            times.append(now() - t0)
    n = len(setup.eval_set)
    metrics = {
        "setup_s": setup_s,
        "images_per_s": n / statistics.median(int_times),
        "eval_images_per_s": n / statistics.median(eval_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    infer_checks(checks, setup)
    return metrics


def trace_infer(args, checks) -> Samples:
    samples = Samples()
    samples.add("cli.import_s", T_IMPORTED - T_START)
    setup, _ = repeated_setup(lambda s: InferSetup(args, s), samples)
    folded = setup.folded
    bs = setup.cfg.batch_size
    batch = setup.eval_set.images[:bs]
    acts = chk.reference_activations(folded, batch)
    models = [chk.single_layer_model(folded, k, np.zeros((acts[k + 1][0].size, 0)))
              for k in range(len(folded.layers))]
    # the classifier's GEMM is too small to see next to block6, so it is
    # timed behind a 1x1 layer: with the real fc, minus with an empty one
    c = folded.fc_weight.shape[0]
    one_by_one = deployment.FoldedLayer(
        name="fc.input", weight_idx=np.ones((c, c, 1, 1)), channel_sign=np.ones(c),
        weight_levels=1, stride=1, pad=0, in_scale=1.0, in_levels=2**16,
        offset=np.zeros(c), clip=np.full(c, 2.0**20), requant=np.full(c, 1e-3),
        out_alpha=1.0, out_levels=folded.layers[-1].out_levels, pool_k=1,
    )
    fc_pair = [deployment.FoldedModel(layers=[one_by_one], fc_weight=fc, fc_in_scale=1.0,
                                      logit_scale=1.0) for fc in (folded.fc_weight, np.zeros((c, 0)))]
    start = now()
    rounds = 0
    # every layer alone on its own integer input, in rounds
    while rounds < MIN_PASSES or now() - start < args.seconds / 2:
        for k, layer in enumerate(folded.layers):
            t0 = now()
            models[k].forward_int(acts[k])
            samples.add(f"deployment.forward_int.{layer.name}.ms", 1e3 * (now() - t0))
        for _ in range(20):
            pair_s = []
            for model in fc_pair:
                t0 = now()
                model.forward_int(acts[-1])
                pair_s.append(now() - t0)
            samples.add("deployment.forward_int.fc.ms", 1e3 * (pair_s[0] - pair_s[1]))
        rounds += 1
    for k, layer in enumerate(folded.layers):
        w_shape = np.shape(layer.weight_idx)
        n, _, h, w = acts[k].shape
        ho = (h + 2 * layer.pad - w_shape[-1]) // layer.stride + 1
        wo = (w + 2 * layer.pad - w_shape[-1]) // layer.stride + 1
        macs = conv_macs(w_shape, (n, w_shape[0], ho, wo))
        samples.add(f"deployment.forward_int.{layer.name}.gops",
                    macs / (samples.median(f"deployment.forward_int.{layer.name}.ms") * 1e6))
    fc_macs = bs * folded.fc_weight.shape[0] * folded.fc_weight.shape[1]
    samples.add("deployment.forward_int.fc.gops",
                fc_macs / (samples.median("deployment.forward_int.fc.ms") * 1e6))
    trace_eval(setup.model, setup.eval_set, bs, Tracer(), samples)
    infer_checks(checks, setup)
    return samples


# -- entry point ------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=(*TRAIN_CONFIGS, "infer-fold-q4"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ckpt-dir", type=Path, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    args.work_dir.mkdir(parents=True, exist_ok=True)
    checks = chk.CheckList()
    train = args.workload in TRAIN_CONFIGS
    declared = declared_metrics(args.trace)
    if args.trace:
        run = trace_train if train else trace_infer
        samples = run(args, checks)
        unknown = sorted(set(samples.values) - {m["name"] for m in declared})
        if unknown:
            raise RuntimeError(f"traced metrics missing from BENCHMARK.json: {unknown}")
        values = {m["name"]: samples.median(m["name"]) for m in declared}
    else:
        run = run_train if train else run_infer
        values = run(args, checks)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for c in checks.checks:
        print(f"check {'PASS' if c.ok else 'FAIL'} {c.name}: {c.detail}", file=sys.stderr)
    print(f"numpy {np.__version__}, OPENBLAS_NUM_THREADS="
          f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}", file=sys.stderr)
    print(json.dumps({"correct": checks.correct, "attempted": checks.attempted,
                      "failed": len(checks.failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
