"""Reference formulas and rejection tables the test modules share.

This module imports numpy only, never hambr: each formula is written out
plainly, so a fast kernel compared with it is compared with the math, not
with itself.  The tables list inputs the package must reject; the module
that owns the check asserts its message, and test_cli.py runs each input
through the command line.
"""

import numpy as np


def unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1)[:, None]


def bank_rows(groups):
    """The (features, weights, labels) rows of a bank given as {class id:
    (features, weights)}, class after class in the dict's order."""
    feats, weights = zip(*groups.values())
    return (np.concatenate(feats), np.concatenate(weights),
            np.repeat(list(groups), [len(w) for w in weights]))


# -- the vMF soft-min free energy ---------------------------------------------

def stable_top_k(sims, weights, k):
    """Oracle for _top_k: a stable sort of each row, largest first, keeps the
    k largest values and, among equal ones, the lowest columns."""
    cols = np.sort(np.argsort(-sims, axis=1, kind="stable")[:, :k], axis=1)
    w = np.broadcast_to(weights, sims.shape)
    return np.take_along_axis(sims, cols, 1), np.take_along_axis(w, cols, 1), cols


def soft_min_reference(sims, weights, tau):
    """-tau * log sum_j w_j exp(s_j / tau) along the last axis, with the
    zero-weight entries masked out."""
    masked = np.where(weights > 0, sims, -np.inf)
    m = masked.max(axis=-1, keepdims=True)
    terms = weights * np.exp((masked - m) / tau)
    return -(m[..., 0] + tau * np.log(terms.sum(axis=-1)))


def class_energies(points, groups, k, tau):
    """(n, C) class energies of `groups` ({class id: (features, weights)}),
    classes in id order: each class scored in one (n, m_c) slab, a masked
    log-sum-exp over each point's k nearest entries (a stable sort)."""
    classes = sorted(groups)
    energies = np.empty((points.shape[0], len(classes)))
    for j, c in enumerate(classes):
        feats, w = groups[c]
        sims, weights, _ = stable_top_k(points @ feats.T, w, min(k, feats.shape[0]))
        energies[:, j] = soft_min_reference(sims, weights, tau)
    return energies


def unblocked_potential_batch(points, groups, k, tau):
    """Reference for potential_batch: the least class energy of each point."""
    return np.min(class_energies(points, groups, k, tau), axis=1)


def reference_potential(z, groups, k, tau):
    """Reference for global_potential: (U(z), argmin class), a tie going to
    the smallest class id."""
    energies = class_energies(z[None, :], groups, k, tau)[0]
    j = int(np.argmin(energies))
    return energies[j], sorted(groups)[j]


def reference_gradient(z, groups, k, tau):
    """Reference for riemannian_grad_U: (gradient, argmin class).  Over the
    argmin class's k nearest entries k_j, with s the softmax of
    log w_j + z.k_j / tau, the gradient is -sum_j s_j k_j less its radial part."""
    _, c = reference_potential(z, groups, k, tau)
    feats, w = groups[c]
    sims, weights, cols = stable_top_k((feats @ z)[None, :], w, min(k, feats.shape[0]))
    masked = np.where(weights[0] > 0, sims[0], -np.inf)
    terms = weights[0] * np.exp((masked - masked.max()) / tau)
    g = -((terms / terms.sum()) @ feats[cols[0]])
    return g - (g @ z) * z, c


# -- the InfoNCE term and the AUROC ranks -------------------------------------

def reference_contrastive_grads(v1, v2, tau):
    """The concatenate-then-softmax formulas contrastive_grads replaced."""
    n = v1.shape[0]
    pos = np.einsum("ij,ij->i", v1, v2) / tau
    a = (v1 @ v1.T) / tau
    np.fill_diagonal(a, -np.inf)
    logits = np.concatenate([pos[:, None], a], axis=1)
    m = logits.max(axis=1, keepdims=True)
    ex = np.exp(logits - m)
    denom = ex.sum(axis=1)
    p = ex / denom[:, None]
    loss = float((np.log(denom) + m[:, 0] - pos).mean())
    p_pos, p_a = p[:, 0], p[:, 1:n + 1]
    g1 = ((p_pos - 1.0)[:, None] * v2 + p_a @ v1 + p_a.T @ v1) / tau
    g2 = (p_pos - 1.0)[:, None] * v1 / tau
    return loss, g1, g2


def reference_auroc(id_scores, ood_scores):
    """Reference for auroc: P(ood > id) + 0.5 P(tie), counted over all pairs."""
    diff = np.subtract.outer(np.asarray(ood_scores, float), np.asarray(id_scores, float))
    return float(((diff > 0).sum() + 0.5 * (diff == 0).sum()) / diff.size)


def reference_ranks(values):
    """The tie-group loop _ranks_with_ties replaced."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


# -- config documents config_from_dict rejects --------------------------------

def nested(path, value):
    """{"a": {"b": value}} for the path "a.b"."""
    for name in reversed(path.split(".")):
        value = {name: value}
    return value


# (section, name) of each float field that must be finite; None is top level
NON_FINITE_FIELDS = [
    ("sampler", "step_size"), ("sampler", "friction"),
    ("sampler", "dyn_temperature"), ("energy", "tau_energy"),
    ("weights", "lambda_u"), ("weights", "lambda_reg"), ("weights", "lambda_c"),
    ("weights", "lambda_hambr"), ("weights", "tau_loss"), ("weights", "tau_con"),
    ("weights", "sharpen_T"), ("weights", "gce_q"), (None, "learn_rate"),
    (None, "classifier_temperature"), (None, "aug_sigma"), ("dataset", "kappa"),
]
NON_FINITE_VALUES = [float("nan"), float("inf")]

# (document, the dotted name its message starts with)
NON_INTEGERS = [
    ({"t_filter": float("nan")}, "t_filter"),
    ({"epochs": 3.0}, "epochs"),
    ({"warmup_epochs": "1"}, "warmup_epochs"),
    ({"seed": 1.5}, "seed"),
    ({"seed": True}, "seed"),
    ({"seed": -1}, "seed"),
    ({"sampler": {"n_chains": 2.5}}, "sampler.n_chains"),
    ({"sampler": {"n_rounds": True}}, "sampler.n_rounds"),
    ({"sampler": {"steps_per_round": None}}, "sampler.steps_per_round"),
    ({"sampler": {"seed": -1}}, "sampler.seed"),
    ({"energy": {"k_neighbors": 2.5}}, "energy.k_neighbors"),
    ({"dataset": {"n_per_class": 20.5}}, "dataset.n_per_class"),
    ({"dataset": {"dim": 8.0}}, "dataset.dim"),
    ({"dataset": {"n_classes": float("nan")}}, "dataset.n_classes"),
    ({"dataset": {"seed": -3}}, "dataset.seed"),
    ({"t_filter": 2.0}, "t_filter"),
]

# (dataset section, the DatasetSpec field its message names)
UNSAMPLABLE_DATASETS = [
    ({"kappa": [1e20]}, "kappa"), ({"kappa": [20.0, 1e17, 5.0]}, "kappa"),
    ({"n_classes": 1}, "noise"), ({"n_classes": 1, "noise": {"rate": 0.1}}, "noise"),
]

# (document, whole message); a section's own check starts with the section's path
SECTION_RANGES = [
    ({"sampler": {"step_size": -1.0}}, "sampler: step_size must be positive and finite"),
    ({"dataset": {"noise": {"rate": 2.0}}}, "dataset.noise: rate must be in [0, 1]"),
    ({"sampler": {"friction": 300.0, "step_size": 0.01, "integrator_variant": "euler"}},
     "sampler: friction * step_size must be <= 1 for the euler variant, got 3.0"),
    ({"warmup_epochs": 30}, "warmup_epochs must be in [0, epochs), got 30 with epochs 30"),
    ({"warmup_epochs": -1}, "warmup_epochs must be in [0, epochs), got -1 with epochs 30"),
]

# (document, the start of its message)
WRONG_JSON_TYPES = [
    # experiment level
    ({"epochs": True}, "epochs must be an integer"),
    ({"learn_rate": True}, "learn_rate must be a number"),
    ({"learn_rate": "0.1"}, "learn_rate must be a number"),
    ({"output_dir": 5}, "output_dir must be a string"),
    ({"dataset": None}, "dataset must be an object"),
    ({"dataset": []}, "dataset must be an object"),
    ({"energy": "ab"}, "energy must be an object"),
    ({"sampler": [["n_chains", 4]]}, "sampler must be an object"),
    ({"epoch": 3}, "config: unknown keys ['epoch']"),
    # section level; noise_per_step is a removed option
    ({"sampler": {"noise_per_step": "false"}}, "sampler: unknown keys ['noise_per_step']"),
    ({"sampler": {"noise_per_step": 0}}, "sampler: unknown keys ['noise_per_step']"),
    ({"energy": {"k_neighbors": True}}, "energy.k_neighbors must be an integer"),
    ({"weights": {"gce_q": True}}, "weights.gce_q must be a number"),
    ({"sampler": {"integrator_variant": 1}},
     "sampler.integrator_variant must be a string"),
    ({"dataset": {"kappa": [1.0, True, 2]}},
     "dataset.kappa must be a number or a list of numbers"),
    ({"dataset": {"kappa": "20"}}, "dataset.kappa must be a number or a list of numbers"),
    ({"dataset": {"means": [[1.0, "0"]]}}, "dataset.means must be"),
    ({"dataset": {"noise": []}}, "dataset.noise must be an object"),
    ({"weights": {"lambda": 1.0}}, "weights: unknown keys ['lambda']"),
    # dataset.noise level
    ({"dataset": {"noise": {"mode": 1}}}, "dataset.noise.mode must be a string"),
    ({"dataset": {"noise": {"rate": True}}}, "dataset.noise.rate must be a number"),
    ({"dataset": {"noise": {"rate": None}}}, "dataset.noise.rate must be a number"),
    ({"dataset": {"noise": {"kind": "x"}}}, "dataset.noise: unknown keys ['kind']"),
    # nesting: kappa is flat, means one level deeper
    ({"dataset": {"kappa": [[1.0, 2.0]]}},
     "dataset.kappa must be a number or a list of numbers"),
    ({"dataset": {"means": [1.0, 0.0]}}, "dataset.means must be a list of lists of numbers"),
    ({"dataset": {"means": [[[1.0, 0.0]]]}},
     "dataset.means must be a list of lists of numbers"),
    ({"dataset": {"means": [[[1.0] + [0.0] * 7], [[0.0, 1.0] + [0.0] * 6],
                            [[0.0, 0.0, 1.0] + [0.0] * 5]]}},
     "dataset.means must be a list of lists of numbers"),
    # unknown keys beside known ones
    ({"epochs": 4, "warmup_epoch": 2}, "config: unknown keys ['warmup_epoch']"),
    ({"sampler": {"stepsize": 0.1}}, "sampler: unknown keys ['stepsize']"),
]

# (document, the dotted path its message names)
TOO_LARGE_FOR_A_FLOAT = [
    ({"learn_rate": 10 ** 400}, "learn_rate"),
    ({"sampler": {"step_size": 10 ** 400}}, "sampler.step_size"),
    ({"dataset": {"kappa": 10 ** 400}}, "dataset.kappa"),
    ({"dataset": {"kappa": [1.0, -10 ** 400, 2.0]}}, "dataset.kappa"),
    ({"dataset": {"means": [[1.0] + [0.0] * 7, [0.0, 10 ** 400] + [0.0] * 6,
                            [0.0, 0.0, 1.0] + [0.0] * 5]}}, "dataset.means"),
]

# every integer config field that is no seed; test_runner.py checks the list
# against the config's fields
COUNT_PATHS = ["dataset.dim", "dataset.n_classes", "dataset.n_per_class",
               "sampler.n_rounds", "sampler.steps_per_round", "sampler.n_chains",
               "energy.k_neighbors", "t_filter", "epochs", "warmup_epochs"]
TOO_LARGE_FOR_64_BITS = [2 ** 63, 10 ** 30, -2 ** 63 - 1]

REJECTED_CONFIGS = (
    [{name: value} if section is None else {section: {name: value}}
     for section, name in NON_FINITE_FIELDS for value in NON_FINITE_VALUES]
    + [doc for doc, _ in NON_INTEGERS + SECTION_RANGES + WRONG_JSON_TYPES
       + TOO_LARGE_FOR_A_FLOAT]
    + [{"dataset": dataset} for dataset, _ in UNSAMPLABLE_DATASETS]
    + [nested(path, value) for path in COUNT_PATHS for value in TOO_LARGE_FOR_64_BITS])


# -- bank files load_bank rejects ---------------------------------------------

# (id, file text, the line its message names, the start of that message)
BAD_BANK_FILES = [
    ("non-unit-row", '{"class": 0, "weight": 1.0, "feature": [1.0, 1.0]}\n', 1,
     "feature is not unit norm: |v| = 1.4142135623730951"),
    ("weight-1.5", '{"class": 0, "weight": 1.5, "feature": [1.0, 0.0]}\n', 1,
     "weight must be in (0, 1], got 1.5"),
    ("weight-0", '{"class": 0, "weight": 0.0, "feature": [1.0, 0.0]}\n', 1,
     "weight must be in (0, 1], got 0.0"),
    ("ragged-features", '{"class": 0, "weight": 1.0, "feature": [1.0, 0.0]}\n'
     '{"class": 0, "weight": 1.0, "feature": [1.0, 0.0, 0.0]}\n', 2,
     "feature has 3 values, the first row's has 2"),
    ("float-class", '{"class": 0.5, "weight": 1.0, "feature": [1.0, 0.0]}\n', 1,
     "class labels must be non-negative integers, got 0.5"),
    ("negative-class", '{"class": -1, "weight": 1.0, "feature": [1.0, 0.0]}\n', 1,
     "class labels must be non-negative integers, got -1"),
    ("weight-0-on-line-2", '{"class": 0, "weight": 1.0, "feature": [1.0, 0.0]}\n'
     '{"class": 1, "weight": 0.0, "feature": [0.0, 1.0]}\n', 2,
     "weight must be in (0, 1], got 0.0"),
]

# each bad line follows a good line and a blank one, so it is line 3
BAD_LINE_PREFIX = '{"class": 0, "weight": 1.0, "feature": [1.0, 0.0]}\n\n'

# (bad line, the start of its message)
BAD_BANK_LINES = [
    ("{nope", "not valid JSON"),
    ('{"class": 1, "weight": 1.0, "feature": [0.0, 1.0]', "not valid JSON"),
    ("[0.0, 1.0]", "row is not a JSON object"),
    ('{"weight": 1.0, "feature": [0.0, 1.0]}', "missing key 'class'"),
    ('{"class": 1, "feature": [0.0, 1.0]}', "missing key 'weight'"),
    ('{"class": 1, "weight": 1.0}', "missing key 'feature'"),
    ('{"class": 1, "weight": 1.0, "feature": [0.0, 1.0, 0.0]}',
     "feature has 3 values, the first row's has 2"),
    ('{"class": 1, "weight": 1.0, "feature": [0.0, "1"]}',
     "feature must be a list of numbers"),
    ('{"class": true, "weight": 1.0, "feature": [0.0, 1.0]}',
     "class labels must be non-negative integers, got True"),
    ('{"class": 1.0, "weight": 1.0, "feature": [0.0, 1.0]}',
     "class labels must be non-negative integers, got 1.0"),
    ('{"class": -1, "weight": 1.0, "feature": [0.0, 1.0]}',
     "class labels must be non-negative integers, got -1"),
    ('{"class": 9223372036854775808, "weight": 1.0, "feature": [0.0, 1.0]}',
     "class labels must fit in a 64-bit integer, got 9223372036854775808"),
    ('{"class": 1000000000000000000000000000000, "weight": 1.0, "feature": [0.0, 1.0]}',
     "class labels must fit in a 64-bit integer, got 1000000000000000000000000000000"),
    ('{"class": 1, "weight": true, "feature": [0.0, 1.0]}',
     "weight must be a number, got True"),
    ('{"class": 1, "weight": "1.0", "feature": [0.0, 1.0]}',
     "weight must be a number, got '1.0'"),
    ('{"class": 1, "weight": 1.5, "feature": [0.0, 1.0]}',
     "weight must be in (0, 1], got 1.5"),
    ('{"class": 1, "weight": -0.0001, "feature": [0.0, 1.0]}',
     "weight must be in (0, 1], got -0.0001"),
    ('{"class": 1, "weight": -0.5, "feature": [0.0, 1.0]}',
     "weight must be in (0, 1], got -0.5"),
    ('{"class": 1, "weight": 0.0, "feature": [0.0, 1.0]}',
     "weight must be in (0, 1], got 0.0"),
    ('{"class": 1, "weight": 0, "feature": [0.0, 1.0]}',
     "weight must be in (0, 1], got 0"),
    ('{"class": 1, "weight": -0.0, "feature": [0.0, 1.0]}',
     "weight must be in (0, 1], got -0.0"),
    ('{"class": 1, "weight": NaN, "feature": [0.0, 1.0]}',
     "weight must be in (0, 1], got nan"),
    ('{"class": 1, "weight": Infinity, "feature": [0.0, 1.0]}',
     "weight must be in (0, 1], got inf"),
    ('{"class": 1, "weight": 1.0, "feature": [1.0, 1.0]}',
     "feature is not unit norm: |v| = 1.4142135623730951"),
    ('{"class": 1, "weight": 1.0, "feature": [0.6, 0.6]}',
     "feature is not unit norm: |v| = 0.848528137423857"),
    ('{"class": 1, "weight": 1.0, "feature": [1.0, NaN]}',
     "feature is not unit norm: |v| = nan"),
    ('{"class": 1, "weight": 1.0, "feature": [NaN, 1.0]}',
     "feature is not unit norm: |v| = nan"),
    ('{"class": 1, "weight": 1.0, "feature": [Infinity, 0.0]}',
     "feature is not unit norm: |v| = inf"),
    ('{"class": 1, "weight": 1.0, "feature": [-Infinity, 0.0]}',
     "feature is not unit norm: |v| = inf"),
    ('{"class": 1, "weight": 1.0, "feature": [true, 0.0]}',
     "feature must be a list of numbers"),
    ('{"class": 1, "weight": 1.0, "feature": [0.0, false]}',
     "feature must be a list of numbers"),
    ('{"class": 1, "weight": 1.0, "feature": [1.0]}',
     "feature has 1 values, at least 2 are needed"),
]
