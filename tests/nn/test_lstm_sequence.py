"""Whole-sequence trunk kernel: ``lstm_sequence`` bit-exactness suite.

``lstm_sequence`` replaces ``T`` chained :func:`lstm_trunk` steps in the
PPO update with one graph node.  Its contract is bit-identity, not
closeness: the forward values and the gradient of every operand (inputs,
initial state and all four parameters) must equal, byte for byte, both

* a chain of per-step ``lstm_trunk`` calls, and
* the composed chain ``affine`` + ``tanh`` + ``LSTMCell(fused=False)``,

over a grid of sequence lengths and batch sizes, with non-zero initial
state, with frozen parameters, and with one workspace reused across
calls of different shapes.  The last class checks the production call
site: the shared-mode ``_evaluate_shared`` over a ``(T, B·M)`` rollout
of several replicas, fused against ``fused=False``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.lstm import LSTMCell
from repro.nn.tensor import Tensor, affine, lstm_sequence, lstm_trunk, stack

F_IN, ENC, HID = 5, 6, 4
NAMES = ("x", "h0", "c0", "enc_weight", "enc_bias", "weight", "bias")


def _operands(
    steps: int,
    rows: int,
    seed: int,
    zero_state: bool = False,
    sizes: tuple[int, int, int] = (F_IN, ENC, HID),
):
    f_in, enc, hid = sizes
    rng = np.random.default_rng(seed)
    arrays = [
        rng.standard_normal((steps, rows, f_in)),
        rng.standard_normal((rows, hid)) * 0.5,
        rng.standard_normal((rows, hid)) * 0.5,
        rng.standard_normal((f_in, enc)) * 0.4,
        rng.standard_normal(enc) * 0.1,
        rng.standard_normal((enc + hid, 4 * hid)) * 0.4,
        rng.standard_normal(4 * hid) * 0.1,
    ]
    if zero_state:
        arrays[1][:] = 0.0
        arrays[2][:] = 0.0
    cotangent = rng.standard_normal((steps, rows, hid))
    return arrays, cotangent


def _grad_of(tensor: Tensor):
    return None if tensor.grad is None else tensor.grad.copy()


def _run_sequence(arrays, cotangent, requires, workspace=None):
    leaves = [Tensor(a.copy(), requires_grad=r) for a, r in zip(arrays, requires)]
    out = lstm_sequence(*leaves, workspace=workspace)
    if out.requires_grad:
        (out * Tensor(cotangent)).sum().backward()
    return out.data.copy(), [_grad_of(t) for t in leaves]


def _run_chain(arrays, cotangent, requires, step):
    """Unroll ``step(x_t, h, c, params) -> (h, c)`` over per-step leaves.

    Each step's input is its own leaf tensor, so the ``x`` gradient is
    compared without an indexing op in between.
    """
    xs = [Tensor(arrays[0][t].copy(), requires_grad=requires[0]) for t in range(len(arrays[0]))]
    rest = [Tensor(a.copy(), requires_grad=r) for a, r in zip(arrays[1:], requires[1:])]
    h, c = rest[0], rest[1]
    hidden = []
    for x_t in xs:
        h, c = step(x_t, h, c, rest[2:])
        hidden.append(h)
    out = stack(hidden, axis=0)
    if out.requires_grad:
        (out * Tensor(cotangent)).sum().backward()
    x_grad = None if not requires[0] else np.stack([x_t.grad for x_t in xs])
    return out.data.copy(), [x_grad] + [_grad_of(t) for t in rest]


def _trunk_step(workspace):
    def step(x_t, h, c, params):
        return lstm_trunk(x_t, h, c, *params, workspace=workspace)

    return step


def _composed_step():
    cell = LSTMCell(ENC, HID, np.random.default_rng(0), fused=False)

    def step(x_t, h, c, params):
        enc_weight, enc_bias, cell.weight, cell.bias = params
        encoded = affine(x_t, enc_weight, enc_bias).tanh()
        h_new, (_, c_new) = cell(encoded, (h, c))
        return h_new, c_new

    return step


def _assert_bit_identical(got, want):
    out_got, grads_got = got
    out_want, grads_want = want
    assert out_got.shape == out_want.shape
    assert out_got.tobytes() == out_want.tobytes(), "forward values differ"
    for name, g_got, g_want in zip(NAMES, grads_got, grads_want):
        if g_want is None:
            assert g_got is None, name
            continue
        assert g_got is not None, name
        assert g_got.shape == g_want.shape, name
        assert g_got.tobytes() == g_want.tobytes(), f"gradient of {name} differs"


ALL_GRAD = (True,) * 7


class TestAgainstTrunkChain:
    @pytest.mark.parametrize("steps", [1, 7])
    @pytest.mark.parametrize("rows", [1, 8])
    def test_bit_exact(self, steps, rows):
        arrays, cot = _operands(steps, rows, seed=10 * steps + rows)
        _assert_bit_identical(
            _run_sequence(arrays, cot, ALL_GRAD),
            _run_chain(arrays, cot, ALL_GRAD, _trunk_step({})),
        )

    def test_critic_sized_sequence(self):
        """The PPO update's shapes (90 steps, 8 rows, 64 hidden): full
        BLAS-sized GEMMs and a long chain of reverse-time sums."""
        arrays, cot = _operands(90, 8, seed=2, sizes=(32, 64, 64))
        _assert_bit_identical(
            _run_sequence(arrays, cot, ALL_GRAD),
            _run_chain(arrays, cot, ALL_GRAD, _trunk_step({})),
        )

    def test_zero_initial_state(self):
        arrays, cot = _operands(7, 8, seed=3, zero_state=True)
        _assert_bit_identical(
            _run_sequence(arrays, cot, ALL_GRAD),
            _run_chain(arrays, cot, ALL_GRAD, _trunk_step({})),
        )

    @pytest.mark.parametrize(
        "frozen",
        [
            ("x", "h0", "c0"),
            ("enc_weight", "enc_bias"),
            ("weight", "bias"),
            ("x", "h0", "c0", "enc_weight", "enc_bias"),
        ],
    )
    def test_frozen_operands(self, frozen):
        requires = tuple(name not in frozen for name in NAMES)
        arrays, cot = _operands(7, 8, seed=4)
        got = _run_sequence(arrays, cot, requires)
        _assert_bit_identical(got, _run_chain(arrays, cot, requires, _trunk_step({})))
        for name, grad in zip(NAMES, got[1]):
            assert (grad is None) == (name in frozen), name

    def test_nothing_requires_grad_records_no_node(self):
        arrays, cot = _operands(7, 8, seed=5)
        leaves = [Tensor(a) for a in arrays]
        out = lstm_sequence(*leaves)
        assert not out.requires_grad
        want, _ = _run_chain(arrays, cot, (False,) * 7, _trunk_step({}))
        assert out.data.tobytes() == want.tobytes()

    def test_workspace_reused_across_shapes(self):
        """One workspace serves calls of different (T, N); each result
        still matches a fresh-workspace chain, and the buffers whose
        shape does not depend on (T, N) — the parameter-shaped gradient
        accumulators — are reused rather than reallocated."""
        workspace: dict = {}
        shapes = [(7, 8), (1, 1), (7, 1), (3, 8), (7, 8)]
        first_ids = None
        for index, (steps, rows) in enumerate(shapes):
            arrays, cot = _operands(steps, rows, seed=100 + index)
            _assert_bit_identical(
                _run_sequence(arrays, cot, ALL_GRAD, workspace=workspace),
                _run_chain(arrays, cot, ALL_GRAD, _trunk_step({})),
            )
            ids = {key: id(workspace[key]) for key in ("gw", "gb", "gwe", "gbe")}
            first_ids = first_ids or ids
            assert ids == first_ids

    def test_two_sequences_in_flight_share_a_workspace(self):
        """Saved forward state is per call: two graphs built on one
        workspace before either backward still backpropagate exactly."""
        workspace: dict = {}
        runs = []
        for seed in (6, 7):
            arrays, cot = _operands(7, 8, seed=seed)
            leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            out = lstm_sequence(*leaves, workspace=workspace)
            runs.append((arrays, cot, leaves, out))
        loss = None
        for _, cot, _, out in runs:
            term = (out * Tensor(cot)).sum()
            loss = term if loss is None else loss + term
        # Disjoint parameter sets per run, so one backward serves both.
        loss.backward()
        for arrays, cot, leaves, out in runs:
            _assert_bit_identical(
                (out.data, [_grad_of(t) for t in leaves]),
                _run_chain(arrays, cot, ALL_GRAD, _trunk_step({})),
            )

    def test_rejects_two_dimensional_input(self):
        arrays, _ = _operands(1, 8, seed=8)
        with pytest.raises(ValueError):
            lstm_sequence(arrays[0][0], *arrays[1:])


class TestAgainstComposedChain:
    @pytest.mark.parametrize("steps", [1, 7])
    @pytest.mark.parametrize("rows", [1, 8])
    def test_bit_exact(self, steps, rows):
        arrays, cot = _operands(steps, rows, seed=20 * steps + rows)
        _assert_bit_identical(
            _run_sequence(arrays, cot, ALL_GRAD),
            _run_chain(arrays, cot, ALL_GRAD, _composed_step()),
        )

    @pytest.mark.parametrize("steps", [1, 7])
    def test_signed_zeros_match(self, steps):
        """A zero upstream gradient makes the gate gradients signed zeros
        (``0 * g`` is ``-0.0`` where ``g < 0``).  Every gradient the
        composed chain returns is then ``+0.0``, and the kernel's must be
        too, byte for byte."""
        arrays, cot = _operands(steps, 1, seed=30 + steps)
        cot[:] = 0.0
        _assert_bit_identical(
            _run_sequence(arrays, cot, ALL_GRAD),
            _run_chain(arrays, cot, ALL_GRAD, _composed_step()),
        )

    def test_frozen_weights(self):
        requires = (True, True, True, True, True, False, False)
        arrays, cot = _operands(7, 8, seed=9)
        _assert_bit_identical(
            _run_sequence(arrays, cot, requires),
            _run_chain(arrays, cot, requires, _composed_step()),
        )


class TestSharedModeEvaluator:
    """``_evaluate_shared`` over a shared-mode ``(T, B·M)`` rollout:
    the fused path (``lstm_sequence``) against ``fused=False``."""

    @staticmethod
    def _shared_rollout():
        from repro.agents.pairuplight import PairUpLightSystem
        from repro.agents.pairuplight.batched import BatchedPolicyGroup
        from repro.eval.batched import LockstepEnvGroup
        from repro.eval.harness import ExperimentScale, make_experiment

        scale = ExperimentScale(
            rows=2,
            cols=2,
            peak_rate=600.0,
            t_peak=60.0,
            light_duration=120.0,
            horizon_ticks=60,
            max_ticks=3600,
            train_episodes=1,
            eval_episodes=1,
        )
        seeds = [0, 1, 2]
        envs = [make_experiment(scale, seed=s).train_env(1) for s in seeds]
        agents = [PairUpLightSystem(env, seed=s) for env, s in zip(envs, seeds)]
        group = LockstepEnvGroup(envs)
        policy = BatchedPolicyGroup(agents, group, shared_across_replicas=True)
        observations = group.reset_all(seeds)
        policy.begin_episode_all(True)
        done = False
        while not done:
            results = group.step_all(policy.act_all(observations, True))
            policy.observe_all(results)
            observations = [r.observations for r in results]
            done = results[0].done
        return envs[0], policy._buffer.stacked()

    def test_fused_matches_composed_bit_exact(self):
        from repro.agents.pairuplight import PairUpLightConfig, PairUpLightSystem

        env, data = self._shared_rollout()
        columns = data["obs"].shape[1]
        assert columns == 3 * 4
        batches = [
            np.arange(columns),
            np.random.default_rng(0).permutation(columns)[:5],
        ]
        for batch in batches:
            results = {}
            for fused in (True, False):
                system = PairUpLightSystem(env, PairUpLightConfig(fused=fused), seed=0)
                outputs = system._evaluate_shared(data, batch)
                (
                    outputs[0].sum() + outputs[1].sum() + outputs[2].sum()
                ).backward()
                grads = {
                    f"{module_name}.{name}": param.grad.copy()
                    for module_name, module in system._checkpoint_modules().items()
                    for name, param in module.named_parameters()
                }
                results[fused] = ([o.data.copy() for o in outputs], grads)
            for got, want in zip(results[True][0], results[False][0]):
                assert got.tobytes() == want.tobytes()
            assert results[True][1].keys() == results[False][1].keys()
            assert len(results[True][1]) == 14
            for key, grad in results[True][1].items():
                assert grad.tobytes() == results[False][1][key].tobytes(), key
