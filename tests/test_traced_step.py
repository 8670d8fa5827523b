"""A traced `pretrain-tiny` run (`perfbench/run.py --trace 1`) counts graph
nodes by walking `Tensor._parents` and wraps attention closures through
`_backward`. Its probes, installed over a real `tiny` step, must still find
one node per attention call and the step's node counts."""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402
import spans  # noqa: E402

from blf.encoder import preset  # noqa: E402
from blf.pretrain import PretrainHyper, RtdPretrainer  # noqa: E402
from blf.rng import substream  # noqa: E402


def test_pretrain_probes_over_a_tiny_step(monkeypatch):
    trainer = RtdPretrainer(preset("tiny"), PretrainHyper(batch_size=2, warmup_steps=5, total_steps=50), seed=1)
    ids = substream(1, "graph-ids").integers(5, 512, size=(2, 128))
    sizes = []
    reachable_count = spans.reachable_count
    monkeypatch.setattr(spans, "reachable_count", lambda root: sizes.append(reachable_count(root)) or sizes[-1])
    tracer = spans.Tracer()
    try:
        jobs.PretrainJob.probe(tracer)
        trainer.step(ids)
    finally:
        tracer.restore()
    names = [span[0] for span in tracer.spans]
    calls = names.count("attention.forward")
    assert calls == 3  # the generator's one block and the discriminator's two
    assert tracer.counts[("attention.nodes", None)] == calls
    assert names.count("attention.backward") == calls  # every wrapped closure ran
    assert sizes == [47, 85] and tracer.counts[("tensor.graph_nodes", None)] == 132
