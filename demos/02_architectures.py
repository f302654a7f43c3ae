# Walk the model zoo: build each architecture, run a traced forward
# pass, and print the parameter count table for the reference domains.

import numpy as np

from actreg import (ModelSpec, activation_energy, build_model,
                    forward_traced, param_count_for, parameter_count_table)
from actreg.rng import make_generator

gen = make_generator(1)
batch = gen.normal(size=(8, 64))

specs = [
    ModelSpec("bimodal", 64, 32, 5, glia_ratio=1.0),
    ModelSpec("physics", 64, 32, 5),
    ModelSpec("mlp", 64, 32, 5),
    # 64 features reshape to an 8x8 single-channel image for the conv net
    ModelSpec("cnn", 64, 32, 5),
]

for spec in specs:
    model = build_model(spec, seed=7)
    trace = forward_traced(model, batch)
    widths = [t.shape for t in trace.hidden_activations]
    e = activation_energy(trace).item()
    print(f"{spec.arch:8s} params={param_count_for(spec):7d}  "
          f"logits={trace.logits.shape}  energy={e:8.2f}  "
          f"hidden shapes={widths}")

# the bimodal net splits its budget between a ReLU path and a tanh path;
# glia_ratio sets the relative width of the second
print()
for ratio in (0.25, 0.5, 1.0, 2.0):
    spec = ModelSpec("bimodal", 64, 32, 5, glia_ratio=ratio)
    print(f"glia_ratio={ratio:4.2f} -> {param_count_for(spec):6d} params")

# published reference sizes at hidden_dim=1024
print()
print(parameter_count_table().to_text())
