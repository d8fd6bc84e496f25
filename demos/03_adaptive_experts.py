"""Growing and pruning the expert set from routing records.

During a recording window the training loop keeps one routing record per
layer: it counts per-expert activations (r_e) and sums the embeddings of
tokens that activated nothing (r_s). Closing the
window removes experts nobody used and, if unserved tokens exist, appends
one expert whose representation column is r_s normalized, with a zero
threshold. An unserved token x activates the newcomer iff <x, r_s> > 0,
which holds for every member of a cluster with pairwise-positive cosines,
like the one below.
"""

import numpy as np

from dynmoe import AdaptConfig, MoeLayer, RouterParams, RoutingRecord, adapt, moe_forward, record

rng = np.random.default_rng(2)

D, H = 10, 8
layer = MoeLayer.around(RouterParams.random(D, 3, rng), H, rng)
layer.router.g.value[:] = 4.0  # strict thresholds: most tokens go unserved
print(f"layer starts with {layer.n_experts} experts, thresholds at 4.0")

# A tight cluster of tokens the current experts will not serve.
center = rng.standard_normal(D)
center /= np.linalg.norm(center)
cluster = center[None, :] + 0.05 * rng.standard_normal((30, D))

decision = layer.router.route(cluster, "train")
print(f"cluster of 30 tokens: activation counts per expert = "
      f"{decision.mask.sum(axis=0).astype(int).tolist()}, unserved = "
      f"{int((decision.k == 0).sum())}")

rec = RoutingRecord.fresh(layer.n_experts, D)  # the layer's record, as the loop keeps it
record(rec, decision, cluster)
print(f"routing record: r_e={rec.r_e.tolist()}  |r_s|={np.linalg.norm(rec.r_s):.2f}")

report = adapt(layer, rec, AdaptConfig(max_experts=8), rng)
print(f"\nadapt: removed {report.removed_experts} (never activated, clamped to "
      f"keep at least 1), added one expert -> {report.new_k_total} experts")

after = layer.router.route(cluster, "train")
print(f"the new expert now catches the whole cluster: "
      f"{int(after.mask[:, -1].sum())}/30 tokens, its threshold = "
      f"{layer.router.g.value[-1]:.1f}")

# --- pruning leaves the function intact -----------------------------------------
# Removing an expert no token used cannot change any output: check on a
# probe batch around the new expert's cluster.
probe = center[None, :] + 0.05 * rng.standard_normal((20, D))
before_out, probe_dec = moe_forward(layer, probe)
record(rec, probe_dec, probe)  # adapt left the record reset, sized for the new experts
report = adapt(layer, rec, AdaptConfig(max_experts=8), rng)
after_out, _ = moe_forward(layer, probe)
print(f"\npruning pass removed {report.removed_experts}; probe outputs moved by "
      f"{np.max(np.abs(after_out - before_out)):.1e} (exactly zero expected)")
